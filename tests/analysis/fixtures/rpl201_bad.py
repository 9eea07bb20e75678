"""Must-flag: civil-time and OS-entropy reads that would leak into
recorded metrics."""

import os
import time
from datetime import datetime
from time import time as now

start = time.time()
stamp = datetime.now()
later = now()
ns = time.time_ns()
nonce = os.urandom(8)
