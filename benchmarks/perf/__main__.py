"""``python -m benchmarks.perf run|compare`` (see run.py)."""

import sys

from benchmarks.perf.run import main

sys.exit(main())
