"""Must-pass: every Generator is seeded (directly or via a variable)."""

import numpy as np
from numpy.random import default_rng

a = np.random.default_rng(0)
seed = 7
b = default_rng(seed)
