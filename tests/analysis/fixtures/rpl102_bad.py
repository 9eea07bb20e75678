"""Must-flag: a default_rng() that no seed reaches draws OS entropy."""

import numpy as np
from numpy.random import default_rng

a = np.random.default_rng()
b = default_rng()
c = np.random.default_rng(seed=None)  # a constant None seed is no seed
