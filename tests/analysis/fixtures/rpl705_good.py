"""Clean twin of rpl705_bad: the round path measures with the sanctioned
perf_counter lane; the entropy helper exists but is only reachable from a
maintenance entry point, never from round() (a stand-in for the base
class's round loop, as in rpl705_bad)."""

import os
import time

from repro.fl.algorithms.base import FLAlgorithm


class MeasuredAlgorithm(FLAlgorithm):
    name = "Measured"

    def _tick(self):
        # perf_counter is the sanctioned measurement lane (never recorded
        # into results, so replay identity is untouched).
        return time.perf_counter()

    def _nonce(self):
        return os.urandom(8)

    def round(self, round_idx, selected):
        return self._tick()

    def rotate_debug_token(self):
        # Operator-facing maintenance path, not part of any round.
        return self._nonce()
