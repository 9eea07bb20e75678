"""Must-flag: wall-clock and OS-entropy calls transitively reachable from
round() — each one makes the round irreproducible, and none sits in
round() itself. The fixture is linted without src/repro, so its round()
stands in for the base class's round loop."""

import datetime
import os
import time

from repro.fl.algorithms.base import FLAlgorithm


def stamp():
    return datetime.datetime.now().isoformat()  # wall clock, free function


class ClockyAlgorithm(FLAlgorithm):
    name = "Clocky"

    def _tick(self):
        return time.time()  # wall clock, one call deep

    def _nonce(self):
        return os.urandom(8)  # OS entropy, one call deep

    def round(self, round_idx, selected):
        started = self._tick()
        tag = self._nonce()
        return stamp(), started, tag
