"""What the static rules assume about the algorithm registry.

The runtime contracts (pickling, ``server_state`` round trips, the config
fingerprint) are checked per registry entry in
``tests/fl/test_registry_contract.py``; this module pins the registry the
AST rules read without importing it.
"""

from __future__ import annotations

from repro.analysis.rules.checkpoint import ALGORITHM_BASES
from repro.fl.algorithms import ALGORITHM_REGISTRY


def test_registry_contains_the_paper_algorithms():
    names = set(ALGORITHM_REGISTRY.names())
    assert {"fedavg", "fedkemf", "fedkd", "fedmd", "scaffold"} <= names
    # MissingServerState resolves no imports: it knows an algorithm class
    # only by a base name in this table, so every registered class is in it.
    classes = {ALGORITHM_REGISTRY.get(name).__name__ for name in names}
    assert classes <= ALGORITHM_BASES, sorted(classes - ALGORITHM_BASES)
