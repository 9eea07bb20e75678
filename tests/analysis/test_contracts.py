"""What the static rules assume about the algorithm registry.

The runtime contracts (pickling, ``server_state`` round trips, the config
fingerprint) are checked per registry entry in
``tests/fl/test_registry_contract.py``; this module checks that the flow
rules, which never import the program, find every registered algorithm
class by its ancestry in the source.
"""

from __future__ import annotations

import pathlib

from repro.analysis.callgraph import ProjectIndex
from repro.analysis.engine import _load, iter_python_files
from repro.analysis.rules.flow_rules import algorithm_classes
from repro.fl.algorithms import ALGORITHM_REGISTRY

REPO = pathlib.Path(__file__).resolve().parents[2]


def test_registry_contains_the_paper_algorithms():
    names = set(ALGORITHM_REGISTRY.names())
    assert {"fedavg", "fedkemf", "fedkd", "fedmd", "scaffold"} <= names


def test_flow_rules_find_every_registered_algorithm():
    modules = [
        _load(path, path.relative_to(REPO).as_posix())
        for path in iter_python_files([REPO / "src" / "repro"])
    ]
    found = {cls.qualname for cls in algorithm_classes(ProjectIndex(modules))}
    registered = {
        f"{cls.__module__}.{cls.__qualname__}"
        for cls in map(ALGORITHM_REGISTRY.get, ALGORITHM_REGISTRY.names())
    }
    assert registered <= found, sorted(registered - found)
