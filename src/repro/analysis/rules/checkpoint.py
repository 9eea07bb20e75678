"""Checkpoint-contract rule: mutable server state must be checkpointable.

The PR-3 bug class: an ``FLAlgorithm`` subclass that grows mutable state in
``setup()`` / ``__init__`` (control variates, per-client models, moments)
but never overrides ``server_state()`` — checkpoints then silently omit
that state, and a resumed run drifts from the uninterrupted trajectory.
The complementary *runtime* check (does ``server_state`` round-trip
through ``load_server_state``?) is a registry test
(``tests/fl/test_registry_contract.py``).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.rules.base import AstRule, SourceModule, Violation

__all__ = ["MissingServerState", "ALGORITHM_BASES"]

# Classes known to be FLAlgorithm subclasses (cross-file bases the AST
# cannot resolve). Deriving from one of the *stateful* bases counts as
# inheriting a server_state() that the parent's author already wrote; new
# mutable attributes added on top still warrant an override, which the
# registry's server_state round-trip test catches.
_ALGO_BASES = frozenset(
    {
        "FLAlgorithm",
        "FedAvg",
        "FedProx",
        "FedNova",
        "FedDF",
        "_FedOptBase",
    }
)
_STATEFUL_BASES = frozenset(
    {"Scaffold", "FedMD", "FedAvgM", "FedAdam", "FedKEMF", "FedKD"}
)
# Every algorithm class name the static rules recognise without resolving
# an import; a tier-1 test checks it names every registered algorithm.
ALGORITHM_BASES = _ALGO_BASES | _STATEFUL_BASES

_MUTABLE_CTORS = frozenset({"list", "dict", "set", "defaultdict", "OrderedDict", "deque"})
_STATE_HOOKS = ("setup", "__init__")
# Overrides of these hooks must delegate to super(): the FLAlgorithm base
# class checkpoints its own server state through them (the buffered-
# aggregation update buffer), so an override that fails to merge the base
# dict silently drops in-flight updates from every checkpoint.
_CHECKPOINT_HOOKS = frozenset({"server_state", "load_server_state"})


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in _MUTABLE_CTORS
    return False


def _self_attr_target(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class MissingServerState(AstRule):
    """Mutable ``self.*`` state with no ``server_state()`` override."""

    code = "RPL401"
    name = "missing-server-state"
    invariant = (
        "every FLAlgorithm subclass that assigns mutable server attributes "
        "in setup()/__init__ overrides server_state()/load_server_state() "
        "(merging super()'s dict) so checkpoints capture the full trajectory"
    )

    def check(self, module: SourceModule) -> Iterable[Violation]:
        classes = {
            node.name: node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        for cls in classes.values():
            if not self._is_algorithm(cls, classes):
                continue
            yield from self._check_super_delegation(module, cls)
            if self._covered(cls, classes):
                continue
            offender = self._first_mutable_assign(cls)
            if offender is not None:
                node, attr = offender
                yield self.violation(
                    module,
                    node,
                    f"{cls.name} assigns mutable server state "
                    f"(self.{attr}) but does not override server_state()/"
                    "load_server_state(); checkpoints will silently drop it",
                )

    def _check_super_delegation(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> Iterable[Violation]:
        """Overridden checkpoint hooks must call through to super().

        The base class owns part of the checkpoint (the buffered-server
        update buffer lives under its reserved ``"_async_buffer"`` key);
        an override that rebuilds the dict from scratch drops it, and a
        mid-buffer resume silently loses every in-flight update.
        """
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name not in _CHECKPOINT_HOOKS:
                continue
            if not self._calls_super(fn, fn.name):
                yield self.violation(
                    module,
                    fn,
                    f"{cls.name}.{fn.name}() never calls super().{fn.name}(); "
                    "base-class server state (e.g. the buffered-aggregation "
                    "update buffer) is dropped from checkpoints and a "
                    "mid-buffer resume loses the in-flight updates",
                )

    @staticmethod
    def _calls_super(fn: ast.AST, hook: str) -> bool:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == hook
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Name)
                and node.func.value.func.id == "super"
            ):
                return True
        return False

    # -- class-graph helpers (same-file inheritance resolved textually) -- #

    def _base_names(self, cls: ast.ClassDef) -> list[str]:
        names = []
        for base in cls.bases:
            if isinstance(base, ast.Name):
                names.append(base.id)
            elif isinstance(base, ast.Attribute):
                names.append(base.attr)
        return names

    def _is_algorithm(
        self, cls: ast.ClassDef, classes: dict[str, ast.ClassDef], _depth: int = 0
    ) -> bool:
        if _depth > 10:
            return False
        for base in self._base_names(cls):
            if base in ALGORITHM_BASES:
                return True
            if base in classes and self._is_algorithm(classes[base], classes, _depth + 1):
                return True
        return False

    def _covered(
        self, cls: ast.ClassDef, classes: dict[str, ast.ClassDef], _depth: int = 0
    ) -> bool:
        if _depth > 10:
            return False
        if any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "server_state"
            for node in cls.body
        ):
            return True
        for base in self._base_names(cls):
            if base in _STATEFUL_BASES:
                return True
            if base in classes and self._covered(classes[base], classes, _depth + 1):
                return True
        return False

    def _first_mutable_assign(
        self, cls: ast.ClassDef
    ) -> "tuple[ast.stmt, str] | None":
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name not in _STATE_HOOKS:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and _is_mutable_value(node.value):
                    for target in node.targets:
                        attr = _self_attr_target(target)
                        if attr is not None:
                            return node, attr
                elif (
                    isinstance(node, ast.AnnAssign)
                    and node.value is not None
                    and _is_mutable_value(node.value)
                ):
                    attr = _self_attr_target(node.target)
                    if attr is not None:
                        return node, attr
        return None
