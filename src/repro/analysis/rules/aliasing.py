"""Aliasing rules: shared read-only caches and autograd-saved buffers.

The PR-2 bug class: ``im2col_indices`` is ``lru_cache``'d and every conv
with the same geometry shares the returned index arrays, so a caller
mutating them silently corrupts every later convolution (the cache entries
are frozen read-only for exactly this reason). Similarly, an ``out=``
write landing in a tensor's ``.data`` inside an autograd op can alias an
activation the backward closure saved, corrupting gradients computed
later. Both are aliasing bugs invisible at the call site — hence a lint.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.rules.base import Rule, SourceModule, Violation, dotted_name

__all__ = ["CacheEntryMutation", "OutAliasesTensorData"]

# Functions whose return value is a shared lru_cache entry: mutating what
# they return corrupts every other caller with the same arguments.
CACHED_FUNCS = frozenset({"im2col_indices", "_im2col_row_index"})

# ndarray methods that write in place.
_MUTATOR_METHODS = frozenset({"fill", "sort", "resize", "put", "itemset", "partition"})

# numpy module-level functions whose *first* argument is written in place.
_MUTATOR_FIRST_ARG = frozenset(
    {"numpy.copyto", "numpy.put", "numpy.place", "numpy.putmask", "numpy.add.at"}
)


def _is_write_true(call: ast.Call) -> bool:
    """Does this ``setflags`` call set ``write=True`` (or positional 1)?"""
    for kw in call.keywords:
        if kw.arg == "write" and isinstance(kw.value, ast.Constant) and kw.value.value:
            return True
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and bool(first.value)
    return False


def _root_name(node: ast.AST) -> str | None:
    """The name at the bottom of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class CacheEntryMutation(Rule):
    """Writes through a binding that came out of a shared cache."""

    code = "RPL301"
    name = "cache-entry-mutation"
    invariant = (
        "arrays returned by lru_cache'd helpers (im2col_indices) are shared "
        "and frozen; nothing writes to them or flips them writeable"
    )

    def check(self, module: SourceModule) -> Iterable[Violation]:
        yield from self._scan(module, module.tree.body, frozenset())

    # Statements are processed in source order so rebinding a name clears
    # its cached-ness; nested defs (backward closures) inherit the bindings
    # live at their definition point.
    def _scan(
        self, module: SourceModule, body: list[ast.stmt], inherited: frozenset[str]
    ) -> Iterator[Violation]:
        bound = set(inherited)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._scan(module, stmt.body, frozenset(bound))
                continue
            for node in ast.walk(stmt):
                yield from self._check_node(module, node, bound)
            self._update_bindings(stmt, bound)

    def _update_bindings(self, stmt: ast.stmt, bound: set[str]) -> None:
        if not isinstance(stmt, ast.Assign):
            return
        from_cache = (
            isinstance(stmt.value, ast.Call)
            and isinstance((qn := dotted_name(stmt.value.func, {})), str)
            and qn.rsplit(".", 1)[-1] in CACHED_FUNCS
        )
        for target in stmt.targets:
            names = target.elts if isinstance(target, ast.Tuple) else [target]
            for t in names:
                if isinstance(t, ast.Name):
                    (bound.add if from_cache else bound.discard)(t.id)

    def _check_node(
        self, module: SourceModule, node: ast.AST, bound: set[str]
    ) -> Iterator[Violation]:
        # x[...] = / x.attr = / x += on a cached binding (a plain
        # ``x = ...`` is a rebinding, handled by _update_bindings)
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    if isinstance(node, ast.AugAssign) and t.id in bound:
                        yield self.violation(
                            module,
                            node,
                            f"augmented assignment mutates {t.id!r} in place, "
                            "which aliases a shared lru_cache entry",
                        )
                elif isinstance(t, (ast.Subscript, ast.Attribute)):
                    root = _root_name(t)
                    if root in bound:
                        yield self.violation(
                            module,
                            node,
                            f"write to {root!r}, which aliases a shared "
                            "lru_cache entry; copy it before mutating",
                        )
        elif isinstance(node, ast.Call):
            # any <x>.setflags(write=True): un-freezes a shared array
            if isinstance(node.func, ast.Attribute) and node.func.attr == "setflags":
                if _is_write_true(node):
                    yield self.violation(
                        module,
                        node,
                        "setflags(write=True) re-enables writes on an array "
                        "that may be a shared cache entry; copy instead",
                    )
                return
            # <x>.fill(...) etc. on a cached binding
            if isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATOR_METHODS:
                root = _root_name(node.func.value)
                if root in bound:
                    yield self.violation(
                        module,
                        node,
                        f"in-place {node.func.attr}() on {root!r}, which "
                        "aliases a shared lru_cache entry",
                    )
                return
            # np.add.at(x, ...) / np.copyto(x, ...) with a cached first arg
            qn = dotted_name(node.func, module.aliases)
            if qn in _MUTATOR_FIRST_ARG and node.args:
                root = _root_name(node.args[0])
                if root in bound:
                    yield self.violation(
                        module,
                        node,
                        f"{qn} writes into {root!r}, which aliases a shared "
                        "lru_cache entry",
                    )


class OutAliasesTensorData(Rule):
    """``out=`` landing in a tensor's storage inside an autograd op."""

    code = "RPL302"
    name = "out-aliases-tensor-data"
    invariant = (
        "inside a function that builds an autograd node (calls "
        "Tensor._make), no out= write targets a Tensor's .data — the "
        "backward closure may have saved that buffer"
    )

    def check(self, module: SourceModule) -> Iterable[Violation]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._builds_graph_node(fn):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                for kw in node.keywords:
                    if (
                        kw.arg == "out"
                        and isinstance(kw.value, ast.Attribute)
                        and kw.value.attr == "data"
                    ):
                        yield self.violation(
                            module,
                            node,
                            "out= writes into a Tensor's .data inside an "
                            "autograd op; allocate a fresh output buffer",
                        )

    @staticmethod
    def _builds_graph_node(fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_make"
            ):
                return True
        return False
