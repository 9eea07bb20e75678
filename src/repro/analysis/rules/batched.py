"""Batched-execution rule: keep ``nn/batched.py`` hot paths stacked.

The whole point of the stacked tensor program is that the client axis K
lives *inside* numpy calls — one batched matmul instead of K small ones. A
``for i in range(k)`` creeping back into the module silently reverts the
hot path to the serial loop while still paying stacking overhead, the
worst of both worlds. The one loop *required* for bit-identity is
``_per_slice``'s, which runs a conv, batch-norm or pool layer's own serial
``forward`` once per client slice (their multi-axis float reductions must
keep the serial pairwise-summation tree); it is annotated with
``# reprolint: allow[RPL601]`` — anything else is a regression.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.rules.base import AstRule, SourceModule, Violation, dotted_name

__all__ = ["PerClientLoop"]

# Names conventionally bound to the stacked client-axis extent.
_CLIENT_AXIS_NAMES = frozenset({"k", "kk"})


def _mentions_client_axis(node: ast.AST) -> bool:
    """Does this expression reference the client-axis extent (``k``/``kk``,
    or an attribute access like ``self.k`` / ``stacked.k``)?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _CLIENT_AXIS_NAMES:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in _CLIENT_AXIS_NAMES:
            return True
    return False


class PerClientLoop(AstRule):
    """A Python ``for`` over the stacked client axis in a batched hot path."""

    code = "RPL601"
    name = "per-client-loop"
    invariant = (
        "nn/batched.py keeps the client axis K inside vectorized numpy "
        "calls; per-client Python loops appear only with an explicit "
        "allow pragma (bit-identity fallbacks)"
    )

    def check(self, module: SourceModule) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.For):
                continue
            it = node.iter
            if not (isinstance(it, ast.Call) and dotted_name(it.func, module.aliases) in ("range", "builtins.range")):
                continue
            if any(_mentions_client_axis(arg) for arg in it.args):
                yield self.violation(
                    module,
                    node,
                    "per-client Python loop over the stacked axis K; "
                    "vectorize along the leading axis, or add the layer to "
                    "`_PER_SLICE` so `_per_slice` runs its serial kernel "
                    "when bit-identity requires it",
                )
