"""Autograd rules: graph nodes carry backwards, modules register state.

``Tensor._make(data, parents, backward_fn)`` is how every differentiable
op joins the graph; a call that omits the backward closure (or passes
``None``) produces a node that silently stops gradients — loss curves look
plausible while part of the model never trains. Likewise, a ``Module``
subclass whose ``__init__`` forgets ``super().__init__()`` never creates
the ``_parameters``/``_modules`` registries, so its weights are invisible
to ``state_dict()`` and therefore never aggregated or checkpointed.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.rules.base import Rule, SourceModule, Violation

__all__ = ["ForwardWithoutBackward", "MissingSuperInit"]

# Cross-file Module subclasses the AST cannot resolve: subclassing any of
# these means the class is a Module and needs the super().__init__() chain.
_MODULE_BASES = frozenset(
    {
        "Module",
        "Sequential",
        "ModuleList",
        "Conv2d",
        "Linear",
        "MLP",
        "CNN2Layer",
        "VGG",
        "CifarResNet",
        "BasicBlock",
        "EnsembleModule",
    }
)


class ForwardWithoutBackward(Rule):
    """``Tensor._make`` without a backward closure stops gradients."""

    code = "RPL501"
    name = "forward-without-backward"
    invariant = (
        "every Tensor._make call registers a backward closure; a node "
        "without one silently detaches its parents from the gradient flow"
    )

    def check(self, module: SourceModule) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "_make"):
                continue
            backward = None
            if len(node.args) >= 3:
                backward = node.args[2]
            else:
                for kw in node.keywords:
                    if kw.arg == "backward_fn":
                        backward = kw.value
            if backward is None:
                yield self.violation(
                    module,
                    node,
                    "Tensor._make called without a backward_fn; the op "
                    "registers a forward but no backward (gradients stop here)",
                )
            elif isinstance(backward, ast.Constant) and backward.value is None:
                yield self.violation(
                    module,
                    node,
                    "Tensor._make called with backward_fn=None; gradients "
                    "stop at this node",
                )


class MissingSuperInit(Rule):
    """A Module ``__init__`` that skips ``super().__init__()``."""

    code = "RPL502"
    name = "missing-super-init"
    invariant = (
        "every Module subclass __init__ calls super().__init__() first, so "
        "the parameter/buffer/submodule registries exist and state_dict() "
        "sees the layer's weights"
    )

    def check(self, module: SourceModule) -> Iterable[Violation]:
        classes = {
            node.name: node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        for cls in classes.values():
            if not self._is_module(cls, classes):
                continue
            init = next(
                (
                    n
                    for n in cls.body
                    if isinstance(n, ast.FunctionDef) and n.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue  # inherits the parent __init__, which chains
            if not self._calls_super_init(init):
                yield self.violation(
                    module,
                    init,
                    f"{cls.name}.__init__ never calls super().__init__(); "
                    "parameters assigned here will not register and will be "
                    "missing from state_dict()/aggregation",
                )

    def _is_module(
        self, cls: ast.ClassDef, classes: dict[str, ast.ClassDef], _depth: int = 0
    ) -> bool:
        if _depth > 10:
            return False
        for base in cls.bases:
            name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
            if name in _MODULE_BASES:
                return True
            if name in classes and self._is_module(classes[name], classes, _depth + 1):
                return True
        return False

    @staticmethod
    def _calls_super_init(init: ast.FunctionDef) -> bool:
        for node in ast.walk(init):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "__init__"):
                continue
            target = func.value
            # super().__init__(...) or Base.__init__(self, ...)
            if isinstance(target, ast.Call) and getattr(target.func, "id", None) == "super":
                return True
            if isinstance(target, ast.Name):
                return True
        return False
