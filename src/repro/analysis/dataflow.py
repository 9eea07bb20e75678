"""Per-function dataflow summaries consumed by the RPL7xx flow rules.

Three kinds of facts are extracted from each function body by cheap AST
walks, memoised per :class:`FunctionInfo`:

- **self-state writes** (:attr:`Effects.self_writes`): assignments,
  augmented assignments, subscript stores, deletes, and calls to known
  *container* mutators (``self.x.append(...)``) targeting ``self.<attr>``.
  Object-method mutation (``self.model.load_state_dict(...)``) is
  deliberately excluded — the scratch-module pattern makes it ubiquitous
  and legitimate; the write-back contract covers those objects.
- **ambient randomness** (:attr:`Effects.ambient_rng`) and **wall-clock /
  entropy** (:attr:`Effects.wall_entropy`): the calls
  :func:`repro.analysis.rules.rng.classify_call` classifies, the one
  classifier RPL101/102/201 read at module level. Ambient randomness is
  the global-state NumPy functions, unseeded constructors, stdlib
  ``random`` calls, and ``new_rng()``/``new_rng(seed=None)`` (the
  sanctioned *interactive* fallback, fatal when it flows into per-client
  work); wall-clock / entropy is the civil-time reads plus OS-entropy
  sources (``os.urandom``, ``uuid``, ``secrets``) — anything that would
  make ``round()`` irreproducible.

On top of those, :func:`escape_summary` performs the small alias analysis
behind RPL703: which ``self.<attr>`` objects can a hook *return* without
copying?  Local aliases (``state = self.client_controls[cid]``) are
tracked, shallow copies of containers-of-arrays (``dict(self.x)``) still
count as escapes, ``state_dict(copy=False)`` is recognised explicitly,
and self-method calls are resolved one level through the call graph so a
helper like ``Scaffold._control_for`` that returns live state taints its
callers. Only attributes that are *provably mutable* (assigned a
list/dict/set display, comprehension, known container constructor, or a
NumPy array factory somewhere in the class) are reported — returning an
int or a frozen config is not aliasing live mutable state.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.callgraph import ClassInfo, FunctionInfo, ProjectIndex
from repro.analysis.rules.base import dotted_name, self_attr
from repro.analysis.rules.rng import entropy_calls

__all__ = [
    "Effects",
    "Escape",
    "effects_for",
    "escape_summary",
    "mutable_attrs",
]

# Container mutators: receiver-mutating methods of the builtin containers
# (and deque). Object-protocol mutators like load_state_dict are *not*
# listed — see the module docstring.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "extendleft",
    }
)

# Messages for the ambient-RNG kinds of rules.rng.classify_call; the
# other kinds (wall-clock, os-entropy) are wall/entropy effects.
_AMBIENT_RNG = {
    "unseeded": "unseeded {}()",
    "global-state": "global-state {}()",
    "stdlib": "stdlib {}()",
    "fallback": "new_rng() without a seed (interactive fallback lane)",
}

# Constructors whose result is a mutable container / array.
_MUTABLE_CTOR_CALLS = frozenset(
    {
        "dict",
        "list",
        "set",
        "bytearray",
        "collections.OrderedDict",
        "OrderedDict",
        "collections.defaultdict",
        "defaultdict",
        "collections.deque",
        "deque",
        "numpy.zeros",
        "numpy.ones",
        "numpy.empty",
        "numpy.full",
        "numpy.array",
        "numpy.zeros_like",
        "numpy.ones_like",
        "numpy.empty_like",
        "numpy.full_like",
        "numpy.arange",
        "numpy.linspace",
        "numpy.copy",
    }
)

# Shallow container copies: fresh container, but the *elements* still
# alias — for state dicts of arrays that is an escape, not a copy.
_SHALLOW_COPY_CALLS = frozenset(
    {"dict", "list", "tuple", "collections.OrderedDict", "OrderedDict"}
)


@dataclass
class Effects:
    """Flow-relevant facts about one function body."""

    self_writes: dict[str, ast.AST] = field(default_factory=dict)
    ambient_rng: list[tuple[ast.AST, str]] = field(default_factory=list)
    wall_entropy: list[tuple[ast.AST, str]] = field(default_factory=list)


@dataclass(frozen=True)
class Escape:
    """One returned expression aliasing live ``self`` state."""

    node: ast.AST
    attr: str
    reason: str


_effects_cache: dict[str, Effects] = {}


def effects_for(fn: FunctionInfo, index: ProjectIndex) -> Effects:
    """Memoised effect summary for one function."""
    cached = _effects_cache.get(fn.qualname)
    if cached is not None:
        return cached
    eff = Effects()
    for node in ast.walk(fn.node):
        _scan_self_write(node, eff)
    for node, kind, name in entropy_calls(fn.node, fn.module.aliases):
        if kind in _AMBIENT_RNG:
            eff.ambient_rng.append((node, _AMBIENT_RNG[kind].format(name)))
        else:
            eff.wall_entropy.append((node, f"{name}()"))
    _effects_cache[fn.qualname] = eff
    return eff


def reset_caches() -> None:
    """Drop memoised summaries (each engine run indexes a fresh project)."""
    _effects_cache.clear()


# ---------------------------------------------------------------------- #
# self-state writes
# ---------------------------------------------------------------------- #


def _scan_self_write(node: ast.AST, eff: Effects) -> None:
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            attr = self_attr(target, subscript=True)
            if attr is not None:
                eff.self_writes.setdefault(attr, node)
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            attr = self_attr(target, subscript=True)
            if attr is not None:
                eff.self_writes.setdefault(attr, node)
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            attr = _self_attr_root(func.value, direct_only=True)
            if attr is not None:
                eff.self_writes.setdefault(attr, node)


def _self_attr_root(expr: ast.expr, *, direct_only: bool = False) -> "str | None":
    """The ``self.<attr>`` at the root of an expression chain.

    ``direct_only`` restricts to ``self.x`` / ``self.x[...]`` (used for
    mutator calls, where ``self.x.y.append`` mutating ``y`` is a property
    of ``y``'s object, not of the attribute ``x``).
    """
    depth = 0
    while True:
        if isinstance(expr, ast.Subscript):
            expr = expr.value
        elif isinstance(expr, ast.Attribute):
            attr = self_attr(expr)
            if attr is not None:
                return attr if (not direct_only or depth == 0) else None
            expr = expr.value
            depth += 1
        else:
            return None


# ---------------------------------------------------------------------- #
# escape analysis (RPL703)
# ---------------------------------------------------------------------- #


def mutable_attrs(index: ProjectIndex, cls: ClassInfo) -> set[str]:
    """Attrs of ``cls`` (over its MRO) holding provably mutable values."""
    out: set[str] = set()
    for anc in index.mro(cls):
        aliases = anc.module.aliases
        for method in anc.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    continue
                value = getattr(node, "value", None)
                if value is None or not _is_mutable_value(value, aliases):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                out.update(a for t in targets if (a := self_attr(t)) is not None)
    return out


def _is_mutable_value(value: ast.expr, aliases: dict[str, str]) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func, aliases)
        return name in _MUTABLE_CTOR_CALLS
    return False


def escape_summary(
    fn: FunctionInfo,
    index: ProjectIndex,
    cls: ClassInfo,
    *,
    _depth: int = 0,
) -> list[Escape]:
    """Returned expressions of ``fn`` that alias live mutable state of
    ``cls`` instances. One-level interprocedural: calls to self-methods are
    resolved through the project index and their escapes propagated."""
    mutable = mutable_attrs(index, cls)
    local_aliases = _local_state_aliases(fn)
    escapes: list[Escape] = []
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Return) and node.value is not None:
            _collect_escapes(
                node.value, fn, index, cls, mutable, local_aliases, escapes, _depth
            )
    return escapes


def _local_state_aliases(fn: FunctionInfo) -> dict[str, str]:
    """Locals bound to ``self.<attr>`` (or an element of one)."""
    out: dict[str, str] = {}
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            attr = _self_attr_root(node.value)
            if attr is not None:
                out[target.id] = attr
            elif isinstance(node.value, ast.Name) and node.value.id in out:
                out[target.id] = out[node.value.id]
            elif target.id in out:
                # rebound to something fresh — alias ends here
                del out[target.id]
    return out


def _collect_escapes(
    expr: ast.expr,
    fn: FunctionInfo,
    index: ProjectIndex,
    cls: ClassInfo,
    mutable: set[str],
    local_aliases: dict[str, str],
    escapes: list[Escape],
    depth: int,
) -> None:
    # Containers in the returned expression: each element can escape.
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        for elt in expr.elts:
            _collect_escapes(elt, fn, index, cls, mutable, local_aliases, escapes, depth)
        return
    if isinstance(expr, ast.Dict):
        for value in expr.values:
            if value is not None:
                _collect_escapes(
                    value, fn, index, cls, mutable, local_aliases, escapes, depth
                )
        return
    if isinstance(expr, ast.IfExp):
        for arm in (expr.body, expr.orelse):
            _collect_escapes(arm, fn, index, cls, mutable, local_aliases, escapes, depth)
        return
    if isinstance(expr, ast.Call):
        _collect_call_escapes(
            expr, fn, index, cls, mutable, local_aliases, escapes, depth
        )
        return
    # Direct aliases: self.x, self.x[...], or a local bound to one.
    attr = _self_attr_root(expr)
    if attr is None and isinstance(expr, ast.Name):
        attr = local_aliases.get(expr.id)
    if attr is not None and attr in mutable:
        escapes.append(
            Escape(node=expr, attr=attr, reason=f"returns live self.{attr}")
        )


def _collect_call_escapes(
    call: ast.Call,
    fn: FunctionInfo,
    index: ProjectIndex,
    cls: ClassInfo,
    mutable: set[str],
    local_aliases: dict[str, str],
    escapes: list[Escape],
    depth: int,
) -> None:
    func = call.func
    # <state rooted at self>.state_dict(copy=False) hands out live arrays.
    if isinstance(func, ast.Attribute) and func.attr == "state_dict":
        root = _self_attr_root(func.value)
        if root is None and isinstance(func.value, ast.Name):
            root = local_aliases.get(func.value.id)
        if root is not None:
            for kw in call.keywords:
                if (
                    kw.arg == "copy"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                ):
                    escapes.append(
                        Escape(
                            node=call,
                            attr=root,
                            reason=f"self.{root}.state_dict(copy=False) returns live arrays",
                        )
                    )
        return
    # Shallow copies keep element aliasing: dict(self.x) of a dict of
    # arrays still exposes the live arrays.
    name = dotted_name(func, fn.module.aliases)
    if name in _SHALLOW_COPY_CALLS and len(call.args) == 1 and not call.keywords:
        arg = call.args[0]
        attr = _self_attr_root(arg)
        if attr is None and isinstance(arg, ast.Name):
            attr = local_aliases.get(arg.id)
        if attr is not None and attr in mutable:
            escapes.append(
                Escape(
                    node=call,
                    attr=attr,
                    reason=f"shallow copy of self.{attr} still aliases its elements",
                )
            )
        # Generator/comprehension arguments build fresh elements — clean.
        return
    # Self-method call: propagate the callee's escapes (bounded depth).
    method = self_attr(func) if depth < 3 else None
    if method is not None:
        callee = index.resolve_method(cls, method)
        if callee is not None and callee.qualname != fn.qualname:
            for inner in escape_summary(callee, index, cls, _depth=depth + 1):
                escapes.append(
                    Escape(
                        node=call,
                        attr=inner.attr,
                        reason=f"{callee.short()}() {inner.reason}",
                    )
                )

