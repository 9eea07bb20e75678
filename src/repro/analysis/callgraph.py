"""Project-wide symbol table and call graph for the dataflow rules.

The per-file AST rules (RPL1xx-6xx) prove properties of single call
sites; the RPL7xx family needs to know *what calls what* across the whole
tree: an ambient RNG constructed two helpers below ``client_work`` is just
as fatal to executor parity as one constructed inline. This module builds
the cross-file structure those rules traverse:

- a **module table** (dotted module name → parsed source, derived from the
  repo-relative path, so ``src/repro/fl/comm.py`` resolves imports of
  ``repro.fl.comm``);
- a **symbol table** per module: top-level functions and classes, plus the
  import-alias map the per-file rules already use;
- a **class table** with base-class references resolved through imports,
  an approximate MRO, and method resolution (``resolve_method``);
- **attribute-type binding**: ``self.channel = Channel(...)`` in any
  method (or an annotated dataclass field) types ``self.channel``, so
  ``self.channel.upload(...)`` resolves to ``Channel.upload`` — the
  binding that lets reachability cross the algorithm/runtime seam;
- per-function **call sites** (:class:`CallSite`) classified by how the
  callee is named (plain name, ``self.``/``super().`` method, typed
  attribute, ``functools.partial`` wrapping), resolved lazily against a
  concrete class context during traversal so inherited methods bind
  through the *subclass's* MRO;
- bounded-depth **reachability** (:meth:`ProjectIndex.reachable`) that
  records one witness call path per reached function for diagnostics.

Known blind spots (documented in DESIGN.md §9): dynamic dispatch through
``getattr``/registries, calls on untyped receivers (container elements,
parameters), and monkey-patching. The graph under-approximates — a rule
built on it can miss, but what it reports is a real static path.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.rules.base import SourceModule

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ProjectIndex",
    "Reached",
    "module_name_for",
]

# Traversal bounds: deep enough for every real chain in this repo
# (round → hooks → trainers → kernels is ~6 deep), bounded so that a
# pathological cycle in *linted input* can never hang the linter.
MAX_DEPTH = 16

_FuncNode = "ast.FunctionDef | ast.AsyncFunctionDef"


def module_name_for(display: str) -> str:
    """Dotted module name for a repo-relative display path.

    ``src/repro/fl/comm.py`` → ``repro.fl.comm``;  package ``__init__``
    files name the package itself. Files outside ``src/`` (benchmarks,
    examples, fixtures) get a best-effort dotted name from their path —
    they can still *import* library modules; nothing imports them back.
    """
    parts = display.replace("\\", "/").split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


@dataclass(frozen=True)
class CallSite:
    """One call expression, classified by how its callee is spelled.

    ``kind`` is one of:

    - ``"name"``   — ``f(...)`` / ``mod.f(...)``: ``target`` is the dotted
      name after import-alias resolution;
    - ``"self"``   — ``self.m(...)``: ``target`` is the method name,
      resolved against the traversal's concrete class context;
    - ``"super"``  — ``super().m(...)``: like ``"self"`` but resolution
      starts *after* the defining class in the context MRO;
    - ``"typed"``  — ``<expr>.m(...)`` where the receiver's class was
      inferred (attribute-type binding / local construction): ``target``
      is ``<class qualname>.m``.

    A ``functools.partial(f, ...)`` wrapping contributes the same site for
    ``f`` (partial application does not change what eventually runs).
    """

    node: ast.Call
    kind: str
    target: str


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str  # e.g. repro.fl.algorithms.base.FLAlgorithm.round
    name: str
    node: _FuncNode
    module: SourceModule
    cls: "ClassInfo | None" = None
    calls: list[CallSite] = field(default_factory=list)

    @property
    def display(self) -> str:
        return self.module.display

    def __hash__(self) -> int:
        return hash(self.qualname)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FunctionInfo) and other.qualname == self.qualname

    def short(self) -> str:
        """``Class.method`` / ``function`` — the name used in messages."""
        if self.cls is not None:
            return f"{self.cls.name}.{self.name}"
        return self.name


@dataclass
class ClassInfo:
    """One class definition plus its resolved inheritance references."""

    qualname: str
    name: str
    node: ast.ClassDef
    module: SourceModule
    base_refs: list[str] = field(default_factory=list)  # dotted or bare names
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    # self.<attr> → class qualname, inferred from constructor calls and
    # annotated assignments anywhere in this class's own body.
    attr_types: dict[str, str] = field(default_factory=dict)

    def __hash__(self) -> int:
        return hash(self.qualname)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClassInfo) and other.qualname == self.qualname


@dataclass(frozen=True)
class Reached:
    """A function reached during traversal, with one witness path."""

    fn: FunctionInfo
    cls: "ClassInfo | None"  # concrete class context (for methods)
    path: tuple[str, ...]  # call chain, e.g. ("FedKEMF.client_work", "_client_trainer")

    def via(self) -> str:
        return " -> ".join(self.path)


class ProjectIndex:
    """Symbol table + call graph over one set of parsed modules."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules: dict[str, SourceModule] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        for module in modules:
            self._index_module(module)
        for cls in self.classes.values():
            self._infer_attr_types(cls)
        for fn in self.functions.values():
            self._collect_calls(fn)

    # ------------------------------------------------------------------ #
    # indexing
    # ------------------------------------------------------------------ #

    def _index_module(self, module: SourceModule) -> None:
        mod_name = module_name_for(module.display)
        self.modules[mod_name] = module
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{mod_name}.{node.name}",
                    name=node.name,
                    node=node,
                    module=module,
                )
                self.functions[info.qualname] = info
            elif isinstance(node, ast.ClassDef):
                self._index_class(module, mod_name, node)

    def _index_class(self, module: SourceModule, mod_name: str, node: ast.ClassDef) -> None:
        cls = ClassInfo(
            qualname=f"{mod_name}.{node.name}",
            name=node.name,
            node=node,
            module=module,
            base_refs=[
                ref
                for base in node.bases
                if (ref := _base_ref(base, module.aliases)) is not None
            ],
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{cls.qualname}.{item.name}",
                    name=item.name,
                    node=item,
                    module=module,
                    cls=cls,
                )
                cls.methods[item.name] = info
                self.functions[info.qualname] = info
        self.classes[cls.qualname] = cls
        self.classes_by_name.setdefault(cls.name, []).append(cls)

    def _infer_attr_types(self, cls: ClassInfo) -> None:
        aliases = cls.module.aliases
        # dataclass-style annotated fields in the class body
        for item in cls.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                ref = _annotation_class_ref(item.annotation, aliases)
                resolved = self._resolve_class_ref(ref) if ref else None
                if resolved is not None:
                    cls.attr_types[item.target.id] = resolved.qualname
        # self.<attr> = SomeClass(...) anywhere in the class's own methods
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                attrs = [a for t in targets if (a := _self_attr(t)) is not None]
                if not attrs or node.value is None:
                    continue
                typed = self._value_class(node.value, aliases)
                if typed is None and isinstance(node, ast.AnnAssign):
                    ref = _annotation_class_ref(node.annotation, aliases)
                    resolved = self._resolve_class_ref(ref) if ref else None
                    typed = resolved.qualname if resolved else None
                if typed is not None:
                    for attr in attrs:
                        cls.attr_types.setdefault(attr, typed)

    def _value_class(self, value: ast.expr, aliases: dict[str, str]) -> "str | None":
        """Class qualname a constructor-call value binds, if resolvable."""
        if isinstance(value, ast.IfExp):  # x = A(...) if cond else B(...)
            return self._value_class(value.body, aliases) or self._value_class(
                value.orelse, aliases
            )
        if not isinstance(value, ast.Call):
            return None
        ref = _dotted(value.func, aliases)
        resolved = self._resolve_class_ref(ref) if ref else None
        return resolved.qualname if resolved else None

    def _resolve_class_ref(self, ref: "str | None") -> "ClassInfo | None":
        if ref is None:
            return None
        cls = self.classes.get(ref)
        if cls is not None:
            return cls
        # Bare name (same-module class, or a re-export the alias map lost):
        # unique-by-name resolution keeps this sound enough for linting.
        tail = ref.rsplit(".", 1)[-1]
        candidates = self.classes_by_name.get(tail, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    # ------------------------------------------------------------------ #
    # class hierarchy
    # ------------------------------------------------------------------ #

    def mro(self, cls: ClassInfo, _depth: int = 0) -> list[ClassInfo]:
        """Approximate linearization: DFS over resolved bases, de-duplicated.

        Good enough for method resolution in a lint (this repo's algorithm
        tree is single-inheritance); unresolvable bases simply end the walk.
        """
        if _depth > MAX_DEPTH:
            return [cls]
        order = [cls]
        seen = {cls.qualname}
        for ref in cls.base_refs:
            base = self._resolve_class_ref(ref)
            if base is None:
                continue
            for anc in self.mro(base, _depth + 1):
                if anc.qualname not in seen:
                    seen.add(anc.qualname)
                    order.append(anc)
        return order

    def resolve_method(
        self, cls: ClassInfo, name: str, *, after: "ClassInfo | None" = None
    ) -> "FunctionInfo | None":
        """Method ``name`` in ``cls``'s MRO; ``after`` starts past a class
        (``super()`` resolution from the defining class)."""
        order = self.mro(cls)
        if after is not None:
            for i, c in enumerate(order):
                if c.qualname == after.qualname:
                    order = order[i + 1 :]
                    break
        for c in order:
            if name in c.methods:
                return c.methods[name]
        return None

    def derives_from(self, cls: ClassInfo, names: Iterable[str]) -> bool:
        """Does ``cls`` (transitively) name one of ``names`` as a base?

        Matches both resolved ancestors and *unresolvable bare base names*
        — a fixture subclassing ``FLAlgorithm`` without the import still
        counts (the registry-known name is the binding).
        """
        wanted = set(names)
        for anc in self.mro(cls):
            if anc.name in wanted:
                return True
            for ref in anc.base_refs:
                if ref.rsplit(".", 1)[-1] in wanted:
                    return True
        return False

    # ------------------------------------------------------------------ #
    # call-site extraction
    # ------------------------------------------------------------------ #

    def _collect_calls(self, fn: FunctionInfo) -> None:
        aliases = fn.module.aliases
        local_types = self._local_types(fn, aliases)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            site = self._classify_call(node, fn, aliases, local_types)
            if site is not None:
                fn.calls.append(site)
            # functools.partial(f, ...) freezes f for a later call: record
            # an edge to f as if it were called here.
            qn = _dotted(node.func, aliases)
            if qn in ("functools.partial", "partial") and node.args:
                inner = self._classify_callee_expr(node.args[0], fn, aliases, local_types)
                if inner is not None:
                    fn.calls.append(CallSite(node=node, kind=inner[0], target=inner[1]))

    def _classify_call(
        self,
        node: ast.Call,
        fn: FunctionInfo,
        aliases: dict[str, str],
        local_types: dict[str, str],
    ) -> "CallSite | None":
        classified = self._classify_callee_expr(node.func, fn, aliases, local_types)
        if classified is None:
            return None
        kind, target = classified
        return CallSite(node=node, kind=kind, target=target)

    def _classify_callee_expr(
        self,
        func: ast.expr,
        fn: FunctionInfo,
        aliases: dict[str, str],
        local_types: dict[str, str],
    ) -> "tuple[str, str] | None":
        if isinstance(func, ast.Name):
            target = aliases.get(func.id)
            if target is None:
                # Unimported bare name: a same-module function/class if one
                # exists, otherwise left bare (builtins, comprehension vars).
                local = f"{module_name_for(fn.module.display)}.{func.id}"
                target = local if (local in self.functions or local in self.classes) else func.id
            return ("name", target)
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self":
                return ("self", func.attr)
            if (
                isinstance(base, ast.Call)
                and isinstance(base.func, ast.Name)
                and base.func.id == "super"
            ):
                return ("super", func.attr)
            receiver = self._receiver_type(base, fn, aliases, local_types)
            if receiver is not None:
                return ("typed", f"{receiver}.{func.attr}")
            qn = _dotted(func, aliases)
            if qn is not None:
                return ("name", qn)
        return None

    def _receiver_type(
        self,
        expr: ast.expr,
        fn: FunctionInfo,
        aliases: dict[str, str],
        local_types: dict[str, str],
        _depth: int = 0,
    ) -> "str | None":
        """Class qualname of a receiver expression, when inferable."""
        if _depth > 4:
            return None
        if isinstance(expr, ast.Name):
            return local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                if fn.cls is None:
                    return None
                return self._attr_type(fn.cls, expr.attr)
            inner = self._receiver_type(expr.value, fn, aliases, local_types, _depth + 1)
            if inner is not None:
                cls = self.classes.get(inner)
                if cls is not None:
                    return self._attr_type(cls, expr.attr)
        return None

    def _attr_type(self, cls: ClassInfo, attr: str) -> "str | None":
        for anc in self.mro(cls):
            if attr in anc.attr_types:
                return anc.attr_types[attr]
        return None

    def _local_types(self, fn: FunctionInfo, aliases: dict[str, str]) -> dict[str, str]:
        """``v = Cls(...)`` / ``v = self.attr`` local receiver typing.

        One linear pass in statement order, control flow ignored — the
        usual lint approximation (last textual assignment wins).
        """
        types: dict[str, str] = {}
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            typed = self._value_class(node.value, aliases)
            if typed is None and isinstance(node.value, ast.Attribute):
                value = node.value
                if (
                    isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                    and fn.cls is not None
                ):
                    typed = self._attr_type(fn.cls, value.attr)
            if typed is None and isinstance(node.value, ast.Name):
                typed = types.get(node.value.id)
            if typed is not None:
                types[target.id] = typed
        return types

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #

    def resolve_site(
        self, site: CallSite, ctx: "ClassInfo | None", defining: "ClassInfo | None"
    ) -> "FunctionInfo | None":
        """Resolve one call site under a concrete class context."""
        if site.kind == "self":
            if ctx is None:
                return None
            return self.resolve_method(ctx, site.target)
        if site.kind == "super":
            if ctx is None or defining is None:
                return None
            return self.resolve_method(ctx, site.target, after=defining)
        if site.kind in ("name", "typed"):
            fn = self.functions.get(site.target)
            if fn is not None:
                return fn
            cls = self.classes.get(site.target)
            if cls is not None:  # constructor call → __init__ body runs
                return self.resolve_method(cls, "__init__")
            # bare name that is a same-module function of the caller is
            # already qualified by _dotted; anything else is unresolved.
            return None
        return None

    def reachable(
        self,
        entries: Sequence["tuple[FunctionInfo, ClassInfo | None]"],
        *,
        self_only: bool = False,
        max_depth: int = MAX_DEPTH,
    ) -> list[Reached]:
        """BFS closure over resolvable call edges.

        ``self_only`` restricts traversal to ``self.``/``super().`` method
        edges — the flow that provably stays on the *same object* (used by
        RPL702/704, which reason about the algorithm instance's state).
        Each function is visited once per concrete class context; the
        recorded path is the first (shortest) witness.
        """
        out: list[Reached] = []
        seen: set[tuple[str, str]] = set()
        queue: deque[tuple[FunctionInfo, "ClassInfo | None", tuple[str, ...], int]] = deque()
        for fn, ctx in entries:
            key = (fn.qualname, ctx.qualname if ctx else "")
            if key in seen:
                continue
            seen.add(key)
            label = f"{ctx.name}.{fn.name}" if ctx is not None else fn.short()
            queue.append((fn, ctx, (label,), 0))
        while queue:
            fn, ctx, path, depth = queue.popleft()
            out.append(Reached(fn=fn, cls=ctx, path=path))
            if depth >= max_depth:
                continue
            for site in fn.calls:
                if self_only and site.kind not in ("self", "super"):
                    continue
                callee = self.resolve_site(site, ctx, fn.cls)
                if callee is None:
                    continue
                # Method edges keep the caller's concrete class context
                # (inheritance stays bound through the subclass); edges to
                # free functions or other classes' methods rebind.
                if site.kind in ("self", "super"):
                    next_ctx = ctx
                elif callee.cls is not None:
                    next_ctx = callee.cls
                else:
                    next_ctx = None
                key = (callee.qualname, next_ctx.qualname if next_ctx else "")
                if key in seen:
                    continue
                seen.add(key)
                queue.append((callee, next_ctx, path + (callee.short(),), depth + 1))
        return out


# ---------------------------------------------------------------------- #
# small AST helpers
# ---------------------------------------------------------------------- #


def _dotted(node: ast.expr, aliases: dict[str, str]) -> "str | None":
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _base_ref(node: ast.expr, aliases: dict[str, str]) -> "str | None":
    if isinstance(node, ast.Subscript):  # Generic[T] bases
        node = node.value
    return _dotted(node, aliases)


def _self_attr(node: ast.expr) -> "str | None":
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _annotation_class_ref(
    annotation: "ast.expr | None", aliases: dict[str, str]
) -> "str | None":
    """Class reference out of a (possibly quoted / optional) annotation."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _annotation_class_ref(annotation.left, aliases)  # T | None
    if isinstance(annotation, ast.Subscript):
        return None  # Optional[T]/list[T]: container typing is out of scope
    return _dotted(annotation, aliases)
