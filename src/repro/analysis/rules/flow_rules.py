"""RPL7xx: interprocedural dataflow rules over the project call graph.

Where RPL1xx-6xx prove properties of a single statement, these rules
prove properties of *paths*: an ambient RNG constructed inside a helper
two calls below ``client_work`` breaks executor parity exactly as hard as
one constructed inline, and only a call-graph traversal can see it. Each
rule anchors its finding at the offending statement and records the
enclosing ``def`` line as a pragma anchor, so either line can carry an
``allow[...]`` pragma.

The rules only analyse *algorithm classes* — ``FLAlgorithm`` and the
classes that (transitively) derive from it in the linted project.
Base-name matching is deliberately permissive: a fixture subclassing a
bare ``FLAlgorithm`` name without a resolvable import still counts. A
subclass of a concrete algorithm (``FedAvg``) is found through that
class's own ancestry, so it needs ``src/repro`` in the same lint run; the
analyser never imports the program it analyses.

| code   | path property proved                                          |
| ------ | ------------------------------------------------------------- |
| RPL701 | no ambient RNG reachable from ``client_work``/``_batched``    |
| RPL702 | nothing reachable from client work mutates ``self`` state     |
| RPL703 | ``client_payload``/``server_state`` return copies, not aliases|
| RPL704 | attrs written on aggregate paths ride ``server_state()``, and |
|        | checkpoint-hook overrides merge ``super()``'s state            |
| RPL705 | no wall-clock/entropy reachable from ``round()``              |
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, Iterator, Sequence

from repro.analysis.callgraph import ClassInfo, FunctionInfo, ProjectIndex, Reached
from repro.analysis.dataflow import Effects, effects_for, escape_summary
from repro.analysis.rules.base import Rule, SourceModule, Violation, self_attr

__all__ = [
    "FlowRule",
    "RngFlowsIntoClientWork",
    "WorkerSideSelfMutation",
    "AliasedHookReturn",
    "UncapturedAggregateWrite",
    "WallClockReachableFromRound",
    "FLOW_RULES",
    "algorithm_classes",
]

_CLIENT_WORK_HOOKS = ("client_work", "client_work_batched")
_RETURNING_HOOKS = ("client_payload", "server_state")
_AGGREGATE_HOOKS = ("aggregate", "aggregate_buffered", "apply_client_update")
_STATE_HOOKS = ("server_state", "load_server_state")
_ROOT = "FLAlgorithm"

# Attrs checkpointed through a dedicated channel rather than the
# server_state() dict: the global model itself is serialized as the
# checkpoint's model payload, and the scratch module is rebuilt on load.
_CHECKPOINTED_ELSEWHERE = frozenset({"global_model", "_scratch"})


def algorithm_classes(index: ProjectIndex) -> list[ClassInfo]:
    """``FLAlgorithm`` and every class in the project that derives from it."""
    out = [cls for cls in index.classes.values() if index.derives_from(cls, (_ROOT,))]
    return sorted(out, key=lambda c: c.qualname)


class FlowRule(Rule):
    """Base for project-wide dataflow rules."""

    kind = "flow"

    def check_project(self, index: ProjectIndex) -> Iterable[Violation]:
        raise NotImplementedError

    def check(self, module: SourceModule) -> Iterable[Violation]:  # pragma: no cover
        raise TypeError(f"{self.code} is a flow rule; use check_project()")

    def flow_violation(self, fn: FunctionInfo, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=fn.display,
            line=getattr(node, "lineno", fn.node.lineno),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            end_line=getattr(node, "end_lineno", 0) or 0,
            anchors=(fn.node.lineno,),
        )

    def flag_paths(
        self,
        index: ProjectIndex,
        reached: Iterable[Reached],
        facts: "Callable[[Effects], Iterable[tuple[ast.AST, str]]]",
        message: "Callable[[Reached, str], str]",
        seen: "set[tuple[ast.AST, str]] | None" = None,
    ) -> Iterator[Violation]:
        """One finding per ``(node, detail)`` fact of each reached function's
        effects; a fact met again on another path (or, through a shared
        ``seen``, on another walk) is reported once, with its first witness."""
        seen = set() if seen is None else seen
        for r in reached:
            for node, detail in facts(effects_for(r.fn, index)):
                if (node, detail) not in seen:
                    seen.add((node, detail))
                    yield self.flow_violation(r.fn, node, message(r, detail))


def _entries(
    index: ProjectIndex, classes: Sequence[ClassInfo], hooks: Sequence[str]
) -> "list[tuple[FunctionInfo, ClassInfo]]":
    out = []
    for cls in classes:
        for hook in hooks:
            fn = index.resolve_method(cls, hook)
            if fn is not None:
                out.append((fn, cls))
    return out


class RngFlowsIntoClientWork(FlowRule):
    code = "RPL701"
    name = "ambient-rng-reaches-client-work"
    invariant = (
        "Every RNG used on a client_work path is a (seed, round, client)-keyed "
        "new_rng lane; ambient generators diverge across executors."
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Violation]:
        entries = _entries(index, algorithm_classes(index), _CLIENT_WORK_HOOKS)
        return self.flag_paths(
            index,
            index.reachable(entries),
            lambda eff: eff.ambient_rng,
            lambda r, desc: (
                f"ambient RNG ({desc}) flows into per-client work via "
                f"{r.via()}; derive it from new_rng(seed, stream, "
                f"index) keyed by (seed, round, client) instead"
            ),
        )


class WorkerSideSelfMutation(FlowRule):
    code = "RPL702"
    name = "worker-side-self-mutation"
    invariant = (
        "No function reachable from client_work/client_work_batched writes "
        "algorithm self state; worker-side writes are silently lost under "
        "fork executors and diverge from the serial path."
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Violation]:
        entries = _entries(index, algorithm_classes(index), _CLIENT_WORK_HOOKS)
        return self.flag_paths(
            index,
            index.reachable(entries, self_only=True),
            _self_writes,
            lambda r, attr: (
                f"self.{attr} is mutated on the {r.via()} path; "
                f"worker-side writes are lost under fork executors — "
                f"move the write parent-side (round()/apply_client_update)"
            ),
        )


class AliasedHookReturn(FlowRule):
    code = "RPL703"
    name = "hook-returns-live-state-alias"
    invariant = (
        "client_payload/server_state hand out copies; returning a live "
        "reference lets the receiver (or a later server step) mutate "
        "algorithm state behind the replay's back."
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Violation]:
        seen: set[tuple[str, int, str]] = set()
        for cls in algorithm_classes(index):
            for hook in _RETURNING_HOOKS:
                fn = index.resolve_method(cls, hook)
                if fn is None:
                    continue
                for esc in escape_summary(fn, index, cls):
                    key = (fn.display, esc.node.lineno, esc.attr)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.flow_violation(
                        fn,
                        esc.node,
                        f"{fn.short()} {esc.reason}; return a copy — "
                        f"self.{esc.attr} is live mutable server state",
                    )


class UncapturedAggregateWrite(FlowRule):
    code = "RPL704"
    name = "aggregate-write-not-in-server-state"
    invariant = (
        "Every attr written on an aggregate/apply_client_update path is "
        "captured by the server_state()/load_server_state round trip, and "
        "overrides of those two hooks merge super()'s state; anything else "
        "silently resets on resume."
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Violation]:
        seen: set[tuple[ast.AST, str]] = set()
        for cls in algorithm_classes(index):
            if cls.name == _ROOT:
                # The root class's own writes are judged per concrete
                # subclass (capture sets differ down the hierarchy).
                continue
            yield from self._unmerged_state_hooks(cls)
            entries = _entries(index, [cls], _AGGREGATE_HOOKS)
            captured = _captured_attrs(index, cls) | _CHECKPOINTED_ELSEWHERE
            yield from self.flag_paths(
                index,
                index.reachable(entries, self_only=True),
                lambda eff: [(n, a) for n, a in _self_writes(eff) if a not in captured],
                lambda r, attr: (
                    f"self.{attr} is written on the {r.via()} path "
                    f"but never rides the server_state()/load_server_state "
                    f"round trip of {cls.name}; a resumed run would "
                    f"silently reset it"
                ),
                seen,
            )

    def _unmerged_state_hooks(self, cls: ClassInfo) -> Iterable[Violation]:
        """The base class checkpoints its own server state (the buffered-
        aggregation update buffer) through these hooks, so an override that
        never calls ``super()`` drops the in-flight updates from every
        checkpoint."""
        for hook in _STATE_HOOKS:
            fn = cls.methods.get(hook)
            if fn is not None and not _calls_super(fn.node, hook):
                yield self.flow_violation(
                    fn,
                    fn.node,
                    f"{fn.short()}() never calls super().{hook}(); base-class "
                    f"server state (the buffered-aggregation update buffer) "
                    f"is dropped from checkpoints and a mid-buffer resume "
                    f"loses the in-flight updates",
                )


def _calls_super(fn: ast.AST, hook: str) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == hook
        and isinstance(node.func.value, ast.Call)
        and isinstance(node.func.value.func, ast.Name)
        and node.func.value.func.id == "super"
        for node in ast.walk(fn)
    )


def _captured_attrs(index: ProjectIndex, cls: ClassInfo) -> set[str]:
    """Attrs mentioned anywhere in the class's state round-trip methods."""
    out: set[str] = set()
    for anc in index.mro(cls):
        for hook in _STATE_HOOKS:
            method = anc.methods.get(hook)
            if method is None:
                continue
            out.update(a for n in ast.walk(method.node) if (a := self_attr(n)) is not None)
    return out


def _self_writes(eff: Effects) -> "list[tuple[ast.AST, str]]":
    return [(node, attr) for attr, node in eff.self_writes.items()]


class WallClockReachableFromRound(FlowRule):
    code = "RPL705"
    name = "wall-clock-reachable-from-round"
    invariant = (
        "No wall-clock or OS-entropy call is reachable from FLAlgorithm."
        "round(); simulated time comes from the clock model, measurement "
        "uses the sanctioned perf_counter lanes."
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Violation]:
        entries = _entries(index, algorithm_classes(index), ("round",))
        return self.flag_paths(
            index,
            index.reachable(entries),
            lambda eff: eff.wall_entropy,
            lambda r, desc: (
                f"wall-clock/entropy call {desc} is reachable from "
                f"round() via {r.via()}; rounds must replay "
                f"bit-identically from (seed, round, client)"
            ),
        )


FLOW_RULES: tuple[FlowRule, ...] = (
    RngFlowsIntoClientWork(),
    WorkerSideSelfMutation(),
    AliasedHookReturn(),
    UncapturedAggregateWrite(),
    WallClockReachableFromRound(),
)
