"""The measured process: build one workload, run it, print one JSON line.

Every measurement gets a fresh interpreter (``run.py`` spawns this file), so
``ru_maxrss`` and the import/build cost in ``setup_s`` belong to that run
alone. Three modes:

- ``setup``: build the workload up to the point ``algo.run()`` would be
  called, report ``setup_s``, exit — a set-up sample without a run;
- ``run``: the untraced run behind every end-to-end metric; nothing in the
  program is touched, all timing comes from ``RoundRecord.wall_time`` and
  two clock reads around ``algo.run()``;
- ``trace``: the same run with the tracer's rebinding in place, followed by
  the micro probes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))


def _prefix_fingerprints(history, records) -> "list[str]":
    """``RunHistory.fingerprint()`` after each round, so a shorter run of
    the same workload can be checked against this one's prefix."""
    from repro.fl.history import RunHistory

    return [
        RunHistory(
            algorithm=history.algorithm,
            model=history.model,
            num_clients=history.num_clients,
            sample_ratio=history.sample_ratio,
            records=records[:k],
        ).fingerprint()
        for k in range(1, len(records) + 1)
    ]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--spans-out", type=pathlib.Path, default=None,
                        help="trace mode: also write the raw spans here (JSON)")
    args = parser.parse_args(argv)

    from benchmarks.perf import probes, tracer, workloads
    from repro.nn.serialization import state_dict_num_bytes

    workload = workloads.WORKLOADS[args.workload]
    algo, run_kwargs = workloads.build(workload, args.seed, args.rounds, args.workdir)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading and
    # this one share an origin: interpreter start and imports are in setup_s.
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    trace = tracer.Tracer()
    if args.mode == "trace":
        tracer.instrument(algo, trace)
    start = time.perf_counter()
    try:
        history = algo.run(**run_kwargs)
    finally:
        trace.restore()
    run_wall_s = time.perf_counter() - start
    records = list(history.iter_records())
    executor = algo.runtime.executor

    result = {
        "setup_s": setup_s,
        "run_wall_s": run_wall_s,
        "rounds": args.rounds,
        "round_wall_s": [r.wall_time for r in records],
        "accuracy": [r.accuracy for r in records],
        "loss": [r.loss for r in records],
        "cum_bytes": [r.cum_bytes for r in records],
        "num_sampled": [r.num_sampled for r in records],
        "num_aggregated": [r.num_selected for r in records],
        "num_failed": [len(r.failures) for r in records],
        "fingerprint": history.fingerprint(),
        "prefix_fingerprints": _prefix_fingerprints(history, records),
        "meter_total": algo.meter.total,
        "meter_up": algo.meter.total_up,
        "meter_down": algo.meter.total_down,
        "state_bytes": state_dict_num_bytes(algo.global_model.state_dict(copy=False)),
        "last_round_mode": getattr(executor, "last_round_mode", None),
    }
    if args.mode == "trace":
        spans = trace.spans
        result["span_totals"] = tracer.span_totals(spans)
        result["counts"] = dict(trace.counts)
        result["round_modes"] = trace.round_modes
        result["spans_n"] = len(spans)
        result["probes"] = probes.run_probes(algo, history, trace.last_accepted, args.workdir)
        if args.spans_out is not None:
            args.spans_out.write_text(json.dumps([s._asdict() for s in spans]))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
