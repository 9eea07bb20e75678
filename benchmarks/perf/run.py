"""The benchmark's command line.

Contract form (what ``BENCHMARK.json`` ``command`` runs; one workload, one
mode, one JSON object as the last line of stdout)::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

Developer form (every workload, both modes, a table and an optional ledger)::

    PYTHONPATH=src python -m benchmarks.perf run [--workload W] [--seed S]
        [--repeats N] [--smoke] [--out FILE]
    PYTHONPATH=src python -m benchmarks.perf compare A.json B.json

The system under test is a batch job, so load is one closed loop: a child
process (``child.py``) builds the workload and drives ``FLAlgorithm.run``
once, BLAS pinned to one thread. ``--trace 0`` takes the end-to-end metrics
from an untouched run plus a few set-up-only children for the ``setup_s``
median; ``--trace 1`` takes the per-layer metrics from a traced run and
checks it against a short untraced run of the same workload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parents[2]
for _entry in (ROOT / "src", ROOT):  # runnable as a plain script from any directory
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

from benchmarks.perf.workloads import REFERENCE_SECONDS, WORKLOADS, Workload, describe  # noqa: E402

CHILD = pathlib.Path(__file__).with_name("child.py")
WORK_ROOT = ROOT / ".perf_work"  # scratch inside the checkout; in .gitignore
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5  # the run's own set-up plus four set-up-only children
CHILD_TIMEOUT_S = 150
DEFAULT_SEED = 0


def load_benchmark() -> "dict[str, Any]":
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------- #
# child processes
# --------------------------------------------------------------------- #


@contextlib.contextmanager
def scratch_dir(workload: Workload):
    """A per-invocation directory under ``WORK_ROOT`` for the children's
    files (history stream, probe checkpoint), removed on the way out."""
    workdir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another invocation may still be in there
            WORK_ROOT.rmdir()


def spawn(
    workload: Workload, seed: int, rounds: int, mode: str, workdir: pathlib.Path,
    spans_out: "pathlib.Path | None" = None,
) -> "dict[str, Any]":
    """Run ``child.py`` to completion and return the object it printed."""
    cmd = [
        sys.executable, str(CHILD), "--workload", workload.name, "--seed", str(seed),
        "--rounds", str(rounds), "--mode", mode, "--workdir", str(workdir),
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, env={**os.environ, **THREAD_PINS}, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload.name} child ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# output checks and operation accounting
# --------------------------------------------------------------------- #


def output_checks(workload: Workload, run: "dict[str, Any]") -> "list[tuple[str, bool, str]]":
    """Correctness checks every run must pass: ``(name, ok, detail)``."""
    rounds = run["rounds"]
    checks = [
        ("record count equals rounds", len(run["loss"]) == rounds,
         f"{len(run['loss'])} records for {rounds} rounds"),
        ("every loss is finite", all(math.isfinite(v) for v in run["loss"]),
         "a round's server-test loss is inf/nan"),
        ("fingerprint is reproducible from the records",
         bool(run["prefix_fingerprints"]) and run["prefix_fingerprints"][-1] == run["fingerprint"],
         f"{run['fingerprint']} vs {run['prefix_fingerprints'][-1:]}"),
    ]
    # No faults are configured, so every trained client is aggregated and
    # each moved the communicated state once down and once up.
    expected = 2 * run["state_bytes"] * sum(run["num_aggregated"])
    moved = run["meter_up"] + run["meter_down"]
    checks.append((
        "bytes moved equal 2 x state bytes x aggregated clients",
        moved == expected == run["meter_total"] == run["cum_bytes"][-1],
        f"up+down {moved}, expected {expected}, ledger {run['meter_total']}",
    ))
    if workload.all_batched:
        # An untraced run can only see the last round; the traced run of the
        # same (deterministic) trajectory sees every round.
        modes = run.get("round_modes") or [run["last_round_mode"]]
        checks.append((
            "every round ran fully stacked", all(m == "batched" for m in modes),
            f"executor modes {sorted(set(map(str, modes)))}",
        ))
    return checks


def account(run: "dict[str, Any]", checks: list, target_missed: "bool | None") -> "tuple[int, int]":
    """``(attempted, failed)`` operations: client updates, rounds, output
    checks and — when the workload's target applies — reaching it."""
    attempted = sum(run["num_sampled"]) + run["rounds"] + len(checks)
    failed = (
        sum(run["num_failed"]) + (run["rounds"] - len(run["loss"]))
        + sum(1 for _name, ok, _detail in checks if not ok)
    )
    if target_missed is not None:
        attempted += 1
        failed += int(target_missed)
    return attempted, failed


# --------------------------------------------------------------------- #
# the two measurements
# --------------------------------------------------------------------- #


def target_round(workload: Workload, run: "dict[str, Any]") -> "int | None":
    """0-based index of the first round whose server-test metric crosses
    the workload's target, or None."""
    field, threshold = workload.target
    for i, value in enumerate(run[field]):
        if (value >= threshold) if field == "accuracy" else (value <= threshold):
            return i
    return None


def measure_end_to_end(
    workload: Workload, seed: int, seconds: float, setup_samples: int = SETUP_SAMPLES
) -> "dict[str, Any]":
    """The untraced measurement: one full run plus set-up-only children."""
    rounds = workload.rounds_for(seconds)
    with scratch_dir(workload) as workdir:
        run = spawn(workload, seed, rounds, "run", workdir)
        setups = [run["setup_s"]] + [
            spawn(workload, seed, rounds, "setup", workdir)["setup_s"]
            for _ in range(setup_samples - 1)
        ]

    checks = output_checks(workload, run)
    walls = run["round_wall_s"]
    crossed = target_round(workload, run)
    # The target is calibrated for the full-length run; a shorter one
    # (--smoke) reports the whole run and does not count a miss.
    target_missed = (crossed is None) if rounds >= workload.rounds else None
    attempted, failed = account(run, checks, target_missed)
    end = len(walls) - 1 if crossed is None else crossed
    values = {
        "setup_s": statistics.median(setups),
        "rounds_per_s": len(walls) / run["run_wall_s"],
        "round_s_p50": statistics.median(walls),
        "time_to_target_s": sum(walls[: end + 1]),
        "peak_rss_mb": run["peak_rss_mb"],
        "bytes_per_round": run["meter_total"] / len(walls),
        "bytes_to_target": run["cum_bytes"][end],
        "final_accuracy": run["accuracy"][-1],
        "ops_ok_ratio": 1.0 - failed / attempted,
    }
    return {
        "values": values, "checks": checks, "attempted": attempted, "failed": failed,
        "detail": {
            "rounds": rounds, "round_samples": len(walls), "setup_samples": setups,
            "target": list(workload.target),
            "target_round": None if crossed is None else crossed + 1,
            "fingerprint": run["fingerprint"], "run_wall_s": run["run_wall_s"],
        },
    }


def measure_layers(
    workload: Workload, seed: int, seconds: float, spans_out: "pathlib.Path | None" = None
) -> "dict[str, Any]":
    """The traced measurement: a traced full run, checked against (and its
    overhead taken from) an untraced run of the first quarter of the rounds —
    a full-length reference would double the invocation's time."""
    rounds = workload.rounds_for(seconds)
    ref_rounds = max(2, rounds // 4)
    with scratch_dir(workload) as workdir:
        reference = spawn(workload, seed, ref_rounds, "run", workdir)
        traced = spawn(workload, seed, rounds, "trace", workdir, spans_out)

    checks = output_checks(workload, traced)
    prefix = traced["prefix_fingerprints"][ref_rounds - 1: ref_rounds]
    checks.append((
        "tracing changed nothing: fingerprints equal", prefix == [reference["fingerprint"]],
        f"untraced {reference['fingerprint']} vs traced prefix {prefix}",
    ))
    attempted, failed = account(traced, checks, None)

    spans, counts = traced["span_totals"], traced["counts"]

    def span(name: str, key: str = "s") -> float:
        return spans.get(name, {}).get(key, 0.0)

    client_work_s = span("trainer.client_work")
    values = {
        "sampler.select_s": span("sampler.select"),
        "sampler.select_n": span("sampler.select", "n"),
        "lazy.prefetch_s": span("lazy.prefetch"),
        "lazy.materialized_n": counts.get("lazy.materialized", 0),
        "base.payload_s": span("base.payload"),
        "base.apply_update_s": span("base.apply_update"),
        "base.round_self_s": span("base.round", "self_s"),
        "base.round_n": span("base.round", "n"),
        "comm.download_s": span("comm.download"),
        "comm.upload_s": span("comm.upload"),
        "comm.down_bytes": traced["meter_down"],
        "comm.up_bytes": traced["meter_up"],
        "executors.run_round_s": span("executors.run_round"),
        "executors.clients_n": counts.get("executors.clients", 0),
        "executors.stacked_clients_n": counts.get("executors.stacked_clients", 0),
        "executors.declined_n": counts.get("executors.declined", 0),
        "executors.failed_n": counts.get("executors.failed", 0),
        "trainer.client_work_s": client_work_s,
        "trainer.steps_n": counts.get("trainer.steps", 0),
        "trainer.samples_per_s": (
            counts.get("trainer.samples", 0) / client_work_s if client_work_s else 0.0
        ),
        "mutual.client_work_s": span("mutual.client_work"),
        "mutual.steps_n": counts.get("mutual.steps", 0),
        "batched.client_work_batched_s": span("batched.client_work_batched"),
        "fusion.aggregate_s": span("fusion.aggregate"),
        "ensemble.member_logits_s": span("ensemble.member_logits"),
        "ensemble.member_logits_n": span("ensemble.member_logits", "n"),
        "ensemble.teacher_s": span("ensemble.teacher"),
        "distill.student_s": span("distill.student"),
        "distill.steps_n": counts.get("distill.steps", 0),
        "serialization.average_states_s": span("serialization.average_states"),
        "serialization.average_states_n": span("serialization.average_states", "n"),
        "robust.validate_s": span("robust.validate"),
        "robust.rejected_n": counts.get("robust.rejected", 0),
        "metrics.evaluate_s": span("metrics.evaluate"),
        "metrics.evaluate_n": span("metrics.evaluate", "n"),
        "history.append_s": span("history.append"),
        **traced["probes"],
        # Like for like: the same rounds (same cohorts, same work) of both runs.
        "trace.overhead_ratio": (
            sum(traced["round_wall_s"][:ref_rounds]) / sum(reference["round_wall_s"]) - 1.0
        ),
        "trace.spans_n": traced["spans_n"],
        "trace.run_wall_s": traced["run_wall_s"],
    }
    return {
        "values": values, "checks": checks, "attempted": attempted, "failed": failed,
        "detail": {"rounds": rounds, "reference_rounds": ref_rounds,
                   "fingerprint": traced["fingerprint"]},
    }


# --------------------------------------------------------------------- #
# contract form
# --------------------------------------------------------------------- #


def contract_main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(
        description="One workload in one mode; the last stdout line is the JSON result."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = load_benchmark()
    workload = WORKLOADS[args.workload]
    measure = measure_layers if args.trace else measure_end_to_end
    result = measure(workload, args.seed, args.seconds)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    for name, ok, detail in result["checks"]:
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


# --------------------------------------------------------------------- #
# developer form: run / compare
# --------------------------------------------------------------------- #


def host_fingerprint() -> "dict[str, Any]":
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_pins": THREAD_PINS,
    }


def git_head() -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _print_metrics(title: str, declared: list, values: "dict[str, float]") -> None:
    print(f"  {title}")
    for m in declared:
        bound = f"  bound {m['bound']:.0%}" if "bound" in m else ""
        print(f"    {m['name']:<34} {values[m['name']]:>16.6g} {m['unit']:<9}"
              f"{m['better']} is better{bound}")


def run_main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf run")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced measurements per workload (the traced one runs once)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--smoke", action="store_true",
                        help="2 rounds per workload, 2 set-up samples, targets not counted")
    parser.add_argument("--out", type=pathlib.Path, default=None, help="write the ledger here")
    parser.add_argument("--spans-dir", type=pathlib.Path, default=None,
                        help="also keep each traced run's raw spans as <workload>.spans.json")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    setup_samples = SETUP_SAMPLES
    if args.smoke:
        seconds, setup_samples = 0.0, 2  # rounds_for() floors at 2 rounds
    if args.spans_dir is not None:
        args.spans_dir.mkdir(parents=True, exist_ok=True)
    host, head = host_fingerprint(), git_head()
    records, failed_total = [], 0
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        print(f"{name}: {workload.why}")
        for repeat in range(args.repeats):
            e2e = measure_end_to_end(workload, args.seed, seconds, setup_samples)
            _print_metrics(f"end to end (untraced, repeat {repeat + 1}/{args.repeats}, "
                           f"{e2e['detail']['round_samples']} rounds)",
                           bench["end_to_end"], e2e["values"])
            layers = None
            if repeat == 0:
                spans_out = args.spans_dir / f"{name}.spans.json" if args.spans_dir else None
                layers = measure_layers(workload, args.seed, seconds, spans_out)
                _print_metrics("per layer (traced)", bench["per_layer"], layers["values"])
            for part in filter(None, (e2e, layers)):
                failed_total += part["failed"]
                for check, ok, detail in part["checks"]:
                    print(f"    check {'ok  ' if ok else 'FAIL'} {check}"
                          + ("" if ok else f": {detail}"))
            records.append({
                "workload": name, "seed": args.seed, "repeat": repeat, "git": head, "host": host,
                "config": describe(workload, args.seed, e2e["detail"]["rounds"]),
                "end_to_end": e2e["values"], "end_to_end_detail": e2e["detail"],
                "per_layer": layers["values"] if layers else None,
                "attempted": e2e["attempted"] + (layers["attempted"] if layers else 0),
                "failed": e2e["failed"] + (layers["failed"] if layers else 0),
            })
    if args.out is not None:
        args.out.write_text(json.dumps({"records": records}, indent=1))
        print(f"wrote {args.out}")
    print("all checks passed, no failed operations" if failed_total == 0
          else f"{failed_total} failed operations")
    return 0 if failed_total == 0 else 1


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run":
        return run_main(argv[1:])
    if argv and argv[0] == "compare":
        from benchmarks.perf.compare import compare_main

        return compare_main(argv[1:])
    return contract_main(argv)


if __name__ == "__main__":
    sys.exit(main())
