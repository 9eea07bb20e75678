"""Tests of the benchmark harness itself.

Run explicitly (tier-1 ``testpaths`` stays ``tests``)::

    PYTHONPATH=src python -m pytest benchmarks/perf/tests/test_perf_bench.py

The ``smoke`` fixture measures every workload at 2 rounds, untraced and
traced, once per session (about a minute).
"""

import json
import re
import subprocess
import sys

import pytest

from benchmarks.perf import run as bench_run
from benchmarks.perf import tracer as bench_tracer
from benchmarks.perf.compare import spread, verdict
from benchmarks.perf.workloads import WORKLOADS, build

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="session")
def bench():
    return bench_run.load_benchmark()


@pytest.fixture(scope="session")
def smoke(tmp_path_factory):
    """{workload: (end-to-end result, per-layer result, raw spans)} at 2 rounds."""
    spans_dir = tmp_path_factory.mktemp("spans")
    out = {}
    for name, workload in WORKLOADS.items():
        spans_path = spans_dir / f"{name}.json"
        e2e = bench_run.measure_end_to_end(workload, seed=3, seconds=0, setup_samples=1)
        layers = bench_run.measure_layers(workload, seed=3, seconds=0, spans_out=spans_path)
        out[name] = (e2e, layers, json.loads(spans_path.read_text()))
    return out


# --------------------------------------------------------------------- #
# BENCHMARK.json
# --------------------------------------------------------------------- #


def test_benchmark_json_matches_the_contract(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25, metric
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_workload_table_and_benchmark_json_agree(bench):
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert bench["paths"] == ["benchmarks/perf"]


# --------------------------------------------------------------------- #
# every metric, every workload
# --------------------------------------------------------------------- #


def test_every_named_metric_is_present_for_every_workload(bench, smoke):
    for name, (e2e, layers, _spans) in smoke.items():
        assert set(e2e["values"]) == {m["name"] for m in bench["end_to_end"]}, name
        assert set(layers["values"]) == {m["name"] for m in bench["per_layer"]}, name
        for key, value in {**e2e["values"], **layers["values"]}.items():
            assert isinstance(value, (int, float)) and value == value, (name, key, value)


def test_end_to_end_metrics_are_never_zero(smoke):
    for name, (e2e, _layers, _spans) in smoke.items():
        for key, value in e2e["values"].items():
            assert value > 0, (name, key)


def test_smoke_runs_pass_every_output_check(smoke):
    for name, (e2e, layers, _spans) in smoke.items():
        for part in (e2e, layers):
            assert part["failed"] == 0, (name, part["checks"])
            assert all(ok for _check, ok, _detail in part["checks"]), (name, part["checks"])
        assert any("fingerprints equal" in check for check, _ok, _detail in layers["checks"])


def test_comm_bytes_match_the_ledger(smoke):
    for name, (e2e, layers, _spans) in smoke.items():
        moved = layers["values"]["comm.up_bytes"] + layers["values"]["comm.down_bytes"]
        rounds = layers["detail"]["rounds"]
        assert moved == e2e["values"]["bytes_per_round"] * rounds, name


def test_layer_counts_are_consistent(smoke):
    pop = smoke["fedavg_population"][1]["values"]
    # round 2's cohort overlaps round 1's by a few clients, which stay resident
    assert 0.9 * pop["executors.clients_n"] < pop["lazy.materialized_n"] <= pop["executors.clients_n"]
    assert pop["mutual.steps_n"] == 0 and pop["nn.conv2d_fwd_s"] == 0
    batched = smoke["fedavg_batched_conv"][1]["values"]
    assert batched["executors.stacked_clients_n"] == batched["executors.clients_n"] > 0
    assert batched["executors.declined_n"] == 0
    fusion = smoke["kemf_fusion"][1]["values"]
    assert fusion["ensemble.member_logits_n"] == fusion["executors.clients_n"]
    assert fusion["mutual.steps_n"] > 0 and fusion["trainer.steps_n"] == 0
    for _e2e, layers, _spans in smoke.values():
        v = layers["values"]
        assert v["base.round_n"] == v["sampler.select_n"] == v["metrics.evaluate_n"] == 2


# --------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------- #


def test_spans_nest_and_self_time_is_non_negative(smoke):
    for name, (_e2e, layers, raw) in smoke.items():
        spans = [bench_tracer.Span(**s) for s in raw]
        assert len(spans) == layers["values"]["trace.spans_n"] > 0
        for s in spans:
            assert s.end >= s.start, (name, s)
            assert -1 <= s.parent < len(spans)
            if s.parent >= 0:
                parent = spans[s.parent]
                assert parent.start <= s.start and s.end <= parent.end, (name, s, parent)
        for span_name, row in bench_tracer.span_totals(spans).items():
            assert row["self_s"] >= -1e-9, (name, span_name, row)
            assert row["self_s"] <= row["s"] + 1e-9


def test_span_totals_subtracts_direct_children_only():
    spans = [
        bench_tracer.Span("round", 0.0, 10.0, -1, 0),
        bench_tracer.Span("work", 1.0, 7.0, 0, 0),
        bench_tracer.Span("step", 2.0, 5.0, 1, 0),
        bench_tracer.Span("work", 7.0, 9.0, 0, 0),
    ]
    totals = bench_tracer.span_totals(spans)
    assert totals["round"] == {"n": 1, "s": 10.0, "self_s": 2.0}
    assert totals["work"] == {"n": 2, "s": 8.0, "self_s": 5.0}
    assert totals["step"] == {"n": 1, "s": 3.0, "self_s": 3.0}


def test_tracer_keeps_the_batched_executor_batched_and_restores(tmp_path):
    from repro.fl.trainer import LocalTrainer

    original_train = LocalTrainer.train
    algo, run_kwargs = build(WORKLOADS["fedavg_batched_conv"], seed=5, rounds=2, workdir=tmp_path)
    trace = bench_tracer.Tracer()
    bench_tracer.instrument(algo, trace)
    try:
        assert LocalTrainer.train is not original_train
        algo.run(**run_kwargs)
    finally:
        trace.restore()
    assert trace.round_modes == ["batched", "batched"]
    assert algo.runtime.executor.last_round_mode == "batched"
    assert trace.counts["executors.stacked_clients"] == trace.counts["executors.clients"] == 16
    # restore() left no wrapper behind: the algorithm pickles again
    assert LocalTrainer.train is original_train
    assert not {"round", "select_clients", "aggregate", "client_payload"} & set(vars(algo))
    assert "run_round" not in vars(algo.runtime.executor)


# --------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------- #


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert verdict(steady, [10.2, 10.3, 10.1, 10.2], "lower", 0.10)["verdict"] == "within-bound"
    assert verdict(steady, [12.0, 12.1, 11.9, 12.0], "lower", 0.10)["verdict"] == "worse"
    assert verdict(steady, [8.0, 8.1, 7.9, 8.0], "lower", 0.10)["verdict"] == "better"
    assert verdict(steady, [8.0, 8.1, 7.9, 8.0], "higher", 0.10)["verdict"] == "worse"
    noisy = [10.0, 14.0, 8.0, 12.0]
    assert spread(noisy) > 0.10
    assert verdict(noisy, [10.5, 13.0, 9.0, 11.0], "lower", 0.10)["verdict"] == "unresolved"
    # spread above the bound, yet every candidate run beats every base run
    assert verdict(noisy, [5.0, 6.0, 4.0, 7.0], "lower", 0.10)["verdict"] == "better"
    exact = verdict([100.0], [100.0], "lower", 0.001)
    assert (exact["verdict"], exact["ratio"], exact["spread"]) == ("within-bound", 1.0, 0.0)
    assert verdict([100.0], [101.0], "lower", 0.001)["verdict"] == "worse"
    # one run a side has no measurable spread: never enough to call it better
    assert verdict([10.0], [8.0], "lower", 0.10)["verdict"] == "within-bound"


# --------------------------------------------------------------------- #
# the contract command
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_command_prints_one_result_object(bench, trace):
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", "fedavg_batched_conv",
         "--seed", "11", "--seconds", "1", "--trace", str(trace)],
        cwd=bench_run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = bench["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
