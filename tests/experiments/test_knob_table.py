"""The knob table's derived surfaces: CLI flags, ``REPRO_*`` exports,
``runtime_defaults()`` and ``FLConfig`` agree with each other and with the
literal lists pinned here (the set the parent commit had)."""

import dataclasses
import os

import pytest

from repro.experiments.cli import build_parser, export_knobs
from repro.experiments.configs import (
    RUN_KNOBS,
    checkpoint_defaults,
    lazy_data_enabled,
    runtime_defaults,
)
from repro.fl import FLConfig

# flag, value on the command line, env variable, exported string, field, parsed value
ROUND_TRIPS = [
    ("--workers", "3", "REPRO_WORKERS", "3", "workers", 3),
    ("--executor", "parallel", "REPRO_EXECUTOR", "parallel", "executor", "parallel"),
    ("--faults", "Dropout=0.3, loss=0.1", "REPRO_FAULTS", "Dropout=0.3, loss=0.1",
     "faults", "Dropout=0.3, loss=0.1"),
    ("--deadline", "30", "REPRO_DEADLINE", "30.0", "deadline", 30.0),
    ("--aggregation", "buffered", "REPRO_AGGREGATION", "buffered", "aggregation", "buffered"),
    ("--buffer-size", "4", "REPRO_BUFFER_SIZE", "4", "buffer_size", 4),
    ("--staleness-alpha", "0.25", "REPRO_STALENESS_ALPHA", "0.25", "staleness_alpha", 0.25),
    ("--max-staleness", "6", "REPRO_MAX_STALENESS", "6", "max_staleness", 6),
    ("--defense", " Trimmed=0.3 ", "REPRO_DEFENSE", " Trimmed=0.3 ", "defense", "trimmed=0.3"),
    ("--norm-ceiling", "50", "REPRO_NORM_CEILING", "50.0", "norm_ceiling", 50.0),
    ("--max-cohort", "7", "REPRO_MAX_COHORT", "7", "max_cohort", 7),
]

ENV_NAMES = [
    "REPRO_WORKERS", "REPRO_EXECUTOR", "REPRO_FAULTS", "REPRO_DEADLINE",
    "REPRO_AGGREGATION", "REPRO_BUFFER_SIZE", "REPRO_STALENESS_ALPHA",
    "REPRO_MAX_STALENESS", "REPRO_DEFENSE", "REPRO_NORM_CEILING", "REPRO_MAX_COHORT",
    "REPRO_STATE_RESIDENCY", "REPRO_LAZY_DATA", "REPRO_CHECKPOINT_DIR",
    "REPRO_CHECKPOINT_EVERY", "REPRO_RESUME",
]

CLI_FLAGS = [
    "--aggregation", "--buffer-size", "--checkpoint-dir", "--checkpoint-every",
    "--deadline", "--defense", "--executor", "--faults", "--help", "--lazy-data",
    "--max-cohort", "--max-staleness", "--methods", "--norm-ceiling", "--out",
    "--resume", "--scale", "--seed", "--settings", "--staleness-alpha", "--workers", "-h",
]

FIELDS = [
    ("rounds", 20), ("sample_ratio", 0.4), ("local_epochs", 2), ("batch_size", 32),
    ("lr", 0.02), ("momentum", 0.9), ("weight_decay", 0.0), ("eval_batch_size", 256),
    ("seed", 0), ("eval_local", False), ("prox_mu", 0.01), ("server_lr", 1.0),
    ("distill_epochs", 1), ("distill_lr", 0.001), ("distill_batch_size", 64),
    ("distill_temperature", 1.0), ("distill_init_from_average", True),
    ("kl_weight", 1.0), ("ensemble", "max"), ("fusion", "ensemble-distill"),
    ("compression", None), ("workers", 0), ("executor", None), ("faults", None),
    ("deadline", None), ("over_provision", True), ("aggregation", "sync"),
    ("buffer_size", None), ("staleness_alpha", 0.5), ("max_staleness", None),
    ("defense", None), ("norm_ceiling", None), ("max_cohort", None),
    ("state_residency", None),
]


@pytest.fixture
def clean_env(monkeypatch):
    """Every knob variable unset, and restored afterwards — including the
    ones ``export_knobs`` writes straight into ``os.environ`` (setenv first,
    so monkeypatch records the original even when the variable is absent)."""
    for name in ENV_NAMES:
        monkeypatch.setenv(name, "")
        monkeypatch.delenv(name)


class TestRoundTrip:
    @pytest.mark.parametrize("flag,given,env,exported,field,value", ROUND_TRIPS)
    def test_flag_to_env_to_config(self, clean_env, flag, given, env, exported, field, value):
        export_knobs(build_parser().parse_args(["table1", flag, given]))
        assert os.environ[env] == exported
        assert runtime_defaults() == {field: value}
        assert getattr(FLConfig(**runtime_defaults()), field) == value

    def test_every_flagged_config_knob_is_covered(self):
        flagged = {k.flag for k in RUN_KNOBS if k.flag and k.name in dict(FIELDS)}
        assert flagged == {row[0] for row in ROUND_TRIPS}

    def test_flagless_env_knob(self, clean_env, monkeypatch):
        monkeypatch.setenv("REPRO_STATE_RESIDENCY", "5")
        assert runtime_defaults() == {"state_residency": 5}

    def test_unset_and_empty_are_omitted(self, clean_env, monkeypatch):
        export_knobs(build_parser().parse_args(["table1"]))
        assert runtime_defaults() == {}
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert runtime_defaults() == {}

    def test_run_level_knobs(self, clean_env, monkeypatch):
        args = build_parser().parse_args(
            ["table1", "--lazy-data", "--checkpoint-dir", "Ck/Dir",
             "--checkpoint-every", "5", "--resume"]
        )
        assert not lazy_data_enabled()
        export_knobs(args)
        assert lazy_data_enabled()
        assert checkpoint_defaults() == {
            "checkpoint_dir": "Ck/Dir",
            "checkpoint_every": 5,
            "resume_from": True,
        }
        assert runtime_defaults() == {}
        monkeypatch.setenv("REPRO_RESUME", "0")
        monkeypatch.setenv("REPRO_LAZY_DATA", "off")
        assert not lazy_data_enabled()
        assert checkpoint_defaults() == {
            "checkpoint_dir": "Ck/Dir",
            "checkpoint_every": 5,
            "resume_from": False,  # run() treats it like no resume request
        }


class TestSurfaceIsTheParents:
    def test_cli_flag_set(self):
        flags = sorted(o for a in build_parser()._actions for o in a.option_strings)
        assert flags == CLI_FLAGS

    def test_env_set(self):
        assert [k.env for k in RUN_KNOBS if k.env] == ENV_NAMES

    def test_flconfig_fields_defaults_and_order(self):
        assert [(f.name, f.default) for f in dataclasses.fields(FLConfig)] == FIELDS

    def test_flagless_knobs_stay_flagless(self):
        flagless = [k.name for k in RUN_KNOBS if k.flag is None]
        assert flagless == ["over_provision", "state_residency"]
