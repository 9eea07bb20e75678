"""CLI behavior: exit codes, formats, selection flags, rule listing."""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis import ALL_RULES
from repro.analysis.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv: str) -> "tuple[int, str]":
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_clean_file_exits_zero(capsys):
    code, out = run_cli(capsys, str(FIXTURES / "rpl501_good.py"))
    assert code == 0
    assert "0 violations" in out


def test_violations_exit_one_text_format(capsys):
    code, out = run_cli(
        capsys,
        str(FIXTURES / "rpl102_bad.py"),
        "--select",
        "RPL102",
    )
    assert code == 1
    assert "RPL102" in out
    assert "rpl102_bad.py" in out
    # path:line:col: CODE message, clickable in editors/CI logs
    assert any(":7:" in line or ":6:" in line for line in out.splitlines())


def test_github_format_emits_error_annotations(capsys):
    code, out = run_cli(
        capsys,
        str(FIXTURES / "rpl102_bad.py"),
        "--select",
        "RPL102",
        "--format",
        "github",
    )
    assert code == 1
    annotations = [line for line in out.splitlines() if line.startswith("::error ")]
    assert len(annotations) == 3
    assert all("file=" in a and "line=" in a and "title=RPL102" in a for a in annotations)


def test_ignore_flag_silences_rule(capsys):
    code, out = run_cli(
        capsys,
        str(FIXTURES / "rpl103_bad.py"),
        "--ignore",
        "RPL103",
    )
    assert code == 0


def test_unknown_code_is_usage_error(capsys):
    assert main([str(FIXTURES), "--select", "RPL999"]) == 2


def test_missing_path_is_usage_error(capsys):
    assert main(["definitely/not/a/path.py"]) == 2


def test_list_rules_covers_every_registered_rule(capsys):
    code, out = run_cli(capsys, "--list-rules")
    assert code == 0
    for rule in ALL_RULES:
        assert rule.code in out, f"--list-rules omits {rule.code}"


def test_select_glob_expands_to_rule_family(capsys):
    code, out = run_cli(
        capsys,
        str(FIXTURES / "rpl102_bad.py"),
        "--select",
        "RPL1*",
    )
    assert code == 1
    assert "RPL102" in out


def test_select_glob_matching_nothing_is_usage_error(capsys):
    assert main([str(FIXTURES), "--select", "RPLX*"]) == 2


@pytest.mark.parametrize("codes", ["", " , "])
def test_select_naming_no_code_is_usage_error(capsys, codes):
    """An empty CI variable expanding into ``--select`` must not disable
    every rule and pass."""
    assert main([str(FIXTURES / "rpl102_bad.py"), "--select", codes]) == 2
    assert "names no rule code" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--baseline", "x"],
        ["--write-baseline"],
        ["--no-contracts"],
        ["--contracts-only"],
        ["--format", "sarif"],
    ],
)
def test_removed_options_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([str(FIXTURES / "rpl501_good.py"), *argv])
    assert exit_info.value.code == 2


def test_profile_prints_per_rule_timings(capsys):
    code = main([str(FIXTURES / "rpl501_good.py"), "--profile"])
    captured = capsys.readouterr()
    assert code == 0
    assert "per-rule timing" in captured.err
    assert "total" in captured.err
