"""Documentation consistency: the promises in DESIGN.md/README point at
things that exist."""

import dataclasses
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent

KNOB_TABLE_HEADER = "| flag | `FLConfig` field | env | execution-only | meaning |"


def knob_table_rows():
    """The README's run-knob table as the field table spells it."""
    from repro.experiments.configs import RUN_KNOBS
    from repro.fl import FLConfig

    fields = {f.name for f in dataclasses.fields(FLConfig)}
    return [
        "| {} | {} | {} | {} | {} |".format(
            f"`{k.flag}`" if k.flag else "—",
            f"`{k.name}`" if k.name in fields else "—",
            f"`${k.env}`" if k.env else "—",
            "yes" if k.execution_only else "no",
            k.help.replace("|", "\\|"),
        )
        for k in RUN_KNOBS
    ]


class TestDesignDoc:
    def test_exists_and_confirms_paper(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "FedKEMF" in text
        assert "confirmed match" in text

    def test_bench_targets_exist(self):
        text = (ROOT / "DESIGN.md").read_text()
        for target in re.findall(r"benchmarks/(bench_\w+\.py)", text):
            assert (ROOT / "benchmarks" / target).exists(), f"missing {target}"

    def test_named_packages_importable(self):
        text = (ROOT / "DESIGN.md").read_text()
        for mod in set(re.findall(r"`(repro\.[a-z_.]+)`", text)):
            mod = mod.rstrip(".")
            __import__(mod)


class TestReadme:
    def test_examples_listed_exist(self):
        text = (ROOT / "README.md").read_text()
        for script in re.findall(r"`(\w+\.py)`", text):
            if script in ("setup.py",):
                continue
            assert (ROOT / "examples" / script).exists(), f"missing example {script}"

    def test_knob_table_matches_the_field_table(self):
        """One knob table, and it is the one the code derives everything
        from: same rows, same order, same flag/env/execution-only/meaning."""
        lines = (ROOT / "README.md").read_text().splitlines()
        assert lines.count(KNOB_TABLE_HEADER) == 1
        start = lines.index(KNOB_TABLE_HEADER) + 2  # header + |---| rule
        end = next(i for i in range(start, len(lines)) if not lines[i].startswith("|"))
        assert lines[start:end] == knob_table_rows()

    def test_quickstart_snippet_runs_conceptually(self):
        """The README's code block must at least name real API symbols."""
        text = (ROOT / "README.md").read_text()
        from repro.core import FedKEMF  # noqa: F401
        from repro.data import build_federated_dataset  # noqa: F401
        from repro.fl import FLConfig  # noqa: F401
        from repro.nn.models import build_model  # noqa: F401

        for symbol in ("FedKEMF", "build_federated_dataset", "FLConfig", "build_model"):
            assert symbol in text


class TestExperimentsDoc:
    def test_exists_with_verdicts(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert "Table 3" in text and "Figure 7" in text
        assert "✔" in text  # at least one confirmed shape

    def test_results_paths_referenced(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for stem in ("table1", "table2", "table3", "figure4", "figure7"):
            assert f"results/{stem}.txt" in text


class TestExamplesAreScripts:
    @pytest.mark.parametrize(
        "script",
        [p.name for p in (ROOT / "examples").glob("*.py")],
    )
    def test_has_main_guard_and_docstring(self, script):
        text = (ROOT / "examples" / script).read_text()
        assert '__name__ == "__main__"' in text
        assert text.lstrip().startswith(("#!", '"""'))
