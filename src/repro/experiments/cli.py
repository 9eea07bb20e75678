"""Command-line entry point for regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments.cli table1 [--settings 30 50] [--methods fedavg fedkemf]
    python -m repro.experiments.cli figure4
    python -m repro.experiments.cli all --out results/
    REPRO_SCALE=small python -m repro.experiments.cli table3

The active scale comes from ``REPRO_SCALE`` (smoke/small/paper) or
``--scale``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from repro.experiments import figures, tables
from repro.experiments.configs import RUN_KNOBS, get_scale
from repro.experiments.runner import ExperimentRunner

__all__ = ["main", "build_parser", "export_knobs"]

EXPERIMENTS = ("table1", "table2", "table3", "figure4", "figure5", "figure6", "figure7")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate FedKEMF paper tables/figures at a chosen scale.",
    )
    p.add_argument(
        "experiment",
        choices=EXPERIMENTS + ("all", "list"),
        help="which artifact to regenerate ('list' prints the index)",
    )
    p.add_argument("--scale", default=None, help="smoke | small | paper (default: $REPRO_SCALE or smoke)")
    p.add_argument("--settings", nargs="+", default=["30"], choices=["30", "50", "100"],
                   help="paper federation settings to include (tables)")
    p.add_argument(
        "--methods",
        nargs="+",
        default=["fedavg", "fednova", "fedprox", "fedkemf"],
        help="algorithms to compare",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=pathlib.Path, default=None, help="also write artifacts here")
    groups: dict = {}
    for k in RUN_KNOBS:
        if k.flag is None:
            continue
        if k.group not in groups:
            groups[k.group] = p.add_argument_group(k.group)
        fallback = "" if k.default is None or k.default is False else f" or {k.default}"
        example = f", e.g. {k.example!r}" if k.example else ""
        kind = (
            dict(action="store_true")
            if k.type is bool
            else dict(type=k.type, default=None, choices=k.choices)
        )
        groups[k.group].add_argument(
            k.flag, help=f"{k.help}{example} (default: ${k.env}{fallback})", **kind
        )
    return p


def export_knobs(args: argparse.Namespace) -> None:
    """Copy the knob flags that were given into their ``REPRO_*`` variables,
    so every run the tables/figures spawn sees them
    (:func:`repro.experiments.configs.runtime_defaults`)."""
    for k in RUN_KNOBS:
        value = getattr(args, k.flag[2:].replace("-", "_")) if k.flag else None
        if value is not None and value is not False:
            os.environ[k.env] = "1" if value is True else str(value)


def _emit(name: str, text: str, out_dir: pathlib.Path | None) -> None:
    print(text)
    print()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(text + "\n")


def _run_one(name: str, runner: ExperimentRunner, args) -> str:
    methods = tuple(args.methods)
    settings = tuple(args.settings)
    if name == "table1":
        return tables.render_table1(
            tables.compute_table1(runner, methods=methods, settings=settings, seed=args.seed)
        )
    if name == "table2":
        return tables.render_table2(
            tables.compute_table2(runner, methods=methods, settings=settings, seed=args.seed)
        )
    if name == "table3":
        return tables.render_table3(
            tables.compute_table3(runner, methods=methods, seed=args.seed)
        )
    if name == "figure4":
        out = figures.figure4(runner, methods=methods, seed=args.seed)
        return "Figure 4 — accuracy vs rounds\n" + "\n\n".join(
            figures.render_series_panel(t, s) for t, s in out.items()
        )
    if name == "figure5":
        out = figures.figure5(runner, methods=methods, seed=args.seed)
        return "Figure 5 — convergence accuracy\n" + "\n\n".join(
            figures.render_bars(t, b) for t, b in out.items()
        )
    if name == "figure6":
        out = figures.figure6(runner, methods=methods, seed=args.seed)
        return "Figure 6 — rounds to target\n" + "\n\n".join(
            figures.render_bars(t, b, unit=" rounds") for t, b in out.items()
        )
    if name == "figure7":
        entries = figures.figure7(runner, seed=args.seed)
        lines = ["Figure 7 — FedKEMF stability across settings"]
        for e in entries:
            lines.append(
                f"  {e.label:38s} {figures.sparkline(e.accuracies)} "
                f"final={e.final:.2%} tail_std={e.tail_std:.3f}"
            )
        return "\n".join(lines)
    raise KeyError(name)


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        print("available experiments: " + ", ".join(EXPERIMENTS))
        print("scales: smoke (default), small, paper — set with --scale or $REPRO_SCALE")
        return 0
    scale = get_scale(args.scale)
    export_knobs(args)
    print(f"[scale={scale.name}: image {scale.image_size}px, rounds {scale.rounds}, "
          f"clients {scale.clients}]\n")
    runner = ExperimentRunner(scale)
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    for name in names:
        _emit(name, _run_one(name, runner, args), args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
