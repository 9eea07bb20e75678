"""repro.analysis — project-specific static analysis (``reprolint``).

Mechanizes the contracts the reproduction's headline guarantees rest on:
nothing draws hidden entropy (paired Table 1–3 comparisons), no wall-clock
value feeds recorded state (bit-identical checkpoint resume), shared cache
entries stay frozen (the cache aliasing bug class), autograd ops always
register a backward, and every algorithm's mutable server state is named
by its checkpoint hooks (the resume drift bug class). The analysis is
static: it never imports the code it lints. The runtime half of those
contracts (payloads and algorithms pickle, ``server_state`` round-trips)
is checked by the registry tests, ``tests/fl/test_registry_contract.py``.

Run it as ``python -m repro.analysis`` (installed alias: ``reprolint``);
see DESIGN.md §"Static analysis" for the rule table and
``# reprolint: allow[CODE]`` escape hatch.
"""

from repro.analysis.config import AnalysisConfig, PathScope
from repro.analysis.engine import LintResult, lint_paths
from repro.analysis.rules import ALL_RULES, AST_RULES, FLOW_RULES, RULES_BY_CODE, Violation

__all__ = [
    "AnalysisConfig",
    "PathScope",
    "LintResult",
    "lint_paths",
    "Violation",
    "ALL_RULES",
    "AST_RULES",
    "FLOW_RULES",
    "RULES_BY_CODE",
]
