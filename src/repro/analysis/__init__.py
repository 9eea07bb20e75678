"""repro.analysis — project-specific static analysis (``reprolint``).

Mechanizes the per-file contracts the reproduction's headline guarantees
rest on: nothing draws hidden entropy (paired Table 1–3 comparisons), no
civil-time or OS-entropy value feeds recorded state (bit-identical
checkpoint resume), shared cache entries stay frozen (the cache aliasing
bug class), and autograd ops always register a backward. The analysis is
static: it never imports the code it lints. Whether a run is pure in
``(seed, round, client)`` across executors, residency, regimes and resume
is checked at run time by the parity matrix,
``tests/fl/test_parity_matrix.py``, and the runtime contracts (payloads
and algorithms pickle, ``server_state`` round-trips) by the registry
tests, ``tests/fl/test_registry_contract.py``.

Run it as ``python -m repro.analysis`` (installed alias: ``reprolint``);
see DESIGN.md §"Static analysis" for the rule table and
``# reprolint: allow[CODE]`` escape hatch.
"""

from repro.analysis.config import AnalysisConfig, PathScope
from repro.analysis.engine import LintResult, lint_paths
from repro.analysis.rules import ALL_RULES, RULES_BY_CODE, Violation

__all__ = [
    "AnalysisConfig",
    "PathScope",
    "LintResult",
    "lint_paths",
    "Violation",
    "ALL_RULES",
    "RULES_BY_CODE",
]
