"""Pragma handling: line-scoped allows, wildcard, wrong-code, skip-file."""

from __future__ import annotations

from repro.analysis.pragmas import parse_pragmas


def test_allow_suppresses_only_matching_line_and_code(lint_fixture):
    result = lint_fixture("pragmas_allow.py", select=frozenset({"RPL102"}))
    assert len(result.violations) == 2  # wrong-code line + bare line
    assert result.suppressed == 2  # allow[RPL102] + allow[*]
    flagged_lines = {v.line for v in result.violations}
    allowed_lines = {5, 6}
    assert flagged_lines.isdisjoint(allowed_lines)


def test_wildcard_allow_still_suppresses_under_select(lint_fixture):
    """``allow[*]`` composes with ``--select``: narrowing the run to one
    code must not resurrect a wildcard-suppressed line."""
    result = lint_fixture("pragmas_allow.py", select=frozenset({"RPL102"}))
    assert 6 not in {v.line for v in result.violations}
    assert result.suppressed >= 1


def test_pragma_on_any_line_of_multiline_expression(lint_fixture):
    result = lint_fixture("pragmas_multiline.py", select=frozenset({"RPL102"}))
    assert result.ok, [str(v) for v in result.violations]
    assert result.suppressed == 1


def test_skip_file_excludes_everything(lint_fixture):
    result = lint_fixture("pragmas_skip_file.py")
    assert result.ok
    assert result.files_checked == 0


def test_parse_pragmas_grammar():
    src = "\n".join(
        [
            "x = 1  # reprolint: allow[RPL101]",
            "y = 2  # reprolint: allow[rpl102, RPL103]  trailing prose ok",
            "z = 3  # reprolint: allow[*]",
            "plain = 4  # ordinary comment",
        ]
    )
    pragmas = parse_pragmas(src)
    assert not pragmas.skip_file
    assert pragmas.suppresses(1, "RPL101")
    assert not pragmas.suppresses(1, "RPL102")
    assert pragmas.suppresses(2, "RPL102")  # codes are case-normalized
    assert pragmas.suppresses(2, "RPL103")
    assert pragmas.suppresses(3, "RPL999")  # wildcard
    assert not pragmas.suppresses(4, "RPL101")
    assert not pragmas.suppresses(99, "RPL101")


def test_parse_pragmas_skip_file():
    assert parse_pragmas("# reprolint: skip-file\nimport random\n").skip_file
    assert not parse_pragmas("# reprolint is discussed here, no pragma\n").skip_file
