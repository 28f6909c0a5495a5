"""README's Claims section and its lists of suites are the code's.

The Claims section, between README's two marker comments, is
``harness.CLAIMS`` rendered as a markdown table, byte for byte: the render
lives here, and ``src`` holds only the data.  Every suite of
``harness.SUITES`` sits in exactly one row, and every suite a row names
exists.  No suite runs.  The CLI block's list of suites, the ``--trials``
sentence and the console script of ``pyproject.toml`` are checked against
the code too.
"""

import collections
import importlib
import re
from pathlib import Path

import pytest

from muonlab import cli, harness

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
START, END = "<!-- claims:start -->\n", "<!-- claims:end -->"
STATUSES = ("check", "finding", "not reproduced")


def render(claims) -> str:
    """The markdown table of ``claims``, one row per claim."""
    rows = ["| Claim | Statement | Suites | Status |", "|-------|-----------|--------|--------|"]
    for claim, text, suites, status in claims:
        named = ", ".join(f"`{suite}`" for suite in suites) or "none"
        rows.append(f"| {claim} | {text} | {named} | {status} |")
    return "\n".join(rows) + "\n"


def claims_section(markdown: str) -> str:
    """The text between the Claims markers."""
    _, start, rest = markdown.partition(START)
    section, end, _ = rest.partition(END)
    assert start and end, "README has no Claims markers"
    return section


def misplaced(claims, suites) -> list:
    """Each suite of ``suites`` in no row or in several, and each suite a
    row names that ``suites`` lacks."""
    count = collections.Counter(suite for _, _, named, _ in claims for suite in named)
    return ([f"{suite} sits in {count[suite]} rows" for suite in suites if count[suite] != 1]
            + [f"{suite} is not a suite" for suite in count if suite not in suites])


def test_the_claims_section_is_the_table():
    assert claims_section(README) == render(harness.CLAIMS)


def test_every_suite_sits_in_exactly_one_row():
    assert misplaced(harness.CLAIMS, harness.SUITES) == []


def test_each_row_is_well_formed():
    ids = [claim for claim, _, _, _ in harness.CLAIMS]
    assert len(set(ids)) == len(ids)
    for claim, text, suites, status in harness.CLAIMS:
        assert status in STATUSES
        assert "|" not in text and "\n" not in text


def test_the_checks_report_a_misplaced_suite():
    claims = (("C1", "a", ("cex1", "gone"), "check"), ("C2", "b", ("cex1",), "check"))
    assert misplaced(claims, {"cex1": None, "new": None}) == [
        "cex1 sits in 2 rows", "new sits in 0 rows", "gone is not a suite"]


def test_the_cli_block_lists_the_suites():
    listed = re.search(r"# property-check suites: (.*)", README).group(1)
    assert listed.split(", ") == list(harness.SUITES)


def test_the_trials_sentence_lists_the_trial_suites():
    sentence = re.search(r"`--trials` sets .*?`trials` parameter: ([^(]*)\(", README, re.DOTALL)
    listed = re.split(r",\s*|\s+and\s+", sentence.group(1).strip())
    assert sorted(listed) == sorted(harness.TRIAL_ARGS)


def test_the_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = pyproject["project"]["scripts"]["muonlab"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main


@pytest.mark.parametrize("marker", [START, END])
def test_each_marker_appears_once(marker):
    assert README.count(marker) == 1
