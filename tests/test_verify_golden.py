"""``muonlab verify`` prints the same lines, byte for byte, as the recorded run.

The files under ``tests/data/verify/`` hold the standard output of
``muonlab verify <suite>`` with default arguments.  ``cex2`` is left out:
it takes about 35 s, and acceptance criterion 3 runs it already.
Regenerate a file only for a change that is meant to alter a suite's
observed values, and say so in the change.
"""

from pathlib import Path

import pytest

from muonlab import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "verify"
SUITES = ("polar", "reduction", "compressor", "lmo", "cex1", "ef-bound")


@pytest.mark.parametrize("suite", SUITES)
def test_verify_output_matches_golden(suite, capsys):
    rc = cli.main(["verify", suite])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{suite}.txt").read_text(encoding="utf-8")
