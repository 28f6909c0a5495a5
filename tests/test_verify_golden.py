"""``muonlab verify`` prints the same lines, byte for byte, as the recorded run.

The files under ``tests/data/verify/`` hold the standard output of
``muonlab verify <suite>`` with default arguments, one file per suite of
``harness.SUITES``.  They were recorded with the scalar ``optim.run`` loop, so
``cex1.txt`` and ``cex2.txt`` also pin the batched engine the two suites
now run on.  Regenerate a file only for a change that is meant to alter a
suite's observed values, and say so in the change.

The printed lines show four significant digits.  ``observed-hex.json``
holds every observed value of every suite as ``float.hex``.  The
``lmo`` and ``compressor`` entries were recorded with the per-call norm
kernels, and the ``polar`` and ``reduction`` entries with one trial at a
time, so they pin the stacked kernels those suites now run on to the last
bit.
"""

import json
from pathlib import Path

import pytest

from muonlab import cli, harness

GOLDEN = Path(__file__).resolve().parent / "data" / "verify"
SUITES = tuple(harness.SUITES)


def test_every_suite_has_a_golden_record():
    # A new verify suite ships with its golden output and observed bits.
    recorded = json.loads((GOLDEN / "observed-hex.json").read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(SUITES)
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(SUITES)


@pytest.mark.parametrize("suite", SUITES)
def test_verify_output_matches_golden(suite, capsys):
    rc = cli.main(["verify", suite])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{suite}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("suite", SUITES)
def test_observed_values_match_recorded_bits(suite, suite_results):
    recorded = json.loads((GOLDEN / "observed-hex.json").read_text(encoding="utf-8"))[suite]
    got = [[r.name, float(r.observed).hex()] for r in suite_results(suite)]
    assert got == recorded
