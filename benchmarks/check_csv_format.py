"""Compare the CSV cell formatter with "%.17g" on a large seeded sample.

``harness.write_csv`` formats its cells in numpy (``harness._csv_block``) and
must write each one exactly as ``"%.17g" % cell``.  This script checks that on
``SAMPLES`` or more doubles from a fixed seed:

- random bit patterns, every exponent, NaN payloads and infinities included;
- random bit patterns whose magnitude lies in or near the exact range
  [1e-6, 1e15), where the formatter does not call "%.17g";
- 10**e for e in -30..30 and the eight doubles on either side of each;
- the 1000 doubles on either side of 1e-6 and of 1e15;
- doubles exactly halfway between two 17-digit decimals (ties, which round
  to even), for every decimal exponent in -6..14;
- the integers 0..100 000, as in the ``t`` column.

Each family also enters negated.  Prints the number of cells compared and
exits 1 after listing the first mismatches, if any.  Run it from the root of
a source checkout::

    PYTHONPATH=src python3 benchmarks/check_csv_format.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from muonlab import harness

SEED = 20
SAMPLES = 1_000_000
COLUMNS = 10
ROWS_PER_CALL = 1024


def _ulp_neighbours(x: np.ndarray, k: int) -> np.ndarray:
    """The k doubles below and above each of ``x`` (positive and finite)."""
    bits = x.view(np.int64)[:, None] + np.arange(-k, k + 1)
    return bits.ravel().view(np.float64)


def _ties(rng, per_exponent: int) -> np.ndarray:
    """odd j * 2**(E - 17) in [10**E, 10**(E + 1)): exactly halfway between
    two 17-digit decimals of exponent E."""
    out = []
    for e in range(-6, 15):
        scale = 2.0 ** (e - 17)
        lo, hi = int(np.ceil(10.0**e / scale)), int(10.0 ** (e + 1) / scale)
        out.append((rng.integers(lo // 2, (hi - 1) // 2, per_exponent) * 2 + 1) * scale)
    return np.concatenate(out)


def sample(seed: int = SEED) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Exponent fields 1003..1073 hold the magnitudes [2**-20, 2**51), which
    # cover [1e-6, 1e15) with a margin on either side.
    in_range = (rng.integers(1003, 1074, 300_000, dtype=np.uint64) << np.uint64(52)
                | rng.integers(0, 2**52, 300_000, dtype=np.uint64)).view(np.float64)
    families = [
        rng.integers(0, 2**64, 300_000, dtype=np.uint64, endpoint=False).view(np.float64),
        in_range,
        _ulp_neighbours(np.array([10.0**e for e in range(-30, 31)]), 8),
        _ulp_neighbours(np.array([1e-6, 1e15]), 1000),
        _ties(rng, 4000),
        np.arange(100_001, dtype=float),
    ]
    x = np.concatenate(families)
    x = np.concatenate([x, -x])
    return x[: x.size // COLUMNS * COLUMNS].reshape(-1, COLUMNS)


def mismatches(cells: np.ndarray, limit: int = 10) -> tuple:
    """(cells compared, the first ``limit`` (value, got, expected) triples)."""
    bad, count = [], 0
    for start in range(0, len(cells), ROWS_PER_CALL):
        block = cells[start:start + ROWS_PER_CALL]
        got = harness._csv_block(block).decode("ascii").replace("\n", ",").split(",")[:-1]
        values = block.ravel().tolist()
        count += len(values)
        if len(got) != len(values):
            return count, [(None, f"{len(got)} cells", f"{len(values)} cells")]
        bad += [(v, g, "%.17g" % v) for v, g in zip(values, got)
                if g != "%.17g" % v][:limit - len(bad)]
    return count, bad


def main() -> int:
    cells = sample()
    start = time.perf_counter()
    count, bad = mismatches(cells)
    print(f"{count} cells compared with %.17g in {time.perf_counter() - start:.2f} s, "
          f"{len(bad)} mismatches shown")
    for v, got, expected in bad:
        print(f"  {v if v is None else v.hex()}: wrote {got!r}, %.17g gives {expected!r}")
    return 1 if bad or count < SAMPLES else 0


if __name__ == "__main__":
    sys.exit(main())
