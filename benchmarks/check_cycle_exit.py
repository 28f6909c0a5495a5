"""Compare run's float loop, where it stops at a repeated state, with the
general loop and with run_batch, bit for bit, on many seeded runs.

Without the running mean, ``optim.run`` on a counterexample function stops
its float loop once the state (w1, w2, m1, m2, e1, e2) repeats bit for bit
under a constant stepsize coefficient, and fills the rest of the Trace by
repeating the last period (``optim._run_diagonal``).  This script runs
``RUNS`` seeded set-ups through all three of:

- ``optim.run`` on the function's own oracle (the float loop);
- ``optim.run`` on a ``FunctionOracle`` of the same function, which the
  float loop does not take (the general loop, one ``step`` per step);
- ``optim.run_batch`` of the one member (the lock-step engine, which has no
  early exit);

and compares every Trace column as bytes.  The set-ups cycle through every
rule but the product ones, beta in {0, 0.2, 0.5, 0.9}, and the three
schedules whose coefficient becomes constant: ``Constant``,
``AdaptiveNuclear`` and a ``Table`` shorter than T.  T runs up to
``MAX_T``; starts include the kinks w1 = +-w2, +-0.0 and non-finite
entries, and some runs start at t0 > 0 or with nonzero M and E.

The stepsize has one ||M||_nuc factor, whether the rule (``regmuon``), the
schedule (``AdaptiveNuclear``) or both ask for it, so each ``muon`` and
``regmuon`` run under ``AdaptiveNuclear(base)`` is also compared with the
float loop's ``regmuon`` run under ``Constant(base)`` from the same state.

Prints how many runs took the early exit; exits 1 if that is 0 or if any
run mismatches.  Run it from the root of a source checkout::

    PYTHONPATH=src python3 benchmarks/check_cycle_exit.py
"""

from __future__ import annotations

import dataclasses
import sys
import time
import warnings
from unittest import mock

import numpy as np

from muonlab import counterexample as cex
from muonlab import optim

SEED = 21
RUNS = 420
MAX_T = 5000
BETAS = (0.0, 0.2, 0.5, 0.9)
COLUMNS = ("t", "lam", "f", "w11", "w22", "grad_fro", "favg")
SPECIAL = (0.0, -0.0, 0.7, -0.7, np.nan, np.inf, -np.inf, 5e-324)
# The rules that run as regmuon under Constant(base) when under AdaptiveNuclear(base).
AS_REGMUON = ("muon", "regmuon")


def _trace_bytes(tr) -> tuple:
    return tuple(getattr(tr, col).tobytes() for col in COLUMNS)


def setups(seed: int = SEED):
    """(label, method, KinkyFunction, state factory, T) for each run."""
    rng = np.random.default_rng(seed)
    methods = [name for name, rule in optim.RULES.items() if rule.lmo != "product"]
    for i in range(RUNS):
        method = methods[i % len(methods)]
        beta = BETAS[i // len(methods) % len(BETAS)]
        kind = ("Constant", "AdaptiveNuclear", "Table")[i // (len(methods) * len(BETAS)) % 3]
        # Log-uniform: most runs are short enough for the general loop.
        T = int(np.exp(rng.uniform(np.log(100), np.log(MAX_T))))
        if kind == "Constant":
            schedule = optim.Constant(float(rng.uniform(0.01, 1.0)))
        elif kind == "AdaptiveNuclear":
            schedule = optim.AdaptiveNuclear(float(rng.uniform(0.01, 0.5)))
        else:
            schedule = optim.Table(tuple(rng.uniform(0.01, 0.5, int(rng.integers(1, T)))))
        fn = cex.KinkyFunction(c=float(rng.uniform(0.05, 0.95)))
        w1, w2, m1, m2, e1, e2 = rng.standard_normal(6).tolist()
        start = rng.integers(4)
        if start == 1:  # on a kink
            w2 = w1 if rng.integers(2) else -w1
        elif start == 2:  # special entries, +-0.0 and non-finite among them
            w1, w2 = rng.choice(SPECIAL, 2).tolist()
        if rng.integers(5):
            m1 = m2 = e1 = e2 = 0.0
        t0 = int(rng.integers(0, 20)) if rng.integers(7) == 0 else 0
        W0, M0, E0 = np.diag([w1, w2]), np.diag([m1, m2]), np.diag([e1, e2])

        def state0(W0=W0, M0=M0, E0=E0, beta=beta, schedule=schedule, t0=t0):
            return optim.OptimizerState(W=W0.copy(), beta=beta, schedule=schedule,
                                        M=M0.copy(), E=E0.copy(), t=t0)

        yield (f"{method} beta={beta} {kind} T={T} t0={t0} W0=({w1!r}, {w2!r})",
               method, fn, state0, T)


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)  # the general loop on non-finite starts
    repeat = optim._repeat_period
    count, took, bad, twins, bad_twins = 0, 0, [], 0, []
    start = time.perf_counter()
    for label, method, fn, state0, T in setups():
        calls = []  # one item per column the float loop filled by its period
        with mock.patch.object(optim, "_repeat_period",
                               lambda *args: calls.append(1) or repeat(*args)):
            fast = _trace_bytes(optim.run(method, fn.oracle(), state0(), T,
                                          track_average=False))
        count, took = count + 1, took + bool(calls)
        general = _trace_bytes(optim.run(method, optim.FunctionOracle(fn.value, fn.subgradient),
                                         state0(), T, track_average=False))
        batch = _trace_bytes(optim.run_batch(method, [fn], [state0()], T)[0])
        if not fast == general == batch:
            bad.append(label)
        st = state0()
        if type(st.schedule) is optim.AdaptiveNuclear and method in AS_REGMUON:
            st = dataclasses.replace(st, schedule=optim.Constant(st.schedule.base))
            twins += 1
            if _trace_bytes(optim.run("regmuon", fn.oracle(), st, T,
                                      track_average=False)) != fast:
                bad_twins.append(label)
    print(f"{count} runs compared with the general loop and run_batch in "
          f"{time.perf_counter() - start:.1f} s: {took} took the early exit, "
          f"{len(bad)} mismatched; {twins} AdaptiveNuclear runs compared with regmuon "
          f"under Constant(base): {len(bad_twins)} mismatched")
    for label in (bad + bad_twins)[:10]:
        print(f"  mismatch: {label}")
    return 1 if bad or bad_twins or took == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
