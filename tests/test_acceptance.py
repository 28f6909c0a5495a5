"""Acceptance battery.

One test per criterion; each records a single PASS/FAIL line, which the
conftest terminal-summary hook prints after the run so it survives pytest's
output capture.
"""

import hashlib
import json
import math

import numpy as np

from muonlab import cli, harness
from muonlab import counterexample as cex
from muonlab import optim

SUMMARY_LINES = []


def report(num, desc, ok):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {num} {status}: {desc}"
    SUMMARY_LINES.append(line)
    print(line)
    assert ok, f"criterion {num}: {desc}"


def all_pass(results):
    return all(r.passed for r in results)


def test_criterion_1_oscillation_reproduction():
    beta, T = 0.9, 5000
    cfg = harness.PRESETS["cex1-appendixE"]()
    trace, _, rcfg = harness.run_experiment(cfg)
    _, _, init = cex.cex1_build(beta, optim.InvT(), c=rcfg["c"], horizon=T)
    pred = cex.cex1_predicted_sequence(init, T)
    sum_ok = bool(np.max(np.abs(trace.sum_diag - 2.0)) <= 1e-10)
    floor = (1 - beta) / (1 + beta)
    floor_ok = bool(np.min(trace.f) >= floor - 1e-12)
    form_ok = bool(np.max(np.abs(trace.w11 - pred[:, 0])) <= 1e-10
                   and np.max(np.abs(trace.w22 - pred[:, 1])) <= 1e-10)
    report(1, "oscillating run keeps sum 2, stays above the floor, "
              "matches the closed form", sum_ok and floor_ok and form_ok)


def test_criterion_2_floor_across_betas_and_schedules():
    ok = True
    T = 5000
    for beta in (0.0, 0.5, 0.9):
        for schedule in (optim.Constant(0.2), optim.InvT()):
            fn, W0, init = cex.cex1_build(beta, schedule, horizon=T)
            st = optim.OptimizerState(W=W0, beta=beta, schedule=schedule)
            tr = optim.run("muon", fn.oracle(), st, T, track_average=False)
            ok = ok and bool(np.min(tr.f) >= (1 - beta) * init.r - 1e-12)
    report(2, "suboptimality floor (1-beta) r holds for beta in {0, 0.5, 0.9} "
              "under constant and 1/(t+1) stepsizes", ok)


def test_criterion_3_adaptive_floor(suite_results):
    results = suite_results("cex2", trials=100, T=2000)
    report(3, "adaptive-stepsize runs keep p constant, q nonzero, and the "
              "c|p0| floor in 100/100 random starts", all_pass(results))


def test_criterion_4_error_feedback_fix(suite_results):
    results = suite_results("ef-bound", T=5000)
    report(4, "error feedback converges below 0.05 and the averaged iterate "
              "stays under the theoretical bound", all_pass(results))


def test_criterion_5_reduction(suite_results):
    results = suite_results("reduction", trials=50, steps=100)
    report(5, "momentum spectral descent equals signed momentum on diagonal "
              "problems within 1e-12", all_pass(results))


def test_criterion_6_compressor_contraction(suite_results):
    results = suite_results("compressor", trials=1000)
    report(6, "every compressor satisfies its contraction inequality on "
              "1000 random inputs", all_pass(results))


def test_criterion_7_lmo_duality(suite_results):
    results = suite_results("lmo", trials=1000)
    report(7, "LMO pairing equals the dual norm, stays in the unit ball, "
              "and is the least-Frobenius maximizer", all_pass(results))


def test_criterion_8_polar_correctness(suite_results):
    results = suite_results("polar", trials=500)
    report(8, "exact polar equals sign on diagonals; iterative polar within "
              "1e-4 on 500 well-conditioned inputs", all_pass(results))


def test_criterion_9_determinism(tmp_path):
    digests = []
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 500}))
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        rc = cli.main(["run", "--preset", "cex1-appendixE",
                       "--config", str(cfg), "--out", str(out), "--seed", "3"])
        assert rc == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    report(9, "identical config and seed produce byte-identical CSV traces",
           digests[0] == digests[1])
