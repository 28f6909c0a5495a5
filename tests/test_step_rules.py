"""SHA-256 pins of the eight ``optim.step_*`` entries.

Each case runs ``STEPS`` steps of one entry from one set-up and hashes the
final W, M and E (``state``) and the ``StepInfo.lam`` of every step
(``lam``).  The set-ups cover a 2x2 diagonal start on the counterexample
function and a dense 5x4 start on an l1 distance, beta = 0 and 0.7, the exact
and the Newton-Schulz polar for the polar rules, ``AdaptiveNuclear`` for muon
and regmuon, and a two-layer ``ProductNormSpec`` point for the product rules.

The digests live in ``tests/data/step_rules.json``.  To record them::

    PYTHONPATH=src python3 tests/test_step_rules.py
"""

import hashlib
import json
import os

import numpy as np
import pytest

from muonlab import counterexample as cex
from muonlab import linalg, norms, optim

STEPS = 20
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "step_rules.json")
POLAR_METHODS = ("specgd", "muon", "regmuon", "efmuon")
SIGN_METHODS = ("signgd", "signmomentum")
PRODUCT_METHODS = ("muonmax", "efmuonmax")
BETAS = (0.0, 0.7)
PRODUCT_SPEC = norms.ProductNormSpec(layer_dims=((3, 4), (2, 2)), s=1.5, k=3)


def l1_oracle(target):
    """f(W) = ||W - target||_1, blockwise on a ParamPoint, with subgradient
    sign(W - target)."""
    if isinstance(target, norms.ParamPoint):
        def value(W):
            D = W - target
            return sum(float(np.abs(M).sum()) for M in D.matrices) + float(np.abs(D.theta).sum())

        def subgrad(W):
            D = W - target
            return norms.ParamPoint([np.sign(M) for M in D.matrices], np.sign(D.theta))
    else:
        def value(W):
            return float(np.abs(W - target).sum())

        def subgrad(W):
            return np.sign(W - target)
    return optim.FunctionOracle(value, subgrad)


def start(kind):
    """(W0, oracle) of a set-up."""
    rng = np.random.default_rng(41)
    if kind == "diag2x2":
        return np.diag([1.3, -0.4]), cex.KinkyFunction(c=0.3).oracle()
    if kind == "dense5x4":
        return rng.standard_normal((5, 4)), l1_oracle(rng.standard_normal((5, 4)))
    if kind == "product":
        def point():
            return norms.ParamPoint([rng.standard_normal(d) for d in PRODUCT_SPEC.layer_dims],
                                    rng.standard_normal(PRODUCT_SPEC.k))
        W0 = point()
        return W0, l1_oracle(point())
    raise ValueError(kind)


def cases() -> dict:
    """Case id -> (method, start kind, beta, schedule name, polar name)."""
    out = {}
    for beta in BETAS:
        for kind in ("diag2x2", "dense5x4"):
            for method in POLAR_METHODS:
                for polar in ("exact", "ns"):
                    out[f"{method}-{kind}-b{beta}-invsqrt-{polar}"] = (
                        method, kind, beta, "invsqrt", polar)
            for method in ("muon", "regmuon"):
                out[f"{method}-{kind}-b{beta}-adaptive-exact"] = (
                    method, kind, beta, "adaptive", "exact")
            for method in SIGN_METHODS:
                out[f"{method}-{kind}-b{beta}-invsqrt"] = (method, kind, beta, "invsqrt", "exact")
        for method in PRODUCT_METHODS:
            out[f"{method}-product-b{beta}-invsqrt"] = (method, "product", beta, "invsqrt", "exact")
    return out


def _bytes(x) -> bytes:
    if isinstance(x, norms.ParamPoint):
        return b"".join(_bytes(M) for M in x.matrices) + _bytes(x.theta)
    return np.ascontiguousarray(x, dtype=float).tobytes()


def run_case(method, kind, beta, schedule, polar) -> dict:
    W0, oracle = start(kind)
    st = optim.OptimizerState(
        W=W0, beta=beta,
        schedule=optim.InvSqrtT() if schedule == "invsqrt" else optim.AdaptiveNuclear(0.05),
        spec=PRODUCT_SPEC if kind == "product" else None,
        polar=linalg.polar_exact if polar == "exact" else linalg.polar_newton_schulz)
    step = getattr(optim, f"step_{method}")
    lams = []
    for _ in range(STEPS):
        st, info = step(st, oracle)
        lams.append(info.lam)
    return {"state": hashlib.sha256(_bytes(st.W) + _bytes(st.M) + _bytes(st.E)).hexdigest(),
            "lam": hashlib.sha256(_bytes(np.array(lams))).hexdigest()}


def _recorded() -> dict:
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_entry_is_pinned():
    recorded = _recorded()
    assert recorded["steps"] == STEPS
    assert sorted(recorded["cases"]) == sorted(cases())
    assert {c[0] for c in cases().values()} == set(optim.STEP_FUNCTIONS)


@pytest.mark.parametrize("case", sorted(cases()))
def test_step_rule_digests(case):
    assert run_case(*cases()[case]) == _recorded()["cases"][case]


if __name__ == "__main__":
    record = {"steps": STEPS, "cases": {case: run_case(*args) for case, args in cases().items()}}
    with open(DATA, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
