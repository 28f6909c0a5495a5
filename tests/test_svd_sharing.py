"""The dual norm and the LMO of a matrix block come from one SVD."""

import numpy as np
import pytest

from muonlab import norms, optim


@pytest.fixture
def svd_calls(monkeypatch):
    """Count calls to numpy.linalg.svd; returns a one-element list."""
    count = [0]
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        count[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return count


def product_spec():
    return norms.ProductNormSpec(layer_dims=((5, 4), (3, 6)), s=1.5, k=3)


def product_point(rng, spec):
    return norms.ParamPoint([rng.standard_normal(d) for d in spec.layer_dims],
                            rng.standard_normal(spec.k))


def sign_oracle(target):
    """f(W) = ||W - W*||_1 with subgradient sign(W - W*); no SVD."""
    if isinstance(target, norms.ParamPoint):
        def grad(W):
            D = W - target
            return norms.ParamPoint([np.sign(M) for M in D.matrices], np.sign(D.theta))
    else:
        def grad(W):
            return np.sign(W - target)
    return optim.FunctionOracle(lambda W: 0.0, grad)


@pytest.mark.parametrize("spec", [norms.OperatorNorm(), norms.NuclearNorm()])
def test_compress_matrix_one_svd(svd_calls, spec):
    W = np.random.default_rng(0).standard_normal((6, 4))
    norms.compress(W, spec)
    assert svd_calls[0] == 1


def test_lmo_min_product_one_svd_per_layer(svd_calls):
    spec = product_spec()
    norms.lmo_min(product_point(np.random.default_rng(1), spec), spec)
    assert svd_calls[0] == spec.num_layers


def test_compress_product_one_svd_per_layer(svd_calls):
    spec = product_spec()
    norms.compress(product_point(np.random.default_rng(2), spec), spec)
    assert svd_calls[0] == spec.num_layers


def test_step_efmuon_one_svd(svd_calls):
    rng = np.random.default_rng(3)
    st = optim.OptimizerState(W=rng.standard_normal((6, 4)), beta=0.9,
                              schedule=optim.Constant(0.1))
    optim.step_efmuon(st, sign_oracle(rng.standard_normal((6, 4))))
    assert svd_calls[0] == 1


@pytest.mark.parametrize("step", [optim.step_muonmax, optim.step_efmuonmax])
def test_product_steps_one_svd_per_layer(svd_calls, step):
    rng = np.random.default_rng(4)
    spec = product_spec()
    st = optim.OptimizerState(W=product_point(rng, spec), beta=0.9,
                              schedule=optim.Constant(0.1), spec=spec)
    step(st, sign_oracle(product_point(rng, spec)))
    assert svd_calls[0] == spec.num_layers


def test_dual_norm_and_lmo_match_separate_calls():
    rng = np.random.default_rng(5)
    spec = product_spec()
    cases = [(rng.standard_normal((6, 4)), norms.OperatorNorm()),
             (rng.standard_normal((3, 5)), norms.NuclearNorm()),
             (product_point(rng, spec), spec),
             (rng.standard_normal(7), norms.Lp(3.0))]
    for W, s in cases:
        dn, X = norms.dual_norm_and_lmo(W, s)
        assert abs(dn - norms.dual_norm(W, s)) <= 1e-12 * dn
        assert norms.fro(X - norms.lmo_min(W, s)) <= 1e-12
