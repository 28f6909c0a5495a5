import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from muonlab import linalg, norms

OP, NUC = norms.OperatorNorm(), norms.NuclearNorm()


def rand_matrix(rng, m=None, n=None):
    if m is None:
        m, n = rng.integers(2, 8, 2)
    return rng.standard_normal((m, n))


class TestPolarExact:
    def test_diagonal_is_sign(self):
        np.testing.assert_array_equal(
            linalg.polar_exact(np.diag([2.0, -3.0, 0.0])), np.diag([1.0, -1.0, 0.0]))

    def test_zero(self):
        np.testing.assert_array_equal(linalg.polar_exact(np.zeros((3, 2))), np.zeros((3, 2)))

    def test_rank_one_column(self):
        # u v^T from the top singular pair u = (0.6, 0.8), v = (1, 0); the
        # nuclear norm is the one singular value 5.
        A = np.array([[3.0, 0.0], [4.0, 0.0]])
        X, nuc = linalg.polar_and_nuclear(A)
        np.testing.assert_allclose(X, [[0.6, 0.0], [0.8, 0.0]], atol=1e-14)
        np.testing.assert_array_equal(X, linalg.polar_exact(A))
        assert abs(nuc - 5.0) <= 1e-14

    def test_rejects_bad_input(self):
        for kernel in (linalg.polar_exact, linalg.polar_and_nuclear):
            with pytest.raises(ValueError, match="expected a 2-d array"):
                kernel(np.array([1.0, 2.0]))
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                kernel(np.array([[np.nan, 1.0], [0.0, 1.0]]))
            with pytest.raises(ValueError, match="dimensions must be positive"):
                kernel(np.zeros((0, 2)))

    def test_rotation_fixed_point(self):
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(linalg.polar_exact(R), R, atol=1e-14)

    def test_random_diagonals_with_zeros(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m, n = rng.integers(2, 7, 2)
            D = np.zeros((m, n))
            d = min(m, n)
            vals = rng.standard_normal(d)
            vals[rng.random(d) < 0.3] = 0.0
            D[np.arange(d), np.arange(d)] = vals
            np.testing.assert_array_equal(linalg.polar_exact(D), np.sign(D))

    def test_duality_and_rank_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            A = rand_matrix(rng)
            P = linalg.polar_exact(A)
            assert np.linalg.norm(P, 2) <= 1 + 1e-10
            assert abs(np.sum(A * P) - np.linalg.norm(A, "nuc")) <= 1e-8
            assert abs(np.linalg.norm(P) ** 2 - np.linalg.matrix_rank(A)) <= 1e-8


class TestPolarAndNuclear:
    def reference(self, A):
        return linalg.polar_exact(A), norms.primal_norm(A, NUC)

    def test_diagonal_and_zero_exact(self):
        rng = np.random.default_rng(5)
        cases = [np.diag([3.0, -4.0]), np.zeros((2, 2)), np.zeros((3, 2)),
                 np.diag([2.0, -3.0, 0.0])]
        for _ in range(20):
            m, n = rng.integers(2, 7, 2)
            D = np.zeros((m, n))
            d = min(m, n)
            D[np.arange(d), np.arange(d)] = rng.standard_normal(d)
            cases.append(D)
        for A in cases:
            X, nuc = linalg.polar_and_nuclear(A)
            P, ref = self.reference(A)
            np.testing.assert_array_equal(X, P)
            assert nuc == ref

    def test_dense_rank_deficient_rectangular(self):
        rng = np.random.default_rng(6)
        cases = [rand_matrix(rng) for _ in range(20)]
        cases += [rng.standard_normal((m, 2)) @ rng.standard_normal((2, n))
                  for m, n in ((5, 5), (6, 3), (3, 7))]
        cases += [rng.standard_normal((9, 4)), rng.standard_normal((4, 9))]
        for A in cases:
            X, nuc = linalg.polar_and_nuclear(A)
            P, ref = self.reference(A)
            assert np.linalg.norm(X - P) <= 1e-12 * max(1.0, np.linalg.norm(P))
            assert abs(nuc - ref) <= 1e-12 * ref

    def test_factors_carry_untruncated_nuclear_norm(self):
        # The second singular value, about 1e-14 of the first, is cut from the
        # polar factor (rank 1) but counts in the nuclear norm.
        A = np.diag([1.0, 1e-14]) @ np.array([[1.0, 1.0], [1.0, -1.0]])
        X, nuc = linalg.polar_and_nuclear(A)
        assert abs(np.linalg.norm(X) ** 2 - 1.0) <= 1e-12
        assert nuc > norms.primal_norm(A, OP)
        assert abs(nuc - norms.primal_norm(A, NUC)) <= 1e-12 * nuc


class TestStacks:
    """Each member of a stack is the stack of one, which is the per-call
    kernel, bit for bit; ``test_exact_kernel_digests`` pins both to the
    per-matrix code they replaced."""

    def stack(self, rng, m, n):
        members = [np.zeros((m, n)), rng.standard_normal((m, n))]
        for zeros in (0, 1):
            D = np.zeros((m, n))
            d = min(m, n)
            D[np.arange(d), np.arange(d)] = rng.standard_normal(d)
            D[0, 0] *= 1 - zeros
            members.append(D)
        return np.stack(members)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (6, 4), (20, 20)])
    def test_members_match(self, shape):
        A = self.stack(np.random.default_rng(8), *shape)
        X, nuc = linalg.polar_exact_stack(A), linalg.nuclear_norm_stack(A)
        for b in range(len(A)):
            np.testing.assert_array_equal(X[b], linalg.polar_exact(A[b]))
            assert nuc[b] == norms.primal_norm(A[b], NUC)

    @pytest.mark.parametrize("bad", [(0, 0, np.inf), (1, 1, np.nan), (0, 1, np.nan)])
    def test_non_finite_member_raises_as_polar_exact(self, bad):
        A = self.stack(np.random.default_rng(9), 2, 2)
        A[(2,) + bad[:2]] = bad[2]
        with pytest.raises(ValueError, match="finite"):
            linalg.polar_exact(A[2])
        with pytest.raises(ValueError, match="finite"):
            linalg.polar_exact_stack(A)

    def test_non_finite_diagonal_nuclear_norm(self):
        # A non-finite diagonal entry raises, per call and in a stack, as a
        # non-finite entry off the diagonal does.
        for bad in (np.diag([np.inf, 1.0]), np.diag([np.nan, 1.0])):
            for spec, stacked in ((NUC, linalg.nuclear_norm_stack),
                                  (OP, linalg.op_norm_stack)):
                with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                    norms.primal_norm(bad, spec)
                with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                    stacked(np.stack([np.diag([2.0, 1.0]), bad]))

    def test_rejects_non_stack(self):
        with pytest.raises(ValueError):
            linalg.polar_exact_stack(np.eye(2))
        with pytest.raises(ValueError):
            linalg.nuclear_norm_stack(np.eye(2))
        with pytest.raises(ValueError, match="dimensions must be positive"):
            linalg.op_norm_stack(np.ones((2, 0, 3)))

    def mixed(self, rng, m, n):
        """Full-rank, rank-deficient, diagonal and zero members of one shape."""
        r = min(m, n)
        members = [rng.standard_normal((m, n)) for _ in range(4)]
        members.append(rng.standard_normal((m, 1)) @ rng.standard_normal((1, n)))
        members.append(np.round(rng.standard_normal((m, n))))
        members += list(self.stack(rng, m, n))
        if r > 2:
            members.append(rng.standard_normal((m, r - 1)) @ rng.standard_normal((r - 1, n)))
        return np.stack(members)

    @pytest.mark.parametrize("shape", [(1, 4), (2, 2), (3, 5), (6, 4), (7, 7), (20, 20)])
    def test_all_stack_kernels_match(self, shape):
        A = self.mixed(np.random.default_rng(10), *shape)
        X = linalg.polar_exact_stack(A)
        P, nuc_uv = linalg.polar_and_nuclear_stack(A)
        op, nuc = linalg.op_norm_stack(A), linalg.nuclear_norm_stack(A)
        for b in range(len(A)):
            ref_P, ref_nuc = linalg.polar_and_nuclear(A[b])
            assert X[b].tobytes() == linalg.polar_exact(A[b]).tobytes()
            assert P[b].tobytes() == ref_P.tobytes()
            assert nuc_uv[b] == ref_nuc
            assert op[b] == norms.primal_norm(A[b], OP)
            assert nuc[b] == norms.primal_norm(A[b], NUC)

    def test_one_svd_per_stack(self, monkeypatch):
        A = self.mixed(np.random.default_rng(11), 4, 3)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        for kernel in (linalg.polar_exact_stack, linalg.polar_and_nuclear_stack,
                       linalg.op_norm_stack, linalg.nuclear_norm_stack):
            kernel(A)
        assert len(calls) == 4

    @pytest.mark.parametrize("case", ["lone", "lone rank-deficient", "mixed"])
    def test_larger_stacks_do_not_call_the_per_matrix_functions(self, case, monkeypatch):
        rng = np.random.default_rng(12)
        A = {"lone": lambda: self.stack(rng, 3, 3),  # one non-diagonal member
             "lone rank-deficient": lambda: np.stack(
                 [np.diag([2.0, -1.0, 0.0]), np.outer(rng.standard_normal(3),
                                                      rng.standard_normal(3))]),
             "mixed": lambda: self.mixed(rng, 4, 3)}[case]()
        ref = [(linalg.polar_exact(M), *linalg.polar_and_nuclear(M),
                norms.primal_norm(M, OP), norms.primal_norm(M, NUC)) for M in A]

        def refuse(*args, **kwargs):
            raise AssertionError("a per-matrix function was called")

        for name in ("polar_exact", "polar_and_nuclear"):
            monkeypatch.setattr(linalg, name, refuse)
        X = linalg.polar_exact_stack(A)
        P, nuc_uv = linalg.polar_and_nuclear_stack(A)
        op, nuc = linalg.op_norm_stack(A), linalg.nuclear_norm_stack(A)
        for b, (ref_X, ref_P, ref_nuc_uv, ref_op, ref_nuc) in enumerate(ref):
            assert X[b].tobytes() == ref_X.tobytes()
            assert P[b].tobytes() == ref_P.tobytes()
            assert nuc_uv[b] == ref_nuc_uv
            assert op[b] == ref_op
            assert nuc[b] == ref_nuc

    @pytest.mark.parametrize("kernel", [
        linalg.polar_exact, linalg.polar_and_nuclear, lambda A: norms.primal_norm(A, OP),
        lambda A: norms.primal_norm(A, NUC), lambda A: linalg.polar_exact_stack(A[None]),
        lambda A: linalg.polar_and_nuclear_stack(A[None]),
        lambda A: linalg.op_norm_stack(A[None]), lambda A: linalg.nuclear_norm_stack(A[None])],
        ids=["polar_exact", "polar_and_nuclear", "norm-op", "norm-nuc", "polar_exact_stack",
             "polar_and_nuclear_stack", "op_norm_stack", "nuclear_norm_stack"])
    @pytest.mark.parametrize("case, svds", [("dense", 1), ("rank-deficient", 1),
                                            ("rectangular", 1), ("diagonal", 0), ("zero", 0)])
    def test_one_matrix_takes_one_svd_unless_diagonal(self, kernel, case, svds, monkeypatch):
        rng = np.random.default_rng(14)
        A = {"dense": lambda: rng.standard_normal((3, 3)),
             "rank-deficient": lambda: np.outer(rng.standard_normal(3), rng.standard_normal(3)),
             "rectangular": lambda: rng.standard_normal((2, 5)),
             "diagonal": lambda: np.diag([2.0, -0.0, 0.0]),
             "zero": lambda: np.zeros((3, 2))}[case]()
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        kernel(A)
        assert len(calls) == svds

    @pytest.mark.parametrize("kernel", ["polar_exact_stack", "polar_and_nuclear_stack",
                                        "op_norm_stack", "nuclear_norm_stack"])
    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
    def test_non_finite_member_raises_before_any_svd(self, kernel, entry, monkeypatch):
        A = self.mixed(np.random.default_rng(15), 3, 3)
        A[(3,) + entry] = np.nan
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            getattr(linalg, kernel)(A)
        assert calls == []

    @pytest.mark.parametrize("kernel", ["op_norm_stack", "nuclear_norm_stack",
                                        "polar_and_nuclear_stack"])
    def test_non_finite_member_raises_as_the_reference(self, kernel):
        A = self.mixed(np.random.default_rng(13), 3, 3)
        A[3, 0, 1] = np.nan
        reference = {"op_norm_stack": lambda M: norms.primal_norm(M, OP),
                     "nuclear_norm_stack": lambda M: norms.primal_norm(M, NUC),
                     "polar_and_nuclear_stack": linalg.polar_and_nuclear}[kernel]
        with pytest.raises(Exception) as ref:
            reference(A[3])
        with pytest.raises(type(ref.value)) as got:
            getattr(linalg, kernel)(A)
        assert str(got.value) == str(ref.value)


class TestPolarNewtonSchulz:
    def test_identity_fixed_point(self):
        np.testing.assert_allclose(linalg.polar_newton_schulz(np.eye(2)), np.eye(2), atol=5e-12)

    def test_diagonal(self):
        got = linalg.polar_newton_schulz(np.diag([3.0, -4.0]))
        np.testing.assert_allclose(got, np.diag([1.0, -1.0]), atol=1e-4)

    def test_well_conditioned_vs_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            U = np.linalg.qr(rng.standard_normal((8, 5)))[0]
            V = np.linalg.qr(rng.standard_normal((5, 5)))[0]
            A = (U * rng.uniform(0.5, 2.0, 5)) @ V.T
            err = np.linalg.norm(linalg.polar_newton_schulz(A) - linalg.polar_exact(A))
            assert err <= 1e-4

    def test_zero_input(self):
        np.testing.assert_array_equal(linalg.polar_newton_schulz(np.zeros((2, 2))), np.zeros((2, 2)))

    @pytest.mark.parametrize("scale", [1e200, 1e154, 1e-170])
    def test_frobenius_overflow_or_underflow(self, scale):
        # Each used to return the zero matrix: the Frobenius norm came out as
        # inf (the input was divided by it) or as 0 (the zero-matrix branch).
        A = scale * np.array([[2.0, 1.0], [0.5, -1.5]])
        np.testing.assert_allclose(linalg.polar_newton_schulz(A), linalg.polar_exact(A),
                                   atol=1e-12)


def ns_reference(A):
    """The 2-d iteration ``polar_newton_schulz`` ran before it became the
    B = 1 case of ``polar_newton_schulz_stack``, kept as the reference."""
    A = linalg.as_matrix(A)
    fro = math.sqrt(A.ravel().dot(A.ravel()))
    if fro == 0.0:
        return np.zeros_like(A)
    X = A / fro
    limit = linalg.NEWTON_SCHULZ_GROWTH_LIMIT * math.sqrt(min(A.shape))
    for _ in range(linalg.NEWTON_SCHULZ_DEFAULT_ITERS):
        X = 1.5 * X - 0.5 * (X @ X.T @ X)
        if not np.all(np.isfinite(X)) or np.linalg.norm(X) > limit:
            raise linalg.NumericalError("Newton-Schulz iteration diverged")
    return X


# SHA-256 of polar_newton_schulz's output bytes on seeded Gaussian inputs,
# recorded with the 2-d iteration (ns_reference) before the stack kernel,
# with numpy 2.4.6's OpenBLAS at one thread on an x86-64 CPU.  A threaded
# BLAS changes the last bits at 256 x 256, so the digests are computed in a
# child process held at one thread; another BLAS build may differ too.
NS_DIGESTS = {
    "2x2": "56992fe5ef7fc79a0be5b51b82aaec6c0d5f6983829acd34094ec6039453f12e",
    "5x3": "e1aabac91f3ed86acaa79440138d4b310184440011a1ca1f248970f1d0f02b86",
    "8x8": "ab893780bde6fd82b32aca497194aca460167dc9c9e43c54cb4fe85057739877",
    "64x64": "4333f062d8e8f58e6da870832fde27143214f98d98d251381a544ad0d7fd5e56",
    "256x256": "0c8cf536796e7011fee21c10dd6bae5346b4657f4830c170f0f72c7fa1e05c0c",
}
NS_DIGEST_SCRIPT = """
import hashlib, json
import numpy as np
from muonlab import linalg
rng = np.random.default_rng(2024)
out = {}
for m, n in ((2, 2), (5, 3), (8, 8), (64, 64), (256, 256)):
    X = linalg.polar_newton_schulz(rng.standard_normal((m, n)))
    out[f"{m}x{n}"] = hashlib.sha256(np.ascontiguousarray(X).tobytes()).hexdigest()
print(json.dumps(out))
"""


def _child_output(script: str) -> str:
    """The stdout of ``script`` run in a child process at one BLAS thread."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(linalg.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_newton_schulz_digests():
    assert json.loads(_child_output(NS_DIGEST_SCRIPT)) == NS_DIGESTS


# SHA-256 of the exact kernels' output bytes, each kernel's outputs hashed in
# order, recorded while polar_exact, polar_and_nuclear and the operator and
# nuclear norms (now taken through norms.primal_norm) still had per-matrix
# bodies of their own; held at one BLAS thread as NS_DIGESTS is.
# Each shape gives eight inputs: two full-rank ones (C order and a transposed
# view), ranks min(m, n) // 2 and 1, rounded entries (tied singular values), a
# diagonal with zeros and -0.0 on its diagonal, a diagonal on a -0.0
# background, and the zero matrix.  The per-call kernels and the stacks of one
# see each input alone; the stacks of eight see all eight, eight full-rank
# members and eight diagonal ones.
EXACT_DIGESTS = {
    "polar_exact":
        "741b3faf73f61b6f8e1a2ce8db5443d339b64c2439787cccc384018a3838125b",
    "polar_and_nuclear":
        "2b324032dcc53a4c0f16b847f04a8c1ef304b650ae89ceea1015b2bb8e1feb3e",
    "norm_op":
        "4891b0dd62ecb982a8c7f9880db00a759d9477d25b864ed6783b871b0ce70f94",
    "norm_nuc":
        "55a9f999109df9ad266326d7a199ac3bc3a90b6e631a4d8603552ad54005227f",
    "polar_exact_stack":
        "8a079774d7de19789fe85829acd4515507f67d78cbc6de3a3a011ac9ecd1b897",
    "polar_and_nuclear_stack":
        "986c928f4e9999085f01dd0a391dac3afbfe096b54f5f5a1cba3465f9ec271f9",
    "op_norm_stack":
        "bd7e2b8d9b996029d062855609ce012c8e28439baf86edb68d06799a578bde15",
    "nuclear_norm_stack":
        "00ee517dfdd45180c5ce27187865ca95cb0fc22a44542dbdf90c32184193532c",
}
EXACT_DIGEST_SCRIPT = """
import hashlib, json
import numpy as np
from muonlab import linalg, norms

def diagonal(rng, m, n, background):
    D = np.full((m, n), background)
    k = min(m, n)
    d = rng.standard_normal(k)
    d[rng.random(k) < 0.3] = 0.0
    d[rng.random(k) < 0.3] = -0.0
    D[np.arange(k), np.arange(k)] = d
    return D

def inputs(rng, m, n):
    k = min(m, n)
    low = lambda r: rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    return [rng.standard_normal((m, n)), rng.standard_normal((n, m)).T, low(max(1, k // 2)),
            low(1), np.round(rng.standard_normal((m, n))), diagonal(rng, m, n, 0.0),
            diagonal(rng, m, n, -0.0), np.zeros((m, n))]

def pair(X, nuc):
    return [X, np.float64(nuc)]

per_call = {
    "polar_exact": lambda A: [linalg.polar_exact(A)],
    "polar_and_nuclear": lambda A: pair(*linalg.polar_and_nuclear(A)),
    "norm_op": lambda A: [np.float64(norms.primal_norm(A, norms.OperatorNorm()))],
    "norm_nuc": lambda A: [np.float64(norms.primal_norm(A, norms.NuclearNorm()))],
}
stacked = {
    "polar_exact_stack": lambda S: [linalg.polar_exact_stack(S)],
    "polar_and_nuclear_stack": lambda S: list(linalg.polar_and_nuclear_stack(S)),
    "op_norm_stack": lambda S: [linalg.op_norm_stack(S)],
    "nuclear_norm_stack": lambda S: [linalg.nuclear_norm_stack(S)],
}
hashes = {name: hashlib.sha256() for name in [*per_call, *stacked]}
rng = np.random.default_rng(2025)
for m, n in ((1, 4), (4, 1), (2, 2), (2, 5), (5, 2), (3, 3), (6, 4), (4, 6), (16, 16),
             (64, 24), (24, 64), (64, 64), (256, 256)):
    cases = inputs(rng, m, n)
    stacks = [A[None] for A in cases]
    stacks += [np.stack(cases), rng.standard_normal((8, m, n)),
               np.stack([diagonal(rng, m, n, 0.0) for _ in range(8)])]
    for name, kernel in per_call.items():
        for A in cases:
            for out in kernel(A):
                hashes[name].update(np.ascontiguousarray(out).tobytes())
    for name, kernel in stacked.items():
        for S in stacks:
            for out in kernel(S):
                hashes[name].update(np.ascontiguousarray(out).tobytes())
print(json.dumps({name: h.hexdigest() for name, h in hashes.items()}))
"""


def test_exact_kernel_digests():
    assert json.loads(_child_output(EXACT_DIGEST_SCRIPT)) == EXACT_DIGESTS


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestNewtonSchulzStack:
    """Each member of a stack is the B = 1 call, and both are the 2-d
    iteration they replaced, bit for bit."""

    def check_members(self, A):
        got = linalg.polar_newton_schulz_stack(A)
        assert got.shape == A.shape
        for b in range(len(A)):
            one = linalg.polar_newton_schulz(A[b])
            assert_same_bits(got[b], one)
            assert_same_bits(one, ns_reference(A[b]))

    @pytest.mark.parametrize("shape", [(2, 2), (5, 3), (3, 5), (1, 4), (4, 1), (8, 8), (33, 17)])
    def test_mixed_members(self, shape):
        rng = np.random.default_rng(sum(shape))
        m, n = shape
        A = rng.standard_normal((7, m, n))
        A[1] = 0.0  # a zero member beside non-zero ones
        A[3] = rng.standard_normal((m, 1)) @ rng.standard_normal((1, n))  # rank one
        A[4] *= 1e-150  # tiny
        A[5] = -0.0
        k = np.arange(min(m, n))
        A[6] = 0.0
        A[6, k, k] = rng.standard_normal(k.size)  # diagonal
        self.check_members(A)
        assert_same_bits(linalg.polar_newton_schulz_stack(A)[[1, 5]], np.zeros((2, m, n)))

    def test_frobenius_overflow_or_underflow_member(self):
        # Such members used to come out as zero; the others keep their bits.
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 3, 3))
        A[1] *= 1e200
        A[2] = 0.0
        A[3] = 1e-170 * np.eye(3)
        A[4] *= 1e-150  # tiny, but its sum of squares is a normal number
        got = linalg.polar_newton_schulz_stack(A)
        for b in (0, 2, 4, 5):
            assert_same_bits(got[b], ns_reference(A[b]))
        for b in (1, 3):
            np.testing.assert_allclose(got[b], linalg.polar_exact(A[b]), atol=1e-12)
            assert_same_bits(got[b], linalg.polar_newton_schulz(A[b]))

    def test_all_zero_and_single_member(self):
        self.check_members(np.zeros((3, 4, 2)))
        self.check_members(np.random.default_rng(1).standard_normal((1, 6, 6)))

    def test_strided_and_fortran_input(self):
        A = np.random.default_rng(2).standard_normal((5, 8, 6))
        for view in (A[::2], A[:, ::2, 1:], np.asfortranarray(A), A.mT):
            self.check_members(view)

    def test_diverging_member_raises(self, monkeypatch):
        # From a Frobenius-scaled start every singular value stays in (0, 1],
        # so a lower growth limit stands in for divergence.  One step takes
        # the identity's X to 0.6875 I (Frobenius norm 1.375) and a rank-one
        # member's to itself (norm 1): the limit 0.6 * sqrt(4) lies between.
        monkeypatch.setattr(linalg, "NEWTON_SCHULZ_GROWTH_LIMIT", 0.6)
        rank_one = np.zeros((4, 4))
        rank_one[0, 0] = 3.0
        A = np.stack([rank_one, np.eye(4)])
        np.testing.assert_array_equal(linalg.polar_newton_schulz(rank_one), rank_one / 3.0)
        for call in (lambda: linalg.polar_newton_schulz(A[1]),
                     lambda: linalg.polar_newton_schulz_stack(A),
                     lambda: ns_reference(A[1])):
            with pytest.raises(linalg.NumericalError, match="Newton-Schulz iteration diverged"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_member(self, bad):
        A = np.random.default_rng(3).standard_normal((4, 3, 3))
        A[2, 1, 0] = bad
        with pytest.raises(ValueError) as ref:
            linalg.polar_newton_schulz(A[2])
        with pytest.raises(ValueError) as got:
            linalg.polar_newton_schulz_stack(A)
        assert str(got.value) == str(ref.value) == "matrix entries must be finite"

    def test_rejects_non_stack(self):
        with pytest.raises(ValueError, match="stack"):
            linalg.polar_newton_schulz_stack(np.eye(2))
        with pytest.raises(ValueError, match="dimensions must be positive"):
            linalg.polar_newton_schulz_stack(np.ones((2, 0, 3)))


class TestIndependentReference:
    """The exact kernels and the matrix specs' norms against scipy's polar
    factor and numpy's norms."""

    SHAPES = [(2, 2), (5, 3), (3, 5), (16, 16), (40, 12), (12, 40), (64, 64)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_polar_exact_is_scipy_polar(self, shape):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            A = rng.standard_normal(shape)  # full rank, almost surely
            want = scipy_linalg.polar(A)[0]
            for got in (linalg.polar_exact(A), linalg.polar_and_nuclear(A)[0],
                        linalg.polar_exact_stack(A[None])[0]):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matrix_norms_are_numpy_norms(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        m, n = shape
        D = np.zeros(shape)
        D[np.arange(min(shape)), np.arange(min(shape))] = rng.standard_normal(min(shape))
        cases = [rng.standard_normal(shape), D, np.zeros(shape),
                 rng.standard_normal((m, 1)) @ rng.standard_normal((1, n))]
        for A in cases:
            for spec, stacked, ord_ in ((OP, linalg.op_norm_stack, 2),
                                        (NUC, linalg.nuclear_norm_stack, "nuc")):
                want = np.linalg.norm(A, ord_)
                for got in (norms.primal_norm(A, spec), stacked(A[None])[0]):
                    assert abs(got - want) <= 1e-12 * want
            assert (abs(linalg.polar_and_nuclear(A)[1] - np.linalg.norm(A, "nuc"))
                    <= 1e-12 * np.linalg.norm(A, "nuc"))


class TestNorm:
    """``norms.primal_norm`` of every basic spec, the per-call form of the
    stack norms above, and the Frobenius norm ``norms.fro``."""

    def test_matrix_examples(self):
        A = np.diag([3.0, -4.0])
        assert norms.primal_norm(A, OP) == 4.0
        assert norms.primal_norm(A, NUC) == 7.0
        assert norms.fro(A) == 5.0
        I3 = np.eye(3)
        assert norms.primal_norm(I3, NUC) == 3.0
        assert norms.primal_norm(I3, OP) == 1.0
        assert abs(norms.fro(I3) - np.sqrt(3)) < 1e-15

    def test_vector_examples(self):
        v = np.array([2.0, 0.0, -1.0])
        assert norms.primal_norm(v, norms.L1()) == 3.0
        assert norms.primal_norm(v, norms.Linf()) == 2.0
        assert abs(norms.primal_norm(v, norms.L2()) - np.sqrt(5)) < 1e-15
        assert abs(norms.primal_norm(v, norms.Lp(3)) - (8 + 1) ** (1 / 3)) < 1e-12

    def test_lp_rejects_small_p(self):
        with pytest.raises(ValueError, match="finite p >= 1"):
            norms.primal_norm(np.ones(3), norms.Lp(0.5))
        with pytest.raises(ValueError, match="unknown norm spec"):
            norms.primal_norm(np.ones(3), "badkind")

    def test_norm_equivalences(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            A = rand_matrix(rng)
            fro = norms.fro(A)
            op = norms.primal_norm(A, OP)
            nuc = norms.primal_norm(A, NUC)
            tol = 1e-12
            assert fro / np.sqrt(min(A.shape)) <= op + tol
            assert op <= fro + tol
            assert fro <= nuc + tol

    @pytest.mark.parametrize("kind", ["op", "nuc"])
    def test_matrix_norms_need_a_matrix(self, kind):
        with pytest.raises(ValueError, match="expected a 2-d array"):
            norms.primal_norm(np.ones(3), {"op": OP, "nuc": NUC}[kind])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_zero_size_matrices_are_refused_alike(self, shape):
        # The operator norm of np.zeros((0, 3)) used to raise numpy's
        # "zero-size array to reduction operation maximum which has no
        # identity", and the nuclear norm returned 0.0.
        A = np.zeros(shape)
        for call in (lambda: norms.primal_norm(A, OP), lambda: norms.primal_norm(A, NUC),
                     lambda: linalg.polar_exact(A), lambda: linalg.polar_and_nuclear(A),
                     lambda: linalg.polar_newton_schulz(A),
                     lambda: linalg.as_matrix(A),
                     lambda: linalg.op_norm_stack(A[None]),
                     lambda: linalg.nuclear_norm_stack(A[None]),
                     lambda: linalg.polar_exact_stack(A[None]),
                     lambda: linalg.polar_and_nuclear_stack(A[None]),
                     lambda: linalg.polar_newton_schulz_stack(A[None])):
            with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["op", "nuc"])
    def test_matrix_norms_reject_non_finite(self, kind, bad):
        # A diagonal NaN used to give a NaN norm, and a NaN off the diagonal
        # numpy's bare LinAlgError.
        for A in (np.diag([1.0, bad]), np.array([[1.0, bad], [0.0, 2.0]])):
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                norms.primal_norm(A, {"op": OP, "nuc": NUC}[kind])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["l1", "l2", "linf", "lp"])
    def test_vector_norms_reject_non_finite(self, kind, bad):
        spec = {"l1": norms.L1(), "l2": norms.L2(), "linf": norms.Linf(),
                "lp": norms.Lp(3.0)}[kind]
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            norms.primal_norm(np.array([1.0, bad, 2.0]), spec)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_finite_input_keeps_inf(self):
        # Only a non-finite entry raises; a norm that overflows is inf.
        big = np.finfo(float).max
        assert norms.primal_norm(np.diag([big, big]), NUC) == math.inf
        assert norms.primal_norm(np.array([big, big]), norms.L1()) == math.inf
        assert norms.primal_norm(np.array([big, big]), norms.L2()) == math.inf
        assert norms.primal_norm(np.diag([big, big]), OP) == big

    def test_vector_norm_accepts_row_or_column(self):
        assert norms.primal_norm(np.array([[2.0], [0.0], [-1.0]]), norms.L1()) == 3.0
        assert norms.primal_norm(np.array([[2.0, 0.0, -1.0]]), norms.Linf()) == 2.0


def layouts(rng):
    """The same kinds of values in every memory layout the kernels may see."""
    A = rng.standard_normal((6, 9)) * np.logspace(-8, 8, 9)
    return {
        "c-order": A,
        "fortran": np.asfortranarray(A),
        "transposed": A.T,
        "strided": A[::2, ::3],
        "vector": A[1],
        "strided-vector": A[:, 2],
    }


class TestFastKernels:
    """The cheap finiteness, diagonal and Frobenius kernels keep numpy's answers."""

    def test_fro_bit_equal_to_numpy(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            for name, X in layouts(rng).items():
                assert linalg._fro(X) == float(np.linalg.norm(X)), name
                if X.ndim == 1:
                    assert norms.primal_norm(X, norms.L2()) == float(np.linalg.norm(X)), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pos", [(0, 0), (1, 1), (0, 1), (1, 0)])
    def test_as_matrix_rejects_non_finite(self, bad, pos):
        A = np.eye(2)
        A[pos] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            linalg.as_matrix(A)

    def test_as_matrix_accepts_largest_finite_entries(self):
        # A sum- or dot-based finiteness shortcut would overflow to inf here.
        A = np.array([[1e308, 1e308], [-1e308, 1e308]])
        np.testing.assert_array_equal(linalg.as_matrix(A), A)
        np.testing.assert_array_equal(linalg.as_matrix(np.full((3, 2), 1e308)), 1e308)

    def test_all_finite_matches_numpy(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            A = rng.standard_normal((5, 7))
            for _ in range(int(rng.integers(0, 3))):
                A[rng.integers(0, 5), rng.integers(0, 7)] = rng.choice([np.nan, np.inf, -np.inf])
            for X in (A, A.T, A[::2, ::3], np.asfortranarray(A)):
                assert linalg._all_finite(X) == bool(np.all(np.isfinite(X)))

    def test_stack_is_diagonal_matches_reference(self):
        def reference(A):
            D = np.zeros(A.shape)
            k = min(A.shape)
            D[:k, :k] = np.diag(np.diagonal(A))
            return np.array_equal(A, D)

        rng = np.random.default_rng(10)
        cases = []
        for m, n in ((2, 2), (2, 5), (5, 2), (4, 4)):
            D = np.zeros((m, n))
            k = min(m, n)
            D[np.arange(k), np.arange(k)] = rng.standard_normal(k)
            cases.append(D)
            E = D.copy()
            E[m - 1, 0] = 1.0
            cases.append(E)
            cases.append(rng.standard_normal((m, n)))
        big = np.zeros((8, 12))
        big[::2, ::3][np.arange(4), np.arange(4)] = rng.standard_normal(4)
        cases += [big, big[::2, ::3], big.T[::3, ::2], np.asfortranarray(big)]
        for A in cases + [A.T for A in cases]:
            assert linalg._stack_is_diagonal(A[None]) == reference(A)
