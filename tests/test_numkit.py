
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orderlab import encoder
from orderlab.detector import _cosine_rows, _jsd_rows
from orderlab.encoder import next_step_probs
from orderlab.errors import InvalidArgument, NumericalFailure
from orderlab.numkit import SeededRng, pca_fit
from orderlab.semantics import reduce

from conftest import fd_gradient_check

LN2 = float(np.log(2.0))

finite_logits = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=20
)


def softmax(logits) -> np.ndarray:
    """The model's softmax, encoder.next_step_probs, over a 1-D logit vector."""
    x = np.asarray(logits, dtype=np.float64)
    return next_step_probs(x[None, :], np.eye(x.size))[0]


def jsd(p, q) -> float:
    return float(_jsd_rows(np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)))


def cosine(a, b) -> float:
    return float(_cosine_rows(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)))


def random_dist(draw_weights):
    w = np.asarray(draw_weights, dtype=np.float64) + 1e-9
    return w / w.sum()


dist_weights = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=2, max_size=15
)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_direct_formula_oracle(self):
        # independent evaluation of exp(x)/sum(exp(x)) without stabilization
        x = np.array([1.0, 2.0, 3.0])
        oracle = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(softmax(x), oracle, atol=1e-12)
        np.testing.assert_allclose(softmax(x), [0.0900, 0.2447, 0.6652], atol=5e-5)

    @given(finite_logits, st.floats(min_value=-30, max_value=30, allow_nan=False))
    def test_shift_invariance(self, logits, shift):
        a = softmax(logits)
        b = softmax(np.asarray(logits) + shift)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @given(finite_logits)
    def test_sums_to_one(self, logits):
        assert abs(softmax(logits).sum() - 1.0) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_rows_are_independent(self):
        states = np.array([[0.0, 0.0], [1.0, -1.0], [50.0, 0.0]])
        rows = next_step_probs(states, np.eye(2))
        for state, row in zip(states, rows):
            np.testing.assert_array_equal(row, softmax(state))

    def test_shift_is_chosen_row_by_row(self):
        """Rows whose logit bound is within `_EXP_BOUND` (unshifted) and rows over
        it (shifted by the row max), mixed in one (B, T, d) batch: each row equals,
        bit for bit, the same row in a batch of copies of itself."""
        gen = np.random.default_rng(4)
        table = gen.normal(0.0, 0.5, size=(40, 8))
        states = gen.uniform(-1.0, 1.0, size=(3, 4, 8))
        states /= np.abs(states).max(axis=-1, keepdims=True)
        ratio = np.where(np.arange(12).reshape(3, 4) % 3 == 0, 4.0, 0.5)
        states *= (ratio * encoder._EXP_BOUND / np.abs(table).sum(axis=1).max())[..., None]
        mixed = next_step_probs(states, table)
        for index in np.ndindex(states.shape[:2]):
            alone = next_step_probs(np.broadcast_to(states[index], states.shape).copy(), table)
            np.testing.assert_array_equal(mixed[index], alone[index])

    @pytest.mark.parametrize("offset", [1000.0, -1000.0])
    def test_logits_past_the_exp_range_are_shifted(self, offset):
        # unshifted, exp would overflow (+1000) or underflow to a zero sum (-1000)
        logits = np.array([0.0, 1.0, 2.0]) + offset
        np.testing.assert_allclose(softmax(logits), softmax([0.0, 1.0, 2.0]), rtol=0, atol=1e-15)


class TestJensenShannon:
    def test_identical_is_zero(self):
        p = [0.2, 0.3, 0.5]
        assert jsd(p, p) == 0.0

    def test_disjoint_support_is_ln2(self):
        assert abs(jsd([1, 0], [0, 1]) - LN2) < 1e-12

    def test_direct_formula_oracle(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.9, 0.1])
        m = (p + q) / 2

        def kl(a, b):
            mask = a > 0
            return float((a[mask] * np.log(a[mask] / b[mask])).sum())

        oracle = 0.5 * kl(p, m) + 0.5 * kl(q, m)
        assert abs(jsd(p, q) - oracle) < 1e-12
        assert abs(jsd(p, q) - 0.1017) < 5e-5

    @given(dist_weights, dist_weights)
    def test_symmetry_and_bounds(self, wp, wq):
        n = min(len(wp), len(wq))
        p, q = random_dist(wp[:n]), random_dist(wq[:n])
        a, b = jsd(p, q), jsd(q, p)
        assert abs(a - b) < 1e-12
        assert 0.0 <= a <= LN2 + 1e-12

    def test_rows_are_independent(self):
        p = np.array([[0.2, 0.8], [1.0, 0.0], [0.5, 0.5]])
        q = np.array([[0.2, 0.8], [0.0, 1.0], [0.9, 0.1]])
        np.testing.assert_array_equal(_jsd_rows(p, q), [jsd(a, b) for a, b in zip(p, q)])


class TestCosine:
    def test_self(self):
        v = np.array([1.0, 2.0, -3.0])
        assert abs(cosine(v, v) - 1.0) < 1e-12
        assert abs(cosine(v, -v) + 1.0) < 1e-12

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_zero_norm(self):
        # a zero hidden state has no direction: its cosine is defined as 0
        assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0
        assert cosine([0.0, 0.0], [0.0, 0.0]) == 0.0


class TestPca:
    def test_rank_one_data(self):
        t = np.linspace(-2, 2, 17)
        data = np.column_stack([t, 2 * t])
        comps, ev = pca_fit(data, 1)
        assert comps.shape == (2, 1)
        total_var = np.trace(np.cov(data.T))
        assert ev[0] / total_var == pytest.approx(1.0, abs=1e-9)
        # projections reproduce signed distances along the line
        proj = reduce(data, 1)[:, 0]
        dist = np.linalg.norm(data - data.mean(0), axis=1) * np.sign(t)
        sign = np.sign(proj[-1] * dist[-1])
        np.testing.assert_allclose(proj, sign * dist, atol=1e-9)

    def test_anisotropic_gaussian_vs_eigh_oracle(self):
        gen = SeededRng(5).gen
        data = gen.standard_normal((4000, 2)) * np.array([2.0, 1.0])
        comps, ev = pca_fit(data, 2)
        cov = np.cov(data.T)
        oracle_vals, oracle_vecs = np.linalg.eigh(cov)
        np.testing.assert_allclose(sorted(ev), sorted(oracle_vals), rtol=1e-9)
        assert abs(comps[0, 0]) > 0.99  # first component is the high-variance axis
        assert ev[0] / ev.sum() == pytest.approx(0.8, abs=0.05)

    def test_orthonormality_and_ordering(self):
        gen = SeededRng(9).gen
        data = gen.standard_normal((60, 8)) @ np.diag([3, 2.5, 2, 1.5, 1, 0.5, 0.2, 0.1])
        comps, ev = pca_fit(data, 6)
        gram = comps.T @ comps
        assert np.abs(gram - np.eye(6)).max() < 1e-6
        assert all(ev[i] >= ev[i + 1] - 1e-12 for i in range(5))

    def test_sign_convention(self):
        gen = SeededRng(11).gen
        data = gen.standard_normal((50, 4))
        comps, _ = pca_fit(data, 3)
        for j in range(3):
            k = np.argmax(np.abs(comps[:, j]))
            assert comps[k, j] > 0

    def test_near_tied_top_eigenvalues(self):
        # exact covariance Q diag(lam) Q^T whose top two eigenvalues differ by 1e-4:
        # power iteration needs ~1e5 steps to separate them, eigh is exact
        gen = SeededRng(19).gen
        lam = np.array([1.0, 0.9999, 0.5, 0.2, 0.1, 0.05])
        q, _ = np.linalg.qr(gen.standard_normal((6, 6)))
        x = gen.standard_normal((200, 6))
        white, _ = np.linalg.qr(x - x.mean(axis=0))  # centered, orthonormal columns
        data = (white * np.sqrt(199 * lam)) @ q.T
        comps, ev = pca_fit(data, 3)
        np.testing.assert_allclose(ev, lam[:3], rtol=1e-9)
        np.testing.assert_allclose(np.abs(comps.T @ q[:, :3]), np.eye(3), atol=1e-6)

    def test_r_out_of_range(self):
        data = np.eye(3)
        with pytest.raises(InvalidArgument):
            pca_fit(data, 3)  # r must be <= rows - 1
        with pytest.raises(InvalidArgument):
            pca_fit(data, 0)

    def test_project_mean_row_is_zero(self):
        gen = SeededRng(13).gen
        data = gen.standard_normal((20, 5))
        proj = reduce(data, 2)
        np.testing.assert_allclose(proj.mean(axis=0), 0.0, atol=1e-12)

    def test_identity_on_centered_data(self):
        gen = SeededRng(17).gen
        data = gen.standard_normal((20, 3))
        data -= data.mean(axis=0)
        comps, _ = pca_fit(data, 3)
        # keeping every component rotates the centered data; rotating back restores it
        out = reduce(data, 3)
        np.testing.assert_allclose(out @ comps.T, data, atol=1e-12)


class TestFdGradientCheck:
    def test_quadratic(self):
        x = np.arange(1.0, 6.0)
        err = fd_gradient_check(lambda v: float(v @ v), 2 * x, x, 1e-6)
        assert err < 1e-8

    def test_sum_of_sines(self):
        x = np.linspace(-1, 1, 7)
        err = fd_gradient_check(lambda v: float(np.sin(v).sum()), np.cos(x), x, 1e-6)
        assert err < 1e-6

    def test_constant(self):
        x = np.ones(4)
        assert fd_gradient_check(lambda v: 3.5, np.zeros(4), x, 1e-5) == 0.0

    def test_nonfinite_objective(self):
        with pytest.raises(NumericalFailure):
            fd_gradient_check(lambda v: float("inf"), np.zeros(2), np.zeros(2), 1e-5)

    def test_directional_mode(self):
        gen = SeededRng(23).gen
        a = gen.standard_normal(30)
        x = gen.standard_normal(30)
        err = fd_gradient_check(lambda v: float(a @ v), a, x, 1e-4, directions=10)
        assert err < 1e-8


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(99).gen.integers(0, 1 << 30, size=8)
        b = SeededRng(99).gen.integers(0, 1 << 30, size=8)
        np.testing.assert_array_equal(a, b)

    def test_children_are_independent_and_reproducible(self):
        root = SeededRng(7)
        c1 = root.child("stage-a").gen.integers(0, 1 << 30, size=4)
        c2 = root.child("stage-b").gen.integers(0, 1 << 30, size=4)
        c1_again = SeededRng(7).child("stage-a").gen.integers(0, 1 << 30, size=4)
        assert not np.array_equal(c1, c2)
        np.testing.assert_array_equal(c1, c1_again)

    def test_nested_children(self):
        a = SeededRng(7).child("x").child(3).gen.random(3)
        b = SeededRng(7).child("x").child(3).gen.random(3)
        np.testing.assert_array_equal(a, b)
