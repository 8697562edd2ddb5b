import numpy as np
import pytest

from orderlab import rectifier
from orderlab.errors import DivergenceError, EmptyCleanSet, InvalidArgument
from orderlab.numkit import SeededRng
from orderlab.params import ParamVector, TrainConfig
from orderlab.rectifier import (
    InfluenceConfig,
    InfluenceReport,
    RectifyConfig,
    estimate_scale,
    hvp,
    influence_report,
    influence_values,
    lissa_ihvp,
    lissa_solve,
    rectify,
    term_sum_gradient,
    validation_gradient,
)
from orderlab.seqrec import ModelConfig, SeqRecModel

from test_seqrec import tiny_model


def spd_matrix(dim, lo, hi, seed):
    gen = SeededRng(seed).gen
    q, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
    eig = gen.uniform(lo, hi, size=dim)
    return q @ np.diag(eig) @ q.T, eig


class TestHvp:
    def test_analytic_quadratic(self):
        a = np.diag([2.0, 3.0])
        out = hvp(lambda x: a @ x, np.zeros(2), np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [2.0, 3.0], atol=1e-9)

    def test_linearity(self):
        a, _ = spd_matrix(6, 0.5, 4.0, 2)
        x = SeededRng(3).gen.standard_normal(6)
        v = SeededRng(4).gen.standard_normal(6)
        h1 = hvp(lambda y: a @ y, x, v)
        h3 = hvp(lambda y: a @ y, x, 3.0 * v)
        np.testing.assert_allclose(3.0 * h1, h3, rtol=1e-6)

    def test_zero_direction(self):
        with pytest.raises(InvalidArgument):
            hvp(lambda x: x, np.ones(3), np.zeros(3))

    def test_symmetry_on_tiny_model(self):
        model, params = tiny_model(vocab=6, hidden=8, seed=17)
        seqs = [np.array([0, 3, 1, 5, 2]), np.array([2, 4, 0, 1])]

        def grad_fn(x):
            return model.dataset_loss(ParamVector(model.registry, x), seqs)[1].flat

        gen = SeededRng(19).gen
        u = gen.standard_normal(params.size)
        v = gen.standard_normal(params.size)
        hu = hvp(grad_fn, params.flat, u)
        hv = hvp(grad_fn, params.flat, v)
        lhs = float(u @ hv)
        rhs = float(v @ hu)
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-4


class TestLissa:
    def test_diagonal_inverse(self):
        h = np.diag([2.0, 4.0])
        est = lissa_solve(lambda x, j: h @ x, np.array([1.0, 1.0]), 300, 0.0, 6.0)
        np.testing.assert_allclose(est, [0.5, 0.25], atol=1e-9)

    def test_random_spd_vs_dense_solve(self):
        h, eig = spd_matrix(10, 0.5, 5.0, 5)
        v = SeededRng(6).gen.standard_normal(10)
        scale = 1.5 * eig.max()
        est = lissa_solve(lambda x, j: h @ x, v, 300, 0.0, scale)
        direct = np.linalg.solve(h, v)
        assert np.linalg.norm(est - direct) / np.linalg.norm(direct) < 1e-2

    def test_zero_vector(self):
        h = np.eye(3)
        np.testing.assert_array_equal(lissa_solve(lambda x, j: h @ x, np.zeros(3), 10, 0.0, 2.0), 0.0)

    def test_divergence_detected(self):
        h = np.diag([50.0, 1.0])
        with pytest.raises(DivergenceError):
            lissa_solve(lambda x, j: h @ x, np.array([1.0, 1.0]), 500, 0.0, 2.0)

    def test_fixed_point_residual(self):
        h, eig = spd_matrix(8, 1.0, 3.0, 7)
        v = SeededRng(8).gen.standard_normal(8)
        damping = 0.05
        scale = 1.5 * eig.max()
        est = lissa_solve(lambda x, j: h @ x, v, 2000, damping, scale)
        residual = np.linalg.norm((h + damping * np.eye(8)) @ est - v) / np.linalg.norm(v)
        assert residual < 1e-6

    def test_scale_estimate_brackets_top_eigenvalue(self):
        h, eig = spd_matrix(12, 0.2, 6.0, 9)
        scale = estimate_scale(lambda x: h @ x, 12, 30, SeededRng(10))
        assert scale > eig.max()
        assert scale < 2.0 * eig.max()


class TestInfluenceAlgebra:
    def test_reuse_identity(self):
        # -g_v' H^{-1} g_s equals -(H^{-1} g_v)' g_s for symmetric H
        h, _ = spd_matrix(9, 0.5, 4.0, 11)
        gen = SeededRng(12).gen
        g_v = gen.standard_normal(9)
        g_s = gen.standard_normal(9)
        lhs = -float(g_v @ np.linalg.solve(h, g_s))
        rhs = -float(np.linalg.solve(h, g_v) @ g_s)
        assert abs(lhs - rhs) < 1e-8

    def test_orthogonal_sample_zero_and_linearity(self):
        model, params = tiny_model(vocab=6, hidden=8, seed=21)
        seqs = [np.array([0, 1, 2, 3, 4])]
        ihvp = SeededRng(22).gen.standard_normal(params.size)
        vals = influence_values(model, params, seqs, ihvp, [(0, 2)])
        _, grad = model.sample_term_loss(params, seqs[0][:2], int(seqs[0][2]))
        assert vals[0] == pytest.approx(-float(ihvp @ grad.flat), abs=1e-12)
        # orthogonal ihvp gives exactly zero
        g = grad.flat
        ortho = ihvp - (ihvp @ g) / (g @ g) * g
        assert influence_values(model, params, seqs, ortho, [(0, 2)])[0] == pytest.approx(0.0, abs=1e-9)
        # linear in the sample gradient: doubling the ihvp doubles the value
        np.testing.assert_allclose(
            influence_values(model, params, seqs, 2 * ihvp, [(0, 2)]),
            2 * vals,
            rtol=1e-12,
        )

    def test_filter_harmful(self):
        values = np.array([0.5, -0.2, 0.0])
        report = InfluenceReport([(0, 1), (0, 2), (1, 3)], values, 1.0, 0.0, 1.0)
        assert report.harmful == [(0, 1)]
        report.values = np.array([-1.0, -0.5, -0.1])
        assert report.harmful == []
        report.samples, report.values = [], np.array([])
        assert report.harmful == []


class TestValidationGradient:
    def test_single_pair(self):
        model, params = tiny_model()
        prefix = np.array([0, 1, 2])
        g = validation_gradient(model, params, [(prefix, 3)])
        _, direct = model.sample_term_loss(params, prefix, 3)
        np.testing.assert_allclose(g, direct.flat, atol=1e-12)

    def test_duplication_invariant(self):
        model, params = tiny_model()
        pairs = [(np.array([0, 1]), 2), (np.array([3, 4]), 5)]
        g1 = validation_gradient(model, params, pairs)
        g2 = validation_gradient(model, params, pairs + pairs)
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_three_pair_average_oracle(self):
        model, params = tiny_model()
        pairs = [(np.array([0, 1]), 2), (np.array([3, 4]), 5), (np.array([6, 7]), 8)]
        g = validation_gradient(model, params, pairs)
        direct = np.mean(
            [model.sample_term_loss(params, p, t)[1].flat for p, t in pairs], axis=0
        )
        np.testing.assert_allclose(g, direct, atol=1e-12)

    def test_empty(self):
        model, params = tiny_model()
        with pytest.raises(EmptyCleanSet):
            validation_gradient(model, params, [])


class TestLissaOnModel:
    def test_converged_model_ihvp_residual(self):
        model, params = tiny_model(vocab=8, hidden=8, seed=23)
        gen = SeededRng(24).gen
        seqs = [gen.integers(0, 8, size=6) for _ in range(12)]
        trained, _ = model.train(
            params, seqs, TrainConfig(epochs=800, batch_size=4, early_stop=False), SeededRng(25)
        )
        v = gen.standard_normal(trained.size)
        cfg = InfluenceConfig(lissa_depth=300, repeats=1, damping=0.2)  # 12 users: full-batch HVPs
        res = lissa_ihvp(model, trained, seqs, v, cfg, SeededRng(26))
        assert res.residual < 0.01


class TestRectify:
    def test_empty_harmful_returns_input(self):
        model, params = tiny_model()
        seqs = [np.array([0, 1, 2, 3])]
        out, trace = rectify(
            model, params, seqs, [], [(0, 1)], lambda p: 1.0, RectifyConfig(), SeededRng(1)
        )
        np.testing.assert_array_equal(out.flat, params.flat)
        assert trace.rounds == []

    def test_single_round_matches_hand_update(self):
        model, params = tiny_model(vocab=6, hidden=8, seed=27)
        seqs = [np.array([0, 1, 2, 3, 4]), np.array([5, 4, 3, 2, 1])]
        harmful = [(0, 2)]
        clean = [(1, 1), (1, 2)]
        cfg = RectifyConfig(max_rounds=1)  # the clean batch takes both clean samples
        calls = []

        def eval_fn(p):
            calls.append(p.copy())
            return float(len(calls))  # strictly increasing: final round wins

        out, trace = rectify(model, params, seqs, harmful, clean, eval_fn, cfg, SeededRng(2))

        _, g_h = model.sample_term_loss(params, seqs[0][:2], int(seqs[0][2]))
        step = rectifier._ASCENT_RATE * g_h.flat
        norm = np.linalg.norm(step)
        if norm > rectifier._ASCENT_CLIP:
            step *= rectifier._ASCENT_CLIP / norm
        mid = params.copy()
        mid.flat += step
        g_clean = term_sum_gradient(model, mid, seqs, clean, 0.5)
        expected = mid.flat - rectifier._DESCENT_RATE * g_clean
        np.testing.assert_allclose(out.flat, expected, atol=1e-12)

    def test_harmful_loss_non_decreasing(self):
        model, params = tiny_model(vocab=8, hidden=8, seed=29)
        gen = SeededRng(30).gen
        seqs = [gen.integers(0, 8, size=8) for _ in range(10)]
        trained, _ = model.train(
            params, seqs, TrainConfig(epochs=100, batch_size=4, early_stop=False), SeededRng(31)
        )
        harmful = [(0, 3), (1, 2), (2, 5)]
        clean = [(u, p) for u in range(3, 10) for p in range(1, 7)]
        snapshots = []

        def eval_fn(p):
            snapshots.append(p.copy())
            return 1.0  # constant: no early stop, last round never "best"

        cfg = RectifyConfig(max_rounds=4)
        rectify(model, trained, seqs, harmful, clean, eval_fn, cfg, SeededRng(32))

        def harmful_loss(p):
            return sum(
                model.sample_term_loss(p, seqs[u][:k], int(seqs[u][k]))[0]
                for u, k in harmful
            )

        losses = [harmful_loss(p) for p in snapshots]
        assert all(b >= a - 1e-9 for a, b in zip(losses, losses[1:]))
        assert losses[-1] > losses[1]

    def test_best_checkpoint_never_below_tolerance(self):
        model, params = tiny_model(vocab=8, hidden=8, seed=33)
        gen = SeededRng(34).gen
        seqs = [gen.integers(0, 8, size=8) for _ in range(6)]
        harmful = [(0, 3)]
        values = iter([1.0, 0.5, 0.4, 0.3, 0.2, 0.1])  # collapses immediately

        def eval_fn(p):
            return next(values)

        out, trace = rectify(
            model, params, seqs, harmful, [], eval_fn, RectifyConfig(), SeededRng(35)
        )
        assert trace.stopped_early
        np.testing.assert_array_equal(out.flat, params.flat)  # input was best


class TestSampleChecks:
    """(user, position) samples name term `position` of a user's sequence: 1 <= position < len."""

    SEQS = [np.array([0, 1, 2, 3, 4]), np.array([5, 4, 3])]

    def test_position_zero_is_rejected_not_wrapped_to_the_last_term(self):
        model, params = tiny_model(vocab=6, hidden=8, seed=41)
        with pytest.raises(InvalidArgument, match="position 0 needs a non-empty prefix"):
            term_sum_gradient(model, params, self.SEQS, [(0, 0)], 1.0)

    @pytest.mark.parametrize("pos", [-1, -4])
    def test_negative_position_is_rejected(self, pos):
        model, params = tiny_model(vocab=6, hidden=8, seed=41)
        with pytest.raises(InvalidArgument, match="needs a non-empty prefix"):
            term_sum_gradient(model, params, self.SEQS, [(0, 2), (1, pos)], 1.0)

    @pytest.mark.parametrize("sample", [(0, 5), (1, 3), (1, 9)])
    def test_position_past_the_end_is_rejected(self, sample):
        model, params = tiny_model(vocab=6, hidden=8, seed=41)
        with pytest.raises(InvalidArgument, match="needs a non-empty prefix"):
            term_sum_gradient(model, params, self.SEQS, [sample], 1.0)

    @pytest.mark.parametrize("user", [2, -1])
    def test_user_out_of_range_is_rejected(self, user):
        model, params = tiny_model(vocab=6, hidden=8, seed=41)
        with pytest.raises(InvalidArgument, match=f"sample user {user} is not in"):
            term_sum_gradient(model, params, self.SEQS, [(user, 1)], 1.0)
        with pytest.raises(InvalidArgument, match=f"sample user {user} is not in"):
            influence_values(model, params, self.SEQS, np.ones(params.size), [(user, 1)])

    def test_valid_positions_still_sum_their_terms(self):
        model, params = tiny_model(vocab=6, hidden=8, seed=41)
        total = term_sum_gradient(model, params, self.SEQS, [(0, 1), (0, 4), (1, 2)], 0.5)
        direct = sum(
            model.sample_term_loss(params, self.SEQS[u][:k], int(self.SEQS[u][k]))[1].flat
            for u, k in [(0, 1), (0, 4), (1, 2)]
        )
        np.testing.assert_allclose(total, 0.5 * direct, rtol=0, atol=1e-12)

    def test_validation_pair_with_an_empty_prefix_is_rejected(self):
        model, params = tiny_model(vocab=6, hidden=8, seed=41)
        with pytest.raises(InvalidArgument, match="needs a non-empty prefix"):
            validation_gradient(model, params, [(np.array([0, 1]), 2), (np.array([], dtype=np.int64), 3)])
