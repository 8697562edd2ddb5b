import numpy as np
import pytest

from orderlab.detector import features
from orderlab import dualview
from orderlab.dualview import ENCODERS, DualViewConfig, DualViewModel, contrastive_loss
from orderlab.encoder import next_step_probs, term_weight_matrix
from orderlab.errors import DegenerateVector, InvalidArgument
from orderlab.numkit import SeededRng
from orderlab.params import ParamVector, TrainConfig

from conftest import fd_gradient_check, tiny_dualview, toy_corpus


def joint_loss(model, params, seqs):
    """`joint_loss` over a batch of sequences, padded, checked and weighted first as training does."""
    items, lengths = model._padded(seqs)
    return model.joint_loss(params, items, term_weight_matrix(lengths, items.shape[1]) / len(seqs))


class TestRegistry:
    def test_encoder_blocks_disjoint(self):
        model, params = tiny_dualview()
        names = [n for n in model.registry if n.startswith(("sem_enc.", "collab_enc."))]
        for k, name in enumerate(names):
            params.view(name)[...] = k
        for k, name in enumerate(names):
            np.testing.assert_array_equal(params.view(name), k)

    def test_views_partition_flat(self):
        model, params = tiny_dualview()
        total = sum(
            params.view(name).size for name in model.registry
        )
        assert total == params.size


class TestItemInputs:
    def test_gate_limit_recovers_id_embeddings(self):
        model, params = tiny_dualview()
        params.view("gate_bias")[...] = -1e3
        params.view("gate_w")[...] = 0.0
        _, table_col, _ = model.item_inputs(params)
        np.testing.assert_array_equal(table_col, params.view("item_embeddings"))

    def test_zero_adapter_zero_residual(self, monkeypatch):
        model, params = tiny_dualview()
        monkeypatch.setattr(dualview, "_RESIDUAL_COEF", 0.0)
        for name in ("adapter_hidden_w", "adapter_hidden_bias", "adapter_out_w",
                     "adapter_out_bias", "residual_w"):
            params.view(name)[...] = 0.0
        table_sem, _, _ = model.item_inputs(params)
        np.testing.assert_array_equal(table_sem, 0.0)


class TestJointLoss:
    def test_fd_directional_sweep(self):
        rng = SeededRng(11)
        worst = 0.0
        for trial in range(10):
            r = rng.child(trial)
            vocab = int(r.gen.integers(5, 16))
            model, params = tiny_dualview(vocab=vocab, seed=trial + 20)
            seqs = [
                r.gen.integers(0, vocab, size=int(r.gen.integers(2, 7)))
                for _ in range(int(r.gen.integers(1, 4)))
            ]
            _, grad, _ = joint_loss(model, params, seqs)

            def f(x):
                return joint_loss(model, ParamVector(model.registry, x), seqs)[0]

            worst = max(worst, fd_gradient_check(f, grad.flat, params.flat, 1e-5, directions=24))
        assert worst < 1e-4

    def test_fd_per_coordinate_small(self):
        model, params = tiny_dualview(vocab=6, sem_dim=8, seed=31)
        seqs = [np.array([0, 3, 1, 5]), np.array([2, 4, 0])]
        _, grad, _ = joint_loss(model, params, seqs)
        eps = 1e-5
        worst_abs = 0.0
        for i in range(params.size):
            xp = params.flat.copy()
            xp[i] += eps
            xm = params.flat.copy()
            xm[i] -= eps
            fp = joint_loss(model, ParamVector(model.registry, xp), seqs)[0]
            fm = joint_loss(model, ParamVector(model.registry, xm), seqs)[0]
            worst_abs = max(worst_abs, abs((fp - fm) / (2 * eps) - grad.flat[i]))
        assert worst_abs < 1e-9

    def test_lambda_zero_is_pure_blend(self, monkeypatch):
        monkeypatch.setattr(dualview, "_CONTRASTIVE_WEIGHT", 0.0)
        model, params = tiny_dualview()
        seqs = [np.array([1, 2, 3, 4]), np.array([5, 6, 7])]
        total, _, parts = joint_loss(model, params, seqs)
        expected = 0.5 * parts["rec_semantic"] + 0.5 * parts["rec_collaborative"]
        assert total == pytest.approx(expected, abs=1e-12)

    def test_alpha_one_touches_only_semantic_path(self, monkeypatch):
        monkeypatch.setattr(dualview, "_VIEW_BLEND", 1.0)
        monkeypatch.setattr(dualview, "_CONTRASTIVE_WEIGHT", 0.0)
        model, params = tiny_dualview()
        seqs = [np.array([1, 2, 3, 4])]
        _, grad, _ = joint_loss(model, params, seqs)
        for name in model.registry:
            block = grad.view(name)
            if name.startswith(("collab_enc.", "fusion", "gate")) or name == "item_embeddings":
                np.testing.assert_array_equal(block, 0.0)
        assert np.abs(grad.view("adapter_hidden_w")).max() > 0


def encode_view(model, params, view, seqs):
    """One view's hidden states (B, T, d) of a padded batch, and that view's input table."""
    table = dict(zip(ENCODERS, model.item_inputs(params)[:2]))[view]
    items, _ = model._padded(seqs)
    return model.encode(params, ENCODERS[view], table, items)[0], table


def view_states(model, params, view, seq):
    """One view's hidden states (T, d) and next-step distributions (T-1, V) of one sequence."""
    states, table = encode_view(model, params, view, [seq])
    return states[0], next_step_probs(states[0, :-1], table)


class TestEncode:
    def test_view_symmetry_bitwise(self):
        model, params = tiny_dualview()
        # make both views share inputs and encoder weights exactly
        params.view("gate_bias")[...] = -1e3
        params.view("gate_w")[...] = 0.0
        table_sem, _, _ = model.item_inputs(params)
        params.view("item_embeddings")[...] = table_sem
        for name in model.registry:
            if name.startswith("sem_enc."):
                twin = "collab_enc." + name.split(".", 1)[1]
                params.view(twin)[...] = params.view(name)
        seq = np.array([0, 4, 2, 7, 1])
        reps_s, dists_s = view_states(model, params, "semantic", seq)
        reps_c, dists_c = view_states(model, params, "collaborative", seq)
        np.testing.assert_array_equal(reps_s, reps_c)
        np.testing.assert_array_equal(dists_s, dists_c)

    def test_first_position_uniform(self):
        # no prefix predicts position 0: the detector gives both views the
        # uniform distribution there, so their divergence is exactly zero
        model, params = tiny_dualview()
        corpus = toy_corpus([[3, 1, 2, 5, 0]], n_items=model.cfg.vocab)
        feats, _, positions = features(model, params, corpus)
        assert positions[0] == 0 and feats[0, 0] == 0.0
        assert (feats[1:, 0] > 0.0).all()

    def test_causality(self):
        model, params = tiny_dualview()
        a = np.array([1, 2, 3, 4, 5])
        b = a.copy()
        b[4] = 0
        reps_a, dists_a = view_states(model, params, "collaborative", a)
        reps_b, dists_b = view_states(model, params, "collaborative", b)
        np.testing.assert_array_equal(reps_a[:4], reps_b[:4])
        np.testing.assert_array_equal(dists_a, dists_b)

    def test_zero_encoder_params_uniform(self):
        model, params = tiny_dualview()
        for name in model.registry:
            if name.startswith("sem_enc."):
                params.view(name)[...] = 0.0
        _, dists = view_states(model, params, "semantic", np.array([1, 2, 3]))
        np.testing.assert_allclose(dists, 1.0 / model.cfg.vocab)


# each replaces the second sequence of a valid batch; tiny_dualview has vocab 10 and max_len 64
BAD_SEQUENCES = {
    "item_equal_to_vocab": [1, 10, 2],
    "negative_item": [1, -1, 2],
    "empty": [],
    "too_long": [1] * 65,
}


@pytest.mark.parametrize("bad", BAD_SEQUENCES.values(), ids=BAD_SEQUENCES.keys())
class TestRejectedInputs:
    def test_batch_view_states(self, bad):
        model, params = tiny_dualview()
        for view in ("semantic", "collaborative"):
            with pytest.raises(InvalidArgument):
                encode_view(model, params, view, [[3, 4, 5], bad])

    def test_joint_loss(self, bad):
        model, params = tiny_dualview()
        with pytest.raises(InvalidArgument):
            joint_loss(model, params, [[3, 4, 5], bad])


class TestContrastive:
    def test_single_pair_zero(self):
        gen = SeededRng(5).gen
        r = gen.standard_normal((1, 6))
        loss, _, _ = contrastive_loss(r, gen.standard_normal((1, 6)), 0.1)
        assert loss == 0.0

    def test_equal_similarities_ln_b(self):
        rep = np.tile(np.array([[1.0, 0.0]]), (5, 1))
        other = np.tile(np.array([[0.0, 1.0]]), (5, 1))
        loss, _, _ = contrastive_loss(rep, other, 0.7)
        assert loss == pytest.approx(np.log(5), abs=1e-12)

    def test_direct_summation_oracle(self):
        gen = SeededRng(6).gen
        rs = gen.standard_normal((4, 8))
        rc = gen.standard_normal((4, 8))
        tau = 0.1
        loss, _, _ = contrastive_loss(rs, rc, tau)
        us = rs / np.linalg.norm(rs, axis=1, keepdims=True)
        uc = rc / np.linalg.norm(rc, axis=1, keepdims=True)
        total = 0.0
        for i in range(4):
            num = np.exp(us[i] @ uc[i] / tau)
            total += np.log(num / sum(np.exp(us[i] @ uc[j] / tau) for j in range(4)))
            total += np.log(num / sum(np.exp(us[j] @ uc[i] / tau) for j in range(4)))
        oracle = -total / 8
        assert loss == pytest.approx(oracle, abs=1e-10)

    def test_upper_bound(self):
        gen = SeededRng(7).gen
        for b in (2, 5, 9):
            rs = gen.standard_normal((b, 5))
            rc = gen.standard_normal((b, 5))
            tau = 0.25
            loss, _, _ = contrastive_loss(rs, rc, tau)
            assert loss <= np.log(b) + 2.0 / tau

    def test_gradient_descends(self):
        gen = SeededRng(8).gen
        rs = gen.standard_normal((6, 8))
        rc = gen.standard_normal((6, 8))
        losses = []
        for _ in range(30):
            loss, d_rs, d_rc = contrastive_loss(rs, rc, 0.2)
            losses.append(loss)
            rs -= 0.5 * d_rs
            rc -= 0.5 * d_rc
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_zero_norm_rejected(self):
        rs = np.zeros((2, 4))
        with pytest.raises(DegenerateVector):
            contrastive_loss(rs, np.ones((2, 4)), 0.1)


class TestTrainDualView:
    def test_zero_epochs(self):
        model, params = tiny_dualview()
        seqs = [np.array([1, 2, 3])]
        trained, trace = model.train(params, seqs, TrainConfig(epochs=0), SeededRng(1))
        np.testing.assert_array_equal(trained.flat, params.flat)

    def test_both_views_learn(self, small_synth):
        corpus, cats, table = small_synth
        from orderlab.semantics import reduce

        reduced = reduce(table, 16)
        model = DualViewModel(
            DualViewConfig(vocab=corpus.n_items, sem_dim=table.shape[1], hidden=16),
            table,
            reduced,
        )
        params = model.init_params(SeededRng(2))
        prefixes = [corpus.train_prefix(u) for u in range(corpus.n_users)]
        trained, trace = model.train(
            params, prefixes, TrainConfig(epochs=3, batch_size=16, early_stop=False), SeededRng(3)
        )
        _, _, parts = joint_loss(model, trained, prefixes[:16])
        assert parts["rec_semantic"] < np.log(corpus.n_items)
        assert parts["rec_collaborative"] < np.log(corpus.n_items)
        assert trace[-1] < trace[0]

    def test_deterministic(self):
        model, params = tiny_dualview()
        seqs = [SeededRng(4).gen.integers(0, 10, size=6) for _ in range(12)]
        cfg = TrainConfig(epochs=2, batch_size=4, early_stop=False)
        a, ta = model.train(params, seqs, cfg, SeededRng(9))
        b, tb = model.train(params, seqs, cfg, SeededRng(9))
        assert ta == tb
        np.testing.assert_array_equal(a.flat, b.flat)
