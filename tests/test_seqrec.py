import numpy as np
import pytest

from orderlab.checkpoint import load_checkpoint, save_checkpoint
from orderlab.encoder import next_step_probs
from orderlab.errors import FormatError, InvalidArgument
from orderlab.numkit import SeededRng
from orderlab.params import ParamVector, TrainConfig
from orderlab.seqrec import ModelConfig, SeqRecModel

from conftest import fd_gradient_check, init_params_at_scale


def tiny_model(vocab=12, hidden=8, scale=0.3, seed=3):
    model = SeqRecModel(ModelConfig(vocab=vocab, hidden=hidden, max_len=64))
    params = init_params_at_scale(model, SeededRng(seed), scale)
    return model, params


def sequence_loss(model, params, seq):
    """Mean next-item loss over one sequence: uniform term weights on the batched path."""
    items, _ = model._padded([seq])
    return model.batch_term_loss(params, items, np.full((1, items.shape[1] - 1), 1.0 / (items.shape[1] - 1)))


def last_step_dist(model, params, prefix):
    """The next-item distribution after `prefix`, as evaluation scores it."""
    states, _, _ = model.batch_states(params, [np.asarray(prefix)])
    return next_step_probs(states[:, -1], params.view("item_embeddings"))[0]


class TestForward:
    def test_zero_params_uniform(self):
        model, _ = tiny_model()
        zero = model.zero_params()
        seq = np.array([0, 1, 2, 3])
        states, _, _ = model.batch_states(zero, [seq])
        np.testing.assert_array_equal(states @ zero.view("item_embeddings").T, 0.0)
        np.testing.assert_allclose(last_step_dist(model, zero, seq), 1.0 / 12, atol=1e-15)
        loss, _ = sequence_loss(model, zero, seq)
        assert loss == pytest.approx(np.log(12), abs=1e-12)

    def test_causality(self):
        model, params = tiny_model()
        a = np.array([1, 2, 3, 4, 5])
        b = a.copy()
        b[3] = 9  # perturb a later input
        states, _, _ = model.batch_states(params, [a, b])
        np.testing.assert_array_equal(states[0, :3], states[1, :3])
        assert not np.allclose(states[0, 3:], states[1, 3:])

    def test_out_of_vocab(self):
        model, params = tiny_model()
        with pytest.raises(InvalidArgument):
            model.batch_states(params, [[0, 99]])

    def test_empty_rejected(self):
        model, params = tiny_model()
        with pytest.raises(InvalidArgument):
            model.batch_states(params, [[]])

    def test_too_long(self):
        model, params = tiny_model()
        with pytest.raises(InvalidArgument):
            model.batch_states(params, [np.zeros(65, dtype=np.int64)])

    @pytest.mark.parametrize("prefix, target", [([1, -1], 2), ([1, 12], 2), ([1, 2], 12), ([1, 2], -1)])
    def test_sample_term_checks_prefix_and_target(self, prefix, target):
        model, params = tiny_model()
        with pytest.raises(InvalidArgument):
            model.sample_term_loss(params, prefix, target)


class TestGradients:
    def test_fd_directional_sweep(self):
        rng = SeededRng(7)
        worst = 0.0
        for trial in range(20):
            r = rng.child(trial)
            vocab = int(r.gen.integers(5, 21))
            t_len = int(r.gen.integers(2, 7))
            model = SeqRecModel(ModelConfig(vocab=vocab, hidden=8, max_len=50))
            params = init_params_at_scale(model, r.child("init"), 0.3)
            seq = r.gen.integers(0, vocab, size=t_len)
            _, grad = sequence_loss(model, params, seq)

            def f(x):
                return sequence_loss(model, ParamVector(model.registry, x), seq)[0]

            worst = max(worst, fd_gradient_check(f, grad.flat, params.flat, 1e-5, directions=24))
        assert worst < 1e-4

    def test_fd_per_coordinate_small(self):
        # absolute agreement on every coordinate of one fixed tiny config
        model, params = tiny_model(vocab=6, hidden=8, seed=11)
        seq = np.array([0, 3, 1, 5, 2])
        _, grad = sequence_loss(model, params, seq)
        eps = 1e-5
        worst_abs = 0.0
        for i in range(params.size):
            xp = params.flat.copy()
            xp[i] += eps
            xm = params.flat.copy()
            xm[i] -= eps
            fp = sequence_loss(model, ParamVector(model.registry, xp), seq)[0]
            fm = sequence_loss(model, ParamVector(model.registry, xm), seq)[0]
            worst_abs = max(worst_abs, abs((fp - fm) / (2 * eps) - grad.flat[i]))
        assert worst_abs < 1e-9

    def test_loss_decomposition(self):
        model, params = tiny_model()
        seq = np.array([1, 4, 2, 7, 3, 0])
        total, _ = sequence_loss(model, params, seq)
        terms = [
            model.sample_term_loss(params, seq[:k], int(seq[k]))[0]
            for k in range(1, len(seq))
        ]
        assert total == pytest.approx(sum(terms) / (len(seq) - 1), abs=1e-12)

    def test_exclusion_zeroes_one_term(self):
        # one sequence in one batch: the epoch loss is the objective at the input
        model, params = tiny_model()
        seq = np.array([1, 4, 2, 7, 3, 0])
        cfg = TrainConfig(epochs=1, early_stop=False)
        full, _ = sequence_loss(model, params, seq)
        _, excl = model.train(params, [seq], cfg, SeededRng(1), exclude={0: {3}})
        term, _ = model.sample_term_loss(params, seq[:3], int(seq[3]))
        assert excl[0] == pytest.approx(full - term / (len(seq) - 1), abs=1e-12)

    def test_mean_invariance_under_duplication(self):
        model, params = tiny_model()
        seq = np.array([1, 2, 3, 4])
        one, _ = model.dataset_loss(params, [seq])
        two, _ = model.dataset_loss(params, [seq, seq.copy()])
        assert one == pytest.approx(two, abs=1e-12)


class TestTraining:
    def test_zero_epochs_no_change(self):
        model, params = tiny_model()
        seqs = [np.array([1, 2, 3, 4])]
        trained, trace = model.train(params, seqs, TrainConfig(epochs=0), SeededRng(1))
        np.testing.assert_array_equal(trained.flat, params.flat)
        assert trace == []

    def test_learns_below_uniform(self, small_synth):
        corpus, _, _ = small_synth
        model = SeqRecModel(ModelConfig(vocab=corpus.n_items, hidden=16))
        params = model.init_params(SeededRng(5))
        prefixes = [corpus.train_prefix(u) for u in range(corpus.n_users)]
        _, trace = model.train(
            params, prefixes, TrainConfig(epochs=2, batch_size=32, early_stop=False), SeededRng(6)
        )
        assert trace[0] < np.log(corpus.n_items)
        assert trace[1] < trace[0]

    def test_deterministic(self, small_synth):
        corpus, _, _ = small_synth
        model = SeqRecModel(ModelConfig(vocab=corpus.n_items, hidden=16))
        params = model.init_params(SeededRng(5))
        prefixes = [corpus.train_prefix(u) for u in range(corpus.n_users)][:40]
        cfg = TrainConfig(epochs=2, batch_size=16, early_stop=False)
        a_params, a_trace = model.train(params, prefixes, cfg, SeededRng(7))
        b_params, b_trace = model.train(params, prefixes, cfg, SeededRng(7))
        assert a_trace == b_trace
        np.testing.assert_array_equal(a_params.flat, b_params.flat)

    def test_learns_deterministic_transition(self):
        # alternating a,b sequences: the model must predict b after a
        model, params = tiny_model(vocab=4, hidden=8, seed=9)
        seqs = [np.array([0, 1] * 5) for _ in range(30)]
        trained, _ = model.train(
            params, seqs, TrainConfig(epochs=150, batch_size=8, early_stop=False), SeededRng(10)
        )
        dist = last_step_dist(model, trained, [0, 1, 0])
        assert dist[1] > 0.9


class TestCheckpoint:
    def test_byte_exact_roundtrip(self, tmp_path):
        model, params = tiny_model()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model.ARCH, {"vocab": 12}, params.flat)
        arch, cfg, flat = load_checkpoint(path)
        assert arch == model.ARCH
        assert cfg == {"vocab": 12}
        assert flat.tobytes() == params.flat.astype("<f8").tobytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(str(p))
