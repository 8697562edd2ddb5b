"""Pad-once training and gradient paths against the per-sequence bookkeeping they replace.

The references below build every batch the earlier way: sequences checked
and padded per batch, a list of per-sequence weight arrays, chunks in
`sorted(key=len)` order, `term_weight_matrix` filled row by row, an Adam
step that allocates its temporaries, and windows re-sorted with `sorted`.
They encode through the model's own `encode` and `encode_backward`, so both
sides take the same input path (over the table's rows or over the cells).
The library must give the same bytes.
"""
import numpy as np
import pytest

from orderlab import detector, encoder, params as params_module, rectifier
from orderlab.dualview import ENCODERS
from orderlab.numkit import SeededRng
from orderlab.params import Adam, ParamVector, TrainConfig, clip_to_norm, run_training
from orderlab.seqrec import ModelConfig, SeqRecModel

from conftest import init_params_at_scale, tiny_dualview, toy_corpus

_BETA1, _BETA2, _ADAM_EPS = params_module._BETA1, params_module._BETA2, params_module._ADAM_EPS


# --- references ------------------------------------------------------------

def loop_term_weight_matrix(lengths, t_len):
    b = lengths.shape[0]
    weights = np.zeros((b, max(t_len - 1, 0)))
    for i, ln in enumerate(lengths):
        n_terms = int(ln) - 1
        if n_terms <= 0:
            continue
        weights[i, :n_terms] = 1.0 / n_terms
    return weights


class AllocatingAdam:
    def __init__(self, size, learning_rate):
        self.learning_rate = learning_rate
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, flat_params, grad):
        self.t += 1
        self.m = _BETA1 * self.m + (1.0 - _BETA1) * grad
        self.v = _BETA2 * self.v + (1.0 - _BETA2) * grad * grad
        mhat = self.m / (1.0 - _BETA1**self.t)
        vhat = self.v / (1.0 - _BETA2**self.t)
        flat_params -= self.learning_rate * mhat / (np.sqrt(vhat) + _ADAM_EPS)


def sorted_window_training(loss_grad_fn, params, n_examples, cfg, rng, example_size_fn):
    """`run_training` with `sorted` windows and the allocating Adam (no early stop)."""
    opt = AllocatingAdam(params.size, cfg.learning_rate)
    trace = []
    window = cfg.batch_size * params_module._SORT_WINDOW
    for _ in range(cfg.epochs):
        order = rng.gen.permutation(n_examples)
        regrouped = []
        for start in range(0, n_examples, window):
            regrouped.extend(sorted(order[start : start + window], key=example_size_fn))
        order = np.asarray(regrouped)
        total = 0.0
        for start in range(0, n_examples, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grad = loss_grad_fn(params, batch)
            total += loss * len(batch)
            opt.step(params.flat, clip_to_norm(grad.flat, cfg.clip_norm))
        trace.append(total / n_examples)
    return trace


def list_batch_term_loss(model, params, seqs, term_weights):
    """Pad the batch, then place each sequence's weight array in its row."""
    items, _ = model._padded(seqs)
    weights = np.zeros((len(seqs), max(items.shape[1] - 1, 0)))
    for i, w in enumerate(term_weights):
        weights[i, : w.size] = w
    table = params.view("item_embeddings")
    # the model's own encoder calls, so that both sides take the same input path
    states, cache = model.encode(params, "enc", table, items)
    loss, d_states, d_table = encoder.tied_next_item_loss(states, table, items, weights)
    grad = model.zero_params()
    grad.view("item_embeddings")[...] = model.encode_backward(params, "enc", cache, items, d_states, d_table, grad)
    return loss, grad


def list_seqrec_train(model, params, sequences, cfg, rng, exclude=None):
    usable = [i for i, s in enumerate(sequences) if len(s) >= 2]
    seqs = [np.asarray(sequences[i], dtype=np.int64) for i in usable]
    remap = {orig: new for new, orig in enumerate(usable)}
    excl = {remap[i]: s for i, s in (exclude or {}).items() if i in remap}

    def loss_grad(p, batch_idx):
        batch = [seqs[i] for i in batch_idx]
        weights = []
        for j, i in enumerate(batch_idx):
            w = np.full(len(batch[j]) - 1, 1.0 / (len(batch[j]) - 1))
            for pos in excl.get(int(i), ()):
                if 1 <= pos < len(batch[j]):
                    w[pos - 1] = 0.0
            weights.append(w / len(batch))
        return list_batch_term_loss(model, p, batch, weights)

    trained = params.copy()
    trace = sorted_window_training(
        loss_grad, trained, len(seqs), cfg, rng, example_size_fn=lambda i: len(seqs[i])
    )
    return trained, trace


def list_dualview_train(model, params, sequences, cfg, rng):
    usable = [np.asarray(s, dtype=np.int64) for s in sequences if len(s) >= 2]

    def loss_grad(p, batch_idx):
        items, lengths = model._padded([usable[i] for i in batch_idx])
        weights = loop_term_weight_matrix(lengths, items.shape[1]) / len(batch_idx)
        loss, grad, _ = model.joint_loss(p, items, weights)
        return loss, grad

    trained = params.copy()
    trace = sorted_window_training(
        loss_grad, trained, len(usable), cfg, rng, example_size_fn=lambda i: len(usable[i])
    )
    return trained, trace


def list_weighted_gradient(model, params, seqs, weights):
    order = sorted(range(len(seqs)), key=lambda i: len(seqs[i]))
    total = 0.0
    grad = model.zero_params()
    for start in range(0, len(order), 64):
        idx = order[start : start + 64]
        loss, g = list_batch_term_loss(model, params, [seqs[i] for i in idx], [weights[i] for i in idx])
        total += loss
        grad.flat += g.flat
    return total, grad


def list_dataset_loss(model, params, sequences):
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences if len(s) >= 2]
    weights = [np.full(len(s) - 1, 1.0 / (len(s) - 1) / len(seqs)) for s in seqs]
    return list_weighted_gradient(model, params, seqs, weights)


def list_validation_gradient(model, params, pairs):
    seqs = [np.append(np.asarray(p, dtype=np.int64), np.int64(t)) for p, t in pairs]
    weights = [np.concatenate([np.zeros(len(s) - 2), [1.0 / len(pairs)]]) for s in seqs]
    return list_weighted_gradient(model, params, seqs, weights)[1].flat


def list_term_sum_gradient(model, params, sequences, samples, weight_each):
    by_user = {}
    for user, pos in samples:
        by_user.setdefault(int(user), []).append(int(pos))
    users = sorted(by_user)
    seqs = [sequences[u] for u in users]
    weights = []
    for u, s in zip(users, seqs):
        w = np.zeros(len(s) - 1)
        for pos in by_user[u]:
            w[pos - 1] += weight_each
        weights.append(w)
    return list_weighted_gradient(model, params, seqs, weights)[1].flat


def two_pad_features(model, params, corpus, batch_users):
    """`detector.features` over every train prefix, each batch padded once per view."""
    prefixes = [corpus.train_prefix(u) for u in range(corpus.n_users)]
    tables = model.item_inputs(params)[:2]
    log_pop = np.log1p(corpus.counts.astype(np.float64))
    feats, users, positions = [], [], []
    for start in range(0, len(prefixes), batch_users):
        batch = prefixes[start : start + batch_users]
        states, probs = [], []
        for prefix, table in zip(ENCODERS.values(), tables):
            items, lengths = model._padded(batch)
            view_states, _ = model.encode(params, prefix, table, items)
            states.append(view_states)
            probs.append(encoder.next_step_probs(view_states[:, :-1], table))
        jsd = np.zeros(items.shape)
        jsd[:, 1:] = detector._jsd_rows(*probs)
        disagreement = (1.0 - detector._cosine_rows(*states)) / 2.0
        valid = np.arange(items.shape[1]) < lengths[:, None]
        x = log_pop[items]
        mu = x.mean(axis=1, where=valid, keepdims=True)
        sigma = x.std(axis=1, where=valid, keepdims=True)
        pop_dev = np.abs(x - mu) / (sigma + 1e-8)
        step = valid[:, 1:]
        terms = np.zeros((len(batch), items.shape[1] + 1))
        terms[:, 1:-1][step] = -corpus.bigram_logprob(items[:, :-1][step], items[:, 1:][step])
        n_terms = np.zeros(terms.shape)
        n_terms[:, 1:-1] = step
        context = (terms[:, :-1] + terms[:, 1:]) / np.maximum(n_terms[:, :-1] + n_terms[:, 1:], 1)
        rows, cols = np.nonzero(valid)
        feats.append(np.stack([jsd, disagreement, pop_dev, context], axis=-1)[valid])
        users.append(start + rows)
        positions.append(cols)
    return np.concatenate(feats), np.concatenate(users), np.concatenate(positions)


# --- a ragged corpus ---------------------------------------------------------

VOCAB = 30


def ragged_sequences(seed=5, n=150):
    """Lengths 2-40 with many ties, one empty and one single-item sequence."""
    gen = SeededRng(seed).gen
    lengths = gen.integers(2, 41, size=n)
    lengths[:12] = 7  # a block of ties
    lengths[12], lengths[13] = 2, 40
    seqs = [gen.integers(0, VOCAB, size=int(ln)) for ln in lengths]
    seqs[20] = np.array([], dtype=np.int64)
    seqs[21] = np.array([4])
    return seqs


def target_model(seed=3):
    model = SeqRecModel(ModelConfig(vocab=VOCAB, hidden=8, max_len=64))
    return model, init_params_at_scale(model, SeededRng(seed), 0.3)


TRAIN = TrainConfig(epochs=3, batch_size=8, learning_rate=3e-3, early_stop=False)


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# --- byte equality -------------------------------------------------------------

@pytest.mark.parametrize("exclude", [None, {0: {1, 3}, 5: {2, 99}, 13: {39}, 21: {1}, 500: {1}}])
def test_seqrec_training_matches_the_per_sequence_path(exclude):
    model, params = target_model()
    seqs = ragged_sequences()
    trained, trace = model.train(params, seqs, TRAIN, SeededRng(9), exclude=exclude)
    ref, ref_trace = list_seqrec_train(model, params, seqs, TRAIN, SeededRng(9), exclude=exclude)
    assert trace == ref_trace
    assert_same_bytes(trained.flat, ref.flat)


def test_dualview_training_matches_the_per_sequence_path():
    model, params = tiny_dualview(vocab=VOCAB)
    seqs = ragged_sequences(seed=6, n=90)
    trained, trace = model.train(params, seqs, TRAIN, SeededRng(4))
    ref, ref_trace = list_dualview_train(model, params, seqs, TRAIN, SeededRng(4))
    assert trace == ref_trace
    assert_same_bytes(trained.flat, ref.flat)


def test_dataset_loss_matches_the_per_sequence_path():
    model, params = target_model()
    seqs = ragged_sequences()
    loss, grad = model.dataset_loss(params, seqs)
    ref_loss, ref_grad = list_dataset_loss(model, params, seqs)
    assert loss == ref_loss
    assert_same_bytes(grad.flat, ref_grad.flat)


def test_validation_gradient_matches_the_per_sequence_path():
    model, params = target_model()
    seqs = [s for s in ragged_sequences() if len(s) >= 2]
    pairs = [(s[:-1], int(s[-1])) for s in seqs[:70]]
    pairs += pairs[3:9]  # duplicate pairs
    got = rectifier.validation_gradient(model, params, pairs)
    assert_same_bytes(got, list_validation_gradient(model, params, pairs))


@pytest.mark.parametrize("weight_each", [1.0, 1.0 / 7])
def test_term_sum_gradient_matches_the_per_sequence_path(weight_each):
    model, params = target_model()
    seqs = ragged_sequences()
    gen = SeededRng(8).gen
    samples = []
    for _ in range(90):
        user = int(gen.integers(0, len(seqs)))
        if len(seqs[user]) >= 2:
            samples.append((user, int(gen.integers(1, len(seqs[user])))))
    samples += samples[:10] + samples[4:6]  # duplicates, one of them three times
    got = rectifier.term_sum_gradient(model, params, seqs, samples, weight_each)
    assert_same_bytes(got, list_term_sum_gradient(model, params, seqs, samples, weight_each))


def test_detector_features_match_the_two_pad_path():
    model, params = tiny_dualview(vocab=VOCAB)
    corpus = toy_corpus([s for s in ragged_sequences() if len(s) >= 3], VOCAB)
    got = detector.features(model, params, corpus, batch_users=16)
    for a, b in zip(got, two_pad_features(model, params, corpus, 16)):
        assert_same_bytes(a, b)


def test_adam_matches_the_allocating_step():
    gen = SeededRng(2).gen
    flat = gen.normal(size=257)
    ref_flat = flat.copy()
    opt, ref = Adam(flat.size, 3e-3), AllocatingAdam(flat.size, 3e-3)
    for _ in range(50):
        grad = gen.normal(scale=gen.uniform(1e-6, 10.0), size=flat.size)
        opt.step(flat, grad)
        ref.step(ref_flat, grad)
    assert_same_bytes(flat, ref_flat)
    assert_same_bytes(opt.m, ref.m)
    assert_same_bytes(opt.v, ref.v)


def test_term_weight_matrix_matches_the_row_loop():
    lengths = np.array([0, 1, 2, 3, 5, 7, 7, 12])
    for t_len in (1, 5, 12):
        assert_same_bytes(encoder.term_weight_matrix(lengths, t_len), loop_term_weight_matrix(lengths, t_len))


# --- guards ----------------------------------------------------------------------

@pytest.fixture
def pad_calls(monkeypatch):
    calls = []
    original = encoder.pad_sequences

    def counted(seqs):
        calls.append(len(seqs))
        return original(seqs)

    monkeypatch.setattr(encoder, "pad_sequences", counted)
    return calls


@pytest.mark.parametrize("epochs", [1, 4])
def test_seqrec_training_pads_once(pad_calls, epochs):
    model, params = target_model()
    seqs = ragged_sequences(n=40)
    model.train(params, seqs, TrainConfig(epochs=epochs, batch_size=8, early_stop=False), SeededRng(1))
    assert pad_calls == [38]


@pytest.mark.parametrize("epochs", [1, 4])
def test_dualview_training_pads_once(pad_calls, epochs):
    model, params = tiny_dualview(vocab=VOCAB)
    seqs = ragged_sequences(n=40)
    model.train(params, seqs, TrainConfig(epochs=epochs, batch_size=8, early_stop=False), SeededRng(1))
    assert pad_calls == [38]


def test_detector_features_pad_each_batch_once(pad_calls):
    model, params = tiny_dualview(vocab=VOCAB)
    corpus = toy_corpus([s for s in ragged_sequences(n=40) if len(s) >= 3], VOCAB)
    detector.features(model, params, corpus, batch_users=16)
    assert pad_calls == [16, 16, corpus.n_users - 32]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_term_weight_matrix_gives_short_sequences_zero_rows():
    weights = encoder.term_weight_matrix(np.array([0, 1, 2, 5]), 5)
    np.testing.assert_array_equal(weights[:2], 0.0)
    np.testing.assert_array_equal(weights[2], [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(weights[3], 0.25)


def test_layouts_differ_by_shape_under_the_same_block_names():
    a = ParamVector({"w": (2, 3), "b": (3,)})
    b = ParamVector({"w": (3, 3), "b": (3,)})
    assert (a.size, b.size) == (9, 12)
    assert a.view("w").shape == (2, 3) and b.view("w").shape == (3, 3)
    assert np.shares_memory(b.view("b"), b.flat[9:])
    assert a.copy().view("w").shape == (2, 3)


def test_windows_regroup_as_a_stable_sort_by_size():
    n, cfg = 40, TrainConfig(epochs=1, batch_size=4, early_stop=False)
    sizes = SeededRng(3).gen.integers(1, 4, size=n)  # three sizes: many ties
    seen = []
    run_training(lambda p, batch: (seen.extend(batch) or 0.0, ParamVector({"w": (1,)})),
                 ParamVector({"w": (1,)}), sizes, cfg, SeededRng(6))
    order = SeededRng(6).gen.permutation(n)
    window = cfg.batch_size * params_module._SORT_WINDOW
    want = []
    for start in range(0, n, window):
        want.extend(sorted(order[start : start + window], key=lambda i: sizes[i]))
    assert seen == want
