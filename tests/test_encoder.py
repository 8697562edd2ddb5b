"""The fused recurrent cell, the embedding scatter and the tied loss against plain references,
the sigmoid, and the cell's table path against its cell path."""
import warnings

import numpy as np
import pytest

from orderlab import encoder
from orderlab.numkit import SeededRng
from orderlab.params import ParamVector
from orderlab.seqrec import ModelConfig, SeqRecModel

from conftest import fd_gradient_check, init_params_at_scale, tiny_dualview


def reference_sigmoid(x):
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def reference_forward(w, x):
    """One product per gate and step, batch-major buffers."""
    b, t_len, _ = x.shape
    d_h = w["update_bias"].shape[0]
    flat = x.reshape(b * t_len, -1)
    pre_z = (flat @ w["update_in"].T).reshape(b, t_len, d_h) + w["update_bias"]
    pre_r = (flat @ w["reset_in"].T).reshape(b, t_len, d_h) + w["reset_bias"]
    pre_c = (flat @ w["cand_in"].T).reshape(b, t_len, d_h) + w["cand_bias"]

    states = np.empty((b, t_len, d_h))
    zs = np.empty_like(states)
    rs = np.empty_like(states)
    cs = np.empty_like(states)
    h = np.zeros((b, d_h))
    for t in range(t_len):
        z = reference_sigmoid(pre_z[:, t] + h @ w["update_rec"].T)
        r = reference_sigmoid(pre_r[:, t] + h @ w["reset_rec"].T)
        c = np.tanh(pre_c[:, t] + (r * h) @ w["cand_rec"].T)
        h = (1.0 - z) * h + z * c
        zs[:, t], rs[:, t], cs[:, t], states[:, t] = z, r, c, h
    return states, {"x": x, "states": states, "z": zs, "r": rs, "c": cs}


def reference_backward(w, cache, d_states):
    """Per-step backprop with the recurrent weight gradients summed in the loop."""
    x, states = cache["x"], cache["states"]
    zs, rs, cs = cache["z"], cache["r"], cache["c"]
    b, t_len, d_h = states.shape

    d_pz = np.empty_like(states)
    d_pr = np.empty_like(states)
    d_pc = np.empty_like(states)
    d_urec = np.zeros_like(w["update_rec"])
    d_rrec = np.zeros_like(w["reset_rec"])
    d_crec = np.zeros_like(w["cand_rec"])
    carry = np.zeros((b, d_h))
    for t in range(t_len - 1, -1, -1):
        h_prev = states[:, t - 1] if t > 0 else np.zeros((b, d_h))
        dh = d_states[:, t] + carry
        z, r, c = zs[:, t], rs[:, t], cs[:, t]

        dz = dh * (c - h_prev)
        dc = dh * z
        d_hprev = dh * (1.0 - z)

        dpc = dc * (1.0 - c * c)
        d_crec += dpc.T @ (r * h_prev)
        drh = dpc @ w["cand_rec"]
        dr = drh * h_prev
        d_hprev += drh * r

        dpr = dr * r * (1.0 - r)
        d_rrec += dpr.T @ h_prev
        d_hprev += dpr @ w["reset_rec"]

        dpz = dz * z * (1.0 - z)
        d_urec += dpz.T @ h_prev
        d_hprev += dpz @ w["update_rec"]

        d_pz[:, t], d_pr[:, t], d_pc[:, t] = dpz, dpr, dpc
        carry = d_hprev

    flat_x = x.reshape(b * t_len, -1)
    fz = d_pz.reshape(b * t_len, d_h)
    fr = d_pr.reshape(b * t_len, d_h)
    fc = d_pc.reshape(b * t_len, d_h)
    d_weights = {
        "update_in": fz.T @ flat_x,
        "update_rec": d_urec,
        "update_bias": fz.sum(axis=0),
        "reset_in": fr.T @ flat_x,
        "reset_rec": d_rrec,
        "reset_bias": fr.sum(axis=0),
        "cand_in": fc.T @ flat_x,
        "cand_rec": d_crec,
        "cand_bias": fc.sum(axis=0),
    }
    d_x = (fz @ w["update_in"] + fr @ w["reset_in"] + fc @ w["cand_in"]).reshape(x.shape)
    return d_weights, d_x


def random_cell(b, t_len, d_in, d_h, seed=0):
    gen = np.random.default_rng(seed)
    w = {name: gen.normal(0.0, 0.3, size=shape) for name, shape in encoder.encoder_shapes(d_in, d_h).items()}
    return gen, w, gen.normal(size=(b, t_len, d_in))


def assert_matches_reference(w, x, d_states):
    states, cache = encoder.gru_forward(w, x)
    ref_states, ref_cache = reference_forward(w, x)
    np.testing.assert_allclose(states, ref_states, rtol=0, atol=1e-12)

    d_weights, d_x = encoder.gru_backward(w, cache, d_states)
    ref_weights, ref_d_x = reference_backward(w, ref_cache, d_states)
    assert d_x.shape == x.shape
    np.testing.assert_allclose(d_x, ref_d_x, rtol=0, atol=1e-12)
    assert d_weights.keys() == ref_weights.keys() == w.keys()
    for name, grad in d_weights.items():
        assert grad.shape == w[name].shape
        np.testing.assert_allclose(grad, ref_weights[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("shape", [(1, 1, 4, 8), (1, 20, 48, 48), (5, 7, 3, 8), (64, 29, 48, 48)])
def test_cell_matches_the_per_gate_reference(shape):
    gen, w, x = random_cell(*shape)
    assert_matches_reference(w, x, gen.normal(size=shape[:2] + (shape[3],)))


@pytest.mark.parametrize("layout", ["time_major", "strided"])
def test_backward_takes_a_non_contiguous_upstream_gradient(layout):
    b, t_len, d_in, d_h = 6, 9, 5, 8
    gen, w, x = random_cell(b, t_len, d_in, d_h, seed=1)
    if layout == "time_major":
        d_states = gen.normal(size=(t_len, b, d_h)).transpose(1, 0, 2)
    else:
        d_states = gen.normal(size=(b, t_len, 2 * d_h))[..., ::2]
    assert not d_states.flags.c_contiguous
    assert_matches_reference(w, x, d_states)


def single_buffer_forward(w, x):
    """The fused cell on one (T, B, 3 d_h) gate buffer, sliced per gate at every step."""
    b, t_len, _ = x.shape
    d_h = w["update_bias"].shape[0]
    stacked = lambda kind: np.concatenate([w[f"{g}_{kind}"] for g in encoder.GATE_NAMES])
    gates = np.matmul(x.transpose(1, 0, 2), stacked("in").T)
    gates += stacked("bias")
    rec_zr = np.ascontiguousarray(np.concatenate([w["update_rec"], w["reset_rec"]]).T)
    rec_c = np.ascontiguousarray(w["cand_rec"].T)
    hs = np.zeros((t_len + 1, b, d_h))
    for t in range(t_len):
        h = hs[t]
        zr, c = gates[t, :, : 2 * d_h], gates[t, :, 2 * d_h :]
        zr += h @ rec_zr
        encoder.sigmoid(zr, out=zr)
        c += (zr[:, d_h:] * h) @ rec_c
        np.tanh(c, out=c)
        hs[t + 1] = (c - h) * zr[:, :d_h] + h
    return hs[1:].transpose(1, 0, 2), {"x": x, "hs": hs, "gates": gates}


def single_buffer_backward(w, cache, d_states):
    """Backprop into one (T, B, 3 d_h) pre-activation gradient buffer, products after the loop."""
    x, hs, gates = cache["x"], cache["hs"], cache["gates"]
    t_len, b, three_d = gates.shape
    d_h = three_d // 3
    h_prev, z, r, cs = hs[:-1], gates[..., :d_h], gates[..., d_h : 2 * d_h], gates[..., 2 * d_h :]
    rec_zr = np.concatenate([w["update_rec"], w["reset_rec"]])
    d_pre = np.empty((t_len, b, 3 * d_h))
    d_pre[..., :d_h] = hs[1:] - h_prev
    d_pre[..., d_h : 2 * d_h] = (1.0 - r) * h_prev
    d_pre[..., 2 * d_h :] = z * (1.0 - cs * cs)
    carry = np.zeros((b, d_h))
    for t in range(t_len - 1, -1, -1):
        g = d_pre[t]
        dh = d_states[:, t] + carry
        dz_h = (1.0 - z[t]) * dh
        g[:, :d_h] *= dz_h
        g[:, 2 * d_h :] *= dh
        dr_h = (g[:, 2 * d_h :] @ w["cand_rec"]) * r[t]
        g[:, d_h : 2 * d_h] *= dr_h
        carry = g[:, : 2 * d_h] @ rec_zr + dz_h + dr_h
    flat = d_pre.reshape(t_len * b, 3 * d_h)
    d_rec_zr = flat[:, : 2 * d_h].T @ h_prev.reshape(t_len * b, d_h)
    d_in = flat.T @ x.transpose(1, 0, 2).reshape(t_len * b, -1)
    d_bias = flat.sum(axis=0)
    d_weights = {"cand_rec": flat[:, 2 * d_h :].T @ (r * h_prev).reshape(t_len * b, d_h)}
    for k, gate in enumerate(encoder.GATE_NAMES):
        rows = slice(k * d_h, (k + 1) * d_h)
        d_weights[f"{gate}_in"] = d_in[rows]
        d_weights[f"{gate}_bias"] = d_bias[rows]
        if k < 2:
            d_weights[f"{gate}_rec"] = d_rec_zr[rows]
    stacked_in = np.concatenate([w[f"{g}_in"] for g in encoder.GATE_NAMES])
    return d_weights, np.matmul(d_pre.transpose(1, 0, 2), stacked_in)


def ragged_cell_inputs(b, t_len, d_h, v, seed):
    """x gathered from an embedding table over right-padded items, d_states 0 past each length."""
    gen = np.random.default_rng(seed)
    w = {name: gen.normal(0.0, 0.3, size=shape) for name, shape in encoder.encoder_shapes(d_h, d_h).items()}
    lengths = gen.integers(1, t_len + 1, size=b)
    lengths[0], lengths[-1] = 1, t_len
    items = np.where(np.arange(t_len) < lengths[:, None], gen.integers(0, v, size=(b, t_len)), 0)
    x = gen.normal(size=(v, d_h))[items]
    d_states = gen.normal(size=(b, t_len, d_h)) * (np.arange(t_len) < lengths[:, None])[..., None]
    return w, x, d_states


@pytest.mark.parametrize(
    "case, shape",
    [
        ("dense", (1, 29, 48, 48)),  # one sequence, as per-sample influence runs it
        ("dense", (17, 9, 16, 16)),  # a batch size that is not a multiple of any block
        ("dense", (64, 28, 48, 48)),  # more rows than one block of _GATE_ROWS, both ways
        ("dense", (6, 1, 5, 8)),  # T = 1
        ("ragged", (17, 12, 8, 8)),
        ("ragged", (40, 30, 16, 16)),
    ],
)
def test_cell_matches_the_single_buffer_kernel(case, shape):
    b, t_len, d_in, d_h = shape
    if case == "ragged":
        w, x, d_states = ragged_cell_inputs(b, t_len, d_h, 20, seed=4)
    else:
        gen, w, x = random_cell(*shape, seed=5)
        d_states = gen.normal(size=(b, t_len, d_h))
    states, cache = encoder.gru_forward(w, x)
    ref_states, ref_cache = single_buffer_forward(w, x)
    np.testing.assert_allclose(states, ref_states, rtol=0, atol=1e-12)
    d_weights, d_x = encoder.gru_backward(w, cache, d_states)
    ref_weights, ref_d_x = single_buffer_backward(w, ref_cache, d_states)
    np.testing.assert_allclose(d_x, ref_d_x, rtol=0, atol=1e-12)
    assert d_weights.keys() == ref_weights.keys()
    for name, grad in d_weights.items():
        np.testing.assert_allclose(grad, ref_weights[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("rows", [1, 7, 10**6])
def test_block_size_changes_no_bit(monkeypatch, rows):
    gen, w, x = random_cell(40, 30, 16, 16, seed=7)
    d_states = gen.normal(size=(40, 30, 16))
    states, cache = encoder.gru_forward(w, x)
    d_weights, d_x = encoder.gru_backward(w, cache, d_states)
    monkeypatch.setattr(encoder, "_GATE_ROWS", rows)
    blocked_states, blocked_cache = encoder.gru_forward(w, x)
    blocked_weights, blocked_d_x = encoder.gru_backward(w, blocked_cache, d_states)
    np.testing.assert_array_equal(blocked_states, states)
    np.testing.assert_array_equal(blocked_d_x, d_x)
    for name, grad in d_weights.items():
        np.testing.assert_array_equal(blocked_weights[name], grad, err_msg=name)


def test_backward_leaves_the_cache_reusable():
    gen, w, x = random_cell(9, 6, 5, 8, seed=6)
    d_states = gen.normal(size=(9, 6, 8))
    _, cache = encoder.gru_forward(w, x)
    kept = {name: np.array(value, copy=True) for name, value in cache.items()}
    first = encoder.gru_backward(w, cache, d_states)
    second = encoder.gru_backward(w, cache, d_states)
    for name, value in cache.items():
        np.testing.assert_array_equal(value, kept[name], err_msg=name)
    np.testing.assert_array_equal(first[1], second[1])
    for name in first[0]:
        np.testing.assert_array_equal(first[0][name], second[0][name], err_msg=name)


def add_at_reference(d_table, items, d_x):
    out = np.zeros_like(d_table)
    out += d_table
    np.add.at(out, items.ravel(), d_x.reshape(-1, d_table.shape[1]))
    return out


@pytest.mark.parametrize(
    "case, b, t_len, v, d",
    [
        ("random", 32, 28, 150, 48),  # many repeated items
        ("random", 5, 7, 400, 8),  # mostly distinct items
        ("one_item", 6, 9, 30, 4),  # every row the same item
        ("random", 1, 12, 30, 4),  # B = 1
        ("random", 11, 1, 30, 4),  # T = 1
        ("random", 9, 8, 2, 16),  # V = 2
    ],
)
def test_scatter_rows_equals_add_at_bit_for_bit(case, b, t_len, v, d):
    gen = np.random.default_rng(b * 1000 + t_len)
    items = gen.integers(0, v, size=(b, t_len)) if case == "random" else np.full((b, t_len), v - 1)
    # magnitudes over many decades, so that any other summation order shows in the bits
    d_x = gen.normal(size=(b, t_len, d)) * 10.0 ** gen.integers(-8, 8, size=(b, t_len, d))
    d_table = gen.normal(size=(v, d))
    d_table[0, 0] = -0.0
    out = encoder.scatter_rows(d_table, items, d_x)
    expected = add_at_reference(d_table, items, d_x)
    assert out.shape == d_table.shape
    assert np.array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))


def test_scatter_rows_sums_repeated_items_in_row_major_order():
    # 1e16 + 1 - 1e16 is 0 in this order, 1 in others
    items = np.array([[1, 1], [0, 1]])
    d_x = np.array([[[1e16], [1.0]], [[5.0], [-1e16]]])
    out = encoder.scatter_rows(np.zeros((2, 1)), items, d_x)
    assert out[1, 0] == 0.0 and out[0, 0] == 5.0


def test_states_are_causal():
    b, t_len = 4, 12
    gen, w, x = random_cell(b, t_len, 6, 8, seed=2)
    states, _ = encoder.gru_forward(w, x)
    for t in range(t_len - 1):
        changed = x.copy()
        changed[:, t + 1 :] = gen.normal(size=changed[:, t + 1 :].shape)
        moved, _ = encoder.gru_forward(w, changed)
        np.testing.assert_array_equal(moved[:, : t + 1], states[:, : t + 1])
        assert not np.allclose(moved[:, t + 1 :], states[:, t + 1 :])


def test_sigmoid_is_finite_bounded_and_symmetric():
    x = np.linspace(-800.0, 800.0, 4001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, s_neg = encoder.sigmoid(x), encoder.sigmoid(-x)
    assert np.isfinite(s).all()
    assert s.min() >= 0.0 and s.max() <= 1.0
    np.testing.assert_allclose(s_neg, 1.0 - s, rtol=0, atol=1e-15)
    np.testing.assert_allclose(s, reference_sigmoid(x), rtol=0, atol=1e-15)


def test_sigmoid_in_place_matches_the_returned_copy():
    x = np.linspace(-30.0, 30.0, 61)
    expected = encoder.sigmoid(x)
    buf = x.copy()
    assert encoder.sigmoid(buf, out=buf) is buf
    np.testing.assert_array_equal(buf, expected)


def reference_tied_loss(states, table, items, term_weights, time_chunk=64):
    """Every (sequence, step) scored against the full table, in time chunks of 3-D products."""
    b, t_len, d_h = states.shape
    v = table.shape[0]
    d_states = np.zeros_like(states)
    d_table = np.zeros_like(table)
    loss = 0.0
    for start in range(0, t_len - 1, time_chunk):
        stop = min(start + time_chunk, t_len - 1)
        h_chunk = states[:, start:stop]
        w_chunk = term_weights[:, start:stop]
        targets = items[:, start + 1 : stop + 1]
        work = h_chunk @ table.T
        target_logit = np.take_along_axis(work, targets[..., None], axis=-1)[..., 0]
        m = work.max(axis=-1)
        work = np.exp(work - m[..., None])
        denom = work.sum(axis=-1)
        loss += float((w_chunk * -(target_logit - m - np.log(denom))).sum())
        work *= (w_chunk / denom)[..., None]
        flat = work.reshape(-1, v)
        flat[np.arange(flat.shape[0]), targets.ravel()] -= w_chunk.ravel()
        d_states[:, start:stop] = work @ table
        d_table += flat.T @ h_chunk.reshape(-1, d_h)
    return loss, d_states, d_table


def tied_loss_inputs(b, t_len, d_h, v, seed=0):
    gen = np.random.default_rng(seed)
    states = gen.normal(size=(b, t_len, d_h))
    table = gen.normal(0.0, 0.5, size=(v, d_h))
    items = gen.integers(0, v, size=(b, t_len))
    return gen, states, table, items


def tied_loss_weights(case, gen, b, t_len):
    if case == "all_weighted":
        return gen.normal(size=(b, t_len - 1))  # signed, as in gradient ascent
    if case == "last_term_only":
        w = np.zeros((b, t_len - 1))
        w[:, -1] = 1.0
        return w
    if case == "zero_row":
        w = gen.uniform(0.1, 1.0, size=(b, t_len - 1))
        w[1] = 0.0
        return w
    lengths = gen.integers(1, t_len + 1, size=b)  # "ragged": padded right
    lengths[0], lengths[-1] = 1, t_len
    return encoder.term_weight_matrix(lengths, t_len) / b


@pytest.mark.parametrize(
    "case, shape",
    [
        ("all_weighted", (5, 7, 8, 30)),
        ("last_term_only", (5, 7, 8, 30)),
        ("zero_row", (4, 9, 8, 30)),
        ("ragged", (6, 12, 8, 40)),
        ("ragged", (3, 70, 8, 20)),  # T > 64: the reference takes two time chunks
        ("all_weighted", (2, 70, 8, 20)),
    ],
)
def test_tied_loss_matches_the_dense_reference(case, shape):
    b, t_len, d_h, v = shape
    gen, states, table, items = tied_loss_inputs(*shape)
    weights = tied_loss_weights(case, gen, b, t_len)
    loss, d_states, d_table = encoder.tied_next_item_loss(states, table, items, weights)
    ref_loss, ref_d_states, ref_d_table = reference_tied_loss(states, table, items, weights)
    assert loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
    np.testing.assert_allclose(d_states, ref_d_states, rtol=0, atol=1e-12)
    np.testing.assert_allclose(d_table, ref_d_table, rtol=0, atol=1e-12)
    # a step without a weighted term gets no gradient at all, the last step included
    unweighted = np.ones((b, t_len), dtype=bool)
    unweighted[:, :-1] = weights == 0.0
    assert (d_states[unweighted] == 0.0).all()


def test_tied_loss_splits_weighted_terms_into_row_blocks(monkeypatch):
    b, t_len, d_h, v = 4, 9, 8, 30
    gen, states, table, items = tied_loss_inputs(b, t_len, d_h, v, seed=3)
    weights = tied_loss_weights("zero_row", gen, b, t_len)
    monkeypatch.setattr(encoder, "_LOSS_ROWS", 5)  # 24 weighted terms: five blocks, the last partial
    loss, d_states, d_table = encoder.tied_next_item_loss(states, table, items, weights)
    ref_loss, ref_d_states, ref_d_table = reference_tied_loss(states, table, items, weights)
    assert loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
    np.testing.assert_allclose(d_states, ref_d_states, rtol=0, atol=1e-12)
    np.testing.assert_allclose(d_table, ref_d_table, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t_len", [1, 4])
def test_tied_loss_without_weighted_terms_is_zero(t_len):
    _, states, table, items = tied_loss_inputs(3, t_len, 8, 10)
    loss, d_states, d_table = encoder.tied_next_item_loss(states, table, items, np.zeros((3, t_len - 1)))
    assert loss == 0.0
    assert not d_states.any() and not d_table.any()
    assert d_states.shape == states.shape and d_table.shape == table.shape


def bounded_and_unbounded_rows(n=6, d_h=8, v=30, seed=5):
    """(h, table): rows of h alternate between a logit bound of half `_EXP_BOUND`
    (exponentiated unshifted) and four times it (shifted by the row max)."""
    gen = np.random.default_rng(seed)
    table = gen.normal(0.0, 0.5, size=(v, d_h))
    h = gen.uniform(-1.0, 1.0, size=(n, d_h))
    h /= np.abs(h).max(axis=1, keepdims=True)  # max_k |h_k| = 1 in every row
    ratio = np.where(np.arange(n) % 2 == 0, 0.5, 4.0)
    return h * (ratio * encoder._EXP_BOUND / np.abs(table).sum(axis=1).max())[:, None], table


def one_term_per_row(h, table, targets, w=0.5):
    """tied_next_item_loss with row i of h scoring targets[i] as the only term of
    sequence i; returns the loss and the state gradient of each term's row."""
    n, d_h = h.shape
    states = np.stack([h, np.zeros((n, d_h))], axis=1)
    items = np.stack([np.zeros(n, dtype=np.int64), targets], axis=1)
    loss, d_states, _ = encoder.tied_next_item_loss(states, table, items, np.full((n, 1), w))
    return loss, d_states[:, 0]


def test_tied_loss_chooses_the_shift_row_by_row():
    """Each row's state gradient equals, bit for bit, the same row computed in a
    batch of copies of itself, whether its neighbours take the other path or not."""
    h, table = bounded_and_unbounded_rows()
    n = h.shape[0]
    targets = np.arange(n) * 7 % table.shape[0]
    _, mixed = one_term_per_row(h, table, targets)
    for i in range(n):
        _, alone = one_term_per_row(np.repeat(h[i : i + 1], n, axis=0), table, np.full(n, targets[i]))
        np.testing.assert_array_equal(mixed[i], alone[i])


def test_tied_loss_shifts_rows_whose_logits_would_overflow():
    """A shared table column of 100 adds +-1000 to every logit of a row (the softmax
    is unchanged): exp would overflow or underflow to a zero sum without the shift.
    Tier-1 turns any RuntimeWarning into an error."""
    b, t_len, d_h, v = 4, 6, 8, 30
    gen, states, table, items = tied_loss_inputs(b, t_len, d_h, v, seed=11)
    table[:, 0] = 100.0
    states[..., 0] = np.where(np.arange(b) % 2 == 0, 10.0, -10.0)[:, None]
    weights = tied_loss_weights("ragged", gen, b, t_len)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        loss, d_states, d_table = encoder.tied_next_item_loss(states, table, items, weights)
    assert np.isfinite(loss) and np.isfinite(d_states).all() and np.isfinite(d_table).all()
    ref_loss, ref_d_states, ref_d_table = reference_tied_loss(states, table, items, weights)
    assert loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
    np.testing.assert_allclose(d_states, ref_d_states, rtol=0, atol=1e-12)
    np.testing.assert_allclose(d_table, ref_d_table, rtol=0, atol=1e-12)


def test_tied_loss_gradient_matches_central_differences_unshifted():
    b, t_len, d_h, v = 3, 5, 6, 12
    gen, _, table, items = tied_loss_inputs(b, t_len, d_h, v, seed=13)
    states = np.tanh(gen.normal(size=(b, t_len, d_h)))  # GRU states lie in (-1, 1)
    assert np.abs(states).max() * np.abs(table).sum(axis=1).max() <= encoder._EXP_BOUND
    weights = tied_loss_weights("all_weighted", gen, b, t_len)
    _, d_states, d_table = encoder.tied_next_item_loss(states, table, items, weights)
    n = states.size

    def loss_at(x):
        return encoder.tied_next_item_loss(x[:n].reshape(states.shape), x[n:].reshape(table.shape), items, weights)[0]

    point = np.concatenate([states.ravel(), table.ravel()])
    assert fd_gradient_check(loss_at, np.concatenate([d_states.ravel(), d_table.ravel()]), point, 1e-5) < 1e-5


# --- the table path: each table row projected once, each item's gradient summed once ---


def table_path_inputs(case, b, t_len, v, d_h, seed=0):
    """(w, table, items, d_states): items repeat, or are one item in every cell, or are
    right-padded with item 0 at ragged lengths, and d_states is 0 past each length."""
    gen = np.random.default_rng(seed)
    w = {name: gen.normal(0.0, 0.3, size=shape) for name, shape in encoder.encoder_shapes(d_h, d_h).items()}
    table = gen.normal(size=(v, d_h))
    lengths = np.full(b, t_len)
    if case == "one_item":
        items = np.full((b, t_len), v - 1)
    else:
        items = gen.integers(0, v, size=(b, t_len))
    if case == "ragged":
        lengths = gen.integers(1, t_len + 1, size=b)
        lengths[0], lengths[-1] = 1, t_len
        items = np.where(np.arange(t_len) < lengths[:, None], items, 0)
    d_states = gen.normal(size=(b, t_len, d_h)) * (np.arange(t_len) < lengths[:, None])[..., None]
    return w, table, items, d_states


TABLE_CASES = [
    ("random", 32, 28, 150, 48),  # the seq-long batch shapes
    ("random", 64, 29, 150, 48),
    ("one_item", 6, 9, 30, 8),
    ("ragged", 17, 12, 20, 8),
    ("ragged", 40, 30, 150, 16),
    ("random", 3, 40, 7, 8),  # V far below B * T
]


def assert_close_to_scale(actual, expected, tol, err_msg=""):
    """Every entry within `tol` of the largest |expected|."""
    assert actual.shape == expected.shape, err_msg
    assert np.abs(actual - expected).max() <= tol * np.abs(expected).max(), err_msg


@pytest.mark.parametrize("case, b, t_len, v, d_h", TABLE_CASES)
def test_table_path_states_equal_the_dense_path_bit_for_bit(case, b, t_len, v, d_h):
    w, table, items, _ = table_path_inputs(case, b, t_len, v, d_h, seed=b + t_len)
    assert v < items.size
    states, _ = encoder.gru_forward(w, table[items])
    table_states, _ = encoder.gru_forward(w, items, table=table)
    assert table_states.shape == states.shape
    assert np.array_equal(table_states, states)


@pytest.mark.parametrize("case, b, t_len, v, d_h", TABLE_CASES)
def test_table_path_gradients_equal_the_dense_path_and_scatter(case, b, t_len, v, d_h):
    w, table, items, d_states = table_path_inputs(case, b, t_len, v, d_h, seed=b * t_len)
    _, cache = encoder.gru_forward(w, table[items])
    d_weights, d_x = encoder.gru_backward(w, cache, d_states)
    expected_table = encoder.scatter_rows(np.zeros(table.shape), items, d_x)
    _, table_cache = encoder.gru_forward(w, items, table=table)
    table_weights, d_table = encoder.gru_backward(w, table_cache, d_states)
    assert_close_to_scale(d_table, expected_table, 1e-12)
    assert table_weights.keys() == d_weights.keys()
    for name, grad in d_weights.items():
        assert_close_to_scale(table_weights[name], grad, 1e-12, err_msg=name)


@pytest.mark.parametrize("rows", [1, 7, 10**6])
def test_table_path_block_size_changes_no_bit(monkeypatch, rows):
    w, table, items, d_states = table_path_inputs("ragged", 40, 30, 150, 16, seed=9)
    states, cache = encoder.gru_forward(w, items, table=table)
    d_weights, d_table = encoder.gru_backward(w, cache, d_states)
    monkeypatch.setattr(encoder, "_GATE_ROWS", rows)
    blocked_states, blocked_cache = encoder.gru_forward(w, items, table=table)
    blocked_weights, blocked_d_table = encoder.gru_backward(w, blocked_cache, d_states)
    np.testing.assert_array_equal(blocked_states, states)
    np.testing.assert_array_equal(blocked_d_table, d_table)
    for name, grad in d_weights.items():
        np.testing.assert_array_equal(blocked_weights[name], grad, err_msg=name)


@pytest.fixture
def input_paths(monkeypatch):
    """Records, for each `gru_forward` call, whether it took the table path."""
    taken = []
    forward = encoder.gru_forward

    def recorded(w, x, table=None):
        taken.append(table is not None)
        return forward(w, x, table=table)

    monkeypatch.setattr(encoder, "gru_forward", recorded)
    return taken


@pytest.mark.parametrize("extra_rows", [-1, 0, 1])
def test_encode_projects_the_table_exactly_when_it_has_fewer_rows_than_cells(input_paths, extra_rows):
    items = np.array([[1, 2, 3, 4], [2, 2, 0, 0], [4, 1, 3, 0]])  # 12 cells
    model = SeqRecModel(ModelConfig(vocab=items.size + extra_rows, hidden=8))
    params = init_params_at_scale(model, SeededRng(5), 0.3)
    table = params.view("item_embeddings")
    states, cache = model.encode(params, "enc", table, items)
    assert input_paths == [extra_rows < 0]
    d_states = np.random.default_rng(5).normal(size=states.shape)
    d_table = np.random.default_rng(6).normal(size=table.shape)
    grad = model.zero_params()
    d_inputs = model.encode_backward(params, "enc", cache, items, d_states, d_table, grad)
    # the cell path by hand: each cell's row of the table, each cell's gradient added at its item
    enc = model._enc_weights(params, "enc")
    dense_states, dense_cache = encoder.gru_forward(enc, table[items])
    d_weights, d_x = encoder.gru_backward(enc, dense_cache, d_states)
    assert np.array_equal(states, dense_states)
    assert_close_to_scale(d_inputs, encoder.scatter_rows(d_table, items, d_x), 1e-12)
    for name, val in d_weights.items():
        assert_close_to_scale(grad.view(f"enc.{name}"), val, 1e-12, err_msg=name)


def test_seqrec_gradient_matches_central_differences_on_the_table_path(input_paths):
    model = SeqRecModel(ModelConfig(vocab=6, hidden=8, max_len=64))
    params = init_params_at_scale(model, SeededRng(11), 0.3)
    items, lengths = model._padded([[0, 3, 1, 5, 2], [4, 4, 1], [2, 0, 5, 3]])  # 15 cells, 6 rows
    weights = encoder.term_weight_matrix(lengths, items.shape[1]) / 3
    _, grad = model.batch_term_loss(params, items, weights)
    assert input_paths == [True]

    def loss_at(x):
        return model.batch_term_loss(ParamVector(model.registry, x), items, weights)[0]

    assert fd_gradient_check(loss_at, grad.flat, params.flat, 1e-5, directions=24) < 1e-6


def test_dualview_gradient_matches_central_differences_on_the_table_path(input_paths):
    model, params = tiny_dualview(vocab=6, sem_dim=8, seed=31)
    items, lengths = model._padded([[0, 3, 1, 5], [2, 4, 0], [1, 1, 2, 5]])  # 12 cells, 6 rows
    weights = encoder.term_weight_matrix(lengths, items.shape[1]) / 3
    _, grad, _ = model.joint_loss(params, items, weights)
    assert input_paths == [True, True]

    def loss_at(x):
        return model.joint_loss(ParamVector(model.registry, x), items, weights)[0]

    assert fd_gradient_check(loss_at, grad.flat, params.flat, 1e-5, directions=24) < 1e-6
