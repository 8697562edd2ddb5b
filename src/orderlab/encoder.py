"""Gated recurrent sequence encoder with hand-written exact backprop.

Both the target recommender and the dual-view detection model run their
sequences through this cell (with independent weights). Everything is
batched over right-padded sequences. The recurrence runs over padded
steps too; the tied next-item loss scores only the terms with a non-zero
weight, so padded steps and unweighted terms cost no vocabulary product
and contribute nothing to any gradient.

Cell, per step t (h_0 = 0):
    z_t = sigmoid(W_z x_t + U_z h_{t-1} + b_z)
    r_t = sigmoid(W_r x_t + U_r h_{t-1} + b_r)
    c_t = tanh(W_h x_t + U_h (r_t * h_{t-1}) + b_h)
    h_t = (1 - z_t) * h_{t-1} + z_t * c_t

Weights stay 9 blocks (`encoder_shapes`); the kernels stack them per call.

Forward, fused and time-major, on contiguous per-gate buffers:
- The input projection x @ [W_z; W_r; W_h]^T runs over blocks of steps
  of at most `_GATE_ROWS` rows. Each block is copied gate by gate into
  one (T, 3, B, d_h) buffer, so gates[t, k] is gate k's contiguous
  (B, d_h) block at step t: each step's elementwise work runs on
  contiguous blocks. `zr` = gates[:, :2] (update, reset) and `c` =
  gates[:, 2] are its views. One buffer, not one per gate, also keeps
  glibc's default, self-raising trim threshold above a call's heap use,
  so its pages are not handed back and faulted in on every call.
- The update and reset rows of the input weights, bias and recurrent
  weights are halved once per call. A power-of-two scale is exact, so
  sigmoid(a) = 0.5 (1 + tanh(a / 2)) needs no multiply inside the loop.
- Step t runs one product h_{t-1} @ [U_z; U_r]^T and one (r_t * h_{t-1})
  @ U_h^T, and overwrites zr[t] and c[t] with its activations.
- The cache holds `x`, `hs` (T+1, B, d_h) with hs[0] = h_0 = 0 and
  hs[t+1] = h_t, and the activation views `zr` and `c`. The states
  returned are the view hs[1:] as (B, T, d_h).

Backward:
- The pre-activation gradients live in `d_zr` (T, B, 2 d_h), so that the
  loop's product [dpz, dpr] @ [U_z; U_r] reads one contiguous block, and
  in `d_c` (T, B, d_h).
- The loop keeps only the two products that carry the recurrence,
  dpc @ U_h and [dpz, dpr] @ [U_z; U_r].
- After the loop, the weight and bias gradients are products over all
  steps at once, taken from each buffer. d_x is one product with
  K = 3 d_h per sequence; the two buffers are joined for a block of
  sequences at a time (at most `_GATE_ROWS` rows).
- numpy runs a stacked product as one BLAS call per matrix: one per step
  for the input projection and one per sequence (K = 3 d_h) for d_x,
  whatever the block. So the block sizes change no bit of any result.

`scatter_rows` adds the input gradient d_x into an embedding-table
gradient by item id, in the same order as np.add.at.
"""
from __future__ import annotations

import numpy as np

GATE_NAMES = ("update", "reset", "cand")

_LOSS_ROWS = 4096  # bounds the (rows, V) logit workspace of the tied loss
_GATE_ROWS = 256  # bounds the (rows, 3 d_h) all-gate blocks of the GRU kernels


def encoder_shapes(d_in: int, d_h: int) -> dict[str, tuple[int, ...]]:
    """Block registry fragment for one encoder (9 blocks)."""
    shapes: dict[str, tuple[int, ...]] = {}
    for gate in GATE_NAMES:
        shapes[f"{gate}_in"] = (d_h, d_in)
        shapes[f"{gate}_rec"] = (d_h, d_h)
        shapes[f"{gate}_bias"] = (d_h,)
    return shapes


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function in its tanh form, 0.5 * (1 + tanh(x / 2)).

    tanh saturates instead of overflowing, so every finite input gives a
    finite result in [0, 1]. Pass `out=x` to apply it in place.
    """
    out = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    out += 1.0
    out *= 0.5
    return out


def _stacked(w, kind: str) -> np.ndarray:
    """The three gates' blocks of one kind, stacked along the first axis."""
    return np.concatenate([w[f"{gate}_{kind}"] for gate in GATE_NAMES])


def _halved_zr(w, kind: str) -> np.ndarray:
    """`_stacked(w, kind)` with the update and reset rows scaled by 0.5 (exact)."""
    stacked = _stacked(w, kind)
    stacked[: 2 * w["update_bias"].shape[0]] *= 0.5
    return stacked


def gru_forward(w, x: np.ndarray):
    """Run the cell over x of shape (B, T, d_in).

    `w` maps the 9 block names to arrays. Returns (states, cache) where
    states has shape (B, T, d_h); states[:, t] depends only on x[:, :t+1].
    """
    b, t_len, _ = x.shape
    d_h = w["update_bias"].shape[0]
    # pre-activations of every gate and step, time-major, the update and reset
    # halves pre-scaled by 0.5; gates[t, k] is gate k's contiguous (B, d_h) block
    x_tm, w_in, bias = x.transpose(1, 0, 2), _halved_zr(w, "in").T, _halved_zr(w, "bias")
    gates = np.empty((t_len, 3, b, d_h))
    n_steps = max(1, _GATE_ROWS // max(b, 1))
    pre = np.empty((min(t_len, n_steps), b, 3 * d_h))
    for start in range(0, t_len, n_steps):
        steps = slice(start, min(start + n_steps, t_len))
        block = np.matmul(x_tm[steps], w_in, out=pre[: steps.stop - start])
        block += bias
        gates[steps] = block.reshape(-1, b, 3, d_h).transpose(0, 2, 1, 3)
    zr, c = gates[:, :2], gates[:, 2]
    # small products run faster on contiguous right operands than on transposed views
    rec_zr = np.ascontiguousarray(0.5 * np.concatenate([w["update_rec"], w["reset_rec"]]).T)
    rec_c = np.ascontiguousarray(w["cand_rec"].T)

    hs = np.empty((t_len + 1, b, d_h))
    hs[0] = 0.0
    zr_rec = np.empty((b, 2 * d_h))
    zr_rec_by_gate = zr_rec.reshape(b, 2, d_h).transpose(1, 0, 2)
    c_rec = np.empty((b, d_h))
    rh = np.empty((b, d_h))
    for t in range(t_len):
        h, h_next, g, c_t = hs[t], hs[t + 1], zr[t], c[t]
        np.matmul(h, rec_zr, out=zr_rec)
        g += zr_rec_by_gate
        np.tanh(g, out=g)  # sigmoid of the unhalved pre-activation
        g += 1.0
        g *= 0.5
        np.multiply(g[1], h, out=rh)
        np.matmul(rh, rec_c, out=c_rec)
        c_t += c_rec
        np.tanh(c_t, out=c_t)
        np.subtract(c_t, h, out=h_next)
        h_next *= g[0]
        h_next += h
    cache = {"x": x, "hs": hs, "zr": zr, "c": c}
    return hs[1:].transpose(1, 0, 2), cache


def gru_backward(w, cache, d_states: np.ndarray):
    """Backprop through the recurrence.

    d_states is dLoss/d(states) accumulated from every consumer of the
    hidden states. Returns (d_weights, d_x) with d_x of shape (B, T, d_in).
    """
    x, hs, cs = cache["x"], cache["hs"], cache["c"]
    t_len, b, d_h = cs.shape
    h_prev, z, r = hs[:-1], cache["zr"][:, 0], cache["zr"][:, 1]
    rec_zr = np.concatenate([w["update_rec"], w["reset_rec"]])
    rec_c = w["cand_rec"]

    # dLoss/d(pre-activations) of every step: update | reset side by side, and
    # the candidate apart. Each slot first holds its step-local factor; the loop scales it.
    d_zr = np.empty((t_len, b, 2 * d_h))
    f_z, f_r = d_zr[..., :d_h], d_zr[..., d_h:]
    np.subtract(hs[1:], h_prev, out=f_z)  # z (c - h_prev)
    np.subtract(1.0, r, out=f_r)
    f_r *= h_prev  # (1 - r) h_prev
    d_c = np.multiply(cs, cs)
    np.subtract(1.0, d_c, out=d_c)
    d_c *= z  # z (1 - c^2)

    d_s = d_states.transpose(1, 0, 2)
    dh = np.empty((b, d_h))
    dz_h = np.empty((b, d_h))  # dh * (1 - z): the direct path to h_prev
    dr_h = np.empty((b, d_h))  # d(r * h_prev) * r: the reset path to h_prev
    carry = np.zeros((b, d_h))
    for t in range(t_len - 1, -1, -1):
        np.add(d_s[t], carry, out=dh)
        np.subtract(1.0, z[t], out=dz_h)
        dz_h *= dh
        f_z[t] *= dz_h
        d_c[t] *= dh
        np.matmul(d_c[t], rec_c, out=dr_h)
        dr_h *= r[t]
        f_r[t] *= dr_h
        np.matmul(d_zr[t], rec_zr, out=carry)
        carry += dz_h
        carry += dr_h

    n = t_len * b
    flat_zr, flat_c = d_zr.reshape(n, 2 * d_h), d_c.reshape(n, d_h)
    x_flat = x.transpose(1, 0, 2).reshape(n, -1)  # a time-major copy
    d_in = np.concatenate([flat_zr.T @ x_flat, flat_c.T @ x_flat])
    del x_flat
    d_rec_zr = flat_zr.T @ h_prev.reshape(n, d_h)
    d_rec_c = flat_c.T @ np.multiply(r, h_prev).reshape(n, d_h)
    d_bias = np.concatenate([flat_zr.sum(axis=0), flat_c.sum(axis=0)])
    # d_x takes one K = 3 d_h product per sequence, its gates joined a few sequences at a time
    w_in = _stacked(w, "in")
    d_x = np.empty(x.shape)
    n_seqs = max(1, _GATE_ROWS // t_len)
    joined = np.empty((t_len, min(b, n_seqs), 3 * d_h))
    for start in range(0, b, n_seqs):
        seqs = slice(start, min(start + n_seqs, b))
        d_pre = np.concatenate([d_zr[:, seqs], d_c[:, seqs]], axis=-1, out=joined[:, : seqs.stop - start])
        np.matmul(d_pre.transpose(1, 0, 2), w_in, out=d_x[seqs])
    d_weights = {}
    for k, gate in enumerate(GATE_NAMES):
        rows = slice(k * d_h, (k + 1) * d_h)
        d_weights[f"{gate}_in"] = d_in[rows]
        d_weights[f"{gate}_rec"] = d_rec_zr[rows] if k < 2 else d_rec_c
        d_weights[f"{gate}_bias"] = d_bias[rows]
    return d_weights, d_x


def scatter_rows(d_table: np.ndarray, items: np.ndarray, d_x: np.ndarray) -> np.ndarray:
    """d_table plus each row of d_x added at its item's row: a new (V, d) array.

    items (B, T) holds the row of each of the B * T rows of d_x (B, T, d).
    One weighted bincount runs over the table's flat indices, then the
    items'. bincount adds in input order, so each entry is 0.0 + d_table,
    then the d_x rows of that item in row-major order of `items`: the same
    sums in the same order as np.add.at into zeros plus d_table, only
    faster.
    """
    v, d = d_table.shape
    n = v * d
    index = np.empty(n + d_x.size, dtype=np.intp)
    index[:n] = np.arange(n)
    np.add((items * d).reshape(-1, 1), np.arange(d), out=index[n:].reshape(-1, d))
    values = np.empty(index.size)
    values[:n] = d_table.ravel()
    values[n:] = d_x.ravel()
    return np.bincount(index, weights=values, minlength=n).reshape(v, d)


def pad_sequences(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad integer sequences with 0; returns (items (B, T), lengths (B,))."""
    lengths = np.asarray([len(s) for s in seqs], dtype=np.int64)
    t_len = int(lengths.max())
    items = np.zeros((len(seqs), t_len), dtype=np.int64)
    for i, s in enumerate(seqs):
        items[i, : len(s)] = s
    return items, lengths


def term_weight_matrix(lengths: np.ndarray, t_len: int) -> np.ndarray:
    """Weights for next-item terms: weights[b, t] scales the prediction of
    position t+1 from state t. Each sequence's terms get weight 1/(len-1),
    so a row sums to one sequence-mean loss; a sequence shorter than 2 gets
    a zero row."""
    n_terms = np.asarray(lengths, dtype=np.int64) - 1
    per_term = np.divide(1.0, n_terms, out=np.zeros(n_terms.shape), where=n_terms > 0)
    in_sequence = np.arange(max(t_len - 1, 0)) < n_terms[:, None]
    return np.where(in_sequence, per_term[:, None], 0.0)


def tied_next_item_loss(states: np.ndarray, table: np.ndarray, items: np.ndarray, term_weights: np.ndarray):
    """Weighted next-item cross-entropy with a tied output table.

    Step t scores softmax(states[:, t] @ table.T) against items[:, t+1],
    weighted by term_weights[:, t]. Only terms with a non-zero weight are
    scored: their states are gathered, in row-major order, into 2-D blocks
    of at most `_LOSS_ROWS` rows. Returns (loss, d_states, d_table); the
    gradients are exact for the weighted sum of term losses, and d_states
    is 0 at every step whose term has weight 0.
    """
    d_states = np.zeros_like(states)
    d_table = np.zeros_like(table)
    loss = 0.0
    rows, cols = np.nonzero(term_weights)
    for start in range(0, rows.size, _LOSS_ROWS):
        r, c = rows[start : start + _LOSS_ROWS], cols[start : start + _LOSS_ROWS]
        h = states[r, c]
        w = term_weights[r, c]
        targets = items[r, c + 1]
        picked = np.arange(r.size)
        work = h @ table.T  # logits, then reused as exp / probs / d_logits
        target_logit = work[picked, targets]
        m = work.max(axis=1)
        work -= m[:, None]
        np.exp(work, out=work)
        denom = work.sum(axis=1)
        ce = -(target_logit - m - np.log(denom))
        loss += float(w @ ce)

        work *= (w / denom)[:, None]
        work[picked, targets] -= w
        d_table += work.T @ h
        # h's buffer takes the state gradients: one fresh (n, d) temporary more made glibc
        # trim and re-fault the heap on every training call. Each (r, c) pair appears once.
        d_states[r, c] = np.matmul(work, table, out=h)
    return loss, d_states, d_table


def next_step_probs(states: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Softmax(states @ table.T) along the vocabulary axis, computed stably."""
    logits = states @ table.T
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits
