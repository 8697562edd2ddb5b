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

Forward, fused and time-major:
- One product of x with the stacked input weights [W_z; W_r; W_h] gives
  the pre-activations of every gate and step in a (T, B, 3 d_h) buffer.
- Step t runs one product h_{t-1} @ [U_z; U_r]^T and one (r_t * h_{t-1})
  @ U_h^T, and overwrites gates[t] with its activations z | r | c.
- The cache holds `x`, `hs` (T+1, B, d_h) with hs[0] = h_0 = 0 and
  hs[t+1] = h_t, and the views `zr` (T, B, 2 d_h) and `c` (T, B, d_h) of
  the gate buffer. The states returned are the view hs[1:] as (B, T, d_h).

Backward:
- The loop keeps only the two products that carry the recurrence,
  dpc @ U_h and [dpz, dpr] @ [U_z; U_r], and fills one (T, B, 3 d_h)
  buffer with the pre-activation gradients of every step.
- The weight gradients, the bias gradients and d_x are products over all
  steps at once, taken from that buffer after the loop.
"""
from __future__ import annotations

import numpy as np

GATE_NAMES = ("update", "reset", "cand")

_LOSS_ROWS = 4096  # bounds the (rows, V) logit workspace of the tied loss


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


def gru_forward(w, x: np.ndarray):
    """Run the cell over x of shape (B, T, d_in).

    `w` maps the 9 block names to arrays. Returns (states, cache) where
    states has shape (B, T, d_h); states[:, t] depends only on x[:, :t+1].
    """
    b, t_len, _ = x.shape
    d_h = w["update_bias"].shape[0]
    # pre-activations of all gates and steps in one product, time-major;
    # step t overwrites gates[t] with its activations z | r | c
    gates = np.matmul(x.transpose(1, 0, 2), _stacked(w, "in").T)
    gates += _stacked(w, "bias")
    # small products run faster on contiguous right operands than on transposed views
    rec_zr = np.ascontiguousarray(np.concatenate([w["update_rec"], w["reset_rec"]]).T)
    rec_c = np.ascontiguousarray(w["cand_rec"].T)

    hs = np.empty((t_len + 1, b, d_h))
    hs[0] = 0.0
    zr_rec = np.empty((b, 2 * d_h))
    c_rec = np.empty((b, d_h))
    rh = np.empty((b, d_h))
    for t in range(t_len):
        h, h_next = hs[t], hs[t + 1]
        zr, c = gates[t, :, : 2 * d_h], gates[t, :, 2 * d_h :]
        np.matmul(h, rec_zr, out=zr_rec)
        zr += zr_rec
        sigmoid(zr, out=zr)
        np.multiply(zr[:, d_h:], h, out=rh)
        np.matmul(rh, rec_c, out=c_rec)
        c += c_rec
        np.tanh(c, out=c)
        np.subtract(c, h, out=h_next)
        h_next *= zr[:, :d_h]
        h_next += h
    cache = {"x": x, "hs": hs, "zr": gates[..., : 2 * d_h], "c": gates[..., 2 * d_h :]}
    return hs[1:].transpose(1, 0, 2), cache


def gru_backward(w, cache, d_states: np.ndarray):
    """Backprop through the recurrence.

    d_states is dLoss/d(states) accumulated from every consumer of the
    hidden states. Returns (d_weights, d_x) with d_x of shape (B, T, d_in).
    """
    x, hs, cs = cache["x"], cache["hs"], cache["c"]
    t_len, b, d_h = cs.shape
    h_prev, z, r = hs[:-1], cache["zr"][..., :d_h], cache["zr"][..., d_h:]
    rec_zr = np.concatenate([w["update_rec"], w["reset_rec"]])
    rec_c = w["cand_rec"]

    # d_pre[t] = dLoss/d(pre-activations) of step t, gates side by side.
    # Each slot first holds its step-local factor; the loop scales it.
    d_pre = np.empty((t_len, b, 3 * d_h))
    f_z, f_r, f_c = d_pre[..., :d_h], d_pre[..., d_h : 2 * d_h], d_pre[..., 2 * d_h :]
    np.subtract(hs[1:], h_prev, out=f_z)  # z (c - h_prev)
    np.subtract(1.0, r, out=f_r)
    f_r *= h_prev  # (1 - r) h_prev
    np.multiply(cs, cs, out=f_c)
    np.subtract(1.0, f_c, out=f_c)
    f_c *= z  # z (1 - c^2)

    d_s = d_states.transpose(1, 0, 2)
    dh = np.empty((b, d_h))
    dz_h = np.empty((b, d_h))  # dh * (1 - z): the direct path to h_prev
    dr_h = np.empty((b, d_h))  # d(r * h_prev) * r: the reset path to h_prev
    carry = np.zeros((b, d_h))
    for t in range(t_len - 1, -1, -1):
        g = d_pre[t]
        np.add(d_s[t], carry, out=dh)
        np.subtract(1.0, z[t], out=dz_h)
        dz_h *= dh
        g[:, :d_h] *= dz_h
        g[:, 2 * d_h :] *= dh
        np.matmul(g[:, 2 * d_h :], rec_c, out=dr_h)
        dr_h *= r[t]
        g[:, d_h : 2 * d_h] *= dr_h
        np.matmul(g[:, : 2 * d_h], rec_zr, out=carry)
        carry += dz_h
        carry += dr_h

    flat = d_pre.reshape(t_len * b, 3 * d_h)
    d_rec_zr = flat[:, : 2 * d_h].T @ h_prev.reshape(t_len * b, d_h)
    d_rec_c = flat[:, 2 * d_h :].T @ np.multiply(r, h_prev).reshape(t_len * b, d_h)
    d_in = flat.T @ x.transpose(1, 0, 2).reshape(t_len * b, -1)
    d_bias = flat.sum(axis=0)
    d_x = np.matmul(d_pre.transpose(1, 0, 2), _stacked(w, "in"))
    d_weights = {}
    for k, gate in enumerate(GATE_NAMES):
        rows = slice(k * d_h, (k + 1) * d_h)
        d_weights[f"{gate}_in"] = d_in[rows]
        d_weights[f"{gate}_rec"] = d_rec_zr[rows] if k < 2 else d_rec_c
        d_weights[f"{gate}_bias"] = d_bias[rows]
    return d_weights, d_x


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
    so a row sums to one sequence-mean loss."""
    b = lengths.shape[0]
    weights = np.zeros((b, max(t_len - 1, 0)))
    for i, ln in enumerate(lengths):
        n_terms = int(ln) - 1
        if n_terms <= 0:
            continue
        weights[i, :n_terms] = 1.0 / n_terms
    return weights


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
