"""Gated recurrent sequence encoder with hand-written exact backprop.

Both the target recommender and the dual-view detection model run their
sequences through this cell (with independent weights). Everything is
batched over right-padded sequences; padded steps are computed but carry
zero loss weight, so they contribute nothing to any gradient.

Cell, per step t (h_0 = 0):
    z_t = sigmoid(W_z x_t + U_z h_{t-1} + b_z)
    r_t = sigmoid(W_r x_t + U_r h_{t-1} + b_r)
    c_t = tanh(W_h x_t + U_h (r_t * h_{t-1}) + b_h)
    h_t = (1 - z_t) * h_{t-1} + z_t * c_t
"""
from __future__ import annotations

import numpy as np

GATE_NAMES = ("update", "reset", "cand")

_LOSS_TIME_CHUNK = 64  # bounds the (B, chunk, V) logit workspace


def encoder_shapes(d_in: int, d_h: int) -> dict[str, tuple[int, ...]]:
    """Block registry fragment for one encoder (9 blocks)."""
    shapes: dict[str, tuple[int, ...]] = {}
    for gate in GATE_NAMES:
        shapes[f"{gate}_in"] = (d_h, d_in)
        shapes[f"{gate}_rec"] = (d_h, d_h)
        shapes[f"{gate}_bias"] = (d_h,)
    return shapes


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; both branches share it
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def gru_forward(w, x: np.ndarray):
    """Run the cell over x of shape (B, T, d_in).

    `w` maps the 9 block names to arrays. Returns (states, cache) where
    states has shape (B, T, d_h); states[:, t] depends only on x[:, :t+1].
    """
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
        z = sigmoid(pre_z[:, t] + h @ w["update_rec"].T)
        r = sigmoid(pre_r[:, t] + h @ w["reset_rec"].T)
        c = np.tanh(pre_c[:, t] + (r * h) @ w["cand_rec"].T)
        h = (1.0 - z) * h + z * c
        zs[:, t], rs[:, t], cs[:, t], states[:, t] = z, r, c, h
    cache = {"x": x, "states": states, "z": zs, "r": rs, "c": cs}
    return states, cache


def gru_backward(w, cache, d_states: np.ndarray):
    """Backprop through the recurrence.

    d_states is dLoss/d(states) accumulated from every consumer of the
    hidden states. Returns (d_weights, d_x) with d_x of shape (B, T, d_in).
    """
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
    weighted by term_weights[:, t]. Returns (loss, d_states, d_table); the
    gradients are exact for the weighted sum of term losses.
    """
    b, t_len, d_h = states.shape
    v = table.shape[0]
    d_states = np.zeros_like(states)
    d_table = np.zeros_like(table)
    loss = 0.0
    if t_len < 2:
        return loss, d_states, d_table
    for start in range(0, t_len - 1, _LOSS_TIME_CHUNK):
        stop = min(start + _LOSS_TIME_CHUNK, t_len - 1)
        h_chunk = states[:, start:stop]
        w_chunk = term_weights[:, start:stop]
        targets = items[:, start + 1 : stop + 1]
        work = h_chunk @ table.T  # logits, then reused as exp / probs / d_logits
        target_logit = np.take_along_axis(work, targets[..., None], axis=-1)[..., 0]
        m = work.max(axis=-1)
        np.subtract(work, m[..., None], out=work)
        np.exp(work, out=work)
        denom = work.sum(axis=-1)
        ce = -(target_logit - m - np.log(denom))
        loss += float((w_chunk * ce).sum())

        work *= (w_chunk / denom)[..., None]
        np.add.at(
            work.reshape(-1, v),
            (np.arange(work.shape[0] * work.shape[1]), targets.ravel()),
            -w_chunk.ravel(),
        )
        d_states[:, start:stop] = work @ table
        d_table += work.reshape(-1, v).T @ h_chunk.reshape(-1, d_h)
    return loss, d_states, d_table


def next_step_probs(states: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Softmax(states @ table.T) along the vocabulary axis, computed stably."""
    logits = states @ table.T
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits
