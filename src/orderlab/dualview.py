"""Dual-view detection model.

Two item-input paths feed two independent recurrent encoders:

* semantic view: a two-layer adapter over the external embeddings plus a
  scaled linear residual, X_s = Adapter(E) + 0.5 * (W_res E) (`_RESIDUAL_COEF`);
* collaborative view: a learned gate blends a projection of the
  PCA-reduced embeddings with free ID embeddings,
  X_c = G * (W_fuse E_red + b) + (1 - G) * E_id,  G = sigmoid(W_gate [E_red; E_id] + b_gate).

Each view scores next items against its own input table (tied weights).
The joint objective blends both views' recommendation losses with a
symmetric cross-view InfoNCE term on final sequence representations:
0.5 * L_sem + 0.5 * L_col + 0.1 * InfoNCE at temperature 0.1
(`_VIEW_BLEND`, `_CONTRASTIVE_WEIGHT`, `_TEMPERATURE`). All gradients are
exact. Training checks and pads its sequences once; each batch is a row
slice of that padded matrix, trimmed to its longest sequence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .errors import DegenerateVector, InvalidArgument
from .numkit import SeededRng
from .params import BlockModel, ParamVector, TrainConfig, run_training

ENCODERS = {"semantic": "sem_enc", "collaborative": "collab_enc"}  # view -> block prefix
_VIEW_BLEND = 0.5  # weight of the semantic view's recommendation loss
_CONTRASTIVE_WEIGHT = 0.1  # weight of the InfoNCE term
_TEMPERATURE = 0.1  # InfoNCE temperature
_RESIDUAL_COEF = 0.5  # scale of the semantic view's linear residual


@dataclass
class DualViewConfig:
    vocab: int
    sem_dim: int
    hidden: int = 64
    max_len: int = 200

    def validate(self) -> None:
        if self.vocab < 2 or self.hidden < 8 or self.sem_dim < 8:
            raise InvalidArgument("need vocab >= 2, hidden >= 8, sem_dim >= 8")


def _silu(x: np.ndarray):
    s = encoder.sigmoid(x)
    return x * s, s


def contrastive_loss(rep_sem: np.ndarray, rep_col: np.ndarray, temperature: float):
    """Symmetric cross-view InfoNCE over a batch of final representations.

    Returns (loss, d_rep_sem, d_rep_col); gradients are with respect to the
    raw (pre-normalization) representations.
    """
    rs = np.asarray(rep_sem, dtype=np.float64)
    rc = np.asarray(rep_col, dtype=np.float64)
    if rs.shape != rc.shape or rs.ndim != 2:
        raise InvalidArgument("representation batches must share shape (B, d)")
    b = rs.shape[0]
    ns = np.linalg.norm(rs, axis=1, keepdims=True)
    nc = np.linalg.norm(rc, axis=1, keepdims=True)
    if float(ns.min()) == 0.0 or float(nc.min()) == 0.0:
        raise DegenerateVector("zero-norm representation in contrastive batch")
    us = rs / ns
    uc = rc / nc
    sim = (us @ uc.T) / temperature
    row_max = sim.max(axis=1, keepdims=True)
    row_p = np.exp(sim - row_max)
    row_p /= row_p.sum(axis=1, keepdims=True)
    col_max = sim.max(axis=0, keepdims=True)
    col_p = np.exp(sim - col_max)
    col_p /= col_p.sum(axis=0, keepdims=True)
    diag = np.arange(b)
    l_row = np.log(row_p[diag, diag])
    l_col = np.log(col_p[diag, diag])
    loss = float(-(l_row + l_col).sum() / (2 * b)) + 0.0  # normalize -0.0

    d_sim = (row_p + col_p) / (2 * b)
    d_sim[diag, diag] -= 1.0 / b
    d_sim /= temperature
    d_us = d_sim @ uc
    d_uc = d_sim.T @ us
    d_rs = (d_us - us * (d_us * us).sum(axis=1, keepdims=True)) / ns
    d_rc = (d_uc - uc * (d_uc * uc).sum(axis=1, keepdims=True)) / nc
    return loss, d_rs, d_rc


class DualViewModel(BlockModel):
    """Stateless definition over fixed semantic inputs.

    `sem` is the (V, sem_dim) embedding table; `reduced` its (V, hidden)
    PCA projection. Both are constants of the model, not parameters.
    """

    ARCH = "dualview-gru/1"

    def __init__(self, cfg: DualViewConfig, sem: np.ndarray, reduced: np.ndarray):
        cfg.validate()
        self.cfg = cfg
        self.sem = np.asarray(sem, dtype=np.float64)
        self.reduced = np.asarray(reduced, dtype=np.float64)
        if self.sem.shape != (cfg.vocab, cfg.sem_dim):
            raise InvalidArgument(
                f"semantic table shape {self.sem.shape} != ({cfg.vocab}, {cfg.sem_dim})"
            )
        if self.reduced.shape != (cfg.vocab, cfg.hidden):
            raise InvalidArgument(
                f"reduced table shape {self.reduced.shape} != ({cfg.vocab}, {cfg.hidden})"
            )
        d_h, d_s = cfg.hidden, cfg.sem_dim
        registry: dict[str, tuple[int, ...]] = {
            "adapter_hidden_w": (d_h, d_s),
            "adapter_hidden_bias": (d_h,),
            "adapter_out_w": (d_h, d_h),
            "adapter_out_bias": (d_h,),
            "residual_w": (d_h, d_s),
            "fusion_w": (d_h, d_h),
            "fusion_bias": (d_h,),
            "gate_w": (d_h, 2 * d_h),
            "gate_bias": (d_h,),
            "item_embeddings": (cfg.vocab, d_h),
        }
        for prefix in ENCODERS.values():
            for name, shape in encoder.encoder_shapes(d_h, d_h).items():
                registry[f"{prefix}.{name}"] = shape
        self.registry = registry

    # -- item input paths ----------------------------------------------------

    def item_inputs(self, params: ParamVector):
        """Both views' per-item input tables plus the backward cache."""
        p = params
        pre_hidden = self.sem @ p.view("adapter_hidden_w").T + p.view("adapter_hidden_bias")
        hidden, hidden_sig = _silu(pre_hidden)
        table_sem = (
            hidden @ p.view("adapter_out_w").T
            + p.view("adapter_out_bias")
            + _RESIDUAL_COEF * (self.sem @ p.view("residual_w").T)
        )
        fused = self.reduced @ p.view("fusion_w").T + p.view("fusion_bias")
        ids = p.view("item_embeddings")
        gate_pre = (
            np.concatenate([self.reduced, ids], axis=1) @ p.view("gate_w").T
            + p.view("gate_bias")
        )
        gate = encoder.sigmoid(gate_pre)
        table_col = gate * fused + (1.0 - gate) * ids
        cache = {
            "pre_hidden": pre_hidden,
            "hidden": hidden,
            "hidden_sig": hidden_sig,
            "fused": fused,
            "gate": gate,
        }
        return table_sem, table_col, cache

    def _item_inputs_backward(self, params, cache, d_sem_table, d_col_table, grad):
        p = params
        hidden, sig = cache["hidden"], cache["hidden_sig"]
        grad.view("adapter_out_w")[...] += d_sem_table.T @ hidden
        grad.view("adapter_out_bias")[...] += d_sem_table.sum(axis=0)
        d_hidden = d_sem_table @ p.view("adapter_out_w")
        d_pre = d_hidden * (sig * (1.0 + cache["pre_hidden"] * (1.0 - sig)))
        grad.view("adapter_hidden_w")[...] += d_pre.T @ self.sem
        grad.view("adapter_hidden_bias")[...] += d_pre.sum(axis=0)
        grad.view("residual_w")[...] += _RESIDUAL_COEF * (d_sem_table.T @ self.sem)

        gate, fused = cache["gate"], cache["fused"]
        ids = p.view("item_embeddings")
        d_gate = d_col_table * (fused - ids)
        d_fused = d_col_table * gate
        d_ids = d_col_table * (1.0 - gate)
        grad.view("fusion_w")[...] += d_fused.T @ self.reduced
        grad.view("fusion_bias")[...] += d_fused.sum(axis=0)
        d_gate_pre = d_gate * gate * (1.0 - gate)
        grad.view("gate_w")[...] += d_gate_pre.T @ np.concatenate([self.reduced, ids], axis=1)
        grad.view("gate_bias")[...] += d_gate_pre.sum(axis=0)
        d_ids += d_gate_pre @ p.view("gate_w")[:, self.cfg.hidden :]
        grad.view("item_embeddings")[...] += d_ids

    # -- forward -------------------------------------------------------------

    def batch_view_states(self, params: ParamVector, view: str, seqs, tables):
        """Batched hidden states for one view; returns (states, items, lengths, table, cache).

        `tables` is the (semantic, collaborative) pair of input tables that
        `item_inputs` gives for `params`. states[:, k] is the view's hidden
        state after consuming item k.
        """
        if view not in ENCODERS:
            raise InvalidArgument(f"view must be one of {tuple(ENCODERS)}")
        items, lengths = self._padded(seqs)
        table_sem, table_col = tables
        table = table_sem if view == "semantic" else table_col
        x = table[items]
        states, cache = encoder.gru_forward(self._enc_weights(params, ENCODERS[view]), x)
        return states, items, lengths, table, cache

    # -- joint objective -----------------------------------------------------

    def joint_loss(self, params: ParamVector, items: np.ndarray, lengths: np.ndarray):
        """Blended recommendation losses + weighted InfoNCE, with exact gradient.

        `items` (B, T) and `lengths` (B,) are a padded batch from `_padded`.
        Recommendation loss per view is the mean over the batch of each
        sequence's mean next-item cross-entropy under that view's tied
        table. The contrastive term uses the batch's final hidden states.
        """
        if lengths.size == 0:
            raise InvalidArgument("joint_loss needs a non-empty batch")
        if lengths.min() < 2:
            raise InvalidArgument("joint_loss sequences need length >= 2")
        table_sem, table_col, in_cache = self.item_inputs(params)
        b, t_len = items.shape
        weights = encoder.term_weight_matrix(lengths, t_len) / b

        grad = self.zero_params()
        alpha, lam = _VIEW_BLEND, _CONTRASTIVE_WEIGHT
        final_idx = (np.arange(b), lengths - 1)
        tables = {"semantic": table_sem, "collaborative": table_col}
        coefs = {"semantic": alpha, "collaborative": 1.0 - alpha}
        losses, finals, backward, d_tables = {}, {}, {}, {}
        for view, table in tables.items():
            w_enc = self._enc_weights(params, ENCODERS[view])
            states, cache = encoder.gru_forward(w_enc, table[items])
            losses[view], d_states, d_table = encoder.tied_next_item_loss(
                states, table, items, weights
            )
            backward[view] = (cache, d_states * coefs[view])
            d_tables[view] = d_table * coefs[view]
            finals[view] = states[final_idx]

        c_loss, d_fin_sem, d_fin_col = contrastive_loss(
            finals["semantic"], finals["collaborative"], _TEMPERATURE
        )
        total = alpha * losses["semantic"] + (1.0 - alpha) * losses["collaborative"] + lam * c_loss

        for view, d_fin in (("semantic", d_fin_sem), ("collaborative", d_fin_col)):
            cache, d_states = backward[view]
            d_states[final_idx] += lam * d_fin
            prefix = ENCODERS[view]
            d_enc, d_x = encoder.gru_backward(self._enc_weights(params, prefix), cache, d_states)
            for name, val in d_enc.items():
                grad.view(f"{prefix}.{name}")[...] = val
            # each input row's gradient at its item id, repeated items summed in
            # row-major order after the tied-loss part (as np.add.at would)
            d_tables[view] = encoder.scatter_rows(d_tables[view], items, d_x)
        self._item_inputs_backward(
            params, in_cache, d_tables["semantic"], d_tables["collaborative"], grad
        )
        parts = {
            "rec_semantic": losses["semantic"],
            "rec_collaborative": losses["collaborative"],
            "contrastive": c_loss,
        }
        return total, grad, parts

    def train(
        self, params: ParamVector, sequences, cfg: TrainConfig, rng: SeededRng
    ) -> tuple[ParamVector, list[float]]:
        """Same optimizer regime as the target model, on the joint objective.

        The usable sequences (length >= 2) are checked and padded once; each
        batch is a row slice trimmed to its longest sequence.
        """
        usable = [s for s in sequences if len(s) >= 2]
        if not usable:
            raise InvalidArgument("no trainable sequences")
        items, lengths = self._padded(usable)

        def loss_grad(p, batch_idx):
            batch_len = lengths[batch_idx]
            loss, grad, _ = self.joint_loss(p, items[batch_idx, : batch_len.max()], batch_len)
            return loss, grad

        trained = params.copy()
        trace = run_training(loss_grad, trained, lengths, cfg, rng)
        return trained, trace
