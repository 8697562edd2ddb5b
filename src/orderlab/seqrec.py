"""The target sequential recommender.

Item-embedding table + one gated recurrent encoder + tied-weight softmax
over the full vocabulary. Gradients are exact analytic backpropagation;
the flat ParamVector view makes the model usable for Hessian-vector and
influence work without any framework. Every gradient path takes a padded
(B, T) item matrix and a (B, T-1) term-weight matrix: a caller checks and
pads its sequences once (`_padded`) and hands on row slices. Sums over many
sequences run in length-sorted chunks of 64 rows (`_CHUNK`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .errors import InvalidArgument
from .numkit import SeededRng
from .params import BlockModel, ParamVector, TrainConfig, run_training

_CHUNK = 64  # sequences per batched call of `weighted_gradient`


@dataclass
class ModelConfig:
    vocab: int
    hidden: int = 64
    max_len: int = 200

    def validate(self) -> None:
        if self.vocab < 2 or self.hidden < 8:
            raise InvalidArgument("need vocab >= 2 and hidden >= 8")


class SeqRecModel(BlockModel):
    """Stateless model definition; parameters travel as ParamVector."""

    ARCH = "seqrec-gru/1"

    def __init__(self, cfg: ModelConfig):
        cfg.validate()
        self.cfg = cfg
        registry: dict[str, tuple[int, ...]] = {
            "item_embeddings": (cfg.vocab, cfg.hidden)
        }
        for name, shape in encoder.encoder_shapes(cfg.hidden, cfg.hidden).items():
            registry[f"enc.{name}"] = shape
        self.registry = registry

    # -- forward / losses ----------------------------------------------------

    def batch_states(self, params: ParamVector, seqs) -> tuple[np.ndarray, np.ndarray, dict]:
        """Padded batched forward: (states (B,T,d), items (B,T), cache)."""
        items, lengths = self._padded(seqs)
        table = params.view("item_embeddings")
        x = table[items]
        states, cache = encoder.gru_forward(self._enc_weights(params, "enc"), x)
        cache["lengths"] = lengths
        return states, items, cache

    def batch_term_loss(self, params: ParamVector, items: np.ndarray, weights: np.ndarray):
        """Weighted sum of next-item cross-entropy terms with its gradient.

        `items` is a padded (B, T) batch from `_padded`; `weights` (B, T-1)
        weights in entry [i, t] the term predicting position t+1 of
        sequence i, and is 0 on padding. All loss flavours (sequence mean,
        single sample term, harmful sums) are weight choices over this one
        code path.
        """
        if weights.shape != (items.shape[0], max(items.shape[1] - 1, 0)):
            raise InvalidArgument("term weights must have shape (B, T - 1)")
        table, enc = params.view("item_embeddings"), self._enc_weights(params, "enc")
        states, cache = encoder.gru_forward(enc, table[items])
        loss, d_states, d_table = encoder.tied_next_item_loss(states, table, items, weights)
        d_weights, d_x = encoder.gru_backward(enc, cache, d_states)
        grad = self.zero_params()
        # the table's gradient through the tied loss, then each input row's at its
        # item id, repeated items summed in row-major order (as np.add.at would)
        grad.view("item_embeddings")[...] = encoder.scatter_rows(d_table, items, d_x)
        for name, val in d_weights.items():
            grad.view(f"enc.{name}")[...] = val
        return loss, grad

    def sample_term_loss(self, params: ParamVector, prefix, target: int):
        """The single cross-entropy term predicting `target` after `prefix`."""
        items, _ = self._padded([np.append(self._check_items(prefix), np.int64(target))])
        weights = np.zeros((1, items.shape[1] - 1))
        weights[0, -1] = 1.0
        return self.batch_term_loss(params, items, weights)

    # -- training ------------------------------------------------------------

    def train(
        self,
        params: ParamVector,
        sequences,
        cfg: TrainConfig,
        rng: SeededRng,
        exclude: dict[int, set] | None = None,
    ) -> tuple[ParamVector, list[float]]:
        """Shuffled-minibatch Adam on the mean of per-sequence mean losses.

        The usable sequences (length >= 2) are checked and padded once; each
        batch is a row slice trimmed to its longest sequence. `exclude` maps
        sequence index -> target positions to drop from the objective (used
        for leave-one-sample-out retraining). Returns the trained parameters
        (input left untouched) and the epoch loss trace.
        """
        usable = [i for i, s in enumerate(sequences) if len(s) >= 2]
        if not usable:
            raise InvalidArgument("no trainable sequences (all shorter than 2)")
        items, lengths = self._padded([sequences[i] for i in usable])
        # each sequence's terms weigh 1/(L-1); a batch divides by its size
        weights = encoder.term_weight_matrix(lengths, items.shape[1])
        remap = {orig: new for new, orig in enumerate(usable)}
        for i, positions in (exclude or {}).items():
            if i in remap:
                for pos in positions:
                    if 1 <= pos < lengths[remap[i]]:
                        weights[remap[i], pos - 1] = 0.0

        def loss_grad(p, batch_idx):
            t_len = lengths[batch_idx].max()
            batch_w = weights[batch_idx, : t_len - 1]
            batch_w /= len(batch_idx)
            return self.batch_term_loss(p, items[batch_idx, :t_len], batch_w)

        trained = params.copy()
        trace = run_training(loss_grad, trained, lengths, cfg, rng)
        return trained, trace

    def weighted_gradient(self, params: ParamVector, items, lengths, weights):
        """Sum of weighted term losses over many padded sequences, with gradient.

        `items`, `lengths` and `weights` are as `_padded` and
        `batch_term_loss` take them. The rows run in length-sorted chunks of
        `_CHUNK`, each a row slice trimmed to its longest sequence, to bound
        padding waste; the result is the plain sum over all rows either way.
        """
        if len(lengths) == 0:
            raise InvalidArgument("weighted_gradient over an empty sequence set")
        order = np.argsort(lengths, kind="stable")
        total = 0.0
        grad = self.zero_params()
        for start in range(0, order.size, _CHUNK):
            idx = order[start : start + _CHUNK]
            t_len = lengths[idx].max()
            loss, g = self.batch_term_loss(params, items[idx, :t_len], weights[idx, : t_len - 1])
            total += loss
            grad.flat += g.flat
        return total, grad

    def dataset_loss(self, params: ParamVector, sequences):
        """Mean over sequences of the per-sequence mean loss, with gradient."""
        seqs = [s for s in sequences if len(s) >= 2]
        if not seqs:
            raise InvalidArgument("dataset_loss over an empty sequence set")
        items, lengths = self._padded(seqs)
        weights = encoder.term_weight_matrix(lengths, items.shape[1]) / len(seqs)
        return self.weighted_gradient(params, items, lengths, weights)
