"""The target sequential recommender.

Item-embedding table + one gated recurrent encoder + tied-weight softmax
over the full vocabulary. Gradients are exact analytic backpropagation;
the flat ParamVector view makes the model usable for Hessian-vector and
influence work without any framework. Every gradient path is
`batch_term_loss`, on a padded (B, T) item matrix and a (B, T-1)
term-weight matrix. Padding, term weights, encoding and backprop live in
`params.BlockModel`: a caller builds a `TermSet` once and hands on its row
slices. Sums over many sequences run in length-sorted chunks of 64 rows
(`_CHUNK`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .errors import InvalidArgument
from .numkit import SeededRng
from .params import BlockModel, ParamVector, TermSet, TrainConfig, run_training

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
        table = params.view("item_embeddings")
        states, cache = self.encode(params, "enc", table, items)
        loss, d_states, d_table = encoder.tied_next_item_loss(states, table, items, weights)
        grad = self.zero_params()
        # the table's gradient through the tied loss, then each input row's at its item id
        grad.view("item_embeddings")[...] = self.encode_backward(
            params, "enc", cache, items, d_states, d_table, grad
        )
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

        Runs on `training_terms(sequences, exclude)`; each batch divides its
        term weights by its size. `exclude` maps sequence index -> target
        positions to drop from the objective (used for leave-one-sample-out
        retraining). Returns the trained parameters (input left untouched)
        and the epoch loss trace.
        """
        terms = self.training_terms(sequences, exclude)

        def loss_grad(p, batch_idx):
            return self.batch_term_loss(p, *terms.batch(batch_idx, len(batch_idx)))

        trained = params.copy()
        trace = run_training(loss_grad, trained, terms.lengths, cfg, rng)
        return trained, trace

    def weighted_gradient(self, params: ParamVector, terms: TermSet, rows: np.ndarray, divisor):
        """Sum of the term losses of `terms`' rows `rows`, weights divided by `divisor`, with gradient.

        The rows run in length-sorted chunks of `_CHUNK`, each a
        `TermSet.batch`, to bound padding waste; the result is the plain sum
        over the rows either way.
        """
        rows = rows[np.argsort(terms.lengths[rows], kind="stable")]
        total = 0.0
        grad = self.zero_params()
        for start in range(0, rows.size, _CHUNK):
            loss, g = self.batch_term_loss(params, *terms.batch(rows[start : start + _CHUNK], divisor))
            total += loss
            grad.flat += g.flat
        return total, grad

    def dataset_loss(self, params: ParamVector, sequences):
        """Mean over sequences of the per-sequence mean loss, with gradient."""
        terms = self.training_terms(sequences)
        rows = np.arange(terms.lengths.size)
        return self.weighted_gradient(params, terms, rows, rows.size)
