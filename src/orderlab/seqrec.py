"""The target sequential recommender.

Item-embedding table + one gated recurrent encoder + tied-weight softmax
over the full vocabulary. Gradients are exact analytic backpropagation;
the flat ParamVector view makes the model usable for Hessian-vector and
influence work without any framework.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .errors import InvalidArgument
from .numkit import SeededRng
from .params import BlockModel, ParamVector, TrainConfig, run_training


@dataclass
class ModelConfig:
    vocab: int
    hidden: int = 64
    max_len: int = 200
    init_scale: float = 0.1

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
        checked = [self._check_items(s) for s in seqs]
        items, lengths = encoder.pad_sequences(checked)
        table = params.view("item_embeddings")
        x = table[items]
        states, cache = encoder.gru_forward(self._enc_weights(params, "enc"), x)
        cache["lengths"] = lengths
        return states, items, cache

    def batch_term_loss(self, params: ParamVector, seqs, term_weights):
        """Weighted sum of next-item cross-entropy terms with its gradient.

        `term_weights[i]` is an array of length len(seqs[i]) - 1; entry t
        weights the term predicting position t+1 of sequence i. All loss
        flavours (sequence mean, single sample term, harmful sums) are
        weight choices over this one code path.
        """
        states, items, cache = self.batch_states(params, seqs)
        t_len = items.shape[1]
        weights = np.zeros((len(seqs), max(t_len - 1, 0)))
        for i, w in enumerate(term_weights):
            w = np.asarray(w, dtype=np.float64)
            if w.size != len(seqs[i]) - 1:
                raise InvalidArgument("term weight length must be len(seq) - 1")
            weights[i, : w.size] = w
        table = params.view("item_embeddings")
        loss, d_states, d_table = encoder.tied_next_item_loss(states, table, items, weights)
        d_weights, d_x = encoder.gru_backward(self._enc_weights(params, "enc"), cache, d_states)
        grad = self.zero_params()
        d_emb = grad.view("item_embeddings")
        d_emb += d_table
        np.add.at(d_emb, items.ravel(), d_x.reshape(-1, self.cfg.hidden))
        for name, val in d_weights.items():
            grad.view(f"enc.{name}")[...] = val
        return loss, grad

    def sample_term_loss(self, params: ParamVector, prefix, target: int):
        """The single cross-entropy term predicting `target` after `prefix`."""
        seq = np.append(self._check_items(prefix), np.int64(target))
        w = np.zeros(seq.size - 1)
        w[-1] = 1.0
        return self.batch_term_loss(params, [seq], [w])

    def final_states(self, params: ParamVector, seqs) -> np.ndarray:
        """Last hidden state per sequence, batched (B, d_h)."""
        states, _, cache = self.batch_states(params, seqs)
        lengths = cache["lengths"]
        return states[np.arange(len(seqs)), lengths - 1]

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

        `exclude` maps sequence index -> target positions to drop from the
        objective (used for leave-one-sample-out retraining). Returns the
        trained parameters (input left untouched) and the epoch loss trace.
        """
        usable = [i for i, s in enumerate(sequences) if len(s) >= 2]
        if not usable:
            raise InvalidArgument("no trainable sequences (all shorter than 2)")
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
            return self.batch_term_loss(p, batch, weights)

        trained = params.copy()
        trace = run_training(
            loss_grad, trained, len(seqs), cfg, rng, example_size_fn=lambda i: len(seqs[i])
        )
        return trained, trace

    def weighted_gradient(self, params: ParamVector, seqs, weights, chunk: int = 64):
        """Sum of weighted term losses over many sequences, with gradient.

        Chunks are length-sorted to bound padding waste; the result is the
        plain sum over all (sequence, weight) pairs either way.
        """
        if not seqs:
            raise InvalidArgument("weighted_gradient over an empty sequence set")
        order = sorted(range(len(seqs)), key=lambda i: len(seqs[i]))
        total = 0.0
        grad = self.zero_params()
        for start in range(0, len(order), chunk):
            idx = order[start : start + chunk]
            loss, g = self.batch_term_loss(
                params, [seqs[i] for i in idx], [weights[i] for i in idx]
            )
            total += loss
            grad.flat += g.flat
        return total, grad

    def dataset_loss(self, params: ParamVector, sequences, batch_size: int = 64):
        """Mean over sequences of the per-sequence mean loss, with gradient."""
        seqs = [np.asarray(s, dtype=np.int64) for s in sequences if len(s) >= 2]
        if not seqs:
            raise InvalidArgument("dataset_loss over an empty sequence set")
        weights = [np.full(len(s) - 1, 1.0 / (len(s) - 1) / len(seqs)) for s in seqs]
        return self.weighted_gradient(params, seqs, weights, chunk=batch_size)
