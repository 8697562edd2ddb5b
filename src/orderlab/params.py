"""Flat parameter vectors with named block views, the models' shared base, and the optimizer.

`BlockModel` holds the batched path both models run. `_padded` checks and
pads a sequence set once. `training_terms` keeps a training set's usable
sequences (length >= 2), padded once, each term weighted 1/(L-1) and an
excluded term 0; a batch is a row slice trimmed to its longest sequence
(`TermSet.batch`). `encode` runs one recurrent encoder over an input
table's rows at a padded item matrix, and `encode_backward` backpropagates
its state gradient into the encoder's blocks and the table. Both project
the table's rows, not the cells', when the table has fewer rows than the
item matrix has cells (`_over_table`).
`run_training` hands out index batches, regrouped by the examples' sizes.

Every weight block starts from N(0, 0.1) (`_INIT_SCALE`); biases start at zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import encoder
from .errors import InvalidArgument, NumericalFailure
from .numkit import SeededRng


class ParamVector:
    """A flat float64 array partitioned into named, non-overlapping blocks.

    Block views share memory with the flat array, so vector algebra on
    `.flat` and per-block math stay consistent. The block ordering is fixed
    by the registry passed at construction; the layout is computed once per
    distinct registry (block names and shapes) and shared.
    """

    def __init__(self, registry: Mapping[str, tuple[int, ...]], data: np.ndarray | None = None):
        self._shapes, self._slices, self.size = _layout(registry)
        if data is None:
            self.flat = np.zeros(self.size, dtype=np.float64)
        else:
            data = np.asarray(data, dtype=np.float64).ravel()
            if data.size != self.size:
                raise InvalidArgument(f"expected {self.size} parameters, got {data.size}")
            self.flat = data.copy()

    def view(self, name: str) -> np.ndarray:
        return self.flat[self._slices[name]].reshape(self._shapes[name])

    def copy(self) -> "ParamVector":
        return ParamVector(self._shapes, self.flat)


# (block name, shape) pairs -> (shapes, slices, size), shared by every vector of one registry
_LAYOUTS: dict[tuple, tuple[dict[str, tuple[int, ...]], dict[str, slice], int]] = {}


def _layout(registry: Mapping[str, tuple[int, ...]]):
    key = tuple(registry.items())
    layout = _LAYOUTS.get(key)
    if layout is None:
        slices: dict[str, slice] = {}
        offset = 0
        for name, shape in key:
            size = int(np.prod(shape)) if shape else 1
            slices[name] = slice(offset, offset + size)
            offset += size
        layout = _LAYOUTS[key] = (dict(key), slices, offset)
    return layout


_INIT_SCALE = 0.1  # standard deviation of the initial weights


@dataclass
class TermSet:
    """Sequences checked and padded once, with a weight for each next-item term.

    `items` (B, T) and `lengths` (B,) are as `encoder.pad_sequences` gives
    them. `weights` (B, T-1) weighs in [i, t] the term that predicts
    position t+1 of row i, and is 0 on padding.
    """

    items: np.ndarray
    lengths: np.ndarray
    weights: np.ndarray

    def batch(self, rows: np.ndarray, divisor) -> tuple[np.ndarray, np.ndarray]:
        """The rows `rows`, trimmed to their longest sequence: (items, weights / divisor)."""
        t_len = self.lengths[rows].max()
        weights = self.weights[rows, : t_len - 1]
        weights /= divisor
        return self.items[rows, :t_len], weights


class BlockModel:
    """What the recommender and the dual-view model share.

    A subclass sets `registry` (block name -> shape) and a `cfg` with
    `vocab` and `max_len`.
    """

    registry: dict[str, tuple[int, ...]]

    def zero_params(self) -> ParamVector:
        return ParamVector(self.registry)

    def init_params(self, rng: SeededRng) -> ParamVector:
        """Weights drawn from N(0, `_INIT_SCALE`) in registry order; biases start at zero."""
        params = self.zero_params()
        for name in self.registry:
            if not name.endswith("bias"):
                block = params.view(name)
                block[...] = rng.gen.normal(0.0, _INIT_SCALE, size=block.shape)
        return params

    def _check_items(self, seq) -> np.ndarray:
        """One sequence as a 1-D int64 array; its item range is left to `_padded`."""
        arr = np.asarray(seq, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidArgument("item sequence must be non-empty and 1-D")
        if arr.size > self.cfg.max_len:
            raise InvalidArgument(f"sequence length {arr.size} exceeds max {self.cfg.max_len}")
        return arr

    def _padded(self, seqs) -> tuple[np.ndarray, np.ndarray]:
        """Check each sequence's shape and length, pad the batch, and check its items once.

        Returns (items (B, T), lengths (B,)). The padding item 0 lies in the
        vocabulary, so checking the padded matrix checks every real item.
        Training and gradient sums call it once per sequence set and work on
        row slices of the result.
        """
        items, lengths = encoder.pad_sequences([self._check_items(s) for s in seqs])
        if items.min() < 0 or items.max() >= self.cfg.vocab:
            raise InvalidArgument("item index outside the vocabulary")
        return items, lengths

    def training_terms(self, sequences, exclude: dict[int, set] | None = None) -> TermSet:
        """The terms of the training objective over `sequences`.

        The usable sequences (length >= 2) are checked and padded once, and
        each of a sequence's terms weighs 1/(L-1). `exclude` maps a
        sequence's index in `sequences` to target positions whose terms
        weigh 0 (leave-one-sample-out retraining).
        """
        usable = [(i, s) for i, s in enumerate(sequences) if len(s) >= 2]
        if not usable:
            raise InvalidArgument("no trainable sequences (all shorter than 2)")
        items, lengths = self._padded([s for _, s in usable])
        weights = encoder.term_weight_matrix(lengths, items.shape[1])
        row_of = {i: row for row, (i, _) in enumerate(usable)}
        for i, positions in (exclude or {}).items():
            if i in row_of:
                for pos in positions:
                    if 1 <= pos < lengths[row_of[i]]:
                        weights[row_of[i], pos - 1] = 0.0
        return TermSet(items, lengths, weights)

    def _enc_weights(self, params: ParamVector, prefix: str) -> dict[str, np.ndarray]:
        """The 9 recurrent-encoder blocks stored under `prefix.`."""
        return {name: params.view(f"{prefix}.{name}") for name in encoder.encoder_shapes(1, 1)}

    def encode(self, params: ParamVector, prefix: str, table: np.ndarray, items: np.ndarray):
        """The encoder under `prefix.` run over the rows of `table` at the padded `items` (B, T).

        Returns (states (B, T, d_h), cache); states[:, k] is the state after
        consuming item k. When the table has fewer rows than the batch has
        cells, the kernel projects each table row once and gathers the
        projections (`gru_forward`'s table path); otherwise it projects
        each cell's row of `table[items]`. Both give the same states.
        """
        enc = self._enc_weights(params, prefix)
        if _over_table(table.shape[0], items):
            return encoder.gru_forward(enc, items, table=table)
        return encoder.gru_forward(enc, table[items])

    def encode_backward(self, params, prefix, cache, items, d_states, d_table, grad) -> np.ndarray:
        """Backprop through `encode` from the state gradient `d_states`.

        Writes the encoder's 9 blocks into `grad`, and returns `d_table` plus
        the gradient through the encoder's inputs. The path follows
        `encode`'s rule. Over the table, each item's pre-activation
        gradients are summed first, then projected once, and the result is
        added to `d_table`. Over the cells, each cell's input gradient is
        added at its item id, repeated items summed in row-major order after
        `d_table` (as np.add.at would). The two sums group the same terms
        differently, so they agree to rounding.
        """
        d_weights, d_inputs = encoder.gru_backward(self._enc_weights(params, prefix), cache, d_states)
        for name, val in d_weights.items():
            grad.view(f"{prefix}.{name}")[...] = val
        if _over_table(d_table.shape[0], items):
            return d_table + d_inputs
        return encoder.scatter_rows(d_table, items, d_inputs)


def _over_table(n_rows: int, items: np.ndarray) -> bool:
    """Whether an encoder projects the rows of its input table (fewer than the cells of `items`)
    rather than every cell."""
    return n_rows < items.size


# Adam's moment decays and denominator guard
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# the convergence rule: `_PATIENCE` epochs in a row each improving the loss by less than `_REL_TOL`
_REL_TOL, _PATIENCE = 1e-3, 3
_SORT_WINDOW = 8  # batches per length-sorted window of a shuffled epoch


@dataclass
class TrainConfig:
    """First-order training knobs shared by the recommender and detector models."""

    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    early_stop: bool = True

    def validate(self) -> None:
        if self.epochs < 0 or self.batch_size < 1 or not self.learning_rate > 0.0:
            raise InvalidArgument("need epochs >= 0, batch_size >= 1 and learning_rate > 0")
        if not self.clip_norm > 0.0:
            raise InvalidArgument(f"clip_norm must be > 0, got {self.clip_norm!r}")


class Adam:
    """Adaptive-moment optimizer over a flat parameter array.

    The moments are updated in place, and the step runs in two scratch
    arrays, in the same order of operations as the textbook expressions.
    """

    def __init__(self, size: int, learning_rate: float):
        self.learning_rate = learning_rate
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._step = np.empty(size)
        self._denom = np.empty(size)

    def step(self, flat_params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        step, denom = self._step, self._denom
        self.m *= _BETA1  # m = b1 m + (1 - b1) g
        self.m += np.multiply(grad, 1.0 - _BETA1, out=step)
        self.v *= _BETA2  # v = b2 v + (1 - b2) g g
        np.multiply(grad, 1.0 - _BETA2, out=step)
        step *= grad
        self.v += step
        np.divide(self.m, 1.0 - _BETA1**self.t, out=step)  # lr m_hat / (sqrt(v_hat) + eps)
        step *= self.learning_rate
        np.divide(self.v, 1.0 - _BETA2**self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += _ADAM_EPS
        step /= denom
        flat_params -= step


def clip_to_norm(vec: np.ndarray, max_norm: float) -> np.ndarray:
    """`vec` scaled down to norm `max_norm` (> 0) when it is longer."""
    norm = float(np.linalg.norm(vec))
    if norm > max_norm:
        return vec * (max_norm / norm)
    return vec


def convergence_epoch(trace) -> int | None:
    """First epoch (1-based) closing a run of `_PATIENCE` consecutive epochs
    whose relative loss improvement stays below `_REL_TOL`. None if never.

    Early stopping and the reported convergence of a run both read this rule.
    """
    run = 0
    for i in range(1, len(trace)):
        prev = trace[i - 1]
        improvement = (prev - trace[i]) / max(abs(prev), 1e-12)
        run = run + 1 if improvement < _REL_TOL else 0
        if run >= _PATIENCE:
            return i + 1
    return None


def run_training(
    loss_grad_fn,
    params: ParamVector,
    sizes: np.ndarray,
    cfg: TrainConfig,
    rng: SeededRng,
) -> list[float]:
    """Generic shuffled-minibatch Adam loop over examples of the given sizes.

    `loss_grad_fn(params, index_batch)` must return the mean loss over the
    batch and the gradient of that mean. Returns the per-epoch loss trace
    (mean of batch losses weighted by batch size). Stops early once the
    convergence rule fires when `cfg.early_stop` is set.

    Each epoch's shuffled order is re-sorted by `sizes` (one per example),
    stably, inside windows of `_SORT_WINDOW` batches, which bounds the
    padding waste of variable-length batches without giving up shuffling.
    """
    cfg.validate()
    sizes = np.asarray(sizes)
    n_examples = sizes.size
    if n_examples == 0:
        raise InvalidArgument("cannot train on an empty example set")
    opt = Adam(params.size, cfg.learning_rate)
    trace: list[float] = []
    window = cfg.batch_size * _SORT_WINDOW
    for epoch in range(1, cfg.epochs + 1):
        order = rng.gen.permutation(n_examples)
        for start in range(0, n_examples, window):
            part = order[start : start + window]
            part[...] = part[np.argsort(sizes[part], kind="stable")]
        total = 0.0
        for start in range(0, n_examples, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grad = loss_grad_fn(params, batch)
            if not np.isfinite(loss):
                raise NumericalFailure(f"non-finite training loss at epoch {epoch}")
            total += loss * len(batch)
            opt.step(params.flat, clip_to_norm(grad.flat, cfg.clip_norm))
        trace.append(total / n_examples)
        if cfg.early_stop and convergence_epoch(trace) is not None:
            break
    return trace
