"""Flat parameter vectors with named block views, the models' shared base, and the optimizer.

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
    by the registry passed at construction.
    """

    def __init__(self, registry: Mapping[str, tuple[int, ...]], data: np.ndarray | None = None):
        self._shapes = dict(registry)
        self._slices: dict[str, slice] = {}
        offset = 0
        for name, shape in self._shapes.items():
            size = int(np.prod(shape)) if shape else 1
            self._slices[name] = slice(offset, offset + size)
            offset += size
        self.size = offset
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


_INIT_SCALE = 0.1  # standard deviation of the initial weights


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
        """
        items, lengths = encoder.pad_sequences([self._check_items(s) for s in seqs])
        if items.min() < 0 or items.max() >= self.cfg.vocab:
            raise InvalidArgument("item index outside the vocabulary")
        return items, lengths

    def _enc_weights(self, params: ParamVector, prefix: str) -> dict[str, np.ndarray]:
        """The 9 recurrent-encoder blocks stored under `prefix.`."""
        return {name: params.view(f"{prefix}.{name}") for name in encoder.encoder_shapes(1, 1)}


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
    """Adaptive-moment optimizer over a flat parameter array."""

    def __init__(self, size: int, learning_rate: float):
        self.learning_rate = learning_rate
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, flat_params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.m = _BETA1 * self.m + (1.0 - _BETA1) * grad
        self.v = _BETA2 * self.v + (1.0 - _BETA2) * grad * grad
        mhat = self.m / (1.0 - _BETA1**self.t)
        vhat = self.v / (1.0 - _BETA2**self.t)
        flat_params -= self.learning_rate * mhat / (np.sqrt(vhat) + _ADAM_EPS)


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
    n_examples: int,
    cfg: TrainConfig,
    rng: SeededRng,
    example_size_fn,
) -> list[float]:
    """Generic shuffled-minibatch Adam loop.

    `loss_grad_fn(params, index_batch)` must return the mean loss over the
    batch and the gradient of that mean. Returns the per-epoch loss trace
    (mean of batch losses weighted by batch size). Stops early once the
    convergence rule fires when `cfg.early_stop` is set.

    Each epoch's shuffled order is re-sorted by `example_size_fn` inside
    windows of `_SORT_WINDOW` batches, which bounds the padding waste of
    variable-length batches without giving up shuffling.
    """
    cfg.validate()
    if n_examples == 0:
        raise InvalidArgument("cannot train on an empty example set")
    opt = Adam(params.size, cfg.learning_rate)
    trace: list[float] = []
    window = cfg.batch_size * _SORT_WINDOW
    for epoch in range(1, cfg.epochs + 1):
        order = rng.gen.permutation(n_examples)
        regrouped = []
        for start in range(0, n_examples, window):
            regrouped.extend(sorted(order[start : start + window], key=example_size_fn))
        order = np.asarray(regrouped)
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
