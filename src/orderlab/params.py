"""Flat parameter vectors with named block views, the models' shared base, and the optimizer."""
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

    def block_names(self) -> list[str]:
        return list(self._shapes)

    def copy(self) -> "ParamVector":
        return ParamVector(self._shapes, self.flat)

    def __len__(self):
        return self.size


class BlockModel:
    """What the recommender and the dual-view model share.

    A subclass sets `registry` (block name -> shape) and a `cfg` with
    `vocab`, `max_len` and `init_scale`.
    """

    registry: dict[str, tuple[int, ...]]

    def zero_params(self) -> ParamVector:
        return ParamVector(self.registry)

    def init_params(self, rng: SeededRng) -> ParamVector:
        """Weights drawn from N(0, init_scale) in registry order; biases start at zero."""
        params = self.zero_params()
        for name in params.block_names():
            if not name.endswith("bias"):
                block = params.view(name)
                block[...] = rng.gen.normal(0.0, self.cfg.init_scale, size=block.shape)
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


@dataclass
class TrainConfig:
    """First-order training knobs shared by the recommender and detector models."""

    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 5.0
    early_stop: bool = True
    rel_tol: float = 1e-3
    patience: int = 3
    sort_window: int = 8  # batches per length-sorted window (0 disables bucketing)

    def validate(self) -> None:
        if self.epochs < 0 or self.batch_size < 1 or self.patience < 1 or self.sort_window < 0:
            raise InvalidArgument("need epochs >= 0, batch_size >= 1, patience >= 1, sort_window >= 0")
        if not (self.learning_rate > 0.0 and 0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise InvalidArgument("need learning_rate > 0 and beta1, beta2 in [0, 1)")


class Adam:
    """Adaptive-moment optimizer over a flat parameter array."""

    def __init__(self, size: int, cfg: TrainConfig):
        self.cfg = cfg
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, flat_params: np.ndarray, grad: np.ndarray) -> None:
        c = self.cfg
        self.t += 1
        self.m = c.beta1 * self.m + (1.0 - c.beta1) * grad
        self.v = c.beta2 * self.v + (1.0 - c.beta2) * grad * grad
        mhat = self.m / (1.0 - c.beta1**self.t)
        vhat = self.v / (1.0 - c.beta2**self.t)
        flat_params -= c.learning_rate * mhat / (np.sqrt(vhat) + c.adam_eps)


def clip_to_norm(vec: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if max_norm > 0.0 and norm > max_norm:
        return vec * (max_norm / norm)
    return vec


def convergence_epoch(trace, rel_tol: float = 1e-3, patience: int = 3) -> int | None:
    """First epoch (1-based) closing a run of `patience` consecutive epochs
    whose relative loss improvement stays below `rel_tol`. None if never."""
    run = 0
    for i in range(1, len(trace)):
        prev = trace[i - 1]
        improvement = (prev - trace[i]) / max(abs(prev), 1e-12)
        run = run + 1 if improvement < rel_tol else 0
        if run >= patience:
            return i + 1
    return None


def run_training(
    loss_grad_fn,
    params: ParamVector,
    n_examples: int,
    cfg: TrainConfig,
    rng: SeededRng,
    example_size_fn=None,
) -> list[float]:
    """Generic shuffled-minibatch Adam loop.

    `loss_grad_fn(params, index_batch)` must return the mean loss over the
    batch and the gradient of that mean. Returns the per-epoch loss trace
    (mean of batch losses weighted by batch size). Stops early once the
    convergence rule fires when `cfg.early_stop` is set.

    When `example_size_fn` is given, the shuffled order is re-sorted by
    example size inside windows of `sort_window` batches, which bounds the
    padding waste of variable-length batches without giving up shuffling.
    """
    if n_examples == 0:
        raise InvalidArgument("cannot train on an empty example set")
    opt = Adam(params.size, cfg)
    trace: list[float] = []
    window = cfg.batch_size * max(cfg.sort_window, 0)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.gen.permutation(n_examples)
        if example_size_fn is not None and window > 0:
            regrouped = []
            for start in range(0, n_examples, window):
                chunk = sorted(order[start : start + window], key=example_size_fn)
                regrouped.extend(chunk)
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
        if cfg.early_stop and convergence_epoch(trace, cfg.rel_tol, cfg.patience) is not None:
            break
    return trace
