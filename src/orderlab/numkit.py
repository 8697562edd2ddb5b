"""Seeded random streams and PCA.

Every stochastic routine in the toolkit draws from a SeededRng so that a
single root seed reproduces a whole experiment. Dense matrices are plain
float64 numpy arrays throughout the package.
"""
from __future__ import annotations

import zlib
from typing import Optional

import numpy as np

from .errors import InvalidArgument


class SeededRng:
    """Deterministic RNG with labelled child streams.

    Children are derived by mixing a stable 32-bit hash of the label into
    the seed-sequence spawn path, so parallel or staged consumers can get
    independent streams that only depend on (root seed, label path).
    A SeededRng instance is single-owner: never share one across
    concurrently running tasks, spawn children instead.
    """

    def __init__(self, seed: int, _seq: Optional[np.random.SeedSequence] = None):
        self.seed = int(seed)
        self._seq = np.random.SeedSequence(self.seed) if _seq is None else _seq
        self.gen = np.random.Generator(np.random.PCG64(self._seq))

    def child(self, label) -> "SeededRng":
        key = zlib.crc32(str(label).encode("utf-8"))
        seq = np.random.SeedSequence(
            entropy=self._seq.entropy, spawn_key=tuple(self._seq.spawn_key) + (key,)
        )
        return SeededRng(self.seed, _seq=seq)

    def __repr__(self):  # pragma: no cover
        return f"SeededRng(seed={self.seed}, path={tuple(self._seq.spawn_key)})"


def pca_fit(data, r: int):
    """Top-r principal components of the sample covariance, by `np.linalg.eigh`.

    Returns (components, explained_variance); components has shape (d, r),
    one orthonormal column per component, variances non-increasing and
    clipped at zero. The largest-magnitude entry of each component is made
    positive.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidArgument(f"data must be 2-D, got shape {x.shape}")
    n, d = x.shape
    if n < 2:
        raise InvalidArgument("pca_fit needs at least 2 rows")
    if not (1 <= r <= min(n - 1, d)):
        raise InvalidArgument(f"r={r} out of range [1, {min(n - 1, d)}]")
    xc = x - x.mean(axis=0)
    cov = (xc.T @ xc) / (n - 1)
    variances, vectors = np.linalg.eigh(cov)  # ascending
    components = vectors[:, ::-1][:, :r]
    peak = components[np.argmax(np.abs(components), axis=0), np.arange(r)]
    components = components * np.where(peak < 0.0, -1.0, 1.0)
    return components, np.maximum(variances[::-1][:r], 0.0)

