"""Per-item semantic embeddings and their PCA reduction.

A semantic table is a plain (items, dim) float64 array, one row per item
in dense item-index order. Embeddings come either from a TSV of
precomputed vectors (the interface a real language-model extraction would
fill) or from a deterministic synthetic generator built on category
prototypes.

`save_semantic_tsv` writes each row with one `%` format over its
`tolist()` values, which gives the bytes of a per-value `f"{v:.8g}"` with
the formatting done in C; rows are written as they are formatted, so the
file is never held as one string. `load_semantic_tsv` parses each row with
`map(float, ...)`.
"""
from __future__ import annotations

import logging

import numpy as np

from .corpus import Corpus
from .errors import FormatError, InvalidArgument, writing
from .numkit import SeededRng, pca_fit

log = logging.getLogger(__name__)

MIN_DIM = 8  # smallest synthetic embedding dimension; a loaded table below it is warned about


def unit_rows(table: np.ndarray) -> np.ndarray:
    """The table with each row scaled to unit norm (a zero row stays zero)."""
    norms = np.linalg.norm(table, axis=1, keepdims=True)
    return table / np.maximum(norms, 1e-12)


def load_semantic_tsv(path: str, corpus: Corpus) -> np.ndarray:
    """Read `item<TAB>v1,v2,...,vd` rows covering every vocabulary item.

    Rows are reordered to dense item-index order; values may be stored in
    single precision and are widened to float64 on load. An item listed
    twice is a FormatError.
    """
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected `item<TAB>values`")
            item, values = parts
            try:
                vec = np.asarray(list(map(float, values.split(","))), dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise FormatError(
                    f"{path}:{lineno}: item {item!r} has {vec.size} dims, expected {dim}"
                )
            if item in vectors:
                raise FormatError(f"{path}:{lineno}: item {item!r} appears more than once")
            vectors[item] = vec
    missing = [it for it in corpus.item_ids if it not in vectors]
    if missing:
        raise FormatError(f"semantic file {path} missing item {missing[0]!r} "
                          f"({len(missing)} missing in total)")
    if dim is None:
        raise FormatError(f"semantic file {path} is empty")
    if dim < MIN_DIM:
        log.warning("semantic dimension %d is below the recommended minimum of %d", dim, MIN_DIM)
    table = np.stack([vectors[it] for it in corpus.item_ids])
    if not np.all(np.isfinite(table)):
        raise FormatError(f"semantic file {path} contains non-finite values")
    return table


def save_semantic_tsv(table: np.ndarray, corpus: Corpus, path: str) -> None:
    row_format = "\t" + ",".join(["%.8g"] * table.shape[1]) + "\n"
    with writing(path) as fh:
        for item, row in zip(corpus.item_ids, table):
            fh.write(item + row_format % tuple(row.tolist()))


def synth_semantics(
    categories: np.ndarray, dim: int, noise_sigma: float, rng: SeededRng
) -> np.ndarray:
    """Unit-norm rows around one unit prototype per category.

    Prototypes are orthonormal whenever dim allows. The Gaussian noise is
    scaled per coordinate by sigma/sqrt(dim), so the total noise power is
    sigma^2 regardless of dimension and category separation is
    dimension-independent.
    """
    cats = np.asarray(categories, dtype=np.int64)
    n_cats = int(cats.max()) + 1 if cats.size else 0
    if dim < MIN_DIM:
        raise InvalidArgument(f"semantic dimension must be >= {MIN_DIM}")
    if dim < n_cats:
        log.warning("semantic dim %d below category count %d; prototypes will overlap", dim, n_cats)
    gen = rng.gen
    protos = gen.standard_normal((n_cats, dim))
    if dim >= n_cats:
        # orthonormal prototypes give well-separated categories
        protos = np.linalg.qr(protos.T)[0].T[:n_cats]
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    scale = noise_sigma / np.sqrt(dim)
    rows = protos[cats] + scale * gen.standard_normal((cats.size, dim))
    rows /= np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1e-12)
    return rows


def reduce(table: np.ndarray, d_h: int) -> np.ndarray:
    """Center the embeddings and project them onto their top d_h principal components.

    The output has one row per item and d_h columns, matching the hidden
    width the collaborative fusion expects.
    """
    n_items, dim = table.shape
    if d_h > min(n_items - 1, dim):
        raise InvalidArgument(f"cannot keep {d_h} components of a {n_items}x{dim} table")
    components, _ = pca_fit(table, d_h)
    return (table - table.mean(axis=0)) @ components
