from pathlib import Path

import numpy as np
import pytest

from orderlab.corpus import Corpus
from orderlab.errors import FormatError, InvalidArgument
from orderlab.numkit import SeededRng
from orderlab.semantics import (
    load_semantic_tsv,
    reduce,
    save_semantic_tsv,
    synth_semantics,
    unit_rows,
)

from conftest import toy_corpus


def reference_save_semantic_tsv(table, corpus, path):
    """The table writer `save_semantic_tsv` replaced: one f-string per value."""
    with open(path, "w", encoding="utf-8") as fh:
        for item, row in zip(corpus.item_ids, table):
            fh.write(item + "\t" + ",".join(f"{v:.8g}" for v in row) + "\n")


class TestSaveTsv:
    def test_equals_the_per_value_writer(self, tmp_path, small_synth):
        values = [-0.0, 5e-324, 1e300, 1 / 3, -1e-300, 123456789.0, 0.1, -2.5e-8,
                  -7.0, float("inf"), float("-inf"), float("nan")]
        corpus = Corpus(["u0"], [np.array([0, 1, 2, 0])], ["é", "商品", "i2"])
        tables = [(corpus, np.array(values).reshape(3, 4)), small_synth[::2]]
        for corpus, table in tables:
            got, want = tmp_path / "got.tsv", tmp_path / "want.tsv"
            save_semantic_tsv(table, corpus, str(got))
            reference_save_semantic_tsv(table, corpus, str(want))
            assert got.read_bytes() == want.read_bytes()


class TestLoadTsv:
    def test_two_item_fixture(self, tmp_path):
        corpus = toy_corpus([[0, 1, 0, 1, 0]], n_items=2)
        p = tmp_path / "sem.tsv"
        p.write_text("i0\t1,2,3,4\ni1\t5,6,7,8\n")
        table = load_semantic_tsv(str(p), corpus)
        assert table.shape == (2, 4)
        np.testing.assert_allclose(table[1], [5, 6, 7, 8])

    def test_missing_item_named(self, tmp_path):
        corpus = toy_corpus([[0, 1, 0, 1, 0]], n_items=2)
        p = tmp_path / "sem.tsv"
        p.write_text("i0\t1,2,3,4,5,6,7,8\n")
        with pytest.raises(FormatError, match="i1"):
            load_semantic_tsv(str(p), corpus)

    def test_ragged_dims(self, tmp_path):
        corpus = toy_corpus([[0, 1, 0, 1, 0]], n_items=2)
        p = tmp_path / "sem.tsv"
        p.write_text("i0\t1,2,3,4,5,6,7,8\ni1\t1,2\n")
        with pytest.raises(FormatError):
            load_semantic_tsv(str(p), corpus)

    def test_roundtrip_within_1e6(self, tmp_path, small_synth):
        corpus, cats, table = small_synth
        p = str(tmp_path / "sem.tsv")
        save_semantic_tsv(table, corpus, p)
        loaded = load_semantic_tsv(p, corpus)
        assert np.abs(loaded - table).max() < 1e-6

    def test_insertion_order_independent(self, tmp_path, small_synth):
        corpus, _, table = small_synth
        p1 = str(tmp_path / "a.tsv")
        save_semantic_tsv(table, corpus, p1)
        lines = Path(p1).read_text().splitlines()
        p2 = str(tmp_path / "b.tsv")
        with open(p2, "w") as fh:
            fh.write("\n".join(reversed(lines)) + "\n")
        a = load_semantic_tsv(p1, corpus)
        b = load_semantic_tsv(p2, corpus)
        np.testing.assert_array_equal(a, b)


class TestSynthSemantics:
    def test_zero_noise_identical_within_category(self):
        cats = np.array([0, 0, 1, 1])
        table = synth_semantics(cats, 16, 0.0, SeededRng(3))
        unit = unit_rows(table)
        assert unit[0] @ unit[1] == pytest.approx(1.0, abs=1e-12)
        assert unit[2] @ unit[3] == pytest.approx(1.0, abs=1e-12)

    def test_intra_vs_inter_cosine(self):
        cats = np.repeat(np.arange(4), 50)
        table = synth_semantics(cats, 32, 0.1, SeededRng(5))
        unit = unit_rows(table)
        sims = unit @ unit.T
        intra, inter = [], []
        for i in range(0, 200, 7):
            for j in range(i + 1, 200, 11):
                (intra if cats[i] == cats[j] else inter).append(sims[i, j])
        assert np.mean(intra) > 0.9
        assert np.mean(inter) < 0.3

    def test_unit_norm(self):
        cats = np.array([0, 1, 2] * 10)
        table = synth_semantics(cats, 12, 0.2, SeededRng(7))
        norms = np.linalg.norm(table, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)


class TestReduce:
    def test_full_rank_keeps_distances(self):
        gen = SeededRng(9).gen
        rows = gen.standard_normal((30, 12))
        proj = reduce(rows, 12)
        centered = rows - rows.mean(0)
        d_in = np.linalg.norm(centered[:, None] - centered[None, :], axis=-1)
        d_out = np.linalg.norm(proj[:, None] - proj[None, :], axis=-1)
        np.testing.assert_allclose(d_in, d_out, atol=1e-8)

    def test_categories_separable_in_two_dims(self):
        cats = np.repeat(np.arange(2), 40)
        table = synth_semantics(cats, 24, 0.05, SeededRng(11))
        proj = reduce(table, 2)
        c0 = proj[cats == 0].mean(axis=0)
        c1 = proj[cats == 1].mean(axis=0)
        axis = c1 - c0
        scores = proj @ axis
        threshold = (c0 @ axis + c1 @ axis) / 2
        pred = scores > threshold
        assert (pred == (cats == 1)).mean() == 1.0

    def test_deterministic(self, small_synth):
        _, _, table = small_synth
        a = reduce(table, 8)
        b = reduce(table, 8)
        np.testing.assert_array_equal(a, b)

    def test_rank_guard(self):
        with pytest.raises(InvalidArgument):
            reduce(np.ones((5, 8)), 8)  # needs d_h <= items-1
