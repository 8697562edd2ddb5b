import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from orderlab.corpus import (
    SNAPSHOT_FORMAT,
    Corpus,
    SynthConfig,
    build_corpus,
    leave_one_out,
    load_interactions,
    sample_negatives,
    synth_corpus,
)
from orderlab.errors import EmptyCorpus, FormatError, InvalidArgument
from orderlab.numkit import SeededRng

from conftest import toy_corpus


def reference_corpus_save(corpus, path):
    """The snapshot writer `Corpus.save` replaced: `json.dump` over lists of ints."""
    doc = {
        "format": SNAPSHOT_FORMAT,
        "users": list(corpus.user_ids),
        "items": list(corpus.item_ids),
        "sequences": [[int(i) for i in seq] for seq in corpus.sequences],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row + "\n")


class TestLoadInteractions:
    def test_three_line_fixture(self, tmp_path):
        p = tmp_path / "log.tsv"
        write_tsv(p, ["u1\ti1\t3", "u1\ti2\t1", "u2\ti1\t2"])
        records = load_interactions(str(p))
        assert records == [("u1", "i1", 3), ("u1", "i2", 1), ("u2", "i1", 2)]

    def test_empty_file(self, tmp_path, caplog):
        p = tmp_path / "empty.tsv"
        p.write_text("")
        with caplog.at_level("WARNING"):
            assert load_interactions(str(p)) == []
        assert "no interaction records" in caplog.text

    def test_comments_ignored(self, tmp_path):
        p = tmp_path / "log.tsv"
        write_tsv(p, ["# header", "u1\ti1\t1"])
        assert load_interactions(str(p)) == [("u1", "i1", 1)]

    def test_malformed_over_one_percent(self, tmp_path):
        p = tmp_path / "bad.tsv"
        write_tsv(p, ["u1\ti1\t1", "garbage line", "u2\ti2\tnot_an_int"])
        with pytest.raises(FormatError):
            load_interactions(str(p))

    def test_unreadable(self, tmp_path):
        with pytest.raises(OSError):
            load_interactions(str(tmp_path / "missing.tsv"))


def dense_raw(n_users=6, n_items=8, length=10):
    rows = []
    for u in range(n_users):
        for t in range(length):
            rows.append((f"u{u}", f"i{(u + t) % n_items}", t))
    return rows


class TestBuildCorpus:
    def test_nothing_dropped(self):
        corpus = build_corpus(dense_raw(), min_user=5, min_item=5)
        assert corpus.n_users == 6
        assert all(len(s) == 10 for s in corpus.sequences)

    def test_low_activity_user_dropped(self):
        raw = dense_raw() + [("lurker", "i0", 0), ("lurker", "i1", 1)]
        corpus = build_corpus(raw, min_user=5, min_item=5)
        assert "lurker" not in corpus.user_ids

    def test_everything_dropped(self):
        with pytest.raises(EmptyCorpus):
            build_corpus([("u", "i", 0)], min_user=5, min_item=5)
        with pytest.raises(EmptyCorpus):
            build_corpus([], min_user=5, min_item=5)

    def test_timestamp_order_ties_by_input_order(self):
        raw = [("u", f"i{k}", 9) for k in range(5)] + [("u", "i5", 1)]
        corpus = build_corpus(raw, min_user=1, min_item=1)
        seq = [corpus.item_ids[i] for i in corpus.sequences[0]]
        assert seq == ["i5", "i0", "i1", "i2", "i3", "i4"]

    def test_reindex_bijection(self):
        raw = dense_raw()
        corpus = build_corpus(raw, min_user=5, min_item=5)
        assert len(set(corpus.item_ids)) == corpus.n_items == 8
        assert len(set(corpus.user_ids)) == corpus.n_users == 6
        for user, seq in zip(corpus.user_ids, corpus.sequences):
            expected = [item for u, item, _ in raw if u == user]
            assert [corpus.item_ids[i] for i in seq] == expected

    def test_idempotent_on_own_output(self):
        corpus = build_corpus(dense_raw(), min_user=5, min_item=5)
        records = [
            (u, corpus.item_ids[int(it)], t)
            for u, seq in zip(corpus.user_ids, corpus.sequences)
            for t, it in enumerate(seq)
        ]
        again = build_corpus(records, min_user=5, min_item=5)
        assert again.user_ids == corpus.user_ids
        assert again.item_ids == corpus.item_ids
        for a, b in zip(again.sequences, corpus.sequences):
            np.testing.assert_array_equal(a, b)

    def test_bigram_rows_are_distributions(self, small_synth):
        corpus = small_synth[0]
        for i in [0, 3, corpus.n_items - 1]:
            row = [np.exp(corpus.bigram_logprob(i, j)) for j in range(corpus.n_items)]
            assert abs(sum(row) - 1.0) < 1e-9

    def test_stats_equal_counter_reference(self, small_synth):
        corpus = small_synth[0]
        v = corpus.n_items
        items, pairs, outgoing = Counter(), Counter(), Counter()
        for seq in corpus.sequences:
            prefix = [int(i) for i in seq[:-2]]
            items.update(prefix)
            pairs.update(zip(prefix[:-1], prefix[1:]))
            outgoing.update(prefix[:-1])
        np.testing.assert_array_equal(corpus.counts, [items[i] for i in range(v)])
        np.testing.assert_array_equal(corpus.bigram_totals, [outgoing[i] for i in range(v)])
        got = [corpus.bigram_logprob(i, j) for i in range(v) for j in range(v)]
        expected = [
            np.log(pairs[i, j] + 1) - np.log(outgoing[i] + v) for i in range(v) for j in range(v)
        ]
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)
        i, j = np.divmod(np.arange(v * v), v)
        np.testing.assert_array_equal(corpus.bigram_logprob(i, j), got)  # elementwise

    def test_no_transitions(self):
        # every train prefix has length <= 1: no pair is counted
        corpus = toy_corpus([[0, 1, 2], [3, 4, 5], [1, 2]], n_items=6)
        np.testing.assert_array_equal(corpus.counts, [1, 0, 0, 1, 0, 0])
        np.testing.assert_array_equal(corpus.bigram_totals, 0)
        assert corpus.bigram_logprob(0, 3) == pytest.approx(-np.log(6), rel=1e-15)
        assert corpus.bigram_logprob(5, 5) == pytest.approx(-np.log(6), rel=1e-15)

    def test_stats_from_train_prefix_only(self):
        # the held-out validation/test items never enter counts or bigrams
        corpus = toy_corpus([[0, 1, 0, 1, 2, 3]], n_items=4)
        assert corpus.counts[2] == 0 and corpus.counts[3] == 0
        assert corpus.counts[0] == 2 and corpus.counts[1] == 2

    def test_snapshot_roundtrip(self, tmp_path, small_synth):
        corpus = small_synth[0]
        path = str(tmp_path / "corpus.json")
        corpus.save(path)
        loaded = Corpus.load(path)
        assert loaded.user_ids == corpus.user_ids
        assert loaded.item_ids == corpus.item_ids
        for a, b in zip(loaded.sequences, corpus.sequences):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded.counts, corpus.counts)

    def test_snapshot_equals_the_json_dump_writer(self, tmp_path, small_synth):
        non_ascii = Corpus(
            ["ü0", "用户1", 'u"2\\', "😀"],
            [np.array(s) for s in ([0, 1, 2], [3, 3, 0, 1], [2, 0, 1, 3, 2], [1, 2, 3])],
            ["é", "商品", "i\t2", "x"],
        )
        for corpus in (non_ascii, small_synth[0]):
            got, want = tmp_path / "got.json", tmp_path / "want.json"
            corpus.save(str(got))
            reference_corpus_save(corpus, str(want))
            assert got.read_bytes() == want.read_bytes()


class TestLeaveOneOut:
    def test_four_item_sequence(self):
        corpus = toy_corpus([[10, 11, 12, 13]], n_items=14)
        split = leave_one_out(corpus)
        np.testing.assert_array_equal(split.prefixes[0], [10, 11])
        assert split.valid_targets[0] == 12
        assert split.test_targets[0] == 13

    def test_length_three(self):
        split = leave_one_out(toy_corpus([[1, 2, 3]], n_items=4))
        assert len(split.prefixes[0]) == 1

    def test_too_short_skipped(self):
        split = leave_one_out(toy_corpus([[1, 2], [1, 2, 3]], n_items=4))
        assert split.skipped == [0]
        assert split.users == [1]

    def test_conservation(self, small_synth):
        corpus = small_synth[0]
        split = leave_one_out(corpus)
        assert sum(len(p) + 2 for p in split.prefixes) == sum(map(len, corpus.sequences))


class TestSampleNegatives:
    def test_exact_complement(self):
        corpus = toy_corpus([list(range(8))], n_items=10)
        negs = sample_negatives(corpus, 0, 2, SeededRng(1))
        assert sorted(negs.tolist()) == [8, 9]

    def test_deterministic(self):
        corpus = toy_corpus([list(range(5))], n_items=40)
        a = sample_negatives(corpus, 0, 10, SeededRng(3))
        b = sample_negatives(corpus, 0, 10, SeededRng(3))
        np.testing.assert_array_equal(a, b)

    def test_insufficient_candidates(self):
        corpus = toy_corpus([list(range(8))], n_items=10)
        with pytest.raises(InvalidArgument):
            sample_negatives(corpus, 0, 3, SeededRng(1))

    def test_chi_square_uniformity(self):
        # 50 eligible items, 10k single draws: uniformity not rejected at p=0.01
        corpus = toy_corpus([list(range(10))], n_items=60)
        root = SeededRng(11)
        counts = np.zeros(60)
        for k in range(10000):
            item = sample_negatives(corpus, 0, 1, root.child(k))[0]
            counts[item] += 1
        assert counts[:10].sum() == 0
        _, p = stats.chisquare(counts[10:])
        assert p > 0.01


class TestSynthCorpus:
    def test_single_category_degenerates(self):
        cfg = SynthConfig(users=30, items=10, categories=1, mean_length=12)
        corpus, cats = synth_corpus(cfg, SeededRng(5))
        assert set(cats.tolist()) == {0}
        same = sum(
            int(a == b)
            for seq in corpus.sequences
            for a, b in zip(cats[seq[:-1]], cats[seq[1:]])
        )
        total = sum(len(s) - 1 for s in corpus.sequences)
        assert same == total

    def test_stay_probability_matches(self):
        cfg = SynthConfig(users=2500, items=100, categories=4, mean_length=50)
        corpus, cats = synth_corpus(cfg, SeededRng(6))
        same = 0
        total = 0
        for seq in corpus.sequences:
            c = cats[seq]
            same += int((c[:-1] == c[1:]).sum())
            total += len(seq) - 1
        assert total >= 100000
        assert abs(same / total - 0.85) < 0.02

    def test_deterministic(self):
        cfg = SynthConfig(users=40, items=30, categories=3, mean_length=10)
        a, ca = synth_corpus(cfg, SeededRng(9))
        b, cb = synth_corpus(cfg, SeededRng(9))
        assert a.user_ids == b.user_ids and a.item_ids == b.item_ids
        np.testing.assert_array_equal(ca, cb)
        for sa, sb in zip(a.sequences, b.sequences):
            np.testing.assert_array_equal(sa, sb)

    def test_lengths_clipped(self):
        cfg = SynthConfig(users=200, items=50, categories=2, mean_length=6)
        corpus, _ = synth_corpus(cfg, SeededRng(10))
        lengths = [len(s) for s in corpus.sequences]
        assert min(lengths) >= 5 and max(lengths) <= 200

    def test_infeasible_config(self):
        with pytest.raises(InvalidArgument):
            synth_corpus(SynthConfig(items=2, categories=5), SeededRng(1))

    @settings(max_examples=200, deadline=None)
    @given(items=st.integers(1, 40), data=st.data())
    def test_validate_accepts_exactly_the_splits_that_fill_every_category(self, items, data):
        # a stay probability of 0 jumps at every order: 2,000 orders visit every category
        categories = data.draw(st.integers(1, items))
        cfg = SynthConfig(users=200, items=items, categories=categories, mean_length=10, stay_prob=0.0)
        try:
            cfg.validate()
            accepted = True
        except InvalidArgument:
            accepted = False
        with mock.patch.object(SynthConfig, "validate", lambda self: None):
            try:
                _, cats = synth_corpus(cfg, SeededRng(items))
                filled = np.unique(cats).size == categories
            except IndexError:  # an empty category has no item to draw
                filled = False
        assert accepted == filled

    @pytest.mark.parametrize("categories", [1, 2, 4, 8])
    @pytest.mark.parametrize("stay_prob", [0.0, 0.5, 0.85, 1.0])
    def test_equals_the_per_step_chain(self, categories, stay_prob):
        """Same corpus, categories and next draw as the per-order loop it replaced."""
        for length in (5, 30, 200):
            cfg = SynthConfig(users=12, items=40, categories=categories, mean_length=length,
                              stay_prob=stay_prob, min_length=3, max_length=2 * length)
            for seed in range(5):
                got_rng, want_rng = SeededRng(seed), SeededRng(seed)
                got, got_cats = synth_corpus(cfg, got_rng)
                want, want_cats = reference_synth_corpus(cfg, want_rng)
                assert got.user_ids == want.user_ids and got.item_ids == want.item_ids
                np.testing.assert_array_equal(got_cats, want_cats)
                for a, b in zip(got.sequences, want.sequences, strict=True):
                    np.testing.assert_array_equal(a, b)
                assert got_rng.gen.random() == want_rng.gen.random()


def reference_synth_corpus(cfg, rng):
    """The generator as it stepped through every order of every user in Python."""
    gen = rng.gen
    cat_of = np.repeat(np.arange(cfg.categories), -(-cfg.items // cfg.categories))[: cfg.items]
    cat_items = [np.flatnonzero(cat_of == c) for c in range(cfg.categories)]
    cdfs = []
    for members in cat_items:
        weights = np.arange(1, members.size + 1, dtype=np.float64) ** (-cfg.zipf_exponent)
        cdfs.append(np.cumsum(weights / weights.sum()))
    lengths = np.clip(
        gen.geometric(1.0 / cfg.mean_length, size=cfg.users), cfg.min_length, cfg.max_length
    )
    raw_sequences = []
    for u in range(cfg.users):
        ln = int(lengths[u])
        cats = np.empty(ln, dtype=np.int64)
        cats[0] = gen.integers(cfg.categories)
        moves = gen.random(ln - 1)
        if cfg.categories > 1:
            jumps = gen.integers(1, cfg.categories, size=ln - 1)
        else:
            jumps = np.zeros(ln - 1, dtype=np.int64)
        for t in range(1, ln):
            if moves[t - 1] < cfg.stay_prob:
                cats[t] = cats[t - 1]
            else:
                cats[t] = (cats[t - 1] + jumps[t - 1]) % cfg.categories
        picks = gen.random(ln)
        items = np.empty(ln, dtype=np.int64)
        for c in range(cfg.categories):
            mask = cats == c
            if mask.any():
                items[mask] = cat_items[c][np.searchsorted(cdfs[c], picks[mask])]
        raw_sequences.append(items)
    used = np.zeros(cfg.items, dtype=bool)
    for seq in raw_sequences:
        used[seq] = True
    dense_of = -np.ones(cfg.items, dtype=np.int64)
    dense_of[used] = np.arange(int(used.sum()))
    width = len(str(cfg.items - 1))
    item_ids = [f"i{k:0{width}d}" for k in np.flatnonzero(used)]
    uwidth = len(str(cfg.users - 1))
    user_ids = [f"u{k:0{uwidth}d}" for k in range(cfg.users)]
    sequences = [dense_of[seq] for seq in raw_sequences]
    return Corpus(user_ids, sequences, item_ids), cat_of[used].copy()


class TestWithSequences:
    def test_stats_recomputed(self):
        corpus = toy_corpus([[0, 1, 0, 1, 2, 3]], n_items=4)
        swapped = corpus.with_sequences([np.asarray([1, 0, 1, 0, 2, 3])])
        assert swapped.counts[0] == 2
        assert corpus.bigram_logprob(0, 1) != swapped.bigram_logprob(0, 0)

    def test_wrong_user_count(self):
        corpus = toy_corpus([[0, 1, 2, 3, 4]], n_items=5)
        with pytest.raises(InvalidArgument):
            corpus.with_sequences([])
