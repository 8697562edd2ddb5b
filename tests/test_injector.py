import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderlab.errors import InvalidArgument
from orderlab.injector import (
    TYPES,
    FakeOrderManifest,
    InjectionConfig,
    inject,
)
from orderlab.numkit import SeededRng
from orderlab.semantics import synth_semantics, unit_rows

from conftest import toy_corpus


def two_category_semantics(n_items):
    # two orthogonal prototypes, no noise: cosine is 1 within, 0 across
    half = n_items // 2
    cats = np.array([0] * half + [1] * (n_items - half))
    return synth_semantics(cats, 16, 0.0, SeededRng(4)), cats


def restore(corpus, manifest):
    """Undo every manifest entry, reproducing the clean corpus exactly."""
    sequences = [s.copy() for s in corpus.sequences]
    for e in manifest.entries:
        sequences[e.user][e.position] = e.original_item
    return corpus.with_sequences(sequences)


def reference_manifest_save(manifest, path):
    """The manifest writer `FakeOrderManifest.save` replaced: `json.dump` to the file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest.to_json(), fh, sort_keys=True)


def planted_positions(manifest):
    return [(e.user, e.position) for e in manifest.entries]


class TestPlanAllocation:
    """Where `inject` plants, read from its manifest."""

    def test_position_fraction(self, small_synth):
        corpus, _, table = small_synth
        cfg = InjectionConfig(user_ratio=0.3, intensity=0.3)
        _, manifest = inject(corpus, table, cfg, SeededRng(8))
        total = sum(len(corpus.train_prefix(u)) for u in range(corpus.n_users))
        frac = len(manifest.entries) / total
        assert abs(frac - 0.09) < 0.012

    def test_exclusivity(self, small_synth):
        corpus, _, table = small_synth
        _, manifest = inject(corpus, table, InjectionConfig(0.5, 0.5), SeededRng(9))
        planted = planted_positions(manifest)
        assert len(planted) == len(set(planted))

    def test_saturation(self, small_synth):
        corpus, _, table = small_synth
        _, manifest = inject(corpus, table, InjectionConfig(1.0, 1.0), SeededRng(10))
        total_eligible = sum(
            max(len(corpus.train_prefix(u)) - 1, 0) for u in range(corpus.n_users)
        )
        assert len(manifest.entries) > 0.8 * total_eligible

    def test_position_zero_never_planned(self, small_synth):
        corpus, _, table = small_synth
        _, manifest = inject(corpus, table, InjectionConfig(0.6, 0.6), SeededRng(11))
        assert all(p >= 1 for (_, p) in planted_positions(manifest))

    def test_bad_knobs(self, small_synth):
        corpus, _, table = small_synth
        with pytest.raises(InvalidArgument):
            inject(corpus, table, InjectionConfig(user_ratio=0.0), SeededRng(1))
        with pytest.raises(InvalidArgument):
            inject(corpus, table, InjectionConfig(type_mix=(1.0, 1.0, 0.0)), SeededRng(1))


REPETITIVE, SEMANTIC, SEQUENTIAL = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)


def plant_one_type(corpus, table, mix, seed, intensity=0.4, **knobs):
    """`inject` with a pure `type_mix`: (poisoned corpus, manifest entries),
    which are all of that type."""
    cfg = InjectionConfig(0.6, intensity, type_mix=mix, **knobs)
    poisoned, manifest = inject(corpus, table, cfg, SeededRng(seed))
    assert {e.kind for e in manifest.entries} == {TYPES[mix.index(1.0)]}
    return poisoned, manifest.entries


def swap_corpus():
    """30 users of 22 distinct items over 40. At intensity 0.4 each budget is
    8, an even number that always fits, so a pure sequential mix plants
    swaps only (an odd or unplaceable slot would fall back to a substitute)."""
    gen = SeededRng(14).gen
    corpus = toy_corpus([gen.permutation(40)[:22] for _ in range(30)], n_items=40)
    return corpus, gen.standard_normal((40, 8))


def run_anchors(entries):
    """(user, position) -> its run's anchor: a run is a maximal block of
    consecutive repetitive positions, and its anchor precedes it."""
    marked = {(e.user, e.position) for e in entries}
    anchors = {}
    for u, p in sorted(marked):
        anchors[u, p] = anchors[u, p - 1] if (u, p - 1) in marked else p - 1
    return anchors


def swap_pairs(entries):
    """A swap's two entries follow each other in the manifest, lower position first."""
    return list(zip(entries[0::2], entries[1::2]))


class TestRepetitive:
    def test_definition(self, small_synth):
        corpus, _, table = small_synth
        poisoned, entries = plant_one_type(corpus, table, REPETITIVE, 3)
        anchors = run_anchors(entries)
        for e in entries:
            a = anchors[e.user, e.position]
            assert e.injected_item == poisoned.sequences[e.user][e.position]
            assert e.injected_item == poisoned.sequences[e.user][a] == corpus.sequences[e.user][a]
            assert e.original_item == corpus.sequences[e.user][e.position]  # originals recoverable

    def test_k_zero(self, small_synth):
        # no repetitive share: no run is planted, and every anchor item stays where it was
        corpus, _, table = small_synth
        cfg = InjectionConfig(0.6, 0.4, type_mix=(0.0, 0.5, 0.5))
        _, manifest = inject(corpus, table, cfg, SeededRng(4))
        assert manifest.entries and "repetitive" not in {e.kind for e in manifest.entries}

    def test_truncated_at_end(self):
        # runs far longer than the prefixes are cut to fit inside them
        gen = SeededRng(5).gen
        corpus = toy_corpus([gen.permutation(12)[:7] for _ in range(30)], n_items=12)
        table, _ = two_category_semantics(12)
        poisoned, entries = plant_one_type(corpus, table, REPETITIVE, 5, intensity=1.0, repeat_len=10)
        for e in entries:
            assert 1 <= e.position < len(corpus.train_prefix(e.user))
        for clean, dirty in zip(corpus.sequences, poisoned.sequences):
            np.testing.assert_array_equal(dirty[-2:], clean[-2:])

    def test_run_length_oracle(self):
        # prefixes of 18 distinct items at intensity 0.2: a budget of 4 holds a full run of 3
        corpus = toy_corpus([np.arange(20)] * 10, n_items=20)
        table, _ = two_category_semantics(20)
        poisoned, entries = plant_one_type(corpus, table, REPETITIVE, 6, intensity=0.2)
        for u in {e.user for e in entries}:
            out = poisoned.sequences[u]
            runs = 1
            best = 1
            for a, b in zip(out[:-1], out[1:]):
                runs = runs + 1 if a == b else 1
                best = max(best, runs)
            assert best >= 4  # anchor plus k replacements


class TestSemanticInjection:
    def test_lands_in_other_category(self):
        table, cats = two_category_semantics(20)
        gen = SeededRng(5).gen
        corpus = toy_corpus([gen.permutation(20)[:12] for _ in range(20)], n_items=20)
        poisoned, entries = plant_one_type(corpus, table, SEMANTIC, 5, semantic_cos_max=0.2)
        for e in entries:
            assert cats[e.injected_item] != cats[e.original_item]
            assert poisoned.sequences[e.user][e.position] == e.injected_item

    def test_low_cosine_when_possible(self, small_synth):
        corpus, _, table = small_synth
        unit = unit_rows(table)
        _, entries = plant_one_type(corpus, table, SEMANTIC, 7)
        assert all(unit[e.injected_item] @ unit[e.original_item] < 0.2 for e in entries)

    def test_fallback_to_global_minimum(self, small_synth):
        # no cosine lies below -2: each substitute is the single lowest-cosine item
        corpus, _, table = small_synth
        unit = unit_rows(table)
        _, entries = plant_one_type(corpus, table, SEMANTIC, 8, semantic_cos_max=-2.0)
        for e in entries:
            sims = unit @ unit[e.original_item]
            sims[e.original_item] = np.inf
            assert e.injected_item == int(np.argmin(sims))


class TestSequentialInjection:
    def test_swap(self):
        corpus, table = swap_corpus()
        poisoned, entries = plant_one_type(corpus, table, SEQUENTIAL, 9)
        for a, b in swap_pairs(entries):
            assert a.user == b.user and a.position < b.position
            assert (a.original_item, a.injected_item) == (b.injected_item, b.original_item)
            assert poisoned.sequences[a.user][a.position] == a.injected_item
            assert poisoned.sequences[b.user][b.position] == b.injected_item

    def test_involution(self):
        # swapping every recorded pair back restores the clean sequences
        corpus, table = swap_corpus()
        poisoned, entries = plant_one_type(corpus, table, SEQUENTIAL, 10)
        sequences = [s.copy() for s in poisoned.sequences]
        for a, b in swap_pairs(entries):
            seq = sequences[a.user]
            seq[a.position], seq[b.position] = seq[b.position], seq[a.position]
        for got, want in zip(sequences, corpus.sequences):
            np.testing.assert_array_equal(got, want)

    def test_multiset_preserved(self):
        corpus, table = swap_corpus()
        poisoned, entries = plant_one_type(corpus, table, SEQUENTIAL, 11)
        for u in {e.user for e in entries}:
            assert sorted(poisoned.sequences[u].tolist()) == sorted(corpus.sequences[u].tolist())

    def test_adjacent_rejected(self):
        # a window of 2 leaves exactly one partner distance: 2
        corpus, table = swap_corpus()
        _, entries = plant_one_type(corpus, table, SEQUENTIAL, 12, swap_window=2)
        assert {b.position - a.position for a, b in swap_pairs(entries)} == {2}

    def test_identical_items_rejected(self):
        # two items only: equal endpoints abound, and no swap exchanges them
        gen = SeededRng(13).gen
        corpus = toy_corpus([gen.integers(0, 2, size=15) for _ in range(30)], n_items=2)
        table = gen.standard_normal((2, 8))
        cfg = InjectionConfig(0.6, 0.6, type_mix=SEQUENTIAL)
        poisoned, manifest = inject(corpus, table, cfg, SeededRng(13))
        pairs = swap_pairs([e for e in manifest.entries if e.kind == "sequential"])
        assert pairs
        for a, b in pairs:
            assert a.original_item != b.original_item
            assert poisoned.sequences[a.user][a.position] != corpus.sequences[a.user][a.position]


class TestApplyPlan:
    def test_empty_plan(self, small_synth):
        # every budget rounds to zero: nothing is planted, nothing changes
        corpus, _, table = small_synth
        out, manifest = inject(corpus, table, InjectionConfig(1.0, 0.003), SeededRng(1))
        assert manifest.entries == []
        for a, b in zip(out.sequences, corpus.sequences):
            np.testing.assert_array_equal(a, b)

    def test_roundtrip_restore(self, small_synth):
        corpus, _, table = small_synth
        poisoned, manifest = inject(corpus, table, InjectionConfig(0.4, 0.4), SeededRng(21))
        restored = restore(poisoned, manifest)
        for a, b in zip(restored.sequences, corpus.sequences):
            np.testing.assert_array_equal(a, b)

    def test_lengths_preserved_and_unaffected_users_identical(self, small_synth):
        corpus, _, table = small_synth
        poisoned, manifest = inject(corpus, table, InjectionConfig(0.3, 0.3), SeededRng(22))
        touched = {e.user for e in manifest.entries}
        for u in range(corpus.n_users):
            assert len(poisoned.sequences[u]) == len(corpus.sequences[u])
            if u not in touched:
                np.testing.assert_array_equal(poisoned.sequences[u], corpus.sequences[u])

    def test_manifest_matches_changes(self, small_synth):
        corpus, _, table = small_synth
        poisoned, manifest = inject(corpus, table, InjectionConfig(0.3, 0.3), SeededRng(23))
        marked = {(e.user, e.position) for e in manifest.entries}
        changed = set()
        for u in range(corpus.n_users):
            diff = np.flatnonzero(poisoned.sequences[u] != corpus.sequences[u])
            changed.update((u, int(p)) for p in diff)
        # every changed position is marked; swap endpoints whose replanning
        # kept values equal cannot occur since identical items are rejected
        assert changed <= marked
        # marked-but-unchanged: repetitive replacement may coincide with the
        # original item only if the anchor item equals it; swaps never
        for u, p in marked - changed:
            assert poisoned.sequences[u][p] == corpus.sequences[u][p]

    def test_deterministic(self, small_synth):
        corpus, _, table = small_synth
        a_corpus, a = inject(corpus, table, InjectionConfig(0.3, 0.3), SeededRng(42))
        b_corpus, b = inject(corpus, table, InjectionConfig(0.3, 0.3), SeededRng(42))
        assert a.to_json() == b.to_json()
        for sa, sb in zip(a_corpus.sequences, b_corpus.sequences):
            np.testing.assert_array_equal(sa, sb)

    def test_type_counts_follow_mix(self, small_synth):
        corpus, _, table = small_synth
        _, manifest = inject(corpus, table, InjectionConfig(0.5, 0.4), SeededRng(24))
        kinds = [e.kind for e in manifest.entries]
        total = len(kinds)
        # small budgets structurally under-fill swaps (they need pairs), so
        # the tolerance is loose; the default mix still shows through
        for kind in ("repetitive", "semantic", "sequential"):
            assert abs(kinds.count(kind) / total - 1 / 3) < 0.15
            assert kinds.count(kind) / total > 0.15

    def test_warns_for_a_type_that_planted_nothing(self, caplog):
        # prefixes of 8 at intensity 0.25: a budget of 2 splits 1/1/0, no room for a swap
        gen = SeededRng(6).gen
        corpus = toy_corpus([gen.permutation(12)[:10] for _ in range(20)], n_items=12)
        table, _ = two_category_semantics(12)
        with caplog.at_level("WARNING", logger="orderlab.injector"):
            _, manifest = inject(corpus, table, InjectionConfig(1.0, 0.25), SeededRng(8))
        assert {e.kind for e in manifest.entries} == {"repetitive", "semantic"}
        warned = [r.getMessage() for r in caplog.records if "was planted" in r.getMessage()]
        assert len(warned) == 1 and "gives sequential" in warned[0]

    def test_manifest_json_roundtrip(self, tmp_path, small_synth):
        corpus, _, table = small_synth
        _, manifest = inject(corpus, table, InjectionConfig(0.3, 0.3), SeededRng(25))
        path = str(tmp_path / "manifest.json")
        manifest.save(path)
        loaded = FakeOrderManifest.load(path)
        assert loaded.to_json() == manifest.to_json()

    def test_manifest_file_equals_the_json_dump_writer(self, tmp_path, small_synth):
        corpus, _, table = small_synth
        _, manifest = inject(corpus, table, InjectionConfig(0.3, 0.3), SeededRng(25))
        assert {e.kind for e in manifest.entries} == {"repetitive", "semantic", "sequential"}
        got, want = tmp_path / "got.json", tmp_path / "want.json"
        manifest.save(str(got))
        reference_manifest_save(manifest, str(want))
        assert got.read_bytes() == want.read_bytes()


@st.composite
def small_corpora(draw):
    """2-4 items, 1-20 users of 5-30 orders: repeats and equal swap endpoints abound."""
    n_items = draw(st.integers(2, 4))
    item = st.integers(0, n_items - 1)
    sequences = draw(st.lists(st.lists(item, min_size=5, max_size=30), min_size=1, max_size=20))
    return toy_corpus(sequences, n_items)


@settings(max_examples=150, deadline=None)
@given(
    corpus=small_corpora(),
    user_ratio=st.floats(0.1, 1.0),
    intensity=st.floats(0.1, 1.0),
    repeat_len=st.integers(1, 4),
    swap_window=st.integers(2, 6),
    seed=st.integers(0, 2**16),
)
def test_manifest_invariants(corpus, user_ratio, intensity, repeat_len, swap_window, seed):
    table = SeededRng(seed).gen.standard_normal((corpus.n_items, 8))
    cfg = InjectionConfig(user_ratio, intensity, repeat_len=repeat_len, swap_window=swap_window)
    poisoned, manifest = inject(corpus, table, cfg, SeededRng(seed))
    planted = planted_positions(manifest)
    assert len(planted) == len(set(planted))
    for e in manifest.entries:
        assert 1 <= e.position < len(corpus.sequences[e.user]) - 2, e
    # a run is a maximal block of consecutive repetitive positions; its anchor precedes it
    repetitive = {(e.user, e.position) for e in manifest.entries if e.kind == "repetitive"}
    anchors = {(u, p - 1) for u, p in repetitive if (u, p - 1) not in repetitive}
    assert not anchors & set(planted)
    for u, a in anchors:
        assert poisoned.sequences[u][a] == poisoned.sequences[u][a + 1]
    assert [len(s) for s in poisoned.sequences] == [len(s) for s in corpus.sequences]
    for a, b in zip(restore(poisoned, manifest).sequences, corpus.sequences):
        np.testing.assert_array_equal(a, b)
