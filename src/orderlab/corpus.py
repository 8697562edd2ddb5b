"""Interaction corpora: ingestion, filtering, splits and detector statistics.

A corpus holds per-user chronological item sequences over a dense item
vocabulary, plus the popularity and bigram-transition statistics the
detector consumes. Statistics are computed from leave-one-out train
prefixes only (the last two positions of every sequence are held out), so
validation/test targets never leak into detection features.

Transition counts are stored as arrays: every observed pair (i, j) is the
integer key i * V + j, kept sorted with its count, and a transition
probability is looked up by binary search. `Corpus.bigram_logprob` works
elementwise, so a whole batch of transitions is scored in one call.

`Corpus.save` and `FakeOrderManifest.save` write through `write_json_sorted`,
which gives the bytes of `json.dump(doc, fh, sort_keys=True)`. `json.dump`
to a file runs the pure-Python encoder, several times slower. One
`json.dumps` of the whole document runs the C encoder, but on Python 3.11
it keeps every encoded number as its own string until it joins them (9-16
bytes of memory per byte written); so the C encoder encodes one element of
a top-level list at a time. `synth_corpus` draws the generator user by
user, then builds every user's category chain and items over all users.
"""
from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCorpus, FormatError, InvalidArgument, reading, writing
from .numkit import SeededRng

log = logging.getLogger(__name__)

SNAPSHOT_FORMAT = "orderlab-corpus/1"


def write_json_sorted(path: str, doc: dict) -> None:
    """Write the non-empty dict `doc` atomically, with the bytes of
    `json.dump(doc, fh, sort_keys=True)`.

    The C encoder encodes each top-level value, and each element of a
    top-level list, and every piece is written as it is made.
    """
    encode = json.JSONEncoder(sort_keys=True).encode
    with writing(path) as fh:
        for n, key in enumerate(sorted(doc)):
            fh.write(("{" if n == 0 else ", ") + encode(key) + ": ")
            value = doc[key]
            if isinstance(value, list):
                fh.write("[")
                for i, item in enumerate(value):
                    fh.write(", " + encode(item) if i else encode(item))
                fh.write("]")
            else:
                fh.write(encode(value))
        fh.write("}")


@dataclass
class Corpus:
    user_ids: list[str]
    sequences: list[np.ndarray]  # dense item indices, chronological
    item_ids: list[str]
    counts: np.ndarray = field(init=False, repr=False)  # train-prefix popularity
    # sorted pair keys i * V + j, ending in the sentinel V * V with count 0
    bigram_keys: np.ndarray = field(init=False, repr=False)
    bigram_counts: np.ndarray = field(init=False, repr=False)
    bigram_totals: np.ndarray = field(init=False, repr=False)  # transitions out of i

    def __post_init__(self):
        self._recompute_stats()

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def train_prefix(self, user: int) -> np.ndarray:
        """Leave-one-out training portion: everything but the last two items."""
        return self.sequences[user][:-2]

    def _recompute_stats(self) -> None:
        v = self.n_items
        lengths = np.fromiter(map(len, self.sequences), np.int64, self.n_users)
        flat = np.concatenate(self.sequences)
        pos = np.arange(flat.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        in_prefix = pos < np.repeat(lengths - 2, lengths)
        # a pair ends at every prefix item that has a predecessor in the same prefix
        ends = in_prefix[1:] & (pos[1:] > 0)
        pair_keys = flat[:-1][ends] * v + flat[1:][ends]
        keys, pair_counts = np.unique(pair_keys, return_counts=True)
        self.counts = np.bincount(flat[in_prefix], minlength=v)
        self.bigram_keys = np.append(keys, v * v)
        self.bigram_counts = np.append(pair_counts, 0)
        self.bigram_totals = np.bincount(pair_keys // v, minlength=v)

    def bigram_logprob(self, i, j):
        """Laplace-smoothed transition log-probability log P(j | i), elementwise."""
        i = np.asarray(i, dtype=np.int64)
        key = i * self.n_items + np.asarray(j, dtype=np.int64)
        at = np.searchsorted(self.bigram_keys, key)
        cnt = np.where(self.bigram_keys[at] == key, self.bigram_counts[at], 0)
        return np.log(cnt + 1) - np.log(self.bigram_totals[i] + self.n_items)

    def with_sequences(self, sequences: list[np.ndarray]) -> "Corpus":
        """Same vocabulary, new sequences, statistics recomputed."""
        if len(sequences) != self.n_users:
            raise InvalidArgument("sequence list does not match the user list")
        seqs = [np.asarray(s, dtype=np.int64).copy() for s in sequences]
        return Corpus(list(self.user_ids), seqs, list(self.item_ids))

    def save(self, path: str) -> None:
        """Write the users, items and sequences as one JSON snapshot."""
        doc = {
            "format": SNAPSHOT_FORMAT,
            "users": list(self.user_ids),
            "items": list(self.item_ids),
            "sequences": [seq.tolist() for seq in self.sequences],
        }
        write_json_sorted(path, doc)

    @classmethod
    def load(cls, path: str) -> "Corpus":
        """The snapshot `save` wrote; every item index must lie in its item list,
        and no user id may repeat (a user's evaluation negatives are drawn from
        a stream named by its id)."""
        with open(path, encoding="utf-8") as fh, reading(path):
            doc = json.load(fh)
            if doc.get("format") != SNAPSHOT_FORMAT:
                raise FormatError(f"unexpected corpus snapshot format {doc.get('format')!r}")
            seqs = [np.asarray(s, dtype=np.int64) for s in doc["sequences"]]
            flat = np.concatenate(seqs)
            if flat.size and (flat.min() < 0 or flat.max() >= len(doc["items"])):
                raise FormatError(f"item index outside the {len(doc['items'])} items")
            users = list(doc["users"])
            if len(set(users)) < len(users):
                repeated = next(user for user, n in Counter(users).items() if n > 1)
                raise FormatError(f"user id {repeated!r} appears more than once")
            return cls(users, seqs, list(doc["items"]))


@dataclass
class LooSplit:
    """Per-user leave-one-out split: train prefix, validation and test targets."""

    users: list[int]  # user indices with usable sequences
    prefixes: list[np.ndarray]
    valid_targets: np.ndarray
    test_targets: np.ndarray
    skipped: list[int]


def load_interactions(path: str) -> list[tuple[str, str, int]]:
    """Parse a `user<TAB>item<TAB>timestamp` TSV; `#` lines are comments.

    Malformed lines are counted and reported; more than 1% of data lines
    malformed raises FormatError. Unreadable files raise the underlying
    OSError.
    """
    records: list[tuple[str, str, int]] = []
    malformed = 0
    total = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            total += 1
            parts = line.split("\t")
            if len(parts) != 3:
                malformed += 1
                continue
            user, item, ts = parts
            try:
                records.append((user, item, int(ts)))
            except ValueError:
                malformed += 1
    if total == 0:
        log.warning("no interaction records in %s", path)
    if malformed:
        log.warning("%d of %d lines malformed in %s", malformed, total, path)
        if malformed > 0.01 * total:
            raise FormatError(f"{malformed}/{total} malformed lines in {path}")
    return records


def build_corpus(raw, min_user: int, min_item: int) -> Corpus:
    """Iteratively drop low-activity users/items, then densify and index.

    Sequences are ordered by timestamp with input order breaking ties;
    duplicate (user, item, timestamp) rows are kept. Raises EmptyCorpus
    when filtering (or the input) leaves nothing.
    """
    kept = list(raw)
    if not kept:
        raise EmptyCorpus("no interactions to build from")
    while True:
        user_counts = Counter(r[0] for r in kept)
        item_counts = Counter(r[1] for r in kept)
        bad_users = {u for u, c in user_counts.items() if c < min_user}
        bad_items = {i for i, c in item_counts.items() if c < min_item}
        if not bad_users and not bad_items:
            break
        kept = [r for r in kept if r[0] not in bad_users and r[1] not in bad_items]
        if not kept:
            raise EmptyCorpus("activity filtering removed every interaction")

    user_ids: list[str] = []
    item_ids: list[str] = []
    user_pos: dict[str, int] = {}
    item_pos: dict[str, int] = {}
    per_user: list[list[tuple[int, int, int]]] = []  # (ts, arrival, item index)
    for arrival, (user, item, ts) in enumerate(kept):
        if user not in user_pos:
            user_pos[user] = len(user_ids)
            user_ids.append(user)
            per_user.append([])
        if item not in item_pos:
            item_pos[item] = len(item_ids)
            item_ids.append(item)
        per_user[user_pos[user]].append((ts, arrival, item_pos[item]))
    sequences = []
    for rows in per_user:
        rows.sort(key=lambda r: (r[0], r[1]))
        sequences.append(np.asarray([r[2] for r in rows], dtype=np.int64))
    return Corpus(user_ids, sequences, item_ids)


def leave_one_out(corpus: Corpus) -> LooSplit:
    """Last item = test target, second-to-last = validation target."""
    users, prefixes, valid, test, skipped = [], [], [], [], []
    for u, seq in enumerate(corpus.sequences):
        if len(seq) < 3:
            skipped.append(u)
            continue
        users.append(u)
        prefixes.append(seq[:-2])
        valid.append(int(seq[-2]))
        test.append(int(seq[-1]))
    if skipped:
        log.warning("leave_one_out skipped %d users with sequences shorter than 3", len(skipped))
    return LooSplit(
        users,
        prefixes,
        np.asarray(valid, dtype=np.int64),
        np.asarray(test, dtype=np.int64),
        skipped,
    )


def sample_negatives(corpus: Corpus, user: int, n: int, rng: SeededRng) -> np.ndarray:
    """n distinct items the user never interacted with, uniform over that set."""
    seen = np.zeros(corpus.n_items, dtype=bool)
    seen[corpus.sequences[user]] = True
    candidates = np.flatnonzero(~seen)
    if candidates.size < n:
        raise InvalidArgument(
            f"user {user} has only {candidates.size} unseen items, needs {n}"
        )
    return rng.gen.choice(candidates, size=n, replace=False)


@dataclass
class SynthConfig:
    """Sticky-category Markov generator for ground-truth experiments."""

    users: int = 2000
    items: int = 500
    categories: int = 4
    mean_length: int = 50
    zipf_exponent: float = 1.1
    stay_prob: float = 0.85
    min_length: int = 5
    max_length: int = 200

    def validate(self) -> None:
        """Reject a generator no stage can use: each user needs 2 target orders and a prefix."""
        if self.users < 1 or not (1 <= self.categories <= self.items):
            raise InvalidArgument("synthetic data needs users >= 1 and 1 <= categories <= items")
        if not (3 <= self.min_length <= self.mean_length and self.min_length <= self.max_length):
            raise InvalidArgument(
                "synthetic lengths need 3 <= min_length <= mean_length and min_length <= max_length"
            )
        if not (0.0 <= self.stay_prob <= 1.0):
            raise InvalidArgument(f"stay_prob must lie in [0, 1], got {self.stay_prob!r}")


def synth_corpus(cfg: SynthConfig, rng: SeededRng) -> tuple[Corpus, np.ndarray]:
    """Generate a corpus plus the per-item category assignment.

    Items are split into `categories` contiguous blocks; each user walks a
    sticky category chain (stay probability cfg.stay_prob) and draws items
    inside the current category by Zipf popularity. Lengths are geometric
    with the configured mean, clipped to [min_length, max_length].
    """
    cfg.validate()
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
    ends = np.cumsum(lengths)
    starts = ends - lengths
    # the generator is drawn user by user, in the order of the per-step chain it
    # replaced (a single category still draws its moves); the chains and the items
    # are then built over all users at once
    steps = np.zeros(int(ends[-1]), dtype=np.int64)  # the first category, then 0 or a jump
    stays = np.zeros(steps.size, dtype=bool)
    picks = np.empty(steps.size)
    for a, b in zip(starts.tolist(), ends.tolist()):
        steps[a] = gen.integers(cfg.categories)
        stays[a + 1 : b] = gen.random(b - a - 1) < cfg.stay_prob
        if cfg.categories > 1:
            steps[a + 1 : b] = gen.integers(1, cfg.categories, size=b - a - 1)
        gen.random(out=picks[a:b])
    steps[stays] = 0
    # a chain is the running sum of its steps: each user's first step cancels the
    # sum of the user before, so one running sum serves every user
    steps[starts[1:]] -= np.add.reduceat(steps, starts)[:-1]
    cats = np.remainder(np.cumsum(steps, out=steps), cfg.categories, out=steps)
    flat = np.empty(cats.size, dtype=np.int64)
    for c in range(cfg.categories):
        mask = cats == c
        flat[mask] = cat_items[c][np.searchsorted(cdfs[c], picks[mask])]

    # densify over the items that actually appear, preserving id order
    used = np.zeros(cfg.items, dtype=bool)
    used[flat] = True
    dense_of = -np.ones(cfg.items, dtype=np.int64)
    dense_of[used] = np.arange(int(used.sum()))
    width = len(str(cfg.items - 1))
    item_ids = [f"i{k:0{width}d}" for k in np.flatnonzero(used)]
    uwidth = len(str(cfg.users - 1))
    user_ids = [f"u{k:0{uwidth}d}" for k in range(cfg.users)]
    sequences = np.split(dense_of[flat], starts[1:])
    corpus = Corpus(user_ids, sequences, item_ids)
    return corpus, cat_of[used].copy()
