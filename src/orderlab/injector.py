"""Fake-order injection: plant manipulations inside genuine sequences.

Three manipulation types, all length-preserving and mutually exclusive per
position:

* repetitive - an anchor item is copied over the k following positions
  (click-farming runs); the anchor itself stays genuine.
* semantic   - an item is replaced by one with embedding cosine below a
  threshold (an out-of-context item).
* sequential - two non-adjacent items inside a window swap places.

`inject` works in one pass. It draws the affected users from its "plan"
stream; then, user by user in index order, `_plan_user` draws that user's
positions from the same stream, and the ops are applied at once: swaps,
then runs, then substitutes, whose items come from the "apply" stream.

Every realized manipulation is recorded in a manifest, which holds:

* every entry lies in its user's train prefix at a position >= 1, so
  position 0 and the last two positions (the validation and test
  targets) stay genuine;
* the anchor of a repetitive run is never an entry;
* each (user, position) pair appears once;
* sequence lengths are unchanged, and undoing the entries restores the
  clean corpus exactly.
"""
from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import Corpus, write_json_sorted
from .errors import FormatError, InvalidArgument, reading
from .numkit import SeededRng
from .semantics import unit_rows

log = logging.getLogger(__name__)

TYPES = ("repetitive", "semantic", "sequential")

MANIFEST_FORMAT = "orderlab-manifest/1"


@dataclass
class InjectionConfig:
    user_ratio: float = 0.3
    intensity: float = 0.3
    type_mix: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)  # repetitive, semantic, sequential
    repeat_len: int = 3
    swap_window: int = 5
    semantic_cos_max: float = 0.2

    def validate(self) -> None:
        if not (0.0 < self.user_ratio <= 1.0 and 0.0 < self.intensity <= 1.0):
            raise InvalidArgument("user_ratio and intensity must lie in (0, 1]")
        if abs(sum(self.type_mix) - 1.0) > 1e-9 or any(m < 0 for m in self.type_mix):
            raise InvalidArgument("type_mix must be non-negative and sum to 1")
        if self.repeat_len < 1 or self.swap_window < 2:
            raise InvalidArgument("repeat_len >= 1 and swap_window >= 2 required")


@dataclass
class ManifestEntry:
    user: int
    position: int
    kind: str
    original_item: int
    injected_item: int


@dataclass
class FakeOrderManifest:
    entries: list[ManifestEntry]
    knobs: dict
    seed: int

    def truth(self) -> dict[tuple[int, int], str]:
        """(user, position) -> fake-order type of every planted position."""
        return {(e.user, e.position): e.kind for e in self.entries}

    def to_json(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "header": {"knobs": self.knobs, "seed": self.seed},
            "entries": [
                {
                    "user": e.user,
                    "position": e.position,
                    "type": e.kind,
                    "original_item": e.original_item,
                    "injected_item": e.injected_item,
                }
                for e in self.entries
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FakeOrderManifest":
        if doc.get("format") != MANIFEST_FORMAT:
            raise FormatError(f"unexpected manifest format {doc.get('format')!r}")
        entries = [
            ManifestEntry(d["user"], d["position"], d["type"], d["original_item"], d["injected_item"])
            for d in doc["entries"]
        ]
        return cls(entries, doc["header"]["knobs"], doc["header"]["seed"])

    def save(self, path: str) -> None:
        write_json_sorted(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "FakeOrderManifest":
        with open(path, encoding="utf-8") as fh, reading(path):
            return cls.from_json(json.load(fh))


# --- planning -------------------------------------------------------------

def _split_budget(budget: int, mix) -> tuple[int, int, int]:
    """Integer split of the per-user budget across types, largest-remainder."""
    raw = np.asarray(mix, dtype=np.float64) * budget
    base = np.floor(raw).astype(int)
    base[np.argsort(-(raw - base), kind="stable")[: budget - int(base.sum())]] += 1
    return int(base[0]), int(base[1]), int(base[2])


def _partners(p: int, free: np.ndarray, window: int) -> list[int]:
    """Free positions 2..window away from p, in index order."""
    lo, hi = max(1, p - window), min(len(free) - 1, p + window)
    return [q for q in range(lo, hi + 1) if abs(q - p) >= 2 and free[q]]


def _plan_user(
    user: int, prefix: np.ndarray, budget: int, cfg: InjectionConfig, gen: np.random.Generator
) -> list[tuple]:
    """One user's ops in apply order: ("sequential", p, q) swaps, then
    ("repetitive", anchor, k) runs, then ("semantic", p) substitutes.

    Positions are mutually exclusive train-prefix indices >= 1 (every
    manipulated position keeps a left neighbour). A run also reserves its
    anchor, so no other op rewrites the item it copies. Odd or unplaceable
    swap slots fall back to substitutes; what finds no room is left out.
    """
    free = np.zeros(len(prefix), dtype=bool)
    free[1:] = True  # position 0 never manipulated
    n_rep, n_sem, n_seq = _split_budget(budget, cfg.type_mix)

    # sequential swaps go first: they need pairs of free positions within
    # a window, which repetitive runs would otherwise fragment
    swaps = []
    while n_seq >= 2:
        candidates = np.flatnonzero(free)
        gen_order = gen.permutation(candidates) if candidates.size else candidates
        for p in gen_order.tolist():
            partners = _partners(p, free, cfg.swap_window)
            if partners:
                q = partners[int(gen.integers(len(partners)))]
                swaps.append((min(p, q), max(p, q)))
                free[p] = free[q] = False
                n_seq -= 2
                break
        else:
            break
    n_sem += n_seq

    # repetitive runs: anchor + run inside the prefix, whole run free
    runs = []
    while n_rep > 0:
        for run_len in range(min(cfg.repeat_len, n_rep), 0, -1):  # shorter runs when none fits
            anchors = [
                a
                for a in range(len(prefix) - run_len)
                if (a == 0 or free[a]) and free[a + 1 : a + 1 + run_len].all()
            ]
            if anchors:
                break
        else:
            break
        a = anchors[int(gen.integers(len(anchors)))]
        runs.append((a, run_len))
        free[a : a + 1 + run_len] = False  # the anchor is reserved too
        n_rep -= run_len

    # semantic replacements: single free positions
    subs = []
    for _ in range(n_sem):
        candidates = np.flatnonzero(free)
        if candidates.size == 0:
            break
        p = int(candidates[int(gen.integers(candidates.size))])
        subs.append(p)
        free[p] = False

    # a swap of equal items (after the swaps before it) is moved to the
    # first free partner in its window that holds another item, or dropped
    ops = []
    work = prefix.copy()
    for p, q in swaps:
        if work[p] == work[q]:
            moved = next((c for c in _partners(p, free, cfg.swap_window) if work[c] != work[p]), None)
            if moved is None:
                log.warning("dropped swap (%d, %d) for user %d", p, q, user)
                continue
            free[moved] = False
            p, q = min(p, moved), max(p, moved)
        work[p], work[q] = work[q], work[p]
        ops.append(("sequential", p, q))
    return ops + [("repetitive", a, k) for a, k in runs] + [("semantic", p) for p in subs]


# --- application ----------------------------------------------------------

def inject_repetitive(seq: np.ndarray, anchor: int, k: int):
    """Copy the anchor item over the k following positions (truncated at the
    sequence end). Returns (modified sequence, manifest entries without user)."""
    if anchor < 0 or anchor >= len(seq):
        raise InvalidArgument(f"anchor {anchor} outside sequence of length {len(seq)}")
    out = seq.copy()
    entries = []
    item = int(seq[anchor])
    stop = min(anchor + k, len(seq) - 1)
    for pos in range(anchor + 1, stop + 1):
        entries.append((pos, "repetitive", int(seq[pos]), item))
        out[pos] = item
    return out, entries


def low_cosine_candidates(unit: np.ndarray, item: int, cos_max: float) -> np.ndarray:
    """Items whose embedding cosine to `item` is below cos_max; falls back
    to the single global-minimum-cosine item when none qualify. `unit` is
    the semantic table with unit rows (`semantics.unit_rows`)."""
    sims = unit @ unit[item]
    sims[item] = np.inf
    candidates = np.flatnonzero(sims < cos_max)
    if candidates.size == 0:
        candidates = np.asarray([int(np.argmin(sims))])
    return candidates


def inject_semantic(
    seq: np.ndarray,
    position: int,
    unit: np.ndarray,
    rng: SeededRng,
    cos_max: float,
):
    """Replace one position with an item drawn uniformly among those of low
    cosine to it; `unit` is the semantic table with unit rows."""
    out = seq.copy()
    original = int(seq[position])
    candidates = low_cosine_candidates(unit, original, cos_max)
    injected = int(candidates[int(rng.gen.integers(candidates.size))])
    out[position] = injected
    return out, [(position, "semantic", original, injected)]


def inject_sequential(seq: np.ndarray, p: int, q: int):
    """Swap two non-adjacent items; both endpoints become fake positions."""
    if abs(p - q) < 2:
        raise InvalidArgument("swap endpoints must be non-adjacent")
    if seq[p] == seq[q]:
        raise InvalidArgument("swap endpoints hold identical items")
    out = seq.copy()
    out[p], out[q] = seq[q], seq[p]
    return out, [
        (p, "sequential", int(seq[p]), int(seq[q])),
        (q, "sequential", int(seq[q]), int(seq[p])),
    ]


def inject(
    corpus: Corpus, semantics: np.ndarray, cfg: InjectionConfig, rng: SeededRng
) -> tuple[Corpus, FakeOrderManifest]:
    """Plant fake orders in one pass per user; unaffected users' sequences
    are untouched. Returns the compromised corpus (statistics recomputed)
    and the complete ground-truth manifest.

    Each user's budget is round(intensity * prefix length). Warns once with
    the number of users whose budget was not filled, and for each type with
    a positive `type_mix` share that planted no position.
    """
    cfg.validate()
    gen, apply_rng = rng.child("plan").gen, rng.child("apply")
    unit = unit_rows(semantics)
    n_affected = int(round(cfg.user_ratio * corpus.n_users))
    n_affected = max(1, min(n_affected, corpus.n_users))
    users = np.sort(gen.choice(corpus.n_users, size=n_affected, replace=False))

    sequences = list(corpus.sequences)
    entries: list[ManifestEntry] = []
    truncated = 0
    for user in users.tolist():
        prefix = corpus.train_prefix(user)
        budget = int(round(cfg.intensity * len(prefix)))
        if budget <= 0 or len(prefix) < 3:
            continue
        seq = sequences[user]
        before = len(entries)
        for kind, *at in _plan_user(user, prefix, budget, cfg, gen):
            if kind == "sequential":
                seq, locs = inject_sequential(seq, *at)
            elif kind == "repetitive":
                seq, locs = inject_repetitive(seq, *at)
            else:
                seq, locs = inject_semantic(seq, at[0], unit, apply_rng, cfg.semantic_cos_max)
            entries.extend(ManifestEntry(user, *loc) for loc in locs)
        sequences[user] = seq
        truncated += len(entries) - before < budget
    if truncated:
        log.warning("injection budget truncated for %d users", truncated)

    kinds = {e.kind for e in entries}
    for kind, share in zip(TYPES, cfg.type_mix):
        if share > 0 and kind not in kinds:
            log.warning("type_mix gives %s a %.3g share, but none was planted", kind, share)
    knobs = {**asdict(cfg), "type_mix": list(cfg.type_mix)}
    return corpus.with_sequences(sequences), FakeOrderManifest(entries, knobs, rng.seed)
