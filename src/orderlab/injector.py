"""Fake-order injection: plant manipulations inside genuine sequences.

Three manipulation types, all length-preserving and mutually exclusive per
position:

* repetitive - an anchor item is copied over the k following positions
  (click-farming runs); the anchor itself stays genuine.
* semantic   - an item is replaced by one with embedding cosine below a
  threshold (an out-of-context item).
* sequential - two non-adjacent items inside a window swap places.

Every realized manipulation is recorded in a manifest that allows exact
restoration of the clean corpus.
"""
from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .errors import InvalidArgument
from .numkit import SeededRng
from .semantics import SemanticTable

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
        entries = [
            ManifestEntry(d["user"], d["position"], d["type"], d["original_item"], d["injected_item"])
            for d in doc["entries"]
        ]
        return cls(entries, doc["header"]["knobs"], doc["header"]["seed"])

    def save(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "FakeOrderManifest":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


# --- planning -------------------------------------------------------------

@dataclass
class PlannedOp:
    kind: str
    positions: tuple[int, ...]  # manipulated positions, in apply order
    anchor: int | None = None  # repetitive only


@dataclass
class InjectionPlan:
    ops: dict[int, list[PlannedOp]]  # user index -> ordered ops
    budgets: dict[int, int]
    truncated_users: list[int] = field(default_factory=list)

    def affected_users(self) -> list[int]:
        return sorted(self.ops)

    def size(self) -> int:
        return sum(len(op.positions) for ops in self.ops.values() for op in ops)


def _split_budget(budget: int, mix, rng: SeededRng) -> tuple[int, int, int]:
    """Integer split of the per-user budget across types, largest-remainder."""
    raw = np.asarray(mix, dtype=np.float64) * budget
    base = np.floor(raw).astype(int)
    rest = budget - int(base.sum())
    if rest:
        order = np.argsort(-(raw - base), kind="stable")
        for i in order[:rest]:
            base[i] += 1
    return int(base[0]), int(base[1]), int(base[2])


def plan_allocation(
    corpus: Corpus, cfg: InjectionConfig, rng: SeededRng
) -> InjectionPlan:
    """Choose affected users and assign mutually exclusive positions.

    Positions come from train-prefix indices 1..L-1 (every manipulated
    position keeps a left neighbour). Repetitive runs also reserve their
    anchor so no later op rewrites the item a run copies. Per-user budget
    is round(intensity * prefix length); infeasible remainders are
    truncated and reported.
    """
    cfg.validate()
    gen = rng.gen
    n_affected = int(round(cfg.user_ratio * corpus.n_users))
    n_affected = max(1, min(n_affected, corpus.n_users))
    users = np.sort(gen.choice(corpus.n_users, size=n_affected, replace=False))

    ops: dict[int, list[PlannedOp]] = {}
    budgets: dict[int, int] = {}
    truncated: list[int] = []
    for user in users.tolist():
        prefix_len = len(corpus.train_prefix(user))
        budget = int(round(cfg.intensity * prefix_len))
        if budget <= 0 or prefix_len < 3:
            continue
        budgets[user] = budget
        free = np.zeros(prefix_len, dtype=bool)
        free[1:] = True  # position 0 never manipulated
        user_ops: list[PlannedOp] = []
        n_rep, n_sem, n_seq = _split_budget(budget, cfg.type_mix, rng)

        # sequential swaps go first: they need pairs of free positions within
        # a window, which repetitive runs would otherwise fragment
        seq_remaining = n_seq
        while seq_remaining >= 2:
            candidates = np.flatnonzero(free)
            gen_order = gen.permutation(candidates) if candidates.size else candidates
            placed = False
            for p in gen_order.tolist():
                lo = max(1, p - cfg.swap_window)
                hi = min(prefix_len - 1, p + cfg.swap_window)
                partners = [
                    q for q in range(lo, hi + 1) if abs(q - p) >= 2 and free[q]
                ]
                if partners:
                    q = int(partners[int(gen.integers(len(partners)))])
                    lo_p, hi_p = min(p, q), max(p, q)
                    user_ops.append(PlannedOp("sequential", (lo_p, hi_p)))
                    free[lo_p] = free[hi_p] = False
                    seq_remaining -= 2
                    placed = True
                    break
            if not placed:
                break
        n_sem += seq_remaining  # odd or unplaceable swap slots fall back to semantic

        # repetitive runs: anchor + run inside the prefix, whole run free
        remaining = n_rep
        while remaining > 0:
            run_len = min(cfg.repeat_len, remaining)
            placed = False
            while run_len >= 1 and not placed:
                anchors = [
                    a
                    for a in range(0, prefix_len - run_len)
                    if (a == 0 or free[a]) and free[a + 1 : a + 1 + run_len].all()
                ]
                if anchors:
                    a = int(anchors[int(gen.integers(len(anchors)))])
                    positions = tuple(range(a + 1, a + 1 + run_len))
                    user_ops.append(PlannedOp("repetitive", positions, anchor=a))
                    free[a] = False  # reserve the anchor
                    for p in positions:
                        free[p] = False
                    remaining -= run_len
                    placed = True
                else:
                    run_len -= 1
            if not placed:
                break

        # semantic replacements: single free positions
        for _ in range(n_sem):
            candidates = np.flatnonzero(free)
            if candidates.size == 0:
                break
            p = int(candidates[int(gen.integers(candidates.size))])
            user_ops.append(PlannedOp("semantic", (p,)))
            free[p] = False

        realized = sum(len(op.positions) for op in user_ops)
        if realized < budget:
            truncated.append(user)
        if user_ops:
            ops[user] = user_ops
    if truncated:
        log.warning("injection budget truncated for %d users", len(truncated))
    return InjectionPlan(ops, budgets, truncated)


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


def low_cosine_candidates(
    semantics: SemanticTable, item: int, cos_max: float
) -> np.ndarray:
    """Items whose embedding cosine to `item` is below cos_max; falls back
    to the single global-minimum-cosine item when none qualify."""
    unit = semantics.unit_rows()
    sims = unit @ unit[item]
    sims[item] = np.inf
    candidates = np.flatnonzero(sims < cos_max)
    if candidates.size == 0:
        candidates = np.asarray([int(np.argmin(sims))])
    return candidates


def inject_semantic(
    seq: np.ndarray,
    position: int,
    semantics: SemanticTable,
    rng: SeededRng,
    cos_max: float = 0.2,
):
    """Replace one position with a uniformly drawn low-cosine item."""
    out = seq.copy()
    original = int(seq[position])
    candidates = low_cosine_candidates(semantics, original, cos_max)
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


def apply_plan(
    corpus: Corpus,
    plan: InjectionPlan,
    semantics: SemanticTable,
    cfg: InjectionConfig,
    rng: SeededRng,
) -> tuple[Corpus, FakeOrderManifest]:
    """Execute a plan; unaffected users' sequences are untouched.

    Unplaceable swaps (identical endpoint items) are replanned once within
    the window, then dropped. Returns the compromised corpus (statistics
    recomputed) and the complete ground-truth manifest.
    """
    cfg.validate()
    sequences = [s for s in corpus.sequences]
    entries: list[ManifestEntry] = []
    for user in plan.affected_users():
        seq = sequences[user].copy()
        taken = {p for op in plan.ops[user] for p in op.positions}
        for op in plan.ops[user]:
            if op.kind == "repetitive":
                run_len = len(op.positions)
                seq, locs = inject_repetitive(seq, op.anchor, run_len)
            elif op.kind == "semantic":
                seq, locs = inject_semantic(
                    seq, op.positions[0], semantics, rng, cfg.semantic_cos_max
                )
            else:
                p, q = op.positions
                if seq[p] == seq[q]:
                    replanned = _replan_swap(seq, p, q, taken, cfg.swap_window)
                    if replanned is None:
                        log.warning("dropped swap (%d, %d) for user %d", p, q, user)
                        continue
                    p, q = replanned
                    taken.update((p, q))
                seq, locs = inject_sequential(seq, p, q)
            entries.extend(ManifestEntry(user, *loc) for loc in locs)
        sequences[user] = seq
    compromised = corpus.with_sequences(sequences)
    knobs = {
        "user_ratio": cfg.user_ratio,
        "intensity": cfg.intensity,
        "type_mix": list(cfg.type_mix),
        "repeat_len": cfg.repeat_len,
        "swap_window": cfg.swap_window,
        "semantic_cos_max": cfg.semantic_cos_max,
    }
    manifest = FakeOrderManifest(entries, knobs, rng.seed)
    return compromised, manifest


def _replan_swap(seq, p, q, taken, window):
    for cand in range(max(1, p - window), min(len(seq) - 1, p + window) + 1):
        if abs(cand - p) >= 2 and cand not in taken and seq[cand] != seq[p]:
            return (min(p, cand), max(p, cand))
    return None


def inject(
    corpus: Corpus, semantics: SemanticTable, cfg: InjectionConfig, rng: SeededRng
) -> tuple[Corpus, FakeOrderManifest]:
    """Plan and apply in one step (shared rng, deterministic); warns for
    each type with a positive `type_mix` share that planted no position."""
    plan = plan_allocation(corpus, cfg, rng.child("plan"))
    compromised, manifest = apply_plan(corpus, plan, semantics, cfg, rng.child("apply"))
    planted = {e.kind for e in manifest.entries}
    for kind, share in zip(TYPES, cfg.type_mix):
        if share > 0 and kind not in planted:
            log.warning("type_mix gives %s a %.3g share, but none was planted", kind, share)
    return compromised, manifest


def restore(corpus: Corpus, manifest: FakeOrderManifest) -> Corpus:
    """Undo every manifest entry, reproducing the clean corpus exactly."""
    sequences = [s.copy() for s in corpus.sequences]
    for e in manifest.entries:
        sequences[e.user][e.position] = e.original_item
    return corpus.with_sequences(sequences)
