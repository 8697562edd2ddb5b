"""Ranking metrics under the sampled-negative leave-one-out protocol.

Each user's positive item is ranked among itself and `negatives` items the
user never interacted with. The negatives of a user depend only on the
user's sequence, the mode and the labelled RNG path, so the target-first
candidate matrix of one (corpus, mode) is drawn once (`draw_candidates`)
and every later evaluation of that split reuses it; a second corpus over
the same users and items copies the rows of the users whose sequence it
leaves unchanged. One forward pass over prefix + validation item ranks
both targets (`evaluate_topk`), 64 users per batch (`_BATCH_USERS`);
`topk_report` turns a mode's ranks into HR@k / NDCG@k at k = 10 and 20
(`KS`). `convergence_report` rounds epochs up to a cadence of 5
(`_CADENCE`).
"""
from __future__ import annotations

import math

import numpy as np

from ..corpus import Corpus, LooSplit, sample_negatives
from ..errors import InvalidArgument
from ..numkit import SeededRng
from ..params import ParamVector, convergence_epoch
from ..seqrec import SeqRecModel


MODES = ("valid", "test")
KS = (10, 20)  # cutoffs of the HR@k / NDCG@k the pipeline reports
_BATCH_USERS = 64  # users per length-sorted batch of `evaluate_topk`
_CADENCE = 5  # epochs: `convergence_report` rounds up to a multiple of this


def rank_of_positive(scores: np.ndarray) -> np.ndarray:
    """1-based rank of column 0 in each row, ties broken against it (pessimistic)."""
    return 1 + (scores[:, 1:] >= scores[:, :1]).sum(axis=1)


def hit_rate(ranks: np.ndarray, k: int) -> float:
    return float((ranks <= k).mean())


def ndcg(ranks: np.ndarray, k: int) -> float:
    gains = np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
    return float(gains.mean())


def draw_candidates(
    corpus: Corpus,
    split: LooSplit,
    mode: str,
    negatives: int,
    rng: SeededRng,
    like: tuple[Corpus, LooSplit, np.ndarray] | None = None,
) -> np.ndarray:
    """Target-first (users, 1 + negatives) item matrix, one row per split user.

    Column 0 holds the user's validation ("valid") or test ("test") target,
    the rest `negatives` items outside the user's full sequence, drawn from
    the child `neg-{mode}-{user id}` of `rng`. A row depends only on that
    path, the user's sequence and the vocabulary, so a matrix drawn once
    serves every evaluation of the split. `like` is the (corpus, split,
    matrix) of this mode drawn from the same `rng` for another corpus; when
    it has the same users and items, each user whose sequence is equal in
    both gets its row copied, and only the others are drawn.
    """
    if mode not in MODES:
        raise InvalidArgument("mode must be 'valid' or 'test'")
    targets = split.test_targets if mode == "test" else split.valid_targets
    out = np.empty((len(split.users), 1 + negatives), dtype=np.int64)
    out[:, 0] = targets
    row_of = {}  # user -> the row of `like`'s matrix to copy
    if like is not None:
        other, other_split, matrix = like
        if other.user_ids == corpus.user_ids and other.item_ids == corpus.item_ids:
            row_of = {
                user: j for j, user in enumerate(other_split.users)
                if np.array_equal(other.sequences[user], corpus.sequences[user])
            }
    for i, user in enumerate(split.users):
        if user in row_of:
            out[i] = matrix[row_of[user]]
            continue
        user_rng = rng.child(f"neg-{mode}-{corpus.user_ids[user]}")
        out[i, 1:] = sample_negatives(corpus, user, negatives, user_rng)
    return out


def evaluate_topk(
    model: SeqRecModel,
    params: ParamVector,
    corpus: Corpus,
    split: LooSplit,
    negatives: int,
    rng: SeededRng | None = None,
    candidates: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Rank of each split user's validation and test target, from one forward pass.

    Returns {"valid": ranks, "test": ranks}, 1-based pessimistic ranks in
    split order; `topk_report` turns them into HR@k / NDCG@k. The encoder
    runs once over prefix + validation item: its state at position L-2 (the
    end of the train prefix) scores the validation target, its state at
    L-1 the test target. The recurrence is causal, so these are the states
    a separate pass over the prefix alone would give.

    `candidates` maps each mode to the split's matrix from `draw_candidates`
    for this corpus; without it both are drawn here from `rng`. Negatives
    are drawn once per (corpus, mode): a caller that ranks a split
    repeatedly passes the same matrices each time. Users go in length-sorted
    batches, each scored with one gather and one batched product per mode.
    """
    if candidates is None:
        if rng is None:
            raise InvalidArgument("evaluate_topk needs a SeededRng or candidate matrices")
        candidates = {mode: draw_candidates(corpus, split, mode, negatives, rng) for mode in MODES}
    for mode in MODES:
        shape = np.shape(candidates.get(mode))
        if shape != (len(split.users), 1 + negatives):
            raise InvalidArgument(
                f"{mode} candidates of shape {shape}, expected {(len(split.users), 1 + negatives)}"
            )
    table = params.view("item_embeddings")
    ranks = {mode: np.empty(len(split.users), dtype=np.int64) for mode in MODES}
    # length-sorted batches bound the padding waste; ranks scatter back per user
    order = np.argsort([len(p) for p in split.prefixes], kind="stable")
    for start in range(0, len(order), _BATCH_USERS):
        part = order[start : start + _BATCH_USERS]
        inputs = [np.append(split.prefixes[i], split.valid_targets[i]) for i in part]
        for mode, finals in zip(MODES, _last_two_states(model, params, inputs)):
            scores = np.matmul(table[candidates[mode][part]], finals[:, :, None])[:, :, 0]
            ranks[mode][part] = rank_of_positive(scores)
    return ranks


def _last_two_states(
    model: SeqRecModel, params: ParamVector, seqs
) -> tuple[np.ndarray, np.ndarray]:
    """Each sequence's hidden state before and after its last item, (B, d_h) each.

    The sequences are padded once and encoded; the padded states and the
    forward cache are freed on return, before the caller allocates its
    score blocks.
    """
    items, lengths = model._padded(seqs)
    states, _ = model.encode(params, "enc", params.view("item_embeddings"), items)
    rows, last = np.arange(len(seqs)), lengths - 1
    return states[rows, last - 1], states[rows, last]


def topk_report(ranks: np.ndarray, negatives: int) -> dict:
    """HR@k and NDCG@k, for each k in `KS`, of one mode's ranks from `evaluate_topk`."""
    report = {"users_evaluated": int(ranks.size), "negatives": int(negatives)}
    for k in KS:
        report[f"HR@{k}"] = hit_rate(ranks, k)
        report[f"NDCG@{k}"] = ndcg(ranks, k)
    return report


def round_up_to_cadence(epoch: int, cadence: int) -> int:
    return int(math.ceil(epoch / cadence) * cadence)


def convergence_report(traces: dict[str, list[float]]) -> dict:
    """Epochs-to-converge per stage, rounded up to the evaluation cadence `_CADENCE`.

    The rule is `params.convergence_epoch`, the one early stopping reads.
    Never-converged traces report their full length, flagged."""
    out = {}
    for name, trace in traces.items():
        epoch = convergence_epoch(trace)
        if epoch is None:
            out[name] = {
                "epochs": len(trace),
                "reported": round_up_to_cadence(max(len(trace), 1), _CADENCE),
                "converged": False,
            }
        else:
            out[name] = {
                "epochs": epoch,
                "reported": round_up_to_cadence(epoch, _CADENCE),
                "converged": True,
            }
    return out
