"""Ranking metrics under the sampled-negative leave-one-out protocol.

Each user's positive item is ranked among itself and `negatives` items the
user never interacted with. The negatives of a user depend only on the
corpus, the mode and the labelled RNG path, so the target-first candidate
matrix of one (corpus, mode) is drawn once (`draw_candidates`) and every
later evaluation of that split reuses it.
"""
from __future__ import annotations

import math

import numpy as np

from ..corpus import Corpus, LooSplit, sample_negatives
from ..errors import InvalidArgument
from ..numkit import SeededRng
from ..params import ParamVector
from ..seqrec import SeqRecModel


def _check_mode(mode: str) -> None:
    if mode not in ("valid", "test"):
        raise InvalidArgument("mode must be 'valid' or 'test'")


def rank_of_positive(scores: np.ndarray) -> np.ndarray:
    """1-based rank of column 0 in each row, ties broken against it (pessimistic)."""
    return 1 + (scores[:, 1:] >= scores[:, :1]).sum(axis=1)


def hit_rate(ranks: np.ndarray, k: int) -> float:
    return float((ranks <= k).mean())


def ndcg(ranks: np.ndarray, k: int) -> float:
    gains = np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
    return float(gains.mean())


def draw_candidates(
    corpus: Corpus, split: LooSplit, mode: str, negatives: int, rng: SeededRng
) -> np.ndarray:
    """Target-first (users, 1 + negatives) item matrix, one row per split user.

    Column 0 holds the user's validation ("valid") or test ("test") target,
    the rest `negatives` items outside the user's full sequence, drawn from
    the child `neg-{mode}-{user id}` of `rng`. The draws depend only on that
    path, so a matrix drawn once serves every evaluation of the split.
    """
    _check_mode(mode)
    targets = split.test_targets if mode == "test" else split.valid_targets
    out = np.empty((len(split.users), 1 + negatives), dtype=np.int64)
    out[:, 0] = targets
    for i, user in enumerate(split.users):
        user_rng = rng.child(f"neg-{mode}-{corpus.user_ids[user]}")
        out[i, 1:] = sample_negatives(corpus, user, negatives, user_rng)
    return out


def evaluate_topk(
    model: SeqRecModel,
    params: ParamVector,
    corpus: Corpus,
    split: LooSplit,
    mode: str = "test",
    negatives: int = 100,
    ks=(10, 20),
    rng: SeededRng | None = None,
    batch_users: int = 64,
    candidates: np.ndarray | None = None,
) -> dict:
    """HR@k / NDCG@k of the positive item among itself plus seeded negatives.

    mode "valid" scores the validation target given the train prefix;
    mode "test" scores the test target given prefix + validation item.
    `candidates` is the split's matrix from `draw_candidates` for this
    corpus and mode; without it the negatives are drawn here from `rng`.
    Negatives are drawn once per (corpus, mode): a caller that evaluates a
    split repeatedly passes the same matrix each time. Each batch of users
    is scored with one gather and one batched product.
    """
    _check_mode(mode)
    if candidates is None:
        if rng is None:
            raise InvalidArgument("evaluate_topk needs a SeededRng or a candidate matrix")
        candidates = draw_candidates(corpus, split, mode, negatives, rng)
    elif candidates.shape != (len(split.users), 1 + negatives):
        raise InvalidArgument(
            f"candidates of shape {candidates.shape}, expected {(len(split.users), 1 + negatives)}"
        )
    table = params.view("item_embeddings")
    ranks = np.empty(len(split.users), dtype=np.int64)
    # length-sorted batches bound the padding waste; ranks scatter back per user
    order = np.argsort([len(p) for p in split.prefixes], kind="stable")
    for start in range(0, len(order), batch_users):
        part = order[start : start + batch_users]
        inputs = [split.prefixes[i] for i in part]
        if mode == "test":
            inputs = [np.append(p, split.valid_targets[i]) for p, i in zip(inputs, part)]
        finals = model.final_states(params, inputs)
        scores = np.matmul(table[candidates[part]], finals[:, :, None])[:, :, 0]
        ranks[part] = rank_of_positive(scores)
    report = {"users_evaluated": int(ranks.size), "negatives": int(negatives)}
    for k in ks:
        report[f"HR@{k}"] = hit_rate(ranks, k)
        report[f"NDCG@{k}"] = ndcg(ranks, k)
    return report


def round_up_to_cadence(epoch: int, cadence: int) -> int:
    return int(math.ceil(epoch / cadence) * cadence)


def convergence_report(traces: dict[str, list[float]], cadence: int = 5, rel_tol: float = 1e-3,
                       patience: int = 3) -> dict:
    """Epochs-to-converge per stage, rounded up to the evaluation cadence.

    Never-converged traces report their full length, flagged."""
    from ..params import convergence_epoch

    out = {}
    for name, trace in traces.items():
        epoch = convergence_epoch(trace, rel_tol, patience)
        if epoch is None:
            out[name] = {
                "epochs": len(trace),
                "reported": round_up_to_cadence(max(len(trace), 1), cadence),
                "converged": False,
            }
        else:
            out[name] = {
                "epochs": epoch,
                "reported": round_up_to_cadence(epoch, cadence),
                "converged": True,
            }
    return out
