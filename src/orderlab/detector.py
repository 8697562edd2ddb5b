"""Per-position anomaly scoring and fake-order flagging.

Four signals per train-prefix position k:

* pred_divergence   - Jensen-Shannon divergence between the two views'
                      predictive distributions for position k;
* rep_disagreement  - (1 - cosine of the views' hidden states at k) / 2;
* pop_deviation     - z-deviation of the item's log-popularity from the
                      user's own prefix mix;
* context_disruption- negative mean smoothed bigram log-likelihood of the
                      transitions into and out of position k (one-sided at
                      sequence edges).

Features are computed for a batch of users at once from the padded item
matrix the dual-view encoder returns: popularity deviation from masked row
moments, context disruption from one elementwise `Corpus.bigram_logprob`
call over every transition of the batch. No Python loop runs per user or
per position.

Signals are z-normalized over all scored positions, combined by a weight
vector, smoothed over each user's neighbouring positions, and
thresholded. Weights and the threshold are fitted on a calibration slice
carrying a secondary injection with known labels; without calibration the
detector falls back to uniform weights and a percentile threshold.
"""
from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from . import injector
from .corpus import Corpus
from .dualview import ENCODERS, DualViewModel
from .encoder import next_step_probs, sigmoid
from .errors import InvalidArgument
from .numkit import SeededRng
from .params import ParamVector
from .semantics import SemanticTable

log = logging.getLogger(__name__)

FEATURE_NAMES = ("pred_divergence", "rep_disagreement", "pop_deviation", "context_disruption")


@dataclass
class DetectorConfig:
    weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    smoothing: float = 0.3
    fscore_beta: float = 2.0
    calibrate: bool = True
    calib_frac: float = 0.15
    calib_user_ratio: float = 0.3
    calib_intensity: float = 0.3
    fit_steps: int = 500
    fit_rate: float = 0.1
    fit_l2: float = 1e-4
    default_percentile: float = 95.0
    batch_users: int = 32

    def validate(self) -> None:
        if len(self.weights) != 4 or any(w < 0 for w in self.weights):
            raise InvalidArgument("weights must be 4 non-negative entries")
        if not (0.0 <= self.smoothing < 1.0):
            raise InvalidArgument("smoothing must lie in [0, 1)")
        if self.calibrate and not (0.0 < self.calib_frac < 1.0):
            raise InvalidArgument("calib_frac must lie in (0, 1)")


@dataclass
class FeatureStats:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "FeatureStats":
        mean = features.mean(axis=0)
        std = np.maximum(features.std(axis=0), 1e-8)
        return cls(mean, std)

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (features - self.mean) / self.std


@dataclass
class DetectionReport:
    users: np.ndarray  # (N,) user index per scored position
    positions: np.ndarray  # (N,)
    features: np.ndarray  # (N, 4) raw feature values
    raw_scores: np.ndarray  # (N,) u
    smoothed_scores: np.ndarray  # (N,) U
    flags: np.ndarray  # (N,) bool
    threshold: float
    weights: np.ndarray
    summary: dict = field(default_factory=dict)

    @property
    def suspicious(self) -> list[tuple[int, int]]:
        return [
            (int(u), int(p))
            for u, p in zip(self.users[self.flags], self.positions[self.flags])
        ]

    def to_csv(self, path: str, truth: dict | None = None) -> None:
        truth = truth or {}
        tmp = f"{path}.tmp"
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["user", "position", *FEATURE_NAMES, "raw_score", "smoothed_score", "flag", "truth_type"]
            )
            for i in range(self.users.size):
                key = (int(self.users[i]), int(self.positions[i]))
                writer.writerow(
                    [
                        key[0],
                        key[1],
                        *[repr(float(v)) for v in self.features[i]],
                        repr(float(self.raw_scores[i])),
                        repr(float(self.smoothed_scores[i])),
                        int(self.flags[i]),
                        truth.get(key, ""),
                    ]
                )
        os.replace(tmp, path)


def _jsd_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorized natural-log JSD along the last axis."""

    def ent(x):
        safe = np.where(x > 0.0, x, 1.0)
        return -(safe * np.log(safe) * (x > 0.0)).sum(axis=-1)

    m = 0.5 * (p + q)
    return np.maximum(ent(m) - 0.5 * (ent(p) + ent(q)), 0.0)


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine along the last axis, clipped to [-1, 1]; 0 where either vector is zero."""
    denom = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
    cos = np.where(denom > 0.0, (a * b).sum(axis=-1) / np.maximum(denom, 1e-300), 0.0)
    return np.clip(cos, -1.0, 1.0)


def features(
    model: DualViewModel,
    params: ParamVector,
    corpus: Corpus,
    prefixes: list[np.ndarray] | None = None,
    batch_users: int = 32,
):
    """Anomaly features for every position of every train prefix.

    `prefixes` overrides the scored sequences (used for the calibration
    slice); popularity and bigram statistics always come from `corpus`, so
    calibration features live on the production scale. Returns
    (features (N, 4), users (N,), positions (N,)).
    """
    if prefixes is None:
        prefixes = [corpus.train_prefix(u) for u in range(corpus.n_users)]
    tables = model.item_inputs(params)[:2]
    log_pop = np.log1p(corpus.counts.astype(np.float64))

    feats: list[np.ndarray] = []
    users: list[np.ndarray] = []
    positions: list[np.ndarray] = []
    for start in range(0, len(prefixes), batch_users):
        batch = prefixes[start : start + batch_users]
        states, probs = [], []
        for view in ENCODERS:
            view_states, items, lengths, table, _ = model.batch_view_states(
                params, view, batch, tables=tables
            )
            # no prefix predicts position 0: both views call it uniform
            view_probs = np.full(view_states.shape[:2] + (model.cfg.vocab,), 1.0 / model.cfg.vocab)
            view_probs[:, 1:] = next_step_probs(view_states[:, :-1], table)
            states.append(view_states)
            probs.append(view_probs)
        jsd = _jsd_rows(*probs)
        disagreement = (1.0 - _cosine_rows(*states)) / 2.0

        valid = np.arange(items.shape[1]) < lengths[:, None]
        x = log_pop[items]
        mu = x.mean(axis=1, where=valid, keepdims=True)
        sigma = x.std(axis=1, where=valid, keepdims=True)
        pop_dev = np.abs(x - mu) / (sigma + 1e-8)

        # terms[:, k] is -log P of the step from k-1 into k; both ends stay 0
        step = valid[:, 1:]
        terms = np.zeros((len(batch), items.shape[1] + 1))
        terms[:, 1:-1][step] = -corpus.bigram_logprob(items[:, :-1][step], items[:, 1:][step])
        n_terms = np.zeros(terms.shape)
        n_terms[:, 1:-1] = step
        context = (terms[:, :-1] + terms[:, 1:]) / np.maximum(n_terms[:, :-1] + n_terms[:, 1:], 1)

        rows, cols = np.nonzero(valid)
        feats.append(np.stack([jsd, disagreement, pop_dev, context], axis=-1)[valid])
        users.append(start + rows)
        positions.append(cols)
    if not feats:
        raise InvalidArgument("no positions to score")
    return np.concatenate(feats), np.concatenate(users), np.concatenate(positions)


def unified_score(feats: np.ndarray, weights, stats: FeatureStats) -> np.ndarray:
    """Weighted sum of z-normalized features."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (feats.shape[1],):
        raise InvalidArgument(f"need {feats.shape[1]} weights, got {w.shape}")
    return stats.apply(feats) @ w


def fit_weights(norm_feats: np.ndarray, labels: np.ndarray, cfg: DetectorConfig) -> np.ndarray:
    """Logistic-regression feature weights from labeled calibration positions.

    Batch gradient descent; negative coefficients are clipped to zero and
    the rest renormalized to sum 1. Degenerate labels fall back to uniform.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.size != norm_feats.shape[0]:
        raise InvalidArgument("labels must align with features")
    uniform = np.full(4, 0.25)
    if y.min() == y.max():
        log.warning("calibration labels are one-class; using uniform weights")
        return uniform
    theta = np.zeros(norm_feats.shape[1])
    bias = 0.0
    n = y.size
    for _ in range(cfg.fit_steps):
        z = norm_feats @ theta + bias
        p = sigmoid(z)
        err = p - y
        grad = norm_feats.T @ err / n + cfg.fit_l2 * theta
        theta -= cfg.fit_rate * grad
        bias -= cfg.fit_rate * float(err.mean())
    w = np.clip(theta, 0.0, None)
    total = float(w.sum())
    if total <= 0.0:
        log.warning("all fitted weights non-positive; using uniform weights")
        return uniform
    return w / total


def smooth_by_user(raw: np.ndarray, users: np.ndarray, rho: float) -> np.ndarray:
    """U(k) = (1-rho) u(k) + rho * mean of the neighbours k-1, k+1 of the same user.

    Each user's positions are contiguous in `raw`; a user with a single
    position keeps its raw score.
    """
    if not (0.0 <= rho < 1.0):
        raise InvalidArgument("smoothing factor must lie in [0, 1)")
    same = users[1:] == users[:-1]
    left = np.concatenate([[False], same])
    right = np.concatenate([same, [False]])
    before, after = np.roll(raw, 1), np.roll(raw, -1)
    neighbour = np.where(left & right, (before + after) / 2, np.where(left, before, after))
    return np.where(left | right, (1.0 - rho) * raw + rho * neighbour, raw)


def fbeta(precision: float, recall: float, beta: float) -> float:
    if precision == 0.0 and recall == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * precision * recall / (b2 * precision + recall)


def tune_threshold(
    scores: np.ndarray, labels: np.ndarray, beta: float = 2.0, default_percentile: float = 95.0
) -> float:
    """Sweep the 80th..99th percentiles of the calibration scores and pick
    the F-beta maximizer; ties resolve to the smaller (more lenient)
    threshold. Without positive labels, fall back to a fixed percentile."""
    y = np.asarray(labels, dtype=bool)
    if not y.any():
        log.warning("no positive calibration labels; defaulting threshold to percentile %.0f",
                    default_percentile)
        return float(np.percentile(scores, default_percentile))
    best_tau = None
    best_f = -1.0
    for pct in range(80, 100):
        tau = float(np.percentile(scores, pct))
        pred = scores > tau
        tp = int((pred & y).sum())
        precision = tp / max(int(pred.sum()), 1)
        recall = tp / int(y.sum())
        f = fbeta(precision, recall, beta)
        if f > best_f + 1e-15:
            best_f = f
            best_tau = tau
    return float(best_tau)


def detect(
    corpus: Corpus,
    model: DualViewModel,
    params: ParamVector,
    semantics: SemanticTable,
    cfg: DetectorConfig,
    inj_cfg: injector.InjectionConfig,
    rng: SeededRng,
    manifest=None,
) -> DetectionReport:
    """Full detection pass: features, weights, smoothing, threshold, report.

    Calibration plants a secondary injection (known seed and labels) into a
    held-aside user slice and fits the weight vector and threshold there;
    every position of the corpus is then scored with those settings. When a
    ground-truth manifest is supplied the report carries precision/recall
    overall and per fake-order type.
    """
    cfg.validate()
    feats, users, positions = features(model, params, corpus, batch_users=cfg.batch_users)
    stats = FeatureStats.fit(feats)

    weights = np.asarray(cfg.weights, dtype=np.float64)
    if float(weights.sum()) > 0:
        weights = weights / float(weights.sum())
    threshold = None
    if cfg.calibrate:
        slice_rng = rng.child("calib-slice")
        n_cal = max(2, int(round(cfg.calib_frac * corpus.n_users)))
        cal_users = np.sort(slice_rng.gen.choice(corpus.n_users, size=n_cal, replace=False))
        cal_corpus = Corpus(
            [corpus.user_ids[u] for u in cal_users],
            [corpus.sequences[u].copy() for u in cal_users],
            list(corpus.item_ids),
        )
        cal_inj = injector.InjectionConfig(
            user_ratio=cfg.calib_user_ratio,
            intensity=cfg.calib_intensity,
            type_mix=inj_cfg.type_mix,
            repeat_len=inj_cfg.repeat_len,
            swap_window=inj_cfg.swap_window,
            semantic_cos_max=inj_cfg.semantic_cos_max,
        )
        cal_poisoned, cal_manifest = injector.inject(
            cal_corpus, semantics, cal_inj, rng.child("calib-inject")
        )
        cal_prefixes = [cal_poisoned.train_prefix(u) for u in range(cal_poisoned.n_users)]
        cal_feats, cal_u, cal_p = features(
            model, params, corpus, prefixes=cal_prefixes, batch_users=cfg.batch_users
        )
        marked = cal_manifest.truth()
        labels = np.asarray(
            [(int(u), int(p)) in marked for u, p in zip(cal_u, cal_p)], dtype=bool
        )
        weights = fit_weights(stats.apply(cal_feats), labels, cfg)
        cal_raw = unified_score(cal_feats, weights, stats)
        cal_smooth = smooth_by_user(cal_raw, cal_u, cfg.smoothing)
        threshold = tune_threshold(
            cal_smooth, labels, cfg.fscore_beta, cfg.default_percentile
        )

    raw = unified_score(feats, weights, stats)
    smoothed = smooth_by_user(raw, users, cfg.smoothing)
    if threshold is None:
        log.warning("detector running label-free; thresholding at percentile %.0f",
                    cfg.default_percentile)
        threshold = float(np.percentile(smoothed, cfg.default_percentile))
    flags = smoothed > threshold

    summary = {
        "threshold": threshold,
        "weights": [float(w) for w in weights],
        "positions_scored": int(users.size),
        "flagged": int(flags.sum()),
    }
    if manifest is not None:
        truth = manifest.truth()
        kinds = np.asarray([truth.get((int(u), int(p)), "") for u, p in zip(users, positions)])
        is_fake = kinds != ""
        tp = int((flags & is_fake).sum())
        fp = int((flags & ~is_fake).sum())
        fn = int((~flags & is_fake).sum())
        precision = tp / max(tp + fp, 1)
        recall = tp / max(tp + fn, 1)
        summary["overall"] = {
            "true_positives": tp,
            "false_positives": fp,
            "false_negatives": fn,
            "precision": precision,
            "recall": recall,
            "f1": fbeta(precision, recall, 1.0),
        }
        per_type = {}
        for kind in injector.TYPES:
            kind_mask = kinds == kind
            k_tp = int((flags & kind_mask).sum())
            k_total = int(kind_mask.sum())
            per_type[kind] = {
                "total": k_total,
                "detected": k_tp,
                "recall": k_tp / max(k_total, 1),
            }
        summary["per_type"] = per_type
    return DetectionReport(
        users, positions, feats, raw, smoothed, flags, float(threshold), weights, summary
    )
