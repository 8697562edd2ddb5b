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

Features are computed for a batch of users at once. Each batch is padded
once (`BlockModel._padded`) and both views encode that one item matrix
(`BlockModel.encode`); popularity deviation comes from masked row moments,
context disruption from one elementwise `Corpus.bigram_logprob` call over
every transition of the batch. No Python loop runs per user or per
position.

Signals are z-normalized over all scored positions, combined by a weight
vector, smoothed over each user's neighbouring positions (factor 0.3,
`_SMOOTHING`), and thresholded. Weights and the threshold are fitted on a
calibration slice: 15% of the users (`_CALIB_FRAC`), carrying a secondary
injection at user ratio and intensity 0.3 (`_CALIB_USER_RATIO`,
`_CALIB_INTENSITY`) with known labels; the threshold maximizes F2
(`_FSCORE_BETA`). Without calibration the detector falls back to uniform
weights (`_UNIFORM_WEIGHTS`) and a percentile threshold.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import injector
from .corpus import Corpus
from .dualview import ENCODERS, DualViewModel
from .encoder import next_step_probs, sigmoid
from .errors import InvalidArgument, writing
from .numkit import SeededRng
from .params import ParamVector

log = logging.getLogger(__name__)

FEATURE_NAMES = ("pred_divergence", "rep_disagreement", "pop_deviation", "context_disruption")
_CSV_ROWS = 2048  # rows of detection.csv formatted and written at once
_JSD_ROWS = 64  # rows of the JSD's (rows, V) mixture and log workspace
# calibration weight fit: gradient-descent steps, step size and L2 penalty
_FIT_STEPS, _FIT_RATE, _FIT_L2 = 500, 0.1, 1e-4
_UNIFORM_WEIGHTS = (0.25, 0.25, 0.25, 0.25)  # without calibration, and the fit's fallback
_SMOOTHING = 0.3  # share of a position's score taken from its neighbours
_FSCORE_BETA = 2.0  # the calibrated threshold maximizes this F-beta
# calibration slice: share of the users, and its injection's user ratio and intensity
_CALIB_FRAC, _CALIB_USER_RATIO, _CALIB_INTENSITY = 0.15, 0.3, 0.3


@dataclass
class DetectorConfig:
    calibrate: bool = True
    default_percentile: float = 95.0

    def validate(self) -> None:
        if not (0.0 <= self.default_percentile <= 100.0):
            raise InvalidArgument("default_percentile must lie in [0, 100]")


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
    summary: dict = field(default_factory=dict)

    @property
    def suspicious(self) -> list[tuple[int, int]]:
        return [
            (int(u), int(p))
            for u, p in zip(self.users[self.flags], self.positions[self.flags])
        ]

    def to_csv(self, path: str, truth: dict) -> None:
        """One row per scored position, floats as `repr`, lines ended by CR LF.

        `truth` maps (user, position) to the fake-order type of a planted
        position (`FakeOrderManifest.truth`). Written block by block from
        `.tolist()` columns. No field holds a comma, quote or line break, so
        the bytes equal `csv.writer`'s.
        """
        header = ["user", "position", *FEATURE_NAMES, "raw_score", "smoothed_score", "flag", "truth_type"]
        with writing(path, newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, self.users.size, _CSV_ROWS):
                rows = slice(start, start + _CSV_ROWS)
                users, positions = self.users[rows].tolist(), self.positions[rows].tolist()
                scores = [*self.features[rows].T, self.raw_scores[rows], self.smoothed_scores[rows]]
                columns = [
                    map(str, users),
                    map(str, positions),
                    *(map(repr, column.tolist()) for column in scores),
                    map(str, self.flags[rows].astype(np.int64).tolist()),
                    (truth.get(key, "") for key in zip(users, positions)),
                ]
                fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _entropy_rows(x: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """Natural-log entropy along the last axis, with 0 log 0 = 0; log_x is scratch of x's shape."""
    log_x.fill(0.0)
    np.log(x, out=log_x, where=x > 0.0)
    return -np.einsum("...v,...v->...", x, log_x)


def _jsd_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorized natural-log JSD along the last axis.

    Rows go through in blocks of `_JSD_ROWS`, which share one mixture and
    one log buffer, so the workspace stays small next to p and q.
    """
    shape, v = p.shape[:-1], p.shape[-1]
    p, q = p.reshape(-1, v), q.reshape(-1, v)
    out = np.empty(p.shape[0])
    mix = np.empty((min(_JSD_ROWS, out.size), v))
    log_buf = np.empty_like(mix)
    for start in range(0, out.size, _JSD_ROWS):
        rows = slice(start, min(start + _JSD_ROWS, out.size))
        m, log_m = mix[: rows.stop - start], log_buf[: rows.stop - start]
        np.add(p[rows], q[rows], out=m)
        m *= 0.5
        h_m = _entropy_rows(m, log_m)
        out[rows] = h_m - 0.5 * (_entropy_rows(p[rows], log_m) + _entropy_rows(q[rows], log_m))
    return np.maximum(out, 0.0, out=out).reshape(shape)


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
        items, lengths = model._padded(batch)
        states, probs = [], []
        for prefix, table in zip(ENCODERS.values(), tables):
            view_states, _ = model.encode(params, prefix, table, items)
            states.append(view_states)
            probs.append(next_step_probs(view_states[:, :-1], table))
        # no prefix predicts position 0: both views call it uniform, a JSD of 0
        jsd = np.zeros(items.shape)
        jsd[:, 1:] = _jsd_rows(*probs)
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


def fit_weights(norm_feats: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Logistic-regression feature weights from labeled calibration positions.

    Batch gradient descent; negative coefficients are clipped to zero and
    the rest renormalized to sum 1. Degenerate labels fall back to uniform.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.size != norm_feats.shape[0]:
        raise InvalidArgument("labels must align with features")
    if y.min() == y.max():
        log.warning("calibration labels are one-class; using uniform weights")
        return np.asarray(_UNIFORM_WEIGHTS)
    theta = np.zeros(norm_feats.shape[1])
    bias = 0.0
    n = y.size
    for _ in range(_FIT_STEPS):
        z = norm_feats @ theta + bias
        p = sigmoid(z)
        err = p - y
        grad = norm_feats.T @ err / n + _FIT_L2 * theta
        theta -= _FIT_RATE * grad
        bias -= _FIT_RATE * float(err.mean())
    w = np.clip(theta, 0.0, None)
    total = float(w.sum())
    if total <= 0.0:
        log.warning("all fitted weights non-positive; using uniform weights")
        return np.asarray(_UNIFORM_WEIGHTS)
    return w / total


def smooth_by_user(raw: np.ndarray, users: np.ndarray) -> np.ndarray:
    """U(k) = (1-rho) u(k) + rho * mean of the neighbours k-1, k+1 of the same user,
    with rho = `_SMOOTHING`.

    Each user's positions are contiguous in `raw`; a user with a single
    position keeps its raw score.
    """
    same = users[1:] == users[:-1]
    left = np.concatenate([[False], same])
    right = np.concatenate([same, [False]])
    before, after = np.roll(raw, 1), np.roll(raw, -1)
    neighbour = np.where(left & right, (before + after) / 2, np.where(left, before, after))
    return np.where(left | right, (1.0 - _SMOOTHING) * raw + _SMOOTHING * neighbour, raw)


def fbeta(precision: float, recall: float, beta: float) -> float:
    if precision == 0.0 and recall == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * precision * recall / (b2 * precision + recall)


def tune_threshold(scores: np.ndarray, labels: np.ndarray, default_percentile: float) -> float:
    """Sweep the 80th..99th percentiles of the calibration scores and pick
    the F-beta maximizer (beta `_FSCORE_BETA`); ties resolve to the smaller
    (more lenient) threshold. Without positive labels, fall back to the
    `default_percentile` percentile."""
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
        f = fbeta(precision, recall, _FSCORE_BETA)
        if f > best_f + 1e-15:
            best_f = f
            best_tau = tau
    return float(best_tau)


def detect(
    corpus: Corpus,
    model: DualViewModel,
    params: ParamVector,
    semantics: np.ndarray,
    cfg: DetectorConfig,
    inj_cfg: injector.InjectionConfig,
    rng: SeededRng,
    manifest: injector.FakeOrderManifest,
) -> DetectionReport:
    """Full detection pass: features, weights, smoothing, threshold, report.

    Calibration plants a secondary injection (known seed and labels) into a
    held-aside user slice and fits the weight vector and threshold there;
    every position of the corpus is then scored with those settings. The
    report carries precision/recall against the ground-truth `manifest`,
    overall and per fake-order type.
    """
    cfg.validate()
    feats, users, positions = features(model, params, corpus)
    stats = FeatureStats.fit(feats)

    weights = np.asarray(_UNIFORM_WEIGHTS)
    threshold = None
    if cfg.calibrate:
        slice_rng = rng.child("calib-slice")
        n_cal = max(2, int(round(_CALIB_FRAC * corpus.n_users)))
        cal_users = np.sort(slice_rng.gen.choice(corpus.n_users, size=n_cal, replace=False))
        cal_corpus = Corpus(
            [corpus.user_ids[u] for u in cal_users],
            [corpus.sequences[u].copy() for u in cal_users],
            list(corpus.item_ids),
        )
        cal_inj = replace(inj_cfg, user_ratio=_CALIB_USER_RATIO, intensity=_CALIB_INTENSITY)
        cal_poisoned, cal_manifest = injector.inject(
            cal_corpus, semantics, cal_inj, rng.child("calib-inject")
        )
        cal_prefixes = [cal_poisoned.train_prefix(u) for u in range(cal_poisoned.n_users)]
        cal_feats, cal_u, cal_p = features(model, params, corpus, prefixes=cal_prefixes)
        marked = cal_manifest.truth()
        labels = np.asarray(
            [(int(u), int(p)) in marked for u, p in zip(cal_u, cal_p)], dtype=bool
        )
        weights = fit_weights(stats.apply(cal_feats), labels)
        cal_raw = unified_score(cal_feats, weights, stats)
        cal_smooth = smooth_by_user(cal_raw, cal_u)
        threshold = tune_threshold(cal_smooth, labels, cfg.default_percentile)

    raw = unified_score(feats, weights, stats)
    smoothed = smooth_by_user(raw, users)
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
    return DetectionReport(users, positions, feats, raw, smoothed, flags, summary)
