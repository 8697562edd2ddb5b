"""Influence triage and targeted gradient-ascent rectification.

The influence of a flagged sample is Inf = -g_v^T H^{-1} grad(sample),
where g_v is the mean gradient over clean validation pairs and H the
Hessian of the training objective at the compromised parameters. One
inverse-Hessian-vector product on g_v (LiSSA recursion over
finite-difference Hessian-vector products) serves every sample via the
symmetry of H. Each product is `hvp`'s central difference with step 1e-3
(`_FD_STEP`), on a minibatch of 128 users (all users when there are
fewer; `_BATCH_USERS`). The LiSSA scale is always estimated: 1.5x
(`_SCALE_MARGIN`) a power-iteration estimate of the top eigenvalue on one
such minibatch.
The sign rule is fixed: a sample is harmful when its influence is
above 0. Each rectify round steps up by 1e-4 times the summed harmful
term gradients, its norm capped at 1.0 (`_ASCENT_RATE`, `_ASCENT_CLIP`),
then down by 1e-5 times the mean gradient of up to 1,024 clean samples
(`_DESCENT_RATE`, `_CLEAN_BATCH`). Rectify keeps the best round by
validation NDCG and stops once a round falls more than 2% below the input
model's (`_VAL_DROP_TOL`).

Both halves return the documents their pipeline stages write:
`influence_report` gives the influence.json dict (samples, values, the
harmful samples, threshold, LiSSA scale and residual, the norm of g_v and
the number of validation pairs), and `rectify` gives the kept parameters
with the rectify_trace.json dict. `lissa_ihvp` returns a plain
(estimate, scale, residual) tuple.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, EmptyCleanSet, InvalidArgument, NumericalFailure
from .numkit import SeededRng
from .params import ParamVector, TermSet, clip_to_norm
from .seqrec import SeqRecModel

log = logging.getLogger(__name__)


_FD_STEP = 1e-3  # length of `hvp`'s finite-difference step along the direction
_SCALE_MARGIN = 1.5  # the LiSSA scale is this times the power-iteration eigenvalue estimate
_BATCH_USERS = 128  # users per Hessian minibatch (all of them when there are fewer)
_ASCENT_RATE = 1e-4  # rectify's step on the summed harmful term gradients
_ASCENT_CLIP = 1.0  # norm cap of that step
_DESCENT_RATE = 1e-5  # rectify's step on the mean clean-batch gradient
_CLEAN_BATCH = 1024  # clean samples drawn per round (all of them when there are fewer)
_VAL_DROP_TOL = 0.02  # stop once validation falls this far below the input's, relative


@dataclass
class InfluenceConfig:
    """LiSSA knobs.

    The LiSSA scale is always estimated: 1.5x a power-iteration estimate of
    the top eigenvalue on one minibatch of 128 users (all users when there
    are fewer). Every Hessian-vector product takes `hvp`'s finite-difference
    step of 1e-3.
    """

    lissa_depth: int = 100
    damping: float = 0.01
    scale_power_iters: int = 20
    repeats: int = 2

    def validate(self) -> None:
        if self.lissa_depth < 1 or self.repeats < 1 or self.scale_power_iters < 1:
            raise InvalidArgument("lissa_depth, repeats and scale_power_iters must be >= 1")
        if self.damping < 0.0:
            raise InvalidArgument("damping must be >= 0")


@dataclass
class RectifyConfig:
    max_rounds: int = 5

    def validate(self) -> None:
        if self.max_rounds < 1:
            raise InvalidArgument("max_rounds must be >= 1")


# --- Hessian-vector machinery ----------------------------------------------

def hvp(grad_fn, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Central finite difference of a gradient function: H v ~ [g(x+e v) - g(x-e v)] / 2e.

    Exact (up to rounding) on quadratics. `grad_fn` maps a flat parameter
    array to the flat gradient of the dataset loss.
    """
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        raise InvalidArgument("hvp direction has zero norm")
    eps = _FD_STEP / max(norm_v, 1e-8)
    g_plus = np.asarray(grad_fn(x + eps * v), dtype=np.float64)
    g_minus = np.asarray(grad_fn(x - eps * v), dtype=np.float64)
    if not (np.all(np.isfinite(g_plus)) and np.all(np.isfinite(g_minus))):
        raise NumericalFailure("non-finite gradient inside hvp")
    return (g_plus - g_minus) / (2.0 * eps)


def estimate_scale(apply_hvp, dim: int, iters: int, rng: SeededRng) -> float:
    """`_SCALE_MARGIN` x power-iteration estimate of the top Hessian eigenvalue magnitude."""
    v = rng.gen.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(iters):
        w = apply_hvp(v)
        lam = float(np.linalg.norm(w))
        if lam <= 1e-300:
            return _SCALE_MARGIN  # numerically zero curvature; any positive scale works
        v = w / lam
    return _SCALE_MARGIN * lam


def lissa_solve(apply_hvp, v: np.ndarray, depth: int, damping: float, scale: float):
    """Core LiSSA recursion.

    h_0 = v;  h_j = v + h_{j-1} - (H h_{j-1} + damping * h_{j-1}) / scale;
    the returned estimate is h_depth / scale, whose fixed point solves
    (H + damping I) h = v. `apply_hvp(h, j)` may be stochastic in j.
    """
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        return np.zeros_like(v)
    h = v.copy()
    for j in range(1, depth + 1):
        hv = apply_hvp(h, j)
        h = v + h - (hv + damping * h) / scale
        if float(np.linalg.norm(h)) > 1e6 * norm_v:
            raise DivergenceError(
                f"LiSSA diverged at iteration {j} with scale {scale!r}; increase the scale"
            )
    return h / scale


def lissa_ihvp(
    model: SeqRecModel,
    params: ParamVector,
    sequences,
    v: np.ndarray,
    cfg: InfluenceConfig,
    rng: SeededRng,
) -> tuple[np.ndarray, float, float]:
    """Approximate H^{-1} v for the training loss of `model` on `sequences`.

    Returns (estimate, scale, residual). Repeats run over independent
    minibatch orderings and are averaged; the residual
    ||(H + damping I) est - v|| / ||v|| is evaluated with one full-batch
    Hessian-vector product and logged for diagnostics.
    """
    cfg.validate()
    terms = model.training_terms(sequences)
    n = terms.lengths.size
    full_idx = np.arange(n)

    def minibatch(gen):
        if n <= _BATCH_USERS:
            return full_idx
        return np.sort(gen.choice(n, size=_BATCH_USERS, replace=False))

    def hvp_on(idx, h):
        # the minibatch's `dataset_loss`, from the training terms padded once
        def grad_at(x_flat):
            x = ParamVector(model.registry, x_flat)
            return model.weighted_gradient(x, terms, idx, idx.size)[1].flat

        return hvp(grad_at, params.flat, h)

    scale_rng = rng.child("scale")
    scale_idx = minibatch(scale_rng.gen)
    scale = estimate_scale(
        lambda h: hvp_on(scale_idx, h), params.size, cfg.scale_power_iters, scale_rng
    )
    estimates = []
    for r in range(cfg.repeats):
        rep_rng = rng.child(f"repeat-{r}")
        apply = lambda h, j: hvp_on(minibatch(rep_rng.gen), h)
        est = lissa_solve(apply, np.asarray(v, dtype=np.float64), cfg.lissa_depth, cfg.damping, scale)
        estimates.append(est)
    estimate = np.mean(estimates, axis=0)
    if float(np.linalg.norm(v)) > 0.0:
        residual = float(
            np.linalg.norm(hvp_on(full_idx, estimate) + cfg.damping * estimate - v)
            / np.linalg.norm(v)
        )
    else:
        residual = 0.0
    log.info("lissa: scale=%.4g residual=%.4g", scale, residual)
    return estimate, scale, residual


# --- influence -----------------------------------------------------------

def _sample_sequence(sequences, user: int, pos: int):
    """The sequence whose term `pos` a (user, position) sample names, checked."""
    if not (0 <= user < len(sequences)):
        raise InvalidArgument(f"sample user {user} is not in [0, {len(sequences)})")
    seq = sequences[user]
    if not (1 <= pos < len(seq)):
        raise InvalidArgument(f"sample position {pos} needs a non-empty prefix")
    return seq


def validation_gradient(model: SeqRecModel, params: ParamVector, pairs) -> np.ndarray:
    """Mean sample-term gradient over (prefix, target) validation pairs: the
    `term_sum_gradient` of each pair's last term in its prefix + target sequence."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyCleanSet("no clean validation pairs")
    seqs = [np.append(np.asarray(p, dtype=np.int64), np.int64(t)) for p, t in pairs]
    samples = [(i, len(p)) for i, (p, _) in enumerate(pairs)]
    return term_sum_gradient(model, params, seqs, samples, 1.0 / len(pairs))


def influence_values(
    model: SeqRecModel,
    params: ParamVector,
    sequences,
    ihvp_of_validation: np.ndarray,
    samples,
) -> np.ndarray:
    """Inf(sample) = -(H^{-1} g_v) . grad(sample term) for each (user, position)."""
    out = np.empty(len(samples))
    for i, (user, pos) in enumerate(samples):
        seq = _sample_sequence(sequences, user, pos)
        _, grad = model.sample_term_loss(params, seq[:pos], int(seq[pos]))
        out[i] = -float(ihvp_of_validation @ grad.flat)
    return out


def influence_report(
    model: SeqRecModel,
    params: ParamVector,
    sequences,
    suspicious,
    validation_pairs,
    cfg: InfluenceConfig,
    rng: SeededRng,
) -> dict:
    """Score every suspicious (user, position) sample against clean validation.

    Returns the influence.json document: the samples, their influence
    values, the harmful samples (value above the threshold, 0), the LiSSA
    scale and residual, the norm of g_v and the number of validation pairs.
    """
    g_v = validation_gradient(model, params, validation_pairs)
    estimate, scale, residual = lissa_ihvp(model, params, sequences, g_v, cfg, rng)
    samples = [(int(u), int(p)) for u, p in suspicious]
    values = influence_values(model, params, sequences, estimate, samples).tolist()
    threshold = 0.0
    return {
        "samples": samples,
        "values": values,
        "harmful": [s for s, v in zip(samples, values) if v > threshold],
        "threshold": threshold,
        "scale": scale,
        "residual": residual,
        "validation_grad_norm": float(np.linalg.norm(g_v)),
        "clean_validation_pairs": len(validation_pairs),
    }


# --- rectification ---------------------------------------------------------

def term_sum_gradient(
    model: SeqRecModel, params: ParamVector, sequences, samples, weight_each: float
) -> np.ndarray:
    """Gradient of weight_each * sum of the samples' term losses (batched by user)."""
    if len(samples) == 0:
        raise InvalidArgument("term_sum_gradient over an empty sample set")
    for user, pos in samples:
        _sample_sequence(sequences, user, pos)
    sample_users, positions = np.asarray(samples, dtype=np.int64).T
    users, rows = np.unique(sample_users, return_inverse=True)
    items, lengths = model._padded([sequences[u] for u in users])
    weights = np.zeros((users.size, items.shape[1] - 1))
    np.add.at(weights, (rows, positions - 1), weight_each)  # in sample order, duplicates summed
    terms = TermSet(items, lengths, weights)
    return model.weighted_gradient(params, terms, np.arange(users.size), 1)[1].flat


def rectify(
    model: SeqRecModel,
    params: ParamVector,
    sequences,
    harmful,
    clean_pool,
    eval_fn,
    cfg: RectifyConfig,
    rng: SeededRng,
) -> tuple[ParamVector, dict]:
    """Alternate targeted ascent on harmful samples with clean-set descent.

    Per round: ascent step `_ASCENT_RATE` * sum of harmful term gradients
    (step norm-capped at `_ASCENT_CLIP`), then descent `_DESCENT_RATE` *
    mean gradient over a seeded clean-sample batch; validation performance
    is evaluated every round and the best checkpoint (including the input)
    is returned. Stops early when validation drops more than
    `_VAL_DROP_TOL` relative. The trace is the rectify_trace.json document:
    each round's step norm and validation value, the input's value, the
    kept round (0 for the input) and whether the loop stopped early.
    """
    cfg.validate()
    current = params.copy()
    base_value = float(eval_fn(current))
    trace = {"rounds": [], "initial_value": base_value, "best_round": 0, "stopped_early": False}
    best_value = base_value
    best_params = current.copy()
    if not harmful:
        log.info("rectify: empty harmful set, returning input parameters")
        return best_params, trace
    clean_pool = list(clean_pool)
    for round_idx in range(1, cfg.max_rounds + 1):
        ascent = term_sum_gradient(model, current, sequences, harmful, 1.0)
        step = clip_to_norm(_ASCENT_RATE * ascent, _ASCENT_CLIP)
        current.flat += step
        if clean_pool:
            round_rng = rng.child(f"round-{round_idx}")
            k = min(_CLEAN_BATCH, len(clean_pool))
            pick = round_rng.gen.choice(len(clean_pool), size=k, replace=False)
            batch = [clean_pool[i] for i in pick]
            descent = term_sum_gradient(model, current, sequences, batch, 1.0 / k)
            current.flat -= _DESCENT_RATE * descent
        if not np.all(np.isfinite(current.flat)):
            raise NumericalFailure(f"non-finite parameters after round {round_idx}")
        value = float(eval_fn(current))
        trace["rounds"].append(
            {
                "round": round_idx,
                "ascent_step_norm": float(np.linalg.norm(step)),
                "validation_value": value,
            }
        )
        if value > best_value:
            best_value = value
            best_params = current.copy()
            trace["best_round"] = round_idx
        if value < (1.0 - _VAL_DROP_TOL) * base_value:
            trace["stopped_early"] = True
            log.info("rectify: early stop at round %d (validation fell to %.4f)", round_idx, value)
            break
    return best_params, trace
