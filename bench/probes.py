"""Fixed-shape kernel probes: one layer call at a time, at B=32, T=50, d=64, V=500.

Usage: python bench/probes.py OUT_JSON

Writes to OUT_JSON one JSON object mapping `kernel.<probe>_ms` to the median wall time
of one call, and `kernel.<probe>_flop` to the matmul operations of that
call as computed from the shapes (not counted by hardware). Inputs come
from a fixed seed, so every run times the same arithmetic.
"""
from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from orderlab import encoder, rectifier
from orderlab.corpus import Corpus, leave_one_out
from orderlab.detector import features
from orderlab.dualview import DualViewConfig, DualViewModel, contrastive_loss
from orderlab.harness.metrics import evaluate_topk
from orderlab.numkit import SeededRng
from orderlab.params import ParamVector
from orderlab.seqrec import ModelConfig, SeqRecModel

B, T, D, V = 32, 50, 64, 500
PROBE_SECONDS = 0.2  # per probe, after one warm-up call


def median_ms(fn) -> float:
    fn()
    times = []
    deadline = time.perf_counter() + PROBE_SECONDS
    while len(times) < 3 or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main() -> dict:
    gen = np.random.default_rng(0)
    weights = {
        name: gen.normal(0.0, 0.1, size=shape)
        for name, shape in encoder.encoder_shapes(D, D).items()
    }
    x = gen.normal(size=(B, T, D))
    states, cache = encoder.gru_forward(weights, x)
    d_states = gen.normal(size=states.shape)
    table = gen.normal(0.0, 0.1, size=(V, D))
    items = gen.integers(0, V, size=(B, T))
    term_w = encoder.term_weight_matrix(np.full(B, T), T)

    # (user sequences of T + 2 items: train prefixes of length T)
    seqs = [gen.integers(0, V, size=T + 2) for _ in range(B)]
    corpus = Corpus([f"u{i}" for i in range(B)], seqs, [f"i{k}" for k in range(V)])
    prefixes = [corpus.train_prefix(u) for u in range(B)]

    target = SeqRecModel(ModelConfig(vocab=V, hidden=D))
    params = target.init_params(SeededRng(0))

    def grad_fn(flat):
        return target.dataset_loss(ParamVector(target.registry, flat), prefixes)[1].flat

    direction = gen.normal(size=params.size)

    def apply_hvp(h, j):
        return rectifier.hvp(grad_fn, params.flat, h)

    samples = [(u, T - 1) for u in range(B)]
    split = leave_one_out(corpus)
    eval_rng = SeededRng(1)

    sem = gen.normal(size=(V, D))
    dual = DualViewModel(DualViewConfig(vocab=V, sem_dim=D, hidden=D), sem, sem.copy())
    dual_params = dual.init_params(SeededRng(2))
    rep_sem, rep_col = gen.normal(size=(B, D)), gen.normal(size=(B, D))

    probes = {
        "gru_forward": lambda: encoder.gru_forward(weights, x),
        "gru_backward": lambda: encoder.gru_backward(weights, cache, d_states),
        "tied_loss": lambda: encoder.tied_next_item_loss(states, table, items, term_w),
        "item_inputs": lambda: dual.item_inputs(dual_params),
        "contrastive": lambda: contrastive_loss(rep_sem, rep_col, 0.1),
        "detector_features": lambda: features(dual, dual_params, corpus, batch_users=B),
        "hvp": lambda: apply_hvp(direction, 1),
        "lissa_iter": lambda: rectifier.lissa_solve(apply_hvp, direction, 1, 0.01, 10.0),
        # per sample: the probe scores B samples in one call
        "influence_sample": lambda: rectifier.influence_values(
            target, params, seqs, direction, samples
        ),
        "evaluate_topk": lambda: evaluate_topk(
            target, params, corpus, split, negatives=100, rng=eval_rng
        ),
    }
    out = {f"kernel.{name}_ms": median_ms(fn) for name, fn in probes.items()}
    out["kernel.influence_sample_ms"] /= len(samples)

    gru_fwd = 2 * B * T * 3 * D * (D + D)  # input and recurrent projections of 3 gates
    out["kernel.gru_forward_flop"] = gru_fwd
    out["kernel.gru_backward_flop"] = 2 * gru_fwd  # gradients of both operands
    out["kernel.tied_loss_flop"] = 3 * 2 * B * (T - 1) * V * D  # logits, d_states, d_table
    return out


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(main(), fh, sort_keys=True)
