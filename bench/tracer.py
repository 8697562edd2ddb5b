"""Run one orderlab CLI command with every layer's public functions wrapped.

Usage: python bench/tracer.py TRACE_JSON <orderlab cli arguments...>

The wrappers are installed from outside the package: each function is
replaced in its defining module and at every module that imported it by
name, so a call is recorded wherever the caller looks the name up. A span
records calls, self time (its duration minus the time of spans opened
inside it) and inclusive time; some boundaries also add exact work counts.
The trace is written to TRACE_JSON and the CLI's exit code is returned.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, metric prefix); "Class.method" wraps a method.
SPANS = (
    ("orderlab.encoder", "gru_forward", "encoder.gru_forward"),
    ("orderlab.encoder", "gru_backward", "encoder.gru_backward"),
    ("orderlab.encoder", "tied_next_item_loss", "encoder.tied_next_item_loss"),
    ("orderlab.encoder", "next_step_probs", "encoder.next_step_probs"),
    ("orderlab.seqrec", "SeqRecModel.batch_term_loss", "seqrec.batch_term_loss"),
    ("orderlab.seqrec", "SeqRecModel.sample_term_loss", "seqrec.sample_term_loss"),
    ("orderlab.dualview", "DualViewModel.joint_loss", "dualview.joint_loss"),
    ("orderlab.dualview", "DualViewModel.item_inputs", "dualview.item_inputs"),
    ("orderlab.dualview", "contrastive_loss", "dualview.contrastive_loss"),
    ("orderlab.params", "Adam.step", "params.adam_step"),
    ("orderlab.params", "run_training", "params.run_training"),
    ("orderlab.detector", "features", "detector.features"),
    ("orderlab.rectifier", "hvp", "rectifier.hvp"),
    ("orderlab.rectifier", "estimate_scale", "rectifier.estimate_scale"),
    ("orderlab.rectifier", "lissa_solve", "rectifier.lissa_solve"),
    ("orderlab.rectifier", "influence_values", "rectifier.influence_values"),
    ("orderlab.rectifier", "term_sum_gradient", "rectifier.term_sum_gradient"),
    ("orderlab.rectifier", "rectify", "rectifier.rectify"),
    ("orderlab.harness.metrics", "evaluate_topk", "harness.metrics.evaluate_topk"),
    ("orderlab.corpus", "sample_negatives", "corpus.sample_negatives"),
    ("orderlab.corpus", "synth_corpus", "corpus.synth_corpus"),
    ("orderlab.corpus", "leave_one_out", "corpus.leave_one_out"),
    ("orderlab.corpus", "Corpus.save", "corpus.save"),
    ("orderlab.corpus", "Corpus.load", "corpus.load"),
    ("orderlab.semantics", "reduce", "semantics.reduce"),
    ("orderlab.numkit", "pca_fit", "numkit.pca_fit"),
    ("orderlab.injector", "inject", "injector.inject"),
    ("orderlab.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("orderlab.checkpoint", "load_checkpoint", "checkpoint.load"),
)

# Called once per position or batch, too often for a span to be cheap:
# counted, their time left to the caller.
COUNTED = (
    ("orderlab.corpus", "Corpus.bigram_logprob", "corpus.bigram_logprob"),
    ("orderlab.encoder", "pad_sequences", "encoder.pad_sequences"),
)

# Modules that import a wrapped function by name; the trace fails unless
# each of these names is the wrapper after installation.
BINDING_SITES = (
    ("orderlab.harness.pipeline", "evaluate_topk"),
    ("orderlab.harness.pipeline", "save_checkpoint"),
    ("orderlab.harness.pipeline", "load_checkpoint"),
    ("orderlab.harness.pipeline", "synth_corpus"),
    ("orderlab.harness.pipeline", "leave_one_out"),
    ("orderlab.detector", "next_step_probs"),
    ("orderlab.harness.metrics", "sample_negatives"),
    ("orderlab.semantics", "pca_fit"),
    ("orderlab.seqrec", "run_training"),
    ("orderlab.dualview", "run_training"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_lissa_iterations(args, kwargs, counts):
    """Count the HVP applications inside the LiSSA recursion (apply_hvp is argument 0)."""
    apply_hvp = args[0]

    def counted(h, j):
        counts["rectifier.lissa_iterations"] += 1
        return apply_hvp(h, j)

    return (counted,) + args[1:], kwargs


def _after_gru_forward(args, kwargs, result, counts):
    x = _arg(args, kwargs, 1, "x")
    counts["encoder.cell_steps"] += int(x.shape[0] * x.shape[1])


def _after_pad(args, kwargs, result, counts):
    items, lengths = result
    counts["encoder.pad_cells"] += int(items.size)
    counts["encoder.pad_padded"] += int(items.size - lengths.sum())


def _after_tied_loss(args, kwargs, result, counts):
    states = _arg(args, kwargs, 0, "states")
    table = _arg(args, kwargs, 1, "table")
    b, t_len = states.shape[:2]
    counts["encoder.logits"] += int(b * max(t_len - 1, 0) * table.shape[0])


def _after_influence(args, kwargs, result, counts):
    counts["rectifier.influence_samples"] += len(_arg(args, kwargs, 4, "samples"))


def _bytes_of_arg(metric, index, name):
    def hook(args, kwargs, result, counts):
        counts[metric] += os.path.getsize(_arg(args, kwargs, index, name))

    return hook


BEFORE = {"rectifier.lissa_solve": _count_lissa_iterations}

AFTER = {
    "encoder.gru_forward": _after_gru_forward,
    "encoder.pad_sequences": _after_pad,
    "encoder.tied_next_item_loss": _after_tied_loss,
    "rectifier.influence_values": _after_influence,
    "checkpoint.save": _bytes_of_arg("checkpoint.save.bytes", 0, "path"),
    "checkpoint.load": _bytes_of_arg("checkpoint.load.bytes", 0, "path"),
    # methods: argument 0 is the instance or class
    "corpus.save": _bytes_of_arg("corpus.save.bytes", 1, "path"),
    "corpus.load": _bytes_of_arg("corpus.load.bytes", 1, "path"),
}


class Tracer:
    """Span and count registry for one process."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._open: list[float] = []  # child time accumulated by each open span

    def span(self, name, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._open
        before, after = BEFORE.get(name), AFTER.get(name)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs, counts)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += total - child
                stats[2] += total
                if stack:
                    stack[-1] += total
            if after is not None:
                after(args, kwargs, result, counts)
            return result

        return wrapper

    def counted(self, name, fn):
        key = f"{name}.calls"
        after = AFTER.get(name)
        counts = self.counts
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result, counts)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "self_s": s, "total_s": t}
                for name, (c, s, t) in sorted(self.spans.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


def _rebind(original, wrapper) -> None:
    """Replace `original` in every loaded orderlab module that holds it."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("orderlab"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _install_one(module, attr, make_wrapper) -> None:
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, meth, make_wrapper(raw))
        return
    original = getattr(module, attr)
    _rebind(original, make_wrapper(original))


def install(tracer: Tracer) -> None:
    """Wrap every SPANS and COUNTED entry; fail on an unwrapped binding site."""
    importlib.import_module("orderlab.harness.cli")  # loads every layer
    wrapped = set()
    for group, factory in ((SPANS, tracer.span), (COUNTED, tracer.counted)):
        for mod_name, attr, name in group:
            module = importlib.import_module(mod_name)

            def make(fn, name=name, factory=factory):
                wrapper = factory(name, fn)
                wrapped.add(wrapper)
                return wrapper

            _install_one(module, attr, make)
    for mod_name, attr in BINDING_SITES:
        if getattr(sys.modules[mod_name], attr) not in wrapped:
            raise RuntimeError(f"{mod_name}.{attr} is not wrapped")


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from orderlab.harness.cli import main as cli_main

    code = cli_main(cli_args)
    doc = tracer.to_json()
    doc["exit_code"] = code
    tmp = f"{trace_path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    os.replace(tmp, trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
