"""End-to-end experiment pipeline with resumable, deterministic stages.

Stage order: data -> clean_model -> inject -> poisoned_model -> dualview
-> detect -> influence -> rectify -> final. Every stage derives its
randomness from a fixed label off the root seed and keeps its results in
files written atomically. On --resume a stage reloads a group of files
when every file of the group exists, and otherwise recomputes and rewrites
the group (`Pipeline.artifacts`); a resumed run therefore produces
byte-identical reports. It refuses a config other than the saved
config.json, and a checkpoint of another architecture fails to load.
Wall-clock timings go to a separate timings.json, keeping metrics.json
deterministic.

The clean and poisoned target models share initialization and training
randomness (labels "target-init"/"target-train"), so the two models
differ only through the data.

Each target model is ranked once per split (`Pipeline.ranks`): one
`evaluate_topk` pass gives its validation and test ranks, kept under the
corpus and a digest of the parameter bytes. The final stage reuses the
ranks rectify took of the compromised model and of the kept round, so a
fresh run's final stage ranks only the clean model, and a resumed one
ranks a rectified model equal to the compromised one once.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import time

import numpy as np

from .. import detector, injector, rectifier, semantics as semantics_mod
from ..checkpoint import load_checkpoint, save_checkpoint
from ..corpus import Corpus, build_corpus, leave_one_out, load_interactions, synth_corpus
from ..dualview import DualViewConfig, DualViewModel
from ..errors import FormatError, InvalidArgument, reading, writing
from ..numkit import SeededRng
from ..params import ParamVector
from ..seqrec import ModelConfig, SeqRecModel
from .config import ExperimentConfig
from .metrics import KS, MODES, convergence_report, draw_candidates, evaluate_topk, ndcg, topk_report

log = logging.getLogger(__name__)

STAGES = (
    "data",
    "clean_model",
    "inject",
    "poisoned_model",
    "dualview",
    "detect",
    "influence",
    "rectify",
    "final",
)

SWEEP_VARIANTS = ("clean", "repetitive", "semantic", "sequential")

SPLIT_OF = {"corpus": "split", "poisoned": "poisoned_split"}  # ctx keys: corpus -> its split


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path: str, obj) -> None:
    with writing(path) as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path: str):
    with open(path, encoding="utf-8") as fh, reading(path):
        return json.load(fh)


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _checkpoint(model, config: dict):
    """Save/load pair of a model's parameters, with `config` in the file header."""

    def load(path):
        arch, _, flat = load_checkpoint(path)
        if arch != model.ARCH:
            raise FormatError(f"{path}: architecture {arch!r}, expected {model.ARCH!r}")
        return ParamVector(model.registry, flat)

    return lambda path, params: save_checkpoint(path, model.ARCH, config, params.flat), load


def _under(key: str, parse=lambda value: value):
    """Save/load pair of a JSON report that keeps one value under `key`."""
    return lambda path, value: write_json(path, {key: value}), lambda path: parse(read_json(path)[key])


JSON = (write_json, read_json)
TRACE = _under("trace")
CATEGORIES = _under("categories", lambda cats: np.asarray(cats, dtype=np.int64))
CORPUS = (lambda path, corpus: corpus.save(path), lambda path: Corpus.load(path))
MANIFEST = (
    lambda path, manifest: manifest.save(path),
    lambda path: injector.FakeOrderManifest.load(path),
)


def _write_influence_csv(path: str, report, truth: dict) -> None:
    with writing(path) as fh:
        fh.write("user,position,truth_type,influence,harmful\n")
        for (u, p), v in zip(report.samples, report.values):
            fh.write(f"{u},{p},{truth.get((u, p), '')},{float(v)!r},{int(v > 0.0)}\n")


def _read_detection(path: str) -> dict:
    doc = read_json(path)
    return {"summary": doc["summary"], "suspicious": [tuple(x) for x in doc["suspicious"]]}


def _read_influence(path: str) -> dict:
    doc = read_json(path)
    return {**doc, "harmful": [tuple(x) for x in doc["harmful"]]}


class Pipeline:
    """Holds the configuration, the output directory and loaded artifacts."""

    def __init__(self, cfg: ExperimentConfig, out_dir: str, resume: bool = False):
        self.cfg = cfg
        self.out = out_dir
        self.resume = resume
        self.root = SeededRng(cfg.seed)
        self.ctx: dict = {}
        self.timings: dict[str, float] = {}
        self.rank_cache: dict[tuple[str, bytes], dict[str, np.ndarray]] = {}
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def artifacts(self, files: dict, compute) -> list:
        """The values a stage keeps on disk, reloaded or computed.

        `files` maps each file name to a (save(path, value), load(path))
        pair, in the order compute() returns the values; a load of None
        marks a report that is written but never read back. A load returns
        the value that compute() gives for its file. With --resume and
        every file present the values are loaded, each inside
        `errors.reading`, so a file that does not hold what the stage reads
        fails as a FormatError that names it; otherwise compute() runs and
        each value is saved.
        """
        paths = [self.path(name) for name in files]
        if self.resume and all(os.path.exists(p) for p in paths):
            values = []
            for p, (_, load) in zip(paths, files.values()):
                with reading(p):
                    values.append(load(p) if load else None)
            return values
        values = compute()
        for p, (save, _), value in zip(paths, files.values(), values):
            save(p, value)
        return list(values)

    def ranks(self, params: ParamVector, corpus_key: str) -> dict[str, np.ndarray]:
        """Valid and test ranks of the target model `params` on ctx corpus
        `corpus_key` ("corpus" or "poisoned"), from `evaluate_topk`.

        Ranks are kept for the process under the corpus and a digest of the
        parameter bytes, never the object: rectify changes its parameters in
        place between evaluations. So the final stage reuses what rectify
        ranked, the compromised model and the kept round. The candidate
        matrices of a corpus are drawn on first use and kept in ctx; the
        second corpus drawn copies the rows of the users whose sequence the
        two corpora share.
        """
        key = (corpus_key, hashlib.sha256(params.flat).digest())
        if key not in self.rank_cache:
            corpus, split = self.ctx[corpus_key], self.ctx[SPLIT_OF[corpus_key]]
            negatives = self.cfg.eval.negatives
            drawn = f"candidates_{corpus_key}"
            if drawn not in self.ctx:
                # a user that injection left untouched has the same rows in both corpora
                other = next(k for k in SPLIT_OF if k != corpus_key)
                known = self.ctx.get(f"candidates_{other}")
                self.ctx[drawn] = {
                    mode: draw_candidates(
                        corpus, split, mode, negatives, self.root.child("eval"),
                        like=None if known is None
                        else (self.ctx[other], self.ctx[SPLIT_OF[other]], known[mode]),
                    )
                    for mode in MODES
                }
            self.rank_cache[key] = evaluate_topk(
                self.ctx["target_model"], params, corpus, split,
                negatives=negatives, candidates=self.ctx[drawn],
            )
        return self.rank_cache[key]

    # -- stages --------------------------------------------------------------

    def stage_data(self) -> None:
        cfg = self.cfg
        files = {"corpus_clean.json": CORPUS}
        if cfg.data.source == "synth":
            files["categories.json"] = CATEGORIES
        corpus, *cats = self.artifacts(files, self._make_corpus)
        categories = cats[0] if cats else None

        def write_tsv(path, table):
            semantics_mod.save_semantic_tsv(table, corpus, path)

        self.artifacts(
            {"semantics.tsv": (write_tsv, None)}, lambda: [self._make_semantics(corpus, categories)]
        )
        # later stages must see the values as persisted (8 digits), fresh or resumed
        table = semantics_mod.load_semantic_tsv(self.path("semantics.tsv"), corpus)
        self.ctx["corpus"] = corpus
        self.ctx["semantics"] = table
        self.ctx["reduced"] = semantics_mod.reduce(table, cfg.model.hidden)
        self.ctx["split"] = leave_one_out(corpus)

    def _make_corpus(self) -> list:
        data = self.cfg.data
        if data.source == "synth":
            return list(synth_corpus(data.synth, self.root.child("synth")))
        if data.source == "tsv":
            corpus = build_corpus(load_interactions(data.path), data.min_user, data.min_item)
            # evaluation feeds a model each sequence but its last item
            longest = max(map(len, corpus.sequences))
            if longest - 1 > self.cfg.model.max_len:
                raise InvalidArgument(
                    f"{data.path} holds a sequence of {longest} orders; model.max_len "
                    f"{self.cfg.model.max_len} allows at most {self.cfg.model.max_len + 1}"
                )
            return [corpus]
        raise InvalidArgument(f"unknown data source {data.source!r}")

    def _make_semantics(self, corpus: Corpus, categories):
        sem = self.cfg.semantics
        if sem.source == "synth":
            if categories is None:
                raise InvalidArgument("synthetic semantics need a synthetic corpus")
            return semantics_mod.synth_semantics(
                categories, sem.dim, sem.noise_sigma, self.root.child("semantics")
            )
        if sem.source == "tsv":
            return semantics_mod.load_semantic_tsv(sem.path, corpus)
        raise InvalidArgument(f"unknown semantics source {sem.source!r}")

    def _train_target(self, corpus: Corpus, ckpt: str, trace_name: str):
        model = self.ctx["target_model"]

        def fit():
            init = model.init_params(self.root.child("target-init"))
            prefixes = [corpus.train_prefix(u) for u in range(corpus.n_users)]
            return model.train(
                init, prefixes, self.cfg.target_train, self.root.child("target-train")
            )

        files = {ckpt: _checkpoint(model, dataclasses.asdict(model.cfg)), trace_name: TRACE}
        return self.artifacts(files, fit)

    def stage_clean_model(self) -> None:
        cfg = self.cfg
        self.ctx["target_model"] = SeqRecModel(
            ModelConfig(
                vocab=self.ctx["corpus"].n_items,
                hidden=cfg.model.hidden,
                max_len=cfg.model.max_len,
            )
        )
        self.ctx["clean_params"], self.ctx["clean_trace"] = self._train_target(
            self.ctx["corpus"], "target_clean.ckpt", "trace_clean.json"
        )

    def stage_inject(self) -> None:
        def inject():
            return injector.inject(
                self.ctx["corpus"], self.ctx["semantics"], self.cfg.injection,
                self.root.child("inject"),
            )

        files = {"corpus_poisoned.json": CORPUS, "manifest.json": MANIFEST}
        poisoned, self.ctx["manifest"] = self.artifacts(files, inject)
        self.ctx["poisoned"] = poisoned
        self.ctx["poisoned_split"] = leave_one_out(poisoned)

    def stage_poisoned_model(self) -> None:
        self.ctx["poisoned_params"], self.ctx["poisoned_trace"] = self._train_target(
            self.ctx["poisoned"], "target_poisoned.ckpt", "trace_poisoned.json"
        )

    def stage_dualview(self) -> None:
        cfg = self.cfg
        corpus = self.ctx["poisoned"]
        table = self.ctx["semantics"]
        model = DualViewModel(
            DualViewConfig(
                vocab=corpus.n_items,
                sem_dim=table.shape[1],
                hidden=cfg.model.hidden,
                max_len=cfg.model.max_len,
            ),
            table,
            self.ctx["reduced"],
        )

        def fit():
            init = model.init_params(self.root.child("dualview-init"))
            prefixes = [corpus.train_prefix(u) for u in range(corpus.n_users)]
            return model.train(init, prefixes, cfg.dualview_train, self.root.child("dualview-train"))

        files = {
            "dualview.ckpt": _checkpoint(model, {"model": dataclasses.asdict(model.cfg)}),
            "trace_dualview.json": TRACE,
        }
        self.ctx["dualview_model"] = model
        self.ctx["dualview_params"], self.ctx["dualview_trace"] = self.artifacts(files, fit)

    def stage_detect(self) -> None:
        manifest = self.ctx["manifest"]

        def detect():
            report = detector.detect(
                self.ctx["poisoned"],
                self.ctx["dualview_model"],
                self.ctx["dualview_params"],
                self.ctx["semantics"],
                self.cfg.detector,
                self.cfg.injection,
                self.root.child("detect"),
                manifest=manifest,
            )
            return report, {"summary": _jsonable(report.summary), "suspicious": report.suspicious}

        truth = manifest.truth()
        files = {
            "detection.csv": (lambda path, report: report.to_csv(path, truth), None),
            "detection.json": (write_json, _read_detection),
        }
        _, doc = self.artifacts(files, detect)
        self.ctx["detect_summary"], self.ctx["suspicious"] = doc["summary"], doc["suspicious"]

    def stage_influence(self) -> None:
        corpus = self.ctx["poisoned"]
        split = self.ctx["poisoned_split"]

        def score():
            # flagged positions lie in train prefixes, never at a validation target
            pairs = [(prefix, int(t)) for prefix, t in zip(split.prefixes, split.valid_targets)]
            suspicious = [(u, p) for u, p in self.ctx["suspicious"] if p >= 1]  # need a prefix
            prefixes = [corpus.train_prefix(u) for u in range(corpus.n_users)]
            report = rectifier.influence_report(
                self.ctx["target_model"], self.ctx["poisoned_params"], prefixes, suspicious,
                pairs, self.cfg.influence, self.root.child("influence"),
            )
            doc = {
                "samples": report.samples,
                "values": [float(v) for v in report.values],
                "harmful": report.harmful,
                "threshold": 0.0,
                "scale": report.scale,
                "residual": report.residual,
                "validation_grad_norm": report.validation_grad_norm,
                "clean_validation_pairs": len(pairs),
            }
            return report, doc

        truth = self.ctx["manifest"].truth()
        files = {
            "influence.csv": (lambda path, report: _write_influence_csv(path, report, truth), None),
            "influence.json": (write_json, _read_influence),
        }
        _, doc = self.artifacts(files, score)
        self.ctx["harmful"] = doc["harmful"]

    def stage_rectify(self) -> None:
        model = self.ctx["target_model"]
        corpus = self.ctx["poisoned"]

        def ascend():
            prefixes = [corpus.train_prefix(u) for u in range(corpus.n_users)]
            flagged = set(self.ctx["suspicious"])
            clean_pool = [
                (u, p)
                for u in range(corpus.n_users)
                for p in range(1, len(prefixes[u]))
                if (u, p) not in flagged
            ]
            rectified, trace = rectifier.rectify(
                model, self.ctx["poisoned_params"], prefixes, self.ctx["harmful"], clean_pool,
                lambda params: ndcg(self.ranks(params, "poisoned")["valid"], 10),
                self.cfg.rectify, self.root.child("rectify"),
            )
            return rectified, dataclasses.asdict(trace)

        files = {
            "rectified.ckpt": _checkpoint(model, dataclasses.asdict(model.cfg)),
            "rectify_trace.json": JSON,
        }
        self.ctx["rectified_params"], self.ctx["rectify_trace"] = self.artifacts(files, ascend)

    def stage_final(self) -> None:
        (self.ctx["metrics"],) = self.artifacts(
            {"metrics.json": JSON}, lambda: [_jsonable(self._metrics())]
        )

    def _metrics(self) -> dict:
        cfg = self.cfg

        def both_modes(params, corpus_key):
            ranks = self.ranks(params, corpus_key)
            return {mode: topk_report(ranks[mode], cfg.eval.negatives) for mode in MODES}

        traces = {
            "target_clean": self.ctx["clean_trace"],
            "target_poisoned": self.ctx["poisoned_trace"],
            "dualview": self.ctx["dualview_trace"],
        }
        metrics = {
            "config_hash": cfg.hash(),
            "seed": cfg.seed,
            "clean": both_modes(self.ctx["clean_params"], "corpus"),
            "compromised": both_modes(self.ctx["poisoned_params"], "poisoned"),
            "rectified": both_modes(self.ctx["rectified_params"], "poisoned"),
            "convergence": convergence_report(traces),
            "rectify": {
                "rounds_used": len(self.ctx["rectify_trace"]["rounds"]),
                "best_round": self.ctx["rectify_trace"]["best_round"],
                "stopped_early": self.ctx["rectify_trace"]["stopped_early"],
            },
            "detection": self.ctx["detect_summary"],
            "checkpoints": {
                name: file_digest(self.path(fname))
                for name, fname in (
                    ("clean", "target_clean.ckpt"),
                    ("compromised", "target_poisoned.ckpt"),
                    ("dualview", "dualview.ckpt"),
                    ("rectified", "rectified.ckpt"),
                )
                if os.path.exists(self.path(fname))
            },
        }
        key = f"NDCG@{KS[0]}"
        clean_v = metrics["clean"]["test"][key]
        comp_v = metrics["compromised"]["test"][key]
        rect_v = metrics["rectified"]["test"][key]
        gap = clean_v - comp_v
        metrics["gap_recovery"] = {
            "metric": key,
            "clean": clean_v,
            "compromised": comp_v,
            "rectified": rect_v,
            "gap": gap,
            "recovered_fraction": (rect_v - comp_v) / gap if gap > 0 else None,
        }
        return metrics

    def run(self, stop_after: str = "final") -> dict:
        if stop_after not in STAGES:
            raise InvalidArgument(f"unknown stage {stop_after!r}")
        saved, current = self.path("config.json"), _jsonable(self.cfg.to_dict())
        if self.resume and os.path.exists(saved) and read_json(saved) != current:
            raise InvalidArgument(f"{saved} holds another config; resume needs the run's own")
        write_json(saved, current)
        for name in STAGES:
            start = time.perf_counter()
            try:
                getattr(self, f"stage_{name}")()
            except Exception:
                log.error("pipeline stage %r failed; earlier artifacts are preserved", name)
                raise
            self.timings[name] = time.perf_counter() - start
            log.info("stage %s done in %.2fs", name, self.timings[name])
            if name == stop_after:
                break
        write_json(self.path("timings.json"), self.timings)
        return self.ctx


def fake_order_effect_sweep(
    cfg: ExperimentConfig,
    out_dir: str,
    variants=SWEEP_VARIANTS,
    resume: bool = False,
) -> list[dict]:
    """Train and evaluate the target model under per-type injections.

    The clean variant is exactly the pipeline's clean baseline (same seeds,
    same artifacts). Rows land in effects.csv alongside returned dicts.
    """
    pipe = Pipeline(cfg, out_dir, resume=resume)
    pipe.run(stop_after="clean_model")
    corpus = pipe.ctx["corpus"]
    split = pipe.ctx["split"]
    model = pipe.ctx["target_model"]
    eval_rng = pipe.root.child("eval")
    mixes = {
        "repetitive": (1.0, 0.0, 0.0),
        "semantic": (0.0, 1.0, 0.0),
        "sequential": (0.0, 0.0, 1.0),
    }
    rows = []
    for variant in variants:
        if variant == "clean":
            params = pipe.ctx["clean_params"]
            trace = pipe.ctx["clean_trace"]
            var_corpus, var_split = corpus, split
        else:
            if variant not in mixes:
                raise InvalidArgument(f"unknown sweep variant {variant!r}")
            inj = dataclasses.replace(cfg.injection, type_mix=mixes[variant])
            rng = pipe.root.child(f"sweep-inject-{variant}")
            files = {
                f"corpus_sweep_{variant}.json": CORPUS,
                f"manifest_sweep_{variant}.json": MANIFEST,
            }
            var_corpus, _ = pipe.artifacts(
                files, lambda: injector.inject(corpus, pipe.ctx["semantics"], inj, rng)
            )
            var_split = leave_one_out(var_corpus)
            params, trace = pipe._train_target(
                var_corpus, f"target_sweep_{variant}.ckpt", f"trace_sweep_{variant}.json"
            )
        ranks = evaluate_topk(
            model, params, var_corpus, var_split, negatives=cfg.eval.negatives, rng=eval_rng
        )
        report = topk_report(ranks["test"], cfg.eval.negatives)
        conv = convergence_report({"train": trace})["train"]
        row = {"variant": variant, "seed": cfg.seed, "convergence_epochs": conv["reported"]}
        row.update({k: v for k, v in report.items() if k.startswith(("HR@", "NDCG@"))})
        rows.append(row)
    csv_path = pipe.path("effects.csv")
    keys = ["variant", "seed", "convergence_epochs"] + [
        k for k in rows[0] if k.startswith(("HR@", "NDCG@"))
    ]
    with writing(csv_path) as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in keys) + "\n")
    return rows
