"""The pipeline, its resume rule and the CLI, end to end on a tiny synthetic config."""
import ctypes
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import orderlab
from orderlab import dualview, errors, rectifier
from orderlab.checkpoint import load_checkpoint, save_checkpoint
from orderlab.errors import FormatError, writing
from orderlab.harness import metrics, pipeline
from orderlab.harness.cli import EXIT_CODES, main
from orderlab.harness.config import ExperimentConfig
from orderlab.harness.pipeline import SWEEP_VARIANTS, Pipeline, _checkpoint
from orderlab.numkit import SeededRng
from orderlab.seqrec import ModelConfig, SeqRecModel

TINY = {
    "seed": 3,
    "data": {"synth": {"users": 80, "items": 40, "categories": 4, "mean_length": 12,
                       "max_length": 20}},
    "semantics": {"dim": 16},
    "model": {"hidden": 8},
    "target_train": {"epochs": 2},
    "dualview_train": {"epochs": 1},
    "detector": {"calibrate": False},
    "influence": {"lissa_depth": 3, "scale_power_iters": 2, "repeats": 1},
    "rectify": {"max_rounds": 1},
    "eval": {"negatives": 10},
}


def write_config(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    root = tmp_path_factory.mktemp("harness")
    config = write_config(root / "tiny.json", TINY)
    out = root / "out"
    assert main(["pipeline", "--config", config, "--out", str(out)]) == 0
    return config, out, (out / "metrics.json").read_bytes()


def resume(config, out, *removed):
    """Delete metrics.json and `removed`, resume, and return the rebuilt metrics.json."""
    for name in ("metrics.json",) + removed:
        (out / name).unlink()
    assert main(["pipeline", "--config", config, "--out", str(out), "--resume"]) == 0
    assert all((out / name).exists() for name in removed)
    return (out / "metrics.json").read_bytes()


def test_resume_rebuilds_identical_metrics(fresh):
    config, out, metrics = fresh
    assert resume(config, out) == metrics


def test_resume_recomputes_missing_artifacts_identically(fresh):
    config, out, metrics = fresh
    assert resume(config, out, "influence.json", "rectified.ckpt") == metrics


def test_fresh_runs_write_identical_bytes(tmp_path):
    """Every file but timings.json, not only metrics.json: the softmax kernels
    choose their path from the data, and a repeat or a resume is checked
    against a fresh run's bytes."""
    config = write_config(tmp_path / "tiny.json", TINY)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["pipeline", "--config", config, "--out", str(out)]) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1])) and "metrics.json" in names
    for name in names:
        if name != "timings.json":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("doc, code", [
    ({"seed": 1, "no_such_key": 1}, 2),  # InvalidArgument
    (None, 3),  # missing config file: OSError
    (TINY, 0),
    ({"seed": 1, "data": 5}, 2),  # a malformed section: InvalidArgument, not a traceback
    ({"seed": 1, "model": {"hidden": "x"}}, 2),  # a mistyped field fails at load time
    # out-of-range fields fail at load time, not in the stage that uses them
    ({"seed": 1, "influence": {"lissa_depth": 0}}, 2),
    ({"seed": 1, "influence": {"damping": -1.0}}, 2),
    ({"seed": 1, "influence": {"repeats": 0}}, 2),
    ({"seed": 1, "rectify": {"max_rounds": 0}}, 2),
    ({"seed": 1, "influence": {"scale_power_iters": 0}}, 2),
    ({"seed": 1, "detector": {"default_percentile": 150}}, 2),
])
def test_cli_exit_codes(tmp_path, doc, code):
    config = tmp_path / "config.json"
    if doc is not None:
        write_config(config, doc)
    out = tmp_path / "out"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == code
    assert (out / "corpus_clean.json").exists() == (code == 0)


@pytest.mark.parametrize("section", [
    {"model": {"hidden": "x"}},
    {"model": {"hidden": 2.5}},
    {"target_train": {"epochs": -3, "batch_size": 0}},
    {"target_train": {"patience": 3}},  # a removed setting is an unknown key
    {"data": {"source": "foo"}},
    {"semantics": {"source": "foo"}},
    {"semantics": {"dim": 0}},
    {"target_train": {"clip_norm": -5.0}},
    {"dualview_train": {"clip_norm": 0.0}},
    {"data": {"source": "tsv"}},  # a tsv source needs a path
    {"semantics": {"source": "tsv"}},
    # synthetic data that no stage could use: caught at load, before any file
    {"data": {"synth": {"users": 0}}},
    {"data": {"synth": {"stay_prob": 1.7}}},
    {"data": {"synth": {"min_length": 2, "mean_length": 6}}},  # a user without a train prefix
    {"data": {"min_user": 2}},  # the same for a tsv corpus
    # rules across sections
    {"data": {"synth": {"max_length": 300}}, "model": {"hidden": 8, "max_len": 20}},
    {"model": {"hidden": 32}},  # more components than TINY's 16 semantic dimensions
    {"data": {"source": "tsv", "path": "orders.tsv"}},  # synthetic semantics need categories
    # TINY's 8 components of a table of at most 8 items
    {"data": {"synth": {"users": 80, "items": 8, "categories": 4, "mean_length": 12,
                        "max_length": 20}}},
])
def test_invalid_config_writes_no_file(tmp_path, section):
    config = write_config(tmp_path / "config.json", dict(TINY, **section))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", config, "--out", str(out)]) == 2
    assert not out.exists()


def tsv_config(tmp_path, max_len=29, vector_items=range(12)):
    """A config reading 20 users' orders over items i0..i11 (user u0 has 30
    orders, the others 8) and one semantic row per entry of `vector_items`."""
    orders = tmp_path / "orders.tsv"
    orders.write_text("".join(
        f"u{u}\ti{(u + t) % 12}\t{t}\n" for u in range(20) for t in range(30 if u == 0 else 8)
    ))
    vectors = tmp_path / "vectors.tsv"
    rows = np.random.default_rng(0).standard_normal((len(vector_items), 16))
    vectors.write_text("".join(
        f"i{k}\t" + ",".join(map(repr, row.tolist())) + "\n" for k, row in zip(vector_items, rows)
    ))
    doc = dict(
        TINY,
        data={"source": "tsv", "path": str(orders)},
        semantics={"source": "tsv", "path": str(vectors)},
        model={"hidden": 8, "max_len": max_len},
    )
    return write_config(tmp_path / "c.json", doc)


@pytest.mark.parametrize("max_len, code", [(20, 2), (29, 0)])
def test_overlong_tsv_sequence_is_rejected_before_the_corpus_is_written(tmp_path, max_len, code):
    """A tsv corpus's lengths are known once it is built; the data stage
    checks them against model.max_len before it writes the corpus. The
    longest of these users has 30 orders, of which evaluation feeds 29."""
    out = tmp_path / "out"
    assert main(["synth", "--config", tsv_config(tmp_path, max_len), "--out", str(out)]) == code
    assert (out / "corpus_clean.json").exists() == (code == 0)


def test_semantic_tsv_with_a_repeated_item_exits_3(tmp_path, caplog):
    config = tsv_config(tmp_path, vector_items=[*range(12), 5])
    assert main(["synth", "--config", config, "--out", str(tmp_path / "out")]) == 3
    assert f"FormatError: {tmp_path / 'vectors.tsv'}:13: item 'i5' appears more than once" in caplog.text


def test_degenerate_contrastive_batch_exits_4(fresh, tmp_path, monkeypatch, caplog):
    """A zero-norm representation in the dual-view training is a numerical
    failure, not an unexpected one."""
    contrastive = dualview.contrastive_loss
    monkeypatch.setattr(
        dualview, "contrastive_loss", lambda rep_sem, *args: contrastive(0.0 * rep_sem, *args)
    )
    config, _, _ = fresh
    assert main(["train-detector", "--config", config, "--out", str(tmp_path / "out")]) == 4
    assert "DegenerateVector: zero-norm representation" in caplog.text
    assert "unexpected failure" not in caplog.text


def test_every_error_class_has_an_exit_code_other_than_1():
    classes = [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.OrderlabError)
        and cls is not errors.OrderlabError  # the base is never raised itself
    ]
    assert errors.DegenerateVector in classes
    for cls in classes:
        # main's rule: the first family that holds the class, else 1
        code = next((code for families, code in EXIT_CODES if issubclass(cls, families)), 1)
        assert code != 1, cls.__name__


def without_entries(blob):
    doc = json.loads(blob)
    del doc["entries"]
    return json.dumps(doc).encode()


@pytest.mark.parametrize("name, corrupt", [
    ("target_clean.ckpt", lambda blob: blob[:10]),
    ("target_clean.ckpt", lambda blob: blob + bytes(8)),
    ("corpus_poisoned.json", lambda blob: blob[: len(blob) // 2]),
    ("manifest.json", lambda blob: blob.replace(b'"orderlab-manifest/1"', b'"bogus"')),
    ("manifest.json", without_entries),
    ("trace_clean.json", lambda blob: blob[: len(blob) // 2]),
    ("trace_clean.json", lambda blob: b"{}"),
    ("detection.json", lambda blob: b"{}"),
    ("influence.json", lambda blob: b"{}"),
    ("categories.json", lambda blob: b"{}"),
], ids=["checkpoint-cut", "checkpoint-extra", "corpus-cut", "manifest-format", "manifest-key", "trace-cut",
        "trace-key", "detection-key", "influence-key", "categories-key"])
def test_corrupt_artifact_on_resume_exits_3(fresh, tmp_path, caplog, name, corrupt):
    config, out, _ = fresh
    run = tmp_path / "run"
    shutil.copytree(out, run)
    path = run / name
    path.write_bytes(corrupt(path.read_bytes()))
    assert main(["pipeline", "--config", config, "--out", str(run), "--resume"]) == 3
    assert f"FormatError: {path}: " in caplog.text


@pytest.mark.parametrize("name", ["corpus_clean.json", "corpus_poisoned.json"])
@pytest.mark.parametrize("item", ["n_items", -1])
def test_corpus_item_outside_the_vocabulary_on_resume_exits_3(fresh, tmp_path, caplog, name, item):
    config, out, _ = fresh
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / "metrics.json").unlink()
    path = run / name
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["sequences"][5][3] = len(doc["items"]) if item == "n_items" else item
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pipeline", "--config", config, "--out", str(run), "--resume"]) == 3
    assert f"FormatError: {path}: item index outside the {len(doc['items'])} items" in caplog.text


@pytest.mark.parametrize("name", ["corpus_clean.json", "corpus_poisoned.json"])
def test_corpus_with_a_repeated_user_id_on_resume_exits_3(fresh, tmp_path, caplog, name):
    """Two users with one id would share the stream of their evaluation negatives."""
    config, out, _ = fresh
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / "metrics.json").unlink()
    path = run / name
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["users"][-1] = doc["users"][0]
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pipeline", "--config", config, "--out", str(run), "--resume"]) == 3
    assert f"FormatError: {path}: user id {doc['users'][0]!r} appears more than once" in caplog.text


def test_each_negative_set_is_drawn_once_per_process(tmp_path, monkeypatch):
    """Clean and poisoned corpora, valid and test mode: 2 draws per user for
    the corpus drawn first and 2 per user that injection changed for the
    other, in a fresh run and again in a resumed final; every matrix equals
    a fresh draw. Each model is ranked once per split: rectify ranks the
    compromised model and each round, and the final stage reuses those
    ranks, so it ranks only the clean model; a resumed final ranks the clean
    and the compromised model, which is also the rectified one here (best
    round 0)."""
    calls, passes, in_rectify = [], [], []

    def counted(corpus, user, n, rng):
        calls.append(user)
        return draw(corpus, user, n, rng)

    def ranked(*args, **kwargs):
        passes.append("rectify" if in_rectify else "final")
        return rank(*args, **kwargs)

    def rectifying(*args, **kwargs):
        in_rectify.append(True)
        try:
            return rectify(*args, **kwargs)
        finally:
            in_rectify.clear()

    draw, rank, rectify = metrics.sample_negatives, pipeline.evaluate_topk, rectifier.rectify
    monkeypatch.setattr(metrics, "sample_negatives", counted)
    monkeypatch.setattr(pipeline, "evaluate_topk", ranked)
    monkeypatch.setattr(rectifier, "rectify", rectifying)
    cfg = ExperimentConfig.from_dict(dict(TINY, rectify={"max_rounds": 2}))
    users = TINY["data"]["synth"]["users"]
    fresh_ctx = Pipeline(cfg, str(tmp_path)).run()
    assert len(fresh_ctx["rectify_trace"]["rounds"]) == 2
    assert fresh_ctx["rectify_trace"]["best_round"] == 0
    changed = sum(
        not np.array_equal(a, b)
        for a, b in zip(fresh_ctx["corpus"].sequences, fresh_ctx["poisoned"].sequences, strict=True)
    )
    assert 0 < changed < users
    assert len(calls) == 2 * users + 2 * changed
    assert passes == ["rectify"] * 3 + ["final"]
    metrics_json = (tmp_path / "metrics.json").read_bytes()

    calls.clear()
    passes.clear()
    (tmp_path / "metrics.json").unlink()
    ctx = Pipeline(cfg, str(tmp_path), resume=True).run()
    assert len(calls) == 2 * users + 2 * changed
    assert passes == ["final"] * 2
    assert (tmp_path / "metrics.json").read_bytes() == metrics_json
    # the fresh run drew the poisoned corpus first, the resumed one the clean corpus
    for run in (fresh_ctx, ctx):
        for key, split_key in pipeline.SPLIT_OF.items():
            for mode in metrics.MODES:
                want = metrics.draw_candidates(run[key], run[split_key], mode,
                                               cfg.eval.negatives, SeededRng(cfg.seed).child("eval"))
                assert np.array_equal(run[f"candidates_{key}"][mode], want)


def test_ranks_are_cached_by_parameter_content(tmp_path, monkeypatch):
    """Rectify changes its parameters in place between evaluations, so the
    cache must follow the bytes of the parameters, not the object."""
    passes = []

    def ranked(*args, **kwargs):
        passes.append(args[2])
        return rank(*args, **kwargs)

    rank = pipeline.evaluate_topk
    monkeypatch.setattr(pipeline, "evaluate_topk", ranked)
    pipe = Pipeline(ExperimentConfig.from_dict(TINY), str(tmp_path))
    pipe.run(stop_after="inject")
    params = pipe.ctx["clean_params"]
    original = params.flat.copy()
    first = pipe.ranks(params, "corpus")
    assert pipe.ranks(params, "corpus") is first
    assert pipe.ranks(params.copy(), "corpus") is first
    assert len(passes) == 1
    params.flat *= 1.5  # in place: the object is the same, its content is not
    pipe.ranks(params, "corpus")
    assert len(passes) == 2
    params.flat[...] = original
    assert pipe.ranks(params, "corpus") is first
    pipe.ranks(params, "poisoned")  # the same model on another corpus
    assert passes == [pipe.ctx["corpus"], pipe.ctx["corpus"], pipe.ctx["poisoned"]]


def test_effect_sweep_writes_one_row_per_variant(fresh, tmp_path):
    config, _, metrics_json = fresh
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(["effect-sweep", "--config", config, "--out", str(out)]) == 0
        outputs.append((out / "effects.csv").read_bytes())
    assert outputs[0] == outputs[1]
    header, *rows = outputs[0].decode("utf-8").splitlines()
    assert header.split(",") == ["variant", "seed", "convergence_epochs", "HR@10", "NDCG@10",
                                 "HR@20", "NDCG@20"]
    assert [row.split(",")[0] for row in rows] == list(SWEEP_VARIANTS)
    # the clean variant is the pipeline's clean baseline, ranked the same way
    clean = dict(zip(header.split(","), rows[0].split(",")))
    assert float(clean["NDCG@10"]) == json.loads(metrics_json)["clean"]["test"]["NDCG@10"]


def test_resume_with_another_config_is_refused(fresh, tmp_path):
    _, out, _ = fresh
    metrics = (out / "metrics.json").read_bytes()
    changed = dict(TINY, target_train={"epochs": 5}, model={"hidden": 8, "max_len": 100})
    config = write_config(tmp_path / "changed.json", changed)
    assert main(["pipeline", "--config", config, "--out", str(out), "--resume"]) == 2
    assert (out / "metrics.json").read_bytes() == metrics
    assert json.loads((out / "config.json").read_text())["target_train"]["epochs"] == 2


def test_checkpoint_of_another_architecture_is_refused(tmp_path):
    model = SeqRecModel(ModelConfig(vocab=5, hidden=8))
    _, load = _checkpoint(model, {})
    path = str(tmp_path / "other.ckpt")
    save_checkpoint(path, "dualview-gru/1", {}, model.zero_params().flat)
    assert load_checkpoint(path)[0] == "dualview-gru/1"
    with pytest.raises(FormatError):
        load(path)


@pytest.mark.parametrize("mode", ["w", "wb"])
def test_writing_leaves_no_file_when_its_block_raises(tmp_path, mode):
    path = tmp_path / "a.json"
    path.write_text("old", encoding="utf-8")
    with pytest.raises(RuntimeError, match="half written"):
        with writing(str(path), mode) as fh:
            fh.write(b"new" if "b" in mode else "new")
            raise RuntimeError("half written")
    assert sorted(os.listdir(tmp_path)) == ["a.json"]
    assert path.read_text(encoding="utf-8") == "old"
    with writing(str(path), mode) as fh:
        fh.write(b"new" if "b" in mode else "new")
    assert sorted(os.listdir(tmp_path)) == ["a.json"]
    assert path.read_text(encoding="utf-8") == "new"


class NoMallopt:
    """A C library without mallopt, as on a host whose libc is not glibc."""

    def __init__(self, name):
        self.name = name


class RefusingLibc(NoMallopt):
    """A C library whose mallopt refuses every setting."""

    def __init__(self, name):
        super().__init__(name)
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 0

        self.mallopt = mallopt


def no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("libc", [no_libc, NoMallopt, RefusingLibc])
def test_cli_runs_without_the_allocator_setting(fresh, tmp_path, monkeypatch, libc):
    """Where mallopt is missing or refuses, the CLI runs on and writes the same report."""
    config, _, metrics_json = fresh
    opened = []

    def cdll(name):
        opened.append(libc(name))
        return opened[-1]

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", config, "--out", str(out)]) == 0
    assert (out / "metrics.json").read_bytes() == metrics_json
    if libc is RefusingLibc:
        # glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, both asked for 32 MiB
        assert [call for lib in opened for call in lib.calls] == [(-3, 32 << 20), (-1, 32 << 20)]


IMPORT_CHECK = """
import ctypes, importlib, pkgutil, sys
calls = []

class Libc:
    def __init__(self, name):
        pass

    @property
    def mallopt(self):
        calls.append("mallopt")
        return lambda param, value: 1

ctypes.CDLL = Libc
import orderlab
for module in pkgutil.walk_packages(orderlab.__path__, "orderlab."):
    if module.name != "orderlab.__main__":
        importlib.import_module(module.name)
assert calls == [], calls
from orderlab.harness import cli
cli.keep_freed_memory()
assert calls == ["mallopt"], calls
"""


def test_importing_orderlab_leaves_the_allocator_alone():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orderlab.__file__)))
    done = subprocess.run([sys.executable, "-c", IMPORT_CHECK], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


NUMPY_ONLY = """
import sys
before = set(sys.modules)
import orderlab.harness.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
foreign = loaded - set(sys.stdlib_module_names) - {"numpy", "orderlab"}
assert not foreign, sorted(foreign)
"""


def test_the_cli_imports_numpy_and_the_standard_library_only():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orderlab.__file__)))
    done = subprocess.run([sys.executable, "-c", NUMPY_ONLY], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
