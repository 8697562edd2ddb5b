"""Tests of the benchmark's own machinery, on a config small enough to run in seconds.

Run from the repository root: python -m pytest -q bench
"""
from __future__ import annotations

import json
import math

import pytest

import run

TINY = {
    "seed": 3,
    "data": {"synth": {"users": 150, "items": 60, "categories": 4, "mean_length": 15,
                       "max_length": 30}},
    "semantics": {"dim": 16},
    "model": {"hidden": 8},
    "target_train": {"epochs": 2},
    "dualview_train": {"epochs": 1},
    "influence": {"lissa_depth": 3, "scale_power_iters": 2, "repeats": 1},
    "rectify": {"max_rounds": 1},
    "eval": {"negatives": 10},
}

# counts a later change can move; they must repeat exactly at one seed
EXACT = (
    "encoder.cell_steps", "encoder.pad_fraction", "encoder.logits", "rectifier.hvp.calls",
    "rectifier.lissa_iterations", "seqrec.sample_term_loss.calls",
    "corpus.bigram_logprob.calls", "params.adam_step.calls",
)
NO_TRACE = {"spans": {}, "counts": {}}


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "tiny.json"
    path.write_text(json.dumps(TINY), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def fresh_dir(tiny_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("fresh")
    child = run.run_child(run.orderlab_cmd("pipeline", tiny_config, 3, out))
    assert child["exit_code"] == 0
    return out


def test_traced_counts_repeat_exactly(tiny_config, tmp_path):
    layers = []
    for name in ("a", "b"):
        trace_path = tmp_path / f"trace_{name}.json"
        cmd = run.orderlab_cmd("pipeline", tiny_config, 3, tmp_path / name, tracer_out=trace_path)
        assert run.run_child(cmd)["exit_code"] == 0
        layers.append(run.layer_metrics(run.read_json(trace_path), NO_TRACE)[0])
    first, second = ({k: v for k, (v, _) in m.items() if k in EXACT} for m in layers)
    assert set(first) == set(EXACT)
    assert first == second
    assert all(v > 0 for v in first.values())


def test_traced_resume_reaches_the_load_path(tiny_config, tmp_path):
    out, work = tmp_path / "out", tmp_path
    bench = run.Run(tiny_config, 3, work)
    fresh_trace, resume_trace = tmp_path / "fresh.json", tmp_path / "resume.json"
    assert bench.fresh(out, tracer_out=fresh_trace) is not None
    assert bench.resume(out, tracer_out=resume_trace) is not None
    metrics, zero_calls = run.layer_metrics(run.read_json(fresh_trace), run.read_json(resume_trace))
    assert zero_calls == []
    assert metrics["checkpoint.load.bytes"][0] == metrics["checkpoint.save.bytes"][0] > 0
    assert bench.correct and bench.failed == 0


def copy_dir(src, dst):
    dst.mkdir()
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    return dst


def test_measure_repeats_fresh_runs_and_resumes_once(tiny_config, tmp_path):
    bench = run.Run(tiny_config, 3, tmp_path)
    figures = run.measure(bench, 0.0)
    assert bench.correct and (bench.attempted, bench.failed) == (run.MIN_REPEATS + 1, 0)
    assert set(run.END_TO_END_UNITS) | set(run.UNGATED) <= set(figures)
    assert all(figures[name] > 0 for name in run.END_TO_END_UNITS)


def test_timings_are_scaled_to_the_reference_speed():
    figures = {"pipeline_s": 3.0, "train_terms_per_s": 100.0, "ndcg10_clean": 0.4, "resume_s": None}
    assert run.at_reference_speed(figures, 1.5) == {
        "pipeline_s": 2.0, "train_terms_per_s": 150.0, "ndcg10_clean": 0.4, "resume_s": None,
    }


def test_crashed_resume_fails_the_run(tiny_config, fresh_dir, tmp_path):
    out = copy_dir(fresh_dir, tmp_path / "copy")
    (out / "target_clean.ckpt").write_bytes(b"")  # unreadable: the resumed child exits non-zero
    bench = run.Run(tiny_config, 3, tmp_path)
    assert bench.resume(out) is None
    assert not bench.correct and (bench.attempted, bench.failed) == (1, 1)


def test_resume_flags_a_changed_checkpoint(tiny_config, fresh_dir, tmp_path):
    out = copy_dir(fresh_dir, tmp_path / "copy")
    ckpt = bytearray((out / "target_clean.ckpt").read_bytes())
    ckpt[-1] ^= 0x01  # last byte of the last float64 parameter
    (out / "target_clean.ckpt").write_bytes(bytes(ckpt))
    bench = run.Run(tiny_config, 3, tmp_path)
    assert bench.resume(out) is None
    assert not bench.correct and bench.failed == 1


@pytest.mark.parametrize("tamper, problem", [
    (lambda m, inf, man: m["clean"]["test"].update({"NDCG@10": 1.5}), "outside [0, 1]"),
    (lambda m, inf, man: inf.update({"residual": math.nan}), "non-finite"),
    (lambda m, inf, man: man["entries"].pop(), "detection TP+FN"),
])
def test_checks_reject_tampered_outputs(fresh_dir, tmp_path, tamper, problem):
    out = copy_dir(fresh_dir, tmp_path / "copy")
    docs = [run.read_json(out / f) for f in ("metrics.json", "influence.json", "manifest.json")]
    tamper(*docs)
    for name, doc in zip(("metrics.json", "influence.json", "manifest.json"), docs):
        (out / name).write_text(json.dumps(doc), encoding="utf-8")
    assert any(problem in p for p in run.check_outputs(out))


def test_failed_run_is_counted_with_its_exception(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"seed": 1, "no_such_key": 1}), encoding="utf-8")
    bench = run.Run(config, 1, tmp_path)
    assert bench.fresh(tmp_path / "out") is None
    assert not bench.correct and (bench.attempted, bench.failed) == (1, 1)
    child = run.run_child(run.orderlab_cmd("pipeline", config, 1, tmp_path / "out"))
    assert (child["exit_code"], child["exception"]) == (2, "InvalidArgument")
