"""The pipeline, its resume rule and the CLI, end to end on a tiny synthetic config."""
import json

import pytest

from orderlab.harness.cli import main

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


@pytest.mark.parametrize("doc, code", [
    ({"seed": 1, "no_such_key": 1}, 2),  # InvalidArgument
    (None, 3),  # missing config file: OSError
    (TINY, 0),
])
def test_cli_exit_codes(tmp_path, doc, code):
    config = tmp_path / "config.json"
    if doc is not None:
        write_config(config, doc)
    out = tmp_path / "out"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == code
    assert (out / "corpus_clean.json").exists() == (code == 0)
