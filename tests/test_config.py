"""Experiment configs: the file round trip, the hash and the rejection of malformed input."""
from pathlib import Path

import pytest

from orderlab.corpus import SynthConfig
from orderlab.errors import InvalidArgument
from orderlab.harness.config import DataConfig, EvalConfig, ExperimentConfig
from orderlab.injector import InjectionConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


def custom_config():
    return ExperimentConfig(
        seed=11,
        data=DataConfig(synth=SynthConfig(users=30, items=20)),
        injection=InjectionConfig(type_mix=(0.5, 0.5, 0.0)),
        eval=EvalConfig(negatives=7, ks=(3, 5)),
    )


@pytest.mark.parametrize("cfg", [ExperimentConfig(), custom_config()])
def test_save_load_round_trip(tmp_path, cfg):
    path = str(tmp_path / "config.json")
    cfg.save(path)
    loaded = ExperimentConfig.load(path)
    assert loaded == cfg
    assert isinstance(loaded.data.synth, SynthConfig)
    for value in (loaded.injection.type_mix, loaded.detector.weights, loaded.eval.ks):
        assert isinstance(value, tuple)
    assert loaded.hash() == cfg.hash()


def test_hash_follows_the_values():
    assert custom_config().hash() == custom_config().hash()
    assert custom_config().hash() != ExperimentConfig().hash()


def test_partial_document_keeps_defaults():
    cfg = ExperimentConfig.from_dict({"seed": 3, "eval": {"negatives": 9}})
    assert cfg.seed == 3
    assert cfg.eval == EvalConfig(negatives=9)
    assert cfg.model == ExperimentConfig().model


@pytest.mark.parametrize("doc", [
    {"no_such_key": 1},
    {"model": {"no_such_key": 1}},
    {"data": {"synth": {"no_such_key": 1}}},
    [1],
    "seed",
    {"data": 5},
    {"data": {"synth": 3}},
    {"seed": "x"},
    {"seed": 1.5},
    {"seed": True},
    {"eval": {"ks": 10}},
    {"eval": {"ks": []}},
    {"eval": {"ks": [10, 0]}},
    {"eval": {"ks": ["10"]}},
    {"eval": {"negatives": 0}},
    {"eval": {"negatives": "100"}},
    {"model": {"hidden": "x"}},
    {"model": {"hidden": 2.5}},
    {"model": {"hidden": True}},
    {"model": {"hidden": 4}},
    {"model": {"max_len": 1}},
    {"model": {"init_scale": "0.1"}},
    {"target_train": {"epochs": -3, "batch_size": 0}},
    {"target_train": {"batch_size": 0}},
    {"target_train": {"learning_rate": 0.0}},
    {"injection": {"user_ratio": 0.0}},
    {"injection": {"swap_window": 1}},
    {"detector": {"calib_frac": 1.0}},
    {"injection": {"repeat_len": 0}},
    {"dualview_train": {"epochs": 2.0}},
    {"target_train": {"early_stop": 1}},
    {"data": {"synth": {"users": 1.5}}},
    {"injection": {"type_mix": [0.5, 0.5]}},
    {"detector": {"weights": [1, 1, 1, "1"]}},
    {"data": {"path": 3}},
    {"rectify": {"max_rounds": 0}},
    {"influence": {"lissa_depth": 0}},
    {"influence": {"damping": -1.0}},
    {"rectify": {"descent_rate": 1.0}},
    {"influence": {"scale_power_iters": 0}},
    {"rectify": {"ascent_clip": -1.0}},
    {"rectify": {"clean_batch": 0}},
    {"detector": {"default_percentile": 150}},
    {"detector": {"smoothing": 1.0}},
])
def test_malformed_document_is_rejected(doc):
    with pytest.raises(InvalidArgument):
        ExperimentConfig.from_dict(doc)


# settings held as module constants, each at its one value in use
REMOVED_KEYS = [
    *((section, key) for section in ("target_train", "dualview_train")
      for key in ("beta1", "beta2", "adam_eps", "rel_tol", "patience", "sort_window")),
    *(("influence", key) for key in ("scale", "scale_margin", "fd_step", "batch_users")),
    *(("detector", key) for key in ("fit_steps", "fit_rate", "fit_l2", "batch_users")),
]


@pytest.mark.parametrize("section, key", REMOVED_KEYS, ids=[".".join(k) for k in REMOVED_KEYS])
def test_removed_key_is_rejected_by_name(section, key):
    assert key not in ExperimentConfig().to_dict()[section]
    with pytest.raises(InvalidArgument, match=f"unknown config key '{key}'"):
        ExperimentConfig.from_dict({section: {key: 1}})


def test_bench_workloads_load():
    paths = sorted(WORKLOADS.glob("*.json"))
    assert paths
    for path in paths:
        ExperimentConfig.load(str(path))


def test_field_types_follow_the_annotations():
    cfg = ExperimentConfig.from_dict({
        "target_train": {"learning_rate": 1, "epochs": 0},
        "data": {"path": None},
        "detector": {"weights": [1, 0, 0, 0]},
    })
    assert cfg.target_train.learning_rate == 1
    assert cfg.target_train.epochs == 0
    assert cfg.data.path is None
    assert cfg.detector.weights == (1, 0, 0, 0)


def test_file_that_is_not_json_is_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{seed: 1", encoding="utf-8")
    with pytest.raises(InvalidArgument):
        ExperimentConfig.load(str(path))


def test_eval_config_rejects_out_of_range_values():
    with pytest.raises(InvalidArgument):
        EvalConfig(negatives=0)
    with pytest.raises(InvalidArgument):
        EvalConfig(ks=(10, 0))
    assert EvalConfig(ks=[5]).ks == (5,)
