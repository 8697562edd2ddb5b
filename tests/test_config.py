"""Experiment configs: the file round trip, the hash and the rejection of malformed input."""
from pathlib import Path

import pytest

from orderlab.corpus import SynthConfig
from orderlab.errors import InvalidArgument
from orderlab.harness.config import DataConfig, EvalConfig, ExperimentConfig, ModelSpec
from orderlab.harness.pipeline import write_json
from orderlab.injector import InjectionConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


def custom_config():
    return ExperimentConfig(
        seed=11,
        data=DataConfig(synth=SynthConfig(users=30, items=20)),
        model=ModelSpec(hidden=16),  # at most items - 1 components
        injection=InjectionConfig(type_mix=(0.5, 0.5, 0.0)),
        eval=EvalConfig(negatives=7),
    )


@pytest.mark.parametrize("cfg", [ExperimentConfig(), custom_config()])
def test_save_load_round_trip(tmp_path, cfg):
    path = str(tmp_path / "config.json")
    write_json(path, cfg.to_dict())  # as a pipeline run writes its config.json
    loaded = ExperimentConfig.load(path)
    assert loaded == cfg
    assert isinstance(loaded.data.synth, SynthConfig)
    assert isinstance(loaded.injection.type_mix, tuple)
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
    {"eval": {"negatives": 1.5}},
    {"eval": {"negatives": True}},
    {"eval": {"negatives": -1}},
    {"eval": {"negatives": None}},
    {"eval": {"negatives": 0}},
    {"eval": {"negatives": "100"}},
    {"model": {"hidden": "x"}},
    {"model": {"hidden": 2.5}},
    {"model": {"hidden": True}},
    {"model": {"hidden": 4}},
    {"model": {"max_len": 1}},
    {"model": {"max_len": "200"}},
    {"target_train": {"epochs": -3, "batch_size": 0}},
    {"target_train": {"batch_size": 0}},
    {"target_train": {"learning_rate": 0.0}},
    {"injection": {"user_ratio": 0.0}},
    {"injection": {"swap_window": 1}},
    {"detector": {"calibrate": "yes"}},
    {"injection": {"repeat_len": 0}},
    {"dualview_train": {"epochs": 2.0}},
    {"target_train": {"early_stop": 1}},
    {"data": {"synth": {"users": 1.5}}},
    {"injection": {"type_mix": [0.5, 0.5]}},
    {"injection": {"type_mix": [0.5, 0.5, "0"]}},
    {"data": {"path": 3}},
    {"rectify": {"max_rounds": 0}},
    {"influence": {"lissa_depth": 0}},
    {"influence": {"damping": -1.0}},
    {"rectify": {"max_rounds": 1.5}},
    {"influence": {"scale_power_iters": 0}},
    {"data": {"source": "tsv"}},
    {"semantics": {"source": "tsv"}},
    {"detector": {"default_percentile": 150}},
    {"detector": {"default_percentile": -1}},
    {"data": {"synth": {"users": 0}}},
    {"data": {"synth": {"categories": 0}}},
    {"data": {"synth": {"items": 3, "categories": 4}}},
    {"data": {"synth": {"min_length": 2}}},  # a user of 2 orders has no train prefix
    {"data": {"synth": {"min_length": 60}}},  # above mean_length 50
    {"data": {"synth": {"min_length": 20, "mean_length": 30, "max_length": 10}}},
    {"data": {"synth": {"stay_prob": 1.7}}},
    {"data": {"synth": {"stay_prob": -0.1}}},
    {"data": {"min_user": 2}},
    {"data": {"synth": {"max_length": 300}}, "model": {"max_len": 200}},
    {"model": {"hidden": 128}},  # above the synthetic semantics.dim 96
    {"data": {"source": "tsv", "path": "orders.tsv"}},  # synthetic semantics need categories
    # 32 components of a table of at most 20 items
    {"data": {"synth": {"items": 20, "mean_length": 8}}, "semantics": {"dim": 64},
     "model": {"hidden": 32}},
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
    ("model", "init_scale"),
    ("model", "residual_coef"),
    *(("dualview_loss", key) for key in ("view_blend", "contrastive_weight", "temperature")),
    *(("detector", key) for key in ("weights", "smoothing", "fscore_beta", "calib_frac",
                                    "calib_user_ratio", "calib_intensity")),
    ("influence", "threshold"),
    *(("rectify", key) for key in ("ascent_rate", "descent_rate", "ascent_clip", "val_drop_tol",
                                   "clean_batch")),
    ("eval", "ks"),
]


@pytest.mark.parametrize("section, key", REMOVED_KEYS, ids=[".".join(k) for k in REMOVED_KEYS])
def test_removed_key_is_rejected_by_name(section, key):
    sections = ExperimentConfig().to_dict()
    assert key not in sections.get(section, {})
    named = key if section in sections else section  # a removed section is itself unknown
    with pytest.raises(InvalidArgument, match=f"unknown config key '{named}'"):
        ExperimentConfig.from_dict({section: {key: 1}})


def test_settable_value_count():
    def leaves(doc):
        return sum(leaves(v) if isinstance(v, dict) else 1 for v in doc.values())

    assert leaves(ExperimentConfig().to_dict()) == 43


def test_bench_workloads_load():
    paths = sorted(WORKLOADS.glob("*.json"))
    assert paths
    for path in paths:
        ExperimentConfig.load(str(path))


def test_cross_section_rules_bound_synthetic_sources_only():
    longest = {"data": {"synth": {"max_length": 201}}, "model": {"max_len": 200}}
    assert ExperimentConfig.from_dict(longest).data.synth.max_length == 201
    wide = {"model": {"hidden": 96}}
    assert ExperimentConfig.from_dict(wide).model.hidden == 96
    tsv = {
        "data": {"source": "tsv", "path": "orders.tsv", "synth": {"max_length": 300}},
        "semantics": {"source": "tsv", "path": "vectors.tsv"},
        "model": {"max_len": 20, "hidden": 128},
    }
    assert ExperimentConfig.from_dict(tsv).model.hidden == 128


def test_field_types_follow_the_annotations():
    cfg = ExperimentConfig.from_dict({
        "target_train": {"learning_rate": 1, "epochs": 0},
        "data": {"path": None},
        "injection": {"type_mix": [1, 0, 0]},
    })
    assert cfg.target_train.learning_rate == 1
    assert cfg.target_train.epochs == 0
    assert cfg.data.path is None
    assert cfg.injection.type_mix == (1, 0, 0)


def test_file_that_is_not_json_is_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{seed: 1", encoding="utf-8")
    with pytest.raises(InvalidArgument):
        ExperimentConfig.load(str(path))


def test_eval_config_rejects_out_of_range_values():
    with pytest.raises(InvalidArgument):
        EvalConfig(negatives=0)
    with pytest.raises(InvalidArgument):
        EvalConfig(negatives=2.5)
    assert EvalConfig(negatives=5).negatives == 5
