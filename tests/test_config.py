"""Experiment configs: the file round trip, the hash and the rejection of malformed input."""
import pytest

from orderlab.corpus import SynthConfig
from orderlab.errors import InvalidArgument
from orderlab.harness.config import DataConfig, EvalConfig, ExperimentConfig
from orderlab.injector import InjectionConfig


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
])
def test_malformed_document_is_rejected(doc):
    with pytest.raises(InvalidArgument):
        ExperimentConfig.from_dict(doc)


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
