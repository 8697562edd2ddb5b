"""Experiment configuration: one JSON document drives every stage.

The root seed fans out to stages through fixed labels (numkit.SeededRng
children), so any stage is independently reproducible. Configs round-trip
through their file form losslessly.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

from ..corpus import SynthConfig
from ..detector import DetectorConfig
from ..dualview import LossConfig
from ..errors import InvalidArgument
from ..injector import InjectionConfig
from ..params import TrainConfig
from ..rectifier import InfluenceConfig, RectifyConfig


@dataclass
class DataConfig:
    source: str = "synth"  # "synth" or "tsv"
    path: str | None = None
    min_user: int = 5
    min_item: int = 5
    synth: SynthConfig = field(default_factory=SynthConfig)


@dataclass
class SemanticsConfig:
    source: str = "synth"  # "synth" or "tsv"
    path: str | None = None
    dim: int = 96
    noise_sigma: float = 0.1


@dataclass
class ModelSpec:
    """Architecture knobs; the vocabulary size comes from the corpus."""

    hidden: int = 64
    max_len: int = 200
    init_scale: float = 0.1
    residual_coef: float = 0.5  # dual-view semantic residual only


@dataclass
class EvalConfig:
    negatives: int = 100
    ks: tuple[int, ...] = (10, 20)


@dataclass
class ExperimentConfig:
    seed: int = 42
    data: DataConfig = field(default_factory=DataConfig)
    semantics: SemanticsConfig = field(default_factory=SemanticsConfig)
    injection: InjectionConfig = field(default_factory=InjectionConfig)
    model: ModelSpec = field(default_factory=ModelSpec)
    target_train: TrainConfig = field(default_factory=TrainConfig)
    dualview_train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=20))
    dualview_loss: LossConfig = field(default_factory=LossConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    influence: InfluenceConfig = field(default_factory=InfluenceConfig)
    rectify: RectifyConfig = field(default_factory=RectifyConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        def build(klass, sub):
            fields = {f.name: f for f in dataclasses.fields(klass)}
            kwargs = {}
            for key, value in sub.items():
                if key not in fields:
                    raise InvalidArgument(f"unknown config key {key!r} for {klass.__name__}")
                kwargs[key] = value
            return klass(**kwargs)

        doc = dict(doc)
        nested = {  # section name -> its config class
            f.name: type(f.default_factory())
            for f in dataclasses.fields(cls)
            if f.default_factory is not dataclasses.MISSING
        }
        kwargs = {}
        for key, value in doc.items():
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key in nested:
                if key == "data" and isinstance(value.get("synth"), dict):
                    value = dict(value)
                    value["synth"] = build(SynthConfig, value["synth"])
                kwargs[key] = build(nested[key], value)
            else:
                raise InvalidArgument(f"unknown config key {key!r}")
        cfg = cls(**kwargs)
        # JSON has no tuples; restore the tuple-typed fields
        cfg.injection.type_mix = tuple(cfg.injection.type_mix)
        cfg.detector.weights = tuple(cfg.detector.weights)
        cfg.eval.ks = tuple(cfg.eval.ks)
        return cfg

    def save(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]
