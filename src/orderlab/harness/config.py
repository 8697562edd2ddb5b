"""Experiment configuration: one JSON document drives every stage.

The root seed fans out to stages through fixed labels (numkit.SeededRng
children), so any stage is independently reproducible. Configs round-trip
through their file form losslessly.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from dataclasses import dataclass, field

from ..corpus import SynthConfig
from ..detector import DetectorConfig
from ..errors import InvalidArgument
from ..injector import InjectionConfig
from ..params import TrainConfig
from ..rectifier import InfluenceConfig, RectifyConfig
from ..semantics import MIN_DIM

SOURCES = ("synth", "tsv")  # where the corpus and the semantic table come from


def _fits(value, hint) -> bool:
    """Whether a value parsed from JSON fits a config field's annotation.

    An int field takes no bool, float or str; a float field also takes an
    int; a tuple field takes a JSON list of fitting entries.
    """
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, arm) for arm in typing.get_args(hint))
    if origin is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, (list, tuple)):
            return False
        if len(args) == 2 and args[1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(_fits(v, arm) for v, arm in zip(value, args))
    if hint is type(None):
        return value is None
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, hint)


def _type_name(hint) -> str:
    return hint.__name__ if isinstance(hint, type) else str(hint)


@dataclass
class DataConfig:
    source: str = "synth"  # one of SOURCES
    path: str | None = None
    min_user: int = 5
    min_item: int = 5
    synth: SynthConfig = field(default_factory=SynthConfig)

    def validate(self) -> None:
        if self.source not in SOURCES:
            raise InvalidArgument(f"data.source must be one of {SOURCES}, got {self.source!r}")
        if self.source == "tsv" and self.path is None:
            raise InvalidArgument("data.source 'tsv' needs a data.path")
        if self.min_user < 3:  # each user keeps a train prefix besides its two targets
            raise InvalidArgument(f"data.min_user must be >= 3, got {self.min_user}")
        self.synth.validate()


@dataclass
class SemanticsConfig:
    source: str = "synth"  # one of SOURCES
    path: str | None = None
    dim: int = 96
    noise_sigma: float = 0.1

    def validate(self) -> None:
        if self.source not in SOURCES:
            raise InvalidArgument(f"semantics.source must be one of {SOURCES}, got {self.source!r}")
        if self.source == "tsv" and self.path is None:
            raise InvalidArgument("semantics.source 'tsv' needs a semantics.path")
        if self.source == "synth" and self.dim < MIN_DIM:
            raise InvalidArgument(f"synthetic semantics.dim must be >= {MIN_DIM}, got {self.dim}")


@dataclass
class ModelSpec:
    """Architecture knobs; the vocabulary size comes from the corpus."""

    hidden: int = 64
    max_len: int = 200

    def validate(self) -> None:
        if self.hidden < 8 or self.max_len < 2:
            raise InvalidArgument("model needs hidden >= 8 and max_len >= 2")


@dataclass
class EvalConfig:
    negatives: int = 100

    def __post_init__(self):
        if not isinstance(self.negatives, int) or self.negatives < 1:
            raise InvalidArgument(f"eval.negatives must be an integer >= 1, got {self.negatives!r}")


@dataclass
class ExperimentConfig:
    seed: int = 42
    data: DataConfig = field(default_factory=DataConfig)
    semantics: SemanticsConfig = field(default_factory=SemanticsConfig)
    injection: InjectionConfig = field(default_factory=InjectionConfig)
    model: ModelSpec = field(default_factory=ModelSpec)
    target_train: TrainConfig = field(default_factory=TrainConfig)
    dualview_train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=20))
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    influence: InfluenceConfig = field(default_factory=InfluenceConfig)
    rectify: RectifyConfig = field(default_factory=RectifyConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def validate(self) -> None:
        """Rules across sections, for synthetic sources, whose sizes the config fixes.

        Evaluation feeds a model each sequence but its last item; the PCA
        reduction keeps `model.hidden` components of the semantic table, so
        hidden is at most its dimension and its item count less one; and
        synthetic semantics are built from the synthetic corpus's categories.
        A tsv corpus's lengths are checked when the data stage builds it.
        """
        synth = self.data.synth
        if self.data.source == "tsv" and self.semantics.source == "synth":
            raise InvalidArgument("semantics.source 'synth' needs data.source 'synth'")
        if self.data.source == "synth" and synth.max_length - 1 > self.model.max_len:
            raise InvalidArgument(
                f"data.synth.max_length {synth.max_length} needs model.max_len >= "
                f"{synth.max_length - 1}, got {self.model.max_len}"
            )
        if self.data.source == "synth" and self.model.hidden > synth.items - 1:
            raise InvalidArgument(
                f"model.hidden {self.model.hidden} needs data.synth.items >= "
                f"{self.model.hidden + 1}, got {synth.items}"
            )
        if self.semantics.source == "synth" and self.model.hidden > self.semantics.dim:
            raise InvalidArgument(
                f"model.hidden {self.model.hidden} exceeds the synthetic semantics.dim "
                f"{self.semantics.dim}"
            )

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        def build(klass, sub):
            if not isinstance(sub, dict):
                raise InvalidArgument(f"config section for {klass.__name__} must be an object")
            hints = typing.get_type_hints(klass)
            for key, value in sub.items():
                if key not in hints:
                    raise InvalidArgument(f"unknown config key {key!r} for {klass.__name__}")
                if not _fits(value, hints[key]):
                    raise InvalidArgument(
                        f"{klass.__name__}.{key} must be {_type_name(hints[key])}, got {value!r}"
                    )
            return klass(**sub)

        if not isinstance(doc, dict):
            raise InvalidArgument("a config must be a JSON object")
        nested = {  # section name -> its config class
            f.name: type(f.default_factory())
            for f in dataclasses.fields(cls)
            if f.default_factory is not dataclasses.MISSING
        }
        kwargs = {}
        for key, value in doc.items():
            if key == "seed":
                if not isinstance(value, int) or isinstance(value, bool):
                    raise InvalidArgument(f"seed must be an integer, got {value!r}")
                kwargs["seed"] = value
            elif key in nested:
                if key == "data" and isinstance(value, dict) and "synth" in value:
                    value = dict(value)
                    value["synth"] = build(SynthConfig, value["synth"])
                kwargs[key] = build(nested[key], value)
            else:
                raise InvalidArgument(f"unknown config key {key!r}")
        cfg = cls(**kwargs)
        cfg.injection.type_mix = tuple(cfg.injection.type_mix)  # JSON has no tuples
        for section in nested:
            validate = getattr(getattr(cfg, section), "validate", None)
            if validate is not None:
                validate()
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidArgument(f"{path} is not JSON: {exc}") from exc
        return cls.from_dict(doc)

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]
