"""Run configuration: sectioned `key = value` files plus CLI overrides.

The effective configuration of every run (defaults resolved, overrides
applied) is echoed back to a file that reproduces the run when re-fed.
Relative data directories are resolved against the KGESUB_DATA_ROOT
environment variable when it is set.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .models import INIT_EPSILON

DATA_ROOT_ENV = "KGESUB_DATA_ROOT"


@dataclass
class RunConfig:
    # [data]
    data_dir: str = "."
    smoothing: float = 4.0
    # [model]
    model: str = "transe"
    dim: int = 32
    gamma: float = 6.0
    norm_p: float = 1.0
    phase_weight: float = 0.5
    init_epsilon: float = INIT_EPSILON
    # [train]
    nu: int = 4
    batch_size: int = 64
    steps: int = 1000
    learning_rate: float = 0.01
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    adversarial_beta: float = 0.0
    seed: int = 0
    valid_every: int = 0
    lr_decay_every: int = 0
    lr_decay_factor: float = 1.0
    # [subsampling]
    subsampling: str = "none"  # none | cbs | mbs | mix
    method: str = "none"  # none | base | freq | uniq
    alpha: float = 0.5
    lam: float = 0.5
    submodel_scores: str = ""
    # query mass: "observed" sums the sub-model probability over the
    # answers seen in training; "all_candidates" sums over every entity
    # and needs the sub-model checkpoint instead of a score file
    mbs_query_mass: str = "observed"
    submodel_checkpoint: str = ""

    def resolved_data_dir(self) -> Path:
        path = Path(self.data_dir)
        root = os.environ.get(DATA_ROOT_ENV)
        if root and not path.is_absolute():
            return Path(root) / path
        return path


# (section, key) -> dataclass field name; "lambda" is a keyword in Python,
# so the field is `lam` while files and flags say "lambda".
_LAYOUT: dict[tuple[str, str], str] = {
    ("data", "dir"): "data_dir",
    ("data", "smoothing"): "smoothing",
    ("model", "kind"): "model",
    ("model", "dim"): "dim",
    ("model", "gamma"): "gamma",
    ("model", "norm_p"): "norm_p",
    ("model", "phase_weight"): "phase_weight",
    ("model", "init_epsilon"): "init_epsilon",
    ("train", "nu"): "nu",
    ("train", "batch_size"): "batch_size",
    ("train", "steps"): "steps",
    ("train", "learning_rate"): "learning_rate",
    ("train", "optimizer"): "optimizer",
    ("train", "adam_beta1"): "adam_beta1",
    ("train", "adam_beta2"): "adam_beta2",
    ("train", "adam_epsilon"): "adam_epsilon",
    ("train", "adversarial_beta"): "adversarial_beta",
    ("train", "seed"): "seed",
    ("train", "valid_every"): "valid_every",
    ("train", "lr_decay_every"): "lr_decay_every",
    ("train", "lr_decay_factor"): "lr_decay_factor",
    ("subsampling", "source"): "subsampling",
    ("subsampling", "method"): "method",
    ("subsampling", "alpha"): "alpha",
    ("subsampling", "lambda"): "lam",
    ("subsampling", "submodel_scores"): "submodel_scores",
    ("subsampling", "mbs_query_mass"): "mbs_query_mass",
    ("subsampling", "submodel_checkpoint"): "submodel_checkpoint",
}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(field_name: str, raw: str):
    kind = _FIELD_TYPES[field_name]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {field_name}: {raw!r}") from exc


def load_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    config = RunConfig()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                field_name = _LAYOUT.get((section, key))
                if field_name is None:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                setattr(config, field_name, _coerce(field_name, raw))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    validate_config(config)
    return config


def save_config(config: RunConfig, path: str | Path) -> None:
    parser = configparser.ConfigParser()
    for (section, key), field_name in _LAYOUT.items():
        if not parser.has_section(section):
            parser.add_section(section)
        value = getattr(config, field_name)
        parser.set(section, key, repr(value) if isinstance(value, float)
                   else str(value))
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def validate_config(config: RunConfig) -> None:
    if config.subsampling not in ("none", "cbs", "mbs", "mix"):
        raise ConfigError(f"unknown subsampling source "
                          f"{config.subsampling!r}")
    if config.method not in ("none", "base", "freq", "uniq"):
        raise ConfigError(f"unknown subsampling method {config.method!r}")
    if config.subsampling in ("cbs", "mbs", "mix") and config.method == "none":
        raise ConfigError(
            f"subsampling source {config.subsampling!r} needs a method "
            "(base, freq, or uniq)")
    if config.mbs_query_mass not in ("observed", "all_candidates"):
        raise ConfigError(
            f"unknown mbs_query_mass {config.mbs_query_mass!r}")
    if config.subsampling in ("mbs", "mix"):
        if config.mbs_query_mass == "observed" and not config.submodel_scores:
            raise ConfigError(
                f"subsampling source {config.subsampling!r} needs "
                "submodel_scores")
        if (config.mbs_query_mass == "all_candidates"
                and not config.submodel_checkpoint):
            raise ConfigError(
                "mbs_query_mass = all_candidates needs submodel_checkpoint")
    if config.subsampling in ("mbs", "mix") and config.alpha <= 0:
        raise ConfigError("alpha must be positive")
    if not 0.0 <= config.lam <= 1.0:
        raise ConfigError("lambda must lie in [0, 1]")
    if config.smoothing < 0:
        raise ConfigError("smoothing must be >= 0")
    if config.optimizer not in ("adam", "sgd"):
        raise ConfigError(f"unknown optimizer {config.optimizer!r}")
    if config.steps < 0 or config.nu < 1 or config.batch_size < 1:
        raise ConfigError("steps must be >= 0; nu, batch_size >= 1")
    if config.dim < 1 or config.learning_rate <= 0:
        raise ConfigError("dim must be >= 1 and learning_rate positive")
