"""Run configuration: one schema for config files, flags and checks.

Each setting is declared once, as a field of `RunConfig`.  Its metadata
gives its `[section] key` in config files (the key is the field name
unless set), its command-line flag (the field name with dashes unless
set), the commands whose parser takes that flag (every command unless
set), and its allowed choices or range.  Loading, saving, flag
registration and the per-field checks are loops over these fields; only
the cross-field rules are written out, in `validate_config`.

A `RunConfig` validates itself when it is built, so every one that
exists is valid; overrides are applied with `dataclasses.replace`.

The effective configuration of every run (defaults resolved, overrides
applied) is echoed back to a file that reproduces the run when re-fed.
Relative data directories are resolved against the KGESUB_DATA_ROOT
environment variable when it is set.
"""

from __future__ import annotations

import configparser
import math
import operator
import os
import re
from dataclasses import Field, dataclass, field, fields
from pathlib import Path

from .data import replacing
from .errors import ConfigError
from .models import (INIT_EPSILON, ModelKind, ModelParams, default_aux,
                     init_params, relation_dim)

DATA_ROOT_ENV = "KGESUB_DATA_ROOT"

_TRAINING = ("train", "pretrain-submodel", "sweep")
_WEIGHTS = ("train", "build-weights")
# what weights-report builds its CBS and MBS tables from
_REPORT = _WEIGHTS + ("weights-report",)
_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
        "<": operator.lt}
# a config file strips a value's ends, splits its lines, takes a `#` after
# whitespace as a comment and holds no surrogate (a path's undecodable byte)
_UNCARRIED = re.compile(r"^\s|\s$|[\r\n\ud800-\udfff]|(^|\s)#")


def _setting(default, section: str, commands: tuple[str, ...] | None = None,
             *, key: str = "", flag: str = "", choices: tuple = (),
             rule: tuple[tuple[str, float], ...] = ()):
    """A RunConfig field.  `rule` holds (operator, bound) pairs that the
    value must all meet; float settings must also be finite."""
    return field(default=default, metadata={
        "section": section, "commands": commands, "key": key, "flag": flag,
        "choices": choices, "rule": rule})


@dataclass
class RunConfig:
    data_dir: str = _setting(".", "data", key="dir", flag="--data")
    smoothing: float = _setting(4.0, "data", rule=((">=", 0),))
    model: str = _setting("transe", "model", _TRAINING, key="kind",
                          choices=tuple(kind.value for kind in ModelKind))
    dim: int = _setting(32, "model", _TRAINING, rule=((">=", 1),))
    gamma: float = _setting(6.0, "model", _TRAINING)
    # TransE's distance is L1 only, as in the RotatE code; the key stays
    # so that config echoes and checkpoint headers keep their bytes
    norm_p: float = _setting(1.0, "model", _TRAINING, choices=(1.0,))
    phase_weight: float = _setting(0.5, "model", _TRAINING)
    init_epsilon: float = _setting(INIT_EPSILON, "model", _TRAINING)
    nu: int = _setting(4, "train", _TRAINING, rule=((">=", 1),))
    batch_size: int = _setting(64, "train", _TRAINING, rule=((">=", 1),))
    steps: int = _setting(1000, "train", _TRAINING, rule=((">=", 0),))
    learning_rate: float = _setting(0.01, "train", _TRAINING,
                                    rule=((">", 0),))
    # lazy Adam only, as in the RotatE code; the key stays likewise
    optimizer: str = _setting("adam", "train", _TRAINING, choices=("adam",))
    adam_beta1: float = _setting(0.9, "train", _TRAINING,
                                 rule=((">=", 0), ("<", 1)))
    adam_beta2: float = _setting(0.999, "train", _TRAINING,
                                 rule=((">=", 0), ("<", 1)))
    adam_epsilon: float = _setting(1e-8, "train", _TRAINING, rule=((">", 0),))
    adversarial_beta: float = _setting(0.0, "train", _TRAINING,
                                       rule=((">=", 0),))
    seed: int = _setting(0, "train", rule=((">=", 0),))
    # 0 disables validation, and keeps the learning rate constant
    valid_every: int = _setting(0, "train", _TRAINING, rule=((">=", 0),))
    lr_decay_every: int = _setting(0, "train", _TRAINING, rule=((">=", 0),))
    lr_decay_factor: float = _setting(1.0, "train", _TRAINING,
                                      rule=((">", 0),))
    subsampling: str = _setting("none", "subsampling", _WEIGHTS,
                                key="source",
                                choices=("none", "cbs", "mbs", "mix"))
    method: str = _setting("none", "subsampling", _REPORT + ("sweep",),
                           choices=("none", "base", "freq", "uniq"))
    alpha: float = _setting(0.5, "subsampling", _REPORT, rule=((">", 0),))
    # "lambda" is a keyword in Python, so the field is `lam`
    lam: float = _setting(0.5, "subsampling", _WEIGHTS, key="lambda",
                          flag="--lambda", rule=((">=", 0), ("<=", 1)))
    submodel_scores: str = _setting("", "subsampling", _REPORT)
    # query mass: "observed" sums the sub-model probability over the
    # answers seen in training; "all_candidates" sums over every entity
    # and needs the sub-model checkpoint instead of a score file
    mbs_query_mass: str = _setting("observed", "subsampling", _REPORT,
                                   choices=("observed", "all_candidates"))
    submodel_checkpoint: str = _setting("", "subsampling", _REPORT)
    # the weights `pretrain-submodel` trains under: `train`'s none, or
    # cbs with method base
    submodel_subsampling: str = _setting("none", "subsampling",
                                         ("pretrain-submodel",),
                                         choices=("none", "cbs-base"))

    def __post_init__(self) -> None:
        validate_config(self)

    def resolved_data_dir(self) -> Path:
        path = Path(self.data_dir)
        root = os.environ.get(DATA_ROOT_ENV)
        if root and not path.is_absolute():
            return Path(root) / path
        return path

    def model_aux(self) -> dict[str, float]:
        """The auxiliary settings of the configured model kind."""
        return {key: getattr(self, key)
                for key in default_aux(ModelKind(self.model))}

    def initial_params(self, num_entities: int,
                       num_relations: int) -> ModelParams:
        """The seeded initial parameters of the configured model."""
        return init_params(ModelKind(self.model), num_entities,
                           num_relations, self.dim, self.gamma, self.seed,
                           aux=self.model_aux(),
                           init_epsilon=self.init_epsilon)

    def model_id(self) -> str:
        """The sub-model id of the model these settings train, `<kind>-
        <source>[-<method>]-seed<seed>`, with no method under none."""
        method = "" if self.subsampling == "none" else f"-{self.method}"
        return f"{self.model}-{self.subsampling}{method}-seed{self.seed}"

    def rate_at(self, step: int) -> float:
        if self.lr_decay_every <= 0:
            return self.learning_rate
        drops = step // self.lr_decay_every
        return self.learning_rate * self.lr_decay_factor ** drops


def file_key(setting: Field) -> tuple[str, str]:
    """The `[section] key` of a RunConfig field in config files."""
    return setting.metadata["section"], setting.metadata["key"] or setting.name


def flag_name(setting: Field) -> str:
    """The command-line flag of a RunConfig field."""
    return setting.metadata["flag"] or "--" + setting.name.replace("_", "-")


_SETTINGS = {setting.name: setting for setting in fields(RunConfig)}


def check_setting(name: str, value):
    """`value` if it is allowed for setting `name`, else ConfigError."""
    setting = _SETTINGS[name]
    choices, rule = setting.metadata["choices"], setting.metadata["rule"]
    if isinstance(setting.default, float) and not math.isfinite(value):
        problem = "must be finite"
    elif choices and value not in choices:
        problem = f"must be one of {', '.join(map(str, choices))}"
    elif isinstance(value, str) and _UNCARRIED.search(value):
        problem = ("cannot be read back from a config file (whitespace at "
                   "an end, a line break or a `#` first or after whitespace, "
                   "or a byte that is not UTF-8)")
    elif not all(_OPS[op](value, bound) for op, bound in rule):
        problem = "must be " + " and ".join(f"{op} {bound}"
                                            for op, bound in rule)
    else:
        return value
    section, key = file_key(setting)
    raise ConfigError(f"[{section}] {key} {problem}, got {value!r}")


def validate_config(config: RunConfig) -> None:
    """Check every setting, then the rules that tie settings together."""
    for name in _SETTINGS:
        check_setting(name, getattr(config, name))
    try:  # the complex kinds split each embedding into two halves
        relation_dim(ModelKind(config.model), config.dim)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    source = config.subsampling
    if source != "none" and config.method == "none":
        raise ConfigError(f"subsampling source {source!r} needs a method "
                          "(base, freq, or uniq)")
    if source in ("mbs", "mix"):
        if config.mbs_query_mass == "observed" and not config.submodel_scores:
            raise ConfigError(
                f"subsampling source {source!r} needs submodel_scores")
        if (config.mbs_query_mass == "all_candidates"
                and not config.submodel_checkpoint):
            raise ConfigError(
                "mbs_query_mass = all_candidates needs submodel_checkpoint")


def load_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    by_key = {file_key(setting): setting for setting in _SETTINGS.values()}
    values = {}
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                setting = by_key.get((section, key))
                if setting is None:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                try:
                    # a setting's type is that of its default
                    values[setting.name] = type(setting.default)(raw)
                except ValueError:
                    raise ConfigError(f"bad value for [{section}] {key}: "
                                      f"{raw!r}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    return RunConfig(**values)


def save_config(config: RunConfig, path: str | Path) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    for setting in _SETTINGS.values():
        section, key = file_key(setting)
        if not parser.has_section(section):
            parser.add_section(section)
        value = getattr(config, setting.name)
        parser.set(section, key, repr(value) if isinstance(value, float)
                   else str(value))
    with replacing(path) as fh:
        parser.write(fh)
