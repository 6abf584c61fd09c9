"""Config files: parsing, validation, round trips."""

import configparser
import dataclasses
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgesub.cli import _resolve_config, build_parser
from kgesub.config import (RunConfig, file_key, flag_name, load_config,
                           save_config, validate_config)
from kgesub.errors import ConfigError

# a config that sets every key to a value other than its default (norm_p
# and optimizer, which allow one value, at that value), and the bytes
# that save_config has always written for it
EVERY_KEY = RunConfig(
    data_dir="data/fb15k237", smoothing=0.25, model="hake", dim=48,
    gamma=9.5, norm_p=1.0, phase_weight=0.75, init_epsilon=1.5, nu=8,
    batch_size=128, steps=250, learning_rate=2.5e-4, optimizer="adam",
    adam_beta1=0.8, adam_beta2=0.99, adam_epsilon=1e-6, adversarial_beta=0.5,
    seed=7, valid_every=50, lr_decay_every=100, lr_decay_factor=0.1,
    subsampling="mix", method="uniq", alpha=0.05, lam=0.3,
    submodel_scores="runs/scores/scores.tsv", mbs_query_mass="all_candidates",
    submodel_checkpoint="runs/sub/submodel.bin",
    submodel_subsampling="cbs-base")
EVERY_KEY_FILE = """\
[data]
dir = data/fb15k237
smoothing = 0.25

[model]
kind = hake
dim = 48
gamma = 9.5
norm_p = 1.0
phase_weight = 0.75
init_epsilon = 1.5

[train]
nu = 8
batch_size = 128
steps = 250
learning_rate = 0.00025
optimizer = adam
adam_beta1 = 0.8
adam_beta2 = 0.99
adam_epsilon = 1e-06
adversarial_beta = 0.5
seed = 7
valid_every = 50
lr_decay_every = 100
lr_decay_factor = 0.1

[subsampling]
source = mix
method = uniq
alpha = 0.05
lambda = 0.3
submodel_scores = runs/scores/scores.tsv
mbs_query_mass = all_candidates
submodel_checkpoint = runs/sub/submodel.bin
submodel_subsampling = cbs-base

"""


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        config = RunConfig(data_dir="data/toy", model="hake", dim=48,
                           gamma=9.5, learning_rate=2.5e-4, seed=7,
                           subsampling="mix", method="uniq", alpha=0.05,
                           lam=0.9, submodel_scores="s.tsv",
                           adversarial_beta=0.5, smoothing=0.25)
        path = tmp_path / "run.cfg"
        save_config(config, path)
        assert load_config(path) == config

    def test_defaults_survive_partial_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[model]\nkind = rotate\n", encoding="utf-8")
        config = load_config(path)
        assert config.model == "rotate"
        assert config.nu == RunConfig().nu

    def test_every_key_golden_bytes(self, tmp_path):
        path = tmp_path / "run.cfg"
        save_config(EVERY_KEY, path)
        assert path.read_bytes() == EVERY_KEY_FILE.encode()
        assert load_config(path) == EVERY_KEY

    def test_integral_norm_p_loads(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[model]\nnorm_p = 1\n", encoding="utf-8")
        assert load_config(path).norm_p == 1.0

    def test_inline_comments_allowed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[train]\nsteps = 50  # quick run\n",
                        encoding="utf-8")
        assert load_config(path).steps == 50


class TestValidation:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[train]\nwarp = 9\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="warp"):
            load_config(path)

    @pytest.mark.parametrize("body", [
        b"[data]\nthis line has no equals\n",
        b"[data]\ndim = 4\n[data]\n",  # section twice
        b"dim = 4\n",  # no section header
        b"[model]\ndim = \xff\n",
    ])
    def test_unparsable_file_is_a_config_error(self, tmp_path, body):
        path = tmp_path / "run.cfg"
        path.write_bytes(body)
        with pytest.raises(ConfigError, match="run.cfg"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_bad_value_type_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[train]\nsteps = soon\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="steps"):
            load_config(path)

    @pytest.mark.parametrize("field,value", [
        ("subsampling", "sometimes"),
        ("method", "rare"),
        ("lam", 1.5),
        ("smoothing", -1.0),
        ("optimizer", "lion"),
        ("optimizer", "sgd"),
        ("mbs_query_mass", "guess"),
        ("norm_p", 3),
        ("norm_p", 2.0),
        ("gamma", float("nan")),
        ("init_epsilon", float("nan")),
        ("learning_rate", float("inf")),
        ("lr_decay_factor", float("-inf")),
        ("lr_decay_factor", 0.0),
        ("lr_decay_factor", -1.0),
        ("adam_epsilon", 0.0),
        ("adam_epsilon", -0.001),
        ("adam_beta1", 1.0),
        ("adam_beta2", -0.5),
        ("adversarial_beta", -1.0),
        ("seed", -1),
        ("valid_every", -2),
        ("lr_decay_every", -3),
        ("model", "bert"),
        ("alpha", 0.0),
    ])
    def test_bad_field_values(self, field, value):
        config = RunConfig()
        setattr(config, field, value)
        with pytest.raises(ConfigError):
            validate_config(config)

    def test_mbs_needs_scores(self):
        # a RunConfig checks itself when it is built
        with pytest.raises(ConfigError, match="submodel_scores"):
            RunConfig(subsampling="mbs", method="base")

    def test_cbs_needs_method(self):
        with pytest.raises(ConfigError, match="method"):
            RunConfig(subsampling="cbs")


SETTINGS = {f.name: f for f in dataclasses.fields(RunConfig)}
# the string settings: free text, and those of a few choices
FREE_TEXT = [f.name for f in dataclasses.fields(RunConfig)
             if isinstance(f.default, str) and not f.metadata["choices"]]
CHOSEN = [(f.name, choice) for f in dataclasses.fields(RunConfig)
          if isinstance(f.default, str) for choice in f.metadata["choices"]]


class TestStringSettings:
    """Every string setting reads back from its echo as written."""

    def test_free_text_settings(self):
        assert FREE_TEXT == ["data_dir", "submodel_scores",
                             "submodel_checkpoint"]

    @pytest.mark.parametrize("name, choice", CHOSEN)
    def test_every_choice_round_trips(self, tmp_path, name, choice):
        # a method of none needs a subsampling source of none
        config = dataclasses.replace(EVERY_KEY,
                                     **{"subsampling": "none", name: choice})
        save_config(config, tmp_path / "echo.cfg")
        assert load_config(tmp_path / "echo.cfg") == config

    @pytest.mark.parametrize("text", ["100%", "100%%", "%(dir)s", "a%b"])
    def test_percent_is_literal(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(f"[data]\ndir = {text}\n", encoding="utf-8")
        assert load_config(path).data_dir == text
        config = RunConfig(data_dir=text, submodel_scores=text)
        save_config(config, tmp_path / "echo.cfg")
        assert load_config(tmp_path / "echo.cfg") == config

    @pytest.mark.parametrize("text", ["my data #2", "#2", " data", "data ",
                                      "data\t", "a\nb", "a\rb", "\udcff"])
    def test_text_a_file_cannot_carry_is_refused(self, text):
        for name in FREE_TEXT:
            with pytest.raises(ConfigError, match="cannot be read back"):
                RunConfig(**{name: text})

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(FREE_TEXT), value=st.text() | st.text(
        alphabet=" \t\n\r#%;=:[]ab\xa0\x1c\u2028\udcff"))
    def test_free_text_round_trips_or_is_refused(self, name, value):
        """A value that a run accepts reads back from its echo as it
        was; one refused does not, or holds a line break."""
        config = RunConfig()
        setattr(config, name, value)  # unchecked, as no run holds it
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "echo.cfg"
            # what the echo gives back to a reader of load_config's
            # settings that checks no value
            reader = configparser.ConfigParser(
                interpolation=None, inline_comment_prefixes=("#",))
            try:
                save_config(config, path)
                reader.read(path, encoding="utf-8")
                echoed = reader.get(*file_key(SETTINGS[name]))
            except (UnicodeEncodeError, configparser.Error):
                echoed = None
            try:
                validate_config(config)
            except ConfigError:
                assert echoed != value or "\n" in value
            else:
                assert echoed == value
                assert load_config(path) == config


class TestDataRoot:
    def test_relative_path_resolves_against_env(self, monkeypatch):
        monkeypatch.setenv("KGESUB_DATA_ROOT", "/srv/kg")
        config = RunConfig(data_dir="fb15k237")
        assert str(config.resolved_data_dir()) == "/srv/kg/fb15k237"

    def test_absolute_path_wins(self, monkeypatch):
        monkeypatch.setenv("KGESUB_DATA_ROOT", "/srv/kg")
        config = RunConfig(data_dir="/data/other")
        assert str(config.resolved_data_dir()) == "/data/other"

    def test_no_env_keeps_path(self, monkeypatch):
        monkeypatch.delenv("KGESUB_DATA_ROOT", raising=False)
        config = RunConfig(data_dir="relative/dir")
        assert str(config.resolved_data_dir()) == "relative/dir"


# the command whose flag each setting is reached by: `train`'s, but for
# the settings that only another command takes
REACHED_BY = {"submodel_subsampling": "pretrain-submodel"}


def test_every_field_is_reachable_from_a_file_and_a_flag(tmp_path):
    """The every-key file gives EVERY_KEY, which differs from the
    defaults in every field that allows more than one value, and so do
    the flags of `train` and `pretrain-submodel`, each setting its own
    fields."""
    defaults = RunConfig()
    for f in dataclasses.fields(RunConfig):
        single = len(f.metadata["choices"]) == 1
        assert (getattr(EVERY_KEY, f.name) == getattr(defaults, f.name)
                ) == single, f.name
    keys = [file_key(f) for f in dataclasses.fields(RunConfig)]
    assert len(set(keys)) == len(keys)
    path = tmp_path / "every.cfg"
    path.write_text(EVERY_KEY_FILE, encoding="utf-8")
    assert load_config(path) == EVERY_KEY
    values = {}
    for command in ("train", "pretrain-submodel"):
        taken = [f for f in dataclasses.fields(RunConfig)
                 if REACHED_BY.get(f.name, "train") == command]
        argv = [command]
        for field in taken:
            argv += [flag_name(field), str(getattr(EVERY_KEY, field.name))]
        config = _resolve_config(build_parser().parse_args(argv))
        values.update((f.name, getattr(config, f.name)) for f in taken)
    assert RunConfig(**values) == EVERY_KEY


def test_readme_lists_every_key(tmp_path):
    """README's configuration block names each `[section] key` once,
    and loads."""
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = readme.split("## Configuration", 1)[1].split("```ini\n", 1)[1]
    block = block.split("```", 1)[0]
    listed, section = [], None
    for line in block.splitlines():
        if re.fullmatch(r"\[\w+\]", line.strip()):
            section = line.strip()[1:-1]
        elif "=" in line:
            listed.append((section, line.split("=", 1)[0].strip()))
    assert sorted(listed) == sorted(file_key(f)
                                    for f in dataclasses.fields(RunConfig))
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    assert load_config(path).submodel_checkpoint == ""
