"""Config files: parsing, validation, round trips."""

import dataclasses

import pytest

from kgesub.config import RunConfig, load_config, save_config, validate_config
from kgesub.errors import ConfigError


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
        b"[data]\ndir = 100%\n",  # bad interpolation
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
        ("mbs_query_mass", "guess"),
    ])
    def test_bad_field_values(self, field, value):
        config = RunConfig()
        setattr(config, field, value)
        with pytest.raises(ConfigError):
            validate_config(config)

    def test_mbs_needs_scores(self):
        config = RunConfig(subsampling="mbs", method="base")
        with pytest.raises(ConfigError, match="submodel_scores"):
            validate_config(config)

    def test_cbs_needs_method(self):
        config = RunConfig(subsampling="cbs")
        with pytest.raises(ConfigError, match="method"):
            validate_config(config)


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


def test_every_field_is_reachable_from_a_file():
    """The file layout covers each config field exactly once."""
    from kgesub.config import _LAYOUT
    mapped = sorted(_LAYOUT.values())
    fields = sorted(f.name for f in dataclasses.fields(RunConfig))
    assert mapped == fields
