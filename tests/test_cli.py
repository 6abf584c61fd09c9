"""Command-line pipeline: artifacts, exit codes, reproducibility."""

import argparse
import itertools
import json
import os
import shutil
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from kgesub import submodel, subsampling
from kgesub.cli import build_parser, main, query_appearance_report
from kgesub.config import load_config
from kgesub.data import load_dataset, read_container, write_container
from kgesub.models import (ModelKind, init_params, load_params, params_header,
                           save_params)
from kgesub.subsampling import scores_copy_path

from conftest import oracle_load_weight_table, save_dataset, zipf_kg


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("kg")
    dataset = zipf_kg(5, num_entities=20, num_relations=3, num_links=160,
                      num_valid=15, num_test=15)
    save_dataset(dataset, directory)
    return directory


FAST = ["--dim", "8", "--steps", "12", "--batch-size", "16", "--nu", "2",
        "--gamma", "4.0", "--seed", "3"]


def run(args):
    return main([str(a) for a in args])


def no_parse(*args):
    raise AssertionError("the text was parsed")


def rewrite_header(path: Path, field: str, text: str) -> None:
    """Set `field` of the container header at `path` (`aux.<key>` for an
    aux value) to the JSON text `text`, which need not be strict JSON."""
    header, arrays = read_container(path)
    *outer, name = field.split(".")
    (header[outer[0]] if outer else header)[name] = "@"
    blob = json.dumps(header).replace('"@"', text).encode()
    path.write_bytes(b"KGESUBCK" + struct.pack("<Q", len(blob)) + blob
                     + b"".join(arrays[spec["name"]].tobytes()
                                for spec in header["arrays"]))


class TestTrainCommand:
    def test_cbs_run_produces_artifacts(self, data_dir, tmp_path):
        run_dir = tmp_path / "run"
        code = run(["train", "--data", data_dir, "--run-dir", run_dir,
                    "--subsampling", "cbs", "--method", "base",
                    "--smoothing", "0"] + FAST)
        assert code == 0
        for name in ("checkpoint.bin", "train.log", "weights.tsv",
                     "config.resolved.cfg", "manifest.tsv"):
            assert (run_dir / name).exists()
        log_lines = (run_dir / "train.log").read_text().strip().split("\n")
        assert len(log_lines) == 12

    def test_none_subsampling_gives_unit_weights(self, data_dir, tmp_path):
        run_dir = tmp_path / "run"
        code = run(["train", "--data", data_dir, "--run-dir", run_dir,
                    "--subsampling", "none"] + FAST)
        assert code == 0
        table = oracle_load_weight_table(run_dir / "weights.tsv")
        assert np.all(table.a == 1.0)

    def test_determinism_across_invocations(self, data_dir, tmp_path):
        args = ["train", "--data", data_dir, "--subsampling", "cbs",
                "--method", "freq", "--smoothing", "1"] + FAST
        assert run(args + ["--run-dir", tmp_path / "a"]) == 0
        assert run(args + ["--run-dir", tmp_path / "b"]) == 0
        one = (tmp_path / "a" / "checkpoint.bin").read_bytes()
        two = (tmp_path / "b" / "checkpoint.bin").read_bytes()
        assert one == two

    def test_resolved_config_reproduces_run(self, data_dir, tmp_path):
        first = tmp_path / "first"
        assert run(["train", "--data", data_dir, "--run-dir", first,
                    "--subsampling", "cbs", "--method", "base",
                    "--smoothing", "0"] + FAST) == 0
        second = tmp_path / "second"
        assert run(["train", "--config", first / "config.resolved.cfg",
                    "--run-dir", second]) == 0
        assert ((first / "checkpoint.bin").read_bytes()
                == (second / "checkpoint.bin").read_bytes())

    def test_only_allowed_values_as_flags_change_no_byte(self, data_dir,
                                                         tmp_path):
        """`--optimizer adam --norm-p 1` (the benchmark's flags) name the
        defaults: the echo and the checkpoint keep their bytes."""
        common = ["train", "--data", data_dir, "--model", "transe"] + FAST
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(common + ["--run-dir", first]) == 0
        assert run(common + ["--run-dir", second, "--optimizer", "adam",
                             "--norm-p", "1"]) == 0
        for artifact in ("config.resolved.cfg", "checkpoint.bin"):
            assert ((first / artifact).read_bytes()
                    == (second / artifact).read_bytes())

    @pytest.mark.parametrize("command, artifact", [
        ("train", "checkpoint.bin"), ("build-weights", "weights.tsv")])
    def test_percent_in_a_path_is_literal(self, data_dir, tmp_path, command,
                                          artifact):
        """A data directory holding `%` runs, and its echo, re-fed,
        gives the same bytes (the echo once ended in a traceback)."""
        data = tmp_path / "da%ta"
        shutil.copytree(data_dir, data)
        first, second = tmp_path / "first", tmp_path / "second"
        assert run([command, "--data", data, "--run-dir", first,
                    "--subsampling", "cbs", "--method", "freq",
                    *(FAST if command == "train" else [])]) == 0
        assert load_config(first / "config.resolved.cfg").data_dir == str(
            data)
        assert run([command, "--config", first / "config.resolved.cfg",
                    "--run-dir", second]) == 0
        assert ((first / artifact).read_bytes()
                == (second / artifact).read_bytes())

    def test_every_training_goes_through_the_training_module(
            self, data_dir, tmp_path, monkeypatch):
        """train, pretrain-submodel and each sweep grid point look up
        `training.train` when they train, so a wrapper set on the module
        (as the benchmark's tracer sets one) sees every training."""
        from kgesub import training
        calls = []

        def counted(*args, _original=training.train):
            calls.append(args[3].subsampling)
            return _original(*args)
        monkeypatch.setattr(training, "train", counted)
        assert run(["train", "--data", data_dir, "--run-dir", tmp_path / "t",
                    "--subsampling", "cbs", "--method", "freq"] + FAST) == 0
        assert run(["pretrain-submodel", "--data", data_dir, "--run-dir",
                    tmp_path / "p", "--model", "distmult"] + FAST) == 0
        assert run(["score-triples", "--data", data_dir, "--run-dir",
                    tmp_path / "s", "--checkpoint",
                    tmp_path / "p" / "submodel.bin"]) == 0
        assert run(["sweep", "--data", data_dir, "--method", "freq",
                    "--submodel-scores", tmp_path / "s" / "scores.tsv",
                    "--alpha-grid", "0.5,1.0", "--lambda-grid", "0.5",
                    "--run-dir", tmp_path / "w"] + FAST) == 0
        # one training each for train and pretrain-submodel, then the
        # sweep's three grid points, the ledger's rows after its key
        assert calls == ["cbs", "none", "mbs", "mbs", "mix"]
        ledger = (tmp_path / "w" / "ledger.tsv").read_text("utf-8")
        assert len(ledger.splitlines()) == 1 + 3

    def test_validation_mrr_logged(self, data_dir, tmp_path):
        run_dir = tmp_path / "run"
        assert run(["train", "--data", data_dir, "--run-dir", run_dir,
                    "--subsampling", "none", "--valid-every", "6"]
                   + FAST) == 0
        lines = (run_dir / "train.log").read_text().strip().split("\n")
        assert len(lines[5].split("\t")) == 3  # step 6 has a third column
        assert len(lines[0].split("\t")) == 2


class TestExitCodes:
    def test_missing_data_is_exit_2(self, tmp_path):
        assert run(["train", "--data", tmp_path / "nope",
                    "--run-dir", tmp_path / "r"] + FAST) == 2

    def test_bad_flag_value_is_exit_1(self, data_dir, tmp_path):
        assert run(["train", "--data", data_dir,
                    "--run-dir", tmp_path / "r", "--subsampling", "mbs",
                    "--method", "base"] + FAST) == 1  # mbs needs scores

    def test_unknown_command_is_exit_1(self):
        assert run(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv,config_text", [
        (["train", "--adversarial-beta", "-1"], ""),
        (["train", "--gamma", "nan"], ""),
        (["train"], "[model]\ninit_epsilon = nan\n"),
        (["train"], "[train]\nlearning_rate = inf\n"),
        (["train"], "[data]\nsmoothing = nan\n"),
        (["train"], "[train]\nadam_beta1 = 1.0\n"),
        (["train", "--norm-p", "3"], ""),
        (["train", "--norm-p", "2"], ""),
        (["train"], "[model]\nnorm_p = 2.0\n"),
        (["train", "--optimizer", "sgd"], ""),
        (["train"], "[train]\noptimizer = sgd\n"),
        (["train", "--seed", "-1"], ""),
        (["sweep", "--alpha-grid", "0"], ""),
        (["sweep", "--lambda-grid", "1.5"], ""),
        (["sweep", "--alpha-grid", ","], ""),
        (["sweep", "--lambda-grid", " , "], ""),
        (["pretrain-submodel", "--submodel-subsampling", "uniq"], ""),
        (["pretrain-submodel"],
         "[subsampling]\nsubmodel_subsampling = uniq\n"),
    ], ids=["adversarial_beta", "gamma", "init_epsilon", "learning_rate",
            "smoothing", "adam_beta1", "norm_p", "norm_p_l2_flag",
            "norm_p_l2_file", "optimizer", "optimizer_file", "seed",
            "alpha_grid",
            "lambda_grid", "alpha_grid_empty", "lambda_grid_empty",
            "submodel_subsampling_flag", "submodel_subsampling_file"])
    def test_bad_setting_is_exit_1(self, data_dir, tmp_path, capsys, argv,
                                   config_text):
        """An out-of-range setting is a config error, not a traceback or
        a diverged run."""
        args = argv[:1] + ["--data", data_dir, "--run-dir", tmp_path / "r"]
        if argv[0] == "sweep":
            args += ["--method", "freq", "--submodel-scores",
                     tmp_path / "scores.tsv"]
        if config_text:
            config = tmp_path / "bad.cfg"
            config.write_text(config_text, encoding="utf-8")
            args += ["--config", config]
        assert run(args + FAST + argv[1:]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag, config_text", [
        ("--adam-epsilon=0", "[train]\nadam_epsilon = -0.001\n"),
        ("--lr-decay-factor=-1", "[train]\nlr_decay_factor = 0\n"),
    ], ids=["adam_epsilon", "lr_decay_factor"])
    def test_nonpositive_rate_setting_is_exit_1_before_the_data_load(
            self, tmp_path, capsys, flag, config_text):
        """A rate setting at or below 0 would let training climb the
        loss; as a flag or in a config file it is exit 1, not exit 2 for
        the absent data, and no run directory is made."""
        config = tmp_path / "bad.cfg"
        config.write_text(config_text, encoding="utf-8")
        for form in ([flag], ["--config", config]):
            assert run(["train", *form, "--data", tmp_path / "nope",
                        "--run-dir", tmp_path / "r"]) == 1
            assert capsys.readouterr().err.startswith("error: ")
            assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("name", ["valid_every", "lr_decay_every"])
    def test_negative_period_setting_is_exit_1_before_the_data_load(
            self, tmp_path, capsys, name):
        """A period below 0 would silently mean "off", as 0 does: as a
        flag or in a config file it is exit 1, not exit 2 for the absent
        data, and no run directory is made."""
        config = tmp_path / "bad.cfg"
        config.write_text(f"[train]\n{name} = -2\n", encoding="utf-8")
        flag = f"--{name.replace('_', '-')}=-2"
        for form in ([flag], ["--config", config]):
            assert run(["train", *form, "--data", tmp_path / "nope",
                        "--run-dir", tmp_path / "r"]) == 1
            assert capsys.readouterr().err == (
                f"error: [train] {name} must be >= 0, got -2\n")
            assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "rotate"], ["train", "--model", "complex"],
        ["train", "--model", "hake"],
        ["pretrain-submodel", "--model", "rotate"],
        ["pretrain-submodel", "--model", "complex"],
        ["pretrain-submodel", "--model", "hake"],
    ], ids=lambda argv: f"{argv[0]}-{argv[2]}")
    def test_odd_dim_for_complex_kind_is_exit_1(self, tmp_path, capsys,
                                                argv):
        """Checked before the data load: the data directory is absent,
        which would be exit 2."""
        assert run(argv + ["--data", tmp_path / "nope", "--run-dir",
                           tmp_path / "r"] + FAST + ["--dim", "7"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_config_key_is_exit_1(self, data_dir, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("[train]\nwarp_speed = 9\n", encoding="utf-8")
        assert run(["train", "--config", config,
                    "--run-dir", tmp_path / "r"]) == 1

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "{missing}"],
        ["evaluate", "--checkpoint", "{missing}"],
        ["score-triples", "--checkpoint", "{missing}"],
        ["build-weights", "--subsampling", "mbs", "--method", "base",
         "--mbs-query-mass", "all_candidates",
         "--submodel-checkpoint", "{missing}"],
        ["build-weights", "--subsampling", "mbs", "--method", "base",
         "--submodel-scores", "{missing}"],
        ["weights-report", "--method", "base",
         "--submodel-scores", "{missing}"],
    ], ids=["dataset", "evaluate_checkpoint", "score_triples_checkpoint",
            "all_candidates_submodel", "score_file", "report_score_file"])
    def test_missing_file_is_exit_2_naming_it(self, data_dir, tmp_path,
                                              capsys, argv):
        """`main` alone turns a failed read into exit 2, with the
        system's message, which names the path."""
        missing = str(tmp_path / "absent")
        args = [arg.format(missing=missing) for arg in argv]
        if "--data" not in args:
            args += ["--data", data_dir]
        assert run(args + ["--run-dir", tmp_path / "r"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err

    @pytest.mark.parametrize("argv", [
        ["singleton-stats", "--stride", "0"],
        ["weights-report", "--method", "base", "--submodel-scores", "s",
         "-n", "-1"]], ids=["stride", "num_queries"])
    def test_bad_count_is_exit_1_before_the_data_load(self, tmp_path, argv):
        """Not exit 2 for the absent data, and no run directory made."""
        assert run(argv + ["--data", tmp_path / "nope",
                           "--run-dir", tmp_path / "r"]) == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "{data} #2"],
        ["train", "--data", "{data} "],
        ["build-weights", "--data", "{data}", "--subsampling", "mbs",
         "--method", "freq", "--submodel-scores", "{scores} #1"],
        ["sweep", "--data", "{data}", "--method", "freq",
         "--submodel-scores", "{scores}", "{scores} #1"],
    ], ids=["data_hash", "data_space", "scores_hash", "candidate_hash"])
    def test_path_a_config_file_cannot_carry_is_exit_1(
            self, data_dir, tmp_path, capsys, argv):
        """A path that its echo would read back otherwise (a comment
        cut off, or whitespace stripped) is exit 1 before the data
        load, though each path names a dataset or score file."""
        data = tmp_path / "my data"
        shutil.copytree(data_dir, data)
        shutil.copytree(data_dir, f"{data} #2")
        shutil.copytree(data_dir, f"{data} ")
        scores = tmp_path / "scores.tsv"
        examples = 2 * (data_dir / "train.txt").read_text().count("\n")
        scores.write_text("# submodel=m\n" + "".join(
            f"{i}\t0.0\n" for i in range(examples)), encoding="utf-8")
        shutil.copy(scores, f"{scores} #1")
        args = [arg.format(data=data, scores=scores) for arg in argv]
        if args[0] != "build-weights":
            args += FAST
        assert run(args + ["--run-dir", tmp_path / "r"]) == 1
        assert "cannot be read back from a config file" in (
            capsys.readouterr().err)
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--submodel-scores", "s"], "needs a method"),
        (["--method", "base"], "needs submodel_scores"),
        (["--method", "base", "--mbs-query-mass", "all_candidates"],
         "needs submodel_checkpoint"),
    ], ids=["method", "scores", "checkpoint"])
    def test_report_without_a_table_setting_is_exit_1_before_the_data_load(
            self, tmp_path, capsys, argv, message):
        """weights-report checks the settings of both of its tables
        before it reads the data, as sweep does."""
        assert run(["weights-report", *argv, "--data", tmp_path / "nope",
                    "--run-dir", tmp_path / "r"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


@pytest.fixture
def handmade_dir(tmp_path):
    """Entities a, b, c, d (ids 0-3) and relations r, s (ids 0, 1)."""
    for split, rows in (("train", "arb arc brc csa dsa"), ("valid", "asd"),
                        ("test", "bsd ard")):
        (tmp_path / f"{split}.txt").write_text(
            "".join("\t".join(row) + "\n" for row in rows.split()),
            encoding="utf-8")
    return tmp_path


def save_distmult_1d(path, entities, relations):
    """A DistMult checkpoint of dim 1 over the handmade graph: it scores
    (h, r, t) as e_h * w_r * e_t."""
    params = init_params(ModelKind.DISTMULT, 4, 2, 1, 0.0, seed=0)
    params.entity_emb[:, 0] = entities
    params.relation_emb[:, 0] = relations
    save_params(params, path)
    return path


class TestGoldenOutputs:
    def test_ranks_tsv(self, handmade_dir, tmp_path):
        """The tail query of (b, s, d) scores [10, 50, 40, 40]: b beats d
        and c ties it, so its rank is 2.5, rounded up."""
        model = save_distmult_1d(tmp_path / "model.bin", [1.0, 5.0, 4.0, 4.0],
                                 [1.0, 2.0])
        assert run(["evaluate", "--data", handmade_dir, "--run-dir",
                    tmp_path / "eval", "--checkpoint", model]) == 0
        assert (tmp_path / "eval" / "ranks.tsv").read_bytes() == (
            b"1|1\ttail-query\t3\n3|1\thead-query\t1\n"
            b"0|0\ttail-query\t1\n3|0\thead-query\t4\n")

    def test_metrics_and_aggregate_tsv(self, handmade_dir, tmp_path):
        """Ranks 3, 1, 1, 4 under the first model and 3, 1, 2, 2 under
        the second: MRR 31/48 and 7/12, whose mean is 59/96 and whose
        population sd is 1/32."""
        models = [save_distmult_1d(tmp_path / f"{name}.bin", *rows)
                  for name, rows in (("a", ([1.0, 5.0, 4.0, 4.0], [1.0, 2.0])),
                                     ("b", ([2.0, -1.0, 3.0, 1.0],
                                            [1.0, -1.0])))]
        assert run(["evaluate", "--data", handmade_dir, "--run-dir",
                    tmp_path / "one", "--checkpoint", models[0]]) == 0
        assert (tmp_path / "one" / "metrics.tsv").read_bytes() == (
            b"mrr\t0.6458333333333333\t0.0\nh1\t0.5\t0.0\n"
            b"h3\t0.75\t0.0\nh10\t1.0\t0.0\n")
        assert run(["evaluate", "--data", handmade_dir, "--run-dir",
                    tmp_path / "two", "--checkpoint", *models]) == 0
        assert (tmp_path / "two" / "metrics.run1.tsv").read_bytes() == (
            b"mrr\t0.5833333333333333\t0.0\nh1\t0.25\t0.0\n"
            b"h3\t1.0\t0.0\nh10\t1.0\t0.0\n")
        assert (tmp_path / "two" / "aggregate.tsv").read_bytes() == (
            b"mrr\t0.6145833333333333\t0.03125\nh1\t0.375\t0.125\n"
            b"h3\t0.875\t0.125\nh10\t1.0\t0.0\n")

    def test_rank_dump_format(self, handmade_dir, tmp_path):
        """Each run's ranks file holds `entity|relation<TAB>direction<TAB>
        rank` rows, the tail then the head query of each test triple;
        its ranks are those of the metrics beside it (see
        test_metrics_and_aggregate_tsv)."""
        models = [save_distmult_1d(tmp_path / f"{name}.bin", *rows)
                  for name, rows in (("a", ([1.0, 5.0, 4.0, 4.0], [1.0, 2.0])),
                                     ("b", ([2.0, -1.0, 3.0, 1.0],
                                            [1.0, -1.0])))]
        assert run(["evaluate", "--data", handmade_dir, "--run-dir",
                    tmp_path / "two", "--checkpoint", *models]) == 0
        for index, ranks in enumerate(([3, 1, 1, 4], [3, 1, 2, 2])):
            rows = [line.split("\t") for line in (
                tmp_path / "two" / f"ranks.run{index}.tsv").read_text(
                    "utf-8").splitlines()]
            assert rows == [[query, direction, str(rank)] for
                            (query, direction), rank in zip(
                                [("1|1", "tail-query"), ("3|1", "head-query"),
                                 ("0|0", "tail-query"), ("3|0", "head-query")],
                                ranks)]

    def test_singleton_stats_tsv_stride_2(self, handmade_dir, tmp_path):
        """The singleton queries by entity count, relation count, then
        query id: (c, s, ?), (b, r, ?), (?, r, b), (d, s, ?)."""
        assert run(["singleton-stats", "--data", handmade_dir, "--run-dir",
                    tmp_path / "stats", "--stride", "2"]) == 0
        assert (tmp_path / "stats" / "singleton-stats.tsv").read_bytes() == (
            b"entity\trelation\tdirection\tentity_count\trelation_count\n"
            b"2\t1\ttail-query\t3\t2\n1\t0\thead-query\t2\t3\n")


class TestRepeatedListFlags:
    """A repeated list flag adds to its list; it does not replace it."""

    def test_evaluate_checkpoint_twice(self, handmade_dir, tmp_path):
        models = [save_distmult_1d(tmp_path / f"{name}.bin", *rows)
                  for name, rows in (("a", ([1.0, 5.0, 4.0, 4.0], [1.0, 2.0])),
                                     ("b", ([2.0, -1.0, 3.0, 1.0],
                                            [1.0, -1.0])))]
        assert run(["evaluate", "--data", handmade_dir, "--run-dir",
                    tmp_path / "eval", "--checkpoint", models[0],
                    "--checkpoint", models[1]]) == 0
        for name in ("report.run0.txt", "report.run1.txt", "aggregate.tsv"):
            assert (tmp_path / "eval" / name).exists(), name
        assert not (tmp_path / "eval" / "report.txt").exists()

    def test_sweep_submodel_scores_twice(self, data_dir, tmp_path):
        examples = 2 * (data_dir / "train.txt").read_text().count("\n")
        paths = []
        for sid, step in (("m1", 0.25), ("m2", 0.5)):
            paths.append(tmp_path / f"{sid}.tsv")
            paths[-1].write_text(f"# submodel={sid}\n" + "".join(
                f"{i}\t{step * (i % 3)}\n" for i in range(examples)),
                encoding="utf-8")
        assert run(["sweep", "--data", data_dir, "--method", "freq",
                    "--submodel-scores", paths[0], "--submodel-scores",
                    paths[1], "--alpha-grid", "0.5", "--lambda-grid", "0.5",
                    "--run-dir", tmp_path / "sweep"] + FAST) == 0
        ledger = (tmp_path / "sweep" / "ledger.tsv").read_text("utf-8")
        assert {row.split("\t")[0] for row in ledger.splitlines()[1:]} == {
            "m1", "m2"}


class TestParserBuiltOnce:
    """`main` builds its parser once a process; each call's list flags
    start empty, and a call that fails leaves nothing to the next."""

    def test_list_flags_kept_apart(self, handmade_dir, data_dir, tmp_path):
        assert build_parser() is build_parser()
        checkpoints = [save_distmult_1d(tmp_path / f"{name}.bin", *rows)
                       for name, rows in (
                           ("a", ([1.0, 5.0, 4.0, 4.0], [1.0, 2.0])),
                           ("b", ([2.0, -1.0, 3.0, 1.0], [1.0, -1.0])))]
        # a config error after both checkpoints were taken
        assert run(["evaluate", "--data", handmade_dir, "--run-dir",
                    tmp_path / "bad", "--checkpoint", *checkpoints,
                    "--split", "train"]) == 1
        for name in ("a", "b"):
            assert run(["evaluate", "--data", handmade_dir, "--run-dir",
                        tmp_path / name, "--checkpoint",
                        tmp_path / f"{name}.bin"]) == 0
            assert (tmp_path / name / "report.txt").exists()
            assert not (tmp_path / name / "report.run0.txt").exists()
        examples = 2 * (data_dir / "train.txt").read_text().count("\n")
        for sid in ("m1", "m2"):
            path = tmp_path / f"{sid}.tsv"
            path.write_text(f"# submodel={sid}\n" + "".join(
                f"{i}\t{0.25 * (i % 3)}\n" for i in range(examples)),
                encoding="utf-8")
            assert run(["sweep", "--data", data_dir, "--method", "freq",
                        "--submodel-scores", path, "--alpha-grid", "0.5",
                        "--lambda-grid", "0.5", "--run-dir",
                        tmp_path / f"sweep-{sid}"] + FAST) == 0
            ledger = (tmp_path / f"sweep-{sid}" / "ledger.tsv").read_text(
                "utf-8")
            assert {row.split("\t")[0]
                    for row in ledger.splitlines()[1:]} == {sid}


class TestEvaluateCommand:
    def test_reports_written(self, data_dir, tmp_path):
        train_dir = tmp_path / "train"
        assert run(["train", "--data", data_dir, "--run-dir", train_dir,
                    "--subsampling", "none"] + FAST) == 0
        eval_dir = tmp_path / "eval"
        code = run(["evaluate", "--data", data_dir,
                    "--checkpoint", train_dir / "checkpoint.bin",
                    "--split", "valid", "--run-dir", eval_dir])
        assert code == 0
        metrics = dict(
            line.split("\t")[:2]
            for line in (eval_dir / "metrics.tsv").read_text().split("\n")
            if line)
        assert 0.0 < float(metrics["mrr"]) <= 1.0
        ranks = (eval_dir / "ranks.tsv").read_text().strip().split("\n")
        assert len(ranks) == 30  # 15 valid triples, both directions

    def test_checkpoint_round_trip_same_report(self, data_dir, tmp_path):
        train_dir = tmp_path / "train"
        assert run(["train", "--data", data_dir, "--run-dir", train_dir,
                    "--subsampling", "none"] + FAST) == 0
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["evaluate", "--data", data_dir,
                        "--checkpoint", train_dir / "checkpoint.bin",
                        "--split", "test", "--run-dir", out]) == 0
        assert ((out_a / "metrics.tsv").read_text()
                == (out_b / "metrics.tsv").read_text())


class TestEvaluateInputErrors:
    @pytest.fixture()
    def six_entity_dir(self, tmp_path):
        """Train names e0..e5 first; valid only uses ids below 3, test
        uses ids 4 and 5."""
        directory = tmp_path / "kg6"
        directory.mkdir()
        train = "".join(f"e{i}\tr0\te{i + 1}\n" for i in range(5))
        (directory / "train.txt").write_text(train, encoding="utf-8")
        (directory / "valid.txt").write_text("e0\tr0\te1\n")
        (directory / "test.txt").write_text("e4\tr0\te5\n")
        return directory

    @pytest.mark.parametrize("split", ["valid", "test"])
    @pytest.mark.parametrize("entities, relations", [(3, 1), (6, 2)])
    def test_vocab_mismatch_is_exit_2(self, six_entity_dir, tmp_path,
                                      capsys, split, entities, relations):
        from kgesub.models import ModelKind, init_params, save_params
        checkpoint = tmp_path / "small.bin"
        save_params(init_params(ModelKind.DISTMULT, entities, relations, 4,
                                1.0, seed=1), checkpoint)
        code = run(["evaluate", "--data", six_entity_dir, "--checkpoint",
                    checkpoint, "--split", split,
                    "--run-dir", tmp_path / "eval"])
        assert code == 2
        assert "dataset has 6 / 1" in capsys.readouterr().err

    def test_checkpoint_without_array_list_is_exit_2(self, six_entity_dir,
                                                     tmp_path, capsys):
        import json
        import struct
        blob = json.dumps({"format_version": 1, "payload": "model-params",
                           "kind": "distmult", "dim": 4, "gamma": 1.0,
                           "aux": {}}).encode()
        checkpoint = tmp_path / "bad.bin"
        checkpoint.write_bytes(b"KGESUBCK" + struct.pack("<Q", len(blob))
                               + blob)
        code = run(["evaluate", "--data", six_entity_dir, "--checkpoint",
                    checkpoint, "--run-dir", tmp_path / "eval"])
        assert code == 2
        assert "array list" in capsys.readouterr().err

    @pytest.mark.parametrize("command, artifact", [
        ("evaluate", "metrics.tsv"), ("score-triples", "scores.tsv")])
    @pytest.mark.parametrize("table, value", [
        ("entity_emb", float("nan")), ("relation_emb", float("-inf"))])
    def test_non_finite_checkpoint_is_exit_2(self, six_entity_dir, tmp_path,
                                             capsys, command, artifact,
                                             table, value):
        """A NaN score would rank every answer first: such a checkpoint
        gives no metric and no score file."""
        params = init_params(ModelKind.TRANSE, 6, 1, 4, 1.0, seed=1)
        getattr(params, table)[0] = value
        checkpoint = tmp_path / "nan.bin"
        save_params(params, checkpoint)
        code = run([command, "--data", six_entity_dir, "--checkpoint",
                    checkpoint, "--run-dir", tmp_path / "out"])
        assert code == 2
        assert f"{table} holds a non-finite entry" in capsys.readouterr().err
        assert not (tmp_path / "out" / artifact).exists()

    @pytest.mark.parametrize("command, artifact", [
        (["evaluate"], "metrics.tsv"), (["score-triples"], "scores.tsv"),
        (["build-weights", "--subsampling", "mbs", "--method", "freq",
          "--mbs-query-mass", "all_candidates"], "weights.tsv")],
        ids=lambda v: v[0] if isinstance(v, list) else None)
    @pytest.mark.parametrize("kind, field, text, message", [
        ("hake", "aux.phase_weight", "NaN", "NaN is not a JSON value"),
        ("hake", "aux.phase_weight", "1e999", "header field aux.phase_weight"),
        ("transe", "aux.norm_p", "3.0", "header field aux.norm_p"),
        ("transe", "aux.norm_p", "2.0", "header field aux.norm_p"),
        ("transe", "dim", "4.9", "header field dim"),
        ("transe", "num_entities", "5", "header field num_entities"),
        ("transe", "gamma", "NaN", "NaN is not a JSON value"),
        ("transe", "gamma", "-Infinity", "-Infinity is not a JSON value"),
        ("transe", "gamma", "1e999", "header field gamma"),
        ("transe", "aux", '{"norm_p": 1.0, "phase_weight": 0.5}',
         "header field aux"),
    ])
    def test_bad_header_is_exit_2(self, six_entity_dir, tmp_path, capsys,
                                  command, artifact, kind, field, text,
                                  message):
        """A checkpoint header is input: its settings follow the rules of
        the run settings and its counts the tables.  A NaN phase weight
        would rank every answer first; no such header gives a metric, a
        score file or a weight table."""
        checkpoint = tmp_path / "crafted.bin"
        save_params(init_params(ModelKind(kind), 6, 1, 4, 1.0, seed=1),
                    checkpoint)
        flag = ("--submodel-checkpoint" if command[0] == "build-weights"
                else "--checkpoint")
        args = [*command, "--data", six_entity_dir, flag, checkpoint,
                "--run-dir", tmp_path / "out"]
        assert run(args) == 0  # the file as written, before the edit
        (tmp_path / "out" / artifact).unlink()
        capsys.readouterr()
        rewrite_header(checkpoint, field, text)
        assert run(args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / artifact).exists()

    def test_hake_checkpoint_with_a_bias_third_is_exit_2(
            self, six_entity_dir, tmp_path, capsys):
        """HAKE relation rows were [modulus | phase | bias], 3 * dim / 2
        wide; such a checkpoint no longer fits its header's dim."""
        params = init_params(ModelKind.HAKE, 6, 1, 4, 1.0, seed=1)
        checkpoint = tmp_path / "hake.bin"
        write_container(checkpoint, params_header(params, "model-params"), {
            "entity_emb": params.entity_emb,
            "relation_emb": np.zeros((params.num_relations, 6))})
        code = run(["evaluate", "--data", six_entity_dir, "--checkpoint",
                    checkpoint, "--run-dir", tmp_path / "eval"])
        assert code == 2
        assert "do not fit hake with dim 4" in capsys.readouterr().err


class TestSubmodelPipeline:
    def test_full_mbs_and_mix_flow(self, data_dir, tmp_path):
        sub_dir = tmp_path / "sub"
        assert run(["pretrain-submodel", "--data", data_dir,
                    "--run-dir", sub_dir, "--model", "complex",
                    "--submodel-subsampling", "none"] + FAST) == 0
        score_dir = tmp_path / "scores"
        assert run(["score-triples", "--data", data_dir,
                    "--run-dir", score_dir,
                    "--checkpoint", sub_dir / "submodel.bin"]) == 0
        scores_path = score_dir / "scores.tsv"
        assert scores_path.exists()
        first_line = scores_path.read_text().split("\n")[0]
        assert "complex-none-seed3" in first_line

        mbs_dir = tmp_path / "mbs"
        assert run(["train", "--data", data_dir, "--run-dir", mbs_dir,
                    "--subsampling", "mbs", "--method", "freq",
                    "--alpha", "0.5", "--smoothing", "0",
                    "--submodel-scores", scores_path] + FAST) == 0
        mix_dir = tmp_path / "mix"
        assert run(["train", "--data", data_dir, "--run-dir", mix_dir,
                    "--subsampling", "mix", "--method", "freq",
                    "--alpha", "0.1", "--lambda", "0.7", "--smoothing", "0",
                    "--submodel-scores", scores_path] + FAST) == 0
        table = oracle_load_weight_table(mix_dir / "weights.tsv")
        assert table.provenance.source == "mix"
        assert table.provenance.alpha == 0.1
        assert table.provenance.lam == 0.7

    def test_refed_echo_reproduces_the_submodel(self, data_dir, tmp_path,
                                                capsys):
        """The kind and weighting are settings: re-feeding the echoed
        config trains the same sub-model under the same id."""
        assert run(["pretrain-submodel", "--data", data_dir, "--run-dir",
                    tmp_path / "one", "--model", "complex",
                    "--submodel-subsampling", "cbs-base"] + FAST) == 0
        first = capsys.readouterr().out
        assert run(["pretrain-submodel", "--config",
                    tmp_path / "one" / "config.resolved.cfg",
                    "--run-dir", tmp_path / "two"]) == 0
        second = capsys.readouterr().out
        assert first.startswith("sub-model complex-cbs-base-seed3 in ")
        assert second.split(" in ")[0] == first.split(" in ")[0]
        assert (tmp_path / "one" / "submodel.bin").read_bytes() == (
            tmp_path / "two" / "submodel.bin").read_bytes()

    def test_submodel_id_is_read_back_whole(self, data_dir, tmp_path,
                                            capsys):
        """An untagged checkpoint's file name with a space is one id in
        `score-triples`' output, the score file and the sweep ledger."""
        assert run(["pretrain-submodel", "--data", data_dir, "--run-dir",
                    tmp_path / "sub"] + FAST) == 0
        checkpoint = tmp_path / "my model.bin"
        save_params(load_params(tmp_path / "sub" / "submodel.bin"),
                    checkpoint)
        capsys.readouterr()
        assert run(["score-triples", "--data", data_dir, "--checkpoint",
                    checkpoint, "--run-dir", tmp_path / "scores"]) == 0
        assert " under my model; " in capsys.readouterr().out
        scores = tmp_path / "scores" / "scores.tsv"
        assert subsampling.load_scores(scores).submodel_id == "my model"
        scores_copy_path(scores).unlink()
        assert subsampling.load_scores(scores).submodel_id == "my model"
        assert run(["sweep", "--data", data_dir, "--method", "freq",
                    "--submodel-scores", scores, "--alpha-grid", "0.5",
                    "--lambda-grid", "0.5", "--run-dir", tmp_path / "sweep"]
                   + FAST) == 0
        key, *rows = (tmp_path / "sweep" / "ledger.tsv").read_text(
            "utf-8").splitlines()
        assert key.startswith("# sweep ")
        assert [row.split("\t")[0] for row in rows] == ["my model"]

    def test_id_with_a_tab_is_exit_2(self, data_dir, tmp_path, capsys):
        assert run(["pretrain-submodel", "--data", data_dir, "--run-dir",
                    tmp_path / "sub"] + FAST) == 0
        checkpoint = tmp_path / "my\tmodel.bin"
        save_params(load_params(tmp_path / "sub" / "submodel.bin"),
                    checkpoint)
        assert run(["score-triples", "--data", data_dir, "--checkpoint",
                    checkpoint, "--run-dir", tmp_path / "scores"]) == 2
        assert capsys.readouterr().err == (
            "error: sub-model id 'my\\tmodel' holds a tab or a line break\n")
        assert not (tmp_path / "scores" / "scores.tsv").exists()

    def test_score_file_is_parsed_once(self, data_dir, tmp_path,
                                       monkeypatch):
        """`score-triples` leaves the parsed copy of its file; a
        `build-weights` reads it, and one that parses writes the same
        table and the same copy."""
        sub_dir, score_dir = tmp_path / "sub", tmp_path / "scores"
        assert run(["pretrain-submodel", "--data", data_dir,
                    "--run-dir", sub_dir] + FAST) == 0
        assert run(["score-triples", "--data", data_dir, "--run-dir",
                    score_dir, "--checkpoint", sub_dir / "submodel.bin"]) == 0
        scores = score_dir / "scores.tsv"
        copy = scores_copy_path(scores)
        written = copy.read_bytes()
        common = ["build-weights", "--data", data_dir, "--subsampling", "mix",
                  "--method", "freq", "--alpha", "0.5", "--lambda", "0.5",
                  "--submodel-scores", scores]
        with monkeypatch.context() as patch:
            patch.setattr(subsampling, "parse_text", no_parse)
            assert run(common + ["--run-dir", tmp_path / "hit"]) == 0
        copy.unlink()
        assert run(common + ["--run-dir", tmp_path / "miss"]) == 0
        assert copy.read_bytes() == written
        assert (tmp_path / "hit" / "weights.tsv").read_bytes() == (
            tmp_path / "miss" / "weights.tsv").read_bytes()
        assert sorted(os.listdir(score_dir)) == [
            copy.name, "manifest.tsv", "scores.tsv"]

    def test_non_finite_scores_exit_2_and_leave_no_copy(self, data_dir,
                                                        tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("# submodel=m\n" + "".join(
            f"{i}\t{'nan' if i == 5 else 0.5}\n" for i in range(320)),
            encoding="utf-8")
        for _ in range(2):
            assert run(["build-weights", "--data", data_dir, "--run-dir",
                        tmp_path / "w", "--subsampling", "mbs",
                        "--method", "freq", "--submodel-scores",
                        scores]) == 2
            assert capsys.readouterr().err == (
                "error: sub-model 'm' produced non-finite scores\n")
        assert sorted(os.listdir(tmp_path)) == ["scores.tsv", "w"]

    @pytest.mark.parametrize("kind, aux", [
        ("distmult", {}), ("hake", {"phase_weight": 0.5})])
    def test_submodel_aux_follows_its_kind(self, data_dir, tmp_path, kind,
                                           aux):
        """The sub-model's checkpoint header holds the auxiliary settings
        of its own kind."""
        sub_dir = tmp_path / "sub"
        assert run(["pretrain-submodel", "--data", data_dir,
                    "--run-dir", sub_dir, "--model", kind]
                   + FAST) == 0
        assert load_params(sub_dir / "submodel.bin").aux == aux

    def test_build_weights_standalone(self, data_dir, tmp_path):
        run_dir = tmp_path / "weights"
        assert run(["build-weights", "--data", data_dir,
                    "--run-dir", run_dir, "--subsampling", "cbs",
                    "--method", "uniq", "--smoothing", "0"]) == 0
        table = oracle_load_weight_table(run_dir / "weights.tsv")
        assert table.provenance.method == "uniq"
        assert table.a.mean() == pytest.approx(1.0, abs=1e-9)


# the paper's two sub-model recipes: kind, pretrain-submodel's
# --submodel-subsampling, and the `train` flags of the same weights
RECIPES = [("distmult", "none", ["--subsampling", "none"]),
           ("complex", "cbs-base", ["--subsampling", "cbs", "--method",
                                    "base"])]


def make_submodel(maker, data_dir, run_dir, kind, weighting, flags):
    """A sub-model of one recipe made by `train` or `pretrain-submodel`,
    scored by `score-triples` into `<run_dir>-scores`; the score file."""
    weights = (flags if maker == "train"
               else ["--submodel-subsampling", weighting])
    assert run([maker, "--data", data_dir, "--model", kind, *weights, *FAST,
                "--run-dir", run_dir]) == 0
    checkpoint = run_dir / ("checkpoint.bin" if maker == "train"
                            else "submodel.bin")
    scores = run_dir.with_name(run_dir.name + "-scores")
    assert run(["score-triples", "--data", data_dir, "--checkpoint",
                checkpoint, "--run-dir", scores]) == 0
    return scores / "scores.tsv"


class TestSubmodelIsATrainRun:
    @pytest.mark.parametrize("kind, weighting, flags", RECIPES,
                             ids=[recipe[1] for recipe in RECIPES])
    def test_train_makes_the_pretrained_submodel(self, data_dir, tmp_path,
                                                 kind, weighting, flags):
        """`pretrain-submodel` is `train` under none or cbs-base: the same
        tables, and a score file of the same bytes, id line included."""
        scores = [make_submodel(maker, data_dir, tmp_path / maker, kind,
                                weighting, flags)
                  for maker in ("train", "pretrain-submodel")]
        trained = load_params(tmp_path / "train" / "checkpoint.bin")
        pretrained = load_params(tmp_path / "pretrain-submodel"
                                 / "submodel.bin")
        assert np.array_equal(trained.entity_emb, pretrained.entity_emb)
        assert np.array_equal(trained.relation_emb, pretrained.relation_emb)
        assert scores[0].read_bytes() == scores[1].read_bytes()
        assert scores[0].read_text("utf-8").startswith(
            f"# submodel={kind}-{weighting}-seed3\n")

    def test_sweep_over_train_made_submodels(self, data_dir, tmp_path):
        """Two `train`-made sub-models have two ids, and their sweep
        writes the ledger of the `pretrain-submodel` pair's sweep."""
        ledgers = []
        for maker in ("train", "pretrain-submodel"):
            candidates = [make_submodel(maker, data_dir,
                                        tmp_path / f"{maker}-{kind}",
                                        kind, weighting, flags)
                          for kind, weighting, flags in RECIPES]
            sweep = tmp_path / f"{maker}-sweep"
            assert run(["sweep", "--data", data_dir, "--model", "transe",
                        "--method", "freq", "--submodel-scores",
                        *candidates, "--alpha-grid", "0.5", "--lambda-grid",
                        "0.5", "--run-dir", sweep, *FAST]) == 0
            ledgers.append((sweep / "ledger.tsv").read_text("utf-8"))
        assert ledgers[0] == ledgers[1]
        assert [row.split("\t")[0] for row in ledgers[0].splitlines()[1:3]
                ] == ["distmult-none-seed3", "complex-cbs-base-seed3"]


class TestSubmodelTag:
    @pytest.fixture(scope="class")
    def submodel(self, data_dir, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("tagged")
        assert run(["pretrain-submodel", "--data", data_dir, "--run-dir",
                    run_dir, "--model", "distmult"] + FAST) == 0
        return run_dir / "submodel.bin"

    @pytest.mark.parametrize("tag", ["5", "true", "null", '["x"]',
                                     '{"a": 1}'])
    @pytest.mark.parametrize("argv", [
        ["score-triples", "--checkpoint", "{c}"],
        ["build-weights", "--subsampling", "mbs", "--method", "base",
         "--mbs-query-mass", "all_candidates", "--submodel-checkpoint",
         "{c}"],
        ["weights-report", "--method", "base", "--mbs-query-mass",
         "all_candidates", "--submodel-checkpoint", "{c}", "-n", "5"],
    ], ids=lambda argv: argv[0])
    def test_tag_that_is_not_a_string_is_exit_2(self, data_dir, submodel,
                                                 tmp_path, capsys, tag,
                                                 argv):
        """A sub-model id is a string: any other header `tag` is a
        failed read that names the field, before anything is written."""
        checkpoint = tmp_path / "submodel.bin"
        shutil.copyfile(submodel, checkpoint)
        rewrite_header(checkpoint, "tag", tag)
        assert run([*(arg.format(c=checkpoint) for arg in argv), "--data",
                    data_dir, "--run-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "header field tag" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "manifest.tsv").exists()


class TestReportCommands:
    def _scores(self, data_dir, tmp_path):
        sub_dir = tmp_path / "sub"
        assert run(["pretrain-submodel", "--data", data_dir,
                    "--run-dir", sub_dir, "--model", "distmult"]
                   + FAST) == 0
        score_dir = tmp_path / "scores"
        assert run(["score-triples", "--data", data_dir,
                    "--run-dir", score_dir,
                    "--checkpoint", sub_dir / "submodel.bin"]) == 0
        return score_dir / "scores.tsv"

    def test_weights_report(self, data_dir, tmp_path):
        scores = self._scores(data_dir, tmp_path)
        report_dir = tmp_path / "report"
        assert run(["weights-report", "--data", data_dir,
                    "--run-dir", report_dir, "--method", "freq",
                    "--alpha", "0.1", "--submodel-scores", scores,
                    "-n", "10", "--smoothing", "0"]) == 0
        lines = ((report_dir / "weights-report.tsv")
                 .read_text().strip().split("\n"))
        assert lines[0].startswith("entity\trelation")
        assert len(lines) == 11
        counts = [float(line.split("\t")[3]) for line in lines[1:]]
        assert counts == sorted(counts, reverse=True)
        echo = load_config(report_dir / "config.resolved.cfg")
        assert (echo.method, echo.alpha, echo.smoothing) == ("freq", 0.1, 0.0)
        assert (report_dir / "manifest.tsv").read_text() == (
            "config\tconfig.resolved.cfg\n"
            "weights_report\tweights-report.tsv\n")

    def test_weights_report_zero_queries(self, data_dir, tmp_path):
        scores = self._scores(data_dir, tmp_path)
        report_dir = tmp_path / "report0"
        assert run(["weights-report", "--data", data_dir,
                    "--run-dir", report_dir, "--method", "freq",
                    "--submodel-scores", scores, "-n", "0"]) == 0
        lines = ((report_dir / "weights-report.tsv")
                 .read_text().strip().split("\n"))
        assert len(lines) == 1

    @pytest.mark.parametrize("method", ["base", "freq", "uniq"])
    def test_report_is_that_of_the_built_tables(self, handmade_dir, tmp_path,
                                                method):
        """The report's bytes are the rows of `query_appearance_report`
        over the CBS and MBS tables that build-weights writes with the
        same settings."""
        scores = tmp_path / "scores.tsv"
        scores.write_text("# submodel=hand\n" + "".join(
            f"{i}\t{v!r}\n" for i, v in enumerate(
                [0.5, 0.5, -1.0, -1.0, 2.0, 2.0, 0.25, 0.25, -3.0, -3.0])),
            encoding="utf-8")
        settings = ["--data", handmade_dir, "--method", method, "--alpha",
                    "0.3", "--smoothing", "1", "--submodel-scores", scores]
        tables = []
        for source in ("cbs", "mbs"):
            assert run(["build-weights", *settings, "--subsampling", source,
                        "--run-dir", tmp_path / source]) == 0
            tables.append(oracle_load_weight_table(
                tmp_path / source / "weights.tsv"))
        rows = query_appearance_report(load_dataset(handmade_dir), *tables,
                                       5, smoothing=1.0)
        assert run(["weights-report", *settings, "-n", "5",
                    "--run-dir", tmp_path / "report"]) == 0
        assert (tmp_path / "report" / "weights-report.tsv").read_text(
            encoding="utf-8") == "".join(
                "\t".join(map(str, row)) + "\n" for row in [
                    ("entity", "relation", "direction", "cbs_count",
                     "cbs_pct", "mbs_pct"), *rows])

    def test_smoothing_moves_count_and_share(self, handmade_dir, tmp_path):
        """Training counts 2, 1, 1, 1, 1, 2, 2: under Freq a count-1
        query's share of the CBS mass is 1 / (3 sqrt 2 + 4) with no
        smoothing and (1 / sqrt 5) / (6 / sqrt 6 + 4 / sqrt 5) with 4."""
        scores = tmp_path / "scores.tsv"
        scores.write_text("# submodel=flat\n" + "".join(
            f"{i}\t0.0\n" for i in range(10)), encoding="utf-8")
        reports = {}
        for smoothing in ("0", "4"):
            run_dir = tmp_path / smoothing
            assert run(["weights-report", "--data", handmade_dir,
                        "--method", "freq", "--submodel-scores", scores,
                        "--smoothing", smoothing, "--run-dir", run_dir]) == 0
            reports[smoothing] = [
                line.split("\t") for line in (run_dir / "weights-report.tsv")
                .read_text(encoding="utf-8").splitlines()[1:]]
        plain, smoothed = reports["0"], reports["4"]
        assert len(plain) == len(smoothed) == 7
        for row, other in zip(plain, smoothed):
            assert row[:3] == other[:3] and row[5] == other[5]
            assert float(other[3]) == float(row[3]) + 4
        rare = [(float(row[4]), float(other[4]))
                for row, other in zip(plain, smoothed) if row[3] == "1.0"]
        assert len(rare) == 4
        for share, smoothed_share in rare:
            assert share == pytest.approx(100 / (3 * 2 ** 0.5 + 4))
            assert smoothed_share == pytest.approx(
                100 / 5 ** 0.5 / (6 / 6 ** 0.5 + 4 / 5 ** 0.5))

    def test_malformed_score_file_is_exit_2(self, data_dir, tmp_path,
                                            capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("# submodel=x\n0\t1.5\n1\tx\n", encoding="utf-8")
        assert run(["build-weights", "--data", data_dir,
                    "--run-dir", tmp_path / "w", "--subsampling", "mbs",
                    "--method", "freq", "--submodel-scores", scores]) == 2
        assert "scores.tsv:3:" in capsys.readouterr().err

    def test_singleton_stats_stride(self, data_dir, tmp_path):
        full_dir = tmp_path / "full"
        assert run(["singleton-stats", "--data", data_dir,
                    "--run-dir", full_dir, "--stride", "1"]) == 0
        full = (full_dir / "singleton-stats.tsv").read_text().strip()
        strided_dir = tmp_path / "strided"
        assert run(["singleton-stats", "--data", data_dir,
                    "--run-dir", strided_dir, "--stride", "3"]) == 0
        strided = ((strided_dir / "singleton-stats.tsv")
                   .read_text().strip())
        n_full = len(full.split("\n")) - 1
        n_strided = len(strided.split("\n")) - 1
        assert n_strided == -(-n_full // 3)  # ceil division


class TestSweepCommand:
    def test_sweep_selects_and_resumes(self, data_dir, tmp_path):
        sub_dir = tmp_path / "sub"
        assert run(["pretrain-submodel", "--data", data_dir,
                    "--run-dir", sub_dir, "--model", "distmult"]
                   + FAST) == 0
        score_dir = tmp_path / "scores"
        assert run(["score-triples", "--data", data_dir,
                    "--run-dir", score_dir,
                    "--checkpoint", sub_dir / "submodel.bin"]) == 0
        sweep_dir = tmp_path / "sweep"
        args = ["sweep", "--data", data_dir, "--run-dir", sweep_dir,
                "--method", "base", "--smoothing", "0",
                "--submodel-scores", score_dir / "scores.tsv",
                "--alpha-grid", "1.0,0.5", "--lambda-grid", "0.3,0.7"] + FAST
        assert run(args) == 0
        key, *ledger = ((sweep_dir / "ledger.tsv")
                        .read_text().strip().split("\n"))
        assert key.startswith("# sweep ") and "\t" not in key
        assert len(ledger) == 4  # 2 alphas + 2 lambdas
        # the candidates are not the [subsampling] submodel_scores setting
        assert load_config(sweep_dir / "config.resolved.cfg") \
            .submodel_scores == ""
        assert (load_config(sweep_dir / "best.cfg").submodel_scores
                == str(score_dir / "scores.tsv"))

        # rerun: ledger already complete, no new rows
        assert run(args) == 0
        ledger_again = ((sweep_dir / "ledger.tsv")
                        .read_text().strip().split("\n"))
        assert ledger_again == [key, *ledger]

        # the emitted best config reproduces the selected MIX point: its
        # final valid MRR is the one in the ledger, to the last digit
        best_dir = tmp_path / "best"
        assert run(["train", "--config", sweep_dir / "best.cfg",
                    "--valid-every", "12", "--run-dir", best_dir]) == 0
        assert (best_dir / "checkpoint.bin").exists()
        best = load_config(sweep_dir / "best.cfg")
        assert best.subsampling == "mix"
        mix_rows = [row.split("\t") for row in ledger
                    if row.split("\t")[2] != "-"]
        [selected] = [row[3] for row in mix_rows
                      if row[1:3] == [repr(best.alpha), repr(best.lam)]]
        log = (best_dir / "train.log").read_text().strip().split("\n")
        assert log[-1].split("\t")[2] == selected

    def test_sweep_reads_each_candidate_once(self, data_dir, tmp_path,
                                             monkeypatch):
        """A 2 x 2 sweep over two score files reads each file, and takes
        each one's frequencies, once, and builds the CBS table once."""
        from kgesub import cli
        calls = {name: [] for name in ("load_scores", "log_model_frequencies",
                                       "build_cbs_weights")}
        for name, record in calls.items():
            def counted(*args, _original=getattr(cli, name), _record=record):
                _record.append(args[0])
                return _original(*args)
            monkeypatch.setattr(cli, name, counted)
        examples = 2 * (data_dir / "train.txt").read_text().count("\n")
        paths = []
        for sid, step in (("m1", 0.25), ("m2", 0.5)):
            paths.append(tmp_path / f"{sid}.tsv")
            paths[-1].write_text(f"# submodel={sid}\n" + "".join(
                f"{i}\t{step * (i % 3)}\n" for i in range(examples)),
                encoding="utf-8")
        assert run(["sweep", "--data", data_dir, "--method", "freq",
                    "--submodel-scores", *paths, "--alpha-grid", "1.0,0.5",
                    "--lambda-grid", "0.3,0.7", "--run-dir",
                    tmp_path / "sweep"] + FAST) == 0
        ledger = (tmp_path / "sweep" / "ledger.tsv").read_text("utf-8")
        assert len(ledger.splitlines()) == 1 + 2 * 2 + 2
        assert [str(path) for path in calls["load_scores"]] == [
            str(path) for path in paths]
        assert len(calls["log_model_frequencies"]) == 2
        assert len(calls["build_cbs_weights"]) == 1

    def test_duplicate_submodel_id_names_both_files(self, data_dir,
                                                    tmp_path, capsys):
        """The id names only kind, weighting and seed, so two `train`
        runs of one recipe at two dims share it: as two candidates they
        are exit 1 before any point runs, and the error names both
        score files."""
        examples = 2 * (data_dir / "train.txt").read_text().count("\n")
        paths = []
        for dim in (8, 16):
            paths.append(tmp_path / f"dim{dim}" / "scores.tsv")
            paths[-1].parent.mkdir()
            paths[-1].write_text("# submodel=distmult-none-seed1\n" + "".join(
                f"{i}\t{0.5 * (i % dim)}\n" for i in range(examples)),
                encoding="utf-8")
        assert run(["sweep", "--data", data_dir, "--method", "freq",
                    "--submodel-scores", *paths, "--run-dir",
                    tmp_path / "sweep"] + FAST) == 1
        assert capsys.readouterr().err == (
            "error: duplicate sub-model id 'distmult-none-seed1': "
            f"{paths[0]} and {paths[1]}\n")
        assert not (tmp_path / "sweep" / "ledger.tsv").exists()

    def test_resumed_sweep_of_a_hash_id_adds_no_rows(self, data_dir,
                                                     tmp_path):
        """An untagged checkpoint `#1.bin` gives the id `#1`, and its
        ledger rows are records, not comments: a second run of the same
        sweep finds every grid point done."""
        assert run(["pretrain-submodel", "--data", data_dir, "--run-dir",
                    tmp_path / "sub"] + FAST) == 0
        checkpoint = tmp_path / "#1.bin"
        save_params(load_params(tmp_path / "sub" / "submodel.bin"),
                    checkpoint)
        assert run(["score-triples", "--data", data_dir, "--checkpoint",
                    checkpoint, "--run-dir", tmp_path / "scores"]) == 0
        args = ["sweep", "--data", data_dir, "--method", "freq",
                "--submodel-scores", tmp_path / "scores" / "scores.tsv",
                "--alpha-grid", "1.0,0.5", "--lambda-grid", "0.5",
                "--run-dir", tmp_path / "sweep"] + FAST
        assert run(args) == 0
        ledger = tmp_path / "sweep" / "ledger.tsv"
        first = ledger.read_text("utf-8")
        assert run(args) == 0
        assert ledger.read_text("utf-8") == first
        # the key, then two model-based points and one mixed point
        assert first.startswith("# sweep ")
        assert [row.split("\t")[0] for row in first.splitlines()[1:]] == [
            "#1"] * 3

    def test_nan_mrr_in_resumed_ledger_is_exit_2(self, data_dir, tmp_path,
                                                 capsys):
        examples = 2 * (data_dir / "train.txt").read_text().count("\n")
        scores = tmp_path / "scores.tsv"
        scores.write_text("# submodel=m\n" + "".join(
            f"{i}\t0.0\n" for i in range(examples)), encoding="utf-8")
        (tmp_path / "ledger.tsv").write_text("m\t1.0\t-\tnan\n")
        assert run(["sweep", "--data", data_dir, "--run-dir", tmp_path,
                    "--method", "freq", "--submodel-scores", scores,
                    "--alpha-grid", "1.0,0.5", "--lambda-grid", "0.5"]
                   + FAST) == 2
        assert "ledger.tsv:1:" in capsys.readouterr().err
        assert not (tmp_path / "best.cfg").exists()


class TestSweepLedgerKey:
    """A sweep resumes only the ledger of its own settings, dataset
    splits and candidate score files: another's exits 1 before any
    training and leaves the run directory as it was."""

    @pytest.fixture()
    def sweep(self, data_dir, tmp_path):
        examples = 2 * (data_dir / "train.txt").read_text().count("\n")
        scores = tmp_path / "scores.tsv"
        scores.write_text("# submodel=m\n" + "".join(
            f"{i}\t{0.01 * (i % 7)!r}\n" for i in range(examples)),
            encoding="utf-8")
        return scores, ["sweep", "--data", data_dir, "--method", "freq",
                        "--submodel-scores", scores, "--alpha-grid",
                        "1.0,0.5", "--lambda-grid", "0.5", "--run-dir",
                        tmp_path / "sw", *FAST]

    @staticmethod
    def refused(args, run_dir, capsys) -> None:
        before = {name: (run_dir / name).read_bytes()
                  for name in os.listdir(run_dir)}
        capsys.readouterr()
        assert run(args) == 1
        out, err = capsys.readouterr()
        assert out == ""  # no grid point trained
        assert err.startswith(f"error: {run_dir / 'ledger.tsv'} is the "
                              "ledger of another sweep")
        assert {name: (run_dir / name).read_bytes()
                for name in os.listdir(run_dir)} == before

    def test_other_steps_are_exit_1(self, sweep, tmp_path, capsys):
        _, args = sweep
        assert run([*args, "--steps", "1"]) == 0
        self.refused([*args, "--steps", "20"], tmp_path / "sw", capsys)
        assert "steps = 1\n" in (tmp_path / "sw" / "best.cfg").read_text()

    def test_rewritten_candidate_is_exit_1(self, sweep, tmp_path, capsys):
        """The same id, so the same ledger rows, but other scores."""
        scores, args = sweep
        assert run(args) == 0
        scores.write_text(scores.read_text().replace("\t0.01\n", "\t0.5\n"),
                          encoding="utf-8")
        self.refused(args, tmp_path / "sw", capsys)

    def test_ledger_without_a_key_is_exit_1(self, sweep, tmp_path, capsys):
        _, args = sweep
        (tmp_path / "sw").mkdir()
        (tmp_path / "sw" / "ledger.tsv").write_text("m\t1.0\t-\t0.5\n")
        self.refused(args, tmp_path / "sw", capsys)


class TestSweepResumesTornLedger:
    def test_ledger_cut_mid_line_resumes(self, data_dir, tmp_path):
        """A sweep whose ledger a crash cut inside its last record
        resumes: the cut record is run again and the ledger and the
        selection equal those of an uninterrupted sweep."""
        sub_dir, score_dir = tmp_path / "sub", tmp_path / "scores"
        assert run(["pretrain-submodel", "--data", data_dir, "--run-dir",
                    sub_dir, "--model", "distmult"] + FAST) == 0
        assert run(["score-triples", "--data", data_dir, "--run-dir",
                    score_dir, "--checkpoint", sub_dir / "submodel.bin"]) == 0
        sweep_dir = tmp_path / "sweep"
        args = ["sweep", "--data", data_dir, "--run-dir", sweep_dir,
                "--method", "freq", "--smoothing", "0",
                "--submodel-scores", score_dir / "scores.tsv",
                "--alpha-grid", "1.0,0.5", "--lambda-grid", "0.3,0.7"] + FAST
        assert run(args) == 0
        ledger = sweep_dir / "ledger.tsv"
        whole = ledger.read_bytes()
        best = (sweep_dir / "best.cfg").read_bytes()
        last = whole.rstrip(b"\n").rfind(b"\n") + 1
        ledger.write_bytes(whole[:last + 5])  # `sid\t` and part of alpha
        (sweep_dir / "best.cfg").unlink()
        assert run(args) == 0
        assert ledger.read_bytes() == whole
        assert (sweep_dir / "best.cfg").read_bytes() == best


    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_interrupted_sweep_resumes_to_the_same_ledger(
            self, data_dir, tmp_path, monkeypatch, capsys, k):
        """A sweep whose k-th grid point raises leaves a ledger of whole
        records, one for each point before it, and no temporary file;
        the rerun trains only the remaining points and ends with the
        uninterrupted sweep's ledger and best config."""
        examples = 2 * (data_dir / "train.txt").read_text().count("\n")
        scores = tmp_path / "scores.tsv"
        scores.write_text("# submodel=m\n" + "".join(
            f"{i}\t{0.01 * (i % 7)!r}\n" for i in range(examples)),
            encoding="utf-8")
        args = ["sweep", "--data", data_dir, "--method", "freq",
                "--submodel-scores", scores, "--alpha-grid", "1.0,0.5",
                "--lambda-grid", "0.3,0.7", *FAST]
        assert run([*args, "--run-dir", tmp_path / "whole"]) == 0
        points = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("  ")]
        assert len(points) == 4

        select = submodel.select_submodel

        def interrupted(candidates, alphas, lambdas, evaluate_point,
                        *rest):
            calls = itertools.count(1)

            def point(*grid_point):
                if next(calls) == k:
                    raise RuntimeError("interrupted")
                return evaluate_point(*grid_point)
            return select(candidates, alphas, lambdas, point, *rest)

        sweep_dir = tmp_path / "sweep"
        monkeypatch.setattr(submodel, "select_submodel", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            run([*args, "--run-dir", sweep_dir])
        monkeypatch.setattr(submodel, "select_submodel", select)
        whole = (tmp_path / "whole" / "ledger.tsv").read_text("utf-8")
        ledger = (sweep_dir / "ledger.tsv").read_text("utf-8")
        assert ledger == "".join(whole.splitlines(True)[:k])  # key first
        assert sorted(os.listdir(sweep_dir)) == ["config.resolved.cfg",
                                                  "ledger.tsv"]
        capsys.readouterr()

        assert run([*args, "--run-dir", sweep_dir]) == 0
        rerun = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  ")]
        assert rerun == points[k - 1:]
        for name in ("ledger.tsv", "best.cfg"):
            assert ((sweep_dir / name).read_bytes()
                    == (tmp_path / "whole" / name).read_bytes())


class TestRunDirectory:
    def test_manifest_lists_every_artifact_in_the_order_written(
            self, data_dir, tmp_path):
        """Each command's manifest names every file of its run directory
        but itself and the hidden parsed copies, in the order written."""
        checkpoint, scores = (tmp_path / "train" / "checkpoint.bin",
                              tmp_path / "scores" / "scores.tsv")
        mbs = ["--method", "freq", "--submodel-scores", scores]
        evaluated = [(f"{kind}.run{index}", f"{kind}.run{index}.{ext}")
                     for index in range(2) for kind, ext in (
                         ("report", "txt"), ("metrics", "tsv"),
                         ("ranks", "tsv"))]
        config = ("config", "config.resolved.cfg")
        for command, argv, expected in [
                ("train", ["--subsampling", "none", *FAST],
                 [config, ("weights", "weights.tsv"),
                  ("checkpoint", "checkpoint.bin"), ("log", "train.log")]),
                ("evaluate", ["--checkpoint", checkpoint, checkpoint],
                 [*evaluated, ("aggregate", "aggregate.tsv")]),
                ("pretrain-submodel", FAST,
                 [config, ("submodel", "submodel.bin")]),
                ("score-triples",
                 ["--checkpoint", tmp_path / "sub" / "submodel.bin"],
                 [("scores", "scores.tsv")]),
                ("build-weights", ["--subsampling", "mbs", *mbs],
                 [config, ("weights", "weights.tsv")]),
                ("weights-report", [*mbs, "-n", "5"],
                 [config, ("weights_report", "weights-report.tsv")]),
                ("singleton-stats", [],
                 [("singleton_stats", "singleton-stats.tsv")]),
                ("sweep", [*mbs, "--alpha-grid", "0.5", "--lambda-grid",
                           "0.5", *FAST],
                 [config, ("ledger", "ledger.tsv"),
                  ("best_config", "best.cfg")])]:
            run_dir = tmp_path / {"pretrain-submodel": "sub",
                                  "score-triples": "scores"}.get(command,
                                                                 command)
            assert run([command, "--data", data_dir, "--run-dir", run_dir,
                        *argv]) == 0
            manifest = [tuple(line.split("\t")) for line in (
                run_dir / "manifest.tsv").read_text("utf-8").splitlines()]
            assert manifest == expected, command
            assert sorted(name for name in os.listdir(run_dir)
                          if not name.startswith(".")) == sorted(
                              ["manifest.tsv", *(name for _, name in expected)])
            written = [(run_dir / name).stat().st_mtime_ns
                       for _, name in expected]
            assert written == sorted(written), command

    def test_timestamped_directory_taken_meanwhile(self, data_dir, tmp_path,
                                                   monkeypatch):
        """A command whose timestamped directory another command makes
        between the name's choice and its own `mkdir` takes the next
        `-N` suffix instead of failing."""
        monkeypatch.setattr(time, "strftime", lambda fmt: "20260101-000000")
        out = tmp_path / "runs"
        out.mkdir()
        taken = out / "singleton-stats-20260101-000000"
        mkdir = Path.mkdir

        def racing_mkdir(path, *args, **kwargs):
            if path == taken and not taken.exists():
                os.mkdir(taken)  # the other command claims it first
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", racing_mkdir)
        assert run(["singleton-stats", "--data", data_dir, "--out",
                    out]) == 0
        assert sorted(os.listdir(out)) == [taken.name, f"{taken.name}-1"]
        assert os.listdir(taken) == []
        assert sorted(os.listdir(out / f"{taken.name}-1")) == [
            "manifest.tsv", "singleton-stats.tsv"]


class TestEvaluateAggregation:
    def test_three_seed_mean_and_sd(self, data_dir, tmp_path):
        checkpoints = []
        for seed in (1, 2, 3):
            run_dir = tmp_path / f"seed{seed}"
            assert run(["train", "--data", data_dir, "--run-dir", run_dir,
                        "--subsampling", "none", "--dim", "8", "--steps",
                        "10", "--batch-size", "16", "--nu", "2",
                        "--gamma", "4.0", "--seed", str(seed)]) == 0
            checkpoints.append(run_dir / "checkpoint.bin")
        eval_dir = tmp_path / "agg"
        code = run(["evaluate", "--data", data_dir, "--split", "valid",
                    "--run-dir", eval_dir, "--checkpoint"] + checkpoints)
        assert code == 0
        lines = (eval_dir / "aggregate.tsv").read_text().strip().split("\n")
        metrics = {line.split("\t")[0]: (float(line.split("\t")[1]),
                                         float(line.split("\t")[2]))
                   for line in lines}
        assert set(metrics) == {"mrr", "h1", "h3", "h10"}
        mean, sd = metrics["mrr"]
        assert 0.0 < mean <= 1.0
        assert sd >= 0.0
        assert (eval_dir / "metrics.run2.tsv").exists()


class TestWideScoreSpread:
    def test_mbs_weights_of_scores_2000_nats_apart(self, tmp_path):
        """Softmax probabilities below the double range still give a
        finite, positive, mean-1 table."""
        data = tmp_path / "kg"
        data.mkdir()
        (data / "train.txt").write_text(
            "a\tr\tb\na\tr\tc\nb\tr\tc\nc\ts\ta\n", encoding="utf-8")
        for split in ("valid", "test"):
            (data / f"{split}.txt").write_text("a\tr\tb\n", encoding="utf-8")
        scores = tmp_path / "scores.tsv"
        scores.write_text("# submodel=wide\n" + "".join(
            f"{i}\t{v!r}\n" for i, v in enumerate(
                [0.0, 0.0, -2000.0, -2000.0, 5.0, 5.0, -1000.0, -1000.0])),
            encoding="utf-8")
        run_dir = tmp_path / "weights"
        assert run(["build-weights", "--data", data, "--run-dir", run_dir,
                    "--subsampling", "mbs", "--method", "freq",
                    "--submodel-scores", scores]) == 0
        table = oracle_load_weight_table(run_dir / "weights.tsv")
        assert table.provenance.submodel_id == "wide"
        for column in (table.a, table.b):
            assert np.all(np.isfinite(column)) and np.all(column > 0)
            assert column.mean() == pytest.approx(1.0, abs=1e-12)


class TestAllCandidatesSwitch:
    def test_mbs_from_submodel_checkpoint(self, data_dir, tmp_path, capsys):
        sub_dir = tmp_path / "sub"
        assert run(["pretrain-submodel", "--data", data_dir,
                    "--run-dir", sub_dir, "--model", "distmult"]
                   + FAST) == 0
        capsys.readouterr()
        run_dir = tmp_path / "mbs-all"
        code = run(["train", "--data", data_dir, "--run-dir", run_dir,
                    "--subsampling", "mbs", "--method", "base",
                    "--alpha", "0.5", "--smoothing", "0",
                    "--mbs-query-mass", "all_candidates",
                    "--submodel-checkpoint", sub_dir / "submodel.bin"]
                   + FAST)
        assert code == 0
        # the work estimate: distinct training queries x entities
        dataset = load_dataset(data_dir)
        queries = len({(d, (h, t)[d], r)
                       for h, r, t in dataset.train.tolist() for d in (0, 1)})
        entities = dataset.num_entities
        assert capsys.readouterr().err == (
            f"all-candidates mass: {queries} training queries x {entities} "
            f"entities = {queries * entities} scores\n")
        table = oracle_load_weight_table(run_dir / "weights.tsv")
        assert table.provenance.source == "mbs"
        assert "distmult-none-seed3" in table.provenance.submodel_id

    @pytest.mark.parametrize("command", ["build-weights",
                                         "weights-report"])
    def test_work_estimate_before_the_mass(self, data_dir, tmp_path, capsys,
                                           command):
        """The other commands that build an all-candidates table write
        the same one-line estimate, once, and to stderr only."""
        sub_dir = tmp_path / "sub"
        assert run(["pretrain-submodel", "--data", data_dir,
                    "--run-dir", sub_dir, "--model", "distmult"]
                   + FAST) == 0
        capsys.readouterr()
        assert run([command, "--data", data_dir, "--run-dir",
                    tmp_path / "r", "--method", "base",
                    "--mbs-query-mass", "all_candidates",
                    "--submodel-checkpoint", sub_dir / "submodel.bin"]
                   + (["--subsampling", "mbs"]
                      if command == "build-weights" else ["-n", "5"])) == 0
        dataset = load_dataset(data_dir)
        queries = dataset.train_index.num_queries
        out, err = capsys.readouterr()
        assert err == (
            f"all-candidates mass: {queries} training queries x "
            f"{dataset.num_entities} entities = "
            f"{queries * dataset.num_entities} scores\n")
        assert "all-candidates" not in out

    def test_no_estimate_for_the_scored_mass(self, data_dir, tmp_path,
                                             capsys):
        """A table from a scores file computes no mass and says nothing
        on stderr."""
        sub_dir = tmp_path / "sub"
        assert run(["pretrain-submodel", "--data", data_dir,
                    "--run-dir", sub_dir, "--model", "distmult"]
                   + FAST) == 0
        assert run(["score-triples", "--data", data_dir, "--run-dir",
                    tmp_path / "s", "--checkpoint",
                    sub_dir / "submodel.bin"]) == 0
        capsys.readouterr()
        assert run(["build-weights", "--data", data_dir, "--run-dir",
                    tmp_path / "r", "--subsampling", "mbs", "--method",
                    "base", "--submodel-scores",
                    tmp_path / "s" / "scores.tsv"]) == 0
        assert capsys.readouterr().err == ""

    def test_all_candidates_without_checkpoint_is_config_error(
            self, data_dir, tmp_path):
        assert run(["train", "--data", data_dir,
                    "--run-dir", tmp_path / "r", "--subsampling", "mbs",
                    "--method", "base", "--mbs-query-mass",
                    "all_candidates"] + FAST) == 1


class TestDivergenceExitCode:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exploding_run_exits_3(self, data_dir, tmp_path):
        # an Adam step moves each entry it touches by about the learning
        # rate, whatever the gradient, so the rate itself must overflow a
        # score: after one step at 1e110, a DistMult score's products of
        # three entries lie far beyond float64's 1.8e308
        code = run(["train", "--data", data_dir,
                    "--run-dir", tmp_path / "r", "--subsampling", "none",
                    "--dim", "8", "--steps", "60", "--batch-size", "16",
                    "--nu", "2", "--gamma", "4.0", "--seed", "3",
                    "--learning-rate", "1e110", "--model", "distmult"])
        assert code == 3


class TestDataRootEnv:
    def test_relative_data_dir_resolved_against_root(self, data_dir,
                                                     tmp_path, monkeypatch):
        monkeypatch.setenv("KGESUB_DATA_ROOT", str(data_dir.parent))
        run_dir = tmp_path / "run"
        code = run(["train", "--data", data_dir.name, "--run-dir", run_dir,
                    "--subsampling", "none"] + FAST)
        assert code == 0
        assert (run_dir / "checkpoint.bin").exists()


class TestQueryAppearanceReport:
    def test_toy_kg_hand_computation(self):
        """Freq-method CBS masses on the 3-triple toy graph.

        The two count-1 queries each carry one example of normalized
        negative weight 6 / (4/sqrt(2) + 2), i.e. 20.71% of total mass;
        under an all-ones table each holds 1/6 = 16.67%.
        """
        import math
        from kgesub.cli import query_appearance_report
        from kgesub.data import Dataset
        from kgesub.subsampling import (SubsamplingMethod,
                                        build_cbs_weights, uniform_weights)
        from conftest import Triple, make_vocab
        dataset = Dataset(train=[Triple(0, 0, 1), Triple(0, 0, 2),
                                 Triple(1, 0, 2)],
                          valid=[], test=[], vocab=make_vocab(3, 1))
        cbs = build_cbs_weights(dataset, SubsamplingMethod.FREQ, 0.0)
        ones = uniform_weights(dataset.num_examples)
        rows = query_appearance_report(dataset, cbs, ones, 2, smoothing=0.0)
        assert len(rows) == 2
        assert [(r[0], r[1], r[2], r[3]) for r in rows] == [
            (1, 0, "tail-query", 1.0), (1, 0, "head-query", 1.0)]
        expected_cbs = 100.0 * (6.0 / (4.0 / math.sqrt(2.0) + 2.0)) / 6.0
        for row in rows:
            assert row[4] == pytest.approx(expected_cbs, abs=1e-12)
            assert row[5] == pytest.approx(100.0 / 6.0, abs=1e-12)

    def test_uniform_kg_constant_columns(self):
        from kgesub.cli import query_appearance_report
        from kgesub.data import Dataset
        from kgesub.subsampling import SubsamplingMethod, build_cbs_weights
        from conftest import Triple, make_vocab
        n = 6
        dataset = Dataset(train=[Triple(i, 0, (i + 1) % n)
                                 for i in range(n)],
                          valid=[], test=[], vocab=make_vocab(n, 1))
        base = build_cbs_weights(dataset, SubsamplingMethod.BASE, 0.0)
        uniq = build_cbs_weights(dataset, SubsamplingMethod.UNIQ, 0.0)
        rows = query_appearance_report(dataset, base, uniq, 2 * n,
                                       smoothing=0.0)
        cbs_col = {row[4] for row in rows}
        mbs_col = {row[5] for row in rows}
        assert len(rows) == 2 * n
        assert max(cbs_col) - min(cbs_col) <= 1e-12
        assert max(mbs_col) - min(mbs_col) <= 1e-12

    @pytest.mark.parametrize("n", [0, 7, 40, 10_000])
    def test_matches_dict_oracle(self, n):
        """Rows equal the per-query dict report exactly, including the
        types that the TSV prints."""
        from kgesub.cli import query_appearance_report
        from kgesub.subsampling import SubsamplingMethod, build_cbs_weights
        from conftest import looped_zipf_kg, oracle_appearance_report
        for seed in range(3):
            dataset = looped_zipf_kg(seed)
            cbs = build_cbs_weights(dataset, SubsamplingMethod.FREQ, 1.5)
            mbs = build_cbs_weights(dataset, SubsamplingMethod.UNIQ, 0.0)
            rows = query_appearance_report(dataset, cbs, mbs, n,
                                           smoothing=1.5)
            want = oracle_appearance_report(dataset.train, cbs.b, mbs.b, n,
                                            1.5)
            assert rows == want
            assert ["\t".join(str(v) for v in row) for row in rows] == \
                ["\t".join(str(v) for v in row) for row in want]


class TestSingletonStatsEmptyBody:
    def test_no_singletons_gives_header_only(self, tmp_path):
        directory = tmp_path / "dupkg"
        directory.mkdir()
        body = "a\tr\tb\nb\tr\tc\n"
        (directory / "train.txt").write_text(body * 2, encoding="utf-8")
        (directory / "valid.txt").write_text(body, encoding="utf-8")
        (directory / "test.txt").write_text(body, encoding="utf-8")
        run_dir = tmp_path / "out"
        assert run(["singleton-stats", "--data", directory,
                    "--run-dir", run_dir, "--stride", "1"]) == 0
        lines = ((run_dir / "singleton-stats.tsv")
                 .read_text().strip().split("\n"))
        assert len(lines) == 1  # header only


class TestSweepSingletonGrid:
    def test_one_by_one_grid_records_one_run(self, data_dir, tmp_path):
        sub_dir = tmp_path / "sub"
        assert run(["pretrain-submodel", "--data", data_dir,
                    "--run-dir", sub_dir, "--model", "transe"]
                   + FAST) == 0
        score_dir = tmp_path / "scores"
        assert run(["score-triples", "--data", data_dir,
                    "--run-dir", score_dir,
                    "--checkpoint", sub_dir / "submodel.bin"]) == 0
        sweep_dir = tmp_path / "sweep"
        assert run(["sweep", "--data", data_dir, "--run-dir", sweep_dir,
                    "--method", "base", "--smoothing", "0",
                    "--submodel-scores", score_dir / "scores.tsv",
                    "--alpha-grid", "0.5", "--lambda-grid", "0.7"]
                   + FAST) == 0
        key, *ledger = ((sweep_dir / "ledger.tsv")
                        .read_text().strip().split("\n"))
        assert key.startswith("# sweep ")
        assert len(ledger) == 1


class TestSingletonStatsBenchmark:
    def test_fb15k237_stride_2000_rows(self, tmp_path):
        """Published plot downsamples FB15k-237's singleton queries with
        stride 2000 down to 45 rows (needs the real dataset)."""
        import os
        root = os.environ.get("KGESUB_DATA_ROOT", "")
        data = Path(root) / "FB15k-237" if root else None
        if data is None or not (data / "train.txt").exists():
            pytest.skip("FB15k-237 not available")
        run_dir = tmp_path / "out"
        assert run(["singleton-stats", "--data", data, "--run-dir", run_dir,
                    "--stride", "2000"]) == 0
        lines = ((run_dir / "singleton-stats.tsv")
                 .read_text().strip().split("\n"))
        assert len(lines) - 1 == 45


MODELS = ["transe", "rotate", "complex", "distmult", "hake"]
RUN_DIR_FLAGS = [("--config", "config", None, None),
                 ("--out", "out", None, None),
                 ("--run-dir", "run_dir", None, None),
                 ("-h --help", "help", None, None)]
EVERY_COMMAND = [("--data", "data_dir", "str", None),
                 ("--seed", "seed", "int", None),
                 ("--smoothing", "smoothing", "float", None)]
MODEL_AND_TRAIN = [
    ("--model", "model", "str", MODELS),
    ("--dim", "dim", "int", None),
    ("--gamma", "gamma", "float", None),
    ("--norm-p", "norm_p", "float", [1.0]),
    ("--phase-weight", "phase_weight", "float", None),
    ("--init-epsilon", "init_epsilon", "float", None),
    ("--nu", "nu", "int", None),
    ("--batch-size", "batch_size", "int", None),
    ("--steps", "steps", "int", None),
    ("--learning-rate", "learning_rate", "float", None),
    ("--optimizer", "optimizer", "str", ["adam"]),
    ("--adam-beta1", "adam_beta1", "float", None),
    ("--adam-beta2", "adam_beta2", "float", None),
    ("--adam-epsilon", "adam_epsilon", "float", None),
    ("--adversarial-beta", "adversarial_beta", "float", None),
    ("--valid-every", "valid_every", "int", None),
    ("--lr-decay-every", "lr_decay_every", "int", None),
    ("--lr-decay-factor", "lr_decay_factor", "float", None)]
METHOD = [("--method", "method", "str", ["none", "base", "freq", "uniq"])]
SUBSAMPLING = METHOD + [
    ("--subsampling", "subsampling", "str", ["none", "cbs", "mbs", "mix"]),
    ("--alpha", "alpha", "float", None),
    ("--lambda", "lam", "float", None),
    ("--submodel-scores", "submodel_scores", "str", None),
    ("--mbs-query-mass", "mbs_query_mass", "str",
     ["observed", "all_candidates"]),
    ("--submodel-checkpoint", "submodel_checkpoint", "str", None)]
PARSER_TABLE = {
    "train": MODEL_AND_TRAIN + SUBSAMPLING,
    "evaluate": [("--checkpoint", "checkpoint", None, None),
                 ("--split", "split", None, ["valid", "test"])],
    "build-weights": SUBSAMPLING,
    "pretrain-submodel": MODEL_AND_TRAIN + [
        ("--submodel-subsampling", "submodel_subsampling", "str",
         ["none", "cbs-base"])],
    "score-triples": [("--checkpoint", "checkpoint", None, None)],
    "weights-report": [
        *METHOD, ("--alpha", "alpha", "float", None),
        ("--submodel-scores", "submodel_scores", "str", None),
        ("--mbs-query-mass", "mbs_query_mass", "str",
         ["observed", "all_candidates"]),
        ("--submodel-checkpoint", "submodel_checkpoint", "str", None),
        ("-n --num-queries", "num_queries", "int", None)],
    "singleton-stats": [("--stride", "stride", "int", None)],
    "sweep": MODEL_AND_TRAIN + METHOD + [
        ("--submodel-scores", "candidate_scores", None, None),
        ("--alpha-grid", "alpha_grid", None, None),
        ("--lambda-grid", "lambda_grid", None, None)],
}


def test_parser_snapshot():
    """Each command's options with their dest, type and choices."""
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert list(commands.choices) == list(PARSER_TABLE)
    for name, sub in commands.choices.items():
        table = sorted(
            (" ".join(a.option_strings), a.dest,
             getattr(a.type, "__name__", None),
             None if a.choices is None else list(a.choices))
            for a in sub._actions)
        expected = sorted(RUN_DIR_FLAGS + EVERY_COMMAND + PARSER_TABLE[name])
        assert table == expected, name
