"""Command-line pipeline.

Commands: train, evaluate, build-weights, pretrain-submodel,
score-triples, weights-report, singleton-stats, sweep.

Every run writes its artifacts into one run directory (timestamped
unless --run-dir pins it) through `_RunDir`, the one writer of its
small reports, the sweep ledger among them, and of the manifest that
lists every artifact in the order written; `evaluation`, `training` and
`submodel` return data.  Every setting a command uses is a `RunConfig`
field, set by a config file or its flag.  Weight tables are built from
those settings, never read: weights-report builds its CBS and MBS
tables as build-weights would.  A sub-model is a `train` run whose
checkpoint holds its id, `RunConfig.model_id`; pretrain-submodel is
train under --submodel-subsampling none or cbs-base (cbs, base).
Every command but evaluate, score-triples and singleton-stats also
echoes the effective configuration; re-feeding that echo reproduces
the run, as `sweep`'s `best.cfg` reproduces its winner, so a path that
a config file cannot carry is a config error.  A sweep resumes only
the ledger of its own settings, data and candidates; another's is a
config error.  Exit codes: 0 success, 1 usage or config error, 2 data
error or a failed read, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import time
from contextlib import suppress
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from . import evaluation, submodel, subsampling, training
from .config import (RunConfig, check_setting, file_key, flag_name,
                     load_config, save_config)
from .data import (DIRECTION_NAMES, SPLITS, Dataset, content_digest,
                   load_dataset, replacing, singleton_query_stats)
from .errors import (ConfigError, DataError, KgesubError,
                     TrainingDivergedError)
from .models import ModelParams, load_params, load_tagged_params, save_params
from .subsampling import (Provenance, SubModelScores, SubsamplingMethod,
                          WeightTable, build_cbs_weights, discounted_weights,
                          load_scores, log_model_frequencies, mix_weights,
                          save_scores, save_weight_table, uniform_weights)
from .training import save_checkpoint


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so main() controls the exit code."""

    def error(self, message: str):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# shared plumbing


class _RunDir:
    """A command's run directory, --run-dir or a fresh timestamped one
    under --out (claimed by `mkdir`, so two commands never share one),
    and the file of each artifact by manifest name, in the order taken."""

    def __init__(self, args):
        self.files: dict[str, str] = {}
        self.root = Path(args.run_dir or args.out)
        self.root.mkdir(parents=True, exist_ok=True)
        if not args.run_dir:
            base = self.root
            stamp = f"{args.command}-{time.strftime('%Y%m%d-%H%M%S')}"
            for suffix in itertools.count():
                self.root = base / (f"{stamp}-{suffix}" if suffix else stamp)
                with suppress(FileExistsError):
                    self.root.mkdir()
                    break

    def path(self, name: str, file_name: str) -> Path:
        self.files[name] = file_name
        return self.root / file_name

    def write_rows(self, name: str, file_name: str, rows) -> None:
        """A tab-separated report, each field as its `str`."""
        with replacing(self.path(name, file_name)) as fh:
            fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)

    def write_manifest(self) -> None:
        with replacing(self.root / "manifest.tsv") as fh:
            fh.writelines(f"{name}\t{file}\n"
                          for name, file in self.files.items())


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    # each setting's flag stores into the field of that name
    return replace(config, **{
        setting.name: getattr(args, setting.name)
        for setting in fields(RunConfig)
        if getattr(args, setting.name, None) is not None})


def _start(args) -> tuple[RunConfig, Dataset, _RunDir]:
    """A command's resolved config, its dataset and its run directory."""
    config = _resolve_config(args)
    dataset = load_dataset(config.resolved_data_dir())
    return config, dataset, _RunDir(args)


def _build_weights(config: RunConfig, dataset: Dataset) -> WeightTable:
    """The weight table that `config` describes, for every command but
    `sweep`.  The two MBS query masses differ only in where the raw
    scores come from: the score file, or the checkpoint live."""
    source = config.subsampling
    if source == "none":
        return uniform_weights(dataset.num_examples)
    method = SubsamplingMethod(config.method)
    if source == "cbs":
        return build_cbs_weights(dataset, method, config.smoothing)
    sub = None
    if config.mbs_query_mass == "all_candidates":
        sub, sid = _load_submodel(config.submodel_checkpoint)
        # the mass scores every distinct training query against every
        # entity, which runs for hours at YAGO3-10's size
        queries = dataset.train_index.num_queries
        print(f"all-candidates mass: {queries} training queries x "
              f"{dataset.num_entities} entities = "
              f"{queries * dataset.num_entities} scores", file=sys.stderr)
        scores = submodel.score_training_triples(sub, dataset, sid)
    else:
        scores = _load_scores_checked(config.submodel_scores, dataset)
    mbs = _mbs_weights(config, log_model_frequencies(dataset, scores, sub),
                       scores.submodel_id)
    return mbs if source == "mbs" else mix_weights(
        build_cbs_weights(dataset, method, config.smoothing), mbs, config.lam)


def _train(config: RunConfig, dataset: Dataset, weights: WeightTable,
           callback=None) -> training.TrainResult:
    """The one training path, from `config`'s initial parameters."""
    return training.train(
        dataset, weights,
        config.initial_params(dataset.num_entities, dataset.num_relations),
        config, callback)


def _mbs_weights(config: RunConfig,
                 frequencies: tuple[np.ndarray, np.ndarray],
                 submodel_id: str) -> WeightTable:
    """The MBS table of `config` from a sub-model's model-based
    (log f_xy, log f_x)."""
    method = SubsamplingMethod(config.method)
    return discounted_weights(
        *frequencies, method, config.alpha,
        Provenance(source="mbs", method=method.value, alpha=config.alpha,
                   submodel_id=submodel_id))


def _load_submodel(path: str) -> tuple[ModelParams, str]:
    """A sub-model checkpoint's params and id: its tag, else its stem."""
    params, tag = load_tagged_params(path)
    return params, tag or Path(path).stem


def _load_scores_checked(path: str, dataset: Dataset) -> SubModelScores:
    scores = load_scores(path)
    if scores.raw_score.shape[0] != dataset.num_examples:
        raise DataError(
            f"score file {path} covers {scores.raw_score.shape[0]} examples, "
            f"dataset expands to {dataset.num_examples}")
    return scores


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> _RunDir:
    config, dataset, run = _start(args)
    save_config(config, run.path("config", "config.resolved.cfg"))

    weights = _build_weights(config, dataset)
    save_weight_table(weights, run.path("weights", "weights.tsv"))

    callback = None if config.valid_every <= 0 else (
        lambda params, step: evaluation.evaluate(params, dataset, "valid").mrr)
    result = _train(config, dataset, weights, callback)
    save_checkpoint(result.state, run.path("checkpoint", "checkpoint.bin"),
                    tag=config.model_id())
    run.write_rows("log", "train.log", (  # valid_mrr only where taken
        [v for v in astuple(r) if v is not None] for r in result.log))
    final_loss = result.log[-1].loss if result.log else float("nan")
    print(f"trained {config.steps} steps; final batch loss {final_loss:.6f}")
    print(f"artifacts in {run.root}")
    return run


def cmd_evaluate(args) -> _RunDir:
    config, dataset, run = _start(args)
    reports = []
    for index, checkpoint in enumerate(args.checkpoint):
        report = evaluation.evaluate(load_params(checkpoint), dataset,
                                     args.split)
        reports.append(report)
        suffix = "" if len(args.checkpoint) == 1 else f".run{index}"
        text = evaluation.format_report(report)
        with replacing(run.path(f"report{suffix}",
                                f"report{suffix}.txt")) as fh:
            fh.write(text)
        run.write_rows(f"metrics{suffix}", f"metrics{suffix}.tsv", (
            (name, mean, sd) for name, (mean, sd)
            in evaluation.aggregate_runs([report]).items()))
        run.write_rows(f"ranks{suffix}", f"ranks{suffix}.tsv", (
            (f"{e}|{r}", DIRECTION_NAMES[d], rank) for (d, e, r), rank
            in zip(report.queries.tolist(), report.per_query_ranks.tolist())))
        print(text, end="")
    if len(reports) > 1:
        aggregate = evaluation.aggregate_runs(reports)
        run.write_rows("aggregate", "aggregate.tsv", (
            (name, mean, sd) for name, (mean, sd) in aggregate.items()))
        for name, (mean, sd) in aggregate.items():
            print(f"{name.upper():<4} mean {100 * mean:5.1f}  "
                  f"sd {100 * sd:4.1f}  over {len(reports)} runs")
    return run


def cmd_build_weights(args) -> _RunDir:
    config, dataset, run = _start(args)
    save_config(config, run.path("config", "config.resolved.cfg"))
    weights = _build_weights(config, dataset)
    save_weight_table(weights, run.path("weights", "weights.tsv"))
    print(f"weight table ({weights.provenance.describe()}) in {run.root}")
    return run


def cmd_pretrain_submodel(args) -> _RunDir:
    config, dataset, run = _start(args)
    save_config(config, run.path("config", "config.resolved.cfg"))
    # `train` under the sub-model's weighting: none, or cbs with base
    trained = (replace(config, subsampling="cbs", method="base")
               if config.submodel_subsampling == "cbs-base"
               else replace(config, subsampling="none"))
    result = _train(trained, dataset, _build_weights(trained, dataset))
    sid = trained.model_id()
    save_params(result.params, run.path("submodel", "submodel.bin"), tag=sid)
    print(f"sub-model {sid} in {run.root}")
    return run


def cmd_score_triples(args) -> _RunDir:
    config, dataset, run = _start(args)
    params, sid = _load_submodel(args.checkpoint)
    scores = submodel.score_training_triples(params, dataset, sid)
    save_scores(scores, run.path("scores", "scores.tsv"))
    print(f"scored {dataset.num_examples} examples under {sid}; "
          f"artifacts in {run.root}")
    return run


def cmd_weights_report(args) -> _RunDir:
    if args.num_queries < 0:
        raise ConfigError("n must be >= 0")
    config = _resolve_config(args)
    # each table is checked against its settings before the data load
    cbs_config, mbs_config = (replace(config, subsampling=source)
                              for source in ("cbs", "mbs"))
    dataset = load_dataset(config.resolved_data_dir())
    run = _RunDir(args)
    save_config(config, run.path("config", "config.resolved.cfg"))
    rows = query_appearance_report(
        dataset, _build_weights(cbs_config, dataset),
        _build_weights(mbs_config, dataset), args.num_queries,
        smoothing=config.smoothing)
    run.write_rows("weights_report", "weights-report.tsv", [
        "entity relation direction cbs_count cbs_pct mbs_pct".split(), *rows])
    print(f"reported {len(rows)} queries; artifacts in {run.root}")
    return run


def query_appearance_report(dataset: Dataset, cbs: WeightTable,
                            mbs: WeightTable, n: int,
                            smoothing: float = 0.0) -> list[tuple]:
    """Appearance probabilities of the n lowest-counted queries.

    A query's appearance probability under a weight table is the total
    negative-side weight of its examples as a share of all examples,
    in percent.  Rows come out sorted by counted frequency descending.
    """
    index = dataset.train_index
    if n > index.num_queries:
        print(f"warning: only {index.num_queries} distinct queries; "
              f"clamping n={n}", file=sys.stderr)
        n = index.num_queries
    # masses add up in example order and totals in sorted-query order,
    # one term at a time (never pairwise), so the report's digits do not
    # depend on the numpy or Python version
    mass_cbs = np.bincount(index.query_id, weights=cbs.b)
    mass_mbs = np.bincount(index.query_id, weights=mbs.b)
    total_cbs = float(np.cumsum(mass_cbs)[-1])
    total_mbs = float(np.cumsum(mass_mbs)[-1])
    lowest = np.argsort(index.count, kind="stable")[:n]
    lowest = lowest[np.lexsort((lowest, -index.count[lowest]))]
    return [(e, r, DIRECTION_NAMES[d], c + smoothing, 100.0 * mc / total_cbs,
             100.0 * mm / total_mbs) for e, r, d, c, mc, mm in zip(
                 index.entity[lowest].tolist(),
                 index.relation[lowest].tolist(),
                 index.direction[lowest].tolist(),
                 index.count[lowest].tolist(), mass_cbs[lowest].tolist(),
                 mass_mbs[lowest].tolist())]


def cmd_singleton_stats(args) -> _RunDir:
    if args.stride < 1:
        raise ConfigError("stride must be >= 1")
    config, dataset, run = _start(args)
    directions, *rest = (column[::args.stride].tolist()
                         for column in singleton_query_stats(dataset))
    run.write_rows("singleton_stats", "singleton-stats.tsv", [
        "entity relation direction entity_count relation_count".split(),
        *((e, r, DIRECTION_NAMES[d], *counts)
          for d, e, r, *counts in zip(directions, *rest))])
    print(f"{len(directions)} singleton-query rows; artifacts in {run.root}")
    return run


def cmd_sweep(args) -> _RunDir:
    config = _resolve_config(args)
    if config.method == "none":
        raise ConfigError("sweep needs a subsampling method "
                          "(base, freq, or uniq)")
    alpha_grid = _parse_grid(args.alpha_grid, subsampling.ALPHA_GRID,
                             "alpha")
    lambda_grid = _parse_grid(args.lambda_grid, subsampling.LAMBDA_GRID,
                              "lam")
    candidates = [check_setting("submodel_scores", path)  # as in best.cfg
                  for path in args.candidate_scores]
    dataset = load_dataset(config.resolved_data_dir())
    run = _RunDir(args)
    # each candidate's score file is read and its model-based
    # frequencies taken once, and the CBS table built once: a grid point
    # only discounts and mixes them
    by_id, frequencies = {}, {}
    for path in candidates:
        scores = _load_scores_checked(path, dataset)
        sid = scores.submodel_id
        if sid in by_id:
            raise ConfigError(f"duplicate sub-model id {sid!r}: "
                              f"{by_id[sid]} and {path}")
        by_id[sid] = path
        frequencies[sid] = log_model_frequencies(dataset, scores)
    cbs = build_cbs_weights(dataset, SubsamplingMethod(config.method),
                            config.smoothing)
    # a ledger resumes only the sweep of its settings, data and candidates
    key = content_digest(f"sweep {config!r}", [
        *(config.resolved_data_dir() / f"{split}.txt" for split in SPLITS),
        *by_id.values()])
    done = submodel.read_ledger(run.root / "ledger.tsv", key)
    save_config(config, run.path("config", "config.resolved.cfg"))

    def write_ledger(records: dict[submodel.Point, float]) -> None:
        run.write_rows("ledger", "ledger.tsv",
                       submodel.ledger_rows(key, records))

    write_ledger(done)  # a new ledger holds its key before any point runs

    def point(sid: str, alpha: float, lam: float | None) -> RunConfig:
        """A grid point's config: MBS when `lam` is None, else MIX, both
        on the observed mass, since each candidate is a score file."""
        return replace(config, subsampling="mbs" if lam is None else "mix",
                       alpha=alpha, lam=config.lam if lam is None else lam,
                       mbs_query_mass="observed", submodel_scores=by_id[sid])

    def evaluate_point(sid: str, alpha: float, lam: float | None) -> float:
        point_config = point(sid, alpha, lam)
        mbs = _mbs_weights(point_config, frequencies[sid], sid)
        weights = mbs if lam is None else mix_weights(cbs, mbs, lam)
        result = _train(point_config, dataset, weights)
        mrr = evaluation.evaluate(result.params, dataset, "valid").mrr
        lam_text = "-" if lam is None else lam
        print(f"  {sid} alpha={alpha} lambda={lam_text} "
              f"valid MRR {mrr:.4f}")
        return mrr

    selection = submodel.select_submodel(list(by_id), alpha_grid, lambda_grid,
                                         evaluate_point, done, write_ledger)
    save_config(point(selection.submodel_id, selection.alpha, selection.lam),
                run.path("best_config", "best.cfg"))
    mbs_text = ("forced" if selection.mbs_mrr is None
                else f"MBS valid MRR {selection.mbs_mrr:.4f}")
    print(f"selected sub-model {selection.submodel_id} "
          f"alpha={selection.alpha} ({mbs_text}) "
          f"lambda={selection.lam} (MIX valid MRR {selection.mix_mrr:.4f})")
    print(f"artifacts in {run.root}")
    return run


def _parse_grid(text: str | None, default: tuple[float, ...],
                setting: str) -> list[float]:
    """Grid points for `setting`, each held to that setting's range."""
    if not text:
        return list(default)
    try:
        points = [float(item) for item in text.split(",") if item.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}") from exc
    if not points:
        raise ConfigError(f"grid {text!r} has no points")
    return [check_setting(setting, point) for point in points]


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache  # argparse keeps no state of a parse in the parser
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kgesub",
                     description="Knowledge-graph embedding training with "
                                 "pluggable subsampling")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        """A subcommand with the run-directory flags and the flag of
        every setting that the command takes."""
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        sub.add_argument("--config", help="config file (key = value "
                         "sections)")
        sub.add_argument("--run-dir", help="exact artifact directory "
                         "(default: timestamped under --out)")
        sub.add_argument("--out", default="runs",
                         help="base directory for timestamped run dirs")
        for setting in fields(RunConfig):
            takers = setting.metadata["commands"]
            if takers is None or name in takers:
                section, key = file_key(setting)
                sub.add_argument(
                    flag_name(setting), dest=setting.name,
                    type=type(setting.default),
                    choices=setting.metadata["choices"] or None,
                    help=f"overrides [{section}] {key}")
        return sub

    command("train", cmd_train, "build weights and train a model")

    sub = command("evaluate", cmd_evaluate, "filtered link-prediction "
                  "metrics of one or more checkpoints")
    # a repeated list flag adds to its list
    sub.add_argument("--checkpoint", required=True, nargs="+",
                     action="extend", help="one checkpoint per trained "
                     "seed; several produce a mean/sd aggregate")
    sub.add_argument("--split", choices=["valid", "test"], default="test")

    command("build-weights", cmd_build_weights,
            "write a weight table without training")

    command("pretrain-submodel", cmd_pretrain_submodel, "train a "
            "sub-model candidate for model-based subsampling")

    sub = command("score-triples", cmd_score_triples,
                  "score the training set under a frozen sub-model")
    sub.add_argument("--checkpoint", required=True)

    sub = command("weights-report", cmd_weights_report, "CBS vs MBS "
                  "appearance probabilities of the rarest queries")
    sub.add_argument("-n", "--num-queries", dest="num_queries", type=int,
                     default=100)

    sub = command("singleton-stats", cmd_singleton_stats,
                  "entity/relation frequencies of queries seen once")
    sub.add_argument("--stride", type=int, default=1)

    sub = command("sweep", cmd_sweep, "two-stage sub-model/alpha/lambda "
                  "selection on validation MRR")
    # the candidates, not the [subsampling] submodel_scores setting
    sub.add_argument("--submodel-scores", dest="candidate_scores",
                     nargs="+", action="extend", required=True)
    for flag, grid in (("--alpha-grid", subsampling.ALPHA_GRID),
                       ("--lambda-grid", subsampling.LAMBDA_GRID)):
        sub.add_argument(flag, help="comma-separated, default "
                         + ",".join(map(str, grid)))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a command returns its run directory, listed once it succeeded
        args.func(args).write_manifest()
        return 0
    except (KgesubError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {ConfigError: 1, TrainingDivergedError: 3}.get(type(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
