"""Command-line pipeline.

Commands: train, evaluate, build-weights, pretrain-submodel,
score-triples, weights-report, singleton-stats, sweep.

Every run writes its artifacts into one run directory (timestamped
unless --run-dir pins it) together with a manifest, each artifact
through `data.replacing`.  Every setting a command uses is a
`RunConfig` field, set by a config file or its flag; pretrain-submodel,
for one, takes the sub-model's kind as --model and its weighting as
--submodel-subsampling.  Weight tables are built from those settings,
never read: weights-report builds its CBS and MBS tables as
build-weights would.  Every command but evaluate, score-triples and
singleton-stats also echoes the effective configuration; re-feeding
that echo reproduces the run, as `sweep`'s `best.cfg` reproduces its
winner.
Exit codes: 0 success, 1 usage or config error, 2 data error or a
failed read, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import evaluation, submodel, subsampling, training
from .config import (RunConfig, check_setting, file_key, flag_name,
                     load_config, save_config)
from .data import (DIRECTION_NAMES, Dataset, load_dataset, replacing,
                   singleton_query_stats)
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


def _make_run_dir(args) -> Path:
    if args.run_dir:
        run_dir = Path(args.run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        return run_dir
    base = Path(args.out)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = base / f"{args.command}-{stamp}"
    suffix = 0
    while candidate.exists():
        suffix += 1
        candidate = base / f"{args.command}-{stamp}-{suffix}"
    candidate.mkdir(parents=True)
    return candidate


def _write_manifest(run_dir: Path, artifacts: dict[str, Path]) -> None:
    with replacing(run_dir / "manifest.tsv") as fh:
        for name, path in artifacts.items():
            fh.write(f"{name}\t{path.name}\n")


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    # each setting's flag stores into the field of that name
    return replace(config, **{
        setting.name: getattr(args, setting.name)
        for setting in fields(RunConfig)
        if getattr(args, setting.name, None) is not None})


def _start(args) -> tuple[RunConfig, Dataset, Path]:
    """A command's resolved config, its dataset and its run directory."""
    config = _resolve_config(args)
    dataset = load_dataset(config.resolved_data_dir())
    return config, dataset, _make_run_dir(args)


def _build_weights(config: RunConfig, dataset: Dataset) -> WeightTable:
    """The weight table that `config` describes, for every command and
    `sweep` grid point.  The two MBS query masses differ only in where
    the raw scores come from: the score file, or the checkpoint live."""
    source = config.subsampling
    if source == "none":
        return uniform_weights(dataset.num_examples)
    method = SubsamplingMethod(config.method)
    if source == "cbs":
        return build_cbs_weights(dataset, method, config.smoothing)
    sub = None
    if config.mbs_query_mass == "all_candidates":
        sub, sid = _load_submodel(config.submodel_checkpoint)
        scores = submodel.score_training_triples(sub, dataset, sid)
    else:
        scores = _load_scores_checked(config.submodel_scores, dataset)
    mbs = discounted_weights(
        *log_model_frequencies(dataset, scores, sub), method, config.alpha,
        Provenance(source="mbs", method=method.value, alpha=config.alpha,
                   submodel_id=scores.submodel_id))
    return mbs if source == "mbs" else mix_weights(
        build_cbs_weights(dataset, method, config.smoothing), mbs, config.lam)


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


def cmd_train(args) -> int:
    config, dataset, run_dir = _start(args)
    save_config(config, run_dir / "config.resolved.cfg")

    weights = _build_weights(config, dataset)
    save_weight_table(weights, run_dir / "weights.tsv")

    params = config.initial_params(dataset.num_entities,
                                   dataset.num_relations)
    callback = None if config.valid_every <= 0 else (
        lambda params, step: evaluation.evaluate(params, dataset, "valid").mrr)
    result = training.train(dataset, weights, params, config, callback)
    save_checkpoint(result.state, run_dir / "checkpoint.bin")
    training.write_log(result.log, run_dir / "train.log")
    _write_manifest(run_dir, {
        "config": run_dir / "config.resolved.cfg",
        "weights": run_dir / "weights.tsv",
        "checkpoint": run_dir / "checkpoint.bin",
        "log": run_dir / "train.log",
    })
    final_loss = result.log[-1].loss if result.log else float("nan")
    print(f"trained {config.steps} steps; final batch loss {final_loss:.6f}")
    print(f"artifacts in {run_dir}")
    return 0


def cmd_evaluate(args) -> int:
    config, dataset, run_dir = _start(args)
    reports = []
    artifacts: dict[str, Path] = {}
    for index, checkpoint in enumerate(args.checkpoint):
        params = load_params(checkpoint)
        report = evaluation.evaluate(params, dataset, args.split)
        reports.append(report)
        suffix = "" if len(args.checkpoint) == 1 else f".run{index}"
        text = evaluation.format_report(report)
        with replacing(run_dir / f"report{suffix}.txt") as fh:
            fh.write(text)
        evaluation.write_aggregate(evaluation.aggregate_runs([report]),
                                   run_dir / f"metrics{suffix}.tsv")
        evaluation.write_rank_dump(report, run_dir / f"ranks{suffix}.tsv")
        artifacts[f"report{suffix}"] = run_dir / f"report{suffix}.txt"
        artifacts[f"metrics{suffix}"] = run_dir / f"metrics{suffix}.tsv"
        artifacts[f"ranks{suffix}"] = run_dir / f"ranks{suffix}.tsv"
        print(text, end="")
    if len(reports) > 1:
        aggregate = evaluation.aggregate_runs(reports)
        evaluation.write_aggregate(aggregate, run_dir / "aggregate.tsv")
        artifacts["aggregate"] = run_dir / "aggregate.tsv"
        for name, (mean, sd) in aggregate.metrics.items():
            print(f"{name.upper():<4} mean {100 * mean:5.1f}  "
                  f"sd {100 * sd:4.1f}  over {len(reports)} runs")
    _write_manifest(run_dir, artifacts)
    return 0


def cmd_build_weights(args) -> int:
    config, dataset, run_dir = _start(args)
    save_config(config, run_dir / "config.resolved.cfg")
    weights = _build_weights(config, dataset)
    save_weight_table(weights, run_dir / "weights.tsv")
    _write_manifest(run_dir, {
        "config": run_dir / "config.resolved.cfg",
        "weights": run_dir / "weights.tsv",
    })
    print(f"weight table ({weights.provenance.describe()}) in {run_dir}")
    return 0


def cmd_pretrain_submodel(args) -> int:
    config, dataset, run_dir = _start(args)
    save_config(config, run_dir / "config.resolved.cfg")
    params, sid = submodel.pretrain_submodel(dataset, config)
    save_params(params, run_dir / "submodel.bin", tag=sid)
    _write_manifest(run_dir, {
        "config": run_dir / "config.resolved.cfg",
        "submodel": run_dir / "submodel.bin",
    })
    print(f"sub-model {sid} in {run_dir}")
    return 0


def cmd_score_triples(args) -> int:
    config, dataset, run_dir = _start(args)
    params, sid = _load_submodel(args.checkpoint)
    scores = submodel.score_training_triples(params, dataset, sid)
    save_scores(scores, run_dir / "scores.tsv")
    _write_manifest(run_dir, {"scores": run_dir / "scores.tsv"})
    print(f"scored {dataset.num_examples} examples under {sid}; "
          f"artifacts in {run_dir}")
    return 0


def cmd_weights_report(args) -> int:
    if args.num_queries < 0:
        raise ConfigError("n must be >= 0")
    config = _resolve_config(args)
    # each table is checked against its settings before the data load
    cbs_config, mbs_config = (replace(config, subsampling=source)
                              for source in ("cbs", "mbs"))
    dataset = load_dataset(config.resolved_data_dir())
    run_dir = _make_run_dir(args)
    save_config(config, run_dir / "config.resolved.cfg")
    rows = query_appearance_report(
        dataset, _build_weights(cbs_config, dataset),
        _build_weights(mbs_config, dataset), args.num_queries,
        smoothing=config.smoothing)
    out_path = run_dir / "weights-report.tsv"
    with replacing(out_path) as fh:
        fh.write("entity\trelation\tdirection\tcbs_count\t"
                 "cbs_pct\tmbs_pct\n")
        for row in rows:
            fh.write("\t".join(str(v) for v in row) + "\n")
    _write_manifest(run_dir, {"config": run_dir / "config.resolved.cfg",
                              "weights_report": out_path})
    print(f"reported {len(rows)} queries; artifacts in {run_dir}")
    return 0


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


def cmd_singleton_stats(args) -> int:
    if args.stride < 1:
        raise ConfigError("stride must be >= 1")
    config, dataset, run_dir = _start(args)
    directions, *rest = (column[::args.stride].tolist()
                         for column in singleton_query_stats(dataset))
    out_path = run_dir / "singleton-stats.tsv"
    with replacing(out_path) as fh:
        fh.write("entity\trelation\tdirection\tentity_count\t"
                 "relation_count\n")
        for d, e, r, entity_count, relation_count in zip(directions, *rest):
            fh.write(f"{e}\t{r}\t{DIRECTION_NAMES[d]}\t{entity_count}\t"
                     f"{relation_count}\n")
    _write_manifest(run_dir, {"singleton_stats": out_path})
    print(f"{len(directions)} singleton-query rows; artifacts in {run_dir}")
    return 0


def cmd_sweep(args) -> int:
    config = _resolve_config(args)
    if config.method == "none":
        raise ConfigError("sweep needs a subsampling method "
                          "(base, freq, or uniq)")
    alpha_grid = _parse_grid(args.alpha_grid, subsampling.ALPHA_GRID,
                             "alpha")
    lambda_grid = _parse_grid(args.lambda_grid, subsampling.LAMBDA_GRID,
                              "lam")
    dataset = load_dataset(config.resolved_data_dir())
    run_dir = _make_run_dir(args)
    save_config(config, run_dir / "config.resolved.cfg")

    by_id = {}
    for path in args.candidate_scores:
        sid = _load_scores_checked(path, dataset).submodel_id
        if sid in by_id:
            raise ConfigError(f"duplicate sub-model id {sid!r}")
        by_id[sid] = path

    def point(sid: str, alpha: float, lam: float | None) -> RunConfig:
        """A grid point's config: MBS when `lam` is None, else MIX, both
        on the observed mass, since each candidate is a score file."""
        return replace(config, subsampling="mbs" if lam is None else "mix",
                       alpha=alpha, lam=config.lam if lam is None else lam,
                       mbs_query_mass="observed", submodel_scores=by_id[sid])

    def evaluate_point(sid: str, alpha: float, lam: float | None) -> float:
        point_config = point(sid, alpha, lam)
        weights = _build_weights(point_config, dataset)
        params = point_config.initial_params(dataset.num_entities,
                                             dataset.num_relations)
        result = training.train(dataset, weights, params, point_config)
        mrr = evaluation.evaluate(result.params, dataset, "valid").mrr
        lam_text = "-" if lam is None else lam
        print(f"  {sid} alpha={alpha} lambda={lam_text} "
              f"valid MRR {mrr:.4f}")
        return mrr

    ledger_path = run_dir / "ledger.tsv"
    selection = submodel.select_submodel(list(by_id), alpha_grid, lambda_grid,
                                         evaluate_point,
                                         ledger_path=ledger_path)
    save_config(point(selection.submodel_id, selection.alpha, selection.lam),
                run_dir / "best.cfg")
    _write_manifest(run_dir, {
        "config": run_dir / "config.resolved.cfg",
        "ledger": ledger_path,
        "best_config": run_dir / "best.cfg",
    })
    mbs_text = ("forced" if selection.mbs_mrr is None
                else f"MBS valid MRR {selection.mbs_mrr:.4f}")
    print(f"selected sub-model {selection.submodel_id} "
          f"alpha={selection.alpha} ({mbs_text}) "
          f"lambda={selection.lam} (MIX valid MRR {selection.mix_mrr:.4f})")
    print(f"artifacts in {run_dir}")
    return 0


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
    sub.add_argument("--checkpoint", required=True, nargs="+",
                     help="one checkpoint per trained seed; several "
                          "produce a mean/sd aggregate")
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
                     nargs="+", required=True)
    for flag, grid in (("--alpha-grid", subsampling.ALPHA_GRID),
                       ("--lambda-grid", subsampling.LAMBDA_GRID)):
        sub.add_argument(flag, help="comma-separated, default "
                         + ",".join(map(str, grid)))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (KgesubError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
