"""The three workloads: their inputs, their command sequences, and the
checks of what the commands wrote.

Each workload generates its inputs from the workload seed in `prepare`,
runs one timed pass of `kgesub` commands in `run_pass`, and checks that
pass's artifacts in `check`, outside the timed region.  Every command
gets a fresh run directory: `sweep` resumes from an existing ledger, so
a reused directory would silently skip the grid.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path
from typing import Callable

import numpy as np

import graphs
import oracle

KINDS = ("transe", "rotate", "complex", "distmult", "hake")

# run(argv, kind, main, items) executes one command and returns its exit
# status; `main` names the call whose time the workload's rate divides
# ("train" or "evaluate") and `items` is the work in one such call.
Run = Callable[..., object]
# check(name, ok, detail) records one correctness operation
Check = Callable[[str, bool, str], None]


class Workload:
    name = ""
    shape: graphs.Shape
    main = "train"

    def prepare(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.test_mrrs: list[float] = []
        self.splits = graphs.generate(self.shape, seed)
        self.data = (work / "data").resolve()
        graphs.write_dataset(self.data, self.splits)
        ent, rel = oracle.program_ids(self.splits, self.shape.entities,
                                      self.shape.relations)
        self.test = np.stack([ent[self.splits[2][:, 0]],
                              rel[self.splits[2][:, 1]],
                              ent[self.splits[2][:, 2]]], axis=1)
        known = np.concatenate(self.splits)
        self.known = oracle.KnownAnswers(
            np.stack([ent[known[:, 0]], rel[known[:, 1]], ent[known[:, 2]]],
                     axis=1), self.shape.relations)

    def mean_test_mrr(self) -> float:
        """Mean filtered test MRR of the last pass's evaluations, 0 when
        the workload ranks nothing."""
        return float(np.mean(self.test_mrrs)) if self.test_mrrs else 0.0

    def graph_stats(self) -> dict[str, float]:
        return graphs.query_stats(self.splits[0], self.shape.entities,
                                  self.shape.relations)

    def run_pass(self, run: Run, out: Path) -> None:
        raise NotImplementedError

    def check(self, run: Run, out: Path, check: Check) -> None:
        raise NotImplementedError

    def _check_ranks(self, params, out: Path, check: Check,
                     label: str) -> None:
        ok, detail = oracle.check_ranks(params, self.test, self.known,
                                        out / "ranks.tsv", sample=8)
        check(f"ranks {label}", ok, detail)

    @staticmethod
    def _check_loss(log: Path, check: Check, label: str) -> None:
        loss = oracle.final_loss(log)
        check(f"final loss {label}", math.isfinite(loss), f"{loss!r}")


class Fb237Train(Workload):
    """FB15k-237 shape: one mix weight build, then a short training run
    of every model kind.  Nothing is ranked."""

    name = "fb237-train"
    shape = graphs.FB15K237
    steps, batch = 12, 256

    def prepare(self, work: Path, seed: int) -> None:
        super().prepare(work, seed)
        rng = np.random.default_rng([seed, 237])
        scores = rng.normal(size=2 * self.shape.train)
        self.scores = work / "scores.tsv"
        self.scores.write_text(
            f"# submodel=synthetic-seed{seed}\n"
            + "".join(f"{i}\t{v!r}\n" for i, v in enumerate(scores.tolist())),
            encoding="utf-8")

    def run_pass(self, run: Run, out: Path) -> None:
        run(["build-weights", "--data", str(self.data), "--subsampling", "mix",
             "--method", "freq", "--alpha", "0.5", "--lambda", "0.5",
             "--submodel-scores", str(self.scores),
             "--run-dir", str(out / "weights")])
        for kind in KINDS:
            run(["train", "--data", str(self.data), "--model", kind,
                 "--subsampling", "none", "--dim", "64",
                 "--batch-size", str(self.batch), "--nu", "16",
                 "--optimizer", "adam", "--steps", str(self.steps),
                 "--seed", str(self.seed), "--run-dir", str(out / kind)],
                kind=kind, main="train", items=self.steps * self.batch)

    def check(self, run: Run, out: Path, check: Check) -> None:
        ok, detail = oracle.check_weight_table(out / "weights" / "weights.tsv",
                                               2 * self.shape.train)
        check("mix weight table", ok, detail)
        for kind in KINDS:
            self._check_loss(out / kind / "train.log", check, kind)


class Wn18rrRank(Workload):
    """WN18RR shape: filtered ranking of the test sample by every model
    kind, from checkpoints written at set-up.  Nothing is trained."""

    name = "wn18rr-rank"
    shape = graphs.WN18RR
    main = "evaluate"

    def prepare(self, work: Path, seed: int) -> None:
        super().prepare(work, seed)
        from kgesub.models import ModelKind, init_params, save_params
        for index, kind in enumerate(KINDS):
            save_params(init_params(ModelKind(kind), self.shape.entities,
                                    self.shape.relations, 64, 6.0,
                                    seed * len(KINDS) + index),
                        work / f"{kind}.bin")
        self.work = work

    def run_pass(self, run: Run, out: Path) -> None:
        for kind in KINDS:
            run(["evaluate", "--data", str(self.data), "--checkpoint",
                 str(self.work / f"{kind}.bin"), "--split", "test",
                 "--run-dir", str(out / kind)],
                kind=kind, main="evaluate", items=2 * self.shape.test)

    def check(self, run: Run, out: Path, check: Check) -> None:
        # checkpoints are reloaded here, one at a time, so that no
        # parameters are held by the benchmark while the program runs
        from kgesub.models import load_params
        self.test_mrrs = [read_mrr(out / kind) for kind in KINDS]
        for kind in KINDS:
            self._check_ranks(load_params(self.work / f"{kind}.bin"),
                              out / kind, check, kind)


class PaperPipeline(Workload):
    """A small graph through the paper's whole CLI sequence: two
    sub-models, their score files, all-candidates MBS weights, the
    two-stage sweep, the selected training run and its evaluation."""

    name = "paper-pipeline"
    shape = graphs.PIPELINE
    kind = "distmult"
    batch = 128
    pretrain_steps, sweep_steps, final_steps = 25, 15, 60
    alphas, lambdas = ("0.1", "0.05"), ("0.3", "0.7")

    def _model(self, steps: int) -> list[str]:
        return ["--model", self.kind, "--dim", "32", "--batch-size",
                str(self.batch), "--nu", "8", "--learning-rate", "0.05",
                "--optimizer", "adam", "--steps", str(steps),
                "--seed", str(self.seed)]

    def run_pass(self, run: Run, out: Path) -> None:
        data = ["--data", str(self.data)]
        pretrain = self.pretrain_steps * self.batch
        scores = []
        for sub in ("none", "cbs-base"):
            run(["pretrain-submodel", *data, *self._model(self.pretrain_steps),
                 "--submodel-subsampling", sub,
                 "--run-dir", str(out / f"sub-{sub}")],
                kind=self.kind, main="train", items=pretrain)
        for sub in ("none", "cbs-base"):
            run(["score-triples", *data, "--checkpoint",
                 str(out / f"sub-{sub}" / "submodel.bin"),
                 "--run-dir", str(out / f"scores-{sub}")], kind=self.kind)
            scores.append(str(out / f"scores-{sub}" / "scores.tsv"))
        run(["build-weights", *data, "--subsampling", "mbs", "--method",
             "freq", "--mbs-query-mass", "all_candidates",
             "--submodel-checkpoint", str(out / "sub-none" / "submodel.bin"),
             "--run-dir", str(out / "weights-all")], kind=self.kind)
        run(["sweep", *data, *self._model(self.sweep_steps), "--method",
             "freq", "--submodel-scores", *scores,
             "--alpha-grid", ",".join(self.alphas),
             "--lambda-grid", ",".join(self.lambdas),
             "--run-dir", str(out / "sweep")],
            kind=self.kind, main="train", items=self.sweep_steps * self.batch)
        run(["train", "--config", str(out / "sweep" / "best.cfg"),
             "--steps", str(self.final_steps), "--run-dir", str(out / "final")],
            kind=self.kind, main="train", items=self.final_steps * self.batch)
        run(["evaluate", *data, "--checkpoint",
             str(out / "final" / "checkpoint.bin"), "--split", "test",
             "--run-dir", str(out / "eval")],
            kind=self.kind, main="evaluate", items=2 * self.shape.test)

    def check(self, run: Run, out: Path, check: Check) -> None:
        from kgesub.models import load_params
        examples = 2 * self.shape.train
        for table in ("weights-all", "final"):
            ok, detail = oracle.check_weight_table(
                out / table / "weights.tsv", examples)
            check(f"weight table {table}", ok, detail)

        ledger = (out / "sweep" / "ledger.tsv").read_text(
            encoding="utf-8").splitlines()
        keys = [tuple(line.split("\t")[:3]) for line in ledger
                if line and not line.startswith("#")]
        points = 2 * len(self.alphas) + len(self.lambdas)
        check("ledger rows", len(keys) == points == len(set(keys)),
              f"{len(keys)} rows ({len(set(keys))} distinct) for "
              f"{points} grid points")

        best = configparser.ConfigParser()
        best.read(out / "sweep" / "best.cfg")
        sub = best["subsampling"]
        common = ["--data", str(self.data), "--method", "freq",
                  "--alpha", sub["alpha"],
                  "--submodel-scores", sub["submodel_scores"]]
        for source in ("mbs", "cbs"):
            run(["build-weights", *common, "--subsampling", source,
                 "--run-dir", str(out / f"check-{source}")])
        ok, detail = oracle.check_mix(out / "final" / "weights.tsv",
                                      out / "check-mbs" / "weights.tsv",
                                      out / "check-cbs" / "weights.tsv",
                                      float(sub["lambda"]))
        check("mix identity", ok, detail)

        self._check_loss(out / "final" / "train.log", check, "final")
        self._check_ranks(load_params(out / "final" / "checkpoint.bin"),
                          out / "eval", check, "final")
        self.test_mrrs = [read_mrr(out / "eval")]


def read_mrr(run_dir: Path) -> float:
    """Filtered MRR from an evaluate run's metrics.tsv."""
    for line in (run_dir / "metrics.tsv").read_text(
            encoding="utf-8").splitlines():
        name, value, _ = line.split("\t")
        if name == "mrr":
            return float(value)
    raise ValueError(f"{run_dir}/metrics.tsv has no mrr row")


WORKLOADS = {w.name: w for w in (Fb237Train, Wn18rrRank, PaperPipeline)}
