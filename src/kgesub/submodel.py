"""Pre-training, scoring, and selection of the frozen sub-model that
drives model-based subsampling.

The sub-model is an ordinary embedding model trained up front (with no
subsampling or with count-based Base weights), then frozen.  Its kind
and weighting are settings like any other, `[model] kind` and
`[subsampling] submodel_subsampling`, so the echoed configuration of a
pre-training run reproduces it.  Its raw scores over the training
examples are persisted so the expensive pre-training runs once per
candidate; only the all-candidates mass scores the checkpoint again.

Selection is a two-stage grid search on validation MRR: first the best
(sub-model, temperature) pair under model-based weights, then, with
that pair fixed, the best mixing ratio under mixed weights.  Ties break
toward smaller temperature, then smaller ratio, then candidate order.
A ledger of the grid points run so far lets an interrupted search
resume; its first line, `# sweep <key>`, names the search it belongs to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .config import RunConfig
from .data import Dataset, text_lines
from .errors import ConfigError, DataError
from .models import ModelParams, check_vocab, score_triples
from .subsampling import (SubModelScores, SubsamplingMethod,
                          build_cbs_weights, uniform_weights)
from .training import train


def pretrain_submodel(dataset: Dataset,
                      config: RunConfig) -> tuple[ModelParams, str]:
    """Train the sub-model candidate that `config` describes and tag it
    with its provenance id, `<kind>-<weighting>-seed<seed>`.

    The candidate is of kind `config.model`, trained under
    `config.submodel_subsampling` weights: none, or count-based Base.
    """
    if config.submodel_subsampling == "cbs-base":
        weights = build_cbs_weights(dataset, SubsamplingMethod.BASE,
                                    config.smoothing)
    else:
        weights = uniform_weights(dataset.num_examples)
    params = config.initial_params(dataset.num_entities,
                                   dataset.num_relations)
    result = train(dataset, weights, params, config)
    return result.params, (f"{config.model}-{config.submodel_subsampling}"
                           f"-seed{config.seed}")


def score_training_triples(submodel: ModelParams, dataset: Dataset,
                           provenance: str) -> SubModelScores:
    """Raw sub-model score of every direction-expanded training example.

    Both directions of a triple share the triple's score.  Pure function
    of (sub-model, dataset): recomputing from a persisted copy of either
    gives identical output.
    """
    check_vocab(submodel, dataset)
    per_triple = score_triples(submodel, *dataset.train.T)
    raw = np.repeat(per_triple, 2)
    return SubModelScores(raw_score=raw, submodel_id=provenance)


# ---------------------------------------------------------------------------
# selection


@dataclass(frozen=True)
class GridRecord:
    submodel_id: str
    alpha: float
    lam: float | None  # None for the model-based stage
    valid_mrr: float


@dataclass
class Selection:
    submodel_id: str
    alpha: float
    lam: float
    mix_mrr: float
    mbs_mrr: float | None = None  # None when stage 1 was forced
    records: list[GridRecord] = field(default_factory=list)


LEDGER_KEY = "# sweep "  # then the key of the search, on line 1


def read_ledger(path: str | Path) -> list[GridRecord]:
    path = Path(path)
    if not path.exists():
        return []
    records = []
    for lineno, line in text_lines(path):
        if lineno == 1 and line.startswith(LEDGER_KEY) and "\t" not in line:
            continue  # every tabbed line is a record, even one of id `#`
        try:
            sid, alpha, lam, mrr = line.split("\t")
            record = GridRecord(submodel_id=sid, alpha=float(alpha),
                                lam=None if lam == "-" else float(lam),
                                valid_mrr=float(mrr))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: expected `submodel_id<TAB>"
                            f"alpha<TAB>lambda<TAB>valid_mrr` ({exc})"
                            ) from None
        # every comparison with nan is false, so nan fails each check
        if not (0.0 < record.alpha < math.inf
                and (record.lam is None or 0.0 <= record.lam <= 1.0)
                and 0.0 <= record.valid_mrr <= 1.0):
            raise DataError(f"{path}:{lineno}: alpha must be finite and > 0, "
                            f"lambda and valid_mrr in [0, 1], got alpha "
                            f"{alpha}, lambda {lam}, valid_mrr {mrr}")
        records.append(record)
    return records


def resume_ledger(path: str | Path, key: str | None = None
                  ) -> dict[tuple[str, float, float | None], float]:
    """The MRR of each grid point in the ledger at `path`, less a last
    record that a crash cut short.  Given a search's `key`, the ledger
    must start with `# sweep <key>` (an empty one is given it)."""
    with open(path, "a+b") as fh:
        fh.seek(0)
        data = fh.read()
        if not data.endswith(b"\n"):  # torn, even if what is left parses
            fh.truncate(data.rfind(b"\n") + 1)
        done = {(record.submodel_id, record.alpha, record.lam):
                record.valid_mrr for record in read_ledger(path)}
        first = data[:data.find(b"\n") + 1]
        line = f"{LEDGER_KEY}{key}\n".encode()
        if key is not None and first != line:
            if first:
                raise ConfigError(f"{path} is the ledger of another sweep, "
                                  "of other settings, data or candidates")
            fh.write(line)
    return done


def append_ledger(path: str | Path, record: GridRecord) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        lam = "-" if record.lam is None else repr(record.lam)
        fh.write(f"{record.submodel_id}\t{record.alpha!r}\t{lam}\t"
                 f"{record.valid_mrr!r}\n")


def select_submodel(candidates: Sequence[str],
                    alpha_grid: Sequence[float],
                    lambda_grid: Sequence[float],
                    evaluate_point: Callable[[str, float, float | None],
                                             float],
                    ledger_path: str | Path | None = None) -> Selection:
    """Two-stage validation-MRR grid search over sub-model ids.

    `evaluate_point(sid, alpha, lam)` must return the validation MRR
    of a main model trained with model-based weights (lam is None) or
    mixed weights (lam set).  Grid points already present in the ledger
    file are reused, so an interrupted sweep resumes without retraining;
    a record the interruption cut short is dropped and run again.
    A stage-1 grid with a single point is a forced choice and skips its
    evaluation; the ratio stage always evaluates, since its MRR is the
    search's deliverable.
    """
    if not candidates or not alpha_grid or not lambda_grid:
        raise ValueError("candidates and grids must be non-empty")
    cached = {} if ledger_path is None else resume_ledger(ledger_path)
    records: list[GridRecord] = []

    def run(sid: str, alpha: float, lam: float | None) -> float:
        key = (sid, alpha, lam)
        if key in cached:
            mrr = cached[key]
        else:
            mrr = evaluate_point(sid, alpha, lam)
            cached[key] = mrr
            if ledger_path is not None:
                append_ledger(ledger_path, GridRecord(*key, mrr))
        records.append(GridRecord(*key, mrr))
        return mrr

    if len(candidates) == 1 and len(alpha_grid) == 1:
        best_sid, best_alpha, mbs_mrr = candidates[0], alpha_grid[0], None
    else:
        best = None  # ((mrr, -alpha, -candidate_index), sid, alpha, mrr)
        for index, sid in enumerate(candidates):
            for alpha in alpha_grid:
                mrr = run(sid, alpha, None)
                key = (mrr, -alpha, -index)
                if best is None or key > best[0]:
                    best = (key, sid, alpha, mrr)
        _, best_sid, best_alpha, mbs_mrr = best

    best_mix = None
    for lam in lambda_grid:
        mrr = run(best_sid, best_alpha, lam)
        key = (mrr, -lam)
        if best_mix is None or key > best_mix[0]:
            best_mix = (key, lam, mrr)
    _, best_lam, mix_mrr = best_mix

    return Selection(submodel_id=best_sid, alpha=best_alpha, lam=best_lam,
                     mbs_mrr=mbs_mrr, mix_mrr=mix_mrr, records=records)
