"""Scoring and selection of the frozen sub-model that drives
model-based subsampling.

A sub-model is an ordinary `train` run (with no subsampling or with
count-based Base weights), then frozen; this module trains nothing.
Its checkpoint carries its id, `RunConfig.model_id` of the settings it
was trained under.  Its raw scores over the training examples are
persisted so the expensive training runs once per candidate; only the
all-candidates mass scores the checkpoint again.

Selection is a two-stage grid search on validation MRR: first the best
(sub-model, temperature) pair under model-based weights, then, with
that pair fixed, the best mixing ratio under mixed weights.  Ties break
toward smaller temperature, then smaller ratio, then candidate order.
A ledger of the grid points run so far lets an interrupted search
resume; its first line, `# sweep <key>`, names the search it belongs to.
This module writes no file: the CLI writes the rows of the ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError
from .models import ModelParams, check_vocab, score_triples
from .subsampling import SubModelScores


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

Point = tuple[str, float, float | None]  # sid, alpha, lambda or None


@dataclass
class Selection:
    submodel_id: str
    alpha: float
    lam: float
    mix_mrr: float
    mbs_mrr: float | None = None  # None when stage 1 was forced


LEDGER_KEY = "# sweep "  # then the key of the search, on line 1


def read_ledger(path: str | Path, key: str) -> dict[Point, float]:
    """The valid MRR of each grid point in the sweep ledger at `path`
    (none when there is no file), in the order first run.  A last line
    without its newline is not a record: a crash cut it short, and its
    point runs again.  The records are checked first (DataError), then
    the key line, which must be `# sweep <key>` (ConfigError)."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return {}
    try:
        text = data[:data.rfind(b"\n") + 1].decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    done = {}
    for lineno, line in enumerate(text.split("\n")[:-1], start=1):
        if not line or (lineno == 1 and line.startswith(LEDGER_KEY)
                        and "\t" not in line):
            continue  # every tabbed line is a record, even one of id `#`
        try:
            sid, alpha, lam, mrr = line.split("\t")
            point = (sid, float(alpha), None if lam == "-" else float(lam))
            done[point] = float(mrr)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: expected `submodel_id<TAB>"
                            f"alpha<TAB>lambda<TAB>valid_mrr` ({exc})"
                            ) from None
        # every comparison with nan is false, so nan fails each check
        if not (0.0 < point[1] < math.inf
                and (point[2] is None or 0.0 <= point[2] <= 1.0)
                and 0.0 <= done[point] <= 1.0):
            raise DataError(f"{path}:{lineno}: alpha must be finite and > 0, "
                            f"lambda and valid_mrr in [0, 1], got alpha "
                            f"{alpha}, lambda {lam}, valid_mrr {mrr}")
    if text and not text.startswith(f"{LEDGER_KEY}{key}\n"):
        raise ConfigError(f"{path} is the ledger of another sweep, "
                          "of other settings, data or candidates")
    return done


def ledger_rows(key: str, done: dict[Point, float]) -> list[tuple]:
    """The rows of the sweep ledger of `key`: the key line, then one
    `submodel_id, alpha, lambda, valid_mrr` record per grid point."""
    return [(LEDGER_KEY + key,), *(
        (sid, alpha, "-" if lam is None else lam, mrr)
        for (sid, alpha, lam), mrr in done.items())]


def select_submodel(candidates: Sequence[str],
                    alpha_grid: Sequence[float],
                    lambda_grid: Sequence[float],
                    evaluate_point: Callable[[str, float, float | None],
                                             float],
                    done: Mapping[Point, float] | None = None,
                    on_record: Callable[[dict[Point, float]], None]
                    = lambda records: None) -> Selection:
    """Two-stage validation-MRR grid search over sub-model ids.

    `evaluate_point(sid, alpha, lam)` must return the validation MRR
    of a main model trained with model-based weights (lam is None) or
    mixed weights (lam set).  Grid points in `done`, the MRR of each
    point already run, are not run again, so an interrupted sweep
    resumes.  After each point run, `on_record` is given the MRR of
    every point run so far, in the order first run, `done`'s first.  A
    stage-1 grid with a single point is a forced choice and skips its
    evaluation; the ratio stage always evaluates, since its MRR is the
    search's deliverable.
    """
    if not candidates or not alpha_grid or not lambda_grid:
        raise ValueError("candidates and grids must be non-empty")
    cached = dict(done or {})

    def run(*point) -> float:
        if point not in cached:
            cached[point] = evaluate_point(*point)
            on_record(cached)
        return cached[point]

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
                     mbs_mrr=mbs_mrr, mix_mrr=mix_mrr)
