"""Filtered link-prediction ranking and metric aggregation.

Every triple of the evaluated split is ranked twice, once per query
direction: example ``2 * i + d`` asks the tail query (d = 0) or the
head query (d = 1) of triple i, and reports keep that order.  The
candidate list is all entities minus the other answers known to be
true anywhere in the dataset (the evaluated answer itself always stays
in the list).  Those answers come from `build_filter_index`, the query
index of all three splits: each query is found in it by binary search
and reads its answers as a slice of the index's CSR list.  Score ties
use the mean-rank convention: rank = 1 + |better| + |tied others| / 2,
rounded half up, which avoids the optimistic bias of insertion-order
ranking.

Ranking is chunked.  The split's queries are scored against every
entity a chunk of one direction at a time (`models.iter_candidate_scores`),
and each is ranked from its row of scores: count the entities that
score above or tie with the answer over the whole row, then subtract
the known other answers that do, instead of masking an E-sized
candidate list per query.  A chunk holds as many queries as fit
`models.RANK_BUDGET_BYTES` of (queries, E) scores, and at most dim of
them, so its scores are never larger than the entity table; distances
are taken over blocks of entities under the same budget.  Memory stays
bounded whatever the split's size.

Ranking only reads the parameters; reports are assembled in split order
for determinism.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import DIRECTION_NAMES, Dataset, QueryIndex
from .models import ModelParams, check_vocab, iter_candidate_scores

METRIC_NAMES = ("mrr", "h1", "h3", "h10")


@dataclass
class EvalReport:
    mrr: float
    h1: float
    h3: float
    h10: float
    per_query_ranks: np.ndarray  # (n,) int64
    queries: np.ndarray  # (n, 3) int64: direction, entity, relation
    split: str

    def metric(self, name: str) -> float:
        return getattr(self, name)


@dataclass
class AggregateReport:
    """Per-metric mean and population standard deviation over runs."""

    metrics: dict[str, tuple[float, float]] = field(default_factory=dict)


def rank_answers(params: ModelParams, directions: np.ndarray,
                 entities: np.ndarray, relations: np.ndarray,
                 answers: np.ndarray,
                 known: Sequence[np.ndarray]) -> np.ndarray:
    """Filtered rank of each answer to its query, in input order;
    known[i] holds the known-true answers of query i."""
    # one direction at a time, so that every chunk is full
    order = np.argsort(directions, kind="stable")
    ranks = np.empty(len(answers), dtype=np.int64)
    for start, stop, scores in iter_candidate_scores(
            params, directions[order], entities[order], relations[order]):
        rows = order[start:stop]
        ranks[rows] = _rank_rows(scores, answers[rows],
                                 [known[i] for i in rows])
    return ranks


def _rank_rows(scores: np.ndarray, answers: np.ndarray,
               known: list[np.ndarray]) -> np.ndarray:
    """Rank of answers[i] in scores[i], counting neither the known
    answers known[i] nor the answer itself as competitors."""
    rows = np.arange(len(answers))
    own = scores[rows, answers]
    better = (scores > own[:, None]).sum(axis=1)
    ties = (scores == own[:, None]).sum(axis=1) - 1
    owner = np.repeat(rows, [k.size for k in known])
    others = np.concatenate(known)
    competing = others != answers[owner]
    owner, others = owner[competing], others[competing]
    other_scores, answer_scores = scores[owner, others], own[owner]
    better -= np.bincount(owner[other_scores > answer_scores],
                          minlength=len(rows))
    ties -= np.bincount(owner[other_scores == answer_scores],
                        minlength=len(rows))
    return 1 + better + (ties + 1) // 2


def build_filter_index(dataset: Dataset) -> QueryIndex:
    """Known-true answers per query over train, valid, and test."""
    return QueryIndex.build(
        np.concatenate([dataset.train, dataset.valid, dataset.test]),
        dataset.num_entities, dataset.num_relations)


def evaluate(params: ModelParams, dataset: Dataset, split: str,
             filter_index: QueryIndex | None = None) -> EvalReport:
    """Filtered MRR and Hits@{1,3,10} over both directions of a split."""
    triples = {"valid": dataset.valid, "test": dataset.test,
               "train": dataset.train}[split]
    if not len(triples):
        raise ValueError(f"split {split!r} is empty")
    check_vocab(params, dataset)
    if filter_index is None:
        filter_index = build_filter_index(dataset)
    queries = np.stack([np.tile([0, 1], len(triples)),
                        triples[:, [0, 2]].ravel(),
                        np.repeat(triples[:, 1], 2)], axis=1)
    query_ids = filter_index.find(*queries.T)
    if np.any(query_ids < 0):
        raise ValueError(f"the filter index does not cover split {split!r}")
    offsets = filter_index.offsets
    known = [filter_index.answers[offsets[q]:offsets[q + 1]]
             for q in query_ids.tolist()]
    ranks = rank_answers(params, *queries.T, triples[:, [2, 0]].ravel(), known)
    rank_arr = ranks.astype(np.float64)
    return EvalReport(
        mrr=float((1.0 / rank_arr).mean()),
        h1=float((rank_arr <= 1).mean()),
        h3=float((rank_arr <= 3).mean()),
        h10=float((rank_arr <= 10).mean()),
        per_query_ranks=ranks,
        queries=queries,
        split=split,
    )


def aggregate_runs(reports: list[EvalReport]) -> AggregateReport:
    """Mean and population standard deviation of each metric."""
    if not reports:
        raise ValueError("need at least one report")
    aggregate = AggregateReport()
    for name in METRIC_NAMES:
        values = np.array([report.metric(name) for report in reports])
        # clamp away the ulp of rounding so identical runs aggregate to
        # exactly (value, 0)
        mean = min(max(float(values.mean()), float(values.min())),
                   float(values.max()))
        sd = float(np.sqrt(((values - mean) ** 2).mean()))
        aggregate.metrics[name] = (mean, sd)
    return aggregate


# ---------------------------------------------------------------------------
# report output


def format_report(report: EvalReport) -> str:
    """Human-readable table, metrics scaled x100 with one decimal."""
    lines = [f"split: {report.split}  ({len(report.per_query_ranks)} ranked queries)"]
    for name in METRIC_NAMES:
        lines.append(f"  {name.upper():<4} {100.0 * report.metric(name):5.1f}")
    return "\n".join(lines) + "\n"


def write_aggregate(aggregate: AggregateReport, path: str | Path) -> None:
    """`metric<TAB>mean<TAB>sd` rows."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, (mean, sd) in aggregate.metrics.items():
            fh.write(f"{name}\t{mean!r}\t{sd!r}\n")


def write_metrics(report: EvalReport, path: str | Path) -> None:
    """Single-run `metric<TAB>mean<TAB>sd` rows (sd = 0)."""
    with open(path, "w", encoding="utf-8") as fh:
        for name in METRIC_NAMES:
            fh.write(f"{name}\t{report.metric(name)!r}\t0.0\n")


def write_rank_dump(report: EvalReport, path: str | Path) -> None:
    """`query<TAB>direction<TAB>rank` rows; query is `entity|relation`."""
    directions, entities, relations = report.queries.T.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for d, e, r, rank in zip(directions, entities, relations,
                                 report.per_query_ranks.tolist()):
            fh.write(f"{e}|{r}\t{DIRECTION_NAMES[d]}\t{rank}\n")
