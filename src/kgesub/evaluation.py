"""Filtered link-prediction ranking and metric aggregation.

Every triple of the evaluated split is ranked twice, once per query
direction: example ``2 * i + d`` asks the tail query (d = 0) or the
head query (d = 1) of triple i, and reports keep that order.  The
candidate list is all entities minus the other answers known to be
true anywhere in the dataset (the evaluated answer itself always stays
in the list).  Each example's query and answer are read from its
triple of the split, and the known answers of the split's queries are
found at once by `QueryIndex.lookup` in `Dataset.filter_index`, the
query index of train, valid and test concatenated in that order;
ranking derives no array of every example of that index.
Score ties use the mean-rank convention: rank = 1 + |better| + |tied
others| / 2, rounded half up, which avoids the optimistic bias of
insertion-order ranking.

Ranking is chunked.  `models.reduce_candidate_scores` owns the chunks:
it scores the split's queries against every entity a chunk of one
direction at a time and hands each chunk's (queries, E) scores to
`rank_answers`' reducer, which overwrites them.  The reducer filters by
masking: it reads the answer's score, writes NaN, which compares false
both ways, over the query's known answers and the answer itself, and
counts the entities that score above or tie with the answer.  A chunk
holds as many queries as fit `models.RANK_BUDGET_BYTES` of (queries,
E) scores, and at most dim of them, so its scores are never larger than
the entity table, and it is freed before the next chunk is scored, so
one chunk is alive at a time.  Distances are taken over blocks of
entities under the same budget, split across one worker thread per CPU
whose scratch shares that budget: `models._blocked` owns each block's
few (queries, block) buffers and its sign, and the block adds one term
per feature in the order of numpy's pairwise add.reduce.

TransE, RotatE and HAKE chunks are scored in float32, which only
screens; float64 decides every rank.  The chunk's `models.Screen` holds
eps(q), an a-priori bound of the float32 error of each query's finite
scores, and the float64 score of any (query, entity) pair, bitwise that
of the float64 block.  The reducer takes the answer's float64 score,
counts in float32 the entities above answer + eps as better, leaves
those below answer - eps out, and scores again in float64 the band
between, a few entities a query, and every entity whose float32 score
is not finite (an overflow).  Both thresholds are rounded outward with
`np.nextafter` and compared float32 to float32, so numpy 1.24 and 2.x
agree.  DistMult and ComplEx chunks are float64 matmuls and counted
directly.  Memory stays bounded whatever the split's size, and the
ranks are bitwise those of float64 scores whatever the CPU count.

Ranking only reads the parameters; reports are assembled in split order
for determinism.  The module writes no file: `cli` writes its reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, QueryIndex, example_queries
from .models import ModelParams, check_vocab, reduce_candidate_scores

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


def rank_answers(params: ModelParams, index: QueryIndex, queries: np.ndarray,
                 answers: np.ndarray) -> np.ndarray:
    """Filtered rank of answers[i] to query queries[i], a (direction,
    entity, relation) row, in input order; the query's answers in
    `index` are the known ones."""
    directions, entities, relations = np.asarray(queries, np.int64).T
    query, offsets, known = index.lookup(directions, entities, relations)

    def rank_rows(rows, scores, screen):
        own_answers = answers[rows]
        picks = np.arange(len(rows))
        if screen is None:
            own = scores[picks, own_answers]
        else:
            own = screen.exact(picks, own_answers)
            low, high = _float32_band(own, screen.bound)
            # a float32 score that is not finite (NaN or -inf, which the
            # row's minimum shows) is moved into the band
            for row in np.flatnonzero(~np.isfinite(scores.min(axis=1))):
                scores[row, ~np.isfinite(scores[row])] = high[row]
        # each row's known answers: position in its slice plus the start
        starts = offsets[query[rows]]
        sizes = offsets[query[rows] + 1] - starts
        owner = np.repeat(picks, sizes)
        scores[owner, known[np.arange(len(owner)) + np.repeat(
            starts - (np.cumsum(sizes) - sizes), sizes)]] = np.nan
        scores[picks, own_answers] = np.nan
        if screen is None:
            better = _row_counts(scores > own[:, None])
            ties = _row_counts(scores == own[:, None])
        else:
            above = scores > high[:, None]
            better = _row_counts(above)
            band = np.greater_equal(scores, low[:, None])
            band ^= above
            near, cands = np.divmod(np.flatnonzero(band), scores.shape[1])
            exact = screen.exact(near, cands)
            better += np.bincount(near[exact > own[near]],
                                  minlength=len(rows))
            ties = np.bincount(near[exact == own[near]], minlength=len(rows))
        return 1 + better + (ties + 1) // 2
    return reduce_candidate_scores(params, directions, entities, relations,
                                   rank_rows, np.int64, screen=True)


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """The number of true entries of each row of a 2-D mask (a row at a
    time, several times faster than summing along the rows)."""
    return np.array([np.count_nonzero(row) for row in mask], np.int64)


def _float32_band(own: np.ndarray, bound: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """float32 (low, high) with low < own - bound and high > own + bound
    exactly, each rounded outward past its float64 value with
    `np.nextafter`; (-inf, inf) where either is not finite.  A float32
    score above `high` is then above `own` in float64 too, one below
    `low` below it, so float64 decides only the band between them."""
    with np.errstate(over="ignore", invalid="ignore"):
        low, high = own - bound, own + bound
        wide = ~(np.isfinite(low) & np.isfinite(high))
        low[wide], high[wide] = -np.inf, np.inf
        low32, high32 = low.astype(np.float32), high.astype(np.float32)
        low32 = np.where(low32 < low, low32,
                         np.nextafter(low32, np.float32(-np.inf)))
        high32 = np.where(high32 > high, high32,
                          np.nextafter(high32, np.float32(np.inf)))
    return low32, high32


def evaluate(params: ModelParams, dataset: Dataset,
             split: str) -> EvalReport:
    """Filtered MRR and Hits@{1,3,10} over both directions of a split."""
    triples = getattr(dataset, split)
    if not len(triples):
        raise ValueError(f"split {split!r} is empty")
    check_vocab(params, dataset)
    direction, entity, relation, answer = example_queries(
        triples, np.arange(2 * len(triples)))
    queries = np.stack([direction, entity, relation], axis=1)
    ranks = rank_answers(params, dataset.filter_index, queries, answer)
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


def aggregate_runs(reports: list[EvalReport]
                   ) -> dict[str, tuple[float, float]]:
    """Mean and population standard deviation of each metric, by name."""
    if not reports:
        raise ValueError("need at least one report")
    aggregate = {}
    for name in METRIC_NAMES:
        values = np.array([report.metric(name) for report in reports])
        # clamp away the ulp of rounding so identical runs aggregate to
        # exactly (value, 0)
        mean = min(max(float(values.mean()), float(values.min())),
                   float(values.max()))
        sd = float(np.sqrt(((values - mean) ** 2).mean()))
        aggregate[name] = (mean, sd)
    return aggregate


def format_report(report: EvalReport) -> str:
    """Human-readable table, metrics scaled x100 with one decimal."""
    lines = [f"split: {report.split}  ({len(report.per_query_ranks)} ranked queries)"]
    for name in METRIC_NAMES:
        lines.append(f"  {name.upper():<4} {100.0 * report.metric(name):5.1f}")
    return "\n".join(lines) + "\n"

