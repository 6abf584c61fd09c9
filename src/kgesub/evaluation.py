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

Ranking streams tiles.  `models.reduce_candidate_scores` takes the
split's queries a pass of one direction at a time and scores each pass
against tiles of entity columns, split across one worker thread per
CPU whose scratch shares `models.RANK_BUDGET_BYTES`; no (queries, E)
array is made.  A pass holds as many queries as leave every worker
tiles of `models._TILE` entities, so the benchmark's 30 test queries a
direction take one or two passes, and memory stays bounded whatever the
split's size.

Every kind is scored in float32, which only screens; float64 decides
every rank.  The pass's `models.Screen` holds eps(q), an a-priori bound
of the float32 error of each query's finite scores, and the float64
score of any (query, entity) pair in one fixed order of operations.
`rank_answers`' reducer takes the answer's float64 score; in each tile
it counts the entities above answer + eps as better, leaves those below
answer - eps out, and keeps the band between, a few entities a query,
and every entity whose float32 score is not finite (an overflow), to
score again in float64 after the last tile.  A tile whose band holds
more pairs than the tile has entities (a huge eps, or scores that
overflow) keeps its rows instead, and each of those rows is scored in
float64 over the tile's every entity, so a pass keeps no more pairs than
there are entities.  The masks of a tile reuse a scratch buffer that its
block has spent, and each worker hands on a tile's counts and pairs in
one append.  Both thresholds are rounded outward with `np.nextafter` and
compared float32 to float32, so numpy 1.24 and 2.x agree.  The tiles
count the query's known answers and the answer itself like any entity,
each as its float64 score compares, so the reducer then takes each out
by that score.  Counts are kept as 2 |better| + |tied|, one integer a
query, so the tiles' counts add up in any order, and the ranks are those
of the float64 pair scores whatever the CPU count, the tile width or the
BLAS library.

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

    def rank_rows(rows, screen):
        own_answers = answers[rows]
        picks = np.arange(len(rows))
        own = screen.exact(picks, own_answers)
        low, high = (x[:, None] for x in _float32_band(own, screen.bound))
        # each tile's (2 |better| + |tied| a row, rows and entities of
        # its band's pairs, rows left to total() whole, its entities),
        # appended in one piece by the worker thread that scored it
        found = []

        def add(cols, tile, spare):
            # two masks of the tile's shape, from the spare's bytes
            above, band = spare.reshape(-1).view(np.bool_)[
                :2 * tile.size].reshape((2,) + tile.shape)
            if not np.isfinite(tile, out=above).all():
                np.copyto(tile, high,
                          where=np.logical_not(above, out=above))
            np.greater(tile, high, out=above)
            counts = 2 * _row_counts(above)
            np.greater_equal(tile, low, out=band)
            band ^= above
            width = tile.shape[1]
            if np.count_nonzero(band) <= width:
                pick, cand = np.divmod(np.flatnonzero(band), width)
                found.append((counts, pick, cand + cols.start, picks[:0],
                              cols))
                return
            # a band wider than the tile, which a huge eps(q) or scores
            # that overflow float32 make: total() scores its rows' every
            # entity of the tile, so that a pass keeps no more pairs than E
            wide = np.flatnonzero(band.any(axis=1))
            counts[wide] = 0
            found.append((counts, picks[:0], picks[:0], wide, cols))

        def total():
            # each row's known answers, and its answer where it is not
            # one of them, were counted by their exact scores
            starts = offsets[query[rows]]
            sizes = offsets[query[rows] + 1] - starts
            owner = np.repeat(picks, sizes)
            mine = known[np.arange(len(owner)) + np.repeat(
                starts - (np.cumsum(sizes) - sizes), sizes)]
            lone = np.bincount(owner[mine == own_answers[owner]],
                               minlength=len(rows)) == 0
            counts, near, cands, wide, spans = zip(*found)
            taken = np.concatenate(near + (owner, picks[lone]))
            exact = screen.exact(taken, np.concatenate(
                cands + (mine, own_answers[lone])))
            weight = 2 * (exact > own[taken]) + (exact == own[taken])
            weight[len(taken) - len(owner) - lone.sum():] *= -1
            counts = np.sum(counts, axis=0)
            np.add.at(counts, taken, weight)
            for rows_of_tile, cols in zip(wide, spans):
                entities = np.arange(cols.start, cols.stop)
                for i in rows_of_tile:
                    exact = screen.exact(np.full(len(entities), i), entities)
                    counts[i] += (2 * np.count_nonzero(exact > own[i])
                                  + np.count_nonzero(exact == own[i]))
            return 1 + (counts + 1) // 2
        return add, total
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

