"""Synthetic knowledge graphs with the shapes of the paper's benchmarks.

Generation is vectorized and a pure function of (shape, seed).

Structure: entities are split into `clusters` groups of near-equal size.
Each relation maps every cluster to a fixed target cluster, so a link
(h, r, t) has its tail in cluster target[r, cluster(h)], drawn with a
power-law popularity inside that cluster.  A `noise` share of tails is
uniform over all entities instead.  Heads and relations follow Zipf
laws over random ranks, which skews the query counts the way real
benchmarks are skewed.  The structure is what lets a trained model rank
test answers clearly above random.

Every entity heads one "coverage" link and every relation labels at
least one, so the vocabulary has exactly the requested sizes.  Coverage
links always stay in the training split.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    entities: int
    relations: int
    train: int
    valid: int
    test: int
    clusters: int
    tail_skew: float = 3.0  # within-cluster index = floor(m * u ** tail_skew)
    noise: float = 0.05


# Train shapes are the published FB15k-237 and WN18RR statistics.  The
# WN18RR test split is the benchmark's ranking sample, not the published
# 3,134 triples, so that a run ranks every kind within its time budget.
FB15K237 = Shape(entities=14_541, relations=237, train=272_115,
                 valid=17_535, test=20_466, clusters=400)
WN18RR = Shape(entities=40_943, relations=11, train=86_835,
               valid=3_034, test=30, clusters=1_000)
# Small, with few clusters and answers concentrated on a few hub entities
# per cluster, so that a short plain training run ranks test answers
# several times better than random.
PIPELINE = Shape(entities=1_000, relations=10, train=8_000, valid=200,
                 test=200, clusters=10, tail_skew=8.0, noise=0.02)


def _zipf_draw(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """`size` ids in [0, n) with P(id) proportional to 1 / rank(id) over a
    random ranking of the ids."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    ranks = rng.permutation(n)
    return ranks[rng.choice(n, size=size, p=weights / weights.sum())]


class _Structure:
    def __init__(self, rng: np.random.Generator, shape: Shape) -> None:
        e, k = shape.entities, shape.clusters
        order = rng.permutation(e)
        self.cluster_of = np.empty(e, dtype=np.int64)
        self.cluster_of[order] = np.arange(e) % k
        # members of cluster c are order[c::k]; sizes differ by at most 1
        self.members = np.concatenate([order[c::k] for c in range(k)])
        sizes = np.bincount(self.cluster_of, minlength=k)
        self.start = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        self.size = sizes
        self.target = rng.integers(0, k, size=(shape.relations, k))
        self.shape = shape

    def tails(self, rng: np.random.Generator, heads: np.ndarray,
              relations: np.ndarray) -> np.ndarray:
        cluster = self.target[relations, self.cluster_of[heads]]
        m = self.size[cluster]
        u = rng.random(heads.shape[0])
        index = np.minimum((m * u ** self.shape.tail_skew).astype(np.int64),
                           m - 1)
        tails = self.members[self.start[cluster] + index]
        noisy = rng.random(heads.shape[0]) < self.shape.noise
        tails[noisy] = rng.integers(0, self.shape.entities,
                                    size=int(noisy.sum()))
        return tails


def generate(shape: Shape, seed: int) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """(train, valid, test) as int64 arrays of (head, relation, tail) rows.

    All links are distinct; no link appears in two splits.
    """
    rng = np.random.default_rng([seed, shape.entities, shape.train])
    e, r = shape.entities, shape.relations
    structure = _Structure(rng, shape)

    cover_h = rng.permutation(e)
    cover_r = _zipf_draw(rng, r, e)
    cover_r[:r] = rng.permutation(r)
    cover = np.stack([cover_h, cover_r,
                      structure.tails(rng, cover_h, cover_r)], axis=1)

    wanted = shape.train + shape.valid + shape.test - e
    keys = (cover[:, 0] * r + cover[:, 1]) * e + cover[:, 2]
    extra = np.empty((0, 3), dtype=np.int64)
    while extra.shape[0] < wanted:
        n = int(1.3 * (wanted - extra.shape[0])) + 64
        h = _zipf_draw(rng, e, n)
        rel = _zipf_draw(rng, r, n)
        batch = np.stack([h, rel, structure.tails(rng, h, rel)], axis=1)
        extra = np.concatenate([extra, batch])
        k = (extra[:, 0] * r + extra[:, 1]) * e + extra[:, 2]
        _, first = np.unique(k, return_index=True)
        first = np.sort(first)
        first = first[~np.isin(k[first], keys)]
        extra = extra[first]
    extra = extra[:wanted]
    held = rng.permutation(wanted)
    valid = extra[held[:shape.valid]]
    test = extra[held[shape.valid:shape.valid + shape.test]]
    train = np.concatenate([cover, extra[held[shape.valid + shape.test:]]])
    train = train[rng.permutation(train.shape[0])]
    return train, valid, test


def write_dataset(directory: Path, splits: tuple[np.ndarray, ...]) -> None:
    """train.txt / valid.txt / test.txt with labels e<id> and r<id>."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, rows in zip(("train", "valid", "test"), splits):
        lines = [f"e{h}\tr{rel}\te{t}\n" for h, rel, t in rows.tolist()]
        (directory / f"{name}.txt").write_text("".join(lines),
                                                encoding="utf-8")


def query_stats(train: np.ndarray, num_entities: int,
                num_relations: int) -> dict[str, float]:
    """Drift guards for the generated input: unique queries, singleton
    share, the largest query count and mean answers per query, over both
    query directions of the training split."""
    h, rel, t = train[:, 0], train[:, 1], train[:, 2]
    tail_q = h * num_relations + rel
    head_q = (num_entities + t) * num_relations + rel
    _, counts = np.unique(np.concatenate([tail_q, head_q]),
                          return_counts=True)
    return {"unique_queries": int(counts.size),
            "singleton_share": float((counts == 1).mean()),
            "max_query_count": int(counts.max()),
            "answers_per_query": float(counts.mean())}
