"""Shared fixtures: synthetic knowledge graphs and numerical oracles."""

from __future__ import annotations

import numpy as np
import pytest

from kgesub.data import (Dataset, Direction, QueryKey, Triple, Vocab,
                         answer_of, query_of)
from kgesub.errors import DegenerateInputError
from kgesub.models import ModelKind, ModelParams, score


def make_vocab(num_entities: int, num_relations: int) -> Vocab:
    vocab = Vocab()
    for i in range(num_entities):
        vocab.entity_id(f"e{i}")
    for j in range(num_relations):
        vocab.relation_id(f"r{j}")
    return vocab.freeze()


def random_triples(rng: np.random.Generator, num_entities: int,
                   num_relations: int, count: int) -> list[Triple]:
    heads = rng.integers(0, num_entities, size=count)
    rels = rng.integers(0, num_relations, size=count)
    tails = rng.integers(0, num_entities, size=count)
    return [Triple(int(h), int(r), int(t))
            for h, r, t in zip(heads, rels, tails)]


def random_kg(rng: np.random.Generator, num_entities: int = 10,
              num_relations: int = 3, num_train: int = 40,
              num_valid: int = 8, num_test: int = 8) -> Dataset:
    return Dataset(
        train=random_triples(rng, num_entities, num_relations, num_train),
        valid=random_triples(rng, num_entities, num_relations, num_valid),
        test=random_triples(rng, num_entities, num_relations, num_test),
        vocab=make_vocab(num_entities, num_relations))


def zipf_kg(seed: int, num_entities: int = 50, num_relations: int = 5,
            num_links: int = 620, latent: int = 3, top_k: int = 3,
            num_valid: int = 60, num_test: int = 60) -> Dataset:
    """Sparse synthetic KG with Zipf-skewed query frequencies.

    Entities live at latent positions and each relation is a latent
    offset; a link's tail is one of the nearest neighbors of the
    translated head, so the graph has learnable structure.  Heads and
    relations are drawn with probability proportional to 1/rank, which
    skews the query counts the way real KG benchmarks are skewed.
    """
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1, 1, size=(num_entities, latent))
    offsets = rng.uniform(-1, 1, size=(num_relations, latent))
    pop = 1.0 / np.arange(1, num_entities + 1)
    pop /= pop.sum()
    rel_p = 1.0 / np.arange(1, num_relations + 1)
    rel_p /= rel_p.sum()
    seen: set[tuple[int, int, int]] = set()
    triples: list[Triple] = []
    while len(triples) < num_links:
        h = int(rng.choice(num_entities, p=pop))
        r = int(rng.choice(num_relations, p=rel_p))
        target = positions[h] + offsets[r]
        dist = np.linalg.norm(positions - target, axis=1)
        dist[h] = np.inf
        t = int(rng.choice(np.argsort(dist)[:top_k]))
        if (h, r, t) in seen:
            continue
        seen.add((h, r, t))
        triples.append(Triple(h, r, t))
    order = rng.permutation(len(triples))
    triples = [triples[i] for i in order]
    num_train = len(triples) - num_valid - num_test
    return Dataset(train=triples[:num_train],
                   valid=triples[num_train:num_train + num_valid],
                   test=triples[num_train + num_valid:],
                   vocab=make_vocab(num_entities, num_relations))


def looped_zipf_kg(seed: int, **kwargs) -> Dataset:
    """`zipf_kg` whose training split also holds self-loops and repeated
    triples."""
    dataset = zipf_kg(seed, **kwargs)
    rng = np.random.default_rng([seed, 1])
    loops = [Triple(e, int(rng.integers(dataset.num_relations)), e)
             for e in rng.integers(0, dataset.num_entities, size=12).tolist()]
    repeats = [dataset.train[i] for i in
               rng.integers(0, len(dataset.train), size=20).tolist()]
    return Dataset(train=dataset.train + loops + repeats, valid=dataset.valid,
                   test=dataset.test, vocab=dataset.vocab)


@pytest.fixture
def toy_triples() -> list[Triple]:
    """(e1,r1,e2), (e1,r1,e3), (e2,r1,e3) with e1=0, e2=1, e3=2."""
    return [Triple(0, 0, 1), Triple(0, 0, 2), Triple(1, 0, 2)]


@pytest.fixture
def toy_dataset(toy_triples) -> Dataset:
    return Dataset(train=toy_triples, valid=[toy_triples[0]],
                   test=[toy_triples[2]], vocab=make_vocab(3, 1))


def random_params(kind: ModelKind, num_entities: int, num_relations: int,
                  dim: int, seed: int, gamma: float = 2.0,
                  aux: dict[str, float] | None = None) -> ModelParams:
    from kgesub.models import init_params
    return init_params(kind, num_entities, num_relations, dim, gamma, seed,
                       aux=aux)


# ---------------------------------------------------------------------------
# oracles


def fd_score_row_gradients(params: ModelParams, triple: Triple,
                           step: float = 1e-5) -> dict:
    """Central finite differences of score() w.r.t. each touched row.

    Keys are ("entity", id) / ("relation", id); a head == tail triple
    yields one combined entity-row gradient, matching how analytic slot
    gradients must be accumulated.
    """
    rows = {("entity", triple.head), ("relation", triple.relation),
            ("entity", triple.tail)}
    out = {}
    for name, row in rows:
        matrix = (params.entity_emb if name == "entity"
                  else params.relation_emb)
        grad = np.zeros(matrix.shape[1])
        for j in range(matrix.shape[1]):
            original = matrix[row, j]
            matrix[row, j] = original + step
            up = score(params, triple)
            matrix[row, j] = original - step
            down = score(params, triple)
            matrix[row, j] = original
            grad[j] = (up - down) / (2.0 * step)
        out[(name, row)] = grad
    return out


def fd_function_row_gradients(fn, params: ModelParams, rows,
                              step: float = 1e-5) -> dict:
    """Central finite differences of an arbitrary scalar fn(params)."""
    out = {}
    for name, row in rows:
        matrix = (params.entity_emb if name == "entity"
                  else params.relation_emb)
        grad = np.zeros(matrix.shape[1])
        for j in range(matrix.shape[1]):
            original = matrix[row, j]
            matrix[row, j] = original + step
            up = fn(params)
            matrix[row, j] = original - step
            down = fn(params)
            matrix[row, j] = original
            grad[j] = (up - down) / (2.0 * step)
        out[(name, row)] = grad
    return out


def max_relative_error(analytic: dict, numeric: dict) -> float:
    worst = 0.0
    for key, fd in numeric.items():
        got = analytic[key]
        err = np.abs(got - fd).max() / max(1.0, np.abs(fd).max())
        worst = max(worst, float(err))
    return worst


def brute_force_query_counts(train: list[Triple]) -> dict:
    """O(n^2) recount: for each query of each triple, scan all triples."""
    counts = {}
    for triple in train:
        tail_key = (0, triple.head, triple.relation)
        head_key = (1, triple.tail, triple.relation)
        if tail_key not in counts:
            counts[tail_key] = sum(
                1 for other in train
                if other.head == triple.head
                and other.relation == triple.relation)
        if head_key not in counts:
            counts[head_key] = sum(
                1 for other in train
                if other.tail == triple.tail
                and other.relation == triple.relation)
    return counts


def sorted_query_counts(train: list[Triple]) -> dict:
    """Independent sort-based recount (np.unique) for large inputs."""
    ids = np.array(train, dtype=np.int64)
    tail_keys = np.stack([np.zeros(len(train), dtype=np.int64),
                          ids[:, 0], ids[:, 1]], axis=1)
    head_keys = np.stack([np.ones(len(train), dtype=np.int64),
                          ids[:, 2], ids[:, 1]], axis=1)
    keys = np.concatenate([tail_keys, head_keys], axis=0)
    unique, counts = np.unique(keys, axis=0, return_counts=True)
    return {tuple(int(v) for v in key): int(c)
            for key, c in zip(unique, counts)}


def oracle_filtered_rank(scores: np.ndarray, answer: int,
                         known_true: set[int]) -> int:
    """Reference rank: explicit sort semantics over a raw score array."""
    import math
    answer_score = scores[answer]
    better = 0
    tied = 0
    for candidate, value in enumerate(scores):
        if candidate != answer and candidate in known_true:
            continue
        if value > answer_score:
            better += 1
        elif value == answer_score and candidate != answer:
            tied += 1
    return int(math.floor(1.0 + better + tied / 2.0 + 0.5))


# Scalar oracles for the query index: the dict loops it replaced.

_DIRECTIONS = (Direction.TAIL_QUERY, Direction.HEAD_QUERY)


def oracle_query_counts(triples: list[Triple]) -> dict:
    """Examples per query key, tallied one example at a time."""
    counts: dict[QueryKey, int] = {}
    for triple in triples:
        for direction in _DIRECTIONS:
            key = query_of(triple, direction)
            counts[key] = counts.get(key, 0) + 1
    return counts


def oracle_answer_sets(triples: list[Triple]) -> dict:
    """The set of answers observed for each query key."""
    index: dict[QueryKey, set[int]] = {}
    for triple in triples:
        for direction in _DIRECTIONS:
            index.setdefault(query_of(triple, direction), set()).add(
                answer_of(triple, direction))
    return index


def oracle_counted_frequencies(train: list[Triple], smoothing: float):
    """Per-example (link, query) counted frequencies: smoothed query
    counts, and for a link the mean of its two query counts."""
    counts = oracle_query_counts(train)
    f_xy, f_x = [], []
    for triple in train:
        tail, head = (counts[query_of(triple, d)] + smoothing
                      for d in _DIRECTIONS)
        f_xy += [(tail + head) / 2.0] * 2
        f_x += [tail, head]
    return np.array(f_xy), np.array(f_x)


def oracle_mbs_query_frequencies(train: list[Triple], p: np.ndarray):
    """|D| times the probability mass of each example's query, summed
    over the query's examples in example order."""
    n = 2 * len(train)
    mass: dict[QueryKey, float] = {}
    queries = []
    for i, triple in enumerate(train):
        for direction in _DIRECTIONS:
            q = query_of(triple, direction)
            queries.append(q)
            mass[q] = mass.get(q, 0.0) + p[2 * i + int(direction)]
    return np.array([n * mass[q] for q in queries])


def oracle_sample_negatives(nu: int, rng: np.random.Generator,
                            true_answers: set[int],
                            num_entities: int) -> np.ndarray:
    """Uniform draws in batches of the number still missing, keeping
    those outside the set one at a time."""
    if len(true_answers) >= num_entities:
        raise DegenerateInputError("no false candidates")
    out = np.empty(nu, dtype=np.int64)
    filled = 0
    while filled < nu:
        for value in rng.integers(0, num_entities, size=nu - filled):
            if int(value) not in true_answers:
                out[filled] = value
                filled += 1
    return out


def oracle_singleton_query_stats(train: list[Triple]) -> list:
    """(key, entity count, relation count) of each query asked once,
    by entity count, then relation count, descending, then key."""
    counts = oracle_query_counts(train)
    entity_count: dict[int, int] = {}
    relation_count: dict[int, int] = {}
    for h, r, t in train:
        entity_count[h] = entity_count.get(h, 0) + 1
        if t != h:
            entity_count[t] = entity_count.get(t, 0) + 1
        relation_count[r] = relation_count.get(r, 0) + 1
    rows = [(key, entity_count[key.entity], relation_count[key.relation])
            for key, count in counts.items() if count == 1]
    rows.sort(key=lambda row: (-row[1], -row[2], row[0]))
    return rows


def oracle_appearance_report(train: list[Triple], cbs_b: np.ndarray,
                             mbs_b: np.ndarray, n: int,
                             smoothing: float) -> list:
    """The appearance-probability rows of the n lowest-counted queries,
    from per-query dicts of negative-side weight."""
    counts = oracle_query_counts(train)
    queries = sorted(counts)
    n = min(n, len(queries))
    mass_cbs = {q: 0.0 for q in queries}
    mass_mbs = {q: 0.0 for q in queries}
    for i, triple in enumerate(train):
        for direction in _DIRECTIONS:
            q = query_of(triple, direction)
            mass_cbs[q] += cbs_b[2 * i + int(direction)]
            mass_mbs[q] += mbs_b[2 * i + int(direction)]
    total_cbs = sum(mass_cbs.values())
    total_mbs = sum(mass_mbs.values())
    lowest = sorted(queries, key=lambda q: (counts[q], q))[:n]
    lowest.sort(key=lambda q: (-counts[q], q))
    names = ("tail-query", "head-query")
    return [(q.entity, q.relation, names[q.direction], counts[q] + smoothing,
             100.0 * mass_cbs[q] / total_cbs, 100.0 * mass_mbs[q] / total_mbs)
            for q in lowest]
