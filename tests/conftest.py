"""Shared fixtures: synthetic knowledge graphs and numerical oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from kgesub.data import (DIRECTION_NAMES, Dataset, Direction, QueryIndex,
                         Vocab, _parse_triples)
from kgesub.errors import DataError, DegenerateInputError
from kgesub.evaluation import rank_answers
from kgesub.models import ModelKind, ModelParams, score_block
from kgesub.subsampling import (Provenance, SubModelScores, WeightTable,
                                discounted_weights, uniform_weights)
from kgesub.training import batch_loss


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


class QueryKey(NamedTuple):
    """A dict oracles' query key, in `QueryIndex` id order."""
    direction: Direction
    entity: int
    relation: int


def as_triples(rows) -> list[Triple]:
    """The rows of an (N, 3) id array (or any triple sequence) as
    `Triple`s of Python ints."""
    return [Triple(*row) for row in np.asarray(rows, dtype=np.int64)
            .reshape(-1, 3).tolist()]


def query_of(triple: Triple, direction: Direction) -> QueryKey:
    """The query obtained by blanking the answer slot of `triple`."""
    if direction == Direction.TAIL_QUERY:
        return QueryKey(Direction.TAIL_QUERY, triple.head, triple.relation)
    return QueryKey(Direction.HEAD_QUERY, triple.tail, triple.relation)


def answer_of(triple: Triple, direction: Direction) -> int:
    """The entity filling the blanked slot of `triple`."""
    return triple.tail if direction == Direction.TAIL_QUERY else triple.head


def make_vocab(num_entities: int, num_relations: int) -> Vocab:
    return Vocab(tuple(f"e{i}" for i in range(num_entities)),
                 tuple(f"r{j}" for j in range(num_relations)))


def save_dataset(dataset: Dataset, directory) -> None:
    """Write a dataset as train/valid/test.txt with its labels, the
    layout `load_dataset` reads."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entities = np.array(dataset.vocab.entity_labels, dtype=object)
    relations = np.array(dataset.vocab.relation_labels, dtype=object)
    for split in ("train", "valid", "test"):
        ids = getattr(dataset, split)
        with open(directory / f"{split}.txt", "w", encoding="utf-8") as fh:
            fh.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in zip(
                entities[ids[:, 0]], relations[ids[:, 1]],
                entities[ids[:, 2]]))


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
    Each (head, relation) has top_k possible tails, so asking for more
    links than num_entities * num_relations * top_k raises ValueError.
    """
    if num_links > num_entities * num_relations * min(top_k, num_entities):
        raise ValueError(
            f"{num_links} distinct links cannot be drawn from "
            f"{num_entities} entities x {num_relations} relations x "
            f"{top_k} tails")
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
    train = as_triples(dataset.train)
    repeats = [train[i] for i in
               rng.integers(0, len(train), size=20).tolist()]
    return Dataset(train=train + loops + repeats, valid=dataset.valid,
                   test=dataset.test, vocab=dataset.vocab)


@pytest.fixture
def toy_triples() -> list[Triple]:
    """(e1,r1,e2), (e1,r1,e3), (e2,r1,e3) with e1=0, e2=1, e3=2."""
    return [Triple(0, 0, 1), Triple(0, 0, 2), Triple(1, 0, 2)]


@pytest.fixture
def toy_dataset(toy_triples) -> Dataset:
    return Dataset(train=toy_triples, valid=[toy_triples[0]],
                   test=[toy_triples[2]], vocab=make_vocab(3, 1))


# ---------------------------------------------------------------------------
# oracles, and the views of the library that only tests use


def answers_of(index: QueryIndex, query_id: int) -> np.ndarray:
    """Sorted distinct answers of one query of `index`."""
    return index.answers[index.offsets[query_id]:index.offsets[query_id + 1]]


def find(index: QueryIndex, directions, entities, relations) -> np.ndarray:
    """Query id of each (direction, entity, relation) in `index`, -1
    where the index does not hold the query: a binary search on the
    packed keys, which ascend with the query ids."""
    def packed(directions, entities, relations):
        return ((np.asarray(directions, dtype=np.int64) * index.num_entities
                 + entities) * index.num_relations + relations)
    key = packed(index.direction, index.entity, index.relation)
    keys = packed(directions, entities, relations)
    pos = np.searchsorted(key, keys)
    found = pos < len(key)
    found[found] = key[pos[found]] == keys[found]
    return np.where(found, pos, -1)


def filtered_rank(params: ModelParams, query: QueryKey, answer: int,
                  known_true: set[int] | frozenset[int]) -> int:
    """Rank of `answer` among all entities after filtering known answers,
    by the ranking of `evaluation.evaluate`: over the index of the
    query's known answers and the answer itself."""
    direction, entity, relation = query
    others = sorted(set(known_true) | {answer})
    triples = [(entity, relation, other) if direction == Direction.TAIL_QUERY
               else (other, relation, entity) for other in others]
    index = QueryIndex.build(triples, params.num_entities,
                             params.num_relations)
    query_id = find(index, [direction], [entity], [relation])
    return int(rank_answers(params, index, query_id, np.array([answer]))[0])


def score_and_grad(params: ModelParams, h: np.ndarray, r: np.ndarray,
                   t: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(B, K) scores of (B, K, dim) head and tail rows h and t under
    (B, 1, dim_r) relation rows r, and d score / d h, d r and d t, each
    (B, K, width): one-candidate tail queries of `models.score_block`."""
    shape = np.broadcast_shapes(h.shape[:-1], r.shape[:-1], t.shape[:-1])
    h, r, t = (np.broadcast_to(x, shape + x.shape[-1:]).reshape(
        -1, x.shape[-1]) for x in (h, r, t))
    scores, back = score_block(params, True, h, r, t[:, None])
    return (scores.reshape(shape), *(g.reshape(shape + (-1,))
                                     for g in back(np.ones(scores.shape))))


def singleton_rows(columns: tuple[np.ndarray, ...]) -> list:
    """`data.singleton_query_stats` as (key, entity count, relation
    count) rows."""
    return [(QueryKey(Direction(d), e, r), ce, cr) for d, e, r, ce, cr
            in zip(*(column.tolist() for column in columns))]


# Scalar oracles for the batched training step: the per-triple scorers,
# the per-example loss with dict-of-rows gradients, and the row-at-a-time
# optimizer update that `models.score_block`, `training.batch_loss`
# and `training._apply_update` replaced.


def _safe_div(num: np.ndarray, den: np.ndarray | float) -> np.ndarray:
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den != 0)
    return out


def _complex_view(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return rows[:, 0::2], rows[:, 1::2]


def _score_rows(params: ModelParams, h: np.ndarray, r: np.ndarray,
                t: np.ndarray) -> np.ndarray:
    """Scores of stacked (n, dim) rows; r may be one row, broadcast."""
    kind = params.kind
    r = r if r.ndim == 2 else r[None, :]
    if kind == ModelKind.TRANSE:
        d = h + r - t
        if params.aux.get("norm_p", 1.0) == 1.0:
            return -np.abs(d).sum(axis=1)
        return -np.sqrt((d * d).sum(axis=1))
    if kind == ModelKind.DISTMULT:
        return (h * r * t).sum(axis=1)
    if kind == ModelKind.COMPLEX:
        h_re, h_im = _complex_view(h)
        t_re, t_im = _complex_view(t)
        r_re, r_im = _complex_view(r)
        return (r_re * (h_re * t_re + h_im * t_im)
                + r_im * (h_re * t_im - h_im * t_re)).sum(axis=1)
    if kind == ModelKind.ROTATE:
        h_re, h_im = _complex_view(h)
        t_re, t_im = _complex_view(t)
        cos_r, sin_r = np.cos(r), np.sin(r)
        u_re = h_re * cos_r - h_im * sin_r - t_re
        u_im = h_re * sin_r + h_im * cos_r - t_im
        return -np.sqrt(u_re * u_re + u_im * u_im).sum(axis=1)
    half = params.dim // 2
    v = (np.abs(h[:, :half]) * np.abs(r[:, :half]) - np.abs(t[:, :half]))
    theta = (h[:, half:] + r[:, half:] - t[:, half:]) / 2.0
    return -(np.sqrt((v * v).sum(axis=1))
             + params.aux["phase_weight"] * np.abs(np.sin(theta)).sum(axis=1))


def score(params: ModelParams, triple: Triple) -> float:
    """Plausibility score of a single triple."""
    ent, rel = params.entity_emb, params.relation_emb
    return float(_score_rows(params, ent[triple.head][None],
                             rel[triple.relation], ent[triple.tail][None])[0])


def score_batch(params: ModelParams, query: QueryKey,
                candidates: np.ndarray) -> np.ndarray:
    """Scores of candidate answers to one query."""
    cand_rows = params.entity_emb[np.asarray(candidates, dtype=np.int64)]
    fixed = np.broadcast_to(params.entity_emb[query.entity], cand_rows.shape)
    r = params.relation_emb[query.relation]
    if query.direction == Direction.TAIL_QUERY:
        return _score_rows(params, fixed, r, cand_rows)
    return _score_rows(params, cand_rows, r, fixed)


def score_gradient(params: ModelParams, triple: Triple):
    """(d score / d head_row, d/d relation_row, d/d tail_row) of one
    triple."""
    kind = params.kind
    h = params.entity_emb[triple.head]
    t = params.entity_emb[triple.tail]
    r = params.relation_emb[triple.relation]
    if kind == ModelKind.TRANSE:
        d = h + r - t
        if params.aux.get("norm_p", 1.0) == 1.0:
            g = -np.sign(d)
        else:
            g = -_safe_div(d, math.sqrt(float((d * d).sum())))
        return g.copy(), g.copy(), -g
    if kind == ModelKind.DISTMULT:
        return r * t, h * t, h * r
    if kind == ModelKind.COMPLEX:
        h_re, h_im = h[0::2], h[1::2]
        t_re, t_im = t[0::2], t[1::2]
        r_re, r_im = r[0::2], r[1::2]
        g_h, g_r, g_t = np.empty_like(h), np.empty_like(r), np.empty_like(t)
        g_h[0::2] = r_re * t_re + r_im * t_im
        g_h[1::2] = r_re * t_im - r_im * t_re
        g_r[0::2] = h_re * t_re + h_im * t_im
        g_r[1::2] = h_re * t_im - h_im * t_re
        g_t[0::2] = r_re * h_re - r_im * h_im
        g_t[1::2] = r_re * h_im + r_im * h_re
        return g_h, g_r, g_t
    if kind == ModelKind.ROTATE:
        h_re, h_im = h[0::2], h[1::2]
        t_re, t_im = t[0::2], t[1::2]
        cos_r, sin_r = np.cos(r), np.sin(r)
        u_re = h_re * cos_r - h_im * sin_r - t_re
        u_im = h_re * sin_r + h_im * cos_r - t_im
        m = np.sqrt(u_re * u_re + u_im * u_im)
        w_re, w_im = _safe_div(u_re, m), _safe_div(u_im, m)
        g_h, g_t = np.empty_like(h), np.empty_like(t)
        g_h[0::2] = -(w_re * cos_r + w_im * sin_r)
        g_h[1::2] = -(-w_re * sin_r + w_im * cos_r)
        g_t[0::2] = w_re
        g_t[1::2] = w_im
        g_r = -(w_re * (-(h_re * sin_r + h_im * cos_r))
                + w_im * (h_re * cos_r - h_im * sin_r))
        return g_h, g_r, g_t
    half = params.dim // 2
    w_p = params.aux["phase_weight"]
    h_mod, h_phase = h[:half], h[half:]
    t_mod, t_phase = t[:half], t[half:]
    r_mod, r_phase = r[:half], r[half:]
    v = np.abs(h_mod) * np.abs(r_mod) - np.abs(t_mod)
    vn = _safe_div(v, math.sqrt(float((v * v).sum())))
    theta = (h_phase + r_phase - t_phase) / 2.0
    phase_g = w_p * np.sign(np.sin(theta)) * np.cos(theta) * 0.5
    g_h, g_t, g_r = np.empty_like(h), np.empty_like(t), np.zeros_like(r)
    g_h[:half] = -vn * np.abs(r_mod) * np.sign(h_mod)
    g_h[half:] = -phase_g
    g_t[:half] = vn * np.sign(t_mod)
    g_t[half:] = phase_g
    g_r[:half] = -vn * np.abs(h_mod) * np.sign(r_mod)
    g_r[half:] = -phase_g
    return g_h, g_r, g_t


@dataclass
class TrainExample:
    triple: Triple
    direction: Direction
    weight_a: float = 1.0
    weight_b: float = 1.0


def _negative_triple(example: TrainExample, candidate: int) -> Triple:
    h, r, t = example.triple
    if example.direction == Direction.TAIL_QUERY:
        return Triple(h, r, candidate)
    return Triple(candidate, r, t)


def _accumulate(grads: dict, key: tuple[str, int], value: np.ndarray) -> None:
    if key in grads:
        grads[key] = grads[key] + value
    else:
        grads[key] = value.copy()


def _log_sigmoid(z):
    return -np.logaddexp(0.0, -z)


def oracle_ns_loss(params: ModelParams, example: TrainExample,
                   negatives: np.ndarray, adversarial_beta: float = 0.0):
    """Loss and ("entity" | "relation", row) gradients of one example,
    one score and one score_gradient call per triple."""
    gamma = params.gamma
    s_pos = score(params, example.triple)
    s_neg = score_batch(params, query_of(example.triple, example.direction),
                        negatives)
    nu = len(negatives)
    if adversarial_beta > 0.0:
        z = adversarial_beta * s_neg
        z = z - z.max()
        neg_w = np.exp(z) / np.exp(z).sum()
    else:
        neg_w = np.full(nu, 1.0 / nu)
    loss = -(example.weight_a * _log_sigmoid(s_pos + gamma)
             + float(neg_w @ _log_sigmoid(-s_neg - gamma)) * example.weight_b)
    grads: dict = {}
    triples = [example.triple] + [_negative_triple(example, int(c))
                                  for c in negatives]
    coeffs = [-example.weight_a * np.exp(_log_sigmoid(-(s_pos + gamma)))]
    coeffs += list(example.weight_b * neg_w
                   * np.exp(_log_sigmoid(s_neg + gamma)))
    for triple, c in zip(triples, coeffs):
        g_h, g_r, g_t = score_gradient(params, triple)
        _accumulate(grads, ("entity", triple.head), c * g_h)
        _accumulate(grads, ("relation", triple.relation), c * g_r)
        _accumulate(grads, ("entity", triple.tail), c * g_t)
    return float(loss), grads


def oracle_batch_loss(params: ModelParams, batch, adversarial_beta=0.0):
    """Mean loss and mean row gradients over (example, negatives) pairs,
    accumulated in batch order."""
    total = 0.0
    grads: dict = {}
    for example, negatives in batch:
        loss, example_grads = oracle_ns_loss(params, example, negatives,
                                             adversarial_beta)
        total += loss
        for key, g in example_grads.items():
            _accumulate(grads, key, g)
    scale = 1.0 / len(batch)
    return total * scale, {key: g * scale for key, g in grads.items()}


def oracle_apply_update(params: ModelParams, opt, grads: dict, rate: float,
                        step: int, config) -> None:
    """SGD or lazy Adam, one dict row at a time."""
    matrices = {"entity": params.entity_emb, "relation": params.relation_emb}
    if opt.kind == "sgd":
        for (name, row), g in grads.items():
            matrices[name][row] -= rate * g
        return
    moments = {"entity": (opt.m_entity, opt.v_entity),
               "relation": (opt.m_relation, opt.v_relation)}
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_epsilon
    bc1, bc2 = 1.0 - b1 ** step, 1.0 - b2 ** step
    for (name, row), g in grads.items():
        m, v = moments[name]
        m[row] = b1 * m[row] + (1.0 - b1) * g
        v[row] = b2 * v[row] + (1.0 - b2) * (g * g)
        matrices[name][row] -= rate * (m[row] / bc1) / (
            np.sqrt(v[row] / bc2) + eps)


def row_dict(grads) -> dict:
    """`training.Gradients` keyed like the dict oracles."""
    out = {("entity", int(row)): g
           for row, g in zip(grads.entity_rows, grads.entity)}
    out.update({("relation", int(row)): g
                for row, g in zip(grads.relation_rows, grads.relation)})
    return out


def example_batch_loss(params: ModelParams, batch, adversarial_beta=0.0):
    """`training.batch_loss` of (example, negatives) pairs: the examples'
    triples become the training split of a dataset sized like params."""
    dataset = Dataset(train=[example.triple for example, _ in batch],
                      valid=[], test=[],
                      vocab=make_vocab(params.num_entities,
                                       params.num_relations))
    weights = uniform_weights(dataset.num_examples)
    ids = np.array([2 * i + int(example.direction)
                    for i, (example, _) in enumerate(batch)], dtype=np.int64)
    weights.a[ids] = [example.weight_a for example, _ in batch]
    weights.b[ids] = [example.weight_b for example, _ in batch]
    negatives = np.array([np.asarray(n, dtype=np.int64) for _, n in batch])
    loss, grads = batch_loss(params, dataset.train_index, ids, negatives,
                             weights, adversarial_beta)
    return loss, row_dict(grads)


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
    train = as_triples(train)
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
    for triple in as_triples(triples):
        for direction in _DIRECTIONS:
            key = query_of(triple, direction)
            counts[key] = counts.get(key, 0) + 1
    return counts


def oracle_query_index(triples, num_entities: int,
                       num_relations: int) -> tuple[np.ndarray, ...]:
    """The arrays of `QueryIndex.build`, in field order, by the earlier
    builder: `np.unique` of the packed query keys, then a second sort of
    the (query id, answer) pairs."""
    ids = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    entities = ids[:, [0, 2]].ravel()
    relations = np.repeat(ids[:, 1], 2)
    answer = ids[:, [2, 0]].ravel()
    directions = np.tile(np.array([0, 1]), len(ids))
    key, query_id = np.unique(
        (directions * num_entities + entities) * num_relations + relations,
        return_inverse=True)
    query_id = query_id.reshape(-1)
    rest, relation = np.divmod(key, num_relations)
    direction, entity = np.divmod(rest, num_entities)
    pairs = np.sort(query_id * num_entities + answer)
    owner, answers = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0],
                               num_entities)
    offsets = np.zeros(len(key) + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=len(key)), out=offsets[1:])
    return (query_id, answer, direction, entity, relation,
            np.bincount(query_id, minlength=len(key)), offsets, answers)


def oracle_answer_sets(triples: list[Triple]) -> dict:
    """The set of answers observed for each query key."""
    index: dict[QueryKey, set[int]] = {}
    for triple in as_triples(triples):
        for direction in _DIRECTIONS:
            index.setdefault(query_of(triple, direction), set()).add(
                answer_of(triple, direction))
    return index


def oracle_counted_frequencies(train: list[Triple], smoothing: float):
    """Per-example (link, query) counted frequencies: smoothed query
    counts, and for a link the mean of its two query counts."""
    counts = oracle_query_counts(train)
    f_xy, f_x = [], []
    for triple in as_triples(train):
        tail, head = (counts[query_of(triple, d)] + smoothing
                      for d in _DIRECTIONS)
        f_xy += [(tail + head) / 2.0] * 2
        f_x += [tail, head]
    return np.array(f_xy), np.array(f_x)


def mbs_weights(log_f, method, alpha: float,
                submodel_id: str | None = None) -> WeightTable:
    """The model-based table of log frequencies (log f_xy, log f_x)."""
    return discounted_weights(*log_f, method, alpha, Provenance(
        "mbs", method.value, alpha=alpha, submodel_id=submodel_id))


def oracle_logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) shifted by the maximum."""
    peak = x.max()
    return np.log(np.exp(x - peak).sum()) + peak


def oracle_log_model_frequencies(train: list[Triple], raw: np.ndarray):
    """Per-example (log link, log query) model frequencies: log |D| plus
    the log softmax of the raw scores, and for a query the log-sum-exp
    of its examples' link terms, shifted by their maximum and summed in
    example order."""
    log_f_xy = raw + (math.log(len(raw)) - oracle_logsumexp(raw))
    queries = [query_of(triple, direction) for triple in as_triples(train)
               for direction in _DIRECTIONS]
    peak: dict[QueryKey, float] = {}
    for q, value in zip(queries, log_f_xy):
        peak[q] = max(peak.get(q, -math.inf), value)
    mass: dict[QueryKey, float] = {}
    for q, value in zip(queries, log_f_xy):
        mass[q] = mass.get(q, 0.0) + np.exp(value - peak[q])
    return log_f_xy, np.array([np.log(mass[q]) + peak[q] for q in queries])


def oracle_mean_one(x: np.ndarray) -> np.ndarray:
    """exp(x) scaled to mean 1, in log space."""
    return len(x) * np.exp(x - oracle_logsumexp(x))


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


def oracle_complement_negatives(nu: int, rng: np.random.Generator,
                                answer_sets: list[set[int]],
                                num_entities: int) -> np.ndarray:
    """The same uniform ranks as `training.sample_negatives` draws, each
    looked up in an explicit list of the query's non-answers."""
    free = [[e for e in range(num_entities) if e not in answers]
            for answers in answer_sets]
    ranks = rng.integers(0, np.array([[len(f)] for f in free]),
                         size=(len(free), nu))
    return np.array([[f[u] for u in row]
                     for f, row in zip(free, ranks.tolist())],
                    dtype=np.int64).reshape(len(free), nu)


def oracle_singleton_query_stats(train: list[Triple]) -> list:
    """(key, entity count, relation count) of each query asked once,
    by entity count, then relation count, descending, then key."""
    counts = oracle_query_counts(train)
    entity_count: dict[int, int] = {}
    relation_count: dict[int, int] = {}
    for h, r, t in as_triples(train):
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
    for i, triple in enumerate(as_triples(train)):
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


def load_triples(path, existing_vocab: Vocab = Vocab()
                 ) -> tuple[np.ndarray, Vocab]:
    """`data._parse_triples` of one file: its read-only (N, 3) ids, and
    the vocabulary of `existing_vocab`'s labels then the file's unseen
    ones, in first-appearance order."""
    to_ids = [dict(zip(labels, range(len(labels)))) for labels in (
        existing_vocab.entity_labels, existing_vocab.relation_labels)]
    return _parse_triples(Path(path), *to_ids), Vocab(*map(tuple, to_ids))


# Line-by-line text readers that the block-wise `load_triples`,
# `load_scores` and `load_weight_table` replaced, kept as their oracles:
# one Python loop iteration and one error check per line.


def _oracle_text_lines(path: Path):
    lineno = 0
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}:{lineno + 1}: not UTF-8 text at or after "
                        f"this line ({exc.reason})") from None


def oracle_load_triples(path, existing_vocab: Vocab = Vocab()):
    path = Path(path)
    labels = {"entity": list(existing_vocab.entity_labels),
              "relation": list(existing_vocab.relation_labels)}
    to_id = {kind: {label: i for i, label in enumerate(known)}
             for kind, known in labels.items()}

    def label_id(kind: str, label: str) -> int:
        eid = to_id[kind].get(label)
        if eid is None:
            eid = len(labels[kind])
            to_id[kind][label] = eid
            labels[kind].append(label)
        return eid

    triples: list[Triple] = []
    for lineno, line in _oracle_text_lines(path):
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(
                f"{path}:{lineno}: expected 3 tab-separated fields, "
                f"got {len(parts)}")
        h, r, t = parts
        triples.append(Triple(label_id("entity", h),
                              label_id("relation", r),
                              label_id("entity", t)))
    if not triples:
        raise DataError(f"{path}: no triples found")
    return triples, Vocab(tuple(labels["entity"]), tuple(labels["relation"]))


def _oracle_provenance(comment: str) -> Provenance:
    fields = dict(item.split("=", 1) for item in comment[1:].split()
                  if "=" in item)

    def opt_float(key: str) -> float | None:
        value = fields.get(key, "-")
        return None if value == "-" else float(value)
    submodel = fields.get("submodel", "-")
    return Provenance(source=fields.get("source", "unknown"),
                      method=fields.get("method", "unknown"),
                      alpha=opt_float("alpha"), lam=opt_float("lambda"),
                      submodel_id=None if submodel == "-" else submodel)


def oracle_load_weight_table(path) -> WeightTable:
    path = Path(path)
    provenance = Provenance(source="unknown", method="unknown")
    a: list[float] = []
    b: list[float] = []
    for lineno, line in _oracle_text_lines(path):
        try:
            if line.startswith("#"):
                provenance = _oracle_provenance(line)
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields")
            if int(parts[0]) != len(a):
                raise DataError(f"{path}:{lineno}: example ids must be dense")
            if parts[1] not in DIRECTION_NAMES:
                raise DataError(f"{path}:{lineno}: bad direction {parts[1]!r}")
            weights = float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not all(0.0 < w < math.inf for w in weights):
            raise DataError(f"{path}:{lineno}: weights must be finite and "
                            "positive")
        a.append(weights[0])
        b.append(weights[1])
    if not a:
        raise DataError(f"{path}: empty weight table")
    return WeightTable(a=np.array(a), b=np.array(b), provenance=provenance)


def oracle_load_scores(path) -> SubModelScores:
    path = Path(path)
    submodel_id = "unknown"
    values: list[float] = []
    for lineno, line in _oracle_text_lines(path):
        if line.startswith("#"):
            # the id is the rest of its header line
            if line.startswith("# submodel="):
                submodel_id = line[len("# submodel="):]
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 fields")
        try:
            if int(parts[0]) != len(values):
                raise DataError(f"{path}:{lineno}: example ids must be dense")
            values.append(float(parts[1]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    if not values:
        raise DataError(f"{path}: empty score file")
    return SubModelScores(raw_score=np.array(values), submodel_id=submodel_id)
