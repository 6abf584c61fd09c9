"""Embedding models: parameter storage, scoring, and analytic gradients.

Five score functions are provided.  Higher scores mean "more plausible".
All arithmetic is float64.

Embedding layouts (dim = per-entity real degrees of freedom):

============  =======================  =====================================
kind          entity row (dim)         relation row
============  =======================  =====================================
transe        plain vector             plain vector (dim)
distmult      plain vector             plain vector (dim)
complex       interleaved re,im pairs  interleaved re,im pairs (dim)
rotate        interleaved re,im pairs  dim/2 phase angles
hake          [modulus | phase]        [modulus | phase] (dim)
============  =======================  =====================================

RotatE relations are stored as phase angles so the rotation has unit
modulus by construction.  HAKE modulus parts are stored unconstrained
and passed through abs() at score time.  A HAKE relation row holds only
the modulus and phase that the score reads: the published model's
mixture bias is not part of this score function, so it is not stored.
Gradients use the subgradient convention sign(0) = 0 at the kinks of L1
terms.

Each kind has one kernel (`score_block`): a forward pass over the
candidates of same-direction queries, each query's fixed entity row
gathered once, and a vector-Jacobian product that folds the loss
coefficients into the row gradients.  `score_triples` is a view of
it over chunks of triples, each chunk's gathered rows within
`RANK_BUDGET_BYTES`; the scalar scorers it replaced, and the per-slot
gradient view the gradient checks use, live in tests/conftest.py.

`reduce_candidate_scores` owns the chunks of same-direction queries
scored against every entity, for ranking and the all-candidates mass: it
hands each chunk to the consumer's reducer to overwrite and frees it
before the next is scored.  A chunk takes one matmul for DistMult and
ComplEx, and for TransE, RotatE and HAKE direct distances over blocks of
entities.  A distance is a sum over features, taken feature by feature:
each feature gives one (queries, block) term, read from a feature-major
entity table (the transposed entity table for TransE and RotatE, the
sine and cosine of the half phases for HAKE) or, for HAKE's modulus,
from the block's |modulus| transposed into scratch.  The terms are added
in the order numpy's add.reduce adds a contiguous row (eight partial
sums of the terms j = k (mod 8) up to 128 terms, halves above), so the
scores are bitwise those of summing a (queries, block, dim) difference
over its last axis, which tests/conftest.py keeps as the oracle.
`_blocked` owns each block's scratch and its sign: it carves the block's
(queries, block) buffers (the term, the partial sums, and for RotatE a
spare) and HAKE's region (the block's |modulus| transposed, then the
phase sum and its spare) from one flat array per worker, lets the kind's
terms write the distances, and negates them.  The blocks of a chunk are
shared by one worker thread per CPU that the process may use, worker w
taking blocks w, w + W, ...  `RANK_BUDGET_BYTES` bounds the temporaries
of one chunk and the scratch of all workers together.  Every score comes
from the same operations in the same order whatever the number of
workers, so rankings do not depend on the CPU count.

Scoring and gradients are pure functions of the parameters: concurrent
readers are safe as long as a single writer applies updates between
read phases.
"""

from __future__ import annotations

import enum
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, Direction, read_container, write_container
from .errors import CheckpointError, ConfigError, VocabMismatchError

INIT_EPSILON = 2.0  # widens the uniform init range beyond gamma/dim

# Bytes of one temporary: the scores of the one ranking chunk alive or
# the scratch `_blocked` carves into its blocks, a training step's
# (examples, 1 + nu, dim) candidate rows or update rows, or the
# (triples, dim) rows of a chunk of scored triples.
RANK_BUDGET_BYTES = 4 << 20


class ModelKind(enum.Enum):
    TRANSE = "transe"
    ROTATE = "rotate"
    COMPLEX = "complex"
    DISTMULT = "distmult"
    HAKE = "hake"


_COMPLEX_KINDS = {ModelKind.ROTATE, ModelKind.COMPLEX, ModelKind.HAKE}


def relation_dim(kind: ModelKind, dim: int) -> int:
    if kind in _COMPLEX_KINDS and dim % 2 != 0:
        raise ValueError(f"{kind.value} requires an even dim, got {dim}")
    if kind == ModelKind.ROTATE:
        return dim // 2
    return dim


def default_aux(kind: ModelKind) -> dict[str, float]:
    if kind == ModelKind.TRANSE:
        return {"norm_p": 1.0}
    if kind == ModelKind.HAKE:
        return {"phase_weight": 0.5}
    return {}


@dataclass
class ModelParams:
    kind: ModelKind
    dim: int
    entity_emb: np.ndarray  # (E, dim)
    relation_emb: np.ndarray  # (R, relation_dim(kind, dim))
    gamma: float
    aux: dict[str, float] = field(default_factory=dict)

    @property
    def num_entities(self) -> int:
        return self.entity_emb.shape[0]

    @property
    def num_relations(self) -> int:
        return self.relation_emb.shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(self.kind, self.dim, self.entity_emb.copy(),
                           self.relation_emb.copy(), self.gamma,
                           dict(self.aux))


def check_vocab(params: ModelParams, dataset: Dataset) -> None:
    """Reject parameters trained on a vocabulary of another size."""
    if (params.num_entities != dataset.num_entities
            or params.num_relations != dataset.num_relations):
        raise VocabMismatchError(
            f"model covers {params.num_entities} entities / "
            f"{params.num_relations} relations, dataset has "
            f"{dataset.num_entities} / {dataset.num_relations}")


def init_params(kind: ModelKind, num_entities: int, num_relations: int,
                dim: int, gamma: float, seed: int,
                aux: dict[str, float] | None = None,
                init_epsilon: float = INIT_EPSILON) -> ModelParams:
    """Deterministic uniform initialization.

    Non-phase entries are drawn from [-b, b] with
    b = (gamma + init_epsilon) / dim; phase columns (RotatE relations,
    HAKE phase parts) are drawn from [-pi, pi].
    """
    if dim <= 0 or num_entities <= 0 or num_relations <= 0:
        raise ValueError("dims and vocabulary sizes must be positive")
    dim_r = relation_dim(kind, dim)
    merged_aux = default_aux(kind)
    merged_aux.update(aux or {})
    bound = (gamma + init_epsilon) / dim
    rng = np.random.default_rng(seed)
    entity = rng.uniform(-bound, bound, size=(num_entities, dim))
    half = dim // 2
    if kind == ModelKind.ROTATE:
        relation = rng.uniform(-math.pi, math.pi, size=(num_relations, dim_r))
    elif kind == ModelKind.HAKE:
        entity[:, half:] = rng.uniform(-math.pi, math.pi,
                                       size=(num_entities, half))
        # drawn 3 * half wide, as when rows carried an unused bias third,
        # so that every seed keeps its modulus and phase values
        relation = rng.uniform(-bound, bound, size=(num_relations, 3 * half))
        relation[:, half:dim] = rng.uniform(-math.pi, math.pi,
                                            size=(num_relations, half))
        relation = np.ascontiguousarray(relation[:, :dim])
    else:
        relation = rng.uniform(-bound, bound, size=(num_relations, dim_r))
    return ModelParams(kind=kind, dim=dim, entity_emb=entity,
                       relation_emb=relation, gamma=gamma, aux=merged_aux)


# ---------------------------------------------------------------------------
# scoring and analytic gradients


def _complex_view(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split interleaved (re, im) pairs along the last axis."""
    return rows[..., 0::2], rows[..., 1::2]


def _interleave(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape[:-1] + (2 * re.shape[-1],))
    out[..., 0::2] = re
    out[..., 1::2] = im
    return out


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den with the convention 0/0 = 0 (norm kinks)."""
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape))
    np.divide(num, den, out=out, where=den != 0)
    return out


def _cmul(a_re, a_im, b_re, b_im):
    """The complex product a * b, as (re, im) parts."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _transe(params, tail, fixed, rel, cand):
    # |h + r - t| = |q - cand| with q = h + r (tails) or t - r (heads)
    u = (fixed + rel if tail else fixed - rel)[:, None] - cand
    l1 = params.aux.get("norm_p", 1.0) == 1.0
    norm = np.abs(u).sum(axis=-1) if l1 else np.sqrt((u * u).sum(axis=-1))

    def back(c):  # d loss / d cand = c d|u| / du
        g_cand = (np.multiply(np.sign(u), c[..., None]) if l1
                  else u * _safe_div(c, norm)[..., None])
        g_q = -g_cand.sum(axis=1)
        return g_q, g_q if tail else -g_q, g_cand
    return -norm, back


def _distmult(params, tail, fixed, rel, cand):
    q = fixed * rel

    def back(c):
        g = (c[:, None] @ cand)[:, 0]
        return g * rel, g * fixed, c[..., None] * q[:, None]
    return (cand @ q[..., None])[..., 0], back


def _complex_query(tail, fixed, rel):
    """fixed * r (tails) or fixed * conj(r) (heads), interleaved: the
    ComplEx score Re <h, r, conj t> is its dot product with the answer."""
    (f_re, f_im), (r_re, r_im) = _complex_view(fixed), _complex_view(rel)
    return _interleave(*_cmul(f_re, f_im, r_re, r_im if tail else -r_im))


def _complex(params, tail, fixed, rel, cand):
    q = _complex_query(tail, fixed, rel)

    def back(c):  # d/d fixed = g conj(r'), d/d r' = g conj(fixed)
        g = (c[:, None] @ cand)[:, 0]
        return (_complex_query(not tail, g, rel),
                _complex_query(False, *((g, fixed) if tail else (fixed, g))),
                c[..., None] * q[:, None])
    return (cand @ q[..., None])[..., 0], back


def _rotation(tail, fixed, rel):
    """h * r (tails) or t * conj(r) (heads, same distance), and r used."""
    f_re, f_im = _complex_view(fixed)
    cos_r, sin_r = np.cos(rel), np.sin(rel) * (1.0 if tail else -1.0)
    return (*_cmul(f_re, f_im, cos_r, sin_r), cos_r, sin_r)


def _rotate(params, tail, fixed, rel, cand):
    q_re, q_im, cos_r, sin_r = _rotation(tail, fixed, rel)
    c_re, c_im = _complex_view(cand)
    u_re, u_im = q_re[:, None] - c_re, q_im[:, None] - c_im
    m = np.sqrt(u_re * u_re + u_im * u_im)

    def back(c):  # d loss / d cand = c u / |u| per complex coordinate
        scale = _safe_div(c[..., None], m)
        w_re, w_im = (np.multiply(u, scale, out=u) for u in (u_re, u_im))
        g_re, g_im = -w_re.sum(axis=1), -w_im.sum(axis=1)
        # q = fixed * exp(i theta), theta negated for heads: d/d fixed =
        # g * exp(-i theta), d/d theta = Im(conj(g) q)
        g_theta = g_im * q_re - g_re * q_im
        return (_interleave(*_cmul(g_re, g_im, cos_r, -sin_r)),
                g_theta if tail else -g_theta, _interleave(w_re, w_im))
    return -m.sum(axis=-1), back


def _hake(params, tail, fixed, rel, cand):
    half, weight = params.dim // 2, params.aux["phase_weight"]
    f_mod, r_mod = np.abs(fixed[:, None, :half]), np.abs(rel[:, None, :half])
    c_mod = np.abs(cand[..., :half])
    v = f_mod * r_mod - c_mod if tail else c_mod * r_mod - f_mod
    norm = np.sqrt((v * v).sum(axis=-1))
    # |sin((h + r - t) / 2)| = |sin(theta)| with theta = (a - cand) / 2,
    # a = h + r (tails) or t - r (heads), since |sin| is even
    r_phase = rel[:, half:]
    a = fixed[:, half:] + (r_phase if tail else -r_phase)
    theta = (a[:, None] - cand[..., half:]) / 2.0
    sin_theta = np.sin(theta)

    def back(c):
        g_v = v * _safe_div(c, norm)[..., None]  # -d loss / d v
        g_phase = weight * np.sign(sin_theta) * np.cos(theta) * 0.5
        g_phase *= c[..., None]  # d loss / d cand phase
        g_a = -g_phase.sum(axis=1)
        if tail:  # d loss / d |fixed|, |r| (both summed over K), |cand|
            g_sum = g_v.sum(axis=1)
            g_f, g_r, g_c = -g_sum * r_mod[:, 0], -g_sum * f_mod[:, 0], g_v
        else:
            g_f, g_r, g_c = (g_v.sum(axis=1), -(g_v * c_mod).sum(axis=1),
                             -g_v * r_mod)
        return (np.concatenate([g_f * np.sign(fixed[:, :half]), g_a], 1),
                np.concatenate([g_r * np.sign(rel[:, :half]),
                                g_a if tail else -g_a], 1),
                np.concatenate([g_c * np.sign(cand[..., :half]), g_phase], -1))
    return -(norm + weight * np.abs(sin_theta).sum(axis=-1)), back


_KERNELS = {ModelKind.TRANSE: _transe, ModelKind.DISTMULT: _distmult,
            ModelKind.COMPLEX: _complex, ModelKind.ROTATE: _rotate,
            ModelKind.HAKE: _hake}


def score_block(params: ModelParams, tail: bool, fixed: np.ndarray,
                rel: np.ndarray, cand: np.ndarray):
    """(B, K) scores of the rows `cand` (B, K, dim) as answers to queries
    whose given entity (the head when `tail`, else the tail) and relation
    have the rows `fixed` (B, dim) and `rel` (B, dim_r); and back(c), to
    call once, which maps the loss coefficients c = d loss / d score to
    the loss gradients g_fixed, g_rel and g_cand of those rows."""
    return _KERNELS[params.kind](params, tail, fixed, rel, cand)


def score_triples(params: ModelParams, heads: np.ndarray, relations: np.ndarray,
                  tails: np.ndarray) -> np.ndarray:
    """Scores of many (h, r, t) id triples, in chunks whose gathered
    (triples, dim) rows fit `RANK_BUDGET_BYTES`.  A triple's score does
    not depend on the chunk it falls in."""
    heads, relations, tails = (np.asarray(x, dtype=np.int64)
                               for x in (heads, relations, tails))
    step = max(1, RANK_BUDGET_BYTES // (8 * params.dim))
    out = np.empty(len(heads))
    for start in range(0, len(heads), step):
        rows = slice(start, start + step)
        out[rows] = score_block(params, True, params.entity_emb[heads[rows]],
                                params.relation_emb[relations[rows]],
                                params.entity_emb[tails[rows]][:, None]
                                )[0][:, 0]
    return out


def reduce_candidate_scores(params: ModelParams, directions: np.ndarray,
                            entities: np.ndarray, relations: np.ndarray,
                            reduce, dtype=np.float64) -> np.ndarray:
    """reduce(rows, scores) of each chunk of queries: one `dtype` value a
    query, in input order.

    Query i is (directions[i], entities[i], relations[i]) with the
    `Direction` convention.  The queries are sorted by direction (stable)
    and scored a full same-direction chunk at a time: `rows` are the
    chunk's input positions and `scores` its fresh (len(rows), E) scores
    of every entity as the answer, which `reduce` may overwrite and must
    not keep, so that the chunk is freed before the next is scored.
    Scores equal `score_triples` of the same triples up to rounding in
    the last bits, and do not depend on the number of workers.
    """
    order = np.argsort(np.asarray(directions), kind="stable")
    directions, entities, relations = (
        np.asarray(column, dtype=np.int64)[order]
        for column in (directions, entities, relations))
    score_chunk = _chunk_scorer(params)
    # a chunk's scores fit the budget and are no larger than the entity
    # table, which every matmul chunk reads once anyway
    step = max(1, min(params.dim,
                      RANK_BUDGET_BYTES // (8 * params.num_entities)))
    out = np.empty(len(order), dtype)
    start = 0
    while start < len(order):
        stop = min(start + step, int(np.searchsorted(
            directions, directions[start], side="right")))
        rows = order[start:stop]
        out[rows] = reduce(rows, score_chunk(
            directions[start] == Direction.TAIL_QUERY,
            params.entity_emb[entities[start:stop]],
            params.relation_emb[relations[start:stop]]))
        start = stop
    return out


# Workers of ranking and of the text writers of `subsampling`: one per
# CPU that the process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _run_workers(count: int, task) -> None:
    """task(w) for each worker w in range(count): worker 0 in the calling
    thread, each other one on a thread of its own (numpy releases the
    GIL in its ufunc loops).  Returns once every worker has, raising the
    error of the first worker that failed."""
    errors = [None] * count

    def call(w):
        try:
            task(w)
        except BaseException as exc:  # raised again below
            errors[w] = exc
    threads = [threading.Thread(target=call, args=(w,))
               for w in range(1, count)]
    for thread in threads:
        thread.start()
    call(0)
    for thread in threads:
        thread.join()
    for error in errors:
        if error is not None:
            raise error


def _blocked(num_queries: int, num_entities: int, buffers: int, block,
             extra: int = 0) -> np.ndarray:
    """(Q, E) scores, the negated distances that `block(cols, out, free,
    region)` writes for blocks of entities: those of the entities `cols`
    (a slice) into `out`, the (Q, cols) view of the result, with `free`
    a list of `buffers` (Q, cols) scratch buffers and `region` an
    (extra, cols) one, contiguous and disjoint.

    Worker w takes blocks w, w + W, ... of the W workers, each block's
    buffers carved from the worker's one flat array.  The calling thread
    allocates those arrays once per chunk, and together they fit the
    budget: fewer workers take blocks when it holds less than one entity
    each.  A block's scores come from the same operations in the same
    order whichever worker takes it and however large it is, so they do
    not depend on the worker count."""
    floats_per_entity = buffers * num_queries + extra
    count = max(1, min(_WORKERS,
                       RANK_BUDGET_BYTES // (8 * floats_per_entity)))
    size = max(1, RANK_BUDGET_BYTES // (8 * count * floats_per_entity))
    starts = range(0, num_entities, size)
    out = np.empty((num_queries, num_entities))
    scratch = [np.empty(min(size, num_entities) * floats_per_entity)
               for _ in range(min(count, len(starts)))]

    def task(w):
        for lo in starts[w::count]:
            cols = slice(lo, min(lo + size, num_entities))
            width, view = cols.stop - lo, out[:, cols]
            free, region = np.split(scratch[w][:floats_per_entity * width],
                                    [buffers * num_queries * width])
            block(cols, view, list(free.reshape(buffers, num_queries, width)),
                  region.reshape(extra, width))
            np.negative(view, out=view)
    _run_workers(count, task)
    return out


# numpy's add.reduce sums a contiguous row of n <= 128 terms in eight
# partial sums, of the terms j = k (mod 8) each, and splits longer rows
_PAIRWISE_BLOCK = 128


def _sum_buffers(n: int) -> int:
    """(Q, W) buffers that `_add_terms` of n terms needs besides `out`."""
    if n < 8:
        return 1
    if n <= _PAIRWISE_BLOCK:
        return 4
    head = n // 2 - n // 2 % 8
    return max(_sum_buffers(head), 1 + _sum_buffers(n - head))


def _add_terms(term, n: int, out: np.ndarray, free: list[np.ndarray],
               lo: int = 0) -> None:
    """Write into `out` the sum of the n (Q, W) terms lo, lo + 1, ...,
    where term(j, buf) writes term j into buf and returns it, added in
    the order of numpy's add.reduce over a contiguous row of n terms:
    below 8 terms one after another; up to 128 as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), r_k the running
    sum of the terms j = k (mod 8) below n - n % 8, then the rest one
    after another; above 128 the sum of the halves, the first of a
    multiple of 8 terms.  The eight r_k are built one after another, so
    `free` needs only `_sum_buffers(n)` buffers: free[0] takes each
    term, the others hold partial sums.  No term is negative or -0.0, so
    the reduction's initial 0.0 changes no sum and is left out."""
    if n < 8:
        term(lo, out)
        for j in range(lo + 1, lo + n):
            out += term(j, free[0])
        return
    if n > _PAIRWISE_BLOCK:
        head = n // 2 - n // 2 % 8
        _add_terms(term, head, out, free, lo)
        _add_terms(term, n - head, free[1], [free[0]] + free[2:], lo + head)
        out += free[1]
        return
    stop = lo + n - n % 8

    def stripe(k, dst):  # r_k
        term(lo + k, dst)
        for j in range(lo + k + 8, stop, 8):
            dst += term(j, free[0])
        return dst
    a, b, c = free[1:4]
    stripe(0, out)
    out += stripe(1, a)
    stripe(2, a)
    a += stripe(3, b)
    out += a
    stripe(4, a)
    a += stripe(5, b)
    stripe(6, b)
    b += stripe(7, c)
    a += b
    out += a
    for j in range(stop, lo + n):
        out += term(j, free[0])


def _feature_major(columns: np.ndarray) -> np.ndarray:
    """columns.T as a contiguous (features, E) table, copied from the
    (E, features) view `columns` a cache-sized block of entities at a
    time, which is several times faster than one transposing copy."""
    table = np.empty(columns.shape[::-1])
    for lo in range(0, len(columns), 1024):
        table[:, lo:lo + 1024] = columns[lo:lo + 1024].T
    return table


def _chunk_scorer(params: ModelParams):
    """score(tail, fixed, rel) -> (Q, E) for one chunk of queries.

    `tail` says whether the chunk asks for tails; `fixed` (Q, dim) and
    `rel` (Q, dim_r) are the rows of the given entities and relations.
    Entity-side tables are computed once, here, for all chunks:
    feature-major, so that one feature of a block of entities is a
    contiguous row.  A distance block adds one (Q, W) term per feature
    with `_add_terms`, each term from its row of the table.
    """
    kind, ent, dim = params.kind, params.entity_emb, params.dim
    num_entities = ent.shape[0]
    if kind == ModelKind.DISTMULT:
        return lambda tail, fixed, rel: (fixed * rel) @ ent.T
    if kind == ModelKind.COMPLEX:
        return lambda tail, fixed, rel: _complex_query(
            tail, fixed, rel) @ ent.T
    half = dim // 2
    # (Q, W) buffers of a block's sum over its dim (TransE) or half terms
    buffers = _sum_buffers(dim if kind == ModelKind.TRANSE else half)
    if kind in (ModelKind.TRANSE, ModelKind.ROTATE):
        ent_t = _feature_major(ent)  # RotatE: re 2j, im 2j + 1
    if kind == ModelKind.TRANSE:
        l1 = params.aux.get("norm_p", 1.0) == 1.0
        norm = np.abs if l1 else np.square

        def transe_scores(tail, fixed, rel):
            q = fixed + rel if tail else fixed - rel

            def block(cols, out, free, region):
                def term(j, buf):
                    np.subtract(q[:, j, None], ent_t[j, cols], out=buf)
                    return norm(buf, out=buf)
                _add_terms(term, dim, out, free)
                if not l1:
                    np.sqrt(out, out=out)
            return _blocked(len(q), num_entities, buffers, block)
        return transe_scores
    if kind == ModelKind.ROTATE:
        def rotate_scores(tail, fixed, rel):
            q_re, q_im, _, _ = _rotation(tail, fixed, rel)

            def block(cols, out, free, region):
                *free, spare = free

                def term(j, buf):  # |q_j - e_j| of the complex feature j
                    np.subtract(q_re[:, j, None], ent_t[2 * j, cols], out=buf)
                    buf *= buf
                    np.subtract(q_im[:, j, None], ent_t[2 * j + 1, cols],
                                out=spare)
                    buf += np.multiply(spare, spare, out=spare)
                    return np.sqrt(buf, out=buf)
                _add_terms(term, half, out, free)
            return _blocked(len(q_re), num_entities, buffers + 1, block)
        return rotate_scores
    if kind == ModelKind.HAKE:
        weight = params.aux["phase_weight"]
        cos_e = _feature_major(ent[:, half:])
        sin_e = np.empty_like(cos_e)
        count = _WORKERS

        def tables(w):  # sin and cos of e / 2 over worker w's features
            rows = slice(half * w // count, half * (w + 1) // count)
            cos_e[rows] /= 2.0
            np.sin(cos_e[rows], out=sin_e[rows])
            np.cos(cos_e[rows], out=cos_e[rows])
        _run_workers(count, tables)

        def hake_scores(tail, fixed, rel):
            f_mod, r_mod = np.abs(fixed[:, :half]), np.abs(rel[:, :half])
            f_phase, r_phase = fixed[:, half:], rel[:, half:]
            # |sin((h + r - t) / 2)| = |sin(a - e / 2)| with a from the
            # fixed side; sin(a)cos(e/2) - cos(a)sin(e/2) takes no sine
            # per (query, entity) pair
            a = (f_phase + r_phase if tail else f_phase - r_phase) / 2.0
            sin_a, cos_a = np.sin(a), np.cos(a)
            q_mod = f_mod * r_mod
            num_queries = len(a)

            def block(cols, out, free, region):
                # the region holds the block's |modulus|, transposed, and
                # once the modulus terms are added, the phase sum and the
                # spare of a phase term
                e_mod = np.abs(ent[cols, :half].T, out=region[:half])
                phase, spare = region[:2 * num_queries].reshape(
                    2, num_queries, -1)

                def modulus_term(j, buf):
                    if tail:
                        np.subtract(q_mod[:, j, None], e_mod[j], out=buf)
                    else:
                        np.multiply(e_mod[j], r_mod[:, j, None], out=buf)
                        buf -= f_mod[:, j, None]
                    return np.square(buf, out=buf)

                def phase_term(j, buf):
                    np.multiply(sin_a[:, j, None], cos_e[j, cols], out=buf)
                    buf -= np.multiply(cos_a[:, j, None], sin_e[j, cols],
                                       out=spare)
                    return np.abs(buf, out=buf)
                _add_terms(modulus_term, half, out, free)
                np.sqrt(out, out=out)  # the modulus distance
                _add_terms(phase_term, half, phase, free)
                phase *= weight
                out += phase
            return _blocked(num_queries, num_entities, buffers, block,
                            max(half, 2 * num_queries))
        return hake_scores
    raise AssertionError(f"unhandled kind {kind}")


# ---------------------------------------------------------------------------
# parameter checkpoints

def params_header(params: ModelParams, payload: str,
                  tag: str | None = None) -> dict:
    """The container header fields that describe `params`, and its
    sub-model id `tag` when given."""
    header = {"payload": payload, "kind": params.kind.value,
              "dim": params.dim, "gamma": params.gamma, "aux": params.aux,
              "num_entities": params.num_entities,
              "num_relations": params.num_relations}
    return header if tag is None else dict(header, tag=tag)


def save_params(params: ModelParams, path: str | Path,
                tag: str | None = None) -> None:
    header = params_header(params, "model-params", tag)
    write_container(path, header, {"entity_emb": params.entity_emb,
                                   "relation_emb": params.relation_emb})


def params_from_container(header: dict,
                          arrays: dict[str, np.ndarray]) -> ModelParams:
    """The parameters of a container.  Its header is input like a config
    file: kind, dim, gamma and the aux values are held to the rules of
    the run settings of those names, and the entity and relation counts
    to the rows of the tables; a breach raises CheckpointError that
    names the field."""
    from .config import check_setting  # config imports this module

    def checked(name: str, value, setting: str, *types: type):
        if types and type(value) not in types:  # bool is not a number
            raise CheckpointError(
                f"header field {name} must be "
                f"{' or '.join(t.__name__ for t in types)}, got {value!r}")
        try:
            return check_setting(setting, value)
        except (ConfigError, OverflowError) as exc:
            raise CheckpointError(f"header field {name}: {exc}") from None

    kind = ModelKind(checked("kind", header.get("kind"), "model"))
    dim = checked("dim", header.get("dim"), "dim", int)
    gamma = float(checked("gamma", header.get("gamma"), "gamma", int, float))
    aux = header.get("aux")
    if not isinstance(aux, dict) or aux.keys() != default_aux(kind).keys():
        raise CheckpointError(f"header field aux must hold the keys "
                              f"{sorted(default_aux(kind))}, got {aux!r}")
    aux = {key: float(checked(f"aux.{key}", value, key, int, float))
           for key, value in aux.items()}
    try:
        widths = (dim, relation_dim(kind, dim))
        tables = (arrays["entity_emb"], arrays["relation_emb"])
    except ValueError as exc:
        raise CheckpointError(f"header field dim: {exc}") from None
    except KeyError as exc:
        raise CheckpointError(f"no {exc} array") from None
    shapes = tuple(table.shape for table in tables)
    if any(len(shape) != 2 or shape[1] != width
           for shape, width in zip(shapes, widths)):
        raise CheckpointError(f"embedding shapes {shapes} do not fit "
                              f"{kind.value} with dim {dim}")
    for name, rows in zip(("num_entities", "num_relations"), shapes):
        value = header.get(name)
        if not (type(value) is int and value == rows[0]):
            raise CheckpointError(f"header field {name} is {value!r}, the "
                                  f"table has {rows[0]} rows")
    return ModelParams(kind=kind, dim=dim, entity_emb=tables[0],
                       relation_emb=tables[1], gamma=gamma, aux=aux)


def read_checkpoint(path: str | Path,
                    payloads=("model-params", "train-checkpoint")
                    ) -> tuple[ModelParams, str | None, dict, dict]:
    """Parameters, the sub-model id they were saved with (None without
    one), header and arrays of a checkpoint of one of `payloads`: the
    header checks that every checkpoint reader makes."""
    header, arrays = read_container(path)
    if header.get("payload") not in payloads:
        raise CheckpointError(f"{path}: unexpected payload "
                              f"{header.get('payload')!r}")
    tag = header.get("tag")
    if "tag" in header and type(tag) is not str:
        raise CheckpointError(f"{path}: header field tag must be str, "
                              f"got {tag!r}")
    return params_from_container(header, arrays), tag, header, arrays


def load_tagged_params(path: str | Path) -> tuple[ModelParams, str | None]:
    """Parameters and the sub-model id they were saved with, if any."""
    return read_checkpoint(path)[:2]


def load_params(path: str | Path) -> ModelParams:
    return load_tagged_params(path)[0]
