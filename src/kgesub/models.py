"""Embedding models: parameter storage, scoring, and analytic gradients.

Five score functions are provided.  Higher scores mean "more plausible".
All arithmetic is float64, except the float32 screening of ranking
tiles, which decides no rank by itself.

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

`reduce_candidate_scores` scores passes of same-direction queries
against every entity, for the all-candidates mass and for ranking, and
hands each to the consumer's reducer.  The mass takes float64 chunks of
(queries, E) scores: a chunk is one matmul for DistMult and ComplEx,
and for TransE, RotatE and HAKE direct distances over blocks of
entities; each is freed before the next is scored.  Ranking makes no
(queries, E) array: a pass streams its queries over float32 tiles of
entity columns, and the reducer adds up what each tile gives, reusing a
spent scratch buffer of the tile's block.

A distance is a sum over features, taken feature by feature: each
feature gives one (queries, block) term, read from a feature-major
entity table (the transposed entity table for TransE and RotatE; the
|modulus| and the cosine and sine of the half phases for HAKE).  The
terms are added in the order numpy's add.reduce adds a contiguous row
(eight partial sums of the terms j = k (mod 8) up to 128 terms, halves
above), so the float64 scores are bitwise those of summing a (queries,
block, dim) difference over its last axis, which tests/conftest.py
keeps as the oracle.  `_blocked` owns each block's scratch: it carves
the block's (queries, block) buffers (the term, the partial sums, and
for RotatE and HAKE the spares) from one flat array per worker and
lets the kind write the scores.  The blocks are shared by one worker
thread per CPU that the process may use, worker w taking blocks w,
w + W, ...  `RANK_BUDGET_BYTES` bounds the temporaries of one chunk,
the scratch of all workers together, and the scores of their tiles.
Every float64 score comes from the same operations in the same order
whatever the number of workers, so nothing depends on the CPU count.

Ranking screens every kind in float32, from float32 tables, half the
bytes: a tile is a distance block for TransE, RotatE and HAKE and one
float32 matmul for DistMult and ComplEx.  Each pass comes with a
`Screen`, an a-priori bound eps(q) of each query's float32 error and
the float64 score of any (query, entity) pair, from one fixed order of
operations: a distance pair runs the float64 block's operations in its
order, and gets its bits; a dot-product pair adds its products in
`_add_terms`' order, whatever order BLAS would take.  Float32 only
screens: the consumer decides in float64 every comparison that float32
cannot (see `evaluation`), so no rank depends on BLAS, on the tile
width or on the CPU count.

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
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .data import Dataset, Direction, read_container, write_container
from .errors import CheckpointError, ConfigError, VocabMismatchError

INIT_EPSILON = 2.0  # widens the uniform init range beyond gamma/dim

# Bytes of one temporary: the scores of the one all-candidates chunk
# alive, the scratch `_blocked` carves into its blocks, the scores of
# ranking's tiles beyond it, a training step's (examples, 1 + nu, dim)
# candidate rows or update rows, or the (triples, dim) rows of a chunk
# of scored triples.  It counts bytes, not values: a float32 block,
# which only screens the ranks that float64 decides, holds twice the
# entities of a float64 one.
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


class Screen(NamedTuple):
    """How the float32 scores of a ranking pass stand to its float64 ones.

    `bound[i]` (float64) bounds |float32 score - float64 score| of query
    i over every entity whose float32 score is finite, and
    `exact(picks, cands)` gives the float64 scores of the pairs (query
    picks[k], entity cands[k]), each from the same operations in the
    same order whatever the other pairs."""
    bound: np.ndarray
    exact: Callable[[np.ndarray, np.ndarray], np.ndarray]


def reduce_candidate_scores(params: ModelParams, directions: np.ndarray,
                            entities: np.ndarray, relations: np.ndarray,
                            reduce, dtype=np.float64,
                            screen: bool = False) -> np.ndarray:
    """One `dtype` value a query, in input order, that `reduce` makes of
    the query's scores of every entity as the answer.

    Query i is (directions[i], entities[i], relations[i]) with the
    `Direction` convention.  The queries are sorted by direction (stable)
    and taken a pass of same-direction queries at a time; `rows` are a
    pass's input positions.

    Without `screen` (the all-candidates mass) a pass is a chunk:
    reduce(rows, scores) gets its fresh float64 (len(rows), E) scores,
    which it may overwrite and must not keep, so that the chunk is freed
    before the next is scored.  The scores equal `score_triples` of the
    same triples up to rounding in the last bits, and do not depend on
    the number of workers.

    With `screen` (ranking) no (len(rows), E) array is made.
    reduce(rows, screen) gets the pass's `Screen` and returns (add,
    total): the workers call add(cols, tile, spare) with the float32
    scores of each tile of entity columns `cols` (a slice) and a spent
    scratch buffer of the tile's shape and dtype, both of which add may
    overwrite and must not keep, and total() then gives the pass's
    values.  A pass holds as many queries as leave every worker tiles of
    `_TILE` entities, and the passes of a direction are of equal size.
    Float32 only screens: the `Screen` lets the consumer decide in
    float64 every comparison that float32 cannot.
    """
    order = np.argsort(np.asarray(directions), kind="stable")
    directions, entities, relations = (
        np.asarray(column, dtype=np.int64)[order]
        for column in (directions, entities, relations))
    scorer = _SCORERS[params.kind](params,
                                   np.float32 if screen else np.float64)
    if screen:
        # every worker's tiles hold `_TILE` entities at least, or an
        # equal share of fewer
        width = min(_TILE, -(-params.num_entities // _WORKERS))
        step = RANK_BUDGET_BYTES // (_WORKERS * scorer.tile_bytes * width)
    else:
        # a chunk's scores fit the budget and hold no more queries than
        # the dim, so they are never larger than the float64 entity
        # table, which every matmul chunk reads once anyway
        step = min(params.dim,
                   RANK_BUDGET_BYTES // (8 * params.num_entities))
    step = max(1, step)
    out = np.empty(len(order), dtype)
    start = 0
    while start < len(order):
        end = int(np.searchsorted(directions, directions[start],
                                  side="right"))
        size = step
        if screen:  # the passes of a direction are of equal size
            size = -(-(end - start) // -(-(end - start) // step))
        stop = min(start + size, end)
        rows = order[start:stop]
        args = (directions[start] == Direction.TAIL_QUERY,
                params.entity_emb[entities[start:stop]],
                params.relation_emb[relations[start:stop]])
        out[rows] = (scorer.screened(rows, reduce, *args) if screen
                     else reduce(rows, scorer.scores(*args)))
        start = stop
    return out


# Workers of ranking and of the text writers of `subsampling`: one per
# CPU that the process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# Entities of a cache-sized block, which `_feature_major` copies at a time.
_BLOCK = 1024
# Entities of a ranking tile at least.  numpy 2.4 takes a (Q, W) ufunc
# with a (Q, 1) operand several times slower per element below about
# 2,730 columns (0.5 against 0.12 ns an element, 2-vCPU Xeon), so a pass
# holds no more queries than leave every worker tiles of this many.
_TILE = 4096


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
             dtype=np.float64, add=None) -> np.ndarray | None:
    """(Q, E) `dtype` scores that `block(cols, out, free)` writes for
    blocks of entities: those of the entities `cols` (a slice) into
    `out`, the (Q, cols) view of the result, with `free` a list of
    `buffers` (Q, cols) scratch buffers, contiguous, disjoint and of the
    same dtype.  With `add`, no (Q, E) array is made: `out` is one more
    buffer beyond the scratch, a tile, and add(cols, out, spare) is
    called once the block is written, `spare` the first of its spent
    scratch buffers, or one more where the block takes none.

    Worker w takes blocks w, w + W, ... of the W workers, each block's
    buffers carved from the worker's one flat array.  The calling thread
    allocates those arrays once per call, and the scratch of all of them
    fits the budget, which counts bytes, so a float32 block holds twice
    the entities of a float64 one; the tiles' scores, one buffer a
    worker beyond it, are at most the budget too, as a chunk's are.
    Fewer workers take blocks when the budget holds less than one entity
    each.  A distance block's scores come from the same operations in
    the same order whichever worker takes it and however wide it is, so
    they do not depend on the worker count; DistMult and ComplEx tiles
    are a float32 matmul, which only screens."""
    scratch_buffers = buffers if add is None else max(buffers, 1)
    bytes_per_entity = (np.dtype(dtype).itemsize * scratch_buffers
                        * num_queries)
    count = max(1, min(_WORKERS, RANK_BUDGET_BYTES // bytes_per_entity))
    size = max(1, RANK_BUDGET_BYTES // (count * bytes_per_entity))
    starts = range(0, num_entities, size)
    out = (None if add is not None
           else np.empty((num_queries, num_entities), dtype))
    floats_per_entity = (scratch_buffers + (add is not None)) * num_queries
    scratch = [np.empty(min(size, num_entities) * floats_per_entity, dtype)
               for _ in range(min(count, len(starts)))]

    def task(w):
        for lo in starts[w::count]:
            cols = slice(lo, min(lo + size, num_entities))
            width = cols.stop - lo
            free = list(scratch[w][:floats_per_entity * width].reshape(
                -1, num_queries, width))
            if add is None:
                block(cols, out[:, cols], free)
            else:
                *free, tile = free
                block(cols, tile, free[:buffers])
                add(cols, tile, free[0])
    _run_workers(count, task)
    return out


# numpy's add.reduce sums a contiguous row of n <= 128 terms in eight
# partial sums, of the terms j = k (mod 8) each, and splits longer rows
_PAIRWISE_BLOCK = 128


def _sum_buffers(n: int) -> int:
    """Buffers of out's shape that `_add_terms` of n terms needs besides
    `out`."""
    if n < 8:
        return 1
    if n <= _PAIRWISE_BLOCK:
        return 4
    head = n // 2 - n // 2 % 8
    return max(_sum_buffers(head), 1 + _sum_buffers(n - head))


def _add_terms(term, n: int, out: np.ndarray, free: list[np.ndarray],
               lo: int = 0) -> None:
    """Write into `out` the sum of the n terms lo, lo + 1, ..., of out's
    shape, where term(j, buf) writes term j into buf and returns it,
    added in the order of numpy's add.reduce over a contiguous row of n
    terms: below 8 terms one after another; up to 128 as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), r_k the running
    sum of the terms j = k (mod 8) below n - n % 8, then the rest one
    after another; above 128 the sum of the halves, the first of a
    multiple of 8 terms.  The eight r_k are built one after another, so
    `free` needs only `_sum_buffers(n)` buffers: free[0] takes each
    term, the others hold partial sums.  The reduction's initial 0.0 is
    left out, which changes no sum of terms that are not all -0.0 (and
    no comparison of any)."""
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


def _feature_major(columns: np.ndarray, dtype=np.float64,
                   fn=lambda rows: (rows,), order=None
                   ) -> tuple[tuple[np.ndarray, ...], float]:
    """The tables fn(columns)[k].T as contiguous (features, E) `dtype`
    arrays, fn elementwise and giving a tuple, made from the (E,
    features) view `columns` a block of `_BLOCK` entities at a time,
    which is several times faster than one transposing copy; the workers
    share the blocks.  A float64 value beyond float32's range becomes an
    infinity of a float32 table.

    With `order` (1 or 2), the largest finite float64 norm of that order
    of the rows of fn(columns)[0] comes too, taken from each block while
    it is in cache (0.0 without `order`).  A row without a finite norm
    holds a value beyond float32's range, so its float32 scores are not
    finite and are decided in float64 anyway."""
    tables = tuple(np.empty(columns.shape[::-1], dtype)
                   for _ in fn(columns[:0]))
    starts = range(0, len(columns), _BLOCK)
    count = max(1, min(_WORKERS, len(starts)))
    peaks = [0.0] * count  # order 2 keeps squared norms

    def task(w):
        with np.errstate(over="ignore"):
            for lo in starts[w::count]:
                parts = fn(columns[lo:lo + _BLOCK])
                for table, part in zip(tables, parts):
                    table[:, lo:lo + _BLOCK] = part.T
                if order is not None:
                    first = parts[0]
                    norms = (np.abs(first).sum(axis=1) if order == 1 else
                             np.einsum("ij,ij->i", first, first))
                    peaks[w] = max(peaks[w], float(np.max(
                        norms, where=np.isfinite(norms), initial=0.0)))
    _run_workers(count, task)
    return tables, math.sqrt(max(peaks)) if order == 2 else max(peaks)


def _half_cos(phases: np.ndarray) -> np.ndarray:
    """cos(phases / 2) of a float64 array, taken on a contiguous copy, so
    that every caller gets the same bits for the same phase."""
    return np.cos(phases / 2.0)


def _half_sin(phases: np.ndarray) -> np.ndarray:
    """sin(phases / 2), as `_half_cos`."""
    return np.sin(phases / 2.0)


def _half_angles(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos(phases / 2), sin(phases / 2)) of a float64 array from one
    tangent, t = tan(phases / 4): (1 - t^2) / (1 + t^2) and
    2t / (1 + t^2), which takes less time than a sine and a cosine.
    They lie within 2^-40 of `_half_cos` and `_half_sin`, which give the
    float64 scores; only float32 tables, which round them to float32,
    read these."""
    t = np.tan(phases / 4.0)
    square = t * t
    scale = 1.0 / (1.0 + square)
    return (1.0 - square) * scale, 2.0 * t * scale


# float32's unit roundoff u; the absolute slack of one distance term that
# covers float32's subnormals; and float32's smallest normal value, which
# bounds what rounding a product's input or result to float32 loses when
# it is subnormal or flushed to zero
_U32 = 2.0 ** -24
_TINY = 2.0 ** -64
_FLUSH = 2.0 ** -126


class _Scorer:
    """The candidate scores of one model kind: float64 chunks of every
    entity for the all-candidates mass, float32 tiles and their `Screen`
    for ranking, and the float64 scores of single pairs, from entity
    tables in `dtype` built once per `reduce_candidate_scores` call.

    A kind gives `query(tail, fixed, rel)`, a pass's query side: a tuple
    of float64 (Q, features) arrays.  `side(query)` lays it out in
    `dtype` for `block(tail, side, cols, out, free)`, which writes into
    `out` the (Q, W) scores of the entities `cols` (a slice), using the
    kind's `buffers` scratch buffers `free`.  `pair(tail, q, e, out,
    free)` writes into `out` the (P,) float64 scores of the pairs whose
    query and entity sides are the (P, features) arrays q and the
    (features, P) arrays e from `pair_side`, in one fixed order of
    operations, with `pair_buffers` scratch buffers.  `bound(tail,
    query)` is eps(q), which bounds |float32 - float64| of query q's
    finite float32 scores.  A float32 score that is not finite, which
    an overflow makes, is decided in float64 by the consumer.
    """

    def __init__(self, params: ModelParams, dtype):
        self.params, self.dtype = params, np.dtype(dtype)
        self.ent = params.entity_emb
        # float32 may overflow where float64 does not: float64 decides
        self.quiet = ({"over": "ignore", "invalid": "ignore"}
                      if self.dtype == np.float32 else {})

    @property
    def tile_bytes(self) -> int:
        """Bytes of the budget that a (query, entity) score of a ranking
        tile takes: the block's scratch, which the reducer reuses, or the
        reducer's spare where the block takes none."""
        return self.dtype.itemsize * max(self.buffers, 1)

    def feature_major(self, columns, order, fn=lambda rows: (rows,)):
        """`_feature_major` tables of `columns` in `dtype`, and with
        float32 ones, which screen, the largest norm of order `order`,
        which eps(q) reads."""
        return _feature_major(columns, self.dtype, fn,
                              order if self.dtype == np.float32 else None)

    def side(self, query):
        """The query side in `dtype`, each array (Q, features, 1), so
        that feature j is a (Q, 1) column against a block's (W,) row."""
        with np.errstate(**self.quiet):
            return tuple(x.astype(self.dtype, copy=False)[..., None]
                         for x in query)

    def scores(self, tail, fixed, rel) -> np.ndarray:
        """The (Q, E) `dtype` scores of a chunk, in blocks of entities."""
        side = self.side(self.query(tail, fixed, rel))
        return _blocked(len(fixed), len(self.ent), self.buffers,
                        partial(self.block, tail, side), self.dtype)

    def screened(self, rows, reduce, tail, fixed, rel):
        """The values of one ranking pass: `reduce` gets the pass's
        `Screen` and adds up its float32 tiles."""
        query = self.query(tail, fixed, rel)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = self.bound(tail, query)
        add, total = reduce(rows, Screen(bound,
                                         partial(self.exact, tail, query)))
        side = self.side(query)

        def block(cols, out, free):
            with np.errstate(**self.quiet):
                self.block(tail, side, cols, out, free)
        _blocked(len(fixed), len(self.ent), self.buffers, block, self.dtype,
                 add)
        return total()

    def exact(self, tail, query, picks, cands):
        """float64 scores of the pairs (query picks[k], entity cands[k])
        of a pass whose query side is `query`, taken a budget of pairs at
        a time (a pair gathers fewer than 6 dim floats besides its
        buffers), since a query whose bound is not finite rechecks every
        entity."""
        scores = np.empty(len(picks))
        step = max(1, RANK_BUDGET_BYTES // (
            8 * (6 * self.params.dim + self.pair_buffers)))
        for lo in range(0, len(picks), step):
            pairs = slice(lo, lo + step)
            self.pair(tail, tuple(x[picks[pairs]] for x in query),
                      self.pair_side(cands[pairs]), scores[pairs],
                      list(np.empty((self.pair_buffers,
                                     len(picks[pairs])))))
        return scores

    def pair_side(self, cands):
        return (self.ent[cands].T,)


class _Distance(_Scorer):
    """A TransE, RotatE or HAKE score, the negated distance
    `distance(tail, q, e, out, free)` writes: that of query side q to
    entity side e, one term per feature added by `_add_terms`, where
    q[k][:, j] and e[k][j] are feature j of the k-th array of either
    side and broadcast to out's shape.  A block passes its queries as
    (Q, features, 1) arrays and its entities as the (features, W)
    columns of the kind's feature-major `tables`, all in the block's
    dtype, so `out` is (Q, W).  A pair passes the float64 (P, features)
    and (features, P) arrays, so `out` is (P,): every pair takes the
    operations of the float64 block in its order, and gets its bits.

    With u = 2^-24 and n the number of terms (dim for TransE, dim / 2
    for RotatE and HAKE), a first-order analysis of float32's rounding
    of the inputs, of each term and of their sum bounds the float32
    error by (c - 1) u S(q), with a constant c and a scale S(q) of the
    query and the largest entity row per kind; eps(q) = 2 c u S(q) +
    (n + 1) 2^-64.  The factor 2 is safety against the second-order
    terms and the float64 block's own error (2^-29 times float32's), and
    the last term covers float32's subnormals.
    """

    def block(self, tail, side, cols, out, free):
        self.distance(tail, side, tuple(table[:, cols]
                                        for table in self.tables), out, free)
        np.negative(out, out=out)

    def pair(self, tail, q, e, out, free):
        self.distance(tail, q, e, out, free)
        np.negative(out, out=out)


class _TransE(_Distance):
    """|q - e| with q = h + r (tails) or t - r (heads), L1 or L2.  L1:
    c = n + 2, S(q) = |q|_1 + max_e |e|_1; L2: c = n + 4, with L2 norms."""

    def __init__(self, params: ModelParams, dtype):
        super().__init__(params, dtype)
        self.l1 = params.aux.get("norm_p", 1.0) == 1.0
        self.order = 1 if self.l1 else 2
        self.buffers = self.pair_buffers = _sum_buffers(params.dim)
        self.tables, self.scale = self.feature_major(self.ent, self.order)

    def query(self, tail, fixed, rel):
        return (fixed + rel if tail else fixed - rel,)

    def distance(self, tail, q, e, out, free):
        (q,), (e,) = q, e
        norm = np.abs if self.l1 else np.square

        def term(j, buf):
            np.subtract(q[:, j], e[j], out=buf)
            return norm(buf, out=buf)
        _add_terms(term, self.params.dim, out, free)
        if not self.l1:
            np.sqrt(out, out=out)

    def bound(self, tail, query):
        n = self.params.dim
        scale = np.linalg.norm(query[0], self.order, axis=1) + self.scale
        constant = n + 2 if self.l1 else n + 4
        return 2 * constant * _U32 * scale + (n + 1) * _TINY


class _RotatE(_Distance):
    """The sum over complex features of |q_j - e_j|, q = h * r (tails) or
    t * conj(r) (heads): c = n + 4, S(q) = |q|_1 + max_e |e|_1, the L1
    norms over real and imaginary parts."""

    def __init__(self, params: ModelParams, dtype):
        super().__init__(params, dtype)
        self.half = params.dim // 2
        # a term's spare is the last buffer
        self.buffers = self.pair_buffers = _sum_buffers(self.half) + 1
        # re 2j, im 2j + 1
        self.tables, self.scale = self.feature_major(self.ent, 1)

    def query(self, tail, fixed, rel):
        return _rotation(tail, fixed, rel)[:2]

    def distance(self, tail, q, e, out, free):
        (q_re, q_im), (e,), (*free, spare) = q, e, free

        def term(j, buf):  # |q_j - e_j| of the complex feature j
            np.subtract(q_re[:, j], e[2 * j], out=buf)
            buf *= buf
            np.subtract(q_im[:, j], e[2 * j + 1], out=spare)
            buf += np.multiply(spare, spare, out=spare)
            return np.sqrt(buf, out=buf)
        _add_terms(term, self.half, out, free)

    def bound(self, tail, query):
        n = self.half
        scale = sum(np.abs(part).sum(axis=1) for part in query) + self.scale
        return 2 * (n + 4) * _U32 * scale + (n + 1) * _TINY


class _HAKE(_Distance):
    """|v|_2 + w sum_j |sin(a_j - e_j / 2)| over the modulus difference v
    (|h| |r| - |t|) and the half phases a (h + r or t - r, halved), with
    w the phase weight.  The modulus takes c = n + 7 and S(q) =
    |q_mod|_2 + max_e |e_mod|_2 for tails, |r_mod|_inf max_e |e_mod|_2 +
    |f_mod|_2 for heads (the moduli of the query's product |h| |r|, its
    relation, its given entity and the candidate).  The phase's n terms
    are differences of products of sines and cosines, at most 1 each,
    whose first-order float32 error is |w| n (n + 8) u: eps(q) adds
    2 u |w| n (n + 10), and the subnormals' slack is (1 + |w|) times
    the others'.  The float32 tables of the half phases' cosines and
    sines are `_half_angles` rounded to float32: within 2^-40 of the
    float64 `_half_cos` and `_half_sin` that the pairs take, a gap of
    2^-16 u per table entry, which the factor 2 over the first-order
    error covers many times over."""

    def __init__(self, params: ModelParams, dtype):
        super().__init__(params, dtype)
        self.half = half = params.dim // 2
        self.weight = params.aux["phase_weight"]
        # the phase sum and a phase term's spare are the last two buffers
        self.buffers = self.pair_buffers = _sum_buffers(half) + 2
        angles = (_half_angles if self.dtype == np.float32 else
                  lambda phases: (_half_cos(phases), _half_sin(phases)))
        (modulus,), self.scale = self.feature_major(
            self.ent[:, :half], 2, lambda rows: (np.abs(rows),))
        self.tables = (modulus,
                       *_feature_major(self.ent[:, half:], dtype, angles)[0])

    def query(self, tail, fixed, rel):
        half = self.half
        f_mod, r_mod = np.abs(fixed[:, :half]), np.abs(rel[:, :half])
        f_phase, r_phase = fixed[:, half:], rel[:, half:]
        # |sin((h + r - t) / 2)| = |sin(a - e / 2)| with a from the fixed
        # side; sin(a)cos(e/2) - cos(a)sin(e/2) takes no sine per (query,
        # entity) pair
        a = (f_phase + r_phase if tail else f_phase - r_phase) / 2.0
        return f_mod * r_mod, r_mod, f_mod, np.sin(a), np.cos(a)

    def pair_side(self, cands):
        rows = self.ent[cands]
        phases = rows[:, self.half:]
        return (np.abs(rows[:, :self.half]).T, _half_cos(phases).T,
                _half_sin(phases).T)

    def distance(self, tail, q, e, out, free):
        q_mod, r_mod, f_mod, sin_a, cos_a = q
        e_mod, cos_e, sin_e = e
        *free, phase, spare = free

        def modulus_term(j, buf):
            if tail:
                np.subtract(q_mod[:, j], e_mod[j], out=buf)
            else:
                np.multiply(e_mod[j], r_mod[:, j], out=buf)
                buf -= f_mod[:, j]
            return np.square(buf, out=buf)
        _add_terms(modulus_term, self.half, out, free)
        np.sqrt(out, out=out)  # the modulus distance

        def phase_term(j, buf):
            np.multiply(sin_a[:, j], cos_e[j], out=buf)
            buf -= np.multiply(cos_a[:, j], sin_e[j], out=spare)
            return np.abs(buf, out=buf)
        _add_terms(phase_term, self.half, phase, free)
        phase *= self.weight
        out += phase

    def bound(self, tail, query):
        q_mod, r_mod, f_mod = query[:3]
        n, w = self.half, abs(self.weight)
        scale = (np.linalg.norm(q_mod, axis=1) + self.scale if tail else
                 r_mod.max(axis=1) * self.scale
                 + np.linalg.norm(f_mod, axis=1))
        return (2 * _U32 * ((n + 7) * scale + w * n * (n + 10))
                + (n + 1) * (1 + w) * _TINY)


class _Dot(_Scorer):
    """DistMult and ComplEx: the dot product q . e of the answer's row
    with q = h * r (DistMult), or, interleaved, h * r (ComplEx tails) or
    t * conj(r) (heads).  A chunk of the all-candidates mass is one
    float64 matmul of every entity, whose bits the weight tables keep.
    A ranking tile is one float32 matmul of the tile's columns of the
    feature-major float32 table, summed in an order that BLAS sets; a
    pair adds the n = dim float64 products q_j e_j in `_add_terms`'
    order, so no rank depends on BLAS, on the tile width or on the CPU
    count.

    Rounding q and e to float32 costs 2 u |q_j e_j| a product, taking
    the products u and adding them in any order (n - 1) u sum_j
    |q_j e_j|, which Cauchy-Schwarz bounds by |q|_2 M, M = max_e |e|_2.
    An input or result below float32's normal range, subnormal or
    flushed to zero, may lose up to 2^-126: |e_j| 2^-126 or |q_j| 2^-126
    an input, summed over j at most sqrt(n) (M + |q|_2) 2^-126, and
    2^-126 each of the 2n products and sums.  eps(q) is twice the sum,
    2 (n + 2) u |q|_2 M + 2^-125 (sqrt(n) (|q|_2 + M) + 2n): the factor
    2 covers the second-order terms and the float64 pair's own error.
    """

    def __init__(self, params: ModelParams, dtype):
        super().__init__(params, dtype)
        self.buffers = 0  # a tile's matmul writes its scores directly
        self.pair_buffers = _sum_buffers(params.dim)
        self.tables, self.scale = (self.feature_major(self.ent, 2)
                                   if self.dtype == np.float32 else ((), 0.0))

    def query(self, tail, fixed, rel):
        if self.params.kind == ModelKind.DISTMULT:
            return (fixed * rel,)
        return (_complex_query(tail, fixed, rel),)

    def side(self, query):
        with np.errstate(**self.quiet):
            return (query[0].astype(self.dtype, copy=False),)

    def scores(self, tail, fixed, rel):
        return self.query(tail, fixed, rel)[0] @ self.ent.T

    def block(self, tail, side, cols, out, free):
        np.matmul(side[0], self.tables[0][:, cols], out=out)

    def pair(self, tail, q, e, out, free):
        (q,), (e,) = q, e
        _add_terms(lambda j, buf: np.multiply(q[:, j], e[j], out=buf),
                   self.params.dim, out, free)

    def bound(self, tail, query):
        n = self.params.dim
        norm = np.linalg.norm(query[0], axis=1)
        return (2 * (n + 2) * _U32 * norm * self.scale
                + 2 * _FLUSH * (math.sqrt(n) * (norm + self.scale) + 2 * n))


_SCORERS = {ModelKind.TRANSE: _TransE, ModelKind.ROTATE: _RotatE,
            ModelKind.HAKE: _HAKE, ModelKind.DISTMULT: _Dot,
            ModelKind.COMPLEX: _Dot}


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
