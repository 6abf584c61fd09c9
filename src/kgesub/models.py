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
hake          [modulus | phase]        [modulus | phase | bias] (3*dim/2)
============  =======================  =====================================

RotatE relations are stored as phase angles so the rotation has unit
modulus by construction.  HAKE modulus parts are stored unconstrained
and passed through abs() at score time; the bias third of the relation
row is carried for layout compatibility with the model's published
parameterization but does not enter this score function.  Gradients use
the subgradient convention sign(0) = 0 at the kinks of L1 terms.

Each kind has one kernel that scores rows along the last axis and, on
request, returns the analytic gradient of the score with respect to
the head, relation and tail rows.  `score_and_grad` runs it on the
gathered (B, 1 + nu, dim) blocks of a training step, and
`score_triples` runs the same forward formulas on (N, dim) rows.
There is no per-triple scoring entry point; the scalar scorers the
kernels replaced are kept as test oracles.

`iter_candidate_scores` scores chunks of same-direction queries against
every entity for ranking: one matmul per chunk for DistMult and ComplEx,
and for TransE, RotatE and HAKE direct distances over blocks of
entities.  `RANK_BUDGET_BYTES` bounds the temporaries of one chunk.

Scoring and gradients are pure functions of the parameters: concurrent
readers are safe as long as a single writer applies updates between
read phases.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, Direction, read_container, write_container
from .errors import CheckpointError, VocabMismatchError

INIT_EPSILON = 2.0  # widens the uniform init range beyond gamma/dim

# Bytes of one candidate-scoring temporary: the (queries, E) scores of
# a chunk, and the (queries, entities, width) block of a distance.
RANK_BUDGET_BYTES = 4 << 20


class ModelKind(enum.Enum):
    TRANSE = "transe"
    ROTATE = "rotate"
    COMPLEX = "complex"
    DISTMULT = "distmult"
    HAKE = "hake"

    @classmethod
    def from_string(cls, name: str) -> "ModelKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown model kind: {name!r}") from None


_COMPLEX_KINDS = {ModelKind.ROTATE, ModelKind.COMPLEX, ModelKind.HAKE}


def relation_dim(kind: ModelKind, dim: int) -> int:
    if kind in _COMPLEX_KINDS and dim % 2 != 0:
        raise ValueError(f"{kind.value} requires an even dim, got {dim}")
    if kind == ModelKind.ROTATE:
        return dim // 2
    if kind == ModelKind.HAKE:
        return 3 * (dim // 2)
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
        relation = rng.uniform(-bound, bound, size=(num_relations, dim_r))
        relation[:, half:2 * half] = rng.uniform(-math.pi, math.pi,
                                                 size=(num_relations, half))
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
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den != 0)
    return out


# One kernel per kind: kernel(params, h, r, t, grad) scores the rows of
# h, r and t (broadcast against each other) along the last axis, and
# with grad=True also returns d score / d h, d r and d t.


def _transe(params, h, r, t, grad):
    d = h + r - t
    l1 = params.aux.get("norm_p", 1.0) == 1.0
    norm = np.abs(d).sum(axis=-1) if l1 else np.sqrt((d * d).sum(axis=-1))
    if not grad:
        return -norm
    g = -np.sign(d) if l1 else -_safe_div(d, norm[..., None])
    return -norm, g, g, -g


def _distmult(params, h, r, t, grad):
    s = (h * r * t).sum(axis=-1)
    return (s, r * t, h * t, h * r) if grad else s


def _complex(params, h, r, t, grad):
    h_re, h_im = _complex_view(h)
    t_re, t_im = _complex_view(t)
    r_re, r_im = _complex_view(r)
    a = h_re * t_re + h_im * t_im
    b = h_re * t_im - h_im * t_re
    s = (r_re * a + r_im * b).sum(axis=-1)
    if not grad:
        return s
    return (s, _interleave(r_re * t_re + r_im * t_im,
                           r_re * t_im - r_im * t_re),
            _interleave(a, b),
            _interleave(r_re * h_re - r_im * h_im, r_re * h_im + r_im * h_re))


def _rotate(params, h, r, t, grad):
    h_re, h_im = _complex_view(h)
    t_re, t_im = _complex_view(t)
    cos_r, sin_r = np.cos(r), np.sin(r)
    rot_re = h_re * cos_r - h_im * sin_r
    rot_im = h_re * sin_r + h_im * cos_r
    u_re = rot_re - t_re
    u_im = rot_im - t_im
    m = np.sqrt(u_re * u_re + u_im * u_im)
    s = -m.sum(axis=-1)
    if not grad:
        return s
    w_re, w_im = _safe_div(u_re, m), _safe_div(u_im, m)
    g_h = _interleave(-(w_re * cos_r + w_im * sin_r),
                      -(-w_re * sin_r + w_im * cos_r))
    g_r = -(w_re * -rot_im + w_im * rot_re)
    return s, g_h, g_r, _interleave(w_re, w_im)


def _hake(params, h, r, t, grad):
    half = params.dim // 2
    w_p = params.aux["phase_weight"]
    h_mod, h_phase = h[..., :half], h[..., half:]
    t_mod, t_phase = t[..., :half], t[..., half:]
    r_mod, r_phase = r[..., :half], r[..., half:2 * half]
    v = np.abs(h_mod) * np.abs(r_mod) - np.abs(t_mod)
    norm = np.sqrt((v * v).sum(axis=-1))
    theta = (h_phase + r_phase - t_phase) / 2.0
    sin_theta = np.sin(theta)
    s = -(norm + w_p * np.abs(sin_theta).sum(axis=-1))
    if not grad:
        return s
    vn = _safe_div(v, norm[..., None])
    phase_g = w_p * np.sign(sin_theta) * np.cos(theta) * 0.5
    g_h = np.concatenate([-vn * np.abs(r_mod) * np.sign(h_mod), -phase_g],
                         axis=-1)
    g_t = np.concatenate([vn * np.sign(t_mod), phase_g], axis=-1)
    # the bias third of the relation row does not enter the score
    g_r = np.zeros(phase_g.shape[:-1] + (r.shape[-1],))
    g_r[..., :half] = -vn * np.abs(h_mod) * np.sign(r_mod)
    g_r[..., half:2 * half] = -phase_g
    return s, g_h, g_r, g_t


_KERNELS = {ModelKind.TRANSE: _transe, ModelKind.DISTMULT: _distmult,
            ModelKind.COMPLEX: _complex, ModelKind.ROTATE: _rotate,
            ModelKind.HAKE: _hake}


def score_and_grad(params: ModelParams, h: np.ndarray, r: np.ndarray,
                   t: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scores and slot gradients of gathered embedding rows.

    h and t are (B, K, dim) head and tail rows, r is (B, 1, dim_r) and
    broadcasts over K.  Returns the (B, K) scores and d score / d h,
    d r and d t, each (B, K, width of its slot).  Slot gradients are
    independent: a caller accumulates them where slots share a row.  The
    arrays may share memory with each other; do not write into them.
    """
    return _KERNELS[params.kind](params, h, r, t, True)


def score_triples(params: ModelParams, heads: np.ndarray, relations: np.ndarray,
                  tails: np.ndarray) -> np.ndarray:
    """Scores of many (h, r, t) id triples at once."""
    return _KERNELS[params.kind](
        params, params.entity_emb[np.asarray(heads, dtype=np.int64)],
        params.relation_emb[np.asarray(relations, dtype=np.int64)],
        params.entity_emb[np.asarray(tails, dtype=np.int64)], False)


def iter_candidate_scores(params: ModelParams, directions: np.ndarray,
                          entities: np.ndarray, relations: np.ndarray
                          ) -> Iterator[tuple[int, int, np.ndarray]]:
    """Scores of every entity as the answer to each query, by chunks.

    Query i is (directions[i], entities[i], relations[i]) with the
    `Direction` convention.  Yields (start, stop, scores) with scores of
    shape (stop - start, E), a fresh array the caller may overwrite.  A
    chunk never mixes directions, so sorting the queries by direction
    keeps the chunks full.  Scores equal `score_triples` of the same
    triples up to rounding in the last bits.
    """
    directions = np.asarray(directions, dtype=np.int64)
    entities = np.asarray(entities, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    score_chunk = _chunk_scorer(params)
    # a chunk's scores fit the budget and are no larger than the entity
    # table, which every matmul chunk reads once anyway
    step = max(1, min(params.dim,
                      RANK_BUDGET_BYTES // (8 * params.num_entities)))
    start = 0
    while start < len(directions):
        stop = min(start + step, len(directions))
        switch = np.flatnonzero(directions[start:stop] != directions[start])
        if switch.size:
            stop = start + int(switch[0])
        yield start, stop, score_chunk(
            directions[start] == Direction.TAIL_QUERY,
            params.entity_emb[entities[start:stop]],
            params.relation_emb[relations[start:stop]])
        start = stop


def _blocked(num_queries: int, width: int, num_entities: int,
             block_scores) -> np.ndarray:
    """(Q, E) scores assembled from `block_scores(entity_slice)`, with
    blocks sized so that a (Q, block, width) temporary fits the budget."""
    step = max(1, RANK_BUDGET_BYTES // (8 * num_queries * width))
    out = np.empty((num_queries, num_entities))
    for lo in range(0, num_entities, step):
        out[:, lo:lo + step] = block_scores(slice(lo, lo + step))
    return out


def _chunk_scorer(params: ModelParams):
    """score(tail, fixed, rel) -> (Q, E) for one chunk of queries.

    `tail` says whether the chunk asks for tails; `fixed` (Q, dim) and
    `rel` (Q, dim_r) are the rows of the given entities and relations.
    Entity-side tables are computed once, here, for all chunks.
    """
    kind, ent = params.kind, params.entity_emb
    num_entities = ent.shape[0]
    if kind == ModelKind.DISTMULT:
        return lambda tail, fixed, rel: (fixed * rel) @ ent.T
    if kind == ModelKind.COMPLEX:
        def complex_scores(tail, fixed, rel):
            # fold the relation into the coefficients of the free slot
            f_re, f_im = _complex_view(fixed)
            r_re, r_im = _complex_view(rel)
            q = np.empty_like(fixed)
            if tail:
                q[:, 0::2] = r_re * f_re - r_im * f_im
                q[:, 1::2] = r_re * f_im + r_im * f_re
            else:
                q[:, 0::2] = r_re * f_re + r_im * f_im
                q[:, 1::2] = r_re * f_im - r_im * f_re
            return q @ ent.T
        return complex_scores
    if kind == ModelKind.TRANSE:
        l1 = params.aux.get("norm_p", 1.0) == 1.0

        def transe_scores(tail, fixed, rel):
            q = fixed + rel if tail else fixed - rel

            def block(cols):
                d = q[:, None, :] - ent[None, cols]
                if l1:
                    return -np.abs(d, out=d).sum(axis=2)
                return -np.sqrt(np.square(d, out=d).sum(axis=2))
            return _blocked(len(q), params.dim, num_entities, block)
        return transe_scores
    if kind == ModelKind.ROTATE:
        e_re, e_im = _complex_view(ent)

        def rotate_scores(tail, fixed, rel):
            # rotate the fixed side once: h*r for tails, t*conj(r) for
            # heads, which has the same distance because |r| = 1
            f_re, f_im = _complex_view(fixed)
            cos_r, sin_r = np.cos(rel), np.sin(rel)
            if tail:
                q_re = f_re * cos_r - f_im * sin_r
                q_im = f_re * sin_r + f_im * cos_r
            else:
                q_re = f_re * cos_r + f_im * sin_r
                q_im = f_im * cos_r - f_re * sin_r

            def block(cols):
                u_re = q_re[:, None, :] - e_re[None, cols]
                u_im = q_im[:, None, :] - e_im[None, cols]
                u_re *= u_re
                u_im *= u_im
                u_re += u_im
                return -np.sqrt(u_re, out=u_re).sum(axis=2)
            return _blocked(len(q_re), params.dim, num_entities, block)
        return rotate_scores
    if kind == ModelKind.HAKE:
        half = params.dim // 2
        weight = params.aux["phase_weight"]
        half_phase = ent[:, half:] / 2.0
        sin_e = np.sin(half_phase)
        cos_e = np.cos(half_phase, out=half_phase)

        def hake_scores(tail, fixed, rel):
            f_mod, r_mod = np.abs(fixed[:, :half]), np.abs(rel[:, :half])
            f_phase, r_phase = fixed[:, half:], rel[:, half:2 * half]
            # |sin((h + r - t) / 2)| = |sin(a - e / 2)| with a from the
            # fixed side; sin(a)cos(e/2) - cos(a)sin(e/2) takes no sine
            # per (query, entity) pair
            a = (f_phase + r_phase if tail else f_phase - r_phase) / 2.0
            sin_a, cos_a = np.sin(a)[:, None, :], np.cos(a)[:, None, :]
            q_mod = (f_mod * r_mod)[:, None, :]

            def block(cols):
                e_mod = np.abs(ent[cols, :half])[None]
                if tail:
                    v = q_mod - e_mod
                else:
                    v = e_mod * r_mod[:, None, :] - f_mod[:, None, :]
                modulus = np.sqrt(np.square(v, out=v).sum(axis=2))
                s = sin_a * cos_e[None, cols]
                s -= cos_a * sin_e[None, cols]
                phase = np.abs(s, out=s).sum(axis=2)
                return -(modulus + weight * phase)
            return _blocked(len(a), params.dim, num_entities, block)
        return hake_scores
    raise AssertionError(f"unhandled kind {kind}")


# ---------------------------------------------------------------------------
# parameter checkpoints

def params_header(params: ModelParams, payload: str) -> dict:
    """The container header fields that describe `params`."""
    return {"payload": payload, "kind": params.kind.value, "dim": params.dim,
            "gamma": params.gamma, "aux": params.aux,
            "num_entities": params.num_entities,
            "num_relations": params.num_relations}


def save_params(params: ModelParams, path: str | Path,
                tag: str | None = None) -> None:
    header = params_header(params, "model-params")
    if tag is not None:
        header["tag"] = tag
    write_container(path, header, {"entity_emb": params.entity_emb,
                                   "relation_emb": params.relation_emb})


def params_from_container(header: dict,
                          arrays: dict[str, np.ndarray]) -> ModelParams:
    try:
        kind = ModelKind.from_string(header["kind"])
        dim = int(header["dim"])
        params = ModelParams(
            kind=kind, dim=dim,
            entity_emb=arrays["entity_emb"],
            relation_emb=arrays["relation_emb"],
            gamma=float(header["gamma"]),
            aux={k: float(v) for k, v in header["aux"].items()},
        )
        widths = (dim, relation_dim(kind, dim))
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise CheckpointError(f"incomplete model header: {exc!r}") from exc
    shapes = (params.entity_emb.shape, params.relation_emb.shape)
    if any(len(shape) != 2 or shape[1] != width
           for shape, width in zip(shapes, widths)):
        raise CheckpointError(f"embedding shapes {shapes} do not fit "
                              f"{kind.value} with dim {dim}")
    return params


def load_tagged_params(path: str | Path) -> tuple[ModelParams, str | None]:
    """Parameters and the provenance tag they were saved with, if any,
    from one read of the checkpoint."""
    header, arrays = read_container(path)
    if header.get("payload") not in ("model-params", "train-checkpoint"):
        raise CheckpointError(f"{path}: unexpected payload "
                              f"{header.get('payload')!r}")
    return params_from_container(header, arrays), header.get("tag")


def load_params(path: str | Path) -> ModelParams:
    return load_tagged_params(path)[0]
