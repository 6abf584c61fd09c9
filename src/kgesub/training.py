"""Negative sampling, the weighted discrimination loss, and the
stochastic training loop.

The per-example loss is

    -[ a * log sigmoid(s(x, y) + gamma)
       + sum_i w_i * b * log sigmoid(-s(x, y_i) - gamma) ]

over nu sampled negative answers y_i, where (a, b) come from a frozen
weight table and w_i is 1/nu for uniform negatives or a softmax over
beta-scaled negative scores (treated as constants) in self-adversarial
mode.  The loss is linear in (a, b), which makes the mixed-subsampling
loss decompose exactly into lam * model-based + (1 - lam) * count-based.

A step works on the batch in array operations:

- `sample_negatives` draws the (B, nu) negatives in one `rng.integers`
  call, each uniform over the entities that are not a training answer
  of its query.  A query q with n_q distinct answers a_0 < a_1 < ...
  draws u from [0, E - n_q); the u-th free entity is u plus the number
  of j with a_j - j <= u, which the per-batch complement keys of
  `Complement` turn into one binary search.  No draw is rejected,
  however many answers q has.  `Complement.of` reads the examples'
  queries from their triples and finds their answers with one
  `QueryIndex.lookup`, for up to `_WINDOW` examples of consecutive
  batches at once, so a step makes no lookup of its own and no array of
  every example is built.
- `batch_loss` reads each example's query and answer from its triple
  (example 2i + d asks query d of row i) and takes the batch in
  one-direction chunks whose (chunk, 1 + nu, dim) candidate block (the
  answer, then the negatives) fits `models.RANK_BUDGET_BYTES`, so
  memory is bounded whatever nu and dim are.  It gathers each fixed
  entity row once, scores and back-propagates with `models.score_block`,
  and sums the B(1 + nu) + B entity terms into the step's unique rows,
  ascending, by one bincount (one per chunk when the batch's block
  exceeds the budget).
- `_apply_update` applies lazy Adam (bias-corrected by the global step)
  in place to those rows only, in row blocks under the same budget.

No step loops over examples or triples in Python.  The per-example
loss with dict-of-rows gradients, the per-triple scorers and the
row-at-a-time optimizer update that this replaced live in
tests/conftest.py, beside the other oracles, and the batched step is
checked against them.

Determinism: the permutation of each epoch and the negative draws of
each step come from generators derived from (seed, stream, index), so a
run is a pure function of (data, weights, initial params, config), and
training resumed from a checkpoint is bitwise-identical to an
uninterrupted run.  The module writes only checkpoints; `cli` writes
the log that `train` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .config import RunConfig, check_setting
from .data import (DIRECTION_NAMES, Dataset, QueryIndex, example_queries,
                   write_container)
from .errors import (CheckpointError, ConfigError, DegenerateInputError,
                     TrainingDivergedError)
from . import models
from .models import ModelParams, params_header, read_checkpoint, score_block
from .subsampling import WeightTable

_PERM_STREAM = 0
_NEG_STREAM = 1
# examples of consecutive batches whose queries one lookup covers: a
# short run looks up once, a long one spreads each lookup's few dozen
# numpy calls over many steps, and the keys are the distinct answers of
# at most this many queries
_WINDOW = 1 << 13


@dataclass
class LogRecord:
    step: int
    loss: float
    valid_mrr: float | None = None


class Gradients(NamedTuple):
    """Summed gradients of the rows one step touches: ascending entity
    and relation row ids, and a gradient row for each."""

    entity_rows: np.ndarray
    entity: np.ndarray
    relation_rows: np.ndarray
    relation: np.ndarray


class Complement(NamedTuple):
    """The non-answers of examples' queries, for `sample_negatives`.

    Row i draws from the `free[i]` entities that no training triple
    gives as an answer to its query.  The distinct queries of the rows
    are looked up once: the q-th, with sorted distinct answers a_0 < a_1
    < ..., has the keys ``q * E + a_j - j``, ascending over all queries,
    from ``keys[start[i]]`` on for each of its rows, whose `base[i]` is
    q * E.  So the u-th free entity of row i is u plus the number of its
    keys <= base[i] + u.  Rows of consecutive batches are looked up at
    once, and `rows` hands out one batch's share of them.
    """

    free: np.ndarray
    base: np.ndarray
    start: np.ndarray
    keys: np.ndarray

    @classmethod
    def of(cls, index: QueryIndex, example_ids: np.ndarray) -> "Complement":
        """The complement of each example's query of `index`; a query
        whose answers are every entity raises DegenerateInputError."""
        direction, entity, relation, _ = example_queries(index.triples,
                                                         example_ids)
        query, offsets, answers = index.lookup(direction, entity, relation)
        start, sizes = offsets[:-1], np.diff(offsets)
        free = index.num_entities - sizes
        if np.any(free <= 0):
            i = int(np.argmax(free[query] <= 0))
            raise DegenerateInputError(
                f"{DIRECTION_NAMES[direction[i]]} of entity {entity[i]}, "
                f"relation {relation[i]} has no false candidates: all "
                f"{index.num_entities} entities are true answers")
        base = np.arange(len(free)) * index.num_entities
        keys = (np.repeat(base + start, sizes) + answers
                - np.arange(len(answers)))
        return cls(free[query], base[query], start[query], keys)

    def rows(self, lo: int, hi: int) -> "Complement":
        """Rows lo to hi, with the keys of every row."""
        return Complement(self.free[lo:hi], self.base[lo:hi],
                          self.start[lo:hi], self.keys)


def sample_negatives(complement: Complement, nu: int,
                     rng: np.random.Generator) -> np.ndarray:
    """(rows, nu) entities, each row's drawn uniformly from the
    non-answers of its example's query, in one draw."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    draws = rng.integers(0, complement.free[:, None],
                         size=(len(complement.free), nu))
    below = np.searchsorted(complement.keys, complement.base[:, None] + draws,
                            side="right")
    return draws + (below - complement.start[:, None])


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    # log sigmoid(z) = -softplus(-z), overflow-safe
    return -np.logaddexp(0.0, -z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return np.exp(_log_sigmoid(z))


def _row_sums(inverse: np.ndarray, values: np.ndarray,
              count: int) -> np.ndarray:
    """(count, width) sums of the rows of `values` by `inverse`, each
    row's added in input order (as bincount adds its weights)."""
    width = values.shape[1]
    cells = (inverse[:, None] * width + np.arange(width)).ravel()
    return np.bincount(cells, weights=values.ravel(),
                       minlength=count * width).reshape(count, width)


def batch_loss(params: ModelParams, index: QueryIndex,
               example_ids: np.ndarray, negatives: np.ndarray,
               weights: WeightTable,
               adversarial_beta: float = 0.0) -> tuple[float, Gradients]:
    """Mean loss and mean gradient of the examples `example_ids` of
    `index`, example i against the negative answers `negatives[i]`."""
    example_ids = np.asarray(example_ids, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    if not example_ids.size:
        raise ValueError("batch must be non-empty")
    if (negatives.ndim != 2 or len(negatives) != len(example_ids)
            or not negatives.size):
        raise ValueError("negatives must be a non-empty (B, nu) block")
    # example 2i + d asks query d of triple i: tail queries first, and a
    # head query's triple read backwards as (fixed, relation, answer)
    head = example_ids & 1
    order = np.argsort(head, kind="stable")
    examples = example_ids[order]
    num_tail = len(examples) - int(np.count_nonzero(head))
    rows = index.triples[examples >> 1]
    rows[num_tail:] = rows[num_tail:, ::-1]
    fixed, relations, answers = rows.T
    candidates = np.concatenate([answers[:, None], negatives[order]], axis=1)
    a, b = weights.a[examples], weights.b[examples]
    num, width = candidates.shape
    # the rows a step touches: each fixed entity once, then the candidates
    entity_rows, entity_at = np.unique(
        np.concatenate([fixed, candidates.ravel()]), return_inverse=True)
    relation_rows, relation_at = np.unique(relations, return_inverse=True)
    entity, relation, dim = params.entity_emb, params.relation_emb, params.dim
    gamma, scale = params.gamma, 1.0 / num
    losses, relation_terms = np.empty(num), np.empty((num, relation.shape[1]))
    step = max(1, models.RANK_BUDGET_BYTES // (8 * width * dim))
    whole = num <= step  # fits the budget: one bincount, not one per chunk
    terms = np.empty((num * (1 + width) if whole else num, dim))
    entity_grad = None if whole else np.zeros((len(entity_rows), dim))
    for lo, hi in ((lo, min(lo + step, last))  # one direction each
                   for first, last in ((0, num_tail), (num_tail, num))
                   for lo in range(first, last, step)):
        scores, back = score_block(
            params, lo < num_tail, entity[fixed[lo:hi]],
            relation[relations[lo:hi]], entity[candidates[lo:hi]])
        if not np.all(np.isfinite(scores)):
            raise TrainingDivergedError("non-finite score; training diverged")
        s_pos, s_neg = scores[:, 0], scores[:, 1:]
        if adversarial_beta > 0.0:
            z = adversarial_beta * s_neg
            z -= z.max(axis=1, keepdims=True)
            exp_z = np.exp(z)
            # constants w.r.t. the parameters
            neg_w = exp_z / exp_z.sum(axis=1, keepdims=True)
        else:
            neg_w = np.full(s_neg.shape, 1.0 / s_neg.shape[1])
        losses[order[lo:hi]] = -(
            a[lo:hi] * _log_sigmoid(s_pos + gamma)
            + (neg_w * _log_sigmoid(-s_neg - gamma)).sum(axis=1) * b[lo:hi])
        coeff = np.empty_like(scores)
        # d loss / d s_pos = -a * sigmoid(-(s_pos + gamma))
        coeff[:, 0] = -a[lo:hi] * _sigmoid(-(s_pos + gamma))
        # d loss / d s_neg_i = +w_i * b * sigmoid(s_neg_i + gamma)
        coeff[:, 1:] = b[lo:hi, None] * neg_w * _sigmoid(s_neg + gamma)
        coeff *= scale
        terms[lo:hi], relation_terms[lo:hi], g_cand = back(coeff)
        cand_at = slice(num + lo * width, num + hi * width)
        if whole:
            terms[cand_at] = g_cand.reshape(-1, dim)
            continue
        rows, at = np.unique(entity_at[cand_at], return_inverse=True)
        entity_grad[rows] += _row_sums(at, g_cand.reshape(-1, dim), len(rows))
    if not whole:  # the fixed entities' terms, summed last
        rows, at = np.unique(entity_at[:num], return_inverse=True)
        entity_grad[rows] += _row_sums(at, terms, len(rows))
    else:
        entity_grad = _row_sums(entity_at, terms, len(entity_rows))
    relation_grad = _row_sums(relation_at, relation_terms, len(relation_rows))
    return float(losses.sum() * scale), Gradients(
        entity_rows, entity_grad, relation_rows, relation_grad)


# ---------------------------------------------------------------------------
# optimizers


_MOMENTS = ("m_entity", "v_entity", "m_relation", "v_relation")


@dataclass
class OptimizerState:
    """Adam's moments, one row per embedding row."""
    m_entity: np.ndarray
    v_entity: np.ndarray
    m_relation: np.ndarray
    v_relation: np.ndarray

    @classmethod
    def fresh(cls, params: ModelParams) -> "OptimizerState":
        return cls(**{name: np.zeros_like(
            params.entity_emb if name.endswith("entity")
            else params.relation_emb) for name in _MOMENTS})


def _apply_update(params: ModelParams, opt: OptimizerState,
                  grads: Gradients, rate: float, step: int,
                  config: RunConfig) -> None:
    """One Adam step touching only the rows present in `grads`, in blocks
    of rows whose buffers stay small.

    Adam moment rows are updated lazily; bias correction uses the global
    step count.
    """
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_epsilon
    bc1, bc2 = 1.0 - b1 ** step, 1.0 - b2 ** step
    for table, all_rows, all_g, m, v in (
            (params.entity_emb, grads.entity_rows, grads.entity,
             opt.m_entity, opt.v_entity),
            (params.relation_emb, grads.relation_rows, grads.relation,
             opt.m_relation, opt.v_relation)):
        # row blocks keep the three row buffers at 1/32 of the budget
        block = max(1, models.RANK_BUDGET_BYTES // (256 * table.shape[1]))
        for lo in range(0, len(all_rows), block):
            rows, g = all_rows[lo:lo + block], all_g[lo:lo + block]
            # the dict loop's formulas, operation by operation, in three
            # row buffers ("wrap": unbuffered, reads what `table[rows]` writes)
            m_rows, v_rows, buf = m[rows], v[rows], g * (1.0 - b1)
            m_rows *= b1
            m_rows += buf
            v_rows *= b2
            v_rows += np.multiply(np.multiply(g, g, out=buf), 1.0 - b2,
                                  out=buf)
            m[rows], v[rows] = m_rows, v_rows
            np.add(np.sqrt(np.divide(v_rows, bc2, out=buf), out=buf), eps,
                   out=buf)
            m_rows /= bc1
            m_rows *= rate
            m_rows /= buf
            np.take(table, rows, axis=0, out=buf, mode="wrap")
            table[rows] = np.subtract(buf, m_rows, out=buf)


# ---------------------------------------------------------------------------
# the loop


@dataclass
class TrainState:
    params: ModelParams
    optimizer: OptimizerState
    step: int = 0


@dataclass
class TrainResult:
    state: TrainState
    log: list[LogRecord] = field(default_factory=list)

    @property
    def params(self) -> ModelParams:
        return self.state.params


def train(dataset: Dataset, weights: WeightTable, params: ModelParams,
          config: RunConfig,
          eval_callback: Callable[[ModelParams, int], float] | None = None
          ) -> TrainResult:
    """Run `config.steps` batch updates from fresh optimizer state."""
    state = TrainState(params=params.copy(),
                       optimizer=OptimizerState.fresh(params),
                       step=0)
    return continue_train(dataset, weights, state, config, eval_callback)


def continue_train(dataset: Dataset, weights: WeightTable, state: TrainState,
                   config: RunConfig,
                   eval_callback: Callable[[ModelParams, int], float] | None = None
                   ) -> TrainResult:
    """Run updates from `state.step` until `config.steps`.

    A batch never spans epochs; one epoch is one pass over a seeded
    permutation of the direction-expanded examples.
    """
    if weights.num_examples != dataset.num_examples:
        raise ValueError(
            f"weight table covers {weights.num_examples} examples, "
            f"dataset expands to {dataset.num_examples}")
    index = dataset.train_index
    num_examples = dataset.num_examples
    batches_per_epoch = max(1, math.ceil(num_examples / config.batch_size))
    window_batches = max(1, _WINDOW // config.batch_size)

    result = TrainResult(state=state)
    perm_epoch = -1
    perm: np.ndarray | None = None
    for step in range(state.step, config.steps):
        epoch, batch_index = divmod(step, batches_per_epoch)
        if epoch != perm_epoch:
            perm_rng = np.random.default_rng([config.seed, _PERM_STREAM, epoch])
            perm = perm_rng.permutation(num_examples)
            perm_epoch, window_end = epoch, 0
        lo = batch_index * config.batch_size
        if lo >= window_end:  # look up this and the next batches at once
            window = min(batches_per_epoch - batch_index, config.steps - step,
                         window_batches) * config.batch_size
            window_start, window_end = lo, lo + window
            complement = Complement.of(index, perm[lo:window_end])
        batch_ids = perm[lo:lo + config.batch_size]

        neg_rng = np.random.default_rng([config.seed, _NEG_STREAM, step])
        at = lo - window_start
        negatives = sample_negatives(
            complement.rows(at, at + len(batch_ids)), config.nu, neg_rng)
        loss, grads = batch_loss(state.params, index, batch_ids, negatives,
                                 weights, config.adversarial_beta)
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"loss diverged at step {step + 1}")
        state.step = step + 1
        _apply_update(state.params, state.optimizer, grads,
                      config.rate_at(step), state.step, config)

        valid_mrr = None
        if (eval_callback is not None and config.valid_every > 0
                and state.step % config.valid_every == 0):
            valid_mrr = eval_callback(state.params, state.step)
        result.log.append(LogRecord(step=state.step, loss=loss,
                                    valid_mrr=valid_mrr))
    return result


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(state: TrainState, path: str | Path,
                    tag: str | None = None) -> None:
    params = state.params
    header = dict(params_header(params, "train-checkpoint", tag),
                  optimizer="adam", step=state.step)
    arrays = {"entity_emb": params.entity_emb,
              "relation_emb": params.relation_emb}
    arrays.update({f"adam_{name}": getattr(state.optimizer, name)
                   for name in _MOMENTS})
    write_container(path, header, arrays)


def load_checkpoint(path: str | Path) -> TrainState:
    """A training checkpoint: `models.read_checkpoint`'s header checks,
    then those of the optimizer, the step and the Adam moments."""
    params, _, header, arrays = read_checkpoint(path, ("train-checkpoint",))
    try:
        check_setting("optimizer", header.get("optimizer"))
    except ConfigError as exc:
        raise CheckpointError(
            f"{path}: header field optimizer: {exc}") from None
    step = header.get("step")
    if not (type(step) is int and step >= 0):
        raise CheckpointError(f"{path}: header field step must be an int "
                              f">= 0, got {step!r}")
    moments = {}
    for name in _MOMENTS:
        moment = arrays.get(f"adam_{name}")
        table = (params.entity_emb if name.endswith("entity")
                 else params.relation_emb)
        if moment is None or moment.shape != table.shape:
            raise CheckpointError(f"{path}: adam_{name} is missing or not "
                                  f"of shape {table.shape}")
        moments[name] = moment
    return TrainState(params=params, optimizer=OptimizerState(**moments),
                      step=step)
