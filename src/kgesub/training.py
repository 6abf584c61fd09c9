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

Determinism: the permutation of each epoch and the negative draws of
each step come from generators derived from (seed, stream, index), so a
run is a pure function of (data, weights, initial params, config), and
training resumed from a checkpoint is bitwise-identical to an
uninterrupted run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .data import Dataset, Direction, QueryKey, Triple, query_of
from .errors import CheckpointError, DegenerateInputError, TrainingDivergedError
from .models import (ModelParams, params_from_container, read_container,
                     score, score_batch, score_gradient, write_container)
from .subsampling import WeightTable

_PERM_STREAM = 0
_NEG_STREAM = 1

# Gradient rows keyed by ("entity" | "relation", row_id), insertion-ordered.
RowGradients = dict[tuple[str, int], np.ndarray]


@dataclass
class TrainConfig:
    nu: int = 4
    batch_size: int = 64
    steps: int = 1000
    learning_rate: float = 0.01
    optimizer: str = "adam"  # "adam" | "sgd"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    adversarial_beta: float = 0.0
    seed: int = 0
    valid_every: int = 0  # 0 disables periodic validation
    lr_decay_every: int = 0  # 0 keeps the rate constant
    lr_decay_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.nu < 1 or self.batch_size < 1 or self.steps < 0:
            raise ValueError("nu and batch_size must be >= 1, steps >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.adversarial_beta < 0:
            raise ValueError("adversarial_beta must be >= 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    def rate_at(self, step: int) -> float:
        if self.lr_decay_every <= 0:
            return self.learning_rate
        drops = step // self.lr_decay_every
        return self.learning_rate * self.lr_decay_factor ** drops


@dataclass
class TrainExample:
    triple: Triple
    direction: Direction
    answer: int
    weight_a: float
    weight_b: float

    @property
    def query(self) -> QueryKey:
        return query_of(self.triple, self.direction)


@dataclass
class LogRecord:
    step: int
    loss: float
    valid_mrr: float | None = None


def sample_negatives(query: QueryKey, nu: int, rng: np.random.Generator,
                     true_answers: np.ndarray,
                     num_entities: int) -> np.ndarray:
    """nu uniform entity draws, rejecting training-set answers to `query`.

    `true_answers` is sorted and distinct.  Rejected draws are redrawn,
    in batches of the number still missing.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if len(true_answers) >= num_entities:
        raise DegenerateInputError(
            f"query {query} has no false candidates: all {num_entities} "
            "entities are true answers")
    out = np.empty(nu, dtype=np.int64)
    filled = 0
    while filled < nu:
        draws = rng.integers(0, num_entities, size=nu - filled)
        kept = draws[np.searchsorted(true_answers, draws, "left")
                     == np.searchsorted(true_answers, draws, "right")]
        out[filled:filled + len(kept)] = kept
        filled += len(kept)
    return out


def _log_sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    # log sigmoid(z) = -softplus(-z), overflow-safe
    return -np.logaddexp(0.0, -z)


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return np.exp(_log_sigmoid(z))


def _accumulate(grads: RowGradients, key: tuple[str, int],
                value: np.ndarray) -> None:
    slot = grads.get(key)
    if slot is None:
        grads[key] = value.copy()
    else:
        slot += value


def _negative_triple(example: TrainExample, candidate: int) -> Triple:
    h, r, t = example.triple
    if example.direction == Direction.TAIL_QUERY:
        return Triple(h, r, candidate)
    return Triple(candidate, r, t)


def ns_loss(params: ModelParams, example: TrainExample,
            negatives: np.ndarray, gamma: float,
            adversarial_beta: float = 0.0) -> tuple[float, RowGradients]:
    """Loss and row gradients of one example against its negatives."""
    if len(negatives) == 0:
        raise ValueError("negatives must be non-empty")
    s_pos = score(params, example.triple)
    s_neg = score_batch(params, example.query, negatives)
    if not (math.isfinite(s_pos) and np.all(np.isfinite(s_neg))):
        raise TrainingDivergedError("non-finite score; training diverged")

    nu = len(negatives)
    if adversarial_beta > 0.0:
        z = adversarial_beta * s_neg
        z = z - z.max()
        exp_z = np.exp(z)
        neg_w = exp_z / exp_z.sum()  # constants w.r.t. the parameters
    else:
        neg_w = np.full(nu, 1.0 / nu)

    loss = -(example.weight_a * _log_sigmoid(s_pos + gamma)
             + float(neg_w @ _log_sigmoid(-s_neg - gamma)) * example.weight_b)

    grads: RowGradients = {}
    # d loss / d s_pos = -a * sigmoid(-(s_pos + gamma))
    pos_coeff = -example.weight_a * _sigmoid(-(s_pos + gamma))
    g_h, g_r, g_t = score_gradient(params, example.triple)
    h, r, t = example.triple
    _accumulate(grads, ("entity", h), pos_coeff * g_h)
    _accumulate(grads, ("relation", r), pos_coeff * g_r)
    _accumulate(grads, ("entity", t), pos_coeff * g_t)
    # d loss / d s_neg_i = +w_i * b * sigmoid(s_neg_i + gamma)
    neg_coeff = example.weight_b * neg_w * _sigmoid(s_neg + gamma)
    for i, candidate in enumerate(negatives):
        neg_triple = _negative_triple(example, int(candidate))
        g_h, g_r, g_t = score_gradient(params, neg_triple)
        c = neg_coeff[i]
        _accumulate(grads, ("entity", neg_triple.head), c * g_h)
        _accumulate(grads, ("relation", neg_triple.relation), c * g_r)
        _accumulate(grads, ("entity", neg_triple.tail), c * g_t)
    return float(loss), grads


def batch_loss(params: ModelParams,
               batch: list[tuple[TrainExample, np.ndarray]], gamma: float,
               adversarial_beta: float = 0.0) -> tuple[float, RowGradients]:
    """Mean loss and mean gradient over (example, negatives) pairs.

    Accumulation follows batch order, so results are reproducible.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    total = 0.0
    grads: RowGradients = {}
    for example, negatives in batch:
        loss, example_grads = ns_loss(params, example, negatives, gamma,
                                      adversarial_beta)
        total += loss
        for key, g in example_grads.items():
            _accumulate(grads, key, g)
    scale = 1.0 / len(batch)
    for g in grads.values():
        g *= scale
    return total * scale, grads


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class OptimizerState:
    kind: str
    m_entity: np.ndarray | None = None
    v_entity: np.ndarray | None = None
    m_relation: np.ndarray | None = None
    v_relation: np.ndarray | None = None

    @classmethod
    def fresh(cls, kind: str, params: ModelParams) -> "OptimizerState":
        if kind == "sgd":
            return cls(kind="sgd")
        return cls(kind="adam",
                   m_entity=np.zeros_like(params.entity_emb),
                   v_entity=np.zeros_like(params.entity_emb),
                   m_relation=np.zeros_like(params.relation_emb),
                   v_relation=np.zeros_like(params.relation_emb))


def _apply_update(params: ModelParams, opt: OptimizerState,
                  grads: RowGradients, rate: float, step: int,
                  config: TrainConfig) -> None:
    """One optimizer step touching only the rows present in `grads`.

    Adam moment rows are updated lazily; bias correction uses the global
    step count.
    """
    matrices = {"entity": params.entity_emb, "relation": params.relation_emb}
    if opt.kind == "sgd":
        for (name, row), g in grads.items():
            matrices[name][row] -= rate * g
        return
    moments = {"entity": (opt.m_entity, opt.v_entity),
               "relation": (opt.m_relation, opt.v_relation)}
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_epsilon
    bc1 = 1.0 - b1 ** step
    bc2 = 1.0 - b2 ** step
    for (name, row), g in grads.items():
        m, v = moments[name]
        m[row] = b1 * m[row] + (1.0 - b1) * g
        v[row] = b2 * v[row] + (1.0 - b2) * (g * g)
        m_hat = m[row] / bc1
        v_hat = v[row] / bc2
        matrices[name][row] -= rate * m_hat / (np.sqrt(v_hat) + eps)


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
          config: TrainConfig,
          eval_callback: Callable[[ModelParams, int], float] | None = None
          ) -> TrainResult:
    """Run `config.steps` batch updates from fresh optimizer state."""
    state = TrainState(params=params.copy(),
                       optimizer=OptimizerState.fresh(config.optimizer,
                                                      params),
                       step=0)
    return continue_train(dataset, weights, state, config, eval_callback)


def continue_train(dataset: Dataset, weights: WeightTable, state: TrainState,
                   config: TrainConfig,
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
    num_entities = dataset.num_entities
    num_examples = dataset.num_examples
    batches_per_epoch = max(1, math.ceil(num_examples / config.batch_size))

    result = TrainResult(state=state)
    perm_epoch = -1
    perm: np.ndarray | None = None
    for step in range(state.step, config.steps):
        epoch, batch_index = divmod(step, batches_per_epoch)
        if epoch != perm_epoch:
            perm_rng = np.random.default_rng([config.seed, _PERM_STREAM, epoch])
            perm = perm_rng.permutation(num_examples)
            perm_epoch = epoch
        lo = batch_index * config.batch_size
        batch_ids = perm[lo:lo + config.batch_size]

        neg_rng = np.random.default_rng([config.seed, _NEG_STREAM, step])
        batch: list[tuple[TrainExample, np.ndarray]] = []
        for eid in batch_ids.tolist():
            example = TrainExample(
                triple=dataset.train[eid // 2], direction=Direction(eid % 2),
                answer=int(index.answer[eid]),
                weight_a=float(weights.a[eid]),
                weight_b=float(weights.b[eid]))
            negatives = sample_negatives(
                example.query, config.nu, neg_rng,
                index.answers_of(index.query_id[eid]), num_entities)
            batch.append((example, negatives))

        loss, grads = batch_loss(state.params, batch,
                                 state.params.gamma,
                                 config.adversarial_beta)
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


def write_log(log: list[LogRecord], path: str | Path) -> None:
    """`step<TAB>loss<TAB>valid_mrr?` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in log:
            if record.valid_mrr is None:
                fh.write(f"{record.step}\t{record.loss!r}\n")
            else:
                fh.write(f"{record.step}\t{record.loss!r}\t"
                         f"{record.valid_mrr!r}\n")


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(state: TrainState, path: str | Path) -> None:
    params = state.params
    header = {
        "payload": "train-checkpoint",
        "kind": params.kind.value,
        "dim": params.dim,
        "gamma": params.gamma,
        "aux": params.aux,
        "num_entities": params.num_entities,
        "num_relations": params.num_relations,
        "optimizer": state.optimizer.kind,
        "step": state.step,
    }
    arrays = {"entity_emb": params.entity_emb,
              "relation_emb": params.relation_emb}
    if state.optimizer.kind == "adam":
        arrays.update(adam_m_entity=state.optimizer.m_entity,
                      adam_v_entity=state.optimizer.v_entity,
                      adam_m_relation=state.optimizer.m_relation,
                      adam_v_relation=state.optimizer.v_relation)
    write_container(path, header, arrays)


def load_checkpoint(path: str | Path) -> TrainState:
    header, arrays = read_container(path)
    if header.get("payload") != "train-checkpoint":
        raise CheckpointError(f"{path}: not a training checkpoint")
    params = params_from_container(header, arrays)
    kind = header["optimizer"]
    if kind == "adam":
        opt = OptimizerState(kind="adam",
                             m_entity=arrays["adam_m_entity"],
                             v_entity=arrays["adam_v_entity"],
                             m_relation=arrays["adam_m_relation"],
                             v_relation=arrays["adam_v_relation"])
    else:
        opt = OptimizerState(kind="sgd")
    return TrainState(params=params, optimizer=opt, step=int(header["step"]))
