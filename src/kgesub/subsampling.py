"""Per-example loss weights for count-based, model-based, and mixed
subsampling.

Every training triple contributes two direction-expanded examples, and
each example carries a positive weight `a` (applied to the true-link
term of the loss) and a negative weight `b` (applied to the sampled
false-link terms).  Weights are built once from frozen inputs and are
normalized to mean 1 over the whole example set, so subsampling never
changes the overall scale of the loss.

Count-based weights (CBS) discount by 1/sqrt of counted frequencies:
the link frequency is approximated by the mean of the two query counts,
and the query frequency is the count itself.  Model-based weights (MBS)
replace counts with frequencies derived from a frozen sub-model: its
raw scores over all training examples are softmax-normalized into a
distribution p, giving a link frequency of |D| * p(example) and a query
frequency that aggregates p over the answers observed for the query.
A temperature exponent alpha replaces CBS's fixed 1/2.  Mixed weights
(MIX) are the elementwise convex combination of the two tables.

Weight construction is a pure function of its frozen inputs, and the
resulting tables are immutable and safe for concurrent readers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DIRECTION_NAMES, Dataset, text_lines
from .errors import DataError, DegenerateInputError

# Hyper-parameter search grids.
ALPHA_GRID = (2.0, 1.0, 0.5, 0.1, 0.05, 0.01)
LAMBDA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


class SubsamplingMethod(enum.Enum):
    NONE = "none"
    BASE = "base"
    FREQ = "freq"
    UNIQ = "uniq"

    @classmethod
    def from_string(cls, name: str) -> "SubsamplingMethod":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown subsampling method: {name!r}") from None


@dataclass(frozen=True)
class Provenance:
    source: str  # "none" | "cbs" | "mbs" | "mix"
    method: str
    alpha: float | None = None
    lam: float | None = None
    submodel_id: str | None = None

    def describe(self) -> str:
        parts = [f"source={self.source}", f"method={self.method}"]
        parts.append(f"alpha={self.alpha if self.alpha is not None else '-'}")
        parts.append(f"lambda={self.lam if self.lam is not None else '-'}")
        parts.append(f"submodel={self.submodel_id or '-'}")
        return " ".join(parts)


@dataclass
class WeightTable:
    """Positive (a) and negative (b) weights per direction-expanded example."""

    a: np.ndarray
    b: np.ndarray
    provenance: Provenance

    def __post_init__(self) -> None:
        if self.a.shape != self.b.shape:
            raise ValueError("a and b must cover the same examples")

    @property
    def num_examples(self) -> int:
        return self.a.shape[0]


@dataclass
class SubModelScores:
    """Raw scores of every training example under a frozen sub-model."""

    raw_score: np.ndarray  # (2 * |train|,)
    submodel_id: str

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.raw_score)):
            raise DegenerateInputError(
                f"sub-model {self.submodel_id!r} produced non-finite scores")


def uniform_weights(num_examples: int) -> WeightTable:
    """The no-subsampling table: a = b = 1 everywhere."""
    ones = np.ones(num_examples)
    return WeightTable(a=ones, b=ones.copy(),
                       provenance=Provenance(source="none", method="none"))


def counted_frequencies(dataset: Dataset,
                        smoothing: float) -> tuple[np.ndarray, np.ndarray]:
    """Counted (link frequency, query frequency) per expanded example.

    The query frequency is the query's training count plus `smoothing`;
    the link frequency is the mean of its triple's two query
    frequencies.
    """
    if smoothing < 0:
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")
    index = dataset.train_index
    f_x = index.count[index.query_id] + smoothing
    return np.repeat((f_x[0::2] + f_x[1::2]) / 2.0, 2), f_x


def _normalize_to_mean_one(unnormalized: np.ndarray) -> np.ndarray:
    return unnormalized * (unnormalized.shape[0] / unnormalized.sum())


def build_cbs_weights(dataset: Dataset, method: SubsamplingMethod,
                      smoothing: float) -> WeightTable:
    """Count-based weights: 1/sqrt discounting of counted frequencies.

    Base uses the link frequency for both columns, Freq uses the link
    frequency for `a` and the query frequency for `b`, Uniq uses the
    query frequency for both.
    """
    if method == SubsamplingMethod.NONE:
        return uniform_weights(dataset.num_examples)
    f_xy, f_x = counted_frequencies(dataset, smoothing)
    inv_sqrt_xy = 1.0 / np.sqrt(f_xy)
    inv_sqrt_x = 1.0 / np.sqrt(f_x)
    if method == SubsamplingMethod.BASE:
        a_u, b_u = inv_sqrt_xy, inv_sqrt_xy
    elif method == SubsamplingMethod.FREQ:
        a_u, b_u = inv_sqrt_xy, inv_sqrt_x
    else:  # UNIQ
        a_u, b_u = inv_sqrt_x, inv_sqrt_x
    return WeightTable(a=_normalize_to_mean_one(a_u),
                       b=_normalize_to_mean_one(b_u),
                       provenance=Provenance(source="cbs",
                                             method=method.value))


def softmax_over_train(scores: SubModelScores) -> np.ndarray:
    """Softmax of the raw scores over the whole training example set.

    Computed with max-subtraction, so uniformly shifted scores give
    identical probabilities.
    """
    raw = scores.raw_score
    if raw.shape[0] == 0:
        raise ValueError("need at least one example")
    shifted = raw - raw.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def mbs_frequencies(dataset: Dataset,
                    p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Model-based frequencies per expanded example.

    The link frequency of example i is |D| * p[i].  The query frequency
    of example i is |D| times the total probability of the examples that
    share its query, i.e. the probability mass of the answers observed
    for that query within the training set.
    """
    n = dataset.num_examples
    if p.shape[0] != n:
        raise ValueError(f"p covers {p.shape[0]} examples, dataset has {n}")
    query_id = dataset.train_index.query_id
    return n * p, n * np.bincount(query_id, weights=p)[query_id]


def build_mbs_weights(f_xy: np.ndarray, f_x: np.ndarray,
                      method: SubsamplingMethod, alpha: float,
                      submodel_id: str | None = None) -> WeightTable:
    """Model-based weights: temperature-alpha discounting f ** -alpha.

    With alpha = 0.5 and counted frequencies this reproduces the
    count-based table.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if f_xy.shape != f_x.shape:
        raise ValueError("f_xy and f_x must cover the same examples")
    provenance = Provenance(source="mbs", method=method.value, alpha=alpha,
                            submodel_id=submodel_id)
    if method == SubsamplingMethod.NONE:
        table = uniform_weights(f_xy.shape[0])
        table.provenance = provenance
        return table
    if np.any(f_xy <= 0) or np.any(f_x <= 0):
        raise DegenerateInputError("non-positive model-based frequency")
    pow_xy = np.power(f_xy, -alpha)
    pow_x = np.power(f_x, -alpha)
    if method == SubsamplingMethod.BASE:
        a_u, b_u = pow_xy, pow_xy
    elif method == SubsamplingMethod.FREQ:
        a_u, b_u = pow_xy, pow_x
    else:  # UNIQ
        a_u, b_u = pow_x, pow_x
    return WeightTable(a=_normalize_to_mean_one(a_u),
                       b=_normalize_to_mean_one(b_u),
                       provenance=provenance)


def mix_weights(cbs: WeightTable, mbs: WeightTable, lam: float) -> WeightTable:
    """Convex combination: lam * model-based + (1 - lam) * count-based."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if cbs.num_examples != mbs.num_examples:
        raise ValueError("weight tables cover different example sets")
    provenance = Provenance(source="mix", method=cbs.provenance.method,
                            alpha=mbs.provenance.alpha, lam=lam,
                            submodel_id=mbs.provenance.submodel_id)
    return WeightTable(a=lam * mbs.a + (1.0 - lam) * cbs.a,
                       b=lam * mbs.b + (1.0 - lam) * cbs.b,
                       provenance=provenance)


# ---------------------------------------------------------------------------
# file formats


def save_weight_table(table: WeightTable, path: str | Path) -> None:
    """`example_id<TAB>direction<TAB>a<TAB>b` rows with a comment header.

    Weights are written as shortest round-trip decimals, so the file
    reloads to bitwise-equal arrays.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {table.provenance.describe()}\n")
        for i in range(table.num_examples):
            fh.write(f"{i}\t{DIRECTION_NAMES[i % 2]}\t"
                     f"{float(table.a[i])!r}\t{float(table.b[i])!r}\n")


def load_weight_table(path: str | Path) -> WeightTable:
    """Read a table written by `save_weight_table`; weights must be
    finite and positive."""
    path = Path(path)
    provenance = Provenance(source="unknown", method="unknown")
    a: list[float] = []
    b: list[float] = []
    for lineno, line in text_lines(path):
        try:
            if line.startswith("#"):
                provenance = _parse_provenance(line)
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


def _parse_provenance(comment: str) -> Provenance:
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


def save_scores(scores: SubModelScores, path: str | Path) -> None:
    """`example_id<TAB>raw_score` rows with a provenance header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# submodel={scores.submodel_id}\n")
        for i, value in enumerate(scores.raw_score):
            fh.write(f"{i}\t{float(value)!r}\n")


def load_scores(path: str | Path) -> SubModelScores:
    path = Path(path)
    submodel_id = "unknown"
    values: list[float] = []
    for lineno, line in text_lines(path):
        if line.startswith("#"):
            fields = dict(item.split("=", 1)
                          for item in line[1:].split() if "=" in item)
            submodel_id = fields.get("submodel", submodel_id)
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
