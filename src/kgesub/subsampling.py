"""Per-example loss weights for count-based, model-based, and mixed
subsampling.

Every training triple contributes two direction-expanded examples, and
each example carries a positive weight `a` (applied to the true-link
term of the loss) and a negative weight `b` (applied to the sampled
false-link terms).  Weights are built once from frozen inputs and are
normalized to mean 1 over the whole example set, so subsampling never
changes the overall scale of the loss.

Model-based weights (MBS) discount frequencies derived from a frozen
sub-model: its raw scores over all training examples are
softmax-normalized, giving a link frequency of |D| * p(example) and a
query frequency that sums the link frequencies of the answers observed
for the query.  Both live in log space:

    log f_xy = log |D| + raw - logsumexp(raw)
    log f_x  = logsumexp of log f_xy over the query's examples

(given the live sub-model, log f_x sums over every candidate entity
instead, with the same offset), and each weight column is the
temperature-alpha discount f ** -alpha, normalized to mean 1 as
n * exp(x - logsumexp(x)) with x = -alpha * log f, so scores any
distance apart give finite weights.
Count-based weights (CBS) are the same discount with alpha = 1/2 on
counted frequencies: the query frequency is the query's count and the
link frequency the mean of its triple's two query counts.  Mixed
weights (MIX) are the elementwise convex combination of the two tables.

Weight construction is a pure function of its frozen inputs, and the
resulting tables are immutable and safe for concurrent readers.

Weight tables and score files are text, written a block of `_ROWS`
rows at a time.  A weight table is output only: every command builds
the tables it needs from its settings, and none reads one back.  The
rows' decimals are the costly part, so a table of more than one block
is formatted on every CPU that the process may run on: the calling
process takes blocks 0, W, 2W, ... and each of W - 1 helper
interpreters, running `_rowtext` as a script with no numpy or kgesub,
the blocks of its own stride, sent to it as float64 bytes.
Every block comes from `_rowtext.format_rows` wherever it is formatted,
so the bytes do not depend on the CPU count.  A score file's header
gives the sub-model id as the rest of its line, so an id may hold
spaces but no tab or line break.
`load_scores` keeps each score file's parse beside it as a container
(`scores_copy_path`) through `data.kept_parse`, as `data.load_dataset`
does for a dataset; `save_scores` writes the copy with the text.
"""

from __future__ import annotations

import enum
import math
import subprocess
import sys
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable

import numpy as np

from . import _rowtext, models
from .data import (DIRECTION_NAMES, Dataset, kept_parse, parse_text,
                   replacing, split_fields)
from .errors import DataError, DegenerateInputError, WriterError
from .models import ModelParams, iter_candidate_scores

# Hyper-parameter search grids.
ALPHA_GRID = (2.0, 1.0, 0.5, 0.1, 0.05, 0.01)
LAMBDA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)

_TINY = np.finfo(np.float64).tiny
_ROWS = 1 << 14  # table rows formatted and written at once
# of a score copy's digest; a change to the score parse rules must bump it
_SCORES_TAG = "kgesub-scores 3"
_SUBMODEL = "# submodel="  # a score file's header, before the id
# not in a sub-model id: a tab splits a ledger row, a line break a header
_ID_BREAKS = frozenset("\t\n\r")


class SubsamplingMethod(enum.Enum):
    BASE = "base"
    FREQ = "freq"
    UNIQ = "uniq"


@dataclass(frozen=True)
class Provenance:
    source: str  # "none" | "cbs" | "mbs" | "mix"
    method: str
    alpha: float | None = None
    lam: float | None = None
    submodel_id: str | None = None

    def describe(self) -> str:
        alpha, lam = ("-" if v is None else v for v in (self.alpha, self.lam))
        return (f"source={self.source} method={self.method} alpha={alpha} "
                f"lambda={lam} submodel={self.submodel_id or '-'}")


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
    submodel_id: str  # holds none of `_ID_BREAKS`

    def __post_init__(self) -> None:
        if _ID_BREAKS.intersection(self.submodel_id):
            raise DataError(f"sub-model id {self.submodel_id!r} holds a tab "
                            "or a line break")
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


def _columns(method: SubsamplingMethod, link: np.ndarray,
             query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A method's (a, b) columns from link and query columns."""
    if method == SubsamplingMethod.BASE:
        return link, link
    return (link, query) if method == SubsamplingMethod.FREQ else (query, query)


def logsumexp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(x))) along `axis`, shifted by the maximum so that no
    term overflows and the largest is exp(0) = 1."""
    peak = x.max(axis=axis, keepdims=True)
    terms = x - peak
    return np.log(np.exp(terms, out=terms).sum(axis=axis)) + peak.squeeze(axis)


def log_model_frequencies(dataset: Dataset, scores: SubModelScores,
                          submodel: ModelParams | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Model-based (log f_xy, log f_x) per expanded example.

    The link frequency of example i is |D| times its softmax probability
    over the training examples.  The query frequency of example i sums
    the link frequencies of the examples that share its query, i.e. the
    probability mass of the answers observed for that query; each sum is
    taken in log space, shifted by the query's largest term.  Given the
    `submodel` that produced `scores`, it sums the mass of all E
    candidate answers instead, scoring each distinct query once.
    """
    raw, n = scores.raw_score, dataset.num_examples
    if raw.shape[0] != n:
        raise ValueError(f"scores cover {raw.shape[0]} examples, dataset "
                         f"has {n}")
    offset = math.log(n) - float(logsumexp(raw))
    index = dataset.train_index
    if submodel is not None:
        log_mass = np.empty(index.num_queries)
        for start, stop, candidate_scores in iter_candidate_scores(
                submodel, index.direction, index.entity, index.relation):
            log_mass[start:stop] = logsumexp(candidate_scores, axis=1)
        return raw + offset, (log_mass + offset)[index.query_id]
    log_f_xy = raw + offset
    peak = np.full(index.num_queries, -np.inf)
    np.maximum.at(peak, index.query_id, log_f_xy)
    mass = np.bincount(index.query_id,
                       weights=np.exp(log_f_xy - peak[index.query_id]))
    return log_f_xy, (np.log(mass) + peak)[index.query_id]


def discounted_weights(log_f_xy: np.ndarray, log_f_x: np.ndarray,
                       method: SubsamplingMethod, alpha: float,
                       provenance: Provenance) -> WeightTable:
    """Weights f ** -alpha of log frequencies, normalized to mean 1.

    Each column is n * exp(x - logsumexp(x)) with x = -alpha * log f,
    so no power overflows however far apart the frequencies lie.  A
    weight below the smallest normal double is raised to it, so the
    table stays positive where the spread is too wide for a double.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if log_f_xy.shape != log_f_x.shape:
        raise ValueError("f_xy and f_x must cover the same examples")
    a, b = (np.maximum(len(x) * np.exp(x - logsumexp(x)), _TINY)
            for x in _columns(method, -alpha * log_f_xy, -alpha * log_f_x))
    return WeightTable(a=a, b=b, provenance=provenance)


def build_cbs_weights(dataset: Dataset, method: SubsamplingMethod,
                      smoothing: float) -> WeightTable:
    """Count-based weights: 1/sqrt discounting of counted frequencies.

    Base uses the link frequency for both columns, Freq uses the link
    frequency for `a` and the query frequency for `b`, Uniq uses the
    query frequency for both.
    """
    f_xy, f_x = counted_frequencies(dataset, smoothing)
    return discounted_weights(np.log(f_xy), np.log(f_x), method, 0.5,
                              Provenance(source="cbs", method=method.value))


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

    Weights are written as shortest round-trip decimals, so a reader
    gets bitwise-equal arrays back.  A table whose weights are all
    exactly 1 is written as its header alone, ending in `examples=N`.
    """
    with replacing(path, "wb") as fh:
        if np.all(table.a == 1.0) and np.all(table.b == 1.0):
            fh.write(f"# {table.provenance.describe()} "
                     f"examples={table.num_examples}\n".encode())
            return
        fh.write(f"# {table.provenance.describe()}\n".encode())
        _write_rows(fh, table.a, table.b, labels=DIRECTION_NAMES)


def _write_rows(fh: IO[bytes], *columns: np.ndarray,
                labels: tuple[str, ...] = ()) -> None:
    """`example_id[<TAB>label]<TAB>value...` rows of float columns, as
    shortest round-trip decimals, `_ROWS` rows per block, through
    `_rowtext.format_rows`.

    Of W = min(CPUs, blocks) formatters, the calling process formats
    blocks 0, W, 2W, ... and helper interpreter w blocks w, w + W, ...,
    which it gets as float64 bytes on stdin; the calling process writes
    every block in order.  A helper that does not start leaves its
    blocks to a smaller W, and one that fails raises WriterError.  No
    helper outlives the call."""
    starts = range(0, len(columns[0]), _ROWS)
    helpers = _start_helpers(min(models._WORKERS, len(starts)) - 1,
                             len(columns), labels)
    count = 1 + len(helpers)

    def block(start: int) -> list[np.ndarray]:
        return [np.ascontiguousarray(column[start:start + _ROWS], np.float64)
                for column in columns]
    try:
        for w, helper in enumerate(helpers, 1):
            try:
                for start in starts[w::count]:
                    _rowtext.send_block(helper.stdin, start, block(start))
                helper.stdin.close()
            except BrokenPipeError:
                raise WriterError(f"text helper {helper.pid} exited before "
                                  "it read its blocks") from None
        for k, start in enumerate(starts):
            if k % count:
                helper = helpers[k % count - 1]
                rows = _rowtext.receive_block(helper.stdout)
                if rows is None:
                    raise WriterError(f"text helper {helper.pid} stopped "
                                      "before it sent every block")
            else:
                rows = _rowtext.format_rows(
                    start, [column.tolist() for column in block(start)],
                    labels)
            fh.write(rows)
        for helper in helpers:
            if helper.wait():
                raise WriterError(f"text helper {helper.pid} exited with "
                                  f"status {helper.returncode}")
    finally:
        for helper in helpers:
            if helper.poll() is None:
                helper.kill()
            helper.wait()
            helper.stdout.close()
            with suppress(BrokenPipeError):  # bytes left for a dead helper
                helper.stdin.close()


def _start_helpers(count: int, num_columns: int,
                   labels: tuple[str, ...]) -> list[subprocess.Popen]:
    """Up to `count` helper interpreters of `_rowtext`; none when this
    interpreter's path is unknown, and no more after one fails to
    start."""
    helpers = []
    command = [sys.executable, "-I", "-S", _rowtext.__file__,
               str(num_columns), *labels]
    for _ in range(count if sys.executable else 0):
        try:
            helpers.append(subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE))
        except OSError:
            break
    return helpers


def _check_dense(ids: list[str], start: int) -> None:
    if list(map(int, ids)) != list(range(start, start + len(ids))):
        raise ValueError("example ids must be dense")


def _floats(column: list[str]) -> np.ndarray:
    return np.fromiter(map(float, column), np.float64, len(column))


def scores_copy_path(path: str | Path) -> Path:
    """Where the parsed copy of a score file is kept: beside it, as
    `.<file name>.kgesub.bin`."""
    path = Path(path)
    return path.with_name(f".{path.name}.kgesub.bin")


def save_scores(scores: SubModelScores, path: str | Path) -> None:
    """`example_id<TAB>raw_score` rows behind a `# submodel=<id>` header,
    and the parsed copy of those bytes beside them, so that the first
    `load_scores` of the file reads the copy.  No scores, no copy."""
    with replacing(path, "wb") as fh:
        fh.write(f"{_SUBMODEL}{scores.submodel_id}\n".encode())
        _write_rows(fh, scores.raw_score)
    if len(scores.raw_score):  # `scores` is the parse of that text
        _kept_scores(Path(path), lambda: scores)


def load_scores(path: str | Path) -> SubModelScores:
    """Read a file written by `save_scores`; scores must be finite.  The
    id is the rest of the header line.

    The parse is kept as `scores_copy_path(path)` and read back while
    the text is unchanged: a SHA-256 of the parse rules' version, then
    of the text's length and bytes, keys it.
    """
    path = Path(path)
    return _kept_scores(path, lambda: _parse_scores(path))


def _kept_scores(path: Path,
                 parse: Callable[[], SubModelScores]) -> SubModelScores:
    """`parse()` of the score file `path`, kept beside it."""
    return kept_parse(scores_copy_path(path), _SCORES_TAG, [path], parse,
                      _copied_scores, lambda scores: ({
                          "payload": "scores", "submodel": scores.submodel_id},
                          {"raw_score": scores.raw_score}))


def _copied_scores(header: dict, arrays: dict[str, np.ndarray]
                   ) -> SubModelScores | None:
    """The scores of a parsed copy, None when it does not hold one valid
    id and one non-empty flat array (`read_container` has rejected
    non-finite entries)."""
    submodel_id = header.get("submodel")
    if (header.get("payload") != "scores"
            or not isinstance(submodel_id, str)
            or _ID_BREAKS.intersection(submodel_id)
            or list(arrays) != ["raw_score"]
            or arrays["raw_score"].ndim != 1 or not arrays["raw_score"].size):
        return None
    return SubModelScores(raw_score=arrays["raw_score"],
                          submodel_id=submodel_id)


def _parse_scores(path: Path) -> SubModelScores:
    header = {"submodel": "unknown"}
    values: list[np.ndarray] = [np.empty(0)]

    def parse(rows: list[str], comments: list[str], start: int) -> None:
        for line in comments:
            if line.startswith(_SUBMODEL):
                header["submodel"] = line[len(_SUBMODEL):].rstrip("\n")
        fields = split_fields(rows, 2, "expected 2 fields")
        _check_dense(fields[0::2], start)
        values.append(_floats(fields[1::2]))

    parse_text(path, parse)
    raw = np.concatenate(values)
    if not len(raw):
        raise DataError(f"{path}: empty score file")
    return SubModelScores(raw_score=raw, submodel_id=header["submodel"])
