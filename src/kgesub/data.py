"""Knowledge-graph triples, vocabularies, and the query index.

A dataset's splits are read-only (N, 3) int64 arrays of (head,
relation, tail) ids, and its `Vocab` holds the entity and relation
labels in id order; label -> id maps live only inside a parse.  A
triple (h, r, t) projects onto two queries: the tail query (h, r, ?)
answered by t, and the head query (?, r, t) answered by h.  N triples
give 2N examples, example id ``2 * triple_index + direction`` (0 for
tail, 1 for head queries).

`QueryIndex` is the one array index of examples and queries behind
query counts, subsampling weights, the negative-sample filter and
filtered ranking.  Built from an (N, 3) id array, which it keeps as
`triples`, it is one sort of the examples by packed int64 query key
``(direction * E + entity) * R + relation``, then answer, then example
id (a lexsort where the three do not fit one int64).  What reads every
query derives, on first use, per example (in example-id order)
`query_id` and `answer`, and per query `direction`, `entity`,
`relation` and `count`; query ids follow the keys ascending, which is
the lexicographic order of (direction, entity, relation).  What reads
a few examples does not: `example_queries` reads an example's query and
answer from its triple, and `QueryIndex.lookup` finds the sorted
distinct answers of given queries by two binary searches in the sort,
so a training step draws its negatives from the complement of those
answers, and ranking masks them, without the arrays of every example.
`Dataset.train_index` is the index of the training split and
`Dataset.filter_index` that of train, valid and test concatenated in
`SPLITS` order, each built on first use.

`load_dataset` keeps its parse beside the text as `.kgesub-dataset.bin`,
in the binary container of checkpoints, and reads that copy while the
SHA-256 of the splits is unchanged, through `kept_parse`, which the
score files of `subsampling` use too; `content_digest` keys both.
Artifacts are written through
`replacing`: a reader finds the old file or the new, never a torn one.
`read_container` rejects a header that is not strict JSON (no NaN or
Infinity) and an array holding a NaN or inf.

Datasets, vocabularies, and indexes are never mutated after
construction; any number of threads may read them concurrently.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import os
import struct
import threading
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse, repeat
from pathlib import Path
from typing import IO, TypeVar

import numpy as np

from .errors import CheckpointError, DataError

BLOCK_BYTES = 1 << 16  # about this many bytes of lines per parsed block
_MAGIC = b"KGESUBCK"  # of the binary container
_FORMAT_VERSION = 1
_PIECE = 1 << 16  # entries (512 KiB) of a container array read at once
SPLITS = ("train", "valid", "test")
COPY_NAME = ".kgesub-dataset.bin"  # the parsed copy in a dataset directory
COPY_VERSION = 2  # of the parse rules: a change must bump it
_DATASET_TAG = f"kgesub-dataset {COPY_VERSION}"  # of the copy's digest
_T = TypeVar("_T")


class Direction(enum.IntEnum):
    """Which slot of the triple the query asks for."""

    TAIL_QUERY = 0  # (h, r, ?)
    HEAD_QUERY = 1  # (?, r, t)


# How files and reports spell each direction, indexed by `Direction`.
DIRECTION_NAMES = ("tail-query", "head-query")


@dataclass(frozen=True, eq=False)
class QueryIndex:
    """Examples, queries and answers of a triple list, from one sort."""

    num_entities: int
    num_relations: int
    triples: np.ndarray  # (N, 3), read-only: example 2i + d is row i's
    # ascending: (query key, answer, example id) codes, the key above
    # `_answer_bits + _example_bits` bits; or, when they do not fit one
    # int64, the query keys alone, with `_lexsorted`
    _sorted: np.ndarray
    _answer_bits: int
    _example_bits: int
    _lexsorted: tuple[np.ndarray, np.ndarray] | None  # answers, example ids

    @classmethod
    def build(cls, triples: np.ndarray, num_entities: int,
              num_relations: int) -> "QueryIndex":
        """The index of `triples`, which it keeps: a writable array is
        copied first."""
        ids = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        if ids.size and (ids.min() < 0 or ids[:, 1].max() >= num_relations
                         or max(ids[:, 0].max(),
                                ids[:, 2].max()) >= num_entities):
            raise ValueError("triple ids outside the vocabulary")
        if ids.flags.writeable:
            ids = ids.copy()
            ids.flags.writeable = False
        # query keys of the tail then head query of each triple, built in
        # place: each temporary of every example is faulted in anew
        coded = np.empty((len(ids), 2), dtype=np.int64)
        np.multiply(ids[:, 0], num_relations, out=coded[:, 0])
        np.add(ids[:, 2], num_entities, out=coded[:, 1])
        coded[:, 1] *= num_relations
        coded += ids[:, 1:2]
        answers = ids[:, 2::-2]  # (tail, head): each example's answer
        # one sort by (query key, answer): of both and the example id in
        # one int64 where that fits, else a lexsort of the two
        key_bits, ebits, nbits = ((int(n) - 1).bit_length() for n in (
            2 * num_entities * num_relations, num_entities, coded.size))
        if key_bits + ebits + nbits <= 63:
            coded <<= ebits
            coded |= answers
            coded <<= nbits
            coded = coded.reshape(-1)
            coded |= np.arange(coded.size)
            coded.sort()
            coded.flags.writeable = False
            return cls(num_entities, num_relations, ids, coded, ebits, nbits,
                       None)
        keys, answer = coded.reshape(-1), answers.reshape(-1)
        order = np.lexsort((answer, keys))
        arrays = keys[order], answer[order], order
        for array in arrays:
            array.flags.writeable = False
        return cls(num_entities, num_relations, ids, arrays[0], 0, 0,
                   arrays[1:])

    @cached_property
    def _queries(self) -> tuple[np.ndarray, ...]:
        """query_id, direction, entity, relation and count, from the sort."""
        if self._lexsorted is None:
            keys = self._sorted >> (self._answer_bits + self._example_bits)
            order = self._sorted & ((1 << self._example_bits) - 1)
        else:
            keys, order = self._sorted, self._lexsorted[1]
        starts = np.diff(keys, prepend=-1) != 0  # each query's first example
        query_id = np.empty(len(order), dtype=np.int64)
        query_id[order] = np.cumsum(starts) - 1
        first = np.flatnonzero(starts)
        rest, relation = np.divmod(keys[first], self.num_relations)
        direction, entity = np.divmod(rest, self.num_entities)
        arrays = (query_id, direction, entity, relation,
                  np.diff(first, append=len(keys)))
        for array in arrays:
            array.flags.writeable = False
        return arrays

    @property
    def query_id(self) -> np.ndarray:
        """(2N,) the query of each example."""
        return self._queries[0]

    @cached_property
    def answer(self) -> np.ndarray:
        """(2N,) the answer of each example."""
        answer = self.triples[:, 2::-2].ravel()
        answer.flags.writeable = False
        return answer

    @property
    def direction(self) -> np.ndarray:
        """(Q,) of each query, like `entity`, `relation` and `count`."""
        return self._queries[1]

    @property
    def entity(self) -> np.ndarray:
        return self._queries[2]

    @property
    def relation(self) -> np.ndarray:
        return self._queries[3]

    @property
    def count(self) -> np.ndarray:
        """(Q,) examples of each query."""
        return self._queries[4]

    @property
    def num_queries(self) -> int:
        return len(self.count)

    def lookup(self, directions, entities, relations
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(query, offsets, answers) of the queries (directions[i],
        entities[i], relations[i]): query i is the query[i]-th of the
        distinct ones, in key order, and the q-th has the sorted distinct
        answers ``answers[offsets[q]:offsets[q + 1]]``, none when the
        index lacks it.

        Two binary searches in the sort give each distinct query's run
        of examples, ordered by answer; a repeated triple repeats its
        code but for the example id, and only the first of each is kept.
        """
        below = self._answer_bits + self._example_bits
        keys, query = np.unique(
            (np.asarray(directions, dtype=np.int64) * self.num_entities
             + entities) * self.num_relations + relations, return_inverse=True)
        keys <<= below
        lo = np.searchsorted(self._sorted, keys)
        sizes = np.searchsorted(self._sorted, keys | ((1 << below) - 1),
                                side="right") - lo
        ends = np.cumsum(sizes)
        at = np.arange(sizes.sum()) + np.repeat(lo - ends + sizes, sizes)
        # `at - 1` of the first code wraps to the last, a head query's,
        # whose key differs from every tail query's
        if self._lexsorted is None:
            pairs = self._sorted[at] >> self._example_bits
            fresh = pairs != self._sorted[at - 1] >> self._example_bits
            found = pairs & ((1 << self._answer_bits) - 1)
        else:
            answers = self._lexsorted[0]
            found = answers[at]
            fresh = ((self._sorted[at] != self._sorted[at - 1])
                     | (found != answers[at - 1]))
        kept = np.concatenate(([0], np.cumsum(fresh)))
        return query, kept[np.concatenate(([0], ends))], found[fresh]


def example_queries(triples: np.ndarray, example_ids
                    ) -> tuple[np.ndarray, ...]:
    """Direction, entity, relation and answer of each example of
    `triples`, read from its row: example 2i + d asks query d of row i."""
    example_ids = np.asarray(example_ids, dtype=np.int64)
    rows = triples[example_ids >> 1]
    direction = example_ids & 1
    return (direction, np.where(direction, rows[:, 2], rows[:, 0]),
            rows[:, 1], np.where(direction, rows[:, 0], rows[:, 2]))


def text_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, line) of each non-blank line of a UTF-8 text file,
    without its newline or a leading byte-order mark; undecodable bytes
    raise DataError."""
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


def parse_text(path: Path,
               parse: Callable[[list[str], list[str], int], None]) -> None:
    """Feed a UTF-8 text file, less a leading byte-order mark, to
    `parse(rows, comments, start)` in blocks of about BLOCK_BYTES of
    lines (newlines kept; `comments` start with `#`, `rows` are the
    other non-blank lines, `start` counts the rows before them).  A
    block that `parse` raises ValueError on, or that is not UTF-8, is fed
    again a line at a time, so that its first bad line raises DataError
    with `path:line`."""
    lines_done = rows_done = 0

    def one_by_one(numbered: Iterator[tuple[int, str]]) -> None:
        nonlocal rows_done
        for lineno, line in numbered:
            if line.rstrip("\n"):
                comment = line[0] == "#"
                try:
                    parse(*(([], [line]) if comment else ([line], [])), rows_done)
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                rows_done += not comment

    try:
        with open(path, encoding="utf-8-sig") as fh:
            while lines := fh.readlines(BLOCK_BYTES):
                rows = [line for line in lines
                        if line[0] != "#" and line != "\n"]
                try:
                    parse(rows, [line for line in lines if line[0] == "#"],
                          rows_done)
                    rows_done += len(rows)
                except ValueError:
                    one_by_one(enumerate(lines, lines_done + 1))
                lines_done += len(lines)
    except UnicodeDecodeError:
        one_by_one(item for item in text_lines(path) if item[0] > lines_done)


def split_fields(rows: list[str], width: int, message: str) -> list[str]:
    """Fields of tab-separated rows, flat, `width` per row; another count
    raises ValueError(message), the count in place of `{}`."""
    counts = set(map(str.count, rows, repeat("\t"))) - {width - 1}
    if counts:
        raise ValueError(message.format(min(counts) + 1))
    fields = "".join(rows).replace("\n", "\t").split("\t")
    del fields[width * len(rows):]
    return fields


@contextmanager
def replacing(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """A file beside `path` to write (text as UTF-8) that replaces
    `path` when the block ends, and is removed if the block raises."""
    temp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(temp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(temp, path)
    finally:
        with suppress(OSError):  # left only when the block raised
            os.unlink(temp)


def write_container(path: str | Path, header: dict,
                    arrays: dict[str, np.ndarray]) -> None:
    """Binary container: magic, length-prefixed JSON header, then the
    arrays named in header["arrays"] as row-major little-endian f64."""
    header = dict(header)
    header["format_version"] = _FORMAT_VERSION
    header["arrays"] = [{"name": name, "shape": list(arr.shape)}
                        for name, arr in arrays.items()]
    blob = json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8")
    with replacing(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in arrays.values():
            flat = np.ravel(arr)
            for start in range(0, flat.size, _PIECE):
                fh.write(flat[start:start + _PIECE].astype("<f8"))


def _not_json(literal: str):
    raise ValueError(f"{literal} is not a JSON value")


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of a container; a NaN or inf entry, or a NaN or
    Infinity literal in the header, raises CheckpointError (a NaN score
    would rank every answer first)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise CheckpointError(f"{path}: truncated header")
        (blob_len,) = struct.unpack("<Q", raw_len)
        if blob_len > size - fh.tell():
            raise CheckpointError(f"{path}: truncated header")
        blob = fh.read(blob_len)
        try:
            header = json.loads(blob.decode("utf-8"),
                                parse_constant=_not_json)
        except (ValueError, RecursionError) as exc:  # bytes, syntax, size
            raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        if header.get("format_version") != _FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported format version "
                f"{header.get('format_version')}")
        specs = header.get("arrays")
        if not isinstance(specs, list):
            raise CheckpointError(f"{path}: header has no array list")
        arrays: dict[str, np.ndarray] = {}
        for spec in specs:
            name, shape = ((spec.get("name"), spec.get("shape"))
                           if isinstance(spec, dict) else (None, None))
            if (not isinstance(name, str) or not isinstance(shape, list)
                    or not all(type(n) is int and n >= 0 for n in shape)):
                raise CheckpointError(f"{path}: bad array entry {spec!r}")
            if 8 * math.prod(shape) > size - fh.tell():
                raise CheckpointError(f"{path}: truncated array {name!r}")
            try:
                arrays[name] = np.empty(shape, dtype="<f8")
            except ValueError as exc:  # a shape numpy cannot make
                raise CheckpointError(f"{path}: {name!r}: {exc}") from exc
            flat = arrays[name].reshape(-1)
            for start in range(0, flat.size, _PIECE):
                piece = flat[start:start + _PIECE]
                if fh.readinto(piece) != piece.nbytes:  # cut since the stat
                    raise CheckpointError(f"{path}: truncated array {name!r}")
                # a finite sum has no NaN or inf term; one that overflows
                # leaves it to the entrywise test
                with np.errstate(over="ignore", invalid="ignore"):
                    if not (np.isfinite(piece.sum())
                            or np.isfinite(piece).all()):
                        raise CheckpointError(
                            f"{path}: {name} holds a non-finite entry")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after arrays")
    return header, arrays


@dataclass(frozen=True)
class Vocab:
    """Entity and relation labels in id order: an id is the position of
    its label.  A parse gives ids in first-appearance order."""

    entity_labels: tuple[str, ...] = ()
    relation_labels: tuple[str, ...] = ()

    @property
    def num_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def num_relations(self) -> int:
        return len(self.relation_labels)


@dataclass(eq=False)
class Dataset:
    """Splits as read-only (N, 3) int64 arrays of (head, relation, tail)
    ids, and their vocabulary.  A read-only array that owns its data is
    kept as given; any other sequence of id triples is copied."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    vocab: Vocab

    def __post_init__(self) -> None:
        for split in SPLITS:
            ids = getattr(self, split)
            if not (isinstance(ids, np.ndarray) and ids.base is None
                    and not ids.flags.writeable):
                ids = np.array(ids, dtype=np.int64)
            ids = ids.astype(np.int64, copy=False).reshape(-1, 3)
            ids.flags.writeable = False
            setattr(self, split, ids)

    @property
    def num_entities(self) -> int:
        return self.vocab.num_entities

    @property
    def num_relations(self) -> int:
        return self.vocab.num_relations

    @property
    def num_examples(self) -> int:
        """Direction-expanded training example count (2 per triple)."""
        return 2 * len(self.train)

    @cached_property
    def train_index(self) -> QueryIndex:
        """The query index of the training split."""
        return QueryIndex.build(self.train, self.num_entities,
                                self.num_relations)

    @cached_property
    def filter_index(self) -> QueryIndex:
        """The query index of all three splits, in `SPLITS` order: the
        known answers that filtered ranking leaves out."""
        joined = np.concatenate([getattr(self, split) for split in SPLITS])
        joined.flags.writeable = False  # the index keeps it
        return QueryIndex.build(joined, self.num_entities,
                                self.num_relations)


def _parse_triples(path: Path, entity_ids: dict[str, int],
                   relation_ids: dict[str, int]) -> np.ndarray:
    """Parse a `head<TAB>relation<TAB>tail` file into a read-only (N, 3)
    id array.  Labels get their ids from the maps, and unseen ones the
    next ids, in first-appearance order, head before tail; they are
    added to the maps.  Lines starting with `#` are comments."""
    blocks: list[np.ndarray] = [np.empty((0, 3), np.int64)]

    def parse(rows: list[str], comments: list[str], start: int) -> None:
        fields = split_fields(rows, 3,
                              "expected 3 tab-separated fields, got {}")
        relations = fields[1::3]
        del fields[1::3]  # heads and tails, interleaved
        block = np.empty((len(rows), 3), np.int64)
        block[:, 0::2] = _ids(entity_ids, fields).reshape(-1, 2)
        block[:, 1] = _ids(relation_ids, relations)
        blocks.append(block)

    parse_text(path, parse)
    triples = np.concatenate(blocks)
    if not len(triples):
        raise DataError(f"{path}: no triples found")
    triples.flags.writeable = False
    return triples


def _ids(to_id: dict[str, int], labels: list[str]) -> np.ndarray:
    """Ids of `labels`; `to_id` first gives unseen ones its next ids."""
    fresh = list(filterfalse(to_id.__contains__, dict.fromkeys(labels)))
    to_id.update(zip(fresh, range(len(to_id), len(to_id) + len(fresh))))
    return np.fromiter(map(to_id.__getitem__, labels), np.int64, len(labels))


def load_dataset(directory: str | Path) -> Dataset:
    """Load train.txt/valid.txt/test.txt under one shared vocabulary.

    The vocabulary is built from all three splits (train first) so that
    evaluation candidates cover every known entity.  The parse is kept
    as `COPY_NAME` and read back while the text is unchanged.
    """
    paths = [Path(directory) / f"{split}.txt" for split in SPLITS]

    def parse() -> Dataset:
        to_ids: list[dict[str, int]] = [{}, {}]  # of entities, relations
        splits = [_parse_triples(path, *to_ids) for path in paths]
        return Dataset(*splits, vocab=Vocab(*map(tuple, to_ids)))

    return kept_parse(Path(directory) / COPY_NAME, _DATASET_TAG, paths,
                      parse, _copied, _packed)


def kept_parse(copy: Path, tag: str, paths: list[Path],
               parse: Callable[[], _T], unpack: Callable[..., _T | None],
               pack: Callable[[_T], tuple[dict, dict]]) -> _T:
    """`parse()` of the files `paths`, kept as the container `copy`.

    The copy's `unpack(header, arrays)` stands in for the parse while its
    header holds `content_digest(tag, paths)` and the unpack is not None.
    Otherwise the parse is kept as `pack(value)`, a header and arrays,
    unless the text changed during the parse or the copy cannot be
    written.
    """
    digest = None
    with suppress(OSError, CheckpointError):  # the parse raises, if any
        digest = content_digest(tag, paths)
        header, arrays = read_container(copy)
        if header.get("digest") == digest and (
                value := unpack(header, arrays)) is not None:
            return value
    value = parse()
    with suppress(OSError):  # not if the text changed during the parse
        if digest and digest == content_digest(tag, paths):
            header, arrays = pack(value)
            write_container(copy, dict(header, digest=digest), arrays)
    return value


def content_digest(tag: str, paths: Iterable[str | Path]) -> str:
    """SHA-256 of `tag`, then of each file's byte length and bytes: the
    key of a parsed copy, with the parse rules' version in `tag`."""
    digest = hashlib.sha256(tag.encode())
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(os.fstat(fh.fileno()).st_size.to_bytes(8, "little"))
            while block := fh.read(BLOCK_BYTES):
                digest.update(block)
    return digest.hexdigest()


def _packed(dataset: Dataset) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and arrays of a dataset's parsed copy."""
    return {"payload": "dataset",
            "entities": "\t".join(dataset.vocab.entity_labels),
            "relations": "\t".join(dataset.vocab.relation_labels)}, {
                split: getattr(dataset, split) for split in SPLITS}


def _copied(header: dict, arrays: dict[str, np.ndarray]) -> Dataset | None:
    """The dataset of a parsed copy, None when it is not a valid one."""
    labels = [header.get("entities"), header.get("relations")]
    if not all(isinstance(names, str) for names in labels):
        return None
    labels = [tuple(names.split("\t")) for names in labels]  # never empty
    if any(len(set(names)) != len(names) for names in labels):
        return None  # duplicate labels
    bounds = [len(labels[0]), len(labels[1]), len(labels[0])]
    splits = []
    for floats in (arrays.get(split, np.empty(0)) for split in SPLITS):
        with np.errstate(invalid="ignore"):  # huge ids cast too
            ids = floats.astype(np.int64)
        # max by column: a reduction along axis 0 is many times slower
        if not (ids.ndim == 2 and ids.shape[1] == 3 and len(ids)
                and np.array_equal(ids, floats) and ids.min() >= 0 and all(
                    col.max() < bound for col, bound in zip(ids.T, bounds))):
            return None  # not (n, 3) ids that are integral and theirs
        ids.flags.writeable = False
        splits.append(ids)
    return Dataset(*splits, vocab=Vocab(*labels))


def singleton_query_stats(dataset: Dataset) -> tuple[np.ndarray, ...]:
    """Entity/relation frequencies of queries seen exactly once in train.

    For every training query asked by one example, reports how many
    training triples contain its entity (in either slot; a self-loop
    counts once) and how many contain its relation, sorted by entity
    frequency descending.  Ties keep a deterministic order (relation
    frequency, then query id).  Returns five int64 columns: direction,
    entity, relation, entity count and relation count.
    """
    index = dataset.train_index
    tail_queries = index.query_id[0::2]
    heads, tails = index.entity[tail_queries], index.answer[0::2]
    entity_count = (np.bincount(heads, minlength=index.num_entities)
                    + np.bincount(tails[tails != heads],
                                  minlength=index.num_entities))
    relation_count = np.bincount(index.relation[tail_queries],
                                 minlength=index.num_relations)
    single = np.flatnonzero(index.count == 1)
    by_entity = entity_count[index.entity[single]]
    by_relation = relation_count[index.relation[single]]
    order = np.lexsort((single, -by_relation, -by_entity))
    single = single[order]
    return (index.direction[single], index.entity[single],
            index.relation[single], by_entity[order], by_relation[order])
