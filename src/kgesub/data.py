"""Knowledge-graph triples, vocabularies, and the query index.

A dataset's splits are read-only (N, 3) int64 arrays of (head,
relation, tail) ids.  A triple (h, r, t) projects onto two queries: the
tail query (h, r, ?) answered by t, and the head query (?, r, t)
answered by h.  So N triples give 2N examples, with example id
``2 * triple_index + direction`` (0 for tail, 1 for head queries).

`QueryIndex` is the one array index of examples and queries behind
query counts, subsampling weights, the negative-sample filter and
filtered ranking.  Built once from an (N, 3) id array, it holds per
example (in example-id order) `query_id` and `answer`; per query
`direction`, `entity`, `relation` and `count`; and a CSR list of
answers: the sorted distinct answers of query q are
``answers[offsets[q]:offsets[q + 1]]``, and `complement_key` maps a rank
among q's non-answers to the entity, for negative sampling.  Query ids
follow the packed int64 key ``(direction * E + entity) * R + relation``,
ascending, which is the order of `QueryKey` tuples; `find` maps queries
to ids by binary search on that key.  `Dataset.train_index` is the index of the training
split, built on first use; the evaluation filter indexes all three.

Datasets, vocabularies, and indexes are never mutated after
construction; any number of threads may read them concurrently.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError, KgesubError, VocabMismatchError

BLOCK_BYTES = 1 << 16  # about this many bytes of lines per parsed block


class Direction(enum.IntEnum):
    """Which slot of the triple the query asks for."""

    TAIL_QUERY = 0  # (h, r, ?)
    HEAD_QUERY = 1  # (?, r, t)


# How files and reports spell each direction, indexed by `Direction`.
DIRECTION_NAMES = ("tail-query", "head-query")


class QueryKey(NamedTuple):
    direction: Direction
    entity: int
    relation: int


@dataclass(frozen=True, eq=False)
class QueryIndex:
    """Examples, queries and answers of a triple list as arrays."""

    num_entities: int
    num_relations: int
    query_id: np.ndarray  # (2N,) per example
    answer: np.ndarray  # (2N,) per example
    key: np.ndarray  # (Q,) packed keys, ascending
    direction: np.ndarray  # (Q,)
    entity: np.ndarray  # (Q,)
    relation: np.ndarray  # (Q,)
    count: np.ndarray  # (Q,)
    offsets: np.ndarray  # (Q + 1,)
    answers: np.ndarray  # (offsets[-1],)

    @classmethod
    def build(cls, triples: np.ndarray, num_entities: int,
              num_relations: int) -> "QueryIndex":
        ids = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        if ids.size and (ids.min() < 0 or ids[:, 1].max() >= num_relations
                         or ids[:, [0, 2]].max() >= num_entities):
            raise ValueError("triple ids outside the vocabulary")
        entities = ids[:, [0, 2]].ravel()
        relations = np.repeat(ids[:, 1], 2)
        answer = ids[:, [2, 0]].ravel()
        directions = np.tile(np.array([Direction.TAIL_QUERY,
                                       Direction.HEAD_QUERY]), len(ids))
        key, query_id = np.unique(
            (directions * num_entities + entities) * num_relations
            + relations, return_inverse=True)
        rest, relation = np.divmod(key, num_relations)
        direction, entity = np.divmod(rest, num_entities)
        # distinct (query, answer) pairs by sorting: np.unique would take
        # its hash-table path here (numpy >= 2.3), far slower and erratic
        pairs = np.sort(query_id * num_entities + answer)
        owner, answers = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0],
                                   num_entities)
        offsets = np.zeros(len(key) + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=len(key)), out=offsets[1:])
        arrays = (query_id, answer, key, direction, entity, relation,
                  np.bincount(query_id, minlength=len(key)), offsets, answers)
        for array in arrays:
            array.flags.writeable = False
        return cls(num_entities, num_relations, *arrays)

    @property
    def num_queries(self) -> int:
        return len(self.key)

    def find(self, directions: np.ndarray, entities: np.ndarray,
             relations: np.ndarray) -> np.ndarray:
        """Query id of each (direction, entity, relation), -1 where the
        index does not hold the query."""
        keys = ((np.asarray(directions, dtype=np.int64) * self.num_entities
                 + entities) * self.num_relations + relations)
        pos = np.searchsorted(self.key, keys)
        found = pos < len(self.key)
        found[found] = self.key[pos[found]] == keys[found]
        return np.where(found, pos, -1)

    def answers_of(self, query_id: int) -> np.ndarray:
        """Sorted distinct answers of one query."""
        return self.answers[self.offsets[query_id]:self.offsets[query_id + 1]]

    @cached_property
    def complement_key(self) -> np.ndarray:
        """q * E + (answer - its position in q's list), per CSR answer.

        The second term counts the entities below the answer that do
        not answer q, so the keys ascend and the u-th such entity of
        query q is u plus the number of q's keys <= q * E + u.
        """
        owner = np.repeat(np.arange(self.num_queries), np.diff(self.offsets))
        key = (owner * self.num_entities + self.answers
               - (np.arange(len(self.answers)) - self.offsets[owner]))
        key.flags.writeable = False
        return key


def text_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, line) of each non-blank line of a UTF-8 text file,
    without its newline; undecodable bytes raise DataError."""
    lineno = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}:{lineno + 1}: not UTF-8 text at or after "
                        f"this line ({exc.reason})") from None


def parse_text(path: Path,
               parse: Callable[[list[str], list[str], int], None]) -> None:
    """Feed a UTF-8 text file to `parse(rows, comments, start)` in blocks
    of about BLOCK_BYTES of lines (newlines kept; `comments` start with
    `#`, `rows` are the other non-blank lines, `start` counts the rows
    before them).  A block that `parse` raises ValueError or KgesubError
    on, or that is not UTF-8, is fed again a line at a time, so that its
    first bad line raises DataError with `path:line`."""
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
        with open(path, encoding="utf-8") as fh:
            while lines := fh.readlines(BLOCK_BYTES):
                rows = [line for line in lines
                        if line[0] != "#" and line != "\n"]
                try:
                    parse(rows, [line for line in lines if line[0] == "#"],
                          rows_done)
                    rows_done += len(rows)
                except (ValueError, KgesubError):
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


class Vocab:
    """Bidirectional label <-> dense-id maps for entities and relations.

    Ids are assigned contiguously in first-appearance order.
    """

    def __init__(self) -> None:
        self.entity_to_id: dict[str, int] = {}
        self.relation_to_id: dict[str, int] = {}
        self.entity_labels: list[str] = []
        self.relation_labels: list[str] = []
        self._frozen = False

    @property
    def num_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def num_relations(self) -> int:
        return len(self.relation_labels)

    def freeze(self) -> "Vocab":
        """Disallow the introduction of new labels."""
        self._frozen = True
        return self

    def add(self, kind: str, labels: list[str]) -> None:
        """Give unseen `kind` ("entity" or "relation") labels the next
        ids in first-appearance order, unless frozen."""
        to_id = getattr(self, f"{kind}_to_id")
        known = getattr(self, f"{kind}_labels")
        fresh = [] if self._frozen else [
            label for label in dict.fromkeys(labels) if label not in to_id]
        to_id.update(zip(fresh, range(len(known), len(known) + len(fresh))))
        known.extend(fresh)

    def ids(self, kind: str, labels: list[str]) -> np.ndarray:
        """Ids of `kind` labels; an unknown one raises VocabMismatchError."""
        to_id = getattr(self, f"{kind}_to_id")
        try:
            return np.fromiter(map(to_id.__getitem__, labels), np.int64,
                               len(labels))
        except KeyError as exc:
            raise VocabMismatchError(
                f"unknown {kind} label: {exc.args[0]!r}") from None


@dataclass(eq=False)
class Dataset:
    """Splits as read-only (N, 3) int64 arrays of (head, relation, tail)
    ids, copied from any sequence of id triples, and their vocabulary."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    vocab: Vocab

    def __post_init__(self) -> None:
        for split in ("train", "valid", "test"):
            ids = np.array(getattr(self, split), dtype=np.int64).reshape(-1, 3)
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


def load_triples(path: str | Path,
                 existing_vocab: Vocab | None = None) -> tuple[np.ndarray, Vocab]:
    """Parse a `head<TAB>relation<TAB>tail` file into an (N, 3) id array.

    Ids are assigned in first-appearance order (head before tail) when
    building a fresh vocabulary.  Under an existing (frozen) vocabulary,
    unknown labels raise VocabMismatchError.  Lines starting with `#`
    are comments.
    """
    path = Path(path)
    vocab = existing_vocab if existing_vocab is not None else Vocab()
    blocks: list[np.ndarray] = [np.empty((0, 3), np.int64)]

    def parse(rows: list[str], comments: list[str], start: int) -> None:
        fields = split_fields(rows, 3,
                              "expected 3 tab-separated fields, got {}")
        relations = fields[1::3]
        del fields[1::3]  # heads and tails, interleaved
        vocab.add("entity", fields)
        vocab.add("relation", relations)
        blocks.append(np.stack([vocab.ids("entity", fields[0::2]),
                                vocab.ids("relation", relations),
                                vocab.ids("entity", fields[1::2])], axis=1))

    parse_text(path, parse)
    triples = np.concatenate(blocks)
    if not len(triples):
        raise DataError(f"{path}: no triples found")
    return triples, vocab


def load_dataset(directory: str | Path) -> Dataset:
    """Load train.txt/valid.txt/test.txt under one shared vocabulary.

    The vocabulary is built from all three splits (train first) so that
    evaluation candidates cover every known entity.
    """
    directory = Path(directory)
    vocab = Vocab()
    train, _ = load_triples(directory / "train.txt", vocab)
    valid, _ = load_triples(directory / "valid.txt", vocab)
    test, _ = load_triples(directory / "test.txt", vocab)
    return Dataset(train=train, valid=valid, test=test, vocab=vocab)


def singleton_query_stats(
        dataset: Dataset) -> list[tuple[QueryKey, int, int]]:
    """Entity/relation frequencies of queries seen exactly once in train.

    For every training query asked by one example, reports how many
    training triples contain its entity (in either slot; a self-loop
    counts once) and how many contain its relation, sorted by entity
    frequency descending.  Ties keep a deterministic order (relation
    frequency, then key).
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
    entities, relations = index.entity[single], index.relation[single]
    by_entity, by_relation = entity_count[entities], relation_count[relations]
    order = np.lexsort((single, -by_relation, -by_entity))
    return [(QueryKey(Direction(d), e, r), ce, cr) for d, e, r, ce, cr in zip(
        index.direction[single][order].tolist(), entities[order].tolist(),
        relations[order].tolist(), by_entity[order].tolist(),
        by_relation[order].tolist())]
