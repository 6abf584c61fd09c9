"""Knowledge-graph triples, vocabularies, and the query index.

A triple (h, r, t) projects onto two queries: the tail query (h, r, ?)
answered by t, and the head query (?, r, t) answered by h.  Training
and evaluation both operate on these direction-expanded examples, so a
dataset with N stored triples provides 2N examples.  Example ids are
assigned as ``2 * triple_index + direction`` with direction 0 for tail
queries and 1 for head queries.

`QueryIndex` is the one array index of examples and queries behind
query counts, subsampling weights, the negative-sample filter and
filtered ranking.  Built once from the (N, 3) id array of a triple
list, it holds per example (in example-id order) `query_id` and
`answer`; per query `direction`, `entity`, `relation` and `count`; and
a CSR list of answers: the sorted distinct answers of query q are
``answers[offsets[q]:offsets[q + 1]]``, and `complement_key` maps a
rank among q's non-answers to the entity, for negative sampling.  Query ids follow the packed
int64 key ``(direction * E + entity) * R + relation``, ascending, which
is the order of `QueryKey` tuples; `find` maps queries to ids by binary
search on that key.  `Dataset.train_index` is the index of the training
split, built on first use; the evaluation filter indexes all three.

Datasets, vocabularies, and indexes are never mutated after
construction; any number of threads may read them concurrently.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError, VocabMismatchError


class Direction(enum.IntEnum):
    """Which slot of the triple the query asks for."""

    TAIL_QUERY = 0  # (h, r, ?)
    HEAD_QUERY = 1  # (?, r, t)


# How files and reports spell each direction, indexed by `Direction`.
DIRECTION_NAMES = ("tail-query", "head-query")


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


class QueryKey(NamedTuple):
    direction: Direction
    entity: int
    relation: int


def query_of(triple: Triple, direction: Direction) -> QueryKey:
    """The query obtained by blanking the answer slot of `triple`."""
    if direction == Direction.TAIL_QUERY:
        return QueryKey(Direction.TAIL_QUERY, triple.head, triple.relation)
    return QueryKey(Direction.HEAD_QUERY, triple.tail, triple.relation)


def answer_of(triple: Triple, direction: Direction) -> int:
    """The entity filling the blanked slot of `triple`."""
    return triple.tail if direction == Direction.TAIL_QUERY else triple.head


def triple_array(triples: Sequence[Triple]) -> np.ndarray:
    """(N, 3) int64 array of the head, relation and tail ids."""
    return np.fromiter(itertools.chain.from_iterable(triples),
                       dtype=np.int64, count=3 * len(triples)).reshape(-1, 3)


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
    def build(cls, triples: Sequence[Triple], num_entities: int,
              num_relations: int) -> "QueryIndex":
        ids = triple_array(triples)
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


class Vocab:
    """Bidirectional label <-> dense-id maps for entities and relations.

    Ids are assigned contiguously in first-appearance order and are
    stable across save/load round trips.
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

    def entity_id(self, label: str) -> int:
        eid = self.entity_to_id.get(label)
        if eid is None:
            if self._frozen:
                raise VocabMismatchError(f"unknown entity label: {label!r}")
            eid = len(self.entity_labels)
            self.entity_to_id[label] = eid
            self.entity_labels.append(label)
        return eid

    def relation_id(self, label: str) -> int:
        rid = self.relation_to_id.get(label)
        if rid is None:
            if self._frozen:
                raise VocabMismatchError(f"unknown relation label: {label!r}")
            rid = len(self.relation_labels)
            self.relation_to_id[label] = rid
            self.relation_labels.append(label)
        return rid

    def save(self, directory: str | Path) -> None:
        """Write entities.tsv and relations.tsv (`label<TAB>id` lines)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name, labels in (("entities.tsv", self.entity_labels),
                             ("relations.tsv", self.relation_labels)):
            with open(directory / name, "w", encoding="utf-8") as fh:
                for idx, label in enumerate(labels):
                    fh.write(f"{label}\t{idx}\n")

    @classmethod
    def load(cls, directory: str | Path) -> "Vocab":
        directory = Path(directory)
        vocab = cls()
        for name, to_id, labels in (
            ("entities.tsv", vocab.entity_to_id, vocab.entity_labels),
            ("relations.tsv", vocab.relation_to_id, vocab.relation_labels),
        ):
            path = directory / name
            for lineno, line in text_lines(path):
                parts = line.split("\t")
                if len(parts) != 2:
                    raise DataError(
                        f"{path}:{lineno}: expected `label<TAB>id`")
                if parts[1] != str(len(labels)):
                    raise DataError(
                        f"{path}:{lineno}: ids must be dense and ordered "
                        f"(got {parts[1]!r}, expected {len(labels)})")
                to_id[parts[0]] = len(labels)
                labels.append(parts[0])
        return vocab


@dataclass
class Dataset:
    train: list[Triple]
    valid: list[Triple]
    test: list[Triple]
    vocab: Vocab

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

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.vocab.save(directory)
        for split, triples in (("train", self.train), ("valid", self.valid),
                               ("test", self.test)):
            with open(directory / f"{split}.txt", "w", encoding="utf-8") as fh:
                for h, r, t in triples:
                    fh.write(f"{self.vocab.entity_labels[h]}\t"
                             f"{self.vocab.relation_labels[r]}\t"
                             f"{self.vocab.entity_labels[t]}\n")


def load_triples(path: str | Path,
                 existing_vocab: Vocab | None = None) -> tuple[list[Triple], Vocab]:
    """Parse a `head<TAB>relation<TAB>tail` file into id triples.

    Ids are assigned in first-appearance order when building a fresh
    vocabulary.  Under an existing (frozen) vocabulary, unknown labels
    raise VocabMismatchError.  Lines starting with `#` are comments.
    """
    path = Path(path)
    vocab = existing_vocab if existing_vocab is not None else Vocab()
    triples: list[Triple] = []
    for lineno, line in text_lines(path):
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(
                f"{path}:{lineno}: expected 3 tab-separated fields, "
                f"got {len(parts)}")
        h, r, t = parts
        triples.append(Triple(vocab.entity_id(h), vocab.relation_id(r),
                              vocab.entity_id(t)))
    if not triples:
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
