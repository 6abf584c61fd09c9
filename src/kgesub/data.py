"""Knowledge-graph triples, vocabularies, and query frequency counts.

A triple (h, r, t) projects onto two queries: the tail query (h, r, ?)
answered by t, and the head query (?, r, t) answered by h.  Training
and evaluation both operate on these direction-expanded examples, so a
dataset with N stored triples provides 2N examples.  Example ids are
assigned as ``2 * triple_index + direction`` with direction 0 for tail
queries and 1 for head queries.

Frequencies of links are approximated by the arithmetic mean of the two
query counts (the back-off used by count-based subsampling), optionally
shifted by an additive smoothing constant.

Datasets, vocabularies, and frequency tables are never mutated after
construction; any number of threads may read them concurrently.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError, VocabMismatchError


class Direction(enum.IntEnum):
    """Which slot of the triple the query asks for."""

    TAIL_QUERY = 0  # (h, r, ?)
    HEAD_QUERY = 1  # (?, r, t)


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


def example_id(triple_index: int, direction: Direction) -> int:
    return 2 * triple_index + int(direction)


def example_queries(triples: Sequence[Triple]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Direction, entity, relation and answer id arrays of the
    direction-expanded examples of `triples`, in example-id order."""
    ids = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    directions = np.tile(np.array([Direction.TAIL_QUERY,
                                   Direction.HEAD_QUERY]), len(ids))
    return (directions, ids[:, [0, 2]].ravel(), np.repeat(ids[:, 1], 2),
            ids[:, [2, 0]].ravel())


def expand_examples(triples: Sequence[Triple]) -> Iterable[tuple[int, int, Direction]]:
    """Yield (example_id, triple_index, direction) in canonical order."""
    for i in range(len(triples)):
        yield 2 * i, i, Direction.TAIL_QUERY
        yield 2 * i + 1, i, Direction.HEAD_QUERY


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
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.rstrip("\n")
                    if not line:
                        continue
                    parts = line.split("\t")
                    if len(parts) != 2:
                        raise DataError(f"{path}:{lineno}: expected `label<TAB>id`")
                    label, idx = parts[0], int(parts[1])
                    if idx != len(labels):
                        raise DataError(
                            f"{path}:{lineno}: ids must be dense and ordered "
                            f"(got {idx}, expected {len(labels)})")
                    to_id[label] = idx
                    labels.append(label)
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
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
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


@dataclass
class FrequencyTable:
    """Smoothed occurrence counts of query keys over the training split.

    Raw integer counts are stored; the smoothing constant is added at
    lookup time, so absent keys report exactly `smoothing`.
    """

    smoothing: float
    _raw: dict[QueryKey, int] = field(default_factory=dict)

    def count(self, key: QueryKey) -> float:
        return self._raw.get(key, 0) + self.smoothing

    def raw_count(self, key: QueryKey) -> int:
        return self._raw.get(key, 0)

    def keys(self) -> Iterable[QueryKey]:
        return self._raw.keys()


def count_queries(train: Sequence[Triple], smoothing: float = 4.0) -> FrequencyTable:
    """Tally both query projections of every training triple.

    count(TailQuery, h, r) is the number of training occurrences of
    (h, r, *); count(HeadQuery, t, r) likewise for (*, r, t).
    """
    if smoothing < 0:
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")
    raw: dict[QueryKey, int] = {}
    for triple in train:
        for direction in (Direction.TAIL_QUERY, Direction.HEAD_QUERY):
            key = query_of(triple, direction)
            raw[key] = raw.get(key, 0) + 1
    return FrequencyTable(smoothing=smoothing, _raw=raw)


def triple_frequency(freq: FrequencyTable, triple: Triple) -> float:
    """Back-off link frequency: the mean of the two query counts."""
    tail_q = freq.count(query_of(triple, Direction.TAIL_QUERY))
    head_q = freq.count(query_of(triple, Direction.HEAD_QUERY))
    return (tail_q + head_q) / 2.0


def query_frequency(freq: FrequencyTable, query: QueryKey) -> float:
    return freq.count(query)


def singleton_query_stats(
        train: Sequence[Triple]) -> list[tuple[QueryKey, int, int]]:
    """Entity/relation frequencies of queries seen exactly once in train.

    For every query key with raw count 1, reports how many training
    triples contain its entity (in either slot) and how many contain
    its relation, sorted by entity frequency descending.  Ties keep a
    deterministic order (relation frequency, then key).
    """
    freq = count_queries(train, smoothing=0.0)
    entity_count: dict[int, int] = {}
    relation_count: dict[int, int] = {}
    for h, r, t in train:
        entity_count[h] = entity_count.get(h, 0) + 1
        if t != h:
            entity_count[t] = entity_count.get(t, 0) + 1
        relation_count[r] = relation_count.get(r, 0) + 1
    rows = [(key, entity_count[key.entity], relation_count[key.relation])
            for key in freq.keys() if freq.raw_count(key) == 1]
    rows.sort(key=lambda row: (-row[1], -row[2], row[0]))
    return rows


def true_answers_index(triples: Iterable[Triple]) -> dict[QueryKey, set[int]]:
    """Map each query to the set of answers observed in `triples`."""
    index: dict[QueryKey, set[int]] = {}
    for triple in triples:
        for direction in (Direction.TAIL_QUERY, Direction.HEAD_QUERY):
            key = query_of(triple, direction)
            index.setdefault(key, set()).add(answer_of(triple, direction))
    return index
