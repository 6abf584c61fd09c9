"""Triple loading, vocabularies, and query counting."""

import dataclasses
import os
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgesub import data
from kgesub.data import (Dataset, Direction, QueryIndex, Vocab, load_dataset,
                         read_container, replacing, singleton_query_stats,
                         write_container)
from kgesub.errors import CheckpointError, DataError, KgesubError
from kgesub.submodel import read_ledger
from kgesub.subsampling import (Provenance, SubModelScores, WeightTable,
                                counted_frequencies, load_scores,
                                save_scores, save_weight_table,
                                scores_copy_path)

from conftest import (QueryKey, Triple, answers_of, as_triples,
                      brute_force_query_counts, find, load_triples,
                      looped_zipf_kg, make_vocab, oracle_answer_sets,
                      oracle_counted_frequencies, oracle_query_counts,
                      oracle_query_index, oracle_singleton_query_stats,
                      query_of, random_triples, save_dataset, singleton_rows,
                      sorted_query_counts, zipf_kg)

INDEX_FIELDS = ("query_id", "answer", "direction", "entity", "relation",
                "count", "offsets", "answers")


def index_of(train, num_entities=None, num_relations=None):
    num_entities = num_entities or 1 + max(max(h, t) for h, _, t in train)
    num_relations = num_relations or 1 + max(r for _, r, _ in train)
    return QueryIndex.build(train, num_entities, num_relations)


def count_of(index, key):
    """The index's count of one query key, 0 for a key it lacks."""
    q = int(find(index, [key[0]], [key[1]], [key[2]])[0])
    return 0 if q < 0 else int(index.count[q])


def train_only(train, num_entities, num_relations=1):
    return Dataset(train=train, valid=[], test=[],
                   vocab=make_vocab(num_entities, num_relations))


class TestLoadTriples:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("a\tr\tb\na\tr\tc\n", encoding="utf-8")
        triples, vocab = load_triples(path)
        assert triples.dtype == np.int64
        assert triples.tolist() == [[0, 0, 1], [0, 0, 2]]
        assert vocab.num_entities == 3
        assert vocab.num_relations == 1

    def test_first_appearance_ids(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("x\tp\ty\ny\tq\tx\n", encoding="utf-8")
        _, vocab = load_triples(path)
        assert vocab == Vocab(("x", "y"), ("p", "q"))

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("# header\na\tr\tb\n\n", encoding="utf-8")
        triples, _ = load_triples(path)
        assert len(triples) == 1

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("a\tr\tb\na r b\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2:"):
            load_triples(path)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="no triples"):
            load_triples(path)

    def test_existing_vocab_is_extended_not_changed(self, tmp_path):
        path = tmp_path / "valid.txt"
        path.write_text("y\tq\tz\nw\tp\tx\n", encoding="utf-8")
        existing = Vocab(("x", "y"), ("p",))
        triples, vocab = load_triples(path, existing)
        assert triples.tolist() == [[1, 1, 2], [3, 0, 0]]
        assert not triples.flags.writeable
        assert vocab == Vocab(("x", "y", "z", "w"), ("p", "q"))
        assert existing == Vocab(("x", "y"), ("p",))

    def test_vocab_fields_cannot_be_assigned(self):
        vocab = make_vocab(2, 1)
        for name in ("entity_labels", "relation_labels"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(vocab, name, ())
        assert vocab == make_vocab(2, 1)


class TestVocabRoundTrip:
    def test_undecodable_bytes_are_data_errors(self, tmp_path):
        (tmp_path / "train.txt").write_bytes(b"a\tr\t\xfe\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_triples(tmp_path / "train.txt")

    def test_dataset_round_trip(self, tmp_path, toy_dataset):
        save_dataset(toy_dataset, tmp_path)
        loaded = load_dataset(tmp_path)
        np.testing.assert_array_equal(loaded.train, toy_dataset.train)
        np.testing.assert_array_equal(loaded.valid, toy_dataset.valid)
        np.testing.assert_array_equal(loaded.test, toy_dataset.test)
        assert loaded.vocab.entity_labels == toy_dataset.vocab.entity_labels


class TestCountQueries:
    def test_hand_tally(self, toy_triples):
        index = index_of(toy_triples)
        assert count_of(index, QueryKey(Direction.TAIL_QUERY, 0, 0)) == 2
        assert count_of(index, QueryKey(Direction.HEAD_QUERY, 2, 0)) == 2
        assert count_of(index, QueryKey(Direction.HEAD_QUERY, 1, 0)) == 1

    def test_empty_train_has_no_queries(self):
        index = QueryIndex.build([], 6, 2)
        assert index.num_queries == 0
        assert find(index, [0], [5], [1]).tolist() == [-1]

    def test_negative_smoothing_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            counted_frequencies(toy_dataset, -1.0)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(42)
        train = random_triples(rng, 10, 3, 100)
        index = index_of(train, 10, 3)
        oracle = brute_force_query_counts(train)
        for (direction, entity, relation), expected in oracle.items():
            key = QueryKey(Direction(direction), entity, relation)
            assert count_of(index, key) == expected

    def test_count_conservation(self):
        """Each direction's counts sum to |train|."""
        rng = np.random.default_rng(3)
        train = random_triples(rng, 20, 4, 250)
        index = index_of(train, 20, 4)
        for direction in Direction:
            assert index.count[index.direction == direction].sum() \
                == len(train)

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(11)
        train = random_triples(rng, 40, 6, 3000)
        index = index_of(train, 40, 6)
        oracle = sorted_query_counts(train)
        assert len(oracle) == index.num_queries
        for key_tuple, expected in oracle.items():
            key = QueryKey(Direction(key_tuple[0]), key_tuple[1],
                           key_tuple[2])
            assert count_of(index, key) == expected


class TestQueryIndex:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dict_oracles(self, seed):
        """Queries, counts and answer sets equal the dict loops exactly,
        on Zipf graphs with repeated queries and self-loops."""
        dataset = looped_zipf_kg(seed)
        index = dataset.train_index
        counts = oracle_query_counts(dataset.train)
        answers = oracle_answer_sets(dataset.train)
        keys = sorted(counts)
        assert [QueryKey(Direction(d), e, r) for d, e, r in zip(
            index.direction.tolist(), index.entity.tolist(),
            index.relation.tolist())] == keys
        assert index.count.tolist() == [counts[k] for k in keys]
        for q, key in enumerate(keys):
            assert answers_of(index, q).tolist() == sorted(answers[key])
        assert max(counts.values()) > 1
        assert any(h == t for h, _, t in dataset.train)

    def test_examples_in_example_id_order(self):
        dataset = looped_zipf_kg(3)
        index = dataset.train_index
        train = as_triples(dataset.train)
        for eid in range(dataset.num_examples):
            triple, direction = train[eid // 2], Direction(eid % 2)
            q = index.query_id[eid]
            key = (index.direction[q], index.entity[q], index.relation[q])
            assert key == query_of(triple, direction)
            assert index.answer[eid] == (triple.tail if eid % 2 == 0
                                         else triple.head)

    def test_find(self):
        dataset = looped_zipf_kg(4)
        index = dataset.train_index
        ids = find(index, index.direction, index.entity, index.relation)
        np.testing.assert_array_equal(ids, np.arange(index.num_queries))
        absent = [(d, e, r) for d in (0, 1)
                  for e in range(dataset.num_entities)
                  for r in range(dataset.num_relations)
                  if QueryKey(Direction(d), e, r)
                  not in oracle_query_counts(dataset.train)]
        assert absent
        d, e, r = (np.array(column) for column in zip(*absent))
        assert np.all(find(index, d, e, r) == -1)

    def test_read_only(self, toy_dataset):
        with pytest.raises(ValueError):
            toy_dataset.train_index.count[0] = 5

    def test_ids_outside_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            QueryIndex.build([Triple(0, 0, 3)], 3, 1)
        with pytest.raises(ValueError):
            QueryIndex.build([Triple(0, 1, 2)], 3, 1)

    def test_train_index_is_cached(self, toy_dataset):
        assert toy_dataset.train_index is toy_dataset.train_index

    def test_complement_key_locates_non_answers(self):
        """Key q * E + u finds the u-th non-answer of q, by the rule
        `training.sample_negatives` uses, for every q and u."""
        dataset = looped_zipf_kg(5, num_entities=12, num_links=150,
                                 num_valid=10, num_test=10)
        index = dataset.train_index
        key = index.complement_key
        assert np.all(np.diff(key) >= 0)
        with pytest.raises(ValueError):
            key[0] = 0
        num = dataset.num_entities
        for q in range(index.num_queries):
            answers = set(answers_of(index, q).tolist())
            free = [e for e in range(num) if e not in answers]
            found = [u + int(np.searchsorted(key, q * num + u, "right"))
                     - int(index.offsets[q]) for u in range(len(free))]
            assert found == free


def same_index(index: QueryIndex, triples, num_entities: int,
               num_relations: int) -> None:
    """The index's arrays equal the earlier builder's, value and dtype,
    and its queries, counts and answers equal the dict oracles."""
    for name, want in zip(INDEX_FIELDS, oracle_query_index(
            triples, num_entities, num_relations)):
        got = getattr(index, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    counts = oracle_query_counts(triples)
    answers = oracle_answer_sets(triples)
    keys = sorted(counts)
    assert [QueryKey(Direction(d), e, r) for d, e, r in zip(
        index.direction.tolist(), index.entity.tolist(),
        index.relation.tolist())] == keys
    assert index.count.tolist() == [counts[k] for k in keys]
    for q, key in enumerate(keys):
        assert answers_of(index, q).tolist() == sorted(answers[key])


# vocabulary sizes that take each sort of `QueryIndex.build`: query key,
# answer and example id in one int64 (small sizes, and 2**28 entities of
# 8 relations for at most 4 triples, which fill all 63 bits); a lexsort
# of the two (2**28 entities for more triples, and 2**40 entities)
@st.composite
def small_graph(draw):
    num_entities, num_relations = draw(st.sampled_from(
        [(0, 0), (2 ** 28, 8), (2 ** 40, 2)]))
    if not num_entities:
        num_entities = draw(st.integers(1, 6))
        num_relations = draw(st.integers(1, 3))
        entity = st.integers(0, num_entities - 1)
    else:
        entity = st.sampled_from([0, 1, 2, num_entities - 1])
    triples = draw(st.lists(st.tuples(
        entity, st.integers(0, num_relations - 1), entity), max_size=40))
    return [Triple(*t) for t in triples], num_entities, num_relations


class TestQueryIndexBuild:
    """`QueryIndex.build` sorts once; the arrays are those of the earlier
    `np.unique` builder."""

    @settings(max_examples=200, deadline=None)
    @given(graph=small_graph())
    def test_equals_unique_based_builder(self, graph):
        triples, num_entities, num_relations = graph
        same_index(QueryIndex.build(triples, num_entities, num_relations),
                   triples, num_entities, num_relations)

    @pytest.mark.parametrize("num_entities, num_relations, size, lexsort", [
        (50, 5, 300, False), (2 ** 28, 8, 4, False), (2 ** 28, 8, 5, True),
        (2 ** 40, 2, 300, True)])
    def test_each_sort(self, num_entities, num_relations, size, lexsort):
        rng = np.random.default_rng(num_relations)
        pool = np.array([0, 1, 2, 3, num_entities - 1])
        ids = np.stack([rng.choice(pool, size),
                        rng.integers(0, num_relations, size),
                        rng.choice(pool, size)], axis=1)
        triples = [Triple(*row) for row in ids.tolist()]
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
            index = QueryIndex.build(ids, num_entities, num_relations)
        assert spy.called == lexsort
        same_index(index, triples, num_entities, num_relations)

    def test_zipf_graphs(self):
        for seed in range(3):
            dataset = looped_zipf_kg(seed)
            same_index(dataset.train_index, as_triples(dataset.train),
                       dataset.num_entities, dataset.num_relations)


class TestSyntheticGraphs:
    def test_zipf_kg_rejects_impossible_link_count(self):
        """12 entities x 5 relations x 3 tails hold 180 distinct links,
        fewer than the default 620: an error at once, not a hang."""
        with pytest.raises(ValueError):
            zipf_kg(2, num_entities=12)


class TestTripleFrequency:
    def test_hand_value(self, toy_dataset):
        f_xy, _ = counted_frequencies(toy_dataset, 0.0)
        assert f_xy[0] == f_xy[1] == 1.5

    def test_matches_dict_oracle(self):
        for seed in range(3):
            dataset = looped_zipf_kg(seed)
            for smoothing in (0.0, 0.5, 4.0):
                got = counted_frequencies(dataset, smoothing)
                want = oracle_counted_frequencies(dataset.train, smoothing)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        train = random_triples(rng, 12, 3, 60)
        order = rng.permutation(len(train))
        shuffled = [train[i] for i in order]
        f1, _ = counted_frequencies(train_only(train, 12, 3), 0.5)
        f2, _ = counted_frequencies(train_only(shuffled, 12, 3), 0.5)
        np.testing.assert_array_equal(f1[0::2][order], f2[0::2])


class TestQueryFrequency:
    def test_hand_value(self, toy_dataset):
        _, f_x = counted_frequencies(toy_dataset, 0.0)
        assert f_x[0] == 2  # (e1, r1, ?)

    def test_smoothing_is_added(self, toy_dataset):
        _, f0 = counted_frequencies(toy_dataset, 0.0)
        _, f4 = counted_frequencies(toy_dataset, 4.0)
        np.testing.assert_array_equal(f4, f0 + 4.0)


class TestSingletonQueryStats:
    def test_hand_tally(self, toy_dataset):
        rows = singleton_rows(singleton_query_stats(toy_dataset))
        by_key = {row[0]: row for row in rows}
        key = QueryKey(Direction.HEAD_QUERY, 1, 0)  # (?, r1, e2)
        assert key in by_key
        _, entity_count, relation_count = by_key[key]
        assert entity_count == 2  # e2 appears in 2 triples
        assert relation_count == 3

    def test_sorted_by_entity_frequency_descending(self):
        rng = np.random.default_rng(5)
        train = random_triples(rng, 15, 4, 80)
        rows = singleton_rows(singleton_query_stats(train_only(train, 15, 4)))
        entity_counts = [row[1] for row in rows]
        assert entity_counts == sorted(entity_counts, reverse=True)

    def test_all_repeated_queries_gives_empty(self):
        train = [Triple(0, 0, 1), Triple(0, 0, 1)]
        assert singleton_rows(singleton_query_stats(train_only(train, 2))) \
            == []

    def test_single_triple_has_two_singletons(self):
        assert len(singleton_rows(singleton_query_stats(
            train_only([Triple(0, 0, 1)], 2)))) == 2

    def test_self_loop_counts_once(self):
        train = [Triple(0, 0, 0), Triple(0, 1, 1)]
        rows = singleton_rows(singleton_query_stats(train_only(train, 2, 2)))
        assert {row[0].entity: row[1] for row in rows}[0] == 2

    def test_matches_dict_oracle(self):
        for seed in range(4):
            dataset = looped_zipf_kg(seed)
            columns = singleton_query_stats(dataset)
            assert all(column.dtype == np.int64 for column in columns)
            rows = singleton_rows(columns)
            assert rows == oracle_singleton_query_stats(dataset.train)
            assert all(type(v) is int for row in rows for v in row[0][1:]
                       + row[1:])


class TestTextParsersFuzz:
    @pytest.mark.parametrize("load", [load_triples, load_scores,
                                      read_ledger],
                             ids=["triples", "scores", "ledger"])
    @settings(max_examples=150, deadline=None)
    @given(blob=st.binary(max_size=200))
    def test_any_bytes_give_a_value_or_a_typed_error(self, load, blob):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "input.txt"
            path.write_bytes(blob)
            try:
                load(path)
            except KgesubError:
                pass


class TestDataset:
    def test_num_examples_is_twice_train(self, toy_dataset):
        assert toy_dataset.num_examples == 6

    def test_vocab_sizes(self, toy_dataset):
        assert toy_dataset.num_entities == 3
        assert toy_dataset.num_relations == 1

    def test_make_vocab_is_dense(self):
        vocab = make_vocab(4, 2)
        assert vocab.entity_labels == ("e0", "e1", "e2", "e3")
        assert vocab.relation_labels == ("r0", "r1")

    def test_keeps_only_read_only_arrays_that_own_their_data(self):
        owned = np.array([[0, 0, 1]])
        owned.flags.writeable = False
        base = np.array([[0, 0, 1], [1, 0, 2]])
        view = base[:1]
        view.flags.writeable = False
        dataset = Dataset(owned, view, [[1, 0, 0]], vocab=make_vocab(3, 1))
        assert np.shares_memory(dataset.train, owned)
        base[0, 2] = 2  # a later write to the view's base
        assert dataset.valid.tolist() == [[0, 0, 1]]
        assert not any(getattr(dataset, split).flags.writeable
                       for split in SPLITS)

    def test_keeps_the_parsed_splits(self, tmp_path, monkeypatch):
        save_dataset(looped_zipf_kg(1), tmp_path)
        parse, parses = data._parse_triples, []

        def kept(*args):
            parses.append(parse(*args))
            return parses[-1]

        monkeypatch.setattr(data, "_parse_triples", kept)
        dataset = load_dataset(tmp_path)
        assert len(parses) == 3 and all(
            np.shares_memory(getattr(dataset, split), ids)
            for split, ids in zip(SPLITS, parses))


class TestContainerFiniteness:
    """`read_container` rejects a NaN or inf entry in any piece of any
    array, and reads back finite entries whose sum overflows.  Headers
    are strict JSON both ways."""

    def test_header_is_strict_json(self, tmp_path):
        path = tmp_path / "c.bin"
        with pytest.raises(ValueError):
            write_container(path, {"gamma": float("nan")}, {})
        assert not path.exists()
        write_container(path, {"gamma": 1.0}, {})
        path.write_bytes(path.read_bytes().replace(b"1.0", b"NaN"))
        with pytest.raises(CheckpointError, match="NaN is not a JSON value"):
            read_container(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 5, 9])
    def test_non_finite_entry_names_the_array(self, tmp_path, monkeypatch,
                                              value, position):
        monkeypatch.setattr(data, "_PIECE", 4)  # pieces of 4, 4 and 2
        bad = np.arange(10.0)
        bad[position] = value
        path = tmp_path / "c.bin"
        write_container(path, {}, {"good": np.ones((3, 3)), "bad": bad})
        with pytest.raises(CheckpointError) as raised:
            read_container(path)
        assert str(raised.value) == f"{path}: bad holds a non-finite entry"

    def test_overflowing_sum_is_not_an_error(self, tmp_path):
        table = np.full((5, 3), np.finfo(np.float64).max)
        table[1] *= -1
        path = tmp_path / "c.bin"
        write_container(path, {}, {"table": table})
        with np.errstate(all="raise"):
            assert np.array_equal(read_container(path)[1]["table"], table)


SPLITS = ("train", "valid", "test")
# labels that JSON escapes, that end lines for str.splitlines but not for
# the text reader, and an empty relation label
TRICKY_TRAIN = ("a b\tr 1\t#x\n"
                "\u00e9\u4e2d\U0001f600\tr 1\ta b\n"
                "\x85\t\t\u2028\n"
                "\"q\\\tr 1\t\x0b\n")


def parsed(directory: Path) -> Dataset:
    """The dataset of the text alone, as `load_dataset` parsed it before
    it kept a copy."""
    vocab, splits = Vocab(), []
    for split in SPLITS:
        ids, vocab = load_triples(directory / f"{split}.txt", vocab)
        splits.append(ids)
    return Dataset(*splits, vocab=vocab)


def assert_same_dataset(got: Dataset, want: Dataset) -> None:
    for split in SPLITS:
        ids = getattr(got, split)
        assert ids.dtype == np.int64 and not ids.flags.writeable
        np.testing.assert_array_equal(ids, getattr(want, split))
    assert got.vocab == want.vocab
    assert all(type(labels) is tuple and all(type(s) is str for s in labels)
               for labels in (got.vocab.entity_labels,
                              got.vocab.relation_labels))


def no_parse(*args):
    raise AssertionError("the text was parsed")


def no_write(*args):
    raise AssertionError("a parsed copy was written")


def huge_integer_header(path: Path) -> None:
    """Give a container a 5,000-digit format version, which `json`
    refuses to convert."""
    blob = path.read_bytes()
    (size,) = struct.unpack("<Q", blob[8:16])
    header = blob[16:16 + size].replace(
        b'"format_version": 1', b'"format_version": ' + b"1" * 5000)
    assert len(header) > size
    path.write_bytes(blob[:8] + struct.pack("<Q", len(header)) + header
                     + blob[16 + size:])


class TestParsedCopy:
    """`load_dataset` keeps its parse as a container beside the text and
    reads it back while the text is unchanged."""

    @pytest.fixture
    def kg_dir(self, tmp_path):
        directory = tmp_path / "kg"
        save_dataset(looped_zipf_kg(1), directory)
        with open(directory / "train.txt", "a", encoding="utf-8") as fh:
            fh.write(TRICKY_TRAIN)
        return directory

    def test_hit_equals_a_fresh_parse(self, kg_dir, monkeypatch):
        first = load_dataset(kg_dir)
        assert (kg_dir / data.COPY_NAME).is_file()
        monkeypatch.setattr(data, "parse_text", no_parse)
        hit = load_dataset(kg_dir)
        monkeypatch.undo()
        want = parsed(kg_dir)
        assert_same_dataset(first, want)
        assert_same_dataset(hit, want)
        assert "\u2028" in hit.vocab.entity_labels
        assert "" in hit.vocab.relation_labels
        assert sorted(os.listdir(kg_dir)) == sorted(
            [data.COPY_NAME] + [f"{split}.txt" for split in SPLITS])

    def test_hit_writes_nothing(self, kg_dir, monkeypatch):
        load_dataset(kg_dir)
        copy = kg_dir / data.COPY_NAME
        before = copy.stat()
        monkeypatch.setattr(data, "write_container", no_write)
        load_dataset(kg_dir)
        after = copy.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                     before.st_mtime_ns)

    def test_byte_order_mark_is_not_part_of_a_label(self, kg_dir, tmp_path):
        marked = tmp_path / "marked"
        marked.mkdir()
        for split in SPLITS:
            text = (kg_dir / f"{split}.txt").read_bytes()
            (marked / f"{split}.txt").write_bytes(
                "\ufeff".encode("utf-8") + text)
        want = parsed(kg_dir)
        for _ in range(2):  # the parse, then its copy
            assert_same_dataset(load_dataset(marked), want)
        assert (marked / data.COPY_NAME).is_file()

    def test_hit_does_not_parse_text(self, kg_dir, monkeypatch):
        load_dataset(kg_dir)
        monkeypatch.setattr(data, "parse_text", no_parse)
        load_dataset(kg_dir)
        (kg_dir / data.COPY_NAME).unlink()
        with pytest.raises(AssertionError, match="parsed"):
            load_dataset(kg_dir)

    @pytest.mark.parametrize("split", SPLITS)
    def test_an_edit_at_the_same_size_and_mtime_misses(self, kg_dir, split):
        old = load_dataset(kg_dir)
        path = kg_dir / f"{split}.txt"
        before = path.stat()
        text = path.read_text(encoding="utf-8")
        head, rest = text.split("\t", 1)
        # another entity label of the same length
        swap = next(label for label in old.vocab.entity_labels
                    if len(label) == len(head) and label != head)
        path.write_text(swap + "\t" + rest, encoding="utf-8")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size,
                                                      before.st_mtime_ns)
        got = load_dataset(kg_dir)
        assert_same_dataset(got, parsed(kg_dir))
        assert not np.array_equal(getattr(got, split), getattr(old, split))

    @staticmethod
    def _crafted(edit):
        def craft(path: Path) -> None:
            header, arrays = read_container(path)
            edit(header, arrays)
            write_container(path, header, arrays)
        return craft

    @staticmethod
    def _set(split, row, column, value):
        def edit(header, arrays):
            arrays[split][row, column] = value
        return edit

    @staticmethod
    def _entities(change):
        def edit(header, arrays):
            header["entities"] = change(header["entities"].split("\t"))
        return edit

    @staticmethod
    def _duplicate_in_range(header, arrays):
        """The second entity label made the first's twin, and the last
        entity's ids made 0, so every id stays below the count of
        distinct labels."""
        labels = header["entities"].split("\t")
        header["entities"] = "\t".join(labels[:1] * 2 + labels[2:])
        for ids in arrays.values():
            ids[:, [0, 2]] %= len(labels) - 1

    BAD_COPIES = {
        "truncated": lambda path: path.write_bytes(path.read_bytes()[:-5]),
        "header only": lambda path: path.write_bytes(path.read_bytes()[:40]),
        "empty": lambda path: path.write_bytes(b""),
        "not a container": lambda path: path.write_text("train\tvalid\n"),
        "entity id too large": _crafted(_set("train", 0, 0, 10 ** 6)),
        "relation id too large": _crafted(_set("test", 0, 1, 10 ** 6)),
        "negative id": _crafted(_set("valid", 0, 2, -1)),
        "non-integral id": _crafted(_set("train", 1, 0, 0.5)),
        "nan id": _crafted(_set("train", 2, 2, float("nan"))),
        "wrong shape": _crafted(lambda header, arrays: arrays.update(
            train=arrays["train"][:, :2])),
        "flat split": _crafted(lambda header, arrays: arrays.update(
            valid=arrays["valid"].ravel())),
        "empty split": _crafted(lambda header, arrays: arrays.update(
            test=np.empty((0, 3)))),
        "missing split": _crafted(lambda header, arrays: arrays.pop("test")),
        "duplicate labels": _crafted(_entities(
            lambda labels: "\t".join(labels[:-1] + labels[:1]))),
        "duplicate labels in range": _crafted(_duplicate_in_range),
        "labels as a list": _crafted(_entities(lambda labels: labels)),
        "too few labels": _crafted(_entities(
            lambda labels: "\t".join(labels[:2]))),
        "wrong digest": _crafted(lambda header, arrays: header.update(
            digest="0" * 64)),
        "huge integer in header": huge_integer_header,
        "no digest": _crafted(lambda header, arrays: header.pop("digest")),
    }

    @pytest.mark.parametrize("name", list(BAD_COPIES))
    def test_bad_copy_is_parsed_over_and_rewritten(self, kg_dir, name,
                                                   monkeypatch):
        copy = kg_dir / data.COPY_NAME
        load_dataset(kg_dir)
        good = copy.read_bytes()
        self.BAD_COPIES[name](copy)
        assert copy.read_bytes() != good
        assert_same_dataset(load_dataset(kg_dir), parsed(kg_dir))
        assert copy.read_bytes() == good
        monkeypatch.setattr(data, "parse_text", no_parse)
        load_dataset(kg_dir)

    def test_split_edited_during_the_parse_writes_no_copy(self, kg_dir,
                                                          monkeypatch):
        path = kg_dir / "valid.txt"
        old = path.read_bytes()
        parse = data._parse_triples

        def racing(split_path, *to_ids):
            if split_path == path:  # an edit after the digest was taken
                path.write_bytes(b"".join(old.splitlines(True)[1:]))
            return parse(split_path, *to_ids)

        monkeypatch.setattr(data, "_parse_triples", racing)
        load_dataset(kg_dir)
        monkeypatch.undo()
        assert not (kg_dir / data.COPY_NAME).exists()
        path.write_bytes(old)  # the digest's text again
        assert_same_dataset(load_dataset(kg_dir), parsed(kg_dir))

    def test_copy_that_cannot_be_written_is_skipped(self, kg_dir):
        (kg_dir / data.COPY_NAME).mkdir()
        for _ in range(2):
            assert_same_dataset(load_dataset(kg_dir), parsed(kg_dir))
        assert sorted(os.listdir(kg_dir)) == sorted(
            [data.COPY_NAME] + [f"{split}.txt" for split in SPLITS])

    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                        reason="needs a directory this user cannot write")
    def test_read_only_directory(self, kg_dir):
        kg_dir.chmod(0o555)
        try:
            assert_same_dataset(load_dataset(kg_dir), parsed(kg_dir))
            assert sorted(os.listdir(kg_dir)) == sorted(
                f"{split}.txt" for split in SPLITS)
        finally:
            kg_dir.chmod(0o755)

    @pytest.mark.parametrize("split", SPLITS)
    def test_bad_line_raises_as_before_and_writes_no_copy(self, kg_dir,
                                                          split):
        path = kg_dir / f"{split}.txt"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(1, "a r b\n")
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(DataError) as raised:
            load_dataset(kg_dir)
        with pytest.raises(DataError) as wanted:
            parsed(kg_dir)
        assert str(raised.value) == str(wanted.value)
        assert f"{split}.txt:2:" in str(raised.value)
        assert not (kg_dir / data.COPY_NAME).exists()

    def test_missing_split_raises_even_with_a_copy(self, kg_dir):
        load_dataset(kg_dir)
        (kg_dir / "test.txt").unlink()
        with pytest.raises(FileNotFoundError, match="test.txt"):
            load_dataset(kg_dir)
        with pytest.raises(FileNotFoundError, match="train.txt"):
            load_dataset(kg_dir.parent / "absent")


class TestReplacingWrites:
    """Artifacts are written beside their path and moved into place, so
    a write that raises part-way leaves the previous file as it was."""

    @staticmethod
    def _bad_table(path: Path) -> None:
        column = np.array([0.5, 1.5, object()], dtype=object)
        save_weight_table(WeightTable(a=column, b=column, provenance=(
            Provenance(source="mbs", method="freq"))), path)

    @staticmethod
    def _bad_scores(path: Path) -> None:
        scores = SubModelScores(raw_score=np.ones(3), submodel_id="s")
        scores.raw_score = np.array([0.5, 1.5, object()], dtype=object)
        save_scores(scores, path)

    @staticmethod
    def _raise_in_block(path: Path) -> None:
        with replacing(path) as fh:
            fh.write("new")
            raise KeyboardInterrupt

    WRITERS = {
        "container": (lambda path: write_container(
            path, {}, {"x": np.ones(3)}), lambda path: write_container(
            path, {}, {"x": np.ones(1 << 17), "y": np.array(["?"])})),
        "weight table": (lambda path: save_weight_table(WeightTable(
            a=np.full(3, 0.5), b=np.full(3, 2.0), provenance=Provenance(
                source="mbs", method="freq")), path), _bad_table),
        "scores": (lambda path: save_scores(SubModelScores(
            raw_score=np.arange(3.0), submodel_id="s"), path), _bad_scores),
        "any block": (lambda path: path.write_text("old"), _raise_in_block),
    }

    @pytest.mark.parametrize("name", list(WRITERS))
    def test_failed_write_keeps_the_old_file(self, tmp_path, name):
        good, bad = self.WRITERS[name]
        path = tmp_path / "artifact"
        good(path)
        before = path.read_bytes()
        copy = scores_copy_path(path)  # save_scores keeps its parse there
        copied = copy.read_bytes() if name == "scores" else None
        with pytest.raises((ValueError, TypeError, KeyboardInterrupt)):
            bad(path)
        assert path.read_bytes() == before
        if name == "scores":
            assert sorted(os.listdir(tmp_path)) == [copy.name, "artifact"]
            assert copy.read_bytes() == copied
        else:
            assert os.listdir(tmp_path) == ["artifact"]

    def test_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "artifact"
        path.write_text("old")
        with replacing(path) as fh:
            fh.write("new \u00e9")
        assert path.read_bytes() == "new \u00e9".encode("utf-8")
        with replacing(path, "wb") as fh:
            fh.write(b"\x00")
        assert path.read_bytes() == b"\x00"
        assert os.listdir(tmp_path) == ["artifact"]
