"""Triple loading, vocabularies, and query counting."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgesub.data import (Dataset, Direction, QueryIndex, QueryKey, Vocab,
                         load_dataset, load_triples, singleton_query_stats)
from kgesub.errors import DataError, KgesubError, VocabMismatchError
from kgesub.submodel import read_ledger
from kgesub.subsampling import counted_frequencies, load_scores

from conftest import (Triple, as_triples, brute_force_query_counts,
                      looped_zipf_kg, make_vocab, oracle_answer_sets,
                      oracle_counted_frequencies, oracle_query_counts,
                      oracle_singleton_query_stats, query_of, random_triples,
                      save_dataset, sorted_query_counts, zipf_kg)


def index_of(train, num_entities=None, num_relations=None):
    num_entities = num_entities or 1 + max(max(h, t) for h, _, t in train)
    num_relations = num_relations or 1 + max(r for _, r, _ in train)
    return QueryIndex.build(train, num_entities, num_relations)


def count_of(index, key):
    """The index's count of one query key, 0 for a key it lacks."""
    q = int(index.find([key[0]], [key[1]], [key[2]])[0])
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
        assert vocab.entity_to_id == {"x": 0, "y": 1}
        assert vocab.relation_to_id == {"p": 0, "q": 1}

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

    def test_unknown_label_under_fixed_vocab(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("a\tr\tzz\n", encoding="utf-8")
        vocab = Vocab()
        vocab.add("entity", ["a"])
        vocab.add("relation", ["r"])
        with pytest.raises(VocabMismatchError, match="zz"):
            load_triples(path, vocab.freeze())

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="no triples"):
            load_triples(path)


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
        assert index.find([0], [5], [1]).tolist() == [-1]

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
            assert index.answers_of(q).tolist() == sorted(answers[key])
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
        ids = index.find(index.direction, index.entity, index.relation)
        np.testing.assert_array_equal(ids, np.arange(index.num_queries))
        absent = [(d, e, r) for d in (0, 1)
                  for e in range(dataset.num_entities)
                  for r in range(dataset.num_relations)
                  if QueryKey(Direction(d), e, r)
                  not in oracle_query_counts(dataset.train)]
        assert absent
        d, e, r = (np.array(column) for column in zip(*absent))
        assert np.all(index.find(d, e, r) == -1)

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
            answers = set(index.answers_of(q).tolist())
            free = [e for e in range(num) if e not in answers]
            found = [u + int(np.searchsorted(key, q * num + u, "right"))
                     - int(index.offsets[q]) for u in range(len(free))]
            assert found == free


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
        rows = singleton_query_stats(toy_dataset)
        by_key = {row[0]: row for row in rows}
        key = QueryKey(Direction.HEAD_QUERY, 1, 0)  # (?, r1, e2)
        assert key in by_key
        _, entity_count, relation_count = by_key[key]
        assert entity_count == 2  # e2 appears in 2 triples
        assert relation_count == 3

    def test_sorted_by_entity_frequency_descending(self):
        rng = np.random.default_rng(5)
        train = random_triples(rng, 15, 4, 80)
        rows = singleton_query_stats(train_only(train, 15, 4))
        entity_counts = [row[1] for row in rows]
        assert entity_counts == sorted(entity_counts, reverse=True)

    def test_all_repeated_queries_gives_empty(self):
        train = [Triple(0, 0, 1), Triple(0, 0, 1)]
        assert singleton_query_stats(train_only(train, 2)) == []

    def test_single_triple_has_two_singletons(self):
        assert len(singleton_query_stats(
            train_only([Triple(0, 0, 1)], 2))) == 2

    def test_self_loop_counts_once(self):
        train = [Triple(0, 0, 0), Triple(0, 1, 1)]
        rows = singleton_query_stats(train_only(train, 2, 2))
        assert {row[0].entity: row[1] for row in rows}[0] == 2

    def test_matches_dict_oracle(self):
        for seed in range(4):
            dataset = looped_zipf_kg(seed)
            rows = singleton_query_stats(dataset)
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
        assert vocab.ids("entity", [f"e{i}" for i in range(4)]).tolist() \
            == [0, 1, 2, 3]
