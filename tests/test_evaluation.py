"""Filtered ranking, metrics, and multi-run aggregation."""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kgesub import models
from kgesub.data import Dataset, Direction, QueryIndex, example_queries
from kgesub.errors import VocabMismatchError
from kgesub.evaluation import (EvalReport, _float32_band, aggregate_runs,
                               evaluate, format_report, rank_answers)
from kgesub.models import ModelKind, init_params
from kgesub.submodel import score_training_triples
from kgesub.subsampling import log_model_frequencies

from conftest import (QueryKey, Triple, answer_of, answers_of, as_triples,
                      filtered_rank, looped_zipf_kg, make_vocab,
                      oracle_answer_sets, oracle_filtered_rank, oracle_scores,
                      query_of, random_kg, score_batch, screened_scores)


def known_answers(dataset):
    return oracle_answer_sets(
        np.concatenate([dataset.train, dataset.valid, dataset.test]))


def scripted_distmult(values: np.ndarray):
    """DistMult params with dim 1: score(h, r, t) = h * r * t.

    With relation fixed at 1 and head at 1, candidate t scores value[t],
    so ranking reduces to ranking a hand-chosen score vector.
    """
    n = len(values)
    params = init_params(ModelKind.DISTMULT, n, 1, 1, 0.0, seed=0)
    params.entity_emb[:, 0] = values
    params.relation_emb[:, 0] = 1.0
    return params


class TestFilteredRank:
    def test_unique_top_answer_ranks_first(self):
        params = scripted_distmult(np.array([1.0, 5.0, 3.0, 2.0]))
        query = QueryKey(Direction.TAIL_QUERY, 0, 0)
        # head entity 0 has value 1 > 0, so candidate order follows values
        assert filtered_rank(params, query, 1, set()) == 1

    def test_third_highest_ranks_third(self):
        params = scripted_distmult(np.array([1.0, 5.0, 4.0, 3.0, 2.0]))
        query = QueryKey(Direction.TAIL_QUERY, 1, 0)
        assert filtered_rank(params, query, 3, set()) == 3

    def test_all_tied_gives_mean_rank(self):
        """E tied candidates: rank (1 + E) / 2, rounded half up."""
        for n, expected in ((4, 3), (5, 3), (7, 4)):
            params = scripted_distmult(np.zeros(n))
            query = QueryKey(Direction.TAIL_QUERY, 0, 0)
            assert filtered_rank(params, query, n - 1, set()) == expected

    def test_filtering_removes_known_answers(self):
        params = scripted_distmult(np.array([1.0, 5.0, 4.0, 3.0, 2.0]))
        query = QueryKey(Direction.TAIL_QUERY, 1, 0)
        # without filtering, entity 3 ranks behind 1 and 2
        assert filtered_rank(params, query, 3, set()) == 3
        # filtering the two stronger known answers promotes it to rank 1
        assert filtered_rank(params, query, 3, {1, 2}) == 1

    def test_answer_never_filtered_from_own_list(self):
        params = scripted_distmult(np.array([1.0, 5.0, 4.0]))
        query = QueryKey(Direction.TAIL_QUERY, 0, 0)
        assert filtered_rank(params, query, 1, {1, 2}) == 1

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(3, 20))
            params = init_params(ModelKind.COMPLEX, n, 2, 6, 1.0,
                                 seed=trial)
            direction = Direction(int(rng.integers(2)))
            query = QueryKey(direction, int(rng.integers(n)),
                             int(rng.integers(2)))
            answer = int(rng.integers(n))
            known = set(int(v) for v in
                        rng.integers(0, n, size=rng.integers(0, n)))
            scores = score_batch(params, query, np.arange(n))
            expected = oracle_filtered_rank(scores, answer, known)
            assert filtered_rank(params, query, answer, known) == expected

    def test_known_answers_tied_with_the_answer_are_filtered(self):
        """Entities 2, 3 and 5 tie with answer 1; only the unfiltered
        ones count half."""
        params = scripted_distmult(np.array([1.0, 3.0, 3.0, 3.0, 2.0, 3.0]))
        query = QueryKey(Direction.TAIL_QUERY, 0, 0)
        for known, expected in (({2, 3, 5}, 1), ({2, 3}, 2), (set(), 3),
                                ({1, 2}, 2)):
            assert filtered_rank(params, query, 1, known) == expected

    def test_answer_scored_minus_inf(self):
        """A TransE answer at distance inf ties with the unfiltered
        entity at distance inf, not with the filtered one."""
        params = init_params(ModelKind.TRANSE, 6, 1, 2, 1.0, seed=0)
        params.relation_emb[:] = 0.0
        # distances to entity 0: 0, inf, inf, inf, 2 and 2
        params.entity_emb[:] = [[0.0, 0.0], [1e308, 1e308], [1e308, 1e308],
                                [-1e308, -1e308], [1.0, 1.0], [2.0, 0.0]]
        query = QueryKey(Direction.TAIL_QUERY, 0, 0)
        with np.errstate(over="ignore"):
            scores = score_batch(params, query, np.arange(6))
            assert np.array_equal(scores, [0.0, -np.inf, -np.inf, -np.inf,
                                           -2.0, -2.0])
            for known, expected in (({2}, 5), (set(), 5), ({2, 3}, 4)):
                assert filtered_rank(params, query, 1, known) == expected
                assert expected == oracle_filtered_rank(scores, 1, known)

    def test_answer_outside_the_known_answers(self):
        """The answer's own score is never a competitor, even when its
        query's known answers do not hold it."""
        params = scripted_distmult(np.array([1.0, 2.0, 5.0, 4.0, 3.0, 2.0]))
        index = QueryIndex.build([(0, 0, 2), (0, 0, 3)], 6, 1)
        # competitors 0 (1.0), 4 (3.0) and 5 (2.0, tied)
        assert rank_answers(params, index, [(Direction.TAIL_QUERY, 0, 0)],
                            np.array([1])) == [3]
        assert oracle_filtered_rank(params.entity_emb[:, 0], 1, {2, 3}) == 3

    def test_monotone_transform_leaves_rank_unchanged(self):
        """Ranks depend only on score order, not score values."""
        rng = np.random.default_rng(1)
        scores = rng.normal(size=12)
        for transform in (np.exp, lambda s: 3.0 * s + 1.0, np.tanh):
            for answer in range(12):
                known = {2, 5}
                assert (oracle_filtered_rank(scores, answer, known)
                        == oracle_filtered_rank(transform(scores), answer,
                                                known))


class TestEvaluate:
    def _perfect_transe_dataset(self):
        """TransE params where each test triple is an exact translation."""
        rng = np.random.default_rng(2)
        n = 8
        params = init_params(ModelKind.TRANSE, n, 1, 4, 1.0, seed=3)
        params.entity_emb[:] = rng.normal(size=(n, 4))
        params.relation_emb[0] = params.entity_emb[1] - params.entity_emb[0]
        triples = [Triple(0, 0, 1)]
        dataset = Dataset(train=triples, valid=triples, test=triples,
                          vocab=make_vocab(n, 1))
        return params, dataset

    def test_oracle_model_scores_perfectly(self):
        params, dataset = self._perfect_transe_dataset()
        report = evaluate(params, dataset, "test")
        assert report.mrr == 1.0
        assert report.h1 == report.h3 == report.h10 == 1.0

    def test_matches_exhaustive_oracle(self):
        """Whole-split metrics equal a per-query oracle recomputation."""
        rng = np.random.default_rng(4)
        for trial in range(10):
            dataset = random_kg(rng, num_entities=int(rng.integers(4, 15)),
                                num_relations=2, num_train=25, num_valid=6,
                                num_test=6)
            params = init_params(ModelKind.DISTMULT, dataset.num_entities,
                                 2, 6, 1.0, seed=trial)
            report = evaluate(params, dataset, "test")
            known = known_answers(dataset)
            expected_ranks = []
            for triple in as_triples(dataset.test):
                for direction in (Direction.TAIL_QUERY,
                                  Direction.HEAD_QUERY):
                    query = query_of(triple, direction)
                    answer = answer_of(triple, direction)
                    scores = score_batch(params, query,
                                         np.arange(dataset.num_entities))
                    expected_ranks.append(oracle_filtered_rank(
                        scores, answer, known[query]))
            assert report.per_query_ranks.tolist() == expected_ranks
            assert report.mrr == pytest.approx(
                np.mean([1.0 / r for r in expected_ranks]), abs=1e-15)

    def test_duplicated_triple_keeps_metrics(self):
        params, dataset = self._perfect_transe_dataset()
        doubled = Dataset(train=dataset.train, valid=dataset.valid,
                          test=np.concatenate([dataset.test] * 2),
                          vocab=dataset.vocab)
        a = evaluate(params, dataset, "test")
        b = evaluate(params, doubled, "test")
        assert a.mrr == b.mrr
        assert a.h10 == b.h10

    def test_hits_are_nested(self):
        rng = np.random.default_rng(5)
        dataset = random_kg(rng, num_entities=12, num_relations=3,
                            num_train=40, num_test=10)
        params = init_params(ModelKind.ROTATE, 12, 3, 8, 2.0, seed=6)
        report = evaluate(params, dataset, "test")
        assert report.h1 <= report.h3 <= report.h10
        lower_bound = report.h1 + (1.0 - report.h1) / dataset.num_entities
        assert report.mrr >= lower_bound - 1e-12

    def test_empty_split_rejected(self):
        rng = np.random.default_rng(7)
        dataset = random_kg(rng)
        dataset = replace(dataset, valid=[])
        params = init_params(ModelKind.TRANSE, 10, 3, 6, 1.0, seed=8)
        with pytest.raises(ValueError):
            evaluate(params, dataset, "valid")

    def test_chunked_ranks_match_oracle(self, monkeypatch):
        """A split spanning many chunks and entity blocks, with repeated
        queries and exact ties, ranks exactly like the per-query oracle."""
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", 8 * 30 * 3)
        rng = np.random.default_rng(13)
        for trial, kind in enumerate(list(ModelKind) * 2):
            dataset = random_kg(rng, num_entities=30, num_relations=2,
                                num_train=60, num_test=25)
            dataset = replace(dataset, test=np.concatenate(
                [dataset.test, dataset.test[:5]]))
            params = init_params(kind, 30, 2, 6, 1.5, seed=trial)
            if trial >= 5:  # identical rows tie under every kind
                params.entity_emb[::4] = params.entity_emb[1]
            report = evaluate(params, dataset, "test")
            known = known_answers(dataset)
            expected, queries = [], []
            for triple in as_triples(dataset.test):
                for direction in (Direction.TAIL_QUERY,
                                  Direction.HEAD_QUERY):
                    query = query_of(triple, direction)
                    scores = score_batch(params, query, np.arange(30))
                    expected.append(oracle_filtered_rank(
                        scores, answer_of(triple, direction), known[query]))
                    queries.append(query)
            assert report.per_query_ranks.tolist() == expected
            assert list(map(tuple, report.queries.tolist())) == queries

    def test_filter_index_matches_answer_sets(self):
        """The filter holds every query of the three splits with exactly
        its known answers."""
        for seed in range(3):
            dataset = looped_zipf_kg(seed)
            index = dataset.filter_index
            known = known_answers(dataset)
            assert index.num_queries == len(known)
            for q, key in enumerate(sorted(known)):
                assert (index.direction[q], index.entity[q],
                        index.relation[q]) == key
                assert answers_of(index, q).tolist() == sorted(known[key])

    def test_every_split_matches_oracle(self, monkeypatch):
        """Train, valid and test each rank like the per-query oracle,
        over many chunks and with exact ties.  The tail query (0, 0, ?)
        is asked in train with answer 1 and in valid with answer 2, so
        each split must read its own range of the filter index's
        examples."""
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", 8 * 12 * 3)
        rng = np.random.default_rng(16)
        for trial, kind in enumerate(ModelKind):
            dataset = random_kg(rng, num_entities=12, num_relations=2,
                                num_train=30, num_valid=7, num_test=9)
            dataset = replace(
                dataset, train=np.concatenate([dataset.train, [[0, 0, 1]]]),
                valid=np.concatenate([[[0, 0, 2]], dataset.valid]))
            params = init_params(kind, 12, 2, 6, 1.5, seed=trial)
            params.entity_emb[::3] = params.entity_emb[1]
            known = known_answers(dataset)
            for split in ("train", "valid", "test"):
                report = evaluate(params, dataset, split)
                expected, queries = [], []
                for triple in as_triples(getattr(dataset, split)):
                    for direction in (Direction.TAIL_QUERY,
                                      Direction.HEAD_QUERY):
                        query = query_of(triple, direction)
                        scores = score_batch(params, query, np.arange(12))
                        expected.append(oracle_filtered_rank(
                            scores, answer_of(triple, direction),
                            known[query]))
                        queries.append(query)
                assert report.per_query_ranks.tolist() == expected
                assert list(map(tuple, report.queries.tolist())) == queries

    def test_vocab_mismatch_rejected(self):
        rng = np.random.default_rng(14)
        dataset = random_kg(rng, num_entities=6, num_relations=2)
        for entities, relations in ((3, 2), (6, 1), (9, 2)):
            params = init_params(ModelKind.DISTMULT, entities, relations, 4,
                                 1.0, seed=15)
            with pytest.raises(VocabMismatchError):
                evaluate(params, dataset, "test")

    def test_filtering_soundness(self):
        """Known-true competitors cannot push the answer's rank down."""
        rng = np.random.default_rng(9)
        dataset = random_kg(rng, num_entities=10, num_relations=2,
                            num_train=30, num_test=8)
        params = init_params(ModelKind.HAKE, 10, 2, 8, 2.0, seed=10)
        known = known_answers(dataset)
        for triple in as_triples(dataset.test):
            for direction in (Direction.TAIL_QUERY, Direction.HEAD_QUERY):
                query = query_of(triple, direction)
                answer = answer_of(triple, direction)
                filtered = filtered_rank(params, query, answer, known[query])
                raw = filtered_rank(params, query, answer, set())
                assert filtered <= raw


class TestScreenedRanks:
    """Every kind ranks in float32 and decides in float64 every entity
    that float32 cannot place against the answer: the ranks equal those
    of the canonical float64 pair scores in both directions, at 1, 2, 3
    and 12 workers and under small budgets, with exact ties, scores
    within an ulp of the answer's, float32 scores that overflow and
    query sides that float32 flushes to zero."""

    KINDS = [ModelKind.TRANSE, ModelKind.ROTATE, ModelKind.HAKE,
             ModelKind.DISTMULT, ModelKind.COMPLEX]
    IDS = [kind.value for kind in KINDS]

    @staticmethod
    def _check(params, triples, monkeypatch) -> int:
        """Assert that both queries of every row of `triples`, whose rows
        are the known answers, rank as the canonical float64 scores of
        every pair (`oracle_scores`) do, and return the number of pairs
        that float64 rechecked besides the answers."""
        index = QueryIndex.build(triples, params.num_entities,
                                 params.num_relations)
        direction, entity, relation, answer = example_queries(
            triples, np.arange(2 * len(triples)))
        queries = np.stack([direction, entity, relation], axis=1)
        known = oracle_answer_sets(triples)
        want = []
        for d, e, r, a in zip(direction, entity, relation, answer):
            scores = oracle_scores(params, d == Direction.TAIL_QUERY,
                                   params.entity_emb[[e]],
                                   params.relation_emb[[r]])[0]
            want.append(oracle_filtered_rank(
                scores, a, known[QueryKey(Direction(d), e, r)]))
        pairs = []
        exact = models._Scorer.exact

        def counted(self, tail, query, picks, cands):
            pairs.append(len(picks))
            return exact(self, tail, query, picks, cands)
        monkeypatch.setattr(models._Scorer, "exact", counted)
        runs = 0
        # the workers' tiles add to the pass's counts: switching threads
        # often, 12 workers on fewer CPUs would show a lost update
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3, 12):
                monkeypatch.setattr(models, "_WORKERS", workers)
                # the default budget: one pass a direction, one tile; a
                # small one: one query a pass, tiles of a few entities;
                # and tiles of 4 entities at least: passes of several
                # queries
                for budget, tile in (
                        (models.RANK_BUDGET_BYTES, models._TILE),
                        (576, models._TILE), (576, 4)):
                    with monkeypatch.context() as patch:
                        patch.setattr(models, "RANK_BUDGET_BYTES", budget)
                        patch.setattr(models, "_TILE", tile)
                        got = rank_answers(params, index, queries, answer)
                    assert got.tolist() == want, (workers, budget, tile)
                    runs += 1
        finally:
            sys.setswitchinterval(interval)
        # each run scores each answer once, and the band besides
        return sum(pairs) - runs * len(queries)

    @pytest.mark.parametrize("kind", KINDS, ids=IDS)
    def test_ties_and_ulps_from_the_answer(self, kind, monkeypatch):
        """Six groups of eight entities: a row, two exact copies and five
        copies nudged by np.nextafter, one or two ulps up or down in one
        feature, so their scores tie with the answer's or lie within an
        ulp or so of it, which float32 cannot tell apart.  Each row's
        answer also has a copy among the known answers, so ties with
        known answers are filtered."""
        rng = np.random.default_rng(19)
        params = init_params(kind, 48, 2, 6, 1.5, seed=20)
        ent = params.entity_emb
        for group in range(6):
            base = ent[8 * group].copy()
            for k in range(1, 8):
                row = base.copy()
                j = (group + k) % params.dim
                for _ in range(0 if k < 3 else 1 + k % 2):
                    row[j] = np.nextafter(row[j], np.inf if k % 4 < 2
                                          else -np.inf)
                ent[8 * group + k] = row
        heads, tails = rng.integers(0, 48, size=(2, 16))
        relations = rng.integers(0, 2, size=16)
        # a copy of the tail (entity k ^ 1 of its group) or of the head
        # is a known answer too
        triples = np.concatenate([
            np.stack([heads, relations, tails], axis=1),
            np.stack([heads[:8], relations[:8], tails[:8] ^ 1], axis=1),
            np.stack([heads[8:] ^ 1, relations[8:], tails[8:]], axis=1)])
        assert self._check(params, triples, monkeypatch) > 0

    @pytest.mark.parametrize("kind", KINDS, ids=IDS)
    def test_float32_overflow_is_rechecked(self, kind, monkeypatch):
        """Entities whose finite float64 entries from 1e38 to 1e39
        overflow their float32 scores, to -inf or, where float32 takes an
        infinity from an infinity, to NaN: answers and competitors alike,
        two of them tied."""
        rng = np.random.default_rng(21)
        params = init_params(kind, 24, 2, 6, 1.5, seed=22)
        ent = params.entity_emb
        # HAKE's phases stay angles; its moduli overflow
        width = 3 if kind == ModelKind.HAKE else 6
        ent[16:, :width] = rng.choice([-1.0, 1.0], size=(8, width)) * (
            rng.uniform(1e38, 1e39, size=(8, width)))
        ent[20] = ent[16]
        fixed, rel = ent[:4], params.relation_emb[[0, 1, 0, 1]]
        for tail in (True, False):
            float64 = oracle_scores(params, tail, fixed, rel)
            float32, _ = screened_scores(params, tail, fixed, rel)
            assert np.isfinite(float64).all()
            assert not np.isfinite(float32[:, 16:]).any()
        triples = np.stack([rng.integers(0, 24, size=20),
                            rng.integers(0, 2, size=20),
                            rng.integers(0, 24, size=20)], axis=1)
        triples[:4, 2] = [16, 20, 17, 3]
        triples[4:8, 0] = [16, 20, 18, 5]
        assert self._check(params, triples, monkeypatch) > 0

    @pytest.mark.parametrize("kind", KINDS, ids=IDS)
    def test_flushed_queries_against_huge_entities(self, kind,
                                                   monkeypatch):
        """Query sides whose float64 components lie below float32's
        subnormal range, which float32 rounds to zero, set against entity
        components near 1e38: float32 ties what float64 tells apart.
        Entities 0 to 7 and relation 0 are of order 1e-24 and 1e-23, so
        the products h * r of DistMult and ComplEx are of order 1e-47;
        entities 16 to 23 are of order 1e38, within float32's range."""
        rng = np.random.default_rng(25)
        params = init_params(kind, 24, 2, 6, 1.5, seed=26)
        ent, rel = params.entity_emb, params.relation_emb
        # HAKE's and RotatE's relation phases stay angles
        moduli = 3 if kind == ModelKind.HAKE else 6
        ent[:8, :moduli] *= 1e-24 / np.abs(ent[:8, :moduli]).max()
        if kind != ModelKind.ROTATE:
            rel[0, :moduli] *= 1e-23 / np.abs(rel[0, :moduli]).max()
        ent[16:, :moduli] = rng.choice([-1.0, 1.0], size=(8, moduli)) * (
            rng.uniform(0.5e38, 3e38, size=(8, moduli)))
        ent[21] = ent[17]
        if kind in (ModelKind.DISTMULT, ModelKind.COMPLEX):
            for tail in (True, False):
                small = oracle_scores(params, tail, ent[:8], rel[[0] * 8])
                float32, _ = screened_scores(params, tail, ent[:8],
                                             rel[[0] * 8])
                # float32 scores every pair 0; float64 does not
                assert not float32.any() and small[:, 16:].all()
        triples = np.stack([rng.integers(0, 24, size=20),
                            rng.integers(0, 2, size=20),
                            rng.integers(0, 24, size=20)], axis=1)
        triples[:8, 0] = np.arange(8)
        triples[:8, 1] = 0
        triples[8:12, 2] = [0, 1, 2, 3]
        triples[8:12, 1] = 0
        triples[:4, 2] = [16, 21, 17, 4]
        assert self._check(params, triples, monkeypatch) > 0

    @pytest.mark.parametrize("kind", KINDS, ids=IDS)
    def test_band_in_every_tile(self, kind, monkeypatch):
        """Every entity is a copy of one of entities 0 to 3, so each tile
        of four entities or more holds a copy of every answer, tied with
        it: every tile has a band.  A pass of one query keeps its tiles'
        bands for the pass's end, one of several queries has bands wider
        than its tiles, which the tiles decide, and the workers hand
        their tiles' counts and pairs on together."""
        rng = np.random.default_rng(27)
        params = init_params(kind, 40, 2, 6, 1.5, seed=28)
        params.entity_emb[4:] = params.entity_emb[np.arange(4, 40) % 4]
        triples = np.stack([rng.integers(0, 40, size=12),
                            rng.integers(0, 2, size=12),
                            rng.integers(0, 40, size=12)], axis=1)
        assert self._check(params, triples, monkeypatch) > 0

    def test_band_is_rounded_outward(self):
        """The float32 band holds own +- bound strictly, whatever the
        float64 rounding, and is all scores where own or the bound is not
        finite."""
        rng = np.random.default_rng(23)
        own = -np.concatenate([rng.uniform(0, 10, 3000),
                               rng.uniform(0, 1e-30, 10),
                               10.0 ** rng.uniform(30, 39, 10),
                               [0.0, 3e38, 1e39, 2.0 ** -149, np.inf,
                                np.nan, 1.0]])
        bound = np.concatenate([10.0 ** rng.uniform(-12, -4, 3020),
                                np.full(6, 1e-6), [np.inf]])
        low, high = _float32_band(own, bound)
        assert low.dtype == high.dtype == np.float32
        finite = np.isfinite(own) & np.isfinite(bound)
        assert (low[finite] < own[finite] - bound[finite]).all()
        assert (high[finite] > own[finite] + bound[finite]).all()
        # the rounding is outward, and by no more than two float32 ulps
        # past it
        with np.errstate(over="ignore"):
            up, down = (np.nextafter(np.nextafter(x, y), y) for x, y in (
                (low, np.float32(np.inf)), (high, np.float32(-np.inf))))
        assert (up[finite] >= (own - bound)[finite]).all()
        assert (down[finite] <= (own + bound)[finite]).all()
        assert np.isneginf(low[~finite]).all()
        assert np.isposinf(high[~finite]).all()


def all_queries(index) -> np.ndarray:
    """The (direction, entity, relation) row of every query of `index`."""
    return np.stack([index.direction, index.entity, index.relation], axis=1)


def traced_peak(call) -> int:
    """Bytes allocated at the peak of call(), as tracemalloc counts them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneChunkAlive:
    """`reduce_candidate_scores` makes no (queries, E) chunk: the peak of
    ranking and of the all-candidates mass is their tiles' scratch, the
    tiles' scores and the scorer's tables, whatever the number of
    queries, under a budget of `CHUNK_BYTES`, the float64 scores of 16
    queries against every entity."""

    # 16 tail queries a chunk at dim 16, 512 KiB of (16, 4096) scores
    ENTITIES, DIM, STEP = 4096, 16, 16
    CHUNK_BYTES = 8 * STEP * ENTITIES

    def _case(self, kind, num_chunks):
        """Params, and a dataset of `num_chunks` full chunks of distinct
        tail queries (i, 0, ?) and one head query (?, 0, 0)."""
        num_queries = num_chunks * self.STEP
        dataset = Dataset(
            train=[Triple(i, 0, 0) for i in range(num_queries)], valid=[],
            test=[], vocab=make_vocab(self.ENTITIES, 1))
        params = init_params(kind, self.ENTITIES, 1, self.DIM, 2.0, seed=4)
        index = dataset.train_index  # built before tracing
        assert np.array_equal(index.direction[:num_queries], np.zeros(
            num_queries)) and index.num_queries == num_queries + 1
        return params, dataset, num_queries

    def ranking_peak(self, params) -> float:
        """What ranking may hold at its peak under a budget of one mass
        chunk: the tiles' scratch, within the budget (half of it, one
        worker's share); their scores, one
        buffer to the scratch's `max(buffers, 1)`, so a quarter of the
        budget at TransE's four buffers and all of it for DistMult's
        matmul, whose scratch is the reducer's spare; the float32
        tables; and a quarter chunk."""
        scorer = models._SCORERS[params.kind](params)
        tables = sum(table.nbytes for table in scorer.tables)
        return (self.CHUNK_BYTES * (1 + 1 / max(scorer.buffers, 1) + 1 / 4)
                + tables)

    @pytest.mark.parametrize(
        "kind", [ModelKind.TRANSE, ModelKind.DISTMULT, ModelKind.HAKE])
    def test_rank_answers(self, kind, monkeypatch):
        """Under a budget of one mass chunk, whose worker share the
        tiles' scratch fills at every pass, ranking 16 to 256 queries
        peaks within `ranking_peak`."""
        monkeypatch.setattr(models, "_WORKERS", 1)
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", self.CHUNK_BYTES)
        for num_chunks in (1, 4, 16):
            params, dataset, num_queries = self._case(kind, num_chunks)
            queries = all_queries(dataset.train_index)[:num_queries]
            peak = traced_peak(lambda: rank_answers(
                params, dataset.train_index, queries,
                np.zeros(num_queries, dtype=np.int64)))
            assert peak < self.ranking_peak(params), num_chunks

    @pytest.mark.parametrize(
        "kind", [ModelKind.TRANSE, ModelKind.DISTMULT, ModelKind.HAKE])
    def test_rank_answers_whose_float32_scores_overflow(self, kind,
                                                        monkeypatch):
        """Entity moduli from 1e38 to 3e38 overflow the float32 scores,
        all but TransE's of a query's own entity, so nearly every pair of
        every query falls in its band.  The tiles decide such bands
        themselves, and ranking 16 to 256 queries peaks within
        `ranking_peak` as before."""
        monkeypatch.setattr(models, "_WORKERS", 1)
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", self.CHUNK_BYTES)
        rng = np.random.default_rng(29)
        moduli = self.DIM // 2 if kind == ModelKind.HAKE else self.DIM
        for num_chunks in (1, 4, 16):
            params, dataset, num_queries = self._case(kind, num_chunks)
            params.entity_emb[:, :moduli] = rng.choice(
                [-1.0, 1.0], size=(self.ENTITIES, moduli)) * rng.uniform(
                    1e38, 3e38, size=(self.ENTITIES, moduli))
            queries = all_queries(dataset.train_index)[:num_queries]
            float32, _ = screened_scores(
                params, True, params.entity_emb[:4], params.relation_emb[
                    np.zeros(4, np.int64)])
            assert (np.isfinite(float32).sum(axis=1) <= 1).all()
            peak = traced_peak(lambda: rank_answers(
                params, dataset.train_index, queries,
                np.zeros(num_queries, dtype=np.int64)))
            assert peak < self.ranking_peak(params), num_chunks

    @pytest.mark.parametrize("kind", [ModelKind.TRANSE, ModelKind.DISTMULT])
    def test_all_candidates_mass(self, kind, monkeypatch):
        monkeypatch.setattr(models, "_WORKERS", 1)
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", self.CHUNK_BYTES)

        def peak(num_chunks):
            params, dataset, _ = self._case(kind, num_chunks)
            scores = score_training_triples(params, dataset, "sub")
            return traced_peak(lambda: log_model_frequencies(
                dataset, scores, params))
        assert peak(4) - peak(1) < self.CHUNK_BYTES / 2

    def test_mass_takes_its_sums_inside_the_chunk(self, monkeypatch):
        """The all-candidates mass writes its shifted terms over each
        tile and takes its finiteness mask from the spare, so it holds
        little more than the float32 tables, which ranking holds too,
        the tiles' scratch, one share of the budget, and a tile's scores
        beyond it.  DistMult scores with a matmul, whose scratch is the
        reducer's spare, so the tiles and what their consumer makes of
        them set the peak."""
        monkeypatch.setattr(models, "_WORKERS", 1)
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", self.CHUNK_BYTES)
        params, dataset, _ = self._case(ModelKind.DISTMULT, 1)
        scores = score_training_triples(params, dataset, "sub")
        mass = traced_peak(lambda: log_model_frequencies(
            dataset, scores, params))
        tables = sum(table.nbytes
                     for table in models._SCORERS[params.kind](params).tables)
        assert mass < self.CHUNK_BYTES * 5 / 4 + tables


class TestAggregateRuns:
    def _report(self, mrr, h1=0.1, h3=0.2, h10=0.3):
        return EvalReport(mrr=mrr, h1=h1, h3=h3, h10=h10,
                          per_query_ranks=[1], queries=[], split="valid")

    def test_identical_reports_zero_sd(self):
        aggregate = aggregate_runs([self._report(0.4)] * 3)
        mean, sd = aggregate["mrr"]
        assert mean == 0.4
        assert sd == 0.0

    def test_two_point_formula(self):
        aggregate = aggregate_runs([self._report(0.3), self._report(0.5)])
        mean, sd = aggregate["mrr"]
        assert mean == pytest.approx(0.4, abs=1e-15)
        assert sd == pytest.approx(0.1, abs=1e-15)

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0, 1, size=3)
        aggregate = aggregate_runs([self._report(v) for v in values])
        mean, sd = aggregate["mrr"]
        expected_mean = values.sum() / 3.0
        expected_sd = np.sqrt(((values - expected_mean) ** 2).sum() / 3.0)
        assert mean == pytest.approx(expected_mean, abs=1e-12)
        assert sd == pytest.approx(expected_sd, abs=1e-12)

    def test_mean_within_run_range(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(0, 1, size=5)
        aggregate = aggregate_runs([self._report(v) for v in values])
        mean, sd = aggregate["mrr"]
        assert values.min() <= mean <= values.max()
        assert sd >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])


class TestReportOutput:
    def test_format_scales_by_100(self):
        report = EvalReport(mrr=0.345, h1=0.2, h3=0.4, h10=0.5,
                            per_query_ranks=[1, 2], queries=[],
                            split="test")
        text = format_report(report)
        assert "34.5" in text
        assert "50.0" in text
