"""Weight tables: count-based, model-based, and mixed."""

import math
import sys

import numpy as np
import pytest

from kgesub import models
from kgesub.data import Dataset, Direction
from kgesub.errors import DataError, DegenerateInputError
from kgesub.models import ModelKind, init_params
from kgesub.submodel import score_training_triples
from kgesub.subsampling import (ALPHA_GRID, Provenance, SubModelScores,
                                SubsamplingMethod, WeightTable, _peak_sums,
                                build_cbs_weights, discounted_weights,
                                load_scores, log_candidate_mass,
                                log_model_frequencies, logsumexp,
                                mix_weights, save_scores, save_weight_table,
                                uniform_weights)

from conftest import (Triple, as_triples, candidate_chunks,
                      candidate_mass_bound, looped_zipf_kg, make_vocab,
                      mbs_weights, oracle_counted_frequencies,
                      oracle_load_weight_table, oracle_log_model_frequencies,
                      oracle_mean_one, oracle_scores, query_of, random_kg)


def cycle_dataset(n=6):
    """Every query appears exactly once: all frequencies equal."""
    triples = [Triple(i, 0, (i + 1) % n) for i in range(n)]
    return Dataset(train=triples, valid=[], test=[], vocab=make_vocab(n, 1))


def counted_frequency_arrays(dataset, smoothing=0.0):
    """Per-example (link, query) counted frequencies, by definition."""
    return oracle_counted_frequencies(dataset.train, 0.0)


def mbs_table(f_xy, f_x, method, alpha):
    """The model-based table of linear frequencies."""
    return mbs_weights((np.log(f_xy), np.log(f_x)), method, alpha)


ALL_METHODS = (SubsamplingMethod.BASE, SubsamplingMethod.FREQ,
               SubsamplingMethod.UNIQ)


class TestCbsWeights:
    def test_toy_base_hand_computation(self, toy_dataset):
        """Link frequencies 1.5,1.5,2,2,1.5,1.5 under the back-off mean."""
        table = build_cbs_weights(toy_dataset, SubsamplingMethod.BASE, 0.0)
        unnormalized = np.array([1 / math.sqrt(1.5), 1 / math.sqrt(1.5),
                                 1 / math.sqrt(2.0), 1 / math.sqrt(2.0),
                                 1 / math.sqrt(1.5), 1 / math.sqrt(1.5)])
        expected = unnormalized * 6 / unnormalized.sum()
        np.testing.assert_allclose(table.a, expected, atol=1e-12)
        np.testing.assert_allclose(table.b, expected, atol=1e-12)
        assert table.a.mean() == pytest.approx(1.0, abs=1e-12)

    def test_toy_freq_uses_query_counts_for_b(self, toy_dataset):
        """Query counts per example are 2,1,2,2,1,2 in the toy graph."""
        table = build_cbs_weights(toy_dataset, SubsamplingMethod.FREQ, 0.0)
        b_unnormalized = np.array([1 / math.sqrt(2.0), 1.0,
                                   1 / math.sqrt(2.0), 1 / math.sqrt(2.0),
                                   1.0, 1 / math.sqrt(2.0)])
        expected = b_unnormalized * 6 / b_unnormalized.sum()
        np.testing.assert_allclose(table.b, expected, atol=1e-12)

    def test_uniform_kg_gives_all_ones(self):
        dataset = cycle_dataset()
        for method in (SubsamplingMethod.BASE, SubsamplingMethod.FREQ,
                       SubsamplingMethod.UNIQ):
            table = build_cbs_weights(dataset, method, 0.0)
            np.testing.assert_allclose(table.a, 1.0, atol=1e-12)
            np.testing.assert_allclose(table.b, 1.0, atol=1e-12)

    def test_mean_one_normalization(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            dataset = random_kg(rng, num_entities=12, num_relations=4,
                                num_train=80)
            for method in (SubsamplingMethod.BASE, SubsamplingMethod.FREQ,
                           SubsamplingMethod.UNIQ):
                table = build_cbs_weights(dataset, method, float(trial))
                assert table.a.mean() == pytest.approx(1.0, abs=1e-9)
                assert table.b.mean() == pytest.approx(1.0, abs=1e-9)
                assert np.all(table.a >= 0) and np.all(table.b >= 0)

    def test_base_weights_anti_monotone_in_frequency(self):
        rng = np.random.default_rng(1)
        dataset = random_kg(rng, num_entities=8, num_relations=2,
                            num_train=120)
        table = build_cbs_weights(dataset, SubsamplingMethod.BASE, 0.0)
        f_xy, _ = counted_frequency_arrays(dataset)
        for i in range(len(f_xy)):
            for j in range(i + 1, len(f_xy)):
                if f_xy[i] < f_xy[j]:
                    assert table.a[i] > table.a[j]
                elif f_xy[i] == f_xy[j]:
                    assert table.a[i] == table.a[j]

    def test_frequencies_match_dict_oracle(self):
        """Every method's table is the alpha-1/2 discount of the dict-loop
        counted frequencies, normalized in log space, bit for bit."""
        for seed in range(3):
            dataset = looped_zipf_kg(seed)
            f_xy, f_x = oracle_counted_frequencies(dataset.train, 4.0)
            x_xy, x_x = -0.5 * np.log(f_xy), -0.5 * np.log(f_x)
            for method, a, b in ((SubsamplingMethod.BASE, x_xy, x_xy),
                                 (SubsamplingMethod.FREQ, x_xy, x_x),
                                 (SubsamplingMethod.UNIQ, x_x, x_x)):
                table = build_cbs_weights(dataset, method, 4.0)
                np.testing.assert_array_equal(table.a, oracle_mean_one(a))
                np.testing.assert_array_equal(table.b, oracle_mean_one(b))


def link_frequencies(raw):
    """exp(log f_xy) of raw scores over a same-sized example set."""
    n = len(raw)
    dataset = cycle_dataset(n // 2)
    return np.exp(log_model_frequencies(
        dataset, SubModelScores(np.asarray(raw, dtype=float), "x"))[0])


class TestSoftmaxOverTrain:
    """The link frequency is |D| times the softmax over the training
    examples."""

    def test_uniform_when_scores_equal(self):
        np.testing.assert_allclose(link_frequencies(np.full(8, 3.25)), 1.0,
                                   atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=50)
        np.testing.assert_allclose(link_frequencies(raw),
                                   link_frequencies(raw + 123.456),
                                   atol=1e-12)

    def test_closed_form_two_examples(self):
        np.testing.assert_allclose(link_frequencies([0.0, math.log(3.0)]),
                                   [0.5, 1.5], atol=1e-15)

    def test_positive_and_normalized(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(scale=40.0, size=200)  # large spread, still stable
        f = link_frequencies(raw)
        assert np.all(f > 0)
        assert abs(f.sum() / 200 - 1.0) <= 1e-12

    def test_non_finite_scores_rejected(self):
        with pytest.raises(DegenerateInputError):
            SubModelScores(np.array([0.0, np.inf]), "x")


def flat_scores(dataset):
    return SubModelScores(np.zeros(dataset.num_examples), "flat")


class TestMbsFrequencies:
    def test_uniform_p_gives_unit_link_frequency(self, toy_dataset):
        log_f_xy, _ = log_model_frequencies(toy_dataset,
                                            flat_scores(toy_dataset))
        np.testing.assert_allclose(np.exp(log_f_xy), 1.0, atol=1e-15)

    def test_uniform_p_query_frequency_counts_answers(self, toy_dataset):
        """(e1, r1, ?) has two observed answers, so its frequency is 2."""
        _, log_f_x = log_model_frequencies(toy_dataset,
                                           flat_scores(toy_dataset))
        assert np.exp(log_f_x[0]) == pytest.approx(2.0, abs=1e-12)  # tail
        assert np.exp(log_f_x[1]) == pytest.approx(1.0, abs=1e-12)  # head

    def test_query_mass_partitions_total(self, toy_dataset):
        """Summed over distinct queries, frequencies recover |D|."""
        rng = np.random.default_rng(4)
        n = toy_dataset.num_examples
        scores = SubModelScores(np.log(rng.dirichlet(np.ones(n))), "x")
        _, log_f_x = log_model_frequencies(toy_dataset, scores)
        per_query = {}
        for i, triple in enumerate(as_triples(toy_dataset.train)):
            for direction in (Direction.TAIL_QUERY, Direction.HEAD_QUERY):
                per_query[query_of(triple, direction)] = \
                    np.exp(log_f_x[2 * i + int(direction)])
        assert sum(per_query.values()) == pytest.approx(n, abs=1e-9)

    def test_length_mismatch_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            log_model_frequencies(toy_dataset,
                                  SubModelScores(np.zeros(4), "x"))

    def test_matches_dict_oracle(self):
        """Link and query log frequencies equal the per-query dict
        log-sum-exps bit for bit."""
        rng = np.random.default_rng(9)
        for seed in range(3):
            dataset = looped_zipf_kg(seed)
            raw = rng.normal(scale=3.0, size=dataset.num_examples)
            log_f_xy, log_f_x = log_model_frequencies(
                dataset, SubModelScores(raw, "x"))
            oracle_xy, oracle_x = oracle_log_model_frequencies(dataset.train,
                                                               raw)
            np.testing.assert_array_equal(log_f_xy, oracle_xy)
            np.testing.assert_array_equal(log_f_x, oracle_x)


class TestCandidateMassOnTiles:
    """The all-candidates log mass streams float32 tiles of entity
    columns and adds their sums in float64 in column order: the same
    bits at any worker count, and within the bound that
    `log_candidate_mass` states of the logsumexp of each query's float64
    scores."""

    KINDS = list(ModelKind)
    IDS = [kind.value for kind in KINDS]
    QUERIES = 40

    def _case(self, kind):
        params = init_params(kind, 37, 3, 8, 2.0, seed=32)
        rng = np.random.default_rng(33)
        return params, (rng.integers(0, 2, size=self.QUERIES),
                        rng.integers(0, 37, size=self.QUERIES),
                        rng.integers(0, 3, size=self.QUERIES))

    @staticmethod
    def _oracle_and_bound(params, queries):
        """logsumexp of each query's float64 `oracle_scores`, and the
        mass's stated bound with float64's rounding."""
        directions, entities, relations = queries
        oracle = np.empty(len(directions))
        for tail in (True, False):
            mine = (directions == Direction.TAIL_QUERY) == tail
            with np.errstate(over="ignore"):
                oracle[mine] = logsumexp(oracle_scores(
                    params, tail, params.entity_emb[entities[mine]],
                    params.relation_emb[relations[mine]]))
        return oracle, (candidate_mass_bound(params, *queries)
                        + 1e-14 * np.abs(oracle))

    @pytest.mark.parametrize("kind", KINDS, ids=IDS)
    def test_many_tiles(self, kind, monkeypatch):
        """Tiles of about `_TILE` = 4 entities, from 4 to 10 a pass, on
        up to 12 workers that hand their tiles on in whatever order the
        threads run."""
        params, queries = self._case(kind)
        monkeypatch.setattr(models, "_TILE", 4)
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", 4096)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            monkeypatch.setattr(models, "_WORKERS", 1)
            want = log_candidate_mass(params, *queries)
            for workers in (2, 3, 12):
                monkeypatch.setattr(models, "_WORKERS", workers)
                got = log_candidate_mass(params, *queries)
                assert np.array_equal(got, want), workers
        finally:
            sys.setswitchinterval(interval)
        oracle, bound = self._oracle_and_bound(params, queries)
        assert (np.abs(want - oracle) <= bound).all()

    @pytest.mark.parametrize("kind", KINDS, ids=IDS)
    def test_one_tile_is_the_row_logsumexp(self, kind):
        """37 entities, fewer than `_TILE`: one tile holds each row, and
        the log mass is the float32 row's maximum plus the log of its
        float32 shifted sum, both taken on in float64."""
        params, queries = self._case(kind)
        want = np.empty(self.QUERIES)
        for rows, scores, _ in candidate_chunks(params, *queries):
            peak, sums = (x.astype(np.float64) for x in _peak_sums(scores))
            want[rows] = np.log(sums) + peak
        got = log_candidate_mass(params, *queries)
        assert np.array_equal(got, want)
        oracle, bound = self._oracle_and_bound(params, queries)
        assert (np.abs(got - oracle) <= bound).all()

    @pytest.mark.parametrize("workers", [1, 2, 3, 12])
    def test_float32_overflow_takes_float64_scores(self, workers,
                                                  monkeypatch):
        """Rows whose float32 scores overflow take their tile's float64
        scores, so the mass is finite wherever the float64 mass is.
        DistMult at dim 1 scores q e with q = h r: entities 0 and 1 at
        +-4e38 are infinite in the float32 table.  Under the relation
        2.5e-38 their float64 scores are +-10 beside the others' [-7.5,
        7.5], so overflow hides a row's largest term; under the relation
        1 they are +-4e38, and the mass is about 4e38.  Tiles of four
        entities, so that one tile in three overflows."""
        params = init_params(ModelKind.DISTMULT, 12, 2, 1, 1.0, seed=35)
        params.entity_emb[:2, 0] = [4e38, -4e38]
        params.entity_emb[2:, 0] = np.linspace(-3e38, 3e38, 10)
        params.entity_emb[2, 0] = 1.0  # the given entity
        params.relation_emb[:, 0] = [2.5e-38, 1.0]
        monkeypatch.setattr(models, "_WORKERS", workers)
        monkeypatch.setattr(models, "_TILE", 4)
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", 2 * 4 * 4 * 4)
        queries = (np.array([0, 1, 0, 1]), np.full(4, 2), np.array([0, 0, 1, 1]))
        float32 = np.concatenate([scores for _, scores, _ in candidate_chunks(
            params, *queries)])
        assert not np.isfinite(float32[:, :2]).any()
        got = log_candidate_mass(params, *queries)
        oracle, bound = self._oracle_and_bound(params, queries)
        assert np.isfinite(oracle).all() and np.isfinite(got).all()
        assert (np.abs(got - oracle) <= bound).all()
        assert oracle[0] > 10 and oracle[2] == pytest.approx(4e38)

    def test_tile_without_mass(self, monkeypatch):
        """A query whose scores are -inf over a whole tile, a float64
        overflow, and finite elsewhere, takes its mass from the other
        tiles, as the logsumexp of its whole row does.  DistMult at dim 1
        scores q e with q = h r: q = 1e-300 * 1e308 against entities 0 to
        3 at -1e301, the first tile of four, and scores of order 1 from
        entities 5 to 11."""
        params = init_params(ModelKind.DISTMULT, 12, 1, 1, 1.0, seed=34)
        params.relation_emb[:] = 1e308
        params.entity_emb[:4] = -1e301
        params.entity_emb[4] = 1e-300
        params.entity_emb[5:] = np.linspace(-2e-8, 2e-8, 7)[:, None]
        monkeypatch.setattr(models, "_WORKERS", 1)
        monkeypatch.setattr(models, "_TILE", 4)
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", 64)
        queries = (np.zeros(1, np.int64), np.full(1, 4),
                   np.zeros(1, np.int64))
        with np.errstate(over="ignore", invalid="ignore"):
            got = log_candidate_mass(params, *queries)
        scores = 1e-300 * 1e308 * params.entity_emb[4:, 0]
        assert np.isfinite(scores).all() and 0.5 < np.ptp(scores) < 5
        oracle, bound = self._oracle_and_bound(params, queries)
        assert oracle[0] == pytest.approx(logsumexp(scores), rel=1e-14)
        assert abs(got[0] - oracle[0]) <= bound[0]


class TestMbsWeights:
    def test_hand_computation_two_examples(self):
        f = np.array([1.0, 4.0])
        table = mbs_table(f, f, SubsamplingMethod.BASE, alpha=1.0)
        np.testing.assert_allclose(table.a, [1.6, 0.4], atol=1e-12)
        np.testing.assert_allclose(table.b, [1.6, 0.4], atol=1e-12)

    def test_uniform_frequencies_give_ones(self):
        f = np.full(10, 7.5)
        for alpha in (0.01, 0.5, 2.0):
            for method in ALL_METHODS:
                table = mbs_table(f, f, method, alpha=alpha)
                np.testing.assert_allclose(table.a, 1.0, atol=1e-12)
                np.testing.assert_allclose(table.b, 1.0, atol=1e-12)

    def test_alpha_half_on_counts_reproduces_cbs(self):
        """The temperature-0.5 power law is exactly 1/sqrt."""
        rng = np.random.default_rng(5)
        for trial in range(5):
            dataset = random_kg(rng, num_entities=10, num_relations=3,
                                num_train=60)
            f_xy, f_x = counted_frequency_arrays(dataset)
            for method in ALL_METHODS:
                cbs = build_cbs_weights(dataset, method, 0.0)
                mbs = mbs_table(f_xy, f_x, method, alpha=0.5)
                np.testing.assert_allclose(mbs.a, cbs.a, atol=1e-12)
                np.testing.assert_allclose(mbs.b, cbs.b, atol=1e-12)

    def test_invalid_alpha_rejected(self):
        f = np.ones(4)
        with pytest.raises(ValueError):
            mbs_table(f, f, SubsamplingMethod.BASE, alpha=0.0)

    def test_underflowing_frequency_gives_positive_weights(self):
        """A frequency too small for a double, given as its log, still
        weighs; a weight beyond the double range is floored, not 0."""
        log_f = np.array([0.0, -2000.0])
        light = math.exp(-20.0)
        tiny = np.finfo(np.float64).tiny
        for alpha, expected in ((0.01, [2 * light / (1 + light),
                                        2 / (1 + light)]),
                                (1.0, [tiny, 2.0])):
            table = discounted_weights(log_f, log_f, SubsamplingMethod.BASE,
                                       alpha, Provenance("mbs", "base"))
            np.testing.assert_allclose(table.a, expected, rtol=1e-12)
            np.testing.assert_array_equal(table.b, table.a)


def assert_usable(table):
    """Finite, positive, mean-1 columns."""
    for column in (table.a, table.b):
        assert np.all(np.isfinite(column)) and np.all(column > 0)
        assert column.mean() == pytest.approx(1.0, abs=1e-12)


class TestWideScoreSpread:
    """Sub-model scores 2,000 nats apart, beyond exp's double range."""

    def test_observed_mass_every_alpha(self):
        dataset = looped_zipf_kg(0)
        rng = np.random.default_rng(11)
        raw = rng.permutation(np.linspace(-1000.0, 1000.0,
                                          dataset.num_examples))
        log_f = log_model_frequencies(dataset, SubModelScores(raw, "wide"))
        assert np.all(np.isfinite(log_f[0])) and np.all(np.isfinite(log_f[1]))
        self._check_every_alpha(log_f)

    def test_all_candidates_mass_every_alpha(self, toy_dataset):
        # DistMult scores h * r * t: the training triples score 0, 0 and
        # 2,000, and candidates of (?, r0, e2) up to 2,500
        sub = init_params(ModelKind.DISTMULT, 3, 1, 1, 1.0, seed=1)
        sub.entity_emb[:] = [[0.0], [40.0], [50.0]]
        sub.relation_emb[:] = [[1.0]]
        log_f = log_model_frequencies(
            toy_dataset, score_training_triples(sub, toy_dataset, "_"), sub)
        assert np.ptp(log_f[0]) == 2000.0
        self._check_every_alpha(log_f)

    @staticmethod
    def _check_every_alpha(log_f):
        cbs = WeightTable(np.ones(len(log_f[0])), np.ones(len(log_f[0])),
                          Provenance("cbs", "base"))
        for alpha in ALPHA_GRID:
            for method in ALL_METHODS:
                table = discounted_weights(*log_f, method, alpha,
                                           Provenance("mbs", method.value))
                assert_usable(table)
                assert_usable(mix_weights(cbs, table, 0.5))


class TestMixWeights:
    def _tables(self):
        rng = np.random.default_rng(6)
        a1 = rng.uniform(0.2, 2.0, size=12)
        b1 = rng.uniform(0.2, 2.0, size=12)
        a2 = rng.uniform(0.2, 2.0, size=12)
        b2 = rng.uniform(0.2, 2.0, size=12)
        from kgesub.subsampling import Provenance
        cbs = WeightTable(a1, b1, Provenance("cbs", "base"))
        mbs = WeightTable(a2, b2, Provenance("mbs", "base", alpha=0.5))
        return cbs, mbs

    def test_lambda_zero_is_cbs(self):
        cbs, mbs = self._tables()
        mixed = mix_weights(cbs, mbs, 0.0)
        np.testing.assert_array_equal(mixed.a, cbs.a)
        np.testing.assert_array_equal(mixed.b, cbs.b)

    def test_lambda_one_is_mbs(self):
        cbs, mbs = self._tables()
        mixed = mix_weights(cbs, mbs, 1.0)
        np.testing.assert_array_equal(mixed.a, mbs.a)
        np.testing.assert_array_equal(mixed.b, mbs.b)

    def test_midpoint(self):
        from kgesub.subsampling import Provenance
        cbs = WeightTable(np.array([1.6]), np.array([1.6]),
                          Provenance("cbs", "base"))
        mbs = WeightTable(np.array([0.4]), np.array([0.4]),
                          Provenance("mbs", "base", alpha=1.0))
        mixed = mix_weights(cbs, mbs, 0.5)
        assert mixed.a[0] == pytest.approx(1.0, abs=1e-15)

    def test_convexity_bounds(self):
        cbs, mbs = self._tables()
        for lam in (0.1, 0.3, 0.7, 0.9):
            mixed = mix_weights(cbs, mbs, lam)
            assert np.all(mixed.a >= np.minimum(cbs.a, mbs.a) - 1e-15)
            assert np.all(mixed.a <= np.maximum(cbs.a, mbs.a) + 1e-15)

    def test_mismatched_sets_rejected(self):
        cbs, mbs = self._tables()
        from kgesub.subsampling import Provenance
        short = WeightTable(mbs.a[:6], mbs.b[:6],
                            Provenance("mbs", "base", alpha=0.5))
        with pytest.raises(ValueError):
            mix_weights(cbs, short, 0.5)

    def test_lambda_out_of_range_rejected(self):
        cbs, mbs = self._tables()
        with pytest.raises(ValueError):
            mix_weights(cbs, mbs, 1.5)


class TestFiles:
    def test_weight_table_round_trip_bitwise(self, tmp_path, toy_dataset):
        table = build_cbs_weights(toy_dataset, SubsamplingMethod.FREQ, 0.0)
        path = tmp_path / "weights.tsv"
        save_weight_table(table, path)
        loaded = oracle_load_weight_table(path)
        assert np.array_equal(loaded.a, table.a)
        assert np.array_equal(loaded.b, table.b)
        assert loaded.provenance.source == "cbs"
        assert loaded.provenance.method == "freq"

    def test_weight_table_provenance_parameters(self, tmp_path):
        from kgesub.subsampling import Provenance
        table = WeightTable(np.ones(4), np.ones(4),
                            Provenance("mix", "uniq", alpha=0.1, lam=0.7,
                                       submodel_id="complex-none-seed1"))
        path = tmp_path / "weights.tsv"
        save_weight_table(table, path)
        loaded = oracle_load_weight_table(path)
        assert loaded.provenance.alpha == 0.1
        assert loaded.provenance.lam == 0.7
        assert loaded.provenance.submodel_id == "complex-none-seed1"

    def test_scores_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        scores = SubModelScores(rng.normal(size=20), "distmult-none-seed3")
        path = tmp_path / "scores.tsv"
        save_scores(scores, path)
        loaded = load_scores(path)
        assert np.array_equal(loaded.raw_score, scores.raw_score)
        assert loaded.submodel_id == scores.submodel_id

    @pytest.mark.parametrize("body, where", [
        ("0\t1.5\n1\tx\n", ":2:"),
        ("zero\t1.5\n", ":1:"),
        ("0\t1.5\n2\t1.5\n", ":2:"),
    ])
    def test_crafted_score_lines_rejected(self, tmp_path, body, where):
        path = tmp_path / "scores.tsv"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(DataError, match=f"scores.tsv{where}"):
            load_scores(path)

    def test_undecodable_score_file_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_bytes(b"0\t1.5\n\x80\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_scores(path)

    def test_uniform_weights_shape(self):
        table = uniform_weights(10)
        assert table.num_examples == 10
        assert table.provenance.source == "none"
