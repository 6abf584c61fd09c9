"""Negative sampling, the weighted loss, and the training loop."""

import math

import numpy as np
import pytest

from kgesub.data import Direction, QueryKey, Triple
from kgesub.errors import DegenerateInputError, TrainingDivergedError
from kgesub.models import ModelKind, init_params
from kgesub.subsampling import (SubsamplingMethod, build_cbs_weights,
                                build_mbs_weights, mix_weights,
                                uniform_weights)
from kgesub.training import (TrainConfig, TrainExample, batch_loss,
                             load_checkpoint, ns_loss, sample_negatives,
                             save_checkpoint, train, continue_train)

from conftest import (fd_function_row_gradients, looped_zipf_kg,
                      max_relative_error, oracle_answer_sets,
                      oracle_sample_negatives, random_kg)


def make_example(triple, direction, a=1.0, b=1.0):
    from kgesub.data import answer_of
    return TrainExample(triple=triple, direction=direction,
                        answer=answer_of(triple, direction),
                        weight_a=a, weight_b=b)


class TestSampleNegatives:
    def test_only_candidate_left(self):
        rng = np.random.default_rng(0)
        query = QueryKey(Direction.TAIL_QUERY, 0, 0)
        out = sample_negatives(query, 10, rng, np.array([0]),
                               num_entities=2)
        assert np.all(out == 1)

    def test_deterministic_given_stream(self):
        query = QueryKey(Direction.TAIL_QUERY, 0, 0)
        a = sample_negatives(query, 50, np.random.default_rng(42),
                             np.array([3]), num_entities=100)
        b = sample_negatives(query, 50, np.random.default_rng(42),
                             np.array([3]), num_entities=100)
        np.testing.assert_array_equal(a, b)

    def test_rejects_true_answers(self):
        rng = np.random.default_rng(1)
        query = QueryKey(Direction.HEAD_QUERY, 5, 0)
        true = {0, 1, 2, 3, 4}
        out = sample_negatives(query, 200, rng, np.array(sorted(true)),
                               num_entities=10)
        assert not (set(out.tolist()) & true)

    def test_uniform_within_binomial_bounds(self):
        """Each entity's count within 5 sigma of n/E over 1e5 draws."""
        rng = np.random.default_rng(2)
        query = QueryKey(Direction.TAIL_QUERY, 0, 0)
        draws = sample_negatives(query, 100_000, rng,
                                 np.array([], dtype=np.int64),
                                 num_entities=100)
        counts = np.bincount(draws, minlength=100)
        expected = 1000.0
        sigma = math.sqrt(100_000 * 0.01 * 0.99)
        assert np.all(np.abs(counts - expected) <= 5.0 * sigma)

    def test_degenerate_query_rejected(self):
        rng = np.random.default_rng(3)
        query = QueryKey(Direction.TAIL_QUERY, 0, 0)
        with pytest.raises(DegenerateInputError):
            sample_negatives(query, 1, rng, np.array([0, 1, 2]),
                             num_entities=3)

    @pytest.mark.parametrize("nu", [1, 4, 16])
    def test_same_draws_as_set_loop(self, nu):
        """For the same generator state, every training query's negatives
        equal those of the old per-draw set loop."""
        dataset = looped_zipf_kg(2, num_entities=12, num_links=120,
                                 num_valid=10, num_test=10)
        index = dataset.train_index
        sets = oracle_answer_sets(dataset.train)
        for q in range(index.num_queries):
            key = QueryKey(Direction(int(index.direction[q])),
                           int(index.entity[q]), int(index.relation[q]))
            if len(sets[key]) >= dataset.num_entities:
                continue
            got = sample_negatives(key, nu, np.random.default_rng([q, nu]),
                                   index.answers_of(q), dataset.num_entities)
            want = oracle_sample_negatives(nu, np.random.default_rng([q, nu]),
                                           sets[key], dataset.num_entities)
            np.testing.assert_array_equal(got, want)


class TestNsLoss:
    def test_all_zero_scores_closed_form(self):
        """sigmoid(0) = 1/2 on both terms gives 2 ln 2."""
        params = init_params(ModelKind.DISTMULT, 4, 1, 6, 0.0, seed=0)
        params.entity_emb[:] = 0.0
        params.relation_emb[:] = 0.0
        example = make_example(Triple(0, 0, 1), Direction.TAIL_QUERY)
        loss, _ = ns_loss(params, example, np.array([2, 3]), gamma=0.0)
        assert loss == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_linear_in_weights(self):
        params = init_params(ModelKind.COMPLEX, 6, 2, 8, 1.0, seed=1)
        negatives = np.array([3, 4, 5])
        base = make_example(Triple(0, 1, 2), Direction.TAIL_QUERY,
                            a=0.7, b=1.3)
        scaled = make_example(Triple(0, 1, 2), Direction.TAIL_QUERY,
                              a=0.7 * 2.5, b=1.3 * 2.5)
        loss1, grads1 = ns_loss(params, base, negatives, gamma=1.0)
        loss2, grads2 = ns_loss(params, scaled, negatives, gamma=1.0)
        assert loss2 == pytest.approx(2.5 * loss1, rel=1e-12)
        for key in grads1:
            np.testing.assert_allclose(grads2[key], 2.5 * grads1[key],
                                       rtol=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        for kind in ModelKind:
            params = init_params(kind, 8, 2, 8, 2.0, seed=5)
            example = make_example(
                Triple(int(rng.integers(8)), int(rng.integers(2)),
                       int(rng.integers(8))),
                Direction.TAIL_QUERY, a=rng.uniform(0.1, 2.0),
                b=rng.uniform(0.1, 2.0))
            negatives = rng.integers(0, 8, size=4)
            loss, _ = ns_loss(params, example, negatives, gamma=2.0)
            assert loss >= 0.0

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_gradient_matches_finite_differences(self, kind, beta):
        """FD oracle: the loss formula rewritten from score() directly.

        Self-adversarial weights are constants of the loss, so the
        oracle freezes them at the base point before differencing.
        """
        from kgesub.models import score
        rng = np.random.default_rng(6)
        params = init_params(kind, 8, 3, 8, 2.0, seed=7)
        triple = Triple(int(rng.integers(8)), int(rng.integers(3)),
                        int(rng.integers(8)))
        example = make_example(triple, Direction.TAIL_QUERY, a=1.4, b=0.6)
        negatives = [int(v) for v in rng.integers(0, 8, size=3)]
        neg_triples = [Triple(triple.head, triple.relation, v)
                       for v in negatives]
        loss, grads = ns_loss(params, example, np.array(negatives),
                              params.gamma, beta)

        base_neg_scores = np.array([score(params, nt) for nt in neg_triples])
        if beta > 0:
            z = beta * base_neg_scores
            z -= z.max()
            frozen_w = np.exp(z) / np.exp(z).sum()
        else:
            frozen_w = np.full(len(negatives), 1.0 / len(negatives))

        def log_sigmoid(v):
            return -math.log1p(math.exp(-v)) if v > 0 else \
                v - math.log1p(math.exp(v))

        def oracle_loss(p):
            pos = log_sigmoid(score(p, triple) + p.gamma)
            neg = sum(w * log_sigmoid(-score(p, nt) - p.gamma)
                      for w, nt in zip(frozen_w, neg_triples))
            return -(example.weight_a * pos + example.weight_b * neg)

        assert oracle_loss(params) == pytest.approx(loss, rel=1e-12)
        numeric = fd_function_row_gradients(oracle_loss, params,
                                            list(grads.keys()))
        assert max_relative_error(grads, numeric) <= 1e-4

    def test_empty_negatives_rejected(self):
        params = init_params(ModelKind.TRANSE, 4, 1, 4, 1.0, seed=8)
        example = make_example(Triple(0, 0, 1), Direction.TAIL_QUERY)
        with pytest.raises(ValueError):
            ns_loss(params, example, np.array([], dtype=np.int64), 1.0)

    def test_non_finite_score_reports_divergence(self):
        params = init_params(ModelKind.DISTMULT, 4, 1, 4, 1.0, seed=9)
        params.entity_emb[0, 0] = np.inf
        example = make_example(Triple(0, 0, 1), Direction.TAIL_QUERY)
        with pytest.raises(TrainingDivergedError):
            ns_loss(params, example, np.array([2]), 1.0)

    def test_self_adversarial_reweights_negatives(self):
        """beta > 0 shifts negative mass toward higher-scored negatives."""
        params = init_params(ModelKind.DISTMULT, 6, 1, 6, 0.0, seed=10)
        example = make_example(Triple(0, 0, 1), Direction.TAIL_QUERY)
        negatives = np.array([2, 3])
        uniform, _ = ns_loss(params, example, negatives, 0.0, 0.0)
        from kgesub.models import score
        s2 = score(params, Triple(0, 0, 2))
        s3 = score(params, Triple(0, 0, 3))
        sharp, _ = ns_loss(params, example, negatives, 0.0, 10.0)
        # with strong beta the weight concentrates on the higher score,
        # whose -log sigmoid(-s) term is the larger of the two
        assert sharp >= uniform - 1e-12
        assert s2 != s3


class TestBatchLoss:
    def test_identical_examples_equal_single(self):
        params = init_params(ModelKind.TRANSE, 6, 2, 6, 1.0, seed=11)
        example = make_example(Triple(0, 1, 2), Direction.TAIL_QUERY)
        negatives = np.array([3, 4])
        single, _ = ns_loss(params, example, negatives, 1.0)
        batched, _ = batch_loss(params, [(example, negatives)] * 5, 1.0)
        assert batched == pytest.approx(single, rel=1e-12)

    def test_concatenation_means(self):
        rng = np.random.default_rng(12)
        params = init_params(ModelKind.ROTATE, 8, 2, 8, 1.5, seed=13)
        def random_pair():
            triple = Triple(int(rng.integers(8)), int(rng.integers(2)),
                            int(rng.integers(8)))
            example = make_example(triple, Direction.HEAD_QUERY,
                                   a=rng.uniform(0.5, 1.5),
                                   b=rng.uniform(0.5, 1.5))
            return example, rng.integers(0, 8, size=3)
        first = [random_pair() for _ in range(4)]
        second = [random_pair() for _ in range(4)]
        loss_a, _ = batch_loss(params, first, 1.5)
        loss_b, _ = batch_loss(params, second, 1.5)
        loss_ab, _ = batch_loss(params, first + second, 1.5)
        assert loss_ab == pytest.approx((loss_a + loss_b) / 2.0, rel=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(14)
        params = init_params(ModelKind.HAKE, 8, 2, 8, 2.0, seed=15)
        batch = []
        for _ in range(8):
            triple = Triple(int(rng.integers(8)), int(rng.integers(2)),
                            int(rng.integers(8)))
            example = make_example(triple, Direction.TAIL_QUERY,
                                   a=rng.uniform(0.5, 1.5),
                                   b=rng.uniform(0.5, 1.5))
            batch.append((example, rng.integers(0, 8, size=4)))
        total, _ = batch_loss(params, batch, 2.0)
        looped = sum(ns_loss(params, ex, neg, 2.0)[0]
                     for ex, neg in batch) / len(batch)
        assert total == pytest.approx(looped, abs=1e-12)


class TestMixLossIdentity:
    def test_mix_loss_decomposes(self):
        """Mixed weights give lam*mbs + (1-lam)*cbs, loss and gradient."""
        rng = np.random.default_rng(16)
        dataset = random_kg(rng, num_entities=10, num_relations=3,
                            num_train=30)
        cbs = build_cbs_weights(dataset, SubsamplingMethod.FREQ, 1.0)
        f = rng.uniform(0.5, 3.0, size=dataset.num_examples)
        mbs = build_mbs_weights(f, f, SubsamplingMethod.FREQ, alpha=0.3)
        params = init_params(ModelKind.TRANSE, 10, 3, 8, 2.0, seed=17)
        for lam in (0.0, 0.25, 0.7, 1.0):
            mix = mix_weights(cbs, mbs, lam)
            for i, triple in enumerate(dataset.train[:6]):
                negatives = rng.integers(0, 10, size=3)
                eid = 2 * i
                def ex(table):
                    return make_example(triple, Direction.TAIL_QUERY,
                                        a=table.a[eid], b=table.b[eid])
                l_mix, _ = ns_loss(params, ex(mix), negatives, 2.0)
                l_cbs, _ = ns_loss(params, ex(cbs), negatives, 2.0)
                l_mbs, _ = ns_loss(params, ex(mbs), negatives, 2.0)
                assert abs(l_mix - (lam * l_mbs + (1 - lam) * l_cbs)) <= 1e-9


class TestTrainLoop:
    def test_zero_steps_returns_initial_params(self):
        rng = np.random.default_rng(18)
        dataset = random_kg(rng)
        params = init_params(ModelKind.TRANSE, 10, 3, 6, 1.0, seed=19)
        config = TrainConfig(steps=0, seed=1)
        result = train(dataset, uniform_weights(dataset.num_examples),
                       params, config)
        assert np.array_equal(result.params.entity_emb, params.entity_emb)
        assert result.log == []

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(20)
        dataset = random_kg(rng, num_train=30)
        params = init_params(ModelKind.COMPLEX, 10, 3, 8, 2.0, seed=21)
        config = TrainConfig(steps=25, batch_size=16, nu=2, seed=5)
        weights = uniform_weights(dataset.num_examples)
        one = train(dataset, weights, params, config)
        two = train(dataset, weights, params, config)
        assert np.array_equal(one.params.entity_emb, two.params.entity_emb)
        assert np.array_equal(one.params.relation_emb,
                              two.params.relation_emb)
        assert [r.loss for r in one.log] == [r.loss for r in two.log]

    def test_loss_decreases_on_structured_kg(self):
        from conftest import zipf_kg
        dataset = zipf_kg(3, num_entities=30, num_relations=3,
                          num_links=260, num_valid=30, num_test=30)
        params = init_params(ModelKind.TRANSE, 30, 3, 8, 4.0, seed=22)
        config = TrainConfig(steps=150, batch_size=32, nu=2,
                             learning_rate=0.05, seed=6)
        result = train(dataset, uniform_weights(dataset.num_examples),
                       params, config)
        early = np.mean([r.loss for r in result.log[:10]])
        late = np.mean([r.loss for r in result.log[-10:]])
        assert late < early

    def test_weight_coverage_checked(self):
        rng = np.random.default_rng(23)
        dataset = random_kg(rng)
        params = init_params(ModelKind.TRANSE, 10, 3, 6, 1.0, seed=24)
        with pytest.raises(ValueError):
            train(dataset, uniform_weights(4), params, TrainConfig(steps=1))

    def test_validation_callback_recorded(self):
        rng = np.random.default_rng(25)
        dataset = random_kg(rng, num_train=20)
        params = init_params(ModelKind.TRANSE, 10, 3, 6, 1.0, seed=26)
        config = TrainConfig(steps=6, batch_size=8, nu=2, seed=7,
                             valid_every=3)
        calls = []
        def callback(p, step):
            calls.append(step)
            return 0.5
        result = train(dataset, uniform_weights(dataset.num_examples),
                       params, config, callback)
        assert calls == [3, 6]
        assert [r.valid_mrr for r in result.log] == [None, None, 0.5,
                                                     None, None, 0.5]

    def test_sgd_supported(self):
        rng = np.random.default_rng(27)
        dataset = random_kg(rng, num_train=20)
        params = init_params(ModelKind.DISTMULT, 10, 3, 6, 1.0, seed=28)
        config = TrainConfig(steps=10, batch_size=8, nu=2, seed=8,
                             optimizer="sgd", learning_rate=0.1)
        result = train(dataset, uniform_weights(dataset.num_examples),
                       params, config)
        assert not np.array_equal(result.params.entity_emb,
                                  params.entity_emb)


class TestCheckpointResume:
    def _setup(self):
        rng = np.random.default_rng(29)
        dataset = random_kg(rng, num_train=30)
        params = init_params(ModelKind.ROTATE, 10, 3, 8, 2.0, seed=30)
        weights = uniform_weights(dataset.num_examples)
        return dataset, params, weights

    def test_save_load_bitwise(self, tmp_path):
        dataset, params, weights = self._setup()
        config = TrainConfig(steps=12, batch_size=16, nu=2, seed=9)
        result = train(dataset, weights, params, config)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(result.state, path)
        restored = load_checkpoint(path)
        assert restored.step == result.state.step
        assert np.array_equal(restored.params.entity_emb,
                              result.params.entity_emb)
        assert np.array_equal(restored.optimizer.m_entity,
                              result.state.optimizer.m_entity)

    def test_resume_equals_uninterrupted(self, tmp_path):
        """Stop at k, resume to k+m: bitwise-equal to a straight run."""
        dataset, params, weights = self._setup()
        short = TrainConfig(steps=10, batch_size=16, nu=2, seed=9)
        full = TrainConfig(steps=25, batch_size=16, nu=2, seed=9)
        straight = train(dataset, weights, params, full)

        partial = train(dataset, weights, params, short)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(partial.state, path)
        resumed_state = load_checkpoint(path)
        resumed = continue_train(dataset, weights, resumed_state, full)

        assert np.array_equal(resumed.params.entity_emb,
                              straight.params.entity_emb)
        assert np.array_equal(resumed.params.relation_emb,
                              straight.params.relation_emb)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        from kgesub.errors import CheckpointError
        dataset, params, weights = self._setup()
        result = train(dataset, weights, params,
                       TrainConfig(steps=3, batch_size=16, nu=2, seed=9))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(result.state, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestLearningRateDecay:
    def test_constant_by_default(self):
        config = TrainConfig(learning_rate=0.1)
        assert config.rate_at(0) == config.rate_at(999) == 0.1

    def test_step_decay_schedule(self):
        config = TrainConfig(learning_rate=0.8, lr_decay_every=10,
                             lr_decay_factor=0.5)
        assert config.rate_at(0) == 0.8
        assert config.rate_at(9) == 0.8
        assert config.rate_at(10) == 0.4
        assert config.rate_at(25) == 0.2

    def test_decayed_run_trains(self):
        rng = np.random.default_rng(31)
        dataset = random_kg(rng, num_train=20)
        params = init_params(ModelKind.TRANSE, 10, 3, 6, 1.0, seed=32)
        config = TrainConfig(steps=12, batch_size=8, nu=2, seed=10,
                             learning_rate=0.1, lr_decay_every=4,
                             lr_decay_factor=0.5)
        result = train(dataset, uniform_weights(dataset.num_examples),
                       params, config)
        assert len(result.log) == 12
        assert not np.array_equal(result.params.entity_emb,
                                  params.entity_emb)
