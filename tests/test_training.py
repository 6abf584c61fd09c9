"""Negative sampling, the weighted loss, and the training loop."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgesub import models
from kgesub.config import RunConfig
from kgesub.data import Dataset, Direction, QueryIndex
from kgesub.errors import DegenerateInputError, TrainingDivergedError
from kgesub.models import ModelKind, init_params
from kgesub.subsampling import (Provenance, SubsamplingMethod,
                                build_cbs_weights, discounted_weights,
                                mix_weights, uniform_weights)
from kgesub.training import (Complement, Gradients, OptimizerState,
                             _apply_update, batch_loss, load_checkpoint,
                             sample_negatives, save_checkpoint, train,
                             continue_train)

from conftest import (Triple, TrainExample, answers_of, as_triples,
                      example_batch_loss, fd_function_row_gradients,
                      looped_zipf_kg, make_vocab, max_relative_error,
                      oracle_answer_sets,
                      oracle_apply_update, oracle_batch_loss,
                      oracle_complement_negatives, oracle_sample_negatives,
                      query_examples,
                      random_kg, row_dict, score)


def make_example(triple, direction, a=1.0, b=1.0):
    return TrainExample(triple=triple, direction=direction, weight_a=a,
                        weight_b=b)


def answer_index(answers, num_entities):
    """Index whose tail query (0, r0) has exactly `answers`."""
    return QueryIndex.build([Triple(0, 0, a) for a in answers],
                            num_entities, 1)


class CountingRng:
    """Counts the calls made to a generator's `integers`."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def draw(index, example_ids, nu, rng):
    """`sample_negatives` for the examples `example_ids` of `index`."""
    return sample_negatives(Complement.of(index, np.asarray(example_ids)),
                            nu, rng)


def same_draws(index, triples, num_entities, nu):
    """Negatives of every query with a non-answer, one example each, equal
    the oracle's ranks looked up among its non-answers."""
    sets = oracle_answer_sets(triples)
    keys = sorted(sets)
    assert [len(sets[k]) for k in keys] == [
        len(answers_of(index, q)) for q in range(index.num_queries)]
    queries = [q for q, k in enumerate(keys) if len(sets[k]) < num_entities]
    got = draw(index, query_examples(index)[queries], nu,
               np.random.default_rng(nu))
    want = oracle_complement_negatives(
        nu, np.random.default_rng(nu), [sets[keys[q]] for q in queries],
        num_entities)
    np.testing.assert_array_equal(got, want)


class TestSampleNegatives:
    def test_only_candidate_left(self):
        """A query with E - 1 answers gets the one free entity nu times,
        from one draw."""
        index = answer_index([0, 1, 2, 4, 5], 6)
        rng = CountingRng(0)
        out = draw(index, [0, 0, 0], 10, rng)
        assert out.shape == (3, 10)
        assert np.all(out == 3)
        assert rng.calls == 1

    def test_deterministic_given_stream(self):
        index = answer_index([3], 100)
        a = draw(index, np.zeros(5, dtype=np.int64), 50,
                 np.random.default_rng(42))
        b = draw(index, np.zeros(5, dtype=np.int64), 50,
                 np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_rejects_true_answers(self):
        """No query of a graph with self-loops and repeats ever gets one
        of its training answers."""
        dataset = looped_zipf_kg(5, num_entities=15, num_links=200,
                                 num_valid=10, num_test=10)
        index = dataset.train_index
        out = draw(index, query_examples(index), 64,
                   np.random.default_rng(1))
        assert out.shape == (index.num_queries, 64)
        assert out.min() >= 0 and out.max() < dataset.num_entities
        for q, row in enumerate(out):
            assert not set(row.tolist()) & set(answers_of(index, q).tolist())

    def test_uniform_within_binomial_bounds(self):
        """Every non-answer appears, each within 5 sigma of n / free
        over 1e5 draws."""
        answers = [0, 7, 8, 9, 50, 99]
        index = answer_index(answers, 100)
        draws = draw(index, np.zeros(100, dtype=np.int64), 1000,
                     np.random.default_rng(2))
        counts = np.bincount(draws.ravel(), minlength=100)
        assert np.all(counts[answers] == 0)
        free = np.delete(counts, answers)
        p = 1.0 / len(free)
        sigma = math.sqrt(100_000 * p * (1.0 - p))
        assert free.min() > 0
        assert np.all(np.abs(free - 100_000 * p) <= 5.0 * sigma)

    def test_degenerate_query_rejected(self):
        index = answer_index([0, 1, 2], 3)
        with pytest.raises(DegenerateInputError):
            draw(index, [0], 1, np.random.default_rng(3))

    def test_nu_must_be_positive(self):
        with pytest.raises(ValueError):
            draw(answer_index([0], 3), [0], 0, np.random.default_rng(3))

    @pytest.mark.parametrize("nu", [1, 4, 16])
    def test_same_draws_as_set_loop(self, nu):
        """For the same generator state, every training query's negatives
        equal the same ranks looked up in a list of its non-answers."""
        dataset = looped_zipf_kg(2, num_entities=12, num_links=120,
                                 num_valid=10, num_test=10)
        same_draws(dataset.train_index, as_triples(dataset.train),
                   dataset.num_entities, nu)

    @pytest.mark.parametrize("nu", [1, 4, 16])
    def test_same_draws_when_lexsorted(self, nu):
        """The same on an index that takes the lexsort (2**40 entities),
        whose queries repeat their triples, so that a query's draw
        ranges over E less its distinct answers."""
        num_entities = 2 ** 40
        rng = np.random.default_rng(2)
        pool = np.array([0, 1, 2, 3, num_entities - 1])
        ids = np.stack([rng.choice(pool, 300), rng.integers(0, 2, 300),
                        rng.choice(pool, 300)], axis=1)
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
            index = QueryIndex.build(ids, num_entities, 2)
        assert spy.called
        triples = as_triples(ids)
        repeated = Triple(*ids[0].tolist())
        assert triples.count(repeated) > 1
        complement = Complement.of(index, [0])
        assert complement.free.tolist() == [num_entities - len(
            {t.tail for t in triples if t[:2] == repeated[:2]})]
        same_draws(index, triples, num_entities, nu)


    def test_same_distribution_as_rejection_loop(self):
        """The complement draw and the old rejection loop draw from the
        same support with the same frequencies, within 5 sigma."""
        answers = set(range(0, 40, 3))
        index = answer_index(sorted(answers), 40)
        n = 60_000
        new = draw(index, np.zeros(60, dtype=np.int64), n // 60,
                   np.random.default_rng(4)).ravel()
        old = oracle_sample_negatives(n, np.random.default_rng(5), answers,
                                      40)
        new_counts = np.bincount(new, minlength=40)
        old_counts = np.bincount(old, minlength=40)
        assert np.array_equal(new_counts > 0, old_counts > 0)
        p = 1.0 / (40 - len(answers))
        sigma = math.sqrt(2 * n * p * (1.0 - p))
        assert np.all(np.abs(new_counts - old_counts) <= 5.0 * sigma)


class TestNsLoss:
    """The loss of single examples, through `batch_loss`."""

    def test_all_zero_scores_closed_form(self):
        """sigmoid(0) = 1/2 on both terms gives 2 ln 2."""
        params = init_params(ModelKind.DISTMULT, 4, 1, 6, 0.0, seed=0)
        params.entity_emb[:] = 0.0
        params.relation_emb[:] = 0.0
        example = make_example(Triple(0, 0, 1), Direction.TAIL_QUERY)
        loss, _ = example_batch_loss(params, [(example, [2, 3])])
        assert loss == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_linear_in_weights(self):
        params = init_params(ModelKind.COMPLEX, 6, 2, 8, 1.0, seed=1)
        negatives = np.array([3, 4, 5])
        base = make_example(Triple(0, 1, 2), Direction.TAIL_QUERY,
                            a=0.7, b=1.3)
        scaled = make_example(Triple(0, 1, 2), Direction.TAIL_QUERY,
                              a=0.7 * 2.5, b=1.3 * 2.5)
        loss1, grads1 = example_batch_loss(params, [(base, negatives)])
        loss2, grads2 = example_batch_loss(params, [(scaled, negatives)])
        assert loss2 == pytest.approx(2.5 * loss1, rel=1e-12)
        assert grads1.keys() == grads2.keys()
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
            loss, _ = example_batch_loss(params, [(example, negatives)])
            assert loss >= 0.0

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_gradient_matches_finite_differences(self, kind, beta):
        """FD oracle: the loss formula rewritten from the scalar score.

        Self-adversarial weights are constants of the loss, so the
        oracle freezes them at the base point before differencing.
        """
        rng = np.random.default_rng(6)
        params = init_params(kind, 8, 3, 8, 2.0, seed=7)
        triple = Triple(int(rng.integers(8)), int(rng.integers(3)),
                        int(rng.integers(8)))
        example = make_example(triple, Direction.TAIL_QUERY, a=1.4, b=0.6)
        negatives = [int(v) for v in rng.integers(0, 8, size=3)]
        neg_triples = [Triple(triple.head, triple.relation, v)
                       for v in negatives]
        loss, grads = example_batch_loss(params, [(example, negatives)],
                                         beta)

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
            example_batch_loss(params, [(example, np.array([], dtype=int))])

    def test_non_finite_score_reports_divergence(self):
        params = init_params(ModelKind.DISTMULT, 4, 1, 4, 1.0, seed=9)
        params.entity_emb[0, 0] = np.inf
        example = make_example(Triple(0, 0, 1), Direction.TAIL_QUERY)
        with pytest.raises(TrainingDivergedError):
            example_batch_loss(params, [(example, np.array([2]))])

    def test_self_adversarial_reweights_negatives(self):
        """beta > 0 shifts negative mass toward higher-scored negatives."""
        params = init_params(ModelKind.DISTMULT, 6, 1, 6, 0.0, seed=10)
        example = make_example(Triple(0, 0, 1), Direction.TAIL_QUERY)
        negatives = np.array([2, 3])
        uniform, _ = example_batch_loss(params, [(example, negatives)], 0.0)
        s2 = score(params, Triple(0, 0, 2))
        s3 = score(params, Triple(0, 0, 3))
        sharp, _ = example_batch_loss(params, [(example, negatives)], 10.0)
        # with strong beta the weight concentrates on the higher score,
        # whose -log sigmoid(-s) term is the larger of the two
        assert sharp >= uniform - 1e-12
        assert s2 != s3


# all five kinds, uniform and self-adversarial
ORACLE_CASES = [(kind, beta) for kind in ModelKind for beta in (0.0, 1.0)]
ORACLE_IDS = [f"{kind.value}-beta{beta:g}" for kind, beta in ORACLE_CASES]


def oracle_batch(dataset, ids, negatives, weights):
    """The (example, negatives) pairs of the dict-loop oracle."""
    train = as_triples(dataset.train)
    return [(make_example(train[e // 2], Direction(e % 2),
                          weights.a[e], weights.b[e]), row)
            for e, row in zip(ids.tolist(), negatives)]


def looped_step(seed, kind, batch_size=48, nu=5):
    """A training-step batch of a graph with self-loops and repeated
    triples, with every self-loop example in it."""
    dataset = looped_zipf_kg(seed, num_entities=25, num_links=250,
                             num_valid=10, num_test=10)
    rng = np.random.default_rng(seed)
    loops = [2 * i + d for i, (h, _, t) in enumerate(dataset.train)
             if h == t for d in (0, 1)]
    ids = np.concatenate([loops, rng.permutation(dataset.num_examples)
                          [:batch_size - len(loops)]]).astype(np.int64)
    index = dataset.train_index
    negatives = draw(index, ids, nu, rng)
    weights = uniform_weights(dataset.num_examples)
    weights.a[:] = rng.uniform(0.2, 2.0, size=dataset.num_examples)
    weights.b[:] = rng.uniform(0.2, 2.0, size=dataset.num_examples)
    params = init_params(kind, dataset.num_entities, dataset.num_relations,
                         8, 2.0, seed=seed)
    return dataset, ids, negatives, weights, params


def assert_rows_close(got: dict, want: dict, rtol: float) -> None:
    """Same rows; each row within rtol of its largest entry."""
    assert got.keys() == want.keys()
    for key, g in want.items():
        assert np.abs(got[key] - g).max() <= rtol * np.abs(g).max(), key


class TestBatchLoss:
    def test_identical_examples_equal_single(self):
        params = init_params(ModelKind.TRANSE, 6, 2, 6, 1.0, seed=11)
        example = make_example(Triple(0, 1, 2), Direction.TAIL_QUERY)
        negatives = np.array([3, 4])
        single, _ = example_batch_loss(params, [(example, negatives)])
        batched, _ = example_batch_loss(params, [(example, negatives)] * 5)
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
        loss_a, _ = example_batch_loss(params, first)
        loss_b, _ = example_batch_loss(params, second)
        loss_ab, _ = example_batch_loss(params, first + second)
        assert loss_ab == pytest.approx((loss_a + loss_b) / 2.0, rel=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(14)
        params = init_params(ModelKind.HAKE, 8, 2, 8, 2.0, seed=15)
        batch = []
        for _ in range(8):
            triple = Triple(int(rng.integers(8)), int(rng.integers(2)),
                            int(rng.integers(8)))
            example = make_example(triple, Direction(int(rng.integers(2))),
                                   a=rng.uniform(0.5, 1.5),
                                   b=rng.uniform(0.5, 1.5))
            batch.append((example, rng.integers(0, 8, size=4)))
        total, grads = example_batch_loss(params, batch)
        looped, looped_grads = oracle_batch_loss(params, batch)
        assert total == pytest.approx(looped, abs=1e-12)
        assert_rows_close(grads, looped_grads, 1e-12)

    def test_hake_zero_phase_difference_has_zero_phase_gradient(self):
        """Every candidate's phase equals its query's (one phase for all
        entities, zero relation phases), so theta = 0 exactly: by the
        convention sign(0) = 0, no phase gets a gradient, while the
        moduli do."""
        dataset, ids, negatives, weights, params = looped_step(
            6, ModelKind.HAKE)
        half = params.dim // 2
        params.entity_emb[:, half:] = params.entity_emb[0, half:]
        params.relation_emb[:, half:] = 0.0
        _, grads = batch_loss(params, dataset.train_index, ids, negatives,
                              weights)
        assert np.all(grads.entity[:, half:] == 0.0)
        assert np.all(grads.relation[:, half:] == 0.0)
        assert np.all(np.abs(grads.entity[:, :half]).max(axis=1) > 0.0)

    @pytest.mark.parametrize("kind, beta", ORACLE_CASES, ids=ORACLE_IDS)
    def test_matches_dict_oracle(self, kind, beta):
        """Loss to 1e-12 and every touched row's gradient to 1e-12
        relative of the per-triple dict loop, self-loops included."""
        dataset, ids, negatives, weights, params = looped_step(3, kind)
        train = as_triples(dataset.train)
        assert any(train[e // 2].head == train[e // 2].tail
                   for e in ids.tolist())
        loss, grads = batch_loss(params, dataset.train_index, ids, negatives,
                                 weights, beta)
        want_loss, want_grads = oracle_batch_loss(
            params, oracle_batch(dataset, ids, negatives, weights), beta)
        assert abs(loss - want_loss) <= 1e-12
        assert_rows_close(row_dict(grads), want_grads, 1e-12)
        assert np.all(np.diff(grads.entity_rows) > 0)
        assert np.all(np.diff(grads.relation_rows) > 0)

    def test_rejects_mismatched_negatives(self):
        dataset, ids, negatives, weights, params = looped_step(
            3, ModelKind.DISTMULT)
        with pytest.raises(ValueError):
            batch_loss(params, dataset.train_index, ids, negatives[1:],
                       weights)
        with pytest.raises(ValueError):
            batch_loss(params, dataset.train_index, ids[:0], negatives[:0],
                       weights)


@pytest.fixture(scope="module")
def looped_graph():
    return looped_zipf_kg(3, num_entities=25, num_links=250, num_valid=10,
                          num_test=10)


class TestBatchLossProperties:
    """`batch_loss` against the dict-loop oracle over drawn batches, in
    one chunk and in many."""

    @settings(max_examples=80, deadline=None)
    @given(case=st.sampled_from(ORACLE_CASES),
           seed=st.integers(0, 2 ** 32 - 1),
           directions=st.sampled_from(["tail", "head", "mixed"]),
           size=st.integers(1, 12), nu=st.integers(1, 4),
           fixed_negative=st.booleans(),
           chunk=st.sampled_from([None, 1, 2, 5]))
    def test_matches_dict_oracle(self, looped_graph, case, seed, directions,
                                 size, nu, fixed_negative, chunk):
        """Every kind, uniform and self-adversarial negatives, batches of
        tail queries, head queries or both, and a self-loop in every
        batch; with `fixed_negative` each query's fixed entity is also
        its first negative.  `chunk` examples fit the budget (None: the
        whole batch does)."""
        kind, beta = case
        dataset = looped_graph
        index = dataset.train_index
        rng = np.random.default_rng(seed)
        train = as_triples(dataset.train)
        loops = [i for i, (h, _, t) in enumerate(train) if h == t]
        triples = np.concatenate([[rng.choice(loops)],
                                  rng.integers(0, len(train), size - 1)])
        heads = {"tail": np.zeros(size, dtype=np.int64),
                 "head": np.ones(size, dtype=np.int64),
                 "mixed": rng.integers(0, 2, size)}[directions]
        ids = 2 * triples + heads
        negatives = rng.integers(0, dataset.num_entities, size=(size, nu))
        if fixed_negative:
            negatives[:, 0] = index.entity[index.query_id[ids]]
        weights = uniform_weights(dataset.num_examples)
        weights.a[:] = rng.uniform(0.2, 2.0, size=dataset.num_examples)
        weights.b[:] = rng.uniform(0.2, 2.0, size=dataset.num_examples)
        params = init_params(kind, dataset.num_entities,
                             dataset.num_relations, 8, 2.0,
                             seed=seed % 1000)
        budget = (models.RANK_BUDGET_BYTES if chunk is None
                  else 8 * (1 + nu) * params.dim * chunk)
        with mock.patch.object(models, "RANK_BUDGET_BYTES", budget):
            loss, grads = batch_loss(params, index, ids, negatives, weights,
                                     beta)
        want_loss, want_grads = oracle_batch_loss(
            params, oracle_batch(dataset, ids, negatives, weights), beta)
        assert abs(loss - want_loss) <= 1e-12
        # each row to 1e-12 of the batch's largest gradient entry: a row
        # whose terms cancel (a self-loop's TransE row) has no scale of
        # its own
        got = row_dict(grads)
        assert got.keys() == want_grads.keys()
        scale = max(np.abs(g).max() for g in want_grads.values())
        for key, want in want_grads.items():
            assert np.abs(got[key] - want).max() <= 1e-12 * scale, key


class TestStepMemory:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_peak_is_bounded_by_the_budget(self, kind, monkeypatch):
        """One step (`batch_loss` and the Adam update) whose
        (B, 1 + nu, dim) block is 64 budgets allocates at most 12 budgets
        plus its gradient rows, under half that one block."""
        budget = 256 << 10
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", budget)
        rng = np.random.default_rng(40)
        dataset = random_kg(rng, num_entities=1000, num_relations=4,
                            num_train=400)
        index = dataset.train_index
        params = init_params(kind, 1000, 4, 256, 2.0, seed=41)
        ids = rng.permutation(dataset.num_examples)[:64]
        negatives = draw(index, ids, 127, rng)
        block = 8 * ids.size * (1 + 127) * params.dim
        assert block == 64 * budget
        opt = OptimizerState.fresh(params)
        weights = uniform_weights(dataset.num_examples)
        tracemalloc.start()
        try:
            _, grads = batch_loss(params, index, ids, negatives, weights)
            _apply_update(params, opt, grads, 0.01, 1, RunConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = grads.entity.nbytes + grads.relation.nbytes
        assert peak <= 12 * budget + rows < block / 2, (peak / budget,
                                                        rows / budget)


class TestApplyUpdate:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_matches_dict_loop(self, kind):
        """One Adam step from the batched gradients gives the parameters
        of the row-at-a-time update of the dict-loop gradients, to 1e-12,
        and bitwise for the same gradients, for each kind's table shapes."""
        dataset, ids, negatives, weights, params = looped_step(6, kind)
        config = RunConfig(learning_rate=0.05)
        opt = OptimizerState.fresh(params)
        rng = np.random.default_rng(7)  # moments from an earlier step
        for m in (opt.m_entity, opt.v_entity, opt.m_relation,
                  opt.v_relation):
            m[:] = rng.uniform(0.0, 0.1, size=m.shape)
        _, grads = batch_loss(params, dataset.train_index, ids, negatives,
                              weights)
        _, dict_grads = oracle_batch_loss(
            params, oracle_batch(dataset, ids, negatives, weights))

        runs = []
        for update, g in ((_apply_update, grads),
                          (oracle_apply_update, dict_grads),
                          (oracle_apply_update, row_dict(grads))):
            p, o = params.copy(), OptimizerState(*(m.copy() for m in (
                opt.m_entity, opt.v_entity, opt.m_relation, opt.v_relation)))
            update(p, o, g, 0.05, 3, config)
            runs.append((p, o))
        batched, oracle, same_grads = runs
        for p, _ in (oracle, same_grads):
            np.testing.assert_allclose(batched[0].entity_emb, p.entity_emb,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(batched[0].relation_emb,
                                       p.relation_emb, rtol=0, atol=1e-12)
        assert np.array_equal(batched[0].entity_emb,
                              same_grads[0].entity_emb)
        assert np.array_equal(batched[0].relation_emb,
                              same_grads[0].relation_emb)
        assert np.array_equal(batched[1].v_entity, same_grads[1].v_entity)
        # rows no example touched keep their moments
        untouched = np.setdiff1d(np.arange(params.num_entities),
                                 grads.entity_rows)
        assert np.array_equal(batched[1].m_entity[untouched],
                              opt.m_entity[untouched])
        changed = np.flatnonzero(np.any(
            batched[0].entity_emb != params.entity_emb, axis=1))
        assert set(changed) <= set(grads.entity_rows.tolist())

    def test_negative_row_id_updates_the_row_it_names(self):
        """Adam reads and writes the same row for an id that fancy
        indexing wraps: -1 updates the last row as its own id does."""
        params = init_params(ModelKind.DISTMULT, 5, 2, 4, 1.0, seed=8)
        g = np.random.default_rng(9).normal(size=(1, 4))
        updated = []
        for row in (-1, 4):
            p = params.copy()
            _apply_update(p, OptimizerState.fresh(p), Gradients(
                np.array([row]), g, np.array([0]),
                np.zeros((1, p.relation_emb.shape[1]))), 0.1, 1, RunConfig())
            updated.append(p.entity_emb)
        assert np.array_equal(*updated)
        assert not np.array_equal(updated[0][4], params.entity_emb[4])


class TestMixLossIdentity:
    def test_mix_loss_decomposes(self):
        """Mixed weights give lam*mbs + (1-lam)*cbs, loss and gradient."""
        rng = np.random.default_rng(16)
        dataset = random_kg(rng, num_entities=10, num_relations=3,
                            num_train=30)
        cbs = build_cbs_weights(dataset, SubsamplingMethod.FREQ, 1.0)
        f = rng.uniform(0.5, 3.0, size=dataset.num_examples)
        mbs = discounted_weights(np.log(f), np.log(f),
                                 SubsamplingMethod.FREQ, 0.3,
                                 Provenance("mbs", "freq", alpha=0.3))
        params = init_params(ModelKind.TRANSE, 10, 3, 8, 2.0, seed=17)
        index = dataset.train_index
        for lam in (0.0, 0.25, 0.7, 1.0):
            mix = mix_weights(cbs, mbs, lam)
            for i in range(6):
                ids = np.array([2 * i])
                negatives = rng.integers(0, 10, size=(1, 3))
                l_mix, g_mix = batch_loss(params, index, ids, negatives, mix)
                l_cbs, g_cbs = batch_loss(params, index, ids, negatives, cbs)
                l_mbs, g_mbs = batch_loss(params, index, ids, negatives, mbs)
                assert abs(l_mix - (lam * l_mbs + (1 - lam) * l_cbs)) <= 1e-9
                np.testing.assert_allclose(
                    g_mix.entity, lam * g_mbs.entity + (1 - lam) * g_cbs.entity,
                    rtol=0, atol=1e-9)


class TestTrainLoop:
    def test_zero_steps_returns_initial_params(self):
        rng = np.random.default_rng(18)
        dataset = random_kg(rng)
        params = init_params(ModelKind.TRANSE, 10, 3, 6, 1.0, seed=19)
        config = RunConfig(steps=0, seed=1)
        result = train(dataset, uniform_weights(dataset.num_examples),
                       params, config)
        assert np.array_equal(result.params.entity_emb, params.entity_emb)
        assert result.log == []

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(20)
        dataset = random_kg(rng, num_train=30)
        params = init_params(ModelKind.COMPLEX, 10, 3, 8, 2.0, seed=21)
        config = RunConfig(steps=25, batch_size=16, nu=2, seed=5)
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
        config = RunConfig(steps=150, batch_size=32, nu=2,
                           learning_rate=0.05, seed=6)
        result = train(dataset, uniform_weights(dataset.num_examples),
                       params, config)
        early = np.mean([r.loss for r in result.log[:10]])
        late = np.mean([r.loss for r in result.log[-10:]])
        assert late < early

    def test_query_without_false_candidates_rejected(self):
        """A batch holding a query whose answers are every entity raises
        DegenerateInputError instead of looping."""
        dataset = Dataset(train=[Triple(0, 0, t) for t in range(3)],
                          valid=[], test=[], vocab=make_vocab(3, 1))
        params = init_params(ModelKind.TRANSE, 3, 1, 4, 1.0, seed=1)
        with pytest.raises(DegenerateInputError):
            train(dataset, uniform_weights(6), params,
                  RunConfig(steps=1, batch_size=6))

    def test_weight_coverage_checked(self):
        rng = np.random.default_rng(23)
        dataset = random_kg(rng)
        params = init_params(ModelKind.TRANSE, 10, 3, 6, 1.0, seed=24)
        with pytest.raises(ValueError):
            train(dataset, uniform_weights(4), params, RunConfig(steps=1))

    def test_validation_callback_recorded(self):
        rng = np.random.default_rng(25)
        dataset = random_kg(rng, num_train=20)
        params = init_params(ModelKind.TRANSE, 10, 3, 6, 1.0, seed=26)
        config = RunConfig(steps=6, batch_size=8, nu=2, seed=7,
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


class TestCheckpointResume:
    def _setup(self):
        rng = np.random.default_rng(29)
        dataset = random_kg(rng, num_train=30)
        params = init_params(ModelKind.ROTATE, 10, 3, 8, 2.0, seed=30)
        weights = uniform_weights(dataset.num_examples)
        return dataset, params, weights

    def test_save_load_bitwise(self, tmp_path):
        dataset, params, weights = self._setup()
        config = RunConfig(steps=12, batch_size=16, nu=2, seed=9)
        result = train(dataset, weights, params, config)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(result.state, path)
        restored = load_checkpoint(path)
        assert restored.step == result.state.step
        assert np.array_equal(restored.params.entity_emb,
                              result.params.entity_emb)
        assert np.array_equal(restored.optimizer.m_entity,
                              result.state.optimizer.m_entity)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_adam_moments_round_trip(self, tmp_path, kind):
        """Every checkpoint holds Adam's four moments, shaped like the
        tables they belong to, under the header field optimizer = adam."""
        from kgesub.data import read_container
        dataset, _, weights = self._setup()
        params = init_params(kind, 10, 3, 8, 2.0, seed=30)
        result = train(dataset, weights, params,
                       RunConfig(steps=3, batch_size=16, nu=2, seed=9))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(result.state, path)
        assert read_container(path)[0]["optimizer"] == "adam"
        restored = load_checkpoint(path).optimizer
        for name in ("m_entity", "v_entity", "m_relation", "v_relation"):
            table = (params.entity_emb if name.endswith("entity")
                     else params.relation_emb)
            saved = getattr(result.state.optimizer, name)
            assert saved.shape == table.shape
            assert np.any(saved != 0.0)
            assert np.array_equal(getattr(restored, name), saved)

    def test_tag_names_the_checkpoint_and_nothing_else(self, tmp_path):
        """A tagged checkpoint reads back as a sub-model of that id and
        resumes to the same state as an untagged one."""
        from kgesub.models import load_tagged_params
        dataset, params, weights = self._setup()
        result = train(dataset, weights, params,
                       RunConfig(steps=3, batch_size=16, nu=2, seed=9))
        save_checkpoint(result.state, tmp_path / "plain.bin")
        save_checkpoint(result.state, tmp_path / "tagged.bin", tag="m 1")
        assert load_tagged_params(tmp_path / "plain.bin")[1] is None
        assert load_tagged_params(tmp_path / "tagged.bin")[1] == "m 1"
        plain, tagged = (load_checkpoint(tmp_path / name)
                         for name in ("plain.bin", "tagged.bin"))
        assert tagged.step == plain.step == 3
        for name in ("entity_emb", "relation_emb"):
            assert np.array_equal(getattr(tagged.params, name),
                                  getattr(plain.params, name))
        assert np.array_equal(tagged.optimizer.v_entity,
                              plain.optimizer.v_entity)

    def test_resume_equals_uninterrupted(self, tmp_path):
        """Stop at k, resume to k+m: bitwise-equal to a straight run."""
        dataset, params, weights = self._setup()
        short = RunConfig(steps=10, batch_size=16, nu=2, seed=9)
        full = RunConfig(steps=25, batch_size=16, nu=2, seed=9)
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
                       RunConfig(steps=3, batch_size=16, nu=2, seed=9))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(result.state, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_non_finite_moment_rejected(self, tmp_path):
        from kgesub.errors import CheckpointError
        dataset, params, weights = self._setup()
        result = train(dataset, weights, params, RunConfig(
            steps=3, batch_size=16, nu=2, seed=9))
        result.state.optimizer.m_entity[4, 1] = float("nan")
        path = tmp_path / "ckpt.bin"
        save_checkpoint(result.state, path)
        with pytest.raises(CheckpointError,
                           match="adam_m_entity holds a non-finite entry"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value, message", [
        ("optimizer", None, "header field optimizer"),
        ("optimizer", "adagrad", "header field optimizer"),
        ("step", None, "header field step"),
        ("step", -1, "header field step"),
        ("step", 2.5, "header field step"),
        ("step", True, "header field step"),
        ("adam_v_relation", None, "adam_v_relation is missing"),
        ("adam_m_entity", np.zeros((3, 8)), "adam_m_entity is missing or "
         "not of shape"),
        ("optimizer", "sgd", "header field optimizer"),
        ("optimizer", 1.0, "header field optimizer"),
        ("adam_m_entity", None, "adam_m_entity is missing"),
        ("adam_v_entity", None, "adam_v_entity is missing"),
        ("adam_m_relation", None, "adam_m_relation is missing"),
    ])
    def test_bad_train_field_rejected(self, tmp_path, field, value, message):
        """The fields that only a training checkpoint has are input too:
        None removes the field."""
        from kgesub.data import read_container, write_container
        from kgesub.errors import CheckpointError
        dataset, params, weights = self._setup()
        result = train(dataset, weights, params, RunConfig(
            steps=3, batch_size=16, nu=2, seed=9))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(result.state, path)
        header, arrays = read_container(path)
        fields = arrays if field.startswith("adam_") else header
        if value is None:
            del fields[field]
        else:
            fields[field] = value
        write_container(path, header, arrays)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("tag", ["5", "true", "null", '["x"]',
                                     '{"a": 1}'])
    def test_tag_that_is_not_a_string_rejected(self, tmp_path, tag):
        """The training reader makes the header checks of the parameter
        reader: a `tag` that is not a string fails both alike."""
        import json
        from kgesub.data import read_container, write_container
        from kgesub.errors import CheckpointError
        from kgesub.models import load_tagged_params
        dataset, params, weights = self._setup()
        result = train(dataset, weights, params,
                       RunConfig(steps=3, batch_size=16, nu=2, seed=9))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(result.state, path, tag="m 1")
        header, arrays = read_container(path)
        write_container(path, dict(header, tag=json.loads(tag)), arrays)
        for read in (load_checkpoint, load_tagged_params):
            with pytest.raises(CheckpointError,
                               match="header field tag must be str"):
                read(path)


class TestLearningRateDecay:
    def test_constant_by_default(self):
        config = RunConfig(learning_rate=0.1)
        assert config.rate_at(0) == config.rate_at(999) == 0.1

    def test_step_decay_schedule(self):
        config = RunConfig(learning_rate=0.8, lr_decay_every=10,
                           lr_decay_factor=0.5)
        assert config.rate_at(0) == 0.8
        assert config.rate_at(9) == 0.8
        assert config.rate_at(10) == 0.4
        assert config.rate_at(25) == 0.2

    def test_decayed_run_trains(self):
        rng = np.random.default_rng(31)
        dataset = random_kg(rng, num_train=20)
        params = init_params(ModelKind.TRANSE, 10, 3, 6, 1.0, seed=32)
        config = RunConfig(steps=12, batch_size=8, nu=2, seed=10,
                           learning_rate=0.1, lr_decay_every=4,
                           lr_decay_factor=0.5)
        result = train(dataset, uniform_weights(dataset.num_examples),
                       params, config)
        assert len(result.log) == 12
        assert not np.array_equal(result.params.entity_emb,
                                  params.entity_emb)
