"""Acceptance suite: one test per shipping criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.  Criterion 7 needs the real benchmark datasets under
$KGESUB_DATA_ROOT and is skipped when they are absent.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from kgesub.config import RunConfig
from kgesub.data import Dataset, Direction
from kgesub.evaluation import evaluate
from kgesub.models import ModelKind, init_params
from kgesub.submodel import score_training_triples
from kgesub.subsampling import (SubModelScores, SubsamplingMethod,
                                build_cbs_weights, counted_frequencies,
                                log_model_frequencies, mix_weights,
                                uniform_weights)
from kgesub.training import (batch_loss, continue_train, load_checkpoint,
                             save_checkpoint, train)

from conftest import (Triple, TrainExample, answer_of, as_triples,
                      example_batch_loss, query_of,
                      fd_function_row_gradients, fd_score_row_gradients,
                      filtered_rank, load_triples, make_vocab,
                      max_relative_error,
                      mbs_weights, oracle_answer_sets,
                      oracle_counted_frequencies, oracle_filtered_rank,
                      random_kg, random_triples, score, score_and_grad,
                      score_batch, sorted_query_counts, zipf_kg)

ALL_KINDS = list(ModelKind)


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_c1_mixed_loss_decomposition():
    """The mixed loss equals lam * model-based + (1 - lam) * count-based
    for any parameters, batch, negatives, and lam, within 1e-9."""
    started = time.monotonic()
    rng = np.random.default_rng(101)
    graphs = []
    for g in range(5):
        dataset = random_kg(rng, num_entities=10, num_relations=3,
                            num_train=24)
        method = (SubsamplingMethod.BASE, SubsamplingMethod.FREQ,
                  SubsamplingMethod.UNIQ)[g % 3]
        cbs = build_cbs_weights(dataset, method, 1.0)
        scores = SubModelScores(rng.normal(size=dataset.num_examples),
                                f"rand-{g}")
        mbs = mbs_weights(log_model_frequencies(dataset, scores), method,
                          alpha=float(rng.uniform(0.05, 2.0)))
        graphs.append((dataset, cbs, mbs))

    worst = 0.0
    for instance in range(1000):
        dataset, cbs, mbs = graphs[instance % 5]
        lam = float(rng.uniform(0.0, 1.0))
        mix = mix_weights(cbs, mbs, lam)
        kind = ALL_KINDS[instance % 5]
        params = init_params(kind, 10, 3, 6, 2.0, seed=instance)
        batch_ids = rng.integers(0, dataset.num_examples, size=3)
        negatives = np.array([
            np.random.default_rng([instance, int(eid)]).integers(0, 10,
                                                                 size=2)
            for eid in batch_ids])
        losses = {}
        for name, table in (("cbs", cbs), ("mbs", mbs), ("mix", mix)):
            losses[name], _ = batch_loss(params, dataset.train_index,
                                         batch_ids, negatives, table)
        gap = abs(losses["mix"]
                  - (lam * losses["mbs"] + (1.0 - lam) * losses["cbs"]))
        worst = max(worst, gap)
    elapsed = time.monotonic() - started
    _verdict(1, "mixed-loss decomposition", worst <= 1e-9 and elapsed < 5.0,
             f"worst gap {worst:.3e} over 1000 instances, {elapsed:.1f}s")


def test_c2_count_and_model_weights_agree_at_half():
    """Model-based weights at temperature 0.5 on counted frequencies
    reproduce count-based weights within 1e-12, all three methods."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(50):
        size = int(rng.integers(10, 1001))
        dataset = random_kg(rng, num_entities=int(rng.integers(5, 40)),
                            num_relations=int(rng.integers(1, 6)),
                            num_train=size)
        f_xy, f_x = oracle_counted_frequencies(dataset.train, 0.0)
        for method in (SubsamplingMethod.BASE, SubsamplingMethod.FREQ,
                       SubsamplingMethod.UNIQ):
            cbs = build_cbs_weights(dataset, method, 0.0)
            mbs = mbs_weights((np.log(f_xy), np.log(f_x)), method, alpha=0.5)
            worst = max(worst,
                        float(np.abs(cbs.a - mbs.a).max()),
                        float(np.abs(cbs.b - mbs.b).max()))
    _verdict(2, "count/model structural identity", worst <= 1e-12,
             f"worst deviation {worst:.3e} over 50 KGs x 3 methods")


def test_c3_counting_matches_independent_oracle():
    """Query counts and link frequencies equal a sort-based recount
    exactly on 100 random KGs of up to 10,000 triples."""
    started = time.monotonic()
    rng = np.random.default_rng(303)
    checked = 0
    for trial in range(100):
        size = int(rng.integers(10, 10001))
        num_entities = int(rng.integers(5, 200))
        num_relations = int(rng.integers(1, 10))
        train = random_triples(rng, num_entities, num_relations, size)
        dataset = Dataset(train=train, valid=[], test=[],
                          vocab=make_vocab(num_entities, num_relations))
        index = dataset.train_index
        oracle = sorted_query_counts(train)
        assert list(oracle) == list(zip(index.direction.tolist(),
                                        index.entity.tolist(),
                                        index.relation.tolist()))
        assert list(oracle.values()) == index.count.tolist()
        f_xy, _ = counted_frequencies(dataset, 0.0)
        for i, triple in enumerate(train[:50]):
            tail = oracle[(0, triple.head, triple.relation)]
            head = oracle[(1, triple.tail, triple.relation)]
            assert f_xy[2 * i] == f_xy[2 * i + 1] == (tail + head) / 2.0
        checked += size
    elapsed = time.monotonic() - started
    _verdict(3, "counting oracle", elapsed < 30.0,
             f"{checked} triples across 100 KGs, exact, {elapsed:.1f}s")


def test_c4_gradient_suite():
    """Score gradients and full-loss gradients (uniform and
    self-adversarial negatives, arbitrary weights) match central finite
    differences at relative error 1e-4, 20 random points each."""
    started = time.monotonic()
    rng = np.random.default_rng(404)
    worst_score = 0.0
    for kind in ALL_KINDS:
        for point in range(20):
            params = init_params(kind, 8, 3, 8, 2.0, seed=1000 + point)
            triple = Triple(int(rng.integers(8)), int(rng.integers(3)),
                            int(rng.integers(8)))
            ent, rel = params.entity_emb, params.relation_emb
            _, g_h, g_r, g_t = (g[0, 0] for g in score_and_grad(
                params, ent[triple.head][None, None],
                rel[triple.relation][None, None], ent[triple.tail][None, None]))
            analytic = {}
            for key, grad in ((("entity", triple.head), g_h),
                              (("relation", triple.relation), g_r),
                              (("entity", triple.tail), g_t)):
                analytic[key] = analytic.get(key, 0) + grad
            numeric = fd_score_row_gradients(params, triple, step=1e-5)
            worst_score = max(worst_score,
                              max_relative_error(analytic, numeric))

    worst_loss = 0.0
    for kind in ALL_KINDS:
        for beta in (0.0, 1.0):
            for point in range(20):
                params = init_params(kind, 8, 3, 8, 2.0, seed=2000 + point)
                triple = Triple(int(rng.integers(8)), int(rng.integers(3)),
                                int(rng.integers(8)))
                direction = Direction(point % 2)
                example = TrainExample(
                    triple=triple, direction=direction,
                    weight_a=float(rng.uniform(0.1, 2.5)),
                    weight_b=float(rng.uniform(0.1, 2.5)))
                negatives = rng.integers(0, 8, size=3)
                _, grads = example_batch_loss(params, [(example, negatives)],
                                              beta)

                neg_triples = [
                    Triple(triple.head, triple.relation, int(v))
                    if direction == Direction.TAIL_QUERY
                    else Triple(int(v), triple.relation, triple.tail)
                    for v in negatives]
                base = np.array([score(params, nt) for nt in neg_triples])
                if beta > 0:
                    z = beta * base
                    z -= z.max()
                    w = np.exp(z) / np.exp(z).sum()
                else:
                    w = np.full(len(negatives), 1.0 / len(negatives))

                def log_sigmoid(v):
                    return (-math.log1p(math.exp(-v)) if v > 0
                            else v - math.log1p(math.exp(v)))

                def oracle_loss(p):
                    pos = log_sigmoid(score(p, triple) + p.gamma)
                    neg = sum(wi * log_sigmoid(-score(p, nt) - p.gamma)
                              for wi, nt in zip(w, neg_triples))
                    return -(example.weight_a * pos
                             + example.weight_b * neg)

                numeric = fd_function_row_gradients(
                    oracle_loss, params, list(grads.keys()), step=1e-5)
                worst_loss = max(worst_loss,
                                 max_relative_error(grads, numeric))
    elapsed = time.monotonic() - started
    ok = worst_score <= 1e-4 and worst_loss <= 1e-4 and elapsed < 60.0
    _verdict(4, "gradient suite", ok,
             f"score err {worst_score:.2e}, loss err {worst_loss:.2e}, "
             f"{elapsed:.1f}s")


def test_c5_evaluation_matches_exhaustive_oracle():
    """Filtered ranks and split metrics equal an exhaustive-scoring
    oracle exactly on 200 random small-KG instances."""
    rng = np.random.default_rng(505)
    instances = 0
    for trial in range(200):
        num_entities = int(rng.integers(3, 21))
        dataset = random_kg(rng, num_entities=num_entities,
                            num_relations=int(rng.integers(1, 4)),
                            num_train=int(rng.integers(5, 40)),
                            num_valid=3, num_test=int(rng.integers(2, 8)))
        kind = ALL_KINDS[trial % 5]
        params = init_params(kind, num_entities, dataset.num_relations, 6,
                             1.5, seed=trial)
        report = evaluate(params, dataset, "test")
        known = oracle_answer_sets(
            np.concatenate([dataset.train, dataset.valid, dataset.test]))
        expected = []
        for triple in as_triples(dataset.test):
            for direction in (Direction.TAIL_QUERY, Direction.HEAD_QUERY):
                query = query_of(triple, direction)
                answer = answer_of(triple, direction)
                scores = score_batch(params, query,
                                     np.arange(num_entities))
                oracle_rank = oracle_filtered_rank(scores, answer,
                                                   known[query])
                assert filtered_rank(params, query, answer,
                                     known[query]) == oracle_rank
                expected.append(oracle_rank)
        assert report.per_query_ranks.tolist() == expected
        assert report.mrr == np.mean([1.0 / r for r in expected])
        assert report.h10 == np.mean([r <= 10 for r in expected])
        instances += 1
    _verdict(5, "evaluation oracle", instances == 200,
             f"{instances} random instances, exact")


def test_c6_desk_scale_subsampling_direction():
    """On a sparse Zipf-skewed synthetic KG, count-based Base weighting
    matches or beats no-subsampling validation MRR in at least 2 of 3
    seeds, and the model-based and mixed pipelines run end to end."""
    started = time.monotonic()
    dataset = zipf_kg(7)  # ~50 entities, 5 relations, 500 train links
    counts = {}
    for triple in as_triples(dataset.train):
        for direction in (Direction.TAIL_QUERY, Direction.HEAD_QUERY):
            key = query_of(triple, direction)
            counts[key] = counts.get(key, 0) + 1
    values = sorted(counts.values(), reverse=True)
    assert values[0] >= 5 * values[len(values) // 2], \
        "query frequencies are not skewed"

    cbs = build_cbs_weights(dataset, SubsamplingMethod.BASE, 0.0)
    none = uniform_weights(dataset.num_examples)

    def run_transe(weights, seed):
        params = init_params(ModelKind.TRANSE, dataset.num_entities,
                             dataset.num_relations, 24, 6.0, seed=seed)
        config = RunConfig(nu=4, batch_size=64, steps=600,
                           learning_rate=0.05, seed=seed)
        result = train(dataset, weights, params, config)
        return evaluate(result.params, dataset, "valid").mrr

    wins = 0
    pairs = []
    for seed in (1, 2, 3):
        baseline = run_transe(none, seed)
        weighted = run_transe(cbs, seed)
        pairs.append((baseline, weighted))
        wins += weighted >= baseline

    # model-based and mixed pipelines, end to end
    sub_config = RunConfig(model="complex", nu=4, batch_size=64, steps=600,
                           learning_rate=0.05, seed=1, dim=24, gamma=6.0)
    sub_params = train(dataset, none, sub_config.initial_params(
        dataset.num_entities, dataset.num_relations), sub_config).params
    sid = sub_config.model_id()
    scores = score_training_triples(sub_params, dataset, sid)
    mbs = mbs_weights(log_model_frequencies(dataset, scores),
                      SubsamplingMethod.BASE, alpha=0.5, submodel_id=sid)
    mix = mix_weights(cbs, mbs, lam=0.5)

    finite = True
    end_to_end = {}
    for name, table in (("mbs", mbs), ("mix", mix)):
        params = init_params(ModelKind.TRANSE, dataset.num_entities,
                             dataset.num_relations, 24, 6.0, seed=1)
        config = RunConfig(nu=4, batch_size=64, steps=600,
                           learning_rate=0.05, seed=1)
        result = train(dataset, table, params, config)
        report = evaluate(result.params, dataset, "valid")
        end_to_end[name] = report.mrr
        finite &= all(math.isfinite(report.metric(m))
                      for m in ("mrr", "h1", "h3", "h10"))

    elapsed = time.monotonic() - started
    detail = (f"cbs>=none in {wins}/3 seeds "
              f"{[f'{b:.3f}->{w:.3f}' for b, w in pairs]}, "
              f"mbs mrr {end_to_end['mbs']:.3f}, "
              f"mix mrr {end_to_end['mix']:.3f}, {elapsed:.0f}s")
    _verdict(6, "desk-scale direction check",
             wins >= 2 and finite and elapsed < 600.0, detail)


TABLE2 = {
    "FB15k-237": (272_115, 17_535, 20_466, 14_541, 237),
    "WN18RR": (86_835, 3_034, 3_134, 40_943, 11),
    "YAGO3-10": (1_079_040, 5_000, 5_000, 123_188, 37),
}


def test_c7_benchmark_loader_statistics():
    """The loader reproduces the published split statistics of the real
    benchmark datasets (optional: needs the files on disk)."""
    root = os.environ.get("KGESUB_DATA_ROOT", "")
    available = [name for name in TABLE2
                 if root and (Path(root) / name / "train.txt").exists()]
    if not available:
        print("[criterion 7] benchmark loader statistics: SKIP  "
              "(set KGESUB_DATA_ROOT to the benchmark directory)")
        pytest.skip("benchmark datasets not available")
    for name in available:
        n_train, n_valid, n_test, n_ent, n_rel = TABLE2[name]
        directory = Path(root) / name
        train, vocab = load_triples(directory / "train.txt")
        valid, vocab = load_triples(directory / "valid.txt", vocab)
        test, vocab = load_triples(directory / "test.txt", vocab)
        ok = (len(train) == n_train and len(valid) == n_valid
              and len(test) == n_test and vocab.num_entities == n_ent
              and vocab.num_relations == n_rel)
        _verdict(7, f"benchmark loader statistics ({name})", ok,
                 f"{len(train)}/{len(valid)}/{len(test)} triples, "
                 f"{vocab.num_entities} entities, "
                 f"{vocab.num_relations} relations")


def test_c8_training_determinism_and_resume(tmp_path):
    """Same config and seed give bitwise-identical checkpoints, and a
    run resumed from a checkpoint equals the uninterrupted run."""
    dataset = zipf_kg(9, num_entities=25, num_relations=3, num_links=200,
                      num_valid=20, num_test=20)
    weights = uniform_weights(dataset.num_examples)
    params = init_params(ModelKind.ROTATE, dataset.num_entities,
                         dataset.num_relations, 8, 3.0, seed=4)
    full = RunConfig(steps=30, batch_size=32, nu=3, seed=11)

    one = train(dataset, weights, params, full)
    two = train(dataset, weights, params, full)
    path_a, path_b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(one.state, path_a)
    save_checkpoint(two.state, path_b)
    identical = path_a.read_bytes() == path_b.read_bytes()

    partial = train(dataset, weights, params,
                    RunConfig(steps=13, batch_size=32, nu=3, seed=11))
    ckpt = tmp_path / "partial.bin"
    save_checkpoint(partial.state, ckpt)
    resumed = continue_train(dataset, weights, load_checkpoint(ckpt), full)
    resume_exact = (
        np.array_equal(resumed.params.entity_emb, one.params.entity_emb)
        and np.array_equal(resumed.params.relation_emb,
                           one.params.relation_emb))
    _verdict(8, "determinism and resume", identical and resume_exact,
             f"checkpoints identical: {identical}, "
             f"resume exact: {resume_exact}")


def test_c9_degenerate_submodel_identity():
    """A constant-score sub-model turns model-based weighting into a
    no-op and mixed weighting into (1 - lam) * count-based + lam."""
    rng = np.random.default_rng(909)
    worst_mbs = 0.0
    worst_mix = 0.0

    # repeated-query KG: Base weighting must become exactly uniform
    dataset = random_kg(rng, num_entities=8, num_relations=2, num_train=40)
    sub = init_params(ModelKind.COMPLEX, 8, 2, 6, 1.0, seed=5)
    sub.entity_emb[:] = 0.0  # every training score is exactly 0
    scores = score_training_triples(sub, dataset, "flat")
    log_f = log_model_frequencies(dataset, scores)
    for alpha in (0.05, 0.5, 2.0):
        mbs = mbs_weights(log_f, SubsamplingMethod.BASE, alpha)
        worst_mbs = max(worst_mbs, float(np.abs(mbs.a - 1.0).max()),
                        float(np.abs(mbs.b - 1.0).max()))
        cbs = build_cbs_weights(dataset, SubsamplingMethod.BASE, 0.0)
        for lam in (0.1, 0.5, 0.9):
            mixed = mix_weights(cbs, mbs, lam)
            expected = (1.0 - lam) * cbs.a + lam * 1.0
            worst_mix = max(worst_mix,
                            float(np.abs(mixed.a - expected).max()))

    # all-distinct-query KG: the identity holds for every method
    cycle = Dataset(train=[Triple(i, 0, (i + 1) % 9) for i in range(9)],
                    valid=[], test=[], vocab=make_vocab(9, 1))
    flat = SubModelScores(np.full(cycle.num_examples, 2.5), "flat")
    log_f = log_model_frequencies(cycle, flat)
    for method in (SubsamplingMethod.BASE, SubsamplingMethod.FREQ,
                   SubsamplingMethod.UNIQ):
        mbs = mbs_weights(log_f, method, alpha=1.0)
        worst_mbs = max(worst_mbs, float(np.abs(mbs.a - 1.0).max()),
                        float(np.abs(mbs.b - 1.0).max()))
        cbs = build_cbs_weights(cycle, method, 0.0)
        mixed = mix_weights(cbs, mbs, 0.7)
        expected = 0.3 * cbs.b + 0.7 * 1.0
        worst_mix = max(worst_mix, float(np.abs(mixed.b - expected).max()))

    ok = worst_mbs <= 1e-12 and worst_mix <= 1e-12
    _verdict(9, "degenerate sub-model identity", ok,
             f"mbs deviation {worst_mbs:.2e}, mix deviation {worst_mix:.2e}")
