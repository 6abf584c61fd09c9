"""Sub-models trained as `train` trains them, their scoring, and
two-stage grid selection."""

import math

import numpy as np
import pytest

from kgesub.config import RunConfig
from kgesub.data import Dataset
from kgesub.errors import ConfigError, DataError, VocabMismatchError
from kgesub.models import ModelKind, init_params
from kgesub.submodel import (ledger_rows, read_ledger,
                             score_training_triples, select_submodel)
from kgesub.subsampling import (SubsamplingMethod, build_cbs_weights,
                                load_scores, log_model_frequencies,
                                mix_weights, save_scores, uniform_weights)
from kgesub.training import train

from conftest import mbs_weights



def trained_submodel(dataset, **settings):
    """A sub-model as `train` makes one: the params trained under the
    weights of `settings` (none, or cbs), and their id."""
    config = RunConfig(**settings)
    weights = (uniform_weights(dataset.num_examples)
               if config.subsampling == "none" else build_cbs_weights(
                   dataset, SubsamplingMethod(config.method),
                   config.smoothing))
    params = config.initial_params(dataset.num_entities,
                                   dataset.num_relations)
    return train(dataset, weights, params, config).params, config.model_id()


class TestPretrain:
    def test_zero_steps_yields_usable_scores(self, toy_dataset):
        params, sid = trained_submodel(
            toy_dataset, model="distmult", dim=4, gamma=1.0, steps=0, seed=3)
        scores = score_training_triples(params, toy_dataset, sid)
        assert scores.raw_score.shape == (6,)
        assert np.all(np.isfinite(scores.raw_score))
        assert sid == "distmult-none-seed3"

    def test_same_seed_identical_downstream_weights(self, toy_dataset):
        def build():
            params, sid = trained_submodel(
                toy_dataset, model="complex", dim=4, gamma=1.0, steps=8,
                batch_size=4, nu=2, seed=5)
            scores = score_training_triples(params, toy_dataset, sid)
            return mbs_weights(log_model_frequencies(toy_dataset, scores),
                               SubsamplingMethod.FREQ, 0.5)
        one, two = build(), build()
        assert np.array_equal(one.a, two.a)
        assert np.array_equal(one.b, two.b)

    def test_cbs_base_candidate_supported(self, toy_dataset):
        params, sid = trained_submodel(
            toy_dataset, model="transe", subsampling="cbs", method="base",
            dim=4, gamma=1.0, steps=4, batch_size=4, nu=2, seed=1,
            smoothing=0.0)
        assert sid == "transe-cbs-base-seed1"
        assert params.kind is ModelKind.TRANSE

    @pytest.mark.parametrize("settings, sid", [
        ({"model": "distmult", "seed": 1}, "distmult-none-seed1"),
        ({"model": "distmult", "method": "freq", "seed": 1},
         "distmult-none-seed1"),
        ({"model": "complex", "subsampling": "cbs", "method": "base",
          "seed": 1}, "complex-cbs-base-seed1"),
        ({"model": "hake", "subsampling": "mix", "method": "uniq",
          "submodel_scores": "s.tsv"}, "hake-mix-uniq-seed0"),
    ])
    def test_id_rule(self, settings, sid):
        """`<kind>-<source>[-<method>]-seed<seed>`, no method under
        none: the ids that `pretrain-submodel` has always written."""
        assert RunConfig(**settings).model_id() == sid

    def test_unknown_subsampling_rejected(self):
        with pytest.raises(ConfigError, match="submodel_subsampling"):
            RunConfig(model="transe", submodel_subsampling="uniq", dim=4,
                      gamma=1.0, steps=0)


class TestScoreTrainingTriples:
    def test_both_directions_share_triple_score(self, toy_dataset):
        params = init_params(ModelKind.DISTMULT, 3, 1, 4, 1.0, seed=2)
        scores = score_training_triples(params, toy_dataset, "x")
        assert np.array_equal(scores.raw_score[0::2], scores.raw_score[1::2])

    def test_hand_set_distmult_values(self, toy_dataset):
        params = init_params(ModelKind.DISTMULT, 3, 1, 2, 1.0, seed=3)
        params.entity_emb[:] = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        params.relation_emb[:] = [[1.0, 0.5]]
        scores = score_training_triples(params, toy_dataset, "x")
        # (e0, r0, e1): 1*1*3 + 2*0.5*4 = 7; (e0, r0, e2): 5 + 6 = 11
        # (e1, r0, e2): 15 + 12 = 27
        np.testing.assert_allclose(scores.raw_score,
                                   [7, 7, 11, 11, 27, 27], atol=1e-12)

    def test_permuting_train_permutes_scores(self, toy_dataset):
        params = init_params(ModelKind.ROTATE, 3, 1, 4, 1.0, seed=4)
        base = score_training_triples(params, toy_dataset, "x")
        flipped = Dataset(train=toy_dataset.train[::-1],
                          valid=toy_dataset.valid, test=toy_dataset.test,
                          vocab=toy_dataset.vocab)
        permuted = score_training_triples(params, flipped, "x")
        np.testing.assert_array_equal(permuted.raw_score[0::2],
                                      base.raw_score[0::2][::-1])

    def test_vocab_mismatch_rejected(self, toy_dataset):
        params = init_params(ModelKind.DISTMULT, 7, 1, 4, 1.0, seed=5)
        with pytest.raises(VocabMismatchError):
            score_training_triples(params, toy_dataset, "x")


class TestDegenerateSubmodel:
    def test_constant_scores_make_mbs_a_no_op(self, toy_dataset):
        """Uniform softmax -> unit link frequencies -> all-ones weights."""
        params = init_params(ModelKind.DISTMULT, 3, 1, 4, 1.0, seed=6)
        params.entity_emb[:] = 0.0  # every score is exactly 0
        scores = score_training_triples(params, toy_dataset, "flat")
        mbs = mbs_weights(log_model_frequencies(toy_dataset, scores),
                          SubsamplingMethod.BASE, 0.5)
        np.testing.assert_allclose(mbs.a, 1.0, atol=1e-12)
        np.testing.assert_allclose(mbs.b, 1.0, atol=1e-12)

    def test_mix_with_flat_submodel_shrinks_cbs_toward_one(self, toy_dataset):
        params = init_params(ModelKind.DISTMULT, 3, 1, 4, 1.0, seed=7)
        params.entity_emb[:] = 0.0
        scores = score_training_triples(params, toy_dataset, "flat")
        mbs = mbs_weights(log_model_frequencies(toy_dataset, scores),
                          SubsamplingMethod.BASE, 0.5)
        cbs = build_cbs_weights(toy_dataset, SubsamplingMethod.BASE, 0.0)
        for lam in (0.1, 0.5, 0.9):
            mixed = mix_weights(cbs, mbs, lam)
            np.testing.assert_allclose(
                mixed.a, (1 - lam) * cbs.a + lam * 1.0, atol=1e-12)

    def test_frozen_scores_round_trip_reproduce_weights(self, tmp_path,
                                                        toy_dataset):
        """Weights from persisted scores equal weights from live scores."""
        params, sid = trained_submodel(
            toy_dataset, model="complex", dim=4, gamma=1.0, steps=5,
            batch_size=4, nu=2, seed=8)
        live = score_training_triples(params, toy_dataset, sid)
        path = tmp_path / "scores.tsv"
        save_scores(live, path)
        persisted = load_scores(path)

        def weights_from(scores):
            return mbs_weights(log_model_frequencies(toy_dataset, scores),
                               SubsamplingMethod.UNIQ, 1.0)

        a = weights_from(live)
        b = weights_from(persisted)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.b, b.b)


def write_ledger(path, done, key="k") -> None:
    """The ledger of `done` under `key`, as the CLI's row writer
    writes it."""
    path.write_text("".join("\t".join(map(str, row)) + "\n"
                            for row in ledger_rows(key, done)),
                    encoding="utf-8")


class TestSelectSubmodel:
    def test_single_point_returned(self):
        selection = select_submodel(
            ["only"], [0.5], [0.3],
            evaluate_point=lambda s, a, l: 0.42)
        assert selection.submodel_id == "only"
        assert selection.alpha == 0.5
        assert selection.lam == 0.3

    def test_forced_first_stage_launches_one_run(self):
        """A 1 x 1 x 1 grid is a forced choice: only the ratio stage
        trains, so exactly one evaluation happens."""
        calls = []
        def point(sid, alpha, lam):
            calls.append((alpha, lam))
            return 0.5
        selection = select_submodel(["m"], [0.5], [0.7], point)
        assert calls == [(0.5, 0.7)]
        assert selection.mbs_mrr is None
        assert selection.mix_mrr == 0.5

    def test_grid_sizes_match_two_stage_protocol(self):
        """6 temperatures then 5 ratios: 11 evaluations for 1 candidate."""
        calls = []
        def point(sid, alpha, lam):
            calls.append((sid, alpha, lam))
            return 0.5
        alpha_grid = [2.0, 1.0, 0.5, 0.1, 0.05, 0.01]
        lambda_grid = [0.1, 0.3, 0.5, 0.7, 0.9]
        select_submodel(["m"], alpha_grid, lambda_grid, point)
        assert len(calls) == 11
        assert len([c for c in calls if c[2] is None]) == 6

    def test_dominant_candidate_selected(self):
        def point(sid, alpha, lam):
            return 0.9 if sid == "strong" else 0.1
        selection = select_submodel(
            ["weak", "strong"],
            [1.0, 0.5], [0.1, 0.9], point)
        assert selection.submodel_id == "strong"

    def test_stage_two_inherits_stage_one_alpha(self):
        stage_two = []
        def point(sid, alpha, lam):
            if lam is not None:
                stage_two.append(alpha)
                return 0.5
            return {2.0: 0.1, 0.5: 0.7}[alpha]
        select_submodel(["m"], [2.0, 0.5], [0.1, 0.9], point)
        assert set(stage_two) == {0.5}

    def test_ties_prefer_smaller_alpha_then_candidate_order(self):
        selection = select_submodel(
            ["first", "second"],
            [2.0, 0.5, 1.0], [0.9, 0.1],
            evaluate_point=lambda s, a, l: 0.5)
        assert selection.submodel_id == "first"
        assert selection.alpha == 0.5
        assert selection.lam == 0.1

    def test_ledger_resume_skips_completed_points(self, tmp_path):
        """After each point run, the records so far are handed on; a
        search given those of a ledger written from them runs no point
        again."""
        ledger = tmp_path / "ledger.tsv"
        calls, recorded = [], []
        def point(sid, alpha, lam):
            calls.append((alpha, lam))
            return alpha / 2  # higher temperature wins; an MRR in [0, 1]
        first = select_submodel(["m"], [1.0, 2.0], [0.5], point,
                                on_record=lambda r: recorded.append(dict(r)))
        points = [("m", 1.0, None), ("m", 2.0, None), ("m", 2.0, 0.5)]
        assert calls == [(alpha, lam) for _, alpha, lam in points]
        assert [list(records) for records in recorded] == [
            points[:1], points[:2], points]
        assert list(recorded[-1].values()) == [0.5, 1.0, 1.0]
        write_ledger(ledger, recorded[-1])
        calls.clear()
        second = select_submodel(["m"], [1.0, 2.0], [0.5], point,
                                 read_ledger(ledger, "k"))
        assert calls == []  # fully cached
        assert second == first

    @pytest.mark.parametrize("cut", [1, 7, -2])
    def test_torn_last_record_is_run_again(self, tmp_path, cut):
        """A last record cut short by a crash is not read, even one that
        still parses (an MRR missing its last digits): its point runs
        again, and the records then give the whole ledger's rows."""
        ledger = tmp_path / "ledger.tsv"
        def point(sid, alpha, lam):
            return 0.375 if lam is None else 0.25
        whole = {}
        select_submodel(["m"], [1.0, 2.0], [0.5], point,
                        on_record=whole.update)
        write_ledger(ledger, whole)
        text = ledger.read_bytes()
        last = text.rstrip(b"\n").rfind(b"\n") + 1
        ledger.write_bytes(text[:last + cut] if cut > 0 else text[:cut])
        done = read_ledger(ledger, "k")
        assert len(done) == 2
        calls = []
        def counted(sid, alpha, lam):
            calls.append((alpha, lam))
            return point(sid, alpha, lam)
        select_submodel(["m"], [1.0, 2.0], [0.5], counted, done,
                        done.update)
        assert calls == [(1.0, 0.5)]  # only the torn stage-two point
        assert ledger_rows("k", done) == ledger_rows("k", whole)

    def test_ledger_round_trip(self, tmp_path):
        """Records come back in the order written, each field as its
        `str`, "-" for the model-based stage's lambda."""
        ledger = tmp_path / "ledger.tsv"
        done = {("m", 0.5, None): 0.25, ("#1 two", 0.1, 0.7): 1 / 3}
        write_ledger(ledger, done)
        assert ledger.read_text("utf-8") == (
            "# sweep k\nm\t0.5\t-\t0.25\n"
            "#1 two\t0.1\t0.7\t0.3333333333333333\n")
        loaded = read_ledger(ledger, "k")
        assert list(loaded.items()) == list(done.items())

    @pytest.mark.parametrize("blob", [b"", b"# sweep k", b"# sweep other"])
    def test_empty_ledger_reads_as_no_records(self, tmp_path, blob):
        """No file, an empty one, or a key line that a crash cut short
        (whichever key it names): nothing has run."""
        ledger = tmp_path / "ledger.tsv"
        assert read_ledger(ledger, "k") == {}
        ledger.write_bytes(blob)
        assert read_ledger(ledger, "k") == {}

    @pytest.mark.parametrize("first", ["# sweep other", "# sweep k ", "",
                                       "m\t0.5\t-\t0.25"])
    def test_other_or_missing_key_is_a_config_error(self, tmp_path, first):
        ledger = tmp_path / "ledger.tsv"
        ledger.write_text(f"{first}\nm\t0.1\t-\t0.5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="ledger of another sweep"):
            read_ledger(ledger, "k")

    @pytest.mark.parametrize("line", [
        "m\t0.5\t-\n",  # three fields
        "m\t0.5\t-\t0.25\textra\n",
        "m\thalf\t-\t0.25\n",
        "m\t0.5\tx\t0.25\n",
        "m\t0.5\t0.7\t\n",  # no MRR
        # numbers that no grid point or MRR can be
        "m\t0.5\t-\tnan\n", "m\t0.5\t-\tinf\n", "m\t0.5\t-\t1.5\n",
        "m\t0.5\t-\t-0.25\n", "m\tnan\t-\t0.25\n", "m\tinf\t-\t0.25\n",
        "m\t0\t-\t0.25\n", "m\t-0.5\t-\t0.25\n", "m\t0.5\t1.5\t0.25\n",
        "m\t0.5\t-0.1\t0.25\n", "m\t0.5\tnan\t0.25\n",
    ])
    def test_malformed_ledger_line_is_a_data_error(self, tmp_path, line):
        """A bad record is a data error even in a ledger of another key:
        the records are checked before the key."""
        ledger = tmp_path / "ledger.tsv"
        write_ledger(ledger, {("m", 0.5, None): 0.25}, key="other")
        with open(ledger, "a", encoding="utf-8") as fh:
            fh.write(line)
        with pytest.raises(DataError, match="ledger.tsv:3:"):
            read_ledger(ledger, "k")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            select_submodel([], [0.5], [0.5], lambda s, a, l: 0.0)


class TestAllCandidatesQueryMass:
    def test_constant_submodel_gives_entity_count(self, toy_dataset):
        """Flat scores spread 1/|D| mass on every candidate, so each
        query accumulates E / |D| and the frequency becomes E."""
        sub = init_params(ModelKind.DISTMULT, 3, 1, 4, 1.0, seed=6)
        sub.entity_emb[:] = 0.0
        log_f_xy, log_f_x = log_model_frequencies(
            toy_dataset, score_training_triples(sub, toy_dataset, "_"), sub)
        np.testing.assert_allclose(np.exp(log_f_xy), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.exp(log_f_x), 3.0, atol=1e-12)

    def test_matches_brute_force_probability_sums(self, toy_dataset):
        """Within the bound that `log_candidate_mass` states, against
        float64 sums of the scalar scores."""
        from kgesub.data import Direction
        from conftest import (Triple, as_triples, candidate_mass_bound,
                              query_of, score)
        sub = init_params(ModelKind.COMPLEX, 3, 1, 4, 1.0, seed=7)
        _, log_f_x = log_model_frequencies(
            toy_dataset, score_training_triples(sub, toy_dataset, "_"), sub)
        train_scores = []
        for triple in as_triples(toy_dataset.train):
            train_scores.extend([score(sub, triple)] * 2)
        z = np.exp(np.array(train_scores)).sum()
        n = toy_dataset.num_examples
        for i, triple in enumerate(as_triples(toy_dataset.train)):
            for direction in (Direction.TAIL_QUERY, Direction.HEAD_QUERY):
                query = query_of(triple, direction)
                mass = 0.0
                for candidate in range(3):
                    if direction == Direction.TAIL_QUERY:
                        probe = Triple(query.entity, query.relation,
                                       candidate)
                    else:
                        probe = Triple(candidate, query.relation,
                                       query.entity)
                    mass += np.exp(score(sub, probe)) / z
                bound = candidate_mass_bound(
                    sub, [direction], [query.entity], [query.relation])[0]
                got = log_f_x[2 * i + int(direction)]
                assert abs(got - math.log(n * mass)) <= bound + 1e-12

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_matches_per_query_loop(self, kind, monkeypatch):
        """Chunked unique-query scoring gives the per-example masses of
        scoring every example's query on its own, in linear space, within
        the bound that `log_candidate_mass` states."""
        from kgesub import models
        from kgesub.data import Direction
        from conftest import (as_triples, candidate_mass_bound, query_of,
                              score_batch, zipf_kg)
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", 8 * 50 * 7)
        dataset = zipf_kg(3)  # Zipf heads: most queries repeat
        sub = init_params(kind, dataset.num_entities, dataset.num_relations,
                          8, 2.0, seed=9)
        train_scores = score_training_triples(sub, dataset, "_")
        log_f_xy, log_f_x = log_model_frequencies(dataset, train_scores, sub)
        raw = train_scores.raw_score
        shift = raw.max()
        z = np.exp(raw - shift).sum()
        n = dataset.num_examples
        candidates = np.arange(dataset.num_entities)
        expected = np.empty(n)
        queries = np.empty((n, 3), np.int64)
        for i, triple in enumerate(as_triples(dataset.train)):
            for direction in (Direction.TAIL_QUERY, Direction.HEAD_QUERY):
                query = query_of(triple, direction)
                scores = score_batch(sub, query, candidates)
                mass = np.exp(scores - shift).sum() / z
                expected[2 * i + int(direction)] = n * mass
                queries[2 * i + int(direction)] = (
                    direction, query.entity, query.relation)
        assert len(set(expected.tolist())) < n / 2
        bound = candidate_mass_bound(sub, *queries.T)
        assert (np.abs(log_f_x - np.log(expected)) <= bound + 1e-12).all()
        # the link frequencies are those of the observed-mass path
        np.testing.assert_array_equal(
            log_f_xy, log_model_frequencies(dataset, train_scores)[0])

    def test_vocab_mismatch_rejected(self, toy_dataset):
        sub = init_params(ModelKind.DISTMULT, 9, 1, 4, 1.0, seed=8)
        with pytest.raises(VocabMismatchError):
            log_model_frequencies(
                toy_dataset, score_training_triples(sub, toy_dataset, "_"),
                sub)
