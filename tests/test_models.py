"""Score functions, analytic gradients, and parameter checkpoints."""

import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import json
import struct
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from kgesub import models
from kgesub.data import Direction
from kgesub.errors import CheckpointError
from kgesub.models import (INIT_EPSILON, ModelKind, init_params,
                           load_params, load_tagged_params, relation_dim,
                           save_params, score_triples)

from conftest import (QueryKey, Triple, as_triples, candidate_chunks,
                      fd_score_row_gradients, looped_zipf_kg,
                      max_relative_error, oracle_distance_scores,
                      oracle_scores, score, score_and_grad, score_batch,
                      score_gradient, screened_scores)

ALL_KINDS = list(ModelKind)


def kind_id(kind):
    return kind.value


def _triple_score(params, triple):
    """One triple through the library's forward formulas."""
    return float(score_triples(params, [triple.head], [triple.relation],
                               [triple.tail])[0])


def _triple_slots(params, triples):
    """score_and_grad of triples as a (n, 1) block: scores and the head,
    relation and tail gradients, one row per triple."""
    ids = np.array(triples, dtype=np.int64).reshape(-1, 3)
    ent, rel = params.entity_emb, params.relation_emb
    out = score_and_grad(params, ent[ids[:, 0]][:, None],
                         rel[ids[:, 1]][:, None], ent[ids[:, 2]][:, None])
    return [x[:, 0] for x in out]


def _query_block(params, direction, entity, relation, candidates):
    """score_and_grad of one query's candidates as a (1, K) block."""
    ent = params.entity_emb
    cand = ent[np.asarray(candidates)][None]
    fixed = np.broadcast_to(ent[entity], cand.shape)
    rel = params.relation_emb[relation][None, None]
    if direction == Direction.TAIL_QUERY:
        return score_and_grad(params, fixed, rel, cand)
    return score_and_grad(params, cand, rel, fixed)


def _accumulated_row_gradients(params, triple):
    _, g_h, g_r, g_t = (x[0] for x in _triple_slots(params, [triple]))
    grads = {}
    for key, value in ((("entity", triple.head), g_h),
                       (("relation", triple.relation), g_r),
                       (("entity", triple.tail), g_t)):
        if key in grads:
            grads[key] = grads[key] + value
        else:
            grads[key] = value
    return grads


class TestInitParams:
    def test_deterministic(self):
        a = init_params(ModelKind.ROTATE, 5, 2, 8, 3.0, seed=9)
        b = init_params(ModelKind.ROTATE, 5, 2, 8, 3.0, seed=9)
        assert np.array_equal(a.entity_emb, b.entity_emb)
        assert np.array_equal(a.relation_emb, b.relation_emb)

    def test_seeds_differ(self):
        a = init_params(ModelKind.TRANSE, 5, 2, 8, 3.0, seed=1)
        b = init_params(ModelKind.TRANSE, 5, 2, 8, 3.0, seed=2)
        assert not np.array_equal(a.entity_emb, b.entity_emb)

    def test_shapes(self):
        params = init_params(ModelKind.TRANSE, 3, 2, 4, 1.0, seed=0)
        assert params.entity_emb.shape == (3, 4)
        assert params.relation_emb.shape == (2, 4)

    def test_relation_dims_per_kind(self):
        assert relation_dim(ModelKind.ROTATE, 8) == 4
        assert relation_dim(ModelKind.HAKE, 8) == 8
        assert relation_dim(ModelKind.COMPLEX, 8) == 8

    def test_hake_rows_keep_the_draw_of_the_bias_layout(self):
        """A HAKE relation row is [modulus | phase].  The draw keeps the
        (R, 3 * dim / 2) width of the layout that carried an unused bias
        third, so that a seed gives the same values bitwise."""
        num_entities, num_relations, dim, gamma = 7, 5, 8, 3.0
        half, bound = dim // 2, (gamma + INIT_EPSILON) / dim
        rng = np.random.default_rng(4)
        entity = rng.uniform(-bound, bound, size=(num_entities, dim))
        entity[:, half:] = rng.uniform(-math.pi, math.pi,
                                       size=(num_entities, half))
        relation = rng.uniform(-bound, bound, size=(num_relations, 3 * half))
        relation[:, half:2 * half] = rng.uniform(-math.pi, math.pi,
                                                 size=(num_relations, half))
        params = init_params(ModelKind.HAKE, num_entities, num_relations,
                             dim, gamma, seed=4)
        np.testing.assert_array_equal(params.entity_emb, entity)
        np.testing.assert_array_equal(params.relation_emb, relation[:, :dim])
        assert params.relation_emb.flags.c_contiguous

    def test_odd_dim_rejected_for_complex_kinds(self):
        with pytest.raises(ValueError):
            init_params(ModelKind.ROTATE, 3, 2, 5, 1.0, seed=0)

    def test_phases_within_pi(self):
        params = init_params(ModelKind.ROTATE, 20, 10, 8, 3.0, seed=4)
        assert np.all(np.abs(params.relation_emb) <= math.pi)
        hake = init_params(ModelKind.HAKE, 20, 10, 8, 3.0, seed=4)
        assert np.all(np.abs(hake.entity_emb[:, 4:]) <= math.pi)

    def test_all_entries_finite(self):
        for kind in ALL_KINDS:
            params = init_params(kind, 7, 3, 8, 5.0, seed=2)
            assert np.all(np.isfinite(params.entity_emb))
            assert np.all(np.isfinite(params.relation_emb))


class TestScoreValues:
    def test_transe_exact_translation_scores_zero(self):
        params = init_params(ModelKind.TRANSE, 3, 1, 4, 1.0, seed=0)
        params.entity_emb[2] = params.entity_emb[0] + params.relation_emb[0]
        assert _triple_score(params, Triple(0, 0, 2)) == pytest.approx(0.0, abs=1e-15)

    def test_distmult_is_symmetric(self):
        params = init_params(ModelKind.DISTMULT, 5, 2, 6, 1.0, seed=3)
        assert _triple_score(params, Triple(1, 0, 4)) == pytest.approx(
            _triple_score(params, Triple(4, 0, 1)), abs=1e-12)

    def test_rotate_identity_rotation(self):
        params = init_params(ModelKind.ROTATE, 4, 1, 8, 2.0, seed=5)
        params.relation_emb[0] = 0.0
        params.entity_emb[3] = params.entity_emb[1]
        assert _triple_score(params, Triple(1, 0, 3)) == pytest.approx(0.0, abs=1e-15)

    def test_rotate_preserves_modulus(self):
        """A phase rotation never changes the complex modulus of h."""
        params = init_params(ModelKind.ROTATE, 6, 3, 12, 2.0, seed=6)
        for e in range(6):
            for r in range(3):
                h = params.entity_emb[e]
                h_re, h_im = h[0::2], h[1::2]
                phase = params.relation_emb[r]
                rot_re = h_re * np.cos(phase) - h_im * np.sin(phase)
                rot_im = h_re * np.sin(phase) + h_im * np.cos(phase)
                before = np.sqrt(h_re ** 2 + h_im ** 2)
                after = np.sqrt(rot_re ** 2 + rot_im ** 2)
                np.testing.assert_allclose(after, before, atol=1e-10)

    def test_complex_conjugated_relation_swaps_arguments(self):
        """score(h, conj(r), t) equals score(t, r, h)."""
        params = init_params(ModelKind.COMPLEX, 5, 2, 8, 1.0, seed=7)
        conjugated = params.copy()
        conjugated.relation_emb[:, 1::2] *= -1.0
        for h, r, t in ((0, 0, 3), (2, 1, 2), (4, 0, 1)):
            assert _triple_score(conjugated, Triple(h, r, t)) == pytest.approx(
                _triple_score(params, Triple(t, r, h)), abs=1e-12)

    def test_hake_score_finite_and_negative_semidefinite(self):
        params = init_params(ModelKind.HAKE, 6, 2, 8, 3.0, seed=8)
        for triple in (Triple(0, 0, 1), Triple(5, 1, 5)):
            value = _triple_score(params, triple)
            assert math.isfinite(value)
            assert value <= 0.0


class TestScoreBatch:
    """`score_and_grad` and `score_triples` against the scalar oracles."""

    def test_singleton(self):
        params = init_params(ModelKind.COMPLEX, 5, 2, 8, 1.0, seed=1)
        scores = _query_block(params, Direction.TAIL_QUERY, 2, 1, [4])[0]
        assert scores.shape == (1, 1)
        assert scores[0, 0] == pytest.approx(score(params, Triple(2, 1, 4)),
                                             abs=1e-15)

    def test_permutation_equivariant(self):
        params = init_params(ModelKind.HAKE, 8, 2, 8, 2.0, seed=2)
        candidates = np.arange(8)
        perm = np.random.default_rng(0).permutation(8)
        base = _query_block(params, Direction.HEAD_QUERY, 3, 0, candidates)
        shuffled = _query_block(params, Direction.HEAD_QUERY, 3, 0,
                                candidates[perm])
        for got, want in zip(shuffled, base):
            np.testing.assert_array_equal(got, want[:, perm])

    def test_matches_scalar_loop(self):
        """Blocks of mixed-direction queries score like the scalar
        path to 1e-12."""
        rng = np.random.default_rng(3)
        for kind in ALL_KINDS:
            params = init_params(kind, 50, 4, 8, 2.0, seed=11)
            for direction in (Direction.TAIL_QUERY, Direction.HEAD_QUERY):
                query = QueryKey(direction, int(rng.integers(50)),
                                 int(rng.integers(4)))
                candidates = rng.integers(0, 50, size=50)
                block = _query_block(params, *query, candidates)[0][0]
                np.testing.assert_allclose(
                    block, score_batch(params, query, candidates),
                    rtol=0, atol=1e-12)
                for value, candidate in zip(block, candidates):
                    triple = (Triple(query.entity, query.relation,
                                     int(candidate))
                              if direction == Direction.TAIL_QUERY
                              else Triple(int(candidate), query.relation,
                                          query.entity))
                    assert abs(value - score(params, triple)) <= 1e-12

    def test_score_triples_matches_scalar(self):
        rng = np.random.default_rng(4)
        for kind in ALL_KINDS:
            params = init_params(kind, 12, 3, 8, 2.0, seed=13)
            heads = rng.integers(0, 12, size=20)
            rels = rng.integers(0, 3, size=20)
            tails = rng.integers(0, 12, size=20)
            batch = score_triples(params, heads, rels, tails)
            for i in range(20):
                expected = score(params, Triple(int(heads[i]), int(rels[i]),
                                                int(tails[i])))
                assert abs(batch[i] - expected) <= 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_id)
    def test_score_triples_chunks_are_bitwise_one_chunk(self, kind,
                                                        monkeypatch):
        """Under a budget of 7 triples a chunk, 30 triples score in
        ragged chunks bitwise as in one, and no chunk gathers more."""
        params = init_params(kind, 12, 3, 8, 2.0, seed=13)
        heads, rels, tails = np.random.default_rng(5).integers(
            0, [[12], [3], [12]], size=(3, 30))
        whole = models.score_block(
            params, True, params.entity_emb[heads], params.relation_emb[rels],
            params.entity_emb[tails][:, None])[0][:, 0]
        chunks = []
        block = models.score_block

        def counted(params, tail, fixed, rel, cand):
            chunks.append(len(fixed))
            return block(params, tail, fixed, rel, cand)
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", 7 * 8 * params.dim)
        monkeypatch.setattr(models, "score_block", counted)
        got = score_triples(params, heads, rels, tails)
        assert chunks == [7, 7, 7, 7, 2]
        assert got.tobytes() == whole.tobytes()


class TestScoreGradient:
    def test_distmult_closed_form(self):
        params = init_params(ModelKind.DISTMULT, 4, 2, 6, 1.0, seed=5)
        _, g_h, g_r, g_t = (x[0] for x in _triple_slots(params,
                                                        [Triple(0, 1, 3)]))
        np.testing.assert_allclose(
            g_h, params.relation_emb[1] * params.entity_emb[3], atol=1e-15)
        np.testing.assert_allclose(
            g_r, params.entity_emb[0] * params.entity_emb[3], atol=1e-15)
        np.testing.assert_allclose(
            g_t, params.entity_emb[0] * params.relation_emb[1], atol=1e-15)

    def test_transe_stationary_point_has_zero_gradient(self):
        """At h + r = t every L1 term is at its kink, sign(0) = 0."""
        params = init_params(ModelKind.TRANSE, 3, 1, 4, 1.0, seed=6)
        params.entity_emb[2] = params.entity_emb[0] + params.relation_emb[0]
        _, g_h, g_r, g_t = _triple_slots(params, [Triple(0, 0, 2)])
        assert np.all(g_h == 0.0)
        assert np.all(g_r == 0.0)
        assert np.all(g_t == 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_finite_differences(self, kind):
        """Analytic row gradients within 1e-4 of central differences."""
        rng = np.random.default_rng(17)
        for trial in range(5):
            params = init_params(kind, 6, 3, 8, 2.0, seed=100 + trial)
            triple = Triple(int(rng.integers(6)), int(rng.integers(3)),
                            int(rng.integers(6)))
            analytic = _accumulated_row_gradients(params, triple)
            numeric = fd_score_row_gradients(params, triple)
            assert max_relative_error(analytic, numeric) <= 1e-4

    def test_self_loop_accumulates_entity_row(self):
        """head == tail: the shared row's gradient is the slot sum."""
        params = init_params(ModelKind.DISTMULT, 4, 2, 6, 1.0, seed=9)
        triple = Triple(2, 0, 2)
        analytic = _accumulated_row_gradients(params, triple)
        numeric = fd_score_row_gradients(params, triple)
        assert max_relative_error(analytic, numeric) <= 1e-8

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_id)
    def test_matches_scalar_gradient(self, kind):
        """Every slot gradient of a block of training triples, self-loops
        included, equals `score_gradient` to 1e-12 of its largest entry."""
        dataset = looped_zipf_kg(4, num_entities=20, num_links=150,
                                 num_valid=10, num_test=10)
        params = init_params(kind, 20, dataset.num_relations, 8, 2.0,
                             seed=15)
        train = as_triples(dataset.train)
        blocks = _triple_slots(params, train)
        assert any(h == t for h, _, t in train)
        for i, triple in enumerate(train):
            assert abs(blocks[0][i] - score(params, triple)) <= 1e-12
            for got, want in zip(blocks[1:], score_gradient(params, triple)):
                assert (np.abs(got[i] - want).max()
                        <= 1e-12 * np.abs(want).max())

    def test_gradient_blocks_broadcast_the_relation(self):
        """A (B, K) block equals its triples scored one by one."""
        rng = np.random.default_rng(18)
        for kind in ALL_KINDS:
            params = init_params(kind, 10, 3, 8, 2.0, seed=19)
            heads = rng.integers(0, 10, size=(4, 5))
            tails = rng.integers(0, 10, size=(4, 5))
            rels = rng.integers(0, 3, size=4)
            ent = params.entity_emb
            block = score_and_grad(params, ent[heads],
                                   params.relation_emb[rels][:, None],
                                   ent[tails])
            for b in range(4):
                singles = _triple_slots(params, [
                    Triple(int(h), int(rels[b]), int(t))
                    for h, t in zip(heads[b], tails[b])])
                for got, want in zip(block, singles):
                    np.testing.assert_array_equal(got[b], want)


class TestCandidateScores:
    """Tiled all-entity scoring against the per-query `score_batch`: the
    float32 tiles within their `Screen`'s eps(q) of its float64 pairs,
    and those pairs within rounding of `score_batch`."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_id)
    def test_matches_score_batch(self, kind, monkeypatch):
        # room for 3 queries of 40 entities: many chunks and entity blocks
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", 8 * 40 * 3)
        params = init_params(kind, 40, 3, 8, 2.0, seed=12)
        rng = np.random.default_rng(13)
        directions = rng.integers(0, 2, size=30)
        entities = rng.integers(0, 40, size=30)
        relations = rng.integers(0, 3, size=30)
        covered = []
        for rows, scores, screen in candidate_chunks(params, directions,
                                                     entities, relations):
            assert scores.shape == (len(rows), 40)
            assert len(set(directions[rows])) == 1
            picks, cands = np.divmod(np.arange(scores.size), 40)
            pairs = screen.exact(picks, cands).reshape(scores.shape)
            for i, got, exact, bound in zip(rows, scores, pairs,
                                            screen.bound):
                query = QueryKey(Direction(int(directions[i])),
                                 int(entities[i]), int(relations[i]))
                want = score_batch(params, query, np.arange(40))
                assert np.abs(exact - want).max() <= (
                    1e-12 * np.abs(want).max())
                assert (np.abs(got - exact) <= bound).all()
            covered.extend(rows)
        # one direction after the other, each in input order
        assert covered == list(np.argsort(directions, kind="stable"))

    def test_pass_size_follows_the_tile_bytes(self, monkeypatch):
        """A pass holds as many queries as fit one worker's share of the
        budget, half of it, at min(E, `_TILE`) entities, the passes of a
        direction are of equal size, and a tile holds as many entities
        as fit the share at the pass's bytes per entity: the same at 1, 2
        and 3 workers.  TransE at dim 16 keeps four buffers, 16 bytes of
        the share a (query, entity) float32 score; DistMult's matmul keeps
        one spare, 4 bytes."""
        transe = init_params(ModelKind.TRANSE, 40, 1, 16, 1.0, seed=14)
        distmult = init_params(ModelKind.DISTMULT, 10, 1, 4, 1.0, seed=14)

        def spans(params, queries):
            zeros = np.zeros(queries, dtype=np.int64)
            widths = set()
            blocked = models._blocked

            def recorded(q, e, buffers, block, add):
                def counted(cols, tile, spare):
                    widths.add((q, cols.stop - cols.start))
                    add(cols, tile, spare)
                blocked(q, e, buffers, block, counted)
            with monkeypatch.context() as patch:
                patch.setattr(models, "_blocked", recorded)
                chunks = candidate_chunks(params, zeros, zeros, zeros)
            return ([(rows[0], rows[-1] + 1) for rows, _, _ in chunks],
                    sorted(widths))

        for workers in (1, 2, 3):
            monkeypatch.setattr(models, "_WORKERS", workers)
            with monkeypatch.context() as patch:
                assert spans(transe, 37) == ([(0, 37)], [(37, 40)])
                assert spans(distmult, 9) == ([(0, 9)], [(9, 10)])
                # a share of 6 TransE queries at 40 entities
                patch.setattr(models, "RANK_BUDGET_BYTES", 2 * 16 * 40 * 6)
                assert spans(transe, 37) == (
                    [(0, 6), (6, 12), (12, 17), (17, 22), (22, 27),
                     (27, 32), (32, 37)], [(5, 40), (6, 40)])
                # 3 DistMult queries at 10 entities
                patch.setattr(models, "RANK_BUDGET_BYTES", 2 * 4 * 10 * 3)
                assert spans(distmult, 9) == ([(0, 3), (3, 6), (6, 9)],
                                              [(3, 10)])
                # tiles of `_TILE` = 4 entities: 4 queries a pass, whose
                # tiles hold 4 entities, or 5 for the passes of 3
                patch.setattr(models, "_TILE", 4)
                patch.setattr(models, "RANK_BUDGET_BYTES", 2 * 16 * 4 * 4)
                assert spans(transe, 37) == (
                    [(0, 4), (4, 8), (8, 12), (12, 16), (16, 20), (20, 24),
                     (24, 28), (28, 31), (31, 34), (34, 37)],
                    [(3, 5), (4, 4)])


class TestRankingWorkers:
    """Tiles split across worker threads give the one-worker scores bit
    for bit: no tile's shape depends on the worker count, and the
    distance tiles' scores do not depend on their width either."""

    DISTANCE_KINDS = [ModelKind.TRANSE, ModelKind.ROTATE, ModelKind.HAKE]
    KINDS = DISTANCE_KINDS + [ModelKind.DISTMULT, ModelKind.COMPLEX]
    # 12 workers are more than the 2 to 8 tiles of a pass under the
    # small budget and the one tile under the default budget
    WORKER_COUNTS = (1, 2, 3, 12)

    @staticmethod
    def _scores(params, queries):
        return np.concatenate([scores for _, scores, _ in candidate_chunks(
            params, *queries)])

    @pytest.mark.parametrize("kind", KINDS, ids=kind_id)
    def test_bitwise_equal_across_workers(self, kind, monkeypatch):
        # 37 entities (a prime) at dim 8, in tiles of about `_TILE` = 5
        # under the small budget, so the last tile is ragged whatever the
        # pass
        params = init_params(kind, 37, 3, 8, 2.0, seed=15)
        params.entity_emb[5] = params.entity_emb[6]  # tied candidates
        rng = np.random.default_rng(16)
        queries = (np.sort(rng.integers(0, 2, size=21)),
                   rng.integers(0, 37, size=21), rng.integers(0, 3, size=21))
        monkeypatch.setattr(models, "_TILE", 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            wants = []
            for budget in (models.RANK_BUDGET_BYTES, 2560):
                with monkeypatch.context() as patch:
                    patch.setattr(models, "RANK_BUDGET_BYTES", budget)
                    patch.setattr(models, "_WORKERS", 1)
                    want = self._scores(params, queries)
                    assert want.dtype == np.float32
                    wants.append(want)
                    for workers in self.WORKER_COUNTS:
                        patch.setattr(models, "_WORKERS", workers)
                        got = self._scores(params, queries)
                        assert np.array_equal(got, want), (workers, budget)
            if kind in self.DISTANCE_KINDS:
                assert np.array_equal(*wants)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_scratch_fits_budget_and_blocks_cover_entities(
            self, workers, monkeypatch):
        monkeypatch.setattr(models, "_WORKERS", workers)
        # eight (3, W) buffers: 24 floats an entity.  A worker's share,
        # half the budget, holds 14 entities, and a tile's scores lie
        # beyond it.  A block that takes no buffers gets one for the
        # reducer: 3 floats an entity, 112 entities
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", 2 * 4 * 14 * 24)
        share = models.RANK_BUDGET_BYTES // 2
        for buffers, room in ((8, 14), (0, 112)):
            scratch_bytes = {}
            blocks = {}
            added = np.zeros((3, 40), np.float32)

            def block(cols, out, free):
                width = cols.stop - cols.start
                assert [buf.shape for buf in free] == buffers * [(3, width)]
                assert out.shape == (3, width)
                for i, part in enumerate(free + [out]):
                    assert part.dtype == np.float32
                    assert part.flags.c_contiguous
                    assert not any(np.shares_memory(part, other)
                                   for other in (free + [out])[i + 1:])
                    scratch_bytes[id(part.base)] = part.base.nbytes
                blocks[cols.start] = free
                out[:] = cols.start

            def add(cols, tile, spare):
                assert not added[:, cols].any()
                # the spare is the block's first buffer, or one more
                assert spare.shape == tile.shape
                assert spare.dtype == np.float32
                assert spare.flags.c_contiguous
                assert not np.shares_memory(spare, tile)
                if buffers:
                    assert np.shares_memory(spare, blocks[cols.start][0])
                else:
                    scratch_bytes[id(spare.base)] = spare.base.nbytes
                added[:, cols] = tile + 1
            assert models._blocked(3, 40, buffers, block, add) is None
            # one flat array a worker that takes a tile, each within its
            # share and the tile's scores one buffer beyond it
            assert len(scratch_bytes) == min(workers, -(-40 // room))
            assert max(scratch_bytes.values()) <= share * (
                1 + 1 / max(buffers, 1))
            assert np.array_equal(added[0] - 1, np.arange(40) // room * room)

    @pytest.mark.parametrize("failing_block", [0, 1, 4])
    def test_block_error_reaches_caller(self, failing_block, monkeypatch):
        """Block 0 runs in the calling thread, blocks 1 and 4 on other
        threads; the error comes back and the call returns."""
        monkeypatch.setattr(models, "_WORKERS", 3)
        # a share of one float32 score: tiles of one entity
        monkeypatch.setattr(models, "RANK_BUDGET_BYTES", 2 * 4)

        def block(cols, out, free):
            if cols.start == failing_block:
                raise ZeroDivisionError(f"block {cols.start}")
            out[:] = 0.0
        raised = []

        def call():
            try:
                models._blocked(1, 10, 1, block, lambda *tile: None)
            except ZeroDivisionError as exc:
                raised.append(str(exc))
        thread = threading.Thread(target=call)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert raised == [f"block {failing_block}"]

    def test_run_returns_after_every_worker(self):
        """An error in the calling thread's share is raised only once the
        other workers are done with the shared output."""
        done = []

        def task(w):
            if w == 0:
                raise ZeroDivisionError("worker 0")
            time.sleep(0.05)
            done.append(w)
        with pytest.raises(ZeroDivisionError):
            models._run_workers(3, task)
        assert sorted(done) == [1, 2]


class TestBlasThreads:
    """Importing kgesub gives the BLAS library one thread, since its own
    worker threads are its parallelism, unless the environment names
    another count."""

    VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS")

    def _seen(self, **settings):
        env = {key: value for key, value in os.environ.items()
               if key not in self.VARIABLES}
        env["PYTHONPATH"] = str(Path(models.__file__).parents[1])
        code = ("import os, kgesub; print(*(os.environ[key] for key in "
                f"{self.VARIABLES!r}))")
        return subprocess.run([sys.executable, "-c", code],
                              env=dict(env, **settings), capture_output=True,
                              text=True, check=True).stdout.split()

    def test_one_thread_unless_set(self):
        assert self._seen() == ["1", "1", "1"]
        assert self._seen(OMP_NUM_THREADS="2") == ["1", "2", "1"]


class TestFeatureMajorRanking:
    """The float64 pairs of a pass's `Screen` give the scores of the
    (Q, W, dim) distance blocks that the feature-major ones replaced bit
    for bit."""

    # the sums run over dim terms (TransE) or dim / 2 (RotatE, HAKE):
    # 1, 2, 3 and 6 take the terms one after another, 8, 10, 16, 20, 32
    # and 64 the eight partial sums with and without a rest, 132 and 264
    # the split in halves
    DIMS = (2, 6, 16, 20, 64, 264)

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("kind", TestRankingWorkers.DISTANCE_KINDS,
                             ids=kind_id)
    def test_bitwise_equal_to_oracle(self, kind, dim, monkeypatch):
        params = init_params(kind, 37, 3, dim, 2.0, seed=dim)
        params.entity_emb[5] = params.entity_emb[6]  # tied candidates
        rng = np.random.default_rng(dim)
        directions = np.repeat([Direction.TAIL_QUERY, Direction.HEAD_QUERY],
                               [10, 11])
        entities = rng.integers(0, 37, size=21)
        relations = rng.integers(0, 3, size=21)
        ent, rel = params.entity_emb, params.relation_emb
        for workers in TestRankingWorkers.WORKER_COUNTS:
            monkeypatch.setattr(models, "_WORKERS", workers)
            for budget in (models.RANK_BUDGET_BYTES, 2560 * workers):
                with monkeypatch.context() as patch:
                    patch.setattr(models, "RANK_BUDGET_BYTES", budget)
                    chunks = candidate_chunks(params, directions, entities,
                                              relations)
                assert chunks[-1][0][-1] == 20
                for rows, _, screen in chunks:
                    want = oracle_distance_scores(
                        params, directions[rows[0]] == Direction.TAIL_QUERY,
                        ent[entities[rows]], rel[relations[rows]])
                    picks, cands = np.divmod(np.arange(want.size), 37)
                    got = screen.exact(picks, cands).reshape(want.shape)
                    assert np.array_equal(got, want), (workers, budget,
                                                       rows[0])

    def test_feature_major_table_is_the_transpose(self):
        # more entities than one copied block, the last block ragged
        rows = np.random.default_rng(17).normal(size=(2500, 6))
        rows[1234, 3] = 1e200  # beyond float32: its norm overflows too
        with np.errstate(over="ignore"):
            transposed = rows[:, 2:].T.astype(np.float32)
        (table,), norm = models._feature_major(rows[:, 2:])
        assert table.flags.c_contiguous and norm == 0.0
        assert np.array_equal(table, transposed)
        finite = np.delete(rows[:, 2:], 1234, axis=0)
        for order in (1, 2):
            tables, norm = models._feature_major(
                rows[:, 2:], lambda part: (np.abs(part), -part), order)
            assert [t.dtype for t in tables] == [np.float32] * 2
            assert all(t.flags.c_contiguous for t in tables)
            assert np.array_equal(tables[1], -transposed)
            want = np.linalg.norm(finite if order == 2 else rows[:, 2:],
                                  order, axis=1).max()
            assert norm == pytest.approx(want, rel=1e-15)


class TestFloat32Screen:
    """Float32 ranking tiles stay within their kind's eps(q) of the
    float64 scores, and the float64 pairs that decide what float32
    cannot are the canonical float64 scores bit for bit: those of the
    (Q, W, dim) distance blocks, and for DistMult and ComplEx the products
    summed in one fixed order, whatever order BLAS takes."""

    ENTITIES = 300

    @pytest.mark.parametrize("magnitude", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    @pytest.mark.parametrize("kind", TestRankingWorkers.KINDS,
                             ids=kind_id)
    def test_within_bound_and_pairs_bitwise(self, kind, magnitude):
        rng = np.random.default_rng(int(magnitude * 1e3))
        # dim 20: TransE, DistMult and ComplEx add 20 terms, with the
        # eight partial sums and a rest; RotatE and HAKE add 10 terms
        params = init_params(kind, self.ENTITIES, 3, 20, 2.0, seed=18)
        angles = params.copy()
        # every entry at the magnitude, each scaled by up to 10 either
        # way; then the phases (RotatE's relations, HAKE's second halves)
        # back to their drawn angles, so that HAKE's phase sum is not
        # small beside a small modulus
        for table in (params.entity_emb, params.relation_emb):
            table[:] = magnitude * rng.normal(size=table.shape) * 10.0 ** (
                rng.uniform(-1, 1, size=table.shape))
        params.entity_emb[7] = params.entity_emb[3]  # tied candidates
        queries = (rng.integers(0, self.ENTITIES, size=9),
                   rng.integers(0, 3, size=9))
        picks, cands = np.divmod(np.arange(9 * self.ENTITIES), self.ENTITIES)
        self._check(params, *queries, picks, cands)
        if kind == ModelKind.ROTATE:
            params.relation_emb[:] = angles.relation_emb
        if kind == ModelKind.HAKE:
            for table, drawn in ((params.entity_emb, angles.entity_emb),
                                 (params.relation_emb, angles.relation_emb)):
                table[:, 10:] = drawn[:, 10:]
        if kind in (ModelKind.ROTATE, ModelKind.HAKE):
            self._check(params, *queries, picks, cands)

    @staticmethod
    def _check(params, heads, relations, picks, cands):
        fixed = params.entity_emb[heads]
        rel = params.relation_emb[relations]
        for tail in (True, False):
            want = oracle_scores(params, tail, fixed, rel)
            got, screen = screened_scores(params, tail, fixed, rel)
            assert np.isfinite(got).all()
            error = np.abs(got.astype(np.float64) - want)
            assert (error <= screen.bound[:, None]).all()
            # the bound is not vacuous: within 1e4 of the largest error
            assert (screen.bound < 1e4 * error.max(axis=1)).all()
            exact = screen.exact(picks, cands)
            assert exact.dtype == np.float64
            assert np.array_equal(exact, want.ravel())

    def test_hake_half_angles_from_one_tangent(self):
        """HAKE takes every cosine and sine of a half phase from one
        tangent; they lie within 2^-50 of `np.cos` and `np.sin` of the
        half phases."""
        rng = np.random.default_rng(24)
        phases = np.concatenate([
            rng.uniform(-np.pi, np.pi, 20000), rng.uniform(-1e4, 1e4, 5000),
            [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 1e4, -1e4]])
        cos, sin = models._half_angles(phases)
        assert np.abs(cos - np.cos(phases / 2.0)).max() <= 2.0 ** -50
        assert np.abs(sin - np.sin(phases / 2.0)).max() <= 2.0 ** -50

    def test_hake_half_angles_keep_the_expression_bits(self):
        """The in-place passes give the bits of the expression form, on
        contiguous phases and on a strided view of a row block."""
        def expression(phases):
            t = np.tan(phases / 4.0)
            square = t * t
            scale = 1.0 / (1.0 + square)
            return (1.0 - square) * scale, 2.0 * t * scale
        rng = np.random.default_rng(35)
        rows = rng.uniform(-1e3, 1e3, (500, 64))
        for phases in (rng.uniform(-np.pi, np.pi, 139_000), rows[:, 32:],
                       rows[:, None, 32:] - rows[:7, 32:],
                       np.array([0.0, -0.0, np.pi, -np.pi, 1e300])):
            for got, want in zip(models._half_angles(phases),
                                 expression(phases)):
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64))


def _container_bytes(header: dict, payload: bytes = b"") -> bytes:
    blob = json.dumps(header).encode("utf-8")
    return b"KGESUBCK" + struct.pack("<Q", len(blob)) + blob + payload


_GOOD_HEADER = {"format_version": 1, "payload": "model-params",
                "kind": "distmult", "dim": 2, "gamma": 1.0, "aux": {},
                "num_entities": 1, "num_relations": 1,
                "arrays": [{"name": "entity_emb", "shape": [1, 2]},
                           {"name": "relation_emb", "shape": [1, 2]}]}


class TestCheckpoints:
    def test_save_load_bitwise(self, tmp_path):
        for kind in ALL_KINDS:
            params = init_params(kind, 6, 3, 8, 2.5, seed=21)
            path = tmp_path / f"{kind.value}.bin"
            save_params(params, path)
            loaded = load_params(path)
            assert loaded.kind == params.kind
            assert loaded.dim == params.dim
            assert loaded.gamma == params.gamma
            assert loaded.aux == params.aux
            assert np.array_equal(loaded.entity_emb, params.entity_emb)
            assert np.array_equal(loaded.relation_emb, params.relation_emb)

    def test_truncated_file_fails_cleanly(self, tmp_path):
        params = init_params(ModelKind.TRANSE, 6, 3, 8, 2.5, seed=22)
        path = tmp_path / "model.bin"
        save_params(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 17])
        with pytest.raises(CheckpointError, match="truncated"):
            load_params(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_params(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        params = init_params(ModelKind.TRANSE, 3, 2, 4, 1.0, seed=23)
        path = tmp_path / "model.bin"
        save_params(params, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            load_params(path)

    def test_tag_read_with_params(self, tmp_path):
        params = init_params(ModelKind.ROTATE, 4, 2, 4, 1.0, seed=24)
        path = tmp_path / "model.bin"
        save_params(params, path, tag="rotate-none-seed24")
        loaded, tag = load_tagged_params(path)
        assert tag == "rotate-none-seed24"
        assert np.array_equal(loaded.entity_emb, params.entity_emb)
        save_params(params, path)
        assert load_tagged_params(path)[1] is None

    @pytest.mark.parametrize("tag", [5, True, None, ["x"], {"a": 1}],
                             ids=json.dumps)
    def test_tag_that_is_not_a_string_is_rejected(self, tmp_path, tag):
        """A sub-model id is a string; any other `tag`, null included,
        is CheckpointError, not a raw exception where the id is used."""
        path = tmp_path / "model.bin"
        path.write_bytes(_container_bytes(dict(_GOOD_HEADER, tag=tag),
                                          bytes(32)))
        with pytest.raises(CheckpointError, match="header field tag"):
            load_tagged_params(path)
        path.write_bytes(_container_bytes(dict(_GOOD_HEADER, tag="x"),
                                          bytes(32)))
        assert load_tagged_params(path)[1] == "x"

    @pytest.mark.parametrize("key, value", [
        ("arrays", None),
        ("arrays", {"entity_emb": [1, 2]}),
        ("arrays", ["entity_emb"]),
        ("arrays", [{"name": "entity_emb"}]),
        ("arrays", [{"name": "entity_emb", "shape": [-1, 2]}]),
        ("arrays", [{"name": "entity_emb", "shape": [1.5, 2]}]),
        ("arrays", [{"name": "entity_emb", "shape": ["1", 2]}]),
        ("arrays", [{"name": "entity_emb", "shape": 2}]),
        ("arrays", [{"name": 7, "shape": [1, 2]}]),
        ("arrays", [{"name": "entity_emb", "shape": [10 ** 12, 2]}]),
        ("arrays", [{"name": "entity_emb", "shape": [0, 10 ** 30]}]),
        ("arrays", [{"name": "entity_emb", "shape": [0, 2 ** 62, 2 ** 62]}]),
        ("arrays", [{"name": "entity_emb", "shape": [1] * 70}]),
        ("arrays", [{"name": "entity_emb", "shape": [2]},
                    {"name": "relation_emb", "shape": [1, 2]}]),
        ("kind", None),
        ("kind", "nope"),
        ("dim", "two"),
        ("dim", 3),
        ("dim", float("inf")),
        ("aux", []),
    ], ids=lambda v: json.dumps(v)[:30])
    def test_crafted_header_fails_cleanly(self, tmp_path, key, value):
        """A header field that is absent (None here) or malformed gives
        CheckpointError, not a raw exception."""
        header = dict(_GOOD_HEADER)
        if value is None:
            del header[key]
        else:
            header[key] = value
        path = tmp_path / "model.bin"
        path.write_bytes(_container_bytes(header, bytes(32)))
        with pytest.raises(CheckpointError):
            load_params(path)

    @pytest.mark.parametrize("blob", [
        b"KGESUBCK" + struct.pack("<Q", 2 ** 62) + b"{}",
        _container_bytes([1, 2]),
        _container_bytes({"format_version": 1}),
        pytest.param(b"KGESUBCK" + struct.pack("<Q", 100_000)
                     + b"[" * 100_000, id="nested-too-deep"),
        pytest.param(b"KGESUBCK" + struct.pack("<Q", 5000) + b"1" * 5000,
                     id="huge-integer"),
    ])
    def test_crafted_framing_fails_cleanly(self, tmp_path, blob):
        path = tmp_path / "model.bin"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError):
            load_params(path)

    def test_crafted_good_header_loads(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(_container_bytes(_GOOD_HEADER, bytes(32)))
        params = load_params(path)
        assert params.entity_emb.shape == (1, 2)


class TestInitEpsilon:
    def test_bound_scales_with_epsilon(self):
        wide = init_params(ModelKind.TRANSE, 200, 5, 4, 0.0, seed=1,
                           init_epsilon=8.0)
        narrow = init_params(ModelKind.TRANSE, 200, 5, 4, 0.0, seed=1,
                             init_epsilon=0.4)
        assert np.abs(wide.entity_emb).max() > 1.0
        assert np.abs(narrow.entity_emb).max() <= 0.1


class TestCheckpointFuzz:
    """Any bytes give either parameters or a CheckpointError."""

    @staticmethod
    def _load(blob: bytes):
        import tempfile
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "model.bin"
            path.write_bytes(blob)
            try:
                load_params(path)
            except CheckpointError:
                pass

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=300))
    def test_random_tail_after_magic(self, tail):
        self._load(b"KGESUBCK" + tail)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0), st.integers(0, 255))
    def test_one_byte_overwritten(self, position, value):
        blob = bytearray(_container_bytes(
            _GOOD_HEADER, bytes(32)))
        blob[position % len(blob)] = value
        self._load(bytes(blob))
