"""Checks of the program's outputs that share no code with it.

The filtered-rank oracle scores every candidate with its own numpy
score functions, filters known answers over train+valid+test and
applies the mean-rank tie rule, rank = floor(1 + better + ties/2 + 1/2).
Parameters come from the benchmark's own set-up or from the program's
checkpoint loader; nothing else of the program is used.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

DIRECTIONS = ("tail-query", "head-query")


def program_ids(splits: tuple[np.ndarray, ...],
                num_entities: int, num_relations: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Maps from generated entity/relation ids to the ids the program
    assigns: first appearance over train, valid, test, head before tail."""
    rows = np.concatenate(splits)
    entity_seq = rows[:, [0, 2]].ravel()
    entities = np.empty(num_entities, dtype=np.int64)
    _, first = np.unique(entity_seq, return_index=True)
    entities[entity_seq[np.sort(first)]] = np.arange(first.size)
    relations = np.empty(num_relations, dtype=np.int64)
    _, first = np.unique(rows[:, 1], return_index=True)
    relations[rows[np.sort(first), 1]] = np.arange(first.size)
    return entities, relations


def _rows_score(kind: str, aux: dict, dim: int, h: np.ndarray, r: np.ndarray,
                t: np.ndarray) -> np.ndarray:
    if kind == "transe":
        d = h + r - t
        if aux.get("norm_p", 1.0) == 1.0:
            return -np.abs(d).sum(axis=1)
        return -np.sqrt((d * d).sum(axis=1))
    if kind == "distmult":
        return (h * r * t).sum(axis=1)
    if kind == "complex":
        h_re, h_im, t_re, t_im = h[:, 0::2], h[:, 1::2], t[:, 0::2], t[:, 1::2]
        r_re, r_im = r[:, 0::2], r[:, 1::2]
        return (r_re * (h_re * t_re + h_im * t_im)
                + r_im * (h_re * t_im - h_im * t_re)).sum(axis=1)
    if kind == "rotate":
        h_re, h_im, t_re, t_im = h[:, 0::2], h[:, 1::2], t[:, 0::2], t[:, 1::2]
        cos_r, sin_r = np.cos(r), np.sin(r)
        u_re = h_re * cos_r - h_im * sin_r - t_re
        u_im = h_re * sin_r + h_im * cos_r - t_im
        return -np.sqrt(u_re * u_re + u_im * u_im).sum(axis=1)
    if kind == "hake":
        half = dim // 2
        v = np.abs(h[:, :half]) * np.abs(r[:, :half]) - np.abs(t[:, :half])
        modulus = np.sqrt((v * v).sum(axis=1))
        theta = (h[:, half:] + r[:, half:2 * half] - t[:, half:]) / 2.0
        phase = np.abs(np.sin(theta)).sum(axis=1)
        return -(modulus + aux["phase_weight"] * phase)
    raise ValueError(f"no oracle scorer for {kind!r}")


class KnownAnswers:
    """Answers to every query over train+valid+test, in program ids, as
    sorted arrays, so the index costs a few arrays and no Python objects
    per triple."""

    def __init__(self, known: np.ndarray, num_relations: int) -> None:
        self.num_relations = num_relations
        self.index = []
        for fixed, answer in ((0, 2), (2, 0)):
            keys = known[:, fixed] * num_relations + known[:, 1]
            order = np.argsort(keys, kind="stable")
            self.index.append((keys[order], known[order, answer]))

    def of(self, triple, direction: int) -> np.ndarray:
        keys, answers = self.index[direction]
        key = int(triple[2 * direction]) * self.num_relations + int(triple[1])
        lo, hi = np.searchsorted(keys, [key, key + 1])
        return answers[lo:hi]


def filtered_ranks(params, triples: np.ndarray, known: KnownAnswers,
                   rows: list[int]) -> dict[tuple[int, int], int]:
    """Oracle rank of each (split row, direction) in `rows`.

    `params` exposes kind, dim, aux, entity_emb and relation_emb, and
    `triples` holds program ids.
    """
    kind = getattr(params.kind, "value", params.kind)
    ent, rel = params.entity_emb, params.relation_emb
    out = {}
    for row in rows:
        h, r, t = (int(x) for x in triples[row])
        for direction in (0, 1):
            fixed = ent[h if direction == 0 else t][None, :]
            r_row = rel[r][None, :]
            if direction == 0:
                scores = _rows_score(kind, params.aux, params.dim, fixed,
                                     r_row, ent)
                answer = t
            else:
                scores = _rows_score(kind, params.aux, params.dim, ent,
                                     r_row, fixed)
                answer = h
            others = known.of(triples[row], direction)
            keep = np.ones(ent.shape[0], dtype=bool)
            keep[others] = False
            keep[answer] = True
            kept = scores[keep]
            better = int((kept > scores[answer]).sum())
            ties = int((kept == scores[answer]).sum()) - 1
            out[(row, direction)] = int(math.floor(1.0 + better + ties / 2.0
                                                   + 0.5))
    return out


def read_rank_dump(path: Path) -> list[tuple[str, str, int]]:
    """(`entity|relation`, direction, rank) rows of a ranks.tsv file."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        query, direction, rank = line.split("\t")
        rows.append((query, direction, int(rank)))
    return rows


def check_ranks(params, test: np.ndarray, known: KnownAnswers,
                dump: Path, sample: int) -> tuple[bool, str]:
    """Ranks in `dump` for an evenly spaced sample of test rows equal
    the oracle's, and the dump lists every test query in split order."""
    rows = read_rank_dump(dump)
    if len(rows) != 2 * test.shape[0]:
        return False, f"{dump.name}: {len(rows)} rows for {test.shape[0]} triples"
    picked = sorted(set(np.linspace(0, test.shape[0] - 1,
                                    min(sample, test.shape[0])).astype(int)))
    expected = filtered_ranks(params, test, known, picked)
    for (row, direction), rank in expected.items():
        h, r, t = test[row]
        query, got_direction, got = rows[2 * row + direction]
        want_query = f"{h if direction == 0 else t}|{r}"
        if (query, got_direction, got) != (want_query, DIRECTIONS[direction],
                                           rank):
            return False, (f"{dump.name} row {2 * row + direction}: got "
                           f"{(query, got_direction, got)}, oracle "
                           f"{(want_query, DIRECTIONS[direction], rank)}")
    return True, f"{len(expected)} sampled ranks equal the oracle"


def read_weight_table(path: Path) -> tuple[np.ndarray, np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [line for line in lines if line and not line.startswith("#")]
    fields = "\t".join(body).split("\t")
    a = np.array(fields[2::4], dtype=np.float64)
    b = np.array(fields[3::4], dtype=np.float64)
    return a, b


def check_weight_table(path: Path, examples: int) -> tuple[bool, str]:
    """Finite, positive, one row per example, each column of mean 1."""
    a, b = read_weight_table(path)
    for name, col in (("a", a), ("b", b)):
        if col.shape[0] != examples:
            return False, f"{path.name}: {col.shape[0]} rows, want {examples}"
        if not (np.all(np.isfinite(col)) and np.all(col > 0)):
            return False, f"{path.name}: column {name} not finite and positive"
        if abs(col.mean() - 1.0) > 1e-12:
            return False, f"{path.name}: column {name} mean {col.mean()!r}"
    return True, f"{path.name}: {examples} rows, finite, positive, mean 1"


def check_mix(mix: Path, mbs: Path, cbs: Path, lam: float) -> tuple[bool, str]:
    """mix = lam * mbs + (1 - lam) * cbs elementwise, to 1e-12."""
    (ma, mb), (ba, bb), (ca, cb) = (read_weight_table(p)
                                    for p in (mix, mbs, cbs))
    worst = max(np.abs(ma - (lam * ba + (1.0 - lam) * ca)).max(),
                np.abs(mb - (lam * bb + (1.0 - lam) * cb)).max())
    return bool(worst <= 1e-12), f"max |mix - convex combination| {worst:.3g}"


def final_loss(log: Path) -> float:
    last = log.read_text(encoding="utf-8").splitlines()[-1]
    return float(last.split("\t")[1])
