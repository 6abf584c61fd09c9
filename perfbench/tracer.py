"""Spans recorded from outside the program, at the names callers look up.

A caller that did `from .models import score_gradient` looks the name
up in its own module, so the wrapper goes on `kgesub.training`, not on
`kgesub.models`.  A site the program no longer has is recorded as absent
instead of failing, so the tracer keeps working while the program is
refactored.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import os
import statistics
import time
from array import array
from typing import NamedTuple

import numpy as np

# layer metric name -> "module:attribute" sites where callers look it up
SITES: dict[str, tuple[str, ...]] = {
    "data.load_dataset": ("cli:load_dataset",),
    "data.count_queries": ("cli:count_queries", "submodel:count_queries"),
    "data.true_answers_index": ("training:true_answers_index",
                                "evaluation:true_answers_index"),
    "subsampling.build_cbs_weights": ("cli:build_cbs_weights",
                                      "submodel:build_cbs_weights"),
    "subsampling.mbs_frequencies": ("cli:mbs_frequencies",),
    "subsampling.build_mbs_weights": ("cli:build_mbs_weights",),
    "subsampling.mix_weights": ("cli:mix_weights",),
    "subsampling.save_weight_table": ("cli:save_weight_table",),
    "subsampling.load_scores": ("cli:load_scores",),
    "submodel.pretrain_submodel": ("submodel:pretrain_submodel",),
    "submodel.mbs_frequencies_all_candidates": (
        "submodel:mbs_frequencies_all_candidates",),
    "submodel.score_training_triples": ("submodel:score_training_triples",),
    "submodel.select_submodel": ("submodel:select_submodel",),
    "models.init_params": ("cli:init_params", "submodel:init_params"),
    "models.load_params": ("cli:load_params",),
    "models.score": ("training:score",),
    "models.score_gradient": ("training:score_gradient",),
    # submodel imports score_batch inside a function, from kgesub.models
    "models.score_batch": ("training:score_batch", "evaluation:score_batch",
                           "models:score_batch"),
    "training.train": ("training:train", "submodel:train"),
    "training.sample_negatives": ("training:sample_negatives",),
    "training.batch_loss": ("training:batch_loss",),
    "training.save_checkpoint": ("cli:save_checkpoint",),
    "evaluation.build_filter_index": ("evaluation:build_filter_index",),
    "evaluation.evaluate": ("evaluation:evaluate",),
    "evaluation.filtered_rank": ("evaluation:filtered_rank",),
}

# functions whose second positional argument (or `path`) is a file written
_WRITES = {"subsampling.save_weight_table", "training.save_checkpoint"}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    tag: str  # model kind of the root command span, "" below it


class _CountingRng:
    """Forwards every call to the wrapped generator, counting the entity
    draws made through `integers`, so the draws themselves are the same
    values in the same order."""

    def __init__(self, rng, counter: list[int]) -> None:
        self._rng = rng
        self._counter = counter

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self._counter[0] += int(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Spans in flat arrays, so that recording one allocates no object
    the garbage collector has to scan."""

    def __init__(self) -> None:
        self._name: list[str] = []
        self._tag: list[str] = []
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.bytes_written: dict[str, int] = {}
        self.draws = [0]
        self.accepted = 0

    # -- recording ---------------------------------------------------------

    def open(self, name: str, tag: str = "") -> int:
        index = len(self._name)
        self._name.append(name)
        self._tag.append(tag)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        for name, sites in SITES.items():
            for site in sites:
                module_name, attr = site.split(":")
                module = importlib.import_module(f"kgesub.{module_name}")
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(f"kgesub.{site.replace(':', '.')}")
                    continue
                setattr(module, attr, self._wrap(name, original))
                self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        counting = name == "training.sample_negatives"
        writes = name in _WRITES

        def wrapper(*args, **kwargs):
            if counting:
                args = tuple(_CountingRng(a, tracer.draws)
                             if isinstance(a, np.random.Generator) else a
                             for a in args)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counting:
                tracer.accepted += int(np.size(result))
            if writes:
                path = kwargs.get("path", args[1] if len(args) > 1 else None)
                if path is not None and os.path.exists(path):
                    tracer.bytes_written[name] = (
                        tracer.bytes_written.get(name, 0)
                        + os.path.getsize(path))
            return result
        return wrapper

    # -- analysis ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._name)

    @property
    def spans(self) -> list[Span]:
        return [Span(*row) for row in zip(self._name, self._start, self._end,
                                          self._parent, self._tag)]

    def write(self, path: str) -> None:
        """Gzipped TSV, one span a line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s.parent}\t{s.name}\t{s.start!r}\t"
                         f"{s.end!r}\n")

    def root_tags(self) -> list[str]:
        """The tag of each span's root command span."""
        tags = list(self._tag)
        for i, parent in enumerate(self._parent):
            if parent >= 0:  # parents precede their children
                tags[i] = tags[parent]
        return tags

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds and self seconds (the part of
        its spans that no child span covers)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = {}
        for s, covered in zip(spans, child_time):
            row = out.setdefault(s.name, {"calls": 0, "s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["s"] += s.end - s.start
            row["self_s"] += s.end - s.start - covered
        return out

    def steps(self) -> tuple[list[float], dict[int, float]]:
        """Training step durations and the set-up time of each train call.

        A step starts at the first negative draw after the previous
        step's loss (or the first draw of the call) and ends where the
        next step starts, or where the call returns.  Set-up is the time
        from entering train() to its first negative draw.
        """
        spans = self.spans
        durations: list[float] = []
        setups: dict[int, float] = {}
        # spans are recorded in start order, so a train call's descendants
        # are the spans after it that start before it ends
        for i, s in enumerate(spans):
            if s.name != "training.train":
                continue
            starts: list[float] = []
            after_loss = True
            for child in spans[i + 1:]:
                if child.start >= s.end:
                    break
                if child.name == "training.batch_loss":
                    after_loss = True
                elif child.name == "training.sample_negatives" and after_loss:
                    starts.append(child.start)
                    after_loss = False
            if not starts:
                continue
            setups[i] = starts[0] - s.start
            bounds = starts + [s.end]
            durations.extend(b - a for a, b in zip(bounds, bounds[1:]))
        return durations, setups


def layer_metrics(tracer: Tracer, kinds: tuple[str, ...]) -> dict[str, float]:
    """The per-layer metrics of a traced pass, by name."""
    spans = tracer.spans
    tags = tracer.root_tags()
    summary = tracer.summary()

    def total(name: str, key: str = "s") -> float:
        return summary.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for name in SITES:
        out[f"{name}.s"] = total(name)
        out[f"{name}.calls"] = total(name, "calls")
    durations, setups = tracer.steps()
    setup = sum(setups.values())
    out["training.train.setup_s"] = setup
    out["training.update_s"] = (total("training.train") - setup
                                - total("training.batch_loss")
                                - total("training.sample_negatives"))
    ms = [1000.0 * d for d in durations] or [0.0]
    out["training.step_ms.p50"] = statistics.median(ms)
    out["training.step_ms.p90"] = (statistics.quantiles(ms, n=10)[8]
                                   if len(ms) > 1 else ms[0])
    out["training.neg_accept_ratio"] = (tracer.accepted / tracer.draws[0]
                                        if tracer.draws[0] else 0.0)
    for name in ("subsampling.save_weight_table", "training.save_checkpoint"):
        out[f"{name}.bytes"] = tracer.bytes_written.get(name, 0)
    in_selection = [False] * len(spans)
    for i, s in enumerate(spans):
        in_selection[i] = s.name == "submodel.select_submodel" or (
            s.parent >= 0 and in_selection[s.parent])
    out["submodel.grid_points"] = sum(
        1 for s, inside in zip(spans, in_selection)
        if inside and s.name == "training.train")
    for command in ("train", "evaluate", "build-weights", "pretrain-submodel",
                    "score-triples", "sweep"):
        out[f"cli.{command}.s"] = total(f"cli.{command}")
    out["cli.self_s"] = sum(total(name, "self_s") for name in
                            {s.name for s in spans if s.parent < 0})

    # per model kind, attributed through the command span at the root
    by_kind: dict[tuple[str, str], float] = {}
    for i, (s, tag) in enumerate(zip(spans, tags)):
        key = (s.name, tag)
        by_kind[key] = by_kind.get(key, 0.0) + s.end - s.start
        if i in setups:
            key = ("setup", tag)
            by_kind[key] = by_kind.get(key, 0.0) + setups[i]
    for kind in kinds:
        def part(name: str) -> float:
            return by_kind.get((name, kind), 0.0)
        out[f"training.batch_loss.s.{kind}"] = part("training.batch_loss")
        out[f"training.update_s.{kind}"] = (
            part("training.train") - part("setup")
            - part("training.batch_loss") - part("training.sample_negatives"))
        out[f"evaluation.filtered_rank.s.{kind}"] = part(
            "evaluation.filtered_rank")
    return out
