"""kgesub benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fb237-train --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's `src/` and driven in-process through `kgesub.cli.main`.
With --trace 0 the run makes timed passes of the workload's command
sequence while another one fits in --seconds (at least one) and reports
the end-to-end metrics.  With --trace 1 it makes one traced pass and
reports the per-layer metrics.  The last line of standard output is the
JSON result.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

THREADS = 1  # BLAS/OpenMP threads of the workload process, <= nproc


@dataclass
class Command:
    name: str
    kind: str
    main: str | None
    items: int
    start: float = 0.0
    end: float = 0.0
    status: object = None
    output: str = ""
    calls: list[tuple[float, float]] = field(default_factory=list)


class Runner:
    """Executes commands, timing them and the main calls inside them."""

    MAIN_SITES = {"train": ("training:train", "submodel:train"),
                  "evaluate": ("evaluation:evaluate",)}

    def __init__(self) -> None:
        import importlib
        from kgesub import cli
        self.cli = cli
        self.commands: list[Command] = []
        self.tracer = None
        self.failures: list[str] = []
        self.attempted = 0
        self._current: Command | None = None
        for main, sites in self.MAIN_SITES.items():
            for site in sites:
                module_name, attr = site.split(":")
                module = importlib.import_module(f"kgesub.{module_name}")
                original = getattr(module, attr, None)
                if callable(original):
                    setattr(module, attr, self._timed(main, original))

    def _timed(self, main: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            command = self._current
            if command is not None and command.main == main:
                command.calls.append((start, time.perf_counter()))
            return result
        return wrapper

    def run(self, argv: list[str], kind: str = "", main: str | None = None,
            items: int = 0) -> object:
        command = Command(argv[0], kind, main, items)
        self._current = command
        span = (self.tracer.open(f"cli.{argv[0]}", tag=kind)
                if self.tracer is not None else None)
        buffer = io.StringIO()
        command.start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer), \
                    contextlib.redirect_stderr(buffer):
                command.status = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not ours
            command.status = f"raised {exc!r}"
        finally:
            command.end = time.perf_counter()
            if span is not None:
                self.tracer.close(span)
            self._current = None
        command.output = buffer.getvalue()
        self.commands.append(command)
        self.check(f"exit {' '.join(argv[:1])} {kind}".strip(),
                   command.status == 0,
                   f"status {command.status}: {command.output[-400:]}")
        return command.status

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def pass_figures(commands: list[Command], main: str) -> dict[str, float]:
    """Wall time of the pass, its set-up time summed over the commands
    that reach a main call, and work items per second of main-call time
    (0 when no command reached one)."""
    mains = [c for c in commands if c.main == main and c.calls]
    busy = sum(e - s for c in mains for s, e in c.calls)
    items = sum(c.items * len(c.calls) for c in mains)
    return {
        "wall": sum(c.end - c.start for c in commands),
        "setup": sum(c.calls[0][0] - c.start for c in commands if c.calls),
        "rate": items / busy if busy > 0 else 0.0,
    }


def kind_rates(commands: list[Command],
               kinds: tuple[str, ...]) -> dict[str, float]:
    """train_eps.<kind> and rank_qps.<kind> over the commands' main calls."""
    out = {}
    for main, prefix in (("train", "train_eps"), ("evaluate", "rank_qps")):
        for kind in kinds:
            chosen = [c for c in commands
                      if c.kind == kind and c.main == main and c.calls]
            busy = sum(e - s for c in chosen for s, e in c.calls)
            items = sum(c.items * len(c.calls) for c in chosen)
            out[f"{prefix}.{kind}"] = items / busy if busy > 0 else 0.0
    return out


def environment() -> dict[str, object]:
    import numpy as np
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "kgesub" / "cli.py").is_file():
        print(f"error: no kgesub sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    # before numpy is first imported, which reads them once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)
    sys.path[:0] = [str(Path(__file__).resolve().parent), str(src)]
    import kgesub
    if Path(kgesub.__file__).resolve().parent != (src / "kgesub").resolve():
        print(f"error: imported kgesub from {kgesub.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracer as tracing
    from workloads import KINDS, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    scratch = root / ".perfbench-work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload]()
        workload.prepare(work, args.seed)
        print("env:", json.dumps(environment()))
        print("graph:", json.dumps(workload.graph_stats()))
        runner = Runner()
        peak_mb = 0.0

        def one_pass(index: int, tracer=None) -> list[Command]:
            nonlocal peak_mb
            out = work / f"pass{index}"
            first = len(runner.commands)
            runner.tracer = tracer
            if tracer is not None:
                tracer.install()
            try:
                workload.run_pass(runner.run, out)
            finally:
                if tracer is not None:
                    tracer.uninstall()
                runner.tracer = None
            commands = runner.commands[first:]
            if index == 0:
                # read before the checks, whose memory is not the
                # program's, and once, so that it does not grow with passes
                peak_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            missed = [c.name for c in commands
                      if c.status == 0 and c.main and not c.calls]
            runner.check("main calls recorded", not missed,
                         f"no {workload.main} call recorded in "
                         f"{', '.join(missed)}; the program no longer calls "
                         "it where Runner.MAIN_SITES looks")
            if all(c.status == 0 for c in commands):
                try:
                    workload.check(runner.run, out, runner.check)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    runner.check("reading the pass's artifacts", False,
                                 repr(exc))
            shutil.rmtree(out, ignore_errors=True)
            figures = pass_figures(commands, workload.main)
            print(f"pass {index}: wall {figures['wall']:.3f} s, "
                  f"rate {figures['rate']:.2f}/s, "
                  f"{len(runner.failures)} failed so far;",
                  ", ".join(f"{c.name} {c.kind} {c.end - c.start:.2f}s"
                            for c in commands), flush=True)
            return commands

        if args.trace:
            group = "per_layer"
            recorder = tracing.Tracer()
            commands = one_pass(0, recorder)
            recorder.write(str(scratch / f"spans-{args.workload}-"
                                         f"{args.seed}.tsv.gz"))
            if recorder.absent:
                print("absent:", ", ".join(recorder.absent))
            metrics = tracing.layer_metrics(recorder, KINDS)
            metrics.update(kind_rates(commands, KINDS))
            metrics.update({f"graph.{k}": v
                            for k, v in workload.graph_stats().items()})
            metrics["quality.test_mrr"] = workload.mean_test_mrr()
            metrics["trace.wall_s"] = pass_figures(commands,
                                                   workload.main)["wall"]
            metrics["trace.spans"] = len(recorder)
        else:
            group = "end_to_end"
            passes: list[list[Command]] = []
            started = time.perf_counter()
            while True:
                passes.append(one_pass(len(passes)))
                elapsed = time.perf_counter() - started
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
            figures = [pass_figures(p, workload.main) for p in passes]
            print("kinds:", json.dumps(
                {k: round(v, 2) for k, v in
                 kind_rates([c for p in passes for c in p], KINDS).items()
                 if v}))
            metrics = {
                "setup_s": statistics.median(f["setup"] for f in figures),
                "wall_s": statistics.median(f["wall"] for f in figures),
                "main_rate": statistics.median(f["rate"] for f in figures),
                "peak_rss_mb": peak_mb,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in runner.failures:
        print("FAILED", failure)
    print(json.dumps({
        "correct": not runner.failures, "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in spec[group]}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
