"""Same-bytes gate: one fixed CLI sequence on the seed-1 PIPELINE and
FB15K237 graphs of perfbench/graphs.py, run in a fresh process per tree,
with every file it leaves compared byte for byte.

usage: python scripts/same_bytes.py [OTHER_SRC] [--expect-diff PATTERN]...
                                    [--work DIR]

The sequence trains every model kind under both optimizers, builds
weights of every method on both query masses, runs `weights-report`,
`singleton-stats`, a 2 x 2 `sweep` over two sub-models, `train --config
best.cfg` and `evaluate`, all on the PIPELINE graph in `data/`.  A second
group then runs in `fb237/` on the FB15K237 graph, where a weight table
or score file has 544,230 rows in 34 blocks, so a tree that may use more
than one CPU formats them with helper interpreters: `build-weights
--subsampling mix` twice on a score file that the script writes (the
first parses its text, the second reads the parsed copy), a short
`pretrain-submodel` and `score-triples` of that sub-model.  Each step is
one `kgesub.cli.main` call with the run directory `<step>/`; its exit
code and stdout are kept beside it as `<step>.exit` and `<step>.stdout`.
Every path is relative to the tree's work directory, so no file names
the tree it came from.

Given OTHER_SRC, the src directory of another checkout (say the parent
commit, unpacked with `git archive`), the sequence runs under that tree
and then under this one.  Without it, the sequence runs twice under
this one, the second time pinned to one CPU with `taskset -c 0`, where
no helper starts, which checks that a run is a pure function of data,
config and seed.

Every file must be present in both trees with the same bytes, except
files whose path relative to the work directory matches an
--expect-diff pattern (fnmatch, where `*` also matches `/`; for
example `report-*` or `fb237/*`).  The exit status is 1 on any other
difference or a failed tree, else 0.  The work directory is a temporary
one, removed at the end, unless --work names one to keep.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

DATA = ["--data", "data"]
MODEL = ["--dim", "16", "--batch-size", "64", "--nu", "4", "--steps", "8",
         "--learning-rate", "0.05", "--seed", "1"]
METHODS = ("base", "freq", "uniq")


def _sequence() -> list[tuple[str, list[str]]]:
    """(step, argv) pairs; a later step reads what earlier ones wrote."""
    steps = [("singleton-stats", ["singleton-stats", *DATA, "--stride", "7"])]
    trains = [("transe", "adam", ["--subsampling", "none", "--norm-p", "2"]),
              ("rotate", "sgd", ["--subsampling", "cbs", "--method", "base"]),
              ("complex", "adam", ["--subsampling", "cbs", "--method", "freq",
                                   "--smoothing", "1"]),
              ("distmult", "sgd", ["--subsampling", "cbs", "--method",
                                   "uniq", "--valid-every", "4"]),
              ("hake", "adam", ["--subsampling", "none",
                                "--adversarial-beta", "1.0",
                                "--lr-decay-every", "4",
                                "--lr-decay-factor", "0.5"])]
    for kind, optimizer, extra in trains:
        steps.append((f"train-{kind}",
                      ["train", *DATA, *MODEL, "--model", kind,
                       "--optimizer", optimizer, *extra]))
    steps.append(("evaluate-kinds",
                  ["evaluate", *DATA, "--split", "valid", "--checkpoint",
                   *(f"train-{kind}/checkpoint.bin" for kind, _, _ in trains)]))
    subs = {"none": "distmult", "cbs-base": "complex"}
    for sub, kind in subs.items():
        steps.append((f"sub-{sub}",
                      ["pretrain-submodel", *DATA, *MODEL, "--model", kind,
                       "--submodel-subsampling", sub]))
        steps.append((f"scores-{sub}",
                      ["score-triples", *DATA, "--checkpoint",
                       f"sub-{sub}/submodel.bin"]))
    observed = ["--submodel-scores", "scores-none/scores.tsv"]
    all_candidates = ["--mbs-query-mass", "all_candidates",
                      "--submodel-checkpoint", "sub-none/submodel.bin"]
    for method in METHODS:
        weights = ["build-weights", *DATA, "--method", method,
                   "--alpha", "0.3"]
        steps += [
            (f"weights-mbs-{method}", [*weights, "--subsampling", "mbs",
                                       *observed]),
            (f"weights-mix-{method}", [*weights, "--subsampling", "mix",
                                       "--lambda", "0.3", "--submodel-scores",
                                       "scores-cbs-base/scores.tsv"]),
            (f"weights-all-{method}", [*weights, "--subsampling", "mbs",
                                       *all_candidates]),
            (f"report-{method}", ["weights-report", *DATA, "-n", "100",
                                  "--method", method, "--alpha", "0.3",
                                  *observed])]
    steps += [
        ("report-all-freq", ["weights-report", *DATA, "-n", "100",
                             "--method", "freq", *all_candidates]),
        ("sweep", ["sweep", *DATA, *MODEL, "--model", "distmult",
                   "--method", "freq", "--submodel-scores",
                   "scores-none/scores.tsv", "scores-cbs-base/scores.tsv",
                   "--alpha-grid", "0.5,0.1", "--lambda-grid", "0.3,0.7"]),
        ("train-best", ["train", "--config", "sweep/best.cfg"]),
        ("evaluate-best", ["evaluate", *DATA, "--checkpoint",
                           "train-best/checkpoint.bin"]),
    ]
    fb237 = ["--data", "fb237/data"]
    mix = ["build-weights", *fb237, "--subsampling", "mix", "--method",
           "freq", "--alpha", "0.5", "--lambda", "0.5", "--submodel-scores",
           "fb237/scores.tsv"]
    steps += [
        ("fb237/mix-miss", mix),
        ("fb237/mix-hit", mix),
        ("fb237/sub", ["pretrain-submodel", *fb237, *MODEL, "--model",
                       "transe", "--submodel-subsampling", "none"]),
        ("fb237/scores", ["score-triples", *fb237, "--checkpoint",
                          "fb237/sub/submodel.bin"]),
    ]
    return steps


def _score_text(rows: int) -> str:
    """A score file of `rows` seeded normal scores, one `repr` per row."""
    scores = np.random.default_rng([1, 237]).normal(size=rows)
    return "# submodel=synthetic-seed1\n" + "".join(
        f"{i}\t{v!r}\n" for i, v in enumerate(scores.tolist()))


def child(src: str) -> None:
    """Run the sequence under `src`, in the current directory."""
    sys.path.insert(0, src)
    from kgesub import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"kgesub was imported from {cli.__file__}, not {src}")
    main = cli.main

    for step, argv in _sequence():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--run-dir", step])
        Path(f"{step}.exit").write_text(f"{code}\n", encoding="utf-8")
        Path(f"{step}.stdout").write_text(out.getvalue(), encoding="utf-8")


def _run_tree(src: Path, work: Path, pinned: bool) -> bool:
    """The sequence under `src` in a fresh process with cwd `work`."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               str(src)]
    if pinned:
        command = ["taskset", "-c", "0", *command]
    return subprocess.run(command, cwd=work).returncode == 0


def _files(directory: Path) -> set[str]:
    return {os.path.relpath(os.path.join(top, name), directory)
            for top, _, names in os.walk(directory) for name in names}


def compare(first: Path, second: Path, expected: list[str]) -> int:
    """Report every file that is not the same bytes in both trees; the
    count of those that no pattern of `expected` matches."""
    left, right = _files(first), _files(second)
    unexpected = same = 0
    for name in sorted(left | right):
        if name not in right or name not in left:
            problem = f"only in {(first if name in left else second).name}"
        elif (first / name).read_bytes() != (second / name).read_bytes():
            problem = "differs"
        else:
            same += 1
            continue
        if any(fnmatch.fnmatch(name, pattern) for pattern in expected):
            print(f"  expected: {name} ({problem})")
        else:
            unexpected += 1
            print(f"  UNEXPECTED: {name} ({problem})")
    print(f"{same} of {len(left | right)} files are the same bytes; "
          f"{unexpected} unexpected differences")
    return unexpected


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other_src", nargs="?", type=Path)
    parser.add_argument("--expect-diff", action="append", default=[],
                        metavar="PATTERN")
    parser.add_argument("--work", type=Path)
    args = parser.parse_args(argv)

    if args.other_src:
        trees = {"other": (args.other_src.resolve(), False),
                 "this": (ROOT / "src", False)}
    else:
        trees = {"this": (ROOT / "src", False),
                 "this-cpu0": (ROOT / "src", True)}
    work = (args.work.resolve() if args.work
            else Path(tempfile.mkdtemp(prefix="same-bytes-")))
    sys.dont_write_bytecode = True  # nothing written beside perfbench
    sys.path.insert(0, str(ROOT / "perfbench"))
    import graphs

    splits = graphs.generate(graphs.PIPELINE, 1)
    fb237_splits = graphs.generate(graphs.FB15K237, 1)
    scores = _score_text(2 * graphs.FB15K237.train)
    try:
        failed = []
        for name, (src, pinned) in trees.items():
            tree = work / name
            if tree.exists():
                shutil.rmtree(tree)
            graphs.write_dataset(tree / "data", splits)
            graphs.write_dataset(tree / "fb237" / "data", fb237_splits)
            (tree / "fb237" / "scores.tsv").write_text(scores,
                                                       encoding="utf-8")
            print(f"running the sequence under {src} as {name}"
                  + (" on CPU 0" if pinned else ""), flush=True)
            if not _run_tree(src, tree, pinned):
                failed.append(name)
        if failed:
            print(f"the sequence failed under {', '.join(failed)}")
            return 1
        first, second = (work / name for name in trees)
        return 1 if compare(first, second, args.expect_diff) else 0
    finally:
        if not args.work:
            shutil.rmtree(work)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        sys.exit(main(sys.argv[1:]))
