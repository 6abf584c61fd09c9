"""Paper-shape training gate: examples/s and peak RSS of `training.train`
at dim 256, nu 128, batch 512 (Adam) on the FB15k-237-shaped graph of
perfbench/graphs.py, for TransE, RotatE and HAKE.

usage: python scripts/paper_shape.py [OTHER_SRC]

Each run is a fresh process that trains 6 steps from fresh parameters and
reports examples/s over the `train` call and its peak RSS (ru_maxrss).
Given OTHER_SRC, the src directory of another checkout (say the parent
commit, unpacked with `git archive`), runs alternate between that tree and
this one, and the gate compares their medians for TransE and RotatE:
examples/s at least 2x OTHER_SRC's and peak RSS at most a third of it.
HAKE's figures are printed with no gate.  A non-finite loss fails a run.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STEPS, BATCH, NU, DIM, RUNS = 6, 512, 128, 256, 3
GATED = ("transe", "rotate")


def child(src: str, kind: str) -> None:
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import numpy as np

    import graphs
    from kgesub.config import RunConfig
    from kgesub.data import Dataset, Vocab
    from kgesub.models import ModelKind, init_params
    from kgesub.subsampling import uniform_weights
    from kgesub.training import train

    shape = graphs.FB15K237
    vocab = Vocab(tuple(f"e{i}" for i in range(shape.entities)),
                  tuple(f"r{i}" for i in range(shape.relations)))
    dataset = Dataset(*graphs.generate(shape, 1), vocab=vocab)
    params = init_params(ModelKind(kind), dataset.num_entities,
                         dataset.num_relations, DIM, 12.0, seed=1)
    config = RunConfig(model=kind, dim=DIM, batch_size=BATCH, nu=NU,
                       steps=STEPS, optimizer="adam", learning_rate=0.001,
                       seed=1)
    weights = uniform_weights(dataset.num_examples)
    start = time.perf_counter()
    result = train(dataset, weights, params, config)
    elapsed = time.perf_counter() - start
    assert all(np.isfinite(record.loss) for record in result.log)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"eps": STEPS * BATCH / elapsed, "peak_mb": peak}))


def run(src: Path, kind: str) -> dict:
    out = subprocess.run([sys.executable, __file__, "--child", str(src), kind],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main(argv: list[str]) -> int:
    trees = {"this": ROOT / "src"}
    if argv:
        trees = {"other": Path(argv[0]).resolve(), **trees}
    passed = True
    for kind in (*GATED, "hake"):
        runs = {name: [] for name in trees}
        for _ in range(RUNS):
            for name, src in trees.items():
                runs[name].append(run(src, kind))
        eps = {n: statistics.median(r["eps"] for r in rs)
               for n, rs in runs.items()}
        peak = {n: statistics.median(r["peak_mb"] for r in rs)
                for n, rs in runs.items()}
        for name in trees:
            print(f"{kind:7s} {name:5s} examples/s {eps[name]:8.0f}  "
                  f"peak RSS {peak[name]:6.0f} MB")
        if "other" in trees and kind in GATED:
            speed = eps["this"] / eps["other"]
            memory = peak["this"] / peak["other"]
            ok = speed >= 2.0 and memory <= 1 / 3
            passed &= ok
            print(f"{kind:7s} examples/s {speed:.2f}x, peak RSS "
                  f"{memory:.3f}x: {'pass' if ok else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:])
    else:
        sys.exit(main(sys.argv[1:]))
