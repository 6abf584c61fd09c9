"""Seeded input fuzzing of every file the CLI reads.

Each input of a small finished pipeline (the train and test splits, a
score file and its parsed copy, the dataset's parsed copy, an echoed
config, a checkpoint, a sub-model and a sweep ledger) is damaged by one
of a fixed list of mutations, and the commands that read it run again.
It must exit 0, 1 or 2 without a traceback, and an `evaluate` that
exits 0 must write finite metrics in [0, 1].  Every mutant is a pure
function of its input's name, its mutation and its round, so a failure
reproduces.  Tier-1 makes 6 mutants of each input; a larger seeded set
runs with `pytest tests/test_fuzz.py --mutants-per-input 150`.
"""

import itertools
import math
import random
import re
import shutil

import pytest

from kgesub.cli import main

from conftest import save_dataset, zipf_kg

FAST = ["--dim", "8", "--steps", "12", "--batch-size", "16", "--nu", "2",
        "--gamma", "4.0", "--seed", "3"]
SWEEP = ["sweep", "--data", "{w}/data", "--method", "freq",
         "--submodel-scores", "{w}/scores/scores.tsv", "--alpha-grid",
         "0.5,1.0", "--lambda-grid", "0.5", "--run-dir", "{w}/sweep", *FAST]
EVALUATE = ["evaluate", "--data", "{w}/data", "--checkpoint",
            "{w}/train/checkpoint.bin", "--run-dir", "{w}/out"]
REPORT = ["weights-report", "--data", "{w}/data", "--method", "freq",
          "--submodel-scores", "{w}/scores/scores.tsv", "-n", "5",
          "--run-dir", "{w}/out"]

# input -> the commands that read it, run in order while each exits 0
INPUTS = {
    "data/train.txt": [EVALUATE],
    "data/test.txt": [EVALUATE],
    "data/.kgesub-dataset.bin": [EVALUATE],
    "scores/scores.tsv": [REPORT],
    "scores/.scores.tsv.kgesub.bin": [REPORT],
    "train/config.resolved.cfg": [
        ["train", "--config", "{w}/train/config.resolved.cfg",
         "--run-dir", "{w}/again"],
        ["evaluate", "--data", "{w}/data", "--checkpoint",
         "{w}/again/checkpoint.bin", "--run-dir", "{w}/out"]],
    # a `train` checkpoint is read as a model and as a sub-model
    "train/checkpoint.bin": [EVALUATE, [
        "score-triples", "--data", "{w}/data", "--checkpoint",
        "{w}/train/checkpoint.bin", "--run-dir", "{w}/out"]],
    "sub/submodel.bin": [["score-triples", "--data", "{w}/data",
                          "--checkpoint", "{w}/sub/submodel.bin",
                          "--run-dir", "{w}/out"]],
    "sweep/ledger.tsv": [SWEEP],
}


def _lines(blob: bytes) -> list[bytes]:
    return blob.splitlines(keepends=True) or [b""]


def _delete_line(blob, rng):
    lines = _lines(blob)
    del lines[rng.randrange(len(lines))]
    return b"".join(lines)


def _duplicate_line(blob, rng):
    lines = _lines(blob)
    i = rng.randrange(len(lines))
    return b"".join(lines[:i + 1] + lines[i:])


def _junk_field(blob, rng):
    lines = _lines(blob)
    i = rng.randrange(len(lines))
    body = lines[i].rstrip(b"\n")
    lines[i] = body + b"\tjunk" + lines[i][len(body):]
    return b"".join(lines)


def _flip_byte(blob, rng):
    i = rng.randrange(len(blob))
    return blob[:i] + bytes([blob[i] ^ rng.randrange(1, 256)]) + blob[i + 1:]


def _truncate(blob, rng):
    return blob[:rng.randrange(len(blob))]


def _crlf(blob, rng):
    return blob.replace(b"\n", b"\r\n")


def _bom(blob, rng):
    return b"\xef\xbb\xbf" + blob


def _header_number(blob, rng):
    """Another number of as many digits: in a container's JSON header,
    else in a text file's `#` lines, else anywhere in the text."""
    if blob.startswith(b"KGESUB"):
        regions = [(16, 16 + int.from_bytes(blob[8:16], "little"))]
    else:
        regions = [m.span() for m in re.finditer(rb"(?m)^#.*$", blob)]
    runs = [(start + m.start(), start + m.end())
            for start, end in regions or [(0, len(blob))]
            for m in re.finditer(rb"\d+", blob[start:end])]
    if not runs:
        return _flip_byte(blob, rng)
    low, high = rng.choice(runs)
    digits = bytes(rng.choice(b"0123456789") for _ in range(high - low))
    return blob[:low] + digits + blob[high:]


MUTATIONS = [_bom, _crlf, _truncate, _flip_byte, _delete_line,
             _duplicate_line, _junk_field, _header_number]
UNSEEDED = (_bom, _crlf)  # the same mutant in every round


def mutants(per_input: int) -> list[tuple[str, int, int]]:
    """(input, mutation, round) of `per_input` mutants of each input:
    each input takes the mutations in turn from its own offset, round
    after round, and an unseeded one in the first round only."""
    cases = []
    for i, name in enumerate(INPUTS):
        turns = ((name, (2 * i + j) % len(MUTATIONS), j // len(MUTATIONS))
                 for j in itertools.count())
        cases += itertools.islice(
            (case for case in turns
             if not (case[2] and MUTATIONS[case[1]] in UNSEEDED)), per_input)
    return cases


def pytest_generate_tests(metafunc):
    if "mutant" in metafunc.fixturenames:
        cases = mutants(metafunc.config.getoption("mutants_per_input"))
        metafunc.parametrize("mutant", cases, ids=[
            f"{name}-{MUTATIONS[m].__name__[1:]}" + (f"-{r}" if r else "")
            for name, m, r in cases])


def run(argv, work) -> int:
    return main([arg.format(w=work) for arg in argv])


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A finished small pipeline whose every input is readable."""
    work = tmp_path_factory.mktemp("pristine")
    save_dataset(zipf_kg(5, num_entities=20, num_relations=3, num_links=160,
                         num_valid=15, num_test=15), work / "data")
    data = ["--data", work / "data"]
    steps = [
        ["train", *data, "--run-dir", work / "train", "--subsampling",
         "cbs", "--method", "freq", *FAST],
        ["pretrain-submodel", *data, "--run-dir", work / "sub", "--model",
         "distmult", *FAST],
        ["score-triples", *data, "--run-dir", work / "scores",
         "--checkpoint", work / "sub" / "submodel.bin"],
        SWEEP]
    for argv in steps:
        assert run([str(arg) for arg in argv], work) == 0
    for name in INPUTS:
        assert (work / name).is_file(), name
    return work


def test_mutant_exits_cleanly(pristine, tmp_path, capsys, monkeypatch,
                              mutant):
    name, mutation, turn = mutant
    monkeypatch.chdir(tmp_path)  # where a config that lost its dir points
    work = tmp_path / "w"
    shutil.copytree(pristine, work)
    rng = random.Random(f"{name} {mutation}" + (f" {turn}" if turn else ""))
    path = work / name
    path.write_bytes(MUTATIONS[mutation](path.read_bytes(), rng))
    for argv in INPUTS[name]:
        try:
            code = run(argv, work)
        except Exception as exc:  # a traceback is a failure, not an exit
            pytest.fail(f"{argv[0]} raised {exc!r}")
        assert code in (0, 1, 2), (argv[0], code)
        assert "Traceback" not in capsys.readouterr().err
        if code:
            break
        if argv[0] == "evaluate":
            for line in (work / "out" / "metrics.tsv").read_text(
                    encoding="utf-8").splitlines():
                for value in map(float, line.split("\t")[1:]):
                    assert math.isfinite(value) and 0.0 <= value <= 1.0
