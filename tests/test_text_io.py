"""Block-wise text readers against the line-by-line oracles.

`load_triples` and `load_scores` parse about `data.BLOCK_BYTES` of
lines at a time and read a failing block again line by line.  Generated
files, cut into blocks of sizes from one line to 1 MiB, must give the
oracles' ids, vocabulary order and bitwise arrays, or the same exception
type and message.  `save_scores` and `save_weight_table` must write the
bytes of one `repr` per row whatever the block size and CPU count; the
program reads no weight table, so the tests read them with the conftest
reader.
"""

import os
import subprocess
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgesub import data, models, subsampling
from kgesub.data import Dataset, Vocab, read_container, write_container
from kgesub.errors import DataError, DegenerateInputError, KgesubError
from kgesub.subsampling import (Provenance, SubModelScores, WeightTable,
                                load_scores, save_scores, save_weight_table,
                                scores_copy_path, uniform_weights)

from conftest import (load_triples, make_vocab, oracle_load_scores,
                      oracle_load_triples, oracle_load_weight_table)

# "\x0b", "\x85" and "\u2028" end a line for str.splitlines but not
# for the text reader
LABEL = st.text(alphabet=list("ab#= ") + ["é", "中", "😀", "\x0b", "\x85",
                                          "\u2028"], max_size=3)
BAD_BYTES = st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])
BLOCK = st.sampled_from([1, 7, 64, 1 << 20])
# files of more than 1 MiB, read in blocks of the default size and of 1 MiB
BIG_BLOCK = st.sampled_from([data.BLOCK_BYTES, 1 << 20])
# weighted toward well-formed lines so that long valid runs occur
LINE_KIND = st.sampled_from(["row"] * 12 + ["comment", "blank", "fields",
                                             "cr"])


@st.composite
def text_file(draw, row, start: int = 0) -> bytes:
    """Lines of `row(draw, index)` rows, comments, blank lines, lines of
    any field count and rows cut by "\r", with mixed line endings, maybe
    a byte-order mark first and maybe undecodable bytes somewhere."""
    lines, rows = [], start
    for kind in draw(st.lists(LINE_KIND, max_size=25)):
        if kind == "row":
            lines.append(row(draw, rows))
            rows += 1
        elif kind == "comment":
            lines.append("#" + draw(st.text(max_size=6)))
        elif kind == "blank":
            lines.append("")
        elif kind == "cr":  # "\r" inside a row ends a line
            line = row(draw, rows)
            cut = draw(st.integers(0, len(line)))
            lines.append(line[:cut] + "\r" + line[cut:])
        else:
            lines.append("\t".join(draw(st.lists(LABEL, min_size=1,
                                                 max_size=5))))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                            min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    if lines and draw(st.booleans()):
        text = text[:-len(endings[-1])]  # no newline at the end
    blob = text.encode("utf-8")
    if draw(st.integers(0, 7)) == 0:  # a byte-order mark is not text
        blob = "\ufeff".encode("utf-8") + blob
    if draw(st.integers(0, 5)) == 0:
        cut = draw(st.integers(0, len(blob)))
        blob = blob[:cut] + draw(BAD_BYTES) + blob[cut:]
    return blob


def triple_row(draw, index: int) -> str:
    return "\t".join(draw(st.tuples(LABEL, LABEL, LABEL)))


NUMBER = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.floats(min_value=1e-300, max_value=1e300).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1e-400", " 1.5 ", "1_0.5",
                     "0x1p3", "abc", "", "٣.5", "0", "-1"]))


def example_id(draw, index: int) -> str:
    return draw(st.sampled_from([str(index)] * 8 + [
        f"+{index}", f" {index}", f"0{index}", str(index + 1), "x",
        "9" * 30]))


def score_row(draw, index: int) -> str:
    return f"{example_id(draw, index)}\t{draw(NUMBER)}"


def outcome(load, path: Path, *args):
    """What a reader gives: ("ok", value) or (exception type, message)."""
    try:
        return "ok", load(path, *args)
    except KgesubError as exc:
        return type(exc), str(exc)


def same_triples(got, want) -> None:
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    (triples, vocab), (oracle_triples, oracle_vocab) = got[1], want[1]
    assert triples.dtype == np.int64 and triples.shape == (len(oracle_triples), 3)
    assert triples.tolist() == [list(t) for t in oracle_triples]
    assert vocab.entity_labels == oracle_vocab.entity_labels
    assert vocab.relation_labels == oracle_vocab.relation_labels


def bitwise_equal(x: np.ndarray, y: np.ndarray) -> bool:
    return (x.dtype == y.dtype == np.float64 and x.shape == y.shape
            and np.array_equal(x.view(np.uint64), y.view(np.uint64)))


def same_scores(got, want) -> None:
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    assert got[1].submodel_id == want[1].submodel_id
    assert bitwise_equal(got[1].raw_score, want[1].raw_score)


def written(directory: str, blob: bytes, name: str = "input.txt") -> Path:
    path = Path(directory) / name
    path.write_bytes(blob)
    return path


class TestTriples:
    @settings(max_examples=150, deadline=None)
    @given(blob=text_file(triple_row), block=BLOCK)
    def test_matches_line_oracle(self, blob, block):
        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.object(data, "BLOCK_BYTES", block):
            path = written(directory, blob)
            same_triples(outcome(load_triples, path),
                         outcome(oracle_load_triples, path))

    @settings(max_examples=100, deadline=None)
    @given(first=text_file(triple_row), second=text_file(triple_row),
           block=BLOCK)
    def test_ids_continue_across_files(self, first, second, block):
        """The second file extends the first one's vocabulary, as the
        splits of a dataset do."""
        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.object(data, "BLOCK_BYTES", block):
            paths = (written(directory, first, "a.txt"),
                     written(directory, second, "b.txt"))
            vocab = oracle_vocab = Vocab()
            for path in paths:
                got = outcome(load_triples, path, vocab)
                want = outcome(oracle_load_triples, path, oracle_vocab)
                same_triples(got, want)
                if got[0] == "ok":
                    vocab, oracle_vocab = got[1][1], want[1][1]

    @settings(max_examples=3, deadline=None)
    @given(tail=text_file(triple_row), block=BIG_BLOCK)
    def test_error_in_a_later_megabyte_block(self, tail, block):
        """Behind more than 1 MiB of good lines, a generated tail (bad
        field counts, undecodable bytes) reads like the oracle reads it."""
        filler = "".join(f"f{i}\tq{i % 5}\tf{i * 7 % 9000}\n"
                         for i in range(80_000)).encode("utf-8")
        assert len(filler) > 1 << 20
        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.object(data, "BLOCK_BYTES", block):
            path = written(directory, filler + tail)
            same_triples(outcome(load_triples, path),
                         outcome(oracle_load_triples, path))


class TestScores:
    @settings(max_examples=150, deadline=None)
    @given(blob=text_file(score_row), block=BLOCK)
    def test_matches_line_oracle(self, blob, block):
        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.object(data, "BLOCK_BYTES", block):
            path = written(directory, blob)
            same_scores(outcome(load_scores, path),
                        outcome(oracle_load_scores, path))

    @settings(max_examples=100, deadline=None)
    @given(blob=text_file(score_row), block=BLOCK)
    def test_second_load_matches_line_oracle(self, blob, block):
        """The load after the one that may write the parsed copy."""
        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.object(data, "BLOCK_BYTES", block):
            path = written(directory, blob)
            want = outcome(oracle_load_scores, path)
            for _ in range(2):
                same_scores(outcome(load_scores, path), want)
            assert scores_copy_path(path).exists() == (want[0] == "ok")

    @settings(max_examples=3, deadline=None)
    @given(tail=text_file(score_row, start=120_000), block=BIG_BLOCK)
    def test_error_in_a_later_megabyte_block(self, tail, block):
        filler = ("# submodel=filler\n" + "".join(
            f"{i}\t{i / 7!r}\n" for i in range(120_000))).encode("utf-8")
        assert len(filler) > 1 << 20
        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.object(data, "BLOCK_BYTES", block):
            path = written(directory, filler + b"\n" + tail)
            same_scores(outcome(load_scores, path),
                        outcome(oracle_load_scores, path))


class TestHeaderOnlyTables:
    def test_uniform_table_is_its_header(self, tmp_path):
        path = tmp_path / "weights.tsv"
        save_weight_table(uniform_weights(7), path)
        assert path.read_text(encoding="utf-8") == (
            "# source=none method=none alpha=- lambda=- submodel=- "
            "examples=7\n")
        table = oracle_load_weight_table(path)
        assert table.provenance == Provenance(source="none", method="none")
        np.testing.assert_array_equal(table.a, np.ones(7))
        np.testing.assert_array_equal(table.b, np.ones(7))

    def test_the_condition_is_the_weights_not_the_source(self, tmp_path):
        """A model-based table of all ones is its header too, and a
        table with one weight off 1 keeps its rows."""
        path = tmp_path / "weights.tsv"
        table = WeightTable(a=np.ones(4), b=np.ones(4),
                            provenance=Provenance("mbs", "freq", alpha=0.5,
                                                  submodel_id="m"))
        save_weight_table(table, path)
        assert path.read_text(encoding="utf-8").count("\n") == 1
        assert oracle_load_weight_table(path).provenance == table.provenance
        table.b[3] = 1.5
        save_weight_table(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5 and "examples=" not in lines[0]
        loaded = oracle_load_weight_table(path)
        assert loaded.b.tolist() == [1.0, 1.0, 1.0, 1.5]


class TestDatasetArrays:
    def test_splits_are_read_only_int64_arrays(self, toy_dataset):
        for split in (toy_dataset.train, toy_dataset.valid,
                      toy_dataset.test):
            assert split.dtype == np.int64 and split.ndim == 2
            assert split.shape[1] == 3
            with pytest.raises(ValueError):
                split[0, 0] = 1

    def test_empty_sequences_become_empty_arrays(self):
        dataset = Dataset(train=[(0, 0, 1)], valid=[], test=(),
                          vocab=make_vocab(2, 1))
        assert dataset.valid.shape == dataset.test.shape == (0, 3)

    def test_source_arrays_are_copied(self):
        ids = np.array([[0, 0, 1]])
        dataset = Dataset(train=ids, valid=ids, test=ids,
                          vocab=make_vocab(2, 1))
        ids[0, 0] = 1
        assert ids.flags.writeable
        assert dataset.train.tolist() == [[0, 0, 1]]


def no_parse(*args):
    raise AssertionError("the text was parsed")


def no_write(*args):
    raise AssertionError("a parsed copy was written")


def weight_text(table: WeightTable) -> str:
    """A table's text, one `repr` row at a time."""
    directions = ("tail-query", "head-query")
    return f"# {table.provenance.describe()}\n" + "".join(
        f"{i}\t{directions[i % 2]}\t{float(table.a[i])!r}\t"
        f"{float(table.b[i])!r}\n" for i in range(table.num_examples))


# finite doubles whose decimals are long, tiny, huge or signed zero
SCORE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308,
                                   0.1, -1 / 3]))


class TestScoresCopy:
    """`load_scores` keeps its parse beside the text and reads it back
    while the text is unchanged; the copy never changes what a load
    returns or raises."""

    @pytest.fixture
    def scores_file(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("# submodel=sé-中\n0\t1.5\n# note\n1\t-0.0\n"
                        "\n2\t5e-324\n3\t0.1\n", encoding="utf-8")
        return path

    @staticmethod
    def same_as_parse(got, path: Path) -> None:
        same_scores(("ok", got), outcome(oracle_load_scores, path))

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(SCORE, min_size=1, max_size=40), block=BLOCK)
    def test_hit_is_bitwise_the_parse(self, values, block):
        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.object(data, "BLOCK_BYTES", block):
            path = written(directory, ("# submodel=m\n" + "".join(
                f"{i}\t{v!r}\n" for i, v in enumerate(values))).encode())
            first = load_scores(path)
            assert scores_copy_path(path).is_file()
            with mock.patch.object(subsampling, "parse_text", no_parse):
                hit = load_scores(path)
            for got in (first, hit):
                self.same_as_parse(got, path)

    def test_hit_writes_nothing(self, scores_file, monkeypatch):
        load_scores(scores_file)
        copy = scores_copy_path(scores_file)
        before = copy.stat()
        monkeypatch.setattr(data, "write_container", no_write)
        load_scores(scores_file)
        after = copy.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                     before.st_mtime_ns)

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(SCORE, max_size=40), block=BLOCK,
           name=st.one_of(st.sampled_from(["m", "distmult-none-seed3"]),
                          st.text(alphabet=list("a =#\t\r\n\x0b\u2028"),
                                  max_size=6)))
    def test_saved_file_is_a_hit(self, values, block, name):
        """The copy that `save_scores` writes is what a parse of its text
        gives, the whole id included; an id with a tab or a line break
        is refused before anything is written, and no scores get no
        copy."""
        raw = np.array(values, dtype=np.float64)
        if {"\t", "\n", "\r"} & set(name):
            with pytest.raises(DataError, match="tab or a line break"):
                SubModelScores(raw, name)
            return
        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.object(data, "BLOCK_BYTES", block):
            path = Path(directory) / "scores.tsv"
            save_scores(SubModelScores(raw, name), path)
            copied = scores_copy_path(path).exists()
            assert copied == bool(values)
            want = outcome(oracle_load_scores, path)
            with mock.patch.object(subsampling, "parse_text",
                                   no_parse if copied else data.parse_text):
                same_scores(outcome(load_scores, path), want)
            if copied:
                assert want[1].submodel_id == name
                assert bitwise_equal(want[1].raw_score, raw)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_save_writes_the_text_as_before(self, tmp_path, monkeypatch,
                                            workers):
        """Block-wise rows, with `workers` CPUs, are the bytes of one
        `repr` row at a time, for row counts on both sides of a
        block."""
        monkeypatch.setattr(models, "_WORKERS", workers)
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, subsampling._ROWS - 1, subsampling._ROWS,
                  subsampling._ROWS + 1, 3 * subsampling._ROWS + 5):
            raw = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
            path = tmp_path / f"scores{n}.tsv"
            save_scores(SubModelScores(raw, "m"), path)
            assert path.read_text(encoding="utf-8") == "# submodel=m\n" + \
                "".join(f"{i}\t{float(v)!r}\n" for i, v in enumerate(raw))
            table = WeightTable(a=np.exp(raw / 1e300), b=np.abs(raw) + 1e-9,
                                provenance=Provenance("mbs", "freq"))
            save_weight_table(table, path)
            assert path.read_text(encoding="utf-8") == weight_text(table)

    def test_byte_order_mark_gives_the_same_scores(self, scores_file,
                                                   tmp_path):
        marked = tmp_path / "marked.tsv"
        marked.write_bytes("\ufeff".encode("utf-8") + scores_file.read_bytes())
        want = load_scores(scores_file)
        for _ in range(2):  # the parse, then its copy
            same_scores(("ok", load_scores(marked)), ("ok", want))
        assert scores_copy_path(marked).is_file()

    @pytest.mark.parametrize("block", [1, 7, data.BLOCK_BYTES])
    def test_edit_at_the_same_size_parses_again(self, scores_file, block):
        with mock.patch.object(data, "BLOCK_BYTES", block):
            old = load_scores(scores_file)
            text = scores_file.read_text(encoding="utf-8")
            scores_file.write_text(text.replace("1.5", "2.5"),
                                   encoding="utf-8")
            assert len(text) == len(scores_file.read_text(encoding="utf-8"))
            got = load_scores(scores_file)
            self.same_as_parse(got, scores_file)
            assert got.raw_score[0] == 2.5 != old.raw_score[0]
            with mock.patch.object(subsampling, "parse_text", no_parse):
                self.same_as_parse(load_scores(scores_file), scores_file)

    @staticmethod
    def _crafted(edit):
        def craft(path: Path) -> None:
            header, arrays = read_container(path)
            edit(header, arrays)
            write_container(path, header, arrays)
        return craft

    BAD_COPIES = {
        "truncated": lambda path: path.write_bytes(path.read_bytes()[:-3]),
        "empty": lambda path: path.write_bytes(b""),
        "not a container": lambda path: path.write_text("0\t1.5\n"),
        "wrong payload": _crafted(lambda header, arrays: header.update(
            payload="dataset")),
        "no payload": _crafted(lambda header, arrays: header.pop("payload")),
        "wrong digest": _crafted(lambda header, arrays: header.update(
            digest="0" * 64)),
        "id not a string": _crafted(lambda header, arrays: header.update(
            submodel=7)),
        "no id": _crafted(lambda header, arrays: header.pop("submodel")),
        "id with a tab": _crafted(lambda header, arrays: header.update(
            submodel="a\tb")),
        "wrong shape": _crafted(lambda header, arrays: arrays.update(
            raw_score=arrays["raw_score"].reshape(2, -1))),
        "no entries": _crafted(lambda header, arrays: arrays.update(
            raw_score=np.empty(0))),
        "renamed array": _crafted(lambda header, arrays: arrays.update(
            scores=arrays.pop("raw_score"))),
        "second array": _crafted(lambda header, arrays: arrays.update(
            extra=np.ones(2))),
        "nan score": _crafted(lambda header, arrays: arrays[
            "raw_score"].__setitem__(1, np.nan)),
        "inf score": _crafted(lambda header, arrays: arrays[
            "raw_score"].__setitem__(0, -np.inf)),
    }

    @pytest.mark.parametrize("name", list(BAD_COPIES))
    @pytest.mark.parametrize("block", [7, data.BLOCK_BYTES])
    def test_bad_copy_is_parsed_over_and_rewritten(self, scores_file, name,
                                                   block):
        copy = scores_copy_path(scores_file)
        with mock.patch.object(data, "BLOCK_BYTES", block):
            load_scores(scores_file)
            good = copy.read_bytes()
            self.BAD_COPIES[name](copy)
            assert copy.read_bytes() != good
            self.same_as_parse(load_scores(scores_file), scores_file)
            assert copy.read_bytes() == good

    def test_text_edited_during_the_parse_writes_no_copy(self, scores_file,
                                                         monkeypatch):
        old = scores_file.read_bytes()
        parse = subsampling.parse_text

        def racing(path, rows):  # an edit after the digest was taken
            scores_file.write_bytes(old.replace(b"1.5", b"2.5"))
            parse(path, rows)

        monkeypatch.setattr(subsampling, "parse_text", racing)
        assert load_scores(scores_file).raw_score[0] == 2.5
        monkeypatch.undo()
        assert not scores_copy_path(scores_file).exists()
        self.same_as_parse(load_scores(scores_file), scores_file)
        assert scores_copy_path(scores_file).exists()

    def test_copy_that_cannot_be_written_is_skipped(self, scores_file):
        scores_copy_path(scores_file).mkdir()
        for _ in range(2):
            self.same_as_parse(load_scores(scores_file), scores_file)
        save_scores(load_scores(scores_file), scores_file)
        self.same_as_parse(load_scores(scores_file), scores_file)
        assert scores_copy_path(scores_file).is_dir()

    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                        reason="needs a directory this user cannot write")
    def test_read_only_directory(self, scores_file):
        scores_file.parent.chmod(0o555)
        try:
            self.same_as_parse(load_scores(scores_file), scores_file)
            assert os.listdir(scores_file.parent) == [scores_file.name]
        finally:
            scores_file.parent.chmod(0o755)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("block", [1, data.BLOCK_BYTES])
    def test_non_finite_text_writes_no_copy(self, scores_file, value, block):
        scores_file.write_text(f"# submodel=m\n0\t1.5\n1\t{value}\n",
                               encoding="utf-8")
        with mock.patch.object(data, "BLOCK_BYTES", block):
            for _ in range(2):
                with pytest.raises(DegenerateInputError,
                                   match="'m' produced non-finite scores"):
                    load_scores(scores_file)
                assert not scores_copy_path(scores_file).exists()

    @pytest.mark.parametrize("bad", [b"2\t1.5\n", b"1\tx\n", b"1\n",
                                     b"1\t\xff\n"])
    @pytest.mark.parametrize("block", [1, 7, data.BLOCK_BYTES])
    def test_bad_text_fails_alike_with_a_stale_copy(self, scores_file, bad,
                                                    block):
        with mock.patch.object(data, "BLOCK_BYTES", block):
            load_scores(scores_file)
            stale = scores_copy_path(scores_file).read_bytes()
            scores_file.write_bytes(b"# submodel=m\n0\t1.5\n" + bad)
            want = outcome(oracle_load_scores, scores_file)
            assert want[0] is DataError
            assert want[1].startswith(f"{scores_file}:")  # with its line
            assert outcome(load_scores, scores_file) == want
            scores_copy_path(scores_file).unlink()
            assert outcome(load_scores, scores_file) == want
            assert not scores_copy_path(scores_file).exists()
            scores_copy_path(scores_file).write_bytes(stale)
            assert outcome(load_scores, scores_file) == want


class TestWriter:
    """Weight tables and score files are formatted in the calling
    process: the bytes depend on neither the CPU count nor the block
    size, and no process is started."""

    N = 3 * subsampling._ROWS + 5  # four blocks

    @staticmethod
    def table(n: int) -> WeightTable:
        rng = np.random.default_rng(n)
        return WeightTable(a=rng.gamma(1.0, size=n), b=rng.random(n) + 0.5,
                           provenance=Provenance("mix", "freq", 0.5, 0.5, "s"))

    @staticmethod
    def scores_text(raw: np.ndarray) -> str:
        return "# submodel=s\n" + "".join(
            f"{i}\t{float(v)!r}\n" for i, v in enumerate(raw))

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("rows", [1, 7, subsampling._ROWS])
    def test_bytes_depend_on_no_workers_or_block_rows(
            self, tmp_path, monkeypatch, workers, rows):
        n = self.N if rows == subsampling._ROWS else 23
        monkeypatch.setattr(models, "_WORKERS", workers)
        monkeypatch.setattr(subsampling, "_ROWS", rows)
        table = self.table(n)
        save_weight_table(table, tmp_path / "w.tsv")
        assert (tmp_path / "w.tsv").read_text(encoding="utf-8") == \
            weight_text(table)
        raw = np.random.default_rng(1).normal(size=n)
        save_scores(SubModelScores(raw, "s"), tmp_path / "s.tsv")
        assert (tmp_path / "s.tsv").read_text(encoding="utf-8") == \
            self.scores_text(raw)

    def test_no_process_is_started(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no process may start")
        monkeypatch.setattr(subprocess, "Popen", refuse)
        monkeypatch.setattr(models, "_WORKERS", 3)
        table = self.table(self.N)
        save_weight_table(table, tmp_path / "w.tsv")
        assert (tmp_path / "w.tsv").read_text(encoding="utf-8") == \
            weight_text(table)
        raw = np.arange(float(self.N))
        save_scores(SubModelScores(raw, "s"), tmp_path / "s.tsv")
        assert (tmp_path / "s.tsv").read_text(encoding="utf-8") == \
            self.scores_text(raw)
