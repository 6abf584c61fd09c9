"""Text rows of float columns, formatted in the calling process or in a
helper interpreter.

`format_rows` turns one block of rows into the bytes of
`example_id[<TAB>label]<TAB>value...` lines, each value the shortest
round-trip decimal of its float (its `repr`).  The module imports only
the standard library, and of that only `struct` beyond what a bare
interpreter has loaded (`typing` alone would more than double a
helper's start-up), so a helper runs it as a script, without numpy or
kgesub:

    python -I -S _rowtext.py NUM_COLUMNS [LABEL...]

reads blocks from stdin until it closes, each a `<2q` (first row id,
row count) header and then each column's float64 values in native byte
order, and writes each block's rows to stdout as a `<q` byte count and
then the bytes.  The labels are given to rows in turn by row id: row i
gets `LABEL[i % len(LABEL)]`.  `send_block` and `receive_block` are the
other end of those pipes.
"""

from __future__ import annotations

import io
import struct
import sys

_HEADER = struct.Struct("<2q")  # (first row id, row count) of a block
_LENGTH = struct.Struct("<q")  # bytes of a formatted block


def format_rows(start: int, columns: list[list[float]],
                labels: tuple[str, ...] = ()) -> bytes:
    """The lines of rows start, start + 1, ... of `columns`, as UTF-8."""
    m, width = len(columns[0]), 1 + bool(labels) + len(columns)
    fields: list = [None] * (m * width)
    fields[0::width] = range(start, start + m)
    if labels:
        first = start % len(labels)
        fields[1::width] = (labels * (m // len(labels) + 2))[first:first + m]
    for c, column in enumerate(columns, width - len(columns)):
        fields[c::width] = column
    line = "\t".join(["%d"] + ["%s"] * bool(labels)
                     + ["%r"] * len(columns)) + "\n"
    return (line * m % tuple(fields)).encode()


def send_block(stream: io.BufferedIOBase, start: int, columns: list) -> None:
    """Send a helper the rows start, start + 1, ... of `columns`, each a
    C-contiguous float64 buffer."""
    stream.write(_HEADER.pack(start, len(columns[0])))
    for column in columns:
        stream.write(column)


def receive_block(stream: io.BufferedIOBase) -> bytes | None:
    """The next block that a helper sends, None when it sent less."""
    head = stream.read(_LENGTH.size)
    if len(head) != _LENGTH.size:
        return None
    size = _LENGTH.unpack(head)[0]
    block = stream.read(size)
    return block if len(block) == size else None


def _serve(num_columns: int, labels: tuple[str, ...]) -> None:
    """Format the blocks of stdin onto stdout (the helper's side)."""
    data = memoryview(sys.stdin.buffer.read())
    out = sys.stdout.buffer
    pos = 0
    while pos < len(data):
        start, m = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        values = data[pos:pos + 8 * m * num_columns].cast("d")
        pos += 8 * m * num_columns
        block = format_rows(start, [values[c * m:(c + 1) * m].tolist()
                                    for c in range(num_columns)], labels)
        out.write(_LENGTH.pack(len(block)))
        out.write(block)
    out.flush()


if __name__ == "__main__":
    _serve(int(sys.argv[1]), tuple(sys.argv[2:]))
