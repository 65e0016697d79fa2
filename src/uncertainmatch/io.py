"""Parsing and serialization of instance files.

Three whitespace-separated, line-oriented formats:

  PROFILE <m> <alphabet>   followed by m rows of sigma integer scores
  PWM <n> <alphabet>       followed by n rows of sigma probabilities
  MCK <n> <V> <W>          followed, per class, by a line with the
                           class size and one `<v> <w>` line per item

Lines starting with `#` and blank lines are ignored.  Errors carry
1-based line numbers of the original file (none when the input holds
no content at all).  PROFILE and PWM files share one reader that reads
the rows into one matrix (int64 scores, float probabilities), handed
whole to `ScoringMatrix` or to `from_probabilities`.  A PWM file of at
least `FIXED_ROW_FLOOR` rows in one fixed byte layout (every body line
the same length, with its dots, spaces and tabs in the same columns, as
`%.6f` writers print them) is read from one byte buffer of the text:
each number is its digits' integer divided by a power of ten.  Every
other file goes through one pass of numpy's C row reader.  The Python
line walk runs only when neither reads the file, to report the error
and its line.  The two formats differ only in what `_Table` holds: the
header word, the number type, the test of a bad row, the constructor
and whether the fixed-layout reader applies.  Serialization is the
exact inverse on files produced by the generator: parse then serialize
is byte-identical.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Callable
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import neglog
from .capacity import MAX_ABS_MAGNITUDE, MAX_ITEMS
from .errors import DomainError, ParseError
from .knapsack import KnapsackInstance, make_instance
from .profile import ScoringMatrix, check_alphabet, first_out_of_range
from .weighted import WeightedSequence, first_invalid_row, from_probabilities


def _logical_lines(text: str):
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield num, line


class _Lines:
    def __init__(self, text: str):
        self._it = _logical_lines(text)
        self.last = 0

    def next(self, what: str) -> str:
        try:
            self.last, line = next(self._it)
            return line
        except StopIteration:
            # an input with no content has no line to point at
            raise ParseError(f"unexpected end of file, expected {what}",
                             self.last or None) from None

    def expect_end(self) -> None:
        try:
            num, line = next(self._it)
        except StopIteration:
            return
        raise ParseError(f"trailing content: {line!r}", num)


def _int(token: str, lines: _Lines, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer {what}, got {token!r}", lines.last) from None


def _float(token: str, lines: _Lines, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"expected a number {what}, got {token!r}", lines.last) from None


class _Table(NamedTuple):
    """What a PROFILE file's reading does not share with a PWM file's."""

    word: str  # header word
    count: str  # the header's name of the row count
    length: str  # the row count in its range error
    entry: str  # one number of a row, in error messages
    entries: str
    token: Callable  # one token's number, or ParseError
    dtype: type  # of numpy's one-pass read
    ascii_only: bool  # rows with other letters skip that read
    walk_dtype: type  # of the line walk's rows, exact for every number `token` returns
    bad_row: Callable  # (0-based row, why) of the first row `build` refuses, or None
    build: Callable  # (alphabet, rows) -> the object read
    fixed_layout: bool  # rows of plain decimals in one byte layout skip the row reader


# numpy's int64 reader can crash the interpreter on a non-ASCII token
# (a segmentation fault on U+DBFCE in 4 of 5 runs, numpy 2.4) and reads
# no non-ASCII digit, so profile rows that are not ASCII go to the walk
_PROFILE = _Table("PROFILE", "m", "profile length", "score", "scores", _int, np.int64, True,
                  object, first_out_of_range, ScoringMatrix, False)
# `from_probabilities` is looked up at each call, so a tracer that
# patches it sees every PWM build
_PWM = _Table("PWM", "n", "sequence length", "probability", "probabilities", _float,
              np.float64, False, np.float64, first_invalid_row,
              lambda alphabet, rows: from_probabilities(alphabet, rows), True)


def parse_profile(text: str) -> ScoringMatrix:
    return _parse_table(text, _PROFILE)


def serialize_profile(profile: ScoringMatrix) -> str:
    out = [f"PROFILE {profile.m} {profile.alphabet}"]
    out.extend(" ".join(map(str, row)) for row in profile.scores.tolist())
    return "\n".join(out) + "\n"


def parse_pwm(text: str) -> WeightedSequence:
    return _parse_table(text, _PWM)


def _parse_table(text: str, fmt: _Table):
    """Read a PROFILE or PWM file; its rows are read in one pass, by the
    fixed-layout reader or by numpy's C row reader.

    When that pass cannot stand (see `_read_table`), the line walk
    `_walk_table` reads the text again to name the error and its file
    line.
    """
    x = _read_table(text, fmt)
    return x if x is not None else _walk_table(text, fmt)


def _read_table(text: str, fmt: _Table):
    """The object of a well-formed file, or None.

    The rows come from the fixed-layout reader `_read_fixed` where `fmt`
    allows it (PWM files) and the file has that layout: an ASCII file
    whose first line is the header, with at least `FIXED_ROW_FLOOR`
    rows of plain decimals, each line the same length with the same
    non-digit bytes in the same columns.  Every other file goes to
    numpy's C row reader (`_read_rows`).  Both read every number as
    `float(token)` and the rows as the line walk does.  None when
    neither reads the file or `fmt.build` refuses the rows; the line
    walk then names the error.
    """
    read = _read_fixed(text, fmt) if fmt.fixed_layout else None
    if read is None:
        read = _read_rows(text, fmt)
    if read is None:
        return None
    try:
        return fmt.build(*read)
    except ValueError:  # a DomainError is a ValueError
        return None


def _read_rows(text: str, fmt: _Table):
    """(alphabet, n x sigma rows) from numpy's C row reader, or None.

    None when the header is not valid, a row is not ASCII where `fmt`
    takes ASCII rows only, the reader rejects a token or warns (a
    comment line among the rows is a rejected token), or the rows do
    not form exactly an n x sigma matrix.  The reader accepts no token
    that `fmt.token` rejects (its integers are a subset of `int`'s: no
    `1_0`, no non-ASCII digits, nothing past int64) and splits on the
    same whitespace as `str.split`, so whatever it accepts the line walk
    reads the same.  The one string per line is freed on return, before
    the build.
    """
    lines = text.splitlines()
    # the header is the first line that is neither blank nor a comment
    k = next((k for k, raw in enumerate(lines) if raw.strip()[:1] not in ("", "#")), None)
    if k is None:
        return None
    header = lines[k].split()
    if len(header) != 3 or header[0] != fmt.word or \
            fmt.ascii_only and not all(map(str.isascii, islice(lines, k + 1, None))):
        return None
    try:
        n = int(header[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines[k + 1:], comments=None, ndmin=2, dtype=fmt.dtype)
    except (ValueError, Warning):
        return None
    if 1 <= n < MAX_ITEMS and rows.shape == (n, len(header[2])):
        return header[2], rows
    return None


# Header row counts below this go to numpy's row reader: on shorter
# files the fixed-layout reader saves less than its first call costs.
# parse_pwm of `%.6f` files over acgt, median of 1,000 alternated
# in-process calls per size (2-core VM, CPython 3.11, numpy 2.4), saved
# 26 us at 161 rows, 35 at 192, 45 at 224, 75-84 at 256-320 and 102 at
# 384 (it cost 18 us more at 12 rows and broke even near 80).  The
# first matrix product of a process starts numpy's BLAS: 44-59 us and
# 0.38 MB of RSS, which showed as +0.5 MB peak RSS on the 161-row texts
# of the `gwpm-short` benchmark with a floor of 80.
FIXED_ROW_FLOOR = 256
# Rows tested and summed per step, which bounds the float copy of their
# bytes.  On a 20k-row benchmark text (same host) the reader took a
# median 1.23-1.25 ms with blocks of 2^10 rows, 1.28 ms with 2^11,
# 1.41 ms with 2^9 and 2.30-2.46 ms with 2^12, whose 1.2 MB copies are
# fresh pages each time.
FIXED_BLOCK = 1 << 10
_FIXED_TOKEN = re.compile(r"[^ \t]+")
_DECIMAL = re.compile(r"[0-9]*\.?[0-9]*")
_POW10 = [float(10 ** k) for k in range(16)]  # exact: 10^k < 2^53
# byte maps of a layout: each digit to '0' (its lowest value) and to 9
# (its range), every other byte to itself and to 0
_LOWEST = bytes.maketrans(b"123456789", b"000000000")
_RANGE = bytes(9 if ord("0") <= b <= ord("9") else 0 for b in range(256))


def _read_fixed(text: str, fmt: _Table):
    """(alphabet, n x sigma probabilities) of a fixed-layout file, or None.

    A file has the fixed layout when it is ASCII, its first line is the
    header, the header's row count n is at least `FIXED_ROW_FLOOR`, and
    the n lines after it, all there is, have the same length and the
    same non-digit bytes in the same columns as the first of them, with
    the header's line break ("\n" or "\r\n") after each, which the last
    line may lack.  The first body line must hold sigma tokens separated
    by spaces or tabs, each a plain decimal: digits with at most one
    dot, 1 to 15 digits in all, as `%.6f` writers print them.  Such a
    token's digits, read as one integer, stay below 2^53, and 10^k is
    exact for k <= 15, so the integer divided by 10^k, one correctly
    rounded division, is exactly `float(token)` (Clinger's exact case):
    the line walk reads the same rows.

    Lengths are tested on the text before it is encoded once.  Row r of
    the byte grid is the line break before body line r and the line:
    one (n, width) view of the encoded text.  Block by block, every byte
    is tested against the first row's layout, and the digits' values
    are summed in one product with a matrix of powers of ten.
    """
    nl = text.find("\n")
    head = text[:nl].splitlines()
    if nl < 0 or len(head) != 1:
        return None
    header = head[0].split()
    if len(header) != 3 or header[0] != fmt.word or not text.isascii():
        return None
    try:
        n = int(header[1])
    except ValueError:
        return None
    eol = "\r\n" if text.startswith("\r", nl - 1) else "\n"
    start = nl + 1 - len(eol)  # the first row: the header's line break and body line 1
    width = text.find("\n", nl + 1) + 1 - (nl + 1)
    tail = len(text) - start - n * width  # the last line's break: all there or none
    if not (FIXED_ROW_FLOOR <= n < MAX_ITEMS and width > len(eol)
            and (tail == 0 or tail == len(eol) and text.endswith(eol))):
        return None
    layout = text[start: start + width]
    sigma = len(header[2])
    tokens = list(_FIXED_TOKEN.finditer(layout, len(eol)))
    if len(tokens) != sigma or not all(
            _DECIMAL.fullmatch(t[0]) and 1 <= len(t[0].replace(".", "")) <= 15 for t in tokens):
        return None
    # the power of ten of each digit column in its token's column, and
    # each token's scale: 10 ** (its digits after the dot)
    powers = [0.0] * (width * sigma)
    scale = []
    for j, t in enumerate(tokens):
        cols = [t.start() + i for i, c in enumerate(t[0]) if c != "."]
        for k, c in enumerate(reversed(cols)):
            powers[c * sigma + j] = _POW10[k]
        dot = t[0].find(".")
        scale.append(_POW10[len(t[0]) - 1 - dot] if dot >= 0 else 1.0)
    powers, scale = np.array(powers).reshape(width, sigma), np.array(scale)
    layout = layout.encode()
    lowest = np.frombuffer(layout.translate(_LOWEST), dtype=np.uint8)
    span = np.frombuffer(layout.translate(_RANGE), dtype=np.uint8)
    grid = np.ndarray((n, width), np.uint8, text.encode("ascii"), start, (width, 1))
    rows = np.empty((n, sigma))
    for first in range(0, n, FIXED_BLOCK):
        # a digit's offset from '0', and 0 at a byte equal to the layout's;
        # every other byte wraps past its column's range
        offsets = np.subtract(grid[first: first + FIXED_BLOCK], lowest, dtype=np.uint8)
        if not (offsets <= span).all():
            return None
        out = rows[first: first + FIXED_BLOCK]
        np.matmul(offsets.astype(np.float64), powers, out=out)
        out /= scale
    return header[2], rows


def _walk_table(text: str, fmt: _Table):
    """The line-by-line reader: exact errors with file lines."""
    lines = _Lines(text)
    header = lines.next(f"{fmt.word} header").split()
    if len(header) != 3 or header[0] != fmt.word:
        raise ParseError(f"expected header `{fmt.word} <{fmt.count}> <alphabet>`", lines.last)
    n = _int(header[1], lines, "length")
    alphabet = header[2]
    try:
        check_alphabet(alphabet)
    except DomainError as exc:
        raise ParseError(str(exc), lines.last) from None
    if not (1 <= n < MAX_ITEMS):
        raise ParseError(f"{fmt.length} {n} out of range [1, {MAX_ITEMS})", lines.last)
    sigma = len(alphabet)
    values: list = []  # row-major, sigma per row
    line_of: list[int] = []  # file line of each row, for error reports

    def table():
        # the rows read so far; ParseError at the first that `fmt.build` refuses
        rows = np.array(values[: len(line_of) * sigma], dtype=fmt.walk_dtype)
        rows = rows.reshape(-1, sigma)
        bad = fmt.bad_row(rows)
        if bad is not None:
            raise ParseError(bad[1], line_of[bad[0]])
        return rows

    try:
        for _ in range(n):
            tokens = lines.next(f"a {fmt.entry} row").split()
            if len(tokens) != sigma:
                raise ParseError(f"expected {sigma} {fmt.entries}, got {len(tokens)}",
                                 lines.last)
            values.extend(fmt.token(t, lines, fmt.entry) for t in tokens)
            line_of.append(lines.last)
        lines.expect_end()
    except ParseError:
        table()  # an earlier line's error comes first
        raise
    return fmt.build(alphabet, table())


def serialize_pwm(x: WeightedSequence) -> str:
    if x.probs is not None:
        prob_rows = x.probs.tolist()
    else:
        prob_rows = [[neglog.to_probability(u) for u in row] for row in x.units.tolist()]
    out = [f"PWM {x.n} {x.alphabet}"]
    out.extend(" ".join(repr(p) for p in row) for row in prob_rows)
    return "\n".join(out) + "\n"


def parse_mck(text: str) -> KnapsackInstance:
    lines = _Lines(text)
    header = lines.next("MCK header").split()
    if len(header) != 4 or header[0] != "MCK":
        raise ParseError("expected header `MCK <n> <V> <W>`", lines.last)
    n = _int(header[1], lines, "class count")
    V = _int(header[2], lines, "value threshold")
    W = _int(header[3], lines, "weight threshold")
    if not (1 <= n < MAX_ITEMS):
        raise ParseError(f"class count {n} out of range [1, {MAX_ITEMS})", lines.last)
    classes = []
    total = 0
    for _ in range(n):
        size = _int(lines.next("a class size").strip(), lines, "class size")
        if size < 1:
            raise ParseError(f"class size must be positive, got {size}", lines.last)
        total += size
        if total >= MAX_ITEMS:
            raise ParseError(f"total item count exceeds {MAX_ITEMS}", lines.last)
        cls = []
        for _ in range(size):
            tokens = lines.next("an item `<v> <w>`").split()
            if len(tokens) != 2:
                raise ParseError(f"expected `<v> <w>`, got {tokens!r}", lines.last)
            v = _int(tokens[0], lines, "item value")
            w = _int(tokens[1], lines, "item weight")
            if abs(v) >= MAX_ABS_MAGNITUDE or abs(w) >= MAX_ABS_MAGNITUDE:
                raise ParseError("item magnitude exceeds 2^40", lines.last)
            cls.append((v, w))
        classes.append(cls)
    lines.expect_end()
    return make_instance(classes, V, W)


def serialize_mck(inst: KnapsackInstance) -> str:
    out = [f"MCK {inst.n} {inst.V} {inst.W}"]
    for cls in inst.classes:
        out.append(str(len(cls)))
        out.extend(f"{it.v} {it.w}" for it in cls)
    return "\n".join(out) + "\n"
