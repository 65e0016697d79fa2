"""Parsing and serialization of instance files.

Three whitespace-separated, line-oriented formats:

  PROFILE <m> <alphabet>   followed by m rows of sigma integer scores
  PWM <n> <alphabet>       followed by n rows of sigma probabilities
  MCK <n> <V> <W>          followed, per class, by a line with the
                           class size and one `<v> <w>` line per item

Lines starting with `#` and blank lines are ignored.  Errors carry
1-based line numbers of the original file (none when the input holds
no content at all).  PROFILE and PWM files share one reader: one pass
of numpy's C row reader reads the rows into one matrix (int64 scores,
float probabilities), handed whole to `ScoringMatrix` or to
`from_probabilities`; the Python line walk runs only when that pass
fails, to report the error and its line.  The two formats differ only
in what `_Table` holds: the header word, the number type, the test of
a bad row and the constructor.  Serialization is the exact inverse on
files produced by the generator: parse then serialize is
byte-identical.
"""

from __future__ import annotations

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


# numpy's int64 reader can crash the interpreter on a non-ASCII token
# (a segmentation fault on U+DBFCE in 4 of 5 runs, numpy 2.4) and reads
# no non-ASCII digit, so profile rows that are not ASCII go to the walk
_PROFILE = _Table("PROFILE", "m", "profile length", "score", "scores", _int, np.int64, True,
                  object, first_out_of_range, ScoringMatrix)
# `from_probabilities` is looked up at each call, so a tracer that
# patches it sees every PWM build
_PWM = _Table("PWM", "n", "sequence length", "probability", "probabilities", _float,
              np.float64, False, np.float64, first_invalid_row,
              lambda alphabet, rows: from_probabilities(alphabet, rows))


def parse_profile(text: str) -> ScoringMatrix:
    return _parse_table(text, _PROFILE)


def serialize_profile(profile: ScoringMatrix) -> str:
    out = [f"PROFILE {profile.m} {profile.alphabet}"]
    out.extend(" ".join(map(str, row)) for row in profile.scores.tolist())
    return "\n".join(out) + "\n"


def parse_pwm(text: str) -> WeightedSequence:
    return _parse_table(text, _PWM)


def _parse_table(text: str, fmt: _Table):
    """Read a PROFILE or PWM file; its rows go through numpy's C row
    reader in one pass.

    When that pass cannot stand (see `_read_table`), the line walk
    `_walk_table` reads the text again to name the error and its file
    line.
    """
    x = _read_table(text, fmt)
    return x if x is not None else _walk_table(text, fmt)


def _read_table(text: str, fmt: _Table):
    """The object of a well-formed file, or None.

    None when the header is not valid, a row is not ASCII where `fmt`
    takes ASCII rows only, the reader rejects a token or warns (a
    comment line among the rows is a rejected token), the rows do not
    form exactly an n x sigma matrix, or `fmt.build` refuses them.  The
    reader accepts no token that `fmt.token` rejects (its
    integers are a subset of `int`'s: no `1_0`, no non-ASCII digits,
    nothing past int64) and splits on the same whitespace as
    `str.split`, so whatever it accepts the line walk reads the same.
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
        del lines  # one string per line: free them before the build
        if 1 <= n < MAX_ITEMS and rows.shape == (n, len(header[2])):
            return fmt.build(header[2], rows)
    except (ValueError, Warning):  # a DomainError is a ValueError
        pass
    return None


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
