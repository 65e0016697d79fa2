"""Parsing and serialization of instance files.

Three whitespace-separated, line-oriented formats:

  PROFILE <m> <alphabet>   followed by m rows of sigma integer scores
  PWM <n> <alphabet>       followed by n rows of sigma probabilities
  MCK <n> <V> <W>          followed, per class, by a line with the
                           class size and one `<v> <w>` line per item

Lines starting with `#` and blank lines are ignored.  Errors carry
1-based line numbers of the original file (none when the input holds
no content at all).  A PWM's rows are read into one float matrix by
one pass of numpy's C row reader and converted to NegLog units in one
call; the Python line walk runs only when that pass fails, to report
the error and its line.  Serialization is the exact inverse on files
produced by the generator: parse then serialize is byte-identical.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import neglog
from .capacity import MAX_ABS_MAGNITUDE, MAX_ITEMS
from .errors import DomainError, ParseError
from .knapsack import KnapsackInstance, make_instance
from .profile import _SCORE_LIMIT, ScoringMatrix
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


def _alphabet_error(alphabet: str) -> str | None:
    if len(set(alphabet)) != len(alphabet):
        return f"alphabet has repeated letters: {alphabet!r}"
    if any(c in alphabet for c in "#\x00\x01"):
        return "alphabet contains a reserved character"
    return None


def _check_alphabet(alphabet: str, lines: _Lines) -> None:
    error = _alphabet_error(alphabet)
    if error is not None:
        raise ParseError(error, lines.last)


def parse_profile(text: str) -> ScoringMatrix:
    lines = _Lines(text)
    header = lines.next("PROFILE header").split()
    if len(header) != 3 or header[0] != "PROFILE":
        raise ParseError("expected header `PROFILE <m> <alphabet>`", lines.last)
    m = _int(header[1], lines, "length")
    alphabet = header[2]
    _check_alphabet(alphabet, lines)
    if not (1 <= m < MAX_ITEMS):
        raise ParseError(f"profile length {m} out of range [1, {MAX_ITEMS})", lines.last)
    rows = []
    for _ in range(m):
        tokens = lines.next("a score row").split()
        if len(tokens) != len(alphabet):
            raise ParseError(
                f"expected {len(alphabet)} scores, got {len(tokens)}", lines.last
            )
        row = tuple(_int(t, lines, "score") for t in tokens)
        for s in row:
            if abs(s) >= _SCORE_LIMIT:
                raise ParseError(f"score out of 32-bit range: {s}", lines.last)
        rows.append(row)
    lines.expect_end()
    return ScoringMatrix(alphabet, tuple(rows))


def serialize_profile(profile: ScoringMatrix) -> str:
    out = [f"PROFILE {profile.m} {profile.alphabet}"]
    out.extend(" ".join(str(s) for s in row) for row in profile.scores)
    return "\n".join(out) + "\n"


def parse_pwm(text: str) -> WeightedSequence:
    """Read a PWM; its rows go through numpy's C row reader in one pass.

    When that pass cannot stand (see `_read_pwm_matrix`), the line walk
    `_parse_pwm_lines` reads the text again to name the error and its
    file line.
    """
    x = _read_pwm_matrix(text)
    return x if x is not None else _parse_pwm_lines(text)


def _read_pwm_matrix(text: str) -> WeightedSequence | None:
    """The sequence of a well-formed PWM, or None.

    None when the header is not valid, the reader rejects a token or
    warns (a comment line among the rows is a rejected token), the rows
    do not form exactly an n x sigma matrix, or `from_probabilities`
    finds a row that is not a sub-distribution.  The reader accepts no
    token that `float` rejects and splits on the same whitespace as
    `str.split`, so whatever it accepts the line walk reads the same.
    """
    lines = text.splitlines()
    # the header is the first line that is neither blank nor a comment
    k = next((k for k, raw in enumerate(lines) if raw.strip()[:1] not in ("", "#")), None)
    if k is None:
        return None
    header = lines[k].split()
    if len(header) != 3 or header[0] != "PWM" or _alphabet_error(header[2]):
        return None
    try:
        n = int(header[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = np.loadtxt(lines[k + 1:], comments=None, ndmin=2, dtype=np.float64)
    except (ValueError, Warning):
        return None
    if not (1 <= n < MAX_ITEMS) or probs.shape != (n, len(header[2])):
        return None
    try:
        return from_probabilities(header[2], probs)
    except DomainError:
        return None


def _parse_pwm_lines(text: str) -> WeightedSequence:
    """The line-by-line PWM reader: exact errors with file lines."""
    lines = _Lines(text)
    header = lines.next("PWM header").split()
    if len(header) != 3 or header[0] != "PWM":
        raise ParseError("expected header `PWM <n> <alphabet>`", lines.last)
    n = _int(header[1], lines, "length")
    alphabet = header[2]
    _check_alphabet(alphabet, lines)
    if not (1 <= n < MAX_ITEMS):
        raise ParseError(f"sequence length {n} out of range [1, {MAX_ITEMS})", lines.last)
    sigma = len(alphabet)
    values: list[float] = []  # row-major, sigma per row
    line_of: list[int] = []  # file line of each row, for error reports

    def matrix():
        # the rows read so far; ParseError at the first that is not a sub-distribution
        probs = np.array(values[: len(line_of) * sigma], dtype=np.float64).reshape(-1, sigma)
        bad = first_invalid_row(probs)
        if bad is not None:
            raise ParseError(bad[1], line_of[bad[0]])
        return probs

    try:
        for _ in range(n):
            tokens = lines.next("a probability row").split()
            if len(tokens) != sigma:
                raise ParseError(f"expected {sigma} probabilities, got {len(tokens)}", lines.last)
            try:
                values.extend(map(float, tokens))
            except ValueError:
                for t in tokens:
                    _float(t, lines, "probability")
            line_of.append(lines.last)
        lines.expect_end()
    except ParseError:
        matrix()  # an earlier line's error comes first
        raise
    return from_probabilities(alphabet, matrix())


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
