"""Suffix-array text index answering lcp(i, j) queries in O(1).

The index holds the suffix array, its inverse, the LCP table and a
sparse-table range-minimum structure.  Construction is O(n log n) and
all numpy: prefix doubling (Karp-Miller-Rosenberg) ranks the length-2^t
factors, and the LCP table is read off those rank levels by binary
lifting.  Queries use 1-based positions throughout, matching the rest
of the package.  `mismatch_walk` is the one mismatch walk of the
matchers: batched kangaroo rounds over all live windows at once.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Reserved sentinel used to join two texts; lexicographically below
# every printable letter.  Parsers reject user input containing it.
SEPARATOR = "\x00"


def _encode(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le"), dtype="<u4").astype(np.int32)


def _suffix_array_lcp(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Suffix array and LCP table by prefix doubling, O(n log n).

    Level t holds the int32 rank of every length-2^t factor (n < 2^31),
    padded at index n with -1, the rank of the empty suffix.  Each
    round sorts one combined int64 key (rank[i], rank[i + 2^t] + 1) and
    stops once all keys differ.  For distinct positions, equal level-t
    ranks mean a common prefix of length 2^t, so the lcp of each
    adjacent pair (sa[r], sa[r+1]) is found by binary lifting down the
    levels: add 2^t wherever the ranks at the current offset agree.
    """
    n = len(codes)
    # one block, so rows never touched cost no memory and the levels
    # go back to the system at once when the block is freed
    levels = np.empty((n.bit_length(), n + 1), dtype=np.int32)
    rank = levels[0]
    rank[:n] = codes
    rank[n] = -1
    t, k = 0, 1
    while True:
        key = rank[:n].astype(np.int64)
        key <<= 32
        key[: n - k] += rank[k:n] + 1
        sa = np.argsort(key)
        key = key[sa]
        new = key[1:] != key[:-1]
        if new.all():
            break
        t, k = t + 1, 2 * k
        rank = levels[t]
        rank[n] = -1
        rank[sa[0]] = 0
        rank[sa[1:]] = np.cumsum(new, dtype=np.int32)
    # the length-2k factors all differ, so every lcp is below 2k
    del key, new
    a, b = sa[:-1], sa[1:]
    lcp = np.zeros(n - 1, dtype=np.int64)
    for t in range(t, -1, -1):
        level = levels[t]
        lcp += (level[a + lcp] == level[b + lcp]).astype(np.int64) << t
    return sa, lcp


class _SparseTable:
    """Range-minimum structure: O(n log n) space, O(1) query.

    Level k, the minima of all 2^k-long runs, is table[start[k]:], so
    a batch of ranges of mixed lengths is answered by two gathers.
    """

    def __init__(self, values: np.ndarray):
        n = len(values)
        sizes = [n - (1 << k) + 1 for k in range(n.bit_length())]
        self.start = np.cumsum([0] + sizes[:-1])
        self.table = np.empty(sum(sizes), dtype=np.int64)
        self.table[:n] = values
        for k in range(1, len(sizes)):
            prev = self.table[self.start[k - 1]:]
            half = 1 << (k - 1)
            np.minimum(prev[: sizes[k]], prev[half: half + sizes[k]],
                       out=self.table[self.start[k]: self.start[k] + sizes[k]])

    def query_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Minimum over each inclusive index range [lo, hi] of two parallel arrays."""
        # frexp is exact on integers below 2^53, unlike log2 rounding
        ks = np.frexp(hi - lo + 1)[1] - 1
        base = self.start[ks]
        out = self.table[base + lo]
        base += hi + 1
        base -= 1 << ks
        return np.minimum(out, self.table[base], out=out)


class LcpIndex:
    """Longest-common-prefix oracle over a fixed text (1-based)."""

    def __init__(self, text: str):
        if len(text) == 0:
            raise DomainError("cannot index an empty text")
        self.text = text
        self.n = len(text)
        sa, lcp = _suffix_array_lcp(_encode(text))
        self.suffix_array = sa
        inverse = np.empty(self.n, dtype=np.int64)
        inverse[sa] = np.arange(self.n)
        self.inverse_sa = inverse
        self._rmq = _SparseTable(lcp)
        self.lcp_table = self._rmq.table[: self.n - 1]  # level 0

    def lcp(self, i: int, j: int) -> int:
        """Length of the longest common prefix of text[i..n] and text[j..n]."""
        n = self.n
        if not (1 <= i <= n) or not (1 <= j <= n):
            raise DomainError(f"lcp position out of range: ({i}, {j}), n={n}")
        return int(self.lcp_batch(i, [j])[0])

    def lcp_batch(self, i, js: np.ndarray) -> np.ndarray:
        """`lcp(i, j)` for every j in `js`; `i` is one position or an array like `js`."""
        n = self.n
        i = np.asarray(i, dtype=np.int64)
        js = np.asarray(js, dtype=np.int64)
        if (i.size and not (1 <= i.min() and i.max() <= n)) or \
                (len(js) and not (1 <= js.min() and js.max() <= n)):
            raise DomainError(f"lcp position out of range, n={n}")
        if n == 1:
            return np.ones(len(js), dtype=np.int64)
        ri = self.inverse_sa[i - 1]
        rj = self.inverse_sa[js - 1]
        # j == i gives hi < lo, and may sit at the last rank: any valid
        # range will do, its answer is replaced below
        lo = np.minimum(np.minimum(ri, rj), n - 2)
        hi = np.maximum(ri, rj, out=rj)
        hi -= 1
        out = self._rmq.query_batch(lo, np.maximum(hi, lo, out=hi))
        return np.where(js == i, n - i + 1, out)


class CrossLcpIndex:
    """lcp queries between suffixes of a pattern and suffixes of a text.

    Indexes the concatenation pattern + SEPARATOR + text; the separator
    is smaller than every user letter and never matches, so results are
    automatically truncated at the end of the pattern.
    """

    def __init__(self, pattern: str, text: str):
        if SEPARATOR in pattern or SEPARATOR in text:
            raise DomainError("input contains the reserved separator character")
        self.m = len(pattern)
        self.n = len(text)
        self._index = LcpIndex(pattern + SEPARATOR + text)

    def cross_lcp(self, i: int, j: int) -> int:
        """lcp of pattern[i..m] and text[j..n]."""
        if not (1 <= i <= self.m):
            raise DomainError(f"pattern position out of range: {i}")
        if not (1 <= j <= self.n):
            raise DomainError(f"text position out of range: {j}")
        return self._index.lcp(i, self.m + 1 + j)

    def cross_lcp_batch(self, i, js: np.ndarray) -> np.ndarray:
        """`cross_lcp(i, j)` for every j in `js`; `i` is one position or an array like `js`."""
        i = np.asarray(i, dtype=np.int64)
        js = np.asarray(js, dtype=np.int64)
        if i.size and not (1 <= i.min() and i.max() <= self.m):
            raise DomainError(f"pattern position out of range: {i.min()}..{i.max()}")
        if len(js) and not (1 <= js.min() and js.max() <= self.n):
            raise DomainError(f"text position out of range: {js.min()}..{js.max()}")
        return self._index.lcp_batch(i, js + self.m + 1)


# windows walked together: on the benchmark's 20k- and 30k-window jobs
# 2^13 gave the lowest peak RSS of 2^10..2^16 at the same speed (larger
# blocks hold more temporaries, smaller ones fragment the heap)
WALK_BLOCK = 1 << 13


def mismatch_walk(index: CrossLcpIndex, starts: np.ndarray, step) -> np.ndarray:
    """Landau-Vishkin kangaroo rounds over many windows at once.

    Window w aligns the pattern with the text from 0-based position
    starts[w].  Each round, one `cross_lcp_batch` query per live window
    jumps it to its next mismatch; `step(w, f)` gets the windows w
    (indices into `starts`) that have one, at pattern offsets f, and
    returns the mask of those that walk on.  Returns, in increasing
    order, the windows left with no mismatch before the pattern's end.
    """
    m = index.m
    ended = [np.empty(0, dtype=np.int64)]
    for first in range(0, len(starts), WALK_BLOCK):
        live = np.arange(first, min(first + WALK_BLOCK, len(starts)))
        off = np.zeros(len(live), dtype=np.int64)
        while len(live):
            f = off + index.cross_lcp_batch(off + 1, starts[live] + off + 1)
            hit = f < m
            ended.append(live[~hit])
            live, f = live[hit], f[hit]
            keep = step(live, f)
            live, off = live[keep], f[keep] + 1
            done = off == m
            ended.append(live[done])
            live, off = live[~done], off[~done]
    return np.sort(np.concatenate(ended))


def build_index(text: str) -> LcpIndex:
    return LcpIndex(text)


def build_cross_index(pattern: str, text: str) -> CrossLcpIndex:
    return CrossLcpIndex(pattern, text)


def naive_lcp(a: str, b: str) -> int:
    """Character-by-character common-prefix length (test oracle)."""
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k
