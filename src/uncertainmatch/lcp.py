"""Text index answering batches of pattern-text lcp queries by binary lifting.

`CrossLcpIndex` is the Karp-Miller-Rosenberg rank levels alone over
pattern + separator + text: level t names every length-2^t factor,
built by prefix doubling in numpy up to the longest possible answer,
the pattern length m.  A batch of queries costs one gather pair that
compares the first letters of every pair, then O(log m) gathers for
only the pairs whose first letters agree.
Level 0 holds dense letter ids; while two names fit side by side in
31 bits a doubling round packs them into the next name with no sort,
and otherwise it sorts the pair and ranks it into dense names again.
Positions are 1-based, as in the rest of the package.  `mismatch_walk`
is the one mismatch walk of the matchers: batched kangaroo rounds over
all live windows at once.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Reserved sentinel used to join two texts; lexicographically below
# every printable letter.  Parsers reject user input containing it.
SEPARATOR = "\x00"
# Placeholder letter for a weighted text's positions whose row became
# empty after pruning; never equal to any user letter or the separator.
EMPTY_ROW_FILLER = "\x01"


def _encode(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le"), dtype="<u4").astype(np.int32)


def _rank_levels(codes: np.ndarray, cap: int) -> np.ndarray:
    """KMR names of the length-2^t factors, for every 2^t <= cap.

    Level t holds an int32 name >= 1 of every length-2^t factor, cut
    short at the text end; two positions share a name exactly when
    their factors are equal.  Index n holds 0, the name of the empty
    suffix, which is also what a round reads past the text end.  Level
    0 names the letters by dense ids 1..D in code-point order, read
    from one table sized by the largest code point, and every name is
    below 2^w, with w = bit_length(D).  Round t -> t+1 (k = 2^t) names
    the pair (name[i], name[i + k]):
    - while 2w <= 31 it packs the pair, (name[i] << w) | name[i + k],
      into the next int32 name with no sort, and w doubles;
    - otherwise it sorts the 2w-bit pair key and ranks the distinct
      pairs 1..D', so w = bit_length(D').  It stops once all pairs
      differ: then no lcp of distinct positions reaches 2^(t+1).  With
      b = bit_length(n) and 2w + b <= 63 the sort key is one int64
      packing (pair, i), whose low bits give the order; past that the
      round argsorts the pair key.
    """
    n = len(codes)
    # one block, so rows never touched cost no memory and the levels
    # go back to the system at once when the block is freed
    levels = np.empty((max(cap, 1).bit_length(), n + 1), dtype=np.int32)
    ids = np.zeros(int(codes.max()) + 1, dtype=np.int32)
    ids[codes] = 1
    rank = levels[0]
    rank[:n] = np.cumsum(ids, out=ids)[codes]
    rank[n] = 0
    w = int(ids[-1]).bit_length()
    b = n.bit_length()
    t = 0
    while t + 1 < len(levels):
        k = 1 << t
        if 2 * w <= 31:
            t += 1
            nxt = levels[t]
            np.left_shift(rank, w, out=nxt)
            nxt[: n - k] |= rank[k:n]
            rank, w = nxt, 2 * w
            continue
        key = rank[:n].astype(np.int64)
        key <<= w
        key[: n - k] |= rank[k:n]
        if 2 * w + b <= 63:
            key <<= b
            key += np.arange(n)
            key.sort()
            order = key & ((1 << b) - 1)
            key >>= b
        else:
            order = np.argsort(key)
            key = key[order]
        new = np.ones(n, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        if new.all():
            break
        t += 1
        rank = levels[t]
        rank[n] = 0
        rank[order] = np.cumsum(new, dtype=np.int32)
        w = int(rank[order[-1]]).bit_length()
    return levels[: t + 1]


def _lift(levels: np.ndarray, a, b: np.ndarray) -> np.ndarray:
    """lcp of the 0-based suffixes a != b, if below 2^len(levels); `a`
    is one position or an array like `b`.

    One gather pair compares the first letters (level 0) of the whole
    batch; most answers of the matchers' walks end there at 0.  Only
    the pairs whose first letters agree are lifted, top level down,
    adding 2^t wherever the names at the current offsets agree, and
    their answers are scattered back.
    """
    first = levels[0]
    agree = first[a] == first[b]
    out = agree.astype(np.int64)
    rest = np.flatnonzero(agree)
    if len(rest):
        a = a[rest] if np.ndim(a) else a
        b = b[rest]
        got = np.zeros(len(rest), dtype=np.int64)
        for t in range(len(levels) - 1, -1, -1):
            level = levels[t]
            got += (level[a + got] == level[b + got]) << t
        out[rest] = got
    return out


class CrossLcpIndex:
    """lcp queries between suffixes of a pattern and suffixes of a text.

    Indexes the concatenation pattern + SEPARATOR + text; the separator
    is smaller than every user letter and never matches, so results are
    automatically truncated at the end of the pattern.  No answer
    exceeds m, so the index holds at most floor(log2 m) + 1 levels.
    """

    def __init__(self, pattern: str, text: str):
        if SEPARATOR in pattern or SEPARATOR in text:
            raise DomainError("input contains the reserved separator character")
        self.m = len(pattern)
        self.n = len(text)
        self.levels = _rank_levels(_encode(pattern + SEPARATOR + text), self.m)

    def cross_lcp(self, i: int, j: int) -> int:
        """lcp of pattern[i..m] and text[j..n]."""
        if not (1 <= i <= self.m):
            raise DomainError(f"pattern position out of range: {i}")
        if not (1 <= j <= self.n):
            raise DomainError(f"text position out of range: {j}")
        return int(_lift(self.levels, i - 1, np.array([j + self.m]))[0])

    def cross_lcp_batch(self, i, js: np.ndarray) -> np.ndarray:
        """`cross_lcp(i, j)` for every j in `js`; `i` is one position or an array like `js`."""
        i = np.asarray(i, dtype=np.int64)
        js = np.asarray(js, dtype=np.int64)
        if i.ndim and i.shape != js.shape:
            raise DomainError(f"{len(i)} pattern positions for {len(js)} text positions")
        if i.size and not (1 <= i.min() and i.max() <= self.m):
            raise DomainError(f"pattern position out of range: {i.min()}..{i.max()}")
        if len(js) and not (1 <= js.min() and js.max() <= self.n):
            raise DomainError(f"text position out of range: {js.min()}..{js.max()}")
        return _lift(self.levels, i - 1, js + self.m)


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
