import math
import random
import traceback
import tracemalloc

import numpy as np
import pytest

from uncertainmatch import cli, consensus, io, neglog, weighted
from uncertainmatch import knapsack as K
from uncertainmatch.consensus import (
    GWPM_ALGOS,
    WcInstance,
    gwpm,
    gwpm_witness,
    knapsack_to_wc,
    wc_to_knapsack,
    weighted_consensus,
)
from uncertainmatch.errors import CapacityError, DomainError
from uncertainmatch.reference import hamming, naive_consensus
from uncertainmatch.weighted import (
    ProbThreshold,
    WeightedSequence,
    from_probabilities,
    heavy_string,
    match_neglog,
    prune,
)

from conftest import random_knapsack, random_rows, random_weighted


def fig_sequence():
    return from_probabilities(
        "ab", [{"a": 0.5, "b": 0.5}, {"a": 1.0}, {"a": 0.75, "b": 0.25}, {"b": 1.0}]
    )


def test_wc_instance_rejects_length_mismatch():
    x = fig_sequence()
    y = from_probabilities("ab", [{"a": 1.0}])
    with pytest.raises(DomainError):
        WcInstance(x, y, ProbThreshold.from_z(4))


def test_wc_to_knapsack_shape():
    x = fig_sequence()
    inst, letters = wc_to_knapsack(x, x, ProbThreshold.from_z(4))
    assert [len(c) for c in inst.classes] == [2, 1, 2, 1]
    assert [sorted(ls) for ls in letters] == [["a", "b"], ["a"], ["a", "b"], ["b"]]
    assert inst.V == inst.W == ProbThreshold.from_z(4).units


def test_wc_to_knapsack_dead_position():
    x = from_probabilities("ab", [{"a": 1.0}])
    y = from_probabilities("ab", [{"b": 1.0}])
    inst, letters = wc_to_knapsack(x, y, ProbThreshold.from_z(4))
    assert inst is None and letters == []
    assert weighted_consensus(x, y, ProbThreshold.from_z(4)) is None


def defined_instance(X, Y, z):
    """`wc_to_knapsack` transcribed from its definition, position by position.

    Class i holds X's present letters at i by units (ties in alphabet
    order) that are present in Y, with both units within z.
    """
    classes, letters = [], []
    for i in range(1, X.n + 1):
        by_units = sorted(X.alphabet, key=lambda s: (X.letter_units(i, s), X.alphabet.index(s)))
        cls = [(s, X.letter_units(i, s), Y.letter_units(i, s)) for s in by_units]
        cls = [(s, u, w) for s, u, w in cls
               if u < neglog.INF and w < neglog.INF and u <= z.units and w <= z.units]
        classes.append([(u, w) for _, u, w in cls])
        letters.append([s for s, _, _ in cls])
    if not all(classes):
        return None, []
    return K.make_instance(classes, z.units, z.units), letters


def test_wc_to_knapsack_by_definition():
    # rows hold INF letters and ties, Y lacks X's "t" and holds "u",
    # which X lacks
    rng = random.Random(19)
    unit = neglog.SCALE // 2
    for _ in range(150):
        n = rng.randint(1, 6)
        X = WeightedSequence.from_units("acgt", random_units(rng, n, 4, unit, 10))
        Y = WeightedSequence.from_units("gcau", random_units(rng, n, 4, unit, 10))
        for zv in (1, 2, 16, math.inf):
            z = ProbThreshold.from_z(zv)
            got = wc_to_knapsack(X, Y, z)
            assert got == defined_instance(X, Y, z)
            if got[0] is not None:
                assert {type(x) for cls in got[0].classes for it in cls for x in (it.v, it.w)} \
                    == {int}


def test_wc_to_knapsack_leaves_out_letters_above_z():
    # b is alive in both sequences at positions 2 and 3, but above z = 8
    # in X at 2 and in Y at 3, so no choice can take it there
    x = from_probabilities("ab", [{"a": 0.5, "b": 0.5}, {"a": 0.9, "b": 0.1},
                                  {"a": 0.5, "b": 0.5}])
    y = from_probabilities("ab", [{"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5},
                                  {"a": 0.95, "b": 0.05}])
    z8 = ProbThreshold.from_z(8)
    inst, letters = wc_to_knapsack(x, y, z8)
    assert letters == [["a", "b"], ["a"], ["a"]]
    assert [len(c) for c in inst.classes] == [2, 1, 1]
    assert all(it.v <= z8.units and it.w <= z8.units for cls in inst.classes for it in cls)
    for zv in (4, 8, 16):
        z = ProbThreshold.from_z(zv)
        expect = naive_consensus(x, y, z)
        for k in (None, 1, 2):
            got = weighted_consensus(x, y, z, k=k)
            assert (got is None) == (expect is None)
            if got is not None:
                assert match_neglog(got, x) <= z.units
                assert match_neglog(got, y) <= z.units


def test_weighted_consensus_fig():
    x = fig_sequence()
    z4 = ProbThreshold.from_z(4)
    s = weighted_consensus(x, x, z4)
    assert s in {"aaab", "baab"}
    assert match_neglog(s, x) <= z4.units
    assert weighted_consensus(x, x, ProbThreshold.from_z(2)) is None


def test_weighted_consensus_equals_naive(rng):
    for _ in range(300):
        n = rng.randint(1, 6)
        x = random_weighted(rng, n, allow_empty=True)
        y = random_weighted(rng, n, allow_empty=True)
        z = ProbThreshold.from_z(rng.choice([2, 4, 16, 256]))
        got = weighted_consensus(x, y, z)
        expect = naive_consensus(x, y, z)
        assert (got is None) == (expect is None)
        if got is not None:
            assert match_neglog(got, x) <= z.units
            assert match_neglog(got, y) <= z.units


def test_weighted_consensus_k_variant(rng):
    for _ in range(100):
        n = rng.randint(1, 5)
        x = random_weighted(rng, n)
        y = random_weighted(rng, n)
        z = ProbThreshold.from_z(rng.choice([4, 64]))
        base = weighted_consensus(x, y, z)
        for k in (1, 2):
            got = weighted_consensus(x, y, z, k=k)
            assert (got is None) == (base is None)


def test_weighted_consensus_refuses_k_below_one():
    # refused at entry, whether or not the positions share a letter
    x = WeightedSequence("ab", [{"a": 0}])
    for y in (x, WeightedSequence("ab", [{"b": 0}])):
        for k in (0, -5):
            with pytest.raises(DomainError):
                weighted_consensus(x, y, ProbThreshold.from_z(1), k=k)


def test_knapsack_to_wc_round_trip(rng):
    for _ in range(300):
        inst = random_knapsack(rng, max_n=3, max_lam=3, v_hi=6, t_hi=12)
        wc = knapsack_to_wc(inst)
        feasible = K.brute_force(inst) is not None
        s = naive_consensus(wc.X, wc.Y, wc.z)
        assert (s is not None) == feasible
        if s is not None:
            assert match_neglog(s, wc.X) <= wc.z.units
            assert match_neglog(s, wc.Y) <= wc.z.units
        prod = math.prod(len(c) for c in inst.classes)
        assert wc.z.display <= 4 * prod * (1 + 1e-9)


def test_knapsack_to_wc_normalize(rng):
    for _ in range(100):
        inst = random_knapsack(rng, max_n=3, max_lam=3, v_hi=6, t_hi=12)
        wc = knapsack_to_wc(inst, normalize=True)
        for row in list(wc.X.rows) + list(wc.Y.rows):
            total = sum(neglog.to_probability(u) for u in row.values())
            assert total <= 1 + 1e-9
        feasible = K.brute_force(inst) is not None
        assert (naive_consensus(wc.X, wc.Y, wc.z) is not None) == feasible


def test_knapsack_to_wc_trivial_no():
    inst = K.make_instance([[(5, 5)]], 1, 1)
    wc = knapsack_to_wc(inst)
    assert naive_consensus(wc.X, wc.Y, wc.z) is None


def test_knapsack_to_wc_leaves_out_items_past_a_threshold():
    # an item whose shifted value passes V, or shifted weight W, fits no
    # choice: its letter is left out of both rows, so an item of 2**70
    # no longer overflows the int64 units, and the class sizes still set z
    for classes, V, W in (([[(0, 0), (2 ** 70, 0)]], 1, 1),
                          ([[(0, 2 ** 70), (2 ** 70, 0)]], 1, 1),
                          ([[(0, 2 ** 70), (1, 0), (3, 3)], [(0, 0), (2 ** 80, 2 ** 80)]], 2, 3),
                          ([[(5, 0), (0, 5)], [(2 ** 70, 1), (1, 2 ** 70), (2, 2)]], 4, 4)):
        inst = K.make_instance(classes, V, W)
        wc = knapsack_to_wc(inst)
        s = naive_consensus(wc.X, wc.Y, wc.z)
        assert (s is not None) == (K.brute_force(inst) is not None)
        assert s is None or max(match_neglog(s, wc.X), match_neglog(s, wc.Y)) <= wc.z.units
        assert wc.z.display <= 4 * math.prod(map(len, classes)) * (1 + 1e-9)
        assert all(len(row) < len(cls) for row, cls in zip(wc.X.rows, classes))



def _knapsack_to_wc_by_definition(inst, normalize=False):
    """The reduction as its docstring states it, one letter -> units row per position."""
    pool, lam = consensus._LETTER_POOL, inst.lam
    if lam > len(pool):
        raise DomainError(f"class size {lam} exceeds the letter pool")
    v_mins = [min(it.v for it in cls) for cls in inst.classes]
    w_mins = [min(it.w for it in cls) for cls in inst.classes]
    V, W = inst.V - sum(v_mins), inst.W - sum(w_mins)
    if V < 0 or W < 0:
        return WcInstance(WeightedSequence("ab", [{"a": 0}]), WeightedSequence("ab", [{"b": 0}]),
                          ProbThreshold.from_z(1))
    M = 1
    while M < max(inst.n, V, W, 1):
        M *= 2
    if M > neglog.SCALE:
        raise DomainError("thresholds too large for exact fixed-point reduction")
    unit = neglog.SCALE // M
    rows_x, rows_y, ceil_logs = [], [], []
    for cls, v_min, w_min in zip(inst.classes, v_mins, w_mins):
        size = len(cls)
        if size & (size - 1) == 0:
            ceil_log = M * (size.bit_length() - 1)
        else:
            ceil_log = math.ceil(M * math.log2(size))
        ceil_logs.append(ceil_log)
        row_x, row_y = {}, {}
        for letter, item in zip(pool, cls):
            v, w = item.v - v_min, item.w - w_min
            if v <= V and w <= W:
                row_x[letter] = (ceil_log + v) * unit
                row_y[letter] = (ceil_log + w) * unit
        rows_x.append(row_x)
        rows_y.append(row_y)
    zx, zy = (V + sum(ceil_logs)) * unit, (W + sum(ceil_logs)) * unit
    z = max(zx, zy)
    rows_x.append({"$": z - zx})
    rows_y.append({"$": z - zy})
    alphabet = pool[:lam] + "$"
    if normalize:
        alphabet += "!?"
        for rows, fill in ((rows_x, "!"), (rows_y, "?")):
            for row in rows:
                rest = 1.0 - sum(neglog.to_probability(u) for u in row.values())
                if rest > 0:
                    row[fill] = neglog.from_probability(min(rest, 1.0))
    return WcInstance(WeightedSequence(alphabet, rows_x), WeightedSequence(alphabet, rows_y),
                      ProbThreshold(units=z, display=2.0 ** (z / neglog.SCALE)))


def _wc_outcome(reduce, inst, normalize):
    try:
        wc = reduce(inst, normalize)
    except DomainError as e:
        return str(e)
    return (wc.X.alphabet, wc.Y.alphabet, wc.X.units.tolist(), wc.Y.units.tolist(),
            wc.z.units, wc.z.display)


def _wc_corpus(rng, count):
    """Seeded instances, cycling through the cases the reduction tells apart."""
    for i in range(count):
        case = i % 8
        lam = {1: 62, 2: 63}.get(case, rng.randint(1, 6))
        lo, hi = rng.choice([(0, 8), (-20, 20), (-(1 << 40), 1 << 40), (0, 1 << 31)])
        classes = [[[rng.randint(lo, hi), rng.randint(lo, hi)] for _ in range(rng.randint(1, lam))]
                   for _ in range(0 if case == 0 else rng.randint(1, 4))]
        if case == 3:  # items of 2**60 and more, mostly past the thresholds
            for item in rng.choice(classes):
                item[rng.randrange(2)] = rng.choice([1, 1, -1]) * rng.randint(1 << 60, 1 << 80)
        # thresholds above the class minima: up to 2**32 (M = 2**32), or past it
        spread = rng.choice([0, 3, 20, 1 << 20, 1 << 32, (1 << 32) + 1])
        V, W = (sum(min(item[k] for item in cls) for cls in classes)
                + rng.choice([rng.randint(-2 if case == 4 else 0, spread), spread]) for k in (0, 1))
        yield K.make_instance(classes, V, W), rng.random() < 0.5


def test_knapsack_to_wc_equals_its_definition():
    reached = set()
    for inst, normalize in _wc_corpus(random.Random(28), 1200):
        got = _wc_outcome(knapsack_to_wc, inst, normalize)
        assert got == _wc_outcome(_knapsack_to_wc_by_definition, inst, normalize), inst
        if isinstance(got, str):
            reached.add(got.split()[0])
            continue
        big = max((abs(x) for cls in inst.classes for it in cls for x in (it.v, it.w)), default=0)
        V = inst.V - sum(min(it.v for it in cls) for cls in inst.classes)
        W = inst.W - sum(min(it.w for it in cls) for cls in inst.classes)
        reached.update(k for k, hit in (
            ("normalize", normalize), ("plain", not normalize), ("NO", got[0] == "ab"),
            ("empty", inst.n == 0 and got[0] != "ab"), ("lam62", inst.lam == 62),
            ("negative", any(it.v < 0 or it.w < 0 for cls in inst.classes for it in cls)),
            ("past", got[0] != "ab" and any(u >= neglog.INF for row, cls in zip(got[2], inst.classes)
                                            for u in row[:len(cls)])),
            ("2**60", big >= 1 << 60 and got[0] != "ab"),
            ("M=2**32", got[0] != "ab" and max(V, W) > 1 << 31)) if hit)
    assert reached == {"normalize", "plain", "NO", "empty", "lam62", "negative", "past",
                       "2**60", "M=2**32", "class", "thresholds"}


def test_knapsack_to_wc_builds_no_dict_rows(monkeypatch):
    # X and Y come from one units array, never from letter -> units rows
    def refuse(*args):
        raise AssertionError("knapsack_to_wc built a row table")

    monkeypatch.setattr(weighted, "_table", refuse)
    for classes, V, W in (([[(3, 1), (1, 4)], [(2, 2), (5, 0), (9, 9)]], 5, 5),
                          ([[(5, 5)]], 1, 1), ([], 3, 0), ([[(0, 2 ** 70), (1, 0)]], 2, 2)):
        for normalize in (False, True):
            wc = knapsack_to_wc(K.make_instance(classes, V, W), normalize)
            assert wc.X.n == wc.Y.n == (len(classes) + 1 if wc.X.alphabet != "ab" else 1)

def pwm_file(tmp_path, seed, alphabet, length=4):
    """The PWM `um gen --kind pwm` writes for `seed`, read back."""
    path = tmp_path / f"{seed}.pwm"
    assert cli.main(["gen", "--kind", "pwm", "--seed", str(seed), "--length", str(length),
                     "--alphabet", alphabet, "--out", str(path)]) == 0
    return io.parse_pwm(path.read_text())


def test_weighted_consensus_merges_large_alphabets(tmp_path, monkeypatch):
    # two 4-row PWMs over 800 letters at z = 2^40 keep about 800 letters
    # a class, past MERGE_LAMBDA_FLOOR: `decide` merges the classes on
    # their arrays (`_merge`) before the search, as `solve` does on the
    # `Item` instance; searched unmerged, they passed the memory guard
    alphabet = "".join(chr(0x100 + i) for i in range(800))
    x, y = (pwm_file(tmp_path, seed, alphabet) for seed in (11, 13))
    z = ProbThreshold.from_z(2.0 ** 40)
    inst, letters = wc_to_knapsack(x, y, z)
    assert inst.lam >= K.MERGE_LAMBDA_FLOOR
    choice = K.solve(inst)
    callers = []
    merge = K._merge
    monkeypatch.setattr(K, "_merge", lambda *arrays: callers.append(
        [frame.name for frame in traceback.extract_stack()]) or merge(*arrays))
    got = weighted_consensus(x, y, z)
    assert len(callers) == 1 and "decide" in callers[0]
    assert got is not None and got == "".join(letters[c][choice[c]] for c in range(inst.n))
    assert match_neglog(got, x) <= z.units and match_neglog(got, y) <= z.units


def test_merge_path_builds_no_item(tmp_path, monkeypatch):
    # the 800-letter pair, gwpm of its pattern in a 12-row text over the
    # same letters, and `decide` on an MCK instance whose classes reach
    # 1,166 items all merge their classes; with `Item` raising they
    # answer as before: the consensus of `solve` on the `Item` instance,
    # an occurrence at every window, and the same choice
    alphabet = "".join(chr(0x100 + i) for i in range(800))
    x, y = (pwm_file(tmp_path, seed, alphabet) for seed in (11, 13))
    t = pwm_file(tmp_path, 17, alphabet, length=12)
    z = ProbThreshold.from_z(2.0 ** 40)
    inst, letters = wc_to_knapsack(x, y, z)
    choice = K.solve(inst)
    found = gwpm(x, t, z)
    path = tmp_path / "m.mck"
    assert cli.main(["gen", "--kind", "mck", "--seed", "1", "--classes", "4", "--lam", "2000",
                     "--out", str(path)]) == 0
    mck = io.parse_mck(path.read_text())
    arrays = K._item_arrays(mck.classes, mck.V, mck.W)

    def refuse(*args):
        raise AssertionError("an Item was built")

    monkeypatch.setattr(K, "Item", refuse)
    assert weighted_consensus(x, y, z) == "".join(letters[c][choice[c]] for c in range(inst.n))
    got = gwpm(x, t, z)
    assert got.occurrences == found.occurrences == tuple(range(1, 10))
    assert [gwpm_witness(got, p) for p in got.occurrences] == \
        [gwpm_witness(found, p) for p in found.occurrences]
    state, picks = K.decide(*arrays, 0)
    assert state.tolist() == [1] and picks.tolist() == [[70, 22, 324, 115]]


def window(t: WeightedSequence, p: int, m: int) -> WeightedSequence:
    return WeightedSequence(t.alphabet, [dict(r) for r in t.rows[p - 1: p + m - 1]])


def test_gwpm_equals_per_window_naive(rng):
    for _ in range(150):
        n = rng.randint(1, 25)
        m = rng.randint(1, min(5, n))
        p_seq = random_weighted(rng, m, allow_empty=True)
        t_seq = random_weighted(rng, n, allow_empty=True)
        z = ProbThreshold.from_z(rng.choice([4, 16, 64]))
        res = gwpm(p_seq, t_seq, z)
        expect = [
            p for p in range(1, n - m + 2)
            if naive_consensus(p_seq, window(t_seq, p, m), z) is not None
        ]
        assert list(res.occurrences) == expect
        for p in res.occurrences:
            w = gwpm_witness(res, p)
            assert match_neglog(w, p_seq) <= z.units
            assert match_neglog(w, window(t_seq, p, m)) <= z.units


def test_gwpm_algo_variants_agree(rng):
    for _ in range(60):
        n = rng.randint(2, 15)
        m = rng.randint(1, min(4, n))
        p_seq = random_weighted(rng, m)
        t_seq = random_weighted(rng, n)
        z = ProbThreshold.from_z(rng.choice([4, 16]))
        base = gwpm(p_seq, t_seq, z).occurrences
        assert gwpm(p_seq, t_seq, z, algo="naive").occurrences == base
        assert gwpm(p_seq, t_seq, z, algo="mim").occurrences == base
        assert gwpm(p_seq, t_seq, z, algo="mim", k=1).occurrences == base


def peaked_rows(rng, n, sigma="acgt", lo=0.85, hi=0.95):
    """Rows whose heavy letter holds lo to hi of the mass."""
    rows = []
    for _ in range(n):
        top, *rest = rng.sample(sigma, len(sigma))
        heavy = rng.uniform(lo, hi)
        rows.append({top: heavy, **{s: (1 - heavy) / len(rest) for s in rest}})
    return rows


def near_copy(rng, rows, sigma="acgt"):
    """The rows, with a near tie that moves the heavy letter at some positions."""
    out = [dict(r) for r in rows]
    for i in rng.sample(range(len(rows)), rng.randint(1, 2)):
        top = max(out[i], key=out[i].get)
        other = rng.choice([s for s in sigma if s != top])
        out[i] = {s: 0.05 / (len(sigma) - 2) for s in sigma}
        out[i].update({top: 0.45, other: 0.5})
    return out


def test_gwpm_at_sdwc_length_bound():
    rng = random.Random(20160404)
    solved = 0
    for log2z in (3, 4):
        z = ProbThreshold.from_z(2 ** log2z)
        m = 2 * z.log2_floor
        for _ in range(6):
            pat_rows = peaked_rows(rng, m)
            rows = random_rows(rng, 3 * m, "acgt")
            for start in (1, 2 * m - 1):
                rows[start: start + m] = near_copy(rng, pat_rows)
            p_seq = from_probabilities("acgt", pat_rows)
            t_seq = from_probabilities("acgt", rows)
            res = gwpm(p_seq, t_seq, z)
            for algo in ("mim", "naive"):
                assert gwpm(p_seq, t_seq, z, algo=algo).occurrences == res.occurrences
            for p in res.occurrences:
                w = gwpm_witness(res, p)
                win = window(t_seq, p, m)
                assert match_neglog(w, p_seq) <= z.units
                assert match_neglog(w, win) <= z.units
                solved += w != heavy_string(win)
    # some occurrences came from the solver, not from a heavy-string match
    assert solved > 0


def noisy_copy(rng, rows, sigma="acgt"):
    """The rows, with up to three of them replaced by random rows."""
    out = [dict(r) for r in rows]
    for i in rng.sample(range(len(rows)), rng.randint(0, 3)):
        out[i] = random_rows(rng, 1, sigma)[0]
    return out


def test_gwpm_long_patterns_equal_per_window_naive():
    # long peaked patterns with noisy copies planted in random texts:
    # some copies occur, and some windows within the mismatch budget
    # fail the min-sum test, so the bound drops them before the budget
    rng = random.Random(2024)
    found = bound_drops = 0
    for m in (24, 48, 64):
        for log2z in range(2, 7):
            z = ProbThreshold.from_z(2 ** log2z)
            pat_rows = peaked_rows(rng, m, lo=0.98, hi=0.998)
            rows = random_rows(rng, 2 * m, "acgt")
            for start in sorted(rng.sample(range(m + 1), 2)):
                rows[start: start + m] = noisy_copy(rng, pat_rows)
            p_seq = from_probabilities("acgt", pat_rows)
            t_seq = from_probabilities("acgt", rows)
            res = gwpm(p_seq, t_seq, z)
            expect = []
            for p in range(1, t_seq.n - m + 2):
                win = window(t_seq, p, m)
                if naive_consensus(p_seq, win, z) is not None:
                    expect.append(p)
                elif hamming(heavy_string(p_seq), heavy_string(win)) <= 2 * log2z \
                        and not passes_min_sum(p_seq, t_seq, p, z):
                    bound_drops += 1
            assert list(res.occurrences) == expect
            for p in res.occurrences:
                w = gwpm_witness(res, p)
                assert match_neglog(w, p_seq) <= z.units
                assert match_neglog(w, window(t_seq, p, m)) <= z.units
            found += len(expect)
    assert found > 0
    assert bound_drops > 0


def test_gwpm_memory_does_not_grow_with_z():
    # no window has more than m mismatches, so a huge z must not size
    # the per-window mismatch table (2 log2 z + 1 columns would take
    # tens of MB here)
    rows = [{"c": 0.7, "a": 0.3} if i % 100 == 50 else {"a": 0.7, "c": 0.3}
            for i in range(2003)]
    p_seq = from_probabilities("acgt", rows[:4])
    t_seq = from_probabilities("acgt", rows)
    z = ProbThreshold.from_z(2.0 ** 1000)
    tracemalloc.start()
    try:
        res = gwpm(p_seq, t_seq, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.occurrences == tuple(range(1, 2001))
    assert peak < 8 * 2**20


def test_gwpm_window_reweighting():
    # heavy letters differ at positions 1 and 2 only; the heavy "c" at
    # position 3 costs 0.515 bits in x, which only "gac" can afford, and
    # "gac" costs 2.74 bits in y, against log2 z = 2
    x = from_probabilities("acgt", [{"g": 0.9, "c": 0.1},
                                    {"a": 0.5, "c": 0.3, "t": 0.2},
                                    {"c": 0.7, "t": 0.3}])
    y = from_probabilities("acgt", [{"c": 0.5, "g": 0.5}, {"c": 0.7, "a": 0.3}, {"c": 1.0}])
    z = ProbThreshold.from_z(4)
    assert naive_consensus(x, y, z) is None
    for algo in GWPM_ALGOS:
        assert gwpm(x, y, z, algo=algo).occurrences == ()
        assert gwpm(y, x, z, algo=algo).occurrences == ()


def min_sum_rows(rng, n, z, sigma="acgt"):
    """Random rows; some hold only letters below 1/z, so pruning empties them."""
    rows = random_rows(rng, n, sigma, allow_empty=True)
    for i in range(n):
        if rng.random() < 0.1:
            letters = rng.sample(sigma, rng.randint(1, len(sigma)))
            rows[i] = {s: rng.uniform(0.1, 0.95) / max(z.display, len(letters))
                       for s in letters}
    return from_probabilities(sigma, rows)


def passes_min_sum(p_seq, t_seq, p, z):
    """Whether window p passes the min-sum test that `gwpm` runs in its walk.

    Any string matching both pruned P and the window takes at each
    offset a letter alive in both rows, so its units in P are at least
    the sum of the cheapest such letter's units in P, and likewise in
    the window.  Where the rows share no letter no string matches.
    """
    P, T = prune(p_seq, z), prune(t_seq, z)
    sum_p = sum_t = 0
    for i in range(1, P.n + 1):
        pairs = [(P.letter_units(i, c), T.letter_units(p + i - 1, c)) for c in P.alphabet]
        pairs = [(u, v) for u, v in pairs if u < neglog.INF and v < neglog.INF]
        if not pairs:
            return False
        sum_p += min(u for u, _ in pairs)
        sum_t += min(v for _, v in pairs)
    return sum_p <= z.units and sum_t <= z.units


def test_gwpm_prefilter_is_exact(monkeypatch):
    # windows handed to the class builder or to the oracle, to check
    # that the walk drops every window the min-sum test rejects
    solved = []
    window_classes = consensus._window_classes
    naive_window = consensus._naive_window

    def spy_classes(P, T, z, starts, *args):
        solved.extend((starts + 1).tolist())
        return window_classes(P, T, z, starts, *args)

    def spy_naive(P, T, z, start, *args):
        solved.append(int(start) + 1)
        return naive_window(P, T, z, start, *args)

    monkeypatch.setattr(consensus, "_window_classes", spy_classes)
    monkeypatch.setattr(consensus, "_naive_window", spy_naive)
    rng = random.Random(1974)
    rejected = spied = 0
    for _ in range(240):
        z = ProbThreshold.from_z(2 ** rng.randint(1, 6))
        n = rng.randint(1, 14)
        m = rng.randint(1, min(5, n))
        p_seq = min_sum_rows(rng, m, z)
        t_seq = min_sum_rows(rng, n, z)
        expect = [
            p for p in range(1, n - m + 2)
            if naive_consensus(p_seq, window(t_seq, p, m), z) is not None
        ]
        solved.clear()
        assert list(gwpm(p_seq, t_seq, z).occurrences) == expect
        assert list(gwpm(p_seq, t_seq, z, "naive").occurrences) == expect
        kept = {p for p in range(1, n - m + 2) if passes_min_sum(p_seq, t_seq, p, z)}
        assert set(expect) <= kept
        assert set(solved) <= kept
        rejected += n - m + 1 - len(kept)
        spied += len(solved)
    assert rejected > 0 and spied > 0


def random_units(rng, n, sigma, unit, top):
    """n rows of `sigma` letters: 1 to all of them alive (the rest
    INF), each at a multiple of `unit` up to `top` units, so many tie."""
    out = np.full((n, sigma), neglog.INF)
    for i in range(n):
        for c in rng.sample(range(sigma), rng.choice([1, 2, 3, sigma, sigma])):
            out[i, c] = unit * rng.randint(0, top)
    return out


def test_reduce_windows_equals_reduce_instance():
    # each batch decision on `_window_classes` against reduce_instance on
    # the definition's instance of the window's reweighted rows, which
    # `wc_to_knapsack` of those rows also gives.  P's "t" is
    # missing from T, T's "u" from P; units tie often, rows hold INF
    # letters, one letter or letters above z; some T rows copy P's, so
    # greedy decides YES; one batch mixes windows of every mismatch
    # count up to m
    rng = random.Random(16)
    unit = neglog.SCALE // 2
    inf = neglog.INF
    outcomes = []
    for _ in range(80):
        z = ProbThreshold.from_z(2 ** rng.randint(1, 4))
        top = 2 * z.log2_floor + 1  # in half bits: some letters pass z
        m, n = rng.randint(1, 6), rng.randint(6, 20)
        pu = random_units(rng, m, 4, unit, top)
        tu = random_units(rng, n, 4, unit, top)
        for j in range(n):
            if rng.random() < 0.3:
                tu[j, :3] = pu[rng.randrange(m), :3]  # acg, as P holds them
        P = WeightedSequence.from_units("acgt", pu)
        T = WeightedSequence.from_units("acgu", tu)
        B = rng.randint(1, 12)
        starts = np.array([rng.randint(0, n - m) for _ in range(B)])
        count = np.array([rng.randint(1, m) for _ in range(B)])
        d = np.zeros((B, m + rng.randint(0, 1)), dtype=np.int64)
        for w in range(B):
            d[w, :count[w]] = sorted(rng.sample(range(m), count[w]))
        alpha = np.array([unit * rng.randint(0, 2) for _ in range(B)])
        beta = np.array([unit * rng.randint(0, 2) for _ in range(B)])
        vw, alive, order = consensus._window_classes(P, T, z, starts, d, count, alpha, beta)
        state, picks = K.reduce_batch(vw, alive, np.full((2, B), z.units), inf)
        found = consensus._consensus(vw, alive, order, P.alphabet, z.units, 0)
        for w in range(B):
            c = count[w]
            rows_x, rows_y = pu[d[w, :c]], tu[starts[w] + d[w, :c]]
            rows_x[0] = np.where(rows_x[0] < inf, rows_x[0] + beta[w], inf)
            rows_y[0] = np.where(rows_y[0] < inf, rows_y[0] + alpha[w], inf)
            X = WeightedSequence.from_units("acgt", rows_x)
            Y = WeightedSequence.from_units("acgu", rows_y)
            inst, letters = defined_instance(X, Y, z)
            assert wc_to_knapsack(X, Y, z) == (inst, letters)
            # the alive slots, in slot order, are the definition's classes
            slots = [np.flatnonzero(a) for a in alive[w, :c]]
            if inst is None:
                assert not all(map(len, slots))
                outcomes.append("empty")
                assert state[w] == 0 and found[w] is None
                continue
            assert [[(vw[0, w, ci, s], vw[1, w, ci, s]) for s in ss]
                    for ci, ss in enumerate(slots)] == \
                [[(it.v, it.w) for it in cls] for cls in inst.classes]
            assert [[P.alphabet[order[w, ci, s]] for s in ss] for ci, ss in enumerate(slots)] \
                == letters
            red = K.reduce_instance(inst)
            outcomes.append({None: "search", False: "no", True: "yes"}[red.decided])
            assert state[w] == {None: -1, False: 0, True: 1}[red.decided]
            choice = K.solve(inst)
            expect = None if choice is None else "".join(letters[ci][choice[ci]] for ci in range(c))
            if red.decided:
                assert "".join(P.alphabet[order[w, ci, picks[w, ci]]] for ci in range(c)) == expect
            # the array path: for a window left, `knapsack.search` on the
            # classes greedy did not commit, which answers as `solve` does
            assert (found[w] and found[w][:c]) == expect
            if red.decided is None:
                outcomes.append("search yes" if expect else "search no")
    assert {outcomes.count(o) > 10 for o in ("empty", "search", "no", "yes", "search yes")} \
        == {True}
    assert "search no" in outcomes


def test_reduce_batch_answers_empty_classes_no():
    # X holds only a and Y only b at the first `bad` of three positions,
    # so those classes are empty; each adds INF to the rank test's bound,
    # and two of them once wrapped it around in int64 and left a search
    z = ProbThreshold.from_z(4)
    for bad in (1, 2, 3):
        x = from_probabilities("ab", [{"a": 1.0}] * bad + [{"a": 0.5, "b": 0.5}] * (3 - bad))
        y = from_probabilities("ab", [{"b": 1.0}] * bad + [{"a": 0.5, "b": 0.5}] * (3 - bad))
        vw, alive, _ = consensus._whole_window(x, y, z)
        assert K.reduce_batch(vw, alive, np.full((2, 1), z.units), neglog.INF)[0].tolist() == [0]
        assert weighted_consensus(x, y, z) is None


def test_weighted_consensus_equals_the_item_path(monkeypatch):
    # the array path of `weighted_consensus` against `solve` and `solve_k`
    # on the `Item` instance of `wc_to_knapsack`, letter for letter: rows
    # hold INF letters, tied units and, at small z, letters above z
    rng = random.Random(21)
    unit = neglog.SCALE // 2
    searched = []
    search = K.search

    def spy(*args):
        found = search(*args)
        searched.append((args[-1], found is not None))
        return found

    monkeypatch.setattr(K, "search", spy)
    for _ in range(300):
        n = rng.randint(1, 10)
        X = WeightedSequence.from_units("acgt", random_units(rng, n, 4, unit, 6))
        Y = WeightedSequence.from_units("gcau", random_units(rng, n, 4, unit, 6))
        for zv in (1, 2, 16, 2 ** 20, math.inf):
            z = ProbThreshold.from_z(zv)
            inst, letters = wc_to_knapsack(X, Y, z)
            for k in (None, 1, 2):
                choice, mark = None, len(searched)
                if inst is not None:
                    choice = K.solve(inst) if k is None else K.solve_k(inst, k)
                del searched[mark:]  # only the array path's searches count
                expect = None if choice is None else "".join(
                    letters[ci][choice[ci]] for ci in range(n))
                assert weighted_consensus(X, Y, z, k) == expect
    # at each k, the array path searched instances of both answers
    assert {searched.count((k, yes)) > 10 for k in (0, 1, 2) for yes in (True, False)} == {True}


def test_gwpm_edge_cases():
    x = fig_sequence()
    z = ProbThreshold.from_z(4)
    assert gwpm(x, from_probabilities("ab", [{"a": 1.0}]), z).occurrences == ()
    with pytest.raises(DomainError):
        gwpm(from_probabilities("ab", []), x, z)
    res = gwpm(x, x, z)
    assert res.occurrences == (1,)
    with pytest.raises(DomainError):
        gwpm_witness(res, 2)


def test_gwpm_refuses_k_below_one():
    # refused at entry, whether or not any window reaches a solver
    x = fig_sequence()
    z = ProbThreshold.from_z(4)
    for text in (x, from_probabilities("ab", [{"b": 1.0}] * 4)):
        for k in (0, -1):
            with pytest.raises(DomainError):
                gwpm(x, text, z, k=k)


def fibonacci_word(n):
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def test_gwpm_equals_per_window_naive_on_adversarial_texts(rng):
    # periodic heavy strings and a single window (m == n)
    for heavy in ("a" * 12, "ab" * 6, fibonacci_word(12)):
        for _ in range(12):
            rows = [{h: rng.uniform(0.6, 0.95)} for h in heavy]
            for row in rows:
                (h, p), = row.items()
                row[rng.choice([c for c in "abc" if c != h])] = 1.0 - p
            t_seq = from_probabilities("abc", rows)
            n = len(heavy)
            m = rng.choice([1, 3, 5, n])
            start = rng.randrange(n - m + 1)
            p_seq = from_probabilities("abc", random_rows(rng, m, "abc")) if rng.random() < 0.5 \
                else t_seq.factor(start + 1, start + m)
            z = ProbThreshold.from_z(rng.choice([2, 4, 16]))
            expect = [
                p for p in range(1, n - m + 2)
                if naive_consensus(p_seq, window(t_seq, p, m), z) is not None
            ]
            assert list(gwpm(p_seq, t_seq, z).occurrences) == expect


def budget_window(kinds, q):
    """Pattern and text rows whose heavy letters differ at every offset
    with a kind.  A "p" or "t" mismatch costs exactly one bit in the
    pattern or in the text.  An "x" mismatch costs the min-sum test only
    -log2(1 - q) bits on each side, but any letter there costs
    -log2(q) bits on one side."""
    rows = {"p": ({"a": 0.5, "b": 0.5}, {"b": 1.0}),  # heavy a (tie) against b
            "t": ({"b": 1.0}, {"a": 0.5, "b": 0.5}),
            "x": ({"a": 1 - q, "b": q}, {"b": 1 - q, "a": q}),
            "-": ({"c": 1.0}, {"c": 1.0})}
    return [rows[k][0] for k in kinds], [rows[k][1] for k in kinds]


def test_gwpm_windows_at_the_mismatch_budget():
    # with z = 2^L the budget is 2L mismatches; the planted window at
    # position 3 passes the min-sum test, so the walk itself must keep
    # windows with 2L mismatches and drop those with 2L + 1
    for log2z in (1, 2, 3, 4):
        z = ProbThreshold.from_z(2 ** log2z)
        budget = 2 * log2z
        cases = [(["p"] * log2z + ["t"] * log2z, True)]
        if log2z >= 3:  # below, 2L + 1 cheap mismatches fail the min-sum test
            cases += [(["x"] * budget, False), (["x"] * (budget + 1), False)]
        for kinds, matches in cases:
            kinds = kinds + ["-"] * 3
            random.Random(log2z).shuffle(kinds)
            pat, txt = budget_window(kinds, 2.0 ** -log2z)
            m = len(pat)
            p_seq = from_probabilities("abc", pat)
            t_seq = from_probabilities("abc", [{"c": 1.0}] * 2 + txt + [{"a": 1.0}] * 2)
            assert passes_min_sum(p_seq, t_seq, 3, z)
            res = gwpm(p_seq, t_seq, z)
            expect = [
                p for p in range(1, t_seq.n - m + 2)
                if naive_consensus(p_seq, window(t_seq, p, m), z) is not None
            ]
            assert list(res.occurrences) == expect
            assert (3 in res.occurrences) == matches
            for algo in ("mim", "naive"):
                assert gwpm(p_seq, t_seq, z, algo=algo).occurrences == res.occurrences
            for p in res.occurrences:
                w = gwpm_witness(res, p)
                assert match_neglog(w, p_seq) <= z.units
                assert match_neglog(w, window(t_seq, p, m)) <= z.units


def test_gwpm_at_infinite_z_equals_per_window_consensus(rng):
    # 1/z = 0: a window occurs when some string has nonzero probability
    # in it and in the pattern.  Empty text rows used to sum past int64
    # in the saturated heavy sums, and there is no mismatch budget.
    z = ProbThreshold.from_z(math.inf)
    for _ in range(150):
        n = rng.randint(1, 25)
        m = rng.randint(1, min(6, n))
        p_seq = random_weighted(rng, m, allow_empty=rng.random() < 0.2)
        rows = random_rows(rng, n, "acgt", allow_empty=True)
        for i in rng.sample(range(n), min(n, 3)):
            rows[i] = {}
        t_seq = from_probabilities("acgt", rows)
        res = gwpm(p_seq, t_seq, z)
        expect = [
            p for p in range(1, n - m + 2)
            if weighted_consensus(p_seq, t_seq.factor(p, p + m - 1), z) is not None
        ]
        assert list(res.occurrences) == expect
        assert gwpm(p_seq, t_seq, z, algo="mim").occurrences == res.occurrences
        for p in res.occurrences:
            w = gwpm_witness(res, p)
            assert match_neglog(w, p_seq) < neglog.INF
            assert match_neglog(w, t_seq.factor(p, p + m - 1)) < neglog.INF


def test_gwpm_at_infinite_z_dense_pattern():
    # every letter is alive in every row, so at z = inf all of them are
    # free, both heavy strings are all "a" and no window has a mismatch:
    # each occurs at once, with no class arrays built for it
    rng = random.Random(300)
    m, n = 300, 1500
    p_seq, t_seq = (from_probabilities("acgt", [{s: rng.uniform(0.1, 1) / 4 for s in "acgt"}
                                                for _ in range(k)]) for k in (m, n))
    tracemalloc.start()
    try:
        res = gwpm(p_seq, t_seq, ProbThreshold.from_z(math.inf))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.occurrences == tuple(range(1, n - m + 2))
    assert gwpm_witness(res, n - m + 1) == "a" * m
    assert peak < 16 * 2**20


def test_gwpm_at_infinite_z_long_windows():
    # the first window differs from the pattern's heavy letters at all
    # 40 positions but shares a live letter at each: no budget may drop
    # it; every other window holds an empty row
    p_seq = from_probabilities("ab", [{"a": 0.5, "b": 0.5}] * 40)
    rows = [{"b": 1.0}] * 40 + [{}] * 2 + [{"b": 1.0}] * 5
    res = gwpm(p_seq, from_probabilities("ab", rows), ProbThreshold.from_z(math.inf))
    assert res.occurrences == (1,)
    assert gwpm_witness(res, 1) == "b" * 40
    with pytest.raises(CapacityError):
        gwpm(p_seq, from_probabilities("ab", rows), ProbThreshold.from_z(math.inf),
             algo="naive")
