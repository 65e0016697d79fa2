import argparse
import contextlib
import io as stdio
import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uncertainmatch
from uncertainmatch import cli, io, neglog
from uncertainmatch.consensus import knapsack_to_wc, weighted_consensus
from uncertainmatch.errors import DomainError, ParseError
from uncertainmatch.knapsack import make_instance
from uncertainmatch.profile import ScoringMatrix
from uncertainmatch.reference import naive_consensus
from uncertainmatch.weighted import WeightedSequence, from_probabilities, match_neglog

from conftest import anti_correlated

FIG_PWM = "PWM 4 ab\n0.5 0.5\n1.0 0.0\n0.75 0.25\n0.0 1.0\n"


def gen(tmp_path, name, *argv):
    path = tmp_path / name
    assert cli.main(["gen", "--out", str(path), *argv]) == 0
    return path


def test_profile_round_trip(tmp_path):
    path = gen(tmp_path, "p.prof", "--kind", "profile", "--seed", "7", "--length", "6")
    text = path.read_text()
    assert io.serialize_profile(io.parse_profile(text)) == text


def test_pwm_round_trip(tmp_path):
    path = gen(tmp_path, "t.pwm", "--kind", "pwm", "--seed", "7", "--length", "12")
    text = path.read_text()
    assert io.serialize_pwm(io.parse_pwm(text)) == text


def test_pwm_round_trip_many_seeds(tmp_path):
    for seed in (1, 2, 3):
        for length in (1, 57, 800):
            for alphabet in ("acgt", "ab", "ACDEFGHIKLMNPQRSTVWY"):
                path = gen(tmp_path, f"{seed}-{length}-{alphabet}.pwm", "--kind", "pwm",
                           "--seed", str(seed), "--length", str(length),
                           "--alphabet", alphabet)
                text = path.read_text()
                assert io.serialize_pwm(io.parse_pwm(text)) == text


def test_mck_round_trip(tmp_path):
    path = gen(tmp_path, "i.mck", "--kind", "mck", "--seed", "7", "--classes", "5")
    text = path.read_text()
    assert io.serialize_mck(io.parse_mck(text)) == text


def test_gen_deterministic(tmp_path):
    a = gen(tmp_path, "a", "--kind", "text", "--seed", "3", "--length", "40")
    b = gen(tmp_path, "b", "--kind", "text", "--seed", "3", "--length", "40")
    assert a.read_text() == b.read_text()
    c = gen(tmp_path, "c", "--kind", "text", "--seed", "4", "--length", "40")
    assert a.read_text() != c.read_text()


def test_parse_pwm_frees_its_lines_before_the_build():
    # the one string per file line must be gone when the sequence is
    # built: on these 100k rows parse_pwm peaked at 21.7 MB under
    # tracemalloc while the list lived and at 13.2 MB without it
    rows = np.floor(np.random.default_rng(7).dirichlet([1.0] * 4, 100_000) * 1e6) / 1e6
    text = "PWM 100000 acgt\n" + "\n".join(" ".join(f"{p:.6f}" for p in r) for r in rows)
    tracemalloc.start()
    try:
        x = io.parse_pwm(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.n == 100_000
    assert peak < 16 * 2**20


def test_comments_and_blanks_ignored():
    noisy = "# header comment\n\nPWM 4 ab\n0.5 0.5\n\n# middle\n1.0 0.0\n0.75 0.25\n0.0 1.0\n"
    assert io.parse_pwm(noisy).n == 4


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        io.parse_profile("PROFILE 2 ab\n1 2\n3\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        io.parse_profile("# note\n\nPROFILE x ab\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        io.parse_pwm("PWM 1 ab\n0.5 1.5\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        io.parse_mck("MCK 1 5 5\n2\n1 1\n")
    assert exc.value.line is None or exc.value.line >= 3  # truncated file
    with pytest.raises(ParseError) as exc:
        io.parse_mck("MCK 1 5 5\n1\n1 1\nextra\n")
    assert exc.value.line == 4


def test_pwm_row_errors_carry_file_lines():
    # data row 2 sits on file line 5, after a comment and a blank line
    with pytest.raises(ParseError) as exc:
        io.parse_pwm("PWM 2 ab\n# c\n\n0.5 0.5\n0.7 0.7\n")
    assert exc.value.line == 5
    assert str(exc.value) == "line 5: probabilities sum to 1.4 > 1"
    with pytest.raises(ParseError) as exc:
        io.parse_pwm("# note\nPWM 3 ab\n0.5 0.5\n\n0.5 x\n")
    assert exc.value.line == 5
    # the earliest bad line wins, whatever its kind
    with pytest.raises(ParseError) as exc:
        io.parse_pwm("PWM 3 ab\n0.9 0.9\n0.5 x\n0.5\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        io.parse_pwm("PWM 2 ab\n0.5 0.5\n0.5 1.5\n0.5 0.5\n")
    assert exc.value.line == 3


GOOD_PWM = "PWM 3 ab\n0.5 0.5\n1.0 0.0\n0.25 0.75\n"
# name -> PWM text; the C row reader and the line walk must agree on each
PWM_EDGE_CASES = {
    "plain": GOOD_PWM,
    "crlf": GOOD_PWM.replace("\n", "\r\n"),
    "tabs": GOOD_PWM.replace(" ", "\t"),
    "whitespace_lines": "PWM 3 ab\n \t \n0.5 0.5\n   \n1.0 0.0\n0.25 0.75\n\n",
    "nbsp": GOOD_PWM.replace("0.5 0.5", "0.5\xa00.5"),
    "formfeed": GOOD_PWM.replace("0.5 0.5", "0.5\x0c0.5"),
    "comment_lines": "# c\nPWM 3 ab\n0.5 0.5\n# c\n1.0 0.0\n0.25 0.75\n# c\n",
    "trailing_comment": GOOD_PWM.replace("1.0 0.0", "1.0 0.0 # c"),
    "nan": GOOD_PWM.replace("1.0 0.0", "nan 0.0"),
    "inf": GOOD_PWM.replace("1.0 0.0", "inf 0.0"),
    "underscore_valid": GOOD_PWM.replace("0.25 0.75", "0.2_5 0.75"),
    "underscore_out_of_range": GOOD_PWM.replace("1.0 0.0", "1_0 0.0"),
    "arabic_digit": GOOD_PWM.replace("1.0 0.0", "\u0661 0.0"),
    "quotes": GOOD_PWM.replace("0.5 0.5", '"0.5" 0.5'),
    "commas": GOOD_PWM.replace("0.5 0.5", "0.5,0.5"),
    "nul": GOOD_PWM.replace("0.5 0.5", "0.5 0.5\x00"),
    "too_many_rows": GOOD_PWM + "0.5 0.5\n",
    "too_few_rows": GOOD_PWM.replace("PWM 3", "PWM 4"),
    "too_many_tokens": GOOD_PWM.replace("1.0 0.0", "1.0 0.0 0.0"),
    "too_few_tokens": GOOD_PWM.replace("1.0 0.0", "1.0"),
    "row_sum": GOOD_PWM.replace("1.0 0.0", "0.7 0.7"),
    "negative": GOOD_PWM.replace("1.0 0.0", "-0.5 0.5"),
    "header_leading_zero": GOOD_PWM.replace("PWM 3", "PWM 03"),
    "header_plus": GOOD_PWM.replace("PWM 3", "PWM +3"),
    "header_zero": "PWM 0 ab\n",
    "header_name": GOOD_PWM.replace("PWM", "PWX"),
    "header_repeated_letters": GOOD_PWM.replace("ab", "aa"),
    "header_only": "PWM 3 ab\n",
    "one_column": "PWM 2 a\n0.5\n1\n",
    "empty": "",
    "blank_only": "\n \n",
    "comment_only": "# c\n",
}
# the cases the C row reader decides alone; every other one is read by the line walk
PWM_FAST_CASES = {"plain", "crlf", "tabs", "whitespace_lines", "nbsp", "header_leading_zero",
                  "header_plus", "one_column"}


def read_both(text, fmt=io._PWM):
    """What the parser and the line walk of `fmt` make of `text`: equal, or unequal."""
    out = []
    parse = io.parse_pwm if fmt is io._PWM else io.parse_profile
    for read in (parse, lambda t: io._walk_table(t, fmt)):
        try:
            x = read(text)
            tables = (x.units, x.probs) if fmt is io._PWM else (x.scores,)
            out.append((x.alphabet, *((a.dtype.str, a.shape, a.tobytes()) for a in tables)))
        except (ParseError, DomainError) as exc:
            out.append((type(exc).__name__, str(exc), getattr(exc, "line", None)))
    return out


@pytest.mark.parametrize("name", sorted(PWM_EDGE_CASES))
def test_pwm_reader_matches_line_walk(name):
    text = PWM_EDGE_CASES[name]
    fast, walk = read_both(text)
    assert fast == walk
    assert (io._read_table(text, io._PWM) is not None) == (name in PWM_FAST_CASES)


GOOD_PROFILE = "PROFILE 3 ab\n5 -3\n0 0\n-7 12\n"
# name -> profile text; the C row reader and the line walk must agree on each
PROFILE_EDGE_CASES = {
    "plain": GOOD_PROFILE,
    "crlf": GOOD_PROFILE.replace("\n", "\r\n"),
    "tabs": GOOD_PROFILE.replace(" ", "\t"),
    "whitespace_lines": "PROFILE 3 ab\n \t \n5 -3\n   \n0 0\n-7 12\n\n",
    "nbsp": GOOD_PROFILE.replace("5 -3", "5\xa0-3"),
    "formfeed": GOOD_PROFILE.replace("5 -3", "5\x0c-3"),
    "comment_lines": "# c\nPROFILE 3 ab\n5 -3\n# c\n0 0\n-7 12\n# c\n",
    "trailing_comment": GOOD_PROFILE.replace("0 0", "0 0 # c"),
    "plus": GOOD_PROFILE.replace("5 -3", "+5 -3"),
    "leading_zeros": GOOD_PROFILE.replace("5 -3", "005 -03"),
    "underscore": GOOD_PROFILE.replace("5 -3", "1_0 -3"),
    "arabic_digit": GOOD_PROFILE.replace("5 -3", "\u0663 -3"),
    "fullwidth_digit": GOOD_PROFILE.replace("5 -3", "\uff15 -3"),
    "plane_13_letter": GOOD_PROFILE.replace("5 -3", "\U000dbfce -3"),
    "decimal_point": GOOD_PROFILE.replace("5 -3", "5.0 -3"),
    "exponent": GOOD_PROFILE.replace("5 -3", "5e0 -3"),
    "word": GOOD_PROFILE.replace("5 -3", "x -3"),
    "below_2_31": GOOD_PROFILE.replace("5 -3", f"{2 ** 31 - 1} {1 - 2 ** 31}"),
    "at_2_31": GOOD_PROFILE.replace("5 -3", f"5 {2 ** 31}"),
    "at_minus_2_31": GOOD_PROFILE.replace("5 -3", f"5 {-2 ** 31}"),
    "at_2_63": GOOD_PROFILE.replace("5 -3", f"5 {2 ** 63}"),
    "at_minus_2_63": GOOD_PROFILE.replace("5 -3", f"5 {-2 ** 63}"),
    "past_int64": GOOD_PROFILE.replace("0 0", f"{-2 ** 70} 0"),
    "range_then_token": GOOD_PROFILE.replace("0 0", f"{2 ** 40} 0").replace("-7 12", "-7 x"),
    "quotes": GOOD_PROFILE.replace("5 -3", '"5" -3'),
    "commas": GOOD_PROFILE.replace("5 -3", "5,-3"),
    "nul": GOOD_PROFILE.replace("5 -3", "5 -3\x00"),
    "too_many_rows": GOOD_PROFILE + "1 1\n",
    "too_few_rows": GOOD_PROFILE.replace("PROFILE 3", "PROFILE 4"),
    "too_many_tokens": GOOD_PROFILE.replace("0 0", "0 0 0"),
    "too_few_tokens": GOOD_PROFILE.replace("0 0", "0"),
    "header_leading_zero": GOOD_PROFILE.replace("PROFILE 3", "PROFILE 03"),
    "header_plus": GOOD_PROFILE.replace("PROFILE 3", "PROFILE +3"),
    "header_zero": "PROFILE 0 ab\n",
    "header_name": GOOD_PROFILE.replace("PROFILE", "PROFILX"),
    "header_pwm": GOOD_PROFILE.replace("PROFILE", "PWM"),
    "header_repeated_letters": GOOD_PROFILE.replace("ab", "aa"),
    "header_reserved_letter": GOOD_PROFILE.replace("ab", "a#"),
    "header_only": "PROFILE 3 ab\n",
    "one_column": "PROFILE 2 a\n5\n-1\n",
    "empty": "",
    "blank_only": "\n \n",
    "comment_only": "# c\n",
}
# the cases the C row reader decides alone; every other one is read by the line walk
PROFILE_FAST_CASES = {"plain", "crlf", "tabs", "whitespace_lines", "plus", "leading_zeros",
                      "below_2_31", "header_leading_zero", "header_plus", "one_column"}


@pytest.mark.parametrize("name", sorted(PROFILE_EDGE_CASES))
def test_profile_reader_matches_line_walk(name):
    text = PROFILE_EDGE_CASES[name]
    fast, walk = read_both(text, io._PROFILE)
    assert fast == walk
    assert (io._read_table(text, io._PROFILE) is not None) == (name in PROFILE_FAST_CASES)


def test_profile_reader_leaves_non_ascii_rows_to_the_line_walk(monkeypatch):
    # numpy's int64 reader crashed the interpreter on the plane-13 token
    # in 3 of 4 runs of 6,000 reads (numpy 2.4), so it must see no
    # non-ASCII profile row; the line walk reads them all
    loadtxt = np.loadtxt

    def ascii_only_loadtxt(rows, **kwargs):
        assert kwargs["dtype"] != np.int64 or all(row.isascii() for row in rows)
        return loadtxt(rows, **kwargs)

    monkeypatch.setattr(np, "loadtxt", ascii_only_loadtxt)
    for name in ("plane_13_letter", "arabic_digit", "fullwidth_digit", "nbsp", "plain"):
        text = PROFILE_EDGE_CASES[name]
        fast, walk = read_both(text, io._PROFILE)
        assert fast == walk
    with pytest.raises(ParseError) as exc:
        io.parse_profile(PROFILE_EDGE_CASES["plane_13_letter"])
    assert str(exc.value) == f"line 2: expected an integer score, got {chr(0xDBFCE)!r}"


def test_profile_reader_errors_name_their_lines():
    for name, line, message in (
            ("at_2_31", 2, f"score out of 32-bit range: {2 ** 31}"),
            ("at_minus_2_63", 2, f"score out of 32-bit range: {-2 ** 63}"),
            ("past_int64", 3, f"score out of 32-bit range: {-2 ** 70}"),
            ("range_then_token", 3, f"score out of 32-bit range: {2 ** 40}"),
            ("underscore", None, None), ("arabic_digit", None, None),
            ("decimal_point", 2, "expected an integer score, got '5.0'"),
            ("trailing_comment", 3, "expected 2 scores, got 4"),
            ("too_few_rows", 4, "unexpected end of file, expected a score row"),
            ("too_many_rows", 5, "trailing content: '1 1'"),
            ("header_reserved_letter", 1, "alphabet contains a reserved character")):
        text = PROFILE_EDGE_CASES[name]
        if message is None:  # `int` reads it, numpy's reader does not
            assert io.parse_profile(text).scores[0, 0] == int(text.split()[3])
            continue
        with pytest.raises(ParseError) as exc:
            io.parse_profile(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"


@pytest.fixture(scope="module")
def pwm_bases(tmp_path_factory):
    root = tmp_path_factory.mktemp("pwm")
    for seed, alphabet in ((1, "ab"), (2, "acgt")):
        assert cli.main(["gen", "--kind", "pwm", "--seed", str(seed), "--length", "6",
                         "--alphabet", alphabet, "--out", str(root / alphabet)]) == 0
    return [(root / a).read_text() for a in ("ab", "acgt")]


@pytest.fixture(scope="module")
def profile_bases(tmp_path_factory):
    root = tmp_path_factory.mktemp("profile")
    for seed, alphabet in ((1, "ab"), (2, "acgt")):
        assert cli.main(["gen", "--kind", "profile", "--seed", str(seed), "--length", "6",
                         "--alphabet", alphabet, "--out", str(root / alphabet)]) == 0
    return [(root / a).read_text() for a in ("ab", "acgt")]


LINE_MUTATIONS = ["comment", "blank", "spaces", "crlf", "tab", "formfeed", "drop", "add"]
PWM_MUTATIONS = LINE_MUTATIONS + ["x", "1_0", "nan", "\u0661"]
PROFILE_MUTATIONS = LINE_MUTATIONS + ["x", "1_0", "\u0663", "+5", "5.0", str(2 ** 31),
                                      str(-2 ** 31), str(2 ** 63), str(-2 ** 63)]


@st.composite
def mutated(draw, base: str, mutations: list[str]) -> str:
    """A generated PWM or profile after one to three line- or token-level edits."""
    lines = base.splitlines()
    end = "\n"
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(mutations))
        k = draw(st.integers(0, len(lines) - 1))
        tokens = lines[k].split(" ")
        t = draw(st.integers(0, len(tokens) - 1))
        if op in ("comment", "blank", "spaces"):
            lines.insert(k, {"comment": "# c", "blank": "", "spaces": " \t "}[op])
        elif op == "crlf":
            end = "\r\n"
        elif op in ("tab", "formfeed"):
            lines[k] = lines[k].replace(" ", "\t" if op == "tab" else "\x0c", 1)
        elif op == "drop":
            del tokens[t]
            lines[k] = " ".join(tokens)
        elif op == "add":
            tokens.insert(t, "0")
            lines[k] = " ".join(tokens)
        else:
            tokens[t] = op
            lines[k] = " ".join(tokens)
    return end.join(lines) + end


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_pwm_reader_matches_line_walk_on_mutations(pwm_bases, data):
    text = data.draw(mutated(data.draw(st.sampled_from(pwm_bases)), PWM_MUTATIONS))
    fast, walk = read_both(text)
    assert fast == walk


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_profile_reader_matches_line_walk_on_mutations(profile_bases, data):
    text = data.draw(mutated(data.draw(st.sampled_from(profile_bases)), PROFILE_MUTATIONS))
    fast, walk = read_both(text, io._PROFILE)
    assert fast == walk


def test_empty_input_reports_no_line_zero():
    for parse in (io.parse_pwm, io.parse_profile, io.parse_mck):
        for text in ("", "\n\n", "# only a comment\n"):
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert exc.value.line is None
            assert "line 0" not in str(exc.value)
            assert str(exc.value).startswith("unexpected end of file")


def test_parse_rejects_bad_alphabet():
    with pytest.raises(ParseError):
        io.parse_profile("PROFILE 1 aa\n1 1\n")
    with pytest.raises(ParseError):
        io.parse_pwm("PWM 1 a#\n0.5 0.5\n")


BAD_ALPHABETS = ["", "a#", "#", "a b", " ", "a\tb", "a\x00", "\x01b", "aba", "aa",
                 "a\x1fb", "a\x85", "a\u2028"]


def run_um(argv):
    """(exit status, stdout, stderr) of one in-process `um` call; argparse's exits included."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def alphabet_files(alphabet):
    """One-row PROFILE and PWM texts written with `alphabet` in the header."""
    zeros = " ".join("0" * len(alphabet))
    return f"PROFILE 1 {alphabet}\n{zeros}\n", f"PWM 1 {alphabet}\n{zeros}\n"


def alphabet_builders(alphabet):
    sigma = len(alphabet)
    return [lambda: WeightedSequence(alphabet, [[0] * sigma]),
            lambda: from_probabilities(alphabet, [[1.0 / max(sigma, 1)] * sigma]),
            lambda: ScoringMatrix(alphabet, (tuple(range(sigma)),))]


@pytest.mark.parametrize("alphabet", BAD_ALPHABETS, ids=repr)
def test_bad_alphabets_rejected_everywhere(alphabet):
    for build in alphabet_builders(alphabet):
        with pytest.raises(DomainError):
            build()
    for parse, text in zip((io.parse_profile, io.parse_pwm), alphabet_files(alphabet)):
        with pytest.raises(ParseError):
            parse(text)
    for kind in ("text", "profile", "pwm", "mck"):
        code, out, err = run_um(["gen", "--kind", kind, "--seed", "1", f"--alphabet={alphabet}"])
        assert (code, out) == (2, "")
        assert err.startswith("error: --alphabet ") and err.count("\n") == 1


@given(alphabet=st.text(st.sampled_from("ab\xe9#\x00\x01 \t\x1f\x85\xa0\u2028") |
                        st.characters(), max_size=5))
@settings(max_examples=200, deadline=None)
def test_every_accepted_alphabet_round_trips(alphabet):
    # the library builds exactly the objects its parsers read back
    accepted = []
    for build in alphabet_builders(alphabet):
        try:
            accepted.append(build())
        except DomainError:
            pass
    gen_codes = {run_um(["gen", "--kind", kind, "--seed", "1", f"--alphabet={alphabet}"])[0]
                 for kind in ("text", "profile", "pwm")}
    if not accepted:
        assert gen_codes == {2}
        for parse, text in zip((io.parse_profile, io.parse_pwm), alphabet_files(alphabet)):
            with pytest.raises(ParseError):
                parse(text)
        return
    assert len(accepted) == 3 and gen_codes == {0}
    _, x, prof = accepted
    assert io.parse_profile(io.serialize_profile(prof)) == prof
    y = io.parse_pwm(io.serialize_pwm(x))
    assert y == x and np.array_equal(y.probs, x.probs)
    for kind, parse, write in (("profile", io.parse_profile, io.serialize_profile),
                               ("pwm", io.parse_pwm, io.serialize_pwm)):
        text = run_um(["gen", "--kind", kind, "--seed", "1", f"--alphabet={alphabet}"])[1]
        assert write(parse(text)) == text


def test_serializers_minimal():
    prof = ScoringMatrix("ab", ((3, 0), (2, 5)))
    assert io.serialize_profile(prof) == "PROFILE 2 ab\n3 0\n2 5\n"
    inst = make_instance([[(1, 5), (3, 1)]], 5, 3)
    assert io.serialize_mck(inst) == "MCK 1 5 3\n2\n1 5\n3 1\n"


def test_parse_z():
    assert cli.parse_z("2^10").display == 1024
    assert cli.parse_z("4").display == 4
    with pytest.raises(ParseError):
        cli.parse_z("2^x")
    with pytest.raises(ParseError):
        cli.parse_z("many")
    assert cli.parse_z("2^1023").display == 2.0 ** 1023
    for token in ("2^1024", "2^99999999999"):
        with pytest.raises(ParseError, match=r"largest power is 2\^1023"):
            cli.parse_z(token)
    for token, shown in (("0.5", "0.5"), ("nan", "nan"), ("2^-1", "0.5")):
        with pytest.raises(ParseError) as exc:
            cli.parse_z(token)
        assert str(exc.value) == \
            f"invalid threshold {token!r}: threshold z must be >= 1, got {shown}"


def test_parse_algo():
    assert cli.parse_algo("auto") == ("auto", None)
    assert cli.parse_algo("k=2") == ("k", 2)
    with pytest.raises(ParseError):
        cli.parse_algo("k=0")
    with pytest.raises(ParseError):
        cli.parse_algo("fastest")


def test_cli_pm(tmp_path, capsys):
    prof = tmp_path / "p.prof"
    prof.write_text("PROFILE 2 ab\n3 0\n2 5\n")
    text = tmp_path / "t.txt"
    text.write_text("abba\n")
    assert cli.main(["pm", "--profile", str(prof), "--text", str(text), "--Z", "7"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_cli_wpm_naive_matches_auto(tmp_path, capsys):
    pwm = gen(tmp_path, "t.pwm", "--kind", "pwm", "--seed", "11", "--length", "30")
    pat = gen(tmp_path, "p.txt", "--kind", "text", "--seed", "12", "--length", "3")
    base = ["wpm", "--pattern", str(pat), "--text", str(pwm), "--z", "16"]
    assert cli.main(base) == 0
    fast = capsys.readouterr().out
    assert cli.main(base + ["--algo", "naive"]) == 0
    assert capsys.readouterr().out == fast


def test_cli_consensus(tmp_path, capsys):
    x = tmp_path / "x.pwm"
    x.write_text(FIG_PWM)
    base = ["consensus", "--x", str(x), "--y", str(x)]
    assert cli.main(base + ["--z", "4"]) == 0
    assert capsys.readouterr().out.strip() in {"aaab", "baab"}
    assert cli.main(base + ["--z", "2"]) == 1
    assert capsys.readouterr().out == "NONE\n"
    assert cli.main(base + ["--z", "2", "--format", "jsonl"]) == 1
    assert json.loads(capsys.readouterr().out) == {"witness": None}


def test_cli_gwpm_witness(tmp_path, capsys):
    x = tmp_path / "x.pwm"
    x.write_text(FIG_PWM)
    assert cli.main(["gwpm", "--pattern", str(x), "--text", str(x),
                     "--z", "4", "--witness"]) == 0
    out = capsys.readouterr().out
    pos, witness = out.strip().split("\t")
    assert pos == "1" and witness in {"aaab", "baab"}
    assert cli.main(["gwpm", "--pattern", str(x), "--text", str(x),
                     "--z", "4", "--format", "jsonl"]) == 0
    assert json.loads(capsys.readouterr().out) == {"position": 1}


# the required options of each subcommand, with values no check reads before the error
REQUIRED = {"pm": ["--profile", "p", "--text", "t", "--Z", "1"],
            "wpm": ["--pattern", "p", "--text", "t", "--z", "2"],
            "consensus": ["--x", "x", "--y", "y", "--z", "2"],
            "gwpm": ["--pattern", "p", "--text", "t", "--z", "2"],
            "knapsack": ["--instance", "i"],
            "gen": ["--seed", "1", "--kind", "text"]}
PARSER_ARGVS = [[], ["--help"], ["-h"], ["bogus"], *(
    argv for sub, required in REQUIRED.items() for argv in (
        [sub, "--help"],
        [sub],
        # unknown options reach the top-level parser's "unrecognized arguments" error
        [sub, *required, "--nope"],
        [sub, *required[:-1], "zz"] if sub == "gen" else [sub, *required, "--format", "xml"]))]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_cli_one_subparser_equals_all(argv, monkeypatch):
    # help, usage errors and exit statuses do not depend on how many subparsers were built
    one = run_um(argv)
    build_all = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=(): build_all())
    assert run_um(argv) == one
    assert one[0] == (0 if {"-h", "--help"} & set(argv) else 2)


def test_cli_builds_one_subparser(tmp_path, monkeypatch):
    x = tmp_path / "x.pwm"
    x.write_text(FIG_PWM)
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: built.append(name) or add_parser(self, name, **kw))
    assert run_um(["gwpm", "--pattern", str(x), "--text", str(x), "--z", "4"])[:2] == (0, "1\n")
    assert built == ["gwpm"]
    run_um(["--help"])
    assert built == ["gwpm", *REQUIRED]


def test_cli_gwpm_at_infinite_z(tmp_path, capsys):
    # `um wpm` and `um consensus` answer at z = inf, and so does `um gwpm`
    pat = gen(tmp_path, "p.pwm", "--kind", "pwm", "--seed", "3", "--length", "3")
    text = gen(tmp_path, "t.pwm", "--kind", "pwm", "--seed", "4", "--length", "30")
    p_seq, t_seq = io.parse_pwm(pat.read_text()), io.parse_pwm(text.read_text())
    z = cli.parse_z("inf")
    assert cli.main(["gwpm", "--pattern", str(pat), "--text", str(text), "--z", "inf",
                     "--witness"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [int(line.split("\t")[0]) for line in lines] == [
        p for p in range(1, 29)
        if weighted_consensus(p_seq, t_seq.factor(p, p + 2), z) is not None]
    for line in lines:
        p, witness = line.split("\t")
        assert match_neglog(witness, p_seq) < neglog.INF
        assert match_neglog(witness, t_seq.factor(int(p), int(p) + 2)) < neglog.INF
    assert_input_error(capsys, ["gwpm", "--pattern", str(pat), "--text", str(text),
                                "--z", "inf", "--algo", "naive"])


def test_cli_gwpm_naive_shares_no_fast_code(tmp_path, monkeypatch):
    # `um gwpm --algo naive` is the per-window oracle: with the lcp index,
    # the mismatch walk and the knapsack layer broken it still prints each
    # window's `naive_consensus`, so a fault there cannot hide in a diff
    # of the two algorithms
    from uncertainmatch import consensus, knapsack

    def broken(*args, **kwargs):
        raise AssertionError("the oracle reached the fast path")

    monkeypatch.setattr(consensus, "mismatch_walk", broken)
    monkeypatch.setattr(consensus, "build_cross_index", broken)
    monkeypatch.setattr(knapsack, "decide", broken)
    for alphabet, z, pattern, text in (("ab", "2^4", ("23", "8"), ("19", "400")),
                                       ("acgt", "64", ("11", "4"), ("4", "60"))):
        pat, txt = (gen(tmp_path, f"{name}-{alphabet}.pwm", "--kind", "pwm", "--seed", seed,
                        "--length", length, "--alphabet", alphabet)
                    for name, (seed, length) in (("p", pattern), ("t", text)))
        p_seq, t_seq = io.parse_pwm(pat.read_text()), io.parse_pwm(txt.read_text())
        m, threshold = p_seq.n, cli.parse_z(z)
        expect = []
        for p in range(1, t_seq.n - m + 2):
            witness = naive_consensus(p_seq, t_seq.factor(p, p + m - 1), threshold)
            if witness is not None:
                expect.append(f"{p}\t{witness}\n")
        assert 0 < len(expect) < t_seq.n - m + 1
        argv = ["gwpm", "--pattern", str(pat), "--text", str(txt), "--z", z, "--witness"]
        assert run_um(argv + ["--algo", "naive"]) == (0, "".join(expect), "")
        with pytest.raises(AssertionError, match="fast path"):
            run_um(argv)


def test_cli_knapsack(tmp_path, capsys):
    inst = tmp_path / "i.mck"
    inst.write_text("MCK 2 5 3\n2\n1 5\n3 1\n2\n2 2\n4 0\n")
    assert cli.main(["knapsack", "--instance", str(inst)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "YES"
    assert out[1:] == ["1 2", "2 1"]
    bad = tmp_path / "no.mck"
    bad.write_text("MCK 1 0 0\n1\n1 1\n")
    assert cli.main(["knapsack", "--instance", str(bad)]) == 1
    assert capsys.readouterr().out == "NO\n"
    assert cli.main(["knapsack", "--instance", str(bad), "--format", "jsonl"]) == 1
    assert json.loads(capsys.readouterr().out) == {"feasible": False, "choice": None}


def test_cli_knapsack_naive(tmp_path, capsys):
    # two feasible choices, (1, 2) and (2, 2) 1-based: brute force prints
    # the first in lexicographic pick order
    yes = tmp_path / "yes.mck"
    yes.write_text("MCK 2 1 1\n2\n1 1\n0 0\n2\n5 5\n0 0\n")
    assert cli.main(["knapsack", "--instance", str(yes), "--algo", "naive"]) == 0
    assert capsys.readouterr().out == "YES\n1 1\n2 2\n"
    no = tmp_path / "no.mck"
    no.write_text("MCK 2 -1 -1\n2\n1 1\n0 0\n2\n5 5\n0 0\n")
    assert cli.main(["knapsack", "--instance", str(no), "--algo", "naive"]) == 1
    assert capsys.readouterr().out == "NO\n"
    # 2^21 choices: past the enumeration guard before any is tried
    big = tmp_path / "big.mck"
    big.write_text(io.serialize_mck(make_instance([[(0, 0), (1, 1)]] * 21, 0, 0)))
    assert cli.main(["knapsack", "--instance", str(big), "--algo", "naive"]) == 2
    assert capsys.readouterr() == ("", "error: knapsack brute force: search space of "
                                   "2097152 exceeds the enumeration guard of 1048576\n")


@pytest.mark.parametrize("text,line,message", [
    ("MCK 0 5 5\n", 1, "class count 0 out of range [1, 1048576)"),
    ("MCK 1 5 5\n0\n", 2, "class size must be positive, got 0"),
    ("MCK 1 5 5\n1048576\n", 2, "total item count exceeds 1048576"),
    ("MCK 1 5 5\n1\n1099511627776 0\n", 3, "item magnitude exceeds 2^40"),
], ids=["class-count", "class-size", "item-total", "magnitude"])
def test_cli_knapsack_parse_refusals(tmp_path, capsys, text, line, message):
    inst = tmp_path / "i.mck"
    inst.write_text(text)
    assert cli.main(["knapsack", "--instance", str(inst)]) == 2
    assert capsys.readouterr() == ("", f"error: {inst}: line {line}: {message}\n")


def test_cli_knapsack_memory_guard(tmp_path):
    # 12 anti-correlated classes of 30 items, which the Lagrangian bounds
    # leave: the prefix lists would outgrow memory long before the search
    # stops, so `um knapsack` must refuse with status 2
    inst = tmp_path / "big.mck"
    inst.write_text(io.serialize_mck(anti_correlated(random.Random(3), 12, 30, 1 << 20)))
    src = str(Path(uncertainmatch.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "uncertainmatch.cli", "knapsack",
                           "--instance", str(inst)], capture_output=True, text=True,
                          env=env, preexec_fn=cap_memory, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_cli_positions_written_whole(capsys):
    cli._emit_positions([], "text")
    cli._emit_positions([], "jsonl", str)
    assert capsys.readouterr().out == ""
    cli._emit_positions([3, 10], "text")
    assert capsys.readouterr().out == "3\n10\n"
    cli._emit_positions([3, 10], "text", lambda p: "ab")
    assert capsys.readouterr().out == "3\tab\n10\tab\n"
    cli._emit_positions([3], "jsonl", lambda p: "ab")
    assert capsys.readouterr().out == '{"position": 3, "witness": "ab"}\n'
    cli._emit_positions([3, 4], "jsonl")
    assert capsys.readouterr().out == '{"position": 3}\n{"position": 4}\n'


def test_cli_bad_input(tmp_path, capsys):
    assert cli.main(["wpm", "--pattern", str(tmp_path / "missing"),
                     "--text", str(tmp_path / "missing"), "--z", "4"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")
    broken = tmp_path / "broken.pwm"
    broken.write_text("PWM 2 ab\n0.5 0.5\n")
    pat = tmp_path / "p.txt"
    pat.write_text("a\n")
    assert cli.main(["wpm", "--pattern", str(pat), "--text", str(broken),
                     "--z", "4"]) == 2
    assert "error:" in capsys.readouterr().err
    pwm = tmp_path / "t.pwm"
    pwm.write_text(FIG_PWM)
    assert_input_error(capsys, ["wpm", "--pattern", str(pat), "--text", str(pwm), "--z", "0.5"])


def assert_input_error(capsys, argv):
    """Exit status 2 with a one-line `error:` message and no traceback."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_gen_reversed_score_range(tmp_path, capsys):
    out = tmp_path / "p.prof"
    assert_input_error(capsys, ["gen", "--kind", "profile", "--seed", "1",
                                "--score-range", "10", "-10", "--out", str(out)])
    assert not out.exists()


def test_cli_gen_unwritable_out(tmp_path, capsys):
    for out in (tmp_path, tmp_path / "missing" / "t.txt"):
        assert_input_error(capsys, ["gen", "--kind", "text", "--seed", "1", "--out", str(out)])
        assert cli.main(["gen", "--kind", "text", "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_cli_profile_score_beyond_32_bits_names_its_line(tmp_path, capsys):
    prof = tmp_path / "big.prof"
    prof.write_text(f"PROFILE 2 ab\n1 2\n3 {2 ** 35}\n")
    text = tmp_path / "t.txt"
    text.write_text("ab\n")
    argv = ["pm", "--profile", str(prof), "--text", str(text), "--Z", "0"]
    assert_input_error(capsys, argv)
    assert cli.main(argv) == 2
    assert f"{prof}: line 3: " in capsys.readouterr().err


def test_cli_non_utf8_input(tmp_path, capsys):
    bad = tmp_path / "bad.pwm"
    bad.write_bytes(b"PWM 1 ab\n\xff\xfe 0.5\n")
    assert_input_error(capsys, ["consensus", "--x", str(bad), "--y", str(bad), "--z", "4"])


def test_cli_consensus_refuses_unequal_lengths(tmp_path, capsys):
    # PWMs of 4 and 2 rows: one `error:` line naming both lengths, under
    # every solver
    x = gen(tmp_path, "x.pwm", "--kind", "pwm", "--seed", "1", "--length", "4")
    y = gen(tmp_path, "y.pwm", "--kind", "pwm", "--seed", "2", "--length", "2")
    for algo in ("auto", "mim", "k=1", "naive"):
        argv = ["consensus", "--x", str(x), "--y", str(y), "--z", "64", "--algo", algo]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: sequences must have equal length, got 4 and 2\n"


def test_cli_consensus_naive_enumeration_guard(tmp_path, capsys):
    x = tmp_path / "x.pwm"
    x.write_text(FIG_PWM)
    assert_input_error(capsys, ["consensus", "--algo", "naive", "--x", str(x),
                                "--y", str(x), "--z", "1e308"])


def test_cli_consensus_naive_on_long_inputs(tmp_path, capsys):
    # the oracle's enumeration is one stack frame however long the rows:
    # 3,000 positions once ended in a RecursionError
    x = tmp_path / "x.pwm"
    x.write_text("PWM 3000 acgt\n" + "1 0 0 0\n" * 3000)
    assert cli.main(["consensus", "--algo", "naive", "--x", str(x), "--y", str(x),
                     "--z", "2"]) == 0
    assert capsys.readouterr().out == "a" * 3000 + "\n"


def test_cli_out_of_memory_is_refused(tmp_path, capsys, monkeypatch):
    # running out of memory exits 2 with one `error:` line, as the
    # memory guards do, not 1 (NONE) with a traceback
    from uncertainmatch import consensus

    def numpy_oom(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array with shape "
                          "(1000000000,) and data type float64")

    def bare_oom(*args, **kwargs):
        raise MemoryError()

    x = tmp_path / "x.pwm"
    x.write_text(FIG_PWM)
    monkeypatch.setattr(consensus, "gwpm", numpy_oom)
    assert_input_error(capsys, ["gwpm", "--pattern", str(x), "--text", str(x), "--z", "4"])
    monkeypatch.setattr(consensus, "weighted_consensus", bare_oom)
    assert_input_error(capsys, ["consensus", "--x", str(x), "--y", str(x), "--z", "4"])


def test_cli_gen_refuses_empty_pwm(tmp_path, capsys):
    out = tmp_path / "t.pwm"
    assert_input_error(capsys, ["gen", "--kind", "pwm", "--seed", "1", "--length", "0",
                                "--out", str(out)])
    assert not out.exists()


def test_cli_gen_refuses_empty_mck(tmp_path, capsys):
    out = tmp_path / "i.mck"
    assert_input_error(capsys, ["gen", "--kind", "mck", "--seed", "1", "--classes", "0",
                                "--out", str(out)])
    assert not out.exists()


def test_cli_consensus_auto_is_meet_in_the_middle(tmp_path, capsys, monkeypatch):
    # `auto` and `mim` both run the search of knapsack.solve (k = 0),
    # `k=1` that of solve_k; this pair, `knapsack_to_wc` of 6
    # anti-correlated classes, reaches the search past the Lagrangian
    # bounds, and its files and z read back to the same units
    from uncertainmatch import knapsack

    wc = knapsack_to_wc(anti_correlated(random.Random(3), 6, 4, 50))
    x, y = tmp_path / "x.pwm", tmp_path / "y.pwm"
    for path, seq in ((x, wc.X), (y, wc.Y)):
        path.write_text(io.serialize_pwm(seq))
        assert (io.parse_pwm(path.read_text()).units == seq.units).all()
    z = repr(wc.z.display)
    assert cli.parse_z(z).units == wc.z.units
    calls = []
    original = knapsack.search
    monkeypatch.setattr(knapsack, "search", lambda *a: calls.append(a[-1]) or original(*a))
    for algo in ("auto", "mim", "k=1"):
        calls.clear()
        assert cli.main(["consensus", "--x", str(x), "--y", str(y), "--z", z,
                         "--algo", algo]) == 0
        assert calls == ([1] if algo == "k=1" else [0])
    capsys.readouterr()


def test_cli_sdwc_is_not_an_algorithm(tmp_path, capsys):
    x = tmp_path / "x.pwm"
    x.write_text(FIG_PWM)
    for base in (["consensus", "--x", str(x), "--y", str(x), "--z", "4"],
                 ["gwpm", "--pattern", str(x), "--text", str(x), "--z", "4"]):
        for algo in ("sdwc", "k=0", "k=x"):
            assert_input_error(capsys, base + ["--algo", algo])
            assert cli.main(base + ["--algo", algo]) == 2
            err = capsys.readouterr().err
            assert f"um {base[0]}" in err and repr(algo) in err


def test_cli_matchers_take_only_auto_or_naive(tmp_path, capsys):
    # pm and wpm have no solver, so a solver choice is an input error
    prof = tmp_path / "p.prof"
    prof.write_text("PROFILE 2 ab\n3 0\n2 5\n")
    text = tmp_path / "t.txt"
    text.write_text("abba\n")
    pwm = tmp_path / "t.pwm"
    pwm.write_text(FIG_PWM)
    for base in (["pm", "--profile", str(prof), "--text", str(text), "--Z", "7"],
                 ["wpm", "--pattern", str(text), "--text", str(pwm), "--z", "4"]):
        for algo in ("auto", "naive"):
            assert cli.main(base + ["--algo", algo]) == 0
        capsys.readouterr()
        for algo in ("mim", "k=3", "k=x", "sdwc"):
            assert cli.main(base + ["--algo", algo]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"um {base[0]}" in err and repr(algo) in err


def test_cli_parse_error_names_its_file(tmp_path, capsys):
    good = gen(tmp_path, "a.pwm", "--kind", "pwm", "--seed", "1", "--length", "4")
    bad = tmp_path / "b.pwm"
    bad.write_text("PWM 2 ab\n# c\n\n0.5 0.5\n0.7 0.7\n")
    assert_input_error(capsys, ["consensus", "--x", str(good), "--y", str(bad), "--z", "4"])
    assert cli.main(["consensus", "--x", str(good), "--y", str(bad), "--z", "4"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: line 5: probabilities sum to 1.4 > 1\n"
    assert str(good) not in err
    prof = tmp_path / "p.prof"
    prof.write_text("PROFILE 1 ab\n1\n")
    text = tmp_path / "t.txt"
    text.write_text("ab\n")
    assert_input_error(capsys, ["pm", "--profile", str(prof), "--text", str(text), "--Z", "0"])
    inst = tmp_path / "i.mck"
    inst.write_text("MCK 1 5 5\n1\n1 1\nextra\n")
    assert cli.main(["knapsack", "--instance", str(inst)]) == 2
    assert capsys.readouterr().err == f"error: {inst}: line 4: trailing content: 'extra'\n"


# inputs for the exit-code fuzz test: name -> `um gen` options
FUZZ_BASES = {
    "profile": ("--kind", "profile", "--length", "4"),
    "text": ("--kind", "text", "--length", "40"),
    "pattern": ("--kind", "text", "--length", "3"),
    "pwm": ("--kind", "pwm", "--length", "30"),
    "short_pwm": ("--kind", "pwm", "--length", "4"),
    "mck": ("--kind", "mck", "--classes", "4"),
}
# (argv with "@" for the fuzzed file, the good file it stands in for)
FUZZ_TARGETS = [
    (["pm", "--profile", "@", "--text", "text", "--Z", "-5"], "profile"),
    (["pm", "--profile", "profile", "--text", "@", "--Z", "-5"], "text"),
    (["wpm", "--pattern", "pattern", "--text", "@", "--z", "16"], "pwm"),
    (["wpm", "--pattern", "@", "--text", "pwm", "--z", "16"], "pattern"),
    (["gwpm", "--pattern", "@", "--text", "pwm", "--z", "16", "--witness"], "short_pwm"),
    (["gwpm", "--pattern", "short_pwm", "--text", "@", "--z", "16"], "pwm"),
    (["consensus", "--x", "short_pwm", "--y", "@", "--z", "16"], "short_pwm"),
    (["knapsack", "--instance", "@"], "mck"),
]
TOKENS = [b"0", b"1", b"-1", b"2", b"0.5", b"1.5", b"-0.0", b"1e309", b"nan", b"inf",
          b"99999999999999", b"x", b"", b"#", b"\x00", b"\x01", b"\xff", b"\n", b" "]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, opts in FUZZ_BASES.items():
        assert cli.main(["gen", "--seed", "5", "--out", str(root / name), *opts]) == 0
    return root


@st.composite
def near_valid(draw, base: bytes) -> bytes:
    """`base` after a few token-level edits: replace, insert, delete a
    token, or delete or repeat a line."""
    lines = base.split(b"\n")
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        tokens = lines[k].split(b" ")
        t = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from(["replace", "insert", "delete", "drop_line", "dup_line"]))
        if op == "replace":
            tokens[t] = draw(st.sampled_from(TOKENS))
        elif op == "insert":
            tokens.insert(t, draw(st.sampled_from(TOKENS)))
        elif op == "delete":
            del tokens[t]
        lines[k] = b" ".join(tokens)
        if op == "drop_line":
            del lines[k]
        elif op == "dup_line":
            lines.insert(k, lines[k])
        if not lines:
            lines = [b""]
    return b"\n".join(lines)


@pytest.mark.parametrize("argv,base", FUZZ_TARGETS,
                         ids=[f"{a[0]}-{a.index('@')}" for a, _ in FUZZ_TARGETS])
@given(data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exit_code_contract_fuzz(fuzz_files, tmp_path, argv, base, data):
    good = (fuzz_files / base).read_bytes()
    content = data.draw(st.one_of(st.binary(max_size=300), near_valid(good)))
    path = tmp_path / "fuzzed"
    path.write_bytes(content)
    args = [str(path) if a == "@" else str(fuzz_files / a) if a in FUZZ_BASES else a
            for a in argv]
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
