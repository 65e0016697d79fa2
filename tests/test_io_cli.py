import contextlib
import io as stdio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uncertainmatch import cli, io
from uncertainmatch.errors import ParseError
from uncertainmatch.knapsack import make_instance
from uncertainmatch.profile import ScoringMatrix

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


def test_cli_consensus_naive_enumeration_guard(tmp_path, capsys):
    x = tmp_path / "x.pwm"
    x.write_text(FIG_PWM)
    assert_input_error(capsys, ["consensus", "--algo", "naive", "--x", str(x),
                                "--y", str(x), "--z", "1e308"])


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
    # lam = 4 and z = 16 lie in the band lam^1 <= z <= lam^3 that once
    # sent `auto` to solve_k; `auto` and `mim` both run knapsack.solve
    from uncertainmatch import knapsack

    x = gen(tmp_path, "x.pwm", "--kind", "pwm", "--seed", "3", "--length", "6")
    y = gen(tmp_path, "y.pwm", "--kind", "pwm", "--seed", "4", "--length", "6")
    calls = []
    for name in ("solve", "solve_k"):
        original = getattr(knapsack, name)
        monkeypatch.setattr(knapsack, name,
                            lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    for algo in ("auto", "mim", "k=1"):
        calls.clear()
        assert cli.main(["consensus", "--x", str(x), "--y", str(y), "--z", "16",
                         "--algo", algo]) in (0, 1)
        assert calls[:1] == (["solve_k"] if algo == "k=1" else ["solve"])
        if algo != "k=1":
            assert "solve_k" not in calls
    capsys.readouterr()


def test_cli_sdwc_is_not_an_algorithm(tmp_path, capsys):
    x = tmp_path / "x.pwm"
    x.write_text(FIG_PWM)
    assert_input_error(capsys, ["consensus", "--x", str(x), "--y", str(x), "--z", "4",
                                "--algo", "sdwc"])
    assert_input_error(capsys, ["gwpm", "--pattern", str(x), "--text", str(x), "--z", "4",
                                "--algo", "sdwc"])


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
