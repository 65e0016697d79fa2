"""Command-line interface.

Subcommands: pm (profile matching), wpm (weighted pattern matching),
consensus, gwpm, knapsack, and gen (seeded instance generator).
Occurrence positions are 1-based; exit status is 0 on success, 1 when
the answer is NONE/NO, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import consensus as consensus_mod
from . import io as io_mod
from . import knapsack as knapsack_mod
from . import profile as profile_mod
from . import reference, weighted
from .capacity import MAX_ABS_MAGNITUDE, MAX_ITEMS
from .errors import CapacityError, DomainError, ParseError
from .weighted import ProbThreshold

EXIT_OK = 0
EXIT_NONE = 1
EXIT_INPUT = 2


def parse_z(token: str) -> ProbThreshold:
    """Threshold given as a decimal or as `2^<int>`."""
    try:
        if token.startswith("2^"):
            return ProbThreshold.from_z(2.0 ** int(token[2:]))
        return ProbThreshold.from_z(float(token))
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"invalid threshold {token!r}: {exc}") from None


def parse_algo(token: str) -> tuple[str, int | None]:
    if token in ("auto", "naive", "mim"):
        return token, None
    if token.startswith("k="):
        try:
            k = int(token[2:])
        except ValueError:
            raise ParseError(f"invalid algorithm {token!r}") from None
        if k < 1:
            raise ParseError("k must be a positive integer")
        return "k", k
    raise ParseError(f"unknown algorithm {token!r}")


def _matcher_algo(args) -> str:
    """`--algo` of pm and wpm, which have no solver to choose."""
    if args.algo not in ("auto", "naive"):
        raise ParseError(f"um {args.subcommand} takes --algo auto or naive, not {args.algo!r}")
    return args.algo


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason} "
                         f"at byte {exc.start})") from None


def _parse(parse, path: str):
    """`parse` applied to the file at `path`; an error in it names the file."""
    text = _read(path)
    try:
        return parse(text)
    except (ParseError, DomainError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _read_string(path: str) -> str:
    """A solid string file: comments stripped, lines concatenated."""
    return "".join(line for _, line in io_mod._logical_lines(_read(path)))


def _emit_positions(positions, fmt, witness_of=None):
    # one write: a print per line took 1.25 s against 0.21 s on 762,637 lines (2-core VM)
    if fmt == "jsonl":
        if witness_of is None:
            lines = [json.dumps({"position": p}) for p in positions]
        else:
            lines = [json.dumps({"position": p, "witness": witness_of(p)}) for p in positions]
    elif witness_of is not None:
        lines = [f"{p}\t{witness_of(p)}" for p in positions]
    else:
        lines = [str(p) for p in positions]
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


def _run_pm(args) -> int:
    algo = _matcher_algo(args)
    prof = _parse(io_mod.parse_profile, args.profile)
    text = _read_string(args.text)
    if algo == "naive":
        occ = reference.naive_profile_match(prof, text, args.Z)
    else:
        occ = profile_mod.profile_match(prof, text, args.Z)
    _emit_positions(occ, args.format)
    return EXIT_OK


def _run_wpm(args) -> int:
    algo = _matcher_algo(args)
    z = parse_z(args.z)
    pattern = _read_string(args.pattern)
    text = _parse(io_mod.parse_pwm, args.text)
    if algo == "naive":
        occ = reference.naive_wpm(pattern, text, z)
    else:
        occ = weighted.wpm(pattern, text, z)
    _emit_positions(occ, args.format)
    return EXIT_OK


def _run_consensus(args) -> int:
    algo, k = parse_algo(args.algo)
    z = parse_z(args.z)
    x = _parse(io_mod.parse_pwm, args.x)
    y = _parse(io_mod.parse_pwm, args.y)
    if algo == "naive":
        witness = reference.naive_consensus(x, y, z)
    else:
        # auto is meet in the middle: solve_k lost on every pair measured
        witness = consensus_mod.weighted_consensus(x, y, z, k=k)
    if args.format == "jsonl":
        print(json.dumps({"witness": witness}))
    else:
        print(witness if witness is not None else "NONE")
    return EXIT_OK if witness is not None else EXIT_NONE


def _run_gwpm(args) -> int:
    algo, k = parse_algo(args.algo)
    z = parse_z(args.z)
    p = _parse(io_mod.parse_pwm, args.pattern)
    t = _parse(io_mod.parse_pwm, args.text)
    result = consensus_mod.gwpm(p, t, z, algo="mim" if algo == "k" else algo, k=k)
    witness_of = (lambda pos: consensus_mod.gwpm_witness(result, pos)) if args.witness else None
    _emit_positions(result.occurrences, args.format, witness_of)
    return EXIT_OK


def _run_knapsack(args) -> int:
    algo, k = parse_algo(args.algo)
    inst = _parse(io_mod.parse_mck, args.instance)
    if algo == "naive":
        choice = knapsack_mod.brute_force(inst)
    elif algo == "k":
        choice = knapsack_mod.solve_k(inst, k)
    else:
        choice = knapsack_mod.solve(inst)
    if args.format == "jsonl":
        payload = None if choice is None else {str(c + 1): i + 1 for c, i in sorted(choice.items())}
        print(json.dumps({"feasible": choice is not None, "choice": payload}))
    elif choice is None:
        print("NO")
    else:
        print("YES")
        for c in sorted(choice):
            print(f"{c + 1} {choice[c] + 1}")
    return EXIT_OK if choice is not None else EXIT_NONE


def _gen_count(args, name: str, lo: int, hi: float = math.inf) -> int:
    value = getattr(args, name)
    if not (lo <= value < hi):
        raise DomainError(f"--{name} {value} out of range [{lo}, {hi})")
    return value


def _gen_range(args, name: str) -> tuple[int, int]:
    lo, hi = getattr(args, name)
    if lo > hi:
        raise DomainError(f"--{name.replace('_', '-')}: low end {lo} above high end {hi}")
    return lo, hi


def _gen(args) -> str:
    """One seeded instance, refusing options whose output `um` would reject."""
    rng = random.Random(args.seed)
    kind = args.kind
    alphabet = args.alphabet
    if not alphabet or len(set(alphabet)) != len(alphabet) or \
            any(c.isspace() or c in "#\x00\x01" for c in alphabet):
        raise DomainError(f"--alphabet {alphabet!r}: need distinct, non-blank, "
                          "non-reserved letters")
    if kind == "text":
        n = _gen_count(args, "length", 0)
        return "".join(rng.choice(alphabet) for _ in range(n)) + "\n"
    if kind == "profile":
        m = _gen_count(args, "length", 1, MAX_ITEMS)
        lo, hi = _gen_range(args, "score_range")
        rows = tuple(tuple(rng.randint(lo, hi) for _ in alphabet) for _ in range(m))
        return io_mod.serialize_profile(profile_mod.ScoringMatrix(alphabet, rows))
    if kind == "pwm":
        rows = []
        grid = 10 ** 6
        for _ in range(_gen_count(args, "length", 1, MAX_ITEMS)):
            raw = [rng.expovariate(1.0) for _ in alphabet]
            total = sum(raw)
            # floor on a fixed grid keeps the row sum at most 1
            rows.append([math.floor(x / total * grid) / grid for x in raw])
        return io_mod.serialize_pwm(weighted.from_probabilities(alphabet, rows))
    if kind == "mck":
        n = _gen_count(args, "classes", 1, MAX_ITEMS)
        # the parser takes fewer than MAX_ITEMS items in all
        lam = _gen_count(args, "lam", 1, -(-MAX_ITEMS // n))
        lo, hi = _gen_range(args, "value_range")
        if max(-lo, hi) >= MAX_ABS_MAGNITUDE:
            raise DomainError("--value-range: item magnitude must stay below 2^40")
        classes = [
            [(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(rng.randint(1, lam))]
            for _ in range(n)
        ]
        # thresholds from a random choice, so instances are often feasible
        V = sum(cls[rng.randrange(len(cls))][0] for cls in classes)
        W = sum(cls[rng.randrange(len(cls))][1] for cls in classes)
        return io_mod.serialize_mck(knapsack_mod.make_instance(classes, V, W))
    raise ParseError(f"unknown kind {kind!r}")


def _run_gen(args) -> int:
    content = _gen(args)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(content)
        except OSError as exc:
            raise DomainError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(content)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="um", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, algos="auto | naive | mim | k=<int>"):
        p.add_argument("--algo", default="auto", help=algos)
        p.add_argument("--format", default="text", choices=("text", "jsonl"))

    p = sub.add_parser("pm", help="profile matching on a solid text")
    p.set_defaults(run=_run_pm)
    p.add_argument("--profile", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--Z", required=True, type=int, help="score threshold")
    common(p, "auto | naive")

    p = sub.add_parser("wpm", help="solid pattern in a weighted text")
    p.set_defaults(run=_run_wpm)
    p.add_argument("--pattern", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--z", required=True, help="probability threshold (decimal or 2^<int>)")
    common(p, "auto | naive")

    p = sub.add_parser("consensus", help="weighted consensus of two sequences")
    p.set_defaults(run=_run_consensus)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    common(p)

    p = sub.add_parser("gwpm", help="weighted pattern in a weighted text")
    p.set_defaults(run=_run_gwpm)
    p.add_argument("--pattern", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--witness", action="store_true")
    common(p)

    p = sub.add_parser("knapsack", help="multichoice knapsack feasibility")
    p.set_defaults(run=_run_knapsack)
    p.add_argument("--instance", required=True)
    common(p)

    p = sub.add_parser("gen", help="seeded instance generator")
    p.set_defaults(run=_run_gen)
    p.add_argument("--kind", required=True, choices=("text", "profile", "pwm", "mck"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", default=None)
    p.add_argument("--alphabet", default="acgt")
    p.add_argument("--length", type=int, default=10)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--lam", type=int, default=3)
    p.add_argument("--score-range", type=int, nargs=2, default=(-10, 10))
    p.add_argument("--value-range", type=int, nargs=2, default=(0, 100))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, DomainError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
