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
from dataclasses import dataclass, field

from . import consensus as consensus_mod
from . import io as io_mod
from . import knapsack as knapsack_mod
from . import profile as profile_mod
from . import reference, sdwc, weighted
from .capacity import MAX_ABS_MAGNITUDE, MAX_ITEMS
from .errors import CapacityError, DomainError, ParseError
from .weighted import ProbThreshold

EXIT_OK = 0
EXIT_NONE = 1
EXIT_INPUT = 2


@dataclass
class RunConfig:
    subcommand: str
    algo: str = "auto"
    z: ProbThreshold | None = None
    Z: int | None = None
    paths: dict = field(default_factory=dict)
    witness: bool = False
    seed: int = 0
    fmt: str = "text"
    gen_options: dict = field(default_factory=dict)


def parse_z(token: str) -> ProbThreshold:
    """Threshold given as a decimal or as `2^<int>`."""
    try:
        if token.startswith("2^"):
            return ProbThreshold.from_z(2.0 ** int(token[2:]))
        return ProbThreshold.from_z(float(token))
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"invalid threshold {token!r}: {exc}") from None


def parse_algo(token: str) -> tuple[str, int | None]:
    if token in ("auto", "naive", "mim", "sdwc"):
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
    parts = []
    for line in _read(path).splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            parts.append(line)
    return "".join(parts)


def _emit_positions(positions, fmt, out, witness_of=None):
    for p in positions:
        if fmt == "jsonl":
            rec = {"position": p}
            if witness_of is not None:
                rec["witness"] = witness_of(p)
            print(json.dumps(rec), file=out)
        elif witness_of is not None:
            print(f"{p}\t{witness_of(p)}", file=out)
        else:
            print(p, file=out)


def _run_pm(cfg: RunConfig, out) -> int:
    prof = _parse(io_mod.parse_profile, cfg.paths["profile"])
    text = _read_string(cfg.paths["text"])
    if cfg.algo == "naive":
        occ = reference.naive_profile_match(prof, text, cfg.Z)
    else:
        occ = profile_mod.profile_match(prof, text, cfg.Z)
    _emit_positions(occ, cfg.fmt, out)
    return EXIT_OK


def _run_wpm(cfg: RunConfig, out) -> int:
    pattern = _read_string(cfg.paths["pattern"])
    text = _parse(io_mod.parse_pwm, cfg.paths["text"])
    if cfg.algo == "naive":
        occ = reference.naive_wpm(pattern, text, cfg.z)
    else:
        occ = weighted.wpm(pattern, text, cfg.z)
    _emit_positions(occ, cfg.fmt, out)
    return EXIT_OK


def _run_consensus(cfg: RunConfig, k: int | None, out) -> int:
    x = _parse(io_mod.parse_pwm, cfg.paths["x"])
    y = _parse(io_mod.parse_pwm, cfg.paths["y"])
    if cfg.algo == "naive":
        witness = reference.naive_consensus(x, y, cfg.z)
    elif cfg.algo == "sdwc":
        inst = sdwc.SdwcInstance(
            weighted.prune(x, cfg.z), weighted.prune(y, cfg.z), cfg.z
        )
        witness = sdwc.solve(inst)
    else:
        # auto is meet in the middle: solve_k lost on every pair measured
        witness = consensus_mod.weighted_consensus(x, y, cfg.z, k=k)
    if cfg.fmt == "jsonl":
        print(json.dumps({"witness": witness}), file=out)
    else:
        print(witness if witness is not None else "NONE", file=out)
    return EXIT_OK if witness is not None else EXIT_NONE


def _run_gwpm(cfg: RunConfig, k: int | None, out) -> int:
    p = _parse(io_mod.parse_pwm, cfg.paths["pattern"])
    t = _parse(io_mod.parse_pwm, cfg.paths["text"])
    algo = "mim" if cfg.algo == "k" else cfg.algo
    result = consensus_mod.gwpm(p, t, cfg.z, algo=algo, k=k)
    witness_of = (lambda pos: consensus_mod.gwpm_witness(result, pos)) if cfg.witness else None
    _emit_positions(result.occurrences, cfg.fmt, out, witness_of)
    return EXIT_OK


def _run_knapsack(cfg: RunConfig, k: int | None, out) -> int:
    inst = _parse(io_mod.parse_mck, cfg.paths["instance"])
    if cfg.algo == "naive":
        choice = knapsack_mod.brute_force(inst)
    elif cfg.algo == "k":
        choice = knapsack_mod.solve_k(inst, k)
    else:
        choice = knapsack_mod.solve(inst)
    if cfg.fmt == "jsonl":
        payload = None if choice is None else {str(c + 1): i + 1 for c, i in sorted(choice.items())}
        print(json.dumps({"feasible": choice is not None, "choice": payload}), file=out)
    elif choice is None:
        print("NO", file=out)
    else:
        print("YES", file=out)
        for c in sorted(choice):
            print(f"{c + 1} {choice[c] + 1}", file=out)
    return EXIT_OK if choice is not None else EXIT_NONE


def _gen_count(opts: dict, name: str, lo: int, hi: float = math.inf) -> int:
    value = opts[name]
    if not (lo <= value < hi):
        raise DomainError(f"--{name} {value} out of range [{lo}, {hi})")
    return value


def _gen_range(opts: dict, name: str) -> tuple[int, int]:
    lo, hi = opts[name]
    if lo > hi:
        raise DomainError(f"--{name.replace('_', '-')}: low end {lo} above high end {hi}")
    return lo, hi


def _gen(cfg: RunConfig) -> str:
    """One seeded instance, refusing options whose output `um` would reject."""
    rng = random.Random(cfg.seed)
    opts = cfg.gen_options
    kind = opts["kind"]
    alphabet = opts["alphabet"]
    if not alphabet or len(set(alphabet)) != len(alphabet) or \
            any(c.isspace() or c in "#\x00\x01" for c in alphabet):
        raise DomainError(f"--alphabet {alphabet!r}: need distinct, non-blank, "
                          "non-reserved letters")
    if kind == "text":
        n = _gen_count(opts, "length", 0)
        return "".join(rng.choice(alphabet) for _ in range(n)) + "\n"
    if kind == "profile":
        m = _gen_count(opts, "length", 1, MAX_ITEMS)
        lo, hi = _gen_range(opts, "score_range")
        rows = tuple(tuple(rng.randint(lo, hi) for _ in alphabet) for _ in range(m))
        return io_mod.serialize_profile(profile_mod.ScoringMatrix(alphabet, rows))
    if kind == "pwm":
        rows = []
        grid = 10 ** 6
        for _ in range(_gen_count(opts, "length", 1, MAX_ITEMS)):
            raw = [rng.expovariate(1.0) for _ in alphabet]
            total = sum(raw)
            # floor on a fixed grid keeps the row sum at most 1
            rows.append([math.floor(x / total * grid) / grid for x in raw])
        return io_mod.serialize_pwm(weighted.from_probabilities(alphabet, rows))
    if kind == "mck":
        n = _gen_count(opts, "classes", 1, MAX_ITEMS)
        # the parser takes fewer than MAX_ITEMS items in all
        lam = _gen_count(opts, "lam", 1, -(-MAX_ITEMS // n))
        lo, hi = _gen_range(opts, "value_range")
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


def _run_gen(cfg: RunConfig, out) -> int:
    content = _gen(cfg)
    path = cfg.paths.get("out")
    if path:
        with open(path, "w") as fh:
            fh.write(content)
    else:
        out.write(content)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="um", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, algo=True):
        if algo:
            p.add_argument("--algo", default="auto",
                           help="auto | naive | mim | k=<int> | sdwc")
        p.add_argument("--format", default="text", choices=("text", "jsonl"))

    p = sub.add_parser("pm", help="profile matching on a solid text")
    p.add_argument("--profile", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--Z", required=True, type=int, help="score threshold")
    common(p)

    p = sub.add_parser("wpm", help="solid pattern in a weighted text")
    p.add_argument("--pattern", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--z", required=True, help="probability threshold (decimal or 2^<int>)")
    common(p)

    p = sub.add_parser("consensus", help="weighted consensus of two sequences")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    common(p)

    p = sub.add_parser("gwpm", help="weighted pattern in a weighted text")
    p.add_argument("--pattern", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--witness", action="store_true")
    common(p)

    p = sub.add_parser("knapsack", help="multichoice knapsack feasibility")
    p.add_argument("--instance", required=True)
    common(p)

    p = sub.add_parser("gen", help="seeded instance generator")
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


def _config_from_args(args) -> tuple[RunConfig, int | None]:
    cfg = RunConfig(subcommand=args.subcommand)
    k = None
    if hasattr(args, "format"):
        cfg.fmt = args.format
    if hasattr(args, "algo"):
        cfg.algo, k = parse_algo(args.algo)
    if hasattr(args, "z"):
        cfg.z = parse_z(args.z)
    if hasattr(args, "Z"):
        cfg.Z = args.Z
    if hasattr(args, "witness"):
        cfg.witness = args.witness
    for name in ("profile", "text", "pattern", "x", "y", "instance", "out"):
        if getattr(args, name, None) is not None:
            cfg.paths[name] = getattr(args, name)
    if args.subcommand == "gen":
        cfg.seed = args.seed
        cfg.gen_options = {
            "kind": args.kind,
            "alphabet": args.alphabet,
            "length": args.length,
            "classes": args.classes,
            "lam": args.lam,
            "score_range": tuple(args.score_range),
            "value_range": tuple(args.value_range),
        }
    return cfg, k


def run(cfg: RunConfig, k: int | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    if cfg.subcommand == "pm":
        return _run_pm(cfg, out)
    if cfg.subcommand == "wpm":
        return _run_wpm(cfg, out)
    if cfg.subcommand == "consensus":
        return _run_consensus(cfg, k, out)
    if cfg.subcommand == "gwpm":
        return _run_gwpm(cfg, k, out)
    if cfg.subcommand == "knapsack":
        return _run_knapsack(cfg, k, out)
    if cfg.subcommand == "gen":
        return _run_gen(cfg, out)
    raise ParseError(f"unknown subcommand {cfg.subcommand!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, k = _config_from_args(args)
        return run(cfg, k)
    except (ParseError, DomainError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
