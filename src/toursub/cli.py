"""Command-line entry point.

Exit codes: 0 success, 1 usage/precondition errors, 2 structured negative
(verification failed, finder returned a failure trace, oracle proved
non-containment), 3 oracle node budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import __version__
from .core import generate, parse_tournament, tournament_hash, write_tournament
from .errors import ToursubError
from .experiments import SWEEP_COLUMNS, VERIFY_CAPS, run_finder, sweep, write_csv
from .oracle import DEFAULT_BUDGET, SCAN_DK_COLUMNS, OracleQuery, oracle_subdivision, scan_d_lower
from .params import FinderParams
from .subdivision import (
    dump_witness,
    parse_pattern,
    verify,
    witness_from_json,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_BUDGET = 3

# The flags that one experiment alone reads, with their defaults.
EXPERIMENT_FLAGS = {
    "scan-dk": {"max_len": 3, "budget": DEFAULT_BUDGET},
    "soundness-sweep": {"finder": "complete", "scale": Fraction(1, 96), "workers": 1},
}


def _read_tournament(path: str):
    with open(path) as fh:
        return parse_tournament(fh)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _range(text: str):
    """Parse '6..10' or '7' into a list of ints."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"empty range {text!r}")
        return values
    return [int(text)]


@contextmanager
def _output(path):
    """The file at ``path`` opened for writing, or stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


def cmd_gen(args) -> int:
    t = generate(args.kind, args.n, args.seed)
    with _output(args.out) as fh:
        write_tournament(t, fh)
    return EXIT_OK


def cmd_verify(args) -> int:
    host = _read_tournament(args.input)
    with open(args.witness) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("witness JSON is nested too deeply") from None
    sub, host_hash = witness_from_json(doc)
    if host_hash and host_hash != tournament_hash(host):
        print("witness host hash does not match the input tournament", file=sys.stderr)
        return EXIT_NEGATIVE
    report = verify(host, sub, max_len=args.max_len, exact_len=args.exact_len)
    out = {
        "valid": report.valid,
        "l1": report.l1,
        "l2": report.l2,
        "span": report.span,
        "violations": list(report.violations),
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK if report.valid else EXIT_NEGATIVE


def cmd_find(args) -> int:
    host = _read_tournament(args.input)
    pattern = parse_pattern(args.pattern) if args.finder == "digraph" else None
    params = FinderParams(k=args.k if pattern is None else pattern.k, scale=args.scale)
    outcome, _, report = run_finder(args.finder, host, params, pattern)
    if report is None:
        print(json.dumps({"failure": outcome.to_json()}, indent=2))
        return EXIT_NEGATIVE
    if not report.valid:
        print(f"internal error: finder produced an invalid witness: {report.violations[:5]}",
              file=sys.stderr)
        return EXIT_ERROR
    with _output(args.out) as fh:
        fh.write(dump_witness(host, outcome))
    return EXIT_OK


def cmd_oracle(args) -> int:
    host = _read_tournament(args.input)
    pattern = parse_pattern(args.pattern)
    query = OracleQuery(
        pattern=pattern,
        max_len=args.max_len,
        exact_len=args.exact_len,
        node_budget=args.budget,
    )
    outcome = oracle_subdivision(host, query)
    print(json.dumps({"status": outcome.status, "nodes": outcome.nodes}, indent=2))
    if outcome.status == "found":
        with _output(args.out) as fh:
            fh.write(dump_witness(host, outcome.subdivision))
        return EXIT_OK
    if outcome.status == "not_found":
        return EXIT_NEGATIVE
    return EXIT_BUDGET


def cmd_experiment(args) -> int:
    if args.experiment == "scan-dk":
        rows = scan_d_lower(args.k, _range(args.n), args.trials, args.seed,
                            max_len=args.max_len, budget=args.budget)
        config = {"k": args.k, "n": args.n, "trials": args.trials, "seed": args.seed,
                  "max_len": args.max_len}
        write_csv(args.out, "scan-dk-v1", config, rows, SCAN_DK_COLUMNS)
        noncontain = [r["delta_plus"] for r in rows if not r["contains"]]
        print(f"max delta+ among non-containing hosts: {max(noncontain) if noncontain else 'none'}")
        return EXIT_OK

    # soundness-sweep
    n = int(args.n)
    config = {"finder": args.finder, "k": args.k, "trials": args.trials, "n": n,
              "scale": str(args.scale), "seed": args.seed}
    rows, _, bad = sweep(args.finder, args.k, args.trials, n, args.scale, args.seed,
                         workers=args.workers)
    write_csv(args.out, f"soundness-{args.finder}-v1", config, rows, SWEEP_COLUMNS[args.finder])
    wit = sum(1 for r in rows if r["outcome"] == "witness")
    print(f"{wit}/{len(rows)} witnesses; soundness violations: {len(bad)}")
    if bad:
        for b in bad[:5]:
            print("  UNSOUND:", b, file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (argparse's own default, 2, means a structured
    negative here); subparsers are made with the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="toursub")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a tournament file")
    p.add_argument("--kind", required=True,
                   choices=["random", "transitive", "rotational", "blowup_cyclic_triangle"])
    p.add_argument("--n", type=int, required=True,
                   help="vertex count (class size for the blow-up)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check a witness file against a tournament")
    p.add_argument("--input", required=True)
    p.add_argument("--witness", required=True)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--exact-len", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("find", help="run a constructive finder")
    p.add_argument("finder", choices=list(VERIFY_CAPS))
    p.add_argument("--input", required=True)
    # None marks an omitted --k: digraph takes none, the other finders read 3.
    p.add_argument("--k", type=int, default=None,
                   help="subdivision order for complete, tt3 and onesub (default 3)")
    p.add_argument("--pattern", default=None, help="pattern spec for the digraph finder")
    p.add_argument("--scale", type=_fraction, default=Fraction(1))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("oracle", help="exact subdivision search")
    p.add_argument("--input", required=True)
    p.add_argument("--pattern", required=True, help="e.g. complete:3 or transitive:4")
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--exact-len", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("experiment", help="batch experiments with CSV output")
    p.add_argument("experiment", choices=list(EXPERIMENT_FLAGS))
    # A flag that one experiment alone reads is None when omitted: main
    # fills in its EXPERIMENT_FLAGS default or rejects it for the other.
    p.add_argument("--finder", choices=list(SWEEP_COLUMNS), help="soundness-sweep only")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n", default="240",
                   help="host size; scan-dk accepts a range like 6..10")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", type=_fraction, help="soundness-sweep only")
    p.add_argument("--max-len", type=int, help="scan-dk only")
    p.add_argument("--budget", type=int, help="scan-dk only")
    p.add_argument("--workers", type=int, help="soundness-sweep only")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "find" and args.finder == "digraph":
        if not args.pattern:
            parser.error("find digraph requires --pattern")
        if args.k is not None:
            parser.error("find digraph takes no --k: the order comes from --pattern")
    elif args.command == "find" and args.k is None:
        args.k = 3
    elif args.command == "experiment":
        for experiment, flags in EXPERIMENT_FLAGS.items():
            for dest, default in flags.items():
                if getattr(args, dest) is None:
                    setattr(args, dest, default)
                elif experiment != args.experiment:
                    parser.error(f"experiment {args.experiment} takes no "
                                 f"--{dest.replace('_', '-')}: only {experiment} reads it")
    try:
        return args.func(args)
    except (ToursubError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
