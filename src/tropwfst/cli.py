"""Command-line front end: transform, decode, inspect machines.

Diagnostics go to stderr; data goes to stdout or output files.
Exit codes: 0 success, 1 domain error, 2 usage, parse or memory error.
"""

import argparse
import sys

import numpy as np

from .decoder import (decode_with_metrics, format_metrics_csv,
                      parse_observation_model, parse_sequence, viterbi_decode)
from .errors import (NegativeCycleError, ParseError, UnknownSymbolError,
                     UnreachableFinalError)
from .semiring import INF
from .transforms import is_pushed, push_weights, remove_epsilons, trim
from .wfst import _is_epsilon, parse_text, serialize_text, validate
from .textio import format_weight

DOMAIN_ERRORS = (NegativeCycleError, UnreachableFinalError, UnknownSymbolError,
                 OverflowError, FloatingPointError)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def cmd_push(args) -> int:
    out = push_weights(parse_text(_read(args.input)))
    _write(args.output, serialize_text(out))
    return 0


def cmd_rmepsilon(args) -> int:
    out = remove_epsilons(parse_text(_read(args.input)))
    if args.trim:
        out = trim(out)
        if not out.n_states:  # a machine text needs a state
            raise UnreachableFinalError("no accepting path; trim leaves no state")
    _write(args.output, serialize_text(out))
    return 0


def cmd_decode(args) -> int:
    """decode and metrics; only decode prints the cost and path."""
    m = parse_text(_read(args.input))
    obs = parse_observation_model(_read(args.obs))
    seq = parse_sequence(_read(args.seq))
    # exact decoding is the theta = inf case, and that is the trace it writes
    theta = INF if args.theta is None and args.metrics else args.theta
    if theta is None:
        cost, path = viterbi_decode(m, obs, seq)
    elif theta >= 0:
        cost, path, etas, xs = decode_with_metrics(m, obs, seq, theta)
    else:
        raise ParseError("--theta must be >= 0")
    if args.metrics:
        _write(args.metrics, format_metrics_csv(etas, xs))
    if args.command == "decode":
        print(f"cost {format_weight(cost)}")
        print("path " + " ".join(str(s) for s in path))
    return 0


def cmd_info(args) -> int:
    m = parse_text(_read(args.input))
    # every field first, so a machine that fails prints nothing
    pushed = "yes" if is_pushed(m) else "no"
    print(f"states {m.n_states}\narcs {len(m.arcs)}\n"
          f"eps_arcs {np.count_nonzero(_is_epsilon(m.arcs))}\npushed {pushed}")
    return 0


def cmd_validate(args) -> int:
    problems = validate(parse_text(_read(args.input)))
    for p in problems:
        print(p)
    return 1 if problems else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tropwfst",
        description="Tropical-algebra WFST transforms and pruned decoding.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("push", help="push weights toward initial states")
    sp.add_argument("input")
    sp.add_argument("output")
    sp.set_defaults(func=cmd_push)

    sp = sub.add_parser("rmepsilon", help="remove epsilon:epsilon arcs")
    sp.add_argument("input")
    sp.add_argument("output")
    sp.add_argument("--trim", action="store_true",
                    help="drop states on no initial-to-final path")
    sp.set_defaults(func=cmd_rmepsilon)

    for name in ("decode", "metrics"):
        sp = sub.add_parser(name, help="Viterbi decode an observation sequence"
                            if name == "decode" else
                            "emit only the per-step pruning metric trace")
        sp.add_argument("input")
        sp.add_argument("--obs", required=True, help="observation model file")
        sp.add_argument("--seq", required=True, help="observation sequence file")
        sp.add_argument("--theta", type=float, required=(name == "metrics"),
                        help="beam leniency; omit for exact decoding")
        sp.add_argument("--metrics", required=(name == "metrics"),
                        help="write the per-step metric trace CSV here")
        sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("info", help="print machine statistics")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("validate", help="print the validation report")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_validate)
    return p


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with np.errstate(over="raise"):  # an overflow to inf is an error
            return args.func(args)
    except (*DOMAIN_ERRORS, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DOMAIN_ERRORS) else 2


if __name__ == "__main__":
    sys.exit(main())
