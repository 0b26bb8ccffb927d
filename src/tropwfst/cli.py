"""Command-line front end: transform, decode, inspect machines.

Diagnostics go to stderr; data goes to stdout or output files.
Exit codes: 0 success, 1 domain error, 2 usage or parse error.
"""

import argparse
import sys

from .decoder import (decode_with_metrics, format_metrics_csv,
                      parse_observation_model, parse_sequence, pruned_decode,
                      viterbi_decode)
from .errors import (EmptyTrellisError, NegativeCycleError, ParseError,
                     UnknownSymbolError, UnreachableFinalError)
from .transforms import is_pushed, push_weights, remove_epsilons, trim
from .wfst import parse_text, serialize_text, validate
from .textio import format_weight

DOMAIN_ERRORS = (NegativeCycleError, UnreachableFinalError,
                 UnknownSymbolError, EmptyTrellisError)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _load_machine(path: str):
    return parse_text(_read(path))


def cmd_push(args) -> int:
    _write(args.output, serialize_text(push_weights(_load_machine(args.input))))
    return 0


def cmd_rmepsilon(args) -> int:
    out = remove_epsilons(_load_machine(args.input))
    if args.trim:
        out = trim(out)
    _write(args.output, serialize_text(out))
    return 0


def _decode_common(args, trace: bool):
    """(cost, path, reports); the metrics are computed only for a trace."""
    m = _load_machine(args.input)
    obs = parse_observation_model(_read(args.obs))
    seq = parse_sequence(_read(args.seq))
    if args.theta is None:
        return (*viterbi_decode(m, obs, seq), [])
    if args.theta < 0:
        raise ParseError("--theta must be >= 0")
    if trace:
        return decode_with_metrics(m, obs, seq, args.theta)
    return (*pruned_decode(m, obs, seq, args.theta), [])


def cmd_decode(args) -> int:
    cost, path, reports = _decode_common(args, trace=bool(args.metrics))
    if args.metrics:
        _write(args.metrics, format_metrics_csv(reports))
    print(f"cost {format_weight(cost)}")
    print("path " + " ".join(str(s) for s in path))
    return 0


def cmd_metrics(args) -> int:
    _, _, reports = _decode_common(args, trace=True)
    _write(args.metrics, format_metrics_csv(reports))
    return 0


def cmd_info(args) -> int:
    m = _load_machine(args.input)
    # every field first, so a machine that fails prints nothing
    pushed = "yes" if is_pushed(m) else "no"
    print(f"states {m.n_states}\narcs {len(m.arcs)}\n"
          f"eps_arcs {len(m.epsilon_arcs())}\npushed {pushed}")
    return 0


def cmd_validate(args) -> int:
    problems = validate(_load_machine(args.input))
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
        sp.add_argument("--theta", type=float, default=None,
                        help="beam leniency; omit for exact decoding")
        sp.add_argument("--metrics", required=(name == "metrics"),
                        help="write the per-step metric trace CSV here")
        sp.set_defaults(func=cmd_decode if name == "decode" else cmd_metrics)

    sp = sub.add_parser("info", help="print machine statistics")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("validate", help="print the validation report")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "metrics" and args.theta is None:
        print("error: metrics requires --theta", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
