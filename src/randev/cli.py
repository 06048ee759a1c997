"""Command-line front end.

Subcommands:

* ``generate``        -- simulate a configured source, write bits to a file.
* ``analyze``         -- full measurement report for a file or stdin.
* ``predict``         -- closed-form expected statistics for a source.
* ``nmax``            -- longest usable sequence for a given deviation.
* ``monitor``         -- windowed health check of a (possibly endless) stream.
* ``validate-approx`` -- quadratic-vs-exact deviation sweep.
* ``fig2``            -- exact and parabolic mutual-information curve as CSV.
* ``concat``          -- join bit files.

``generate``, ``analyze``, ``concat`` and ``monitor`` move their bits a
piece at a time (see ``bitstream.read_stream`` and ``write_stream``), so
their memory does not grow with the stream.

Exit codes: 0 success, 1 usage or parameter error, 2 monitor alarm,
3 I/O error, 130 interrupted (as a shell reports SIGINT).
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

# the parser needs only the numpy-free config layer; each command imports
# the stages it runs, so ``--help``, ``predict``, ``nmax``, ``fig2`` and
# ``validate-approx`` load no numpy, ``analyze`` and ``monitor`` no
# generators, and ``generate`` no estimators
from randev.config import (_FORMATS, _PARAMS, DEADTIME_MODES, SOURCE_KINDS, MonitorConfig,
                           ParameterError, SourceConfig)

__all__ = ["build_parser", "main", "cli_main"]


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default; 2 is reserved for monitor alarms
    def error(self, message: str):
        raise _UsageError(message)


def _add_source_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--source", required=True, choices=SOURCE_KINDS,
                     help="source kind to simulate")
    sub.add_argument("--p", type=float, default=None,
                     help="one-probability (bernoulli)")
    sub.add_argument("--bias", type=float, default=None,
                     help="mean bias b (splitter, markov)")
    sub.add_argument("--a1", type=float, default=None,
                     help="lag-1 autocorrelation (markov)")
    sub.add_argument("--tau", type=float, default=None,
                     help="mean inter-event interval (deadtime)")
    sub.add_argument("--dead-time", type=float, default=None,
                     help="detector dead time, same unit as --tau (deadtime)")
    sub.add_argument("--dead-mode", choices=DEADTIME_MODES, default=None,
                     help="what happens to events during dead time "
                          "(deadtime; default reroute)")
    sub.add_argument("--seed", type=int, default=0,
                     help="rng seed (nonzero required for xorshift64)")


# the flag of each SourceConfig parameter, as its ``args`` attribute, and
# of the dead-time mode
_FLAGS = {"p": "p", "b": "bias", "a1": "a1", "tau": "tau", "tau_d": "dead_time",
          "deadtime_mode": "dead_mode"}


def _config_from_args(args: argparse.Namespace) -> SourceConfig:
    kind = args.source
    names = [_FLAGS[field] for field in _PARAMS.get(kind, ())]
    # deadtime also reads its mode, which may be left out for reroute
    allowed = [*names, "dead_mode"] if kind == "deadtime" else names
    for name in _FLAGS.values():
        if name not in allowed and getattr(args, name) is not None:
            raise ParameterError(f"--{name.replace('_', '-')} does not apply to {kind}")
    values = [getattr(args, name) for name in names]
    if None in values:
        flags = " and ".join("--" + name.replace("_", "-") for name in names)
        raise ParameterError(f"{kind} requires {flags}")
    if kind == "deadtime":
        return SourceConfig.deadtime(*values, seed=args.seed, mode=args.dead_mode or "reroute")
    return getattr(SourceConfig, kind)(*values, seed=args.seed)


def _input_chunks(path: str, format: str, nbits: int | None):
    """The chunks of a bit file, or of stdin for ``-``, read as they are used."""
    from randev.bitstream import read_stream

    if path == "-":
        if format != "raw":
            raise ParameterError("stdin input supports only the raw format")
        path = sys.stdin.buffer
    return read_stream(path, format, nbits)


def cmd_generate(args: argparse.Namespace) -> int:
    from randev.bitstream import _PIECE_BITS, write_stream
    from randev.sources import Source

    source, n = Source(_config_from_args(args)), args.nbits
    # at least one piece, so a negative count fails and 0 writes an empty file
    pieces = (source.generate(min(_PIECE_BITS, n - k))
              for k in range(0, max(n, 1), _PIECE_BITS))
    nbits = write_stream(pieces, args.out, args.format)
    print(f"wrote {nbits} bits ({args.format}) to {args.out}")
    return 0


def _format_value(x) -> str:
    if isinstance(x, dict):
        return f"{x['value']:.6g} +/- {x['sigma']:.6g}"
    if isinstance(x, float):
        return "unbounded" if math.isinf(x) else f"{x:.6g}"
    return str(x)


def _report_lines(doc: dict) -> list[str]:
    """The table view of a JSON report: one row per key in its order, and
    one row per element of a list, labelled by the element's lag."""
    lines = []
    for key, value in doc.items():
        rows = ([(f"{key}[{e['lag']}]", e) for e in value]
                if isinstance(value, list) else [(key, value)])
        lines += [f"{label:<18}{_format_value(v)}" for label, v in rows]
    return lines


def cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from randev.estimators import analyze

    chunks = _input_chunks(args.file, args.format, args.nbits)
    doc = analyze(chunks, max_lag=args.max_lag).to_json_dict()
    print(json.dumps(doc, indent=2) if args.json else "\n".join(_report_lines(doc)))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    import json

    from randev.model import predict_source

    prediction = predict_source(_config_from_args(args))
    print(json.dumps(prediction._asdict(), indent=2))
    return 0


def cmd_nmax(args: argparse.Namespace) -> int:
    from randev.model import markov_prediction, n_max

    if args.deviation is not None:
        if args.a1 is not None or args.bias is not None:
            raise ParameterError("--deviation excludes --a1 and --bias")
        deviation = args.deviation
    elif args.a1 is not None:
        bias = 0.0 if args.bias is None else args.bias
        deviation = markov_prediction(bias, args.a1).deviation_approx
    else:
        raise ParameterError("give either --deviation or --a1 (plus optional --bias)")
    bound = n_max(deviation)
    print(f"deviation = {deviation:.6g}")
    print(f"n_max = {_format_value(bound)}")
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    # windows before the bitstream of ``_input_chunks``: randev's modules
    # then compile before numpy loads, at a lower peak
    from randev.windows import _monitor_stream

    config = MonitorConfig(args.window_bits, args.sigma_k, args.deviation_threshold)
    config.validate()  # before the input is opened: it may be missing
    return _monitor_stream(_input_chunks(args.file, "raw", None), config)


def cmd_validate_approx(args: argparse.Namespace) -> int:
    from randev.experiments import grid_csv_lines, validate_approx, write_csv

    result = validate_approx(args.grid_step, n_bits=args.nbits, seed=args.seed)
    if args.out is not None:
        write_csv(grid_csv_lines(result), args.out)
    print(f"max_relative_error = {result.max_relative_error:.6g}")
    if result.empirical:
        print(f"max_abs_z = {result.max_abs_z:.6g}")
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    from randev.experiments import fig2_csv_lines, fig2_curve, write_csv

    rows = fig2_curve(args.min, args.max, args.step)
    lines = fig2_csv_lines(rows)
    if args.out is not None:
        write_csv(lines, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        for line in lines:
            print(line)
    return 0


def cmd_concat(args: argparse.Namespace) -> int:
    from randev.bitstream import read_stream, write_stream

    chunks = (c for path in args.inputs for c in read_stream(path, args.format))
    nbits = write_stream(chunks, args.out, args.format)
    print(f"wrote {nbits} bits to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="randev",
        description="Simulate imperfect bit sources and measure how far "
                    "any bit stream deviates from ideal randomness.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("generate", help="simulate a source and write its bits")
    _add_source_flags(p)
    p.add_argument("--nbits", type=int, required=True, help="bits to generate")
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--format", choices=_FORMATS, default="raw")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="measure a bit file or stdin")
    p.add_argument("file", help="bit file, or - for stdin (raw only)")
    p.add_argument("--format", choices=_FORMATS, default="raw")
    p.add_argument("--nbits", type=int, default=None,
                   help="analyze only the first N bits")
    p.add_argument("--max-lag", type=int, default=8,
                   help="largest autocorrelation lag")
    p.add_argument("--json", action="store_true",
                   help="emit the JSON report instead of the table")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("predict", help="closed-form statistics for a source")
    _add_source_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("nmax", help="longest usable sequence for a deviation")
    p.add_argument("--deviation", type=float, default=None,
                   help="randomness deviation per bit")
    p.add_argument("--a1", type=float, default=None,
                   help="derive the deviation from this lag-1 autocorrelation")
    p.add_argument("--bias", type=float, default=None,
                   help="bias used together with --a1 (default 0)")
    p.set_defaults(func=cmd_nmax)

    p = sub.add_parser("monitor", help="windowed health check of a stream")
    p.add_argument("file", nargs="?", default="-",
                   help="raw bit file, or - for stdin (default)")
    p.add_argument("--window-bits", type=int, default=MonitorConfig().window_bits)
    p.add_argument("--sigma-k", type=float, default=MonitorConfig().sigma_k,
                   help="alarm when the deviation exceeds this many sigma")
    p.add_argument("--deviation-threshold", type=float, default=None,
                   help="additionally require the deviation to exceed this")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("validate-approx",
                       help="sweep the quadratic deviation against the exact one")
    p.add_argument("--grid-step", type=float, default=0.02)
    p.add_argument("--nbits", type=int, default=None,
                   help="also simulate this many bits per grid point")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the grid as CSV")
    p.set_defaults(func=cmd_validate_approx)

    p = sub.add_parser("fig2", help="mutual-information curve as CSV")
    p.add_argument("--min", type=float, default=-0.99)
    p.add_argument("--max", type=float, default=0.99)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--out", default=None, help="CSV file (stdout if omitted)")
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("concat", help="join bit files")
    p.add_argument("inputs", nargs="+", help="input files, joined in order")
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--format", choices=_FORMATS, default="raw")
    p.set_defaults(func=cmd_concat)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def cli_main() -> None:
    code = main()
    # the process is about to end: frozen objects are still freed by
    # reference counting and atexit handlers still run, but the collector
    # no longer walks the objects numpy's and randev's imports left (about
    # 15 ms of CPU at exit); here, not in main(), so that tests and library
    # callers keep an unfrozen heap
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    cli_main()
