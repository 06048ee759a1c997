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

``generate``, ``analyze`` and ``concat`` move their bits a piece at a time
(see ``bitstream.read_stream`` and ``write_stream``), so their memory does
not grow with the stream.

Exit codes: 0 success, 1 usage or parameter error, 2 monitor alarm,
3 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

# the parser needs only these two stages; each command imports the
# others it runs, so ``generate`` never loads the estimators
from randev.bitstream import _FORMATS, BitSequence, concat, read_stream, write_stream
from randev.sources import DEADTIME_MODES, SOURCE_KINDS, ParameterError, Source, SourceConfig

__all__ = ["MonitorConfig", "build_parser", "main", "cli_main"]

_READ_BYTES = 1 << 16
# generate makes and writes this many bits at a time: a multiple of 8, so
# each piece's bytes follow the last piece's bytes
_GENERATE_BITS = 1 << 22
# monitor reads at least one window at a time, so a window must fit one read
_MAX_WINDOW_BITS = 1 << 32


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default; 2 is reserved for monitor alarms
    def error(self, message: str):
        raise _UsageError(message)


@dataclass(frozen=True)
class MonitorConfig:
    """Windowing and alarm settings for the stream monitor."""

    window_bits: int = 1 << 20
    sigma_k: float = 3.0
    deviation_threshold: float | None = None

    def validate(self) -> None:
        if not 1024 <= self.window_bits <= _MAX_WINDOW_BITS:
            raise ParameterError(
                f"window_bits={self.window_bits} must be in [1024, {_MAX_WINDOW_BITS}]"
            )
        if not self.sigma_k > 0.0:
            raise ParameterError(f"sigma_k={self.sigma_k} must be positive")
        if self.deviation_threshold is not None and not self.deviation_threshold >= 0.0:
            raise ParameterError(
                f"deviation_threshold={self.deviation_threshold} must be non-negative"
            )


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
    sub.add_argument("--dead-mode", choices=DEADTIME_MODES, default="reroute",
                     help="what happens to events during dead time")
    sub.add_argument("--seed", type=int, default=0,
                     help="rng seed (nonzero required for xorshift64)")


def _config_from_args(args: argparse.Namespace) -> SourceConfig:
    kind = args.source
    if kind == "ideal":
        return SourceConfig.ideal(seed=args.seed)
    if kind == "bernoulli":
        if args.p is None:
            raise ParameterError("bernoulli requires --p")
        return SourceConfig.bernoulli(args.p, seed=args.seed)
    if kind == "splitter":
        if args.bias is None:
            raise ParameterError("splitter requires --bias")
        return SourceConfig.splitter(args.bias, seed=args.seed)
    if kind == "markov":
        if args.bias is None or args.a1 is None:
            raise ParameterError("markov requires --bias and --a1")
        return SourceConfig.markov(args.bias, args.a1, seed=args.seed)
    if kind == "deadtime":
        if args.tau is None or args.dead_time is None:
            raise ParameterError("deadtime requires --tau and --dead-time")
        return SourceConfig.deadtime(args.tau, args.dead_time,
                                     seed=args.seed, mode=args.dead_mode)
    return SourceConfig.xorshift64(args.seed)


def _input_chunks(path: str, format: str, nbits: int | None):
    """The chunks of a bit file, or of stdin for ``-``, read as they are used."""
    if path == "-":
        if format != "raw":
            raise ParameterError("stdin input supports only the raw format")
        path = sys.stdin.buffer
    return read_stream(path, format, nbits)


def cmd_generate(args: argparse.Namespace) -> int:
    source, n = Source(_config_from_args(args)), args.nbits
    # made before the file is opened, so a bad count leaves no file
    first = source.generate(min(n, _GENERATE_BITS))
    rest = (source.generate(min(_GENERATE_BITS, n - k))
            for k in range(_GENERATE_BITS, n, _GENERATE_BITS))
    nbits = write_stream(itertools.chain([first], rest), args.out, args.format)
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
    from randev.estimators import analyze

    chunks = _input_chunks(args.file, args.format, args.nbits)
    doc = analyze(chunks, max_lag=args.max_lag).to_json_dict()
    print(json.dumps(doc, indent=2) if args.json else "\n".join(_report_lines(doc)))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from randev.model import predict_source

    prediction = predict_source(_config_from_args(args))
    print(json.dumps(asdict(prediction), indent=2))
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


def _monitor_stream(fh, config: MonitorConfig) -> int:
    """Sequential window scan; stream order is semantic, so no parallelism.
    Reads of at least one window keep the unread tail below one window."""
    from randev.estimators import PairCounts, accumulate, deviation_plugin
    from randev.model import deviation_sigma

    def emit(index: int, window: BitSequence, full: bool) -> bool:
        if window.nbits >= 2:
            d_hat = deviation_plugin(accumulate(PairCounts(), window))
            sigma = deviation_sigma(d_hat, window.nbits)
        else:
            d_hat = math.nan
            sigma = math.nan
        alarm = False
        if full:
            alarm = d_hat > config.sigma_k * sigma
            if config.deviation_threshold is not None:
                alarm = alarm and d_hat > config.deviation_threshold
            status = "ALARM" if alarm else "ok"
        else:
            status = "incomplete"
        print(f"{index},{d_hat:.6g},{sigma:.6g},{status}")
        return alarm

    config.validate()
    w = config.window_bits
    tail = BitSequence(b"", 0)
    index = 0
    alarmed = False
    while chunk := fh.read(max(_READ_BYTES, w // 8)):
        buf = concat(tail, BitSequence(chunk, 8 * len(chunk)))
        starts = range(0, buf.nbits - w + 1, w)
        for start in starts:
            alarmed |= emit(index, buf[start:start + w], full=True)
            index += 1
        tail = buf[len(starts) * w:]
    if tail.nbits:
        emit(index, tail, full=False)
    return 2 if alarmed else 0


def cmd_monitor(args: argparse.Namespace) -> int:
    config = MonitorConfig(args.window_bits, args.sigma_k,
                           args.deviation_threshold)
    if args.file == "-":
        return _monitor_stream(sys.stdin.buffer, config)
    with open(args.file, "rb") as fh:
        return _monitor_stream(fh, config)


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
    chunks = (c for path in args.inputs for c in read_stream(path, args.format))
    nbits = _replace(args.out, lambda fh: write_stream(chunks, fh, args.format))
    print(f"wrote {nbits} bits to {args.out}")
    return 0


def _replace(path: str, write):
    """``write(fh)`` to a new file beside ``path`` (or the file a link at
    ``path`` names), renamed over it once complete, and return what
    ``write`` returns.  So an input that is also the output is read
    before it is replaced, and a failure leaves ``path`` as it was.  A
    path that names no regular file, such as a device or a pipe, is
    written in place: there is nothing to replace."""
    target = os.path.realpath(path)
    exists = os.path.exists(target)
    if exists and not os.path.isfile(target):
        with open(path, "wb") as fh:
            return write(fh)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        exc.filename = path  # name the file asked for, not the temporary one
        raise
    try:
        with fh:
            result = write(fh)
        if exists:
            os.chmod(tmp, os.stat(target).st_mode & 0o7777)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
    return result


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
    p.add_argument("--window-bits", type=int, default=1 << 20)
    p.add_argument("--sigma-k", type=float, default=3.0,
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


def cli_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
