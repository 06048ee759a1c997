"""randev benchmark: simulate, analyze and short_streams workloads.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, the tracing overhead among them.  ``--workload all`` runs
every workload untraced and traced, in child processes, and prints every
metric by name and unit.  Lines before the last one name each metric
with its unit; every run also writes a result file and, when traced,
its spans under ``.perfbench_out/``.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import harness
import layers
from workloads import WORKLOADS, Outcome, Sizes, run_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1


def import_randev() -> None:
    """Import randev from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "randev" / "__init__.py").is_file():
        sys.exit(f"error: no randev sources under {src}")
    sys.path.insert(0, str(src))
    import randev

    if Path(randev.__file__).resolve().parent != (src / "randev").resolve():
        sys.exit(f"error: imported randev from {randev.__file__}, not from {src}")


END_TO_END_UNITS = {
    "ref_bits_per_s": "bit/s",
    "call_ref_p50_ms": "ms",
    "call_ref_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def end_to_end(out: Outcome) -> dict:
    """The gated metrics.  Every time in them is CPU time scaled to the
    pacer's reference processor speed (see NOTES.md)."""
    lat = harness.latency_summary(out.calls("ref"))
    return {
        "ref_bits_per_s": out.rate("ref"),
        "call_ref_p50_ms": lat["p50_ms"],
        "call_ref_tail_ms": lat["tail_ms"],
        "peak_rss_mb": out.peak_rss_mb,
        "setup_s": statistics.median(out.setup_seconds("ref")),
    }


def named_metrics(workload: str, out: Outcome) -> dict:
    """The metrics under the names users know them by, in wall time, and
    the gated ones in wall and in unscaled CPU time, with units."""
    named = {}
    if workload == "simulate":
        named["generate_bits_per_s"] = (out.op_rate("generate"), "bit/s")
    elif workload == "analyze":
        named["analyze_bits_per_s"] = (out.op_rate("analyze"), "bit/s")
        named["monitor_bits_per_s"] = (out.op_rate("monitor"), "bit/s")
    else:
        lat = harness.latency_summary(out.times("chain", "wall"))
        named["stream_p50_ms"] = (lat["p50_ms"], "ms")
        named[f"stream_p{100 * lat['tail_quantile']:g}_ms"] = (lat["tail_ms"], "ms")
        named["streams"] = (lat["samples"], "count")
        named["monitor_bits_per_s"] = (out.op_rate("monitor"), "bit/s")
    for clock in ("wall", "cpu"):
        lat = harness.latency_summary(out.calls(clock))
        named[f"{clock}_bits_per_s"] = (out.rate(clock), "bit/s")
        named[f"call_{clock}_p50_ms"] = (lat["p50_ms"], "ms")
        named[f"call_{clock}_tail_ms"] = (lat["tail_ms"], "ms")
    named["cpu_setup_s"] = (statistics.median(out.setup_seconds("cpu")), "s")
    named["call_tail_quantile"] = (lat["tail_quantile"], "ratio")
    named["calls"] = (lat["samples"], "count")
    named["rounds"] = (len(out.rounds), "count")
    # below 1 when calls waited for a CPU: the host's steal or this machine's load
    named["cpu_over_wall"] = (out.rate("wall") / out.rate("cpu"), "ratio")
    # the processor's speed over the run, relative to the pacer's reference
    named["speed"] = (harness.Pacer.REF_SECONDS / statistics.median(s for _, s in out.pace),
                      "ratio")
    named["error_rate"] = (out.failed / out.attempted, "ratio")
    return named


def load_golden(seed: int, sizes: Sizes) -> dict | None:
    """Recorded digests of the simulate outputs, for the default seed and sizes."""
    golden = json.loads((HERE / "golden.json").read_text())
    if seed != golden["seed"] or list(map(list, sizes.simulate)) != golden["nbits"]:
        return None
    return golden["sha256"]


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes = Sizes(), layer_sizes=layers.LayerSizes(),
            golden: dict | None = None) -> dict:
    """Run one workload and return its result record."""
    tracer = harness.Tracer(enabled=trace)
    out = run_workload(workload, seed, seconds, tracer, sizes, golden)
    e2e = end_to_end(out)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": harness.machine_info(),
        "inputs": out.inputs,
        "end_to_end" if not trace else "traced_end_to_end": e2e,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named_metrics(workload, out).items()},
    }
    if trace:
        workload_spans = len(tracer.spans)
        traced_seconds = sum(r[1] for r, t in zip(out.rounds, out.traced_rounds) if t)
        metrics = layers.layer_pass(seed, tracer, out, layer_sizes)
        cost = layers.span_cost_us()
        for name in ("bits_generated", "bits_analyzed", "windows_emitted", "streams_run"):
            metrics[f"count.{name}"] = tracer.counts.get(name, 0)
        metrics["trace.spans"] = workload_spans
        metrics["trace.span_cost_us"] = cost
        metrics["trace.overhead_estimated"] = workload_spans * cost * 1e-6 / traced_seconds
        metrics["trace.overhead_measured"] = out.tracing_overhead()
        spans_path = harness.OUT / "traces" / f"{workload}-seed{seed}.json"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["per_layer"] = {
            name: {"value": metrics[name], "unit": unit, "should_move": moves}
            for name, (unit, moves) in layers.LAYER_METRICS.items()
        }
        shown = {name: (metrics[name], unit) for name, (unit, _) in layers.LAYER_METRICS.items()}
    else:
        shown = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in shown.items()}
    record["attempted"] = out.attempted
    record["failed"] = out.failed
    record["failures"] = out.failures
    record["rounds"] = out.rounds
    record["round_speeds"] = out.speeds()
    record["setup_samples"] = out.setup
    record["cli_calls"] = out.log
    return record


def _result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def _print_record(record: dict) -> None:
    tag = f"{record['workload']} trace={record['trace']}"
    for name, m in record["named"].items():
        print(f"{tag}  {name} = {m['value']:.6g} {m['unit']}")
    for name, m in record["metrics"].items():
        print(f"{tag}  {name} = {m['value']:.6g} {m['unit']}")
    for line in record["failures"]:
        print(f"{tag}  FAILED {line}", file=sys.stderr)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            failed += json.loads(lines[-1])["failed"]
    return 1 if failed else 0


def _result_path(workload: str, seed: int, trace: int) -> Path:
    return harness.OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_randev()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sizes = Sizes()
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace), sizes,
                     golden=load_golden(args.seed, sizes))
    path = _result_path(args.workload, args.seed, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    _print_record(record)
    print(_result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
