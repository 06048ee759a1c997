"""The layer pass of a traced run: every layer's public functions, timed.

Each probe calls one public function of one randev module over and
over, one span per call, until its time share is used, and checks every
output.  A probe's metric is the median over its calls, so one slow
call does not move it.  The same probes run after every workload, on
inputs drawn from the workload seed.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

import harness
from harness import Tracer, randev_argv, run_child
from reference import matches_report, reference_stats
from workloads import WORK, Outcome, Sizes, simulate_configs

# metric name -> (unit, end-to-end metric and workload it should move)
LAYER_METRICS = {}


def _metric(name: str, unit: str, moves: str) -> None:
    LAYER_METRICS[name] = (unit, moves)


_GEN_MOVES = "generate_bits_per_s on simulate, stream_p50_ms on short_streams; nothing on analyze"
for _kind, _ in Sizes.simulate:
    _metric(f"sources.{_kind}_bits_per_s", "bit/s", _GEN_MOVES)
_metric("sources.live_piece_bits_per_s", "bit/s", "stream_p50_ms on short_streams")
_metric("sources.generate_peak_alloc_mb", "MiB", "peak_rss_mb on simulate")
_metric("bitstream.pack_bits_per_s", "bit/s", "generate_bits_per_s on simulate")
_metric("bitstream.write_bytes_per_s", "B/s", "generate_bits_per_s on simulate")
_metric("bitstream.unpack_bits_per_s", "bit/s",
        "analyze_bits_per_s and monitor_bits_per_s on analyze")
_metric("bitstream.read_bytes_per_s", "B/s",
        "analyze_bits_per_s and monitor_bits_per_s on analyze")
_metric("estimators.accumulate_bits_per_s", "bit/s",
        "monitor_bits_per_s on analyze and short_streams, stream_p50_ms on short_streams")
for _k in (1, 8, 64):
    _metric(f"estimators.lag_add_bits_per_s.k{_k}", "bit/s", "analyze_bits_per_s on analyze")
_metric("estimators.merge_us.pair_counts", "us", "analyze_bits_per_s on analyze (parallel path)")
_metric("estimators.merge_us.lag8", "us", "analyze_bits_per_s on analyze (parallel path)")
_metric("estimators.analyze_bits_per_s", "bit/s", "analyze_bits_per_s on analyze")
_metric("estimators.analyze_chunked_bits_per_s", "bit/s", "analyze_bits_per_s on analyze")
_metric("estimators.analyze_parallel_bits_per_s", "bit/s", "analyze_bits_per_s on analyze")
_metric("estimators.analyze_peak_alloc_mb", "MiB", "peak_rss_mb on analyze")
_metric("estimators.analyze_small_us", "us", "stream_p50_ms on short_streams")
_metric("model.predict_source_us", "us", "stream_p50_ms on short_streams")
_metric("experiments.validate_approx_points_per_s", "1/s", "stream_p50_ms on short_streams")
_metric("cli.startup_s", "s", "setup_s on simulate and analyze")
for _c in ("bits_generated", "bits_analyzed", "windows_emitted", "streams_run"):
    _metric(f"count.{_c}", "count", "exact count of the traced workload run")
_metric("trace.spans", "count", "spans recorded in the traced workload run")
_metric("trace.span_cost_us", "us", "tracing overhead per span")
_metric("trace.overhead_estimated", "ratio",
        "spans x span cost over the traced rounds' call time: tracing overhead")
_metric("trace.overhead_measured", "ratio",
        "median call CPU time with spans over without, minus 1, rounds interleaved: "
        "tracing overhead")


@dataclass(frozen=True)
class LayerSizes:
    bits: int = (1 << 23) + 13
    gen_bits: int = 1 << 21
    deadtime_bits: int = 1 << 17
    small_bits: int = 1 << 14
    piece_bits: int = 4096
    chunk_bits: int = 1 << 20
    probe_seconds: float = 0.25
    startup_samples: int = 3

    @classmethod
    def tiny(cls) -> "LayerSizes":
        return cls(bits=(1 << 14) + 13, gen_bits=1 << 12, deadtime_bits=1 << 10,
                   small_bits=1 << 10, chunk_bits=1 << 11, probe_seconds=0.01,
                   startup_samples=1)


def _probe(tracer: Tracer, out: Outcome, name: str, fn, check, budget: float) -> list:
    """Call fn until budget seconds are spent (at least 3 calls); check each result."""
    fn()  # warm-up, untimed
    times = []
    spent = 0.0
    while spent < budget or len(times) < 3:
        with tracer.span(name) as sp:
            result = fn()
        times.append(sp.seconds)
        spent += sp.seconds
        problems = check(result)
        out.check(name, problems)
    return times


def _peak_alloc_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (1 << 20)
    finally:
        tracemalloc.stop()


def layer_pass(seed: int, tracer: Tracer, out: Outcome, sizes: LayerSizes) -> dict:
    """Run every probe; returns metric name -> value for the layer metrics."""
    from randev import (BitSequence, LagAccumulator, PairCounts, SourceConfig, Source,
                        accumulate, analyze, analyze_parallel, generate, merge,
                        predict_source, read_file, validate_approx, write_file)

    metrics = {}
    budget = sizes.probe_seconds
    rng = np.random.default_rng([seed, 4])

    def rate(name, work, fn, check):
        times = _probe(tracer, out, name, fn, check, budget)
        metrics[name] = work / statistics.median(times)

    def per_call_us(name, fn, check):
        times = _probe(tracer, out, name, fn, check, budget)
        metrics[name] = 1e6 * statistics.median(times)

    # sources
    for kind, cfg in ((name, cfg) for name, _, cfg, _ in simulate_configs(seed, Sizes())):
        n = sizes.deadtime_bits if kind.startswith("deadtime") else sizes.gen_bits
        if kind == "xorshift64":
            n += 37
        rate(f"sources.{kind}_bits_per_s", n, lambda cfg=cfg, n=n: generate(cfg, n),
             lambda seq, n=n: [] if seq.nbits == n else [f"{seq.nbits} bits, asked {n}"])
    live_cfg = next(cfg for name, _, cfg, _ in simulate_configs(seed, Sizes())
                    if name == "markov_carry")
    live = Source(live_cfg)
    piece = sizes.piece_bits
    rate("sources.live_piece_bits_per_s", piece, lambda: live.generate(piece),
         lambda seq: [] if seq.nbits == piece else [f"{seq.nbits} bits, asked {piece}"])
    ideal_cfg = SourceConfig.ideal(seed=int(rng.integers(1, 1 << 63)))
    metrics["sources.generate_peak_alloc_mb"] = _peak_alloc_mb(
        lambda: generate(ideal_cfg, 2 * sizes.gen_bits))

    # bitstream
    n = sizes.bits
    arr = rng.integers(0, 2, n, dtype=np.uint8)
    seq = BitSequence.from_bits(arr)
    packed = np.packbits(arr, bitorder="little").tobytes()
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / "layer.bits"
    nbytes = len(packed)
    rate("bitstream.pack_bits_per_s", n, lambda: BitSequence.from_bits(arr),
         lambda s: [] if s.data == packed and s.nbits == n else ["packed bytes differ"])
    rate("bitstream.unpack_bits_per_s", n, seq.to_array,
         lambda a: [] if np.array_equal(a, arr) else ["unpacked bits differ"])
    rate("bitstream.write_bytes_per_s", nbytes, lambda: write_file(seq, path),
         lambda _: [] if path.stat().st_size == nbytes else ["written size differs"])
    path.read_bytes()  # warm
    rate("bitstream.read_bytes_per_s", nbytes, lambda: read_file(path),
         lambda s: [] if s.data == packed else ["read bytes differ"])

    # estimators
    ref = reference_stats(arr)
    want_counts = (n, ref["ones"], *ref["pairs"])

    def counts_problems(c):
        got = (c.n, c.ones, c.c00, c.c01, c.c10, c.c11)
        return [] if got == want_counts else [f"pair counts {got} != {want_counts}"]

    rate("estimators.accumulate_bits_per_s", n, lambda: accumulate(PairCounts(), seq),
         counts_problems)
    for k in (1, 8, 64):
        want = int(np.count_nonzero(arr[:-k] & arr[k:]))

        def add(k=k):
            acc = LagAccumulator(k)
            acc.add(seq)
            return acc

        rate(f"estimators.lag_add_bits_per_s.k{k}", n, add,
             lambda acc, want=want: [] if acc.sum_prod == want else ["lag product differs"])
    half = (n // 2) // 8 * 8
    left = BitSequence(packed[:half // 8], half)
    right = BitSequence.from_bits(arr[half:])
    pc_l, pc_r = accumulate(PairCounts(), left), accumulate(PairCounts(), right)
    per_call_us("estimators.merge_us.pair_counts", lambda: merge(pc_l, pc_r), counts_problems)
    lag_l, lag_r, lag_whole = LagAccumulator(8), LagAccumulator(8), LagAccumulator(8)
    lag_l.add(left)
    lag_r.add(right)
    lag_whole.add(seq)
    per_call_us("estimators.merge_us.lag8", lambda: merge(lag_l, lag_r),
                lambda acc: [] if acc == lag_whole else ["merged lag-8 state differs"])
    whole = analyze(seq)
    whole_problems = matches_report(whole.to_json_dict(), ref)
    step = sizes.chunk_bits // 8
    chunks = [BitSequence(packed[i:i + step], min(8 * step, n - 8 * i))
              for i in range(0, nbytes, step)]
    same = lambda r: whole_problems + ([] if r == whole else ["report differs from whole"])  # noqa: E731
    rate("estimators.analyze_bits_per_s", n, lambda: analyze(seq), same)
    rate("estimators.analyze_chunked_bits_per_s", n, lambda: analyze(chunks), same)
    workers = harness.nproc()
    rate("estimators.analyze_parallel_bits_per_s", n,
         lambda: analyze_parallel(seq, workers=workers), same)
    metrics["estimators.analyze_peak_alloc_mb"] = _peak_alloc_mb(lambda: analyze(seq))
    small = BitSequence.from_bits(arr[:sizes.small_bits])
    small_ref = reference_stats(arr[:sizes.small_bits])
    per_call_us("estimators.analyze_small_us", lambda: analyze(small),
                lambda r: matches_report(r.to_json_dict(), small_ref))

    # model and experiments
    b, a1 = float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.2, 0.2))
    markov = SourceConfig.markov(b, a1, seed=1)
    per_call_us("model.predict_source_us", lambda: predict_source(markov),
                lambda p: [] if (p.bias, p.a1) == (b, a1) else ["prediction differs"])
    grid_bits = sizes.small_bits // 4
    grid = validate_approx(0.05, n_bits=grid_bits, seed=seed)
    points = len(grid.rows)
    rate("experiments.validate_approx_points_per_s", points,
         lambda: validate_approx(0.05, n_bits=grid_bits, seed=seed),
         lambda g: [] if g == grid and len(g.rows) == 24 else ["grid differs"])

    # cli
    starts = []
    for _ in range(sizes.startup_samples):
        with tracer.span("cli.startup_s"):
            res = run_child(randev_argv("--help"))
        out.check("cli.startup_s", out.child("randev --help", res))
        starts.append(res.cpu_seconds)
    metrics["cli.startup_s"] = statistics.median(starts)
    return metrics


def span_cost_us(samples: int = 20000) -> float:
    """Cost of recording one empty span, in microseconds."""
    scratch = Tracer(enabled=True)
    perf = time.perf_counter
    t0 = perf()
    for _ in range(samples):
        with scratch.span("x"):
            pass
    return 1e6 * (perf() - t0) / samples
