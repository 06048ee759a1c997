"""The three workloads: simulate, analyze and short_streams.

Each is a closed loop: one caller issues the next call only after the
previous one returns.  A workload runs whole rounds of calls until its
time is up, and checks the output of every call.  Inputs come from the
workload seed; randev sees only the generated configs and files.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import harness
from harness import Tracer, randev_argv, run_child
from reference import matches_report, oracle_mismatches, reference_stats, unpack

WORK = harness.OUT / "work"


@dataclass(frozen=True)
class Sizes:
    """Input sizes in bits.  ``tiny`` is for the self-test only."""

    # sized so that every call costs about the same CPU time (0.8 s on
    # a 2-core Xeon VM, start-up included): the call quantiles then do
    # not jump from one kind to another when the number of rounds changes
    simulate: tuple = (
        ("ideal", 11_500_003),
        ("bernoulli", 16_000_000),
        ("splitter", 13_500_001),
        ("markov_carry", 8_200_005),
        ("markov_flip", 7_800_000),
        ("deadtime_reroute", 1_500_001),
        ("deadtime_loss", 1_500_000),
        ("xorshift64", 46_000_037),  # not a multiple of 64
    )
    analyze_bits: int = 1 << 26
    analyze_odd_cut: int = 37  # --nbits run drops this many bits
    stream_bits: int = 1 << 14
    stream_pool: int = 4096
    streams_per_round: int = 2000
    pace_every: int = 250  # chains between pacer samples
    monitor_window: int = 4096
    monitor_bits: int = 1 << 24
    setup_samples: int = 3  # before timing; one more follows every round

    @classmethod
    def tiny(cls) -> "Sizes":
        return cls(
            simulate=tuple((k, max(1001, n // 1000)) for k, n in cls.simulate),
            analyze_bits=1 << 16,
            stream_bits=1 << 10,
            stream_pool=16,
            streams_per_round=20,
            monitor_bits=1 << 14,
            setup_samples=1,
        )


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    rounds: list = field(default_factory=list)      # (bits, wall s, CPU s) per round
    per_op: dict = field(default_factory=dict)      # op -> [bits, [wall s], [CPU s], [round]]
    setup: list = field(default_factory=list)       # (round, CPU s) per setup sample
    pace: list = field(default_factory=list)        # (round, CPU s) per pacer sample
    pacer: harness.Pacer = field(default_factory=harness.Pacer, repr=False)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)
    log: list = field(default_factory=list)        # (op, label, bits, wall s, CPU s) of CLI calls
    traced_rounds: list = field(default_factory=list)  # whether spans were on, per round

    def check(self, what: str, problems: list) -> None:
        """Count one checked operation; record it as failed if any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {'; '.join(problems)}")

    def child(self, what: str, res: harness.ChildResult, ok_codes=(0,)) -> list:
        self.peak_rss_mb = max(self.peak_rss_mb, res.peak_rss_mb)
        if res.timed_out:
            return [f"timed out after {harness.CHILD_TIMEOUT_S:.0f} s"]
        if res.exit_code not in ok_codes:
            return [f"exit code {res.exit_code}"]
        return []

    def op(self, name: str, bits: int, wall: float, cpu: float, label: str = "") -> None:
        acc = self.per_op.setdefault(name, [0, [], [], []])
        acc[0] += bits
        acc[1].append(wall)
        acc[2].append(cpu)
        acc[3].append(len(self.rounds))
        if name != "chain":
            self.log.append((name, label, bits, wall, cpu))

    def pace_sample(self) -> None:
        """Time the pacer once, for the round now running."""
        self.pace.append((len(self.rounds), self.pacer.sample()))

    def speeds(self) -> dict:
        """Round -> processor speed in that round, relative to the pacer's
        reference: its reference time over the median of its samples."""
        samples: dict = {}
        for r, secs in self.pace:
            samples.setdefault(r, []).append(secs)
        return {r: harness.Pacer.REF_SECONDS / statistics.median(v) for r, v in samples.items()}

    def times(self, op: str, clock: str = "ref") -> list:
        """The calls' times: ``wall``, ``cpu``, or ``ref``, CPU time scaled
        to the pacer's reference speed by the speed of the call's round."""
        _, wall, cpu, rounds = self.per_op[op]
        if clock == "wall":
            return list(wall)
        if clock == "cpu":
            return list(cpu)
        speed = self.speeds()
        return [t * speed[r] for t, r in zip(cpu, rounds)]

    def calls(self, clock: str = "ref") -> list:
        return [t for op in self.per_op for t in self.times(op, clock)]

    def rate(self, clock: str = "ref") -> float:
        """All bits of the run's rounds over their call time."""
        if clock == "wall":
            seconds = [r[1] for r in self.rounds]
        elif clock == "cpu":
            seconds = [r[2] for r in self.rounds]
        else:
            speed = self.speeds()
            seconds = [r[2] * speed[i] for i, r in enumerate(self.rounds)]
        return sum(r[0] for r in self.rounds) / sum(seconds)

    def op_rate(self, name: str) -> float:
        """Bits over wall time of one operation's calls."""
        return self.per_op[name][0] / sum(self.per_op[name][1])

    def setup_seconds(self, clock: str = "ref") -> list:
        speed = self.speeds()
        return [secs * (speed[r] if clock == "ref" else 1.0) for r, secs in self.setup]

    def tracing_overhead(self) -> float:
        """Median reference-speed time of a call with spans on over that
        with spans off, minus 1, for the workload's most frequent call."""
        op = max(self.per_op, key=lambda name: len(self.per_op[name][2]))
        rounds = self.per_op[op][3]
        on = [t for t, r in zip(self.times(op), rounds) if self.traced_rounds[r]]
        off = [t for t, r in zip(self.times(op), rounds) if not self.traced_rounds[r]]
        return statistics.median(on) / statistics.median(off) - 1.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _source_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 1 << 63))


def _until(out: Outcome, tracer: Tracer, seconds: float, one_round, setup_sample,
           setup_samples: int) -> None:
    """Take ``setup_samples`` set-up samples, then run whole rounds until
    their wall time reaches ``seconds``.

    One set-up sample follows each round, so the set-up median spans the
    whole run rather than one burst before it; its time is not counted.
    The pacer is timed before every set-up sample and within every round,
    all on one CPU (see NOTES.md).  A traced run records spans in even
    rounds only, so traced and untraced rounds interleave under the same
    machine load and their difference measures the tracing overhead.
    """
    def paced_setup():
        out.pace_sample()
        setup_sample()

    tracing = tracer.enabled
    spent = 0.0
    with harness.one_cpu():
        for _ in range(setup_samples):
            paced_setup()
        while spent < seconds or (tracing and len(out.rounds) < 2):
            tracer.enabled = tracing and len(out.rounds) % 2 == 0
            out.traced_rounds.append(tracer.enabled)
            t0 = time.perf_counter()
            one_round()
            spent += time.perf_counter() - t0
            paced_setup()
    tracer.enabled = tracing


def cli_setup(out: Outcome) -> None:
    """One sample of CLI start-up: a command that does no work."""
    res = run_child(randev_argv("--help"))
    out.check("randev --help", out.child("randev --help", res))
    out.setup.append((len(out.rounds), res.cpu_seconds))


# ---- simulate ----

def simulate_configs(seed: int, sizes: Sizes) -> list:
    """(name, CLI flags, SourceConfig, nbits) for every source kind and mode."""
    from randev import SourceConfig

    rng = _rng(seed, 1)
    out = []
    for name, nbits in sizes.simulate:
        s = _source_seed(rng)
        if name == "ideal":
            flags, cfg = ["--source", "ideal"], SourceConfig.ideal(s)
        elif name == "bernoulli":
            p = float(rng.uniform(0.45, 0.55))
            flags, cfg = ["--source", "bernoulli", "--p", repr(p)], SourceConfig.bernoulli(p, s)
        elif name == "splitter":
            b = float(rng.uniform(-0.1, 0.1))
            flags, cfg = ["--source", "splitter", "--bias", repr(b)], SourceConfig.splitter(b, s)
        elif name.startswith("markov"):
            b = float(rng.uniform(-0.05, 0.05))
            a1 = float(rng.uniform(0.02, 0.2))
            if name == "markov_flip":
                a1 = -a1
            flags = ["--source", "markov", "--bias", repr(b), "--a1", repr(a1)]
            cfg = SourceConfig.markov(b, a1, s)
        elif name.startswith("deadtime"):
            mode = name.split("_")[1]
            tau, tau_d = 1000.0, float(rng.uniform(10.0, 40.0))
            flags = ["--source", "deadtime", "--tau", repr(tau), "--dead-time", repr(tau_d),
                     "--dead-mode", mode]
            cfg = SourceConfig.deadtime(tau, tau_d, s, mode)
        else:
            flags, cfg = ["--source", "xorshift64"], SourceConfig.xorshift64(s)
        out.append((name, flags + ["--seed", str(s)], cfg, nbits))
    return out


def simulate(seed: int, seconds: float, tracer: Tracer, sizes: Sizes,
             golden: dict | None) -> Outcome:
    """``randev generate`` to raw files for every source kind, round after round.

    Every output is checked for its size, against the closed-form
    oracle on bias and a1 (5 sigma), and, when ``golden`` is given,
    against the recorded SHA-256 digest of its kind.
    """
    from randev import predict_source

    out = Outcome()
    WORK.mkdir(parents=True, exist_ok=True)
    configs = simulate_configs(seed, sizes)
    out.inputs = {"configs": {name: flags for name, flags, _, _ in configs},
                  "nbits": {name: n for name, _, _, n in configs}}
    verdicts: dict = {}  # digest -> oracle problems; rounds rewrite equal files

    def one_round():
        bits = 0
        wall = cpu = 0.0
        for name, flags, cfg, nbits in configs:
            path = WORK / f"sim_{name}.bits"
            argv = randev_argv("generate", *flags, "--nbits", nbits, "--out", path)
            out.pace_sample()
            with tracer.span("cli.generate", nbits):
                res = run_child(argv)
            problems = out.child(name, res)
            if not problems:
                data = path.read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                if len(data) != (nbits + 7) // 8:
                    problems.append(f"{len(data)} bytes for {nbits} bits")
                elif golden is not None and golden.get(name) != digest:
                    problems.append(f"sha256 {digest} != golden {golden.get(name)}")
                else:
                    if digest not in verdicts:
                        pred = predict_source(cfg)
                        verdicts[digest] = oracle_mismatches(unpack(data, nbits), pred.bias,
                                                             pred.a1)
                    problems += verdicts[digest]
            out.check(f"generate {name}", problems)
            out.op("generate", nbits, res.seconds, res.cpu_seconds, name)
            tracer.count("bits_generated", nbits)
            bits += nbits
            wall += res.seconds
            cpu += res.cpu_seconds
        out.rounds.append((bits, wall, cpu))

    _until(out, tracer, seconds, one_round, lambda: cli_setup(out), sizes.setup_samples)
    return out


# ---- analyze ----

def write_analyze_inputs(seed: int, nbits: int, prefix: str,
                         names=("fair", "biased", "correlated")) -> dict:
    """Raw files made with numpy, not randev: fair, biased and correlated bits.

    Each workload passes its own file-name ``prefix``, so workloads never
    share an input file.
    """
    rng = _rng(seed, 2)
    p1 = 0.5 + float(rng.uniform(0.005, 0.02))
    flip = 0.5 - float(rng.uniform(0.01, 0.05))  # lag-1 autocorrelation 1 - 2*flip
    WORK.mkdir(parents=True, exist_ok=True)
    chunk = 1 << 20  # small temporaries keep this process's own RSS low
    paths = {}
    for name in names:
        path = WORK / f"{prefix}_{name}.bits"
        carry = 0
        with open(path, "wb") as fh:
            for start in range(0, nbits, chunk):
                m = min(chunk, nbits - start)
                if name == "fair":
                    bits = rng.integers(0, 2, m, dtype=np.uint8)
                elif name == "biased":
                    bits = (rng.random(m) < p1).astype(np.uint8)
                else:
                    bits = np.bitwise_xor.accumulate((rng.random(m) < flip).astype(np.uint8))
                    bits ^= carry
                    carry = int(bits[-1])
                fh.write(np.packbits(bits, bitorder="little").tobytes())
        paths[name] = path
    return {"paths": paths, "p1": p1, "flip": flip}


def expected_window_lines(nbits: int, window: int) -> int:
    return nbits // window + (1 if nbits % window else 0)


def monitor_problems(res: harness.ChildResult, nbits: int, window: int) -> list:
    lines = res.stdout.splitlines()
    want = expected_window_lines(nbits, window)
    if len(lines) != want:
        return [f"{len(lines)} window lines, expected {want}"]
    for i, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) != 4 or fields[0] != str(i):
            return [f"malformed window line {line!r}"]
    return []


def consistency_problems(data: bytes, nbits: int, ref: dict, workers: int) -> list:
    """Whole, chunked and parallel in-process reports must be identical,
    and must match the reference."""
    from randev import BitSequence, analyze, analyze_parallel, from_raw_bytes

    seq = from_raw_bytes(data, nbits)
    arr = seq.to_array()
    cuts = [0, 1, 4093, nbits // 3, nbits // 2 + 5, nbits]
    chunks = [BitSequence.from_bits(arr[a:b]) for a, b in zip(cuts, cuts[1:])]
    whole = analyze(seq)
    problems = []
    if analyze(chunks) != whole:
        problems.append("chunked report differs from whole")
    if analyze_parallel(seq, workers=workers) != whole:
        problems.append("parallel report differs from whole")
    problems += matches_report(whole.to_json_dict(), ref)
    return problems


def analyze_workload(seed: int, seconds: float, tracer: Tracer, sizes: Sizes,
                     corrupt=None) -> Outcome:
    """``randev analyze --json`` and ``randev monitor`` on numpy-made files.

    ``corrupt``, when given, is called with the input paths after the
    references are computed; the self-test uses it to damage a file.
    """
    out = Outcome()
    nbits = sizes.analyze_bits
    made = write_analyze_inputs(seed, nbits, "analyze")
    paths = made["paths"]
    odd = nbits - sizes.analyze_odd_cut
    # each file is analyzed whole and with --nbits odd, so that two thirds
    # of the calls are analyze calls: the median and tail call are then
    # analyze calls in every run, not a monitor call in some
    jobs = []
    for name, path in paths.items():
        data = path.read_bytes()  # the one read before timing: page cache warm
        bits = unpack(data, nbits)
        jobs.append((name, path, nbits, reference_stats(bits)))
        jobs.append((f"{name}_odd", path, odd, reference_stats(bits[:odd])))
        del bits
        cut = min(nbits, (1 << 22) + 13)
        sub_ref = reference_stats(unpack(data, cut))
        out.check(f"in-process whole/chunked/parallel {name}",
                  consistency_problems(data, cut, sub_ref, harness.nproc()))
    out.inputs = {"nbits": nbits, "odd_nbits": odd, "p1": made["p1"],
                  "flip_probability": made["flip"]}
    if corrupt is not None:
        corrupt(paths)

    def one_round():
        bits = 0
        wall = cpu = 0.0
        for name, path, n, ref in jobs:
            argv = randev_argv("analyze", path, "--json", *(["--nbits", n] if n != nbits else []))
            out.pace_sample()
            with tracer.span("cli.analyze", n):
                res = run_child(argv)
            problems = out.child(f"analyze {name}", res)
            if not problems:
                try:
                    problems = matches_report(json.loads(res.stdout), ref)
                except (ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable report: {exc!r}"]
            out.check(f"analyze {name}", problems)
            out.op("analyze", n, res.seconds, res.cpu_seconds, name)
            tracer.count("bits_analyzed", n)
            bits += n
            wall += res.seconds
            cpu += res.cpu_seconds
        for name, path in paths.items():
            out.pace_sample()
            with tracer.span("cli.monitor", nbits):
                res = run_child(randev_argv("monitor", path))
            problems = out.child(f"monitor {name}", res, ok_codes=(0, 2))
            if not problems:
                problems = monitor_problems(res, nbits, 1 << 20)
            out.check(f"monitor {name}", problems)
            out.op("monitor", nbits, res.seconds, res.cpu_seconds, name)
            tracer.count("windows_emitted", expected_window_lines(nbits, 1 << 20))
            bits += nbits
            wall += res.seconds
            cpu += res.cpu_seconds
        out.rounds.append((bits, wall, cpu))

    _until(out, tracer, seconds, one_round, lambda: cli_setup(out), sizes.setup_samples)
    return out


# ---- short_streams ----

def stream_configs(seed: int, sizes: Sizes) -> list:
    """(SourceConfig, nbits, expected bias, expected a1) drawn from the seed."""
    from randev import SourceConfig

    rng = _rng(seed, 3)
    out = []
    for _ in range(sizes.stream_pool):
        s = _source_seed(rng)
        n = sizes.stream_bits + int(rng.integers(-64, 65))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            b = float(rng.uniform(-0.1, 0.1))
            a1 = float(rng.uniform(-0.2, 0.3))
            out.append((SourceConfig.markov(b, a1, s), n, b, a1))
        elif kind == 1:
            b = float(rng.uniform(-0.1, 0.1))
            out.append((SourceConfig.splitter(b, s), n, b, 0.0))
        else:
            out.append((SourceConfig.xorshift64(s), n, 0.0, 0.0))
    return out


_SETUP_CODE = """\
import time
t0 = time.process_time()
from randev import SourceConfig, analyze, generate, predict_source
cfg = SourceConfig.markov(0.01, 0.05, seed=1)
analyze(generate(cfg, {n}))
predict_source(cfg)
print(time.process_time() - t0)
"""


def in_process_setup(out: Outcome, nbits: int) -> None:
    """One sample of import plus one warm-up chain: CPU time inside a fresh interpreter."""
    res = run_child([sys.executable, "-c", _SETUP_CODE.format(n=nbits)])
    problems = out.child("import + warm-up chain", res)
    if not problems:
        try:
            out.setup.append((len(out.rounds), float(res.stdout.strip())))
        except ValueError:
            problems = [f"unreadable timing {res.stdout!r}"]
    out.check("import + warm-up chain", problems)


def chain_problems(rep, pred, n: int, seq, b: float, a1: float) -> list:
    problems = []
    if seq.nbits != n:
        return [f"generated {seq.nbits} bits, asked for {n}"]
    problems += matches_report(rep.to_json_dict(), reference_stats(unpack(seq.data, n)))
    if pred.bias != b or pred.a1 != a1:
        problems.append(f"prediction ({pred.bias}, {pred.a1}) != ({b}, {a1})")
    return problems


def short_streams(seed: int, seconds: float, tracer: Tracer, sizes: Sizes) -> Outcome:
    """Thousands of generate -> analyze -> predict_source chains, each timed
    on its own, plus ``randev monitor --window-bits 4096`` once a round."""
    from randev import analyze, generate, predict_source

    out = Outcome()
    configs = stream_configs(seed, sizes)
    made = write_analyze_inputs(seed, sizes.monitor_bits, "short_streams", names=("correlated",))
    mon_path = made["paths"]["correlated"]
    mon_path.read_bytes()  # warm the page cache
    out.inputs = {"streams_in_pool": len(configs), "stream_bits": sizes.stream_bits,
                  "monitor_bits": sizes.monitor_bits, "monitor_window": sizes.monitor_window}
    for cfg, n, _, _ in configs[:50]:  # warm-up, untimed
        analyze(generate(cfg, n))
    perf = time.perf_counter
    cpu_clock = time.thread_time  # CPU time of this thread alone
    index = 0

    def one_round():
        nonlocal index
        bits = 0
        wall = cpu = 0.0
        for i in range(sizes.streams_per_round):
            if i % sizes.pace_every == 0:
                out.pace_sample()
            cfg, n, b, a1 = configs[index % len(configs)]
            index += 1
            c0 = cpu_clock()
            if tracer.enabled:
                with tracer.span("chain", n) as whole:
                    with tracer.span("sources.generate", n):
                        seq = generate(cfg, n)
                    with tracer.span("estimators.analyze", n):
                        rep = analyze(seq)
                    with tracer.span("model.predict_source", 1):
                        pred = predict_source(cfg)
                dt = whole.seconds
            else:
                t0 = perf()
                seq = generate(cfg, n)
                rep = analyze(seq)
                pred = predict_source(cfg)
                dt = perf() - t0
            dc = cpu_clock() - c0
            out.check("chain", chain_problems(rep, pred, n, seq, b, a1))
            out.op("chain", n, dt, dc)
            tracer.count("bits_generated", n)
            tracer.count("bits_analyzed", n)
            tracer.count("streams_run", 1)
            bits += n
            wall += dt
            cpu += dc
        w = sizes.monitor_window
        out.pace_sample()
        with tracer.span("cli.monitor", sizes.monitor_bits):
            res = run_child(randev_argv("monitor", mon_path, "--window-bits", w))
        problems = out.child("monitor", res, ok_codes=(0, 2))
        if not problems:
            problems = monitor_problems(res, sizes.monitor_bits, w)
        out.check("monitor --window-bits 4096", problems)
        out.op("monitor", sizes.monitor_bits, res.seconds, res.cpu_seconds)
        tracer.count("windows_emitted", expected_window_lines(sizes.monitor_bits, w))
        out.rounds.append((bits + sizes.monitor_bits, wall + res.seconds, cpu + res.cpu_seconds))

    _until(out, tracer, seconds, one_round, lambda: in_process_setup(out, sizes.stream_bits),
           sizes.setup_samples)
    # the in-process chains ran here
    out.peak_rss_mb = max(out.peak_rss_mb, harness.own_peak_rss_mb())
    return out


WORKLOADS = ("simulate", "analyze", "short_streams")


def run_workload(name: str, seed: int, seconds: float, tracer: Tracer, sizes: Sizes,
                 golden: dict | None = None) -> Outcome:
    if name == "simulate":
        return simulate(seed, seconds, tracer, sizes, golden)
    if name == "analyze":
        return analyze_workload(seed, seconds, tracer, sizes)
    return short_streams(seed, seconds, tracer, sizes)
