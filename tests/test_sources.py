import gc
import hashlib
import math
import os
import random
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import randev
from randev.bitstream import BitSequence, concat
from randev.model import deadtime_a1, predict_source
from randev.sources import (
    _DRAWS,
    ParameterError,
    Source,
    SourceConfig,
    generate,
    markov_transition_matrix,
)
from splitmix_oracle import RngState, splitmix_next, uniform_from_output

# golden values computed by direct evaluation of the stated recurrence
SPLITMIX_SEED0_FIRST3 = (
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
)


def bias_a_k(seq, kmax=1):
    """Plain-numpy reference statistics, independent of the estimators module."""
    x = seq.to_array().astype(np.float64)
    n = x.size
    xb = x.mean()
    acs = []
    for k in range(1, kmax + 1):
        h = x[: n - k] - xb
        t = x[k:] - xb
        acs.append(float((h * t).sum() / (h * h).sum()))
    return 2 * xb - 1, acs


# ---------------------------------------------------------------- splitmix


def test_splitmix_seed0_golden():
    st = RngState(0)
    got = []
    for _ in range(3):
        st, z = splitmix_next(st)
        got.append(z)
    assert tuple(got) == SPLITMIX_SEED0_FIRST3


def test_splitmix_recurrence_direct():
    # independent re-evaluation of the recurrence, one step
    s = (0 + 0x9E3779B97F4A7C15) % 2**64
    z = s
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    want = z ^ (z >> 31)
    _, got = splitmix_next(RngState(0))
    assert got == want == SPLITMIX_SEED0_FIRST3[0]


def test_splitmix_deterministic():
    def stream(n):
        st = RngState(123)
        out = []
        for _ in range(n):
            st, z = splitmix_next(st)
            out.append(z)
        return out

    assert stream(1000) == stream(1000)


def test_uniform_reals_in_unit_interval():
    st = RngState(999)
    for _ in range(1000):
        st, z = splitmix_next(st)
        u = uniform_from_output(z)
        assert 0.0 <= u < 1.0


def test_rng_state_validates():
    with pytest.raises(ParameterError):
        RngState(-1)
    with pytest.raises(ParameterError):
        RngState(2**64)


# ------------------------------------------------------- transition matrix


def test_matrix_ideal():
    tm = markov_transition_matrix(0.0, 0.0)
    assert tm.p1_given_0 == tm.p1_given_1 == 0.5
    assert tm.pi1 == 0.5


def test_matrix_pure_correlation():
    tm = markov_transition_matrix(0.0, 0.1)
    assert tm.p1_given_1 == pytest.approx(0.55, abs=1e-15)
    assert tm.p1_given_0 == pytest.approx(0.45, abs=1e-15)
    # P(x_{j+1} = x_j) = (1 + a1)/2 under zero bias
    p_same = tm.pi0 * (1 - tm.p1_given_0) + tm.pi1 * tm.p1_given_1
    assert p_same == pytest.approx(0.55, abs=1e-15)


def test_matrix_biased_correlated():
    tm = markov_transition_matrix(0.1, 0.1)
    assert tm.p1_given_0 == pytest.approx(0.495, abs=1e-15)
    assert tm.p1_given_1 == pytest.approx(0.595, abs=1e-15)
    assert tm.pi1 == pytest.approx(0.55, abs=1e-15)


@pytest.mark.parametrize("b,a1", [(0.1, 0.1), (0.0, -0.5), (-0.4, 0.25), (0.5, -1 / 3), (0.0, 1.0)])
def test_matrix_brute_force_chain_statistics(b, a1):
    # Enumerate 2- and 3-step paths with exact probabilities and recover
    # stationarity, the lag-1 autocorrelation, and a2 = a1**2.
    tm = markov_transition_matrix(b, a1)
    p1 = {0: tm.p1_given_0, 1: tm.p1_given_1}
    pi = {0: tm.pi0, 1: tm.pi1}

    def step(x, y):
        return p1[x] if y == 1 else 1 - p1[x]

    # stationarity
    next1 = sum(pi[x] * step(x, 1) for x in (0, 1))
    assert next1 == pytest.approx(tm.pi1, abs=1e-14)
    mean = tm.pi1
    var = tm.pi0 * tm.pi1
    e_xy = sum(pi[x] * step(x, y) * x * y for x in (0, 1) for y in (0, 1))
    assert (e_xy - mean**2) / var == pytest.approx(a1, abs=1e-12)
    e_xz = sum(
        pi[x] * step(x, y) * step(y, z) * x * z
        for x in (0, 1) for y in (0, 1) for z in (0, 1)
    )
    assert (e_xz - mean**2) / var == pytest.approx(a1**2, abs=1e-12)


def test_matrix_domain_errors():
    with pytest.raises(ParameterError):
        markov_transition_matrix(1.0, 0.0)
    with pytest.raises(ParameterError):
        markov_transition_matrix(0.0, 1.0 + 1e-9)
    with pytest.raises(ParameterError) as exc:
        markov_transition_matrix(0.5, -0.9)
    msg = str(exc.value)
    assert "-0.333333" in msg and "1]" in msg  # names the admissible interval


def test_matrix_boundary_values_admissible():
    markov_transition_matrix(0.5, -1 / 3)
    markov_transition_matrix(0.0, -1.0)
    markov_transition_matrix(0.9, 1.0)


# ----------------------------------------------------------- config checks


def test_config_validation_errors():
    for bad in (
        SourceConfig(kind="nope"),
        SourceConfig.bernoulli(1.5),
        SourceConfig.splitter(1.0),
        SourceConfig.markov(0.5, -0.9),
        SourceConfig.deadtime(0.0, 1.0),
        SourceConfig.deadtime(10.0, -1.0),
        SourceConfig.deadtime(math.nan, 1.0),
        SourceConfig.deadtime(math.inf, 1.0),
        SourceConfig.deadtime(1.0, math.nan),
        SourceConfig.deadtime(1.0, math.inf),
        SourceConfig.deadtime(1.0, 1e12),
        SourceConfig.deadtime(1.0, 1e12, mode="loss"),
        SourceConfig.deadtime(10.0, 1.0, mode="bounce"),
        SourceConfig.xorshift64(0),
        SourceConfig(kind="ideal", seed=-1),
        SourceConfig(kind="ideal", seed=2**64),
        SourceConfig.ideal(seed=2.0),
        SourceConfig.markov(0.1, 0.1, seed=None),
        SourceConfig.xorshift64(seed=1.5),
        # a parameter the kind does not read
        SourceConfig(kind="ideal", p=0.9),
        SourceConfig.markov(0, 0.1)._replace(tau=1.0),
        # a dead-time mode on a kind that reads none, known or not
        SourceConfig(kind="ideal", deadtime_mode="bounce"),
        SourceConfig.markov(0.0, 0.1)._replace(deadtime_mode="loss"),
    ):
        with pytest.raises(ParameterError):
            Source(bad)
        with pytest.raises(ParameterError):
            generate(bad, 10)
    # the model rejects it too, and does not call the source perfect
    with pytest.raises(ParameterError, match="^p does not apply to ideal$"):
        predict_source(SourceConfig(kind="ideal", p=0.9))
    with pytest.raises(ParameterError, match="^deadtime_mode does not apply to markov$"):
        predict_source(SourceConfig(kind="markov", b=0.0, a1=0.1, deadtime_mode="loss"))
    with pytest.raises(ParameterError, match="^deadtime mode 'bounce' not one of"):
        SourceConfig(kind="ideal", deadtime_mode="bounce").validate()
    # the default mode stays admissible for every kind
    for cfg in ALL_KIND_CONFIGS:
        cfg.validate()
    # a numpy integer seed is the same seed as the int
    for seed in (np.uint64(2**64 - 1), np.int64(5)):
        for cfg in (SourceConfig.ideal(seed=seed), SourceConfig.xorshift64(seed)):
            assert generate(cfg, 100) == generate(cfg._replace(seed=int(seed)), 100)


def test_generate_rejects_negative_count():
    with pytest.raises(ParameterError):
        Source(SourceConfig.ideal(seed=1)).generate(-1)


def test_generate_rejects_a_count_that_is_not_an_integer():
    for n in (2.5, 10.0, "3", None):
        with pytest.raises(ParameterError):
            Source(SourceConfig.ideal(seed=1)).generate(n)
        with pytest.raises(ParameterError):
            generate(SourceConfig.ideal(seed=1), n)
    assert generate(SourceConfig.ideal(seed=1), np.int64(100)) == generate(
        SourceConfig.ideal(seed=1), 100)


def test_generate_zero_bits_every_kind():
    for cfg in (
        SourceConfig.ideal(seed=1),
        SourceConfig.bernoulli(0.25, seed=1),
        SourceConfig.splitter(0.1, seed=1),
        SourceConfig.markov(0.1, 0.1, seed=1),
        SourceConfig.deadtime(1000.0, 40.0, seed=1),
        SourceConfig.xorshift64(seed=1),
    ):
        assert generate(cfg, 0).nbits == 0


# ------------------------------------------------------------- determinism


# SHA-256 of generate(cfg, 2**20 + 13).data for one fixed seed of every kind
# and mode; a change to how bits are generated must not move any of them
GOLDEN_STREAMS = [
    (SourceConfig.ideal(seed=101),
     "f7f601f05d47cf1f7ab30528d9fa6190f21fea7f57e20c87065b036a89058268"),
    (SourceConfig.bernoulli(0.3, seed=102),
     "c23cfb8684cdb6c33005784b1d5213b9ea1ebac47412334f0664815e41b5585e"),
    (SourceConfig.splitter(-0.2, seed=103),
     "055f6d87934fc56cbd5b9f69940d544f39994faacfa32a6463a5fac5e216741d"),
    (SourceConfig.markov(0.1, 0.3, seed=104),
     "084e29128d21460218a7890b78dd3b1ece89c894d109fe501d12616390161277"),
    (SourceConfig.markov(-0.05, -0.4, seed=105),
     "02f4ed71e186b2d31240b9614651a660cfd43e47fbd301ccd98d45126ea8d843"),
    (SourceConfig.deadtime(1000.0, 40.0, seed=106),
     "c249e0b1bf18a7377233968be094ff9e1222c64041cf9ae2d7960d010b1d6f88"),
    (SourceConfig.deadtime(1000.0, 40.0, seed=107, mode="loss"),
     "aab95de87fea378035c8a8d8a7025105e5dfebcd2564699aa06163aea63cac32"),
    (SourceConfig.xorshift64(seed=108),
     "fa638a593230f08b646cd7d31b968d6e1a54ed6390b46f5c22d7884f31a845cc"),
]


@pytest.mark.parametrize(
    "cfg,digest", GOLDEN_STREAMS,
    ids=["ideal", "bernoulli", "splitter", "markov_carry", "markov_flip",
         "deadtime_reroute", "deadtime_loss", "xorshift64"],
)
def test_golden_stream(cfg, digest):
    n = 2**20 + 13
    assert hashlib.sha256(generate(cfg, n).data).hexdigest() == digest
    # a live source cut inside a chunk, off a byte boundary, then resumed
    src = Source(cfg)
    head = src.generate(2**16 - 3)
    tail = src.generate(n - head.nbits)
    assert hashlib.sha256(concat(head, tail).data).hexdigest() == digest


def test_generate_deterministic_in_config():
    cfg = SourceConfig.markov(0.05, -0.2, seed=17)
    assert generate(cfg, 4096) == generate(cfg, 4096)


def test_different_seeds_differ():
    a = generate(SourceConfig.ideal(seed=1), 256)
    b = generate(SourceConfig.ideal(seed=2), 256)
    assert a != b


def test_bernoulli_extremes():
    assert generate(SourceConfig.bernoulli(0.0, seed=1), 64).to_array().sum() == 0
    assert generate(SourceConfig.bernoulli(1.0, seed=1), 64).to_array().sum() == 64


# -------------------------------------------------- markov per-bit oracle


def markov_reference(b, a1, seed, n):
    """Literal sequential definition: one uniform per bit, first from the
    stationary law, then thresholds chosen by the previous bit."""
    tm = markov_transition_matrix(b, a1)
    st = RngState(seed)
    bits = []
    x = None
    for _ in range(n):
        st, z = splitmix_next(st)
        u = uniform_from_output(z)
        if x is None:
            x = 1 if u < tm.pi1 else 0
        else:
            x = 1 if u < (tm.p1_given_1 if x else tm.p1_given_0) else 0
        bits.append(x)
    return bits


@pytest.mark.parametrize(
    "b,a1",
    [(0.0, 0.0), (0.1, 0.1), (0.1, -0.1), (-0.3, 0.5), (0.0, -1.0), (0.0, 1.0),
     (0.5, -1 / 3), (0.02, 0.04), (0.9, -0.05), (0.0, 0.999), (0.0, -0.999)],
)
def test_markov_matches_sequential_definition(b, a1):
    # lengths on and beside the 64-bit words the chunk is filled on, and
    # past one 2^16-bit chunk; at a1 = +-0.999 most words hold no reset,
    # so their bits come from a word before them
    config = SourceConfig.markov(b, a1, seed=11)
    want = markov_reference(b, a1, 11, 2**16 + 70)
    for n in (1, 2, 63, 64, 65, 129, 700, 2**16 + 70):
        assert list(generate(config, n).to_array()) == want[:n]
    # a live source carries its last bit across calls cut off a word
    src = Source(config)
    got = concat(*(src.generate(n) for n in (63, 1, 2**16)))
    assert list(got.to_array()) == want[:2**16 + 64]


def test_markov_deterministic_limits():
    # a1 = 1 freezes the first bit; a1 = -1 at b=0 alternates
    frozen = generate(SourceConfig.markov(0.0, 1.0, seed=8), 100).to_array()
    assert len(set(frozen.tolist())) == 1
    alt = generate(SourceConfig.markov(0.0, -1.0, seed=8), 100).to_array()
    assert set(np.abs(np.diff(alt.astype(int))).tolist()) == {1}


# ------------------------------------------------- statistical convergence


def test_ideal_statistics():
    b, (a1,) = bias_a_k(generate(SourceConfig.ideal(seed=1), 10**6), 1)
    assert abs(b) <= 3e-3
    assert abs(a1) <= 3e-3


def test_splitter_bias_converges():
    b, _ = bias_a_k(generate(SourceConfig.splitter(0.1, seed=2), 10**6), 0)
    assert b == pytest.approx(0.1, abs=3e-3)


def test_markov_lag2_follows_square():
    _, acs = bias_a_k(generate(SourceConfig.markov(0.0, -0.5, seed=3), 10**6), 2)
    assert acs[1] == pytest.approx(0.25, abs=3e-3)


def test_markov_statistics_converge():
    n = 10**6
    b, acs = bias_a_k(generate(SourceConfig.markov(0.0, 0.1, seed=4), n), 4)
    assert abs(b - 0.0) <= 3 / np.sqrt(n)
    for k, a_k in enumerate(acs, start=1):
        assert abs(a_k - 0.1**k) <= 3 / np.sqrt(n)


# ---------------------------------------------------------------- deadtime


def test_deadtime_zero_deadtime_is_ideal_like():
    n = 10**6
    b, (a1,) = bias_a_k(generate(SourceConfig.deadtime(1000.0, 0.0, seed=5), n), 1)
    assert abs(a1) <= 3 / np.sqrt(n)
    assert abs(b) <= 3 / np.sqrt(n)


def test_deadtime_autocorr_matches_deadtime_a1():
    # reroute: a1 = -x/(1 + x), x = tau_d/tau = 0.04
    n = 10**6
    seq = generate(SourceConfig.deadtime(1000.0, 40.0, seed=3), n)
    b, (a1,) = bias_a_k(seq, 1)
    assert a1 == pytest.approx(deadtime_a1(1000.0, 40.0), abs=0.004)
    assert abs(b) <= 3 / np.sqrt(n)


def test_deadtime_loss_mode_autocorr_matches_deadtime_a1():
    # With lost (not re-routed) photons each detector fires as its own
    # renewal process, and a1 = -x/(2 + x).
    n = 10**6
    seq = generate(SourceConfig.deadtime(1000.0, 40.0, seed=3, mode="loss"), n)
    _, (a1,) = bias_a_k(seq, 1)
    assert a1 == pytest.approx(deadtime_a1(1000.0, 40.0, "loss"), abs=0.004)


def test_deadtime_large_deadtime_forces_alternation():
    # at tau_d = 5 tau the stream alternates in 11 of 12 pairs: a1 = -5/6
    seq = generate(SourceConfig.deadtime(1000.0, 5000.0, seed=6), 10**6)
    _, (a1,) = bias_a_k(seq, 1)
    assert a1 == pytest.approx(deadtime_a1(1000.0, 5000.0), abs=0.004)


@pytest.mark.parametrize("mode", ["reroute", "loss"])
@pytest.mark.parametrize("x", [0.5, 2.0, 5.0])
def test_deadtime_a1_is_exact_beyond_first_order(mode, x):
    # where x = tau_d/tau is not small, the simulated a1 fits the exact
    # -x/(1 + x) or -x/(2 + x) and rejects the first-order expm1(-x) or
    # expm1(-x/2); the two forms are at least 15/sqrt(n) apart here
    n = 5 * 10**5
    _, (a1,) = bias_a_k(generate(SourceConfig.deadtime(1.0, x, seed=11, mode=mode), n), 1)
    first_order = math.expm1(-x / 2 if mode == "loss" else -x)
    assert abs(a1 - deadtime_a1(1.0, x, mode)) < 3 / math.sqrt(n)
    assert abs(a1 - first_order) > 10 / math.sqrt(n)


# ---------------------------------------------------------------- xorshift


def test_xorshift_first_word_emission():
    m = (1 << 64) - 1
    x = 42
    x ^= (x << 13) & m
    x ^= x >> 7
    x ^= (x << 17) & m
    want = [(x >> i) & 1 for i in range(64)]
    assert list(generate(SourceConfig.xorshift64(42), 64).to_array()) == want


def test_xorshift_truncation():
    full = generate(SourceConfig.xorshift64(7), 130)
    part = generate(SourceConfig.xorshift64(7), 70)
    assert list(part.to_array()) == list(full.to_array()[:70])


def test_xorshift_deterministic_and_seed_sensitive():
    cfg = SourceConfig.xorshift64(9)
    assert generate(cfg, 1000) == generate(cfg, 1000)
    a = generate(SourceConfig.xorshift64(1), 128).to_array()
    b = generate(SourceConfig.xorshift64(2), 128).to_array()
    assert (a != b).any()


def test_different_seeds_diverge_quickly():
    a = generate(SourceConfig.xorshift64(1), 128)
    b = generate(SourceConfig.xorshift64(2), 128)
    assert a != b


def test_xorshift_statistically_unremarkable():
    n = 10**6
    b, (a1,) = bias_a_k(generate(SourceConfig.xorshift64(seed=42), n), 1)
    assert abs(b) <= 3 / np.sqrt(n)
    assert abs(a1) <= 3 / np.sqrt(n)


# ---------------------------------------------------------- concatenation


ALL_KIND_CONFIGS = [
    SourceConfig.ideal(seed=21),
    SourceConfig.bernoulli(0.3, seed=22),
    SourceConfig.splitter(-0.2, seed=23),
    SourceConfig.markov(0.1, 0.1, seed=24),
    SourceConfig.deadtime(1000.0, 40.0, seed=25),
    SourceConfig.deadtime(1000.0, 40.0, seed=25, mode="loss"),
    SourceConfig.xorshift64(seed=26),
]


@pytest.mark.parametrize("cfg", ALL_KIND_CONFIGS, ids=lambda c: f"{c.kind}-{c.deadtime_mode}")
def test_live_source_concatenability(cfg):
    # the total and the largest take cross 2**16-bit chunks and, for dead
    # time at 0.04 tau, photon blocks, with bits left pending.  The first
    # run's takes grow, so each call larger than any before it builds a
    # new chunk function, then shrink and grow again, so later calls reuse
    # the one of the largest size, 2**16 bits: xorshift64 then makes a
    # chunk by a jump from a whole chunk, and one after a shorter chunk by
    # steps.  The take of _DRAWS + 1 bits makes a chunk of one whole draw
    # block and one of a single draw
    total = 3 * 2**16 + 5
    whole = generate(cfg, total)
    rng = random.Random(cfg.seed)
    grow_then_shrink = [1, 7, 64, 1024, 2**17 + 3, 333, 1, _DRAWS + 1, 64]
    for run in range(6):
        takes = grow_then_shrink if run == 0 else []
        src = Source(cfg)
        pieces = [src.generate(take) for take in takes]
        left = total - sum(takes)
        while left:
            take = min(left, rng.choice([0, 1, 7, 64, 333, 1024, 2**16 + 3]))
            pieces.append(src.generate(take))
            left -= take
        acc = BitSequence(b"", 0)
        for p in pieces:
            acc = concat(acc, p)
        assert acc == whole
    # fixed takes with their own totals: short and unit takes, empty ones,
    # and, for markov and dead time, long takes that carry state across a cut
    fixed = [[3, 5, 8], [1000, 1, 777], [0, 5, 0], [0]]
    if cfg.kind == "markov":
        fixed.append([100_000, 1, 100_000])
    if cfg.kind == "deadtime":
        fixed.append([10_000, 10_000])
    for takes in fixed:
        src = Source(cfg)
        assert concat(*(src.generate(take) for take in takes)) == generate(cfg, sum(takes))


def test_dropped_source_frees_its_chunk_buffers():
    # a Source keeps the chunk function of its largest call; that function
    # must not refer back to it, or the cycle would hold its buffers until
    # a garbage collection
    gc.disable()
    try:
        for cfg in ALL_KIND_CONFIGS:
            src = Source(cfg)
            src.generate(2**16 + 3)
            ref = weakref.ref(src)
            del src
            assert ref() is None, cfg.kind
    finally:
        gc.enable()


def test_deadtime_few_bits_at_the_largest_ratio():
    # at tau_d/tau = 10**4 a bit costs about 5000 photons; a call owing a
    # few bits must still take photons in large steps, not a few at a time
    cfg = SourceConfig.deadtime(1.0, 1e4, seed=32, mode="loss")
    start = time.process_time()
    seq = generate(cfg, 10)
    assert time.process_time() - start < 0.15
    assert seq.nbits == 10


def test_deadtime_state_carries_across_cut():
    cfg = SourceConfig.deadtime(1000.0, 40.0, seed=31)
    src = Source(cfg)
    two = concat(src.generate(10**4), src.generate(10**4))
    assert two == generate(cfg, 2 * 10**4)


# ------------------------------------------------------------ page faults


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the minor page faults Linux reports")
@pytest.mark.parametrize("cfg", ["SourceConfig.ideal(seed=1)",
                                 "SourceConfig.markov(0.0, 0.1, seed=1)",
                                 "SourceConfig.deadtime(1000.0, 40.0, seed=1)",
                                 "SourceConfig.xorshift64(seed=1)"])
def test_generate_reuses_its_chunk_buffers(cfg):
    # a fresh interpreter serves every array of 128 KiB or more with a new
    # mmap, whose pages fault in on first touch; 2**23 bits are 128
    # chunks, so per-chunk temporaries of that size would fault about
    # 70 000 times, where buffers reused by every chunk fault about 1000
    code = (
        "import resource\n"
        "from randev.sources import SourceConfig, generate\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"generate({cfg}, 2**23)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(randev.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert int(done.stdout) < 8192
