"""Shared machinery of the benchmark: child processes, spans, statistics.

Every CLI call runs as a child process whose peak RSS comes from the
``os.wait4`` rusage of that one child, under a timeout that kills it.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

CHILD_TIMEOUT_S = 30.0


def child_env() -> dict:
    """The children's environment: this checkout's sources first, and one
    BLAS thread.  randev calls no BLAS routine, but OpenBLAS starts a
    thread per core at import, and their start-up CPU time would be
    counted as the call's (about 0.1 s per child on 2 cores)."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


@dataclass
class ChildResult:
    seconds: float  # wall time
    cpu_seconds: float  # user + system time of the child, from its own rusage
    exit_code: int | None  # None when the child was killed by the timeout
    peak_rss_mb: float
    stdout: str

    @property
    def timed_out(self) -> bool:
        return self.exit_code is None


# The spawner: a small interpreter that starts each child and reaps it
# with wait4.  A forked child's peak RSS (ru_maxrss) counts the RSS of the
# process it was forked from, so children forked from the benchmark, which
# holds inputs and numpy, would report the benchmark's RSS whenever that is
# the larger.  Forked from the spawner instead, they start from its few MiB.
_SPAWNER_CODE = r"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    job = json.loads(line)
    os.sched_setaffinity(0, job["cpus"])  # the children inherit it
    killed = threading.Event()
    with open(job["stdout"], "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(job["argv"], stdout=out, stderr=subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL, env=job["env"], cwd=job["cwd"])

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(job["timeout"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    print(json.dumps({
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "exit_code": None if killed.is_set() else os.waitstatus_to_exitcode(status),
        "maxrss_kib": usage.ru_maxrss,
    }), flush=True)
"""


class Spawner:
    """The spawner process, and the pipe to it.  It ends when its input
    closes: at ``close()``, or when this process ends in any way."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, "-I", "-S", "-c", _SPAWNER_CODE],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, job: dict) -> dict:
        self._proc.stdin.write(json.dumps(job) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the spawner ended with code {self._proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=2 * CHILD_TIMEOUT_S)
        self._proc.stdout.close()


_spawner: Spawner | None = None


def spawner() -> Spawner:
    """The process's one spawner, started on first use and closed at exit."""
    global _spawner
    if _spawner is None:
        _spawner = Spawner()
        atexit.register(_spawner.close)
    return _spawner


def run_child(argv: list, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion through the spawner, timing it.

    The rusage of that one child, from wait4, gives its CPU time and peak
    RSS.  CPU time excludes the time the child waited for a CPU, in this
    machine's run queue or because the host took the virtual CPU away
    (steal).  The child runs on the CPUs this process may use now.

    Stdout goes to a file rather than a pipe, so a child that prints a
    lot cannot block on a full pipe while it is waited for.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"child-{os.getpid()}.out"
    reply = spawner().run({
        "argv": [str(a) for a in argv],
        "env": child_env(),
        "cwd": str(ROOT),
        "timeout": timeout,
        "stdout": str(out_path),
        "cpus": sorted(os.sched_getaffinity(0)),
    })
    text = out_path.read_bytes().decode("utf-8", "replace")
    out_path.unlink()
    # ru_maxrss is in KiB on Linux
    return ChildResult(reply["wall"], reply["cpu"], reply["exit_code"],
                       reply["maxrss_kib"] / 1024.0, text)


def own_peak_rss_mb() -> float:
    """This process's peak RSS since it started its program (VmHWM).

    Unlike ru_maxrss it does not count the RSS of the process this one
    was forked from.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def randev_argv(*args) -> list:
    return [sys.executable, "-m", "randev.cli", *map(str, args)]


# ---- processor speed ----

class Pacer:
    """Times a fixed computation, to tell how fast the processor runs now.

    On a shared host the speed of the processor itself moves with what
    the other tenants run (shared caches, memory bandwidth, clock): the
    CPU time of one fixed call moved by 25% between rounds a few seconds
    apart.  The pacer's work is a small mix of what randev does: a Python
    integer loop, numpy bit operations on a cache-sized array, and an AND
    and a count over 8 MiB.  The large buffers are allocated once, so the
    pacer's time does not depend on the state of the allocator, which the
    program's own calls change.  ``REF_SECONDS`` is its median CPU time on
    a 2-core Xeon VM over a set of benchmark runs, so ``REF_SECONDS /
    sample()`` is the processor's speed now relative to then.
    """

    REF_SECONDS = 0.0053

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.integers(0, 256, 1 << 12, dtype=np.uint8)
        self._bits = rng.integers(0, 2, 1 << 23, dtype=np.uint8)
        self._and = np.zeros(self._bits.size - 1, dtype=np.uint8)

    def sample(self) -> float:
        """CPU seconds of this thread for one pass of the fixed work."""
        c0 = time.thread_time()
        x = 1
        for _ in range(8):
            bits = np.unpackbits(self._small)
            x ^= int(np.count_nonzero(bits[:-1] & bits[1:]))
            for i in range(1000):
                x = (x * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
        np.bitwise_and(self._bits[:-1], self._bits[1:], out=self._and)
        x ^= int(np.count_nonzero(self._and))
        return time.thread_time() - c0


@contextmanager
def one_cpu():
    """Run the block on one CPU of those this process may use.

    The children inherit it, so the pacer and the calls it paces run on
    the same processor.  The previous affinity is restored on leaving.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


# ---- spans ----

@dataclass
class Tracer:
    """Spans kept in memory: (id, parent id, name, start s, end s, work)."""

    enabled: bool
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def span(self, name: str, work: float = 0.0):
        return _Span(self, name, work)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s", "work"],
                       "spans": self.spans, "counts": self.counts}, fh)


class _Span:
    __slots__ = ("tracer", "name", "work", "start", "seconds", "id", "parent")

    def __init__(self, tracer: Tracer, name: str, work: float):
        self.tracer = tracer
        self.name = name
        self.work = work

    def __enter__(self):
        tr = self.tracer
        if tr.enabled:
            self.id = len(tr.spans) + len(tr._stack)
            self.parent = tr._stack[-1].id if tr._stack else -1
            tr._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        if tr.enabled:
            tr._stack.pop()
            tr.spans.append((self.id, self.parent, self.name, self.start, end, self.work))
        self.seconds = end - self.start
        return False


# ---- statistics ----

def tail_quantile(n: int) -> float:
    """Highest quantile, at most 0.99, with at least ten samples beyond it."""
    return max(0.5, min(0.99, 1.0 - 10.0 / n))


def quantile(values: list, q: float) -> float:
    """Linear-interpolated quantile of the sorted values."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


TAIL_BLOCK = 1000


def latency_summary(seconds: list) -> dict:
    """Median and tail of call times, given per operation in call order.

    With at least two blocks of ``TAIL_BLOCK`` calls, the tail is taken in
    each whole block of consecutive calls (a last, partial block is left
    out) and the median over blocks is reported, so a burst of contention
    on the host moves the tail of one block rather than that of the run.
    """
    k = len(seconds) // TAIL_BLOCK
    blocks = ([seconds[i * TAIL_BLOCK:(i + 1) * TAIL_BLOCK] for i in range(k)]
              if k >= 2 else [seconds])
    q = tail_quantile(len(blocks[0]))
    return {
        "p50_ms": 1e3 * statistics.median(seconds),
        "tail_ms": 1e3 * statistics.median(quantile(b, q) for b in blocks),
        "tail_quantile": q,
        "tail_blocks": len(blocks),
        "samples": len(seconds),
    }


# ---- provenance ----

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, if the checkout is itself a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "none: not a git checkout (see source_sha256)"
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "randev").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_info() -> dict:
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "page_cache": "warm: inputs are read once before timing and caches are never dropped",
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))
