"""Self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced, checks that each reports every
metric BENCHMARK.json names with its unit, and shows that a wrong digest,
a corrupted input and a hung child are each counted as a failure rather
than passing or aborting the run.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys

import run
import harness
import layers
import workloads
from harness import Tracer
from workloads import Sizes

TINY = Sizes.tiny()
TINY_LAYERS = layers.LayerSizes.tiny()
SEED = 3


def check_metric_names() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = run.run_one(workload, SEED, 0.01, trace, TINY, TINY_LAYERS)
            assert record["failed"] == 0, record["failures"]
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in record["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {got} != {want}"
            for name, m in record["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            line = json.loads(run._result_line(record))
            assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
            assert line["correct"] and line["attempted"] >= 1
            print(f"ok   {workload} trace={int(trace)}: {len(got)} metrics, "
                  f"{record['attempted']} checks")


def check_digests() -> None:
    from randev import generate

    assert run.load_golden(run.DEFAULT_SEED, Sizes()) is not None
    assert run.load_golden(run.DEFAULT_SEED + 1, Sizes()) is None
    right = {name: hashlib.sha256(generate(cfg, n).data).hexdigest()
             for name, _, cfg, n in workloads.simulate_configs(SEED, TINY)}
    out = workloads.simulate(SEED, 0.01, Tracer(False), TINY, right)
    assert out.failed == 0, out.failures
    wrong = dict(right, markov_flip="0" * 64)
    out = workloads.simulate(SEED, 0.01, Tracer(False), TINY, wrong)
    assert out.failed == 1 and "markov_flip" in out.failures[0], out.failures
    print("ok   a wrong golden digest is counted as one failed operation")


def check_corrupt_input() -> None:
    def corrupt(paths):
        path = paths["fair"]
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))

    out = workloads.analyze_workload(SEED, 0.01, Tracer(False), TINY, corrupt=corrupt)
    # the file is analyzed twice a round: whole and with --nbits odd
    assert out.failed == 2, out.failures
    assert all(f.startswith("analyze fair") for f in out.failures), out.failures
    print("ok   a corrupted input file fails each of the two analyze calls that read it")


def check_timeout() -> None:
    res = harness.run_child([sys.executable, "-c", "import time; time.sleep(30)"], timeout=0.5)
    assert res.timed_out and res.seconds < 10, res
    out = workloads.Outcome()
    out.check("hung child", out.child("hung child", res))
    assert out.failed == 1
    print("ok   a child that hangs is killed and counted as a failed operation")


def check_refuses_without_sources() -> None:
    bare = harness.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok   without the randev sources the benchmark exits non-zero, printing no result")


def main() -> int:
    run.import_randev()
    check_metric_names()
    check_digests()
    check_corrupt_input()
    check_timeout()
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
