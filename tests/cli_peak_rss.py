"""Peak memory of ``randev generate``, ``randev analyze --json`` and
``randev monitor`` against stream length.

    PYTHONPATH=src python tests/cli_peak_rss.py 100000000 1000000000

For each length, generates that many ideal bits to a temporary file, then
analyzes and monitors the file, each in a child process, and prints the
child's peak resident set size (``ru_maxrss`` from ``os.wait4``) and CPU
time.  ``monitor`` runs with its default windows, with windows of 1024
bits, thousands to a read, and with windows of 2**30 bits, longer than a
10**9-bit stream, so one window spans the whole file.  Exits 1 if a
child's peak at any length is more than TOLERANCE_MIB away from the same
command's peak at the first length, where every ``monitor`` run is
checked against the default-window one: the peak does not grow with the
window, nor with the number of windows, either.

First it runs a bare ``import numpy``.  Then it generates KIND_BITS bits
of each source kind whose chunks keep other buffers than ideal's
(bernoulli, markov with a1 < 0, dead time in both modes, xorshift64) and
exits 1 if one of them peaks more than KIND_TOLERANCE_MIB above ideal at
that length.  Then it runs ``randev --help``, ``randev predict`` and a
raw ``randev concat`` of the ideal and xorshift64 files, which load no
numpy, and exits 1 unless each of the three commands peaks below the
bare import, so a stray numpy import on their path fails.

A child's ``ru_maxrss`` also counts the process it was forked from, so
this script forks the children itself and imports nothing large: run it
as its own process, not inside a test runner.
"""

import json
import os
import sys
import tempfile

TOLERANCE_MIB = 4.0

KIND_BITS = 2_000_000
KIND_TOLERANCE_MIB = 1.0
# generate flags of each kind; ideal, first, is the one the others are held to
KINDS = {
    "ideal": ["--source", "ideal"],
    "bernoulli": ["--source", "bernoulli", "--p", "0.3"],
    "markov a1<0": ["--source", "markov", "--bias", "0.02", "--a1", "-0.1"],
    "deadtime reroute": ["--source", "deadtime", "--tau", "1000", "--dead-time", "25",
                         "--dead-mode", "reroute"],
    "deadtime loss": ["--source", "deadtime", "--tau", "1000", "--dead-time", "25",
                      "--dead-mode", "loss"],
    "xorshift64": ["--source", "xorshift64"],
}


def child(argv: list, ok_codes=(0,), python=("-m", "randev.cli")) -> dict:
    """Run ``randev`` with argv (or the interpreter with ``python`` and
    argv) in a forked child; its peak RSS and CPU time.  An exit code
    outside ``ok_codes`` (a monitor alarm is 2) fails the run."""
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.execv(sys.executable, [sys.executable, *python, *argv])
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) not in ok_codes:
        sys.exit(f"{' '.join([*python, *argv])} failed with status {status}")
    return {"peak_mib": usage.ru_maxrss / 1024,  # KiB on Linux
            "cpu_s": usage.ru_utime + usage.ru_stime}


def main(lengths: list) -> int:
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.normpath(src), os.environ.get("PYTHONPATH")) if p)
    row = {"command": "import numpy", "nbits": None, **child(["import numpy"], python=("-c",))}
    numpy_peak = row["peak_mib"]
    print(json.dumps({**row, "ok": True}))
    first, failed = {}, False
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ideal.bits")
        ideal_peak, kind_paths = None, []
        for kind, flags in KINDS.items():
            kind_paths.append(os.path.join(tmp, f"kind{len(kind_paths)}.bits"))
            row = {"command": f"generate {kind}", "nbits": KIND_BITS,
                   **child(["generate", *flags, "--seed", "1", "--nbits", str(KIND_BITS),
                            "--out", kind_paths[-1]])}
            ideal_peak = ideal_peak or row["peak_mib"]
            row["ok"] = row["peak_mib"] - ideal_peak <= KIND_TOLERANCE_MIB
            failed |= not row["ok"]
            print(json.dumps(row))
        for command, argv in (("--help", ["--help"]),
                              ("predict", ["predict", "--source", "deadtime", "--tau", "1",
                                           "--dead-time", "0.5"]),
                              ("concat", ["concat", kind_paths[0], kind_paths[-1],
                                          "--out", os.path.join(tmp, "joined.bits")])):
            row = {"command": command, "nbits": None, **child(argv)}
            row["ok"] = row["peak_mib"] < numpy_peak
            failed |= not row["ok"]
            print(json.dumps(row))
        for nbits in lengths:
            for command, argv in (
                ("generate", ["generate", "--source", "ideal", "--seed", "1",
                              "--nbits", str(nbits), "--out", path]),
                ("analyze", ["analyze", path, "--json"]),
                ("monitor", ["monitor", path]),
                ("monitor --window-bits 1024", ["monitor", path, "--window-bits", "1024"]),
                ("monitor --window-bits 2**30",
                 ["monitor", path, "--window-bits", str(1 << 30)]),
            ):
                ok_codes = (0, 2) if argv[0] == "monitor" else (0,)
                row = {"command": command, "nbits": nbits, **child(argv, ok_codes)}
                base = first.setdefault(argv[0], row["peak_mib"])
                row["ok"] = abs(row["peak_mib"] - base) <= TOLERANCE_MIB
                failed |= not row["ok"]
                print(json.dumps(row))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main([int(float(a)) for a in sys.argv[1:]]))
