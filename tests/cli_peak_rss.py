"""Peak memory of ``randev generate`` and ``randev analyze --json`` against
stream length.

    PYTHONPATH=src python tests/cli_peak_rss.py 100000000 1000000000

For each length, generates that many ideal bits to a temporary file and
analyzes the file, each in a child process, and prints the child's peak
resident set size (``ru_maxrss`` from ``os.wait4``) and CPU time.  Exits 1
if a child's peak at any length is more than TOLERANCE_MIB away from the
same command's peak at the first length.

A child's ``ru_maxrss`` also counts the process it was forked from, so
this script forks the children itself and imports nothing large: run it
as its own process, not inside a test runner.
"""

import json
import os
import sys
import tempfile

TOLERANCE_MIB = 4.0


def child(argv: list) -> dict:
    """Run ``randev`` with argv in a forked child; its peak RSS and CPU time."""
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.execv(sys.executable, [sys.executable, "-m", "randev.cli", *argv])
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"randev {' '.join(argv)} failed with status {status}")
    return {"peak_mib": usage.ru_maxrss / 1024,  # KiB on Linux
            "cpu_s": usage.ru_utime + usage.ru_stime}


def main(lengths: list) -> int:
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.normpath(src), os.environ.get("PYTHONPATH")) if p)
    first, failed = {}, False
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ideal.bits")
        for nbits in lengths:
            for command, argv in (
                ("generate", ["generate", "--source", "ideal", "--seed", "1",
                              "--nbits", str(nbits), "--out", path]),
                ("analyze", ["analyze", path, "--json"]),
            ):
                row = {"command": command, "nbits": nbits, **child(argv)}
                base = first.setdefault(command, row["peak_mib"])
                row["ok"] = abs(row["peak_mib"] - base) <= TOLERANCE_MIB
                failed |= not row["ok"]
                print(json.dumps(row))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main([int(float(a)) for a in sys.argv[1:]]))
