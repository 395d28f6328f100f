#!/usr/bin/env python3
"""Peak memory of the trace commands, against `stat` on the same trace.

    python3 tools/trace_rss_check.py BUILD_DIR

Simulates examples/models/pipeline_nocache.pn to t=100000 (seed 3) with
BUILD_DIR/pnut, writing a ~122k-line trace to a temporary directory, then
runs `stat`, `query` and `render` on that trace. Each child's peak resident
set comes from os.wait4's rusage (ru_maxrss, KiB on Linux). The script
prints the three peaks and exits 1 if `query` or `render` peaks above
MAX_RATIO times `stat`: `stat` streams the trace once, so the ratio is
what the per-state storage of the trace state space costs.
"""
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODEL = os.path.join(ROOT, "examples", "models", "pipeline_nocache.pn")
MAX_RATIO = 2.25


def peak_kib(argv):
    """Run argv with stdout discarded; return its ru_maxrss in KiB."""
    with open(os.devnull, "wb") as devnull:
        proc = subprocess.Popen(argv, stdout=devnull)
        _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"trace_rss_check: {' '.join(argv)} exited with status {status}")
    return usage.ru_maxrss


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: trace_rss_check.py BUILD_DIR")
    pnut = os.path.join(os.path.abspath(sys.argv[1]), "pnut")
    with tempfile.TemporaryDirectory(prefix="pnut-rss-") as tmp:
        trace = os.path.join(tmp, "pipeline_nocache.trace")
        peak_kib([pnut, "simulate", MODEL, "--until", "100000", "--seed", "3",
                  "--trace", trace])
        peaks = {
            "stat": peak_kib([pnut, "stat", trace]),
            "query": peak_kib([pnut, "query", trace,
                               "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]"]),
            "render": peak_kib([pnut, "render", trace, "--signals", "Bus_busy"]),
        }
    failed = False
    for name, kib in peaks.items():
        ratio = kib / peaks["stat"]
        over = name != "stat" and ratio > MAX_RATIO
        failed |= over
        print(f"{name:7s} peak {kib / 1024:6.1f} MiB  {ratio:.2f}x stat"
              + ("  (over the %.2fx bound)" % MAX_RATIO if over else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
