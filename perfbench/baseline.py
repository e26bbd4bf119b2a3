"""Single-call timings of the rows of ROADMAP.md's measured-baseline table.

    python3 perfbench/baseline.py

Each row runs in a fresh process (cold module caches, as in the table);
the timed region is the one call named in the row, after `import multfun`.
Rows on a statistic first build the SieveContext untimed.  The sieve_range
rows also report the resident-set growth of the call per table entry.
Prints a Markdown table: ROADMAP's figure, the median of REPEATS runs, their
range, and the difference.  The ROADMAP rows that take 20-130 s (U^3 at
N = 2048 and 4096, the ap_mean sweep at 10^7) are not rerun here.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# row -> (ROADMAP figure in seconds, label)
ROWS = {
    "context": (0.30, "`SieveContext(10^7)`: spf + primes"),
    "big_omega": (1.77, "`big_omega` at 10^7"),
    "small_omega": (1.63, "`small_omega` at 10^7"),
    "tau": (1.87, "`tau` at 10^7"),
    "radical": (1.91, "`radical` at 10^7"),
    "sieve_liouville": (2.6, "`sieve_range(liouville, 10^7)`"),
    "sieve_phi_over_n": (4.0, "`sieve_range(phi_over_n, 10^7)`"),
    "sieve_mu_squared": (0.48, "`sieve_range(mu_squared, 10^7)`"),
    "u3_1024": (6.5, "`gowers_fast(s=3)` at N = 1024"),
    "structure": (4.8, "`structure_pair(moebius, 1, 10^6)`"),
    "aperiodicity": (3.0, "`aperiodicity_test(liouville, Q_max=30, P=10^6)`"),
}
N = 10 ** 7
REPEATS = 3


def _rss_bytes() -> int:
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE")


def run_row(row: str) -> dict:
    from multfun import arith, levelsets, mf_core, pretentious, seminorms

    if row in ("big_omega", "small_omega", "tau", "radical"):
        ctx = arith.get_context(N)
        t0 = time.perf_counter()
        getattr(ctx, row)
        return {"s": time.perf_counter() - t0}
    if row.startswith("sieve_"):
        f = mf_core.builtin(row[len("sieve_"):])
        before = _rss_bytes()
        t0 = time.perf_counter()
        mf_core.sieve_range(f, N)
        dt = time.perf_counter() - t0
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        return {"s": dt, "rss_bytes_per_n": (peak - before) / (N + 1)}
    calls = {
        "context": lambda: arith.SieveContext(N),
        "u3_1024": lambda: seminorms.gowers_fast(
            mf_core.sieve_range(mf_core.builtin("liouville"), 1024).values, 1024, 3),
        "structure": lambda: levelsets.structure_pair(mf_core.builtin("moebius"), 1, 10 ** 6),
        "aperiodicity": lambda: pretentious.aperiodicity_test(
            mf_core.builtin("liouville"), Q_max=30, P=10 ** 6),
    }
    t0 = time.perf_counter()
    calls[row]()
    return {"s": time.perf_counter() - t0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--row", choices=ROWS, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.row:
        print(json.dumps(run_row(args.row)))
        return 0
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    print("| row | ROADMAP | now: median [min, max] | difference |")
    print("| --- | --- | --- | --- |")
    rss = []
    for row, (then, label) in ROWS.items():
        samples = []
        for _ in range(REPEATS):
            out = subprocess.run([sys.executable, __file__, "--row", row], env=env,
                                 check=True, capture_output=True, text=True).stdout
            samples.append(json.loads(out))
        secs = [s["s"] for s in samples]
        med = statistics.median(secs)
        print(f"| {label} | {then:.2f} s | {med:.2f} s [{min(secs):.2f}, {max(secs):.2f}] | "
              f"{med - then:+.2f} s ({(med - then) / then:+.0%}) |", flush=True)
        rss += [s["rss_bytes_per_n"] for s in samples if "rss_bytes_per_n" in s]
    print(f"| RSS growth of `sieve_range` at 10^7 | 36-42 B/N | "
          f"{min(rss):.1f}-{max(rss):.1f} B/N | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
