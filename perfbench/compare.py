"""Compare two commits on one workload with identical benchmark code.

    python3 perfbench/compare.py BASE HEAD [--workload W] [--seed SEED]

BASE and HEAD are git revisions, or "." for the working tree.  Each side's
src/ is exported to .perfbench/compare/<rev>/ and measured by this
checkout's benchmark, each run for run_seconds of BENCHMARK.json.  Pair i
of PAIRS runs both sides with seed SEED+i, and the side that runs first
alternates between pairs.  For each end-to-end metric it prints each side's
median and quartiles over the pairs, the pairs HEAD won (ties count for
neither side), the jobs that failed on each side and a verdict, the first
that applies:

  failed      a HEAD job raised, exited non-zero or failed an output check;
  unresolved  BASE failed a job, so its samples are not comparable;
  better      HEAD won at least 9/10 of the pairs and the medians differ by
              more than BASE's interquartile distance;
  worse       HEAD's median is worse than BASE's by more than the bound, and
              either both spreads are within the bound or every HEAD run
              reads worse than every BASE run;
  unresolved  a side's spread (interquartile distance over median) is wider
              than the bound, and not every HEAD run reads better than every
              BASE run;
  same        none of the above.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

PAIRS = 10

def export(repo: Path, rev: str) -> Path:
    """The tree of `rev` with its src/ (the working tree itself for ".")."""
    if rev == ".":
        return repo
    sha = subprocess.run(["git", "rev-parse", "--short=12", rev], cwd=repo, check=True,
                         capture_output=True, text=True).stdout.strip()
    dest = repo / ".perfbench" / "compare" / sha
    if not (dest / "src" / "multfun" / "__init__.py").is_file():
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        tar = subprocess.run(["git", "archive", "--format=tar", sha, "src"], cwd=repo,
                             check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(dest, filter="data")
    return dest


def verdict(base: list[float], head: list[float], bound: float, lower_better: bool,
            failed_base: int, failed_head: int) -> tuple:
    """(pairs HEAD won, verdict) by the rules of the module docstring."""
    if failed_head:
        return None, "failed"
    if failed_base:
        return None, "unresolved"

    def better(h, b):
        return h < b if lower_better else h > b

    qb, qh = run.quartiles(base), run.quartiles(head)
    wins = sum(better(h, b) for b, h in zip(base, head))
    spread = max((q["q3"] - q["q1"]) / q["median"] for q in (qb, qh))
    worse_by = (qh["median"] - qb["median"]) / qb["median"] * (1 if lower_better else -1)
    if (wins >= 0.9 * len(base) and better(qh["median"], qb["median"])
            and abs(qh["median"] - qb["median"]) > qb["q3"] - qb["q1"]):
        return wins, "better"
    if worse_by > bound and (spread <= bound or all(better(b, h) for h in head for b in base)):
        return wins, "worse"
    if spread > bound and not all(better(h, b) for h in head for b in base):
        return wins, "unresolved"
    return wins, "same"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args()
    repo = Path.cwd().resolve()
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    sides = {"base": export(repo, args.base), "head": export(repo, args.head)}
    rows = []
    for workload in args.workload or run.WORKLOADS:
        values = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in sides}
        failed = {side: 0 for side in sides}
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                rec = run.measure(sides[side], workload, args.seed + i, spec["run_seconds"], False)
                failed[side] += rec["failed"]
                for name, samples in rec["samples"].items():
                    if samples:     # empty only when every pass of the run failed
                        values[side][name].append(statistics.median(samples))
            print(f"{workload} pair {i + 1}/{PAIRS} done", file=sys.stderr, flush=True)
        for m in spec["end_to_end"]:
            b, h = values["base"][m["name"]], values["head"][m["name"]]
            wins, v = verdict(b, h, m["bound"], m["better"] == "lower",
                              failed["base"], failed["head"])
            rows.append((workload, m["name"], b, h, wins, v, failed))
    print(f"{'workload':<13} {'metric':<12} {'base median [q1, q3]':<30} "
          f"{'head median [q1, q3]':<30} {'head won':<9} {'failed jobs':<12} verdict")
    for workload, name, b, h, wins, v, failed in rows:
        fmt = "{median:.4f} [{q1:.4f}, {q3:.4f}]"
        qb, qh = (fmt.format(**run.quartiles(x)) if x else "-" for x in (b, h))
        won = f"{wins}/{PAIRS}" if wins is not None else "-"
        print(f"{workload:<13} {name:<12} {qb:<30} {qh:<30} {won:<9} "
              f"{failed['base']}/{failed['head']:<10} {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
