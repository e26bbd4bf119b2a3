"""The multfun benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload W [--seed S] [--trace 0|1]

Run from the root of a checkout; the program is the checkout's src/.
Workloads: sieve_1e7, analysis_1e6, cli_readme, or all three in turn
(see BENCHMARK.json and perfbench/README.md for what each one runs and why).

A run measures for run_seconds of BENCHMARK.json.  `--seconds` is
accepted because the benchmark's caller passes it, but it must equal
run_seconds: run length is fixed by the benchmark, the same on every commit.

--trace 0 runs passes of the workload, each in a fresh worker process.
Before each pass it spawns SETUP_SPAWNS_PER_PASS fresh interpreters, each
timed from spawn until `import multfun` returns; setup_s is their median
over the run.  Runs have at least MIN_PASSES passes and stop at the pass
count whose end comes closest to run_seconds.  wall_s and peak_rss_mb are
medians over the passes.

--trace 1 runs one untraced pass, one traced pass and one memory-traced
pass (tracemalloc on inside the spans whose peak is reported).  It reports
the per-layer metrics: times and counts of the traced pass, peaks of the
memory-traced one, and trace.overhead_frac, the traced wall time over the
untraced one, minus one.

Every pass checks every output.  The full record, with the samples, the
seconds of each job in each pass, the failures and the machine record,
goes to .perfbench/results/; the last line on stdout is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import machine  # noqa: E402
from jobs import WORKLOADS  # noqa: E402

SETUP_SPAWNS_PER_PASS = 6
MIN_PASSES = 2
RUN_DEADLINE_S = 170        # a run must end within 180 s, a hung program too


class BenchError(Exception):
    """The benchmark cannot run here (no program, no BENCHMARK.json)."""


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def setup_samples(root: Path, n: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until `import multfun`
    returns, n times."""
    code = "import time, multfun, sys; sys.stdout.write(repr(time.monotonic()))"
    out = []
    for _ in range(n):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], cwd=root, env=_env(root),
                              capture_output=True, text=True, check=True, timeout=60)
        out.append(float(done.stdout) - t0)
    return out


def run_pass(root: Path, workload: str, seed: int, deadline: float,
             trace: str | None = None) -> dict:
    """One pass in a fresh worker, killed at `deadline` (time.monotonic());
    returns the worker's result, with its spans when trace is "time" or
    "memory"."""
    scratch = root / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        out, spans = Path(tmp) / "result.json", Path(tmp) / "spans.json"
        argv = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
                "--workload", workload, "--seed", str(seed), "--out", str(out)]
        if trace:
            argv += ["--trace", str(spans)] + (["--memory"] if trace == "memory" else [])
        # a session of its own, so a timeout also ends the worker's CLI children
        proc = subprocess.Popen(argv, cwd=root, env=_env(root), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
            err = f"killed at the run's {RUN_DEADLINE_S} s deadline"
        if proc.returncode != 0 or not out.exists():
            return {"wall_s": None, "peak_rss_mb": None, "attempted": 1, "failed": 1,
                    "failures": [f"worker exited {proc.returncode}: {err[-2000:]}"]}
        result = json.loads(out.read_text())
        if trace:
            result["spans"] = json.loads(spans.read_text())
    return result


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All samples of one run.  Raises BenchError when there is no program."""
    if not (root / "src" / "multfun" / "__init__.py").is_file():
        raise BenchError(f"no multfun sources under {root / 'src'}")
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine.record()}
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    setup_samples(root, 1)     # may compile bytecode; not counted
    setup: list[float] = []
    passes = []
    while True:
        if not trace:
            setup += setup_samples(root, SETUP_SPAWNS_PER_PASS)
        passes.append(run_pass(root, workload, seed, deadline))
        elapsed = time.monotonic() - start
        if (trace or time.monotonic() >= deadline
                or (len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) / 2 >= seconds)):
            break
    if trace:
        passes.append(run_pass(root, workload, seed, deadline, "time"))
        passes.append(run_pass(root, workload, seed, deadline, "memory"))
    record["machine"]["mem_cap_mb"] = next((p["mem_cap_mb"] for p in passes if "mem_cap_mb" in p),
                                           None)
    record["attempted"] = sum(p["attempted"] for p in passes)
    record["failures"] = [f for p in passes for f in p["failures"]]
    record["failed"] = sum(p["failed"] for p in passes)
    untraced = [p for p in passes if "spans" not in p and p["wall_s"] is not None]
    record["samples"] = {
        "setup_s": setup,
        "wall_s": [p["wall_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
    }
    record["job_s"] = [p["job_s"] for p in untraced]
    record["fail_rate"] = record["failed"] / record["attempted"]
    record["run_s"] = time.monotonic() - start
    if trace and all("spans" in p for p in passes[-2:]):
        import tracer

        timed, mem = passes[-2:]
        record["per_layer"] = tracer.layer_metrics(timed["spans"], mem["spans"],
                                                   timed["wall_s"], untraced[0]["wall_s"])
    return record


def summary(record: dict, spec: dict) -> dict:
    """The summary printed last: the metrics BENCHMARK.json names, with units."""
    key = "per_layer" if record["trace"] else "end_to_end"
    values = record.get("per_layer") or {
        name: statistics.median(v) for name, v in record["samples"].items() if v}
    metrics = {}
    for m in spec[key]:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_report(record: dict, line: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}")
    for name, vals in record["samples"].items():
        if vals:
            q = quartiles(vals)
            print(f"  {name:<14} median {q['median']:.4f}  q1 {q['q1']:.4f}  "
                  f"q3 {q['q3']:.4f}  n {q['n']}")
    if record["trace"]:
        for name, m in line["metrics"].items():
            print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(f"  fail_rate {record['fail_rate']:.4f} ({record['failed']}/{record['attempted']})")
    for f in record["failures"]:
        print(f"  FAILED {f}")


def run_one(root: Path, spec: dict, workload: str, args) -> dict:
    record = measure(root, workload, args.seed, spec["run_seconds"], bool(args.trace))
    line = summary(record, spec)
    record["summary"] = line
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    print_report(record, line)
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="must equal run_seconds of BENCHMARK.json, which fixes run length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        if args.seconds is not None and args.seconds != spec["run_seconds"]:
            raise BenchError(f"--seconds {args.seconds:g} differs from run_seconds "
                             f"{spec['run_seconds']} of BENCHMARK.json")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        lines = {w: run_one(root, spec, w, args) for w in workloads}
    except (BenchError, OSError, KeyError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(lines[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {f"{w}.{name}": m for w, line in lines.items()
                    for name, m in line["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
