"""One pass of one workload in a fresh process.

    python3 worker.py --root DIR --workload W --seed S --out RESULT.json
                      [--trace SPANS.json [--memory]] [--family-index I]

Imports multfun from DIR/src, runs the workload's job list one job after
another (a closed loop with one client), checks every output and writes a
JSON result: wall_s (sum of the timed program calls), peak_rss_mb, the
attempted and failed counts, the failure messages and the digest of every
job.  The cli_readme commands run in a cli/ directory beside RESULT.json.
Checks run outside the timed calls and with tracing paused.  With --trace
the multfun layers are wrapped first and the spans are written to
SPANS.json; --memory adds the tracemalloc peaks.  --family-index I takes
member I of every parameter family instead of the seeded choice (used when
recording references)."""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import jobs
from checks import compare

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"


def load_multfun(root: Path):
    sys.path.insert(0, str(root / "src"))
    from multfun import arith, characters, cli, ergodic, levelsets, mf_core, pretentious, seminorms
    return SimpleNamespace(arith=arith, characters=characters, cli=cli,
                           ergodic=ergodic, levelsets=levelsets, mf_core=mf_core,
                           pretentious=pretentious, seminorms=seminorms)


def _short(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Outcome:
    """Attempted/failed bookkeeping with the failure messages and digests."""

    def __init__(self, refs: dict | None):
        self.refs = refs
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict = {}
        self.seconds: dict = {}         # job id -> wall seconds of its timed call

    def record(self, job_id: str, errors: list[str], digest=None):
        self.attempted += 1
        if digest is not None:
            self.digests[job_id] = digest
            if self.refs is not None:
                if job_id not in self.refs:
                    errors = errors + ["no recorded reference"]
                else:
                    errors = errors + compare(self.refs[job_id], digest)
        if errors:
            self.failures.append(f"{job_id}: " + "; ".join(errors[:5]))


def run_in_process(M, workload, p, rng, tracer, outcome) -> float:
    wall = 0.0
    state: dict = {}
    for job in jobs.in_process_jobs(M, workload, p, rng):
        t0 = time.perf_counter()
        try:
            out = job.run(state)
        except Exception as exc:  # a failed job is counted, the pass goes on
            wall += time.perf_counter() - t0
            outcome.record(job.id, [_short(exc)])
            continue
        dt = time.perf_counter() - t0
        wall += dt
        outcome.seconds[job.id] = dt
        if tracer:
            tracer.enabled = False
        try:
            digest = json.loads(json.dumps(job.digest(out)))
            errors = job.oracle(out) if job.oracle else []
        except Exception as exc:
            digest, errors = None, [f"check raised {_short(exc)}"]
        if tracer:
            tracer.enabled = True
        outcome.record(job.id, errors, digest)
        if job.keep:
            state[job.id] = out
        del out
    return wall


def _spawn(argv, cwd, env):
    """Run a command to completion; returns (wall seconds, exit code, maxrss
    KiB, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss, err.decode(errors="replace")


def run_cli(M, root, workdir, p, rng, trace_path, memory, outcome) -> tuple[float, float]:
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    launcher = [sys.executable, str(HERE / "launch.py")]
    wall = 0.0
    peak_kib = 0
    span_files = []
    commands = jobs.cli_commands(p)
    try:
        for i, (name, argv) in enumerate(commands):
            job_id = jobs.cli_job_id(name, argv)
            out = f"{name}.json"
            pre = []
            if trace_path:
                span_files.append(workdir / f"spans-{i}.json")
                pre = ["--trace", str(span_files[-1]), "--run-id", f"{i}-{name}"]
                pre += ["--memory"] if memory else []
            dt, code, kib, err = _spawn(launcher + pre + ["--"] + argv + ["--out", out],
                                        workdir, env)
            wall += dt
            outcome.seconds[job_id] = dt
            peak_kib = max(peak_kib, kib)
            if code != 0:
                outcome.record(job_id, [f"exit code {code}: {err.strip()[-300:]}"])
                continue
            try:
                report = json.loads((workdir / out).read_text())
                digest = {"command": report["command"], "result": report["result"]}
                errors = jobs.cli_file_checks(M, name, report["result"], workdir, rng)
            except Exception as exc:
                digest, errors = None, [f"check raised {_short(exc)}"]
            outcome.record(job_id, errors, digest)
        # determinism contract: a rerun with the same config writes the same bytes
        rerun = rng.choice(jobs.RERUN_CANDIDATES)
        name, argv = next(c for c in commands if c[0] == rerun)
        report = workdir / f"{name}.json"
        first = report.read_bytes() if report.exists() else None
        _, code, _, _ = _spawn(launcher + ["--"] + argv + ["--out", report.name], workdir, env)
        same = code == 0 and first is not None and report.read_bytes() == first
        outcome.record(f"rerun {name} is byte-identical",
                       [] if same else [f"exit {code}, report bytes differ"])
        if trace_path:
            runs = [json.loads(f.read_text()) for f in span_files if f.exists()]
            Path(trace_path).write_text(json.dumps(runs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return wall, peak_kib / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--memory", action="store_true")
    ap.add_argument("--family-index", type=int, default=None)
    args = ap.parse_args(argv)
    M = load_multfun(args.root.resolve())
    p = jobs.picks(args.seed, args.family_index)
    rng = jobs.oracle_rng(args.seed)
    ref_file = REFS / f"{args.workload}.json"
    refs = json.loads(ref_file.read_text()) if args.family_index is None else None
    outcome = Outcome(refs)
    if args.workload == "cli_readme":
        wall, peak_mb = run_cli(M, args.root.resolve(), args.out.parent / "cli", p, rng,
                                args.trace, args.memory, outcome)
    else:
        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer(f"{args.workload}-{args.seed}", memory=args.memory)
            tracing.install(tracer)
        wall = run_in_process(M, args.workload, p, rng, tracer, outcome)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            Path(args.trace).write_text(json.dumps([tracer.as_run()]))
    args.out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "picks": p,
        "wall_s": wall, "peak_rss_mb": peak_mb, "mem_cap_mb": M.arith.mem_cap_bytes() >> 20,
        "attempted": outcome.attempted, "failed": len(outcome.failures),
        "failures": outcome.failures, "job_s": outcome.seconds, "digests": outcome.digests,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
