"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py [--workload W ...]

Runs every workload once per member index of the parameter families (so
every seeded choice has a reference), checks that jobs shared by several
passes agree, and writes perfbench/refs/<workload>.json.  Run it from the
root of a checkout whose outputs are trusted; the recorded files are part
of the benchmark, so re-recording them is a change to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import compare  # noqa: E402
from jobs import FAMILY_SIZE, WORKLOADS  # noqa: E402


def record(root: Path, workload: str) -> dict:
    refs: dict = {}
    for index in range(FAMILY_SIZE):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "r.json"
            subprocess.run([sys.executable, str(HERE / "worker.py"), "--root", str(root),
                            "--workload", workload, "--family-index", str(index),
                            "--out", str(out)], check=True)
            result = json.loads(out.read_text())
        if result["failures"]:
            raise SystemExit(f"{workload} member {index}: oracle failures {result['failures']}")
        for job_id, digest in result["digests"].items():
            if job_id in refs and compare(refs[job_id], digest):
                raise SystemExit(f"{job_id} differs between passes: "
                                 f"{compare(refs[job_id], digest)[:3]}")
            refs.setdefault(job_id, digest)
        print(f"{workload} member {index}: {len(result['digests'])} jobs", flush=True)
    return refs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    (HERE / "refs").mkdir(exist_ok=True)
    for workload in args.workload or WORKLOADS:
        refs = record(Path.cwd().resolve(), workload)
        path = HERE / "refs" / f"{workload}.json"
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(Path.cwd())}: {len(refs)} references")


if __name__ == "__main__":
    main()
