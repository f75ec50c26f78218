"""Regenerate the committed reference outputs in bench/reference/.

    python3 bench/make_reference.py

Runs every rv and certify job any workload or the benchmark's tests can
draw, plus one report, checks each with the independent checks (everything
but the byte comparison), and writes the sha256 digests of the rv/certify
JSON and the report's summary.csv.  Only rerun it when a change to the CLI
output is intended, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import checks
import run

TEST_JOBS = (run.Job("rv", weight=16, d=6),)


def reference_jobs() -> list:
    jobs = [run.Job("certify", weight=k, d=k - 12 + delta) for k in run.WEIGHTS for delta in range(1, 7)]
    jobs += [run.Job("rv", weight=k, d=d) for k in run.WEIGHTS for d in run.RV_DEGREES]
    return jobs + list(TEST_JOBS)


def main() -> int:
    work = run.ROOT / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = run.child_env()
    digests = {}
    try:
        for job in reference_jobs():
            job_dir = work / "keep"
            job_dir.mkdir()
            argv = [sys.executable, "-m", "zetapoly.cli", *job.argv(job_dir)]
            proc = subprocess.run(argv, env=env, cwd=job_dir, capture_output=True, check=False)
            problem = checks.check(job, proc.returncode, proc.stdout, job_dir, None)
            if problem is not None:
                print(f"error: {job.key}: {problem}", file=sys.stderr)
                return 1
            digests[job.key] = checks.digest(proc.stdout)
            shutil.rmtree(job_dir)
            print(f"{job.key}: {digests[job.key]}", flush=True)
        report_dir = work / "report"
        argv = [sys.executable, "-m", "zetapoly.cli", *run.Job("report").argv(report_dir)]
        proc = subprocess.run(argv, env=env, cwd=work, check=False)
        problem = checks.check(run.Job("report"), proc.returncode, b"", report_dir, None)
        if problem is not None:
            print(f"error: report: {problem}", file=sys.stderr)
            return 1
        checks.REFERENCE_DIR.mkdir(exist_ok=True)
        shutil.copyfile(report_dir / "summary.csv", checks.REFERENCE_DIR / "summary.csv")
        (checks.REFERENCE_DIR / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
