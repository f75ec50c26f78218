"""Benchmark for the zetapoly CLI: closed-loop batch jobs, checked outputs,
end-to-end metrics, and a separate traced run for per-layer metrics.

    python3 bench/run.py --workload report-sweep --seed 1 --seconds 30 --trace 0

Run it inside a zetapoly source checkout; it runs the package from the
checkout's `src/`.  Each job is one `python -m zetapoly.cli ...` in a fresh
child process, as a user pays for it: a cold interpreter, cold caches,
mpmath imported again.  One client runs the jobs as a closed loop: the next
job starts when the previous one has exited.

The seed draws one round of jobs: their order and the parameters picked
from fixed size classes, so a round does the same work whatever the seed.
A run repeats that round while another round still fits in `--seconds`,
and runs it at least once.  Every time is scaled to a reference host
speed by a calibration timed next to each job (see spawner.py), and
throughput and CPU per job take each job's median over the rounds.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics; with `--trace 1` the round runs once untraced and once
under `tracer.py`, and the JSON holds the per-layer metrics.  The lines
before it record the environment, every job and every failure.  NOTES.md
says why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# The weights with dim S_k = 1, the only ones the CLI accepts.
WEIGHTS = (12, 16, 18, 20, 22, 26)
RV_DEGREES = (60, 80, 100)
LFUN_BITS = (128, 256, 384, 512, 256, 384)
HABIRO_LEVELS = (8, 10, 12, 14)

SETUP_SAMPLES = 15
# CPU time of one repetition of spawner.calibration_work on the reference
# host: a 2-vCPU Intel Xeon VM in its fast phases.  Reported times are what
# the jobs would take on a host where calibration takes this long.
CAL_REF_S = 0.0015
# Wall time of a bare `python -c pass` on the reference host.  Interpreter
# start-up (exec, page faults, unmarshalling) drifts with the host unlike the
# calibration computation, so setup time is scaled by a bare interpreter
# start timed right before each import instead.
BARE_START_REF_S = 0.05
RUN_DEADLINE_S = 165  # a run may take 180 s; jobs still running at this point are killed


@dataclass(frozen=True)
class Job:
    command: str
    weight: int | None = None
    d: int | None = None
    bits: int | None = None
    level: int | None = None

    @property
    def key(self) -> str:
        parts = [self.command]
        for prefix, value in (("w", self.weight), ("d", self.d), ("b", self.bits), ("L", self.level)):
            if value is not None:
                parts.append(f"{prefix}{value}")
        return " ".join(parts)

    @property
    def may_fail(self) -> bool:
        """lfun at 512 bits exits 2 at present (its q-expansion is fixed at
        64 terms); it stays in the workload and counts as failed, so the fix
        shows as a fall in the failed share."""
        return self.command == "lfun" and self.bits == 512

    def argv(self, out_dir: Path) -> list:
        if self.command == "report":
            return ["report", "--out-dir", str(out_dir)]
        if self.command in ("rv", "certify"):
            return [self.command, "--weight", str(self.weight), "--d", str(self.d)]
        if self.command == "lfun":
            return ["lfun", "--weight", str(self.weight), "--prec-bits", str(self.bits)]
        return ["habiro", "--level", str(self.level)]


def report_sweep(rng: random.Random) -> list:
    """One report plus certify over the six weights at d drawn from the
    report grid e+1..e+6."""
    jobs = [Job("report")]
    jobs += [Job("certify", weight=k, d=k - 12 + rng.randint(1, 6)) for k in WEIGHTS]
    rng.shuffle(jobs)
    return jobs


def high_order(rng: random.Random) -> list:
    """rv at each large d (weights drawn) and lfun at each weight, the
    precisions dealt out as a permutation of LFUN_BITS."""
    weights = rng.sample(WEIGHTS, len(RV_DEGREES))
    jobs = [Job("rv", weight=k, d=d) for k, d in zip(weights, RV_DEGREES)]
    bits = rng.sample(LFUN_BITS, len(LFUN_BITS))
    jobs += [Job("lfun", weight=k, bits=b) for k, b in zip(WEIGHTS, bits)]
    rng.shuffle(jobs)
    return jobs


def habiro_levels(rng: random.Random) -> list:
    jobs = [Job("habiro", level=level) for level in HABIRO_LEVELS]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"report-sweep": report_sweep, "high-order": high_order, "habiro-levels": habiro_levels}


def child_env() -> dict:
    """Environment for child processes: the package comes from the checkout."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@dataclass
class Outcome:
    job: Job
    exit_code: int
    wall_s: float  # net of the steal time of the job's CPU
    steal_s: float
    cpu_s: float
    speed: float  # CAL_REF_S over the calibration time around the job
    rss_kb: int
    bytes_written: int
    error: str | None  # None when the job exited 0 and passed its check
    stderr_line: str

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.speed


def speed(usage: dict) -> float:
    """Reference over measured calibration time per repetition, from the
    calibrations before, during and after the job: below 1 while the host
    runs slow."""
    return CAL_REF_S * usage["cal_reps"] / usage["cal_s"]


class Runner:
    """Runs jobs one at a time in fresh child processes and checks them.

    Children are forked by spawner.py, a small process, so that each job's
    ru_maxrss is its own; use the runner as a context manager so that the
    spawner is stopped."""

    def __init__(self, work: Path, reference: checks.Reference, deadline: float):
        self.work = work
        self.reference = reference
        self.deadline = deadline
        self.env = child_env()
        self.jobs_started = 0
        self.span_files = []
        self._spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._spawner.stdin.close()
        self._spawner.wait()
        self._spawner.stdout.close()

    def spawn(self, argv: list, cwd: Path, stdout: Path, stderr: Path) -> dict:
        """Run argv to completion; exit code, wall and CPU time, peak RSS."""
        request = {
            "argv": argv, "cwd": str(cwd), "env": self.env, "stdout": str(stdout), "stderr": str(stderr),
            "timeout": max(1.0, self.deadline - time.monotonic()),
        }
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        return json.loads(reply)

    def run(self, job: Job, traced: bool = False) -> Outcome:
        self.jobs_started += 1
        job_dir = self.work / f"job{self.jobs_started}"
        out_dir = job_dir / "out"
        job_dir.mkdir()
        if traced:
            spans = self.work / f"spans{self.jobs_started}.json"
            self.span_files.append(spans)
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"),
                   "--job-id", str(self.jobs_started), "--spans", str(spans), "--"]
        else:
            cmd = [sys.executable, "-m", "zetapoly.cli"]
        usage = self.spawn(cmd + job.argv(out_dir), job_dir, job_dir / "stdout", job_dir / "stderr")
        stdout = (job_dir / "stdout").read_bytes()
        stderr_lines = (job_dir / "stderr").read_text(errors="replace").splitlines()
        written = len(stdout)
        if out_dir.is_dir():
            written += sum(f.stat().st_size for f in out_dir.iterdir())
        error = checks.check(job, usage["exit_code"], stdout, out_dir, self.reference)
        shutil.rmtree(job_dir)
        return Outcome(
            job=job,
            exit_code=usage["exit_code"],
            wall_s=usage["wall_s"] - usage["steal_s"],
            steal_s=usage["steal_s"],
            cpu_s=usage["cpu_s"],
            speed=speed(usage),
            rss_kb=usage["rss_kb"],
            bytes_written=written,
            error=error,
            stderr_line=stderr_lines[0] if stderr_lines else "",
        )

    def python(self, code: str) -> tuple:
        """Run `python -c code` like a job; its wall time net of steal, and
        its stdout."""
        out, err = self.work / "python.out", self.work / "python.err"
        usage = self.spawn([sys.executable, "-c", code], self.work, out, err)
        if usage["exit_code"] != 0:
            raise RuntimeError(f"python -c {code!r} exited {usage['exit_code']}: {err.read_text()}")
        return usage["wall_s"] - usage["steal_s"], out.read_text()

    def past_deadline(self) -> bool:
        return time.monotonic() >= self.deadline


def warm_up(runner: Runner) -> str:
    """Import the package once, writing its bytecode caches, and return the
    mpmath backend the jobs run with."""
    return runner.python("import zetapoly.cli, mpmath.libmp; print(mpmath.libmp.BACKEND)")[1].strip()


def measure_setup(runner: Runner) -> float:
    """Time for a fresh interpreter to import zetapoly.cli and exit, at the
    reference speed: BARE_START_REF_S times the median ratio of that time to
    the time of a bare interpreter started right before it."""
    ratios = []
    for _ in range(SETUP_SAMPLES):
        bare = runner.python("pass")[0]
        ratios.append(runner.python("import zetapoly.cli")[0] / bare)
    return BARE_START_REF_S * statistics.median(ratios)


def closed_loop(runner: Runner, jobs: list, seconds: float) -> list:
    """Run the round `jobs` again and again, one job at a time: at least
    once, and once more whenever another round would still end
    within `seconds`.  Returns the outcomes of each round."""
    rounds = []
    start = time.monotonic()
    while not runner.past_deadline():
        round_start = time.monotonic()
        rounds.append([])
        for job in jobs:
            rounds[-1].append(runner.run(job))
            print_job(rounds[-1][-1])
            if runner.past_deadline():
                break
        now = time.monotonic()
        if now - start + (now - round_start) > seconds:
            break
    return rounds


def print_job(o: Outcome, tag: str = "job") -> None:
    status = "ok" if o.ok else f"FAILED ({o.error})"
    print(f"{tag} {o.job.key:<20} wall {o.wall_s:7.3f} s (+{o.steal_s:.2f} s stolen)  cpu {o.cpu_s:7.3f} s  "
          f"speed {o.speed:5.3f}  rss {o.rss_kb / 1024:5.1f} MB  {status}", flush=True)


def print_failures(outcomes: list) -> None:
    for o in outcomes:
        if not o.ok:
            detail = "" if o.error == f"exit {o.exit_code}" else f", {o.error}"
            print(f"failure {o.job.key}: exit {o.exit_code}{detail}; first stderr line: "
                  f"{o.stderr_line!r}" + (" (known failure, kept on purpose)" if o.job.may_fail else ""))


def end_to_end(rounds: list, setup_s: float) -> dict:
    """Throughput and CPU per successful job of one round, each job at its
    median wall and CPU time over the rounds, at the reference speed."""
    runs = [[r[i] for r in rounds if i < len(r)] for i in range(len(rounds[0]))]
    ok = sum(all(o.ok for o in job_runs) for job_runs in runs)
    wall = sum(statistics.median(o.ref_wall_s for o in job_runs) for job_runs in runs)
    cpu = sum(statistics.median(o.ref_cpu_s for o in job_runs) for job_runs in runs)
    outcomes = [o for r in rounds for o in r]
    return {
        "ok_jobs_per_min": (ok / (wall / 60), "1/min"),
        "cpu_s_per_ok_job": (cpu / max(ok, 1), "s"),
        "ok_frac": (sum(o.ok for o in outcomes) / len(outcomes), "frac"),
        "peak_rss_mb": (max(o.rss_kb for o in outcomes) / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_command_latency(outcomes: list) -> None:
    by_command = {}
    for o in outcomes:
        by_command.setdefault(o.job.command, []).append(o.wall_s)
    for command, walls in sorted(by_command.items()):
        print(f"latency {command}: median {statistics.median(walls):.3f} s, "
              f"max {max(walls):.3f} s over {len(walls)} jobs")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, mpmath_backend: str) -> dict:
    return {
        "python": platform.python_version(),
        "mpmath_backend": mpmath_backend,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
    }


def run_untraced(runner: Runner, jobs: list, seconds: int):
    setup_s = measure_setup(runner)
    print(f"setup_s {setup_s:.4f} s (median of {SETUP_SAMPLES} imports of zetapoly.cli, each over a bare "
          f"interpreter start, times {BARE_START_REF_S} s)")
    rounds = closed_loop(runner, jobs, seconds)
    outcomes = [o for r in rounds for o in r]
    print_failures(outcomes)
    per_command_latency(outcomes)
    failed = sum(not o.ok for o in outcomes)
    print(f"failed_frac {failed / len(outcomes):.6f} frac ({failed} of {len(outcomes)} jobs)")
    wall = sum(o.wall_s for o in outcomes)
    speeds = [o.speed for o in outcomes]
    print(f"average over the run, as measured: {60 * (len(outcomes) - failed) / wall:.3f} ok jobs/min, "
          f"{sum(o.cpu_s for o in outcomes) / max(len(outcomes) - failed, 1):.4f} cpu s per ok job, "
          f"{len(rounds)} rounds of {len(jobs)} jobs in {wall:.1f} s")
    print(f"host speed: median {statistics.median(speeds):.3f}, range {min(speeds):.3f}-{max(speeds):.3f} "
          f"of the reference")
    metrics = end_to_end(rounds, setup_s)
    return outcomes, {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def run_traced(runner: Runner, jobs: list):
    """One round, each job run untraced and then traced, back to back."""
    plain, traced = [], []
    for job in jobs:
        plain.append(runner.run(job))
        traced.append(runner.run(job, traced=True))
        print_job(plain[-1], "job")
        print_job(traced[-1], "traced")
    print_failures(traced)
    values = tracer.summarize(
        runner.span_files,
        [o.speed for o in traced],
        bytes_written=sum(o.bytes_written for o in traced),
        untraced_wall_s=sum(o.ref_wall_s for o in plain),
        traced_wall_s=sum(o.ref_wall_s for o in traced),
    )
    jobs_s = values["trace.jobs_s"]
    for layer in tracer.LAYERS:
        share = values[f"{layer}.busy_s"] / jobs_s if jobs_s else 0.0
        incl = values.get(f"{layer}.incl_s")
        print(f"layer {layer:<12} self {values[f'{layer}.busy_s']:8.3f} s ({share:6.1%})"
              + (f"  inclusive {incl:8.3f} s ({incl / jobs_s if jobs_s else 0.0:6.1%})" if incl is not None else ""))
    units = dict(tracer.PER_LAYER)
    return plain + traced, traced, {n: {"value": v, "unit": units[n]} for n, v in values.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "zetapoly" / "cli.py").is_file():
        print(f"error: no zetapoly sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with Runner(work, checks.Reference(), deadline) as runner:
            env = environment(args.seed, warm_up(runner))
            print("env " + json.dumps(env, sort_keys=True), flush=True)
            jobs = WORKLOADS[args.workload](random.Random(args.seed))
            if args.trace:
                checked, counted, metrics = run_traced(runner, jobs)
            else:
                counted, metrics = run_untraced(runner, jobs, args.seconds)
                checked = counted
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(dict(tally(checked, counted), metrics=metrics)))
    return 0


def tally(checked: list, counted: list) -> dict:
    """`correct` over every job run; `attempted` and `failed` over the jobs
    the metrics describe.  A wrong or missing answer is incorrect; a refusal
    (non-zero exit) of the one known unsupported job class only counts as
    failed."""
    return {
        "correct": all(o.ok or (o.job.may_fail and o.exit_code != 0) for o in checked),
        "attempted": len(counted),
        "failed": sum(not o.ok for o in counted),
    }


if __name__ == "__main__":
    sys.exit(main())
