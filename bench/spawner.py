"""Start the benchmark's child processes from a small process.

A child's ru_maxrss starts from the resident set of the process that forked
it, so jobs started by the benchmark itself would report the benchmark's
memory as theirs.  This process stays small and forks every job instead.

This process and every job run pinned to one CPU.  The steal time the
hypervisor reports for that CPU (/proc/stat) while a job runs is returned
with its wall time: on a shared virtual machine the host takes the CPU away
for seconds at a time, and that is not the program's cost.

The host's speed also drifts, by half and more within a minute, slowing the
CPU without stealing it.  So this process times a fixed calibration
computation on the job's CPU right before and right after each job, and
every SAMPLE_EVERY_S while it runs, with the job stopped (SIGSTOP) for that
moment; the pauses are not part of the job's wall time.  It returns the
calibration's CPU time per repetition, and `run.py` scales the job's times
by it.  The calibration uses the standard library only, so no change to
zetapoly moves it.

It reads one JSON request per line on stdin,
    {"argv": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path, "timeout": s}
runs it to completion (killing it at the timeout), and answers with one line,
    {"exit_code": n, "wall_s": s, "steal_s": s, "cpu_s": s, "rss_kb": n,
     "cal_s": s, "cal_reps": n}.
It exits when stdin closes.
"""

import json
import os
import select
import signal
import sys
import time
from fractions import Fraction

JOB_CPU = max(os.sched_getaffinity(0))
TICK_S = 1 / os.sysconf("SC_CLK_TCK")
EDGE_REPS = 24  # calibration before and after a job, about 40 ms on a 2-vCPU Xeon
SAMPLE_REPS = 4  # calibration while a job is stopped, about 7 ms
SAMPLE_EVERY_S = 0.1


def calibration_work() -> int:
    """Exact rational sums, a product of two polynomials with large integer
    coefficients, and dictionary work: the kinds of work the jobs do."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i * i + 1, 2 * i + 3) * (-1) ** i
    a = [3 ** 40 + i * 7919 for i in range(40)]
    b = [5 ** 30 - i * 104729 for i in range(40)]
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    counts = {}
    for i in range(3000):
        key = str(i % 211)
        counts[key] = counts.get(key, 0) + i
    return acc.numerator % 7 + c[len(c) // 2] % 7 + len(counts)


def calibrate(reps: int) -> float:
    """CPU time of `reps` repetitions of calibration_work."""
    start = time.process_time()
    for _ in range(reps):
        calibration_work()
    return time.process_time() - start


def steal_s(cpu: int) -> float:
    """Steal time of one CPU so far, 0 where /proc/stat does not report it."""
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                fields = line.split()
                if fields[0] == f"cpu{cpu}" and len(fields) > 8:
                    return int(fields[8]) * TICK_S
    except OSError:
        pass
    return 0.0


def stopped(pid: int) -> bool:
    """Stop the running job; False if it exited first.  The child stays
    waitable either way."""
    os.kill(pid, signal.SIGSTOP)
    info = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
    return info.si_code == os.CLD_STOPPED


def run(req: dict, cal_before: float) -> dict:
    out = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    null = os.open(os.devnull, os.O_RDONLY)
    cal_s, cal_reps = cal_before, EDGE_REPS
    paused = 0.0  # wall time the job spent stopped for calibration
    stolen = steal_s(JOB_CPU)
    start = time.perf_counter()
    deadline = start + req["timeout"]
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(req["cwd"])
            os.dup2(null, 0)
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.execve(req["argv"][0], req["argv"], req["env"])
        finally:
            os._exit(127)
    for fd in (out, err, null):
        os.close(fd)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        while not poller.poll(int(SAMPLE_EVERY_S * 1000)):
            if time.perf_counter() >= deadline:
                os.kill(pid, signal.SIGKILL)
                break
            if not stopped(pid):
                break
            pause_start = time.perf_counter()
            pause_steal = steal_s(JOB_CPU)
            cal_s += calibrate(SAMPLE_REPS)
            cal_reps += SAMPLE_REPS
            stolen += steal_s(JOB_CPU) - pause_steal
            os.kill(pid, signal.SIGCONT)
            paused += time.perf_counter() - pause_start
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # never leave the job running, or stopped
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start - paused
    return {
        "exit_code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "steal_s": max(0.0, min(wall, steal_s(JOB_CPU) - stolen)),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "cal_s": cal_s,
        "cal_reps": cal_reps,
    }


def main() -> None:
    os.sched_setaffinity(0, {JOB_CPU})
    cal = calibrate(EDGE_REPS)
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request, cal)
        cal = calibrate(EDGE_REPS)  # after this job, and before the next
        reply["cal_s"] += cal
        reply["cal_reps"] += EDGE_REPS
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
