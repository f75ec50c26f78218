"""Tests of the benchmark itself: tiny jobs through the real runner, the
calibration sampled while a job runs, the checker rejecting corrupted
output, failed jobs being counted, the tracer's counts repeating, and the
benchmark refusing to run without the sources.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import checks
import make_reference
import run
import spawner
import tracer

TINY_JOBS = (run.Job("habiro", level=3), run.Job("rv", weight=16, d=6), run.Job("lfun", weight=12, bits=64))
EXACT_COUNTS = (
    "exactcore.mul.calls", "exactcore.mul.coeff_ops", "exactcore.divmod.calls",
    "exactcore.divmod.coeff_ops", "exactcore.max_degree", "exactcore.max_coeff_bits",
)


@pytest.fixture
def runner(tmp_path):
    with run.Runner(tmp_path, checks.Reference(), time.monotonic() + 170) as r:
        yield r


def cli_output(job: run.Job, out_dir) -> bytes:
    argv = [sys.executable, "-m", "zetapoly.cli", *job.argv(out_dir)]
    return subprocess.run(argv, env=run.child_env(), capture_output=True, check=True, timeout=120).stdout


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    cli_output(run.Job("report"), out)
    return out


def test_tiny_jobs_pass(runner):
    outcomes = [runner.run(job) for job in TINY_JOBS]
    assert [o.error for o in outcomes] == [None] * len(TINY_JOBS)
    assert all(o.cpu_s > 0 and o.rss_kb > 0 and o.bytes_written > 0 for o in outcomes)


def test_report_passes_and_corrupted_root_fails(report_dir):
    job = run.Job("report")
    assert checks.check(job, 0, b"", report_dir, checks.Reference()) is None
    roots_file = report_dir / "roots_w26_d20.json"
    payload = json.loads(roots_file.read_text())
    payload["roots"][0]["re"] += 1e-3
    roots_file.write_text(json.dumps(payload))
    assert "off Re x" in checks.check(job, 0, b"", report_dir, None)


def test_corrupted_coefficient_fails(tmp_path):
    job = run.Job("rv", weight=16, d=6)
    good = cli_output(job, tmp_path)
    assert checks.check(job, 0, good, tmp_path, checks.Reference()) is None
    payload = json.loads(good)
    payload["H"][2] = str(Fraction(payload["H"][2]) + 1)
    bad = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    # the independent exact re-check catches it without the reference
    assert checks.check(job, 0, bad, tmp_path, None).startswith("functional equation fails")
    assert checks.check(job, 0, bad, tmp_path, checks.Reference()) is not None


def test_corrupted_lfun_and_habiro_fail(tmp_path):
    lfun = run.Job("lfun", weight=12, bits=64)
    payload = json.loads(cli_output(lfun, tmp_path))
    payload["lambda"]["3"] = str(Fraction(payload["lambda"]["3"]) * (1 + Fraction(1, 10**9)))
    assert "Lambda(3)" in checks.check(lfun, 0, json.dumps(payload).encode(), tmp_path, None)

    habiro = run.Job("habiro", level=3)
    payload = json.loads(cli_output(habiro, tmp_path))
    payload["checks"]["frobenius_toric"] = False
    assert "frobenius_toric" in checks.check(habiro, 0, json.dumps(payload).encode(), tmp_path, None)


def test_calibration_is_sampled_while_a_job_runs(runner, tmp_path):
    argv = [sys.executable, "-c", "sum(i * i for i in range(5_000_000))"]
    usage = runner.spawn(argv, tmp_path, tmp_path / "out", tmp_path / "err")
    assert usage["exit_code"] == 0
    assert usage["cal_reps"] > 2 * spawner.EDGE_REPS  # samples taken with the job stopped
    assert abs(usage["wall_s"] - usage["cpu_s"]) < 0.1  # the pauses are not the job's time
    assert run.speed(usage) > 0


def test_512_bit_lfun_is_counted_not_dropped(runner):
    ok = runner.run(run.Job("lfun", weight=12, bits=64))
    high = runner.run(run.Job("lfun", weight=12, bits=512))
    tally = run.tally([ok, high], [ok, high])
    assert tally == {"correct": True, "attempted": 2, "failed": 0 if high.ok else 1}
    assert run.end_to_end([[ok, high]], setup_s=0.2)["ok_frac"][0] == (1.0 if high.ok else 0.5)
    for seed in range(20):
        round_ = run.high_order(random.Random(seed))
        assert sum(job.may_fail for job in round_) == 1 and len(round_) == 9


def test_unexpected_failure_is_incorrect(runner):
    refused = runner.run(run.Job("rv", weight=14, d=60))  # weight 14 has no cusp form
    assert refused.exit_code == 2 and "unsupported" in refused.stderr_line
    assert run.tally([refused], [refused]) == {"correct": False, "attempted": 1, "failed": 1}


def test_traced_counts_repeat_and_outputs_unchanged(runner):
    job = run.Job("rv", weight=16, d=6)
    outcomes = [runner.run(job, traced=True) for _ in range(2)]
    assert [o.error for o in outcomes] == [None, None]
    first, second = (tracer.summarize([f], [1.0], 0, 1.0, 1.0) for f in runner.span_files)
    assert [first[n] for n in EXACT_COUNTS] == [second[n] for n in EXACT_COUNTS]
    assert all(first[n] > 0 for n in EXACT_COUNTS)
    assert first["rvtransform.rv_polynomial.calls"] == 1 and first["rvtransform.max_d"] == 6
    assert first["periods.relations_kernel.unique_frac"] == 1.0
    assert 0 < first["exactcore.busy_s"] < first["trace.jobs_s"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed_sets_inputs_not_amount_of_work(name):
    workload = run.WORKLOADS[name]
    assert workload(random.Random(7)) == workload(random.Random(7))
    sizes = set()
    for seed in range(30):
        jobs = workload(random.Random(seed))
        sizes.add(tuple(sorted((j.command, j.d if j.command == "rv" else None, j.bits, j.level) for j in jobs)))
    assert len(sizes) == 1


def test_every_drawable_job_has_a_reference():
    digests = checks.Reference().digests
    keys = {job.key for job in make_reference.reference_jobs()}
    assert keys <= set(digests)
    for name, workload in run.WORKLOADS.items():
        for seed in range(30):
            for job in workload(random.Random(seed)):
                assert job.command not in ("rv", "certify") or job.key in keys


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    metrics = run.end_to_end([[_outcome()]], 0.1)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(n, u) for n, (_, u) in metrics.items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "habiro-levels", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _outcome() -> run.Outcome:
    return run.Outcome(run.Job("habiro", level=3), 0, 1.0, 0.0, 1.0, 1.0, 20000, 10, None, "")
