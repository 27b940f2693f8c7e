"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))
from twistatom import cli  # noqa: E402


def _first(workload: str, seed: int, n: int):
    return list(itertools.islice(workloads.jobs(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_reproducible(workload):
    assert _first(workload, 5, 30) == _first(workload, 5, 30)
    assert _first(workload, 5, 30) != _first(workload, 6, 30)


@pytest.mark.parametrize("n, p", [(10, 100.0), (19, 100.0), (20, 50.0), (39, 50.0),
                                  (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
                                  (200, 95.0), (999, 95.0), (1000, 99.0),
                                  (10000, 99.9)])
def test_tail_percentile_leaves_ten_jobs_beyond(n, p):
    assert run.tail_percentile(n) == p
    values = list(range(1, n + 1))
    if p < 100.0:
        beyond = [v for v in values if v > run.nearest_rank(values, p)]
        assert len(beyond) >= 10


def _run_in_process(job, work: Path):
    msg, sample = run._prepare(job, 1, work)
    for argv in msg["argv"]:
        assert cli.main(argv) == 0
    reply = {"seconds": 0.1, "ref_s": 0.005, "rc": 0, "error": "", "bytes": 0}
    return msg, reply, sample


def _bump_jsonl(path: Path, key: str, index):
    lines = path.read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    k = index(rows)
    rows[k][key] = rows[k][key] * 1.001 + 1e-9
    lines[k] = json.dumps(rows[k], sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


def _bump_csv(path: Path):
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = f"{float(cells[2]) + 1e-8:.12f}"
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload, command, artifact", [
    ("grid-export", 0, "cm_grid.jsonl"),
    ("grid-export", 1, "photon_density.jsonl"),
    ("spectro-scan", 0, "amplitudes.csv"),
])
def test_corrupted_artifact_fails_the_job(tmp_path, workload, command, artifact):
    job = _first(workload, 1, 1)[0]
    msg, reply, sample = _run_in_process(job, tmp_path)
    assert run._judge(job, msg, reply, sample)["ok"]
    path = Path(msg["outs"][command]) / artifact
    if artifact == "cm_grid.jsonl":  # a grid point the oracle samples
        i, j = sample[0]
        n = job["commands"][0]["cfg"]["resolution"]
        _bump_jsonl(path, "im", lambda rows: i * n + j)
    elif artifact == "photon_density.jsonl":  # the peak of the density
        _bump_jsonl(path, "value", lambda rows: max(range(len(rows)),
                                                    key=lambda k: rows[k]["value"]))
    else:
        _bump_csv(path)
    record = run._judge(job, msg, reply, sample)
    assert not record["ok"]
    assert record["error"].startswith("oracle:")


def _traced(workload: str) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", "1", "--jobs", "3"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload), _traced(workload)
    assert first["correct"] and second["correct"]
    exact = [name for name in first["metrics"]
             if name.endswith((".calls", ".points", ".distinct_keys")) or name == "cli.bytes_out"]
    assert exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectro-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
