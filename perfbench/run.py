"""twistatom benchmark: seeded closed-loop workloads, output oracles, layer trace.

    python3 perfbench/run.py --workload grid-export --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout against its src/.  One client sends jobs
one after another (closed loop) to a fresh worker interpreter until the jobs
have taken --seconds; every job's outputs are checked by an independent
oracle.  --trace 0 reports the end-to-end metrics named in BENCHMARK.json;
--trace 1 runs the same jobs untraced and then traced, in two fresh workers,
and reports the per-layer metrics.  The last stdout line is the JSON result;
a copy with provenance goes to .perfbench_results/.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import numpy as np
import scipy

import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5          # timed fresh imports per run; the median is reported
MIN_JOBS = 20              # so the tail percentile always exists
WALL_LIMIT_S = 75.0        # per worker: a traced run (two workers) ends within 180 s
SAMPLE_POINTS = 64         # CM grid points checked against the closed form
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

WORK_UNITS = {"grid-export": "grid points written",
              "winding-survey": "grid points evaluated",
              "spectro-scan": "theta rows + resolved sublevels"}


def nearest_rank(values, p: float) -> float:
    """p-th percentile by the nearest-rank rule (an observed value)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100.0 - 1e-9))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest percentile in TAIL_PERCENTILES with at least 10 samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p * n / 100.0 - 1e-9) >= 10:
            return p
    return 100.0


def fresh_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing twistatom.cli."""
    cmd = [sys.executable, "-c", "import twistatom.cli"]
    subprocess.run(cmd, env=fresh_env(), check=True)  # compiles bytecode once
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, env=fresh_env(), check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _prepare(job: dict, seed: int, work: Path):
    """Write the job's inputs; return the worker message, output dirs and grid sample."""
    msg = {"id": job["id"], "kind": job["kind"]}
    sample = None
    resolution = None
    if job["kind"] == "cli":
        msg["argv"], msg["outs"] = [], []
        for i, command in enumerate(job["commands"]):
            cfg_path = work / f"job{job['id']}_{i}.cfg"
            cfg_path.write_text(workloads.config_text(command["cfg"]))
            out = work / f"job{job['id']}_{i}"
            msg["argv"].append([command["cmd"], "--config", str(cfg_path), "--out", str(out)])
            msg["outs"].append(str(out))
            if command["cmd"] == "cm-state":
                resolution = command["cfg"]["resolution"]
    else:
        msg["cfg"] = job["cfg"]
        resolution = job["cfg"]["resolution"]
    if resolution is not None:
        rng = np.random.default_rng([seed, job["id"]])
        sample = rng.integers(0, resolution, size=(SAMPLE_POINTS, 2)).tolist()
        msg["sample"] = sample
    return msg, sample


def _judge(job: dict, msg: dict, reply: dict, sample) -> dict:
    record = {"id": job["id"], "job": job, "seconds": reply["seconds"],
              "ref_s": reply["ref_s"], "work": job["work"],
              "bytes": reply["bytes"], "rc": reply["rc"], "error": reply["error"]}
    if reply["rc"] == 0:
        try:
            if job["kind"] == "cli":
                oracles.check_cli_job(job, [Path(o) for o in msg["outs"]], sample)
            else:
                oracles.check_winding_job(job, reply["result"], sample)
        except Exception as exc:  # an unreadable artifact fails the job like a wrong one
            record["error"] = f"oracle: {type(exc).__name__}: {exc}"
    record["ok"] = reply["rc"] == 0 and not record["error"]
    return record


def run_jobs(workload: str, seed: int, seconds: float, work: Path,
             max_jobs: int | None = None, trace_path: Path | None = None):
    """Closed loop with one client; returns (records, peak RSS in MB)."""
    cmd = [sys.executable, str(HERE / "child.py")]
    if trace_path is not None:
        cmd.append(str(trace_path))
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=work, env=fresh_env(), text=True)
    records, busy, started = [], 0.0, monotonic()
    try:
        for job in workloads.jobs(workload, seed):
            done = (len(records) >= max_jobs if max_jobs is not None
                    else busy >= seconds and len(records) >= MIN_JOBS)
            if done or monotonic() - started > WALL_LIMIT_S:
                break
            msg, sample = _prepare(job, seed, work)
            proc.stdin.write(json.dumps(msg) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"worker exited with code {proc.wait()}")
            records.append(_judge(job, msg, json.loads(line), sample))
            busy += records[-1]["seconds"]
            for out in msg.get("outs", ()):
                shutil.rmtree(out, ignore_errors=True)
        proc.stdin.write("null\n")
        proc.stdin.flush()
        peak_kb = json.loads(proc.stdout.readline())["maxrss_kb"]
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return records, peak_kb / 1024.0


def end_to_end(records, peak_mb: float, setup_s: float) -> dict:
    """Latency and throughput in seconds (*_s) and in reference units (*_ref).

    A job's time in reference units is its time divided by the reference
    computation timed around it in the same worker.  The host's speed
    cancels from the ratio, so *_ref is what separates a change to the
    program from a change in the machine's load.
    """
    tail_p = tail_percentile(len(records))
    work = sum(r["work"] for r in records if r["ok"])
    values = {"setup_s": setup_s, "peak_rss_mb": peak_mb}
    for unit, scale in (("s", lambda r: 1.0), ("ref", lambda r: 1.0 / r["ref_s"])):
        latencies = [r["seconds"] * scale(r) if r["ok"] else math.inf for r in records]
        values[f"job_p50_{unit}"] = nearest_rank(latencies, 50.0)
        values[f"job_tail_{unit}"] = nearest_rank(latencies, tail_p)
        values[f"work_per_{unit}"] = work / sum(r["seconds"] * scale(r) for r in records)
    return values, tail_p


def _stat(stats: dict, name: str, field: str) -> float:
    return stats.get(name, {}).get(field, 0)


SPAN_FIELDS = {"calls": "calls", "busy_s": "busy", "self_s": "self", "points": "points",
               "distinct_keys": "distinct_keys"}


def per_layer(stats: dict, records, untraced, names) -> dict:
    """Values of the named per-layer metrics, "<module>.<function>.<field>".

    The tracing overhead compares the same jobs in reference units, so a
    change in the host's speed between the two workers does not show as one.
    """
    bytes_out = sum(r["bytes"] for r in records)
    cmd_busy = sum(s["busy"] for n, s in stats.items() if n.startswith("cli.cmd_"))
    in_ref = lambda rs: sum(r["seconds"] / r["ref_s"] for r in rs)  # noqa: E731
    values = {"cli.bytes_out": bytes_out,
              "cli.bytes_per_s": bytes_out / cmd_busy if cmd_busy else 0.0,
              "trace.overhead_frac": in_ref(records) / in_ref(untraced) - 1.0}
    for name in names:
        if name in values:
            continue
        source, field = name.rsplit(".", 1)
        if field == "ns_per_point":
            points = _stat(stats, source, "points")
            values[name] = 1e9 * _stat(stats, source, "busy") / points if points else 0.0
        else:
            values[name] = _stat(stats, source, SPAN_FIELDS[field])
    return values


def coverage_errors(workload: str, stats: dict, records) -> list[str]:
    """Counts the workload design predicts; a miss means a wrapper was skipped."""
    n = len(records)
    calls = lambda name: _stat(stats, name, "calls")  # noqa: E731
    points = lambda name: _stat(stats, name, "points")  # noqa: E731
    expect = []  # (what, got, want, exact)
    cli_cmds = ("cmd_cm_state", "cmd_photon_field", "cmd_amplitudes", "cmd_zeeman",
                "cmd_baseline")
    if workload == "grid-export":
        used = {"cmd_cm_state", "cmd_photon_field"}
        expect += [("cmstate.evaluate_cm_grid.calls", calls("cmstate.evaluate_cm_grid"), n, True),
                   ("cmstate.evaluate_cm_grid.points", points("cmstate.evaluate_cm_grid"),
                    n * workloads.CM_RESOLUTION ** 2, True),
                   ("photon.bessel_mode_grid.points", points("photon.bessel_mode_grid"),
                    n * workloads.FIELD_RESOLUTION ** 2, True),
                   ("specfun.bessel_j.calls", calls("specfun.bessel_j"), 5 * n, False),
                   ("cli.bytes_out", sum(r["bytes"] for r in records), 1, False)]
    elif workload == "winding-survey":
        used = set()
        expect += [(f"cmstate.{f}.calls", calls(f"cmstate.{f}"), n, True)
                   for f in ("synthesize_cm_state", "evaluate_cm_grid",
                             "pick_winding_radius", "winding_number")]
        expect += [("cmstate.evaluate_cm_grid.points", points("cmstate.evaluate_cm_grid"),
                    n * workloads.WINDING_RESOLUTION ** 2, True),
                   ("specfun.bessel_j.calls", calls("specfun.bessel_j"), 2 * n, False),
                   ("photon.bessel_mode_grid.calls", calls("photon.bessel_mode_grid"), 0, True),
                   ("cli.main.calls", calls("cli.main"), 0, True),
                   ("cli.bytes_out", sum(r["bytes"] for r in records), 0, True)]
    else:
        used = {"cmd_amplitudes", "cmd_zeeman", "cmd_baseline"}
        rows = sum(r["job"]["commands"][0]["cfg"]["points"] for r in records)
        expect += [(f"{name}.calls", calls(name), n, True)
                   for name in ("scenarios.figure2_run", "scenarios.zeeman_select",
                                "scenarios.baseline_plane_wave",
                                "matrixel.normalized_amplitude_sweep")]
        expect += [("matrixel.rotated_amplitude.calls", calls("matrixel.rotated_amplitude"),
                    3 * rows + n, True),
                   ("specfun.bessel_j.calls", calls("specfun.bessel_j"), 0, True),
                   ("cmstate.evaluate_cm_grid.calls", calls("cmstate.evaluate_cm_grid"), 0, True),
                   ("specfun.wigner_small_d.calls", calls("specfun.wigner_small_d"), 1, False)]
    expect += [(f"cli.{c}.calls", calls(f"cli.{c}"), n if c in used else 0, True)
               for c in cli_cmds]
    return [f"{what} = {got}, predicted {'' if exact else '>= '}{want}"
            for what, got, want, exact in expect
            if (got != want if exact else got < want)]


def layer_shares(stats: dict) -> dict:
    """Shares of traced job time that the dominant-layer predictions name."""
    total = _stat(stats, "bench.job", "busy") or 1.0
    self_of = lambda pred: sum(s["self"] for n, s in stats.items() if pred(n))  # noqa: E731
    return {
        "cli.cmd_* self": self_of(lambda n: n.startswith("cli.cmd_")) / total,
        "specfun.bessel_j busy": _stat(stats, "specfun.bessel_j", "busy") / total,
        "matrixel + specfun.wigner_small_d self": self_of(
            lambda n: n.startswith("matrixel.") or n == "specfun.wigner_small_d") / total,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def provenance(seed: int) -> dict:
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "nproc": os.cpu_count(), "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="run exactly this many jobs instead of --seconds")
    args = parser.parse_args(argv)
    if not (SRC / "twistatom" / "cli.py").is_file():
        print(f"perfbench: no twistatom sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            wanted = spec["per_layer"]
            untraced, _ = run_jobs(args.workload, args.seed, args.seconds / 2, work,
                                   max_jobs=args.jobs)
            spans = work / "spans.npz"
            records, _ = run_jobs(args.workload, args.seed, 0.0, work,
                                  max_jobs=len(untraced), trace_path=spans)
            stats = tracing.summarize(spans)
            metrics = per_layer(stats, records, untraced[:len(records)],
                                [m["name"] for m in wanted])
            problems = coverage_errors(args.workload, stats, records)
            extra = {"coverage_errors": problems, "shares": layer_shares(stats)}
            records = untraced + records
        else:
            wanted = spec["end_to_end"]
            setup_s = measure_setup()
            records, peak_mb = run_jobs(args.workload, args.seed, args.seconds, work,
                                        max_jobs=args.jobs)
            metrics, tail_p = end_to_end(records, peak_mb, setup_s)
            problems = []
            extra = {"tail_percentile": tail_p, "samples": len(records),
                     "all_end_to_end": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [{"job": r["id"], "exit_code": r["rc"], "message": r["error"]}
                for r in records if not r["ok"]]
    result = {
        "correct": not failures and not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": _finite(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    detail = {"workload": args.workload, "trace": args.trace,
              "work_unit": WORK_UNITS[args.workload],
              "fail_frac": len(failures) / len(records), "failures": failures,
              "provenance": provenance(args.seed), **extra, "result": result}
    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    _report(detail)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _finite(value):
    """JSON has no infinity: a latency made infinite by failed jobs becomes null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _report(detail: dict):
    result = detail["result"]
    print(f"perfbench {detail['workload']} trace={detail['trace']}: "
          f"{result['attempted']} jobs, {result['failed']} failed, "
          f"fail_frac {detail['fail_frac']:.4g} (1); work unit: {detail['work_unit']}")
    if "tail_percentile" in detail:
        print(f"  job_tail_s is p{detail['tail_percentile']:g} of {detail['samples']} jobs")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']} {m['unit']}")
    for name in ("job_p50_s", "job_tail_s", "work_per_s"):
        if name in detail.get("all_end_to_end", {}):
            unit = "1/s" if name.startswith("work") else "s"
            print(f"  {name:<48} {detail['all_end_to_end'][name]} {unit} (seconds, not gated)")
    for key in ("shares", "coverage_errors", "failures"):
        if detail.get(key):
            print(f"  {key}: {json.dumps(detail[key])}")
    print(f"  provenance: {json.dumps(detail['provenance'])}")


if __name__ == "__main__":
    sys.exit(main())
