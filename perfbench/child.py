"""Benchmark worker: one fresh interpreter that runs the jobs of one workload.

run.py starts it with PYTHONPATH pointing at the checkout's src/, writes one
JSON job per line to its stdin and reads one JSON reply per line from its
stdout; a ``null`` line ends the loop and the final reply carries the peak
RSS.  With a path argument the worker traces every public twistatom function
and saves the spans there at the end.

Only the calls into twistatom are timed; artifact sizes and the grid sample
for the oracle are taken after the clock stops.  Each reply also carries the
time of a fixed reference computation run around the job (see
reference_seconds).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import jv


def reference_seconds() -> float:
    """Time of a fixed computation that shares no code with twistatom.

    It mixes an interpreted loop, numpy array arithmetic, a scipy Bessel
    function and float formatting, the kinds of work the workloads do.  It runs right before
    and right after each job, so a job's time divided by it cancels the
    speed the host happens to give this process at that moment.
    """
    t0 = perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += math.sin(i * 1e-3) * (i % 7)
    grid = np.linspace(0.0, 1.0, 20000)
    acc += float(np.sum(np.exp(-grid) * np.cos(grid)))
    acc += float(np.sum(jv(3, 40.0 * grid[::10])))
    text = ",".join(f"{x:.12g}" for x in grid[:3000])
    seconds = perf_counter() - t0
    if not (math.isfinite(acc) and text):
        raise RuntimeError("reference computation failed")
    return seconds


def _cli_job(cli, msg):
    stderr = io.StringIO()
    rc = 0
    t0 = perf_counter()
    with contextlib.redirect_stderr(stderr):
        for argv in msg["argv"]:
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects argv
                rc = exc.code
            if rc:
                break
    seconds = perf_counter() - t0
    files = [f for out in msg["outs"] if Path(out).is_dir() for f in Path(out).iterdir()]
    return {"seconds": seconds, "rc": rc, "error": stderr.getvalue().strip(),
            "bytes": sum(f.stat().st_size for f in files)}


def _winding_job(tw, msg):
    """Library-level topological-charge run; no file I/O."""
    cfg = msg["cfg"]
    impact = (cfg["b_x"], cfg["b_y"])
    t0 = perf_counter()
    try:
        orb_a = tw.hydrogenic.BoundOrbital(1, 1, 0, 0)
        orb_b = tw.hydrogenic.BoundOrbital(1, cfg["n_b"], cfg["l_b"], cfg["m_b"])
        de = tw.hydrogenic.orbital_energy(orb_b) - tw.hydrogenic.orbital_energy(orb_a)
        k = de * tw.photon.ALPHA
        photon = tw.photon.TwistedPhoton(
            k_z=k * math.cos(cfg["theta_k"]), kappa=k * math.sin(cfg["theta_k"]),
            m_gamma=cfg["m_gamma"], helicity=cfg["helicity"],
            impact_parameter=np.array(impact))
        config = tw.cmstate.KinematicConfig(
            M_total=cfg["mass"], P_a=np.array([cfg["tilt_x"], cfg["tilt_y"], 0.0]),
            photon=photon, geometry=cfg["geometry"],
            channel=tw.matrixel.TransitionChannel(orb_a, orb_b, cfg["helicity"], de))
        state = tw.cmstate.synthesize_cm_state(config)
        grid = tw.cmstate.evaluate_cm_grid(state, cfg["window"], cfg["resolution"],
                                           impact_parameter=impact)
        radius = tw.cmstate.pick_winding_radius(state, cfg["window"])
        wind, residual = tw.cmstate.winding_number(grid, center=impact, radius=radius)
    except tw.errors.TwistatomError as exc:
        return {"seconds": perf_counter() - t0, "rc": exc.exit_code,
                "error": f"{type(exc).__name__}: {exc}", "bytes": 0}
    seconds = perf_counter() - t0
    i, j = np.asarray(msg["sample"]).T
    sample = grid.values[i, j]
    report = {"nu": state.tam_projection, "winding_measured": wind,
              "winding_residual": residual, "kappa": state.kappa, "P_zb": state.P_zb,
              "E_b": state.E_b, "theta_Pb": state.theta_Pb,
              "amplitude_abs": abs(state.amplitude_scale)}
    return {"seconds": seconds, "rc": 0, "error": "", "bytes": 0,
            "result": {"report": report, "axis": grid.x.tolist(),
                       "values": np.stack([sample.real, sample.imag], -1).tolist(),
                       "finite": bool(np.all(np.isfinite(grid.values)))}}


def main(argv) -> int:
    replies = sys.stdout
    sys.stdout = sys.stderr  # nothing the program prints may corrupt the replies
    tracer = None
    if argv:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import twistatom.cli
    import twistatom as tw
    for line in sys.stdin:
        msg = json.loads(line)
        if msg is None:
            break
        run = _cli_job if msg["kind"] == "cli" else _winding_job
        target = tw.cli if msg["kind"] == "cli" else tw
        before = reference_seconds()
        try:
            if tracer is None:
                reply = run(target, msg)
            else:
                with tracer.job_span(msg["id"]):
                    reply = run(target, msg)
        except Exception:  # a crash fails the job, not the run
            reply = {"seconds": 0.0, "rc": None, "bytes": 0,
                     "error": traceback.format_exc(limit=3).strip()}
        reply["ref_s"] = 0.5 * (before + reference_seconds())
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    if tracer is not None:
        tracer.save(argv[0])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    replies.write(json.dumps({"maxrss_kb": peak}) + "\n")
    replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
