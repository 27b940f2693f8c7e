"""Seeded job generators for the three benchmark workloads.

A job is one seeded physics setting, described as plain JSON-able data: the
config files and argv of the CLI commands it runs, or the parameters of a
library-level winding run.  The program under test only ever sees these.

Jobs come in blocks.  Within a block every stratum of each cost-driving
parameter (m_gamma, opening angle, window, amplitude points, channel) is
drawn once, in seeded order, so runs with different seeds do the same mix of
work and their medians stay comparable.
"""
from __future__ import annotations

import math

import numpy as np

ALPHA = 7.2973525693e-3  # fine-structure constant, CODATA 2018
MASS = 1836.15           # atom mass in electron masses (the CLI default)

WORKLOADS = ("grid-export", "winding-survey", "spectro-scan")

# Grid sizes are fixed per workload so that a run holds enough jobs for the
# tail percentile; the seed varies the physics, not the amount of work.
CM_RESOLUTION = 145
FIELD_RESOLUTION = 65
WINDING_RESOLUTION = 417
AMPLITUDE_POINTS = (1250, 1875, 2500)

CM_M_GAMMA = tuple(range(-4, 7))       # 11 levels: one block of CM jobs
FIELD_M_GAMMA = tuple(range(-12, 13))
SPECTRO_CHANNELS = ((2, 1), (3, 1), (3, 2))


def transition_energy(n_a: int, n_b: int) -> float:
    """Bare hydrogen (Z = 1) transition energy in Hartree."""
    return 0.5 * (1.0 / n_a ** 2 - 1.0 / n_b ** 2)


def _stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from [lo, hi), one in each of n equal strata, in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _disk(rng, radius: float):
    """Uniform point in a disk of the given radius."""
    r = radius * math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    return r * math.cos(phi), r * math.sin(phi)


def _cm_block(rng):
    """One block of twisted centre-of-mass settings (1s -> 2p).

    The impact offset is kept within 0.05 of the window: the winding radius
    the program picks ignores the offset and can reach 0.45 of the window,
    so larger offsets push the sampling circle out of the grid (exit 2).
    """
    n = len(CM_M_GAMMA)
    m_gamma = rng.permutation(CM_M_GAMMA)
    theta = _stratified(rng, n, 0.05, 1.2)
    window_kappa = _stratified(rng, n, 12.0, 30.0)
    for i in range(n):
        kappa = transition_energy(1, 2) * ALPHA * math.sin(theta[i])
        window = float(window_kappa[i] / kappa)
        b_x, b_y = _disk(rng, 0.05 * window)
        tilt_x, tilt_y = _disk(rng, 0.05 * kappa)
        yield {
            "n_b": 2, "l_b": 1, "m_b": int(rng.integers(-1, 2)),
            "helicity": int(rng.choice((-1, 1))), "m_gamma": int(m_gamma[i]),
            "theta_k": float(theta[i]), "mass": MASS,
            "geometry": str(rng.choice(("counter", "co"))),
            "window": window, "b_x": b_x, "b_y": b_y,
            "tilt_x": tilt_x, "tilt_y": tilt_y,
        }


def _grid_export_block(rng):
    for cm in _cm_block(rng):
        cm["resolution"] = CM_RESOLUTION
        field = {k: cm[k] for k in ("n_b", "l_b", "m_b", "helicity", "theta_k",
                                    "b_x", "b_y")}
        field["m_gamma"] = int(rng.choice(FIELD_M_GAMMA))
        field["resolution"] = FIELD_RESOLUTION
        yield {"kind": "cli",
               "commands": [{"cmd": "cm-state", "cfg": cm},
                            {"cmd": "photon-field", "cfg": field}],
               "work": CM_RESOLUTION ** 2 + 3 * FIELD_RESOLUTION ** 2}


def _winding_block(rng):
    for cm in _cm_block(rng):
        cm["resolution"] = WINDING_RESOLUTION
        yield {"kind": "winding", "cfg": cm, "work": WINDING_RESOLUTION ** 2}


def _spectro_block(rng):
    """Nine settings: each channel and each amplitude size three times.

    amplitudes always uses helicity +1: with -1 its normalisation M~_10(0)
    vanishes and the command exits 2 by design.
    """
    n = 3 * len(SPECTRO_CHANNELS)
    channels = rng.permutation(np.repeat(np.arange(len(SPECTRO_CHANNELS)), 3))
    points = rng.permutation(np.repeat(AMPLITUDE_POINTS, 3))
    omega = _stratified(rng, n, 0.3, 0.5)
    theta_max = _stratified(rng, n, 0.5, 1.5)
    log_b = _stratified(rng, n, -7.0, -4.0)
    for i in range(n):
        n_b, l_b = SPECTRO_CHANNELS[channels[i]]
        helicity = int(rng.choice((-1, 1)))
        common = {"n_b": n_b, "l_b": l_b, "m_b": helicity, "helicity": helicity,
                  "geometry": str(rng.choice(("counter", "co"))),
                  "p_z": float(rng.uniform(-3.0, 3.0)), "mass": MASS}
        amplitudes = {"omega": float(omega[i]), "points": int(points[i]),
                      "theta_max": float(theta_max[i]), "helicity": 1}
        zeeman = dict(common, B=float(10.0 ** log_b[i]), g=1.0,
                      tune_m_b=int(rng.integers(-l_b, l_b + 1)),
                      m_gamma=int(rng.choice(CM_M_GAMMA)),
                      theta_k=float(rng.uniform(0.05, 1.2)))
        yield {"kind": "cli",
               "commands": [{"cmd": "amplitudes", "cfg": amplitudes},
                            {"cmd": "zeeman", "cfg": zeeman},
                            {"cmd": "baseline", "cfg": dict(common)}],
               "work": int(points[i]) + 2 * l_b + 1}


_BLOCKS = {"grid-export": _grid_export_block,
           "winding-survey": _winding_block,
           "spectro-scan": _spectro_block}


def jobs(workload: str, seed: int):
    """Endless, reproducible stream of jobs; job["id"] counts from 0."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    block = _BLOCKS[workload]
    i = 0
    while True:
        for job in block(rng):
            job["id"] = i
            yield job
            i += 1


def config_text(cfg: dict) -> str:
    """Flat key = value text the CLI reads; floats keep every digit."""
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in cfg.items())
