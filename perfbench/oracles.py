"""Independent output oracles, from numpy and scipy only.

Nothing here imports twistatom: every expected value is rebuilt from the
job's config and closed-form physics.  Each check raises OracleMismatch with
a one-line reason; a job whose outputs fail a check counts as failed.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import jv

from workloads import ALPHA, transition_energy


class OracleMismatch(Exception):
    """An artifact disagrees with its closed-form expectation."""


def _require(ok, what: str):
    if not ok:
        raise OracleMismatch(what)


def _close(got, want, rel: float, what: str, atol: float = 0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    _require(np.all(np.isfinite(got)), f"{what}: non-finite value")
    err = np.abs(got - want)
    _require(np.all(err <= rel * np.abs(want) + atol),
             f"{what}: max error {float(np.max(err)):.3g}")


def _sign(geometry: str) -> float:
    return -1.0 if geometry == "counter" else 1.0


def resonance_omega(de: float, mass: float, p_z: float, cos_k: float,
                    sign: float) -> float:
    """Exact photon energy of omega = de + [(p_z + s k cos)^2 + (k sin)^2 - p_z^2]/2M.

    With k = omega * alpha this is a quadratic in omega; the physical root
    is the small one, taken in its cancellation-free form.  Transverse atom
    momentum enters E_a and E_b alike and drops out.
    """
    a = ALPHA * ALPHA / (2.0 * mass)
    b = 1.0 - p_z * sign * ALPHA * cos_k / mass
    return 2.0 * de / (b + math.sqrt(b * b - 4.0 * a * de))


def d1_abs(theta, helicity: int) -> np.ndarray:
    """|d^1_{sigma, helicity}(theta)| for sigma = +1, 0, -1, as columns."""
    c, s = np.cos(theta), np.sin(theta)
    cols = [(1.0 + c) / 2.0, np.abs(s) / math.sqrt(2.0), (1.0 - c) / 2.0]
    return np.stack(cols if helicity == 1 else cols[::-1], axis=-1)


def _jsonl(path: Path, keys) -> np.ndarray:
    rows = json.loads("[" + ",".join(path.read_text().splitlines()) + "]")
    return np.array([[row[k] for row in rows] for k in keys], dtype=float).T.reshape(-1, len(keys))


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def check_amplitudes(out: Path, cfg: dict):
    lines = (out / "amplitudes.csv").read_text().splitlines()
    n = cfg["points"]
    _require(len(lines) == n + 1, f"amplitudes: {len(lines) - 1} rows, want {n}")
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    theta = np.linspace(0.0, cfg["theta_max"], n)
    _close(table[:, 0], theta, 0.0, "amplitudes theta", atol=1e-11)
    _close(table[:, 1:], d1_abs(theta, 1), 0.0, "amplitudes |d1|", atol=1e-10)


def cm_expected(cfg: dict, kappa: float, x, y) -> np.ndarray:
    """sqrt(kappa/2pi) J_nu(kappa|R-b|) e^{i nu arg(R-b)} e^{i tilt.R}."""
    nu = cfg["m_gamma"] - cfg["m_b"]
    dx, dy = x - cfg["b_x"], y - cfg["b_y"]
    return (math.sqrt(kappa / (2.0 * math.pi)) * jv(nu, kappa * np.hypot(dx, dy))
            * np.exp(1j * nu * np.arctan2(dy, dx))
            * np.exp(1j * (cfg["tilt_x"] * x + cfg["tilt_y"] * y)))


def check_cm_report(report: dict, cfg: dict):
    k = ALPHA * resonance_omega(transition_energy(1, cfg["n_b"]), cfg["mass"], 0.0,
                                math.cos(cfg["theta_k"]), _sign(cfg["geometry"]))
    kappa = k * math.sin(cfg["theta_k"])
    p_zb = _sign(cfg["geometry"]) * k * math.cos(cfg["theta_k"])  # the atom starts with p_z = 0
    nu = cfg["m_gamma"] - cfg["m_b"]
    _require(report["nu"] == nu, f"cm nu {report['nu']} != {nu}")
    _require(report["winding_measured"] == nu,
             f"cm winding {report['winding_measured']} != {nu}")
    _close(report["kappa"], kappa, 1e-9, "cm kappa")
    _close(report["P_zb"], p_zb, 1e-9, "cm P_zb")
    tilt2 = cfg["tilt_x"] ** 2 + cfg["tilt_y"] ** 2
    _close(report["E_b"], (p_zb ** 2 + kappa ** 2 + tilt2) / (2.0 * cfg["mass"]),
           1e-9, "cm E_b")
    _close(report["theta_Pb"], math.atan2(kappa, p_zb), 1e-9, "cm theta_Pb")
    _require(0.0 <= report["winding_residual"] <= 0.1, "cm winding residual")
    _require(math.isfinite(report["amplitude_abs"]), "cm amplitude not finite")
    return kappa


def check_cm_sample(cfg: dict, kappa: float, axis, sample, values):
    """Grid axis and the seeded sample of grid values against the closed form."""
    n = cfg["resolution"]
    half = cfg["window"] / 2.0
    _close(axis, np.linspace(-half, half, n), 1e-11, "cm grid axis")
    i, j = np.asarray(sample).T
    want = cm_expected(cfg, kappa, axis[i], axis[j])
    scale = math.sqrt(kappa / (2.0 * math.pi))
    got = np.asarray(values, dtype=float)
    _close(got, np.stack([want.real, want.imag], axis=-1), 0.0, "cm grid values",
           atol=1e-9 * scale)


def check_cm_state(out: Path, cfg: dict, sample):
    kappa = check_cm_report(_json(out / "cm_report.json"), cfg)
    rows = _jsonl(out / "cm_grid.jsonl", ("x", "y", "re", "im"))
    n = cfg["resolution"]
    _require(len(rows) == n * n, f"cm grid: {len(rows)} rows, want {n * n}")
    _require(np.all(np.isfinite(rows)), "cm grid: non-finite value")
    grid = rows.reshape(n, n, 4)
    axis = grid[:, 0, 0]
    _close(grid[0, :, 1], axis, 1e-11, "cm grid y axis")
    i, j = np.asarray(sample).T
    check_cm_sample(cfg, kappa, axis, sample, grid[i, j, 2:])


def check_photon_field(out: Path, cfg: dict):
    n = cfg["resolution"]
    k = transition_energy(1, cfg["n_b"]) * ALPHA
    kappa = k * math.sin(cfg["theta_k"])
    span = np.linspace(-10.0, 10.0, n)
    kx, ky = np.meshgrid(span, span, indexing="ij")
    rho = np.hypot(kx - kappa * cfg["b_x"], ky - kappa * cfg["b_y"])
    weights = d1_abs(cfg["theta_k"], cfg["helicity"]) ** 2
    orders = cfg["m_gamma"] - np.array([1, 0, -1])
    density = kappa / (2.0 * math.pi) * sum(
        w * jv(o, rho) ** 2 for w, o in zip(weights, orders))
    for name in ("photon_density", "photon_arg_ax", "photon_arg_az"):
        rows = _jsonl(out / f"{name}.jsonl", ("kx", "ky", "value"))
        _require(len(rows) == n * n, f"{name}: {len(rows)} rows, want {n * n}")
        _close(rows[:, 0], kx.ravel(), 1e-11, f"{name} kx")
        _close(rows[:, 1], ky.ravel(), 1e-11, f"{name} ky")
        if name == "photon_density":
            _close(rows[:, 2], density.ravel(), 0.0, name,
                   atol=1e-10 * float(np.max(density)))
        else:
            # 12 significant digits can round pi itself up by 4e-12
            _require(np.all(np.abs(rows[:, 2]) <= math.pi + 1e-11), f"{name}: phase out of range")


def check_zeeman(out: Path, cfg: dict):
    doc = _json(out / "zeeman_report.json")
    tune, l_b = cfg["tune_m_b"], cfg["l_b"]
    _require(doc["selected_m_b"] == tune, f"zeeman selected {doc['selected_m_b']} != {tune}")
    _require(doc["cm_tam"] == cfg["m_gamma"] - tune, "zeeman cm_tam")
    de = transition_energy(1, cfg["n_b"])
    args = (cfg["mass"], cfg["p_z"], math.cos(cfg["theta_k"]), _sign(cfg["geometry"]))
    split = cfg["g"] * cfg["B"]
    omega = {m: resonance_omega(de + split * m, *args) for m in range(-l_b, l_b + 1)}
    _close(doc["photon_omega"], omega[tune], 1e-9, "zeeman photon_omega")
    want = {str(m): w - omega[tune] for m, w in omega.items() if m != tune}
    _require(sorted(doc["detunings"]) == sorted(want), "zeeman detuning keys")
    for m, w in want.items():
        _close(doc["detunings"][m], w, 1e-6, f"zeeman detuning m_b={m}")


def check_baseline(out: Path, cfg: dict):
    doc = _json(out / "baseline_report.json")
    sign = _sign(cfg["geometry"])
    omega = resonance_omega(transition_energy(1, cfg["n_b"]), cfg["mass"],
                            cfg["p_z"], 1.0, sign)
    p_b = np.array([0.0, 0.0, cfg["p_z"] + sign * omega * ALPHA])
    _close(doc["P_b"], p_b, 1e-9, "baseline P_b", atol=1e-12)
    _close(doc["E_b"], float(p_b @ p_b) / (2.0 * cfg["mass"]), 1e-9, "baseline E_b",
           atol=1e-15)
    _require(math.isfinite(doc["amplitude_abs"]), "baseline amplitude not finite")


def check_cli_job(job: dict, outs, sample):
    """Check every artifact a CLI job wrote; outs[i] is command i's --out."""
    for command, out in zip(job["commands"], outs):
        cmd, cfg = command["cmd"], command["cfg"]
        if cmd == "cm-state":
            check_cm_state(out, cfg, sample)
        elif cmd == "photon-field":
            check_photon_field(out, cfg)
        elif cmd == "amplitudes":
            check_amplitudes(out, cfg)
        elif cmd == "zeeman":
            check_zeeman(out, cfg)
        else:
            check_baseline(out, cfg)


def check_winding_job(job: dict, result: dict, sample):
    cfg = job["cfg"]
    _require(result["finite"], "winding grid: non-finite value")
    kappa = check_cm_report(result["report"], cfg)
    check_cm_sample(cfg, kappa, np.asarray(result["axis"]), sample, result["values"])
