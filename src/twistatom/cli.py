"""Command-line front end.

Subcommands: amplitudes, photon-field, cm-state, zeeman, baseline.
Outputs are deterministic: fixed float formatting, no timestamps in data
files; run metadata goes to a separate config sidecar.

Config files are flat key = value text; command-line flags win over file
values.  All quantities are atomic units; --show-si adds an SI conversion
block to the sidecar without changing stored values.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DomainError, KinematicsError, OutputError,
                     TwistatomError)
from .hydrogenic import BoundOrbital, orbital_energy
from .matrixel import TransitionChannel
from .photon import ALPHA, PlaneWavePhoton, TwistedPhoton, bessel_mode_grid
from .cmstate import (KinematicConfig, evaluate_cm_grid, pick_winding_radius,
                      solve_resonance, synthesize_cm_state, winding_number)
from .scenarios import ZeemanSetting, baseline_plane_wave, figure2_run, zeeman_select

HARTREE_EV = 27.211386245988
BOHR_NM = 0.0529177210903

_DEFAULTS = {
    "Z": 1, "n_a": 1, "l_a": 0, "m_a": 0, "n_b": 2, "l_b": 1, "m_b": 1,
    "helicity": 1, "m_gamma": 4, "theta_k": 0.2, "mass": 1836.15,
    "p_z": 0.0, "geometry": "counter", "b_x": 0.0, "b_y": 0.0,
    "tilt_x": 0.0, "tilt_y": 0.0, "resolution": 101, "window": 0.0,
    "points": 100, "theta_max": 1.4, "omega": 0.0,
    "B": 0.0, "g": 1.0, "linewidth": 1e-9, "tune_m_b": 1,
}
_INT_KEYS = {"Z", "n_a", "l_a", "m_a", "n_b", "l_b", "m_b", "helicity",
             "m_gamma", "resolution", "points", "tune_m_b"}
_STR_KEYS = {"geometry"}


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key in _STR_KEYS:
                values[key] = val
            elif key in _INT_KEYS:
                values[key] = int(val)
            else:
                values[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {val!r}") from exc
    return values


def _resolve(args) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config:
        cfg.update(_parse_config_file(args.config))
    overrides = {
        "points": args.points, "theta_max": args.theta_max,
        "resolution": args.resolution,
    }
    if args.impact_b is not None:
        overrides["b_x"], overrides["b_y"] = args.impact_b
    if args.tilt is not None:
        overrides["tilt_x"], overrides["tilt_y"] = args.tilt
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    if getattr(args, "infinite_mass", False):
        cfg["mass"] = 1e12
        cfg["infinite_mass"] = True
    else:
        cfg["infinite_mass"] = False
    return cfg


def _fmt(x: float) -> str:
    return f"{x:.12f}"


def _jnum(x: float) -> float:
    # round-trip through 12 significant digits for byte-stable JSON
    return float(f"{x:.12g}")


# json writes floats in repr form; %.12g differs from it only on integral
# tokens, inf/nan, exponents 12..15 and subnormals, which take json's form.
_REPR_EXPONENTS = {"+12", "+13", "+14", "+15", *(f"-{n}" for n in range(308, 325))}


def _json_floats(values) -> list[str]:
    """json.dumps(_jnum(x)) for each x, without a per-value float round trip."""
    return [tok if ("." in tok and "e" not in tok)
            or ("e" in tok and tok.rpartition("e")[2] not in _REPR_EXPONENTS)
            else json.dumps(float(tok))
            for tok in map("%.12g".__mod__, np.ravel(values).tolist())]


def _write_text(path: Path, chunks):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _write_jsonl_grid(path: Path, axis_i, axis_j, columns: dict):
    """Stream a grid as JSONL, one axis_i row at a time.

    axis_i, axis_j are (key, _json_floats tokens); columns map key -> 2-D
    array.  Each line equals json.dumps({...: _jnum(v)}, sort_keys=True).
    """
    (key_i, toks_i), (key_j, toks_j) = axis_i, axis_j
    keys = sorted([key_i, key_j, *columns])
    template = "{" + ", ".join(f'"{k}": %s' for k in keys) + "}\n"

    def row(i):
        fields = {key_i: repeat(toks_i[i], len(toks_j)), key_j: toks_j,
                  **{k: _json_floats(col[i]) for k, col in columns.items()}}
        return "".join(map(template.__mod__, zip(*(fields[k] for k in keys))))

    _write_text(path, map(row, range(len(toks_i))))


def _sidecar(cfg: dict, out: Path, show_si: bool, extra=None):
    doc = {k: cfg[k] for k in sorted(cfg)}
    if extra:
        doc.update(extra)
    if show_si:
        omega = cfg.get("omega") or 0.0
        doc["si"] = {
            "hartree_in_eV": HARTREE_EV,
            "bohr_in_nm": BOHR_NM,
            "photon_energy_eV": _jnum(omega * HARTREE_EV) if omega else None,
        }
    _write_text(out / "run_config.json", [json.dumps(doc, sort_keys=True, indent=1), "\n"])


def _channel(cfg: dict, omega: float) -> TransitionChannel:
    orb_a = BoundOrbital(cfg["Z"], cfg["n_a"], cfg["l_a"], cfg["m_a"])
    orb_b = BoundOrbital(cfg["Z"], cfg["n_b"], cfg["l_b"], cfg["m_b"])
    return TransitionChannel(orb_a, orb_b, cfg["helicity"], omega)


def _bare_transition_energy(cfg: dict) -> float:
    orb_a = BoundOrbital(cfg["Z"], cfg["n_a"], cfg["l_a"], cfg["m_a"])
    orb_b = BoundOrbital(cfg["Z"], cfg["n_b"], cfg["l_b"], cfg["m_b"])
    de = orbital_energy(orb_b) - orbital_energy(orb_a)
    if de <= 0:
        raise KinematicsError("transition is not an excitation")
    return de


def _twisted_photon(cfg: dict, omega: float) -> TwistedPhoton:
    theta = cfg["theta_k"]
    if not 0.0 < theta < math.pi / 2:
        raise ConfigError("theta_k must lie in (0, pi/2) for a twisted photon")
    k = omega * ALPHA
    return TwistedPhoton(k_z=k * math.cos(theta), kappa=k * math.sin(theta),
                         m_gamma=cfg["m_gamma"], helicity=cfg["helicity"],
                         impact_parameter=np.array([cfg["b_x"], cfg["b_y"]]))


def cmd_amplitudes(args) -> int:
    cfg = _resolve(args)
    out = Path(args.out)
    run = figure2_run(cfg["points"], cfg["theta_max"], Z=cfg["Z"],
                      helicity=cfg["helicity"],
                      omega=cfg["omega"] or None)
    lines = ["theta_k,MN_mb_plus1,MN_mb_0,MN_mb_minus1"]
    for th, row in zip(run["theta"], run["table"]):
        lines.append(",".join([_fmt(th)] + [_fmt(v) for v in row]))
    _write_text(out / "amplitudes.csv", ["\n".join(lines), "\n"])
    extra = {"dominance_boundary": run["dominance_boundary"]}
    _sidecar(cfg, out, args.show_si, extra)
    return 0


def cmd_photon_field(args) -> int:
    cfg = _resolve(args)
    out = Path(args.out)
    n = cfg["resolution"]
    if n < 2:
        raise DomainError("resolution must be >= 2")
    omega = cfg["omega"] or _bare_transition_energy(cfg)
    photon = _twisted_photon(cfg, omega)
    span = np.linspace(-10.0, 10.0, n)  # normalized kappa * x
    X, Y = np.meshgrid(span / photon.kappa, span / photon.kappa, indexing="ij")
    field = bessel_mode_grid(photon, X.ravel(), Y.ravel(), 0.0).reshape(n, n, 3)
    density = np.sum(np.abs(field) ** 2, axis=-1)
    arg_ax = np.angle(field[..., 0])
    arg_az = np.angle(field[..., 2])
    k = _json_floats(span)
    for name, data in (("photon_density", density),
                       ("photon_arg_ax", arg_ax), ("photon_arg_az", arg_az)):
        _write_jsonl_grid(out / f"{name}.jsonl", ("kx", k), ("ky", k), {"value": data})
    _sidecar(cfg, out, args.show_si, {"omega": _jnum(omega)})
    return 0


def cmd_cm_state(args) -> int:
    cfg = _resolve(args)
    out = Path(args.out)
    de = _bare_transition_energy(cfg)
    if cfg["infinite_mass"]:
        delta_m = cfg["m_b"] - cfg["m_a"]
        if cfg["m_gamma"] != delta_m:
            raise KinematicsError(
                f"channel forbidden in the infinite-mass limit: "
                f"m_gamma = {cfg['m_gamma']} != delta m = {delta_m}")
    photon = _twisted_photon(cfg, de)
    channel = _channel(cfg, de)
    config = KinematicConfig(
        M_total=cfg["mass"],
        P_a=np.array([cfg["tilt_x"], cfg["tilt_y"], cfg["p_z"]]),
        photon=photon, channel=channel, geometry=cfg["geometry"])
    state = synthesize_cm_state(config)
    window = cfg["window"] or 12.0 / state.kappa
    b = (cfg["b_x"], cfg["b_y"])
    grid = evaluate_cm_grid(state, window, cfg["resolution"], impact_parameter=b)
    radius = pick_winding_radius(state, window, center=b)
    wind, residual = winding_number(grid, center=b, radius=radius)
    _write_jsonl_grid(out / "cm_grid.jsonl", ("x", _json_floats(grid.x)),
                      ("y", _json_floats(grid.y)),
                      {"re": grid.values.real, "im": grid.values.imag})
    report = {
        "E_b": _jnum(state.E_b), "P_zb": _jnum(state.P_zb),
        "kappa": _jnum(state.kappa), "nu": state.tam_projection,
        "theta_Pb": _jnum(state.theta_Pb),
        "winding_measured": wind, "winding_residual": _jnum(residual),
        "amplitude_abs": _jnum(abs(state.amplitude_scale)),
    }
    _write_text(out / "cm_report.json", [json.dumps(report, sort_keys=True, indent=1), "\n"])
    _sidecar(cfg, out, args.show_si)
    return 0


def cmd_zeeman(args) -> int:
    cfg = _resolve(args)
    out = Path(args.out)
    de = _bare_transition_energy(cfg)
    setting = ZeemanSetting(field_strength=cfg["B"], g_factor=cfg["g"],
                            linewidth=cfg["linewidth"])
    channel = _channel(cfg, de)
    probe = KinematicConfig(M_total=cfg["mass"],
                            P_a=np.array([0.0, 0.0, cfg["p_z"]]),
                            photon=_twisted_photon(cfg, de),
                            channel=channel, geometry=cfg["geometry"])
    if cfg["omega"]:
        omega = cfg["omega"]
    else:
        shift = cfg["g"] * cfg["B"] * (cfg["tune_m_b"] - cfg["m_a"])
        omega = solve_resonance(probe, energy_shift=shift)
    config = KinematicConfig(M_total=cfg["mass"],
                             P_a=np.array([0.0, 0.0, cfg["p_z"]]),
                             photon=_twisted_photon(cfg, omega),
                             channel=channel, geometry=cfg["geometry"])
    report = zeeman_select(setting, config, cfg["m_gamma"])
    doc = {
        "selected_m_b": report.selected_m_b,
        "cm_tam": report.cm_tam,
        "photon_omega": _jnum(report.photon_omega),
        "detunings": {str(k): _jnum(v) for k, v in sorted(report.detunings.items())},
    }
    _write_text(out / "zeeman_report.json", [json.dumps(doc, sort_keys=True, indent=1), "\n"])
    _sidecar(cfg, out, args.show_si)
    return 0


def cmd_baseline(args) -> int:
    cfg = _resolve(args)
    out = Path(args.out)
    de = _bare_transition_energy(cfg)
    direction = -1.0 if cfg["geometry"] == "counter" else 1.0
    photon = PlaneWavePhoton(np.array([0.0, 0.0, direction * de * ALPHA]),
                             cfg["helicity"], de)
    channel = _channel(cfg, de)
    config = KinematicConfig(M_total=cfg["mass"],
                             P_a=np.array([0.0, 0.0, cfg["p_z"]]),
                             photon=photon, channel=channel,
                             geometry=cfg["geometry"])
    report = baseline_plane_wave(config)
    doc = {
        "P_b": [_jnum(v) for v in report["P_b"]],
        "E_b": _jnum(report["E_b"]),
        "amplitude_abs": _jnum(report["amplitude_abs"]),
    }
    _write_text(out / "baseline_report.json", [json.dumps(doc, sort_keys=True, indent=1), "\n"])
    _sidecar(cfg, out, args.show_si)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistatom",
        description="Twisted-photon absorption by hydrogen-like atoms")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "amplitudes": cmd_amplitudes,
        "photon-field": cmd_photon_field,
        "cm-state": cmd_cm_state,
        "zeeman": cmd_zeeman,
        "baseline": cmd_baseline,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=".")
        p.add_argument("--points", type=int, default=None)
        p.add_argument("--theta-max", type=float, default=None)
        p.add_argument("--resolution", type=int, default=None)
        p.add_argument("--impact-b", nargs=2, type=float, default=None,
                       metavar=("X", "Y"))
        p.add_argument("--tilt", nargs=2, type=float, default=None,
                       metavar=("PX", "PY"))
        p.add_argument("--infinite-mass", action="store_true")
        p.add_argument("--show-si", action="store_true")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TwistatomError as exc:
        category = type(exc).__name__
        print(json.dumps({"error": category, "message": str(exc)}), file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(json.dumps({"error": "OutputError", "message": str(exc)}), file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
