import json
import subprocess
import sys

import pytest

from twistatom.cli import main


def run_cli(args):
    return main(list(args))


class TestAmplitudes:
    def test_basic_run(self, tmp_path):
        rc = run_cli(["amplitudes", "--out", str(tmp_path), "--points", "5",
                      "--theta-max", "0.5"])
        assert rc == 0
        lines = (tmp_path / "amplitudes.csv").read_text().splitlines()
        assert lines[0] == "theta_k,MN_mb_plus1,MN_mb_0,MN_mb_minus1"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0, abs=1e-10)
        assert (tmp_path / "run_config.json").exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli(["amplitudes", "--out", str(out), "--points", "4",
                     "--theta-max", "0.4"])
        assert (a / "amplitudes.csv").read_bytes() == (b / "amplitudes.csv").read_bytes()
        assert (a / "run_config.json").read_bytes() == (b / "run_config.json").read_bytes()


class TestPhotonField:
    def test_outputs(self, tmp_path):
        rc = run_cli(["photon-field", "--out", str(tmp_path), "--resolution", "11"])
        assert rc == 0
        for name in ("photon_density", "photon_arg_ax", "photon_arg_az"):
            lines = (tmp_path / f"{name}.jsonl").read_text().splitlines()
            assert len(lines) == 11 * 11
            row = json.loads(lines[0])
            assert set(row) == {"kx", "ky", "value"}

    @pytest.mark.parametrize("resolution", ["-1", "0", "1"])
    def test_resolution_below_two_rejected(self, tmp_path, capsys, resolution):
        rc = run_cli(["photon-field", "--out", str(tmp_path), "--resolution", resolution])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError"
        assert not list(tmp_path.iterdir())


class TestCmState:
    def test_report_contents(self, tmp_path):
        rc = run_cli(["cm-state", "--out", str(tmp_path), "--resolution", "401"])
        assert rc == 0
        report = json.loads((tmp_path / "cm_report.json").read_text())
        # defaults: m_a=0, m_gamma=4, m_b=1 -> nu = 3
        assert report["nu"] == 3
        assert report["winding_measured"] == 3
        assert report["winding_residual"] < 0.1
        assert report["kappa"] > 0

    def test_large_impact_offset(self, tmp_path):
        # default window is 12/kappa, about 22072 a.u.: b_x is 0.3 of it
        rc = run_cli(["cm-state", "--out", str(tmp_path), "--resolution", "145",
                      "--impact-b", "6622", "0"])
        assert rc == 0
        report = json.loads((tmp_path / "cm_report.json").read_text())
        assert report["winding_measured"] == report["nu"] == 3

    def test_infinite_mass_forbidden_channel(self, tmp_path):
        # defaults have m_gamma=4 but delta m = 1
        rc = run_cli(["cm-state", "--out", str(tmp_path), "--infinite-mass"])
        assert rc == 3

    def test_config_file_and_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("m_gamma = 2\ntheta_k = 0.25  # opening angle\n")
        out = tmp_path / "out"
        rc = run_cli(["cm-state", "--config", str(cfgfile), "--out", str(out),
                      "--resolution", "301"])
        assert rc == 0
        report = json.loads((out / "cm_report.json").read_text())
        assert report["nu"] == 1
        sidecar = json.loads((out / "run_config.json").read_text())
        assert sidecar["m_gamma"] == 2
        assert sidecar["resolution"] == 301

    def test_bad_config_line_number(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("m_gamma = 2\nnot a pair\n")
        rc = run_cli(["cm-state", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert ":2:" in err["message"]

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("not_a_key = 1\n")
        rc = run_cli(["cm-state", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 2


class TestZeeman:
    def test_selection_report(self, tmp_path):
        cfgfile = tmp_path / "z.cfg"
        cfgfile.write_text("B = 1e-5\ntune_m_b = 1\n")
        rc = run_cli(["zeeman", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "zeeman_report.json").read_text())
        assert report["selected_m_b"] == 1
        assert report["cm_tam"] == 3
        assert set(report["detunings"]) == {"-1", "0"}

    def test_zero_field_exit_code(self, tmp_path, capsys):
        rc = run_cli(["zeeman", "--out", str(tmp_path)])
        assert rc == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SelectionError"


class TestBaseline:
    def test_report(self, tmp_path):
        rc = run_cli(["baseline", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "baseline_report.json").read_text())
        assert report["E_b"] > 0
        assert report["amplitude_abs"] > 0
        assert report["P_b"][2] < 0  # counter geometry


class TestSidecar:
    def test_show_si_block(self, tmp_path):
        rc = run_cli(["amplitudes", "--out", str(tmp_path), "--points", "2",
                      "--theta-max", "0.1", "--show-si"])
        assert rc == 0
        doc = json.loads((tmp_path / "run_config.json").read_text())
        assert doc["si"]["hartree_in_eV"] == pytest.approx(27.211386245988)

    def test_unwritable_out_dir(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        rc = run_cli(["amplitudes", "--out", str(target / "sub"), "--points", "2",
                      "--theta-max", "0.1"])
        assert rc == 6


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "twistatom.cli", "baseline", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "baseline_report.json").exists()
