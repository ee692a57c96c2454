"""End-to-end CLI tests: parsing, exit codes, and output schemas."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import multifractal

from multifractal import UsageError, dump_system
from multifractal.cli import main, parse_config, parse_linear_grid, parse_scale_grid

A_AT_0 = 1.0849625007211563


@pytest.fixture
def s1_path(tmp_path, s1):
    p = tmp_path / "s1.json"
    p.write_text(dump_system(s1))
    return str(p)


@pytest.fixture
def uniform_path(tmp_path, uniform2):
    p = tmp_path / "uniform.json"
    p.write_text(dump_system(uniform2))
    return str(p)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def package_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(multifractal.__file__).resolve().parents[1])
    return env


def run_cli_process(argv, timeout=30.0):
    """The CLI in its own process; a run past timeout fails the test."""
    return subprocess.run([sys.executable, "-m", "multifractal.cli", *argv],
                          env=package_env(), capture_output=True, text=True,
                          timeout=timeout)


class TestGridParsing:
    def test_linear_grid(self):
        grid = parse_linear_grid("-5:5:64")
        assert grid.size == 64
        assert grid[0] == -5.0 and grid[-1] == 5.0

    def test_linear_grid_malformed(self):
        with pytest.raises(UsageError):
            parse_linear_grid("1:2")

    def test_geometric_scales(self):
        grid = parse_scale_grid("2^(-k), k=1..5")
        assert grid.tolist() == [0.5 ** k for k in range(1, 6)]

    def test_scale_list(self):
        assert parse_scale_grid("0.5, 0.25").tolist() == [0.5, 0.25]

    def test_scale_grid_malformed(self):
        with pytest.raises(UsageError):
            parse_scale_grid("2^(-k), k=5..1")


class TestParseConfig:
    def test_spectrum_example(self, s1_path):
        cfg = parse_config(["spectrum", "-s", s1_path, "--q-grid", "-5:5:64"])
        assert cfg.command == "spectrum"
        assert parse_linear_grid(cfg.params.q_grid).size == 64
        assert cfg.format == "csv"

    def test_ball_example(self, s1_path):
        cfg = parse_config(["ball", "-s", s1_path, "-x", "0.5", "-r", "0.25",
                            "--tol", "1e-9"])
        assert cfg.command == "ball"
        assert cfg.params.tol == 1e-9

    def test_missing_system_flag(self):
        with pytest.raises(UsageError):
            parse_config(["spectrum"])

    def test_missing_system_file(self, tmp_path):
        with pytest.raises(UsageError):
            parse_config(["spectrum", "-s", str(tmp_path / "nope.json")])

    def test_unknown_command(self, s1_path):
        with pytest.raises(UsageError):
            parse_config(["frobnicate", "-s", s1_path])

    def test_json_only_command_refuses_csv(self, s1_path):
        with pytest.raises(UsageError):
            parse_config(["moran", "-s", s1_path, "--alpha", "1.2",
                          "--epsilon", "0.05", "--n", "16", "--format", "csv"])
        cfg = parse_config(["witness", "-s", s1_path, "--n-target", "4"])
        assert cfg.format == "json"

    def test_domain_validation(self, s1_path):
        with pytest.raises(UsageError):
            parse_config(["ball", "-s", s1_path, "-x", "0.5", "-r", "-1"])
        with pytest.raises(UsageError):
            parse_config(["spectrum", "-s", s1_path, "--q-grid", "oops"])


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        code, _, err = run_cli(capsys, ["spectrum"])
        assert code == 2
        assert err.startswith("UsageError:")

    def test_computational_error_is_one(self, capsys, s1_path):
        code, _, err = run_cli(capsys, ["moran", "-s", s1_path, "--alpha", "1.2",
                                        "--epsilon", "0.05", "--n", "4"])
        assert code == 1
        assert err.startswith("NeedLargerN:")

    def test_domain_error_surfaces_name(self, capsys, s1_path):
        code, _, err = run_cli(capsys, ["assouad-scan", "-s", s1_path,
                                        "-x", "0.0", "--scales", "0.5,0.4"])
        assert code == 1
        assert err.startswith("DomainError:")

    @pytest.mark.parametrize("argv", [
        ["ball", "-x", "0.5", "-r", "nan"],
        ["ball", "-x", "0.5", "-r", "0.25", "--tol", "nan"],
        ["doubling-scan", "-x", "0.3", "--gamma", "inf"],
        ["spectrum", "--q-grid", "nan:1:3"],
        ["moran", "--alpha", "1.0", "--epsilon", "nan", "--n", "16"],
        ["moran", "--alpha", "1.0", "--epsilon", "inf", "--n", "16"],
        ["witness", "--n-target", "nan"],
        ["assouad-scan", "-x", "0.3", "--min-ratio", "nan"],
    ])
    def test_non_finite_input_is_one(self, capsys, s1_path, argv):
        code, out, err = run_cli(capsys, argv + ["-s", s1_path])
        assert code == 1
        assert out == ""
        assert err.startswith("DomainError:") and err.count("\n") == 1

    def test_overflowing_q_prints_one_line(self, capsys, s1_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["spectrum", "-s", s1_path,
                                              "--q-grid", "1.7e308:1.7e308:1"])
        assert code == 1 and out == ""
        assert err.startswith("DomainError:") and err.count("\n") == 1

    # refused before anything of that size is allocated or looped over
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--q-grid", "0:1:100000000000000000000"],
        ["assouad-word", "--word", "12", "--length", "100000000000000000000",
         "--windows", "1:2"],
        ["greedy", "--alpha", "1.0", "--length", "100000000000000000000"],
        ["moran", "--alpha", "1.0", "--epsilon", "0.1", "--n", "16",
         "--stages", "100000000000000000000"],
        ["doubling-scan", "-x", "0.3",
         "--scales", "2^(-k), k=1..100000000000000000000"],
    ])
    def test_oversized_count_is_two(self, capsys, s1_path, argv):
        code, out, err = run_cli(capsys, argv + ["-s", s1_path])
        assert code == 2 and out == ""
        assert err.startswith("UsageError:") and err.count("\n") == 1

    def test_oversized_block_family_is_one(self, s1_path):
        # 15999 types of 15998 free letters: over the bit budget, refused
        # before the type walk, which would otherwise run for minutes
        res = run_cli_process(["abundance", "-s", s1_path, "--n", "16000",
                               "--delta", "0.25"])
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("SizeCapError:")
        assert res.stderr.count("\n") == 1

    def test_success_is_zero(self, capsys, s1_path):
        code, out, err = run_cli(capsys, ["ball", "-s", s1_path,
                                          "-x", "0.5", "-r", "0.25"])
        assert code == 0 and err == ""


class TestSpectrumCommand:
    def test_tau_row_values(self, capsys, s1_path):
        code, out, _ = run_cli(capsys, ["spectrum", "-s", s1_path,
                                        "--q-grid", "0:2:3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q,tau,alpha,f,f_bar"
        rows = {float(l.split(",")[0]): [float(v) for v in l.split(",")]
                for l in lines[1:]}
        assert abs(rows[1.0][1]) <= 1e-10
        assert rows[0.0][1] == pytest.approx(1.0, abs=1e-10)
        assert rows[2.0][1] == pytest.approx(math.log2(5.0 / 9.0), abs=1e-10)

    def test_huge_q_gives_finite_row(self, capsys, s1_path):
        code, out, err = run_cli(capsys, ["spectrum", "-s", s1_path,
                                          "--q-grid", "1e6:1e6:1"])
        assert code == 0 and err == ""
        row = [float(v) for v in out.splitlines()[1].split(",")]
        assert all(math.isfinite(v) for v in row)

    def test_json_format_key_order(self, capsys, s1_path):
        code, out, _ = run_cli(capsys, ["spectrum", "-s", s1_path,
                                        "--q-grid", "0:1:2", "--format", "json"])
        assert code == 0
        keys = json.loads(out, object_pairs_hook=lambda p: [k for k, _ in p])
        assert keys[0] == ["q", "tau", "alpha", "f", "f_bar"]

    def test_byte_identical_reruns(self, capsys, tmp_path, s1_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["spectrum", "-s", s1_path, "--q-grid", "-2:2:21"]
        assert main(argv + ["-o", str(out_a)]) == 0
        assert main(argv + ["-o", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        assert len(out_a.read_bytes()) > 0


class TestBallCommand:
    def test_two_cylinder_ball(self, capsys, s1_path):
        code, out, _ = run_cli(capsys, ["ball", "-s", s1_path, "-x", "0.5",
                                        "-r", "0.25", "--tol", "1e-9"])
        assert code == 0
        header, row = out.splitlines()
        assert header == "x,r,lower,upper,depth_used,straddle_mass"
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["lower"]) == pytest.approx(4.0 / 9.0, abs=1e-9)
        assert float(vals["upper"]) == pytest.approx(4.0 / 9.0, abs=1e-9)
        assert int(vals["depth_used"]) == 2


class TestScanCommands:
    def test_doubling_scan_header(self, capsys, s1_path):
        code, out, _ = run_cli(capsys, ["doubling-scan", "-s", s1_path,
                                        "-x", "0.0", "--scales",
                                        "2^(-k), k=2..6"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,lower,upper,ratio_lower,ratio_upper"
        assert len(lines) == 6
        first = [float(v) for v in lines[1].split(",")]
        assert first[3] == pytest.approx(3.0, rel=1e-9)

    def test_assouad_scan_left_edge(self, capsys, s1_path):
        code, out, _ = run_cli(capsys, ["assouad-scan", "-s", s1_path,
                                        "-x", "0.0", "--scales",
                                        "2^(-k), k=1..12"])
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(math.log2(3.0), abs=1e-12)


class TestWordCommands:
    def test_greedy_word(self, capsys, s1_path):
        code, out, _ = run_cli(capsys, ["greedy", "-s", s1_path,
                                        "--alpha", "1.0", "--length", "4"])
        assert code == 0
        header, row = out.splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert vals["word"] == "1221"
        assert float(vals["prefix_ratio"]) == pytest.approx(A_AT_0, abs=1e-12)

    def test_assouad_word_summary(self, capsys, s1_path):
        code, out, _ = run_cli(capsys, ["assouad-word", "-s", s1_path,
                                        "--word", "12", "--length", "2000",
                                        "--windows", "100:400"])
        assert code == 0
        header, row = out.splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert int(vals["length"]) == 2000
        assert float(vals["estimate"]) == pytest.approx(A_AT_0, abs=5e-3)

    def test_assouad_word_per_window(self, capsys, s1_path):
        code, out, _ = run_cli(capsys, ["assouad-word", "-s", s1_path,
                                        "--word", "12", "--length", "500",
                                        "--windows", "10:40", "--per-window"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,sup_ratio"
        assert len(lines) == 32


class TestJsonCommands:
    def test_witness_round_trip(self, capsys, s1_path):
        code, out, _ = run_cli(capsys, ["witness", "-s", s1_path,
                                        "--n-target", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True
        assert doc["i"] == "2111" and doc["j"] == "1222"
        assert doc["gap"] == 0.0
        assert doc["mass_ratio"] == pytest.approx(4.0, rel=1e-12)

    def test_witness_not_found(self, capsys, uniform_path):
        code, out, _ = run_cli(capsys, ["witness", "-s", uniform_path,
                                        "--n-target", "1.5"])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"found": False, "n_target": 1.5, "depth_cap": 32}

    @pytest.mark.parametrize("system", [
        {"probs": [0.5, 0.5], "ratios": [0.5, 0.5], "translations": [0.0, 0.5]},
        {"probs": [0.5, 0.5], "ratios": [0.3, 0.3], "translations": [0.0, 0.7]},
    ])
    def test_witness_ends_for_any_depth_cap(self, tmp_path, system):
        # equal edge weights never raise the mass ratio past depth 0, and a
        # gapped system has no shared point to descend to
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        res = run_cli_process(["witness", "-s", str(path), "--n-target", "4",
                               "--depth-cap", "100000000000000000000"])
        assert res.returncode == 0 and res.stderr == ""
        assert json.loads(res.stdout)["found"] is False

    def test_moran_spec_schema(self, capsys, s1_path):
        code, out, _ = run_cli(capsys, ["moran", "-s", s1_path, "--alpha", "1.0",
                                        "--epsilon", "0.1", "--n", "128",
                                        "--stages", "10"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"n", "alpha", "epsilon", "s", "M", "spine",
                            "block_count", "s_k"}
        assert len(doc["M"]) == 10 and len(doc["s_k"]) == 10
        assert all(s_k > doc["s"] for s_k in doc["s_k"])


class TestAbundanceCommand:
    def test_appended_family_row(self, capsys, s1_path):
        code, out, _ = run_cli(capsys, ["abundance", "-s", s1_path,
                                        "--n", "8", "--delta", "0.25",
                                        "--kappa", "12"])
        assert code == 0
        header, row = out.splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["a1_min_ratio"]) == 0.125
        assert vals["a2_delta_dense"] == "true"


class TestOutputFile:
    def test_writes_file_not_stdout(self, capsys, tmp_path, s1_path):
        out_path = tmp_path / "ball.csv"
        code, out, _ = run_cli(capsys, ["ball", "-s", s1_path, "-x", "0.5",
                                        "-r", "0.25", "-o", str(out_path)])
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("x,r,lower")


def test_import_leaves_scipy_unloaded():
    """numpy is the only runtime dependency; scipy would cost start-up.

    Nothing fans out over threads either, so concurrent.futures stays out.
    """
    env = package_env()
    probe = ("import sys, multifractal; print([m in sys.modules "
             "for m in ('scipy', 'concurrent.futures')])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[False, False]"
