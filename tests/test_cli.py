"""End-to-end CLI tests: parsing, exit codes, and output schemas."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multifractal

from multifractal import UsageError, symbolic
from multifractal.cli import main, parse_config, parse_linear_grid, parse_scale_grid

from conftest import dump_system

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
        assert cfg.q_grid.size == 64
        assert cfg.format == "csv"

    def test_ball_example(self, s1_path):
        cfg = parse_config(["ball", "-s", s1_path, "-x", "0.5", "-r", "0.25",
                            "--tol", "1e-9"])
        assert cfg.command == "ball"
        assert cfg.tol == 1e-9

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
        # 16001 types of 16000 free letters: over the bit budget, refused
        # before the type walk, which would otherwise run for minutes
        res = run_cli_process(["moran", "-s", s1_path, "--alpha", "1.0",
                               "--epsilon", "0.1", "--n", "16000"])
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("SizeCapError:")
        assert res.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", [
        [], ["spectrum"], ["assouad-word"], ["greedy"], ["moran"], ["ball"],
        ["doubling-scan"], ["assouad-scan"], ["witness"], ["abundance"]])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_returns_zero(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command + [flag])
        assert code == 0 and err == ""
        assert out.startswith(f"usage: {' '.join(['multifractal'] + command)} ")

    def test_help_process_exits_zero(self):
        res = run_cli_process(["moran", "-h"])
        assert res.returncode == 0 and res.stderr == ""
        assert res.stdout.startswith("usage: multifractal moran ")

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

    def test_pair_budget_flag_is_gone(self, capsys, s1_path):
        # a ratio >= 2 grid in (0, 1] has at most 1,075 scales, so every
        # pair is scanned; the flag had nothing to cap
        code, out, err = run_cli(capsys, ["assouad-scan", "-s", s1_path,
                                          "-x", "0.0", "--pair-budget", "5"])
        assert code == 2 and out == ""
        assert err.startswith("UsageError: unrecognized arguments")


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_per_window_scans_each_length_once(self, capsys, s1_path,
                                               monkeypatch, fmt):
        scans = []
        scan = symbolic._window_sups

        def counting(*args):
            scans.append(args[2:])
            return scan(*args)

        monkeypatch.setattr(symbolic, "_window_sups", counting)
        code, out, _ = run_cli(capsys, ["assouad-word", "-s", s1_path,
                                        "--word", "122", "--length", "900",
                                        "--windows", "100:800", "--per-window",
                                        "--format", fmt])
        assert code == 0 and scans == [(100, 800)]
        rows = (json.loads(out) if fmt == "json"
                else out.splitlines()[1:])
        assert len(rows) == 701


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

    @pytest.mark.parametrize("system,argv", [
        (None, ["--n-target", "1e308", "--depth-cap", "2000"]),
        ({"probs": [0.4999999, 0.5000001], "ratios": [0.5, 0.5],
          "translations": [0.0, 0.5]},
         ["--n-target", "1e300", "--depth-cap", "100000000000000000000"]),
    ])
    def test_witness_out_of_float_range_is_one_line(self, tmp_path, s1_path,
                                                    system, argv):
        # the first: a mass ratio past float max at depth 1025 (it raised
        # OverflowError); the second: cylinders that underflow near depth
        # 1.7e9 (it walked there level by level)
        path = s1_path
        if system is not None:
            path = str(tmp_path / "tiny_step.json")
            (tmp_path / "tiny_step.json").write_text(json.dumps(system))
        res = run_cli_process(["witness", "-s", path, *argv])
        assert res.returncode == 1 and res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("DomainError: ")

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


_GEOMETRY_ARGV = [["ball", "-x", "0.5", "-r", "0.25"],
                  ["doubling-scan", "-x", "0.3"],
                  ["assouad-scan", "-x", "0"],
                  ["witness", "--n-target", "64"]]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", ["probs", "ratios", "translations"])
def test_non_finite_system_field(capsys, tmp_path, field, token):
    """A system file with NaN or +-Infinity in any field is refused."""
    doc = {"probs": ["0.3333333333333333", "0.6666666666666666"],
           "ratios": ["0.5", "0.5"], "translations": ["0.0", "0.5"]}
    doc[field][0] = token  # JSON text, as json.dumps would write it
    path = tmp_path / "bad.json"
    path.write_text("{" + ", ".join(f'"{key}": [{", ".join(values)}]'
                                    for key, values in doc.items()) + "}")
    for argv in _GEOMETRY_ARGV:
        code, out, err = run_cli(capsys, [*argv, "-s", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("RangeError: ") and err.count("\n") == 1


def test_import_leaves_scipy_unloaded():
    """numpy is the only runtime dependency; scipy would cost start-up.

    Nothing fans out over threads either, so concurrent.futures stays out.
    """
    env = package_env()
    probe = ("import sys, multifractal; print([m in sys.modules for m in "
             "('scipy', 'concurrent.futures', 'fractions', 'hashlib')])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[False, False, False, False]"


# -- any argv -----------------------------------------------------------------
# Values per flag: finite, boundary, NaN, infinite, malformed and empty; the
# first of each pool works, and an example varies up to two flags. Sizes stay
# small; a huge count appears only where it is refused before anything is
# allocated or looped over.

_REAL = ["0", "-1", "0.5", "1", "2", "16", "1e-300", "1e400", "-1e400", "nan",
         "inf", "-inf", "abc", "", "1,5"]
_COUNT = ["0", "1", "2", "8", "-1", "abc", "", "1.5", "1e3"]
_HUGE = "100000000000000000000"
_SCALES = ["2^(-k), k=1..12", "2^(-k), k=5..1", "1^(-k), k=1..3", "0.5, 0.25",
           "0.5,,0.25", "", "abc", "nan", "inf", "0", "-0.5", "2", "1e-300",
           f"2^(-k), k=1..{_HUGE}"]
_WORDS = ["12", "1", "3", "0", "-1", "abc", "1,,2", "70000,1", "1,2", "", " ",
          "1 2"]
_FLAGS = {
    "spectrum": {"--q-grid": [
        "-5:5:9", "0:2:3", "nan:1:3", "inf:1:3", "1e308:-1e308:3",
        "1.7e308:1.7e308:1", "1e6:1e6:1", "0:1:0", "0:1:-1", "0:1", "a:b:c",
        "", f"0:1:{_HUGE}"]},
    "assouad-word": {
        "--word": _WORDS,
        "--length": ["200", "1", "40", "0", "-1", "abc", _HUGE],
        "--windows": ["10:40", "1:1", "0:5", "5:1", "a:b", "1:2:3", "",
                      f"1:{_HUGE}"],
        "--per-window": [None, ""]},
    "greedy": {"--alpha": ["1.2"] + _REAL,
               "--length": ["200", "1", "0", "-1", "abc", "", _HUGE]},
    "moran": {"--alpha": ["1.2"] + _REAL, "--epsilon": ["0.05"] + _REAL,
              "--n": ["16"] + _COUNT + [_HUGE],
              "--stages": ["20"] + _COUNT + [_HUGE]},
    "ball": {"-x": ["0.5"] + _REAL, "-r": ["0.25"] + _REAL,
             "--tol": ["1e-9"] + _REAL, "--depth-cap": [None] + _COUNT + [_HUGE]},
    "doubling-scan": {"-x": ["0.3"] + _REAL, "--gamma": ["16"] + _REAL,
                      "--scales": _SCALES, "--rel-tol": ["1e-9"] + _REAL},
    "assouad-scan": {"-x": ["0"] + _REAL, "--scales": _SCALES,
                     "--min-ratio": ["4"] + _REAL, "--rel-tol": ["1e-9"] + _REAL},
    "witness": {"--n-target": ["64"] + _REAL + ["1e308"],
                "--depth-cap": ["32"] + _COUNT + ["2000", _HUGE]},
    "abundance": {"--n": ["8"] + _COUNT + [_HUGE],
                  "--delta": ["0.25"] + _REAL,
                  "--kappa": _WORDS},
}
_SYSTEMS = {
    "s1.json": dump_system(multifractal.WeightedSystem(
        (1 / 3, 2 / 3), (0.5, 0.5), (0.0, 0.5))).encode(),
    "no_geometry.json": b'{"probs": [0.25, 0.75], "ratios": [0.5, 0.5]}',
    "latin1.json": '{"probs": [0.5, 0.5], "ratios": ["\u00bd"]}'.encode("latin-1"),
    "broken.json": b'{"probs": [0.5',
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    pools = dict(_FLAGS[command], **{"-s": list(_SYSTEMS) + ["none.json"],
                                     "--format": [None, "csv", "json", "xml"]})
    varied = draw(st.sets(st.sampled_from(sorted(pools)), max_size=2))
    argv = [command]
    for flag, pool in pools.items():
        value = draw(st.sampled_from([None] + pool)) if flag in varied else pool[0]
        if value is not None:
            argv += [flag] if flag == "--per-window" else [flag, value]
    return argv


@pytest.fixture(scope="module")
def system_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("systems")
    for name, data in _SYSTEMS.items():
        (path / name).write_bytes(data)
    return path


@settings(max_examples=300, deadline=None)
@given(argv=_argvs())
@example(argv=["assouad-word", "--word", "abc", "-s", "s1.json"])
@example(argv=["assouad-word", "--word", "1,,2", "-s", "s1.json"])
@example(argv=["assouad-word", "--word", "70000,1", "-s", "s1.json"])
@example(argv=["abundance", "--n", "8", "--delta", "0.25", "--kappa", "abc",
               "-s", "s1.json"])
@example(argv=["spectrum", "-s", "latin1.json"])
@example(argv=["spectrum", "--q-grid", "inf:1:3", "-s", "s1.json"])
@example(argv=["-h"])
@example(argv=["spectrum", "-h"])
@example(argv=["moran", "--alpha", "1.2", "--help", "-s", "s1.json"])
@example(argv=["witness", "-s", "none.json", "-h"])
def test_any_argv_exits_cleanly(system_dir, argv):
    """Exit 0, 1 or 2, never a traceback; a failure is one stderr line."""
    argv = [str(system_dir / tok) if tok in _SYSTEMS or tok == "none.json"
            else tok for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
        assert (err.getvalue().split(":")[0] == "UsageError") == (code == 2)
