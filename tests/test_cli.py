import json
from pathlib import Path

import numpy as np
import pytest

from tarry2d import cli
from tarry2d.quad import osc_integral
from tarry2d.poly import PolySpec


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_poly(tmp_path, name="poly.json"):
    F = PolySpec(1, 1, {(1, 1): 2.0, (1, 0): 0.5})
    path = tmp_path / name
    path.write_text(json.dumps(F.to_json_dict()))
    return path, F


def write_config(tmp_path, name="config.json"):
    rng = np.random.default_rng(42)
    pts = rng.uniform(0, 1, (4, 2))
    path = tmp_path / name
    path.write_text(json.dumps({"k": 2, "points": pts.tolist()}))
    return path


class TestExponent:
    @pytest.mark.parametrize("n,m,thr,div", [
        (1, 1, 6, [1]),
        (2, 1, 11, [1, 2]),
        (2, 2, 20, [1, 2, 3, 4, 5]),
        (3, 1, 18, [1, 2, 3, 4]),
    ])
    def test_table(self, capsys, n, m, thr, div):
        code, out = run_cli(capsys, "exponent", str(n), str(m))
        assert code == 0
        obj = json.loads(out)
        assert obj["threshold"] == thr
        assert obj["divergent_k"] == div
        assert obj["smallest_convergent_k"] == div[-1] + 1

    def test_bad_degree(self, capsys):
        code, _ = run_cli(capsys, "exponent", "0", "1")
        assert code == 2


class TestIntegral:
    def test_matches_library(self, capsys, tmp_path):
        path, F = write_poly(tmp_path)
        code, out = run_cli(capsys, "integral", str(path), "--tol", "1e-9")
        assert code == 0
        obj = json.loads(out)
        want = osc_integral(F, tol=1e-9).value
        assert obj["value_re"] == pytest.approx(want.real, abs=1e-12)
        assert obj["value_im"] == pytest.approx(want.imag, abs=1e-12)

    def test_garbled_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_cli(capsys, "integral", str(path))
        assert code == 2

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "integral", str(tmp_path / "absent.json"))
        assert code == 2


class TestDeterminism:
    def test_theta_byte_identical_reruns(self, capsys):
        args = ["theta", "1", "1", "1", "4.0", "--samples", "20000",
                "--seed", "7"]
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_theta_worker_invariance(self, capsys):
        base = ["theta", "1", "1", "1", "4.0", "--samples", "20000",
                "--seed", "7"]
        _, out1 = run_cli(capsys, *base, "--workers", "1")
        _, out4 = run_cli(capsys, *base, "--workers", "4")
        obj1, obj4 = json.loads(out1), json.loads(out4)
        del obj1["run"], obj4["run"]
        assert obj1 == obj4

    def test_thinshell_worker_invariance(self, capsys):
        base = ["thinshell", "1", "1", "2", "--h", "0.05",
                "--samples", "600000", "--seed", "7"]
        _, out1 = run_cli(capsys, *base, "--workers", "1")
        _, out4 = run_cli(capsys, *base, "--workers", "4")
        obj1, obj4 = json.loads(out1), json.loads(out4)
        del obj1["run"], obj4["run"]
        assert obj1 == obj4

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_input_error(self, capsys, workers):
        code = cli.main(["theta", "1", "1", "1", "2.0", "--samples", "1000",
                         "--workers", workers])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--workers" in captured.err

    def test_floats_roundtrip_losslessly(self, capsys):
        _, out = run_cli(capsys, "theta", "1", "1", "1", "2.0",
                         "--samples", "5000")
        obj = json.loads(out)
        assert format(obj["value"], ".17g") in out


class TestFormatsAndOutput:
    def test_theta_csv(self, capsys):
        code, out = run_cli(capsys, "theta", "1", "1", "1", "2.0",
                            "--samples", "5000", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,k,R,value,std_error,n_samples,seed"
        assert len(lines) == 2

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "out.json"
        code, out = run_cli(capsys, "exponent", "1", "1",
                            "--output", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["threshold"] == 6

    def test_config_file_defaults_and_overrides(self, capsys, tmp_path):
        cfgfile = tmp_path / "defaults.cfg"
        cfgfile.write_text("samples=5000\nseed=99\n")
        _, out = run_cli(capsys, "theta", "1", "1", "1", "2.0",
                         "--config-file", str(cfgfile))
        obj = json.loads(out)
        assert obj["n_samples"] <= 5000 + 1000
        assert obj["seed"] == 99
        _, out2 = run_cli(capsys, "theta", "1", "1", "1", "2.0",
                          "--config-file", str(cfgfile), "--seed", "5")
        assert json.loads(out2)["seed"] == 5

    def test_bad_config_file(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "theta", "1", "1", "1", "2.0",
                          "--config-file", str(tmp_path / "absent.cfg"))
        assert code == 2

    def test_config_file_without_path(self, capsys):
        code = cli.main(["theta", "1", "1", "1", "2.0", "--config-file"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--config-file" in captured.err


class TestOtherCommands:
    def test_parseval(self, capsys):
        code, out = run_cli(capsys, "parseval", "0.0", "8.0")
        assert code == 0
        obj = json.loads(out)
        assert 0.9 < obj["value"] <= 1.0 + 1e-6
        assert obj["plancherel_constant_expected"] == 1.0

    def test_gram(self, capsys, tmp_path):
        path = write_config(tmp_path)
        code, out = run_cli(capsys, "gram", str(path), "--n", "1", "--m", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["G0"] >= 0.0
        assert obj["translation"]["abs_diff"] <= 1e-9 * max(obj["G0"], 1.0)
        assert obj["scaling"]["rel_diff"] <= 1e-9

    def test_thinshell_theta_form_hypothesis_failure(self, capsys):
        code, _ = run_cli(capsys, "thinshell", "1", "1", "1", "--theta-form",
                          "--samples", "1000")
        assert code == 1

    def test_thinshell_weighted(self, capsys):
        code, out = run_cli(capsys, "thinshell", "1", "1", "2", "--h", "0.05",
                            "--samples", "200000", "--weight", "sqrtG0")
        assert code == 0
        assert json.loads(out)["value"] > 0.0

    @pytest.mark.parametrize("args", [
        ["1", "1", "0"], ["1", "1", "-1", "--theta-form"],
        ["1", "1", "2", "--h", "nan"], ["1", "1", "2", "--h", "inf"],
        ["1", "1", "2", "--u", "nan"], ["1", "1", "2", "--u=-inf"],
        ["1", "1", "2", "--u", "-inf"],
        ["1", "1", "2", "--theta-form", "--weight", "sqrtG0"],
        ["1", "1", "2", "--theta-form", "--u", "0.1"],
        ["1", "1", "2", "--theta-form", "--u", "nan"],
    ])
    def test_thinshell_bad_input_is_input_error(self, capsys, args):
        code = cli.main(["thinshell", *args, "--samples", "1000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("input error:")

    def test_thinshell_negative_float_value(self, capsys):
        base = ["thinshell", "1", "1", "2", "--h", "0.05", "--samples", "20000"]
        code, out = run_cli(capsys, *base, "--u", "-1e-3")
        assert code == 0
        assert out == run_cli(capsys, *base, "--u=-1e-3")[1]

    def test_thinshell_theta_form_takes_default_weight_and_level(self, capsys):
        base = ["thinshell", "1", "1", "2", "--theta-form", "--samples", "20000"]
        code, out = run_cli(capsys, *base)
        assert code == 0
        assert out == run_cli(capsys, *base, "--weight", "none", "--u", "0")[1]

    def test_thinshell_reports_effective_sample_size(self, capsys):
        code, out = run_cli(capsys, "thinshell", "1", "1", "2", "--h", "0.05",
                            "--samples", "200000")
        obj = json.loads(out)
        assert code == 0
        assert obj["effective_sample_size"] == obj["n_accepted"] > 0

    def test_theta_reports_requested_samples(self, capsys):
        # largest-remainder allocation: no sample is lost to flooring
        code, out = run_cli(capsys, "theta", "1", "1", "1", "2",
                            "--samples", "1000")
        assert code == 0
        assert json.loads(out)["n_samples"] == 1000

    def test_boxes(self, capsys):
        code, out = run_cli(capsys, "boxes", "1", "1", "1",
                            "--scales", "1", "2", "--beta-samples", "5")
        assert code == 0
        obj = json.loads(out)
        assert obj["disjointness"]["violations"] == []
        assert len(obj["sweep"]) == 1 + 4
        assert all(s["margin_max"] <= 0.0 for s in obj["sweep"])

    def test_diagnose(self, capsys):
        code, out = run_cli(capsys, "diagnose", "1", "1", "1",
                            "--radii", "2", "4", "8", "--samples", "10000")
        assert code == 0
        obj = json.loads(out)
        assert obj["classification"] == "divergent"
        assert obj["theorem_sign"] == -1

    @pytest.mark.parametrize("workers", ["1", "2", "4"])
    def test_boxes_golden_output(self, capsys, workers):
        # bytes of the per-phase sweep, before the batched sweep replaced it
        golden = (Path(__file__).parent / "data" / "boxes_2_1_2_scales_2_4_8.json").read_text()
        code, out = run_cli(capsys, "boxes", "2", "1", "2", "--scales", "2", "4", "8",
                            "--workers", workers)
        assert code == 0
        assert out == golden


class TestInputContract:
    @pytest.mark.parametrize("argv", [
        ["boxes", "1", "1", "1", "--scales", "0"],
        ["boxes", "1", "1", "1", "--scales", "-2"],
        ["boxes", "1", "1", "1", "--beta-samples", "0"],
        ["parseval", "inf", "3"], ["parseval", "nan", "3"],
        ["parseval", "0.3", "inf"], ["parseval", "0.3", "nan"],
        ["theta", "1", "1", "1", "inf"], ["theta", "1", "1", "1", "nan"],
        ["diagnose", "1", "1", "1", "--radii", "2", "4", "inf"],
        ["theta", "1"], ["nosuch"], ["theta", "1", "1", "1", "2", "--bogus"],
        ["theta", "1", "1", "1", "x"], ["boxes", "1", "1", "1", "--format", "xml"],
    ])
    def test_one_line_exit_2(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("input error:")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command", [
        ["theta", "1", "1", "1", "2"], ["theta", "1", "2", "1", "2", "--samples", "200"],
        ["diagnose", "1", "1", "1"], ["parseval", "0.3", "3"], ["integral"],
    ])
    def test_bad_tol(self, capsys, tmp_path, command, tol):
        if command == ["integral"]:
            command = ["integral", str(write_poly(tmp_path)[0])]
        code = cli.main([*command, "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("input error:") and "tol" in captured.err

    def test_infinite_coordinate_in_point_file(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"k": 1, "points": [[0.1, 0.2], [Infinity, 0.5]]}')
        code = cli.main(["gram", str(path), "--n", "1", "--m", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "finite" in captured.err

    def test_infinite_coefficient_in_polynomial_file(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"n": 1, "m": 1, "coeffs": [{"i": 1, "j": 0, "value": Infinity}]}')
        code = cli.main(["integral", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1 and "not finite" in captured.err
