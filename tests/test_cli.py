import json
from pathlib import Path

import numpy as np
import pytest

from tarry2d import cli
from tarry2d.quad import osc_integral
from tarry2d.theta import theta_truncated
from tarry2d.poly import PolySpec

DATA = Path(__file__).parent / "data"

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

    def test_huge_phase_is_computational_failure(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(PolySpec(1, 2, {(1, 2): 1e300}).to_json_dict()))
        code = cli.main(["integral", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "phase too large" in captured.err

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

    def test_repeated_calls_match_a_fresh_parser(self, capsys, tmp_path, monkeypatch):
        # main builds its parser once; no call may leave state in it for the next
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text("radii = 2 4 8\nsamples = 500\ntol = 1e-5\n")
        theta_argv = ["theta", "1", "1", "1", "2", "--samples", "500"]
        calls = [[*theta_argv, "--format", "csv"], theta_argv,
                 ["diagnose", "1", "1", "1", "--config-file", "c.cfg"],
                 [*theta_argv, "--seed", "-1"],
                 ["diagnose", "1", "1", "1", "--samples", "500"]]

        def run(argv):
            code = cli.main(argv)
            return code, *capsys.readouterr()

        cli.build_parser.cache_clear()
        reused = [run(argv) for argv in calls]
        assert cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(run(argv))
        assert reused == fresh
        assert [r[0] for r in reused] == [0, 0, 0, 2, 0]

    def test_floats_roundtrip_losslessly(self, capsys):
        _, out = run_cli(capsys, "theta", "1", "1", "1", "2.0",
                         "--samples", "5000")
        obj = json.loads(out)
        est = theta_truncated(1, 1, 1, 2.0, 5000, cli.DEFAULT_SEED, tol=1e-6)
        assert obj["value"].hex() == est.value.hex()
        assert obj["std_error"].hex() == est.std_error.hex()


class TestFormatsAndOutput:
    def test_theta_csv(self, capsys):
        code, out = run_cli(capsys, "theta", "1", "1", "1", "2.0",
                            "--samples", "5000", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,k,R,value,std_error,n_samples,seed"
        assert len(lines) == 2

    @pytest.mark.parametrize("argv", [
        ["theta", "1", "1", "1", "2", "--samples", "1000"],
        ["diagnose", "1", "1", "1", "--radii", "2", "4", "8", "--samples", "2000"],
        ["boxes", "1", "1", "1", "--scales", "1", "2"],
    ])
    def test_csv_header_is_the_json_row_keys(self, capsys, argv):
        obj = json.loads(run_cli(capsys, *argv)[1])
        del obj["run"]
        rows = obj.get("estimates") or obj.get("sweep") or [obj]
        code, out = run_cli(capsys, *argv, "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        # theta's per-shell list stays in the JSON
        assert lines[0].split(",") == [k for k, v in rows[0].items() if not isinstance(v, list)]
        assert len(lines) == 1 + len(rows)

    @pytest.mark.parametrize("argv", [
        ["parseval", "0.3", "5"], ["exponent", "1", "1"], ["integral", "phase_1_1.json"],
        ["gram", "points_2_1.json", "--n", "1", "--m", "1"],
        ["thinshell", "1", "1", "2", "--samples", "1000"],
    ])
    def test_format_without_a_table_is_input_error(self, capsys, monkeypatch, argv):
        monkeypatch.chdir(DATA)
        code = cli.main([*argv, "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("input error:")

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

    def test_config_file_equals_form(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("samples=500\nseed=3\n")
        code, out = run_cli(capsys, "theta", "1", "1", "1", "2", f"--config-file={cfgfile}")
        obj = json.loads(out)
        assert code == 0
        assert (obj["run"]["samples"], obj["n_samples"], obj["seed"]) == (500, 500, 3)

    def test_key_value_flag_beats_config_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("samples=500\nseed=3\n")
        for flags in (["--samples=200", "--config-file", str(cfgfile)],
                      [f"--config-file={cfgfile}", "--samples=200"]):
            code, out = run_cli(capsys, "theta", "1", "1", "1", "2", *flags)
            obj = json.loads(out)
            assert code == 0
            assert (obj["run"]["samples"], obj["seed"]) == (200, 3)

    @pytest.mark.parametrize("flags", [
        ["--sam", "200", "--config-file", "c.cfg"], ["--config-file", "c.cfg", "--sam=200"],
        ["--config", "c.cfg", "--samp", "200"], ["--samples", "200", "--config=c.cfg"],
    ])
    def test_abbreviated_flag_beats_config_file(self, capsys, tmp_path, monkeypatch, flags):
        # argparse reads --sam as --samples, so the file must not override it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text("samples=500\nseed=3\n")
        code, out = run_cli(capsys, "theta", "1", "1", "1", "2", *flags)
        obj = json.loads(out)
        assert code == 0
        assert (obj["run"]["samples"], obj["seed"]) == (200, 3)

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


class TestRunBlock:
    def test_thinshell_records_level_and_form(self, capsys):
        code, out = run_cli(capsys, "thinshell", "1", "1", "2", "--u", "0.3",
                            "--h", "0.05", "--samples", "1000")
        run = json.loads(out)["run"]
        assert code == 0
        assert (run["u"], run["theta_form"], run["weight"]) == (0.3, False, "none")

    def test_gram_records_point_file(self, capsys, tmp_path):
        path = write_config(tmp_path)
        code, out = run_cli(capsys, "gram", str(path), "--n", "1", "--m", "1")
        assert code == 0
        assert json.loads(out)["run"]["config"] == str(path)

    @pytest.mark.parametrize("argv", [
        ["theta", "1", "1", "1", "2", "--samples", "1000"],
        ["thinshell", "1", "1", "2", "--h", "0.05", "--samples", "1000"],
        ["boxes", "1", "1", "1", "--scales", "1"],
        ["gram", "points_2_1.json", "--n", "1", "--m", "1"],
    ])
    def test_never_holds_workers_or_output(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(DATA)
        dest = tmp_path / "out.json"
        code, out = run_cli(capsys, *argv, "--workers", "2", "--output", str(dest))
        run = json.loads(dest.read_text())["run"]
        assert (code, out) == (0, "")
        assert "workers" not in run and "output" not in run
        assert run["seed"] == cli.DEFAULT_SEED

    def test_config_file_list_is_closed_before_arguments(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("radii=2 4 8\nsamples=2000\n")
        code, out = run_cli(capsys, "diagnose", "1", "1", "1", "--config-file", str(cfgfile))
        run = json.loads(out)["run"]
        assert code == 0
        assert (run["radii"], run["samples"], run["config_file"]) == ([2, 4, 8], 2000, str(cfgfile))
        code, out = run_cli(capsys, "diagnose", "1", "1", "1", "--radii", "3", "6", "9",
                            "--config-file", str(cfgfile))
        assert json.loads(out)["run"]["radii"] == [3, 6, 9]


class TestOtherCommands:
    def test_parseval(self, capsys):
        code, out = run_cli(capsys, "parseval", "0.0", "8.0")
        assert code == 0
        obj = json.loads(out)
        assert 0.9 < obj["value"] <= 1.0 + 1e-6
        assert obj["plancherel_constant_expected"] == 1.0
        assert 0.0 < obj["abs_error_estimate"] <= obj["run"]["tol"]
        assert all(len(obj[k]) == 2 for k in ("x_rule", "b_rule"))

    @pytest.mark.parametrize("gamma,R", [("0.3", "1e5"), ("1e9", "3"), ("0.3", "1e200")])
    def test_parseval_over_budget_is_one_line_exit_1(self, capsys, gamma, R):
        code = cli.main(["parseval", gamma, R])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("computation failed:")

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
        code, out = run_cli(capsys, "boxes", "1", "1", "1", "--scales", "1", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["disjointness"]["violations"] == []
        assert len(obj["sweep"]) == 1 + 4
        assert all(s["margin_max"] <= 0.0 for s in obj["sweep"])

    def test_boxes_does_not_depend_on_the_seed(self, capsys):
        # boxes draws nothing: past the run block, which records the seed, the bytes agree
        outs = [run_cli(capsys, "boxes", "2", "1", "2", "--scales", "1", "2", "--seed", seed)
                for seed in ("1", "2")]
        assert [code for code, _ in outs] == [0, 0]
        tails = [out[out.index('  "disjointness"'):] for _, out in outs]
        assert tails[0] == tails[1] and outs[0][1] != outs[1][1]

    def test_diagnose(self, capsys):
        code, out = run_cli(capsys, "diagnose", "1", "1", "1",
                            "--radii", "2", "4", "8", "--samples", "10000")
        assert code == 0
        obj = json.loads(out)
        assert obj["classification"] == "divergent"
        assert obj["theorem_sign"] == -1

    @pytest.mark.parametrize("workers", ["1", "2", "4"])
    def test_boxes_golden_output(self, capsys, workers):
        # recaptured when the sweep came to report gradient_margin: only each
        # margin_max moved, and run.beta_samples went
        golden = (Path(__file__).parent / "data" / "boxes_2_1_2_scales_2_4_8.json").read_text()
        code, out = run_cli(capsys, "boxes", "2", "1", "2", "--scales", "2", "4", "8",
                            "--workers", workers)
        assert code == 0
        assert out == golden


GOLDEN = [
    # captured when theta's draws moved to rng.uniform32 on streams keyed by R:
    # diagnose's estimate at each radius is theta's at that radius and seed;
    # each estimate's "shells" rows added later, no other line moved;
    # recaptured with the json encoder: only float text changed
    ("theta_1_1_1_2_samples_1000_seed_3.json",
     ["theta", "1", "1", "1", "2", "--samples", "1000", "--seed", "3"]),
    # recaptured with the json encoder: only float text changed
    ("diagnose_1_1_1_radii_2_4_8_samples_2000_seed_3.json",
     ["diagnose", "1", "1", "1", "--radii", "2", "4", "8", "--samples", "2000",
      "--seed", "3"]),
    # captured with two 32-bit uniforms per Philox word; recaptured with the
    # json encoder: only float text changed
    ("thinshell_1_1_2_h_0.05_samples_200000_seed_5.json",
     ["thinshell", "1", "1", "2", "--h", "0.05", "--samples", "200000", "--seed", "5"]),
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name, argv", GOLDEN, ids=[g[0] for g in GOLDEN])
    def test_seeded_command(self, capsys, name, argv, workers):
        golden = (Path(__file__).parent / "data" / name).read_text()
        code, out = run_cli(capsys, *argv, "--workers", workers)
        assert code == 0
        assert out == golden

    # recaptured with the json encoder: only float text changed
    def test_parseval(self, capsys):
        golden = (Path(__file__).parent / "data" / "parseval_0.3_5.json").read_text()
        assert run_cli(capsys, "parseval", "0.3", "5") == (0, golden)


    # captured before osc_integral and n, m >= 2 theta moved onto quad._batch_J
    def test_exponent(self, capsys):
        golden = (DATA / "exponent_2_2.json").read_text()
        assert run_cli(capsys, "exponent", "2", "2") == (0, golden)

    # translation a, b, G0_shifted and abs_diff recaptured when the
    # translation came to draw from stream (seed, 5), and again when it moved
    # to rng.uniform32; recaptured with the json encoder: only float text changed
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_gram(self, capsys, monkeypatch, workers):
        golden = (DATA / "gram_points_2_1_n_2_m_1_seed_3.json").read_text()
        monkeypatch.chdir(DATA)
        assert run_cli(capsys, "gram", "points_2_1.json", "--n", "2", "--m", "1",
                       "--seed", "3", "--workers", workers) == (0, golden)

    # value_re and value_im recaptured, by at most 4.6e-20, when every cos and sin
    # came to quad._cos_sin; recaptured with the json encoder: only float text changed
    @pytest.mark.parametrize("degree", ["1_1", "1_2", "3_1"])
    def test_integral_linear_in_one_variable(self, capsys, monkeypatch, degree):
        golden = (DATA / f"integral_phase_{degree}_tol_1e-9.json").read_text()
        monkeypatch.chdir(DATA)
        assert run_cli(capsys, "integral", f"phase_{degree}.json", "--tol", "1e-9") == (0, golden)


class TestInputContract:
    @pytest.mark.parametrize("argv", [
        ["boxes", "1", "1", "1", "--scales", "0"],
        ["boxes", "1", "1", "1", "--scales", "-2"],
        ["boxes", "1", "1", "1", "--beta-samples", "0"],  # the flag is gone
        ["parseval", "inf", "3"], ["parseval", "nan", "3"],
        ["parseval", "0.3", "inf"], ["parseval", "0.3", "nan"],
        ["theta", "1", "1", "1", "inf"], ["theta", "1", "1", "1", "nan"],
        ["diagnose", "1", "1", "1", "--radii", "2", "4", "inf"],
        # the box volume (2R)^N overflows a float
        ["theta", "1", "1", "1", "1e300", "--samples", "200"],
        ["diagnose", "1", "1", "1", "--radii", "2", "4", "1e300"],
        # ... or underflows to 0, which would leave the shell allocation 0/0
        ["theta", "1", "1", "1", "1e-110", "--samples", "1000"],
        ["diagnose", "1", "1", "1", "--radii", "1e-300", "1e-299", "1e-298"],
        # the thin-shell normaliser (2h)^(2 - N) overflows a float
        ["thinshell", "1", "1", "2", "--h", "1e-320"],
        ["thinshell", "2", "2", "4", "--h", "1e-60", "--theta-form"],
        ["theta", "1"], ["nosuch"], ["theta", "1", "1", "1", "2", "--bogus"],
        ["theta", "1", "1", "1", "x"], ["boxes", "1", "1", "1", "--format", "xml"],
        # scale 512 alone has 262144 sweep rows
        ["boxes", "1", "1", "1", "--scales", "512"],
        ["boxes", "1", "1", "1", "--scales", "2", "300"],
        # the box volume overflows a float, or underflows to 0
        ["boxes", "200", "1", "1", "--scales", "2"],
        ["boxes", "30", "30", "1", "--scales", "2"],
    ])
    def test_one_line_exit_2(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("input error:")

    def test_diagnose_at_the_largest_seed(self, capsys):
        # every radius draws with the given seed, so the top of the domain is valid
        code, out = run_cli(capsys, "diagnose", "1", "1", "1", "--radii", "2", "4", "8",
                            "--samples", "500", "--seed", str(2**64 - 1))
        assert code == 0
        assert json.loads(out)["run"]["seed"] == 2**64 - 1

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", [
        ["theta", "1", "1", "1", "2", "--samples", "500"],
        ["diagnose", "1", "1", "1", "--samples", "500"],
        ["thinshell", "1", "1", "2", "--samples", "500"],
        ["gram", "points_2_1.json", "--n", "1", "--m", "1"],
        ["boxes", "1", "1", "1"],
    ])
    def test_seed_outside_64_bits(self, capsys, monkeypatch, command, seed):
        # every seeded command shares philox_stream's seed domain [0, 2^64)
        monkeypatch.chdir(DATA)
        code = cli.main([*command, "--seed", seed])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("input error: seed must be in [0, 2**64)")

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

    def test_parseval_tol_beyond_reach_of_scaled_rule(self, capsys):
        # tol itself is within reach, tol / (16 R^2) = 2.5e-193 is not: the message names tol
        code = cli.main(["parseval", "0.3", "5", "--tol", "1e-190"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "input error: tol 1e-190 is below the reach of the error bound\n"

    @pytest.mark.parametrize("tol", ["5e-324", "1e-300"])
    def test_tol_beyond_reach_on_tensor_phase(self, capsys, tmp_path, tol):
        # the tensor rule sizes each direction at tol / 2: the message names tol
        path = tmp_path / "phase.json"
        path.write_text(json.dumps(PolySpec(2, 2, {(1, 1): 1.0, (2, 2): 0.5}).to_json_dict()))
        code = cli.main(["integral", str(path), "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"input error: tol {float(tol)} is below the reach of the error bound\n"

    def test_infinite_coordinate_in_point_file(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"k": 1, "points": [[0.1, 0.2], [Infinity, 0.5]]}')
        code = cli.main(["gram", str(path), "--n", "1", "--m", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "finite" in captured.err

    @pytest.mark.parametrize("command, text", [
        (["integral"], '{"n": 1e400, "m": 1, "coeffs": []}'),
        (["integral"], '{"n": 1, "m": 1, "coeffs": [{"i": 1e400, "j": 0, "value": 1.0}]}'),
        (["gram", "--n", "1", "--m", "1"], '{"k": 1e400, "points": [[0.1, 0.2], [0.3, 0.5]]}'),
    ])
    def test_integer_field_beyond_float_range(self, capsys, tmp_path, command, text):
        # json reads 1e400 as inf, which int() cannot convert
        path = tmp_path / "in.json"
        path.write_text(text)
        code = cli.main([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("input error: malformed")

    @pytest.mark.parametrize("command, text", [
        (["integral"], '{"n": 1.7, "m": 1, "coeffs": []}'),
        (["integral"], '{"n": 1, "m": "1", "coeffs": []}'),
        (["integral"], '{"n": 1, "m": 1, "coeffs": [{"i": true, "j": 0, "value": 1.0}]}'),
        (["integral"], '{"n": 1, "m": 1, "coeffs": [{"i": 1, "j": 0.5, "value": 1.0}]}'),
        (["gram", "--n", "1", "--m", "1"],
         '{"k": 2.9, "points": [[0.1, 0.2], [0.3, 0.5], [0.7, 0.1], [0.4, 0.9]]}'),
        (["gram", "--n", "1", "--m", "1"], '{"k": "1", "points": [[0.1, 0.2], [0.3, 0.5]]}'),
        (["gram", "--n", "1", "--m", "1"], '{"k": true, "points": [[0.1, 0.2], [0.3, 0.5]]}'),
    ])
    def test_non_integer_field(self, capsys, tmp_path, command, text):
        # a fraction, a string or a bool is rejected, not truncated by int()
        path = tmp_path / "in.json"
        path.write_text(text)
        code = cli.main([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("input error: malformed")

    @pytest.mark.parametrize("command, ints, floats", [
        (["integral"], '{"n": 1, "m": 2, "coeffs": [{"i": 1, "j": 2, "value": 1.0}]}',
         '{"n": 1.0, "m": 2.0, "coeffs": [{"i": 1.0, "j": 2.0, "value": 1.0}]}'),
        (["gram", "--n", "1", "--m", "1"], (DATA / "points_2_1.json").read_text(),
         json.dumps({**json.loads((DATA / "points_2_1.json").read_text()), "k": 2.0})),
    ])
    def test_integral_float_field(self, capsys, tmp_path, command, ints, floats):
        path = tmp_path / "in.json"
        outs = []
        for text in (ints, floats):
            path.write_text(text)
            outs.append(run_cli(capsys, command[0], str(path), *command[1:]))
        assert outs[0][0] == 0 and outs[0] == outs[1]

    @pytest.mark.parametrize("dest", ["absent/x.json", "."])
    def test_unwritable_output(self, capsys, tmp_path, monkeypatch, dest):
        # a missing directory, and a directory in place of a file
        monkeypatch.chdir(tmp_path)
        code = cli.main(["exponent", "2", "1", "--output", dest])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"input error: cannot write {dest}:")

    def test_unwritable_output_found_before_the_run(self, capsys, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("theta ran before --output was checked")
        monkeypatch.setattr(cli.theta, "theta_truncated", never)
        dest = str(tmp_path / "absent" / "x.json")
        code = cli.main(["theta", "1", "1", "1", "20", "--samples", "200000", "--output", dest])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"input error: cannot write {dest}:")

    def test_failed_run_keeps_existing_output(self, capsys, tmp_path, monkeypatch):
        # the file is written only once the payload exists
        def fail(*args, **kwargs):
            raise ValueError("no estimate")
        monkeypatch.setattr(cli.theta, "theta_truncated", fail)
        dest = tmp_path / "x.json"
        dest.write_text("kept\n")
        code = cli.main(["theta", "1", "1", "1", "2", "--output", str(dest)])
        assert code == 2
        assert capsys.readouterr().err == "input error: no estimate\n"
        assert dest.read_text() == "kept\n"

    @pytest.mark.parametrize("argv", [
        ["gram", "big.json", "--n", "2", "--m", "1"],
        ["diagnose", "1", "1", "100000", "--radii", "2", "4", "8", "--samples", "300"],
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_result_not_finite(self, capsys, tmp_path, monkeypatch, argv):
        # JSON has no NaN or Infinity: G0 of points near 1e200 is NaN, and at
        # k = 100000 every estimate is 0, so the fitted exponent is NaN
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.json").write_text(json.dumps(
            {"k": 2, "points": [[1e200, 0], [0, 1e200], [2e200, 1e200], [1e200, 3e200]]}))
        code = cli.main(argv + ["--output", "x.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1 and "not finite" in captured.err
        assert not (tmp_path / "x.json").exists()

    def test_infinite_coefficient_in_polynomial_file(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"n": 1, "m": 1, "coeffs": [{"i": 1, "j": 0, "value": Infinity}]}')
        code = cli.main(["integral", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1 and "not finite" in captured.err
