"""Command-line front end: artifact formats, config layering, manifest
reproducibility, sweep determinism, and the exit-code contract."""

import csv
import json
import math
import os

import numpy as np
import pytest

from qptransport import cli, transport, verify
from qptransport.cli import main, parse_axis, parse_freq_spec, to_jsonable


def error_manifest(out):
    """The error a failed run recorded in out's manifest, its one file."""
    assert [f.name for f in out.iterdir()] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    return manifest["error"]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestFreqCommand:
    def test_liouville_json_shape(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["freq", "liouville:beta=2,q1=2,depth=3",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "freq.json").read_text())
        assert set(doc) == {"value_num", "value_den", "convergents",
                            "beta_hat"}
        assert doc["convergents"][0] == [1, 2]
        assert doc["convergents"][1] == [27, 55]
        assert abs(doc["beta_hat"] - 2.0) < 0.1

    def test_rational_and_value_specs(self, tmp_path, capsys):
        assert main(["freq", "3/8", "--out", str(tmp_path / "a")]) == 0
        doc = json.loads((tmp_path / "a" / "freq.json").read_text())
        assert doc["value_num"] == 3 and doc["value_den"] == 8
        assert main(["freq", "0.4142135623730951",
                     "--out", str(tmp_path / "b")]) == 0

    def test_conflicting_specs_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["freq", "0.3", "1/3", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_spec_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["freq", "--out", str(out)]) == 2
        assert "freq needs a spec" in capsys.readouterr().err
        assert not out.exists()


class TestBandsCommand:
    def test_row_count_matches_period(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["bands", "--sampling", "amo", "--lambda", "2",
                     "--freq", "8/13", "--theta", "0", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "bands.csv")
        assert header == ["j", "lo", "hi", "width", "center"]
        assert len(rows) == 13

    def test_floats_survive_text_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["bands", "--freq", "2/5", "--out", str(out)])
        header, rows = read_csv(out / "bands.csv")
        for row in rows:
            lo, hi, width = float(row[1]), float(row[2]), float(row[3])
            # 17 significant digits reproduce the doubles exactly
            assert width == hi - lo or abs(width - (hi - lo)) < 1e-16
            assert ("%.17g" % lo) == row[1]

    def test_irrational_frequency_rejected(self, tmp_path, capsys):
        code = main(["bands", "--freq", "0.618", "--out", str(tmp_path)])
        assert code == 2

    def test_kappa_grid_is_not_an_option(self, tmp_path, capsys):
        # the bands are the two edge solves; no grid is read
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["bands", "--kappa-grid", "8", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_kappa_grid_from_old_manifest_or_ini_is_usage_error(
            self, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["bands", "--freq", "2/5", "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["config"]["kappa_grid"] = 64
        old = tmp_path / "old.json"
        old.write_text(json.dumps(manifest))
        ini = tmp_path / "qpt.ini"
        ini.write_text("[bands]\nkappa_grid = 64\n")
        capsys.readouterr()
        for argv in (["--from-manifest", str(old)],
                     ["bands", "--config", str(ini)]):
            assert main(argv + ["--out", str(tmp_path / "again")]) == 2
            assert "kappa_grid" in capsys.readouterr().err
            assert not (tmp_path / "again").exists()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bands", "--no-such-flag", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_module_error_maps_to_one(self, tmp_path, capsys):
        code = main(["transport", "--freq", "2/5", "--time-scale", "-4",
                     "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("flag, value", [
        ("--time-scale", "inf"), ("--time-scale", "nan"), ("--orders", "nan"),
        ("--time-scale", "1e308"),
    ])
    def test_non_finite_moments_input_is_typed_error(self, tmp_path, capsys,
                                                     flag, value):
        out = tmp_path / "run"
        code = main(["moments", "--freq", "2/5", flag, value,
                     "--out", str(out)])
        assert code == 1
        assert "InputError" in capsys.readouterr().err
        assert not (out / "moments.csv").exists()

    def test_time_route_beyond_physical_memory_exits_one(self, tmp_path,
                                                         capsys, monkeypatch):
        # T = 1e5 needs dimension 3.3 million, 8.9e13 bytes of eigenvectors:
        # refused before the operator is built
        monkeypatch.setattr(transport, "finite_operator", None)
        out = tmp_path / "run"
        code = main(["moments", "--time-scale", "1e5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "MemoryLimitError" in err and "physical memory" in err
        assert not (out / "moments.csv").exists()

    def test_floquet_samples_beyond_physical_memory_exit_one(
            self, tmp_path, capsys, monkeypatch):
        # 10^9 samples per model: refused before a Floquet case is built
        monkeypatch.setattr(verify, "_FloquetCase", None)
        out = tmp_path / "run"
        assert main(["verify", "floquet", "--samples-per-model",
                     str(10 ** 9), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "MemoryLimitError" in err and "physical memory" in err
        assert error_manifest(out)["type"] == "MemoryLimitError"

    @pytest.mark.parametrize("argv", [
        ["discriminant", "--count", str(10 ** 12)],
        ["measure", "--e-min", "0", "--e-max", "0.5",
         "--kappa-grid", str(10 ** 12)],
    ])
    def test_grid_beyond_physical_memory_exits_one(self, tmp_path, capsys,
                                                   monkeypatch, argv):
        # 10^12 points: refused before the grid array is built
        def spy(*args, **kwargs):
            raise AssertionError("a grid was built")
        monkeypatch.setattr(np, "linspace", spy)
        out = tmp_path / "run"
        assert main([*argv, "--freq", "8/13", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "MemoryLimitError" in err and "physical memory" in err
        assert error_manifest(out)["type"] == "MemoryLimitError"

    @pytest.mark.parametrize("argv, error", [
        (["moments", "--time-scale", "50", "--radius", "20"],
         "TruncationError"),
        (["transport", "--time-scale", "1e9"], "MemoryLimitError"),
    ], ids=["truncation", "memory"])
    def test_failed_run_leaves_its_manifest(self, tmp_path, capsys, argv,
                                            error):
        out = tmp_path / "run"
        assert main([*argv, "--freq", "2/5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        recorded = error_manifest(out)
        assert recorded["type"] == error
        assert f"{error}: {recorded['message']}" in err

    def test_memory_estimate_beyond_the_float_range_exits_one(
            self, tmp_path, capsys, monkeypatch):
        # T = 1e300 needs about 1.7e595 GiB, past the float range; order 1
        # keeps T^p in range (order 2 is a usage error)
        monkeypatch.setattr(transport, "finite_operator", None)
        out = tmp_path / "run"
        code = main(["moments", "--time-scale", "1e300", "--orders", "1",
                     "--out", str(out)])
        assert code == 1
        assert "MemoryLimitError" in capsys.readouterr().err
        assert not (out / "moments.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["moments"], ["sweep", "--command", "moments", "--thetas", "0,0.5"],
    ], ids=["moments", "sweep"])
    def test_empty_order_list_is_usage_error(self, tmp_path, capsys, argv):
        # refused by the cast, before the output directory exists
        out = tmp_path / "run"
        assert main(argv + ["--freq", "2/5", "--orders", "",
                            "--out", str(out)]) == 2
        assert "orders = " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("time_scale, orders", [
        ("5", "1,1000000"), ("0.5", "1,2000"),
    ], ids=["overflow", "underflow"])
    def test_order_whose_scale_leaves_the_float_range(
            self, tmp_path, capsys, monkeypatch, time_scale, orders):
        # rejected before the lattice is built
        monkeypatch.setattr(transport, "finite_operator", None)
        out = tmp_path / "run"
        code = main(["moments", "--freq", "2/5", "--time-scale", time_scale,
                     "--orders", orders, "--out", str(out)])
        assert code == 2
        assert "leaves the float range" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_freq_spec(self, tmp_path, capsys):
        assert main(["moments", "--freq", "abc", "--out", str(tmp_path)]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["moments", "--config", str(tmp_path / "none.ini")])
        assert code == 2

    @pytest.mark.parametrize("ini_text", ["lam = 2\n", "[run]\nout = run%1\n"],
                             ids=["no-section-header", "bad-interpolation"])
    def test_malformed_config_file(self, tmp_path, capsys, ini_text):
        ini = tmp_path / "f.ini"
        ini.write_text(ini_text)
        assert main(["moments", "--config", str(ini)]) == 2
        assert str(ini) in capsys.readouterr().err

    def test_missing_manifest(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["--from-manifest", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_manifest_not_json(self, tmp_path, capsys):
        bogus = tmp_path / "x.json"
        bogus.write_text("{not json")
        assert main(["--from-manifest", str(bogus)]) == 2
        assert str(bogus) in capsys.readouterr().err

    @pytest.mark.parametrize("drop", ["command", "config"])
    def test_manifest_without_command_or_config(self, tmp_path, capsys,
                                                drop):
        first = tmp_path / "first"
        assert main(["freq", "3/8", "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        del manifest[drop]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(manifest))
        assert main(["--from-manifest", str(broken),
                     "--out", str(tmp_path / "again")]) == 2
        assert str(broken) in capsys.readouterr().err
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--command", "lyapunov", "--thetas", "0,0.5"],
        ["measure", "--freq", "8/13"],
        ["bands", "--freq", "0.618"],
    ], ids=["sweep-ignored-axis", "measure-no-interval", "bands-irrational"])
    def test_usage_error_in_runner_leaves_no_directory(self, tmp_path,
                                                       capsys, argv):
        out = tmp_path / "new" / "run"
        assert main(argv + ["--out", str(out)]) == 2
        assert not (tmp_path / "new").exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, name", [
        (["discriminant", "--count", "-1"], "count"),
        (["lyapunov", "--e-min", "-1", "--e-max", "1", "--e-count", "-2"],
         "e_count"),
        (["lyapunov", "--e-min", "-1", "--e-max", "1", "--e-count", "0"],
         "e_count"),
        (["sweep", "--thetas", "grid:2", "--times", "2", "--jobs", "0"],
         "jobs"),
        (["sweep", "--thetas", "grid:2", "--times", "2", "--jobs", "-3"],
         "jobs"),
    ], ids=["count-negative", "e-count-negative", "e-count-zero", "jobs-zero",
            "jobs-negative"])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, argv,
                                            name):
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 2
        assert f"{name} = " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, name", [
        (["lyapunov", "--e-min", "0", "--e-max", "1", "--n-steps", "0"],
         "n_steps"),
        (["lyapunov", "--e-min", "0", "--e-max", "1", "--theta-count", "0"],
         "theta_count"),
        (["measure", "--e-min", "-1", "--e-max", "1", "--theta-grid", "0"],
         "theta_grid"),
        (["theorem-demo", "--theta-grid", "-1"], "theta_grid"),
        (["verify", "floquet", "--trials", "0"], "trials"),
        (["measure", "--e-min", "-1", "--e-max", "1", "--kappa-grid", "1"],
         "kappa_grid"),
        (["verify", "floquet", "--q-max", "1"], "q_max"),
        (["theorem-demo", "--depth-budget", "1"], "depth_budget"),
        (["theorem-demo", "--delta", "0.7"], "delta"),
        (["theorem-demo", "--delta", "0"], "delta"),
        (["theorem-demo", "--beta-target", "-1"], "beta_target"),
        (["transport", "--freq", "2/5", "--radius", "-5", "--time-scale", "5"],
         "radius"),
        (["transport", "--freq", "2/5", "--max-site", "-3"], "max_site"),
        (["verify", "transport", "--checks", "truncation", "--time-scales",
          "-1"], "time_scales"),
        (["verify", "transport", "--checks", "truncation", "--time-scales",
          "5,inf"], "time_scales"),
        (["verify", "transport", "--checks", "truncation", "--time-scales",
          ""], "time_scales"),
        (["verify", "floquet", "--samples-per-model", "-3", "--trials", "2"],
         "samples_per_model"),
    ], ids=["n-steps", "theta-count", "measure-theta-grid",
            "demo-theta-grid", "trials", "kappa-grid", "q-max",
            "depth-budget", "delta-above-half", "delta-zero",
            "beta-target-negative", "radius-negative", "max-site-negative",
            "time-scales-negative", "time-scales-inf", "time-scales-empty",
            "samples-per-model-negative"])
    def test_below_the_library_limit_is_usage_error(self, tmp_path, capsys,
                                                    argv, name):
        # the cast carries the library's own lower limit, so the value is
        # refused before the output directory exists
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 2
        assert f"{name} = " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, name", [
        (["moments", "--lambda", "nan", "--time-scale", "5"], "lam = "),
        (["moments", "--theta", "nan", "--time-scale", "5"], "theta = "),
        (["moments", "--sampling", "table", "--potential", "1,nan",
          "--time-scale", "5"], "potential = "),
        (["sweep", "--lambdas", "nan", "--time-scale", "3"], "axis lam"),
        (["sweep", "--thetas", "lin:0:inf:3", "--time-scale", "3"],
         "bad lin axis"),
        (["measure", "--e-min", "0", "--e-max", "1", "--lambda", "nan"],
         "lam = "),
        (["bands", "--lambda", "inf"], "lam = "),
        (["lyapunov", "--energies", "nan", "--n-steps", "10",
          "--theta-count", "2"], "energies = "),
        (["lyapunov", "--e-min", "0", "--e-max", "inf"], "e_max = "),
        (["discriminant", "--e-min", "nan", "--e-max", "1", "--count", "3"],
         "e_min = "),
    ], ids=["moments-lambda", "moments-theta", "moments-potential",
            "sweep-lambdas", "sweep-lin-inf", "measure-lambda", "bands-lambda",
            "lyapunov-energies", "lyapunov-e-max", "discriminant-e-min"])
    def test_non_finite_value_is_usage_error(self, tmp_path, capsys, argv,
                                             name):
        # once a traceback or a NaN table; now refused by the cast, before
        # the output directory exists
        out = tmp_path / "run"
        assert main(argv + ["--freq", "2/5", "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_out_that_cannot_be_a_directory_is_usage_error(
            self, tmp_path, capsys, monkeypatch, below):
        def no_run(cfg, out):
            raise AssertionError("the command ran")
        monkeypatch.setitem(cli.COMMANDS, "freq",
                            cli.COMMANDS["freq"]._replace(runner=no_run))
        blocker = tmp_path / "F"
        blocker.write_text("kept")
        out = blocker / "sub" if below else blocker
        assert main(["freq", "2/5", "--out", str(out)]) == 2
        assert "output directory" in capsys.readouterr().err
        assert blocker.read_text() == "kept"

    def test_usage_error_leaves_no_default_directory(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("QPT_OUT", raising=False)
        assert main(["sweep", "--command", "lyapunov",
                     "--thetas", "0,0.5"]) == 2
        assert list(tmp_path.iterdir()) == []


class TestMeasureCommand:
    @pytest.mark.parametrize("e_min, e_max", [("nan", "1"), ("1", "0")],
                             ids=["nan", "reversed"])
    def test_empty_interval_is_usage_error(self, tmp_path, capsys, e_min,
                                           e_max):
        out = tmp_path / "run"
        assert main(["measure", "--freq", "3/5", "--e-min", e_min,
                     "--e-max", e_max, "--out", str(out)]) == 2
        assert "e_min <= e_max" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_endpoint_is_accepted(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["measure", "--freq", "3/5", "--e-min", "-1",
                     "--e-max", "inf", "--out", str(out)]) == 0
        rep = json.loads((out / "measure.json").read_text())
        assert rep["eta"] == pytest.approx(1.01814, abs=1e-5)


class TestTheoremDemoCommand:
    @pytest.mark.parametrize("value", ["1,-0.5", "nan", "-1", "1,inf", ""])
    def test_order_that_is_not_a_nonnegative_integer_is_usage_error(
            self, tmp_path, capsys, monkeypatch, value):
        # refused by the cast, before the output directory or any stage;
        # finite real orders >= 0 are accepted (test_real_orders_run)
        monkeypatch.setattr(cli, "theorem_demo", None)
        out = tmp_path / "run"
        assert main(["theorem-demo", f"--p-list={value}",
                     "--out", str(out)]) == 2
        assert "p_list = " in capsys.readouterr().err
        assert not out.exists()

    def test_real_orders_run(self, tmp_path, capsys):
        # integer orders keep their "1" keys and "min_p1" headers, and a
        # real order runs under its own key
        for p_list, keys in (("1,2", ["1", "2"]), ("0.5,1", ["0.5", "1"])):
            out = tmp_path / p_list
            assert main(["theorem-demo", "--depth-budget", "2",
                         "--theta-grid", "2", "--max-radius", "200",
                         f"--p-list={p_list}", "--out", str(out)]) == 0
            rep = json.loads((out / "theorem_demo.json").read_text())
            assert rep["config_snapshot"]["p_list"] == \
                json.loads(f"[{p_list}]")
            (point,) = rep["points"]
            assert sorted(point["min_moments"]) == keys
            header = (out / "theorem_points.csv").read_text().split("\n")[0]
            assert header.endswith(",".join(
                f"min_p{p},ratio_plain_p{p},ratio_log_p{p}" for p in keys))

    def test_orders_equal_to_six_digits_get_distinct_columns(self, tmp_path,
                                                             capsys):
        # 0.1 and 0.1000000001 once shared the header min_p0.1
        out = tmp_path / "run"
        assert main(["theorem-demo", "--depth-budget", "2", "--theta-grid",
                     "2", "--max-radius", "200",
                     "--p-list=0.1,0.1000000001", "--out", str(out)]) == 0
        rep = json.loads((out / "theorem_demo.json").read_text())
        keys = list(rep["points"][0]["min_moments"])
        assert keys == ["0.1", "0.1000000001"]
        header = (out / "theorem_points.csv").read_text().split("\n")[0]
        assert header.split(",")[5:] == [
            f"{name}_p{p}" for p in keys
            for name in ("min", "ratio_plain", "ratio_log")]

    def test_vacuous_eta_counts_its_bandless_phases(self, tmp_path, capsys):
        # no band meets e0 +- epsilon at 4 of the 16 q = 2 phases and 13 of
        # the 16 q = 55 phases, so eta is 0.0 without being a converged bound
        out = tmp_path / "run"
        assert main(["theorem-demo", "--lambda", "1.05", "--delta", "0.45",
                     "--theta-grid", "64", "--out", str(out)]) == 0
        rep = json.loads((out / "theorem_demo.json").read_text())
        assert rep["eta"] == 0.0 and rep["eta_cauchy_gap"] == 0.0
        assert rep["eta_by_depth"] == [[2, 0.0], [55, 0.0]]
        assert rep["bandless_phases_by_depth"] == [[2, 4, 16], [55, 13, 16]]


class TestVerifyCommand:
    def test_clean_suite_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["verify", "floquet", "--q-max", "6", "--trials", "4",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["floquet"]["violations"] == 0
        assert doc["floquet"]["instances"] > 0
        assert (out / "verify_floquet.csv").exists()

    def test_corrupted_matrix_exits_one(self, tmp_path, capsys):
        code = main(["verify", "floquet", "--q-max", "5", "--trials", "3",
                     "--checks", "determinant", "--corrupt",
                     "--out", str(tmp_path)])
        assert code == 1

    def test_unknown_check_rejected(self, tmp_path, capsys):
        code = main(["verify", "floquet", "--trials", "2",
                     "--checks", "nonsense", "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_check_rejected_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["verify", "floquet", "--trials", "1", "--q-max", "3",
                     "--checks", "determinant,bogus", "--out", str(out)])
        assert code == 2
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()

    def test_suite_all_skips_suites_without_selected_checks(self, tmp_path,
                                                            capsys):
        out = tmp_path / "run"
        code = main(["verify", "--checks", "ct", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "verify.json").read_text())
        assert set(doc) == {"transport"}
        assert not (out / "verify_floquet.csv").exists()


class TestConfigLayering:
    def test_flags_beat_config_file(self, tmp_path, capsys):
        ini = tmp_path / "qpt.ini"
        out = tmp_path / "run"
        ini.write_text("[run]\nout = %s\n\n[moments]\nlam = 1.0\n"
                       "freq = 2/5\ntime-scale = 4.0\norders = 2\n" % out)
        code = main(["moments", "--config", str(ini), "--lambda", "2.0"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["lam"] == 2.0        # flag won
        assert manifest["config"]["time_scale"] == 4.0  # ini supplied
        assert manifest["config"]["orders"] == [2.0]

    @pytest.mark.parametrize("ini_text, keys", [
        ("[moments]\nlambda = 3.0\n", ["lambda"]),
        ("[run]\nsed = 4\n", ["sed"]),
        # run keys that only other commands read
        ("[run]\nseed = 3\njobs = 4\n", ["seed", "jobs"]),
    ], ids=["command-section", "run-section", "run-keys-of-other-commands"])
    def test_unknown_ini_key_rejected(self, tmp_path, capsys, ini_text, keys):
        ini = tmp_path / "qpt.ini"
        out = tmp_path / "run"
        ini.write_text(ini_text)
        code = main(["moments", "--config", str(ini), "--freq", "2/5",
                     "--time-scale", "3", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert all(repr(key) in err for key in keys)
        assert not out.exists()

    def test_env_var_sets_output_dir(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "envdir"
        monkeypatch.setenv("QPT_OUT", str(target))
        assert main(["freq", "3/8"]) == 0
        assert (target / "freq.json").exists()

    def test_flag_beats_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QPT_OUT", str(tmp_path / "envdir"))
        flagged = tmp_path / "flagdir"
        assert main(["freq", "3/8", "--out", str(flagged)]) == 0
        assert (flagged / "freq.json").exists()
        assert not (tmp_path / "envdir").exists()


GOLDEN_SPEC = {"kind": "value", "max_terms": 32, "value": 0.6180339887498949}
RATIONAL_2_5 = {"den": 5, "kind": "rational", "num": 2}
RATIONAL_8_13 = {"den": 13, "kind": "rational", "num": 8}
AMO_DEFAULTS = {"lam": 1.0, "potential": None, "sampling": "amo"}

NO_SWEEP_AXES = {"depths": None, "energies": None, "lambdas": None,
                 "thetas": None, "times": None}

# One cheap invocation per subcommand, plus INI-layered cases: the exact
# resolved config each writes into manifest.json ("out" is added per run).
CONFIG_PINS = [
    (["freq", "0.3"], None,
     {"freq": {"kind": "value", "max_terms": 32, "value": 0.3}}),
    (["bands"], None,
     {**AMO_DEFAULTS, "freq": RATIONAL_8_13, "theta": 0.0}),
    (["discriminant", "--e-min", "-3", "--e-max", "3"], None,
     {**AMO_DEFAULTS, "count": 512, "e_max": 3.0, "e_min": -3.0,
      "freq": RATIONAL_8_13, "theta": 0.0}),
    (["measure", "--freq", "2/5", "--e-min", "-1", "--e-max", "1"], None,
     {**AMO_DEFAULTS, "e_max": 1.0, "e_min": -1.0, "freq": RATIONAL_2_5,
      "kappa_grid": 64, "theta_grid": 16}),
    (["lyapunov", "--e-min", "0", "--e-max", "1", "--n-steps", "200",
      "--theta-count", "2"], None,
     {**AMO_DEFAULTS, "e_count": 17, "e_max": 1.0, "e_min": 0.0,
      "energies": None, "freq": GOLDEN_SPEC, "n_steps": 200, "seed": 0,
      "theta_count": 2, "theta_mode": "golden"}),
    (["transport", "--freq", "2/5", "--time-scale", "3"], None,
     {**AMO_DEFAULTS, "freq": RATIONAL_2_5, "max_site": 60, "radius": None,
      "theta": 0.0, "time_scale": 3.0}),
    (["moments", "--freq", "2/5", "--time-scale", "3"], None,
     {**AMO_DEFAULTS, "freq": RATIONAL_2_5, "orders": [1.0, 2.0],
      "radius": None, "theta": 0.0, "time_scale": 3.0}),
    (["verify", "floquet", "--trials", "1", "--q-max", "3"], None,
     {"checks": None, "corrupt": False, "max_site": 60, "q_max": 3,
      "samples_per_model": 4, "seed": 0, "suite": "floquet",
      "time_scales": [5.0, 20.0], "trials": 1}),
    (["theorem-demo", "--depth-budget", "2", "--theta-grid", "2",
      "--max-radius", "200"], None,
     {**AMO_DEFAULTS, "beta_target": 2.0, "delta": 0.45, "depth_budget": 2,
      "max_radius": 200, "p_list": [1.0, 2.0], "theta_grid": 2}),
    (["sweep", "--freq", "2/5", "--thetas", "0,0.5", "--time-scale", "3",
      "--orders", "2"], None,
     {**AMO_DEFAULTS, **NO_SWEEP_AXES, "thetas": [0.0, 0.5],
      "point_command": "moments", "freq": RATIONAL_2_5, "jobs": 1,
      "n_steps": 10000, "orders": [2.0], "radius": None, "seed": 0,
      "theta": 0.0, "theta_count": 16, "theta_mode": "golden",
      "time_scale": 3.0}),
    (["lyapunov", "--e-min", "0", "--e-max", "1", "--n-steps", "200",
      "--theta-count", "2"], "[run]\nseed = 3\n",
     {**AMO_DEFAULTS, "e_count": 17, "e_max": 1.0, "e_min": 0.0,
      "energies": None, "freq": GOLDEN_SPEC, "n_steps": 200, "seed": 3,
      "theta_count": 2, "theta_mode": "golden"}),
    (["freq"], "[freq]\nfreq = 3/8\n",
     {"freq": {"den": 8, "kind": "rational", "num": 3}}),
    (["sweep", "--lambda", "2.0", "--times", "2,3"],
     "[run]\nseed = 3\njobs = 1\n\n"
     "[sweep]\npoint-command = moments\nthetas = 0,0.5\ntime_scale = 3\n"
     "orders = 2\nlam = 1.5\nfreq = 2/5\ntheta-count = 4\n\n"
     "[moments]\nlambda = 3.0\n",
     {**AMO_DEFAULTS, **NO_SWEEP_AXES, "thetas": [0.0, 0.5],
      "times": [2.0, 3.0], "point_command": "moments", "freq": RATIONAL_2_5,
      "jobs": 1, "lam": 2.0, "n_steps": 10000, "orders": [2.0],
      "radius": None, "seed": 3, "theta": 0.0, "theta_count": 4,
      "theta_mode": "golden", "time_scale": 3.0}),
]


class TestConfigPin:
    @pytest.mark.parametrize("argv, ini_text, expected", CONFIG_PINS,
                             ids=[f"{c[0][0]}{'-ini' if c[1] else ''}"
                                  for c in CONFIG_PINS])
    def test_resolved_config(self, tmp_path, capsys, argv, ini_text,
                             expected):
        out = tmp_path / "run"
        argv = argv + ["--out", str(out)]
        if ini_text is not None:
            ini = tmp_path / "qpt.ini"
            ini.write_text(ini_text)
            argv += ["--config", str(ini)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {**expected, "out": str(out)}


class TestManifest:
    def test_round_trip_reproduces_artifacts(self, tmp_path, capsys):
        first = tmp_path / "first"
        code = main(["moments", "--freq", "2/5", "--time-scale", "6",
                     "--orders", "1,2", "--out", str(first)])
        assert code == 0
        again = tmp_path / "again"
        code = main(["--from-manifest", str(first / "manifest.json"),
                     "--out", str(again)])
        assert code == 0
        assert (first / "moments.csv").read_bytes() == \
            (again / "moments.csv").read_bytes()

    @pytest.mark.parametrize("argv, artifact", [
        (["lyapunov", "--energies", "0,1.5,-0.25", "--n-steps", "64",
          "--theta-count", "4", "--theta-mode", "random", "--seed", "3"],
         "lyapunov.csv"),
        (["measure", "--freq", "3/5", "--e-min", "-1", "--e-max", "1",
          "--theta-grid", "2", "--kappa-grid", "8"], "measure.json"),
        (["sweep", "--command", "lyapunov",
          "--freq", "liouville:beta=2,q1=2,depth=3", "--energies", "0,0.5",
          "--depths", "1,2", "--n-steps", "40", "--theta-count", "4"],
         "sweep.csv"),
        (["discriminant", "--sampling", "table", "--potential",
          "0.5,-1,0.25", "--freq", "2/3", "--e-min", "-3", "--e-max", "3",
          "--count", "9"], "discriminant.csv"),
        (["freq", "0.6180339887"], "freq.json"),
    ], ids=["lyapunov", "measure", "sweep", "discriminant", "freq"])
    def test_replay_through_the_casts_keeps_config_and_artifacts(
            self, tmp_path, capsys, argv, artifact):
        # every config value, lists and frequency specs included, goes
        # back through its cast and comes out as recorded
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(["--from-manifest", str(first / "manifest.json"),
                     "--out", str(again)]) == 0
        assert (first / artifact).read_bytes() == \
            (again / artifact).read_bytes()
        recorded = [json.loads((d / "manifest.json").read_text())["config"]
                    for d in (first, again)]
        assert recorded[0] == recorded[1]

    @pytest.mark.parametrize("edit, named", [
        ({"n_steps": 0}, "n_steps"),
        ({"theta_count": -3}, "theta_count"),
        ({"theta_mode": "grid"}, "theta_mode"),
        ({"e_count": 2.5}, "e_count"),
        ({"freq": {"kind": "rational", "num": 3}}, "freq"),
    ], ids=["n_steps-0", "theta_count-negative", "theta_mode-unknown",
            "e_count-float", "freq-without-den"])
    def test_edited_values_are_usage_errors(self, tmp_path, capsys, edit,
                                            named):
        first = tmp_path / "first"
        assert main(["lyapunov", "--energies", "0,1", "--n-steps", "32",
                     "--theta-count", "2", "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["config"].update(edit)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["--from-manifest", str(broken),
                     "--out", str(tmp_path / "again")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "again").exists()

    def test_manifest_contents(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["moments", "--freq", "2/5", "--time-scale", "5",
              "--out", str(out)])
        m = json.loads((out / "manifest.json").read_text())
        assert m["schema"] == "qpt-manifest/1"
        assert m["command"] == "moments"
        assert "numpy" in m["versions"] and "qptransport" in m["versions"]
        assert m["timings"]["total_seconds"] >= 0
        assert "moments.csv" in m["artifacts"]

    def test_manifest_records_blas_threads(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        assert main(["freq", "3/8", "--out", str(out)]) == 0
        m = json.loads((out / "manifest.json").read_text())
        assert m["threads"] == {"OMP_NUM_THREADS": "3",
                                "OPENBLAS_NUM_THREADS": None,
                                "MKL_NUM_THREADS": None,
                                "cpu_count": os.cpu_count()}

    def test_manifest_records_blas_builds(self, tmp_path, capsys):
        # numpy and SciPy wheels may each bundle their own OpenBLAS build
        out = tmp_path / "run"
        assert main(["freq", "3/8", "--out", str(out)]) == 0
        versions = json.loads((out / "manifest.json").read_text())["versions"]
        for key in ("numpy_blas", "scipy_blas"):
            assert isinstance(versions[key], str) and versions[key].strip()

    @pytest.mark.parametrize("show_config", [
        lambda: None,  # numpy < 1.26, SciPy < 1.11: no `mode`
        lambda mode: {},
        lambda mode: {"Build Dependencies": {"lapack": {"name": "x"}}},
    ], ids=["no-mode", "no-build-dependencies", "no-blas"])
    def test_manifest_blas_is_none_where_the_build_does_not_say(
            self, tmp_path, capsys, monkeypatch, show_config):
        monkeypatch.setattr(np, "show_config", show_config)
        out = tmp_path / "run"
        assert main(["freq", "3/8", "--out", str(out)]) == 0
        versions = json.loads((out / "manifest.json").read_text())["versions"]
        assert versions["numpy_blas"] is None
        assert versions["scipy_blas"].strip()

    @pytest.mark.parametrize("argv, edit, named", [
        (["moments", "--freq", "2/5", "--time-scale", "3"],
         lambda c: c.pop("sampling"), "sampling"),
        (["moments", "--freq", "2/5", "--time-scale", "3"],
         lambda c: c.update(seed=0), "seed"),
        (["sweep", "--freq", "2/5", "--thetas", "0", "--time-scale", "2",
          "--orders", "2"],
         lambda c: c.update(axes={"theta": c.pop("thetas")},
                            command=c.pop("point_command")), "axes"),
    ], ids=["missing-key", "unknown-key", "parent-sweep-keys"])
    def test_config_keys_must_match_the_table(self, tmp_path, capsys, argv,
                                              edit, named):
        first = tmp_path / "first"
        assert main(argv + ["--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        edit(manifest["config"])
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["--from-manifest", str(broken),
                     "--out", str(tmp_path / "again")]) == 2
        assert repr(named) in capsys.readouterr().err
        assert not (tmp_path / "again").exists()

    def test_foreign_json_rejected(self, tmp_path, capsys):
        bogus = tmp_path / "x.json"
        bogus.write_text('{"hello": 1}')
        assert main(["--from-manifest", str(bogus)]) == 2


class TestSweep:
    def test_theta_grid_aggregation(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["sweep", "--command", "moments", "--freq", "2/5",
                     "--thetas", "grid:6", "--time-scale", "5",
                     "--orders", "2", "--jobs", "2", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 6
        assert "min_theta_m_2" in header
        vals = [float(r[header.index("m_2")]) for r in rows]
        mins = {float(r[header.index("min_theta_m_2")]) for r in rows}
        assert mins == {min(vals)}
        index = json.loads((out / "sweep_index.json").read_text())
        assert index["failed"] == 0
        assert len(index["points"]) == 6

    def test_deterministic_rerun(self, tmp_path, capsys):
        args = ["sweep", "--command", "moments", "--freq", "2/5",
                "--thetas", "grid:4", "--time-scale", "4", "--orders", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b), "--jobs", "2"]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_point_failures_recorded_and_run_continues(self, tmp_path,
                                                       capsys):
        out = tmp_path / "run"
        code = main(["sweep", "--command", "moments", "--freq", "2/5",
                     "--times", "4,-1", "--orders", "2", "--out", str(out)])
        assert code == 1
        header, rows = read_csv(out / "sweep.csv")
        ok_col = header.index("ok")
        assert [r[ok_col] for r in rows] == ["1", "0"]
        good = float(rows[0][header.index("m_2")])
        assert good > 0
        assert math.isnan(float(rows[1][header.index("m_2")]))
        index = json.loads((out / "sweep_index.json").read_text())
        assert index["failed"] == 1
        assert "error" in index["points"][1]

    def test_unexpected_point_errors_recorded(self, tmp_path, capsys,
                                              monkeypatch):
        import numpy as np

        import qptransport.cli as cli
        real = cli.moments

        def flaky(chain, t, **kw):
            if t == 5.0:
                raise np.linalg.LinAlgError("eigensolver did not converge")
            return real(chain, t, **kw)

        monkeypatch.setattr(cli, "moments", flaky)
        out = tmp_path / "run"
        code = main(["sweep", "--command", "moments", "--freq", "2/5",
                     "--times", "4,5,3", "--orders", "2", "--jobs", "1",
                     "--out", str(out)])
        assert code == 1
        index = json.loads((out / "sweep_index.json").read_text())
        assert index["failed"] == 1
        assert [p["ok"] for p in index["points"]] == [True, False, True]
        assert index["points"][1]["error"] == \
            "LinAlgError: eigensolver did not converge"

    def test_dead_worker_recorded_and_run_completes(self, tmp_path, capsys,
                                                    monkeypatch):
        import functools
        import multiprocessing
        import os

        import qptransport.cli as cli
        real = cli.moments

        def dying(chain, t, **kw):
            if chain.f.coupling == 2.0:
                os._exit(3)
            return real(chain, t, **kw)

        # forked workers inherit the patched module global
        monkeypatch.setattr(cli, "moments", dying)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", functools.partial(
            cli.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("fork")))
        out = tmp_path / "run"
        code = main(["sweep", "--command", "moments", "--freq", "2/5",
                     "--lambdas", "1,2,3", "--time-scale", "2",
                     "--orders", "2", "--jobs", "2", "--out", str(out)])
        assert code == 1
        index = json.loads((out / "sweep_index.json").read_text())
        assert len(index["points"]) == 3
        dead = index["points"][1]
        assert dead["params"] == {"lam": 2.0} and not dead["ok"]
        assert dead["error"].startswith("BrokenProcessPool")
        # the points the broken pool lost are rerun, one pool each
        assert [p["ok"] for p in index["points"]] == [True, False, True]
        assert index["failed"] == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"] == {"failed": index["failed"]}

    @pytest.mark.parametrize("point, axis", [
        ("lyapunov", ["--thetas", "0,0.5"]),
        ("lyapunov", ["--times", "2,3"]),
        ("moments", ["--energies", "0,1"]),
    ])
    def test_axis_the_point_ignores_is_usage_error(self, tmp_path, capsys,
                                                   point, axis):
        out = tmp_path / "run"
        code = main(["sweep", "--command", point, "--freq", "2/5",
                     "--n-steps", "100", "--theta-count", "2",
                     "--time-scale", "3", "--out", str(out)] + axis)
        assert code == 2
        assert not (out / "sweep.csv").exists()

    @pytest.fixture
    def small_memory(self, monkeypatch):
        """256 KiB of physical memory, and a sweep that fails if a point
        runs: an axis or product too large for it must be refused first."""
        sysconf = os.sysconf
        pages = (256 << 10) // sysconf("SC_PAGE_SIZE")
        monkeypatch.setattr(os, "sysconf", lambda name: pages if
                            name == "SC_PHYS_PAGES" else sysconf(name))

        def no_point(task):
            pytest.fail("a sweep point ran")
        monkeypatch.setattr(cli, "_sweep_eval", no_point)

    @pytest.mark.parametrize("axis", ["grid:20000", "lin:0:1:20000"])
    def test_axis_beyond_physical_memory_exits_one(self, tmp_path, capsys,
                                                   small_memory, axis):
        # sized from the spec, before the axis list or a directory exists
        out = tmp_path / "run"
        assert main(["sweep", "--freq", "2/5", "--lambdas", axis,
                     "--time-scale", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "MemoryLimitError" in err and "axis lam of 20000" in err
        assert not out.exists()

    def test_product_beyond_physical_memory_exits_one(self, tmp_path, capsys,
                                                      small_memory):
        # two 100-point axes fit; their 10,000 points do not
        out = tmp_path / "run"
        assert main(["sweep", "--freq", "2/5", "--lambdas", "grid:100",
                     "--thetas", "grid:100", "--time-scale", "5",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "MemoryLimitError" in err and "sweep of 10000 points" in err
        assert error_manifest(out)["type"] == "MemoryLimitError"

    def test_empty_grid_is_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "--command", "moments", "--freq", "2/5",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_lyapunov_energy_axis(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["sweep", "--command", "lyapunov", "--sampling", "zero",
                     "--freq", "0.61803398875", "--energies", "3.0",
                     "--n-steps", "1000", "--theta-count", "4",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "sweep.csv")
        gamma = float(rows[0][header.index("gamma_hat")])
        assert abs(gamma - math.log((3 + math.sqrt(5)) / 2)) < 0.01


class TestParameterTable:
    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_parser_and_config_are_the_table(self, name, monkeypatch):
        # the options of each subcommand are exactly its Params plus
        # --config/--out, and its config keys are their names plus out
        monkeypatch.delenv("QPT_OUT", raising=False)
        params = {p.name for p in cli.COMMANDS[name].params}
        parser = cli.build_parser()
        sub = parser._subparsers._group_actions[0].choices[name]
        dests = {a.dest for a in sub._actions} - {"help"}
        assert dests == params | {"config", "out"}
        cfg = cli.assemble_config(parser.parse_args([name]), None)
        assert set(cfg) == params | {"out"}


class TestHelpers:
    def test_parse_axis_forms(self):
        assert parse_axis("1,2,3", "x") == [1.0, 2.0, 3.0]
        assert parse_axis("grid:4", "x") == [0.0, 0.25, 0.5, 0.75]
        lin = parse_axis("lin:0:1:3", "x")
        assert lin == [0.0, 0.5, 1.0]
        assert parse_axis("2,5", "x", integer=True) == [2, 5]

    def test_parse_freq_spec_forms(self):
        assert parse_freq_spec("8/13") == {"kind": "rational", "num": 8,
                                           "den": 13}
        assert parse_freq_spec("liouville:beta=2,q1=2,depth=3") == \
            {"kind": "liouville", "beta": 2.0, "q1": 2, "depth": 3}
        assert parse_freq_spec("0.25000001")["kind"] == "value"

    def test_jsonable_handles_numpy_and_fractions(self):
        import numpy as np
        from fractions import Fraction
        doc = to_jsonable({"a": np.float64(1.5), "b": np.arange(3),
                           "f": Fraction(2, 5), "c": 1 + 2j,
                           "t": (1, 2)})
        assert doc == {"a": 1.5, "b": [0, 1, 2], "f": "2/5",
                       "c": {"re": 1.0, "im": 2.0}, "t": [1, 2]}
