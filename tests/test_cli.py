import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellfield import cli
from bellfield.cli import (
    ConfigError,
    ExperimentConfig,
    build_config,
    main,
    read_config_file,
    render_rows,
)
from bellfield.angles import PI, PolAngle
from bellfield.bell import MIN_KERNEL_CELLS, Mrf3Params, brute_force_oracle, channel_sums, coincidence_probability
from bellfield.dist import MAX_GRID, MAX_SIGMA


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestBellSweep:
    def test_rows_models_and_targets(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["bell-sweep", "--angles", "30,60", "--mode", "both", "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 6
        assert [r["model"] for r in rows] == ["MRF3-exact", "MRF3-oracle", "QM"] * 2
        for r in rows:
            d = float(r["delta_deg"])
            assert float(r["target"]) == pytest.approx(0.5 * math.cos(math.radians(d)) ** 2)
            tol = 1e-3 if r["model"] == "MRF3-oracle" else 1e-9
            assert float(r["abs_error"]) < tol

    def test_column_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["bell-sweep", "--angles", "30", "--mode", "exact", "--output", str(out)])
        header = out.read_text().splitlines()[0]
        assert header == "experiment,model,delta_deg,value,target,abs_error,runtime_ms"

    def test_deterministic_apart_from_runtime(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            main(["bell-sweep", "--angles", "20,40", "--mode", "exact", "--output", str(out)])

        def strip_runtime(path):
            return [r[: r.rfind(",")] for r in path.read_text().splitlines()]

        assert strip_runtime(out1) == strip_runtime(out2)

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            ["bell-sweep", "--angles", "30", "--mode", "exact", "--format", "json", "--output", str(out)]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert {r["model"] for r in rows} == {"MRF3-exact", "QM"}
        for r in rows:
            assert set(r) == {
                "experiment",
                "model",
                "delta_deg",
                "value",
                "target",
                "abs_error",
                "runtime_ms",
            }

    def test_huge_angle_reduced_before_conversion(self, tmp_path):
        # radians(1e308) keeps no digit mod pi; 1e308 mod 180 is exactly 116
        def rows(angle):
            out = tmp_path / f"{angle}.json"
            assert main(["bell-sweep", "--angles", angle, "--mode", "both", "--format", "json", "--output", str(out)]) == 0
            return [(r["model"], r["value"], r["target"]) for r in json.loads(out.read_text())]

        assert rows("1e308") == rows("116")
        assert rows("116")[0][2] == 0.5 * math.cos(math.radians(116.0)) ** 2

    def test_degenerate_angle_rejected_in_exact_mode(self, tmp_path, capsys):
        code = main(["bell-sweep", "--angles", "0,30", "--mode", "exact", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "angles" in capsys.readouterr().err

    def test_sigma_too_coarse_is_numerical_failure(self, tmp_path, capsys):
        code = main(
            [
                "bell-sweep",
                "--angles",
                "30",
                "--mode",
                "regularized",
                "--sigma",
                "0.5",
                "--output",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 3
        assert "SigmaTooCoarse" in capsys.readouterr().err


class TestSpecialCases:
    def test_unresolved_kernel_is_config_error(self, tmp_path, capsys):
        # no oracle grid resolves a kernel this narrow, not even the 65536-point one sized for it
        assert main(["special-cases", "--sigma", "1e-300", "--output", str(tmp_path / "x.csv")]) == 2
        assert "config key 'sigma'" in capsys.readouterr().err

    def test_targets(self, tmp_path):
        out = tmp_path / "special.csv"
        assert main(["special-cases", "--output", str(out)]) == 0
        rows = read_csv(out)
        oracle_rows = [r for r in rows if r["model"] == "MRF3-oracle"]
        assert len(oracle_rows) == 2
        by_delta = {float(r["delta_deg"]): r for r in oracle_rows}
        assert float(by_delta[0.0]["value"]) == pytest.approx(0.5, abs=1e-3)
        assert float(by_delta[90.0]["value"]) == pytest.approx(0.0, abs=1e-6)


class TestSizedGrid:
    """With no ``--grid-n`` the oracle's grid is sized from sigma."""

    @staticmethod
    def oracle_row(tmp_path, *argv):
        out = tmp_path / "rows.json"
        assert main([*argv, "--format", "json", "--output", str(out)]) == 0
        return [r["value"] for r in json.loads(out.read_text()) if r["model"] == "MRF3-oracle"]

    @settings(max_examples=40, deadline=None)
    @given(st.floats(MIN_KERNEL_CELLS * PI / MAX_GRID, MAX_SIGMA))
    def test_every_width_down_to_the_largest_grids_bound_runs(self, sigma):
        with tempfile.TemporaryDirectory() as tmp:
            (value,) = self.oracle_row(Path(tmp), "bell-sweep", "--mode", "regularized", "--angles", "30", f"--sigma={sigma!r}")
        params = Mrf3Params(PolAngle.from_degrees(30.0), PolAngle.from_degrees(0.0), sigma=sigma)
        assert abs(value - coincidence_probability(params, "regularized").probability) <= 1e-12

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["bell-sweep", "--mode", "regularized", "--angles", "30", "--sigma"], "sigma"),
            (["special-cases", "--sigma"], "sigma"),
            (["limit-study", "--sigmas"], "sigmas"),
        ],
    )
    @pytest.mark.parametrize("sigma", ["nan", "0", "-1", "inf", repr(math.nextafter(MIN_KERNEL_CELLS * PI / MAX_GRID, 0))])
    def test_a_width_out_of_range_exits_2(self, argv, key, sigma, tmp_path, capsys):
        # the grid is sized only once sigma is known to be a positive number
        value = f"{sigma},0.01" if key == "sigmas" else sigma
        assert main([*argv, value, "--output", str(tmp_path / "x.csv")]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bell-sweep", "--mode", "regularized", "--angles", "30", "--sigma", "0.2"],
            ["special-cases", "--sigma", "0.2"],
            ["limit-study", "--sigmas", "0.2,0.01"],
        ],
    )
    def test_a_width_above_pi_over_16_exits_3(self, argv, tmp_path, capsys):
        assert main([*argv, "--output", str(tmp_path / "x.csv")]) == 3
        assert "SigmaTooCoarse" in capsys.readouterr().err

    def test_grid_n_8192_gives_the_8192_point_rows(self, tmp_path):
        # an explicit grid is used as given: these are the 8192-point values, bit for bit
        argv = ["bell-sweep", "--mode", "regularized", "--angles", "0,33.3,90", "--grid-n", "8192"]
        # (alpha, which cancels, is 1 on the grid; at 1e-2 they differed by rounding, up to 3e-16 relative)
        assert self.oracle_row(tmp_path, *argv) == [0.4999999894957819, 0.3492281735275124, 1.0504217916142654e-08]
        argv = ["limit-study", "--grid-n", "8192"]
        assert self.oracle_row(tmp_path, *argv) == [0.3745519038665471, 0.37485106957380626, 0.37492597325509047]

    @pytest.mark.parametrize(
        "argv, knobs",
        [
            (
                ["bell-sweep", "--mode", "regularized", "--angles", "30", "--sigma", "0.005", "--beta", "1e-2"],
                [(0.005, 1e-2)],
            ),
            # limit-study sizes each width's grid anew
            (["limit-study", "--betas", "1e-3,1e-2"], [(s, b) for b in (1e-3, 1e-2) for s in (0.04, 0.02, 0.01)]),
        ],
    )
    def test_a_library_oracle_without_grid_n_gives_the_cli_row(self, argv, knobs, tmp_path):
        arms = PolAngle.from_degrees(30.0), PolAngle.from_degrees(0.0)
        want = [brute_force_oracle(Mrf3Params(*arms, sigma=s, beta=b)).probability for s, b in knobs]
        assert self.oracle_row(tmp_path, *argv) == want

    def test_sized_grid_moves_no_row_by_more_than_1e_12(self, tmp_path):
        argv = ["bell-sweep", "--mode", "regularized", "--angles", "0,33.3,90", "--sigma", "0.01"]
        fixed = self.oracle_row(tmp_path, *argv, "--grid-n", "8192")
        for got, want in zip(self.oracle_row(tmp_path, *argv), fixed, strict=True):
            assert abs(got - want) <= 1e-12


class TestLimitStudy:
    def test_error_decreases_with_sigma(self, tmp_path):
        out = tmp_path / "limit.csv"
        code = main(
            [
                "limit-study",
                "--sigmas",
                "0.04,0.02,0.01",
                "--betas",
                "1e-3",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        errors = [float(r["abs_error"]) for r in rows]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert rows[0]["richardson"] == ""
        extrapolated = float(rows[-1]["richardson"])
        assert abs(extrapolated - float(rows[-1]["target"])) < float(rows[-1]["abs_error"])

    def test_error_decreases_with_beta(self, tmp_path):
        out = tmp_path / "limit.csv"
        code = main(
            ["limit-study", "--sigmas", "0.01", "--betas", "1e-2,1e-3", "--output", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        by_beta = {float(r["beta"]): float(r["abs_error"]) for r in rows}
        assert by_beta[1e-2] > by_beta[1e-3]

    @pytest.mark.parametrize("angles", ["0", "90", "10,20"])
    def test_degenerate_or_second_angle_rejected(self, angles, tmp_path, capsys):
        # the exact target cannot take a degenerate setting, and one study has one setting
        argv = ["limit-study", "--angles", angles, "--sigmas", "0.02,0.01", "--output", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert "config key 'angles'" in capsys.readouterr().err

    def test_single_pair_rejected(self, tmp_path, capsys):
        code = main(
            ["limit-study", "--sigmas", "0.01", "--betas", "1e-3", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "sigmas" in capsys.readouterr().err


class TestMalusChain:
    def test_transmission_and_reorder(self, tmp_path):
        out = tmp_path / "malus.csv"
        assert main(["malus-chain", "--angles", "0,45,90", "--initial", "0", "--output", str(out)]) == 0
        (row,) = read_csv(out)
        assert float(row["value"]) == pytest.approx(0.25, abs=1e-12)
        assert row["target"] == ""

        assert main(["malus-chain", "--angles", "0,90,45", "--initial", "0", "--output", str(out)]) == 0
        (row,) = read_csv(out)
        assert float(row["value"]) == pytest.approx(0.0, abs=1e-12)

    def test_missing_settings_rejected(self, capsys):
        assert main(["malus-chain"]) == 2
        assert "angles" in capsys.readouterr().err


class TestTriphoton:
    def test_single_comparison(self, tmp_path):
        out = tmp_path / "tri.csv"
        code = main(["triphoton-compare", "--angles", "10,25,40", "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert [r["model"] for r in rows] == ["QM", "Mstar", "MRF3-oracle"]
        qm = float(rows[0]["value"])
        for r in rows[1:]:
            assert float(r["target"]) == pytest.approx(qm)
            assert float(r["abs_error"]) == pytest.approx(abs(float(r["value"]) - qm), abs=1e-9)

    def test_grid_n_below_the_oracle_minimum_changes_no_row(self, tmp_path):
        # bench/workloads.py runs the scan with --grid-n 96, below MIN_GRID; no triphoton route reads it
        rows = {}
        for extra in ([], ["--grid-n", "96"]):
            out = tmp_path / f"{len(extra)}.json"
            argv = ["triphoton-compare", "--angles", "10,25,40", *extra, "--format", "json", "--output", str(out)]
            assert main(argv) == 0
            rows[len(extra)] = [{k: v for k, v in r.items() if k != "runtime_ms"} for r in json.loads(out.read_text())]
        assert rows[0] == rows[2]
        assert [r["model"] for r in rows[0]] == ["QM", "Mstar", "MRF3-oracle"]

    def test_wrong_angle_count(self, capsys):
        assert main(["triphoton-compare", "--angles", "10,20"]) == 2
        assert "angles" in capsys.readouterr().err

    def test_unresolved_sigma_reaches_the_model_limit(self, tmp_path):
        # cos^2(6 deg) / 4; no grid, so no kernel too narrow to resolve
        out = tmp_path / "tri.csv"
        assert main(["triphoton-compare", "--angles", "1,2,3", "--sigma", "1e-30", "--output", str(out)]) == 0
        rows = {r["model"]: float(r["value"]) for r in read_csv(out)}
        assert rows["MRF3-oracle"] == pytest.approx(0.2473, abs=1e-3)
        assert rows["Mstar"] == pytest.approx(0.2473, abs=1e-3)

    def test_overflowing_partition_exits_3(self, capsys):
        # a kernel this narrow peaks above the largest float at Σθ = 0
        argv = ["triphoton-compare", "--angles", "0,0,0", "--sigma", "5e-324", "--grid-n", "1"]
        assert main(argv) == 3
        assert "OverflowError" in capsys.readouterr().err


class TestConfigFile:
    def test_file_drives_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out.csv"
        cfg.write_text(
            "# malus demo\n"
            "experiment = malus-chain\n"
            "angles = 0,45,90\n"
            "initial = 0\n"
            f"output = {out}\n"
        )
        assert main(["--config", str(cfg)]) == 0
        (row,) = read_csv(out)
        assert float(row["value"]) == pytest.approx(0.25, abs=1e-12)

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out.csv"
        cfg.write_text(f"experiment = malus-chain\nangles = 0,45,90\noutput = {out}\n")
        assert main(["--config", str(cfg), "--angles", "0,90,45"]) == 0
        (row,) = read_csv(out)
        assert float(row["value"]) == pytest.approx(0.0, abs=1e-12)

    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = malus-chain\nangels = 1\n")
        assert main(["--config", str(cfg)]) == 2
        assert "angels" in capsys.readouterr().err

    def test_missing_experiment(self, capsys):
        assert main([]) == 2
        assert "experiment" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment malus-chain\n")
        assert main(["--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "text, key, lineno",
        [
            ("experiment = bell-sweep\nexperiment = malus-chain\nangles = 0\n", "experiment", 2),
            ("experiment = malus-chain\nangles = 0\nangles = 0 # the same text\n", "angles", 3),
        ],
        ids=["experiment", "angles"],
    )
    def test_repeated_key_exits_2(self, text, key, lineno, tmp_path, capsys):
        # a file gives each key once, as a command line gives one bare word
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: config key '{key}': {cfg}:{lineno}: the key is given twice\n"
        assert not (tmp_path / "x.csv").exists()

    def test_read_config_file_parses_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 1 # trailing\n# full line\n\nb = two\n")
        assert read_config_file(str(cfg)) == {"a": "1", "b": "two"}


    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        rows = []
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.json"
            cfg.write_bytes(bom + f"experiment = malus-chain\nangles = 0,45,120\nformat = json\noutput = {out}\n".encode())
            assert main(["--config", str(cfg)]) == 0
            rows.append([{k: v for k, v in r.items() if k != "runtime_ms"} for r in json.loads(out.read_text())])
        assert rows[0] == rows[1]
        assert rows[0][0]["settings"] == "0,45,120"

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"experiment = malus-chain\nangles = 0\xff\n")
        assert main(["--config", str(cfg)]) == 2
        assert "config key 'config'" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["bell-sweep", "--mode", "exact", "--angles", "30", "--output", str(out)]) == 2
        assert "config key 'output'" in capsys.readouterr().err


class TestOneDeclaration:
    """Flags and config-file lines are read from the same ExperimentConfig fields."""

    TEXTS = {
        "experiment": "malus-chain",
        "angles": "10, 20,30",
        "beta": "2e-3",
        "sigma": "0.03",
        "grid_n": "512",
        "mode": "regularized",
        "output": "table.csv",
        "format": "json",
        "initial": "unpolarized",
        "sigmas": "0.04,0.02",
        "betas": "1e-3,2e-3",
    }

    @staticmethod
    def both_argvs(tmp_path, key, text):
        """The argv giving one key's text as a flag, then as a config-file line."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(("" if key == "experiment" else "experiment = limit-study\n") + f"{key} = {text}\n")
        flag = [text] if key == "experiment" else ["limit-study", f"--{key.replace('_', '-')}={text}"]
        return flag, ["--config", str(cfg)]

    def test_every_key_has_a_sample(self):
        assert set(self.TEXTS) == {f.name for f in fields(ExperimentConfig)}

    @pytest.mark.parametrize("key", sorted(TEXTS))
    def test_flag_and_file_line_give_equal_configs(self, key, monkeypatch, tmp_path):
        seen = []
        monkeypatch.setattr(cli, "run", seen.append)
        for argv in self.both_argvs(tmp_path, key, self.TEXTS[key]):
            assert main(argv) == 0
        from_flag, from_file = seen
        assert from_flag == from_file
        assert getattr(from_flag, key) != getattr(ExperimentConfig("limit-study"), key)

    @pytest.mark.parametrize(
        "key, text",
        [
            ("alpha", "abc"),  # no key: alpha cancels from every ratio
            ("beta", "abc"),
            ("grid_n", "1.5"),
            ("mode", "quantum"),
            ("format", "xml"),
            ("angles", "1,x"),
            ("experiment", "foo"),
        ],
    )
    def test_flag_and_file_line_fail_alike(self, key, text, tmp_path, capsys):
        messages = []
        for argv in self.both_argvs(tmp_path, key, text):
            assert main(argv) == 2
            messages.append(capsys.readouterr().err)
        from_flag, from_file = messages
        assert f"config key '{key}'" in from_flag
        assert from_flag == from_file

    def test_dash_value_after_its_flag_is_the_value(self, tmp_path):
        # argparse would take -10,20 for an option; the row must be the one
        # --angles=-10,20 and the file line give.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = malus-chain\nangles = -10,20\n")
        rows = []
        for i, argv in enumerate(
            (["malus-chain", "--angles", "-10,20"], ["malus-chain", "--angles=-10,20"], ["--config", str(cfg)])
        ):
            out = tmp_path / f"{i}.csv"
            assert main([*argv, "--output", str(out)]) == 0
            (row,) = read_csv(out)
            rows.append({k: v for k, v in row.items() if k != "runtime_ms"})
        assert rows[0] == rows[1] == rows[2]
        assert rows[0]["settings"] == "-10,20"

    @pytest.mark.parametrize("argv", [["--ang", "-10,20"], ["--ang=-10,20"], ["--ang", "10"]])
    def test_flag_prefix_is_refused_like_an_unknown_file_key(self, argv, tmp_path, capsys):
        # a config file has no key 'ang' either, and the two refusals read alike
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = malus-chain\nang = 10\n")
        assert main(["--config", str(cfg)]) == 2
        from_file = capsys.readouterr().err
        assert main(["malus-chain", *argv]) == 2
        assert capsys.readouterr().err == from_file == "configuration error: config key 'ang': unknown configuration key\n"


class TestCommandLine:
    """The argv reader: one key text per flag, refusals naming the key."""

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["malus-chain", "--angles"], "angles"),
            (["malus-chain", "--angles", "0", "--config"], "config"),
            (["malus-chain", "--grid_n", "512"], "grid_n"),
            (["malus-chain", "--angles=0", "--grid_n=512"], "grid_n"),
            (["malus-chain", "bell-sweep"], "experiment"),
            (["--experiment", "malus-chain"], "experiment"),
            (["malus-chain", "--angles", "0", "--grid-n"], "grid_n"),
            (["malus-chain", "--foo-bar", "1"], "foo_bar"),
            (["malus-chain", "--help=1"], "help"),
            (["malus-chain", "--angles", "0", "-x"], "experiment"),
        ],
    )
    def test_malformed_command_line_exits_2_naming_the_key(self, argv, key, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config key '{key}': ")
        assert err.count("\n") == 1

    def test_unknown_flag_reads_as_its_file_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = malus-chain\nfoo_bar = 1\n")
        messages = []
        for argv in (["--config", str(cfg)], ["malus-chain", "--foo-bar", "1"]):
            assert main(argv) == 2
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["bell-sweep", "-h"], ["--angles", "0", "--help", "--ang"]])
    def test_help_lists_experiments_and_keys(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        for experiment in cli.RUNNERS:
            assert experiment in out
        for f in fields(ExperimentConfig):
            flag = "<experiment>" if f.name == "experiment" else "--" + f.name.replace("_", "-")
            assert f"  {flag} " in out and f.metadata["help"] in out
        assert "--config FILE" in out

    def test_help_as_a_value_is_the_value(self, tmp_path):
        assert main(["malus-chain", "--angles", "0", "--initial", "-h", "--output", str(tmp_path / "x.csv")]) == 2
        out = tmp_path / "-h"
        assert main(["malus-chain", "--angles", "0", "--output", str(out)]) == 0
        assert out.is_file()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["malus-chain", "--angles", "10", "--angles=-20,30"], "angles"),
            (["malus-chain", "--angles=10", "--grid-n", "512", "--grid-n", "512"], "grid_n"),
            (["--config", "a.cfg", "malus-chain", "--config=b.cfg"], "config"),
        ],
    )
    def test_repeated_flag_exits_2(self, argv, key, monkeypatch, capsys):
        # a key given twice is refused, as a file's repeated line is
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a repeated flag ran"))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config key '{key}': ")
        assert err.count("\n") == 1

    def test_no_argparse_at_import(self):
        code = "import sys, bellfield.cli; print('argparse' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), check=True)
        assert result.stdout == "False\n"

    def test_program_help_names_every_flag(self):
        result = _run_program("-h")
        assert result.returncode == 0
        for f in fields(ExperimentConfig):
            if f.name != "experiment":
                assert "--" + f.name.replace("_", "-") in result.stdout
        assert "--config" in result.stdout
        assert result.stderr == ""

    def test_program_flag_without_value_exits_2(self):
        result = _run_program("malus-chain", "--angles")
        assert result.returncode == 2
        assert "config key 'angles'" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""


SRC = str(os.path.dirname(os.path.dirname(cli.__file__)))


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def _run_program(*argv: str) -> subprocess.CompletedProcess:
    """``python -m bellfield.cli`` as its own process."""
    return subprocess.run(
        [sys.executable, "-m", "bellfield.cli", *argv], capture_output=True, text=True, env=_child_env(), timeout=60
    )


#: Records whether numpy is loaded as each timed call of the CLI starts.
TIMED_PROBE = """
import json, sys
from bellfield import cli
timed, at_start = cli._timed, []
def probe(fn):
    at_start.append("numpy" in sys.modules)
    return timed(fn)
cli._timed = probe
"""

#: Run in a fresh interpreter, so that no earlier import in the test process
#: can hide one: whether numpy is loaded after importing the CLI, after the
#: exact Bell sweep and the triphoton comparison, as an oracle sweep's first
#: row starts its clock, and after that sweep.
NUMPY_PROBE = TIMED_PROBE + """
loaded = ["numpy" in sys.modules]
for argv in (["bell-sweep", "--mode", "exact"], ["triphoton-compare", "--angles", "10,25,40"]):
    assert cli.main([*argv, "--output", sys.argv[1]]) == 0
    loaded.append("numpy" in sys.modules)
at_start.clear()
assert cli.main(["bell-sweep", "--mode", "regularized", "--format", "json", "--output", sys.argv[1]]) == 0
loaded += [at_start[0], "numpy" in sys.modules]
print(json.dumps(loaded))
"""


def test_numpy_loads_only_for_the_oracle(tmp_path):
    child = tmp_path / "child.json"
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, str(child)], capture_output=True, text=True, env=_child_env(), timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [False, False, False, True, True]
    here = tmp_path / "here.json"
    assert main(["bell-sweep", "--mode", "regularized", "--format", "json", "--output", str(here)]) == 0
    rows = [[{k: v for k, v in r.items() if k != "runtime_ms"} for r in json.loads(p.read_text())] for p in (child, here)]
    assert rows[0] == rows[1] and len(rows[0]) == 2 * len(cli.DEFAULT_SWEEP)


@pytest.mark.parametrize("argv", [["special-cases"], ["limit-study"], ["malus-chain", "--angles", "0,45"]])
def test_numpy_loads_before_the_first_timed_row(argv, tmp_path):
    # a runner that reaches numpy imports it first, so no row's runtime_ms holds the import
    probe = TIMED_PROBE + "assert cli.main([*sys.argv[2:], '--output', sys.argv[1]]) == 0\nprint(at_start[0])\n"
    result = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "x.csv"), *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"


FLAGS = ["--" + f.name.replace("_", "-") for f in fields(ExperimentConfig) if f.name != "experiment"]
#: Words that are no flag: unknown, abbreviated and underscored keys, the bare word as a flag, single dashes.
BAD_FLAGS = ["--foo", "--ang", "--grid", "--grid_n", "--sigma_s", "--experiment", "--", "--=1", "-x", "-5"]
VALUES = ["-10,20", "-5", "30", "0,45,90", "1e-3", "0.02", "unpolarized", "json", "exact", "-", "--mode", "-h", "", "x"]
words = st.one_of(
    st.sampled_from(FLAGS),
    st.sampled_from(BAD_FLAGS),
    st.sampled_from([*cli.RUNNERS, "foo"]),
    st.sampled_from(VALUES),
    st.builds(lambda flag, value: f"{flag}={value}", st.sampled_from(FLAGS + BAD_FLAGS), st.sampled_from(VALUES)),
    st.just("-h"),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(words, max_size=8))
def test_every_word_list_exits_0_2_or_3(argv):
    # the reader is under test: each experiment validates and writes no rows
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(cli.RUNNERS, {e: lambda config: [] for e in cli.RUNNERS}):
        os.chdir(tmp)  # --output takes any of the words
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("configuration error: config key '"), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig(experiment="bell-sweep", mode="quantum").validate()

    def test_bad_alpha(self, tmp_path, capsys):
        # alpha cancels from every ratio, so no value of it is a setting
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = bell-sweep\nalpha = 0.01\n")
        for argv in (["bell-sweep", "--alpha", "0.01"], ["--config", str(cfg)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "configuration error: config key 'alpha': unknown configuration key\n"

    @pytest.mark.parametrize(
        "argv, key",
        [
            # alpha is no key, whatever its value and on every experiment
            (["bell-sweep", "--alpha", "nan"], "alpha"),
            (["bell-sweep", "--beta", "inf"], "beta"),
            (["bell-sweep", "--sigma", "nan"], "sigma"),
            (["bell-sweep", "--sigma", "-1"], "sigma"),
            (["bell-sweep", "--grid-n", "100"], "grid_n"),
            (["special-cases", "--grid-n", "255"], "grid_n"),
            (["limit-study", "--grid-n", "128"], "grid_n"),
            (["triphoton-compare", "--angles", "10,20,30", "--grid-n", "-5"], "grid_n"),
            (["malus-chain", "--angles", "0", "--initial", "nan"], "initial"),
            (["limit-study", "--sigmas", "0.01,0.01"], "sigmas"),
            (["limit-study", "--sigmas", "0.01", "--betas", "1e-3,1e-3"], "betas"),
            (["limit-study", "--sigmas", "0,0.01"], "sigmas"),
            (["bell-sweep", "--mode", "regularized", "--angles", "30", "--beta", "0.2"], "beta"),
            (["special-cases", "--beta", "0.2"], "beta"),
            (["triphoton-compare", "--angles", "10,20,30", "--beta", "0.2"], "beta"),
            (["limit-study", "--betas", "0.2,0.3"], "betas"),
            (["bell-sweep", "--angles", "30", "--alpha", "1e300"], "alpha"),
            (["triphoton-compare", "--angles", "10,20,30", "--alpha", "1e300"], "alpha"),
            (["bell-sweep", "--mode", "exact", "--angles", "3e-11"], "angles"),
            (["bell-sweep", "--mode", "regularized", "--angles", "30", "--grid-n", str(MAX_GRID + 1)], "grid_n"),
            (["special-cases", "--grid-n", str(MAX_GRID + 1)], "grid_n"),
            (["limit-study", "--grid-n", str(MAX_GRID + 1)], "grid_n"),
            (["triphoton-compare", "--angles", "10,20,30", "--grid-n", str(MAX_GRID + 1)], "grid_n"),
            # the bounds hold on every experiment, as grid_n's range does
            (["malus-chain", "--angles", "10", "--alpha", "5"], "alpha"),
            (["malus-chain", "--angles", "10", "--beta", "0.5"], "beta"),
            (["bell-sweep", "--mode", "exact", "--angles", "30", "--alpha", "5"], "alpha"),
            (["malus-chain", "--angles", "10", "--grid-n", "0"], "grid_n"),
            (["bell-sweep", "--mode", "exact", "--angles", "30", "--sigma", "inf"], "sigma"),
            (["limit-study", "--sigmas", "0.01,nan"], "sigmas"),
            # refused by a route after it computed rows: the table is written whole or not at all
            (["limit-study", "--sigmas", "0.02,1e-300"], "sigmas"),
            (["bell-sweep", "--mode", "both", "--angles", "30", "--sigma", "1e-300"], "sigma"),
            # an empty list would leave the table empty
            (["limit-study", "--sigmas", "0.04,0.02", "--betas", ","], "betas"),
            (["limit-study", "--sigmas", ",", "--betas", "1e-3,1e-2"], "sigmas"),
            (["bell-sweep", "--alpha", "0.01"], "alpha"),
        ],
    )
    def test_rejected_input_exits_2(self, argv, key, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main([*argv, "--output", str(out)]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_exact_route_takes_any_grid_n_in_range(self, tmp_path):
        # no grid is built, so the oracle's minimum of 256 points does not apply
        rows = {}
        for grid_n in ("100", "8192"):
            out = tmp_path / f"{grid_n}.json"
            argv = ["bell-sweep", "--mode", "exact", "--angles", "30", "--grid-n", grid_n, "--format", "json"]
            assert main([*argv, "--output", str(out)]) == 0
            rows[grid_n] = [{k: v for k, v in r.items() if k != "runtime_ms"} for r in json.loads(out.read_text())]
        assert rows["100"] == rows["8192"]
        assert [r["model"] for r in rows["100"]] == ["MRF3-exact", "QM"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["malus-chain", "--angles", "10", "--sigma", "0.5"],
            ["bell-sweep", "--mode", "exact", "--sigma", "0.5"],
        ],
    )
    def test_too_coarse_sigma_exits_3_where_no_kernel_is_built(self, argv, tmp_path, capsys):
        assert main([*argv, "--output", str(tmp_path / "x.csv")]) == 3
        assert "SigmaTooCoarse" in capsys.readouterr().err

    def test_every_model_error_has_its_exit_code(self):
        # a model error neither typed nor numerical would escape main: exit 1
        import bellfield
        from bellfield.bell import KernelUnresolved, ProbabilityOutOfRange
        from bellfield.mrf import ZeroPartition
        from bellfield.quantum import ZeroEnsemble

        exported = {getattr(bellfield, name) for name in bellfield.__all__}
        errors = {c for c in exported if isinstance(c, type) and issubclass(c, BaseException)}
        errors |= {KernelUnresolved, ProbabilityOutOfRange, ZeroEnsemble, ZeroPartition, ConfigError}
        assert len(errors) >= 10
        for error in errors:
            assert issubclass(error, ConfigError) != issubclass(error, cli.NUMERICAL_ERRORS), error

    def test_cancelled_leading_order_exits_3(self, tmp_path, capsys):
        argv = ["bell-sweep", "--mode", "exact", "--angles", "89.9999999"]
        assert main([*argv, "--output", str(tmp_path / "x.csv")]) == 3
        assert "UnexpectedLeadingOrder" in capsys.readouterr().err

    def test_angle_just_past_the_tolerance_is_computed(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["bell-sweep", "--mode", "exact", "--angles", "1e-10", "--output", str(out)]) == 0
        assert float(read_csv(out)[0]["value"]) == 0.5

    def test_near_right_angle_past_the_tolerance_exits_3(self, tmp_path, capsys):
        argv = ["bell-sweep", "--mode", "exact", "--angles", "89.9999999999"]
        assert main([*argv, "--output", str(tmp_path / "x.csv")]) == 3
        assert "UnexpectedLeadingOrder" in capsys.readouterr().err

    def test_build_config_rejects_bad_number(self):
        with pytest.raises(ConfigError, match="beta"):
            build_config({"beta": "abc"}, {})

    def test_render_formats_twelve_digits(self):
        from bellfield.cli import ResultRow

        row = ResultRow("bell-sweep", "QM", {"delta_deg": 30.0}, 1 / 3, 0.5, 1.234)
        text = render_rows([row], "csv")
        assert "0.333333333333" in text  # 12 significant digits
        assert "0.166666666667" in text  # abs_error formatted the same way

    def test_render_json_carries_the_exact_double(self):
        from bellfield.cli import ResultRow

        row = ResultRow("bell-sweep", "QM", {"delta_deg": 0.1 + 0.2}, 1 / 3, 0.5, 1.234)
        (obj,) = json.loads(render_rows([row], "json"))
        assert obj["value"] == 1 / 3
        assert obj["abs_error"] == abs(1 / 3 - 0.5)
        assert obj["delta_deg"] == 0.1 + 0.2

    def test_render_json_writes_one_row_object_a_line(self):
        from bellfield.cli import ResultRow

        rows = [ResultRow("bell-sweep", m, {"delta_deg": 30.0}, 0.375, 0.375, 1.0) for m in ("MRF3-exact", "QM")]
        lines = render_rows(rows, "json").splitlines()
        assert lines[0] == "[" and lines[-1] == "]" and len(lines) == 4
        assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == json.loads("\n".join(lines))


@pytest.mark.parametrize(
    ("argv", "distinct"),
    [
        (["bell-sweep", "--mode", "both"], 8 + 1),  # each row's first arm, and the shared 0-degree arm
        (["triphoton-compare"], len(cli.TRIPHOTON_SCAN_DEGREES)),
    ],
    ids=["bell-sweep", "triphoton-compare"],
)
def test_rows_do_not_depend_on_the_channel_sums_memo(tmp_path, argv, distinct):
    def rows(name):
        out = tmp_path / name
        assert main([*argv, "--format", "json", "--output", str(out)]) == 0
        return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in json.loads(out.read_text())]

    channel_sums.cache_clear()
    cold = rows("cold.json")
    # The memo's bound holds the experiment's repeats: each setting is summed once.
    assert channel_sums.cache_info().misses == distinct
    hits = channel_sums.cache_info().hits
    assert rows("warm.json") == cold
    assert channel_sums.cache_info().hits > hits


numbers = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0]),
    st.floats(1e-300, 1e300),
    st.floats(-1e300, -1e-300),
)
degrees = st.one_of(st.floats(-720.0, 720.0), st.sampled_from([0.0, 90.0, 1e-10, 89.9999999]))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["bell-sweep", "special-cases", "limit-study", "malus-chain", "triphoton-compare"]),
    numbers,
    numbers,
    st.lists(degrees, min_size=3, max_size=3),
    st.sampled_from([-1, 0, 1, 96, 256, 300, MAX_GRID + 1, None]),
    st.sampled_from(["exact", "regularized", "both"]),
)
# the triphoton partition overflows; once printed as nan with exit 0
@example("triphoton-compare", 1e-3, 5e-324, [0.0, 0.0, 0.0], 1, "both")
# near-collision cancellations round the Mstar and MRF rows to about -5e-132;
# once printed negative with exit 0
@example("triphoton-compare", 5.316546483594361e-24, 8.075775409081829e-93, [90.0, 0.0, 0.0], None, "both")
@example("triphoton-compare", 5.316546483594361e-24, 8.075775409081829e-93, [0.0, 1e-10, 89.9999999], 1, "both")
def test_every_input_exits_0_2_or_3(experiment, beta, sigma, angles, grid_n, mode):
    argv = [
        experiment,
        f"--beta={beta!r}",
        f"--sigma={sigma!r}",
        f"--angles={','.join(repr(a) for a in angles)}",
        *([] if grid_n is None else [f"--grid-n={grid_n}"]),  # None: sized from sigma
        f"--mode={mode}",
        "--format=json",
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        for row in json.loads(out.getvalue()):
            assert math.isfinite(row["value"]) and 0.0 <= row["value"] <= 1.0, (argv, row)
