from dataclasses import replace
from importlib import resources

import pytest

from riscap import cli, load_preset, parse_plan_text, sim
from riscap.cli import cli_main

from conftest import GEOMETRY
from goldens import GOLDEN

CONFIG = GEOMETRY + """\
n_t = 2
n_r = 2
n_ris = 5
snr_db = 0, 10
trials = 4
seed = 3
schemes = ris_only, basic
"""


@pytest.fixture(autouse=True)
def blas_threads(monkeypatch):
    """The thread counts set on a stand-in for the loaded OpenBLAS, which
    starts at 2: commands run here must not set this process's BLAS."""
    threads = [2]
    monkeypatch.setattr(sim, "_openblas", lambda: (lambda: threads[-1], threads.append))
    return threads


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(CONFIG)
    return path


class TestSimulate:
    def test_writes_expected_rows(self, config_file, tmp_path):
        out = tmp_path / "results.csv"
        code = cli_main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scheme,snr_db,mean_capacity_bits,stderr_bits,trials"
        assert len(lines) == 1 + 2 * 2  # schemes x snr points

    def test_preset_shorthand(self, tmp_path):
        out = tmp_path / "panel.csv"
        code = cli_main(["simulate", "--config", "panel_a", "--out", str(out),
                         "--trials", "2"])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 5 * 7

    def test_seed_and_trials_overrides_change_output(self, config_file, tmp_path):
        out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        cli_main(["simulate", "--config", str(config_file), "--out", str(out1)])
        cli_main(["simulate", "--config", str(config_file), "--out", str(out2),
                  "--seed", "77"])
        cli_main(["simulate", "--config", str(config_file), "--out", str(out3)])
        assert out1.read_bytes() != out2.read_bytes()
        assert out1.read_bytes() == out3.read_bytes()

    def test_missing_config_names_path(self, tmp_path, capsys):
        code = cli_main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "nope.cfg" in capsys.readouterr().err

    def test_invalid_config_content(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_t = 2\n")
        code = cli_main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_invalid_override_is_config_error(self, config_file, tmp_path):
        code = cli_main(["simulate", "--config", str(config_file),
                         "--out", str(tmp_path / "x.csv"), "--trials", "0"])
        assert code == 1

    @pytest.mark.parametrize("key, value", [
        ("snr_db", "nan"), ("lambda_m", "inf"), ("h_t_max_m", "inf"),
    ])
    def test_non_finite_number_is_config_error(self, key, value, tmp_path, capsys):
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                 for line in CONFIG.splitlines()]
        bad = tmp_path / "bad.cfg"
        bad.write_text("\n".join(lines))
        code = cli_main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("key, value, grid", [
        ("h_r_step_m", "0.03", "h_r_grid"), ("h_t_step_m", "1e-12", "h_t_grid"),
        ("h_t_step_m", "1e10", "h_t_step_m"),
    ])
    def test_bad_grid_step_is_config_error_naming_the_grid(self, key, value, grid,
                                                           tmp_path, capsys):
        # 1e-12 asks for 1e12 grid points: refused, not allocated
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                 for line in CONFIG.splitlines()]
        bad = tmp_path / "bad.cfg"
        bad.write_text("\n".join(lines))
        code = cli_main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert grid in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_fine_grid_that_divides_its_range_runs(self, tmp_path):
        # 1e-9 over [2, 3] is 1e9 steps to within 1.2e-7, a rounding error
        fine = tmp_path / "fine.cfg"
        fine.write_text(CONFIG.replace("h_t_step_m = 0.02", "h_t_step_m = 1e-9"))
        out = tmp_path / "fine.csv"
        assert cli_main(["simulate", "--config", str(fine), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 2

    def test_empty_schemes_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.replace("schemes = ris_only, basic", "schemes ="))
        code = cli_main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "schemes" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_negative_seed_is_config_error_naming_the_flag(self, config_file, tmp_path, capsys):
        code = cli_main(["simulate", "--config", str(config_file),
                         "--out", str(tmp_path / "x.csv"), "--seed", "-1"])
        assert code == 1
        assert "argument --seed" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_duplicate_snr_points_are_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.replace("snr_db = 0, 10", "snr_db = 5, 5, 0"))
        code = cli_main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "snr_db" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("out", ["missing_dir/x.csv", "."])
    def test_bad_output_path_is_config_error_naming_out(self, out, config_file, tmp_path,
                                                        capsys):
        # a missing directory, or a directory named as the file: refused
        # before the sweep runs, as every other bad input, not after it as a
        # failed write
        code = cli_main(["simulate", "--config", str(config_file), "--out", str(tmp_path / out)])
        assert code == 1
        assert "--out" in capsys.readouterr().err

    def test_unwritable_output_is_runtime_error(self, config_file, tmp_path):
        # a name too long for the file system passes the early checks; writing to it fails
        code = cli_main(["simulate", "--config", str(config_file),
                         "--out", str(tmp_path / ("x" * 300 + ".csv"))])
        assert code == 2

    def test_defaults_are_stated_once(self, tmp_path):
        # panel_a's geometry without its optional keys, with the plan's
        # defaults spelled out, and that in reverse order: one plan, one CSV
        defaults = ("snr_db = 0, 5, 10, 15, 20, 25, 30\ntrials = 1000\nseed = 1\n"
                    "schemes = basic, cophasing, joint, ris_only, ris_only_approx\n"
                    "benchmark_ris_phase = zero\n")
        optional = {line.partition(" ")[0] for line in defaults.splitlines()}
        preset = (resources.files("riscap") / "presets" / "panel_a.cfg").read_text()
        geometry = "".join(f"{line}\n" for line in preset.splitlines()
                           if line.partition(" ")[0] not in optional)
        texts = [geometry, geometry + defaults,
                 "\n".join(reversed((geometry + defaults).splitlines()))]
        assert parse_plan_text(texts[0]) == parse_plan_text(texts[1]) == parse_plan_text(texts[2])
        seed = str(load_preset("panel_a").seed)
        for i, text in enumerate(texts):
            (tmp_path / f"{i}.cfg").write_text(text)
            assert cli_main(["simulate", "--config", str(tmp_path / f"{i}.cfg"), "--out",
                             str(tmp_path / f"{i}.csv"), "--trials", "50", "--seed", seed]) == 0
            assert (tmp_path / f"{i}.csv").read_bytes() == \
                (GOLDEN / "panel_a_50.csv").read_bytes()

    def test_holds_the_blas_at_one_thread_before_the_sweep(self, blas_threads, config_file,
                                                          tmp_path, monkeypatch):
        # the command owns its process; run_plan, a library call, sets nothing
        seen, run_plan = [], cli.run_plan

        def spy(*args, **kwargs):
            seen.append(sim._blas_threads())
            return run_plan(*args, **kwargs)
        monkeypatch.setattr(cli, "run_plan", spy)
        assert sim._blas_threads() == 2
        sim.run_plan(replace(cli.config.load_preset("panel_a"), trials=2))
        assert blas_threads == [2]
        assert cli_main(["simulate", "--config", str(config_file),
                         "--out", str(tmp_path / "x.csv")]) == 0
        assert blas_threads == [2, 1]
        assert seen == [1]


@pytest.mark.parametrize("argv", [["validate"], ["approx-check", "--config", "panel_a"]])
def test_every_command_holds_the_blas_at_one_thread(blas_threads, monkeypatch, argv):
    # as simulate does, before its first channel is built
    seen, build_cascade = [], cli.build_cascade

    def spy(*args, **kwargs):
        seen.append(sim._blas_threads())
        return build_cascade(*args, **kwargs)
    monkeypatch.setattr(cli, "build_cascade", spy)
    assert cli_main(argv) == 0
    assert blas_threads == [2, 1]
    assert seen and set(seen) == {1}


class TestArgHandling:
    def test_unknown_flag_exits_one(self, capsys):
        assert cli_main(["simulate", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_command_exits_one(self):
        assert cli_main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out


class TestValidate:
    def test_passes_and_prints_bounds(self, capsys):
        assert cli_main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "sandwich" in out

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_is_config_error_naming_the_flag(self, seed, capsys):
        assert cli_main(["validate", "--seed", seed]) == 1
        assert "argument --seed" in capsys.readouterr().err


class TestApproxCheck:
    def test_reports_gains(self, capsys):
        assert cli_main(["approx-check", "--config", "panel_a"]) == 0
        out = capsys.readouterr().out
        assert "exact gain" in out
        assert "relative error" in out
        # one capacity line per SNR point plus the table header
        assert len([l for l in out.splitlines() if "," in l]) == 8
