import pytest

from riscap import load_preset, parse_plan_file, parse_plan_text
from riscap.config import PRESETS

MINIMAL = """
# geometry
lambda_m = 0.005
n_t = 8
n_r = 4
n_ris = 50
s_t_m = 0.0025
s_r_m = 0.0025
s_ris_m = 0.0025
d_wall_m = 5.0
d_ris_m = 2.5
h_t_min_m = 2.0
h_t_max_m = 3.0
h_t_step_m = 0.02
h_r_min_m = 0.8
h_r_max_m = 1.8
h_r_step_m = 0.02
"""


class TestParsePlanText:
    def test_minimal_config_gets_defaults(self):
        plan = parse_plan_text(MINIMAL)
        assert (plan.n_t, plan.n_r, plan.n_ris) == (8, 4, 50)
        assert plan.snr_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        assert plan.trials == 1000
        assert plan.seed == 1
        assert set(plan.schemes) == {
            "basic", "cophasing", "joint", "ris_only", "ris_only_approx"
        }
        assert plan.benchmark_ris_phase == "zero"

    def test_explicit_values_and_inline_comments(self):
        text = MINIMAL + (
            "snr_db = 0, 10, 20  # coarse sweep\n"
            "trials = 17\n"
            "seed = 99\n"
            "schemes = ris_only, basic\n"
            "benchmark_ris_phase = random\n"
        )
        plan = parse_plan_text(text)
        assert plan.snr_db == (0.0, 10.0, 20.0)
        assert plan.trials == 17
        assert plan.seed == 99
        assert plan.schemes == ("ris_only", "basic")
        assert plan.benchmark_ris_phase == "random"

    def test_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown keys.*lambda"):
            parse_plan_text(MINIMAL + "lambda = 0.005\n")

    def test_rejects_missing_key(self):
        text = "\n".join(
            line for line in MINIMAL.splitlines() if not line.startswith("d_wall_m")
        )
        with pytest.raises(ValueError, match="missing required keys.*d_wall_m"):
            parse_plan_text(text)

    def test_rejects_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate key 'n_t'"):
            parse_plan_text(MINIMAL + "n_t = 4\n")

    def test_rejects_bad_number(self):
        text = MINIMAL.replace("n_ris = 50", "n_ris = fifty")
        with pytest.raises(ValueError, match="n_ris"):
            parse_plan_text(text)

    def test_rejects_missing_equals(self):
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_plan_text(MINIMAL + "just words\n")

    @pytest.mark.parametrize("values", ["5, 5, 0", "0, 10, 0.0"])
    def test_rejects_duplicate_snr_points_naming_the_key(self, values):
        # each repeated point would write every scheme's row twice
        with pytest.raises(ValueError, match="duplicate snr_db"):
            parse_plan_text(MINIMAL + f"snr_db = {values}\n")

    def test_bad_scheme_name_rejected_by_plan(self):
        with pytest.raises(ValueError, match="unknown schemes"):
            parse_plan_text(MINIMAL + "schemes = ris_only, turbo\n")

    @pytest.mark.parametrize("key, value", [
        ("lambda_m", "0"), ("s_ris_m", "1.0"), ("d_ris_m", "6.0"), ("h_t_step_m", "0"),
        ("s_t_m", "1.0"),  # the transmit array would sink into the floor
    ])
    def test_plan_errors_name_the_file_key(self, key, value):
        text = MINIMAL.replace(next(line for line in MINIMAL.splitlines()
                                    if line.startswith(f"{key} =")), f"{key} = {value}")
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            parse_plan_text(text)

    @pytest.mark.parametrize("line", ["benchmark_ris_phase = wavelength", "schemes = h_t",
                                      "trials = d_ris"])
    def test_plan_errors_name_no_key_for_a_quoted_value(self, line):
        with pytest.raises(ValueError) as err:  # the value names a field only by chance
            parse_plan_text(MINIMAL + line + "\n")
        assert "file key" not in str(err.value)

    @pytest.mark.parametrize("value", ["", " , ,"])
    def test_empty_schemes_rejected_naming_the_key(self, value):
        with pytest.raises(ValueError, match="schemes must name at least one"):
            parse_plan_text(MINIMAL + f"schemes = {value}\n")


class TestFilesAndPresets:
    def test_parse_plan_file(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(MINIMAL + "trials = 3\n")
        plan = parse_plan_file(path)
        assert plan.trials == 3

    def test_error_names_source(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text(MINIMAL + "n_t = 4\n")
        with pytest.raises(ValueError, match="broken.cfg"):
            parse_plan_file(path)

    @pytest.mark.parametrize(
        "name,dims",
        [
            ("panel_a", (8, 4, 50)),
            ("panel_b", (8, 2, 50)),
            ("panel_c", (8, 4, 100)),
            ("panel_d", (16, 4, 100)),
        ],
    )
    def test_presets(self, name, dims):
        plan = load_preset(name)
        assert (plan.n_t, plan.n_r, plan.n_ris) == dims
        assert plan.wavelength == 0.005
        assert plan.d_wall == 5.0
        assert plan.d_ris == 2.5
        assert plan.trials == 1000
        assert len(plan.snr_db) == 7

    def test_preset_names_exhaustive(self):
        assert set(PRESETS) == {"panel_a", "panel_b", "panel_c", "panel_d"}
        with pytest.raises(ValueError, match="unknown preset"):
            load_preset("panel_e")
