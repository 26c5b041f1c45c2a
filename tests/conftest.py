from dataclasses import asdict, replace

import pytest

from riscap import SceneConfig, build_cascade, build_positions, parse_plan_text

# 60 GHz indoor setup used throughout, in config keys: half-wavelength
# spacings, 5 m wall separation, RIS midway, heights over 2-3 m and 0.8-1.8 m
# in 2 cm steps, whose midpoints 2.5 m / 1.3 m are the nominal heights.
GEOMETRY = """\
lambda_m = 0.005
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


def geometry_plan(**fields):
    "GEOMETRY's plan with one antenna at each side and one element, ``fields`` replaced."
    return replace(parse_plan_text(GEOMETRY + "n_t = 1\nn_r = 1\nn_ris = 1\n"), **fields)


@pytest.fixture
def scene():
    "Factory for SceneConfig instances on the reference geometry at its nominal heights."
    base = asdict(geometry_plan().scene(2.5, 1.3))

    def make(n_t=1, n_r=1, n_ris=1, **overrides):
        params = dict(base, n_t=n_t, n_r=n_r, n_ris=n_ris)
        params.update(overrides)
        return SceneConfig(**params)

    return make


def cascade_for(scene, n_t, n_r, n_ris, **overrides):
    "A scene from the ``scene`` factory and its cascade channel."
    cfg = scene(n_t=n_t, n_r=n_r, n_ris=n_ris, **overrides)
    return cfg, build_cascade(build_positions(cfg), cfg)
