"""Configuration dataclasses, validation and the flat key=value loader."""

from dataclasses import fields

import pytest

from rhmap.config import (BackendConfig, ConfigError, FrontendConfig,
                          MapConfig, PipelineConfig, load_config,
                          set_config_key)


def test_defaults_validate():
    PipelineConfig().validate()
    assert MapConfig().validate().region_size == pytest.approx(0.8)


def test_region_size_tracks_mask_bits():
    assert MapConfig(mask_bits=2).region_size == pytest.approx(0.4)
    assert MapConfig(mask_bits=4).region_size == pytest.approx(1.6)
    assert MapConfig(mask_bits=4).mask == 15


def test_map_config_rejections():
    with pytest.raises(ConfigError):
        MapConfig(cube_size=0.0).validate()
    with pytest.raises(ConfigError):
        MapConfig(mask_bits=0).validate()
    # a region's bitmaps take 1 KB at mask_bits 4, and 8 KB at 5
    MapConfig(mask_bits=4).validate()
    for bits in (5, 6, 7, 20, 21, 22):
        with pytest.raises(ConfigError):
            MapConfig(mask_bits=bits).validate()


def test_mask_bits_5_is_rejected_for_its_bitmap_size():
    with pytest.raises(ConfigError, match="1..4.*bitmaps take"):
        MapConfig(mask_bits=5).validate()


def test_frontend_config_rejections():
    with pytest.raises(ConfigError):
        FrontendConfig(delta1=0.0).validate()
    with pytest.raises(ConfigError):
        FrontendConfig(r_max=-1.0).validate()
    with pytest.raises(ConfigError):
        FrontendConfig(image_rows=0).validate()
    with pytest.raises(ConfigError):
        FrontendConfig(fov_down_deg=10.0, fov_up_deg=-10.0).validate()
    # a fitted normal is a unit vector: past 1 no ground fit could pass
    for z in (-0.1, 1.5):
        with pytest.raises(ConfigError, match="min_ground_normal_z"):
            FrontendConfig(min_ground_normal_z=z).validate()
    for z in (0.0, 1.0):
        FrontendConfig(min_ground_normal_z=z).validate()


def _float_fields(section):
    return [(section, f.name) for f in fields(section)
            if isinstance(getattr(section(), f.name), float)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
@pytest.mark.parametrize("section, name",
                         _float_fields(FrontendConfig)
                         + _float_fields(BackendConfig))
def test_non_finite_float_fields_are_rejected(section, name, value):
    # NaN passes every `<= 0` test, so each field is checked for it first
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        section(**{name: value}).validate()


@pytest.mark.parametrize("steps", [0, -1, -3])
def test_max_search_needs_a_step(steps):
    with pytest.raises(ConfigError, match="max_search"):
        FrontendConfig(max_search=steps).validate()
    FrontendConfig(max_search=1).validate()


def test_backend_config_rejections():
    with pytest.raises(ConfigError):
        BackendConfig(dist_away=0.0).validate()
    with pytest.raises(ConfigError):
        BackendConfig(queue_capacity=0).validate()


def test_set_config_key_reaches_nested_sections():
    cfg = PipelineConfig()
    set_config_key(cfg, "mask_bits", "4")
    set_config_key(cfg, "delta1", "0.3")
    set_config_key(cfg, "dist_away", "15")
    set_config_key(cfg, "backend_enabled", "false")
    assert cfg.map.mask_bits == 4
    assert cfg.frontend.delta1 == 0.3
    assert cfg.backend.dist_away == 15.0
    assert cfg.backend_enabled is False


def test_set_config_key_errors():
    cfg = PipelineConfig()
    with pytest.raises(ConfigError, match="unknown config key"):
        set_config_key(cfg, "no_such_key", "1")
    with pytest.raises(ConfigError, match="bad value"):
        set_config_key(cfg, "mask_bits", "three")
    with pytest.raises(ConfigError, match="bad value"):
        set_config_key(cfg, "backend_enabled", "maybe")


def test_load_config_with_comments(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# resolution\n"
                 "mask_bits = 2\n"
                 "\n"
                 "r_max = 40.0  # meters\n"
                 "backend_enabled = off\n")
    cfg = load_config(p)
    assert cfg.map.mask_bits == 2
    assert cfg.frontend.r_max == 40.0
    assert cfg.backend_enabled is False


def test_load_config_reports_line_numbers(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("mask_bits = 3\njust words\n")
    with pytest.raises(ConfigError, match=":2:"):
        load_config(p)
    p.write_text("mask_bits = 3\nnot_a_key = 1\n")
    with pytest.raises(ConfigError, match=":2:.*unknown"):
        load_config(p)


def test_load_config_validates_result(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("cube_size = -0.1\n")
    with pytest.raises(ConfigError):
        load_config(p)
