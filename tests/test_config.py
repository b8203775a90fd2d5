import re

import pytest

from pfnet.config import (
    SCHEMA,
    ConfigError,
    default_config,
    echo_config,
    load_config,
    network_config,
    packaged_config_path,
    parse_config_text,
    scene_config,
    train_config,
)
from pfnet.pointflow import DIRECTIONS, EDGE_MODES, SALIENT_SAMPLING


@pytest.mark.parametrize(
    "text,lineno",
    [
        pytest.param("[data]\ncanvas = 64\n[nosuch]\n", 3, id="unknown-section"),
        pytest.param("# comment\n[data]\nnosuch = 1\n", 3, id="unknown-key"),
        pytest.param("[data]\n\ncanvas = big\n", 3, id="bad-int"),
        pytest.param("[network]\nuse_ppm = maybe\n", 2, id="bad-bool"),
        pytest.param("[network]\nbackbone_channels = 16,x\n", 2, id="bad-int-list"),
        pytest.param("canvas = 64\n", 1, id="key-outside-section"),
        pytest.param("[data]\ncanvas 64\n", 2, id="no-equals"),
        pytest.param("[train]\nbase_lr = nan\n", 2, id="nan-float"),
        pytest.param("[train]\nepochs = 2\nmomentum = inf\n", 3, id="inf-float"),
        pytest.param("[data]\nfg_ratio = -Infinity\n", 2, id="negative-inf-float"),
        pytest.param("[pfm.gap3]\ndirection = bottom_up\n", 2, id="per-gap-mode"),
    ],
)
def test_config_errors_name_origin_and_line(text, lineno):
    with pytest.raises(ConfigError, match=f"^run.cfg:{lineno}: "):
        parse_config_text(text, origin="run.cfg")


@pytest.mark.parametrize("name", [None, "desk", "default"])
def test_echo_then_parse_is_a_fixed_point(name):
    cfg = default_config() if name is None else load_config(packaged_config_path(name))
    assert parse_config_text(echo_config(cfg)) == cfg


def test_default_cfg_names_every_key_at_its_default():
    path = packaged_config_path("default")
    assert load_config(path) == default_config()
    with open(path, encoding="utf-8") as f:
        named = parse_config_text(f.read(), cfg={sec: {} for sec in SCHEMA}, origin=path)
    assert named == default_config()


def test_config_file_not_utf8_names_file_and_byte(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"[data]\ncanvas = 6\xff4\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path} at byte 17")):
        load_config(path)


# Keys that no typed view reads, each with the reason it stays.
UNREAD_KEYS = {
    "data.count": "scene count of a run; waits for the run driver (ROADMAP item 1)",
    "data.val_fraction": "train/val split of a run; waits for the run driver (ROADMAP item 1)",
    "data.crop_stride": "read by pfbench's workloads when they crop scenes",
    "eval.boundary_thresholds": "read by pfbench's score workload",
}

_CHOICES = {
    "texture": ("perlin", "flat"),
    "direction": DIRECTIONS,
    "edge_mode": EDGE_MODES,
    "salient_sampling": SALIENT_SAMPLING,
}
_TUPLES = {
    "backbone_channels": (8, 16, 32, 64),
    "ppm_bins": (1, 2),
    "pfm_gaps": (3,),
    "boundary_thresholds": (2,),
}


def _other_value(key, value):
    """A valid value for ``key`` that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    if isinstance(value, tuple):
        return _TUPLES[key]
    return next(c for c in _CHOICES[key] if c != value)


def _views(cfg):
    return scene_config(cfg, 0), network_config(cfg), train_config(cfg, 0)


# Each gap's view also reads the shared ``[pfm]`` modes; ``pfm.gapN-<mode>``
# checks that gap N's ``PfmConfig`` follows the ``[pfm]`` key.
_GAP_MODES = [(f"pfm.gap{gap}", key) for gap in (3, 4, 5) for key in SCHEMA["pfm"]]


@pytest.mark.parametrize(
    "section,key",
    [(sec, key) for sec in SCHEMA for key in SCHEMA[sec]] + _GAP_MODES,
    ids=lambda v: v,
)
def test_every_config_key_has_a_reader(section, key):
    cfg = default_config()
    if key not in SCHEMA[section]:
        gap = int(section.removeprefix("pfm.gap"))
        base = network_config(cfg).pfm[gap]
        cfg["pfm"][key] = _other_value(key, cfg["pfm"][key])
        assert getattr(network_config(cfg).pfm[gap], key) == cfg["pfm"][key] != getattr(base, key)
        return
    base = _views(cfg)
    cfg[section][key] = _other_value(key, cfg[section][key])
    read = _views(cfg) != base
    # an exception that a view starts reading must leave the list
    assert read != (f"{section}.{key}" in UNREAD_KEYS), f"{section}.{key} read: {read}"
