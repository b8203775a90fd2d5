import dataclasses
import re
import typing

import pytest

from pfnet.config import (
    SCHEMA,
    ConfigError,
    apply_overrides,
    default_config,
    echo_config,
    load_config,
    network_config,
    packaged_config_path,
    parse_config_text,
    scene_config,
    train_config,
)
from pfnet.data import SceneConfig
from pfnet.learn import TrainConfig
from pfnet.network import PYRAMID_GAPS, NetworkConfig
from pfnet.pointflow import DIRECTIONS, EDGE_MODES, SALIENT_SAMPLING, PfmConfig


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
        pytest.param("[pfm.gap3]\nsalient_kh = 4\n", 2, id="two-sided-salient-grid"),
        pytest.param("[train]\nepochs = 2\npoly_power = 0.9\n", 3, id="poly-power-is-a-constant"),
        pytest.param("[train]\nedge_radius = 1\n", 2, id="edge-radius-is-a-constant"),
        pytest.param("[pfm]\nsampling_seed = 0\n", 2, id="sampling-seed-is-a-constant"),
        pytest.param("[data]\ncrop_size = 64\n[train]\nepochs = 2\n[data]\ncrop_size = 32\n", 6, id="repeated-key"),
    ],
)
def test_config_errors_name_origin_and_line(text, lineno):
    with pytest.raises(ConfigError, match=f"^run.cfg:{lineno}: "):
        parse_config_text(text, origin="run.cfg")


@pytest.mark.parametrize("override", ["network.use_ppm=maybe", "data.canvas=big", "train.momentum=inf"])
def test_override_value_errors_name_the_key(override):
    path = override.split("=", 1)[0]
    with pytest.raises(ConfigError, match=f"^bad value for {re.escape(path)}: "):
        apply_overrides(default_config(), [override])


def test_repeated_key_names_its_first_line_and_overrides_still_win(tmp_path):
    with pytest.raises(ConfigError, match=r"^run.cfg:3: data.crop_size already set at line 2$"):
        parse_config_text("[data]\ncrop_size = 64\ncrop_size = 32\n", origin="run.cfg")
    path = tmp_path / "run.cfg"
    path.write_text("[data]\ncrop_size = 64\n")
    cfg = apply_overrides(load_config(path), ["data.crop_size=32", "data.crop_size=96"])  # the last one wins
    assert cfg["data"]["crop_size"] == 96


@pytest.mark.parametrize("name", [None, "desk", "default"])
def test_echo_then_parse_is_a_fixed_point(name):
    cfg = default_config() if name is None else load_config(packaged_config_path(name))
    assert parse_config_text(echo_config(cfg)) == cfg


def test_default_cfg_names_every_key_at_its_default():
    path = packaged_config_path("default")
    assert load_config(path) == default_config()


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
# ints whose next value a view rejects: crop_size is a multiple of 32, and
# a scene has at most 6 classes
_INTS = {"crop_size": 928, "num_classes": 5}


def _other_value(key, value):
    """A valid value for ``key`` that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return _INTS.get(key, value + 1)
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
        i = PYRAMID_GAPS.index(int(section.removeprefix("pfm.gap")))
        base = network_config(cfg).pfm[i]
        cfg["pfm"][key] = _other_value(key, cfg["pfm"][key])
        assert getattr(network_config(cfg).pfm[i], key) == cfg["pfm"][key] != getattr(base, key)
        return
    base = _views(cfg)
    cfg[section][key] = _other_value(key, cfg[section][key])
    read = _views(cfg) != base
    # an exception that a view starts reading must leave the list
    assert read != (f"{section}.{key}" in UNREAD_KEYS), f"{section}.{key} read: {read}"


def _default_cfg_keys():
    """(section, key) of every line of default.cfg, read without the schema."""
    section, keys = None, []
    with open(packaged_config_path("default"), encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line[1:-1]
            elif line:
                keys.append((section, line.split("=", 1)[0].strip()))
    return keys


# the typed configs that each section's view builds
_VIEW_CLASSES = {
    "data": (SceneConfig, NetworkConfig),
    "network": (NetworkConfig,),
    "train": (TrainConfig,),
    "pfm": (PfmConfig,),
    "pfm.gap3": (PfmConfig,),
    "pfm.gap4": (PfmConfig,),
    "pfm.gap5": (PfmConfig,),
}


def test_schema_keys_are_default_cfg_keys():
    assert sorted((sec, key) for sec in SCHEMA for key in SCHEMA[sec]) == sorted(_default_cfg_keys())


@pytest.mark.parametrize(
    "section,key",
    [k for k in _default_cfg_keys() if ".".join(k) not in UNREAD_KEYS],
    ids=lambda v: v,
)
def test_config_key_is_a_field_of_its_view(section, key):
    """Each key is a field of the same name, type and default on every typed
    config of its view that has it, and at least one has it."""
    typ, default = SCHEMA[section][key]
    owners = [cls for cls in _VIEW_CLASSES[section] if key in {f.name for f in dataclasses.fields(cls)}]
    assert owners, f"no typed config of [{section}] has a field {key}"
    for cls in owners:
        field = next(f for f in dataclasses.fields(cls) if f.name == key)
        assert (typing.get_type_hints(cls)[key], field.default) == (typ, default), cls.__name__


_GAP_BUDGETS = [
    (f"pfm.gap{gap}.{key}={value}", f"pfm.gap{gap}.{key}")
    for gap in (3, 4, 5)
    for key, value in (("salient_k", 0), ("salient_k", -1), ("boundary_k", -1))
]


# One invalid value per case, set on desk.cfg: 0 or -1 for an int, -0.5 or
# 1.5 for a float, foo for a string, 0 or a repeated entry for a list.  The
# expected pattern is the key the error starts with, followed by the other
# key of a min/max pair.
@pytest.mark.parametrize(
    "override,key",
    [
        ("data.canvas=0", "canvas"),
        ("data.canvas=-1", "canvas"),
        ("data.num_classes=0", "num_classes"),
        ("data.num_classes=-1", "num_classes"),
        ("data.objects_min=-1", "objects_min"),
        ("data.objects_max=0", "objects_min .*objects_max"),
        ("data.objects_max=-1", "objects_min .*objects_max"),
        ("data.size_min=0", "size_min"),
        ("data.size_min=-1", "size_min"),
        ("data.size_max=0", "size_min .*size_max"),
        ("data.size_max=-1", "size_min .*size_max"),
        ("data.fg_ratio=-0.5", "fg_ratio"),
        ("data.fg_ratio=1.5", "fg_ratio"),
        ("data.texture=foo", "texture"),
        ("data.crop_size=0", "crop_size"),
        ("data.crop_size=-1", "crop_size"),
        ("network.fpn_channels=0", "fpn_channels"),
        ("network.fpn_channels=-1", "fpn_channels"),
        ("network.backbone_channels=0", "backbone_channels"),
        ("network.ppm_bins=0", "ppm_bins"),
        ("network.ppm_bins=2,2", "ppm_bins"),
        ("network.pfm_gaps=0", "pfm_gaps"),
        ("network.pfm_gaps=3,3", "pfm_gaps"),
        ("train.epochs=0", "epochs"),
        ("train.epochs=-1", "epochs"),
        ("train.batch_size=0", "batch_size"),
        ("train.batch_size=-1", "batch_size"),
        ("train.base_lr=-0.5", "base_lr"),
        ("train.momentum=-0.5", "momentum"),
        ("train.momentum=1.5", "momentum"),
        ("train.weight_decay=-0.5", "weight_decay"),
        ("train.bce_weight=-0.5", "bce_weight"),
        ("train.checkpoint_every=-1", "checkpoint_every"),
        ("pfm.direction=foo", "pfm.direction"),
        ("pfm.edge_mode=foo", "pfm.edge_mode"),
        ("pfm.salient_sampling=foo", "pfm.salient_sampling"),
    ]
    + _GAP_BUDGETS,
    ids=lambda v: v,
)
def test_config_errors_name_the_key(override, key):
    cfg = apply_overrides(load_config(packaged_config_path("desk")), [override])
    with pytest.raises(ValueError, match=rf"^{key}\b"):
        _views(cfg)
