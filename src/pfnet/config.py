"""Run configuration: a sectioned key=value file plus dot-path overrides.

The grammar is deliberately tiny (sections, scalar values, comma lists,
``#`` comments) so parsing stays dependency free.  Unknown sections or
keys are hard errors, and every effective value can be echoed back in
canonical form for the run log.
"""

from __future__ import annotations

import copy
import math
from importlib import resources

from .learn import TrainConfig
from .data import SceneConfig
from .network import NetworkConfig
from .pointflow import PfmConfig


class ConfigError(ValueError):
    """Bad section, key, or value in a run configuration."""


def _bool(text):
    if text in ("true", "True", "1"):
        return True
    if text in ("false", "False", "0"):
        return False
    raise ConfigError(f"expected true/false, got {text!r}")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _int_list(text):
    text = text.strip()
    if not text or text == "none":
        return ()
    return tuple(int(t) for t in text.split(","))


_PARSERS = {int: int, float: _finite_float, str: str, bool: _bool, tuple: _int_list}

# section -> key -> (type, default)
SCHEMA = {
    "data": {
        "canvas": (int, 1792),
        "count": (int, 250),
        "val_fraction": (float, 0.2),
        "num_classes": (int, 6),
        "objects_min": (int, 6),
        "objects_max": (int, 60),
        "size_min": (int, 2),
        "size_max": (int, 8),
        "fg_ratio": (float, 0.03),
        "texture": (str, "perlin"),
        "crop_size": (int, 896),
        "crop_stride": (int, 512),
    },
    "network": {
        "fpn_channels": (int, 64),
        "backbone_channels": (tuple, (16, 32, 64, 128)),
        "ppm_bins": (tuple, (1, 2, 3, 6)),
        "use_ppm": (bool, True),
        "pfm_gaps": (tuple, (3, 4, 5)),
    },
    "train": {
        "epochs": (int, 16),
        "base_lr": (float, 0.01),
        "momentum": (float, 0.9),
        "weight_decay": (float, 0.0001),
        "poly_power": (float, 0.9),
        "batch_size": (int, 8),
        "edge_radius": (int, 1),
        "bce_weight": (float, 1.0),
        "augment": (bool, True),
        "checkpoint_every": (int, 0),
    },
    "eval": {
        "boundary_thresholds": (tuple, (12, 9, 5, 3)),
    },
}
for _gap in (3, 4, 5):
    SCHEMA[f"pfm.gap{_gap}"] = {
        "salient_kh": (int, 14),
        "salient_kw": (int, 14),
        "boundary_k": (int, 128),
        "direction": (str, "top_down"),
        "edge_mode": (str, "subtraction"),
        "salient_sampling": (str, "max_pool"),
        "sampling_seed": (int, 0),
    }


def default_config():
    return {sec: {k: v for k, (_, v) in keys.items()} for sec, keys in SCHEMA.items()}


def _set_value(cfg, section, key, raw):
    if section not in SCHEMA:
        raise ConfigError(f"unknown section [{section}]")
    if key not in SCHEMA[section]:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    typ = SCHEMA[section][key][0]
    try:
        cfg[section][key] = _PARSERS[typ](raw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc


def parse_config_text(text, cfg=None, origin="<config>"):
    cfg = copy.deepcopy(cfg) if cfg is not None else default_config()
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"{origin}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected key = value, got {line!r}")
        if section is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any section")
        key, raw = (part.strip() for part in line.split("=", 1))
        try:
            _set_value(cfg, section, key, raw)
        except ConfigError as exc:
            raise ConfigError(f"{origin}:{lineno}: {exc}") from exc
    return cfg


def load_config(path=None):
    if path is None:
        return default_config()
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"bad UTF-8 text in {path} at byte {exc.start}") from None
    return parse_config_text(text, origin=str(path))


def apply_overrides(cfg, overrides):
    """Apply ``section.key=value`` strings; dot-paths win over file values."""
    cfg = copy.deepcopy(cfg)
    sections = sorted(SCHEMA, key=len, reverse=True)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        path, raw = item.split("=", 1)
        for section in sections:
            if path.startswith(section + "."):
                _set_value(cfg, section, path[len(section) + 1 :], raw)
                break
        else:
            raise ConfigError(f"unknown override path {path!r}")
    return cfg


def _fmt_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value) if value else "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(cfg):
    """Canonical text form of every effective value (stable ordering)."""
    lines = []
    for section in sorted(cfg):
        lines.append(f"[{section}]")
        for key in sorted(cfg[section]):
            lines.append(f"{key} = {_fmt_value(cfg[section][key])}")
        lines.append("")
    return "\n".join(lines)


def packaged_config_path(name):
    """Path of a config file shipped inside the package."""
    return str(resources.files("pfnet").joinpath("configs", f"{name}.cfg"))


# ---------------------------------------------------------------------------
# typed views


def scene_config(cfg, seed):
    d = cfg["data"]
    return SceneConfig(
        canvas=(d["canvas"], d["canvas"]),
        num_classes=d["num_classes"],
        objects_per_scene=(d["objects_min"], d["objects_max"]),
        object_size=(d["size_min"], d["size_max"]),
        target_fg_ratio=d["fg_ratio"],
        background_texture=d["texture"],
        seed=seed,
    )


def network_config(cfg):
    n = cfg["network"]
    d = cfg["data"]
    pfm = {}
    for gap in (3, 4, 5):
        g = cfg[f"pfm.gap{gap}"]
        pfm[gap] = PfmConfig(
            salient_kernel=(g["salient_kh"], g["salient_kw"]),
            boundary_k=g["boundary_k"],
            direction=g["direction"],
            edge_mode=g["edge_mode"],
            salient_sampling=g["salient_sampling"],
            sampling_seed=g["sampling_seed"],
        )
    return NetworkConfig(
        input_size=(d["crop_size"], d["crop_size"]),
        num_classes=d["num_classes"],
        fpn_channels=n["fpn_channels"],
        backbone_channels=n["backbone_channels"],
        ppm_bins=n["ppm_bins"],
        use_ppm=n["use_ppm"],
        pfm_enabled_gaps=n["pfm_gaps"],
        pfm=pfm,
    )


def train_config(cfg, seed):
    t = cfg["train"]
    return TrainConfig(
        epochs=t["epochs"],
        base_lr=t["base_lr"],
        momentum=t["momentum"],
        weight_decay=t["weight_decay"],
        poly_power=t["poly_power"],
        batch_size=t["batch_size"],
        seed=seed,
        edge_radius=t["edge_radius"],
        bce_weight=t["bce_weight"],
        augment=t["augment"],
        checkpoint_every=t["checkpoint_every"],
    )
