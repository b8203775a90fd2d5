"""Run configuration: a sectioned key=value file plus dot-path overrides.

The grammar is deliberately tiny (sections, scalar values, comma lists,
``#`` comments) so parsing stays dependency free.  Unknown sections or
keys are hard errors, and every effective value can be echoed back in
canonical form for the run log.

The ``[network]``, ``[train]`` and ``[pfm]`` sections are derived from the
fields of ``NetworkConfig``, ``TrainConfig`` and ``PfmConfig``, which own
their keys, types and defaults.  ``[pfm]`` sets the point-flow modes that
every pyramid gap shares; ``[pfm.gapN]`` holds only gap N's point budget.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import typing
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


def _keys(cls, skip):
    """Schema of the config dataclass ``cls``: field -> (type, default)."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in dataclasses.fields(cls) if f.name not in skip}


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
    "network": _keys(NetworkConfig, skip=("input_size", "num_classes", "pfm")),
    "train": _keys(TrainConfig, skip=("seed",)),
    "eval": {
        "boundary_thresholds": (tuple, (12, 9, 5, 3)),
    },
    "pfm": _keys(PfmConfig, skip=("salient_kernel", "boundary_k")),
}
for _gap in (3, 4, 5):
    SCHEMA[f"pfm.gap{_gap}"] = {
        "salient_kh": (int, 14),
        "salient_kw": (int, 14),
        "boundary_k": (int, 128),
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
    d = cfg["data"]
    pfm = {}
    for gap in (3, 4, 5):
        g = cfg[f"pfm.gap{gap}"]
        pfm[gap] = PfmConfig(
            salient_kernel=(g["salient_kh"], g["salient_kw"]), boundary_k=g["boundary_k"], **cfg["pfm"]
        )
    return NetworkConfig(
        input_size=(d["crop_size"], d["crop_size"]),
        num_classes=d["num_classes"],
        pfm=pfm,
        **cfg["network"],
    )


def train_config(cfg, seed):
    return TrainConfig(seed=seed, **cfg["train"])
