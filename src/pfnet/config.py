"""Run configuration: a sectioned key=value file plus dot-path overrides.

The grammar is deliberately tiny (sections, scalar values, comma lists,
``#`` comments) so parsing stays dependency free.  Unknown sections or
keys, and a key set twice in one file, are hard errors, and every
effective value can be echoed back in canonical form for the run log.

Each key is the same-named field, which owns its type and default, of the
typed config its view builds: ``[data]`` is ``SceneConfig`` plus
``NetworkConfig.crop_size``, ``[network]`` the rest of ``NetworkConfig``,
``[train]`` is ``TrainConfig``, ``[pfm]`` the ``PfmConfig`` modes every gap
shares and ``[pfm.gapN]`` gap N's ``BUDGET_KEYS``.  The typed configs are
frozen and check themselves when built, so every view returns a checked
config or raises a ``ValueError`` that starts with the key it rejects;
every ``[pfm.gapN]`` section is checked, whether ``network.pfm_gaps``
enables gap N or not.
Only the four keys no typed config reads are spelled out: ``data.count``
and ``data.val_fraction`` wait for a run driver; pfbench reads
``data.crop_stride`` and ``eval.boundary_thresholds`` when it crops and
scores scenes.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import typing
from importlib import resources

from .learn import TrainConfig
from .data import SceneConfig
from .network import PYRAMID_GAPS, NetworkConfig
from .pointflow import BUDGET_KEYS, PfmConfig


class ConfigError(ValueError):
    """Bad section, key, or value in a run configuration."""


def _bool(text):
    if text in ("true", "True", "1"):
        return True
    if text in ("false", "False", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


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


def _keys(cls, skip=(), only=None):
    """Schema of the config dataclass ``cls``: field -> (type, default)."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in skip and f.name in (only or hints)]
    return {f.name: (hints[f.name], f.default) for f in fields}


_SCENE_KEYS = _keys(SceneConfig, skip=("seed",))

# section -> key -> (type, default)
SCHEMA = {
    "data": {
        **_SCENE_KEYS,
        **_keys(NetworkConfig, only=("crop_size",)),
        "count": (int, 250),
        "val_fraction": (float, 0.2),
        "crop_stride": (int, 512),
    },
    "network": _keys(NetworkConfig, skip=("crop_size", "num_classes", "pfm")),
    "train": _keys(TrainConfig, skip=("seed",)),
    "eval": {"boundary_thresholds": (tuple, (12, 9, 5, 3))},
    "pfm": _keys(PfmConfig, skip=BUDGET_KEYS),
    **{f"pfm.gap{gap}": _keys(PfmConfig, only=BUDGET_KEYS) for gap in PYRAMID_GAPS},
}


def default_config():
    return {sec: {k: v for k, (_, v) in keys.items()} for sec, keys in SCHEMA.items()}


def _set_value(cfg, section, key, raw):
    if key not in SCHEMA[section]:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    typ = SCHEMA[section][key][0]
    try:
        cfg[section][key] = _PARSERS[typ](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc


def parse_config_text(text, origin="<config>"):
    cfg = default_config()
    section = None
    set_at = {}  # (section, key) -> the line that set it
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
        if (section, key) in set_at:
            raise ConfigError(f"{origin}:{lineno}: {section}.{key} already set at line {set_at[section, key]}")
        set_at[section, key] = lineno
        try:
            _set_value(cfg, section, key, raw)
        except ConfigError as exc:
            raise ConfigError(f"{origin}:{lineno}: {exc}") from exc
    return cfg


def load_config(path):
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
    return SceneConfig(seed=seed, **{key: cfg["data"][key] for key in _SCENE_KEYS})


def network_config(cfg):
    """``NetworkConfig`` with a checked ``PfmConfig`` for every gap, enabled
    or not; a gap's error names the section of the key it rejects."""
    pfm = []
    for gap in PYRAMID_GAPS:
        try:
            pfm.append(PfmConfig(**cfg["pfm"], **cfg[f"pfm.gap{gap}"]))
        except ValueError as e:  # it starts with the PfmConfig field it rejects
            section = f"pfm.gap{gap}" if str(e).split(" ", 1)[0] in BUDGET_KEYS else "pfm"
            raise ValueError(f"{section}.{e}") from None
    d = cfg["data"]
    return NetworkConfig(crop_size=d["crop_size"], num_classes=d["num_classes"], pfm=tuple(pfm), **cfg["network"])


def train_config(cfg, seed):
    return TrainConfig(seed=seed, **cfg["train"])
