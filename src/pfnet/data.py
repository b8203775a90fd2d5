"""Synthetic aerial-style scenes, preprocessing, and a bit-exact checkpoint.

Scenes are textured backgrounds scattered with tiny colored objects (2-8 px
rectangles and ellipses) until a target foreground ratio is met, mimicking
the extreme foreground/background imbalance of aerial imagery.  Everything
is integer-seeded PCG64, so bytes reproduce across platforms.

A scene is scored in crops: ``sliding_crop`` cuts an image and its mask
into the same windows, and ``stitch_label_votes`` reassembles the crops'
labels by per-pixel vote in whole-canvas passes, one per class.

The one file format is PFC1, a checkpoint container holding named
parameters with a (name, shape, offset) manifest.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

_DTYPE_CODES = {np.dtype("<f4"): 1, np.dtype("<f8"): 2, np.dtype("u1"): 3}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}

CLASS_COLORS = np.array(
    [
        [0.85, 0.25, 0.20],  # class 1
        [0.20, 0.55, 0.85],  # class 2
        [0.90, 0.80, 0.25],  # class 3
        [0.45, 0.80, 0.35],  # class 4
        [0.70, 0.35, 0.80],  # class 5
    ]
)
BACKGROUND_TEXTURES = ("perlin", "flat")


@dataclass(frozen=True)
class SceneConfig:
    """The ``[data]`` scene keys at ``default.cfg``'s values (``canvas`` is the
    square side, ``objects_max`` a cap per 128x128 px of it) plus the run's seed."""

    canvas: int = 1792
    num_classes: int = 6  # background + 5 object classes
    objects_min: int = 6
    objects_max: int = 60
    size_min: int = 2
    size_max: int = 8
    fg_ratio: float = 0.03
    texture: str = "perlin"  # one of BACKGROUND_TEXTURES
    seed: int = 0

    def __post_init__(self):
        if self.canvas < 1:
            raise ValueError(f"canvas must be >= 1, got {self.canvas}")
        if not 2 <= self.num_classes <= len(CLASS_COLORS) + 1:
            raise ValueError(f"num_classes must be in [2, {len(CLASS_COLORS) + 1}], got {self.num_classes}")
        if not 1 <= self.size_min <= self.size_max:
            raise ValueError(f"size_min must be in [1, size_max = {self.size_max}], got {self.size_min}")
        if self.size_max > self.canvas:
            raise ValueError(f"size_max must be <= canvas = {self.canvas}, got {self.size_max}")
        if not 0 <= self.fg_ratio <= 1:
            raise ValueError(f"fg_ratio must be in [0, 1], got {self.fg_ratio}")
        cap = min(self.objects_max, self.object_cap())  # below 128 px the scaled cap binds
        if not 0 <= self.objects_min <= cap:
            raise ValueError(f"objects_min must be in [0, objects_max cap = {cap}], got {self.objects_min}")
        floor_px = self.ratio_window()[0] * self.canvas * self.canvas
        cover_px = self.object_cap() * self.size_max**2
        if floor_px > cover_px:
            raise ValueError(
                f"fg_ratio {self.fg_ratio} needs {floor_px:.0f} foreground px, more than the {cover_px} that "
                f"objects_max = {self.objects_max} per 128x128 px of at most size_max = {self.size_max} px cover"
            )
        if self.texture not in BACKGROUND_TEXTURES:
            raise ValueError(f"texture must be one of {BACKGROUND_TEXTURES}, got {self.texture!r}")

    def object_cap(self):
        """Most objects in one scene: ``objects_max`` scaled to the canvas area, rounded up."""
        return -(-self.objects_max * self.canvas * self.canvas // (128 * 128))

    def ratio_window(self):
        return 0.7 * self.fg_ratio, 1.3 * self.fg_ratio


@dataclass
class SceneSample:
    image: np.ndarray  # float32 [3, H, W] in [0, 1]
    mask: np.ndarray   # uint8 [H, W], labels < num_classes


def _rng(*entropy):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def _background(cfg, rng):
    h = w = cfg.canvas
    if cfg.texture == "flat":
        base = np.full((h, w), 0.35)
    else:
        base = np.zeros((h, w))
        weight = 1.0
        for cells in (4, 8, 16):
            grid = rng.uniform(0.0, 1.0, (cells, cells))
            ys = np.clip((np.arange(h) + 0.5) * cells / h - 0.5, 0, cells - 1)
            xs = np.clip((np.arange(w) + 0.5) * cells / w - 0.5, 0, cells - 1)
            y0 = np.floor(ys).astype(int)
            x0 = np.floor(xs).astype(int)
            y1 = np.minimum(y0 + 1, cells - 1)
            x1 = np.minimum(x0 + 1, cells - 1)
            fy = (ys - y0)[:, None]
            fx = (xs - x0)[None, :]
            layer = (
                grid[np.ix_(y0, x0)] * (1 - fy) * (1 - fx)
                + grid[np.ix_(y0, x1)] * (1 - fy) * fx
                + grid[np.ix_(y1, x0)] * fy * (1 - fx)
                + grid[np.ix_(y1, x1)] * fy * fx
            )
            base += weight * layer
            weight *= 0.5
        base = 0.15 + 0.4 * (base - base.min()) / max(np.ptp(base), 1e-9)
    tint = rng.uniform(-0.03, 0.03, 3)
    img = base[None, :, :] + tint[:, None, None]
    img = img + rng.normal(0.0, 0.015, (3, h, w))
    return np.clip(img, 0.0, 1.0)


def _paint_object(img, mask, rng, cfg):
    """Paint one random object; returns how many background pixels it covered."""
    h = w = cfg.canvas
    oh = int(rng.integers(cfg.size_min, cfg.size_max + 1))
    ow = int(rng.integers(cfg.size_min, cfg.size_max + 1))
    top = int(rng.integers(0, h - oh + 1))
    left = int(rng.integers(0, w - ow + 1))
    cls = int(rng.integers(1, cfg.num_classes))
    shape = "rect" if rng.uniform() < 0.5 else "ellipse"
    ys, xs = np.mgrid[0:oh, 0:ow]
    if shape == "ellipse":
        cy, cx = (oh - 1) / 2.0, (ow - 1) / 2.0
        ry, rx = max(oh / 2.0, 0.5), max(ow / 2.0, 0.5)
        # each term is at most 0.25 at cell (oh // 2, ow // 2), so no ellipse is empty
        inside = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
    else:
        inside = np.ones((oh, ow), dtype=bool)
    color = CLASS_COLORS[cls - 1] + rng.uniform(-0.05, 0.05, 3)
    patch_noise = rng.normal(0.0, 0.03, (3, oh, ow))
    region = (slice(top, top + oh), slice(left, left + ow))
    mask_region = mask[region]
    covered = int(np.count_nonzero(mask_region[inside] == 0))
    mask_region[inside] = cls
    for ch in range(3):
        img_ch = img[ch][region]
        img_ch[inside] = np.clip(color[ch] + patch_noise[ch][inside], 0.0, 1.0)
    return covered


def synth_scene(cfg, index):
    """One deterministic scene for (cfg.seed, index); resamples until the
    achieved foreground ratio lands within +-30% of the target."""
    h = w = cfg.canvas
    lo_ratio, hi_ratio = cfg.ratio_window()
    min_obj, max_obj = cfg.objects_min, cfg.object_cap()
    target_px = cfg.fg_ratio * h * w
    for attempt in range(100):
        rng = _rng(cfg.seed, index, attempt)
        img = _background(cfg, rng)
        mask = np.zeros((h, w), dtype=np.uint8)
        placed = fg = 0
        while placed < max_obj:
            if placed >= min_obj and fg >= target_px:
                break
            fg += _paint_object(img, mask, rng, cfg)
            placed += 1
        ratio = fg / (h * w)
        if lo_ratio <= ratio <= hi_ratio:
            return SceneSample(img.astype(np.float32), mask)
    raise ValueError(
        f"could not hit foreground ratio window [{lo_ratio:.4f}, {hi_ratio:.4f}] "
        f"for scene {index} after 100 attempts"
    )


# ---------------------------------------------------------------------------
# preprocessing


@dataclass
class Crop:
    image: np.ndarray
    mask: np.ndarray
    top: int
    left: int


def _window_starts(extent, size, stride):
    starts = list(range(0, extent - size + 1, stride))
    if starts[-1] != extent - size:
        starts.append(extent - size)  # final window flush to the border
    return starts


def sliding_crop(image, mask, size, stride):
    """Windows at stride steps; the remainder gets a border-flushed window.
    ``image`` is ``[C, H, W]`` over the ``[H, W]`` ``mask``."""
    h, w = mask.shape
    if image.shape[1:] != mask.shape:
        raise ValueError(f"image {image.shape} does not cover mask {mask.shape}: spatial sizes differ")
    if size < 1:
        raise ValueError(f"crop size must be >= 1, got {size}")
    if size > h or size > w:
        raise ValueError(f"crop size {size} exceeds canvas {h}x{w}")
    if stride < 1:
        raise ValueError(f"crop stride must be >= 1, got {stride}")
    crops = []
    for top in _window_starts(h, size, stride):
        for left in _window_starts(w, size, stride):
            crops.append(
                Crop(
                    image=image[:, top : top + size, left : left + size].copy(),
                    mask=mask[top : top + size, left : left + size].copy(),
                    top=top,
                    left=left,
                )
            )
    return crops


def stitch_label_votes(pred_crops, canvas_hw, num_classes):
    """Reassemble crop label predictions by per-pixel max vote; every crop
    must lie inside the canvas, every label in [0, num_classes), and every
    canvas pixel under some crop.

    Votes count in the narrowest unsigned dtype that holds the crop count,
    and the winner is a running strict ``>`` over the class planes, so a
    tie goes to the lowest class."""
    h, w = canvas_hw
    votes = np.zeros((num_classes, h, w), dtype=np.min_scalar_type(len(pred_crops)))
    # classes in the narrowest dtype too, so uint8 labels compare without widening
    classes = np.arange(num_classes, dtype=np.min_scalar_type(num_classes))[:, None, None]
    for index, (labels, top, left) in enumerate(pred_crops):
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError(f"crop {index}: labels must lie in [0, {num_classes}), got {labels.min()}..{labels.max()}")
        ch, cw = labels.shape
        if top < 0 or left < 0 or top + ch > h or left + cw > w:
            raise ValueError(f"crop {index}: {ch}x{cw} at ({top}, {left}) is not inside the {h}x{w} canvas")
        votes[:, top : top + ch, left : left + cw] += labels == classes
    pred = np.zeros((h, w), dtype=np.uint8)
    best = votes[0].copy()
    for k in range(1, num_classes):
        np.copyto(pred, k, where=votes[k] > best)
        np.maximum(best, votes[k], out=best)
    unvoted = h * w - np.count_nonzero(best)
    if unvoted:
        raise ValueError(f"{unvoted} of the {h}x{w} canvas pixels lie under no crop")
    return pred


AUGMENT_OPS = ("identity", "hflip", "vflip", "rot90_1", "rot90_2", "rot90_3")


def augment(image, mask, op):
    """Apply one flip/rotation to image and mask identically.

    rot90_k maps pixel (i, j) to (j, H-1-i) applied k times; rotations
    require square crops.
    """
    if op == "identity":
        return image, mask
    if op == "hflip":
        return image[:, :, ::-1].copy(), mask[:, ::-1].copy()
    if op == "vflip":
        return image[:, ::-1, :].copy(), mask[::-1, :].copy()
    if op.startswith("rot90_"):
        k = int(op.split("_")[1])
        if k not in (1, 2, 3):
            raise ValueError(f"rotation count must be 1..3, got {k}")
        if mask.shape[0] != mask.shape[1]:
            raise ValueError("rotations need square crops")
        return (
            np.rot90(image, k=-k, axes=(1, 2)).copy(),
            np.rot90(mask, k=-k).copy(),
        )
    raise ValueError(f"unknown augmentation {op!r}")


# ---------------------------------------------------------------------------
# checkpoint container (PFC1)


def _stored(arr, what):
    """Little-endian copy of ``arr`` and its PFC1 dtype code."""
    arr = np.asarray(arr)
    if arr.dtype not in (np.float32, np.float64, np.uint8):
        raise ValueError(f"unsupported dtype {arr.dtype}{what}")
    arr = arr.astype(arr.dtype.newbyteorder("<"))
    return arr, _DTYPE_CODES[arr.dtype]


def _take(raw, pos, size, label):
    """``size`` bytes of ``raw`` from ``pos`` and the offset after them."""
    if pos + size > len(raw):
        raise ValueError(f"truncated {label} at byte {pos}")
    return raw[pos : pos + size], pos + size


def _unpack(fmt, raw, pos, label):
    chunk, end = _take(raw, pos, struct.calcsize(fmt), label)
    return struct.unpack(fmt, chunk), end


def _take_text(raw, pos, size, label):
    """``_take``, with the bytes decoded as UTF-8 text."""
    chunk, end = _take(raw, pos, size, label)
    try:
        return chunk.decode(), end
    except UnicodeDecodeError as exc:
        raise ValueError(f"bad UTF-8 text in {label} at byte {pos + exc.start}") from None


def write_checkpoint(path, named_arrays, config_text=""):
    """Named parameter container with a (name, shape, offset) manifest."""
    names = list(named_arrays)
    blobs = []
    offset = 0
    header = bytearray()
    header += b"PFC1"
    cfg_bytes = config_text.encode()
    header += struct.pack("<I", len(cfg_bytes))
    header += cfg_bytes
    header += struct.pack("<I", len(names))
    for name in names:
        arr = named_arrays[name]
        arr, code = _stored(arr.data if isinstance(arr, Tensor) else arr, f" for {name}")
        blob = arr.tobytes()
        nb = name.encode()
        header += struct.pack("<H", len(nb))
        header += nb
        header += struct.pack("<BB", code, arr.ndim)
        for d in arr.shape:
            header += struct.pack("<I", d)
        header += struct.pack("<Q", offset)
        blobs.append(blob)
        offset += len(blob)
    with open(path, "wb") as f:
        f.write(bytes(header))
        for blob in blobs:
            f.write(blob)


def read_checkpoint(path):
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"PFC1":
        raise ValueError(f"bad magic in {path} at byte 0")
    header = f"header in {path}"
    (cfg_len,), pos = _unpack("<I", raw, 4, header)
    config_text, pos = _take_text(raw, pos, cfg_len, header)
    (count,), pos = _unpack("<I", raw, pos, header)
    manifest = {}
    size = 0  # payloads lie back to back in manifest order
    for _ in range(count):
        (name_len,), pos = _unpack("<H", raw, pos, header)
        name_at = pos
        name, pos = _take_text(raw, pos, name_len, header)
        if name in manifest:
            raise ValueError(f"duplicate parameter {name} in {path} at byte {name_at}")
        (code, ndim), pos = _unpack("<BB", raw, pos, header)
        if code not in _CODE_DTYPES:
            raise ValueError(f"unknown dtype code {code} for {name} in {path} at byte {pos - 2}")
        dims, pos = _unpack(f"<{ndim}I", raw, pos, header)
        (offset,), pos = _unpack("<Q", raw, pos, header)
        if offset != size:
            raise ValueError(f"offset {offset} of {name} should be {size} in {path} at byte {pos - 8}")
        manifest[name] = (_CODE_DTYPES[code], dims)
        size += math.prod(dims) * _CODE_DTYPES[code].itemsize
    arrays = {}
    for name, (dtype, dims) in manifest.items():
        payload, pos = _take(raw, pos, math.prod(dims) * dtype.itemsize, f"payload for {name} in {path}")
        arrays[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    if pos < len(raw):
        raise ValueError(f"{len(raw) - pos} bytes after the last payload in {path} at byte {pos}")
    return arrays, config_text
