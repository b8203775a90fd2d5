"""Synthetic aerial-style scenes, preprocessing, and bit-exact file formats.

Scenes are textured backgrounds scattered with tiny colored objects (2-8 px
rectangles and ellipses) until a target foreground ratio is met, mimicking
the extreme foreground/background imbalance of aerial imagery.  Everything
is integer-seeded PCG64, so bytes reproduce across platforms.

File formats: PFT1 (binary tensor container), PGM/PPM for human inspection,
a tab-separated dataset manifest, and a PFC1 checkpoint container holding
named parameters with a (name, shape, offset) manifest.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

_DTYPE_CODES = {np.dtype("<f4"): 1, np.dtype("<f8"): 2, np.dtype("u1"): 3}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("u1")}

CLASS_COLORS = np.array(
    [
        [0.85, 0.25, 0.20],  # class 1
        [0.20, 0.55, 0.85],  # class 2
        [0.90, 0.80, 0.25],  # class 3
        [0.45, 0.80, 0.35],  # class 4
        [0.70, 0.35, 0.80],  # class 5
    ]
)


@dataclass
class SceneConfig:
    canvas: tuple = (128, 128)
    num_classes: int = 6  # background + 5 object classes
    objects_per_scene: tuple = (6, 60)
    object_size: tuple = (2, 8)
    target_fg_ratio: float = 0.03
    background_texture: str = "perlin"  # or "flat"
    seed: int = 0

    def ratio_window(self):
        return 0.7 * self.target_fg_ratio, 1.3 * self.target_fg_ratio


@dataclass
class SceneSample:
    image: np.ndarray  # float32 [3, H, W] in [0, 1]
    mask: np.ndarray   # uint8 [H, W], labels < num_classes


def _rng(*entropy):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def _background(cfg, rng):
    h, w = cfg.canvas
    if cfg.background_texture == "flat":
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
    h, w = cfg.canvas
    lo, hi = cfg.object_size
    oh = int(rng.integers(lo, hi + 1))
    ow = int(rng.integers(lo, hi + 1))
    top = int(rng.integers(0, h - oh + 1))
    left = int(rng.integers(0, w - ow + 1))
    cls = int(rng.integers(1, cfg.num_classes))
    shape = "rect" if rng.uniform() < 0.5 else "ellipse"
    ys, xs = np.mgrid[0:oh, 0:ow]
    if shape == "ellipse":
        cy, cx = (oh - 1) / 2.0, (ow - 1) / 2.0
        ry, rx = max(oh / 2.0, 0.5), max(ow / 2.0, 0.5)
        inside = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
    else:
        inside = np.ones((oh, ow), dtype=bool)
    if not inside.any():
        inside[oh // 2, ow // 2] = True
    color = CLASS_COLORS[cls - 1] + rng.uniform(-0.05, 0.05, 3)
    patch_noise = rng.normal(0.0, 0.03, (3, oh, ow))
    region = (slice(top, top + oh), slice(left, left + ow))
    mask_region = mask[region]
    mask_region[inside] = cls
    for ch in range(3):
        img_ch = img[ch][region]
        img_ch[inside] = np.clip(color[ch] + patch_noise[ch][inside], 0.0, 1.0)


def synth_scene(cfg, index):
    """One deterministic scene for (cfg.seed, index); resamples until the
    achieved foreground ratio lands within +-30% of the target."""
    h, w = cfg.canvas
    lo_ratio, hi_ratio = cfg.ratio_window()
    min_obj, max_obj = cfg.objects_per_scene
    target_px = cfg.target_fg_ratio * h * w
    for attempt in range(100):
        rng = _rng(cfg.seed, index, attempt)
        img = _background(cfg, rng)
        mask = np.zeros((h, w), dtype=np.uint8)
        placed = 0
        while placed < max_obj:
            fg = int((mask > 0).sum())
            if placed >= min_obj and fg >= target_px:
                break
            _paint_object(img, mask, rng, cfg)
            placed += 1
        ratio = (mask > 0).sum() / (h * w)
        if max_obj == 0:
            return SceneSample(img.astype(np.float32), mask)
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
    """Windows at stride steps; the remainder gets a border-flushed window."""
    h, w = mask.shape
    if size > h or size > w:
        raise ValueError(f"crop size {size} exceeds canvas {h}x{w}")
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
    """Reassemble crop label predictions by per-pixel max vote."""
    h, w = canvas_hw
    votes = np.zeros((num_classes, h, w), dtype=np.int64)
    for labels, top, left in pred_crops:
        ch, cw = labels.shape
        ys = slice(top, top + ch)
        xs = slice(left, left + cw)
        for k in range(num_classes):
            votes[k, ys, xs] += labels == k
    return votes.argmax(axis=0).astype(np.uint8)


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
# tensor container (PFT1)


def _stored(arr, what=""):
    """Little-endian copy of ``arr`` and its PFT1/PFC1 dtype code."""
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


def write_tensor(arr, path):
    arr, code = _stored(arr)
    with open(path, "wb") as f:
        f.write(b"PFT1")
        f.write(struct.pack("<BB", code, arr.ndim))
        for d in arr.shape:
            f.write(struct.pack("<I", d))
        f.write(arr.tobytes())


def read_tensor(path):
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"PFT1":
        raise ValueError(f"bad magic in {path} at byte 0")
    header = f"header in {path}"
    (code, ndim), pos = _unpack("<BB", raw, 4, header)
    if code not in _CODE_DTYPES:
        raise ValueError(f"unknown dtype code {code} in {path} at byte 4")
    dims, pos = _unpack(f"<{ndim}I", raw, pos, header)
    dtype = _CODE_DTYPES[code]
    payload, _ = _take(raw, pos, int(np.prod(dims)) * dtype.itemsize, f"payload in {path}")
    return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()


# ---------------------------------------------------------------------------
# portable images


def write_pgm(mask, path):
    mask = np.asarray(mask, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{mask.shape[1]} {mask.shape[0]}\n255\n".encode())
        f.write(mask.tobytes())


# a header token, after whitespace and "#" comment lines, and the one
# whitespace byte that ends it
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*(\S+)\s")


def read_pgm(path):
    with open(path, "rb") as f:
        raw = f.read()
    fields, pos = [], 0
    for name in ("magic", "width", "height", "maxval"):
        m = _PGM_TOKEN.match(raw, pos)
        if m is None:
            raise ValueError(f"bad or truncated PGM header in {path} at byte {pos}: no {name}")
        if name != "magic" and not m.group(1).isdigit():
            raise ValueError(f"bad PGM {name} in {path} at byte {m.start(1)}")
        fields.append(m.group(1))
        pos = m.end()
    if fields[0] != b"P5":
        raise ValueError(f"not a binary PGM: {path} at byte 0")
    w, h, maxval = (int(t) for t in fields[1:])
    if maxval != 255:
        raise ValueError(f"unsupported PGM maxval {maxval} in {path}; only 255 is read")
    data, _ = _take(raw, pos, h * w, f"PGM payload in {path}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w).copy()


def write_ppm(image, path):
    """image: [3, H, W] floats in [0, 1] or uint8."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        image = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    h, w = image.shape[1:]
    inter = np.transpose(image, (1, 2, 0))  # H, W, 3
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(inter.tobytes())


# ---------------------------------------------------------------------------
# manifest


def write_manifest(entries, path):
    with open(path, "w") as f:
        for image_path, mask_path, split in entries:
            f.write(f"{image_path}\t{mask_path}\t{split}\n")


def read_manifest(path):
    entries = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
            image_path, mask_path, split = fields
            if split not in ("train", "val"):
                raise ValueError(f"{path}:{lineno}: bad split {split!r}")
            entries.append((image_path, mask_path, split))
    return entries


# ---------------------------------------------------------------------------
# checkpoint container (PFC1)


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
    manifest = []
    for _ in range(count):
        (name_len,), pos = _unpack("<H", raw, pos, header)
        name, pos = _take_text(raw, pos, name_len, header)
        (code, ndim), pos = _unpack("<BB", raw, pos, header)
        if code not in _CODE_DTYPES:
            raise ValueError(f"unknown dtype code {code} for {name} in {path} at byte {pos - 2}")
        dims, pos = _unpack(f"<{ndim}I", raw, pos, header)
        (offset,), pos = _unpack("<Q", raw, pos, header)
        manifest.append((name, _CODE_DTYPES[code], dims, offset))
    arrays = {}
    for name, dtype, dims, offset in manifest:
        nbytes = int(np.prod(dims)) * dtype.itemsize
        payload, _ = _take(raw, pos + offset, nbytes, f"payload for {name} in {path}")
        arrays[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    return arrays, config_text
