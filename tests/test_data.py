import re

import numpy as np
import pytest

from pfnet import config
from pfnet.data import (
    AUGMENT_OPS,
    SceneConfig,
    _paint_object,
    augment,
    read_checkpoint,
    sliding_crop,
    stitch_label_votes,
    synth_scene,
    write_checkpoint,
)


# ---------------------------------------------------------------------------
# scene generation


def test_scene_no_objects_all_background():
    cfg = SceneConfig(canvas=32, objects_min=0, objects_max=0, fg_ratio=0.0)
    sample = synth_scene(cfg, 0)
    assert sample.mask.max() == 0
    assert sample.image.shape == (3, 32, 32)
    assert sample.image.dtype == np.float32


def test_scene_bitwise_deterministic_per_seed_and_index():
    cfg = SceneConfig(canvas=64, seed=3)
    a = synth_scene(cfg, 5)
    b = synth_scene(cfg, 5)
    assert a.image.tobytes() == b.image.tobytes()
    assert a.mask.tobytes() == b.mask.tobytes()
    c = synth_scene(cfg, 6)
    assert a.mask.tobytes() != c.mask.tobytes()


def test_scene_fg_ratio_window():
    cfg = SceneConfig(canvas=128, fg_ratio=0.03, seed=0)
    ratios = []
    for i in range(100):
        sample = synth_scene(cfg, i)
        ratios.append((sample.mask > 0).mean())
    mean = float(np.mean(ratios))
    assert 0.021 <= mean <= 0.039
    lo, hi = cfg.ratio_window()
    assert all(lo <= r <= hi for r in ratios)


def test_scene_values_in_range_and_labels_valid():
    cfg = SceneConfig(canvas=64, seed=9)
    sample = synth_scene(cfg, 0)
    assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0
    assert sample.mask.max() < cfg.num_classes


def test_scene_config_rejects_no_objects_with_a_foreground_target():
    # no object can cover a positive foreground floor
    with pytest.raises(ValueError, match=r"^fg_ratio\b"):
        SceneConfig(canvas=32, objects_min=0, objects_max=0, fg_ratio=0.03)


def test_object_cap_scales_with_canvas_area():
    assert SceneConfig(canvas=128).object_cap() == 60  # desk scenes keep their cap
    assert SceneConfig(canvas=512).object_cap() == 960
    assert SceneConfig(canvas=130).object_cap() == 62  # rounded up
    assert SceneConfig(canvas=128, objects_min=0, objects_max=0, fg_ratio=0).object_cap() == 0
    with pytest.raises(ValueError, match=r"^objects_min must be in \[0, objects_max cap = 4\]"):
        SceneConfig(canvas=32)  # 6 objects cannot fit a cap of 4


def test_every_painted_object_covers_a_pixel():
    # an object's centre cell lies within half a cell of its centre on each
    # axis, so an ellipse holds it at every size down to 1 px
    cfg = SceneConfig(canvas=16, objects_min=1, size_min=1, size_max=12)
    kinds = set()
    for seed in range(3000):
        img, mask = np.zeros((3, 16, 16)), np.zeros((16, 16), dtype=np.uint8)
        covered = _paint_object(img, mask, np.random.Generator(np.random.PCG64(seed)), cfg)
        rows, cols = np.nonzero(mask)
        assert covered == rows.size >= 1, seed
        box_h, box_w = np.ptp(rows) + 1, np.ptp(cols) + 1
        if min(box_h, box_w) >= 4:  # at these sizes only a rectangle fills its box
            kinds.add("rect" if rows.size == box_h * box_w else "ellipse")
    assert kinds == {"rect", "ellipse"}


def test_default_scene_config_is_valid_and_reaches_its_window_at_512_px():
    SceneConfig()
    cfg = SceneConfig(canvas=512, seed=1)
    lo, hi = cfg.ratio_window()
    assert lo <= (synth_scene(cfg, 0).mask > 0).mean() <= hi


def test_scene_flat_texture():
    cfg = SceneConfig(canvas=32, texture="flat", objects_min=0, objects_max=0, fg_ratio=0.0)
    sample = synth_scene(cfg, 0)
    assert np.isfinite(sample.image).all()


# Each id names the scene property its override breaks; the message must
# start with the key it rejects and name the key it is compared with.
@pytest.mark.parametrize(
    "override,key",
    [
        pytest.param("data.num_classes=1", "num_classes", id="data.num_classes=1-num_classes"),
        pytest.param("data.num_classes=7", "num_classes", id="data.num_classes=7-num_classes"),
        pytest.param("data.size_min=0", "size_min", id="data.size_min=0-object_size"),
        pytest.param("data.size_min=9", "size_min .*size_max", id="data.size_min=9-object_size"),
        pytest.param("data.size_max=200", "size_max .*canvas", id="data.size_max=200-object_size"),
        pytest.param("data.fg_ratio=-0.5", "fg_ratio", id="data.fg_ratio=-0.5-target_fg_ratio"),
        pytest.param("data.fg_ratio=1.5", "fg_ratio", id="data.fg_ratio=1.5-target_fg_ratio"),
        pytest.param("data.fg_ratio=0.9", "fg_ratio", id="data.fg_ratio=0.9-target_fg_ratio"),
        pytest.param("data.objects_min=-1", "objects_min", id="data.objects_min=-1-objects_per_scene"),
        pytest.param(
            "data.objects_max=5", "objects_min .*objects_max", id="data.objects_max=5-objects_per_scene"
        ),
        pytest.param("data.texture=foo", "texture", id="data.texture=foo-background_texture"),
    ],
)
def test_synth_scene_rejects_bad_scene_config_by_field(override, key):
    cfg = config.apply_overrides(config.load_config(config.packaged_config_path("desk")), [override])
    with pytest.raises(ValueError, match=rf"^{key}\b"):
        synth_scene(config.scene_config(cfg, 0), 0)


# ---------------------------------------------------------------------------
# sliding crop and stitching


def test_crop_exact_fit_single_window():
    img = np.zeros((3, 64, 64), dtype=np.float32)
    mask = np.zeros((64, 64), dtype=np.uint8)
    crops = sliding_crop(img, mask, 64, 32)
    assert len(crops) == 1
    assert (crops[0].top, crops[0].left) == (0, 0)


def test_crop_border_flush_windows():
    img = np.zeros((3, 1024, 1024), dtype=np.float32)
    mask = np.zeros((1024, 1024), dtype=np.uint8)
    crops = sliding_crop(img, mask, 896, 512)
    origins = sorted({(c.top, c.left) for c in crops})
    assert origins == [(0, 0), (0, 128), (128, 0), (128, 128)]


def test_crops_cover_every_pixel():
    img = np.zeros((3, 100, 80), dtype=np.float32)
    mask = np.zeros((100, 80), dtype=np.uint8)
    covered = np.zeros((100, 80), dtype=int)
    for c in sliding_crop(img, mask, 32, 24):
        covered[c.top : c.top + 32, c.left : c.left + 32] += 1
    assert (covered >= 1).all()


def test_crop_size_exceeds_canvas():
    with pytest.raises(ValueError):
        sliding_crop(np.zeros((3, 16, 16)), np.zeros((16, 16)), 32, 16)


@pytest.mark.parametrize("stride", [0, -4])
def test_crop_stride_below_one_rejected(stride):
    with pytest.raises(ValueError, match="crop stride"):
        sliding_crop(np.zeros((3, 16, 16)), np.zeros((16, 16)), 8, stride)


@pytest.mark.parametrize("size", [0, -3])
def test_crop_size_below_one_rejected(size):
    with pytest.raises(ValueError, match=f"crop size must be >= 1, got {size}"):
        sliding_crop(np.zeros((3, 16, 16)), np.zeros((16, 16)), size, 8)


def test_crop_rejects_an_image_of_another_size_than_the_mask():
    # a (3, 36, 64) image crop was returned beside each (64, 64) mask crop
    with pytest.raises(ValueError, match=re.escape("image (3, 100, 128) does not cover mask (128, 128)")):
        sliding_crop(np.zeros((3, 100, 128)), np.zeros((128, 128)), 64, 32)


def test_stitch_reconstructs_from_crops():
    rng = np.random.Generator(np.random.PCG64(1))
    full = rng.integers(0, 4, (48, 48)).astype(np.uint8)
    img = np.zeros((3, 48, 48), dtype=np.float32)
    crops = sliding_crop(img, full, 32, 16)
    stitched = stitch_label_votes(
        [(c.mask, c.top, c.left) for c in crops], (48, 48), 4
    )
    assert np.array_equal(stitched, full)


def stitch_per_class_loop(pred_crops, canvas_hw, num_classes):
    """The reference for ``stitch_label_votes``: one vote pass per class."""
    votes = np.zeros((num_classes,) + tuple(canvas_hw), dtype=np.int64)
    for labels, top, left in pred_crops:
        ch, cw = labels.shape
        for k in range(num_classes):
            votes[k, top : top + ch, left : left + cw] += labels == k
    return votes.argmax(axis=0).astype(np.uint8)


def test_stitch_equals_the_per_class_loop_with_overlaps_and_ties():
    rng = np.random.Generator(np.random.PCG64(4))
    # 3 x 3 windows of 16 px at stride 8 on a 32 px canvas: cells under two
    # crops with different labels tie, and ties go to the smaller class
    crops = [(rng.integers(0, 5, (16, 16)).astype(np.uint8), top, left) for top in (0, 8, 16) for left in (0, 8, 16)]
    crops.append((np.full((16, 16), 4, np.uint8), 8, 8))  # a fourth vote in the middle
    got = stitch_label_votes(crops, (32, 32), 5)
    want = stitch_per_class_loop(crops, (32, 32), 5)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "labels",
    [[3] * 260 + [1] * 40, [4] * 150 + [2] * 150],
    ids=["3-wins-past-255-votes", "tie-to-the-smaller-class"],
)
def test_stitch_counts_300_votes_on_one_pixel(labels):
    # 300 crops need uint16 votes: in uint8, 260 votes for class 3 wrap to 4
    crops = [(np.full((1, 1), k, np.uint8), 0, 0) for k in labels]
    got = stitch_label_votes(crops, (1, 1), 5)
    want = stitch_per_class_loop(crops, (1, 1), 5)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got[0, 0] == min(labels, key=lambda k: (-labels.count(k), k))


def test_stitch_rejects_pixels_under_no_crop():
    # the 48 pixels outside the one crop were stitched as class 0
    crops = [(np.full((4, 4), 2, np.uint8), 0, 0)]
    with pytest.raises(ValueError, match=re.escape("48 of the 8x8 canvas pixels lie under no crop")):
        stitch_label_votes(crops, (8, 8), 3)


def test_stitch_rejects_labels_outside_the_classes():
    # a crop of 7s among 6 classes got no vote and was stitched as class 0
    crops = [(np.zeros((2, 2), np.uint8), 0, 0), (np.full((2, 2), 7, np.uint8), 0, 2)]
    with pytest.raises(ValueError, match=re.escape("crop 1: labels must lie in [0, 6), got 7..7")):
        stitch_label_votes(crops, (2, 4), 6)


@pytest.mark.parametrize(
    "top, left, match",
    [
        (-8, 0, "crop 1: 4x4 at (-8, 0) is not inside the 8x8 canvas"),  # was stitched into rows 0-3
        (6, 2, "crop 1: 4x4 at (6, 2) is not inside the 8x8 canvas"),  # was a bare broadcast error
    ],
    ids=["above-the-canvas", "over-the-bottom-edge"],
)
def test_stitch_rejects_a_crop_outside_the_canvas(top, left, match):
    crops = [(np.zeros((4, 4), np.uint8), 0, 0), (np.ones((4, 4), np.uint8), top, left)]
    with pytest.raises(ValueError, match=re.escape(match)):
        stitch_label_votes(crops, (8, 8), 2)


# ---------------------------------------------------------------------------
# augmentation


def fixture_sample():
    rng = np.random.Generator(np.random.PCG64(2))
    img = rng.random((3, 8, 8)).astype(np.float32)
    mask = rng.integers(0, 3, (8, 8)).astype(np.uint8)
    return img, mask


def test_hflip_involution():
    img, mask = fixture_sample()
    i2, m2 = augment(*augment(img, mask, "hflip"), "hflip")
    assert i2.tobytes() == img.tobytes()
    assert m2.tobytes() == mask.tobytes()


def test_rot180_equals_flip_composition():
    img, mask = fixture_sample()
    a_img, a_mask = augment(img, mask, "rot90_2")
    b_img, b_mask = augment(*augment(img, mask, "hflip"), "vflip")
    assert np.array_equal(a_img, b_img)
    assert np.array_equal(a_mask, b_mask)


def test_rot90_corner_mapping():
    mask = np.zeros((4, 4), dtype=np.uint8)
    mask[0, 1] = 7  # pixel (i, j) = (0, 1)
    img = np.zeros((3, 4, 4), dtype=np.float32)
    _, rotated = augment(img, mask, "rot90_1")
    # (i, j) -> (j, H - 1 - i) = (1, 3)
    assert rotated[1, 3] == 7
    assert rotated.sum() == 7


def test_rot90_requires_square():
    with pytest.raises(ValueError):
        augment(np.zeros((3, 4, 6)), np.zeros((4, 6)), "rot90_1")


def test_all_ops_preserve_alignment():
    img, mask = fixture_sample()
    marked = mask.copy()
    marked[2, 5] = 9
    img_m = img.copy()
    img_m[:, 2, 5] = 0.123
    for op in AUGMENT_OPS:
        ai, am = augment(img_m, marked, op)
        pos = np.argwhere(am == 9)
        assert len(pos) == 1
        r, c = pos[0]
        assert np.allclose(ai[:, r, c], 0.123)


# ---------------------------------------------------------------------------
# checkpoint container


def assert_every_truncation_rejected(path, read):
    """Cutting a valid file at any byte length raises a ValueError that
    names the file and an offset inside the cut file."""
    raw = path.read_bytes()
    read(path)
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(ValueError) as info:
            read(path)
        message = str(info.value)
        assert str(path) in message, message
        offset = re.search(r"at byte (\d+)", message)
        assert offset is not None and int(offset.group(1)) <= n, message


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(8))
    named = {
        "backbone.stem.conv.weight": rng.random((4, 3, 3, 3)).astype(np.float32),
        "head.norm.gamma": rng.random(8),
        "counts": rng.integers(0, 255, (5,)).astype(np.uint8),
    }
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, named, config_text="[network]\nfpn_channels = 8\n")
    arrays, cfg_text = read_checkpoint(path)
    assert cfg_text == "[network]\nfpn_channels = 8\n"
    assert sorted(arrays) == sorted(named)
    for name in named:
        assert arrays[name].tobytes() == named[name].tobytes()
        assert arrays[name].shape == named[name].shape


def test_checkpoint_bitwise_stable(tmp_path):
    named = {"a.weight": np.arange(6, dtype=np.float32).reshape(2, 3)}
    write_checkpoint(tmp_path / "c1.ckpt", named, "cfg")
    write_checkpoint(tmp_path / "c2.ckpt", named, "cfg")
    assert (tmp_path / "c1.ckpt").read_bytes() == (tmp_path / "c2.ckpt").read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    (tmp_path / "x.ckpt").write_bytes(b"XXXX" + b"\x00" * 30)
    with pytest.raises(ValueError, match="bad magic"):
        read_checkpoint(tmp_path / "x.ckpt")


def test_checkpoint_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ValueError, match="unsupported dtype int32 for a.weight"):
        write_checkpoint(tmp_path / "c.ckpt", {"a.weight": np.ones((2, 2), dtype=np.int32)})


def test_checkpoint_every_truncation_rejected(tmp_path):
    named = {
        "a.weight": np.arange(6, dtype=np.float32).reshape(2, 3),
        "b": np.arange(3, dtype=np.uint8),
    }
    path = tmp_path / "c.ckpt"
    write_checkpoint(path, named, "cfg = 1\n")
    assert_every_truncation_rejected(path, read_checkpoint)


def test_checkpoint_duplicate_name_rejected(tmp_path):
    path = tmp_path / "c.ckpt"
    write_checkpoint(path, {"a": np.zeros(2, dtype=np.float32), "b": np.ones(2, dtype=np.float32)}, "cfg")
    raw = path.read_bytes()
    # the second manifest entry's name: magic, config length, 3 config
    # bytes, count, then the first entry (length, name, code, ndim, one
    # dim, offset) and the second name's length
    pos = 4 + 4 + 3 + 4 + (2 + 1 + 2 + 4 + 8) + 2
    assert raw[pos : pos + 1] == b"b"
    path.write_bytes(raw[:pos] + b"a" + raw[pos + 1 :])
    with pytest.raises(ValueError, match=re.escape(f"duplicate parameter a in {path} at byte {pos}")):
        read_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "c.ckpt"
    write_checkpoint(path, {"a": np.zeros(2, dtype=np.float32)}, "cfg")
    end = len(path.read_bytes())
    path.write_bytes(path.read_bytes() + b"\x00junk")
    with pytest.raises(ValueError, match=re.escape(f"5 bytes after the last payload in {path} at byte {end}")):
        read_checkpoint(path)


def test_checkpoint_dims_past_int64_read_as_truncated(tmp_path):
    path = tmp_path / "c.ckpt"
    write_checkpoint(path, {"a": np.zeros((2, 2), dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    # magic, config length, count, then entry a's name length, name, code
    # and ndim; its 2^64 - 2^33 + 1 elements wrap past int64
    at = 4 + 4 + 4 + 2 + 1 + 2
    assert raw[at : at + 8] == (2).to_bytes(4, "little") * 2
    raw[at : at + 8] = (2**32 - 1).to_bytes(4, "little") * 2
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=re.escape(f"truncated payload for a in {path} at byte 33")):
        read_checkpoint(path)


@pytest.mark.parametrize(
    "offsets,entry,message",
    [
        pytest.param((8, 0), 0, "offset 8 of a should be 0", id="swapped"),
        pytest.param((0, 0), 1, "offset 0 of b should be 8", id="both-zero"),
    ],
)
def test_checkpoint_payload_offsets_must_follow_in_order(tmp_path, offsets, entry, message):
    path = tmp_path / "c.ckpt"
    write_checkpoint(path, {"a": np.zeros(2, dtype=np.float32), "b": np.ones(2, dtype=np.float32)}, "cfg")
    raw = bytearray(path.read_bytes())
    # each entry's offset field: magic, config length, 3 config bytes and
    # count, then per entry (length, name, code, ndim, one dim) and offset
    fields = [4 + 4 + 3 + 4 + (2 + 1 + 2 + 4) + i * (2 + 1 + 2 + 4 + 8) for i in range(2)]
    for at, old, new in zip(fields, (0, 8), offsets):
        assert raw[at : at + 8] == old.to_bytes(8, "little")
        raw[at : at + 8] = new.to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=re.escape(message) + ".*" + re.escape(f"{path} at byte {fields[entry]}")):
        read_checkpoint(path)


@pytest.mark.parametrize("what", ["config", "name"])
def test_checkpoint_non_utf8_text_rejected(tmp_path, what):
    path = tmp_path / "c.ckpt"
    write_checkpoint(path, {"a.weight": np.zeros(2, dtype=np.float32)}, "cfg = 1\n")
    raw = bytearray(path.read_bytes())
    # magic, config length, 8 config bytes, parameter count, name length
    pos = 8 if what == "config" else 8 + 8 + 4 + 2
    raw[pos] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=re.escape(f"{path} at byte {pos}")):
        read_checkpoint(path)
