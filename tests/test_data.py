import re

import numpy as np
import pytest

from pfnet.data import (
    AUGMENT_OPS,
    SceneConfig,
    augment,
    read_checkpoint,
    read_manifest,
    read_pgm,
    read_tensor,
    sliding_crop,
    stitch_label_votes,
    synth_scene,
    write_checkpoint,
    write_manifest,
    write_pgm,
    write_ppm,
    write_tensor,
)


# ---------------------------------------------------------------------------
# scene generation


def test_scene_no_objects_all_background():
    cfg = SceneConfig(canvas=(32, 32), objects_per_scene=(0, 0), target_fg_ratio=0.0)
    sample = synth_scene(cfg, 0)
    assert sample.mask.max() == 0
    assert sample.image.shape == (3, 32, 32)
    assert sample.image.dtype == np.float32


def test_scene_bitwise_deterministic_per_seed_and_index():
    cfg = SceneConfig(canvas=(64, 64), seed=3)
    a = synth_scene(cfg, 5)
    b = synth_scene(cfg, 5)
    assert a.image.tobytes() == b.image.tobytes()
    assert a.mask.tobytes() == b.mask.tobytes()
    c = synth_scene(cfg, 6)
    assert a.mask.tobytes() != c.mask.tobytes()


def test_scene_fg_ratio_window():
    cfg = SceneConfig(canvas=(128, 128), target_fg_ratio=0.03, seed=0)
    ratios = []
    for i in range(100):
        sample = synth_scene(cfg, i)
        ratios.append((sample.mask > 0).mean())
    mean = float(np.mean(ratios))
    assert 0.021 <= mean <= 0.039
    lo, hi = cfg.ratio_window()
    assert all(lo <= r <= hi for r in ratios)


def test_scene_values_in_range_and_labels_valid():
    cfg = SceneConfig(canvas=(64, 64), seed=9)
    sample = synth_scene(cfg, 0)
    assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0
    assert sample.mask.max() < cfg.num_classes


def test_scene_flat_texture():
    cfg = SceneConfig(canvas=(32, 32), background_texture="flat", objects_per_scene=(0, 0), target_fg_ratio=0.0)
    sample = synth_scene(cfg, 0)
    assert np.isfinite(sample.image).all()


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


def test_stitch_reconstructs_from_crops():
    rng = np.random.Generator(np.random.PCG64(1))
    full = rng.integers(0, 4, (48, 48)).astype(np.uint8)
    img = np.zeros((3, 48, 48), dtype=np.float32)
    crops = sliding_crop(img, full, 32, 16)
    stitched = stitch_label_votes(
        [(c.mask, c.top, c.left) for c in crops], (48, 48), 4
    )
    assert np.array_equal(stitched, full)


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
# tensor files


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


def test_tensor_roundtrip_f32(tmp_path):
    arr = np.random.Generator(np.random.PCG64(3)).random((2, 3, 4)).astype(np.float32)
    path = tmp_path / "t.pft"
    write_tensor(arr, path)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert back.tobytes() == arr.tobytes()


def test_tensor_roundtrip_f64_and_u8(tmp_path):
    arr = np.random.Generator(np.random.PCG64(4)).random((5,))
    write_tensor(arr, tmp_path / "a.pft")
    assert read_tensor(tmp_path / "a.pft").tobytes() == arr.tobytes()
    mask = np.random.Generator(np.random.PCG64(5)).integers(0, 6, (16, 16)).astype(np.uint8)
    write_tensor(mask, tmp_path / "m.pft")
    back = read_tensor(tmp_path / "m.pft")
    assert np.array_equal(np.bincount(back.ravel()), np.bincount(mask.ravel()))
    assert back.tobytes() == mask.tobytes()


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad.pft"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        read_tensor(path)


def test_tensor_truncated(tmp_path):
    arr = np.ones((4, 4), dtype=np.float32)
    path = tmp_path / "t.pft"
    write_tensor(arr, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_tensor(path)


def test_tensor_every_truncation_rejected(tmp_path):
    path = tmp_path / "t.pft"
    write_tensor(np.arange(6, dtype=np.float32).reshape(2, 3), path)
    assert_every_truncation_rejected(path, read_tensor)


def test_tensor_unknown_dtype_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_tensor(np.ones((2, 2), dtype=np.int32), tmp_path / "x.pft")


# ---------------------------------------------------------------------------
# pgm/ppm and manifest


def test_pgm_roundtrip(tmp_path):
    mask = np.random.Generator(np.random.PCG64(6)).integers(0, 6, (20, 30)).astype(np.uint8)
    write_pgm(mask, tmp_path / "m.pgm")
    assert np.array_equal(read_pgm(tmp_path / "m.pgm"), mask)


def test_pgm_every_truncation_rejected(tmp_path):
    path = tmp_path / "m.pgm"
    write_pgm(np.arange(12, dtype=np.uint8).reshape(3, 4), path)
    assert_every_truncation_rejected(path, read_pgm)


def test_pgm_header_comments_skipped(tmp_path):
    mask = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# written by hand\n3 # width\n2\n255\n" + mask.tobytes())
    assert np.array_equal(read_pgm(path), mask)


def test_pgm_rejects_other_maxval_and_bad_fields(tmp_path):
    path = tmp_path / "w.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(ValueError, match="maxval 65535"):
        read_pgm(path)
    path.write_bytes(b"P5\nx 2\n255\n" + b"\x00" * 4)
    with pytest.raises(ValueError, match="width .* at byte 3"):
        read_pgm(path)
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(ValueError, match="not a binary PGM"):
        read_pgm(path)


def test_ppm_writes_valid_header(tmp_path):
    img = np.random.Generator(np.random.PCG64(7)).random((3, 5, 7)).astype(np.float32)
    write_ppm(img, tmp_path / "i.ppm")
    raw = (tmp_path / "i.ppm").read_bytes()
    assert raw.startswith(b"P6\n7 5\n255\n")
    assert len(raw) == len(b"P6\n7 5\n255\n") + 3 * 5 * 7


def test_manifest_roundtrip(tmp_path):
    entries = [("img0.pft", "mask0.pgm", "train"), ("img1.pft", "mask1.pgm", "val")]
    write_manifest(entries, tmp_path / "manifest.tsv")
    assert read_manifest(tmp_path / "manifest.tsv") == entries


def test_manifest_bad_split(tmp_path):
    (tmp_path / "manifest.tsv").write_text("a\tb\ttest\n")
    with pytest.raises(ValueError):
        read_manifest(tmp_path / "manifest.tsv")


@pytest.mark.parametrize(
    "bad_line",
    [
        pytest.param("img1.pft\tmask1.pgm", id="two-fields"),
        pytest.param("img1.pft\tmask1.pgm\ttrain\textra", id="four-fields"),
        pytest.param("img1.pft\tmask1.pgm\ttest", id="bad-split"),
    ],
)
def test_manifest_errors_name_file_and_line(tmp_path, bad_line):
    path = tmp_path / "manifest.tsv"
    path.write_text(f"img0.pft\tmask0.pgm\ttrain\n\n{bad_line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3:")):
        read_manifest(path)


# ---------------------------------------------------------------------------
# checkpoint container


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


def test_checkpoint_every_truncation_rejected(tmp_path):
    named = {
        "a.weight": np.arange(6, dtype=np.float32).reshape(2, 3),
        "b": np.arange(3, dtype=np.uint8),
    }
    path = tmp_path / "c.ckpt"
    write_checkpoint(path, named, "cfg = 1\n")
    assert_every_truncation_rejected(path, read_checkpoint)


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
