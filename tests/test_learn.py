import re
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.ndimage import maximum_filter

from pfnet import learn, ops
from pfnet.learn import (
    SgdMomentum,
    TrainConfig,
    TrainingAborted,
    bce_loss,
    ce_loss,
    edge_map,
    edge_targets_from_mask,
    poly_lr,
    train_run,
    train_step,
)
from pfnet.data import SceneConfig, sliding_crop, stitch_label_votes, synth_scene
from pfnet.metrics import ConfusionMatrix, label_boundaries, miou
from pfnet.network import NetworkConfig, ParameterSet, init_params, pfnet_forward
from pfnet.pointflow import PfmConfig
from pfnet.tensor import Tape, Tensor

from gradcheck import DEFAULT_TOL, check_gradients
from test_ops import held_arrays


def rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.Generator(np.random.PCG64(seed)).uniform(lo, hi, shape)


def tiny_cfg(**kw):
    base = dict(
        crop_size=32,
        num_classes=3,
        fpn_channels=8,
        backbone_channels=(4, 6, 8, 12),
        ppm_bins=(1,),
        pfm=(PfmConfig(salient_k=2, boundary_k=2),) * 3,
    )
    base.update(kw)
    return NetworkConfig(**base)


def tiny_crops(count, seed, size=32, classes=3):
    rng = np.random.Generator(np.random.PCG64(seed))
    crops = []
    for _ in range(count):
        img = rng.random((3, size, size)).astype(np.float32)
        mask = np.zeros((size, size), dtype=np.uint8)
        # one small rectangle per crop so CE has signal
        r, c = rng.integers(4, size - 8, 2)
        mask[r : r + 5, c : c + 5] = rng.integers(1, classes)
        crops.append((img, mask))
    return crops


# ---------------------------------------------------------------------------
# edge targets


def test_edge_targets_constant_mask_all_zero():
    targets = edge_targets_from_mask(np.zeros((64, 64), dtype=np.uint8), 1)
    for s, t in targets.items():
        assert t.shape == (64 // s, 64 // s)
        assert np.all(t == 0.0)


def test_edge_targets_cover_each_gap_stride():
    # gap l's boundary map lives on the level-l grid, stride 2^l
    assert sorted(edge_targets_from_mask(np.zeros((64, 64), dtype=np.uint8), 1)) == [8, 16, 32]


def test_edge_targets_halved_mask_band_width():
    mask = np.zeros((64, 64), dtype=np.uint8)
    mask[:, 32:] = 1
    edges = edge_map(mask, radius=1)
    cols = np.nonzero(edges.any(axis=0))[0]
    # label change at columns 31|32, dilated by 1 -> band of width 2 * radius + 2
    assert cols.tolist() == [30, 31, 32, 33]


def test_edge_map_matches_bruteforce_oracle():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(20):
        mask = rng.integers(0, 4, (16, 16))
        got = edge_map(mask, radius=0)
        oracle = np.zeros((16, 16), dtype=bool)
        for i in range(16):
            for j in range(16):
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < 16 and 0 <= nj < 16 and mask[ni, nj] != mask[i, j]:
                        oracle[i, j] = True
        assert np.array_equal(got, oracle)


@pytest.mark.parametrize("radius", [0, 1, 2, 3, 9])
@pytest.mark.parametrize("hw", [(12, 16), (7, 1), (1, 9), (5, 5)])
def test_edge_map_equals_scipy_maximum_filter(radius, hw):
    # radius 9's 19 px window is wider than every map; 1-px-wide maps
    # dilate along one axis only
    rng = np.random.Generator(np.random.PCG64(radius * 100 + sum(hw)))
    masks = rng.integers(0, 3, (3, *hw))
    masks[1] = (rng.random(hw) < 0.1).astype(masks.dtype)  # sparse edges
    edges = label_boundaries(masks).astype(np.uint8)
    want = maximum_filter(edges, size=(1, 2 * radius + 1, 2 * radius + 1)).astype(bool)
    got = edge_map(masks, radius)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_edge_targets_or_pooling_matches_oracle():
    rng = np.random.Generator(np.random.PCG64(6))
    mask = rng.integers(0, 3, (32, 32))
    targets = edge_targets_from_mask(mask, radius=1)
    edges = edge_map(mask, radius=1)
    assert sorted(targets) == [8, 16, 32]
    for s in (8, 16, 32):
        for bi in range(32 // s):
            for bj in range(32 // s):
                block = edges[bi * s : (bi + 1) * s, bj * s : (bj + 1) * s]
                assert targets[s][bi, bj] == float(block.any())


@pytest.mark.parametrize("radius", [0, 1])
def test_batched_edge_targets_equal_stacked_per_mask_targets(radius):
    rng = np.random.Generator(np.random.PCG64(radius + 40))
    masks = rng.integers(0, 3, (4, 64, 64)).astype(np.uint8)
    masks[1] = 0  # a mask with no edges beside ones with many
    masks[2, :, :32] = 2  # and one with a single straight edge
    masks[2, :, 32:] = 1
    got = edge_targets_from_mask(masks, radius)
    # the reference: one 2-D call per mask, stacked per stride
    per_mask = [edge_targets_from_mask(m, radius) for m in masks]
    assert sorted(got) == [8, 16, 32]
    for s, target in got.items():
        want = np.stack([t[s] for t in per_mask])
        assert target.dtype == want.dtype and target.shape == (4, 64 // s, 64 // s)
        assert target.tobytes() == want.tobytes()


def test_edge_targets_reject_empty():
    with pytest.raises(ValueError):
        edge_targets_from_mask(np.zeros((0, 0)), 1)


# ---------------------------------------------------------------------------
# losses


def test_bce_perfect_prediction_near_zero():
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    pred = Tensor(target.copy())
    assert float(bce_loss(pred, target).data) < 1e-6


def test_bce_uniform_prediction_is_ln2():
    pred = Tensor(np.full((4, 4), 0.5))
    assert float(bce_loss(pred, np.ones((4, 4))).data) == pytest.approx(
        0.6931471805599453, abs=1e-12
    )


def test_bce_single_pixel_reference():
    # -ln 0.8 evaluated independently: 0.22314355131420976
    loss = bce_loss(Tensor(np.array([0.8])), np.array([1.0]))
    assert float(loss.data) == pytest.approx(0.22314355131420976, abs=1e-12)


def test_bce_shape_mismatch():
    with pytest.raises(ValueError):
        bce_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))


def test_ce_uniform_two_class_is_ln2():
    logits = Tensor(np.zeros((1, 2, 3, 3)))
    mask = np.zeros((1, 3, 3), dtype=np.int64)
    assert float(ce_loss(logits, mask).data) == pytest.approx(0.6931471805599453, abs=1e-12)


def test_ce_confident_prediction_near_zero():
    logits_data = np.zeros((1, 2, 2, 2))
    logits_data[:, 1] = 100.0
    mask = np.ones((1, 2, 2), dtype=np.int64)
    assert float(ce_loss(Tensor(logits_data), mask).data) < 1e-6


def test_ce_three_class_reference():
    # softmax([1,2,3]) true class 2 -> loss = log(1 + e^-1 + e^-2) = 0.40760596444438064
    logits = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1))
    mask = np.full((1, 1, 1), 2, dtype=np.int64)
    assert float(ce_loss(logits, mask).data) == pytest.approx(0.40760596444438064, abs=1e-12)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8], ids=["int64", "uint8"])
def test_ce_rejects_label_255(dtype):
    # masks hold class labels only, so 255 is out of range, on every pixel
    # or beside a class label
    logits = Tensor(rand((1, 3, 2, 2), 7))
    mask = np.full((1, 2, 2), 255, dtype=dtype)
    with pytest.raises(ValueError, match="^mask label outside class range$"):
        ce_loss(logits, mask)
    mask[0, 0, 0] = 1
    with pytest.raises(ValueError, match="^mask label outside class range$"):
        ce_loss(logits, mask)


def test_ce_rejects_bad_labels():
    logits = Tensor(np.zeros((1, 2, 2, 2)))
    with pytest.raises(ValueError, match="^mask label outside class range$"):
        ce_loss(logits, np.full((1, 2, 2), 5, dtype=np.int64))
    # the labels index the log-softmax, so they must be integers
    for dtype in (bool, np.float64):
        with pytest.raises(ValueError, match=f"^mask dtype {np.dtype(dtype)} is not an integer dtype$"):
            ce_loss(logits, np.ones((1, 2, 2), dtype=dtype))


def test_ce_rejects_empty_mask():
    logits = Tensor(np.zeros((0, 2, 1, 2)))
    with pytest.raises(ValueError, match="^empty mask$"):
        ce_loss(logits, np.zeros((0, 1, 2), dtype=np.int64))


def test_ce_rejects_negative_labels():
    logits = Tensor(np.zeros((1, 2, 2, 2)))
    mask = np.zeros((1, 2, 2), dtype=np.int64)
    mask[0, 1, 1] = -1
    with pytest.raises(ValueError, match="outside class range"):
        ce_loss(logits, mask)


def ce_reference(logits, mask, g):
    """ce_loss's forward and adjoint as first written, with a one-hot array:
    (loss, grad logits)."""
    count = mask.size
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    labels = mask.astype(np.int64)[:, None]
    picked = np.take_along_axis(logp, labels, axis=1)[:, 0]
    loss = np.asarray(float(-picked.sum() / count), dtype=logits.dtype)
    softmax = np.exp(logp)
    onehot = np.zeros_like(softmax)
    np.put_along_axis(onehot, labels, 1.0, axis=1)
    grad = (softmax - onehot) / count
    return loss, (g * grad).astype(logits.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize(
    "shape",
    # the last three are the batch-8 training shapes at 64, 128 and 256 px,
    # which ce_loss splits into item chunks
    [(2, 3, 4, 4), (1, 2, 5, 3), (8, 6, 16, 16), (3, 7, 1, 9), (8, 6, 64, 64), (8, 6, 128, 128), (8, 6, 256, 256)],
)
def test_ce_matches_reference_bitwise(shape, dtype):
    n, k, h, w = shape
    seed = sum(shape)
    rng = np.random.Generator(np.random.PCG64(seed))
    logits_data = rand(shape, seed, -6, 6).astype(dtype)
    mask = rng.integers(0, k, (n, h, w))
    gs = (np.ones((), dtype=dtype), np.asarray(0.37, dtype=dtype))
    want = [(g, ce_reference(logits_data, mask, g)) for g in gs]
    for m in (mask, mask.astype(np.uint8)):  # training masks are uint8
        for g, expected in want:
            logits = Tensor(logits_data.copy(), requires_grad=True)
            with Tape() as tape:
                loss = ce_loss(logits, m)
            ((_, backward),) = tape.entries
            backward(g)
            for got, ref in zip((loss.data, logits.grad), expected):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_ce_peak_bounded_at_paper_shape():
    # train_paper256's loss: 6 classes at 256 px, batch 8, a uint8 mask
    shape = n, k, h, w = 8, 6, 256, 256
    logits = Tensor(rand(shape, 40).astype(np.float32), requires_grad=True)
    mask = np.random.Generator(np.random.PCG64(41)).integers(0, k, (n, h, w)).astype(np.uint8)
    tracemalloc.start()
    try:
        with Tape() as tape:
            ce_loss(logits, mask)
        ((_, backward),) = tape.entries
        backward(np.ones((), dtype=np.float32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the log-softmax the tape keeps and the gradient, and one chunk of
    # eight tiles; whole-batch exponentials or a per-pixel copy of the
    # labels exceed that
    assert peak <= 2 * logits.data.nbytes + 8 * 4 * ops._BLOCK


def test_ce_tape_keeps_the_mask_and_nothing_derived_from_it():
    n, k, h, w = 2, 3, 5, 7
    logits_data = rand((n, k, h, w), 42).astype(np.float32)
    mask = np.random.Generator(np.random.PCG64(43)).integers(0, k, (n, h, w)).astype(np.uint8)
    logits = Tensor(logits_data.copy(), requires_grad=True)
    with Tape() as tape:
        ce_loss(logits, mask)
    ((_, backward),) = tape.entries
    held = held_arrays(backward)
    assert any(a is mask for a in held)
    # no labels array, which backward reads from the mask
    assert [a.shape for a in held if a.size == mask.size and a is not mask] == []
    g = np.asarray(0.37, dtype=np.float32)
    backward(g)
    assert logits.grad.tobytes() == ce_reference(logits_data, mask, g)[1].tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bce_gradients(seed):
    pred = Tensor(rand((2, 1, 4, 4), seed, 0.05, 0.95), requires_grad=True)
    target = (rand((2, 1, 4, 4), seed + 9) > 0).astype(np.float64)

    def build():
        return bce_loss(pred, target)

    assert check_gradients(build, [pred]) < DEFAULT_TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ce_gradients(seed):
    logits = Tensor(rand((2, 3, 4, 4), seed), requires_grad=True)
    mask = np.random.Generator(np.random.PCG64(seed + 3)).integers(0, 3, (2, 4, 4))

    def build():
        return ce_loss(logits, mask)

    assert check_gradients(build, [logits]) < DEFAULT_TOL


# ---------------------------------------------------------------------------
# schedule and optimizer


def test_poly_lr_endpoints():
    assert poly_lr(0.01, 0, 100) == pytest.approx(0.01)
    assert poly_lr(0.01, 100, 100) == 0.0


@pytest.mark.parametrize(
    "iteration, total_iter, match",
    [
        (12, 10, "iteration 12 outside [0, total_iter=10]"),  # was a complex rate
        (-1, 10, "iteration -1 outside [0, total_iter=10]"),  # was 0.109, above the base rate
        (0, 0, "total_iter must be >= 1, got 0 (iteration 0)"),
    ],
    ids=["past-the-end", "negative-iteration", "no-iterations"],
)
def test_poly_lr_rejects_an_iteration_outside_the_schedule(iteration, total_iter, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        poly_lr(0.1, iteration, total_iter)


def test_poly_lr_matches_formula():
    for it in (1, 37, 99):
        assert poly_lr(0.05, it, 100) == pytest.approx(0.05 * (1 - it / 100) ** 0.9)


def test_sgd_momentum_hand_recurrence():
    # p0 = 1, loss = p^2 -> grad 2p; momentum 0.9, wd 0.1, lr 0.5
    from pfnet.network import ParameterSet

    p = Tensor(np.array(1.0), requires_grad=True)
    params = ParameterSet({"p": p})
    opt = SgdMomentum(momentum=0.9, weight_decay=0.1)

    p.grad = np.array(2.0)  # grad of p^2 at p=1
    params = opt.step(params, lr=0.5)
    v1 = 2.0 + 0.1 * 1.0
    p1 = 1.0 - 0.5 * v1
    assert float(params["p"].data) == pytest.approx(p1, abs=1e-12)

    params["p"].grad = np.array(2.0 * p1)
    params = opt.step(params, lr=0.5)
    v2 = 0.9 * v1 + (2.0 * p1 + 0.1 * p1)
    p2 = p1 - 0.5 * v2
    assert float(params["p"].data) == pytest.approx(p2, abs=1e-12)


def sgd_reference(params, velocity, lr, momentum, weight_decay):
    """SgdMomentum.step as first written: new parameter arrays, with the
    velocity dict updated."""
    new = {}
    for name in sorted(params):
        p = params[name]
        grad = p.grad if p.grad is not None else np.zeros(p.shape, dtype=p.dtype)
        grad = grad + weight_decay * p.data
        v = momentum * velocity.get(name, 0.0) + grad
        velocity[name] = v
        new[name] = (p.data - lr * v).astype(p.dtype)
    return new


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sgd_momentum_matches_reference_formula_bitwise(dtype):
    rng = np.random.Generator(np.random.PCG64(44))
    data = {"a": rng.normal(size=(4, 5)), "b": rng.normal(size=(3,)), "c": rng.normal(size=(2, 2))}
    data["a"][0, :2] = -0.0  # signed zeros in the parameter and the gradient
    params = ParameterSet({k: Tensor(v.astype(dtype), requires_grad=True) for k, v in data.items()})
    opt, velocity = SgdMomentum(momentum=0.9, weight_decay=1e-4), {}
    for step, lr in enumerate((0.01, 0.007, 0.003)):
        for name, p in params.items():
            p.grad = None if name == "c" and step == 1 else rng.normal(size=p.shape).astype(dtype)
            if p.grad is not None:
                p.grad[0] = -0.0
        want = sgd_reference(params, velocity, lr, 0.9, 1e-4)
        params = opt.step(params, lr)
        for name in sorted(want):
            got = params[name].data
            assert got.dtype == want[name].dtype and got.tobytes() == want[name].tobytes(), (step, name)
            assert opt.velocity[name].tobytes() == velocity[name].tobytes(), (step, name)


# ---------------------------------------------------------------------------
# training loop


def test_train_step_runs_and_reports():
    cfg = tiny_cfg()
    params = init_params(cfg, 0)
    opt = SgdMomentum(0.9, 1e-4)
    batch = tiny_crops(2, 1)
    new_params, stats = train_step(params, opt, batch, cfg, TrainConfig(batch_size=2), 0, 10)
    assert set(stats) == {"lr", "ce", "bce_total", "total"}
    assert stats["lr"] == pytest.approx(0.01)
    assert np.isfinite(stats["total"])
    assert any(
        not np.array_equal(new_params[n].data, params[n].data) for n in params
    )


def test_train_step_builds_edge_targets_once_per_mask(monkeypatch):
    calls = []

    def counting_edge_map(mask, radius=1):
        calls.append(mask.shape)
        return edge_map(mask, radius)

    monkeypatch.setattr(learn, "edge_map", counting_edge_map)
    cfg = tiny_cfg()
    assert len(cfg.pfm_gaps) == 3
    train_step(init_params(cfg, 0), SgdMomentum(0.9, 1e-4), tiny_crops(3, 6), cfg, TrainConfig(batch_size=3), 0, 10)
    assert calls == [(3, 32, 32)]  # one call on the whole batch, not one per item or gap


def test_train_step_tape_does_not_keep_the_stacked_input(monkeypatch):
    # the stem conv remakes its input from the crops, which the caller keeps
    refs, checked = [], []
    forward, backward = learn.pfnet_forward, learn.reverse_accumulate

    def recording_forward(image, params, net_cfg):
        refs.append(weakref.ref(image.data))
        return forward(image, params, net_cfg)

    def checking_backward(tape, loss):
        checked.append(refs[0]() is None)
        return backward(tape, loss)

    monkeypatch.setattr(learn, "pfnet_forward", recording_forward)
    monkeypatch.setattr(learn, "reverse_accumulate", checking_backward)
    cfg = tiny_cfg()
    train_step(init_params(cfg, 0), SgdMomentum(0.9, 1e-4), tiny_crops(3, 7), cfg, TrainConfig(batch_size=3), 0, 10)
    assert checked == [True]


def test_loss_decreases_over_first_iterations():
    finals, initials = [], []
    for seed in (0, 1, 2):
        cfg = tiny_cfg()
        tc = TrainConfig(epochs=13, batch_size=4, seed=seed, augment=False)
        crops = tiny_crops(16, 100 + seed)
        losses = []
        train_run(crops, cfg, tc, on_log=lambda it, s: losses.append(s["total"]))
        initials.append(np.mean(losses[:5]))
        finals.append(np.mean(losses[45:52]))
    assert np.median(finals) < np.median(initials)


_FLOOR_SCENES = dict(canvas=64, num_classes=2, size_min=3, size_max=8, fg_ratio=0.05)


def _held_out_fg_iou(pairs, seed):
    """Train the plain arm on ``pairs`` of 32 px crops, then score 4
    held-out 64 px scenes (scene seed + 7919) from stitched crop labels;
    returns the foreground IoU."""
    net = NetworkConfig(
        crop_size=32,
        num_classes=2,
        fpn_channels=16,
        backbone_channels=(8, 8, 16, 16),
        ppm_bins=(1,),
        pfm_gaps=(),
    )
    params = train_run(pairs, net, TrainConfig(epochs=24, batch_size=8, base_lr=0.05, seed=seed))
    cm = ConfusionMatrix(2)
    for i in range(4):
        scene = synth_scene(SceneConfig(seed=seed + 7919, **_FLOOR_SCENES), i)
        crops = sliding_crop(scene.image, scene.mask, 32, 16)
        out = pfnet_forward(Tensor(np.stack([c.image for c in crops])), params, net)
        labels = ops.bilinear_resize(out.logits, (32, 32)).data.argmax(axis=1).astype(np.uint8)
        cm.update(scene.mask, stitch_label_votes([(labels[k], c.top, c.left) for k, c in enumerate(crops)], (64, 64), 2))
    return miou(cm).per_class[1]


def test_train_run_clears_a_held_out_iou_floor_that_shuffled_masks_do_not():
    # 8 scenes cropped 32/16 give 72 crops and 216 steps; over seeds 1-5
    # the plain arm scored 0.556-0.611 and its shuffled control 0.000
    seed = 1
    scenes = [synth_scene(SceneConfig(seed=seed, **_FLOOR_SCENES), i) for i in range(8)]
    crops = [c for s in scenes for c in sliding_crop(s.image, s.mask, 32, 16)]
    assert _held_out_fg_iou([(c.image, c.mask) for c in crops], seed) >= 0.5
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(len(crops))
    shuffled = [(c.image, crops[j].mask) for c, j in zip(crops, perm)]
    assert _held_out_fg_iou(shuffled, seed) < 0.05


def test_boundary_supervision_off_zeroes_only_boundary_grads():
    cfg = tiny_cfg()
    params = init_params(cfg, 2)
    opt = SgdMomentum(momentum=0.0, weight_decay=0.0)
    batch = tiny_crops(2, 3)
    tc = TrainConfig(batch_size=2, bce_weight=0.0)
    before = {n: params[n].data.copy() for n in params}
    new_params, _ = train_step(params, opt, batch, cfg, tc, 0, 10)
    for gap in (3, 4, 5):
        for suffix in ("weight", "bias"):
            name = f"pfm.gap{gap}.boundary.conv.{suffix}"
            assert np.array_equal(new_params[name].data, before[name]), name
    assert not np.array_equal(
        new_params["pfm.gap3.saliency.conv.weight"].data,
        before["pfm.gap3.saliency.conv.weight"],
    )


def test_training_bitwise_reproducible():
    def run():
        cfg = tiny_cfg()
        tc = TrainConfig(epochs=2, batch_size=4, seed=7)
        params = train_run(tiny_crops(8, 11), cfg, tc)
        return b"".join(params[n].data.tobytes() for n in sorted(params))

    assert run() == run()


def test_non_finite_loss_aborts_with_iteration():
    cfg = tiny_cfg()
    params = init_params(cfg, 4)
    params["head.classifier.weight"] = Tensor(
        np.full(params["head.classifier.weight"].shape, 1e38, dtype=np.float32),
        requires_grad=True,
    )
    opt = SgdMomentum(0.9, 1e-4)
    with pytest.raises(TrainingAborted) as err:
        train_step(params, opt, tiny_crops(2, 5), cfg, TrainConfig(batch_size=2), 3, 10)
    assert err.value.iteration == 3


@pytest.mark.parametrize("field", ["base_lr", "momentum", "weight_decay", "bce_weight"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_train_config_rejects_non_finite_values(field, value):
    # a config built in code skips the parser's finiteness check
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        TrainConfig(epochs=1, batch_size=2, **{field: value})


@pytest.mark.parametrize(
    "field,value",
    [("bce_weight", -0.1), ("weight_decay", -1e-4), ("checkpoint_every", -1), ("momentum", -0.1), ("momentum", 1.0)],
)
def test_train_config_rejects_out_of_range_values(field, value):
    TrainConfig(**{field: 0})
    with pytest.raises(ValueError, match=f"^{field} "):
        TrainConfig(**{field: value})
