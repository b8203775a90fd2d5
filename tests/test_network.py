import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from pfnet.network import (
    NetworkConfig,
    backbone_forward,
    init_params,
    pfnet_forward,
    ppm_forward,
)
from pfnet import config, learn, network, ops, tensor
from pfnet.pointflow import PfmConfig
from pfnet.tensor import Tape, Tensor, add, concat_channels, relu, reverse_accumulate
from pfnet.learn import bce_loss, ce_loss

from gradcheck import DEFAULT_TOL, check_gradients, float64_params
from test_ops import closure_objects, held_arrays


def rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.Generator(np.random.PCG64(seed)).uniform(lo, hi, shape)


def tiny_cfg(**kw):
    base = dict(
        crop_size=32,
        num_classes=4,
        fpn_channels=8,
        backbone_channels=(4, 6, 8, 12),
        ppm_bins=(1, 2),
        pfm=(PfmConfig(salient_k=2, boundary_k=2),) * 3,
    )
    base.update(kw)
    return NetworkConfig(**base)


def test_config_rejects_indivisible_input():
    with pytest.raises(ValueError):
        NetworkConfig(crop_size=48)


@pytest.mark.parametrize("side", [0, -32])
def test_config_rejects_input_size_below_32(side):
    cfg = config.load_config(config.packaged_config_path("desk"))
    with pytest.raises(ValueError, match="^crop_size "):
        config.network_config(config.apply_overrides(cfg, [f"data.crop_size={side}"]))


@pytest.mark.parametrize("k", [-2, 0])
def test_config_rejects_salient_k_below_one(k):
    cfg = config.load_config(config.packaged_config_path("desk"))
    overrides = [f"pfm.gap3.salient_k={k}"]
    with pytest.raises(ValueError, match="^pfm.gap3.salient_k "):
        config.network_config(config.apply_overrides(cfg, overrides))
    # a disabled gap is checked too
    with pytest.raises(ValueError, match="^pfm.gap3.salient_k "):
        config.network_config(config.apply_overrides(cfg, overrides + ["network.pfm_gaps=4,5"]))


@pytest.mark.parametrize(
    "override,key",
    [("pfm.direction=foo", "pfm.direction"), ("pfm.gap3.boundary_k=-5", "pfm.gap3.boundary_k")],
)
def test_config_checks_the_pfm_keys_of_disabled_gaps(override, key):
    cfg = config.load_config(config.packaged_config_path("desk"))
    with pytest.raises(ValueError, match=f"^{key} "):
        config.network_config(config.apply_overrides(cfg, ["network.pfm_gaps=", override]))


@pytest.mark.parametrize("num_classes", [1, 0, -1])
def test_config_rejects_fewer_than_two_classes(num_classes):
    with pytest.raises(ValueError, match="^num_classes "):
        tiny_cfg(num_classes=num_classes)


@pytest.mark.parametrize(
    "field,value",
    [
        pytest.param("fpn_channels", 0, id="fpn_channels-0"),
        pytest.param("backbone_channels", (4, 0, 8, 12), id="backbone_channels-0"),
        pytest.param("backbone_channels", (4, 6, -1, 12), id="backbone_channels-negative"),
        pytest.param("ppm_bins", (0,), id="ppm_bins-0"),
        pytest.param("ppm_bins", (1, -1), id="ppm_bins-negative"),
    ],
)
def test_config_rejects_widths_and_bins_below_one(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        tiny_cfg(**{field: value})


@pytest.mark.parametrize(
    "field,value",
    [
        pytest.param("pfm_gaps", (3, 3), id="pfm_gaps-3-3"),  # would draw gap 3's parameters twice
        pytest.param("ppm_bins", (2, 2), id="ppm_bins-2-2"),  # two branches sharing ppm.bin2.conv
    ],
)
def test_config_rejects_repeated_gaps_and_bins(field, value):
    with pytest.raises(ValueError, match=f"^{field} entries must be distinct"):
        tiny_cfg(crop_size=64, **{field: value})


def test_config_rejects_an_enabled_gap_without_its_config():
    # every gap, enabled or not, has its config at its place in PYRAMID_GAPS
    for pfm in [(PfmConfig(),) * 2, {3: PfmConfig()}, {gap: PfmConfig() for gap in (3, 4, 5)}]:
        for gaps in [(3, 4, 5), (3,)]:
            with pytest.raises(ValueError, match=r"^pfm must be a tuple of one PfmConfig per gap in \(3, 4, 5\)"):
                NetworkConfig(pfm=pfm, pfm_gaps=gaps)
    NetworkConfig(pfm=(PfmConfig(),) * 3, pfm_gaps=(3,))


def test_backbone_stride_law():
    cfg = NetworkConfig()
    params = init_params(cfg, 0)
    image = Tensor(rand((1, 3, 64, 64), 1).astype(np.float32))
    c2, c3, c4, c5 = backbone_forward(image, params)
    assert c2.shape[2:] == (16, 16)
    assert c3.shape[2:] == (8, 8)
    assert c4.shape[2:] == (4, 4)
    assert c5.shape[2:] == (2, 2)


def test_backbone_zero_image_zero_bias_gives_zero_features():
    cfg = tiny_cfg()
    params = init_params(cfg, 0)
    image = Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32))
    feats = backbone_forward(image, params)
    for f in feats:
        assert np.allclose(f.data, 0.0)


def test_backbone_deterministic_across_runs():
    def run():
        cfg = tiny_cfg()
        params = init_params(cfg, 3)
        image = Tensor(rand((2, 3, 32, 32), 4).astype(np.float32))
        return backbone_forward(image, params)[3].data.tobytes()

    assert run() == run()


def test_init_params_bitwise_deterministic():
    cfg = tiny_cfg()
    a = init_params(cfg, 11)
    b = init_params(cfg, 11)
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].data.tobytes() == b[name].data.tobytes()
    c = init_params(cfg, 12)
    assert any(a[n].data.tobytes() != c[n].data.tobytes() for n in a)


def test_init_params_norm_and_boundary_bias():
    cfg = tiny_cfg()
    params = init_params(cfg, 0)
    for name, t in params.items():
        if name.endswith(".gamma"):
            assert np.all(t.data == 1.0)
        if name.endswith(".beta"):
            assert np.all(t.data == 0.0)
    b = params["pfm.gap3.boundary.conv.bias"].data
    assert np.all(b == -2.0)
    # sigmoid(-2) evaluated independently: 0.11920292202211755
    assert 1.0 / (1.0 + np.exp(2.0)) == pytest.approx(0.11920292202211755, abs=1e-12)


def test_ppm_constant_input_well_formed():
    cfg = tiny_cfg()
    params = init_params(cfg, 5)
    c5 = Tensor(np.full((2, 12, 4, 4), 0.7, dtype=np.float32))
    out = ppm_forward(c5, params, (1,))
    assert out.shape == (2, 8, 4, 4)
    assert np.isfinite(out.data).all()


def test_ppm_output_resolution_matches_input():
    c5 = Tensor(rand((1, 12, 4, 4), 7).astype(np.float32))
    for bins in [(1,), (1, 2), (1, 2, 4)]:
        cfg2 = tiny_cfg(crop_size=128, ppm_bins=bins)  # deepest map 4x4
        params2 = init_params(cfg2, 6)
        out = ppm_forward(c5, params2, bins)
        assert out.shape[2:] == (4, 4)


def test_ppm_bin_too_large():
    cfg = tiny_cfg(crop_size=96, ppm_bins=(1, 2, 3))  # deepest map 3x3 fits bin 3
    params = init_params(cfg, 8)
    with pytest.raises(ValueError, match="^pool output 3x3 exceeds input 2x2"):
        ppm_forward(Tensor(rand((1, 12, 2, 2), 9).astype(np.float32)), params, (1, 2, 3))


def test_ppm_oversized_default_bins_are_dropped():
    cfg = tiny_cfg()  # deepest map is 1x1 at 32x32 input
    assert cfg.effective_ppm_bins() == (1,)
    cfg64 = NetworkConfig(crop_size=64)  # 2x2 deepest map
    assert cfg64.effective_ppm_bins() == (1, 2)


def test_effective_pfm_clamps_budget():
    cfg = NetworkConfig(crop_size=64)  # paper budgets: salient grid 14x14, k=128
    eff5 = cfg.effective_pfm(5)
    assert eff5.salient_k == 2
    assert eff5.boundary_k == 4
    eff3 = cfg.effective_pfm(3)
    assert eff3.salient_k == 8
    assert eff3.boundary_k == 64
    # configured values are untouched
    assert cfg.pfm[2].salient_k == 14  # gap 5
    assert cfg.pfm[2].boundary_k == 128


def test_plain_fpn_baseline_shapes():
    cfg = tiny_cfg(pfm_gaps=(), use_ppm=False)
    params = init_params(cfg, 10)
    image = Tensor(rand((2, 3, 32, 32), 11).astype(np.float32))
    out = pfnet_forward(image, params, cfg)
    assert out.logits.shape == (2, 4, 8, 8)  # quarter resolution
    assert out.pfm_outputs == {}


@pytest.mark.parametrize("side", [32, 128])
def test_forward_rejects_an_input_side_other_than_crop_size(monkeypatch, side):
    # the point budgets are clamped to the crop_size grids, so any other
    # input side is rejected before the backbone runs
    cfg = tiny_cfg(crop_size=64)
    params = init_params(cfg, 16)
    monkeypatch.setattr(network, "backbone_forward", lambda *args: pytest.fail("the backbone ran"))
    with pytest.raises(ValueError, match=f"^input size {side}x{side} is not crop_size 64$"):
        pfnet_forward(Tensor(rand((1, 3, side, side), 17).astype(np.float32)), params, cfg)


def test_forward_rejects_an_image_dtype_other_than_the_parameters(monkeypatch):
    # a float64 image on float32 parameters would run the whole forward in
    # float64, and the reverse in float32
    cfg = tiny_cfg()
    params = init_params(cfg, 16)
    image = rand((2, 3, 32, 32), 17)
    monkeypatch.setattr(network, "backbone_forward", lambda *args: pytest.fail("the backbone ran"))
    with pytest.raises(ValueError, match="^image dtype float64 is not the parameters' dtype float32$"):
        pfnet_forward(Tensor(image), params, cfg)
    with pytest.raises(ValueError, match="^image dtype float32 is not the parameters' dtype float64$"):
        pfnet_forward(Tensor(image.astype(np.float32)), float64_params(params), cfg)


def test_forward_rejects_a_batch_too_small_for_channel_norm():
    # a 32 px crop has a 1x1 level-5 map, so channel_norm needs 2 items
    cfg = tiny_cfg()
    params = init_params(cfg, 16)
    image = rand((2, 3, 32, 32), 17).astype(np.float32)
    with pytest.raises(ValueError, match="^batch size 1 at crop_size 32 leaves channel_norm fewer than 2 values"):
        pfnet_forward(Tensor(image[:1]), params, cfg)
    assert pfnet_forward(Tensor(image), params, cfg).logits.shape == (2, 4, 8, 8)
    cfg64 = tiny_cfg(crop_size=64)  # a 2x2 level-5 map takes one item
    image64 = rand((1, 3, 64, 64), 18).astype(np.float32)
    assert pfnet_forward(Tensor(image64), init_params(cfg64, 16), cfg64).logits.shape == (1, 4, 16, 16)


def test_all_gaps_give_three_boundary_maps_at_right_strides():
    cfg = tiny_cfg()
    params = init_params(cfg, 12)
    image = Tensor(rand((2, 3, 32, 32), 13).astype(np.float32))
    out = pfnet_forward(image, params, cfg)
    assert sorted(out.pfm_outputs) == [3, 4, 5]
    assert out.pfm_outputs[3].boundary.shape[2:] == (4, 4)   # stride 8
    assert out.pfm_outputs[4].boundary.shape[2:] == (2, 2)   # stride 16
    assert out.pfm_outputs[5].boundary.shape[2:] == (1, 1)   # stride 32


def test_disabled_pfms_match_plain_path_exactly():
    cfg_a = tiny_cfg(pfm_gaps=(), use_ppm=False)
    cfg_b = tiny_cfg(pfm_gaps=(), use_ppm=False)
    image_data = rand((2, 3, 32, 32), 14).astype(np.float32)
    pa = init_params(cfg_a, 15)
    pb = init_params(cfg_b, 15)
    out_a = pfnet_forward(Tensor(image_data), pa, cfg_a)
    out_b = pfnet_forward(Tensor(image_data.copy()), pb, cfg_b)
    assert out_a.logits.data.tobytes() == out_b.logits.data.tobytes()


def test_forward_finite_across_seeds():
    cfg = tiny_cfg()
    for seed in range(100):
        params = init_params(cfg, seed)
        image = Tensor(rand((2, 3, 32, 32), seed + 1000).astype(np.float32))
        out = pfnet_forward(image, params, cfg)
        assert np.isfinite(out.logits.data).all()


def test_every_parameter_receives_gradient():
    cfg = tiny_cfg()
    params = init_params(cfg, 16)
    image = Tensor(rand((2, 3, 32, 32), 17).astype(np.float32))
    mask = np.random.Generator(np.random.PCG64(18)).integers(0, 4, (2, 8, 8))
    with Tape() as tape:
        out = pfnet_forward(image, params, cfg)
        loss = ce_loss(out.logits, mask)
        for gap in sorted(out.pfm_outputs):
            boundary = out.pfm_outputs[gap].boundary
            target = np.zeros(boundary.shape)
            target[..., 0, 0] = 1.0
            loss = add(loss, bce_loss(boundary, target))
    reverse_accumulate(tape, loss)
    for name, t in params.items():
        assert t.grad is not None, f"{name} missing gradient"
        assert np.any(t.grad != 0.0), f"{name} gradient identically zero"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_end_to_end_ce_gradient_matches_finite_differences(seed):
    cfg = tiny_cfg()
    params = float64_params(init_params(cfg, seed + 20))
    image_data = rand((2, 3, 32, 32), seed + 21)
    mask = np.random.Generator(np.random.PCG64(seed + 22)).integers(0, 4, (2, 8, 8))
    image = Tensor(image_data)

    def build():
        out = pfnet_forward(image, params, cfg)
        return ce_loss(out.logits, mask)

    leaves = [params["backbone.stage1.conv1.weight"], params["head.conv.weight"]]
    assert check_gradients(build, leaves, max_probes=24) < DEFAULT_TOL


def desk_cfg():
    return config.network_config(config.load_config(config.packaged_config_path("desk")))


def test_second_tape_free_desk_forward_reuses_the_workspace():
    # a held-out desk scene's nine crops, scored twice
    net_cfg = desk_cfg()
    params = init_params(net_cfg, 0)
    image = Tensor(rand((9, 3) + net_cfg.level_size(0), 11).astype(np.float32))
    with Tape():  # drops any workspace left by an earlier test
        pass
    first = pfnet_forward(image, params, net_cfg).logits.data
    ws = tensor._state.workspace
    nbytes = ws.nbytes
    second = pfnet_forward(image, params, net_cfg).logits.data
    assert tensor._state.workspace is ws and ws.nbytes == nbytes
    assert nbytes <= 3 * 2**20  # 2.7 MiB, for the level-2 head conv
    assert first.tobytes() == second.tobytes() and not np.shares_memory(first, second)


def test_head_matches_concat_formulation_on_desk(monkeypatch):
    net_cfg = desk_cfg()
    params = init_params(net_cfg, 0)
    levels = {}

    def recording_conv2d(x, p):
        if p.bias is params["head.conv.bias"]:
            levels[2] = x
        return ops.conv2d(x, p)

    def recording_resize_conv3x3(x, weight, out_hw):
        levels[len(levels) + 2] = x  # called for levels 3, 4, 5 after level 2
        return ops.resize_conv3x3(x, weight, out_hw)

    monkeypatch.setattr(network, "conv2d", recording_conv2d)
    monkeypatch.setattr(network, "resize_conv3x3", recording_resize_conv3x3)
    image = Tensor(rand((2, 3) + net_cfg.level_size(0), 5).astype(np.float32))
    logits = pfnet_forward(image, params, net_cfg).logits.data
    assert sorted(levels) == [2, 3, 4, 5]
    assert [levels[l].shape[2:] for l in (2, 3, 4, 5)] == [net_cfg.level_size(l) for l in (2, 3, 4, 5)]
    # the paper's head: resize every level to 1/4 scale, concat, one conv
    quarter = net_cfg.level_size(2)
    fused = concat_channels([ops.bilinear_resize(levels[l], quarter) for l in (2, 3, 4, 5)])
    head = ops.conv2d(fused, params.conv("head.conv", padding=1))
    head = relu(ops.channel_norm(head, params["head.norm.gamma"], params["head.norm.beta"]))
    ref = ops.conv2d(head, params.conv("head.classifier")).data
    assert np.abs(logits - ref).max() / np.abs(ref).max() <= 1e-5


def test_forward_tape_keeps_no_quarter_grid_concat():
    net_cfg = desk_cfg()
    params = init_params(net_cfg, 0)
    n, c = 4, net_cfg.fpn_channels
    qh, qw = net_cfg.level_size(2)
    image = Tensor(rand((n, 3) + net_cfg.level_size(0), 6).astype(np.float32))
    with Tape() as tape:
        pfnet_forward(image, params, net_cfg)
    # no closure keeps an array with the 4C channels of the resized levels
    # at the quarter grid (the concat, or a padded copy of it)
    for _, backward in tape.entries:
        for a in held_arrays(backward):
            assert not (4 * c in a.shape and a.size >= n * 4 * c * qh * qw), (backward.__qualname__, a.shape)


def test_training_tape_closures_hold_no_tensor():
    # backward closures keep gradient slots and arrays, never a Tensor (or
    # the ConvParams that holds two), so values no adjoint reads are freed
    net_cfg = desk_cfg()
    params = init_params(net_cfg, 0)
    image = Tensor(rand((2, 3) + net_cfg.level_size(0), 7).astype(np.float32))
    mask = np.random.Generator(np.random.PCG64(8)).integers(0, net_cfg.num_classes, (2,) + net_cfg.level_size(0))
    with Tape() as tape:
        out = pfnet_forward(image, params, net_cfg)
        loss = ce_loss(ops.bilinear_resize(out.logits, net_cfg.level_size(0)), mask)
        for pfm in out.pfm_outputs.values():
            loss = add(loss, bce_loss(pfm.boundary, np.zeros(pfm.boundary.shape)))
    kinds = set()
    for _, backward in tape.entries:
        kinds.add(backward.__qualname__.split(".")[0])
        for obj in closure_objects(backward):
            assert not isinstance(obj, (Tensor, ops.ConvParams)), (backward.__qualname__, type(obj))
    assert kinds >= {
        "conv2d", "channel_norm", "elementwise_unary", "elementwise_binary", "adaptive_max_pool",
        "adaptive_avg_pool", "box_avg_pool", "bilinear_resize", "resize_conv3x3", "point_sample_batched",
        "scatter_points_batched", "batched_matmul", "softmax_lastdim", "concat_channels", "channel_slice",
        "ce_loss", "bce_loss",
    }


def test_desk_training_tape_holds_under_9_5_mib():
    # a desk training step's forward and loss at batch 8: the arrays all
    # closures keep, each counted once by its owner, hold 8.9 MiB; keeping
    # each conv's padded or channel-major copy of its input held 10.9 MiB
    net_cfg = desk_cfg()
    params = init_params(net_cfg, 0)
    n = 8
    image = Tensor(rand((n, 3) + net_cfg.level_size(0), 9).astype(np.float32))
    mask = np.random.Generator(np.random.PCG64(10)).integers(0, net_cfg.num_classes, (n,) + net_cfg.level_size(0))
    with Tape() as tape:
        out = pfnet_forward(image, params, net_cfg)
        loss = ce_loss(ops.bilinear_resize(out.logits, net_cfg.level_size(0)), mask)
        for pfm in out.pfm_outputs.values():
            loss = add(loss, bce_loss(pfm.boundary, np.zeros(pfm.boundary.shape)))
    owners = {}
    for _, backward in tape.entries:
        owners.update((id(a), a) for a in held_arrays(backward))
    assert sum(a.nbytes for a in owners.values()) <= 9.5 * 2**20


# ---------------------------------------------------------------------------
# activations remade in backward


def paper_cfg():
    cfg = config.load_config(config.packaged_config_path("default"))
    return config.network_config(config.apply_overrides(cfg, ["data.crop_size=256"]))


STEP_CFGS = {"desk": desk_cfg, "paper": paper_cfg}

# Tape entries per backward kind (the first part of the closure's
# __qualname__, as pfbench names kinds) of a batch-8 step, as counted
# before any output was remade; remaking records no entry of its own.
STEP_TAPE_KINDS = {
    "desk": {
        "adaptive_avg_pool": 2, "adaptive_max_pool": 3, "batched_matmul": 12, "bce_loss": 3,
        "bilinear_resize": 7, "box_avg_pool": 2, "ce_loss": 1, "channel_norm": 11, "channel_slice": 4,
        "concat_channels": 4, "conv2d": 26, "elementwise_binary": 24, "elementwise_unary": 20,
        "point_sample_batched": 12, "resize_conv3x3": 3, "scatter_points_batched": 6,
        "softmax_lastdim": 6,
    },
    "paper": {
        "adaptive_avg_pool": 4, "adaptive_max_pool": 3, "batched_matmul": 12, "bce_loss": 3,
        "bilinear_resize": 10, "box_avg_pool": 3, "ce_loss": 1, "channel_norm": 11, "channel_slice": 4,
        "concat_channels": 4, "conv2d": 28, "elementwise_binary": 24, "elementwise_unary": 20,
        "point_sample_batched": 12, "resize_conv3x3": 3, "scatter_points_batched": 6,
        "softmax_lastdim": 6,
    },
}


def training_step_tape(net_cfg, seed):
    """(params, tape, loss) of a batch-8 training step's forward and loss
    on random crops, whose input is remade from the crops as in
    ``train_step``; the forward's tensors are dropped."""
    params = init_params(net_cfg, 0)
    n, size = 8, net_cfg.level_size(0)
    crops = list(rand((n, 3) + size, seed).astype(np.float32))
    mask = np.random.Generator(np.random.PCG64(seed + 1)).integers(0, net_cfg.num_classes, (n,) + size)
    with Tape() as tape:
        out = pfnet_forward(learn._batch_input(crops), params, net_cfg)
        loss = ce_loss(ops.bilinear_resize(out.logits, size), mask)
        for pfm in out.pfm_outputs.values():
            loss = add(loss, bce_loss(pfm.boundary, np.zeros(pfm.boundary.shape)))
    return params, tape, loss


def record_outputs(monkeypatch, keep):
    """Slot id -> ``keep(out.data)`` of every output a tape records."""
    seen = {}
    record = Tape.record

    def recording(tape, out, inputs, backward):
        seen[id(out.slot)] = keep(out.data)
        return record(tape, out, inputs, backward)

    monkeypatch.setattr(Tape, "record", recording)
    return seen


@pytest.mark.parametrize("scale,remade", [("desk", 37), ("paper", 39)])
def test_step_tape_frees_remade_activations(monkeypatch, scale, remade):
    # every norm, 1x1 conv and relu-of-those output is remade, and no
    # closure keeps its array
    refs = record_outputs(monkeypatch, weakref.ref)
    _, tape, _ = training_step_tape(STEP_CFGS[scale](), 30)
    gc.collect()
    slots = [slot for slot, _ in tape.entries if slot.remake is not None]
    assert len(slots) == remade
    assert all(refs[id(slot)]() is None for slot in slots)


def test_remade_arrays_match_the_forward(monkeypatch):
    arrays = record_outputs(monkeypatch, np.copy)
    _, tape, _ = training_step_tape(desk_cfg(), 33)
    slots = [slot for slot, _ in tape.entries if slot.remake is not None]
    assert len(slots) == 37
    for slot in slots:
        want, got = arrays[id(slot)], slot.remake()
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_step_tape_entries_per_kind_unchanged_by_remaking(scale):
    _, tape, _ = training_step_tape(STEP_CFGS[scale](), 32)
    assert Counter(backward.__qualname__.split(".")[0] for _, backward in tape.entries) == STEP_TAPE_KINDS[scale]


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_step_gradients_equal_with_activations_kept(monkeypatch, scale):
    net_cfg = STEP_CFGS[scale]()

    def leaf_grads():
        params, tape, loss = training_step_tape(net_cfg, 31)
        reverse_accumulate(tape, loss)
        return {name: t.grad for name, t in params.items()}

    remade = leaf_grads()
    # the kept run keeps every array its closures read, the input image too
    for module in (tensor, ops):
        monkeypatch.setattr(module, "_kept", lambda x: lambda data=x.data: data)
    kept = leaf_grads()
    for name, g in remade.items():
        assert g.dtype == kept[name].dtype and g.tobytes() == kept[name].tobytes(), name
