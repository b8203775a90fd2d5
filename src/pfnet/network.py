"""Network assembly: toy stride-32 backbone, pooled-context head,
channel-aligned pyramid decoder with point-flow modules at three gaps,
and a quarter-resolution fused prediction head.

Pyramid levels follow the stride contract: level l has spatial size
input / 2^l for l = 2..5.  Gap l denotes the decoder step between level l
(coarse) and level l-1 (fine); its saliency/boundary maps live on the
level-l grid (strides 8/16/32 for gaps 3/4/5).

Paper-scale defaults (14x14 salient grid, 128 boundary points, pooled
bins up to 6) exceed the tiny grids of a desk-scale input, so the
assembly clamps each gap's point budget to its grid and drops pooled bins
larger than the deepest map.  The configured values are preserved; only
the effective values shrink.

The fused head is the paper's one 3x3 conv (``head.conv``) over the
channel concat of levels 2-5 resized to 1/4 scale, computed as the sum
of that conv over each level's slice of input channels: a plain conv on
level 2, and ``resize_conv3x3`` on levels 3-5, which mixes channels on
the level's own coarse grid and folds the upsampling into the taps.
Neither the resized maps nor the concat are formed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as tt
from .ops import ConvParams, adaptive_avg_pool, bilinear_resize, channel_norm, conv2d, resize_conv3x3
from .pointflow import PfmConfig, pfm_forward
from .tensor import Tensor


# The decoder steps that may carry a point-flow module, by coarse level.
PYRAMID_GAPS = (3, 4, 5)


@dataclass(frozen=True)
class NetworkConfig:
    """``crop_size`` (the square input side), ``num_classes`` and the
    ``[network]`` keys at ``default.cfg``'s values; ``pfm`` is a tuple of one
    PfmConfig per gap, in ``PYRAMID_GAPS`` order, enabled or not."""

    crop_size: int = 896
    num_classes: int = 6
    fpn_channels: int = 64
    backbone_channels: tuple = (16, 32, 64, 128)
    ppm_bins: tuple = (1, 2, 3, 6)
    use_ppm: bool = True
    pfm_gaps: tuple = PYRAMID_GAPS
    pfm: tuple = (PfmConfig(),) * len(PYRAMID_GAPS)

    def __post_init__(self):
        if self.crop_size < 32 or self.crop_size % 32:
            raise ValueError(f"crop_size must be a positive multiple of 32, got {self.crop_size}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if len(self.backbone_channels) != 4:
            raise ValueError(f"backbone_channels must have 4 stage widths, got {self.backbone_channels}")
        if self.fpn_channels < 1:
            raise ValueError(f"fpn_channels must be >= 1, got {self.fpn_channels}")
        for name in ("backbone_channels", "ppm_bins"):
            if any(v < 1 for v in getattr(self, name)):
                raise ValueError(f"{name} entries must be >= 1, got {getattr(self, name)}")
        for name in ("ppm_bins", "pfm_gaps"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ValueError(f"{name} entries must be distinct, got {getattr(self, name)}")
        for gap in self.pfm_gaps:
            if gap not in PYRAMID_GAPS:
                raise ValueError(f"pfm_gaps entries must be in {PYRAMID_GAPS}, got {self.pfm_gaps}")
        if not isinstance(self.pfm, tuple) or len(self.pfm) != len(PYRAMID_GAPS):
            raise ValueError(f"pfm must be a tuple of one PfmConfig per gap in {PYRAMID_GAPS}, got {self.pfm!r}")

    def level_size(self, level):
        return (self.crop_size // 2**level,) * 2

    def effective_pfm(self, gap):
        """Gap config with the point budget clamped to the gap's grid."""
        base = self.pfm[PYRAMID_GAPS.index(gap)]
        h, w = self.level_size(gap)
        return replace(base, salient_k=min(base.salient_k, h), boundary_k=min(base.boundary_k, h * w))

    def effective_ppm_bins(self):
        h, w = self.level_size(5)
        return tuple(b for b in self.ppm_bins if b <= min(h, w))


class ParameterSet(dict):
    """Named map from parameter path to tensor; every path unique."""

    def conv(self, name, stride=1, padding=0):
        return ConvParams(self[f"{name}.weight"], self[f"{name}.bias"], stride, padding)


def _level_channels(cfg):
    return {l: cfg.backbone_channels[l - 2] for l in (2, 3, 4, 5)}


def init_params(cfg, seed):
    """Deterministic float32 parameter creation from a seeded uniform scheme.

    Conv weights are uniform with bound sqrt(6 / fan_in); norm affine terms
    start at identity.  The boundary-prediction bias starts at -2 so the
    early boundary probability sits near 0.12 and the edge loss does not
    swamp training.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    params = ParameterSet()

    def conv(name, cout, cin, k, bias_fill=0.0):
        bound = np.sqrt(6.0 / (cin * k * k))
        params[f"{name}.weight"] = Tensor(
            rng.uniform(-bound, bound, (cout, cin, k, k)).astype(np.float32), requires_grad=True
        )
        params[f"{name}.bias"] = Tensor(
            np.full(cout, bias_fill, dtype=np.float32), requires_grad=True
        )

    def norm(name, c):
        params[f"{name}.gamma"] = Tensor(np.ones(c, dtype=np.float32), requires_grad=True)
        params[f"{name}.beta"] = Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)

    bc = cfg.backbone_channels
    c = cfg.fpn_channels
    conv("backbone.stem.conv", bc[0], 3, 3)
    norm("backbone.stem.norm", bc[0])
    prev = bc[0]
    for i, ch in enumerate(bc, start=1):
        conv(f"backbone.stage{i}.conv1", ch, prev, 3)
        norm(f"backbone.stage{i}.norm1", ch)
        conv(f"backbone.stage{i}.conv2", ch, ch, 3)
        norm(f"backbone.stage{i}.norm2", ch)
        prev = ch

    levels = _level_channels(cfg)
    lateral_levels = (2, 3, 4) if cfg.use_ppm else (2, 3, 4, 5)
    for l in lateral_levels:
        conv(f"lateral{l}.conv1", c, levels[l], 1)
        conv(f"lateral{l}.conv2", c, c, 1)

    if cfg.use_ppm:
        bins = cfg.effective_ppm_bins()
        for b in bins:
            conv(f"ppm.bin{b}.conv", c, levels[5], 1)
        conv("ppm.out.conv", c, levels[5] + len(bins) * c, 3)
        norm("ppm.out.norm", c)

    for gap in sorted(cfg.pfm_gaps):
        conv(f"pfm.gap{gap}.saliency.conv", 1, 2 * c, 3)
        conv(f"pfm.gap{gap}.boundary.conv", 1, c, 1, bias_fill=-2.0)

    conv("head.conv", c, 4 * c, 3)
    norm("head.norm", c)
    conv("head.classifier", cfg.num_classes, c, 1)
    return params


def _stage(x, params, name, stride):
    out = conv2d(x, params.conv(f"{name}.conv1", stride=stride, padding=1))
    out = tt.relu(channel_norm(out, params[f"{name}.norm1.gamma"], params[f"{name}.norm1.beta"]))
    out = conv2d(out, params.conv(f"{name}.conv2", stride=1, padding=1))
    return tt.relu(channel_norm(out, params[f"{name}.norm2.gamma"], params[f"{name}.norm2.beta"]))


def backbone_forward(image, params):
    """Bottom-up encoder: stem /2, then four stages to strides 4/8/16/32."""
    x = conv2d(image, params.conv("backbone.stem.conv", stride=2, padding=1))
    x = tt.relu(channel_norm(x, params["backbone.stem.norm.gamma"], params["backbone.stem.norm.beta"]))
    feats = []
    for i in range(1, 5):
        x = _stage(x, params, f"backbone.stage{i}", stride=2)
        feats.append(x)
    return tuple(feats)  # levels 2..5


def _lateral(x, params, level):
    out = conv2d(x, params.conv(f"lateral{level}.conv1"))
    return conv2d(tt.relu(out), params.conv(f"lateral{level}.conv2"))


def ppm_forward(c5, params, bins):
    """Pooled multi-bin context head at the deepest level's resolution."""
    h, w = c5.shape[2:]
    branches = [c5]
    for b in bins:
        pooled = adaptive_avg_pool(c5, (b, b))
        pooled = conv2d(pooled, params.conv(f"ppm.bin{b}.conv"))
        branches.append(bilinear_resize(pooled, (h, w)))
    out = conv2d(tt.concat_channels(branches), params.conv("ppm.out.conv", padding=1))
    return tt.relu(channel_norm(out, params["ppm.out.norm.gamma"], params["ppm.out.norm.beta"]))


@dataclass
class NetOutput:
    logits: Tensor                 # [N, num_classes, H/4, W/4]
    pfm_outputs: dict              # gap -> PfmOutput, boundary map included


def pfnet_forward(image, params, cfg):
    """Full forward pass to quarter-resolution class logits.

    The input side must be ``cfg.crop_size``, whose grids set the effective
    point budgets, and the image dtype must be the parameters' dtype.  The
    batch must leave ``channel_norm`` at least 2 values per channel on the
    level-5 map, so a 32 px crop needs a batch of 2.  With no gaps enabled
    and the context head off this is exactly the plain pyramid decoder
    (resize + add at every gap) - the same graph, not an approximation.
    """
    if image.shape[2:] != (cfg.crop_size, cfg.crop_size):
        raise ValueError(f"input size {image.shape[2]}x{image.shape[3]} is not crop_size {cfg.crop_size}")
    dtype = params["head.conv.weight"].dtype
    if image.dtype != dtype:
        raise ValueError(f"image dtype {image.dtype} is not the parameters' dtype {dtype}")
    h5, w5 = cfg.level_size(5)
    if image.shape[0] * h5 * w5 < 2:
        raise ValueError(
            f"batch size {image.shape[0]} at crop_size {cfg.crop_size} leaves channel_norm"
            f" fewer than 2 values per channel on the {h5}x{w5} level-5 map"
        )
    c2, c3, c4, c5 = backbone_forward(image, params)
    by_level = {2: c2, 3: c3, 4: c4, 5: c5}

    p = {}
    if cfg.use_ppm:
        p[5] = ppm_forward(c5, params, cfg.effective_ppm_bins())
    else:
        p[5] = _lateral(c5, params, 5)

    pfm_outputs = {}
    for gap in reversed(PYRAMID_GAPS):
        fine = _lateral(by_level[gap - 1], params, gap - 1)
        refined = None
        if gap in cfg.pfm_gaps:
            saliency_conv = params.conv(f"pfm.gap{gap}.saliency.conv", padding=1)
            boundary_conv = params.conv(f"pfm.gap{gap}.boundary.conv")
            out = pfm_forward(p[gap], fine, cfg.effective_pfm(gap), saliency_conv, boundary_conv)
            pfm_outputs[gap] = out
            if out.refined_coarse is not None:
                p[gap] = out.refined_coarse
            refined = out.refined
        p[gap - 1] = refined if refined is not None else tt.add(fine, bilinear_resize(p[gap], fine.shape[2:]))

    # head.conv over the resized concat of p[2..5], one weight slice per level
    qh, qw = image.shape[2] // 4, image.shape[3] // 4
    c = cfg.fpn_channels
    weight = params["head.conv.weight"]
    head = conv2d(p[2], ConvParams(tt.channel_slice(weight, 0, c), params["head.conv.bias"], padding=1))
    for l in (3, 4, 5):
        head = tt.add(head, resize_conv3x3(p[l], tt.channel_slice(weight, (l - 2) * c, (l - 1) * c), (qh, qw)))
    head = tt.relu(channel_norm(head, params["head.norm.gamma"], params["head.norm.beta"]))
    logits = conv2d(head, params.conv("head.classifier"))
    return NetOutput(logits=logits, pfm_outputs=pfm_outputs)
