"""Losses, edge-target derivation, SGD with momentum, and the training loop.

Training minimizes cross-entropy over every pixel of the class mask,
whose labels lie in ``[0, K)``, plus binary cross-entropy on each enabled
gap's boundary map, the latter scaled by ``bce_weight`` (1 by default).
The learning rate follows the poly schedule
``base_lr * (1 - iter / total_iter) ** power`` with power 0.9.

Edge targets come from 4-connected label changes dilated by a Chebyshev
radius, OR-pooled down to each gap's stride.  They are built once per
batch, from the whole ``[N, H, W]`` mask array.  A non-finite loss aborts
immediately with the iteration and the operation that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .data import AUGMENT_OPS, augment
from .metrics import label_boundaries
from .network import PYRAMID_GAPS, ParameterSet, init_params, pfnet_forward
from .ops import _item_spans, bilinear_resize
from .tensor import Tape, Tensor, _accumulate, _maybe_record, reverse_accumulate

EDGE_STRIDES = tuple(2**gap for gap in PYRAMID_GAPS)  # strides of the gaps' coarse grids
_EPS = 1e-7
_POLY_POWER = 0.9
_EDGE_RADIUS = 1  # px, the Chebyshev dilation of the boundary targets


class TrainingAborted(RuntimeError):
    def __init__(self, iteration, detail):
        super().__init__(f"non-finite loss at iteration {iteration}: {detail}")
        self.iteration = iteration


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 16
    base_lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 8
    seed: int = 0
    bce_weight: float = 1.0
    augment: bool = True
    checkpoint_every: int = 0  # iterations; 0 disables periodic checkpoints

    def __post_init__(self):
        for name in ("base_lr", "momentum", "weight_decay", "bce_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        mins = dict(batch_size=1, epochs=1, bce_weight=0, weight_decay=0, checkpoint_every=0)
        for name, lo in mins.items():
            if getattr(self, name) < lo:
                raise ValueError(f"{name} must be >= {lo}, got {getattr(self, name)}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


# ---------------------------------------------------------------------------
# targets


def edge_map(mask, radius):
    """Full-resolution boundary pixels: any 4-neighbor label change,
    dilated by the Chebyshev radius, over the last two axes; leading axes
    are independent masks.

    The dilation ORs each pixel's (2r+1)^2 window, clipped to the map (the
    same result as a max filter in reflect mode), as one pass along rows
    and one along columns, each ORing in the edges shifted by 1..r pixels
    either way."""
    edges = label_boundaries(mask)
    for axis in (-1, -2):
        src, edges = edges, edges.copy()
        src_line, out_line = np.swapaxes(src, axis, -1), np.swapaxes(edges, axis, -1)
        for k in range(1, min(radius, src_line.shape[-1] - 1) + 1):
            out_line[..., k:] |= src_line[..., :-k]
            out_line[..., :-k] |= src_line[..., k:]
    return edges


def edge_targets_from_mask(mask, radius):
    """Binary boundary grids at each gap's stride in ``EDGE_STRIDES``
    (8/16/32), downsampled from :func:`edge_map` by logical-OR pooling over
    the last two axes."""
    edges = edge_map(mask, radius)
    *lead, h, w = edges.shape
    targets = {}
    for s in EDGE_STRIDES:
        if h % s or w % s:
            raise ValueError(f"mask size {h}x{w} not divisible by stride {s}")
        targets[s] = edges.reshape(*lead, h // s, s, w // s, s).max(axis=(-3, -1)).astype(np.float64)
    return targets


# ---------------------------------------------------------------------------
# losses


def bce_loss(pred, target):
    """Mean binary cross-entropy; predictions clamped to [1e-7, 1 - 1e-7]."""
    target = np.asarray(target, dtype=pred.dtype)
    if target.shape != pred.shape:
        raise ValueError(f"prediction {pred.shape} vs target {target.shape}")
    p = np.clip(pred.data, _EPS, 1.0 - _EPS)
    count = p.size
    loss = float(-(target * np.log(p) + (1.0 - target) * np.log1p(-p)).sum() / count)
    out = Tensor(np.asarray(loss, dtype=pred.dtype), _op="bce_loss")
    pred_slot, pred_data = pred.slot, pred.data

    def backward(g):
        inside = (pred_data > _EPS) & (pred_data < 1.0 - _EPS)
        grad = (p - target) / (p * (1.0 - p) * count)
        _accumulate(pred_slot, (g * grad * inside).astype(pred_data.dtype))

    return _maybe_record(out, (pred,), backward)


def ce_loss(logits, mask):
    """Mean cross-entropy over every pixel of an integer mask of class
    labels in ``[0, K)``.

    The log-softmax and its gradient are computed over chunks of batch
    items (``ops._item_spans``), so the exponentials are never held for
    the whole batch at once.  The loss sum stays one sum over the whole
    ``[N, H, W]`` array: numpy sums pairwise, so summing by chunks would
    change its bits.  The tape keeps the mask, which the caller holds
    unchanged until backward, and backward reads the labels from it.
    """
    mask = np.asarray(mask)
    n, k, h, w = logits.shape
    if mask.shape != (n, h, w):
        raise ValueError(f"logits {logits.shape} vs mask {mask.shape}")
    if mask.dtype.kind not in "iu":
        raise ValueError(f"mask dtype {mask.dtype} is not an integer dtype")
    if mask.size == 0:
        raise ValueError("empty mask")
    if mask.min() < 0 or mask.max() >= k:
        raise ValueError("mask label outside class range")
    count = mask.size

    spans = _item_spans(n, k * h * w)
    logp = np.empty_like(logits.data)
    picked = np.empty((n, h, w), dtype=logits.dtype)
    for n0, n1 in spans:
        x, lp = logits.data[n0:n1], logp[n0:n1]
        np.subtract(x, x.max(axis=1, keepdims=True), out=lp)
        lp -= np.log(np.exp(lp).sum(axis=1, keepdims=True))
        picked[n0:n1] = np.take_along_axis(lp, mask[n0:n1, None], axis=1)[:, 0]
    loss = float(-picked.sum() / count)
    out = Tensor(np.asarray(loss, dtype=logits.dtype), _op="ce_loss")
    logits_slot, dtype = logits.slot, logits.dtype

    def backward(g):
        # softmax minus the one-hot labels, built in the softmax buffer
        grad = np.empty_like(logp)
        classes = np.arange(k)[:, None, None]
        for n0, n1 in spans:
            np.exp(logp[n0:n1], out=grad[n0:n1])
            grad[n0:n1] -= mask[n0:n1, None] == classes
        grad /= count
        grad *= g
        _accumulate(logits_slot, grad.astype(dtype, copy=False))

    return _maybe_record(out, (logits,), backward)


def poly_lr(base_lr, iteration, total_iter):
    """The poly schedule's rate at ``iteration`` of ``total_iter``; 0 at the
    end.  An iteration outside ``[0, total_iter]`` would give a rate above
    the base rate or a complex one."""
    if total_iter < 1:
        raise ValueError(f"total_iter must be >= 1, got {total_iter} (iteration {iteration})")
    if not 0 <= iteration <= total_iter:
        raise ValueError(f"iteration {iteration} outside [0, total_iter={total_iter}]")
    return base_lr * (1.0 - iteration / total_iter) ** _POLY_POWER


# ---------------------------------------------------------------------------
# optimizer


class SgdMomentum:
    """SGD with momentum and decoupled-from-nothing weight decay:

    v <- momentum * v + (grad + weight_decay * p);  p <- p - lr * v
    """

    def __init__(self, momentum, weight_decay):
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {}

    def step(self, params, lr):
        new = ParameterSet()
        for name in sorted(params):
            p = params[name]
            t = np.asarray(self.weight_decay * p.data)  # an array for a 0-d p too
            t += p.grad if p.grad is not None else 0.0
            v = self.velocity.get(name)
            if v is None:  # momentum * 0 + t, which turns -0.0 into +0.0
                v = self.velocity[name] = np.add(0.0, t, out=t)
            else:
                v *= self.momentum
                v += t
            delta = np.asarray(lr * v)
            new[name] = Tensor(np.subtract(p.data, delta, out=delta), requires_grad=True)
        return new


# ---------------------------------------------------------------------------
# steps and loop


def _batch_input(crops):
    """The batch's input image as a Tensor whose slot remakes it by stacking
    the crops again: the caller keeps the crops, so the tape need not keep
    the stacked array."""

    def stack():
        return np.stack(crops, dtype=np.float32)

    image = Tensor(stack())
    image.slot.remake = stack
    return image


def _batch_losses(params, batch, masks, net_cfg, train_cfg):
    """Forward pass and the combined loss for one batch of (image, mask)
    crops, whose masks are stacked in ``masks``."""
    out = pfnet_forward(_batch_input([img for img, _ in batch]), params, net_cfg)
    full = bilinear_resize(out.logits, masks.shape[1:])
    ce = ce_loss(full, masks)
    total = ce
    bce_parts = []
    if out.pfm_outputs and train_cfg.bce_weight != 0.0:
        targets = edge_targets_from_mask(masks, _EDGE_RADIUS)
        for gap in sorted(out.pfm_outputs):
            bce_parts.append(bce_loss(out.pfm_outputs[gap].boundary, targets[2**gap][:, None]))
        bce_sum = bce_parts[0]
        for part in bce_parts[1:]:
            bce_sum = tt.add(bce_sum, part)
        total = tt.add(total, tt.scale(bce_sum, train_cfg.bce_weight))
    ce_val = float(ce.data)
    bce_val = float(sum(float(p.data) for p in bce_parts))
    return total, ce_val, bce_val


def train_step(params, optimizer, batch, net_cfg, train_cfg, iteration, total_iter):
    """One optimization step; returns (new params, loss components)."""
    masks = np.stack([m for _, m in batch])
    lr = poly_lr(train_cfg.base_lr, iteration, total_iter)
    try:
        with Tape() as tape:
            total, ce_val, bce_val = _batch_losses(params, batch, masks, net_cfg, train_cfg)
        reverse_accumulate(tape, total)
    except FloatingPointError as exc:
        raise TrainingAborted(iteration, str(exc)) from exc
    new_params = optimizer.step(params, lr)
    return new_params, {"lr": lr, "ce": ce_val, "bce_total": bce_val, "total": float(total.data)}


def train_run(crops, net_cfg, train_cfg, on_log=None, on_checkpoint=None):
    """Full training loop over (image, mask) crops.

    Batch order and augmentation choices are seeded, so a rerun with the
    same inputs reproduces the final parameters byte for byte.
    """
    params = init_params(net_cfg, train_cfg.seed)
    optimizer = SgdMomentum(train_cfg.momentum, train_cfg.weight_decay)
    n = len(crops)
    if n == 0:
        raise ValueError("no training crops")
    batches_per_epoch = (n + train_cfg.batch_size - 1) // train_cfg.batch_size
    total_iter = train_cfg.epochs * batches_per_epoch
    iteration = 0
    for epoch in range(train_cfg.epochs):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([train_cfg.seed, 1000 + epoch]))
        )
        order = rng.permutation(n)
        ops = (
            rng.integers(0, len(AUGMENT_OPS), size=n)
            if train_cfg.augment
            else np.zeros(n, dtype=int)
        )
        for start in range(0, n, train_cfg.batch_size):
            chosen = order[start : start + train_cfg.batch_size]
            batch = []
            for pos, idx in enumerate(chosen):
                img, msk = crops[idx]
                img, msk = augment(img, msk, AUGMENT_OPS[ops[start + pos]])
                batch.append((img, msk))
            params, stats = train_step(
                params, optimizer, batch, net_cfg, train_cfg, iteration, total_iter
            )
            if on_log is not None:
                on_log(iteration, stats)
            iteration += 1
            if (
                on_checkpoint is not None
                and train_cfg.checkpoint_every > 0
                and iteration % train_cfg.checkpoint_every == 0
                and iteration < total_iter
            ):
                on_checkpoint(iteration, params)
    return params
