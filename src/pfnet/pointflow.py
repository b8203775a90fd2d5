"""Point-flow module: sparse point-affinity propagation between two
adjacent pyramid levels.

A module instance works on a coarse level (stride 2s, high semantics) and
a fine level (stride s, high resolution).  It has two stages:

* a dual point matcher computes a single-channel saliency map from the
  concatenated levels, then selects salient points (adaptive max pooling
  over the saliency map) and boundary points (top-K over a boundary map
  predicted from an edge-sharpened feature);
* dual region propagation reads point features from both levels at the
  selected coarse cells, the fine level through the 2x downsample that
  the saliency map uses too (each cell's 2x2 block mean), forms a
  point-wise affinity (row-softmax of the query/key product) per flow,
  mixes the values through it with a residual query add, and scatters
  the refined rows back into the level the flow refines.

Salient rows are written first and boundary rows second, so a boundary
point wins a cell collision.  Coarse cell (i, j) writes fine cell
(2i + 1, 2j + 1), the one holding its center's floor.  Cells no point maps
to keep the fine level's values bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as tt
from .ops import (
    adaptive_max_pool,
    bilinear_resize,
    box_avg_pool,
    conv2d,
    flat_to_points,
    point_sample_batched,
    scatter_points_batched,
    topk_select,
    _adaptive_edges,
)
from .tensor import Tensor

DIRECTIONS = ("top_down", "bottom_up", "td_then_bu")
EDGE_MODES = ("subtraction", "direct", "addition")
SALIENT_SAMPLING = ("max_pool", "uniform_random", "attention_topk")
# the PfmConfig fields set per gap, in [pfm.gapN]; [pfm] sets the rest for every gap
BUDGET_KEYS = ("salient_k", "boundary_k")

# Most points one item may flow: the [K, K] affinity of 4096 points is
# 64 MiB in float32, and the softmax and backward hold a few more.
_MAX_POINTS = 4096


@dataclass(frozen=True)
class PfmConfig:
    salient_k: int = 14  # side of the square salient grid: k * k points
    boundary_k: int = 128  # 0 disables the boundary flow
    direction: str = "top_down"
    edge_mode: str = "subtraction"
    salient_sampling: str = "max_pool"

    def __post_init__(self):
        for name, lo in (("salient_k", 1), ("boundary_k", 0)):
            if getattr(self, name) < lo:
                raise ValueError(f"{name} must be >= {lo}, got {getattr(self, name)}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if self.edge_mode not in EDGE_MODES:
            raise ValueError(f"edge_mode must be one of {EDGE_MODES}, got {self.edge_mode!r}")
        if self.salient_sampling not in SALIENT_SAMPLING:
            raise ValueError(f"salient_sampling must be one of {SALIENT_SAMPLING}, got {self.salient_sampling!r}")


@dataclass
class PfmOutput:
    refined: Optional[Tensor]          # refined fine level, top-down flows
    boundary: Optional[Tensor]         # boundary map on the coarse grid, in (0, 1)
    salient_points: np.ndarray         # [N, P, 2] normalized coordinates
    boundary_points: np.ndarray        # [N, K, 2]; K may be 0
    refined_coarse: Optional[Tensor] = None  # bottom-up flows only


def compute_saliency(coarse, fine_down, params):
    """Saliency map: sigmoid of a 3x3 conv over concat(coarse, fine_down),
    where ``fine_down`` is the fine level resized to the coarse grid."""
    c = coarse.shape[1]
    if params.weight.shape != (1, 2 * c, 3, 3):
        raise ValueError(f"saliency conv weight must be [1, {2 * c}, 3, 3]")
    stacked = tt.concat_channels([coarse, fine_down])
    return tt.sigmoid(conv2d(stacked, params))


def _uniform_region_points(saliency_data, kernel, seed):
    """One seeded uniform pick per adaptive region of the saliency grid; it
    reads the grid's shape and the batch size, never the saliency values."""
    n = saliency_data.shape[0]
    h, w = saliency_data.shape[2:]
    kh, kw = kernel
    rs, re = np.array(_adaptive_edges(h, kh))
    cs, ce = np.array(_adaptive_edges(w, kw))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    spans = np.stack(np.broadcast_arrays((re - rs)[:, None], (ce - cs)[None, :]), axis=-1)
    # one draw per (item, row region, column region, axis), the row first
    pick = rng.integers(spans, size=(n, kh, kw, 2))
    rows = rs[:, None] + pick[..., 0]
    cols = cs[None, :] + pick[..., 1]
    return (rows * w + cols).reshape(n, kh * kw)


def salient_match(coarse, saliency, cfg):
    """Salient attention and index selection.

    Returns the attention-enhanced coarse feature (pooled saliency is
    upsampled back to the grid before the residual multiply) plus the
    [N, P] flat indices of the selected salient cells.  The sampling
    variants only change the index selection; the enhanced feature always
    comes from the max-pooled attention path.  ``uniform_random`` reads
    only the grid's shape and the batch size, so with its fixed seed 0 it
    is a fixed jittered grid (the same cells every call), not a random draw.
    """
    n, _, h, w = coarse.shape
    k = cfg.salient_k

    pooled, pool_idx = adaptive_max_pool(saliency, (k, k))
    attention = bilinear_resize(pooled, (h, w))
    enhanced = tt.add(tt.mul(coarse, attention), coarse)

    if cfg.salient_sampling == "max_pool":
        flat = pool_idx[:, 0].reshape(n, k * k)
    elif cfg.salient_sampling == "uniform_random":
        flat = _uniform_region_points(saliency.data, (k, k), 0)
    else:  # attention_topk
        flat = topk_select(saliency, k * k)
    return enhanced, flat


def boundary_branch(coarse, saliency, params, cfg):
    """Boundary map prediction and the [N, K] flat indices of its top-K cells.

    ``subtraction`` sharpens the feature by removing its locally smoothed
    saliency-weighted content before the 1x1 prediction conv; ``direct``
    predicts from the raw feature; ``addition`` adds the smoothed content
    instead.  On grids too small for the 3x3 box filter the saliency map
    itself stands in for its smoothed version.
    """
    n, c, h, w = coarse.shape
    if params.weight.shape != (1, c, 1, 1):
        raise ValueError(f"boundary conv weight must be [1, {c}, 1, 1]")
    k = int(cfg.boundary_k)

    if cfg.edge_mode == "direct":
        sharpened = coarse
    else:
        smoothed = box_avg_pool(saliency) if min(h, w) >= 3 else saliency
        weighted = tt.mul(coarse, smoothed)
        if cfg.edge_mode == "subtraction":
            sharpened = tt.sub(coarse, weighted)
        else:
            sharpened = tt.add(coarse, weighted)
    boundary = tt.sigmoid(conv2d(sharpened, params))

    if k == 0:
        return boundary, np.zeros((n, 0), dtype=np.int64)
    return boundary, topk_select(boundary, k)


def point_propagate(src, dst, cells):
    """Affinity-weighted propagation for [N, K] cells -> [N, K, C].

    ``src`` and ``dst`` both lie on the grid the cells index.  Queries and
    the residual come from ``dst``, keys and values from ``src``; each row
    of the query/key dot-product affinity is softmax-normalized, with no
    temperature.
    """
    h, w = dst.shape[2:]
    if src.shape[2:] != (h, w):
        raise ValueError(f"source map {src.shape[2:]} is not on the {h}x{w} grid")
    k = cells.shape[1]
    if k > _MAX_POINTS:
        raise ValueError(f"{k} points on the {h}x{w} grid exceed the {_MAX_POINTS} one item may flow")
    queries = point_sample_batched(dst, cells)
    keys = point_sample_batched(src, cells)
    affinity = tt.batched_matmul(queries, keys, transpose_b=True)
    weights = tt.softmax_lastdim(affinity)
    return tt.add(tt.batched_matmul(weights, keys), queries)


def _flow(value_srcs, queries, dst, cells):
    """Propagate the salient then the boundary flow and scatter into ``dst``.

    ``value_srcs`` holds the (salient, boundary) sources of keys and values,
    ``queries`` the unrefined ``dst`` on the coarse grid that the ``cells``
    index; ``dst`` may be twice that grid.  Empty point sets are skipped.
    """
    h, w = queries.shape[2:]
    refined = dst
    for src, flat in zip(value_srcs, cells):
        if flat.shape[1] > 0:
            rows = point_propagate(src, queries, flat)
            if dst.shape[2] != h:
                i, j = np.divmod(flat, w)
                flat = (2 * i + 1) * (2 * w) + 2 * j + 1
            refined = scatter_points_batched(refined, flat, rows)
    return refined


def pfm_forward(coarse, fine, cfg, saliency_conv, boundary_conv):
    """Full point-flow module over one pyramid gap.

    ``saliency_conv`` is the 3x3 conv (2C -> 1, padding 1) of
    :func:`compute_saliency`; ``boundary_conv`` is the 1x1 conv (C -> 1) of
    :func:`boundary_branch` that predicts the boundary map.

    Top-down (the default) refines the fine level.  Bottom-up swaps the
    roles: both flows take keys and values from the fine level and write
    refined rows into the coarse level, leaving the fine level untouched.
    ``td_then_bu`` applies top-down first, then bottom-up against the
    refined fine level.
    """
    n, c, h, w = coarse.shape
    if fine.shape != (n, c, 2 * h, 2 * w):
        raise ValueError(f"fine level must be 2x the coarse level {coarse.shape}, got {fine.shape}")
    grid = (h, w)
    fine_down = bilinear_resize(fine, grid)
    saliency = compute_saliency(coarse, fine_down, saliency_conv)
    enhanced, s_cells = salient_match(coarse, saliency, cfg)
    boundary, b_cells = boundary_branch(coarse, saliency, boundary_conv, cfg)
    cells = (s_cells, b_cells)
    out = PfmOutput(
        refined=None,
        boundary=boundary,
        salient_points=flat_to_points(s_cells, *grid),
        boundary_points=flat_to_points(b_cells, *grid),
    )
    if cfg.direction != "bottom_up":
        out.refined = _flow((enhanced, coarse), fine_down, fine, cells)
        if cfg.direction == "td_then_bu":
            fine_down = bilinear_resize(out.refined, grid)
    if cfg.direction != "top_down":
        out.refined_coarse = _flow((fine_down, fine_down), coarse, coarse, cells)
    return out
