"""Per-layer tracing for the pfnet benchmark, done entirely from outside
``src/pfnet``.

While a :class:`Tracer` is entered it replaces pfnet's public functions
with timing wrappers, in every pfnet module that binds them, and wraps
each backward callable the tape records so that backward time is kept
per op kind.  ``tracemalloc`` runs for the same span.  Leaving the tracer
restores every original, so the untraced run executes none of this.
"""

from __future__ import annotations

import functools
import math
import statistics
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from pfnet import data, learn, metrics, network, ops, pointflow, tensor

MODULES = (tensor, ops, pointflow, network, learn, data, metrics)

# The foreground-point ratio of training steps is computed by the tracer
# itself, with the original function, so it is not timed as a layer call.
_fg_point_counts = metrics.fg_point_counts

GAPS = (3, 4, 5)

# Backward time is reported per op kind; kinds come from the name of the
# function whose closure the tape recorded.
BWD_KINDS = (
    "conv2d", "channel_norm", "bilinear_resize", "point_sample", "scatter_points",
    "batched_matmul", "softmax", "adaptive_max_pool", "box_avg_pool", "elementwise", "other",
)
_KIND_OF_FUNCTION = {
    "point_sample_batched": "point_sample",
    "scatter_points_batched": "scatter_points",
    "softmax_lastdim": "softmax",
    "elementwise_unary": "elementwise",
    "elementwise_binary": "elementwise",
    "scale": "elementwise",
}

OPS_FNS = (
    "conv2d", "channel_norm", "bilinear_resize", "point_sample_batched",
    "scatter_points_batched", "topk_select", "adaptive_max_pool", "adaptive_avg_pool",
    "box_avg_pool",
)

# (home module, function name, timer key)
_FUNCTIONS = [(ops, fn, f"ops.{fn}") for fn in OPS_FNS] + [
    (network, "backbone_forward", "network.backbone"),
    (network, "ppm_forward", "network.ppm"),
    (learn, "train_step", "learn.step"),
    (learn, "ce_loss", "learn.loss"),
    (learn, "bce_loss", "learn.loss"),
    (learn, "edge_targets_from_mask", "learn.edge_targets"),
    (data, "synth_scene", "data.synth_scene"),
    (data, "sliding_crop", "data.sliding_crop"),
    (data, "augment", "data.augment"),
    (data, "stitch_label_votes", "data.stitch"),
    (metrics, "fg_point_counts", "metrics.fg_point_counts"),
]
_METHODS = [
    (learn.SgdMomentum, "step", "learn.optimizer"),
    (metrics.ConfusionMatrix, "update", "metrics.confusion"),
    (metrics.BoundaryStats, "update", "metrics.boundary"),
]

# Timers whose metric is ms per call, because they run in setup; every
# other timer is reported as ms per loop item (step or scene).
PER_CALL = ("data.synth_scene", "data.sliding_crop")


def layer_metric_units():
    """Name -> unit of every per-layer metric, in output order."""
    units = {
        "tensor.backward_ms": "ms",
        "tensor.tape_entries": "count",
        "tensor.tape_peak_mib": "MiB",
    }
    units.update({f"tensor.bwd_ms.{k}": "ms" for k in BWD_KINDS})
    for fn in OPS_FNS:
        units[f"ops.{fn}.fwd_ms"] = "ms"
        units[f"ops.{fn}.calls"] = "count"
    for name in ("forward_ms", "backbone_ms", "ppm_ms", "decoder_head_ms"):
        units[f"network.{name}"] = "ms"
    for g in GAPS:
        units[f"pointflow.gap{g}.ms"] = "ms"
        units[f"pointflow.gap{g}.points"] = "count"
        units[f"pointflow.gap{g}.unique_cell_ratio"] = "ratio"
    units["pointflow.fg_point_ratio"] = "ratio"
    for name in ("step_ms", "loss_ms", "edge_targets_ms", "optimizer_ms"):
        units[f"learn.{name}"] = "ms"
    for name in ("synth_scene_ms", "sliding_crop_ms", "augment_ms", "stitch_ms"):
        units[f"data.{name}"] = "ms"
    for name in ("confusion_ms", "boundary_ms", "fg_point_counts_ms"):
        units[f"metrics.{name}"] = "ms"
    units["trace.overhead_frac"] = "frac"
    return units


def _kind(backward):
    fn = backward.__qualname__.split(".", 1)[0]
    kind = _KIND_OF_FUNCTION.get(fn, fn)
    return kind if kind in BWD_KINDS else "other"


def _unique_cells(points, h, w):
    """Distinct cells of an h x w grid under [K, 2] points (scatter's rule)."""
    rows = np.clip(np.floor(points[:, 0] * h), 0, h - 1).astype(np.int64)
    cols = np.clip(np.floor(points[:, 1] * w), 0, w - 1).astype(np.int64)
    return np.unique(rows * w + cols).size


class Tracer:
    """Timers and counters per layer, filled while the tracer is entered."""

    def __init__(self):
        self._undo = []
        self._input_h = None
        self._clear()

    def _clear(self):
        self.ms = defaultdict(float)
        self.calls = Counter()
        self.records = Counter()       # tape records per op kind
        self.bwd_ms = defaultdict(float)
        self.tape_entries = 0
        self.points = Counter()        # gap -> points sampled
        self.unique = Counter()        # gap -> unique cells written
        self.fg = [0, 0]               # foreground hits, unique points
        self.peaks = []                # traced MiB per item that recorded a tape
        self.items = 0
        self._pfm = {}                 # gap -> (PFM output, fine grid size) of this item
        self._entries_before = 0
        self._mem_base = 0

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, name, replacement):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _timed(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ms[key] += (perf_counter() - t0) * 1e3
                self.calls[key] += 1

        return wrapper

    def _patch_function(self, home, name, replacement):
        original = getattr(home, name)
        for module in MODULES:
            if getattr(module, name, None) is original:
                self._patch(module, name, replacement)

    def __enter__(self):
        for home, name, key in _FUNCTIONS:
            self._patch_function(home, name, self._timed(getattr(home, name), key))
        for cls, name, key in _METHODS:
            self._patch(cls, name, self._timed(getattr(cls, name), key))
        self._patch_function(network, "pfnet_forward", self._wrap_forward(network.pfnet_forward))
        self._patch_function(pointflow, "pfm_forward", self._wrap_pfm(pointflow.pfm_forward))
        self._patch_function(
            tensor, "reverse_accumulate", self._wrap_backward(tensor.reverse_accumulate)
        )
        self._patch(tensor.Tape, "record", self._wrap_record(tensor.Tape.record))
        tracemalloc.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        tracemalloc.stop()
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        return False

    def _wrap_forward(self, fn):
        timed = self._timed(fn, "network.forward")

        @functools.wraps(fn)
        def wrapper(image, *args, **kwargs):
            self._input_h = image.shape[2]
            return timed(image, *args, **kwargs)

        return wrapper

    def _wrap_pfm(self, fn):
        @functools.wraps(fn)
        def wrapper(coarse, fine, *args, **kwargs):
            gap = round(math.log2(self._input_h / coarse.shape[2]))
            t0 = perf_counter()
            out = fn(coarse, fine, *args, **kwargs)
            self.ms[f"pointflow.gap{gap}"] += (perf_counter() - t0) * 1e3
            self._pfm[gap] = (out, fine.shape[2:])
            return out

        return wrapper

    def _wrap_backward(self, fn):
        timed = self._timed(fn, "tensor.backward")

        @functools.wraps(fn)
        def wrapper(tape, loss):
            self.tape_entries += len(tape.entries)
            return timed(tape, loss)

        return wrapper

    def _wrap_record(self, record):
        @functools.wraps(record)
        def wrapper(tape, out, inputs, backward):
            kind = _kind(backward)
            self.records[kind] += 1

            def timed_backward(g):
                t0 = perf_counter()
                backward(g)
                self.bwd_ms[kind] += (perf_counter() - t0) * 1e3

            return record(tape, out, inputs, timed_backward)

        return wrapper

    # -- per item ---------------------------------------------------------

    def reset(self):
        """Forget everything but the per-call setup timers (end of setup)."""
        kept = {k: (self.ms[k], self.calls[k]) for k in PER_CALL}
        self._clear()
        for k, (ms, calls) in kept.items():
            self.ms[k], self.calls[k] = ms, calls

    def begin_item(self):
        self._pfm = {}
        self._entries_before = self.tape_entries
        tracemalloc.reset_peak()
        self._mem_base = tracemalloc.get_traced_memory()[0]

    def end_item(self, masks):
        """Close one loop item; ``masks`` are the ground truth of its batch."""
        peak = tracemalloc.get_traced_memory()[1] - self._mem_base
        if self.tape_entries > self._entries_before:
            self.peaks.append(peak / 2**20)
        for gap, (out, (h, w)) in self._pfm.items():
            for s_pts, b_pts in zip(out.salient_points, out.boundary_points):
                pts = np.concatenate([s_pts, b_pts])
                self.points[gap] += len(pts)
                self.unique[gap] += _unique_cells(pts, h, w)
        for k, mask in enumerate(masks):
            point_sets = [
                pts
                for out, _ in self._pfm.values()
                for pts in (out.salient_points[k], out.boundary_points[k])
            ]
            hits, unique = _fg_point_counts(point_sets, mask)
            self.fg[0] += hits
            self.fg[1] += unique
        self.items += 1

    # -- results ----------------------------------------------------------

    def layer_metrics(self, overhead_frac):
        n = max(self.items, 1)

        def per_item(key):
            return self.ms[key] / n

        def per_call(key):
            return self.ms[key] / max(self.calls[key], 1)

        m = {
            "tensor.backward_ms": per_item("tensor.backward"),
            "tensor.tape_entries": self.tape_entries / n,
            "tensor.tape_peak_mib": statistics.median(self.peaks) if self.peaks else 0.0,
        }
        for kind in BWD_KINDS:
            m[f"tensor.bwd_ms.{kind}"] = self.bwd_ms[kind] / n
        for fn in OPS_FNS:
            m[f"ops.{fn}.fwd_ms"] = per_item(f"ops.{fn}")
            m[f"ops.{fn}.calls"] = self.calls[f"ops.{fn}"] / n
        gaps_ms = sum(per_item(f"pointflow.gap{g}") for g in GAPS)
        m["network.forward_ms"] = per_item("network.forward")
        m["network.backbone_ms"] = per_item("network.backbone")
        m["network.ppm_ms"] = per_item("network.ppm")
        m["network.decoder_head_ms"] = (
            m["network.forward_ms"] - m["network.backbone_ms"] - m["network.ppm_ms"] - gaps_ms
        )
        for g in GAPS:
            m[f"pointflow.gap{g}.ms"] = per_item(f"pointflow.gap{g}")
            m[f"pointflow.gap{g}.points"] = self.points[g] / n
            m[f"pointflow.gap{g}.unique_cell_ratio"] = self.unique[g] / max(self.points[g], 1)
        m["pointflow.fg_point_ratio"] = self.fg[0] / max(self.fg[1], 1)
        m["learn.step_ms"] = per_item("learn.step")
        m["learn.loss_ms"] = per_item("learn.loss")
        m["learn.edge_targets_ms"] = per_item("learn.edge_targets")
        m["learn.optimizer_ms"] = per_item("learn.optimizer")
        m["data.synth_scene_ms"] = per_call("data.synth_scene")
        m["data.sliding_crop_ms"] = per_call("data.sliding_crop")
        m["data.augment_ms"] = per_item("data.augment")
        m["data.stitch_ms"] = per_item("data.stitch")
        m["metrics.confusion_ms"] = per_item("metrics.confusion")
        m["metrics.boundary_ms"] = per_item("metrics.boundary")
        m["metrics.fg_point_counts_ms"] = per_item("metrics.fg_point_counts")
        m["trace.overhead_frac"] = overhead_frac
        return m
