"""Workload definitions for the pfnet benchmark.

Each workload is a closed loop with one caller: the next item starts when
the last one has ended.  An item is one training step (whose batch holds
``batch_size`` crops) or one scored scene.  Setup synthesizes the scenes
from the workload seed, builds the initial parameters and runs one warm-up
item, so lazy library initialisation is paid before timing starts.

Every call into pfnet goes through a module attribute (``data.augment``,
``learn.train_step``...), never a name bound at import, so that the tracer
in ``tracer.py`` can time each layer by patching those attributes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from pfnet import config, data, learn, metrics, network, ops
from pfnet.tensor import Tensor

# Scenes at a canvas larger than desk scale need more objects to reach the
# 3% foreground window: ``synth_scene`` raises at a 512 px canvas with the
# packaged objects_max of 60 (a known defect, see NOTES.md).  The cap is
# scaled with canvas area from the desk scale (60 objects at 128 px).
_DESK_CANVAS = 128
_DESK_OBJECTS_MAX = 60

# Score scenes are held out: their scene seed differs from the training one.
_HELD_OUT_SEED_OFFSET = 7919


def _objects_max(canvas):
    return _DESK_OBJECTS_MAX * (canvas * canvas) // (_DESK_CANVAS * _DESK_CANVAS)


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class TrainSpec:
    """A training workload: ``train_step`` over crops of synthetic scenes."""

    name: str
    base: str            # packaged config the overrides apply to
    overrides: tuple     # ``section.key=value`` strings
    scenes: int          # scenes synthesized in setup
    episode_steps: int   # steps before training restarts from the initial parameters

    def config(self):
        cfg = config.load_config(config.packaged_config_path(self.base))
        cfg = config.apply_overrides(cfg, self.overrides)
        canvas = cfg["data"]["canvas"]
        return config.apply_overrides(cfg, [f"data.objects_max={_objects_max(canvas)}"])

    def setup(self, seed):
        return TrainRun(self, seed)


@dataclass(frozen=True)
class ScoreSpec:
    """Scoring held-out scenes: tape-free forward over each scene's crops,
    argmax, stitch, confusion, boundary statistics and foreground points."""

    name: str
    base: str
    scenes: int

    def config(self):
        return config.load_config(config.packaged_config_path(self.base))

    def setup(self, seed):
        return ScoreRun(self, seed)


WORKLOADS = {
    spec.name: spec
    for spec in (
        TrainSpec("train_desk64", "desk", (), scenes=8, episode_steps=8),
        TrainSpec(
            "train_paper256",
            "default",
            ("data.canvas=512", "data.crop_size=256", "data.crop_stride=128"),
            scenes=3,
            episode_steps=3,
        ),
        ScoreSpec("score_desk", "desk", scenes=8),
    )
}


class TrainRun:
    """Crops, batch schedule and initial parameters of one training workload.

    Training restarts from the initial parameters every ``episode_steps``
    steps with the same batches, so every episode must reproduce the loss
    sequence of the first one bitwise.  The warm-up step run here is step 0
    of an episode.
    """

    def __init__(self, spec, seed):
        cfg = spec.config()
        self.net_cfg = config.network_config(cfg)
        self.train_cfg = config.train_config(cfg, seed)
        scene_cfg = config.scene_config(cfg, seed)
        size, stride = cfg["data"]["crop_size"], cfg["data"]["crop_stride"]
        self.crops = []
        for index in range(spec.scenes):
            scene = data.synth_scene(scene_cfg, index)
            self.crops += data.sliding_crop(scene.image, scene.mask, size, stride)
        self.steps = spec.episode_steps
        batch = self.items_per_step = self.train_cfg.batch_size
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1000])))
        order = rng.permutation(len(self.crops))[: self.steps * batch]
        if order.size < self.steps * batch:
            raise ValueError(f"{spec.name}: {len(self.crops)} crops cannot fill an episode")
        ops_ = rng.integers(0, len(data.AUGMENT_OPS), size=order.size)
        self.schedule = [
            list(zip(order[s * batch : (s + 1) * batch], ops_[s * batch : (s + 1) * batch]))
            for s in range(self.steps)
        ]
        self.initial = network.init_params(self.net_cfg, seed)
        self.reference = [None] * self.steps
        self.pos = 0
        self.last_masks = None
        self.step()
        self.fingerprint = _digest(
            [c.image for c in self.crops] + [c.mask for c in self.crops]
        ) + repr(self.reference[0])

    def step(self):
        """One training step; returns whether its loss passed the checks."""
        if self.pos == 0:
            self.params = network.ParameterSet(
                {k: Tensor(v.data, requires_grad=True) for k, v in self.initial.items()}
            )
            self.optimizer = learn.SgdMomentum(self.train_cfg.momentum, self.train_cfg.weight_decay)
        pos = self.pos
        self.pos = (pos + 1) % self.steps
        batch = [
            data.augment(self.crops[i].image, self.crops[i].mask, data.AUGMENT_OPS[op])
            for i, op in self.schedule[pos]
        ]
        self.last_masks = [m for _, m in batch]
        try:
            self.params, stats = learn.train_step(
                self.params, self.optimizer, batch, self.net_cfg, self.train_cfg, pos, self.steps
            )
        except learn.TrainingAborted:
            self.pos = 0
            return False
        loss = (stats["total"], stats["ce"], stats["bce_total"])
        if self.reference[pos] is None:
            self.reference[pos] = loss
        return all(math.isfinite(v) for v in loss) and loss == self.reference[pos]

    def output_digest(self):
        return hashlib.sha256(repr(self.reference).encode()).hexdigest()[:16]


class ScoreRun:
    """Held-out scenes and parameters for scoring; each scene's stitched
    prediction must be byte-identical every time it is scored."""

    def __init__(self, spec, seed):
        cfg = spec.config()
        self.net_cfg = config.network_config(cfg)
        scene_cfg = config.scene_config(cfg, seed + _HELD_OUT_SEED_OFFSET)
        self.scenes = [data.synth_scene(scene_cfg, i) for i in range(spec.scenes)]
        self.size, self.stride = cfg["data"]["crop_size"], cfg["data"]["crop_stride"]
        self.num_classes = cfg["data"]["num_classes"]
        self.thresholds = cfg["eval"]["boundary_thresholds"]
        self.params = network.init_params(self.net_cfg, seed)
        self.items_per_step = 1
        self.reference = {}
        self.index = 0
        self.last_masks = None
        self.step()
        self.fingerprint = _digest([s.image for s in self.scenes] + [s.mask for s in self.scenes])
        self.fingerprint += self.reference[0]

    def step(self):
        """Score one scene; returns whether its outputs passed the checks."""
        i = self.index % len(self.scenes)
        self.index += 1
        scene = self.scenes[i]
        crops = data.sliding_crop(scene.image, scene.mask, self.size, self.stride)
        images = np.stack([c.image for c in crops])
        out = network.pfnet_forward(Tensor(images), self.params, self.net_cfg)
        logits = ops.bilinear_resize(out.logits, (self.size, self.size)).data
        labels = logits.argmax(axis=1).astype(np.uint8)
        pred = data.stitch_label_votes(
            [(labels[k], c.top, c.left) for k, c in enumerate(crops)],
            scene.mask.shape,
            self.num_classes,
        )
        cm = metrics.ConfusionMatrix(self.num_classes).update(scene.mask, pred)
        bstats = metrics.BoundaryStats(self.thresholds).update(pred, scene.mask)
        point_counts = [
            metrics.fg_point_counts(
                [pts for pfm in out.pfm_outputs.values() for pts in (pfm.salient_points[k], pfm.boundary_points[k])],
                crop.mask,
            )
            for k, crop in enumerate(crops)
        ]
        self.last_masks = [c.mask for c in crops]
        digest = _digest([pred])
        expected = self.reference.setdefault(i, digest)
        pred_boundary = bstats.counts[self.thresholds[0]][1]
        return (
            cm.total == scene.mask.size
            and pred_boundary > 0
            and digest == expected
            and all(0 < unique and 0 <= hits <= unique for hits, unique in point_counts)
        )

    def output_digest(self):
        return hashlib.sha256(repr(sorted(self.reference.items())).encode()).hexdigest()[:16]
