"""Scene preparation, task forward passes and the training loop.

A scene is prepared once: every view is rendered, lifted to a point cloud
with its per-pixel stub features and pooled into voxels, and the 2D feature
maps are sampled at the voxel centers.  Per-voxel labels come from box
containment of the voxel center (a class one-hot and the foreground count
for the detection scoring head, inside-the-target for the grounding scoring
head and relevance objective).  The set-loss targets are built here too,
once per scene: every object as one row of a (G, 9) box array with its
class, and per instruction the target's row with the relevance labels.

The voxel encoder's input, [pooled features | positional encoding], depends
only on the scene and the model width, so a ``SceneBatch`` computes it on
first use and keeps it for that width (``SceneBatch.encoder_input``).

Each training step builds the fused voxel trunk once, an (N, C) ``Tensor``
in the row order of ``batch.voxels``, runs both task bodies on it and takes
a single optimizer step on the summed objective: detection loss + grounding
loss + the two scoring-head auxiliaries.  The grounding body runs region
attention and query modulation unless ``cfg.disable_rag``/``disable_qim``
switch them off.  Query selection is not differentiable, so the auxiliaries
are what teach the scoring heads.

Ops do not check their outputs (see ``autodiff``), so a step runs its
forward and backward with numpy's floating-point warnings off and checks
twice: ``backward`` refuses a non-finite loss, and ``train`` tests the whole
gradient arena once before the optimizer step.  Either failure, like a
non-finite box extent or cost matrix in the forward, ends training with one
``TrainingDiverged`` line naming the step (for a gradient, also the first
bad parameter).

``training_losses`` is the one forward that records a tape.  Inference is
one untaped pass per scene: ``predict_scene`` builds the trunk once, runs
the detection body once and the grounding body once per instruction under
``no_grad``, and checks every output (detection first), raising
``NonFiniteError`` naming the first non-finite one.  ``forward_detection``,
``forward_grounding`` and the prediction wrappers only read its
``ScenePrediction``, so eval and the heatmap share one pass per scene.
``predict_scene`` keeps a single memo entry: the last batch and store (by
identity), a copy of the config and a bit copy of the parameter arena.  A
call reuses it only when all four match, the arena bit for bit (so ``-0.0``
against ``0.0`` or a changed NaN payload recomputes); any optimizer step or
in-place edit of the parameters or the config therefore recomputes.  One
entry is enough for a scene's several readers and costs one arena copy;
an entry per scene would copy the arena once per held-out scene.  Prepared
batches and memo outputs are read-only arrays, and a ``SceneBatch`` is
frozen with tuple fields, so an in-place write or a replaced field or entry
raises instead of leaving the memo stale.  Boxes stay (K, 9) arrays up to the
prediction wrappers, where ``_scored_boxes`` turns each row into a
``Box9DoF`` for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import NonFiniteError, ParamStore, Tensor, _sigmoid, no_grad
from .boxes import Box9DoF, contains_points
from .evaluate import DetectionResult, GroundingResult, ScoredBox
from .geometry import VoxelFeatureSet, backproject_depth, sample_views, voxelize
from .losses import (
    LossWeights,
    SetTargets,
    focal_loss,
    spatial_relevance_loss,
    total_loss,
    weighted_sum,
)
from .network import (
    ModelConfig,
    decoder_forward,
    embed_text,
    encode_voxels,
    encoder_input,
    fuse_features,
    qim_modulate,
    rag_apply,
    scoring_logits,
    select_queries,
)
from .scenes import Instruction, Scene, StubEmbeddings, render_depth_and_classes

Array = np.ndarray


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, detail: str):
        super().__init__(f"training diverged at step {step}: {detail}")
        self.step = step


@dataclass(frozen=True, eq=False)
class SceneBatch:
    """A prepared scene: frozen, equal and hashed by identity (see the module docstring)."""

    scene: Scene
    voxels: VoxelFeatureSet          # 2D features pooled over each voxel's pixels (constant)
    image_features: Array            # (N, C') view grids sampled at voxel centers (constant)
    det_targets: SetTargets          # every object box and its class (constant)
    class_onehot: Array              # (N, num_classes) one-hot voxel class; background rows zero
    foreground: int                  # voxels inside some object: rows of class_onehot with a 1
    instructions: tuple[Instruction, ...]
    token_vectors: tuple[Array, ...]  # raw stub vectors per instruction
    grd_targets: tuple[SetTargets, ...]  # per instruction: the target box, relevance labels
    _encoder_input: Array | None = field(default=None, init=False, repr=False)

    def encoder_input(self, dim: int) -> Array:
        """``network.encoder_input`` of these voxels for a width-``dim`` model, kept for that width."""
        cached = self._encoder_input
        if cached is None or cached.shape[1] != self.voxels.features.shape[1] + dim:
            cached = _read_only(encoder_input(self.voxels, dim))
            object.__setattr__(self, "_encoder_input", cached)
        return cached

    @property
    def voxel_classes(self) -> Array:
        """(N,) class id of each voxel, -1 for background, read off ``class_onehot``."""
        return np.where(self.class_onehot.any(axis=1), self.class_onehot.argmax(axis=1), -1)


def _read_only(*arrays: Array) -> Array:
    """Mark each array read-only; returns the first."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[0]


def prepare_scene(scene: Scene, instructions: list[Instruction], stub: StubEmbeddings,
                  voxel_size: float, num_classes: int) -> SceneBatch:
    """Render, lift, voxelize and sample one scene; derive all training labels.

    Every object class must lie in ``[0, num_classes)``.
    """
    for i, obj in enumerate(scene.objects):
        if not 0 <= obj.class_id < num_classes:
            raise ValueError(f"object {i} has class {obj.class_id}, outside "
                             f"[0, {num_classes})")
    pts_list = []
    feat_list = []
    views = []
    for v in range(len(scene.cameras)):
        depth, classes = render_depth_and_classes(scene, v)
        fm = stub.view_feature_map(scene, v, depth, classes)
        views.append(fm)
        if not depth.valid.any():
            continue
        cam, pose = scene.cameras[v]
        pts_list.append(backproject_depth(depth, cam, pose))
        feat_list.append(fm.grid[depth.valid])
    if not pts_list:
        raise ValueError("no view returned any depth; scene is empty from every camera")
    voxels = voxelize(np.vstack(pts_list), np.vstack(feat_list), voxel_size)
    image_features, _ = sample_views(voxels.coords, views)

    voxel_classes = np.full(len(voxels), -1, dtype=np.int64)
    for obj in scene.objects:
        voxel_classes[contains_points(obj.box, voxels.coords)] = obj.class_id
    fg = np.nonzero(voxel_classes >= 0)[0]
    class_onehot = np.zeros((len(voxels), num_classes))
    class_onehot[fg, voxel_classes[fg]] = 1.0
    boxes = np.array([o.box.as_params() for o in scene.objects]).reshape(-1, 9)
    det_targets = SetTargets(boxes, [o.class_id for o in scene.objects])
    token_vectors = tuple(stub.token_vectors(ins.tokens) for ins in instructions)
    grd_targets = []
    for ins in instructions:
        inside = contains_points(scene.objects[ins.target].box, voxels.coords)
        grd_targets.append(SetTargets(boxes[[ins.target]], [0], inside.astype(np.float64)))
    # the batch is keyed by identity (encoder-input cache, predict_scene's memo)
    _read_only(voxels.coords, voxels.features.data, image_features, class_onehot, boxes,
               *token_vectors, *(a for t in grd_targets for a in (t.boxes, t.relevance_labels)))
    return SceneBatch(scene=scene, voxels=voxels, image_features=image_features,
                      det_targets=det_targets, class_onehot=class_onehot,
                      foreground=len(fg), instructions=tuple(instructions),
                      token_vectors=token_vectors, grd_targets=tuple(grd_targets))


def fuse_scene(batch: SceneBatch, store: ParamStore, cfg: ModelConfig) -> Tensor:
    """The shared (N, C) trunk: encoded voxels fused with the sampled 2D features."""
    return fuse_features(encode_voxels(batch.encoder_input(cfg.dim), store),
                         batch.image_features, store)


def _detection_body(fused: Tensor, batch: SceneBatch, store: ParamStore, cfg: ModelConfig):
    logits = scoring_logits(fused, store, "detection")
    k = min(cfg.k_det, len(batch.voxels))
    qs = select_queries(fused, batch.voxels.coords, batch.encoder_input(cfg.dim), k, logits)
    out = decoder_forward(fused, None, qs, store, cfg, "detection")
    return out, logits


def _check_instruction(batch: SceneBatch, instruction_idx: int) -> None:
    if not 0 <= instruction_idx < len(batch.instructions):
        raise IndexError(f"instruction {instruction_idx} out of range "
                         f"({len(batch.instructions)} available)")


def _grounding_body(fused: Tensor, batch: SceneBatch, store: ParamStore,
                    cfg: ModelConfig, instruction_idx: int):
    _check_instruction(batch, instruction_idx)
    text = embed_text(batch.token_vectors[instruction_idx], store)
    logits = scoring_logits(fused, store, "grounding")
    k = min(cfg.k_grd, len(batch.voxels))
    qs = select_queries(fused, batch.voxels.coords, batch.encoder_input(cfg.dim), k, logits)
    features, relevance = (fused, None) if cfg.disable_rag else rag_apply(fused, text, store, cfg)
    if not cfg.disable_qim:
        qs = replace(qs, embeddings=qim_modulate(qs.embeddings, text.sentence, store))
    out = decoder_forward(features, text, qs, store, cfg, "grounding")
    out.relevance = relevance
    return out, logits


def _checked(task: str, out, score_logits: Tensor):
    """The forward's outputs, once each of them is known to be finite."""
    relevance = None if out.relevance is None else out.relevance.data
    for name, value in (("logits", out.logits.data), ("boxes", out.boxes),
                        ("relevance", relevance), ("scoring logits", score_logits.data)):
        if value is not None and not np.isfinite(value).all():
            raise NonFiniteError(f"{task} forward: non-finite {name}")
    return out, score_logits


@dataclass(frozen=True)
class ScenePrediction:
    """One untaped inference pass: (DecoderOutput, per-voxel scoring logits) per task."""
    detection: tuple
    grounding: tuple             # one (DecoderOutput, scoring logits) per instruction


# predict_scene's one entry: (batch, store, cfg copy, arena bits, prediction)
_memo: tuple | None = None


def predict_scene(batch: SceneBatch, store: ParamStore, cfg: ModelConfig) -> ScenePrediction:
    """Untaped detection and every instruction's grounding from one trunk; memoised (see module)."""
    global _memo
    memo, bits = _memo, store.data.view(np.uint64)
    if (memo is not None and memo[0] is batch and memo[1] is store and memo[2] == cfg
            and np.array_equal(memo[3], bits)):
        return memo[4]
    with no_grad(), np.errstate(all="ignore"):
        fused = fuse_scene(batch, store, cfg)
        detection = _detection_body(fused, batch, store, cfg)
        grounding = [_grounding_body(fused, batch, store, cfg, i)
                     for i in range(len(batch.instructions))]
    prediction = ScenePrediction(_checked("detection", *detection),
                                 tuple(_checked("grounding", *g) for g in grounding))
    for out, score_logits in (prediction.detection, *prediction.grounding):
        tensors = (out.logits, out.box_pred, score_logits, out.relevance)
        _read_only(out.boxes, *(t.data for t in tensors if t is not None))
    _memo = (batch, store, replace(cfg), bits.copy(), prediction)
    return prediction


def forward_detection(batch: SceneBatch, store: ParamStore, cfg: ModelConfig):
    """Untaped; returns (DecoderOutput, per-voxel scoring logits)."""
    return predict_scene(batch, store, cfg).detection


def forward_grounding(batch: SceneBatch, store: ParamStore, cfg: ModelConfig,
                      instruction_idx: int = 0):
    """Untaped; returns (DecoderOutput with relevance, per-voxel scoring logits)."""
    _check_instruction(batch, instruction_idx)
    return predict_scene(batch, store, cfg).grounding[instruction_idx]


def training_losses(batch: SceneBatch, store: ParamStore, cfg: ModelConfig,
                    weights: LossWeights, instruction_idx: int = 0):
    """Summed objective plus a float breakdown for logging; one trunk for both tasks."""
    fused = fuse_scene(batch, store, cfg)
    det_out, det_score_logits = _detection_body(fused, batch, store, cfg)
    det_total, det_parts = total_loss(det_out, batch.det_targets, weights.lambda_cls, weights)
    grd_out, grd_score_logits = _grounding_body(fused, batch, store, cfg, instruction_idx)
    grd_targets = batch.grd_targets[instruction_idx]
    grd_total, grd_parts = total_loss(grd_out, grd_targets, weights.lambda_ground, weights)

    aux_det = focal_loss(det_score_logits, batch.class_onehot,
                         normalizer=max(1, batch.foreground))
    aux_grd = spatial_relevance_loss(grd_score_logits, grd_targets.relevance_labels)

    loss = weighted_sum((det_total, grd_total, aux_det, aux_grd), (1.0, 1.0, 1.0, 1.0))
    parts = {
        "total": loss.item(),
        "det_total": det_parts.total,
        "det_cls": det_parts.cls,
        "det_box": det_parts.box,
        "grd_total": grd_parts.total,
        "grd_cls": grd_parts.cls,
        "grd_box": grd_parts.box,
        "grd_spatial": grd_parts.spatial,
        "aux_det": aux_det.item(),
        "aux_grd": aux_grd.item(),
    }
    return loss, parts


def train(batches: list[SceneBatch], store: ParamStore, cfg: ModelConfig,
          weights: LossWeights, optimizer, steps: int, log=None) -> list[dict]:
    """Round-robin over scenes; one optimizer step per scene visit.

    A step whose loss or gradient is not finite raises ``TrainingDiverged``
    before the optimizer touches the parameters.
    """
    if not batches:
        raise ValueError("need at least one prepared scene")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    history = []
    for step in range(steps):
        batch = batches[step % len(batches)]
        ins_idx = (step // len(batches)) % max(1, len(batch.instructions))
        try:
            with np.errstate(all="ignore"):
                loss, parts = training_losses(batch, store, cfg, weights, ins_idx)
                loss.backward()
        except NonFiniteError as exc:
            raise TrainingDiverged(step, str(exc)) from exc
        finite = np.isfinite(store.grad)
        if not finite.all():
            name = store.name_at(int(np.argmin(finite)))
            raise TrainingDiverged(step, f"non-finite gradient in parameter {name!r}")
        optimizer.step(store)
        entry = {"step": step, **parts}
        history.append(entry)
        if log is not None:
            log(entry)
    return history


# ---------------------------------------------------------------------------
# Evaluation-ready predictions
# ---------------------------------------------------------------------------


def _scored_boxes(boxes: Array, logits: Array) -> list[ScoredBox]:
    """Each (K, 9) box row scored by the sigmoid of its max logit (a (K, 1) max is the logit)."""
    return [ScoredBox(Box9DoF(*box), s)
            for box, s in zip(boxes.tolist(), _sigmoid(logits.max(axis=1)).tolist())]


def grounding_predictions(batch: SceneBatch, store: ParamStore, cfg: ModelConfig,
                          instruction_idx: int = 0) -> GroundingResult:
    out, _ = forward_grounding(batch, store, cfg, instruction_idx)
    ins = batch.instructions[instruction_idx]
    return GroundingResult(predictions=_scored_boxes(out.boxes, out.logits.data),
                           gt_box=batch.scene.objects[ins.target].box,
                           difficulty=ins.difficulty, view_dep=ins.view_dep)


def detection_predictions(batch: SceneBatch, store: ParamStore,
                          cfg: ModelConfig) -> DetectionResult:
    out, _ = forward_detection(batch, store, cfg)
    logits = out.logits.data
    return DetectionResult(pred_boxes=_scored_boxes(out.boxes, logits),
                           pred_classes=[int(c) for c in logits.argmax(axis=1)],
                           gt_boxes=[o.box for o in batch.scene.objects],
                           gt_classes=[o.class_id for o in batch.scene.objects])
