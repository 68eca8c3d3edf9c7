"""Scene preparation, task forward passes and the training loop.

A scene is prepared once: every view is rendered, lifted to a point cloud
with its per-pixel stub features and pooled into voxels, and the 2D feature
maps are sampled at the voxel centers.  Per-voxel labels come from box
containment of the voxel center (class id for the detection scoring head,
inside-the-target for the grounding scoring head and relevance objective).
The set-loss targets are built here too, once per scene: every object as
one row of a (G, 9) box array with its class, and per instruction the
target's row with the relevance labels.

Each training step builds the fused voxel trunk once, an (N, C) ``Tensor``
in the row order of ``batch.voxels``, runs both task bodies on it and takes
a single optimizer step on the summed objective: detection loss + grounding
loss + the two scoring-head auxiliaries.  Query selection is not
differentiable, so the auxiliaries are what teach the scoring heads.  A
non-finite loss aborts with the step number.

``training_losses`` is the one forward that records a tape.  The inference
forwards (``forward_detection``, ``forward_grounding`` and the prediction
wrappers built on them) run their body under ``no_grad`` themselves.  Boxes
stay (K, 9) arrays up to the prediction wrappers, where ``_scored_boxes``
turns each row into a ``Box9DoF`` for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import NonFiniteError, ParamStore, Tensor, _sigmoid, no_grad
from .boxes import Box9DoF, contains_points
from .evaluate import DetectionResult, GroundingResult, ScoredBox
from .geometry import (
    VoxelFeatureSet,
    backproject_depth,
    encode_voxels,
    fuse_features,
    sample_views,
    voxelize,
)
from .losses import (
    LossWeights,
    SetTargets,
    focal_loss,
    spatial_relevance_loss,
    total_loss,
)
from .network import (
    ModelConfig,
    decoder_forward,
    embed_text,
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


@dataclass
class SceneBatch:
    scene: Scene
    voxels: VoxelFeatureSet          # 2D features pooled over each voxel's pixels (constant)
    image_features: Array            # (N, C') view grids sampled at voxel centers (constant)
    det_targets: SetTargets          # every object box and its class (constant)
    voxel_classes: Array             # (N,) int, -1 for background
    instructions: list[Instruction]
    token_vectors: list[Array]       # raw stub vectors per instruction
    grd_targets: list[SetTargets]    # per instruction: the target box, relevance labels


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
    boxes = np.array([o.box.as_params() for o in scene.objects]).reshape(-1, 9)
    det_targets = SetTargets(boxes, [o.class_id for o in scene.objects])
    token_vectors = [stub.token_vectors(ins.tokens) for ins in instructions]
    grd_targets = []
    for ins in instructions:
        inside = contains_points(scene.objects[ins.target].box, voxels.coords)
        grd_targets.append(SetTargets(boxes[[ins.target]], [0], inside.astype(np.float64)))
    return SceneBatch(scene=scene, voxels=voxels, image_features=image_features,
                      det_targets=det_targets, voxel_classes=voxel_classes,
                      instructions=instructions, token_vectors=token_vectors,
                      grd_targets=grd_targets)


def fuse_scene(batch: SceneBatch, store: ParamStore) -> Tensor:
    """The shared (N, C) trunk: encoded voxels fused with the sampled 2D features."""
    return fuse_features(encode_voxels(batch.voxels, store), batch.image_features, store)


def _detection_body(fused: Tensor, batch: SceneBatch, store: ParamStore, cfg: ModelConfig):
    logits = scoring_logits(fused, store, "detection")
    k = min(cfg.k_det, len(batch.voxels))
    qs = select_queries(fused, batch.voxels.coords, k, logits, cfg)
    out = decoder_forward(fused, None, qs, store, cfg, "detection")
    return out, logits


def _grounding_body(fused: Tensor, batch: SceneBatch, store: ParamStore,
                    cfg: ModelConfig, instruction_idx: int, use_rag: bool,
                    use_qim: bool):
    if not 0 <= instruction_idx < len(batch.instructions):
        raise IndexError(f"instruction {instruction_idx} out of range "
                         f"({len(batch.instructions)} available)")
    text = embed_text(batch.token_vectors[instruction_idx], store)
    logits = scoring_logits(fused, store, "grounding")
    k = min(cfg.k_grd, len(batch.voxels))
    qs = select_queries(fused, batch.voxels.coords, k, logits, cfg)
    features, relevance = rag_apply(fused, text, store, cfg) if use_rag else (fused, None)
    if use_qim:
        qs = replace(qs, embeddings=qim_modulate(qs.embeddings, text.sentence, store))
    out = decoder_forward(features, text, qs, store, cfg, "grounding")
    out.relevance = relevance
    return out, logits


def forward_detection(batch: SceneBatch, store: ParamStore, cfg: ModelConfig):
    """Untaped; returns (DecoderOutput, per-voxel scoring logits)."""
    with no_grad():
        return _detection_body(fuse_scene(batch, store), batch, store, cfg)


def forward_grounding(batch: SceneBatch, store: ParamStore, cfg: ModelConfig,
                      instruction_idx: int = 0, use_rag: bool = True,
                      use_qim: bool = True):
    """Untaped; returns (DecoderOutput with relevance, per-voxel scoring logits)."""
    with no_grad():
        return _grounding_body(fuse_scene(batch, store), batch, store, cfg,
                               instruction_idx, use_rag, use_qim)


def training_losses(batch: SceneBatch, store: ParamStore, cfg: ModelConfig,
                    weights: LossWeights, instruction_idx: int = 0,
                    use_rag: bool = True, use_qim: bool = True):
    """Summed objective plus a float breakdown for logging; one trunk for both tasks."""
    fused = fuse_scene(batch, store)
    det_out, det_score_logits = _detection_body(fused, batch, store, cfg)
    det_total, det_parts = total_loss(det_out, batch.det_targets, weights.lambda_cls, weights)
    grd_out, grd_score_logits = _grounding_body(fused, batch, store, cfg, instruction_idx,
                                                use_rag, use_qim)
    grd_targets = batch.grd_targets[instruction_idx]
    grd_total, grd_parts = total_loss(grd_out, grd_targets, weights.lambda_ground, weights)

    n = len(batch.voxels)
    onehot = np.zeros((n, cfg.num_classes))
    fg = batch.voxel_classes >= 0
    onehot[np.nonzero(fg)[0], batch.voxel_classes[fg]] = 1.0
    aux_det = focal_loss(det_score_logits, onehot, normalizer=max(1, int(fg.sum())))
    aux_grd = spatial_relevance_loss(grd_score_logits.reshape((n,)),
                                     grd_targets.relevance_labels)

    loss = det_total + grd_total + aux_det + aux_grd
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
          weights: LossWeights, optimizer, steps: int, use_rag: bool = True,
          use_qim: bool = True, log=None) -> list[dict]:
    """Round-robin over scenes; one optimizer step per scene visit."""
    if not batches:
        raise ValueError("need at least one prepared scene")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    history = []
    for step in range(steps):
        batch = batches[step % len(batches)]
        ins_idx = (step // len(batches)) % max(1, len(batch.instructions))
        try:
            loss, parts = training_losses(batch, store, cfg, weights, ins_idx,
                                          use_rag=use_rag, use_qim=use_qim)
        except NonFiniteError as exc:
            raise TrainingDiverged(step, str(exc)) from exc
        if not np.isfinite(parts["total"]):
            raise TrainingDiverged(step, f"loss = {parts['total']}")
        loss.backward()
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
    return [ScoredBox(Box9DoF(*box), float(s))
            for box, s in zip(boxes, _sigmoid(logits.max(axis=1)))]


def grounding_predictions(batch: SceneBatch, store: ParamStore, cfg: ModelConfig,
                          instruction_idx: int = 0, use_rag: bool = True,
                          use_qim: bool = True) -> GroundingResult:
    out, _ = forward_grounding(batch, store, cfg, instruction_idx,
                               use_rag=use_rag, use_qim=use_qim)
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
