"""Synthetic desk-scale scenes with analytic RGB-D rendering.

A scene is a handful of oriented boxes inside a room, viewed by pinhole
cameras on a ring looking inward.  Every pair of boxes, each grown by a 0.1
clearance, has a clear separating axis (``boxes_disjoint``), so any two
objects have IoU exactly 0.  Depth is rendered by exact ray / box slab
intersection, so the generator needs no mesh machinery and the depth maps
are reproducible bit for bit from the seed.

Language supervision is template based.  A referring expression is either
"the <class>" when the class is unique, or "the <class> <relation> the
<reference-class>" where the relation disambiguates the target from its
same-class distractors.  Relations: nearest-to (view independent), left-of,
right-of and above (all three marked view dependent; left/right are taken in
camera 0's frame).  An instruction is hard when at least one same-class
distractor exists.

Stub embeddings stand in for pretrained text and image backbones: fixed
seeded tables keyed by word id and by the class id visible at a pixel, the
latter shifted along a fixed direction by normalized depth.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import _is_int, make_rng
from .boxes import Box9DoF, _cross, box_corners, boxes_disjoint
from .boxes import box_iou_exact  # noqa: F401  benchmark/spans.py traces it at this name
from .geometry import CameraIntrinsics, CameraPose, DepthMap, ViewFeatureMap

Array = np.ndarray

CLASS_NAMES = ("chair", "table", "sofa", "lamp", "cabinet", "plant")
VOCABULARY = ("the",) + CLASS_NAMES + ("nearest", "to", "left", "of", "right", "above")
WORD_IDS = {word: i for i, word in enumerate(VOCABULARY)}

DEFAULT_STUB_SEED = 701

SCENE_FORMAT = "egoground-scene-v1"

_RELATION_MARGIN = 0.05
_HIT_EPS = 1e-9
_UP = np.array([0.0, 0.0, 1.0])


class SceneFormatError(ValueError):
    """A scene file is missing or misusing a required field."""


class InstructionError(RuntimeError):
    """No unambiguous referring expression exists for the requested target."""


@dataclass
class SceneConfig:
    n_objects_min: int = 3
    n_objects_max: int = 6
    room_size: float = 4.0
    room_height: float = 2.4
    n_cameras: int = 3
    image_width: int = 32
    image_height: int = 24
    focal: float = 24.0
    max_attempts: int = 400
    force_distractors: bool = False

    def __post_init__(self):
        if self.n_objects_min < 1 or self.n_objects_max < self.n_objects_min:
            raise ValueError("n_objects_min and n_objects_max must satisfy 1 <= min <= max, "
                             f"got {self.n_objects_min} and {self.n_objects_max}")
        for name in ("n_cameras", "image_width", "image_height", "max_attempts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.focal > 0.0:
            raise ValueError(f"focal must be positive, got {self.focal}")
        # generate_scene's fixed margins: centers keep 0.7 from each wall, and a
        # 0.8-high box needs 0.02 below it and 0.8 above it
        if not self.room_size > 1.4:
            raise ValueError(f"room_size must be > 1.4, got {self.room_size}")
        if not self.room_height >= 1.62:
            raise ValueError(f"room_height must be >= 1.62, got {self.room_height}")


@dataclass
class SceneObject:
    box: Box9DoF
    class_id: int


@dataclass
class Scene:
    objects: list[SceneObject]
    cameras: list[tuple[CameraIntrinsics, CameraPose]]
    room_lo: Array
    room_hi: Array
    seed_words: tuple[int, ...]

    def class_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for obj in self.objects:
            counts[obj.class_id] = counts.get(obj.class_id, 0) + 1
        return counts


@dataclass
class Instruction:
    tokens: list[int]
    target: int
    difficulty: str  # "easy" | "hard"
    view_dep: bool

    def words(self) -> list[str]:
        return [VOCABULARY[t] for t in self.tokens]


def look_at(eye: Array, target: Array) -> CameraPose:
    """Pose for a camera at ``eye`` looking toward ``target`` (x right, y down, z forward)."""
    forward = np.asarray(target, dtype=np.float64) - eye
    norm = math.sqrt(forward.dot(forward))  # np.linalg.norm's own arithmetic
    if norm < 1e-9:
        raise ValueError("camera eye and target coincide")
    forward = forward / norm
    right = _cross(forward, _UP)
    rnorm = math.sqrt(right.dot(right))
    if rnorm < 1e-9:
        raise ValueError("camera looking straight along the up axis")
    right = right / rnorm
    down = _cross(forward, right)
    rotation = np.array([right, down, forward]).T.copy()
    return CameraPose(rotation=rotation, translation=np.asarray(eye, dtype=np.float64))


def _inflate(box: Box9DoF, margin: float) -> Box9DoF:
    return Box9DoF(box.x, box.y, box.z, box.l + margin, box.w + margin, box.h + margin,
                   box.alpha, box.beta, box.gamma)


def generate_scene(cfg: SceneConfig, seed_words: tuple[int, ...]) -> Scene:
    """Rejection-sample boxes whose copies grown by 0.1 are pairwise
    ``boxes_disjoint`` (touching counts as overlap), then place the camera ring.

    Raises RuntimeError naming the object index if placement keeps failing.
    """
    rng = make_rng(*seed_words)
    half = cfg.room_size / 2.0
    room_lo = np.array([-half, -half, 0.0])
    room_hi = np.array([half, half, cfg.room_height])
    n = int(rng.integers(cfg.n_objects_min, cfg.n_objects_max + 1))
    objects: list[SceneObject] = []
    grown_boxes: list[Box9DoF] = []  # each placed box with its clearance
    for i in range(n):
        if cfg.force_distractors and i == 1:
            class_id = objects[0].class_id
        else:
            class_id = int(rng.integers(0, len(CLASS_NAMES)))
        placed = False
        for _ in range(cfg.max_attempts):
            l, w = rng.uniform(0.35, 0.9, size=2)
            h = rng.uniform(0.3, 0.8)
            cx, cy = rng.uniform(-half + 0.7, half - 0.7, size=2)
            cz = rng.uniform(h / 2.0 + 0.02, cfg.room_height - h / 2.0 - 0.8)
            alpha = rng.uniform(-np.pi, np.pi)
            beta, gamma = rng.uniform(-0.2, 0.2, size=2)
            box = Box9DoF(cx, cy, cz, l, w, h, alpha, beta, gamma)
            corners = box_corners(box)
            if (corners < room_lo).any() or (corners > room_hi).any():
                continue
            # keep a small clearance so voxel labels never straddle objects
            grown = _inflate(box, 0.1)
            if not all(boxes_disjoint(grown, other) for other in grown_boxes):
                continue
            objects.append(SceneObject(box=box, class_id=class_id))
            grown_boxes.append(grown)
            placed = True
            break
        if not placed:
            raise RuntimeError(f"could not place object {i} after {cfg.max_attempts} attempts")

    cameras = []
    ring = half + 0.6
    phase = rng.uniform(0.0, 2.0 * np.pi)
    focus = np.array([0.0, 0.0, 0.5])
    cam = CameraIntrinsics(fx=cfg.focal, fy=cfg.focal,
                           cx=(cfg.image_width - 1) / 2.0, cy=(cfg.image_height - 1) / 2.0,
                           width=cfg.image_width, height=cfg.image_height)
    for c in range(cfg.n_cameras):
        ang = phase + 2.0 * np.pi * c / cfg.n_cameras
        eye = np.array([ring * np.cos(ang), ring * np.sin(ang), rng.uniform(1.5, 1.9)])
        cameras.append((cam, look_at(eye, focus)))
    return Scene(objects=objects, cameras=cameras, room_lo=room_lo, room_hi=room_hi,
                 seed_words=tuple(int(s) for s in seed_words))


def render_depth_and_classes(scene: Scene, view_idx: int) -> tuple[DepthMap, Array]:
    """Analytic depth and per-pixel class id (-1 where no box is hit).

    Depth is the camera-frame z of the nearest slab-test hit; rays through
    integer pixel coordinates.  The three slabs are rows of a (3, rays)
    array, reduced across so that numpy's inner loop runs along the rays.
    A later object takes a pixel only when strictly nearer: ties go to the
    first object.
    """
    if not 0 <= view_idx < len(scene.cameras):
        raise IndexError(f"view {view_idx} out of range (scene has {len(scene.cameras)})")
    cam, pose = scene.cameras[view_idx]
    vs, us = np.mgrid[0:cam.height, 0:cam.width].astype(np.float64)
    dirs_cam = np.stack([(us - cam.cx) / cam.fx, (vs - cam.cy) / cam.fy, np.ones_like(us)], axis=-1)
    dirs_world = dirs_cam.reshape(-1, 3) @ pose.rotation.T
    origin = pose.translation

    best_t = np.full(dirs_world.shape[0], np.inf)
    best_cls = np.full(dirs_world.shape[0], -1, dtype=np.int64)
    for obj in scene.objects:
        r = obj.box.rotation()
        o_local = ((origin - obj.box.center) @ r)[:, None]
        d_local = np.ascontiguousarray((dirs_world @ r).T)
        half_ext = (obj.box.extents / 2.0)[:, None]
        d_safe = np.where(np.abs(d_local) < 1e-300, 1e-300, d_local)
        t1 = (-half_ext - o_local) / d_safe
        t2 = (half_ext - o_local) / d_safe
        t_near = np.minimum(t1, t2).max(axis=0)
        t_far = np.maximum(t1, t2).min(axis=0)
        hit = (t_near <= t_far) & (t_near > _HIT_EPS)
        closer = hit & (t_near < best_t)
        best_t[closer] = t_near[closer]
        best_cls[closer] = obj.class_id

    valid = np.isfinite(best_t)
    values = np.where(valid, best_t, 0.0).reshape(cam.height, cam.width)
    classes = best_cls.reshape(cam.height, cam.width)
    return DepthMap(values=values, valid=valid.reshape(cam.height, cam.width)), classes


def _camera_frame_x(scene: Scene, center: Array) -> float:
    cam, pose = scene.cameras[0]
    return float(pose.world_to_camera(center)[0, 0])


def choose_target(scene: Scene, rng: np.random.Generator) -> int:
    """Prefer an object that has same-class distractors, else any object."""
    counts = scene.class_counts()
    with_distractors = [i for i, o in enumerate(scene.objects) if counts[o.class_id] > 1]
    pool = with_distractors if with_distractors else list(range(len(scene.objects)))
    return int(pool[rng.integers(0, len(pool))])


def make_instruction(scene: Scene, target_idx: int, seed_words: tuple[int, ...]) -> Instruction:
    """Template referring expression that uniquely identifies the target.

    Raises InstructionError when no template disambiguates the target from
    its same-class distractors.
    """
    if not 0 <= target_idx < len(scene.objects):
        raise IndexError(f"target {target_idx} out of range")
    rng = make_rng(*seed_words)
    target = scene.objects[target_idx]
    cls_word = CLASS_NAMES[target.class_id]
    distractors = [o for i, o in enumerate(scene.objects)
                   if i != target_idx and o.class_id == target.class_id]
    if not distractors:
        return Instruction(tokens=[WORD_IDS["the"], WORD_IDS[cls_word]],
                           target=target_idx, difficulty="easy", view_dep=False)

    counts = scene.class_counts()
    references = [o for o in scene.objects
                  if counts[o.class_id] == 1 and o.class_id != target.class_id]
    relations = list(rng.permutation(["nearest", "left", "right", "above"]))
    ref_order = list(rng.permutation(len(references))) if references else []

    m = _RELATION_MARGIN
    for relation in relations:
        for ref_i in ref_order:
            ref = references[ref_i]
            t_c, r_c = target.box.center, ref.box.center
            d_c = [d.box.center for d in distractors]
            if relation == "nearest":
                t_dist = np.linalg.norm(t_c - r_c)
                ok = all(np.linalg.norm(dc - r_c) > t_dist + m for dc in d_c)
                view_dep = False
                words = ["the", cls_word, "nearest", "to", "the", CLASS_NAMES[ref.class_id]]
            elif relation in ("left", "right"):
                sign = -1.0 if relation == "left" else 1.0
                t_x = _camera_frame_x(scene, t_c)
                r_x = _camera_frame_x(scene, r_c)
                ok = sign * (t_x - r_x) > m and all(
                    sign * (_camera_frame_x(scene, dc) - r_x) < -m for dc in d_c)
                view_dep = True
                words = ["the", cls_word, relation, "of", "the", CLASS_NAMES[ref.class_id]]
            else:  # above
                ok = t_c[2] > r_c[2] + m and all(dc[2] < r_c[2] - m for dc in d_c)
                view_dep = True
                words = ["the", cls_word, "above", "the", CLASS_NAMES[ref.class_id]]
            if ok:
                return Instruction(tokens=[WORD_IDS[w] for w in words], target=target_idx,
                                   difficulty="hard", view_dep=view_dep)
    raise InstructionError(f"no unambiguous expression for object {target_idx}")


# widths of the stub's word vectors and per-pixel image features
TEXT_DIM = 16
FEAT2D_DIM = 16


class StubEmbeddings:
    """Fixed seeded tables standing in for pretrained text / image backbones."""

    def __init__(self, seed: int = DEFAULT_STUB_SEED):
        rng = make_rng(seed, 1)
        self.word_table = rng.normal(size=(len(VOCABULARY), TEXT_DIM)) / np.sqrt(TEXT_DIM)
        # row 0 is the background (no surface hit)
        self.class_table = rng.normal(size=(len(CLASS_NAMES) + 1, FEAT2D_DIM)) / np.sqrt(FEAT2D_DIM)
        self.depth_vector = rng.normal(size=(FEAT2D_DIM,)) / np.sqrt(FEAT2D_DIM)

    def token_vectors(self, tokens: list[int]) -> Array:
        if len(tokens) == 0:
            raise ValueError("empty token sequence")
        return self.word_table[np.asarray(tokens, dtype=np.intp)]

    def view_feature_map(self, scene: Scene, view_idx: int, depth: DepthMap,
                         classes: Array) -> ViewFeatureMap:
        """Per-pixel embedding of (visible class id, normalized depth) of a rendered view."""
        cam, pose = scene.cameras[view_idx]
        max_depth = float(np.linalg.norm(scene.room_hi - scene.room_lo)) + 1.0
        dnorm = np.clip(depth.values / max_depth, 0.0, 1.0)
        grid = self.class_table[classes + 1] + dnorm[:, :, None] * self.depth_vector
        return ViewFeatureMap(grid=grid, cam=cam, pose=pose)


# ---------------------------------------------------------------------------
# Scene files
# ---------------------------------------------------------------------------


def scene_to_dict(scene: Scene, instructions: list[Instruction]) -> dict:
    return {
        "format": SCENE_FORMAT,
        "seed_words": list(scene.seed_words),
        "room": {"lo": scene.room_lo.tolist(), "hi": scene.room_hi.tolist()},
        "objects": [
            {
                "class": obj.class_id,
                "center": [obj.box.x, obj.box.y, obj.box.z],
                "extents": [obj.box.l, obj.box.w, obj.box.h],
                "angles": [obj.box.alpha, obj.box.beta, obj.box.gamma],
            }
            for obj in scene.objects
        ],
        "cameras": [
            {
                "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
                "width": cam.width, "height": cam.height,
                "rotation": pose.rotation.tolist(),
                "translation": pose.translation.tolist(),
            }
            for cam, pose in scene.cameras
        ],
        "instructions": [
            {
                "tokens": list(ins.tokens),
                "target": ins.target,
                "difficulty": ins.difficulty,
                "view_dep": ins.view_dep,
            }
            for ins in instructions
        ],
    }


def save_scene(scene: Scene, instructions: list[Instruction], path: str | Path) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene, instructions), indent=2) + "\n")


def _is_number(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _is_vector(v) -> bool:
    return isinstance(v, list) and len(v) == 3 and all(map(_is_number, v))


# what each kind of scene-file field must be, by its description in errors
_KINDS = {
    "an integer": _is_int,
    "a finite number": _is_number,
    "a boolean": lambda v: isinstance(v, bool),
    "easy or hard": lambda v: v in ("easy", "hard"),
    "3 finite numbers": _is_vector,
    "3 rows of 3 finite numbers": lambda v: isinstance(v, list) and len(v) == 3
    and all(map(_is_vector, v)),
    "a list of integers": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "an object": lambda v: isinstance(v, dict),
    "a list of objects": lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v),
}


def _checked(value, where: str, kind: str):
    if not _KINDS[kind](value):
        raise SceneFormatError(f"{where} must be {kind}, got {value!r}")
    return value


def _field(mapping: dict, key: str, where: str, kind: str):
    if key not in mapping:
        raise SceneFormatError(f"missing field {where}.{key}")
    return _checked(mapping[key], f"{where}.{key}", kind)


def _check_unknown(mapping: dict, known: set[str], where: str, source: str) -> None:
    unknown = set(mapping) - known
    if unknown:
        warnings.warn(f"{source}: ignoring unknown fields at {where}: {sorted(unknown)}")


def scene_from_dict(data: dict, source: str = "scene") -> tuple[Scene, list[Instruction]]:
    """Build a scene from its file form; a malformed field is a ``SceneFormatError`` naming it.

    An unknown field is ignored with a ``UserWarning`` that names it and ``source``.
    """
    if not isinstance(data, dict):
        raise SceneFormatError(f"a scene file holds a JSON object, not {type(data).__name__}")
    if data.get("format") != SCENE_FORMAT:
        raise SceneFormatError(f"unrecognized scene format {data.get('format')!r}")
    _check_unknown(data, {"format", "seed_words", "room", "objects", "cameras", "instructions"},
                   "scene", source)
    room = _field(data, "room", "scene", "an object")
    lo = np.array(_field(room, "lo", "scene.room", "3 finite numbers"), dtype=np.float64)
    hi = np.array(_field(room, "hi", "scene.room", "3 finite numbers"), dtype=np.float64)

    objects = []
    for i, entry in enumerate(_field(data, "objects", "scene", "a list of objects")):
        where = f"scene.objects[{i}]"
        _check_unknown(entry, {"class", "center", "extents", "angles"}, where, source)
        class_id = _field(entry, "class", where, "an integer")
        if not 0 <= class_id < len(CLASS_NAMES):
            raise SceneFormatError(f"{where}.class out of range")
        params = [v for key in ("center", "extents", "angles")
                  for v in _field(entry, key, where, "3 finite numbers")]
        try:
            box = Box9DoF(*params)
        except ValueError as exc:
            raise SceneFormatError(f"{where}: {exc}") from exc
        objects.append(SceneObject(box=box, class_id=class_id))
    if not objects:
        raise SceneFormatError("scene.objects must not be empty")

    cameras = []
    for i, entry in enumerate(_field(data, "cameras", "scene", "a list of objects")):
        where = f"scene.cameras[{i}]"
        _check_unknown(entry, {"fx", "fy", "cx", "cy", "width", "height", "rotation", "translation"},
                       where, source)
        intrinsics = {k: float(_field(entry, k, where, "a finite number"))
                      for k in ("fx", "fy", "cx", "cy")}
        intrinsics.update((k, _field(entry, k, where, "an integer")) for k in ("width", "height"))
        rotation = np.array(_field(entry, "rotation", where, "3 rows of 3 finite numbers"))
        translation = np.array(_field(entry, "translation", where, "3 finite numbers"))
        try:
            cameras.append((CameraIntrinsics(**intrinsics), CameraPose(rotation, translation)))
        except ValueError as exc:
            raise SceneFormatError(f"{where}: {exc}") from exc
    if not cameras:
        raise SceneFormatError("scene.cameras must not be empty")

    instructions = []
    entries = _checked(data.get("instructions", []), "scene.instructions", "a list of objects")
    for i, entry in enumerate(entries):
        where = f"scene.instructions[{i}]"
        _check_unknown(entry, {"tokens", "target", "difficulty", "view_dep"}, where, source)
        tokens = _field(entry, "tokens", where, "a list of integers")
        if any(not 0 <= t < len(VOCABULARY) for t in tokens):
            raise SceneFormatError(f"{where}.tokens out of vocabulary")
        target = _field(entry, "target", where, "an integer")
        if not 0 <= target < len(objects):
            raise SceneFormatError(f"{where}.target out of range")
        instructions.append(Instruction(
            tokens=list(tokens), target=target,
            difficulty=_field(entry, "difficulty", where, "easy or hard"),
            view_dep=_field(entry, "view_dep", where, "a boolean")))

    seed_words = _checked(data.get("seed_words", []), "scene.seed_words", "a list of integers")
    scene = Scene(objects=objects, cameras=cameras, room_lo=lo, room_hi=hi,
                  seed_words=tuple(seed_words))
    return scene, instructions


def load_scene(path: str | Path) -> tuple[Scene, list[Instruction]]:
    """Read a ``save_scene`` file; a fault in it is a ``SceneFormatError`` naming ``path``.

    An unknown field is ignored with a ``UserWarning`` that names ``path`` too.
    """
    try:
        return scene_from_dict(json.loads(Path(path).read_text()), f"scene {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SceneFormatError(f"scene {path} is not valid JSON: {exc}") from exc
    except SceneFormatError as exc:
        raise SceneFormatError(f"scene {path}: {exc}") from exc
