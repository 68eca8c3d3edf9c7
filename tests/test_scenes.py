"""Scene generation, rendering, instructions and scene files.

The renderer is checked against a dense ray-march oracle built on point
containment only, so the slab intersection math is validated independently.
Instruction templates are checked by re-deriving, from the emitted tokens
alone, the set of objects that satisfy the expression.
"""

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from egoground.autodiff import make_rng
from egoground.boxes import Box9DoF, box_iou_exact
from egoground.geometry import CameraIntrinsics
from egoground.scenes import (
    CLASS_NAMES,
    FEAT2D_DIM,
    TEXT_DIM,
    VOCABULARY,
    WORD_IDS,
    Instruction,
    InstructionError,
    Scene,
    SceneConfig,
    SceneFormatError,
    SceneObject,
    StubEmbeddings,
    choose_target,
    generate_scene,
    load_scene,
    look_at,
    make_instruction,
    render_depth_and_classes,
    save_scene,
    scene_from_dict,
    scene_to_dict,
)


def hand_scene(objects):
    cam = CameraIntrinsics(fx=24.0, fy=24.0, cx=15.5, cy=11.5, width=32, height=24)
    pose = look_at(np.array([0.0, -2.6, 1.7]), np.array([0.0, 0.0, 0.5]))
    return Scene(objects=objects, cameras=[(cam, pose)],
                 room_lo=np.array([-2.0, -2.0, 0.0]), room_hi=np.array([2.0, 2.0, 2.4]),
                 seed_words=(0,))


def aa_box(x, y, z, l=0.6, w=0.6, h=0.5):
    return Box9DoF(x, y, z, l, w, h, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generate_scene_objects_in_room_and_disjoint():
    from egoground.boxes import box_corners, boxes_disjoint
    from egoground.scenes import _inflate
    for cfg in (SceneConfig(), SceneConfig(force_distractors=True)):
        for seed in range(16):
            scene = generate_scene(cfg, (seed, 11))
            assert cfg.n_objects_min <= len(scene.objects) <= cfg.n_objects_max
            for obj in scene.objects:
                corners = box_corners(obj.box)
                assert (corners >= scene.room_lo - 1e-12).all()
                assert (corners <= scene.room_hi + 1e-12).all()
            for i in range(len(scene.objects)):
                for j in range(i + 1, len(scene.objects)):
                    a, b = scene.objects[i].box, scene.objects[j].box
                    assert box_iou_exact(a, b) == 0.0, (seed, i, j)
                    assert boxes_disjoint(_inflate(a, 0.1), _inflate(b, 0.1)), (seed, i, j)


def test_generate_scene_tests_overlap_with_the_separating_axis_only(monkeypatch):
    # the benchmark tracer counts scene-generation IoUs at scenes.box_iou_exact
    import egoground.boxes as boxes_mod
    import egoground.scenes as scenes_mod
    iou_calls, disjoint_calls = [], []

    def counting_iou(a, b):
        iou_calls.append(1)
        return box_iou_exact(a, b)

    def counting_disjoint(a, b):
        disjoint_calls.append(1)
        return boxes_mod.boxes_disjoint(a, b)

    def no_clip(*args):
        raise AssertionError("scene generation reached the IoU clip")

    monkeypatch.setattr(scenes_mod, "box_iou_exact", counting_iou)
    monkeypatch.setattr(scenes_mod, "boxes_disjoint", counting_disjoint)
    monkeypatch.setattr(boxes_mod, "_clip_faces", no_clip)
    scene = generate_scene(SceneConfig(n_objects_min=6, n_objects_max=6), (11, 0))
    assert iou_calls == []
    assert len(disjoint_calls) >= len(scene.objects) * (len(scene.objects) - 1) // 2


def test_generate_scene_bytes_golden():
    # pinned while the sampler still rejected on box_iou_exact > 0
    import hashlib
    digest = hashlib.sha256()
    cfg = SceneConfig()
    for s in (1, 2, 3):
        for i in range(32):
            digest.update(json.dumps(scene_to_dict(generate_scene(cfg, (s, 2, i, 0)), [])).encode())
    assert digest.hexdigest() == "900238414ec3f68ca8332e869e546ee2281e5ca267728d1a696506609c33e612"


def test_generate_scene_deterministic():
    cfg = SceneConfig()
    a = generate_scene(cfg, (42, 7))
    b = generate_scene(cfg, (42, 7))
    sa = json.dumps(scene_to_dict(a, []))
    sb = json.dumps(scene_to_dict(b, []))
    assert sa == sb


def test_generate_scene_seed_changes_layout():
    cfg = SceneConfig()
    a = generate_scene(cfg, (1, 0))
    b = generate_scene(cfg, (2, 0))
    assert json.dumps(scene_to_dict(a, [])) != json.dumps(scene_to_dict(b, []))


def test_force_distractors_duplicates_first_class():
    cfg = SceneConfig(force_distractors=True)
    for seed in range(5):
        scene = generate_scene(cfg, (seed, 3))
        assert scene.objects[1].class_id == scene.objects[0].class_id


def test_camera_ring_outside_room_looking_in():
    scene = generate_scene(SceneConfig(), (9, 9))
    for cam, pose in scene.cameras:
        eye = pose.translation
        assert np.hypot(eye[0], eye[1]) > scene.room_hi[0]
        # room center must sit in front of the camera
        z = pose.world_to_camera(np.array([0.0, 0.0, 0.5]))[0, 2]
        assert z > 0


def test_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(n_objects_min=0)
    with pytest.raises(ValueError):
        SceneConfig(n_objects_min=4, n_objects_max=2)
    with pytest.raises(ValueError):
        SceneConfig(n_cameras=0)


def test_scene_config_rejects_rooms_the_generator_cannot_fill():
    for kw in ({"room_size": 1.0}, {"room_size": 1.4}, {"room_size": float("nan")},
               {"room_height": 0.5}, {"room_height": 1.6}):
        (field,) = kw
        with pytest.raises(ValueError, match=field):
            SceneConfig(**kw)
    # the smallest room the margins allow still places an object
    cfg = SceneConfig(n_objects_min=1, n_objects_max=1, room_size=1.41, room_height=1.62)
    assert len(generate_scene(cfg, (3, 1)).objects) == 1


def test_look_at_degenerate():
    with pytest.raises(ValueError):
        look_at(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        look_at(np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 5.0]))


# ---------------------------------------------------------------------------
# rendering vs ray-march oracle
# ---------------------------------------------------------------------------


def _march_first_hit(scene, origin, direction, t_max, step):
    """First sample point (in camera-z units) inside any box, by brute scan."""
    ts = np.arange(step, t_max, step)
    pts = origin + ts[:, None] * direction
    inside_any = np.zeros(len(ts), dtype=bool)
    hit_class = np.full(len(ts), -1, dtype=np.int64)
    for obj in scene.objects:
        local = (pts - obj.box.center) @ obj.box.rotation()
        inside = (np.abs(local) <= obj.box.extents / 2.0 + 1e-12).all(axis=1)
        hit_class[inside & ~inside_any] = obj.class_id
        inside_any |= inside
    if not inside_any.any():
        return None, -1
    k = int(np.argmax(inside_any))
    return float(ts[k]), int(hit_class[k])


def test_render_depth_matches_ray_march():
    scene = generate_scene(SceneConfig(), (5, 1))
    cam, pose = scene.cameras[0]
    depth, classes = render_depth_and_classes(scene, 0)
    step = 5e-4
    checked_hits = 0
    for v in range(0, cam.height, 5):
        for u in range(0, cam.width, 4):
            d_cam = np.array([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0])
            d_world = pose.rotation @ d_cam
            t, cls = _march_first_hit(scene, pose.translation, d_world, 12.0, step)
            if depth.valid[v, u]:
                assert t is not None, f"render hit at ({u},{v}) but march missed"
                assert abs(t - depth.values[v, u]) <= 2 * step
                assert cls == classes[v, u]
                checked_hits += 1
            else:
                # march may only hit if the crossing is thinner than a step
                assert t is None or t - step <= 0 or True
                assert t is None
    assert checked_hits >= 5, "too few foreground pixels to trust the comparison"


def test_render_invalid_pixels_are_zero_depth():
    scene = generate_scene(SceneConfig(), (6, 2))
    depth, classes = render_depth_and_classes(scene, 1)
    assert (depth.values[~depth.valid] == 0.0).all()
    assert (classes[~depth.valid] == -1).all()
    assert (depth.values[depth.valid] > 0.0).all()


def test_render_view_index_out_of_range():
    scene = generate_scene(SceneConfig(), (6, 2))
    with pytest.raises(IndexError):
        render_depth_and_classes(scene, len(scene.cameras))


# ---------------------------------------------------------------------------
# instructions
# ---------------------------------------------------------------------------


def _satisfying_set(scene: Scene, ins: Instruction) -> list[int]:
    """Re-derive, from tokens alone, which objects satisfy the expression."""
    words = ins.words()
    assert words[0] == "the"
    cls = CLASS_NAMES.index(words[1])
    candidates = [i for i, o in enumerate(scene.objects) if o.class_id == cls]
    if len(words) == 2:
        return candidates
    ref_cls = CLASS_NAMES.index(words[-1])
    refs = [o for o in scene.objects if o.class_id == ref_cls]
    assert len(refs) == 1, "reference class must be unique in the scene"
    r_c = refs[0].box.center
    cam, pose = scene.cameras[0]

    def ok(i):
        c = scene.objects[i].box.center
        if words[2] == "nearest":
            others = [j for j in candidates if j != i]
            return all(np.linalg.norm(c - r_c) < np.linalg.norm(scene.objects[j].box.center - r_c)
                       for j in others)
        if words[2] in ("left", "right"):
            sign = -1.0 if words[2] == "left" else 1.0
            cx = pose.world_to_camera(c)[0, 0]
            rx = pose.world_to_camera(r_c)[0, 0]
            return sign * (cx - rx) > 0
        assert words[2] == "above"
        return c[2] > r_c[2]

    return [i for i in candidates if ok(i)]


def test_easy_instruction_for_unique_class():
    scene = hand_scene([
        SceneObject(aa_box(-1.0, 0.4, 0.3), class_id=0),
        SceneObject(aa_box(1.0, 0.4, 0.3), class_id=1),
    ])
    ins = make_instruction(scene, 0, (3, 3))
    assert ins.words() == ["the", "chair"]
    assert ins.difficulty == "easy"
    assert not ins.view_dep
    assert _satisfying_set(scene, ins) == [0]


def test_left_of_is_the_only_valid_relation():
    # two chairs straddle a unique table; only "left of" singles out chair 0
    scene = hand_scene([
        SceneObject(aa_box(-1.2, 0.5, 0.3), class_id=0),
        SceneObject(aa_box(1.2, 0.5, 0.3), class_id=0),
        SceneObject(aa_box(0.2, 0.4, 0.3), class_id=1),
    ])
    for seed in range(4):  # relation order is shuffled; outcome must not change
        ins = make_instruction(scene, 0, (seed, 0))
        assert ins.words() == ["the", "chair", "left", "of", "the", "table"]
        assert ins.difficulty == "hard"
        assert ins.view_dep
    ins = make_instruction(scene, 1, (0, 0))
    assert ins.words() == ["the", "chair", "right", "of", "the", "table"]


def test_above_relation():
    scene = hand_scene([
        SceneObject(aa_box(-0.6, 0.5, 1.4, h=0.4), class_id=3),
        SceneObject(aa_box(0.9, 0.5, 0.25, h=0.4), class_id=3),
        SceneObject(aa_box(0.0, -0.6, 0.3), class_id=2),
    ])
    # lamp 0 is above the sofa, lamp 1 is below it; nearest is ambiguous-free too,
    # so accept any relation the generator picks but demand unique satisfaction
    ins = make_instruction(scene, 0, (1, 4))
    assert ins.difficulty == "hard"
    assert _satisfying_set(scene, ins) == [0]


def test_instruction_error_when_nothing_disambiguates():
    # identical twin chairs, no unique reference class
    scene = hand_scene([
        SceneObject(aa_box(-0.8, 0.5, 0.3), class_id=0),
        SceneObject(aa_box(0.8, 0.5, 0.3), class_id=0),
    ])
    with pytest.raises(InstructionError):
        make_instruction(scene, 0, (0, 0))


def test_instruction_target_range():
    scene = hand_scene([SceneObject(aa_box(0.0, 0.5, 0.3), class_id=0)])
    with pytest.raises(IndexError):
        make_instruction(scene, 1, (0, 0))


def test_generated_instructions_uniquely_identify_target():
    cfg = SceneConfig(force_distractors=True)
    rng = make_rng(77)
    made = 0
    for seed in range(30):
        scene = generate_scene(cfg, (seed, 50))
        target = choose_target(scene, rng)
        try:
            ins = make_instruction(scene, target, (seed, 51))
        except InstructionError:
            continue
        made += 1
        assert ins.target == target
        assert _satisfying_set(scene, ins) == [target]
        counts = scene.class_counts()
        expect_hard = counts[scene.objects[target].class_id] > 1
        assert ins.difficulty == ("hard" if expect_hard else "easy")
    assert made >= 18, f"only {made}/30 scenes produced an instruction"


def test_choose_target_prefers_duplicated_class():
    scene = hand_scene([
        SceneObject(aa_box(-1.2, 0.5, 0.3), class_id=0),
        SceneObject(aa_box(1.2, 0.5, 0.3), class_id=0),
        SceneObject(aa_box(0.2, 0.4, 0.3), class_id=1),
    ])
    rng = make_rng(5)
    for _ in range(10):
        assert choose_target(scene, rng) in (0, 1)


def test_vocabulary_is_consistent():
    assert len(set(VOCABULARY)) == len(VOCABULARY)
    assert all(WORD_IDS[w] == i for i, w in enumerate(VOCABULARY))
    assert all(c in VOCABULARY for c in CLASS_NAMES)


# ---------------------------------------------------------------------------
# stub embeddings
# ---------------------------------------------------------------------------


def test_stub_embeddings_deterministic():
    a = StubEmbeddings()
    b = StubEmbeddings()
    assert np.array_equal(a.word_table, b.word_table)
    assert np.array_equal(a.class_table, b.class_table)
    assert np.array_equal(a.depth_vector, b.depth_vector)
    c = StubEmbeddings(seed=9)
    assert not np.array_equal(a.word_table, c.word_table)


def test_scenes_import_does_not_load_network():
    # the stub owns its widths; scene generation needs no model code
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, egoground.scenes; print('egoground.network' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_stub_token_vectors():
    stub = StubEmbeddings()
    ins_tokens = [WORD_IDS["the"], WORD_IDS["chair"]]
    vecs = stub.token_vectors(ins_tokens)
    assert vecs.shape == (2, TEXT_DIM)
    assert np.array_equal(vecs[0], stub.word_table[WORD_IDS["the"]])
    with pytest.raises(ValueError):
        stub.token_vectors([])


def test_stub_view_feature_map_background_rows():
    scene = generate_scene(SceneConfig(), (4, 4))
    stub = StubEmbeddings()
    depth, classes = render_depth_and_classes(scene, 0)
    fm = stub.view_feature_map(scene, 0, depth, classes)
    assert fm.grid.shape == (depth.values.shape[0], depth.values.shape[1],
                             FEAT2D_DIM)
    bg = ~depth.valid
    assert bg.any() and depth.valid.any()
    assert np.allclose(fm.grid[bg], stub.class_table[0])
    v, u = np.argwhere(depth.valid)[0]
    cls = classes[v, u]
    expect = stub.class_table[cls + 1] + (depth.values[v, u] / (np.linalg.norm(
        scene.room_hi - scene.room_lo) + 1.0)) * stub.depth_vector
    assert np.allclose(fm.grid[v, u], expect)


# ---------------------------------------------------------------------------
# scene files
# ---------------------------------------------------------------------------


def _scene_with_instruction():
    """The first scene (8, s) with a target that some template singles out."""
    cfg = SceneConfig(force_distractors=True)
    for s in range(8, 40):
        scene = generate_scene(cfg, (8, s))
        for target in range(len(scene.objects)):
            try:
                return scene, [make_instruction(scene, target, (2, 2))]
            except InstructionError:
                continue
    raise AssertionError("no scene seed in (8, 8..39) yields an instruction")


def test_save_load_round_trip_bytes(tmp_path):
    scene, instructions = _scene_with_instruction()
    p1 = tmp_path / "scene.json"
    p2 = tmp_path / "scene2.json"
    save_scene(scene, instructions, p1)
    loaded, loaded_ins = load_scene(p1)
    save_scene(loaded, loaded_ins, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert len(loaded.objects) == len(scene.objects)
    for a, b in zip(scene.objects, loaded.objects):
        assert a.class_id == b.class_id
        assert np.array_equal(a.box.as_params(), b.box.as_params())
    for (ca, pa), (cb, pb) in zip(scene.cameras, loaded.cameras):
        assert np.array_equal(pa.rotation, pb.rotation)
        assert np.array_equal(pa.translation, pb.translation)
        assert (ca.fx, ca.fy, ca.cx, ca.cy) == (cb.fx, cb.fy, cb.cx, cb.cy)
    assert len(instructions) == len(loaded_ins) == 1
    for a, b in zip(instructions, loaded_ins):
        assert (a.tokens, a.target, a.difficulty, a.view_dep) == \
            (b.tokens, b.target, b.difficulty, b.view_dep)


def test_load_missing_field_names_path(tmp_path):
    scene, instructions = _scene_with_instruction()
    data = scene_to_dict(scene, instructions)
    del data["objects"][0]["center"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(SceneFormatError, match=r"scene\.objects\[0\]\.center"):
        load_scene(p)


def test_load_unknown_field_warns(tmp_path):
    scene, instructions = _scene_with_instruction()
    data = scene_to_dict(scene, instructions)
    data["objects"][0]["color"] = "red"
    p = tmp_path / "extra.json"
    p.write_text(json.dumps(data))
    with pytest.warns(UserWarning, match="color"):
        load_scene(p)


def test_load_validates_ranges(tmp_path):
    scene, instructions = _scene_with_instruction()
    p = tmp_path / "s.json"

    data = scene_to_dict(scene, instructions)
    data["instructions"] = [{"tokens": [0, 1], "target": 99, "difficulty": "easy",
                             "view_dep": False}]
    p.write_text(json.dumps(data))
    with pytest.raises(SceneFormatError, match="target"):
        load_scene(p)

    data["instructions"] = [{"tokens": [0, 1], "target": 0, "difficulty": "medium",
                             "view_dep": False}]
    p.write_text(json.dumps(data))
    with pytest.raises(SceneFormatError, match="difficulty"):
        load_scene(p)

    data["instructions"] = [{"tokens": [0, 999], "target": 0, "difficulty": "easy",
                             "view_dep": False}]
    p.write_text(json.dumps(data))
    with pytest.raises(SceneFormatError, match="vocabulary"):
        load_scene(p)


_VECTOR_KEYS = {"lo", "hi", "center", "extents", "angles", "translation"}
_MUTATIONS = {  # each turns a valid value of the kind into a malformed one
    "vector": (lambda v: v[:2], lambda v: v + [0.0], lambda v: "1 2 3",
               lambda v: [v[0], str(v[1]), v[2]], lambda v: [True, v[1], v[2]]),
    "rows": (lambda v: v[:2], lambda v: "identity"),
    "int": (lambda v: v + 0.7, lambda v: float(v), lambda v: True, lambda v: str(v)),
    "number": (lambda v: str(v), lambda v: True, lambda v: None),
    "bool": (lambda v: "no", lambda v: int(v)),
    "difficulty": (lambda v: 1, lambda v: v.upper()),
}


def _typed_fields(node, path=()):
    """(path, kind) of every typed field in a scene dict."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        here, parent = path + (key,), path[-1] if path else None
        if key in _VECTOR_KEYS or parent == "rotation":
            yield here, "vector"
        elif key == "rotation":
            yield here, "rows"
        elif key in ("class", "target", "width", "height") or parent in ("tokens", "seed_words"):
            yield here, "int"
        elif key in ("fx", "fy", "cx", "cy"):
            yield here, "number"
        elif key == "view_dep":
            yield here, "bool"
        elif key == "difficulty":
            yield here, "difficulty"
        if isinstance(value, (dict, list)):
            yield from _typed_fields(value, here)


def _field_name(path):
    """Dotted name of the file field that owns ``path`` (list items belong to their list)."""
    while isinstance(path[-1], int):
        path = path[:-1]
    return "scene" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def _fuzz_base():
    scene, _ = _scene_with_instruction()
    instructions = [Instruction(tokens=[0, 1], target=0, difficulty="easy", view_dep=False),
                    Instruction(tokens=[0, 2, 9, 10, 0, 3], target=1, difficulty="hard",
                                view_dep=True)]
    return scene_to_dict(scene, instructions)


def test_load_fuzzed_fields_raise_scene_format_error():
    base = _fuzz_base()
    fields = list(_typed_fields(base))
    assert {kind for _, kind in fields} == set(_MUTATIONS)
    rng = make_rng(421)
    for _ in range(300):
        path, kind = fields[rng.integers(len(fields))]
        mutate = _MUTATIONS[kind][rng.integers(len(_MUTATIONS[kind]))]
        data = copy.deepcopy(base)
        owner = data
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = mutate(owner[path[-1]])
        with pytest.raises(SceneFormatError, match=re.escape(_field_name(path))):
            scene_from_dict(data)


def test_load_rejects_reported_malformed_fields():
    for mutate, name in [
        (lambda d: d["objects"][0].update(center=[0.0, 0.0], extents=[1.0, 0.5, 0.5, 0.5]),
         "scene.objects[0].center"),
        (lambda d: d["objects"][0].update({"class": 2.7}), "scene.objects[0].class"),
        (lambda d: d["cameras"][0].update(width=32.9), "scene.cameras[0].width"),
        (lambda d: d["instructions"][0].update(view_dep="no"), "scene.instructions[0].view_dep"),
        (lambda d: d["objects"][0].update(extents=[1.0, 0.0, 0.5]), "scene.objects[0]"),
    ]:
        data = _fuzz_base()
        mutate(data)
        with pytest.raises(SceneFormatError, match=re.escape(name)):
            scene_from_dict(data)


def test_load_rejects_wrong_format(tmp_path):
    p = tmp_path / "w.json"
    p.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(SceneFormatError, match="format"):
        load_scene(p)
    p.write_text("not json {")
    with pytest.raises(SceneFormatError, match="JSON"):
        load_scene(p)
    p.write_text("[1, 2]")
    with pytest.raises(SceneFormatError, match="JSON object"):
        load_scene(p)
