import dataclasses

import numpy as np
import pytest

import egoground.boxes as boxes_mod
from egoground.autodiff import make_rng
from egoground.boxes import (
    Box9DoF,
    DegenerateClipWarning,
    box_corners,
    box_iou_exact,
    box_iou_mc,
    contains_points,
    intersection_volume,
    rotation_matrix,
    wrap_angle,
)


def unit_cube(**kw):
    base = dict(x=0.0, y=0.0, z=0.0, l=1.0, w=1.0, h=1.0)
    base.update(kw)
    return Box9DoF(**base)


def random_box(rng, center_scale=1.0):
    cx, cy, cz = rng.uniform(-center_scale, center_scale, size=3)
    l, w, h = rng.uniform(0.3, 1.5, size=3)
    a, b, g = rng.uniform(-np.pi, np.pi, size=3)
    return Box9DoF(cx, cy, cz, l, w, h, a, b, g)


def test_wrap_angle_range_and_boundaries():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    for a in np.linspace(-10, 10, 101):
        wrapped = wrap_angle(a)
        assert -np.pi < wrapped <= np.pi + 1e-12
        assert abs(np.sin(wrapped) - np.sin(a)) < 1e-12
        assert abs(np.cos(wrapped) - np.cos(a)) < 1e-12


def test_wrap_angle_array_equals_scalar_bytes():
    angles = np.array([np.pi, -np.pi, -0.0, 0.0, 7.0, -7.0,
                       np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0)])
    wrapped = wrap_angle(angles)
    assert wrapped.shape == angles.shape
    assert wrapped.tobytes() == np.array([wrap_angle(float(a)) for a in angles]).tobytes()
    box = Box9DoF(0, 0, 0, 1, 1, 1, *angles[[0, 2, 4]])
    assert box.as_params()[6:].tobytes() == wrapped[[0, 2, 4]].tobytes()


def test_wrap_angle_ulps_next_to_pi_stay_in_range_and_are_fixed_points():
    angles = []
    for edge in (np.pi, -np.pi):
        for toward in (0.0, 4.0 * edge):
            a = edge
            for _ in range(4):
                a = np.nextafter(a, toward)
                angles.append(a)
    angles = np.array(angles)
    wrapped = wrap_angle(angles)
    scalars = np.array([wrap_angle(float(a)) for a in angles])
    assert wrapped.tobytes() == scalars.tobytes()
    assert isinstance(wrap_angle(float(angles[0])), float)
    assert ((wrapped > -np.pi) & (wrapped <= np.pi)).all(), wrapped
    assert wrap_angle(wrapped).tobytes() == wrapped.tobytes()
    assert np.array([wrap_angle(float(w)) for w in scalars]).tobytes() == scalars.tobytes()
    assert (np.abs(np.sin(wrapped) - np.sin(angles)) < 1e-15).all()
    assert (np.abs(np.cos(wrapped) - np.cos(angles)) < 1e-15).all()


def test_rotation_matrix_quarter_turn():
    r = rotation_matrix(np.pi / 2, 0.0, 0.0)
    np.testing.assert_allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)


def test_rotation_matrix_composition_order():
    rng = make_rng(211)
    a, b, g = rng.uniform(-np.pi, np.pi, size=3)
    r = rotation_matrix(a, b, g)
    rz = rotation_matrix(a, 0.0, 0.0)
    ry = rotation_matrix(0.0, b, 0.0)
    rx = rotation_matrix(0.0, 0.0, g)
    np.testing.assert_allclose(r, rz @ ry @ rx, atol=1e-12)
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_box_validation():
    with pytest.raises(ValueError):
        Box9DoF(0, 0, 0, 0.0, 1, 1)
    with pytest.raises(ValueError):
        Box9DoF(0, 0, 0, 1, 1, np.nan)
    b = Box9DoF(0, 0, 0, 1, 1, 1, alpha=2 * np.pi)
    assert b.alpha == pytest.approx(0.0, abs=1e-12)


def test_box_rotation_is_built_once_and_read_only():
    b = Box9DoF(0.5, -1.0, 2.0, 1.0, 2.0, 0.5, 0.3, -1.1, 2.4)
    r = b.rotation()
    assert r is b.rotation()
    assert r.tobytes() == rotation_matrix(b.alpha, b.beta, b.gamma).tobytes()
    assert not r.flags.writeable
    with pytest.raises(ValueError):
        r[0, 0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.alpha = 0.0


def test_corners_of_axis_aligned_cube():
    c = box_corners(unit_cube())
    expected = np.array([[sx, sy, sz] for sx in (-0.5, 0.5) for sy in (-0.5, 0.5) for sz in (-0.5, 0.5)])
    np.testing.assert_allclose(c, expected, atol=1e-15)


def test_corners_land_inside_and_center_contained():
    rng = make_rng(223)
    for _ in range(20):
        box = random_box(rng)
        corners = box_corners(box)
        # containment is an exact boundary test, so probe just inside and
        # just outside rather than exactly on the rounded corner
        inside = box.center + (corners - box.center) * 0.999999
        outside = box.center + (corners - box.center) * 1.000001
        assert contains_points(box, inside).all()
        assert not contains_points(box, outside).any()
        assert contains_points(box, box.center).all()


def test_contains_boundary_inclusive():
    assert contains_points(unit_cube(), [[0.5, 0.0, 0.0], [0.5 + 1e-9, 0.0, 0.0]]).tolist() \
        == [True, False]


def test_iou_identical_boxes_is_one():
    # exact 1.0 for the axis-aligned case; within float roundoff of the
    # clipped polytope volume for arbitrary rotations
    assert box_iou_exact(unit_cube(), unit_cube()) == 1.0
    rng = make_rng(227)
    for _ in range(10):
        box = random_box(rng)
        assert abs(box_iou_exact(box, box) - 1.0) < 1e-12


def test_iou_disjoint_boxes_is_zero():
    a = unit_cube()
    b = unit_cube(x=5.0)
    assert box_iou_exact(a, b) == 0.0


def test_iou_half_shift_is_one_third():
    a = unit_cube()
    b = unit_cube(x=0.5)
    assert abs(box_iou_exact(a, b) - 1.0 / 3.0) < 1e-9


def test_iou_yawed_cube_is_inverse_sqrt2():
    # unit cube vs itself yawed 45 degrees: the cross-section is a regular
    # octagon of area 2*sqrt(2) - 2, giving IoU exactly 1/sqrt(2)
    a = unit_cube()
    b = unit_cube(alpha=np.pi / 4)
    assert abs(box_iou_exact(a, b) - 1.0 / np.sqrt(2.0)) < 1e-9


def test_iou_contained_box():
    outer = unit_cube(l=2.0, w=2.0, h=2.0)
    inner = unit_cube(alpha=0.3, beta=0.1)
    iou = box_iou_exact(outer, inner)
    assert abs(iou - inner.volume / outer.volume) < 1e-9


def test_intersection_volume_symmetry_and_bounds():
    rng = make_rng(229)
    for _ in range(40):
        a = random_box(rng)
        b = random_box(rng)
        v_ab = intersection_volume(a, b)
        v_ba = intersection_volume(b, a)
        assert abs(v_ab - v_ba) < 1e-9
        assert -1e-12 <= v_ab <= min(a.volume, b.volume) + 1e-9
        iou = box_iou_exact(a, b)
        assert 0.0 <= iou <= 1.0


def test_iou_invariant_under_rigid_motion():
    rng = make_rng(233)
    shift = np.array([1.3, -0.7, 2.1])
    yaw = 0.83
    r = rotation_matrix(yaw, 0.0, 0.0)
    for _ in range(15):
        a = random_box(rng)
        b = random_box(rng)
        before = box_iou_exact(a, b)

        def moved(box):
            c = r @ box.center + shift
            return Box9DoF(c[0], c[1], c[2], box.l, box.w, box.h,
                           box.alpha + yaw, box.beta, box.gamma)

        # yaw composition is only exact for yaw-only boxes; zero the tilts
        a2 = Box9DoF(a.x, a.y, a.z, a.l, a.w, a.h, a.alpha, 0.0, 0.0)
        b2 = Box9DoF(b.x, b.y, b.z, b.l, b.w, b.h, b.alpha, 0.0, 0.0)
        before = box_iou_exact(a2, b2)
        after = box_iou_exact(moved(a2), moved(b2))
        assert abs(before - after) < 1e-9


def test_mc_identical_boxes_exact_one():
    box = unit_cube(alpha=0.4, beta=-0.2, gamma=0.9)
    est, se = box_iou_mc(box, box, samples=5000, seed=3)
    assert est == 1.0
    assert se > 0.0


def test_mc_disjoint_boxes_zero():
    est, _ = box_iou_mc(unit_cube(), unit_cube(x=4.0), samples=5000, seed=3)
    assert est == 0.0


def test_mc_agrees_with_exact_on_random_pairs():
    rng = make_rng(239)
    for _ in range(25):
        a = random_box(rng)
        b = random_box(rng, center_scale=0.6)
        exact = box_iou_exact(a, b)
        est, se = box_iou_mc(a, b, samples=40_000, seed=int(rng.integers(0, 2**31)))
        assert abs(exact - est) <= 4.0 * max(se, 1e-4)


def test_mc_seed_determinism():
    a = unit_cube()
    b = unit_cube(x=0.3, alpha=0.5)
    r1 = box_iou_mc(a, b, samples=10_000, seed=7)
    r2 = box_iou_mc(a, b, samples=10_000, seed=7)
    assert r1 == r2


def test_degenerate_clip_falls_back_to_mc(monkeypatch):
    a = unit_cube()
    b = unit_cube(x=0.5)

    def boom(x, y):
        raise boxes_mod._DegenerateClip("forced")

    monkeypatch.setattr(boxes_mod, "intersection_volume", boom)
    with pytest.warns(DegenerateClipWarning):
        iou = boxes_mod.box_iou_exact(a, b)
    assert abs(iou - 1.0 / 3.0) < 5e-3


# ---------------------------------------------------------------------------
# separating-axis exit
# ---------------------------------------------------------------------------


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _face_to_face(gap: float, yaw: float):
    """Two boxes in one yawed frame whose facing sides are `gap` apart."""
    a = Box9DoF(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, yaw, 0.0, 0.0)
    d = 0.5 + 0.3 + gap
    b = Box9DoF(d * np.cos(yaw), d * np.sin(yaw), 0.2, 0.6, 0.8, 0.6, yaw, 0.0, 0.0)
    return a, b


def _edge_to_edge(gap: float):
    """a's top edge runs along x, b's bottom edge along y, `gap` apart in z.

    Only the axis z = x cross y separates them; no face normal does, and
    their bounding spheres overlap.
    """
    a = Box9DoF(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, np.pi / 4)
    b = Box9DoF(0.0, 0.0, np.sqrt(2.0) + gap, 1.0, 1.0, 1.0, 0.0, np.pi / 4, 0.0)
    return a, b


def _face_axis_gaps(a, b):
    """Gap along each of the six face normals (positive means separated)."""
    t = b.center - a.center
    gaps = []
    for axis in np.hstack([a.rotation(), b.rotation()]).T:
        radii = sum(np.abs(box.rotation().T @ axis) @ (box.extents / 2.0) for box in (a, b))
        gaps.append(abs(t @ axis) - radii)
    return np.array(gaps)


def _sat_pairs():
    rng = make_rng(241)
    pairs = []
    for _ in range(300):
        a = random_box(rng)
        b = random_box(rng, center_scale=1.6)
        pairs.append((a, b))
    for gap in (0.0, 1e-13, 1e-10, 1e-6):
        for yaw in (0.0, 0.7):
            pairs.append(_face_to_face(gap, yaw))
    pairs.append(_edge_to_edge(0.05))
    pairs.append(_edge_to_edge(1e-13))
    # parallel edges: same orientation, offset diagonally; disjoint, then overlapping
    pairs.append((unit_cube(alpha=0.4, beta=0.2), unit_cube(x=1.2, y=0.3, alpha=0.4, beta=0.2)))
    pairs.append((unit_cube(alpha=0.4), unit_cube(x=0.6, y=0.3, alpha=0.4)))
    return pairs


def test_separating_axis_exit_is_bit_identical_to_clip(monkeypatch):
    pairs = _sat_pairs()
    fast = [(intersection_volume(a, b), box_iou_exact(a, b)) for a, b in pairs]
    exits = sum(boxes_mod._separated(a, b) for a, b in pairs)
    monkeypatch.setattr(boxes_mod, "_separated", lambda a, b: False)
    clipped = [(intersection_volume(a, b), box_iou_exact(a, b)) for a, b in pairs]
    for i, (f, c) in enumerate(zip(fast, clipped)):
        assert _bits(f[0]) == _bits(c[0]) and _bits(f[1]) == _bits(c[1]), (i, f, c)
    assert 50 <= exits < len(pairs)
    assert any(c[0] > 0.0 for c in clipped)


def test_separating_axis_exit_keeps_near_contact_on_the_clip():
    for yaw in (0.0, 0.7):
        for gap in (0.0, 1e-13, 1e-10):
            assert not boxes_mod._separated(*_face_to_face(gap, yaw))
        assert boxes_mod._separated(*_face_to_face(1e-6, yaw))
    assert not boxes_mod._separated(*_edge_to_edge(1e-13))


def test_edge_cross_axis_alone_separates():
    a, b = _edge_to_edge(0.05)
    assert (_face_axis_gaps(a, b) < 0.0).all()
    assert np.linalg.norm(b.center - a.center) < (np.linalg.norm(a.extents)
                                                  + np.linalg.norm(b.extents)) / 2.0
    assert boxes_mod._separated(a, b)
    assert box_iou_exact(a, b) == 0.0


def test_disjoint_pair_skips_the_clip(monkeypatch):
    def boom(*args):
        raise AssertionError("clip reached for a disjoint pair")

    monkeypatch.setattr(boxes_mod, "_clip_faces", boom)
    for a, b in [(unit_cube(), unit_cube(x=5.0)), _edge_to_edge(0.05), _face_to_face(1e-6, 0.7)]:
        assert box_iou_exact(a, b) == 0.0
        assert intersection_volume(b, a) == 0.0
