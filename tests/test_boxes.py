import dataclasses
import hashlib
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import egoground.boxes as boxes_mod
from egoground.autodiff import NonFiniteError, make_rng
from egoground.boxes import (
    Box9DoF,
    box_corners,
    box_iou_exact,
    box_iou_mc,
    boxes_disjoint,
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
    with pytest.raises(NonFiniteError, match="box parameters must be finite"):
        Box9DoF(0, 0, 0, 1, 1, np.nan)
    with pytest.raises(NonFiniteError, match="box parameters must be finite"):
        Box9DoF(0, 0, 0, -1.0, 1, 1, gamma=np.inf)
    b = Box9DoF(0, 0, 0, 1, 1, 1, alpha=2 * np.pi)
    assert b.alpha == pytest.approx(0.0, abs=1e-12)
    # every field, as a float and as a numpy scalar
    good = [0.1, -0.2, 0.3, 1.0, 0.5, 2.0, 0.4, -0.5, 0.6]
    for k in range(9):
        for bad in (np.nan, np.inf, -np.inf):
            for value in (bad, np.float64(bad)):
                params = list(good)
                params[k] = value
                with pytest.raises(NonFiniteError, match="box parameters must be finite"):
                    Box9DoF(*params)
    for k in (3, 4, 5):
        for bad in (0.0, -0.0, -1.0, np.float64(-1e-300), 0):
            params = list(good)
            params[k] = bad
            with pytest.raises(ValueError, match="box extents must be positive"):
                Box9DoF(*params)


def test_box_angles_are_wrap_angle_bytes_for_floats_and_numpy_scalars():
    near = [np.nextafter(edge, toward) for edge in (np.pi, -np.pi) for toward in (0.0, 4.0 * edge)]
    angles = np.array([-0.0, 0.0, np.pi, -np.pi, 7.0, -7.0, 2.0 * np.pi, 1e-300, -1e-300,
                       *near, *make_rng(659).uniform(-10.0, 10.0, 30)])
    want = np.repeat(wrap_angle(angles)[:, None], 3, axis=1)
    for cast in (float, np.float64):
        got = np.array([Box9DoF(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, *[cast(a)] * 3).as_params()[6:]
                        for a in angles])
        assert got.tobytes() == want.tobytes(), cast
    rows = np.column_stack([np.zeros((len(angles), 3)), np.ones((len(angles), 3)),
                            angles, angles[::-1], -angles])
    for row in rows:  # a model's row builds the same box from numpy scalars or its tolist()
        assert Box9DoF(*row.tolist()).as_params().tobytes() == Box9DoF(*row).as_params().tobytes()


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


# The clip runs on Python floats, so both IoU goldens hold under every FMA
# kernel of OpenBLAS (test_iou_goldens_agree_across_fma_kernels).
RANDOM_PAIRS_DIGEST = "26d3ada47d0e6bcc3fc39270ebb0fa96650508185b89f1878ebef01aabde8d5c"
EVAL_PAIRS_DIGEST = "c0df57ee48d888850a8d6da3be9012376164df9a92c745679262cc9eeae92196"


def _digest(ious) -> str:
    return hashlib.sha256("\n".join(float.hex(iou) for iou in ious).encode()).hexdigest()


def _random_pair_ious() -> list[float]:
    rng = make_rng(647)
    return [box_iou_exact(random_box(rng), random_box(rng, center_scale=0.6))
            for _ in range(2_000)]


def test_iou_bytes_golden_on_random_pairs():
    # where no vertex lies within 1e-12 of a clip plane, the clip's bytes
    # are those of its arithmetic alone
    ious = _random_pair_ious()
    assert sum(iou > 0.0 for iou in ious) == 1179
    assert _digest(ious) == RANDOM_PAIRS_DIGEST


def test_negative_clip_volume_raises_naming_both_boxes(monkeypatch):
    a, b = unit_cube(), unit_cube(x=0.5, w=2.0)
    monkeypatch.setattr(boxes_mod, "_polytope_volume", lambda faces: -1e-6)
    with pytest.raises(RuntimeError, match="negative volume") as err:
        box_iou_exact(a, b)
    assert repr(a) in str(err.value) and repr(b) in str(err.value)


# ---------------------------------------------------------------------------
# coincident faces
# ---------------------------------------------------------------------------


def _quantised_pair(rng, kind):
    """A box against the unit cube: centre on a 0.25 grid, extents on a 0.5 grid.

    Its rotation is zero, quarter turns, or a yaw of 1e-14 to 1e-6.  Returns
    (centre, extents, angles, IoU of the axis-aligned overlap); the overlap
    is exact for quarter turns and within about 1e-7 for the tiny yaws.
    """
    centre = rng.integers(-6, 7, size=3) * 0.25
    ext = rng.integers(1, 5, size=3) * 0.5
    if kind == "zero":
        angles = np.zeros(3)
    elif kind == "quarter":
        angles = rng.integers(-1, 3, size=3) * (np.pi / 2.0)
    else:
        angles = np.array([rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14.0, -6.0), 0.0, 0.0])
    aligned = np.round(np.abs(rotation_matrix(*angles))) @ ext
    lo = np.maximum(-0.5, centre - aligned / 2.0)
    hi = np.minimum(0.5, centre + aligned / 2.0)
    inter = float(np.prod(np.clip(hi - lo, 0.0, None)))
    return centre, ext, angles, inter / (1.0 + float(np.prod(ext)) - inter)


@pytest.mark.parametrize("moved", [False, True])
@pytest.mark.parametrize("kind,tol", [("zero", 1e-9), ("quarter", 1e-9), ("tiny", 1e-6)])
def test_coincident_faces_match_the_analytic_overlap(monkeypatch, kind, tol, moved):
    def no_estimate(*args, **kwargs):
        raise AssertionError("exact IoU called the Monte-Carlo oracle")

    monkeypatch.setattr(boxes_mod, "box_iou_mc", no_estimate)
    rng = make_rng({"zero": 701, "quarter": 709, "tiny": 719}[kind] + moved)
    touching = 0
    for i in range(1_000):
        centre, ext, angles, want = _quantised_pair(rng, kind)
        yaw, shift = 0.0, np.zeros(3)
        if moved:  # one rigid motion for both boxes: a yaw adds to alpha
            yaw, shift = rng.uniform(-np.pi, np.pi), rng.uniform(-2.0, 2.0, size=3)
        r = rotation_matrix(yaw, 0.0, 0.0)
        a = Box9DoF(*shift, 1.0, 1.0, 1.0, yaw, 0.0, 0.0)
        b = Box9DoF(*(r @ centre + shift), *ext, angles[0] + yaw, angles[1], angles[2])
        got = box_iou_exact(a, b)
        assert abs(got - want) <= tol, (i, centre, ext, angles, got, want)
        if want == 0.0 and kind != "tiny":
            assert got == 0.0, (i, centre, ext, angles, got)
            touching += not boxes_disjoint(a, b)
    if kind != "tiny":
        assert touching >= 50


def test_near_coincident_faces_give_iou_near_one():
    # a box against itself with a few parameters nudged: faces that nearly
    # coincide and cross each other, some within the clip tolerance
    rng = make_rng(727)
    for i in range(1_200):
        p = np.concatenate([rng.uniform(-3.0, 3.0, 3), rng.uniform(0.3, 1.5, 3),
                            rng.uniform(-np.pi, np.pi, 3) * (i % 2)])
        lo, hi = (-12.5, -11.0) if i % 4 < 2 else (-15.0, -8.0)
        nudge = rng.choice([-1.0, 1.0], 9) * 10.0 ** rng.uniform(lo, hi, 9)
        q = p + nudge * (rng.random(9) < 0.5)
        assert box_iou_exact(Box9DoF(*p), Box9DoF(*q)) > 1.0 - 1e-6, (i, p.tolist(), q.tolist())


def test_clip_returns_faces_untouched_when_every_vertex_is_strictly_inside():
    corners = box_corners(unit_cube()).tolist()
    faces = [(list(face), [corners[k] for k in face]) for face in boxes_mod._FACES]
    for normal, offset, basis in unit_cube(l=1.5, w=1.5, h=1.5)._planes:
        out = boxes_mod._clip_faces(faces, normal, offset, basis)
        assert out is faces
        assert all(ids is ids0 and pts is pts0 for (ids, pts), (ids0, pts0) in zip(out, faces))
    # one vertex within the tolerance of the plane is not strictly inside
    normal, _, basis = unit_cube()._planes[0]
    assert normal == (1.0, 0.0, 0.0)
    out = boxes_mod._clip_faces(faces, normal, 0.5 + 1e-13, basis)
    assert out is not faces


def _inline_planes(box):
    """The clip planes built inline, in Python floats, in ``_planes``' order."""
    r = box.rotation().tolist()
    planes = []
    for axis, half in enumerate((box.l / 2.0, box.w / 2.0, box.h / 2.0)):
        n = (r[0][axis], r[1][axis], r[2][axis])
        d = n[0] * box.x + n[1] * box.y + n[2] * box.z
        for normal, offset in ((n, d + half), ((-n[0], -n[1], -n[2]), -d + half)):
            k = min(range(3), key=lambda i: abs(normal[i]))
            u = [float(i == k) for i in range(3)]
            f1 = [normal[1] * u[2] - normal[2] * u[1], normal[2] * u[0] - normal[0] * u[2],
                  normal[0] * u[1] - normal[1] * u[0]]
            norm = math.sqrt(f1[0] * f1[0] + f1[1] * f1[1] + f1[2] * f1[2])
            f1 = [v / norm for v in f1]
            f2 = [normal[1] * f1[2] - normal[2] * f1[1], normal[2] * f1[0] - normal[0] * f1[2],
                  normal[0] * f1[1] - normal[1] * f1[0]]
            planes.append((normal, offset, f1, f2))
    return planes


def _bits_of(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def test_cached_plane_basis_equals_the_inline_basis_bytes():
    rng = make_rng(661)
    for box in [unit_cube(), unit_cube(alpha=np.pi / 2)] + [random_box(rng) for _ in range(50)]:
        planes = box._planes
        assert planes is box._planes
        for (normal, offset, (e1, e2)), (n, off, f1, f2) in zip(planes, _inline_planes(box)):
            assert all(type(v) is float for v in (*normal, offset, *e1, *e2))
            assert _bits_of(normal) == _bits_of(n) and _bits_of([offset]) == _bits_of([off])
            assert _bits_of(e1) == _bits_of(f1) and _bits_of(e2) == _bits_of(f2)
            # and within rounding of the np.cross construction
            ref = np.eye(3)[np.argmin(np.abs(n))]
            g1 = np.cross(n, ref)
            g1 /= np.linalg.norm(g1)
            np.testing.assert_allclose(e1, g1, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(e2, np.cross(n, g1), rtol=0.0, atol=1e-15)
        assert len(planes) == 6


def test_clip_cut_divides_by_one_distance_per_vertex():
    # v and u are on the plane z = 0 and take sides in the crossing face
    # (a, v, b, u); the first face's copies of them disagree and sit at the
    # same distance, 0.0, so its cut of v-u must use one copy per vertex
    first = (["v", "u", "c"], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, -1.0]])
    crossing = (["a", "v", "b", "u"], [[0.0, -1.0, -1.0], [0.0, 0.0, -2e-13],
                                       [1.0, -1.0, 1.0], [1.0, 0.0, 3e-13]])
    normal, _, basis = unit_cube()._planes[4]
    assert normal == (0.0, 0.0, 1.0)
    faces = boxes_mod._clip_faces([first, crossing], normal, 0.0, basis)
    ids, points = faces[0]
    assert ids[:2] == ["v", frozenset({"v", "u"})]
    np.testing.assert_allclose(points[1], [0.4, 0.0, 0.0], atol=1e-15)
    assert all(np.isfinite(pts).all() for _, pts in faces)


def test_face_on_a_plane_it_does_not_cross_gets_no_second_facet():
    # b's top plane is tilted by 1.8e-12 so that three corners of a's top
    # face are within the clip tolerance of it and the fourth is inside:
    # a's face stays, and no cap is laid over it
    a = unit_cube()
    b = Box9DoF(1.25, 0.0, -0.25 - 1.35e-12, 3.0, 3.0, 1.5, 0.0, 1.8e-12, -1.8e-12)
    normal, offset, _ = b._planes[4]
    dist = box_corners(a)[[1, 3, 7, 5]] @ np.array(normal) - offset
    assert sorted(np.abs(dist) <= 1e-12) == [False, True, True, True] and dist.min() < -1e-12
    assert abs(box_iou_exact(a, b) - 0.75 / 13.75) < 1e-12


def test_touching_and_tiny_yaw_examples():
    a = unit_cube()
    assert box_iou_exact(a, unit_cube(x=1.0)) == 0.0
    assert box_iou_exact(a, unit_cube(x=1.0, y=0.25, z=-0.5, l=1.0, w=2.0)) == 0.0
    assert intersection_volume(a, unit_cube(x=1.0)) == 0.0
    b = Box9DoF(0.25, 0.75, 0.5, 1.5, 1.5, 1.5, 1e-12, 0.0, 0.0)
    assert abs(box_iou_exact(a, b) - 0.09375) < 1e-9
    # two faces on one plane: the same unit cube and a half-height box on its floor
    assert abs(box_iou_exact(a, unit_cube(z=-0.25, h=0.5)) - 0.5) < 1e-15


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="clipping the larger box first leaves a sliver 1.3e-8 thick with two "
                          "facets on the smaller box's x = -0.5 plane: negative volume -3.2e-9")
def test_touching_pair_with_yaws_1e8_apart_clips_in_both_orders():
    a = Box9DoF(0.30620381421754894, 1.1263046927047617, -1.3505532679869598,
                1.0, 1.0, 1.0, -0.4679271483459364)
    b = Box9DoF(-0.5839089960653405, 2.136353792981722, -0.8505532679869598,
                1.5, 1.0, 1.0, -0.46792715888322867)
    assert intersection_volume(a, b) == 0.0
    assert abs(intersection_volume(b, a)) <= 1e-9
    assert abs(box_iou_exact(b, a) - box_iou_exact(a, b)) <= 1e-9


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
    exits = sum(boxes_mod.boxes_disjoint(a, b) for a, b in pairs)
    monkeypatch.setattr(boxes_mod, "boxes_disjoint", lambda a, b: False)
    clipped = [(intersection_volume(a, b), box_iou_exact(a, b)) for a, b in pairs]
    for i, (f, c) in enumerate(zip(fast, clipped)):
        assert _bits(f[0]) == _bits(c[0]) and _bits(f[1]) == _bits(c[1]), (i, f, c)
    assert 50 <= exits < len(pairs)
    assert any(c[0] > 0.0 for c in clipped)


def test_separating_axis_exit_keeps_near_contact_on_the_clip():
    for yaw in (0.0, 0.7):
        for gap in (0.0, 1e-13, 1e-10):
            assert not boxes_mod.boxes_disjoint(*_face_to_face(gap, yaw))
        assert boxes_mod.boxes_disjoint(*_face_to_face(1e-6, yaw))
    assert not boxes_mod.boxes_disjoint(*_edge_to_edge(1e-13))


def test_edge_cross_axis_alone_separates():
    a, b = _edge_to_edge(0.05)
    assert (_face_axis_gaps(a, b) < 0.0).all()
    assert np.linalg.norm(b.center - a.center) < (np.linalg.norm(a.extents)
                                                  + np.linalg.norm(b.extents)) / 2.0
    assert boxes_mod.boxes_disjoint(a, b)
    assert box_iou_exact(a, b) == 0.0


def _grown_scene_box(rng):
    """A candidate box with generate_scene's default draws, grown by its 0.1 clearance."""
    l, w = rng.uniform(0.35, 0.9, size=2)
    h = rng.uniform(0.3, 0.8)
    cx, cy = rng.uniform(-1.3, 1.3, size=2)
    cz = rng.uniform(h / 2.0 + 0.02, 2.4 - h / 2.0 - 0.8)
    alpha = rng.uniform(-np.pi, np.pi)
    beta, gamma = rng.uniform(-0.2, 0.2, size=2)
    return Box9DoF(cx, cy, cz, l + 0.1, w + 0.1, h + 0.1, alpha, beta, gamma)


def test_boxes_disjoint_agrees_with_exact_iou_on_scene_boxes(monkeypatch):
    rng = make_rng(613)
    pairs = [(_grown_scene_box(rng), _grown_scene_box(rng)) for _ in range(2_000)]
    disjoint = [boxes_disjoint(a, b) for a, b in pairs]
    # judge the predicate by the clip alone, not by IoU's exit through it;
    # pairs whose bounding spheres are apart need no clip to be disjoint
    monkeypatch.setattr(boxes_mod, "boxes_disjoint", lambda a, b: False)
    near = 0
    for i, (a, b) in enumerate(pairs):
        reach = (np.linalg.norm(a.extents) + np.linalg.norm(b.extents)) / 2.0
        if np.linalg.norm(b.center - a.center) > reach + 1e-6:
            assert disjoint[i], i
            continue
        near += 1
        iou = box_iou_exact(a, b)
        assert disjoint[i] == (iou == 0.0), (i, iou)
    assert 200 <= disjoint.count(False) < near < 1_800


def _predicted_near(rng, gt):
    """A prediction box near ``gt``: shifted, rescaled and turned a little."""
    centre = gt.center + rng.uniform(-0.4, 0.4, size=3)
    ext = gt.extents * rng.uniform(0.5, 1.5, size=3)
    alpha = gt.alpha + rng.uniform(-0.6, 0.6)
    beta, gamma = rng.uniform(-0.2, 0.2, size=2)
    return Box9DoF(*centre, *ext, alpha, beta, gamma)


def _eval_shaped_ious() -> list[float]:
    rng = make_rng(653)
    ious = []
    for _ in range(2_400):
        gt = _grown_scene_box(rng)
        ious.append(box_iou_exact(_predicted_near(rng, gt), gt))
    return ious


def test_iou_bytes_golden_on_eval_shaped_pairs():
    # overlapping prediction / ground-truth pairs as the eval reports score
    # them, where the clip decides nearly every byte
    ious = _eval_shaped_ious()
    assert sum(iou > 0.0 for iou in ious) == 2393
    assert _digest(ious) == EVAL_PAIRS_DIGEST


def _fma_kernels() -> list[str]:
    """The OpenBLAS FMA kernels this host's CPU can run, by numpy's CPU features."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except ImportError:
        return []
    kernels = []
    if cpu.get("AVX2") and cpu.get("FMA3"):
        kernels.append("Haswell")
    if cpu.get("AVX512F"):
        kernels.append("SkylakeX")
    return kernels


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS kernel names are x86-64's")
@pytest.mark.skipif(not _numpy_uses_openblas(), reason="numpy is not linked to OpenBLAS")
def test_iou_goldens_agree_across_fma_kernels():
    # one process per kernel, each forcing it with OPENBLAS_CORETYPE: the
    # clip's bytes must not depend on which one the host picks
    kernels = _fma_kernels()
    if not kernels:
        pytest.skip("this CPU runs no FMA kernel of OpenBLAS")
    tests_dir = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir)])
    code = ("import test_boxes as t; "
            "print(t._digest(t._random_pair_ious()), t._digest(t._eval_shaped_ious()))")
    procs = {}
    for kernel in kernels[:3]:
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": kernel}
        procs[kernel] = subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    digests = {}
    for kernel, proc in procs.items():
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, (kernel, err)
        digests[kernel] = out.split()
    assert digests == {k: [RANDOM_PAIRS_DIGEST, EVAL_PAIRS_DIGEST] for k in procs}


def test_boxes_disjoint_pairs_have_no_monte_carlo_joint_hit():
    rng = make_rng(617)
    checked = 0
    while checked < 150:
        a = random_box(rng)
        b = random_box(rng, center_scale=1.2)
        reach = (np.linalg.norm(a.extents) + np.linalg.norm(b.extents)) / 2.0
        if np.linalg.norm(b.center - a.center) >= reach or not boxes_disjoint(a, b):
            continue  # keep pairs that only an axis test separates
        assert box_iou_mc(a, b, samples=20_000, seed=checked)[0] == 0.0, checked
        checked += 1


def test_disjoint_pair_skips_the_clip(monkeypatch):
    def boom(*args):
        raise AssertionError("clip reached for a disjoint pair")

    monkeypatch.setattr(boxes_mod, "_clip_faces", boom)
    for a, b in [(unit_cube(), unit_cube(x=5.0)), _edge_to_edge(0.05), _face_to_face(1e-6, 0.7)]:
        assert box_iou_exact(a, b) == 0.0
        assert intersection_volume(b, a) == 0.0
