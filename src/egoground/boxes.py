"""Oriented 9-DoF boxes and their overlap.

A box is (x, y, z, l, w, h, alpha, beta, gamma) with rotation
R = Rz(alpha) @ Ry(beta) @ Rx(gamma) applied to the local axes; l, w, h are
full extents along local x, y, z.  Angles are stored wrapped to (-pi, pi].
Boxes are frozen, so each builds its rotation matrix once and shares it
read-only.

``boxes_disjoint`` is the overlap predicate: a bounding-sphere test, then
the 15 separating axes of two oriented boxes (Gottschalk et al., 1996,
"OBBTree"): the three face normals of each box and the nine cross products
of their edges, skipping cross products of (nearly) parallel edges, which
the face axes cover.  It is True only when the gap on some axis exceeds
1e-9 of the projected radii plus 1e-9 of a unit length, a thousand times
the clip tolerance, so the exact IoU is exactly 0.  False means the boxes
overlap or are within that margin of touching.  Exact IoU uses it as its
early exit; touching and near-touching pairs still clip.

Otherwise IoU clips one box's face polygons against the other box's six
halfspaces (Sutherland-Hodgman in 3D) and integrates the volume of the
intersection polytope with the divergence theorem over triangulated faces.
Points within 1e-12 of a clip plane count as inside, so coincident faces do
not chatter.  If the clip degenerates numerically the routine falls back to
the Monte-Carlo estimate and emits ``DegenerateClipWarning``.

``box_iou_mc`` is the independent oracle: rejection sampling in the joint
axis-aligned bounding volume.  Its standard error uses the adjusted
proportion (n_hit + 2) / (n_union + 4), which behaves sensibly when the
estimate sits at 0 or 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .autodiff import NonFiniteError, make_rng

Array = np.ndarray

_CLIP_TOL = 1e-12
_SAT_MARGIN = 1e-9
_PARALLEL_TOL = 1e-6  # cross products shorter than this are parallel edges
_MC_CHUNK = 32_768  # Monte-Carlo sample rows drawn and tested at a time

# corner index = 4 * (sx > 0) + 2 * (sy > 0) + (sz > 0); each face is a
# vertex cycle of one cube side in that numbering
_FACES = (
    (0, 1, 3, 2),  # local x = -l/2
    (4, 5, 7, 6),  # local x = +l/2
    (0, 1, 5, 4),  # local y = -w/2
    (2, 3, 7, 6),  # local y = +w/2
    (0, 2, 6, 4),  # local z = -h/2
    (1, 3, 7, 5),  # local z = +h/2
)


class DegenerateClipWarning(UserWarning):
    """Exact clipping hit a numerically degenerate configuration."""


class _DegenerateClip(Exception):
    pass


def wrap_angle(a):
    """Wrap a float or an array of them to (-pi, pi]."""
    w = a - 2.0 * np.pi * np.ceil((a - np.pi) / (2.0 * np.pi))
    return w - 2.0 * np.pi * (w > np.pi)  # rounding can land one ulp above pi


def rotation_matrix(alpha: float, beta: float, gamma: float) -> Array:
    """R = Rz(alpha) @ Ry(beta) @ Rx(gamma)."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cg, -sg], [0.0, sg, cg]])
    return rz @ ry @ rx


@dataclass(frozen=True)
class Box9DoF:
    """An immutable box; its rotation matrix is built once, on first use."""
    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not (self.l > 0.0 and self.w > 0.0 and self.h > 0.0):
            raise ValueError("box extents must be positive")
        vals = [self.x, self.y, self.z, self.l, self.w, self.h, self.alpha, self.beta, self.gamma]
        if not np.isfinite(vals).all():
            raise NonFiniteError("box parameters must be finite")
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, wrap_angle(getattr(self, name)))

    @property
    def center(self) -> Array:
        return np.array([self.x, self.y, self.z])

    @property
    def extents(self) -> Array:
        return np.array([self.l, self.w, self.h])

    @property
    def volume(self) -> float:
        return self.l * self.w * self.h

    def rotation(self) -> Array:
        """R, shared by every caller and therefore read-only."""
        return self._rotation

    @cached_property
    def _rotation(self) -> Array:
        r = rotation_matrix(self.alpha, self.beta, self.gamma)
        r.flags.writeable = False
        return r

    def as_params(self) -> Array:
        return np.array([self.x, self.y, self.z, self.l, self.w, self.h,
                         self.alpha, self.beta, self.gamma])


def box_corners(box: Box9DoF) -> Array:
    """All eight corners, ordered by the sign pattern of the local axes."""
    half = box.extents / 2.0
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                     dtype=np.float64)
    return box.center + (signs * half) @ box.rotation().T


def contains_points(box: Box9DoF, points: Array) -> Array:
    """Boundary-inclusive containment test for an (M, 3) array."""
    local = np.abs((np.atleast_2d(points) - box.center) @ box.rotation())
    half = box.extents / 2.0
    # one test per column: numpy's .all(axis=1) over rows of three is slower
    return (local[:, 0] <= half[0]) & (local[:, 1] <= half[1]) & (local[:, 2] <= half[2])


def _halfspaces(box: Box9DoF):
    """Six (normal, offset) pairs; x is inside iff normal . x <= offset."""
    r = box.rotation()
    c = box.center
    half = box.extents / 2.0
    planes = []
    for axis in range(3):
        n = r[:, axis]
        planes.append((n, float(n @ c + half[axis])))
        planes.append((-n, float(-n @ c + half[axis])))
    return planes


def _cross(u: Array, v: Array) -> Array:
    """np.cross of (..., 3) arrays, elementwise the same products and differences."""
    return np.stack([u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1],
                     u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2],
                     u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]], axis=-1)


def _face_polygons(box: Box9DoF) -> list[Array]:
    corners = box_corners(box)
    return [corners[list(face)] for face in _FACES]


def _clip_faces(faces: list[Array], normal: Array, offset: float) -> list[Array]:
    """Sutherland-Hodgman clip of a convex polytope's faces by one halfspace."""
    kept: list[Array] = []
    cap_points: list[Array] = []
    any_outside = False
    for poly in faces:
        dist = poly @ normal - offset
        inside = dist <= _CLIP_TOL
        if inside.all():
            kept.append(poly)
            continue
        any_outside = True
        if not inside.any():
            continue
        out_pts = []
        n = len(poly)
        for i in range(n):
            p, dp = poly[i], dist[i]
            q, dq = poly[(i + 1) % n], dist[(i + 1) % n]
            p_in = dp <= _CLIP_TOL
            q_in = dq <= _CLIP_TOL
            if p_in:
                out_pts.append(p)
                if abs(dp) <= _CLIP_TOL:
                    cap_points.append(p)
            if p_in != q_in:
                denom = dp - dq
                if abs(denom) < _CLIP_TOL:
                    raise _DegenerateClip("edge parallel to clip plane")
                t = dp / denom
                r = p + t * (q - p)
                out_pts.append(r)
                cap_points.append(r)
        if len(out_pts) >= 3:
            kept.append(np.asarray(out_pts))
    if any_outside and cap_points:
        cap = _dedupe_points(np.asarray(cap_points))
        if cap.shape[0] >= 3:
            kept.append(_order_planar_cycle(cap, normal))
    return kept


def _dedupe_points(points: Array, tol: float = 1e-9) -> Array:
    """Drop each point within tol of an earlier kept point."""
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    keep: list[int] = []
    for i in range(len(points)):
        if not (dist[i, keep] <= tol).any():
            keep.append(i)
    return points[keep]


def _order_planar_cycle(points: Array, normal: Array) -> Array:
    """Order coplanar points of a convex polygon into a cycle."""
    centroid = points.mean(axis=0)
    ref = np.eye(3)[np.argmin(np.abs(normal))]
    e1 = _cross(normal, ref)
    e1 /= np.linalg.norm(e1)
    e2 = _cross(normal, e1)
    rel = points - centroid
    angles = np.arctan2(rel @ e2, rel @ e1)
    return points[np.argsort(angles, kind="stable")]


def _polytope_volume(faces: list[Array]) -> float:
    """Volume of a convex polytope given its (unordered-orientation) faces."""
    if len(faces) < 4:
        return 0.0
    centroid = np.concatenate(faces).mean(axis=0)
    volume = 0.0
    for poly in faces:
        if poly.shape[0] < 3:
            continue
        # edge[k] = poly[k] x poly[k + 1]: summed, the Newell normal; its
        # middle rows, the fan from poly[0]
        edge = _cross(poly, np.roll(poly, -1, axis=0))
        normal = np.sum(edge, axis=0)
        norm = np.linalg.norm(normal)
        if norm < _CLIP_TOL:
            continue
        if normal @ (poly.mean(axis=0) - centroid) < 0.0:
            # the reversed cycle's fan from poly[-1]: the same crosses negated,
            # in reverse order (negation is exact)
            for fan in edge[-3::-1]:
                volume -= np.dot(poly[-1], fan)
        else:
            for fan in edge[1:-1]:
                volume += np.dot(poly[0], fan)
    return volume / 6.0


def boxes_disjoint(a: Box9DoF, b: Box9DoF) -> bool:
    """True when a separating axis shows a clear gap, so the exact IoU is 0.

    The axes are taken in a's frame, where c[i][j] = a_i . b_j and t is b's
    centre; the edge axis a_i x b_j has length sqrt(1 - c[i][j]**2), and the
    projected radii follow Gottschalk et al. (1996).  A gap counts when it
    exceeds _SAT_MARGIN of the projected radii plus _SAT_MARGIN of the axis
    length.
    """
    def clear(proj: float, radii: float, length: float = 1.0) -> bool:
        return proj - radii > _SAT_MARGIN * (radii + length)

    reach = (math.hypot(a.l, a.w, a.h) + math.hypot(b.l, b.w, b.h)) / 2.0
    if clear(math.hypot(b.x - a.x, b.y - a.y, b.z - a.z), reach):
        return True
    ra = a.rotation()
    c = (ra.T @ b.rotation()).tolist()
    t = ((b.center - a.center) @ ra).tolist()
    ha = (a.l / 2.0, a.w / 2.0, a.h / 2.0)
    hb = (b.l / 2.0, b.w / 2.0, b.h / 2.0)
    ac = [[abs(v) for v in row] for row in c]
    for i in range(3):  # a's face normals
        if clear(abs(t[i]), ha[i] + ac[i][0] * hb[0] + ac[i][1] * hb[1] + ac[i][2] * hb[2]):
            return True
    for j in range(3):  # b's face normals
        if clear(abs(t[0] * c[0][j] + t[1] * c[1][j] + t[2] * c[2][j]),
                 ac[0][j] * ha[0] + ac[1][j] * ha[1] + ac[2][j] * ha[2] + hb[j]):
            return True
    for i in range(3):  # edge crosses a_i x b_j
        ip, iq = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            length = math.hypot(c[ip][j], c[iq][j])
            if length <= _PARALLEL_TOL:
                continue
            jp, jq = (j + 1) % 3, (j + 2) % 3
            if clear(abs(t[iq] * c[ip][j] - t[ip] * c[iq][j]),
                     ha[ip] * ac[iq][j] + ha[iq] * ac[ip][j]
                     + hb[jp] * ac[i][jq] + hb[jq] * ac[i][jp], length):
                return True
    return False


def intersection_volume(a: Box9DoF, b: Box9DoF) -> float:
    """Exact intersection volume: 0.0 for a clearly separated pair, else by
    clipping a's faces against b's halfspaces."""
    if boxes_disjoint(a, b):
        return 0.0
    faces = _face_polygons(a)
    for normal, offset in _halfspaces(b):
        faces = _clip_faces(faces, normal, offset)
        if not faces:
            return 0.0
    vol = _polytope_volume(faces)
    if vol < -1e-9:
        raise _DegenerateClip(f"negative intersection volume {vol}")
    cap = min(a.volume, b.volume)
    return float(np.clip(vol, 0.0, cap))


def box_iou_exact(a: Box9DoF, b: Box9DoF) -> float:
    """Exact IoU of two oriented boxes, in [0, 1].

    On numeric degeneracy this falls back to a seeded Monte-Carlo estimate
    and warns with ``DegenerateClipWarning``.
    """
    try:
        inter = intersection_volume(a, b)
    except _DegenerateClip as exc:
        warnings.warn(f"degenerate clip ({exc}); using Monte-Carlo fallback",
                      DegenerateClipWarning)
        inter_iou, _ = box_iou_mc(a, b, samples=2_000_000, seed=0)
        return inter_iou
    union = a.volume + b.volume - inter
    return float(np.clip(inter / union, 0.0, 1.0))


def box_iou_mc(a: Box9DoF, b: Box9DoF, samples: int = 1_000_000, seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo IoU oracle: (estimate, standard error).

    Samples uniformly in the joint axis-aligned bounding volume; the IoU is
    the fraction of union hits that land in both boxes.  The points are drawn
    and tested _MC_CHUNK rows at a time; ``Generator.uniform`` fills rows in
    order, so the chunks are the rows of one ``(samples, 3)`` draw.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    corners = np.vstack([box_corners(a), box_corners(b)])
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    rng = make_rng(seed)
    n_union = n_both = 0
    for start in range(0, samples, _MC_CHUNK):
        pts = rng.uniform(lo, hi, size=(min(_MC_CHUNK, samples - start), 3))
        in_a = contains_points(a, pts)
        in_b = contains_points(b, pts)
        n_union += int(np.count_nonzero(in_a | in_b))
        n_both += int(np.count_nonzero(in_a & in_b))
    if n_union == 0:
        return 0.0, 1.0 / np.sqrt(samples)
    estimate = n_both / n_union
    p_adj = (n_both + 2.0) / (n_union + 4.0)
    stderr = float(np.sqrt(p_adj * (1.0 - p_adj) / n_union))
    return float(estimate), stderr
