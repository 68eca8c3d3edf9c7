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
This clip is the only path: it is exact on coincident faces, where a vertex
within 1e-12 of a clip plane counts as on it and a face on the plane gives
way to the one cap facet, so touching boxes clip to exactly 0.  A negative
volume means the clip itself is broken and raises ``RuntimeError``.

``box_iou_mc`` is the independent oracle: rejection sampling in the joint
axis-aligned bounding volume.  Its standard error uses the adjusted
proportion (n_hit + 2) / (n_union + 4), which behaves sensibly when the
estimate sits at 0 or 1.
"""

from __future__ import annotations

import math
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
        vals = [self.x, self.y, self.z, self.l, self.w, self.h, self.alpha, self.beta, self.gamma]
        if not np.isfinite(vals).all():
            raise NonFiniteError("box parameters must be finite")
        if not (self.l > 0.0 and self.w > 0.0 and self.h > 0.0):
            raise ValueError("box extents must be positive")
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


def _clip_faces(faces: list[tuple[list, Array]], normal: Array,
                offset: float) -> list[tuple[list, Array]]:
    """Sutherland-Hodgman clip of a convex polytope's faces by one halfspace.

    A face is its vertex ids and its own copy of their points.  Each vertex
    is classed once, from one copy's distance: inside, on (within _CLIP_TOL
    of the plane) or outside.  An on vertex of a face with vertices strictly
    on both sides takes the side of its distance's sign, so a face nearly
    parallel to the plane is cut where it crosses, not widened by the band.

    An edge is cut only from inside to outside.  The cut point's id is the
    edge's; where a face's copy of it lies over _CLIP_TOL from the first
    face's (an edge nearly parallel to the plane), it takes the first's, so
    the surface stays closed.  A face with no vertex inside is dropped.  The
    cap, the one facet on the plane, joins the on vertices and cut points
    when some vertex lies outside or some face lies on the plane.
    """
    dists = [(poly @ normal - offset).tolist() for _, poly in faces]
    dist_of = {v: d for (ids, _), dist in zip(faces, dists) for v, d in zip(ids, dist)}
    side = {v: (d > _CLIP_TOL) - (d < -_CLIP_TOL) for v, d in dist_of.items()}
    while on := [v for ids, _ in faces if {side[u] for u in ids} == {-1, 0, 1}
                 for v in ids if side[v] == 0]:
        side.update((v, 1 if dist_of[v] > 0.0 else -1) for v in on)
    kept: list[tuple[list, Array]] = []
    cap: dict = {}  # vertex id -> its first copy, in order of first appearance
    build_cap = 1 in side.values()
    for (ids, poly), dist in zip(faces, dists):
        s = [side[v] for v in ids]
        if max(s) < 0:
            kept.append((ids, poly))
            continue
        if min(s) >= 0:
            build_cap = True
            continue
        out_ids, out_pts = [], []
        for i in range(len(s)):
            j = (i + 1) % len(s)
            if s[i] <= 0:
                out_ids.append(ids[i])
                out_pts.append(poly[i])
                if s[i] == 0:
                    cap.setdefault(ids[i], poly[i])
            if s[i] * s[j] < 0:
                p, dp, dq = poly[i], dist[i], dist[j]
                if min(abs(dp), abs(dq)) <= _CLIP_TOL:  # an on vertex took a side
                    dp, dq = dist_of[ids[i]], dist_of[ids[j]]
                r = p + dp / (dp - dq) * (poly[j] - p)
                cut = frozenset((ids[i], ids[j]))
                r0 = cap.setdefault(cut, r)
                if r0 is not r and np.abs(r - r0).max() > _CLIP_TOL:
                    r = r0
                out_ids.append(cut)
                out_pts.append(r)
        kept.append((out_ids, np.asarray(out_pts)))
    if build_cap and len(cap) >= 3:
        ids, points = list(cap), np.asarray(list(cap.values()))
        order = _planar_cycle_order(points, normal)
        kept.append(([ids[k] for k in order], points[order]))
    return kept


def _planar_cycle_order(points: Array, normal: Array) -> Array:
    """The order that makes coplanar points of a convex polygon a cycle."""
    centroid = points.mean(axis=0)
    ref = np.eye(3)[np.argmin(np.abs(normal))]
    e1 = _cross(normal, ref)
    e1 /= np.linalg.norm(e1)
    e2 = _cross(normal, e1)
    rel = points - centroid
    angles = np.arctan2(rel @ e2, rel @ e1)
    return np.argsort(angles, kind="stable")


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
    corners = box_corners(a)  # a face is its corner indices and their points
    faces = [(list(face), corners[list(face)]) for face in _FACES]
    for normal, offset in _halfspaces(b):
        faces = _clip_faces(faces, normal, offset)
        if not faces:
            return 0.0
    vol = _polytope_volume([poly for _, poly in faces])
    if vol < -1e-9:
        raise RuntimeError(f"clip of {a} by {b} gave negative volume {vol}")
    cap = min(a.volume, b.volume)
    return float(np.clip(vol, 0.0, cap))


def box_iou_exact(a: Box9DoF, b: Box9DoF) -> float:
    """Exact IoU of two oriented boxes, in [0, 1], by ``intersection_volume``."""
    inter = intersection_volume(a, b)
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
