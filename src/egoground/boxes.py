"""Oriented 9-DoF boxes and their overlap.

A box is (x, y, z, l, w, h, alpha, beta, gamma) with rotation
R = Rz(alpha) @ Ry(beta) @ Rx(gamma) applied to the local axes; l, w, h are
full extents along local x, y, z.  Angles are stored wrapped to (-pi, pi].
Boxes are frozen, so each builds its rotation matrix, and its six clip
planes with the in-plane basis each cap is ordered in, once and shares them.

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
volume means the clip itself is broken and raises ``RuntimeError``.  No face
orientation is measured: ``_FACES`` records each side's winding, a clipped
face keeps its cycle order and a cap winds about its plane's outward normal.

The clip runs on Python floats from the box's corners to the volume: its
planes, distances, cut points, cap order and volume terms are plain
arithmetic, and no numpy expression decides its bytes, so they do not
depend on which BLAS kernel the host picks.  Sums are written out with
``+`` and added strictly left to right; builtin ``sum`` is avoided, since
Python 3.12 made its float sums compensated.  The one dependence left is
``rotation_matrix`` and ``box_corners``: their 3x3 products go through
numpy's matmul, whose last bits differ between FMA and non-FMA kernels.

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

# corner index = 4 * (sx > 0) + 2 * (sy > 0) + (sz > 0); each face is a vertex
# cycle of one cube side in that numbering and whether it winds outward
# (counterclockwise seen from outside), which every proper rotation keeps
_FACES = (
    ((0, 1, 3, 2), True),   # local x = -l/2
    ((4, 5, 7, 6), False),  # local x = +l/2
    ((0, 1, 5, 4), False),  # local y = -w/2
    ((2, 3, 7, 6), True),   # local y = +w/2
    ((0, 2, 6, 4), True),   # local z = -h/2
    ((1, 3, 7, 5), False),  # local z = +h/2
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
        if not all(map(math.isfinite, (self.x, self.y, self.z, self.l, self.w, self.h,
                                       self.alpha, self.beta, self.gamma))):
            raise NonFiniteError("box parameters must be finite")
        if not (self.l > 0.0 and self.w > 0.0 and self.h > 0.0):
            raise ValueError("box extents must be positive")
        for name in ("alpha", "beta", "gamma"):
            a = getattr(self, name)  # in range, wrap_angle(a) is a + 0.0, byte for byte
            object.__setattr__(self, name, a + 0.0 if -math.pi < a <= math.pi else wrap_angle(a))

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

    @cached_property
    def _planes(self) -> tuple:
        """Six (normal, offset, (e1, e2)) clip planes in Python floats.

        A point x is inside iff normal . x <= offset; the normals are each
        column of the rotation, then its negation.  The unit e1 and e2 span the
        plane, and its cap is ordered by angle in them: e1 = normal x u / |.|
        for the unit axis u of normal's smallest entry, e2 = normal x e1.
        """
        rows = self._rotation.tolist()
        x, y, z, l, w, h = map(float, (self.x, self.y, self.z, self.l, self.w, self.h))
        planes = []
        for axis, half in enumerate((l / 2.0, w / 2.0, h / 2.0)):
            n0, n1, n2 = rows[0][axis], rows[1][axis], rows[2][axis]
            dist = n0 * x + n1 * y + n2 * z
            for normal, offset in (((n0, n1, n2), dist + half), ((-n0, -n1, -n2), half - dist)):
                unit = [0.0, 0.0, 0.0]
                unit[min(range(3), key=lambda k: abs(normal[k]))] = 1.0
                e = _plain_cross(normal, unit)
                norm = math.sqrt(e[0] * e[0] + e[1] * e[1] + e[2] * e[2])
                e1 = (e[0] / norm, e[1] / norm, e[2] / norm)
                planes.append((normal, offset, (e1, _plain_cross(normal, e1))))
        return tuple(planes)

    def as_params(self) -> Array:
        return np.array([self.x, self.y, self.z, self.l, self.w, self.h,
                         self.alpha, self.beta, self.gamma])


_SIGNS = np.array([[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)])


def box_corners(box: Box9DoF) -> Array:
    """All eight corners, ordered by the sign pattern of the local axes."""
    return box.center + (_SIGNS * (box.extents / 2.0)) @ box.rotation().T


def contains_points(box: Box9DoF, points: Array) -> Array:
    """Boundary-inclusive containment test for an (M, 3) array."""
    local = np.abs((np.atleast_2d(points) - box.center) @ box.rotation())
    half = box.extents / 2.0
    # one test per column: numpy's .all(axis=1) over rows of three is slower
    return (local[:, 0] <= half[0]) & (local[:, 1] <= half[1]) & (local[:, 2] <= half[2])


def _plain_cross(u, v) -> tuple:
    """u x v of two 3-vectors, as np.cross's products and differences."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _cross(u: Array, v: Array) -> Array:
    """np.cross of two 3-vectors, the same arithmetic at a fraction of its cost."""
    return np.array(_plain_cross(u, v))


def _centroid(points: list) -> tuple[float, float, float]:
    """Mean of [x, y, z] points, each coordinate summed left to right."""
    sx = sy = sz = 0.0
    for x, y, z in points:
        sx = sx + x
        sy = sy + y
        sz = sz + z
    m = len(points)
    return sx / m, sy / m, sz / m


def _clip_faces(faces: list[tuple[list, list, bool]], normal: tuple, offset: float,
                basis: tuple) -> list[tuple[list, list, bool]]:
    """Sutherland-Hodgman clip of a convex polytope's faces by one halfspace.

    A face is its vertex ids, its own list of their [x, y, z] points and
    whether it winds outward, which a clip keeps with the cycle order.  When
    every point lies over _CLIP_TOL inside, the faces come back untouched.
    Otherwise each vertex is classed once, from one copy's distance: inside,
    on (within _CLIP_TOL of the plane) or outside.  An on vertex of a face
    with vertices strictly on both sides takes the side of its distance's
    sign, so a face nearly parallel to the plane is cut where it crosses.

    An edge is cut only from inside to outside, per coordinate.  The cut
    point's id is the edge's; where a face's copy of it lies over _CLIP_TOL
    from the first face's (an edge nearly parallel to the plane), it takes
    the first's, so the surface stays closed.  A face with no vertex inside
    is dropped.  The cap, the one facet on the plane, joins the on vertices
    and cut points when some vertex lies outside or some face lies on the
    plane; it is ordered by angle about its centroid in ``basis`` (e1,
    e2 = normal x e1), stably on ties, so it winds outward.
    """
    n0, n1, n2 = normal
    dists = [[x * n0 + y * n1 + z * n2 - offset for x, y, z in pts] for _, pts, _ in faces]
    if max(map(max, dists)) < -_CLIP_TOL:
        return faces
    dist_of = {v: d for (ids, _, _), dist in zip(faces, dists) for v, d in zip(ids, dist)}
    side = {v: (d > _CLIP_TOL) - (d < -_CLIP_TOL) for v, d in dist_of.items()}
    while 0 in side.values() and (on := [v for ids, _, _ in faces
                                         if {side[u] for u in ids} == {-1, 0, 1}
                                         for v in ids if side[v] == 0]):
        side.update((v, 1 if dist_of[v] > 0.0 else -1) for v in on)
    kept: list[tuple[list, list, bool]] = []
    cap: dict = {}  # vertex id -> its first copy, in order of first appearance
    build_cap = 1 in side.values()
    for (ids, pts, outward), dist in zip(faces, dists):
        s = [side[v] for v in ids]
        if max(s) < 0:
            kept.append((ids, pts, outward))
            continue
        if min(s) >= 0:
            build_cap = True
            continue
        out_ids, out_pts = [], []
        for i, j in zip(range(len(s)), [*range(1, len(s)), 0]):
            if s[i] <= 0:
                out_ids.append(ids[i])
                out_pts.append(pts[i])
                if s[i] == 0:
                    cap.setdefault(ids[i], pts[i])
            if s[i] * s[j] < 0:
                dp, dq = dist[i], dist[j]
                if min(abs(dp), abs(dq)) <= _CLIP_TOL:  # an on vertex took a side
                    dp, dq = dist_of[ids[i]], dist_of[ids[j]]
                r = [p + dp / (dp - dq) * (q - p) for p, q in zip(pts[i], pts[j])]
                cut = frozenset((ids[i], ids[j]))
                r0 = cap.setdefault(cut, r)
                if r0 is not r and max(abs(u - v) for u, v in zip(r, r0)) > _CLIP_TOL:
                    r = r0
                out_ids.append(cut)
                out_pts.append(r)
        kept.append((out_ids, out_pts, outward))
    if build_cap and len(cap) >= 3:
        ids, points = list(cap), list(cap.values())
        cx, cy, cz = _centroid(points)
        (a0, a1, a2), (b0, b1, b2) = basis
        angles = [math.atan2((x - cx) * b0 + (y - cy) * b1 + (z - cz) * b2,
                             (x - cx) * a0 + (y - cy) * a1 + (z - cz) * a2)
                  for x, y, z in points]
        order = sorted(range(len(points)), key=angles.__getitem__)
        kept.append(([ids[k] for k in order], [points[k] for k in order], True))
    return kept


def _polytope_volume(faces: list[tuple[list, list, bool]]) -> float:
    """Volume of a convex polytope from its faces: an outward face fans from
    pts[0], an inward one as its reversed cycle from pts[-1]."""
    if len(faces) < 4:
        return 0.0
    volume = 0.0
    for _, pts, outward in faces:
        if len(pts) < 3:
            continue
        # edge[k] = pts[k] x pts[k + 1]: summed, the Newell normal; its
        # middle rows, the fan from pts[0]
        edge = [(y * c - z * b, z * a - x * c, x * b - y * a)
                for (x, y, z), (a, b, c) in zip(pts, pts[1:] + pts[:1])]
        nx = ny = nz = 0.0
        for ex, ey, ez in edge:
            nx = nx + ex
            ny = ny + ey
            nz = nz + ez
        if math.sqrt(nx * nx + ny * ny + nz * nz) < _CLIP_TOL:
            continue
        if outward:
            x, y, z = pts[0]
            for ex, ey, ez in edge[1:-1]:
                volume += x * ex + y * ey + z * ez
        else:
            # the reversed cycle's fan from pts[-1]: the same crosses negated,
            # in reverse order (negation is exact)
            x, y, z = pts[-1]
            for ex, ey, ez in edge[-3::-1]:
                volume -= x * ex + y * ey + z * ez
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
    corners = box_corners(a).tolist()  # a face: corner indices, their points, winding
    faces = [(list(face), [corners[k] for k in face], outward) for face, outward in _FACES]
    for normal, offset, basis in b._planes:
        faces = _clip_faces(faces, normal, offset, basis)
        if not faces:
            return 0.0
    vol = _polytope_volume(faces)
    if vol < -1e-9:
        raise RuntimeError(f"clip of {a} by {b} gave negative volume {vol}")
    return float(min(max(vol, 0.0), min(a.volume, b.volume)))  # np.clip's bytes


def box_iou_exact(a: Box9DoF, b: Box9DoF) -> float:
    """Exact IoU of two oriented boxes, in [0, 1], by ``intersection_volume``."""
    inter = intersection_volume(a, b)
    union = a.volume + b.volume - inter
    return min(max(inter / union, 0.0), 1.0)


def _mc_contains(box: Box9DoF, points: Array) -> Array:
    """``contains_points`` with local coordinates ``dx * r[0, j] + dy * r[1, j] + dz * r[2, j]``.

    A third cheaper than its matmul at a million points; the voxel labels keep the matmul.
    """
    c, r, half = box.center.tolist(), box.rotation().tolist(), (box.extents / 2.0).tolist()
    dx, dy, dz = points[:, 0] - c[0], points[:, 1] - c[1], points[:, 2] - c[2]
    inside = np.abs(dx * r[0][0] + dy * r[1][0] + dz * r[2][0]) <= half[0]
    for j in (1, 2):
        inside &= np.abs(dx * r[0][j] + dy * r[1][j] + dz * r[2][j]) <= half[j]
    return inside


def box_iou_mc(a: Box9DoF, b: Box9DoF, samples: int = 1_000_000, seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo IoU oracle: (estimate, standard error).

    Samples uniformly in the joint axis-aligned bounding volume; the IoU is
    the fraction of union hits that land in both boxes.  The points are drawn
    and tested (``_mc_contains``) _MC_CHUNK rows at a time;
    ``Generator.random`` fills rows in order, and ``lo + (hi - lo) * u`` is
    ``Generator.uniform``'s arithmetic at two thirds of its cost, so the
    chunks are the rows of one ``(samples, 3)`` ``uniform`` draw.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    corners = np.vstack([box_corners(a), box_corners(b)])
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    rng = make_rng(seed)
    n_union = n_both = 0
    for start in range(0, samples, _MC_CHUNK):
        pts = lo + (hi - lo) * rng.random((min(_MC_CHUNK, samples - start), 3))
        in_a = _mc_contains(a, pts)
        in_b = _mc_contains(b, pts)
        n_union += int(np.count_nonzero(in_a | in_b))
        n_both += int(np.count_nonzero(in_a & in_b))
    if n_union == 0:
        return 0.0, 1.0 / np.sqrt(samples)
    estimate = n_both / n_union
    p_adj = (n_both + 2.0) / (n_union + 4.0)
    stderr = float(np.sqrt(p_adj * (1.0 - p_adj) / n_union))
    return float(estimate), stderr
