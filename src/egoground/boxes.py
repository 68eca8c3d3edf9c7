"""Oriented 9-DoF boxes and their overlap.

A box is (x, y, z, l, w, h, alpha, beta, gamma) with rotation
R = Rz(alpha) @ Ry(beta) @ Rx(gamma) applied to the local axes; l, w, h are
full extents along local x, y, z.  Angles are stored wrapped to (-pi, pi],
and every field is a Python float.  Boxes are frozen, so each builds its
rotation matrix once and shares it.

``boxes_disjoint`` is the overlap predicate: a bounding-sphere test, then
the 15 separating axes of two oriented boxes (Gottschalk et al., 1996,
"OBBTree"): the three face normals of each box and the nine cross products
of their edges, skipping cross products of (nearly) parallel edges, which
the face axes cover.  It is True only when the gap on some axis exceeds
1e-9 of the projected radii plus 1e-9 of a unit length, a thousand times
the clip tolerance, so the exact IoU is exactly 0.  False means the boxes
overlap or are within that margin of touching.  Exact IoU uses it as its
early exit; touching and near-touching pairs still clip.

Otherwise IoU clips a's faces against b's six halfspaces (Sutherland-Hodgman
in 3D) and integrates the volume of the intersection polytope with the
divergence theorem over triangulated faces.  The clip works in b's own
frame, where b is the six axis slabs -h_k <= x_k <= h_k: a's eight corners
are carried there once, a plane's distance is one subtraction, and a cap is
ordered by angle in its plane's other two axes.  The polytope is one vertex
table and faces that are cycles of ids into it, so each plane measures each
live vertex once and cuts each crossed edge once, onto the plane; both faces
of the edge share the cut.  This clip is the only path: it is exact on
coincident faces, where a vertex within 1e-12 of a clip plane counts as on
it and a face on the plane gives way to the one cap facet, so touching boxes
clip to exactly 0.  A negative volume means the clip itself is broken and
raises ``RuntimeError``.  No face orientation is measured: ``_FACES``
records each side's winding, a clipped face keeps its cycle order and a cap
winds about its plane's outward normal.

The clip runs on Python floats from the rotations' ``tolist()`` to the
volume: its corners, distances, cut points, cap order and volume terms are
plain arithmetic, and it calls no numpy, so its bytes do not depend on which
BLAS kernel the host picks.  Sums are written out with ``+`` and added
strictly left to right; builtin ``sum`` is avoided, since Python 3.12 made
its float sums compensated.  The one dependence left is ``rotation_matrix``:
its 3x3 products go through numpy's matmul, whose last bits differ between
FMA and non-FMA kernels.

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
    """An immutable box of Python floats; its rotation matrix is built once, on
    first use.  It caches no clip planes: the clip works in the box's own frame."""
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
        params = (self.x, self.y, self.z, self.l, self.w, self.h, self.alpha, self.beta, self.gamma)
        if not all(map(math.isfinite, params)):
            raise NonFiniteError("box parameters must be finite")
        if not (self.l > 0.0 and self.w > 0.0 and self.h > 0.0):
            raise ValueError("box extents must be positive")
        values = list(map(float, params))
        for k in (6, 7, 8):  # in range, wrap_angle(a) is a + 0.0, byte for byte
            a = values[k]
            values[k] = a + 0.0 if -math.pi < a <= math.pi else float(wrap_angle(a))
        # frozen: the fields are written where object.__setattr__ would put them
        self.__dict__.update(zip(("x", "y", "z", "l", "w", "h", "alpha", "beta", "gamma"), values))

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


def _cross(u: Array, v: Array) -> Array:
    """np.cross of two 3-vectors, the same arithmetic at a fraction of its cost."""
    return np.array((u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]))


def _corners_in_frame(a: Box9DoF, b: Box9DoF) -> list[list[float]]:
    """a's eight corners in b's frame, R_b^T (c_a - c_b) +- R_b^T R_a h_a, in
    ``box_corners``' order, as [x, y, z] lists of Python floats."""
    ra, rb = a.rotation().tolist(), b.rotation().tolist()
    d = (a.x - b.x, a.y - b.y, a.z - b.z)
    t = [rb[0][j] * d[0] + rb[1][j] * d[1] + rb[2][j] * d[2] for j in range(3)]
    # e[i]: a's local axis i in b's frame, scaled by a's half extent along it
    e = [[(rb[0][j] * ra[0][i] + rb[1][j] * ra[1][i] + rb[2][j] * ra[2][i]) * half
          for j in range(3)] for i, half in enumerate((a.l / 2.0, a.w / 2.0, a.h / 2.0))]
    return [[sx * e[0][j] + sy * e[1][j] + sz * e[2][j] + t[j] for j in range(3)]
            for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]


def _clip_faces(verts: list, faces: list[tuple[list, bool]], axis: int, sign: float,
                half: float) -> list[tuple[list, bool]]:
    """Sutherland-Hodgman clip of a convex polytope's faces by the halfspace
    sign * x[axis] <= half.

    ``verts`` is the vertex table, a list of [x, y, z]; a face is its cycle of
    vertex ids and whether it winds outward, which a clip keeps with the
    cycle order.  Each live vertex has one distance, sign * x[axis] - half.
    When every one lies over _CLIP_TOL inside, the faces come back untouched.
    Otherwise each is classed inside, on (within _CLIP_TOL of the plane) or
    outside.  An on vertex of a face with vertices strictly on both sides
    takes the side of its distance's sign, so a face nearly parallel to the
    plane is cut where it crosses.

    Each crossed edge is cut once, from its inside vertex toward its outside
    one, onto the plane exactly; the cut is appended to ``verts``, and both
    faces of the edge take its id.  A face with no vertex inside is dropped.
    The cap, the one facet on the plane, joins the on vertices and cuts when
    some vertex lies outside or some face lies on the plane; it is ordered by
    angle about its centroid in the plane's other two axes, (axis + 1,
    axis + 2) for sign +1 and the reverse for -1, stably on ties, so it winds
    outward.
    """
    live = {v for ids, _ in faces for v in ids}
    dist = {v: sign * verts[v][axis] - half for v in live}
    if max(dist.values()) < -_CLIP_TOL:
        return faces
    side = {v: (d > _CLIP_TOL) - (d < -_CLIP_TOL) for v, d in dist.items()}
    while 0 in side.values() and (on := [v for ids, _ in faces
                                         if {side[u] for u in ids} == {-1, 0, 1}
                                         for v in ids if side[v] == 0]):
        side.update((v, 1 if dist[v] > 0.0 else -1) for v in on)
    kept: list[tuple[list, bool]] = []
    cap: dict = {}  # on vertices and cuts, in order of first appearance
    cuts: dict = {}  # (inside id, outside id) -> the cut's id
    build_cap = 1 in side.values()
    for ids, outward in faces:
        s = [side[v] for v in ids]
        if max(s) < 0:
            kept.append((ids, outward))
            continue
        if min(s) >= 0:
            build_cap = True
            continue
        out = []
        for p, q, sp, sq in zip(ids, ids[1:] + ids[:1], s, s[1:] + s[:1]):
            if sp <= 0:
                out.append(p)
                if sp == 0:
                    cap[p] = None
            if sp * sq < 0:
                edge = (p, q) if sp < 0 else (q, p)
                if edge not in cuts:
                    i, o = edge
                    r = dist[i] / (dist[i] - dist[o])
                    cut = [x + r * (y - x) for x, y in zip(verts[i], verts[o])]
                    cut[axis] = sign * half
                    cuts[edge] = len(verts)
                    cap[len(verts)] = None
                    verts.append(cut)
                out.append(cuts[edge])
        kept.append((out, outward))
    if build_cap and len(cap) >= 3:
        u, w = ((axis + 1) % 3, (axis + 2) % 3) if sign > 0 else ((axis + 2) % 3, (axis + 1) % 3)
        cu = cw = 0.0
        for v in cap:
            cu += verts[v][u]
            cw += verts[v][w]
        cu, cw = cu / len(cap), cw / len(cap)
        angle = {v: math.atan2(verts[v][w] - cw, verts[v][u] - cu) for v in cap}
        kept.append((sorted(cap, key=angle.__getitem__), True))
    return kept


def _polytope_volume(verts: list, faces: list[tuple[list, bool]]) -> float:
    """Volume of a convex polytope from its vertex table and faces: an
    outward face fans from pts[0], an inward one as its reversed cycle from
    pts[-1]."""
    if len(faces) < 4:
        return 0.0
    volume = 0.0
    for ids, outward in faces:
        if len(ids) < 3:
            continue
        pts = [verts[v] for v in ids]
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
    clipping a's faces against b's six slabs in b's frame."""
    if boxes_disjoint(a, b):
        return 0.0
    verts = _corners_in_frame(a, b)
    faces = [(list(face), outward) for face, outward in _FACES]
    for axis, half in enumerate((b.l / 2.0, b.w / 2.0, b.h / 2.0)):
        for sign in (1.0, -1.0):
            faces = _clip_faces(verts, faces, axis, sign, half)
            if not faces:
                return 0.0
    vol = _polytope_volume(verts, faces)
    if vol < -1e-9:
        raise RuntimeError(f"clip of {a} by {b} gave negative volume {vol}")
    return min(max(vol, 0.0), min(a.volume, b.volume))  # np.clip's bytes


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
