"""Pinhole camera math and the multi-view RGB-D feature pipeline.

Conventions:

* Camera frame: x right, y down, z forward (optical axis).  A pixel is
  sampled at integer coordinates, so (u, v) = (cx, cy) is the optical axis.
* Depth is the camera-frame z of the surface point, not ray length.
* ``CameraPose`` stores the camera-to-world rotation and the camera center
  in world coordinates: p_world = R @ p_cam + t.
* Voxel index = floor(p / voxel_size) per axis; a voxel's center is
  (index + 0.5) * voxel_size.

Once per scene, ``voxelize`` pools the 2D stub features of the pixels lifted
into each voxel and ``sample_views`` averages the per-view 2D feature maps
sampled at the voxel centers.  The learned layers that encode and fuse the
two live in ``network``: this module creates and names no parameter.

``voxelize`` returns the scene's one ``VoxelFeatureSet``: the voxel centers
and their pooled features.  Everything downstream of it is a plain (N, C)
``Tensor`` whose row i belongs to voxel i; the centers stay with the voxel
set and are read from there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import NonFiniteError, Tensor

Array = np.ndarray

_EYE3 = np.eye(3)
_ORTHONORMAL_TOL = 1e-9 + 1e-5 * _EYE3


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")
        if not (0.0 <= self.cx < self.width and 0.0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        if self.width < 1 or self.height < 1:
            raise ValueError("image must have at least one pixel")


@dataclass(frozen=True)
class CameraPose:
    """Camera-to-world rotation (columns are the camera axes) and center.

    Both must be finite; a NaN or infinite entry is a ``NonFiniteError``
    that names the first one.  The rotation must then satisfy
    |R R^T - I| <= 1e-9 + 1e-5 I elementwise: np.allclose's bound at
    atol=1e-9 with its default rtol written out.
    """

    rotation: Array
    translation: Array

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("pose needs a 3x3 rotation and a 3-vector translation")
        for what, a in (("rotation", r), ("translation", t)):
            if not np.isfinite(a).all():
                idx = np.unravel_index(np.flatnonzero(~np.isfinite(a))[0], a.shape)
                raise NonFiniteError(f"pose {what} entry {tuple(map(int, idx))} is not finite: {a[idx]}")
        if not (abs(r @ r.T - _EYE3) <= _ORTHONORMAL_TOL).all():
            raise ValueError("rotation is not orthonormal")
        if np.linalg.det(r) < 0.0:
            raise ValueError("rotation must be proper (det +1)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def world_to_camera(self, points: Array) -> Array:
        return (np.atleast_2d(points) - self.translation) @ self.rotation

    def camera_to_world(self, points: Array) -> Array:
        return np.atleast_2d(points) @ self.rotation.T + self.translation


@dataclass
class DepthMap:
    values: Array  # (H, W) float64, camera-frame z
    valid: Array   # (H, W) bool

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.values.shape != self.valid.shape or self.values.ndim != 2:
            raise ValueError("depth values and validity mask must share an HxW shape")
        used = self.values[self.valid]
        if used.size and (not np.isfinite(used).all() or (used <= 0.0).any()):
            raise ValueError("valid depths must be finite and positive")


@dataclass(frozen=True, eq=False)
class VoxelFeatureSet:
    """Sparse voxels from ``voxelize``: centers (N, 3) and pooled features (N, C')."""

    coords: Array
    features: Tensor

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=np.float64))
        if self.coords.ndim != 2 or self.coords.shape[1] != 3 or self.coords.shape[0] < 1:
            raise ValueError("coords must be (N, 3) with N >= 1")
        if self.features.shape[0] != self.coords.shape[0]:
            raise ValueError("one feature row per voxel required")

    def __len__(self) -> int:
        return self.coords.shape[0]


@dataclass
class ViewFeatureMap:
    grid: Array  # (H', W', C')
    cam: CameraIntrinsics
    pose: CameraPose

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        if self.grid.ndim != 3:
            raise ValueError("feature grid must be (H, W, C)")


def backproject_depth(depth: DepthMap, cam: CameraIntrinsics, pose: CameraPose) -> Array:
    """Lift valid depth pixels to world points ((u-cx)d/fx, (v-cy)d/fy, d)."""
    h, w = depth.values.shape
    if (h, w) != (cam.height, cam.width):
        raise ValueError("depth resolution does not match the intrinsics")
    vs, us = np.nonzero(depth.valid)
    if us.size == 0:
        raise ValueError("no valid depth pixels")
    d = depth.values[vs, us]
    x = (us - cam.cx) * d / cam.fx
    y = (vs - cam.cy) * d / cam.fy
    pts_cam = np.stack([x, y, d], axis=1)
    return pose.camera_to_world(pts_cam)


def voxelize(points: Array, point_features: Array, voxel_size: float) -> VoxelFeatureSet:
    """Pool points into voxels: the mean feature row of each voxel's points.

    Voxels come out in np.unique(axis=0)'s lexicographic index order, by a
    lexsort of the int64 index columns, whatever the input point order.  A
    non-finite point or feature row is a ``NonFiniteError`` and a point whose
    voxel index leaves int64 a ``ValueError``, each naming the first one.
    """
    points = np.asarray(points, dtype=np.float64)
    point_features = np.asarray(point_features, dtype=np.float64)
    if voxel_size <= 0.0:
        raise ValueError("voxel size must be positive")
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] == 0:
        raise ValueError("points must be (M, 3) with M >= 1")
    if point_features.ndim != 2 or point_features.shape[0] != points.shape[0]:
        raise ValueError("one feature row per point required")
    for what, rows in (("point", points), ("feature row", point_features)):
        if not np.isfinite(rows).all():
            i = np.flatnonzero(~np.isfinite(rows).all(axis=1))[0]
            raise NonFiniteError(f"{what} {i} is not finite: {rows[i]}")
    with np.errstate(over="ignore"):
        q = np.floor(points / voxel_size)
    fits = (q >= -2.0 ** 63) & (q < 2.0 ** 63)
    if not fits.all():
        i = np.flatnonzero(~fits.all(axis=1))[0]
        raise ValueError(f"point {i} at {points[i]} has a voxel index outside int64")
    idx = q.astype(np.int64)
    order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
    ordered = idx[order]
    first = np.ones(len(ordered), dtype=bool)  # row opens a new voxel
    first[1:] = ((ordered[1:, 0] != ordered[:-1, 0]) | (ordered[1:, 1] != ordered[:-1, 1])
                 | (ordered[1:, 2] != ordered[:-1, 2]))
    uniq = ordered[first]
    inverse = np.empty(len(ordered), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    n = uniq.shape[0]
    counts = np.bincount(inverse, minlength=n).astype(np.float64)
    sums = np.zeros((n, point_features.shape[1]))
    np.add.at(sums, inverse, point_features)
    feats = sums / counts[:, None]
    centers = (uniq + 0.5) * voxel_size
    return VoxelFeatureSet(coords=centers, features=Tensor(feats))


def project_points(points: Array, cam: CameraIntrinsics, pose: CameraPose):
    """World points -> pixel coordinates plus in-bounds / in-front flags.

    A point is in bounds when its (u, v) lies inside the sampleable region
    [0, width-1] x [0, height-1].  Points at or behind the camera plane get
    NaN pixels and false flags.
    """
    pts_cam = pose.world_to_camera(points)
    z = pts_cam[:, 2]
    in_front = z > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cam.fx * pts_cam[:, 0] / z + cam.cx
        v = cam.fy * pts_cam[:, 1] / z + cam.cy
    u = np.where(in_front, u, np.nan)
    v = np.where(in_front, v, np.nan)
    in_bounds = in_front & (u >= 0.0) & (u <= cam.width - 1.0) & (v >= 0.0) & (v <= cam.height - 1.0)
    return np.stack([u, v], axis=1), in_bounds, in_front


def bilinear_sample_many(grid: Array, uv: Array):
    """Bilinear interpolation of (H, W, C) at float pixels; invalid -> zeros."""
    h, w, c = grid.shape
    u = uv[:, 0]
    v = uv[:, 1]
    with np.errstate(invalid="ignore"):
        valid = np.isfinite(u) & np.isfinite(v) & (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    u = np.where(valid, u, 0.0)
    v = np.where(valid, v, 0.0)
    u0 = np.clip(np.floor(u).astype(np.int64), 0, max(w - 2, 0))
    v0 = np.clip(np.floor(v).astype(np.int64), 0, max(h - 2, 0))
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = (u - u0)[:, None]
    fv = (v - v0)[:, None]
    out = (grid[v0, u0] * (1 - fu) * (1 - fv)
           + grid[v0, u1] * fu * (1 - fv)
           + grid[v1, u0] * (1 - fu) * fv
           + grid[v1, u1] * fu * fv)
    out[~valid] = 0.0
    return out, valid


def positional_encoding(coords: Array, dim: int) -> Array:
    """Sinusoidal encoding of 3D positions into ``dim`` channels.

    Each axis gets dim // 6 geometric frequencies as (sin, cos) pairs;
    leftover channels are zero.  Wavelengths run from 0.5 to 20 (desk-room
    scales).
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    n_freq = dim // 6
    out = np.zeros((coords.shape[0], dim))
    if n_freq == 0:
        return out
    if n_freq == 1:
        wavelengths = np.array([0.5])
    else:
        wavelengths = 0.5 * (20.0 / 0.5) ** (np.arange(n_freq) / (n_freq - 1))
    omega = 2.0 * np.pi / wavelengths
    col = 0
    for axis in range(3):
        phase = coords[:, axis : axis + 1] * omega[None, :]
        out[:, col : col + n_freq] = np.sin(phase)
        out[:, col + n_freq : col + 2 * n_freq] = np.cos(phase)
        col += 2 * n_freq
    return out


def sample_views(coords: Array, views: list[ViewFeatureMap]):
    """Average the bilinearly sampled 2D features over the views that see each point.

    Returns (N, C') features and a seen mask; points visible in no view get
    a zero vector.
    """
    if not views:
        raise ValueError("at least one view is required")
    c2d = views[0].grid.shape[2]
    n = coords.shape[0]
    total = np.zeros((n, c2d))
    hits = np.zeros(n)
    for view in views:
        uv, in_bounds, _ = project_points(coords, view.cam, view.pose)
        sampled, valid = bilinear_sample_many(view.grid, uv)
        usable = valid & in_bounds
        total[usable] += sampled[usable]
        hits += usable
    seen = hits > 0
    total[seen] /= hits[seen, None]
    return total, seen

