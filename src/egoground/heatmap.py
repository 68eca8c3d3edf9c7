"""Relevance heatmap export: binary PPM image plus a CSV of voxel scores.

Scores in [0, 1] map linearly from gray (128,128,128) at 0 to red (255,0,0)
at 1, with channels rounded half-up.  Every pixel takes the color of the
nearest voxel projection in pixel space, so the image is fully covered and
an all-equal score field produces one uniform color; ties go to the first
voxel.  Squared distances add a (W, N) column and an (H, N) row term by
broadcasting.  The CSV lists every
voxel (x, y, z, score) regardless of visibility in the chosen view.  Both
refuse a non-finite score with ``NonFiniteError`` naming its voxel.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .autodiff import NonFiniteError
from .geometry import CameraIntrinsics, CameraPose, project_points

Array = np.ndarray


def _colors(scores: Array) -> Array:
    """(..., 3) float RGB channels of each score: see ``score_color``."""
    s = np.clip(scores, 0.0, 1.0)
    gb = np.floor(128.0 * (1.0 - s) + 0.5)
    return np.stack([np.floor(128.0 + 127.0 * s + 0.5), gb, gb], axis=-1)


def score_color(score: float) -> tuple[int, int, int]:
    """Linear gray -> red; channels floor(x + 0.5), score clipped to [0, 1]."""
    r, g, b = _colors(float(score))
    return int(r), int(g), int(b)


def write_ppm(path: str | Path, pixels: Array) -> None:
    """Binary P6 writer; pixels is (H, W, 3) uint8."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ValueError("pixels must be (H, W, 3) uint8")
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def _voxel_scores(scores: Array, n_voxels: int) -> Array:
    """scores as float64, one finite score per voxel."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (n_voxels,):
        raise ValueError("one score per voxel required")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise NonFiniteError(f"voxel {bad[0]} has non-finite score {scores[bad[0]]}")
    return scores


def render_relevance_image(coords: Array, scores: Array, cam: CameraIntrinsics,
                           pose: CameraPose) -> Array:
    """(H, W, 3) uint8 heatmap via nearest projected voxel per pixel."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] == 0:
        raise ValueError("coords must be (N, 3) with N >= 1")
    scores = _voxel_scores(scores, coords.shape[0])
    uv, _, in_front = project_points(coords, cam, pose)
    if not in_front.any():
        raise ValueError("no voxel projects in front of the camera")
    uv = uv[in_front]
    vis_scores = scores[in_front]
    du2 = (np.arange(cam.width, dtype=np.float64)[:, None] - uv[:, 0]) ** 2
    dv2 = (np.arange(cam.height, dtype=np.float64)[:, None] - uv[:, 1]) ** 2
    d2 = du2[None, :, :] + dv2[:, None, :]
    nearest = d2.reshape(cam.height * cam.width, -1).argmin(axis=1)
    palette = _colors(vis_scores).astype(np.uint8)
    return palette[nearest].reshape(cam.height, cam.width, 3)


def write_scores_csv(path: str | Path, coords: Array, scores: Array) -> None:
    coords = np.asarray(coords, dtype=np.float64)
    scores = _voxel_scores(scores, coords.shape[0])
    rows = np.column_stack([coords, scores]).tolist()
    with open(path, "w", newline="") as fh:
        fh.write("x,y,z,score\r\n"
                 + "".join(f"{x!r},{y!r},{z!r},{s!r}\r\n" for x, y, z, s in rows))


def export_heatmap(coords: Array, scores: Array, cam: CameraIntrinsics,
                   pose: CameraPose, out_prefix: str | Path) -> tuple[Path, Path]:
    """Write <prefix>.ppm and <prefix>.csv; returns the two paths."""
    prefix = Path(out_prefix)
    img = render_relevance_image(coords, scores, cam, pose)
    ppm = prefix.with_suffix(".ppm")
    csv_path = prefix.with_suffix(".csv")
    write_ppm(ppm, img)
    write_scores_csv(csv_path, coords, scores)
    return ppm, csv_path
