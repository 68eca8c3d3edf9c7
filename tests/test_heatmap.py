"""Heatmap colormap, PPM writer, nearest-voxel fill and CSV export."""

import csv
import io

import numpy as np
import pytest

from egoground.autodiff import NonFiniteError
from egoground.geometry import CameraIntrinsics, CameraPose, project_points
from egoground.heatmap import (
    export_heatmap,
    render_relevance_image,
    score_color,
    write_ppm,
    write_scores_csv,
)


def identity_camera(size=8):
    cam = CameraIntrinsics(fx=float(size), fy=float(size),
                           cx=(size - 1) / 2.0, cy=(size - 1) / 2.0,
                           width=size, height=size)
    pose = CameraPose(rotation=np.eye(3), translation=np.zeros(3))
    return cam, pose


def test_score_color_anchors():
    assert score_color(0.0) == (128, 128, 128)
    assert score_color(1.0) == (255, 0, 0)
    assert score_color(0.5) == (192, 64, 64)
    assert score_color(-3.0) == (128, 128, 128)  # clipped
    assert score_color(7.0) == (255, 0, 0)


def test_score_color_monotone_in_red():
    reds = [score_color(s)[0] for s in np.linspace(0, 1, 50)]
    assert all(b >= a for a, b in zip(reds, reds[1:]))


def test_write_ppm_format(tmp_path):
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    img[0, 0] = (255, 0, 0)
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    data = path.read_bytes()
    assert data.startswith(b"P6\n3 2\n255\n")
    assert len(data) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3
    assert data[-18:-15] == b"\xff\x00\x00"
    with pytest.raises(ValueError):
        write_ppm(path, np.zeros((2, 3, 3), dtype=np.float64))


def test_uniform_scores_give_uniform_image():
    cam, pose = identity_camera()
    coords = np.array([[0.0, 0.0, 2.0], [0.5, 0.2, 3.0], [-0.4, 0.1, 2.5]])
    img = render_relevance_image(coords, np.full(3, 0.5), cam, pose)
    assert img.shape == (8, 8, 3)
    assert (img == np.array([192, 64, 64], dtype=np.uint8)).all()


def test_nearest_fill_splits_image():
    cam, pose = identity_camera()
    # one voxel projects left of center, one right, same depth
    coords = np.array([[-1.0, 0.0, 2.0], [1.0, 0.0, 2.0]])
    img = render_relevance_image(coords, np.array([0.0, 1.0]), cam, pose)
    left = img[:, :3]
    right = img[:, 5:]
    assert (left == np.array([128, 128, 128], dtype=np.uint8)).all()
    assert (right == np.array([255, 0, 0], dtype=np.uint8)).all()


def test_behind_camera_voxels_are_ignored():
    cam, pose = identity_camera()
    coords = np.array([[0.0, 0.0, -2.0], [0.0, 0.0, 2.0]])
    img = render_relevance_image(coords, np.array([1.0, 0.0]), cam, pose)
    assert (img == np.array([128, 128, 128], dtype=np.uint8)).all()
    with pytest.raises(ValueError):
        render_relevance_image(np.array([[0.0, 0.0, -2.0]]), np.array([1.0]), cam, pose)


def _nearest_brute_force(coords, scores, cam, pose):
    """Reference nearest fill: the full (H*W, N) squared-distance matrix."""
    uv, _, in_front = project_points(coords, cam, pose)
    uv = uv[in_front]
    vs, us = np.mgrid[0:cam.height, 0:cam.width].astype(np.float64)
    d2 = ((us.reshape(-1, 1) - uv[:, 0]) ** 2
          + (vs.reshape(-1, 1) - uv[:, 1]) ** 2)
    colors = np.array([score_color(s) for s in scores[in_front]], dtype=np.uint8)
    return colors[d2.argmin(axis=1)].reshape(cam.height, cam.width, 3)


def test_nearest_fill_matches_brute_force():
    cam = CameraIntrinsics(fx=10.0, fy=10.0, cx=6.0, cy=4.0, width=13, height=9)
    pose = CameraPose(rotation=np.eye(3), translation=np.zeros(3))
    rng = np.random.default_rng(127)
    # pairs of voxels mirrored about pixel columns and rows: every pixel on
    # the mirror line is equidistant from both and keeps the first one
    mirrored = np.array([[-0.2, 0.0, 1.0], [0.2, 0.0, 1.0], [0.0, -0.2, 1.0], [0.0, 0.2, 1.0],
                         [-0.5, -0.3, 2.0], [0.5, -0.3, 2.0]])
    cases = [(mirrored, np.linspace(0.0, 1.0, 6)), (mirrored, np.full(6, 0.25))]
    for n in (1, 7, 40):
        coords = np.column_stack([rng.uniform(-1.0, 1.0, size=(n, 2)), rng.uniform(-1.0, 3.0, n)])
        coords[0, 2] = 1.5  # at least one voxel in front
        cases.append((coords, rng.uniform(0.0, 1.0, n)))
    for coords, scores in cases:
        img = render_relevance_image(coords, scores, cam, pose)
        assert img.tobytes() == _nearest_brute_force(coords, scores, cam, pose).tobytes()


def test_render_validation():
    cam, pose = identity_camera()
    with pytest.raises(ValueError):
        render_relevance_image(np.zeros((0, 3)), np.zeros(0), cam, pose)
    with pytest.raises(ValueError):
        render_relevance_image(np.zeros((2, 3)), np.zeros(3), cam, pose)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_score_names_first_voxel(tmp_path, bad):
    cam, pose = identity_camera()
    coords = np.array([[0.0, 0.0, 2.0], [0.5, 0.2, 3.0], [-0.4, 0.1, 2.5], [0.1, 0.1, 4.0]])
    scores = np.array([0.5, 0.2, bad, np.nan])
    path = tmp_path / "scores.csv"
    for call in (lambda: render_relevance_image(coords, scores, cam, pose),
                 lambda: write_scores_csv(path, coords, scores),
                 lambda: export_heatmap(coords, scores, cam, pose, tmp_path / "h")):
        with pytest.raises(NonFiniteError, match=r"voxel 2 has non-finite score"):
            call()
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


def test_csv_round_trip(tmp_path):
    coords = np.array([[0.1, -0.2, 0.3], [1.0 / 3.0, 2.0 / 7.0, -0.125]])
    scores = np.array([0.25, 1.0 / 3.0])
    path = tmp_path / "scores.csv"
    write_scores_csv(path, coords, scores)
    lines = path.read_text().strip().split("\n")
    assert lines[0].strip() == "x,y,z,score"
    assert len(lines) == 1 + len(coords)
    for i, line in enumerate(lines[1:]):
        x, y, z, s = (float(v) for v in line.split(","))
        assert (x, y, z) == tuple(coords[i])
        assert s == scores[i]


def test_csv_bytes_equal_csv_writer_on_awkward_values(tmp_path):
    coords = np.array([[-0.0, 1e-300, 1e16], [0.1, -2.5e-8, 123456789.125],
                       [1e16, -0.0, 1e-300]])
    scores = np.array([0.0, 1.0, 1.0 / 3.0])
    path = tmp_path / "scores.csv"
    write_scores_csv(path, coords, scores)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["x", "y", "z", "score"])
    for c, s in zip(coords, scores):
        writer.writerow([repr(float(c[0])), repr(float(c[1])), repr(float(c[2])), repr(float(s))])
    assert path.read_bytes() == want.getvalue().encode()
    write_scores_csv(path, np.zeros((0, 3)), np.zeros(0))
    assert path.read_bytes() == b"x,y,z,score\r\n"


def test_export_heatmap_deterministic(tmp_path):
    cam, pose = identity_camera()
    coords = np.array([[0.0, 0.0, 2.0], [0.5, 0.2, 3.0]])
    scores = np.array([0.9, 0.1])
    p1, c1 = export_heatmap(coords, scores, cam, pose, tmp_path / "a")
    p2, c2 = export_heatmap(coords, scores, cam, pose, tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()
    assert c1.read_text() == c2.read_text()
    assert p1.suffix == ".ppm" and c1.suffix == ".csv"
