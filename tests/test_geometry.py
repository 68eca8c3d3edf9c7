import numpy as np
import pytest

from egoground.autodiff import NonFiniteError, Tensor, make_rng
from egoground.geometry import (
    CameraIntrinsics,
    CameraPose,
    DepthMap,
    ViewFeatureMap,
    VoxelFeatureSet,
    backproject_depth,
    bilinear_sample_many,
    positional_encoding,
    project_points,
    sample_views,
    voxelize,
)


def identity_pose():
    return CameraPose(rotation=np.eye(3), translation=np.zeros(3))


def simple_cam(width=8, height=6, f=4.0):
    return CameraIntrinsics(fx=f, fy=f, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                            width=width, height=height)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=-1.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=1.0, fy=1.0, cx=9.0, cy=0.0, width=4, height=4)


def test_pose_validation():
    with pytest.raises(ValueError):
        CameraPose(rotation=np.eye(3) * 2.0, translation=np.zeros(3))
    flipped = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        CameraPose(rotation=flipped, translation=np.zeros(3))


def _pose_accepted(r):
    try:
        CameraPose(rotation=r, translation=np.zeros(3))
    except ValueError as exc:
        assert str(exc) == "rotation is not orthonormal"
        return False
    return True


def test_pose_orthonormality_bound_is_allclose():
    # r @ r.T = I + E for a symmetric perturbation E, stepped across the bound
    # of 1e-9 off the diagonal and 1e-9 + 1e-5 on it
    cases = []
    for bound, spot in ((1e-9, (0, 1)), (1e-9 + 1e-5, (0, 0)), (1e-9 + 1e-5, (2, 2))):
        for scale in (0.5, 0.999, 0.9999999, 1.0, 1.0000001, 1.001, 2.0):
            gram = np.eye(3)
            gram[spot] += bound * scale
            gram[spot[::-1]] = gram[spot]
            cases.append(np.linalg.cholesky(gram))
    decisions = []
    for r in cases:
        want = np.allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert _pose_accepted(r) == want
        decisions.append(want)
    assert 0 < sum(decisions) < len(decisions)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pose_refuses_non_finite_entries_by_name(bad):
    # refused before r @ r.T, whose inf * 0 would warn under the suite's filter
    for spot in ((0, 0), (0, 1), (1, 2)):
        r = np.eye(3)
        r[spot] = bad
        r[2, 2] = np.nan  # a later bad entry: the first one is named
        with pytest.raises(NonFiniteError, match=rf"pose rotation entry \({spot[0]}, {spot[1]}\)"):
            CameraPose(rotation=r, translation=np.zeros(3))
    with pytest.raises(NonFiniteError, match=r"pose translation entry \(1,\) is not finite"):
        CameraPose(rotation=np.eye(3), translation=np.array([0.0, bad, 0.0]))


def test_depth_map_validation():
    values = np.full((2, 2), -1.0)
    valid = np.array([[True, False], [False, False]])
    with pytest.raises(ValueError):
        DepthMap(values=values, valid=valid)


def test_backproject_principal_point_is_on_axis():
    cam = simple_cam()
    depth = np.zeros((cam.height, cam.width))
    valid = np.zeros((cam.height, cam.width), dtype=bool)
    # integer pixel exactly at the principal point requires odd sizes; use a
    # custom camera with integral center instead
    cam = CameraIntrinsics(fx=4.0, fy=4.0, cx=3.0, cy=2.0, width=8, height=6)
    depth[2, 3] = 1.7
    valid[2, 3] = True
    pts = backproject_depth(DepthMap(values=depth, valid=valid), cam, identity_pose())
    np.testing.assert_allclose(pts, [[0.0, 0.0, 1.7]], atol=1e-15)


def test_backproject_rejects_all_invalid():
    cam = simple_cam()
    depth = DepthMap(values=np.zeros((cam.height, cam.width)),
                     valid=np.zeros((cam.height, cam.width), dtype=bool))
    with pytest.raises(ValueError):
        backproject_depth(depth, cam, identity_pose())


def test_backproject_project_round_trip():
    rng = make_rng(101)
    cam = CameraIntrinsics(fx=11.0, fy=13.0, cx=3.5, cy=2.5, width=9, height=7)
    rot = rotation_from_axis_angle(np.array([0.3, -0.2, 0.9]), 0.7)
    pose = CameraPose(rotation=rot, translation=np.array([0.4, -1.2, 0.3]))
    values = rng.uniform(0.5, 4.0, size=(cam.height, cam.width))
    valid = rng.random((cam.height, cam.width)) > 0.3
    valid[0, 0] = True
    depth = DepthMap(values=values, valid=valid)
    pts = backproject_depth(depth, cam, pose)
    uv, in_bounds, in_front = project_points(pts, cam, pose)
    vs, us = np.nonzero(valid)
    np.testing.assert_allclose(uv[:, 0], us, atol=1e-9)
    np.testing.assert_allclose(uv[:, 1], vs, atol=1e-9)
    assert in_front.all()
    interior = (us > 0) & (us < cam.width - 1) & (vs > 0) & (vs < cam.height - 1)
    assert in_bounds[interior].all()


def rotation_from_axis_angle(axis, angle):
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def test_project_flags_behind_camera():
    cam = simple_cam()
    uv, in_bounds, in_front = project_points(np.array([[0.0, 0.0, -2.0]]), cam, identity_pose())
    assert not in_front[0] and not in_bounds[0]
    assert np.isnan(uv[0]).all()


def test_voxelize_two_points_one_voxel():
    pts = np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]])
    vox = voxelize(pts, np.array([[1.0], [3.0]]), 1.0)
    assert len(vox) == 1
    np.testing.assert_allclose(vox.coords, [[0.5, 0.5, 0.5]])
    np.testing.assert_allclose(vox.features.data, [[2.0]])


def test_voxelize_negative_coordinates():
    vox = voxelize(np.array([[-0.1, -0.1, -0.1]]), np.ones((1, 1)), 1.0)
    np.testing.assert_allclose(vox.coords, [[-0.5, -0.5, -0.5]])


def test_voxelize_mean_features_and_order_invariance():
    rng = make_rng(103)
    pts = rng.uniform(-2.0, 2.0, size=(40, 3))
    feats = rng.normal(size=(40, 5))
    a = voxelize(pts, feats, 0.5)
    perm = rng.permutation(40)
    b = voxelize(pts[perm], feats[perm], 0.5)
    np.testing.assert_array_equal(a.coords, b.coords)
    np.testing.assert_allclose(a.features.data, b.features.data, atol=1e-12)
    # voxel containing exactly one known point carries that point's features
    lone = np.array([[10.2, 10.2, 10.2]])
    lone_feat = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
    c = voxelize(np.vstack([pts, lone]), np.vstack([feats, lone_feat]), 0.5)
    row = np.where((c.coords == 10.25).all(axis=1))[0]
    np.testing.assert_allclose(c.features.data[row], lone_feat)


def test_voxelize_coords_on_lattice():
    rng = make_rng(107)
    pts = rng.uniform(-3.0, 3.0, size=(50, 3))
    vox = voxelize(pts, np.ones((50, 1)), 0.4)
    shifted = vox.coords / 0.4 - 0.5
    np.testing.assert_allclose(shifted, np.round(shifted), atol=1e-9)


def test_voxelize_input_validation():
    with pytest.raises(ValueError):
        voxelize(np.zeros((0, 3)), np.zeros((0, 1)), 1.0)
    with pytest.raises(ValueError):
        voxelize(np.zeros((2, 3)), np.ones((2, 1)), 0.0)
    with pytest.raises(ValueError, match="one feature row per point"):
        voxelize(np.zeros((2, 3)), np.ones((3, 1)), 1.0)


def _voxelize_unique(points, feats, voxel_size):
    """Reference voxel pooling: groups from np.unique over the index rows."""
    idx = np.floor(points / voxel_size).astype(np.int64)
    uniq, inverse = np.unique(idx, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    counts = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
    sums = np.zeros((len(uniq), feats.shape[1]))
    np.add.at(sums, inverse, feats)
    return (uniq + 0.5) * voxel_size, sums / counts[:, None]


@pytest.mark.parametrize("case", ["negative", "duplicates", "one", "faces", "lines", "huge",
                                  "shuffled"])
def test_voxelize_matches_unique_grouping(case):
    rng = make_rng(109)
    size = 0.25
    pts = rng.uniform(-2.0, 2.0, size=(300, 3))
    if case == "negative":
        pts = -np.abs(pts) - 0.01
    elif case == "duplicates":
        pts = np.repeat(pts[:40], 5, axis=0)
    elif case == "one":
        pts = pts[:1]
    elif case == "faces":
        pts = rng.integers(-8, 8, size=(300, 3)) * size
    elif case == "lines":
        # voxels next to each other along one axis differ in one index only
        steps = np.repeat(np.arange(-6, 6) * size + 0.1, 2)
        pts = np.vstack([np.insert(np.full((24, 2), 0.1), axis, steps, axis=1)
                         for axis in range(3)])
    elif case == "huge":
        pts = rng.choice([-1e12, 1e12], size=(300, 3)) + rng.uniform(-1.0, 1.0, size=(300, 3))
    elif case == "shuffled":
        pts = np.repeat(pts[:60], 4, axis=0)[rng.permutation(240)]
    feats = rng.normal(size=(len(pts), 5))
    vox = voxelize(pts, feats, size)
    coords, means = _voxelize_unique(pts, feats, size)
    assert vox.coords.tobytes() == coords.tobytes()
    assert vox.features.data.tobytes() == means.tobytes()


@pytest.mark.parametrize("points, features, error, message", [
    ([[0.1, 0.2, np.nan], [0.3, 0.3, 0.3]], [[1.0], [2.0]], NonFiniteError, "point 0 "),
    ([[0.1, 0.2, 0.3], [0.3, 0.3, 0.3]], [[1.0], [np.inf]], NonFiniteError, "feature row 1 "),
    ([[0.1, 0.2, 0.3], [0.3, 1e19, 0.3]], [[1.0], [2.0]], ValueError, "point 1 .* outside int64"),
    ([[1e308, 0.2, 0.3], [0.3, 0.3, 0.3]], [[1.0], [2.0]], ValueError, "point 0 .* outside int64"),
])
def test_voxelize_names_the_first_bad_point(points, features, error, message):
    with pytest.raises(error, match=message):
        voxelize(np.array(points), np.array(features), 0.25)


def test_bilinear_exact_at_grid_points_and_midpoint():
    grid = np.zeros((2, 2, 1))
    grid[0, 0, 0] = 1.0
    grid[0, 1, 0] = 2.0
    grid[1, 0, 0] = 3.0
    grid[1, 1, 0] = 4.0
    out, valid = bilinear_sample_many(grid, np.array([[0.0, 1.0], [0.5, 0.5]]))
    assert valid.all() and out[0, 0] == 3.0
    assert out[1, 0] == pytest.approx(2.5, abs=1e-12)


def test_bilinear_reproduces_linear_functions():
    h, w = 5, 7
    vv, uu = np.mgrid[0:h, 0:w].astype(np.float64)
    grid = (2.0 * uu - 3.0 * vv + 1.0)[:, :, None]
    rng = make_rng(109)
    u = rng.uniform(0, w - 1, size=20)
    v = rng.uniform(0, h - 1, size=20)
    out, valid = bilinear_sample_many(grid, np.stack([u, v], axis=1))
    assert valid.all()
    np.testing.assert_allclose(out[:, 0], 2.0 * u - 3.0 * v + 1.0, atol=1e-12)


def test_bilinear_out_of_bounds_is_zero_invalid():
    grid = np.ones((3, 3, 2))
    out, valid = bilinear_sample_many(grid, np.array([[2.0001, 1.0], [-0.0001, 1.0], [np.nan, 1.0]]))
    assert not valid.any()
    assert np.all(out == 0.0)


def test_positional_encoding_shape_bounds_distinct():
    coords = np.array([[0.0, 0.0, 0.0], [1.3, -0.4, 2.0], [1.3, -0.4, 2.1]])
    pe = positional_encoding(coords, 32)
    assert pe.shape == (3, 32)
    assert np.all(np.abs(pe) <= 1.0)
    assert not np.allclose(pe[1], pe[2])
    again = positional_encoding(coords, 32)
    np.testing.assert_array_equal(pe, again)


def make_center_view(c2d=4, width=9, height=9):
    # camera 3 units up the -z axis looking along +z, voxel at origin
    # projects to the exact center pixel (4, 4)
    cam = CameraIntrinsics(fx=6.0, fy=6.0, cx=4.0, cy=4.0, width=width, height=height)
    pose = CameraPose(rotation=np.eye(3), translation=np.array([0.0, 0.0, -3.0]))
    rng = make_rng(113)
    grid = rng.normal(size=(height, width, c2d))
    return ViewFeatureMap(grid=grid, cam=cam, pose=pose)


def test_sample_views_exact_cell_hit_and_unseen_zero():
    view = make_center_view()
    coords = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -9.0]])  # second is behind the camera
    sampled, seen = sample_views(coords, [view])
    np.testing.assert_allclose(sampled[0], view.grid[4, 4], atol=1e-9)
    assert seen[0] and not seen[1]
    assert np.all(sampled[1] == 0.0)


def test_sample_views_averages_over_views():
    view_a = make_center_view()
    view_b = make_center_view()
    view_b.grid = view_b.grid + 2.0
    coords = np.array([[0.0, 0.0, 0.0]])
    sampled, seen = sample_views(coords, [view_a, view_b])
    np.testing.assert_allclose(sampled[0], view_a.grid[4, 4] + 1.0, atol=1e-9)


def test_voxel_feature_set_validation():
    with pytest.raises(ValueError):
        VoxelFeatureSet(coords=np.zeros((0, 3)), features=Tensor(np.zeros((0, 2))))
    with pytest.raises(ValueError):
        VoxelFeatureSet(coords=np.zeros((2, 3)), features=Tensor(np.zeros((3, 2))))
