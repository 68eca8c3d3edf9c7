"""CLI behavior: config round trips, command plumbing, determinism, errors."""

import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from egoground.autodiff import make_rng
from egoground.cli import RunConfig, _thresholds, main
from egoground.network import init_model_params, load_model
from egoground.scenes import SceneConfig, load_scene

SMOKE = {
    "n_scenes": 2,
    "steps": 2,
    "voxel_size": 0.4,
    "scene": {"force_distractors": True, "image_width": 24, "image_height": 18,
              "focal": 18.0},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(SMOKE))
    scenes = root / "scenes"
    assert main(["gen", "--config", str(cfg_path), "--out", str(scenes),
                 "--seed", "5"]) == 0
    ckpt = root / "ckpt.json"
    assert main(["train", "--config", str(cfg_path), "--scenes", str(scenes),
                 "--out", str(ckpt), "--seed", "5"]) == 0
    return {"root": root, "cfg": cfg_path, "scenes": scenes, "ckpt": ckpt}


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------


def test_cli_import_loads_numpy_only():
    # every command starts with this import; scipy.optimize would triple its time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, egoground.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_run_config_defaults():
    cfg = RunConfig()
    assert (cfg.lambda_cls, cfg.lambda_box, cfg.lambda_ground, cfg.lambda_spatial) \
        == (1.0, 1.0, 1.0, 0.01)
    assert cfg.optimizer == "adam"


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(dim=0)
    with pytest.raises(ValueError):
        RunConfig(lr=-1.0)
    with pytest.raises(ValueError):
        RunConfig(lambda_spatial=-0.1)
    with pytest.raises(ValueError):
        RunConfig(optimizer="lbfgs")
    with pytest.raises(ValueError):
        RunConfig(scene={"n_cameras": 0})
    for name in ("lr", "voxel_size", "lambda_cls", "lambda_box", "lambda_ground",
                 "lambda_spatial"):
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: math.nan})  # the range checks refuse NaN


def test_run_config_rejects_model_it_cannot_build():
    with pytest.raises(ValueError, match="divisible by heads"):
        RunConfig(dim=6, heads=4)
    with pytest.raises(ValueError, match="heads"):
        RunConfig(heads=0)


def test_run_config_from_dict_checks_field_types():
    for data, field in [({"steps": "10"}, "steps"), ({"steps": True}, "steps"),
                        ({"lr": "0.1"}, "lr"), ({"disable_rag": 1}, "disable_rag"),
                        ({"optimizer": 3}, "optimizer"), ({"scene": []}, "scene")]:
        with pytest.raises(ValueError, match=f"config field '{field}' must be"):
            RunConfig.from_dict(data)
    assert RunConfig.from_dict({"lr": 1, "voxel_size": 1}).lr == 1  # an int is a float
    with pytest.raises(ValueError, match="JSON object"):
        RunConfig.from_dict([["steps", 10]])


def test_run_config_checks_scene_fields():
    for scene, field in [({"image_width": "32"}, "scene.image_width"),
                         ({"n_cameras": 2.5}, "scene.n_cameras"),
                         ({"force_distractors": 1}, "scene.force_distractors"),
                         ({"focal": True}, "scene.focal")]:
        with pytest.raises(ValueError, match=f"config field '{field}' must be"):
            RunConfig.from_dict({"scene": scene})
    with pytest.raises(ValueError, match=r"unknown config fields: \['scene.typo'\]"):
        RunConfig.from_dict({"scene": {"typo": 1}})
    assert RunConfig(scene={"focal": 20}).scene_config().focal == 20  # an int is a float


def test_bad_scene_config_fails_before_any_work(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    out = tmp_path / "out"
    cases = [({"scene": scene}, field) for scene, field in [
        ({"image_width": "32"}, "scene.image_width"), ({"n_cameras": 2.5}, "scene.n_cameras"),
        ({"typo": 1}, "scene.typo"), ({"room_size": 1.0}, "room_size"),
        ({"room_size": 1.4}, "room_size"), ({"room_height": 0.5}, "room_height"),
        ({"room_height": 1.6}, "room_height"), ({"focal": math.nan}, "scene.focal"),
        ({"focal": -1.0}, "focal"), ({"image_width": 0}, "image_width"),
        ({"max_attempts": 0}, "max_attempts")]]
    cases += [({"lr": math.nan}, "'lr' must be finite"),
              ({"voxel_size": math.nan}, "'voxel_size' must be finite")]
    train = ["train", "--scenes", str(tmp_path / "nowhere"), "--out", str(out / "ckpt.json")]
    commands = [["gen", "--out", str(out)], train]
    cases = [(config, field, commands) for config, field in cases]
    # flags pass the same checks as a config file
    cases += [({}, "'lr' must be finite", [train + ["--lr", "inf"]]),
              ({}, "'lambda_spatial' must be finite", [train + ["--lambda-spatial", "nan"]])]
    for config, field, argvs in cases:
        cfg_path.write_text(json.dumps(config))
        for argv in argvs:
            assert main(argv + ["--config", str(cfg_path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1
            assert field in captured.err
            assert not out.exists()


# Values each field's own range check must refuse; every field also gets the
# wrong-type (and, for floats, non-finite) values of _BAD_BY_TYPE.
_OUT_OF_RANGE = {
    "dim": [0, -8], "layers": [-1], "heads": [0], "k_det": [0], "k_grd": [-2],
    "voxel_size": [0.0, -0.25], "lambda_cls": [-1.0], "lambda_box": [-0.5],
    "lambda_ground": [-2.0], "lambda_spatial": [-0.01], "optimizer": ["lbfgs"],
    "lr": [0.0, -3e-3], "steps": [-1], "seed": [-3], "n_scenes": [0],
    "scene.n_objects_min": [0], "scene.n_objects_max": [2], "scene.room_size": [1.4],
    "scene.room_height": [1.0], "scene.n_cameras": [0], "scene.image_width": [0],
    "scene.image_height": [-1], "scene.focal": [0.0, -1.0], "scene.max_attempts": [0],
}
_BAD_BY_TYPE = {
    float: [math.nan, math.inf, -math.inf, "0.5", True, None],
    int: [1.5, "3", True, math.nan, None],
    bool: [1, "yes", None],
    str: [3, None],
    dict: [[], "x"],
}


def test_gen_fuzzed_config_fields_fail_naming_the_field(tmp_path, capsys):
    fields = list(typing.get_type_hints(RunConfig).items())
    fields += [(f"scene.{name}", hint)
               for name, hint in typing.get_type_hints(SceneConfig).items()]
    assert set(_OUT_OF_RANGE) <= {name for name, _ in fields}
    cfg_path = tmp_path / "fuzz.json"
    out = tmp_path / "out"
    rng = make_rng(431)
    for _ in range(150):
        name, hint = fields[rng.integers(len(fields))]
        values = _BAD_BY_TYPE[hint] + _OUT_OF_RANGE.get(name, [])
        value = values[rng.integers(len(values))]
        section, _, leaf = name.rpartition(".")
        cfg_path.write_text(json.dumps({"scene": {leaf: value}} if section else {leaf: value}))
        assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 1, (name, value)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert captured.err.count("\n") == 1 and leaf in captured.err, (name, value)
        assert not out.exists()


def test_run_config_round_trip(tmp_path):
    cfg = RunConfig(dim=16, steps=7, lambda_spatial=0.05,
                    scene={"n_objects_min": 2, "n_objects_max": 3})
    path = tmp_path / "c.json"
    cfg.save(path)
    assert RunConfig.load(path) == cfg
    with pytest.raises(ValueError, match="unknown config fields"):
        RunConfig.from_dict({"dim": 8, "typo_field": 1})
    path.write_text("{broken")
    with pytest.raises(ValueError, match="JSON"):
        RunConfig.load(path)


def test_thresholds():
    assert _thresholds(None) == [0.25, 0.50]
    assert _thresholds(0.25) == [0.25, 0.50]
    assert _thresholds(0.4) == [0.25, 0.50, 0.4]


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_writes_loadable_scenes(workspace):
    files = sorted(workspace["scenes"].glob("*.json"))
    assert len(files) == 2
    for f in files:
        scene, instructions = load_scene(f)
        assert len(scene.objects) >= 2
        assert len(instructions) == 1


def test_gen_same_seed_identical_bytes(workspace, tmp_path):
    out2 = tmp_path / "again"
    assert main(["gen", "--config", str(workspace["cfg"]), "--out", str(out2),
                 "--seed", "5"]) == 0
    for f in sorted(workspace["scenes"].glob("*.json")):
        assert (out2 / f.name).read_bytes() == f.read_bytes()


def test_gen_bad_output_path(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["gen", "--out", str(blocker / "sub")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_zero_steps_equals_init(workspace, tmp_path):
    ckpt = tmp_path / "init.json"
    cfg = json.loads(workspace["cfg"].read_text())
    cfg["steps"] = 0
    cfg_path = tmp_path / "cfg0.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path), "--scenes",
                 str(workspace["scenes"]), "--out", str(ckpt), "--seed", "5"]) == 0
    store, model_cfg, extra = load_model(ckpt)
    ref = init_model_params(model_cfg, 5)
    for name in ref.names():
        assert np.array_equal(store[name].data, ref[name].data)
    assert extra["steps_trained"] == 0


def test_train_dumped_config_reproduces_run(workspace, tmp_path):
    # rerun from the effective config written next to the checkpoint
    dumped = workspace["ckpt"].with_name(workspace["ckpt"].stem + ".config.json")
    assert dumped.is_file()
    ckpt2 = tmp_path / "rerun.json"
    assert main(["train", "--config", str(dumped), "--scenes",
                 str(workspace["scenes"]), "--out", str(ckpt2)]) == 0
    a = json.loads(workspace["ckpt"].read_text())
    b = json.loads(ckpt2.read_text())
    assert a["params"] == b["params"]
    bin_a = workspace["ckpt"].with_suffix(".bin").read_bytes()
    bin_b = ckpt2.with_suffix(".bin").read_bytes()
    assert bin_a == bin_b


def test_train_disable_qim_step0_loss_identical(workspace, tmp_path, capsys):
    def step0_line(extra_flags, tag):
        ckpt = tmp_path / f"{tag}.json"
        assert main(["train", "--config", str(workspace["cfg"]), "--scenes",
                     str(workspace["scenes"]), "--out", str(ckpt), "--seed", "5",
                     "--steps", "1", *extra_flags]) == 0
        out = capsys.readouterr().out
        return next(line for line in out.split("\n") if line.startswith("step    0"))

    assert step0_line([], "qim_on") == step0_line(["--disable-qim"], "qim_off")


def test_train_creates_missing_checkpoint_dir(workspace, tmp_path):
    ckpt = tmp_path / "run" / "nested" / "ckpt.json"
    assert main(["train", "--config", str(workspace["cfg"]), "--scenes",
                 str(workspace["scenes"]), "--out", str(ckpt), "--steps", "1"]) == 0
    assert ckpt.is_file()
    assert ckpt.with_name("ckpt.config.json").is_file()


def test_train_unusable_checkpoint_dir_fails_before_training(workspace, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["train", "--config", str(workspace["cfg"]), "--scenes",
               str(workspace["scenes"]), "--out", str(blocker / "ckpt.json")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "step" not in captured.out
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_train_bad_model_config_fails_before_any_work(workspace, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"dim": 6, "heads": 4}))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg_path), "--scenes",
               str(workspace["scenes"]), "--out", str(out / "ckpt.json")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not out.exists()


def test_train_missing_scenes_dir(tmp_path, capsys):
    rc = main(["train", "--scenes", str(tmp_path / "nowhere"), "--out",
               str(tmp_path / "c.json")])
    assert rc == 1
    assert "does not exist" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_reports_both_thresholds(workspace, tmp_path):
    out = tmp_path / "reports"
    assert main(["eval", "--scenes", str(workspace["scenes"]), "--checkpoint",
                 str(workspace["ckpt"]), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"grounding_ap25.json", "grounding_ap25.txt",
                     "grounding_ap50.json", "grounding_ap50.txt",
                     "detection_ap25.json", "detection_ap25.txt",
                     "detection_ap50.json", "detection_ap50.txt"}
    data = json.loads((out / "grounding_ap25.json").read_text())
    assert data["iou_thresh"] == 0.25
    assert 0.0 <= data["buckets"]["overall"] <= 1.0


def test_eval_deterministic_and_extra_iou(workspace, tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        assert main(["eval", "--scenes", str(workspace["scenes"]), "--checkpoint",
                     str(workspace["ckpt"]), "--out", str(out), "--iou", "0.4"]) == 0
    assert (out1 / "grounding_ap40.json").is_file()
    for p in sorted(out1.iterdir()):
        assert p.read_bytes() == (out2 / p.name).read_bytes()


def test_eval_missing_checkpoint(workspace, tmp_path, capsys):
    rc = main(["eval", "--scenes", str(workspace["scenes"]), "--checkpoint",
               str(tmp_path / "none.json"), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# heatmap
# ---------------------------------------------------------------------------


def test_heatmap_command(workspace, tmp_path):
    scene_file = sorted(workspace["scenes"].glob("*.json"))[0]
    prefix = tmp_path / "heat"
    assert main(["heatmap", "--scene", str(scene_file), "--checkpoint",
                 str(workspace["ckpt"]), "--view", "1", "--out", str(prefix)]) == 0
    ppm = prefix.with_suffix(".ppm")
    csv_path = prefix.with_suffix(".csv")
    assert ppm.read_bytes().startswith(b"P6\n24 18\n255\n")
    scene, _ = load_scene(scene_file)
    rows = csv_path.read_text().strip().split("\n")
    # row count equals the voxel count announced in the PPM pairing
    from egoground.scenes import StubEmbeddings
    from egoground.train import prepare_scene
    batch = prepare_scene(scene, [], StubEmbeddings(), 0.4, 6)
    assert len(rows) == 1 + len(batch.voxels)


def test_heatmap_view_out_of_range(workspace, tmp_path, capsys):
    scene_file = sorted(workspace["scenes"].glob("*.json"))[0]
    rc = main(["heatmap", "--scene", str(scene_file), "--checkpoint",
               str(workspace["ckpt"]), "--view", "9", "--out",
               str(tmp_path / "h")])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


def test_heatmap_refuses_disable_rag_checkpoint(workspace, tmp_path, capsys):
    ckpt = tmp_path / "norag.json"
    assert main(["train", "--config", str(workspace["cfg"]), "--scenes",
                 str(workspace["scenes"]), "--out", str(ckpt), "--steps", "1",
                 "--disable-rag"]) == 0
    capsys.readouterr()
    scene_file = sorted(workspace["scenes"].glob("*.json"))[0]
    prefix = tmp_path / "heat"
    rc = main(["heatmap", "--scene", str(scene_file), "--checkpoint", str(ckpt),
               "--view", "0", "--out", str(prefix)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "disable-rag" in err and err.count("\n") == 1
    assert not prefix.with_suffix(".ppm").exists()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("argv", [
    ["heatmap", "--scene", "s.json", "--checkpoint", "c.json", "--view", "0", "--out", "h",
     "--config", "cfg.json"],
    ["heatmap", "--scene", "s.json", "--checkpoint", "c.json", "--view", "0", "--out", "h",
     "--seed", "99"],
    ["gradcheck", "--config", "cfg.json"],
    ["eval", "--scenes", "s", "--checkpoint", "c.json", "--out", "r", "--seed", "1"],
])
def test_flags_a_command_ignores_are_rejected(argv, tmp_path, monkeypatch, capsys):
    # each command takes --config or --seed only if it reads it
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
