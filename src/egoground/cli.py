"""Command line: scene generation, training, evaluation, gradcheck, heatmaps.

Subcommands share one RunConfig.  A config file (JSON mirroring RunConfig)
is loaded first and explicit flags override it.  A command takes only the
flags it reads: ``--config`` goes to `gen`, `train` and `eval`, ``--seed``
to `gen`, `train` and `gradcheck`.  `train` dumps the effective
config next to the checkpoint so a run can be reproduced from its artifacts
alone.  Every command is deterministic under a fixed seed, exits 0 on
success and prints a single-line diagnostic to stderr with exit code 1 on
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .autodiff import GradCheckReport, _sigmoid, grad_check, make_optimizer, make_rng
from .evaluate import bucket_report, evaluate_detection, format_report, save_report
from .losses import LossWeights
from .network import MODULES, ModelConfig, init_model_params, load_model, module_of, save_model
from .scenes import (
    CLASS_NAMES,
    InstructionError,
    Scene,
    SceneConfig,
    StubEmbeddings,
    choose_target,
    generate_scene,
    load_scene,
    make_instruction,
    save_scene,
)
from .train import (
    SceneBatch,
    detection_predictions,
    grounding_predictions,
    prepare_scene,
    train,
    training_losses,
)

_GEN_ATTEMPTS = 40


def _check_fields(cls, data: dict, prefix: str = "") -> None:
    """Reject unknown keys and wrong types of dataclass ``cls``; config floats are finite."""
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(prefix + u for u in unknown)}")
    hints = typing.get_type_hints(cls)
    for name, value in data.items():
        want = hints[name]
        accepted = (int, float) if want is float else want
        if isinstance(value, bool) != (want is bool) or not isinstance(value, accepted):
            raise ValueError(f"config field '{prefix}{name}' must be {want.__name__}, "
                             f"got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"config field '{prefix}{name}' must be finite, got {value!r}")


@dataclass
class RunConfig:
    """Everything a run needs; defaults give the desk-scale model."""
    dim: int = ModelConfig.dim
    layers: int = ModelConfig.layers
    heads: int = ModelConfig.heads
    k_det: int = ModelConfig.k_det
    k_grd: int = ModelConfig.k_grd
    voxel_size: float = 0.25
    lambda_cls: float = LossWeights.lambda_cls
    lambda_box: float = LossWeights.lambda_box
    lambda_ground: float = LossWeights.lambda_ground
    lambda_spatial: float = LossWeights.lambda_spatial
    optimizer: str = "adam"
    lr: float = 3e-3
    steps: int = 500
    seed: int = 0
    n_scenes: int = 3
    disable_rag: bool = False
    disable_qim: bool = False
    scene: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_scenes < 1:
            raise ValueError("n_scenes must be >= 1")
        if self.steps < 0 or self.seed < 0:
            raise ValueError("steps and seed must be >= 0")
        if not (self.voxel_size > 0.0 and self.lr > 0.0):
            raise ValueError(f"voxel_size and lr must be positive, got {self.voxel_size}, {self.lr}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        # the model, loss and scene rules live in the objects built from them
        self.model_config()
        self.weights()
        _check_fields(SceneConfig, self.scene, "scene.")
        self.scene_config()

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        _check_fields(cls, data)
        return cls(**data)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def model_config(self) -> ModelConfig:
        return ModelConfig(dim=self.dim, layers=self.layers, heads=self.heads,
                           num_classes=len(CLASS_NAMES), k_det=self.k_det,
                           k_grd=self.k_grd)

    def scene_config(self) -> SceneConfig:
        return SceneConfig(**self.scene)

    def weights(self) -> LossWeights:
        return LossWeights(lambda_cls=self.lambda_cls, lambda_box=self.lambda_box,
                           lambda_ground=self.lambda_ground,
                           lambda_spatial=self.lambda_spatial)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _merged_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.load(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {}
    for name in ("seed", "steps", "lr", "k_det", "k_grd", "lambda_spatial"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "disable_rag", False):
        overrides["disable_rag"] = True
    if getattr(args, "disable_qim", False):
        overrides["disable_qim"] = True
    # flags pass the same field checks as a config file
    return RunConfig.from_dict({**cfg.to_dict(), **overrides}) if overrides else cfg


def _generate_with_instruction(cfg: RunConfig, scene_idx: int):
    scene_cfg = cfg.scene_config()
    last = "no attempts made"
    for attempt in range(_GEN_ATTEMPTS):
        words = (cfg.seed, scene_idx, attempt)
        try:
            scene = generate_scene(scene_cfg, words)
            target = choose_target(scene, make_rng(*words, 1))
            instruction = make_instruction(scene, target, (*words, 2))
            return scene, [instruction]
        except (InstructionError, RuntimeError) as exc:
            last = str(exc)
    raise RuntimeError(f"scene {scene_idx}: no valid scene after "
                       f"{_GEN_ATTEMPTS} attempts ({last})")


def _load_scene_files(path: str) -> list[tuple[Path, Scene, list]]:
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.json"))
        if not files:
            raise ValueError(f"no .json scene files in {p}")
    elif p.is_file():
        files = [p]
    else:
        raise ValueError(f"scene path {p} does not exist")
    out = []
    for f in files:
        scene, instructions = load_scene(f)
        out.append((f, scene, instructions))
    return out


def _prepare_batches(cfg: RunConfig, scene_files) -> list[SceneBatch]:
    stub = StubEmbeddings()
    batches = []
    for path, scene, instructions in scene_files:
        if not instructions:
            raise ValueError(f"{path} carries no instructions")
        batches.append(prepare_scene(scene, instructions, stub, cfg.voxel_size,
                                     num_classes=len(CLASS_NAMES)))
    return batches


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    cfg = _merged_config(args)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc}") from exc
    if not out.is_dir():
        raise ValueError(f"output path {out} is not a directory")
    for s in range(cfg.n_scenes):
        scene, instructions = _generate_with_instruction(cfg, s)
        path = out / f"scene_{s:03d}.json"
        save_scene(scene, instructions, path)
        print(f"wrote {path}")
    return 0


def _log_line(entry: dict) -> str:
    return (f"step {entry['step']:4d}  total {entry['total']:.6f}  "
            f"det {entry['det_total']:.6f}  grd {entry['grd_total']:.6f}  "
            f"aux {entry['aux_det'] + entry['aux_grd']:.6f}")


def cmd_train(args) -> int:
    cfg = _merged_config(args)
    scene_files = _load_scene_files(args.scenes)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)  # fail before training, not after
    batches = _prepare_batches(cfg, scene_files)
    model_cfg = cfg.model_config()
    store = init_model_params(model_cfg, cfg.seed)
    optimizer = make_optimizer(cfg.optimizer, cfg.lr)
    history = train(batches, store, model_cfg, cfg.weights(), optimizer,
                    steps=cfg.steps, use_rag=not cfg.disable_rag,
                    use_qim=not cfg.disable_qim,
                    log=lambda e: print(_log_line(e)))
    save_model(store, model_cfg, out,
               extra={"run_config": cfg.to_dict(), "steps_trained": cfg.steps})
    cfg.save(out.with_name(out.stem + ".config.json"))
    final = history[-1]["total"] if history else float("nan")
    print(f"saved checkpoint {out} after {cfg.steps} steps (final total "
          f"{final:.6f})" if history else f"saved checkpoint {out} at initialization")
    return 0


def _thresholds(extra: float | None) -> list[float]:
    ts = [0.25, 0.50]
    if extra is not None and all(abs(extra - t) > 1e-9 for t in ts):
        ts.append(extra)
    return ts


def cmd_eval(args) -> int:
    store, model_cfg, extra = load_model(args.checkpoint)
    run_cfg = RunConfig.from_dict(extra["run_config"]) if "run_config" in extra \
        else RunConfig()
    cfg = _merged_config(args)
    use_rag = not (run_cfg.disable_rag or cfg.disable_rag)
    use_qim = not (run_cfg.disable_qim or cfg.disable_qim)
    scene_files = _load_scene_files(args.scenes)
    batches = _prepare_batches(run_cfg, scene_files)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    grounding = []
    detection = []
    for batch in batches:
        detection.append(detection_predictions(batch, store, model_cfg))
        for i in range(len(batch.instructions)):
            grounding.append(grounding_predictions(batch, store, model_cfg, i,
                                                   use_rag=use_rag, use_qim=use_qim))
    for thresh in _thresholds(args.iou):
        tag = f"{round(thresh * 100):02d}"
        g_report = bucket_report(grounding, thresh)
        save_report(g_report, out / f"grounding_ap{tag}.json", title="grounding")
        print(format_report(g_report, title="grounding"), end="")
        d_report = evaluate_detection(detection, thresh, num_classes=len(CLASS_NAMES))
        save_report(d_report, out / f"detection_ap{tag}.json", title="detection")
        print(format_report(d_report, title="detection"), end="")
    return 0


def gradcheck_model(seed: int, tol: float, eps: float) -> tuple[GradCheckReport, dict]:
    """Finite-difference check of both task objectives on a tiny scene.

    Returns the raw report plus per-module summaries {module: (params, max_err)}.
    """
    cfg = RunConfig(dim=8, heads=2, layers=1, k_det=4, k_grd=3, voxel_size=1.2,
                    seed=seed, scene={"n_objects_min": 2, "n_objects_max": 3,
                                      "image_width": 16, "image_height": 12,
                                      "focal": 12.0, "force_distractors": True})
    scene, instructions = _generate_with_instruction(cfg, 0)
    batch = prepare_scene(scene, instructions, StubEmbeddings(), cfg.voxel_size,
                          num_classes=len(CLASS_NAMES))
    model_cfg = cfg.model_config()
    store = init_model_params(model_cfg, cfg.seed)
    weights = cfg.weights()

    def fn(s):
        loss, _ = training_losses(batch, s, model_cfg, weights)
        return loss

    report = grad_check(fn, store, eps=eps, tol=tol)
    modules: dict[str, tuple[int, float]] = {}
    for name, err in report.per_param.items():
        module = module_of(name)
        count, worst = modules.get(module, (0, 0.0))
        modules[module] = (count + 1, max(worst, err))
    return report, modules


def cmd_gradcheck(args) -> int:
    tol = args.tol if args.tol is not None else 1e-4
    eps = args.eps if args.eps is not None else 1e-5
    seed = args.seed if args.seed is not None else 0
    start = time.time()
    report, modules = gradcheck_model(seed, tol, eps)
    width = max(len(m) for m, _ in MODULES)
    print(f"{'module':<{width}}  {'params':>6}  {'max_rel_err':>12}  status")
    failed = False
    for module, _ in MODULES:
        if module not in modules:
            continue
        count, worst = modules[module]
        ok = worst <= tol
        failed |= not ok
        print(f"{module:<{width}}  {count:>6d}  {worst:>12.3e}  "
              f"{'pass' if ok else 'FAIL'}")
    print(f"checked {len(report.per_param)} parameter tensors in "
          f"{time.time() - start:.1f}s (tol {tol:g}, eps {eps:g})")
    return 1 if failed else 0


def cmd_heatmap(args) -> int:
    from .heatmap import export_heatmap
    from .train import forward_grounding

    store, model_cfg, extra = load_model(args.checkpoint)
    run_cfg = RunConfig.from_dict(extra["run_config"]) if "run_config" in extra \
        else RunConfig()
    if run_cfg.disable_rag:
        raise ValueError(f"{args.checkpoint} was trained with --disable-rag, "
                         "so it has no trained relevance head to draw")
    scene, instructions = load_scene(args.scene)
    if not instructions:
        raise ValueError(f"{args.scene} carries no instructions")
    if not 0 <= args.view < len(scene.cameras):
        raise ValueError(f"view {args.view} out of range "
                         f"(scene has {len(scene.cameras)} cameras)")
    batch = prepare_scene(scene, instructions, StubEmbeddings(), run_cfg.voxel_size,
                          num_classes=len(CLASS_NAMES))
    out, _ = forward_grounding(batch, store, model_cfg, 0, use_qim=not run_cfg.disable_qim)
    scores = _sigmoid(out.relevance.data)
    cam, pose = scene.cameras[args.view]
    ppm, csv_path = export_heatmap(batch.voxels.coords, scores, cam, pose, args.out)
    print(f"wrote {ppm} and {csv_path} ({len(batch.voxels)} voxels)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="egoground",
                                     description="desk-scale multi-view grounding")
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config file mirroring RunConfig")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gen", parents=[config, seed], help="generate synthetic scene files")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", parents=[config, seed], help="train on scene files")
    p.add_argument("--scenes", required=True, help="scene file or directory")
    p.add_argument("--out", required=True, help="checkpoint path (.json)")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--k-det", dest="k_det", type=int, default=None)
    p.add_argument("--k-grd", dest="k_grd", type=int, default=None)
    p.add_argument("--lambda-spatial", dest="lambda_spatial", type=float, default=None)
    p.add_argument("--disable-rag", action="store_true")
    p.add_argument("--disable-qim", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", parents=[config], help="evaluate a checkpoint")
    p.add_argument("--scenes", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--iou", type=float, default=None,
                   help="additional IoU threshold beyond 0.25 and 0.50")
    p.add_argument("--disable-rag", action="store_true")
    p.add_argument("--disable-qim", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", parents=[seed], help="finite-difference gradient check")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("heatmap", help="export a relevance heatmap")
    p.add_argument("--scene", required=True, help="scene file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--view", type=int, required=True)
    p.add_argument("--out", required=True, help="output prefix (.ppm/.csv)")
    p.set_defaults(fn=cmd_heatmap)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
