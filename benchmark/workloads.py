"""The three benchmark workloads and the closed-loop harness that times them.

Each workload has a set-up (untimed, apart from ``setup_s``) and a timed
loop of passes.  A pass is fixed work derived from the seed, so every
deterministic quantity (losses, APs, counts) is taken from pass 0, which
always runs to completion; later passes repeat it or, for ``scene_prep``,
continue the scene stream until the time is up.  One operation starts only
after the previous one has finished.

Scene seed words are ``(seed, stream, index, attempt)``: the training set,
the held-out set and the ``scene_prep`` stream use streams 0, 1 and 2, so
the three never share a scene.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from egoground import autodiff as A
from egoground import evaluate as E
from egoground import heatmap as H
from egoground import network as N
from egoground import scenes as S
from egoground import train as T
from egoground.cli import RunConfig

import spans

TRAIN_SCENES = 24        # training set size; one step per scene visit
TRAIN_PASSES = 4         # round-robin passes per training run
EVAL_MODEL_PASSES = 2    # passes that train the model eval_heldout scores
EVAL_MODEL_SEED = 0      # that model is the same for every workload seed
HELDOUT_SCENES = 64      # held-out scenes per eval pass
PREP_BLOCK = 64          # scenes per scene_prep pass
SETUP_REPEATS = 3        # set-ups per untraced run; setup_s is their median
GEN_ATTEMPTS = 40        # same retry budget as `egoground gen`
STREAM_TRAIN, STREAM_HELDOUT, STREAM_PREP = 0, 1, 2
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9)
CALIBRATION_LOOP = 9000  # iterations of the calibration kernel
CALIBRATION_REF_MS = 1.0  # kernel time that defines one reference millisecond

CONFIG = RunConfig()
MODEL = CONFIG.model_config()
WEIGHTS = CONFIG.weights()
NUM_CLASSES = len(S.CLASS_NAMES)


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


class _Timed:
    """Times one operation (or one stretch of timed work between operations)."""

    def __init__(self, run: "Run", kind: str):
        self.run = run
        self.kind = kind
        self.id = -1
        self.ok = True

    def __enter__(self):
        run = self.run
        if run.tracer is None and self.kind == "op":
            run.calibration.append(calibration_ns())
        self.id = len(run.ops)
        if run.tracer is not None:
            run.tracer.op = self.id
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        ns = time.perf_counter_ns() - self._start
        run = self.run
        run.ops.append((run.pass_idx, ns, run.traced, self.kind))
        if run.tracer is not None:
            run.tracer.op = -1
        if exc is not None and isinstance(exc, Exception):
            self.ok = False
            run.fail(self.id, f"{type(exc).__name__}: {exc}")
            return True
        return False


class Run:
    """Timed loop state: per-operation times, failures and pass bookkeeping.

    Without a tracer, the calibration kernel runs before every operation,
    outside its timing.  With a tracer, even passes are traced and odd
    passes are not, so the same run yields both sides of the tracing
    overhead.
    """

    def __init__(self, seconds: float, tracer: spans.Tracer | None = None):
        self.seconds = seconds
        self.tracer = tracer
        self.ops: list[tuple] = []         # (pass, ns, traced, kind)
        self.failed: set[int] = set()
        self.errors: list[str] = []
        self.pass_idx = -1
        self.traced = False
        self.tape_nodes: list[int] = []    # per traced step of pass 0
        self.counts: dict[str, int] = {}    # bench-side counts from pass 0
        self.calibration: list[int] = []    # kernel ns before each untraced op
        self._start = 0.0

    @property
    def min_passes(self) -> int:
        return 2 if self.tracer is not None else 1

    def start_pass(self) -> None:
        if self.pass_idx < 0:
            self._start = time.perf_counter()
        self.pass_idx += 1
        self.traced = self.tracer is not None and self.pass_idx % 2 == 0
        if self.tracer is not None:
            if self.traced:
                self.tracer.install()
            else:
                self.tracer.uninstall()

    def expired(self) -> bool:
        return time.perf_counter() - self._start >= self.seconds

    def done(self) -> bool:
        """Stop between passes once time is up and enough passes ran."""
        return self.pass_idx + 1 >= self.min_passes and self.expired()

    def may_stop_early(self) -> bool:
        """Stop inside a pass: never in pass 0, never before min_passes."""
        return self.pass_idx >= self.min_passes and self.expired()

    def op(self) -> _Timed:
        return _Timed(self, "op")

    def extra(self) -> _Timed:
        """Timed work that belongs to a pass but is no operation (reports)."""
        return _Timed(self, "extra")

    def fail(self, op_id: int, message: str) -> None:
        self.failed.add(op_id)
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, ok: bool, op_id: int, message: str) -> None:
        if not ok:
            self.fail(op_id, message)

    def ids(self, traced: bool | None = None, kinds=("op", "extra"), pass_idx=None):
        return [i for i, (p, _, tr, kind) in enumerate(self.ops)
                if kind in kinds and (traced is None or tr == traced)
                and (pass_idx is None or p == pass_idx)]

    def op_ms(self, traced: bool) -> np.ndarray:
        return np.array([self.ops[i][1] for i in self.ids(traced, ("op",))]) / 1e6


def tail(ms: np.ndarray, cap: float) -> tuple[float, float, int]:
    """Highest ladder percentile up to ``cap`` with at least ten samples beyond it.

    The cap keeps the percentile fixed when a faster host or a faster
    program fits more operations into the run.  Returns (percentile, value,
    samples beyond); p50 when even that has fewer than ten.
    """
    p = max([q for q in TAIL_LADDER if q <= cap and len(ms) * (1.0 - q / 100.0) >= 10.0],
            default=TAIL_LADDER[0])
    return p, float(np.percentile(ms, p)), int(np.sum(ms > np.percentile(ms, p)))


def calibration_ns() -> int:
    """Time of a fixed kernel of pure-Python integer arithmetic.

    It keeps no object past one iteration, so the run's heap and collector
    state do not change its time; an allocating kernel ran half as fast
    again in runs whose heap had grown, while the operations did not.
    """
    start = time.perf_counter_ns()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
    return time.perf_counter_ns() - start


def speed_factor(run: Run) -> float:
    """Reference milliseconds per measured millisecond over the whole run.

    The shared host drifts between faster and slower states over tens of
    seconds, and runs of identical work differed by up to a third.  The
    calibration kernel, timed before every operation, slows down with the
    host, so dividing by its median cancels most of that drift.
    """
    return CALIBRATION_REF_MS * 1e6 / float(np.median(run.calibration))


def timing(run: Run, tail_cap: float, factor: float = 1.0) -> dict:
    """Throughput, median and tail latency over the untraced passes, times scaled by ``factor``.

    Throughput counts the timed work between operations (reports) too.
    """
    rows = [(kind, ns * factor) for _, ns, traced, kind in run.ops if not traced]
    ms = np.array([ns for kind, ns in rows if kind == "op"]) / 1e6
    pct, value, beyond = tail(ms, tail_cap)
    return {"ops_per_s": len(ms) / (sum(ns for _, ns in rows) / 1e9),
            "op_ms_p50": float(np.median(ms)), "op_ms_tail": value,
            "tail_percentile": pct, "samples": len(ms), "beyond": beyond}


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


@dataclass
class Context:
    seed: int
    work: Path
    stub: S.StubEmbeddings = field(default_factory=S.StubEmbeddings)
    attempts: list[int] = field(default_factory=list)   # generation attempts per scene


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray)
                 else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def make_scene(ctx: Context, seed: int, stream: int, idx: int):
    """One scene plus its instruction, retried on failure like `egoground gen`."""
    scene_cfg = CONFIG.scene_config()
    last = "no attempts made"
    for attempt in range(GEN_ATTEMPTS):
        words = (seed, stream, idx, attempt)
        try:
            scene = S.generate_scene(scene_cfg, words)
            target = S.choose_target(scene, A.make_rng(*words, 1))
            instruction = S.make_instruction(scene, target, (*words, 2))
        except RuntimeError as exc:     # InstructionError is a RuntimeError
            last = str(exc)
            continue
        ctx.attempts.append(attempt + 1)
        return scene, [instruction]
    raise RuntimeError(f"stream {stream} scene {idx}: no valid scene after "
                       f"{GEN_ATTEMPTS} attempts ({last})")


def prepare(ctx: Context, scene, instructions):
    return T.prepare_scene(scene, instructions, ctx.stub, CONFIG.voxel_size,
                           num_classes=NUM_CLASSES)


def scene_set(ctx: Context, seed: int, stream: int, count: int):
    """`egoground gen` followed by the scene loading of `train`/`eval`."""
    batches = []
    for i in range(count):
        scene, instructions = make_scene(ctx, seed, stream, i)
        path = ctx.work / f"scene_{stream}_{i:03d}.json"
        S.save_scene(scene, instructions, path)
        scene, instructions = S.load_scene(path)
        batches.append(prepare(ctx, scene, instructions))
    return batches


def batches_digest(batches) -> str:
    return digest([S.scene_to_dict(b.scene, b.instructions) for b in batches],
                  *[b.voxels.features.data for b in batches])


def store_arrays(store: A.ParamStore) -> list[tuple[str, np.ndarray]]:
    return [(name, p.data) for name, p in store.items()]


def same_store(a: A.ParamStore, b: A.ParamStore) -> bool:
    pa, pb = store_arrays(a), store_arrays(b)
    return [n for n, _ in pa] == [n for n, _ in pb] and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for (_, x), (_, y) in zip(pa, pb))


def tape_nodes(loss: A.Tensor) -> int:
    """Distinct tensors reachable from the loss through the tape."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def pass_means(totals: list[float]) -> tuple[float, float]:
    """Mean total loss over the first and the last round-robin pass."""
    return (float(np.mean(totals[:TRAIN_SCENES])),
            float(np.mean(totals[-TRAIN_SCENES:])))


def roundtrip(ctx: Context, store: A.ParamStore, steps: int):
    """`train`'s checkpoint write followed by `eval`'s checkpoint read."""
    path = ctx.work / "model.json"
    N.save_model(store, MODEL, path,
                 extra={"run_config": CONFIG.to_dict(), "steps_trained": steps})
    loaded, model_cfg, _ = N.load_model(path)
    return loaded, model_cfg == MODEL and same_store(store, loaded)


# ---------------------------------------------------------------------------
# train_desk: `egoground train` traffic
# ---------------------------------------------------------------------------


def setup_train(ctx: Context):
    batches = scene_set(ctx, ctx.seed, STREAM_TRAIN, TRAIN_SCENES)
    return batches, batches_digest(batches), []


def run_train(ctx: Context, batches, run: Run) -> dict:
    """Repeated fresh training runs; one timed operation per optimizer step."""
    steps = TRAIN_SCENES * TRAIN_PASSES
    reference = None
    while not run.done():
        run.start_pass()
        store = N.init_model_params(MODEL, ctx.seed)
        optimizer = A.make_optimizer(CONFIG.optimizer, CONFIG.lr)
        totals = []
        for step in range(steps):
            with run.op() as op:
                loss, parts = T.training_losses(batches[step % len(batches)], store,
                                                MODEL, WEIGHTS)
                loss.backward()
                optimizer.step(store)
            if not op.ok:
                break
            run.check(math.isfinite(parts["total"]), op.id,
                      f"step {step}: non-finite loss {parts['total']}")
            totals.append(parts["total"])
            if run.traced and run.pass_idx == 0:
                run.tape_nodes.append(tape_nodes(loss))
            if run.may_stop_early():
                break
        if len(totals) < steps:
            continue
        first, last = pass_means(totals)
        run.check(last < first, op.id,
                  f"last pass mean loss {last} not below first pass {first}")
        _, ok = roundtrip(ctx, store, steps)
        run.check(ok, op.id, "trained store changed in save_model -> load_model")
        if reference is None:
            reference = totals
        run.check(totals == reference, op.id,
                  f"training run {run.pass_idx} losses differ from run 0")
    return {"train_final_loss": pass_means(reference)[1]} if reference else {}


# ---------------------------------------------------------------------------
# eval_heldout: `egoground eval` + `egoground heatmap` traffic
# ---------------------------------------------------------------------------


@dataclass
class EvalState:
    store: A.ParamStore
    heldout: list
    train_final_loss: float


def setup_eval(ctx: Context):
    """Train the scored model, round-trip its checkpoint, prepare the held-out set.

    The model is the first ``train_desk`` model of seed ``EVAL_MODEL_SEED``,
    trained for fewer passes.  Only the held-out scenes follow the workload
    seed: report cost depends on how one model's boxes meet the scenes, and
    drawing a model per seed doubled the seed-to-seed spread of that cost.
    """
    batches = scene_set(ctx, EVAL_MODEL_SEED, STREAM_TRAIN, TRAIN_SCENES)
    store = N.init_model_params(MODEL, EVAL_MODEL_SEED)
    optimizer = A.make_optimizer(CONFIG.optimizer, CONFIG.lr)
    steps = TRAIN_SCENES * EVAL_MODEL_PASSES
    history = T.train(batches, store, MODEL, WEIGHTS, optimizer, steps=steps)
    del batches
    totals = [entry["total"] for entry in history]
    loaded, ok = roundtrip(ctx, store, steps)
    errors = [] if ok else ["trained store changed in save_model -> load_model"]
    heldout = scene_set(ctx, ctx.seed, STREAM_HELDOUT, HELDOUT_SCENES)
    state = EvalState(store=loaded, heldout=heldout,
                      train_final_loss=pass_means(totals)[1])
    fingerprint = digest(totals, *[a for _, a in store_arrays(loaded)],
                         batches_digest(heldout))
    return state, fingerprint, errors


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def run_eval(ctx: Context, state: EvalState, run: Run) -> dict:
    """Passes over the held-out set: predictions and a heatmap per scene, then reports."""
    reference = None
    quality: dict = {}
    while not run.done():
        run.start_pass()
        grounding, detection = [], []
        for i, batch in enumerate(state.heldout):
            with run.op() as op:
                detection.append(T.detection_predictions(batch, state.store, MODEL))
                grounding.append(T.grounding_predictions(batch, state.store, MODEL, 0))
                out, _ = T.forward_grounding(batch, state.store, MODEL, 0)
                cam, pose = batch.scene.cameras[0]
                _, csv_path = H.export_heatmap(batch.voxels.coords,
                                               _sigmoid(out.relevance.data), cam, pose,
                                               ctx.work / f"heat_{i:03d}")
            if not op.ok:
                break
            with open(csv_path) as fh:
                rows = sum(1 for _ in fh) - 1
            run.check(rows == len(batch.voxels), op.id,
                      f"heatmap csv has {rows} rows for {len(batch.voxels)} voxels")
        if len(grounding) < len(state.heldout):
            continue
        with run.extra() as op:
            reports = {}
            for thresh in (0.25, 0.50):
                tag = f"{round(thresh * 100):02d}"
                reports[f"grounding_ap{tag}"] = E.bucket_report(grounding, thresh)
                reports[f"detection_ap{tag}"] = E.evaluate_detection(
                    detection, thresh, num_classes=NUM_CLASSES)
        if not op.ok:
            continue
        values = {name: dict(r.bucket_ap) for name, r in reports.items()}
        g25 = reports["grounding_ap25"]
        run.check(g25.bucket_counts["overall"] == len(state.heldout)
                  and len(g25.diagnostics) == len(state.heldout), op.id,
                  f"grounding report counts {g25.bucket_counts['overall']} for "
                  f"{len(state.heldout)} instructions")
        run.check(all(0.0 <= ap <= 1.0 for v in values.values() for ap in v.values()),
                  op.id, f"AP outside [0, 1]: {values}")
        if reference is None:
            reference = values
            run.counts["bucket_report_predictions"] = 2 * sum(len(g.predictions)
                                                              for g in grounding)
            quality = {
                "train_final_loss": state.train_final_loss,
                "grounding_ap25": g25.bucket_ap["overall"],
                "detection_map25": reports["detection_ap25"].bucket_ap["mAP"],
                "grounding_top1_iou": float(np.mean([d["top1_iou"] for d in g25.diagnostics])),
            }
        run.check(values == reference, op.id, f"pass {run.pass_idx} reports differ from pass 0")
    return quality


# ---------------------------------------------------------------------------
# scene_prep: `egoground gen` + scene loading traffic
# ---------------------------------------------------------------------------


def setup_prep(ctx: Context):
    return None, "", []


def run_prep(ctx: Context, _state, run: Run) -> dict:
    """A stream of fresh scenes: generate, save, load, prepare."""
    idx = 0
    while not run.done():
        run.start_pass()
        for _ in range(PREP_BLOCK):
            path = ctx.work / f"prep_{idx % PREP_BLOCK:03d}.json"
            idx += 1
            with run.op() as op:
                scene, instructions = make_scene(ctx, ctx.seed, STREAM_PREP, idx - 1)
                S.save_scene(scene, instructions, path)
                loaded, loaded_ins = S.load_scene(path)
                batch = prepare(ctx, loaded, loaded_ins)
            if not op.ok:
                continue
            run.check(S.scene_to_dict(loaded, loaded_ins) == S.scene_to_dict(scene, instructions),
                      op.id, f"scene {idx - 1} changed in save_scene -> load_scene")
            n = len(batch.voxels)
            run.check(n > 0 and batch.voxel_classes.shape == (n,)
                      and len(batch.det_targets.boxes) == len(loaded.objects)
                      and len(batch.grd_targets) == len(loaded_ins) >= 1
                      and all(t.relevance_labels.shape == (n,) for t in batch.grd_targets),
                      op.id, f"scene {idx - 1}: prepared scene lacks voxels or labels")
            if run.may_stop_early():
                break
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    op_label: str          # what one timed operation is
    setup: object
    loop: object
    first_scenes: int      # scenes generated by one set-up or by pass 0
    tail_cap: float        # tail percentile when a run has enough samples


WORKLOADS = {
    "train_desk": Workload("train_desk", "step", setup_train, run_train, TRAIN_SCENES, 97.5),
    "eval_heldout": Workload("eval_heldout", "scene", setup_eval, run_eval,
                             TRAIN_SCENES + HELDOUT_SCENES, 95.0),
    "scene_prep": Workload("scene_prep", "scene", setup_prep, run_prep, PREP_BLOCK, 97.5),
}


def cold_import(root: Path, env: dict) -> None:
    """Import the package in a fresh interpreter, as every CLI command does."""
    subprocess.run([sys.executable, "-c", "import egoground.cli"], cwd=root, env=env,
                   check=True, timeout=120)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
