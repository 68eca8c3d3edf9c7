"""The benchmark's calls into the package must keep resolving and keep their meaning.

The tracer wraps names at their module or class attributes, and the
workloads read parameter stores, walk the tape and round-trip checkpoints
through the package's public functions.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from egoground import autodiff as A
from egoground import evaluate as E
from egoground import network as N
from egoground import scenes as S
from egoground import train as T

BENCH = Path(__file__).resolve().parents[1] / "benchmark"
SPANS = BENCH / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_traced_names_resolve():
    missing = []
    for module_name, attr, _ in _targets():
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or leaf not in vars(owner):
            missing.append(f"{module_name}:{attr}")
    assert not missing, f"benchmark traces names that do not exist: {missing}"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


def _trained_store(wl, ctx, steps):
    (batch,) = wl.scene_set(ctx, 0, wl.STREAM_TRAIN, 1)
    store = N.init_model_params(wl.MODEL, 0)
    optimizer = A.make_optimizer(wl.CONFIG.optimizer, wl.CONFIG.lr)
    for _ in range(steps):
        loss, _ = T.training_losses(batch, store, wl.MODEL, wl.WEIGHTS)
        loss.backward()
        optimizer.step(store)
    return store


def test_trained_arena_store_survives_benchmark_round_trip(workloads, tmp_path):
    ctx = workloads.Context(seed=0, work=tmp_path)
    store = _trained_store(workloads, ctx, 2)
    _, ok = workloads.roundtrip(ctx, store, 2)
    assert ok  # workloads.same_store: names, order, shapes and bytes


def test_tape_nodes_walks_parents_of_fused_ops(workloads):
    store = A.ParamStore()
    A.init_linear(store, "lin", 2, 3, A.make_rng(0))
    x = A.Tensor([[1.0, 2.0]])
    out = A.linear(x, store, "lin")
    assert out._parents == (x, store["lin.w"], store["lin.b"])
    assert workloads.tape_nodes(out) == 4


def test_adam_step_resolves_on_the_class(monkeypatch):
    calls = []
    original = A.Adam.step

    def traced(self, store):
        calls.append(store)
        return original(self, store)

    monkeypatch.setattr(A.Adam, "step", traced)  # what the tracer does
    store = A.ParamStore()
    store.create("w", [1.0, 2.0])
    optimizer = A.make_optimizer("adam", 0.1)
    assert "step" not in vars(optimizer)
    optimizer.step(store)
    assert calls == [store]


def test_workloads_run_one_scene_each_without_errors(workloads, tmp_path, monkeypatch):
    # Two passes of each timed loop, the first traced: every traced function
    # is called through the tracer's wrapper with the benchmark's arguments.
    # A scene_prep pass is a block of fresh scenes; two keep it short.
    monkeypatch.setattr(workloads, "PREP_BLOCK", 2)
    spans = importlib.import_module("spans")
    ctx = workloads.Context(seed=0, work=tmp_path)
    (train_batch,) = workloads.scene_set(ctx, 0, workloads.STREAM_TRAIN, 1)
    (heldout,) = workloads.scene_set(ctx, 0, workloads.STREAM_HELDOUT, 1)
    state = workloads.EvalState(store=N.init_model_params(workloads.MODEL, 0),
                                heldout=[heldout], train_final_loss=0.0)
    tracers = []
    try:
        for run_workload, arg in ((workloads.run_eval, state),
                                  (workloads.run_train, [train_batch]),
                                  (workloads.run_prep, None)):
            tracers.append(spans.Tracer())
            run = workloads.Run(0.0, tracers[-1])
            run_workload(ctx, arg, run)
            assert run.errors == []
            assert run.pass_idx == 1 and run.ids(traced=True) and run.ids(traced=False)
    finally:
        for tracer in tracers:
            tracer.uninstall()


def test_scene_prep_spans_fire_per_view_and_per_scene(workloads, tmp_path):
    # the per-layer figures of scene_prep read these spans; an inlined or
    # renamed function would zero them without failing anything else
    spans = importlib.import_module("spans")
    ctx = workloads.Context(seed=0, work=tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        views = 0
        for i in range(2):
            scene, instructions = workloads.make_scene(ctx, 0, workloads.STREAM_PREP, i)
            path = tmp_path / f"prep_{i}.json"
            S.save_scene(scene, instructions, path)
            loaded, loaded_ins = S.load_scene(path)
            workloads.prepare(ctx, loaded, loaded_ins)
            views += len(loaded.cameras)
    finally:
        tracer.uninstall()
    calls = {name: entry["calls"] for name, entry in tracer.summary().items() if name != "_top_ns"}
    assert views >= 2
    assert calls["scenes.render"] == views
    assert calls["geometry.voxelize"] == calls["train.prepare_scene"] == 2


def test_eval_report_iou_spans_fire_once_per_scored_pair(workloads, tmp_path):
    # the per-layer IoU figures of eval_heldout read this span; an IoU
    # inlined into evaluate would zero them without failing anything else
    spans = importlib.import_module("spans")
    ctx = workloads.Context(seed=0, work=tmp_path)
    heldout = workloads.scene_set(ctx, 0, workloads.STREAM_HELDOUT, 2)
    store = N.init_model_params(workloads.MODEL, 0)
    detection = [T.detection_predictions(b, store, workloads.MODEL) for b in heldout]
    grounding = [T.grounding_predictions(b, store, workloads.MODEL, 0) for b in heldout]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for thresh in (0.25, 0.50):
            E.bucket_report(grounding, thresh)
            E.evaluate_detection(detection, thresh, num_classes=workloads.NUM_CLASSES)
    finally:
        tracer.uninstall()
    calls = tracer.summary()["boxes.box_iou_exact"]["calls"]
    predictions = sum(len(g.predictions) for g in grounding)
    same_class = sum(pc == gc for d in detection
                     for pc in d.pred_classes for gc in d.gt_classes)
    assert predictions > 0 and same_class > 0
    assert calls == predictions + same_class


def test_eval_operation_builds_one_trunk_under_the_tracer(workloads, tmp_path, monkeypatch):
    # an eval_heldout operation runs detection, grounding and the heatmap's
    # grounding forward; they share one trunk and one pass per task body
    spans = importlib.import_module("spans")
    monkeypatch.setattr(T, "_memo", None)
    ctx = workloads.Context(seed=0, work=tmp_path)
    (heldout,) = workloads.scene_set(ctx, 0, workloads.STREAM_HELDOUT, 1)
    state = workloads.EvalState(store=N.init_model_params(workloads.MODEL, 0),
                                heldout=[heldout], train_final_loss=0.0)
    tracer = spans.Tracer()
    run = workloads.Run(0.0, tracer)
    try:
        workloads.run_eval(ctx, state, run)
    finally:
        tracer.uninstall()
    assert run.errors == []
    ops = run.ids(traced=True, kinds=("op",))
    assert len(ops) == 1 and len(heldout.instructions) == 1
    calls = {name: entry["calls"] for name, entry in tracer.summary(ops).items()
             if name != "_top_ns"}
    assert calls["train.detection_predictions"] == calls["train.grounding_predictions"] == 1
    assert calls["geometry.encode_voxels"] == calls["geometry.fuse_features"] == 1
    assert calls["network.decoder_forward"] == 2
