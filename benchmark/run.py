#!/usr/bin/env python3
"""egoground benchmark: one closed-loop workload per process.

    python3 benchmark/run.py --workload train_desk --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from anywhere; the package is imported from ``src/`` beside this
directory.  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` makes the traced run that gives the per-layer metrics and the
tracing overhead.  ``--workload all`` runs each workload in its own fresh
process.  The last line of standard output is the JSON result; the lines
before it print every metric by name and unit.  A full record (static
facts, tail percentile and sample count, errors) goes to
``benchmark/results/``, and a traced run also writes its spans there.
See README.md in this directory for the metric map.
"""

import os

# Pin BLAS to one thread before numpy loads (OpenBLAS otherwise starts one
# thread per core); the package is specified as single-core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("train_desk", "eval_heldout", "scene_prep")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
)

# The generic throughput / latency names above, as each workload calls them.
WORKLOAD_NAMES_FOR = {
    "train_desk": {"ops_per_s": "train_steps_per_s", "op_ms_p50": "train_step_ms_p50",
                   "op_ms_tail": "train_step_ms_tail"},
    "eval_heldout": {"ops_per_s": "eval_scenes_per_s", "op_ms_p50": "eval_scene_ms_p50",
                     "op_ms_tail": "eval_scene_ms_tail"},
    "scene_prep": {"ops_per_s": "prep_scenes_per_s", "op_ms_p50": "prep_scene_ms_p50",
                   "op_ms_tail": "prep_scene_ms_tail"},
}

QUALITY_UNITS = {"train_final_loss": "loss", "grounding_ap25": "AP",
                 "detection_map25": "AP", "grounding_top1_iou": "IoU"}

PER_LAYER = (
    ("autodiff.tape_nodes_per_step", "count"),
    ("autodiff.backward_ms_per_step", "ms"),
    ("autodiff.optimizer_ms_per_step", "ms"),
    ("autodiff.gc_pause_ms_per_step", "ms"),
    ("autodiff.gc_gen2_collections", "count"),
    ("losses.hungarian_ms_per_step", "ms"),
    ("losses.lsa_calls_per_hungarian", "count"),
    ("losses.matching_cost_ms_per_step", "ms"),
    ("losses.total_loss_self_ms_per_step", "ms"),
    ("network.scoring_logits_ms", "ms"),
    ("network.select_queries_ms", "ms"),
    ("network.embed_text_ms", "ms"),
    ("network.qim_modulate_ms", "ms"),
    ("network.rag_apply_ms", "ms"),
    ("network.decoder_forward_ms", "ms"),
    ("network.save_model_ms", "ms"),
    ("network.load_model_ms", "ms"),
    ("geometry.fuse_features_ms_per_step", "ms"),
    ("geometry.encode_voxels_ms_per_step", "ms"),
    ("geometry.voxelize_ms", "ms"),
    ("geometry.backproject_depth_ms", "ms"),
    ("boxes.iou_exact_calls", "count"),
    ("boxes.iou_exact_ms_per_call", "ms"),
    ("boxes.iou_exact_zero_share", "ratio"),
    ("boxes.degenerate_fallbacks", "count"),
    ("boxes.contains_points_ms", "ms"),
    ("evaluate.iou_calls_per_prediction", "count"),
    ("evaluate.match_predictions_ms", "ms"),
    ("evaluate.bucket_report_ms", "ms"),
    ("evaluate.evaluate_detection_ms", "ms"),
    ("heatmap.export_heatmap_ms", "ms"),
    ("scenes.generate_scene_ms", "ms"),
    ("scenes.attempts_per_scene", "count"),
    ("scenes.render_ms", "ms"),
    ("scenes.view_feature_map_ms", "ms"),
    ("scenes.save_scene_ms", "ms"),
    ("scenes.load_scene_ms", "ms"),
    ("train.prepare_scene_ms", "ms"),
    ("train.forward_loss_ms_per_step", "ms"),
    ("train.predictions_ms_per_scene", "ms"),
    ("train.final_loss", "loss"),
    ("evaluate.grounding_ap25", "AP"),
    ("evaluate.detection_map25", "AP"),
    ("evaluate.grounding_top1_iou", "IoU"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.overhead_ms_per_op", "ms"),
    ("trace.overhead_share", "%"),
    ("trace.attributed_ms_per_op", "ms"),
)

# Exact quantities: bit-identical across runs of one commit and seed.
DETERMINISTIC = (
    "train_final_loss", "grounding_ap25", "detection_map25", "grounding_top1_iou",
    "setup_digest", "autodiff.tape_nodes_per_step", "losses.lsa_calls_per_hungarian",
    "boxes.iou_exact_calls", "boxes.iou_exact_zero_share", "scenes.attempts_per_scene",
    "evaluate.iou_calls_per_prediction",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def static_facts(wl, seed: int) -> dict:
    import numpy
    import scipy

    from egoground.network import init_model_params

    store = init_model_params(wl.MODEL, seed)
    return {
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "parameters": store.total_parameters(),
        "parameter_tensors": len(store),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seeds": {"workload": seed, "model_init": seed,
                  "scene_words": "(seed, stream, index, attempt)",
                  "streams": {"train": wl.STREAM_TRAIN, "heldout": wl.STREAM_HELDOUT,
                              "prep": wl.STREAM_PREP}},
        "sizes": {"train_scenes": wl.TRAIN_SCENES, "train_passes": wl.TRAIN_PASSES,
                  "heldout_scenes": wl.HELDOUT_SCENES, "prep_block": wl.PREP_BLOCK,
                  "setup_repeats": wl.SETUP_REPEATS},
    }


def set_up(wl, workload, seed: int, work: Path, repeats: int, tracer):
    """Run the set-up ``repeats`` times; return the last state and the timings."""
    times, digests, errors = [], [], []
    state = ctx = None
    for _ in range(repeats):
        state = ctx = None
        wl.fresh_dir(work)
        start = time.perf_counter()
        if tracer is None:
            wl.cold_import(ROOT, child_env())
        ctx = wl.Context(seed=seed, work=work)
        state, digest, errs = workload.setup(ctx)
        times.append(time.perf_counter() - start)
        digests.append(digest)
        errors.extend(errs)
    if len(set(digests)) > 1:
        errors.append(f"set-up is not deterministic: digests {digests}")
    return ctx, state, times, digests[-1], errors


def layer_metrics(run, tracer, quality) -> dict:
    """Per-layer numbers from the traced passes; 0 where a layer does no work."""
    from spans import GC_SPANS, IOU_SPAN

    traced = run.ids(traced=True)
    first = run.ids(pass_idx=0)
    n_ops = len(run.ids(traced=True, kinds=("op",)))
    timed = tracer.summary(traced)
    pass0 = tracer.summary(first)
    everything = tracer.summary()

    def ms(stats, name, key="total_ns"):
        return stats.get(name, {}).get(key, 0) / 1e6

    def calls(stats, name):
        return stats.get(name, {}).get("calls", 0)

    def per_op(name, key="total_ns"):
        return ms(timed, name, key) / n_ops if n_ops else 0.0

    def per_call(stats, name):
        return ms(stats, name) / calls(stats, name) if calls(stats, name) else 0.0

    scenes = calls(everything, "train.prepare_scene")

    def per_scene(name):
        return ms(everything, name) / scenes if scenes else 0.0

    iou_pass0 = calls(pass0, IOU_SPAN)
    scored = run.counts.get("bucket_report_predictions", 0)
    untraced_ms = run.op_ms(False)
    traced_ms = run.op_ms(True)
    top = timed["_top_ns"]
    traced_ops = run.ids(traced=True, kinds=("op",))
    attributed = (sum(top.get(i, 0) for i in traced_ops) / 1e6 / len(traced_ops)
                  if traced_ops else 0.0)
    overhead = float(traced_ms.mean() - untraced_ms.mean()) if len(untraced_ms) else 0.0
    values = {
        "autodiff.tape_nodes_per_step": (sum(run.tape_nodes) / len(run.tape_nodes)
                                         if run.tape_nodes else 0.0),
        "autodiff.backward_ms_per_step": per_op("autodiff.backward"),
        "autodiff.optimizer_ms_per_step": per_op("autodiff.adam_step"),
        "autodiff.gc_pause_ms_per_step": sum(per_op(name) for name in GC_SPANS),
        "autodiff.gc_gen2_collections": calls(pass0, "gc.gen2"),
        "losses.hungarian_ms_per_step": per_op("losses.hungarian"),
        "losses.lsa_calls_per_hungarian": (calls(pass0, "losses.lsa")
                                           / calls(pass0, "losses.hungarian")
                                           if calls(pass0, "losses.hungarian") else 0.0),
        "losses.matching_cost_ms_per_step": per_op("losses.matching_cost"),
        "losses.total_loss_self_ms_per_step": per_op("losses.total_loss", "self_ns"),
        "network.save_model_ms": per_call(everything, "network.save_model"),
        "network.load_model_ms": per_call(everything, "network.load_model"),
        "geometry.fuse_features_ms_per_step": per_op("geometry.fuse_features"),
        "geometry.encode_voxels_ms_per_step": per_op("geometry.encode_voxels"),
        "geometry.voxelize_ms": per_scene("geometry.voxelize"),
        "geometry.backproject_depth_ms": per_scene("geometry.backproject_depth"),
        "boxes.iou_exact_calls": iou_pass0,
        "boxes.iou_exact_ms_per_call": per_call(timed, IOU_SPAN),
        "boxes.iou_exact_zero_share": (sum(tracer.iou_zeros.get(i, 0) for i in first)
                                       / iou_pass0 if iou_pass0 else 0.0),
        "boxes.degenerate_fallbacks": calls(pass0, "boxes.box_iou_mc"),
        "boxes.contains_points_ms": per_scene("boxes.contains_points"),
        "evaluate.iou_calls_per_prediction": (
            tracer.calls_under(IOU_SPAN, "evaluate.bucket_report", first)
            / scored if scored else 0.0),
        "evaluate.match_predictions_ms": per_op("evaluate.match_predictions"),
        "evaluate.bucket_report_ms": per_op("evaluate.bucket_report"),
        "evaluate.evaluate_detection_ms": per_op("evaluate.evaluate_detection"),
        "heatmap.export_heatmap_ms": per_op("heatmap.export_heatmap"),
        "scenes.generate_scene_ms": per_scene("scenes.generate_scene"),
        "scenes.attempts_per_scene": quality.get("scenes.attempts_per_scene", 0.0),
        "scenes.render_ms": per_scene("scenes.render"),
        "scenes.view_feature_map_ms": per_scene("scenes.view_feature_map"),
        "scenes.save_scene_ms": per_scene("scenes.save_scene"),
        "scenes.load_scene_ms": per_scene("scenes.load_scene"),
        "train.prepare_scene_ms": per_scene("train.prepare_scene"),
        "train.forward_loss_ms_per_step": per_op("train.training_losses"),
        "train.predictions_ms_per_scene": (per_op("train.detection_predictions")
                                           + per_op("train.grounding_predictions")),
        "train.final_loss": quality.get("train_final_loss", 0.0),
        "evaluate.grounding_ap25": quality.get("grounding_ap25", 0.0),
        "evaluate.detection_map25": quality.get("detection_map25", 0.0),
        "evaluate.grounding_top1_iou": quality.get("grounding_top1_iou", 0.0),
        "trace.untraced_op_ms": float(untraced_ms.mean()) if len(untraced_ms) else 0.0,
        "trace.overhead_ms_per_op": overhead,
        "trace.overhead_share": (100.0 * overhead / untraced_ms.mean()
                                 if len(untraced_ms) else 0.0),
        "trace.attributed_ms_per_op": attributed,
    }
    for name in ("scoring_logits", "select_queries", "embed_text", "qim_modulate",
                 "rag_apply", "decoder_forward"):
        values[f"network.{name}_ms"] = per_op(f"network.{name}")
    return {name: values[name] for name, _ in PER_LAYER}


def check_determinism(key: str, exact: dict) -> list[str]:
    """Compare exact quantities with earlier runs of the same code and seed."""
    path = RESULTS / "determinism.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    seen = store.setdefault(key, {})
    errors = [f"{name} = {value!r} but an earlier run of this code and seed gave "
              f"{seen[name]!r}" for name, value in exact.items()
              if name in seen and seen[name] != value]
    if not errors:
        seen.update(exact)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
        tmp.replace(path)
    return errors


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads as wl
    from spans import Tracer

    workload = wl.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        repeats = 1 if tracer is not None else wl.SETUP_REPEATS
        ctx, state, setup_times, setup_digest, setup_errors = set_up(
            wl, workload, args.seed, work, repeats, tracer)
        run = wl.Run(args.seconds, tracer)
        quality = workload.loop(ctx, state, run)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    attempts = ctx.attempts[:workload.first_scenes]
    quality["scenes.attempts_per_scene"] = sum(attempts) / len(attempts) if attempts else 0.0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "op": workload.op_label,
              "facts": static_facts(wl, args.seed), "setup_raw_s": setup_times}
    if tracer is None:
        factor = wl.speed_factor(run)
        timed = wl.timing(run, workload.tail_cap, factor)
        metrics = {"setup_s": statistics.median(setup_times) * factor,
                   "peak_rss_mb": peak_rss_mb,
                   **{k: timed[k] for k in ("ops_per_s", "op_ms_p50", "op_ms_tail")}}
        units = dict(END_TO_END)
        record.update({"speed_factor": factor, "passes": run.pass_idx + 1, "timing": timed,
                       "raw": {"setup_s": statistics.median(setup_times),
                               **wl.timing(run, workload.tail_cap)},
                       "ops": [[p, ns, kind] for p, ns, _, kind in run.ops],
                       "calibration": run.calibration})
    else:
        metrics = layer_metrics(run, tracer, quality)
        units = dict(PER_LAYER)
        spans_path = RESULTS / f"{args.workload}_seed{args.seed}.spans.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = spans_path.name

    exact = {k: v for k, v in {**quality, **metrics}.items() if k in DETERMINISTIC}
    exact["setup_digest"] = setup_digest
    guard_errors = check_determinism(f"{code_digest()}/{args.workload}/{args.seed}", exact)
    errors = setup_errors + run.errors + guard_errors
    attempted = len(run.ids(kinds=("op",))) + len(setup_times)
    failed = len(run.failed) + bool(setup_errors) + bool(guard_errors)
    correct = failed == 0

    shown = {k: (v, units[k]) for k, v in metrics.items()}
    if tracer is None:
        names = WORKLOAD_NAMES_FOR[args.workload]
        shown = {names.get(k, k): vu for k, vu in shown.items()}
        shown["failed_ops_share"] = (failed / attempted, "ratio")
        shown.update({k: (quality[k], u) for k, u in QUALITY_UNITS.items() if k in quality})
        shown["scenes.attempts_per_scene"] = (quality["scenes.attempts_per_scene"], "count")
    record.update({"named": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
                   "exact": exact, "errors": errors,
                   "correct": correct, "attempted": attempted, "failed": failed})
    (RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{attempted} attempted, {failed} failed")
    width = max(len(k) for k in shown)
    for k, (v, u) in shown.items():
        print(f"  {k:<{width}}  {v:.6g} {u}")
    if tracer is None:
        raw = record["raw"]
        print(f"  {names['op_ms_tail']} is p{timed['tail_percentile']:g} of "
              f"{timed['samples']} {workload.op_label}s ({timed['beyond']} beyond it)")
        print(f"  times are in reference units (speed factor {factor:.4f}); measured: "
              f"setup {raw['setup_s']:.6g} s, "
              f"{raw['ops_per_s']:.6g} 1/s, p50 {raw['op_ms_p50']:.6g} ms, "
              f"p{raw['tail_percentile']:g} {raw['op_ms_tail']:.6g} ms")
    print("facts " + json.dumps(record["facts"], sort_keys=True))
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so RSS and GC state are its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "egoground" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'egoground'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
