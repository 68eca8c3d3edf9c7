"""In-memory span tracing around the package's public functions.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper at
the module (or class) attribute its callers look it up through, so calls
made inside the package are traced as well as calls made by the benchmark.
A span records its name, start and end (``perf_counter_ns``), the index of
the enclosing span (-1 at top level) and the benchmark operation it belongs
to (-1 during set-up and checks).  A ``gc.callbacks`` hook records every
collector pause the same way, as a child of the span it interrupted.
Spans stay in memory until the run writes them out at the end.

A span's self time is its duration minus the durations of its direct
children; the package is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name).  Classes are listed by their module so
# that the method is replaced on the class the instance looks it up from.
TARGETS = (
    ("egoground.autodiff", "Tensor.backward", "autodiff.backward"),
    ("egoground.autodiff", "Adam.step", "autodiff.adam_step"),
    ("egoground.train", "training_losses", "train.training_losses"),
    ("egoground.train", "prepare_scene", "train.prepare_scene"),
    ("egoground.train", "detection_predictions", "train.detection_predictions"),
    ("egoground.train", "grounding_predictions", "train.grounding_predictions"),
    ("egoground.train", "forward_grounding", "train.forward_grounding"),
    ("egoground.train", "encode_voxels", "geometry.encode_voxels"),
    ("egoground.train", "fuse_features", "geometry.fuse_features"),
    ("egoground.train", "voxelize", "geometry.voxelize"),
    ("egoground.train", "backproject_depth", "geometry.backproject_depth"),
    ("egoground.train", "contains_points", "boxes.contains_points"),
    ("egoground.train", "render_depth_and_classes", "scenes.render"),
    ("egoground.train", "scoring_logits", "network.scoring_logits"),
    ("egoground.train", "select_queries", "network.select_queries"),
    ("egoground.train", "embed_text", "network.embed_text"),
    ("egoground.train", "qim_modulate", "network.qim_modulate"),
    ("egoground.train", "rag_apply", "network.rag_apply"),
    ("egoground.train", "decoder_forward", "network.decoder_forward"),
    ("egoground.train", "total_loss", "losses.total_loss"),
    ("egoground.losses", "hungarian", "losses.hungarian"),
    ("egoground.losses", "matching_cost", "losses.matching_cost"),
    ("egoground.losses", "linear_sum_assignment", "losses.lsa"),
    ("egoground.network", "save_model", "network.save_model"),
    ("egoground.network", "load_model", "network.load_model"),
    ("egoground.scenes", "generate_scene", "scenes.generate_scene"),
    ("egoground.scenes", "save_scene", "scenes.save_scene"),
    ("egoground.scenes", "load_scene", "scenes.load_scene"),
    ("egoground.scenes", "StubEmbeddings.view_feature_map", "scenes.view_feature_map"),
    ("egoground.scenes", "box_iou_exact", "boxes.box_iou_exact"),
    ("egoground.evaluate", "box_iou_exact", "boxes.box_iou_exact"),
    ("egoground.boxes", "box_iou_mc", "boxes.box_iou_mc"),
    ("egoground.evaluate", "match_predictions", "evaluate.match_predictions"),
    ("egoground.evaluate", "bucket_report", "evaluate.bucket_report"),
    ("egoground.evaluate", "evaluate_detection", "evaluate.evaluate_detection"),
    ("egoground.heatmap", "export_heatmap", "heatmap.export_heatmap"),
)

GC_SPANS = ("gc.gen0", "gc.gen1", "gc.gen2")
IOU_SPAN = "boxes.box_iou_exact"


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Span recorder; ``op`` is set by the benchmark around each operation.

    Spans live in flat integer arrays rather than in tuples, so recording
    them allocates nothing the cyclic collector tracks and the collector's
    pauses stay those of the program.
    """

    def __init__(self):
        self.names: list[str] = list(GC_SPANS)
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._op = array("q")
        self.iou_zeros: dict[int, int] = defaultdict(int)  # op -> exact-zero IoUs
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._gc_start = 0
        self._gc_parent = -1

    # ---- installation ----

    def install(self) -> None:
        if self._saved:
            return
        for module_name, attr, name in TARGETS:
            owner, leaf = _resolve(module_name, attr)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _open(self, name_id: int, parent: int) -> int:
        idx = len(self._name)
        self._name.append(name_id)
        self._start.append(0)
        self._end.append(0)
        self._parent.append(parent)
        self._op.append(self.op)
        return idx

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack
        starts, ends = self._start, self._end
        clock = time.perf_counter_ns
        count_zeros = name == IOU_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id, stack[-1] if stack else -1)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_zeros and result == 0.0:
                self.iou_zeros[self.op] += 1
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_parent = self._stack[-1] if self._stack else -1
            self._gc_start = time.perf_counter_ns()
            return
        end = time.perf_counter_ns()
        idx = self._open(info["generation"], self._gc_parent)
        self._start[idx] = self._gc_start
        self._end[idx] = end

    @property
    def spans(self):
        """(name, start_ns, end_ns, parent, op) per span, in opening order."""
        names = self.names
        return [(names[n], s, e, p, o) for n, s, e, p, o
                in zip(self._name, self._start, self._end, self._parent, self._op)]

    # ---- analysis ----

    def summary(self, ops=None) -> dict:
        """Per-name totals over the spans of the given operation ids (all if None).

        Returns {name: {"calls", "total_ns", "self_ns"}} plus the summed
        duration of top-level spans per operation under ``"_top_ns"``.
        """
        ops = None if ops is None else set(ops)
        spans = self.spans
        child_ns = defaultdict(int)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        top_ns: dict = defaultdict(int)
        for idx, (name, start, end, parent, op) in enumerate(spans):
            if ops is not None and op not in ops:
                continue
            entry = stats[name]
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[idx]
            if parent < 0:
                top_ns[op] += end - start
        out = dict(stats)
        out["_top_ns"] = dict(top_ns)
        return out

    def calls_under(self, name: str, ancestor: str, ops) -> int:
        """Spans called ``name`` in the given operations that run inside an ``ancestor`` span."""
        ops = set(ops)
        spans = self.spans
        count = 0
        for span_name, _, _, parent, op in spans:
            if span_name != name or op not in ops:
                continue
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            count += parent >= 0
        return count

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start_ns, end_ns, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
