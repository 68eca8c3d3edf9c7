"""Network module: selection, modulation, region attention, decoder, heads.

The init-identity properties are checked bit for bit, the decoder for set
equivariance under query permutation, and the whole grounding pipeline gets
a finite-difference gradient check on a tiny scene.
"""

import hashlib
import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from egoground import autodiff
from egoground.autodiff import (
    NonFiniteError,
    ParamStore,
    Tensor,
    _attention_core,
    grad_check,
    init_mlp,
    linear,
    make_rng,
    mlp,
)
from egoground.boxes import wrap_angle
from egoground.geometry import VoxelFeatureSet, positional_encoding, voxelize
from egoground.losses import LossWeights, SetTargets, box_regression_loss, total_loss
from egoground.network import (
    MODULES,
    ModelConfig,
    QuerySet,
    TextEmbedding,
    _decode_boxes,
    decoder_forward,
    embed_text,
    encode_voxels,
    encoder_input,
    fuse_features,
    init_model_params,
    load_model,
    model_shapes,
    module_of,
    qim_modulate,
    rag_apply,
    save_model,
    scoring_logits,
    select_queries,
    sentence_embed,
)
from egoground.scenes import FEAT2D_DIM, TEXT_DIM
from tape_reference import add, concat, div, getitem, mean, mul, pow_, sum_

TINY = ModelConfig(dim=8, layers=1, heads=2, k_det=4, k_grd=3)


def tiny_coords(n=6):
    return np.arange(n * 3, dtype=np.float64).reshape(n, 3) * 0.25


def tiny_fused(cfg=TINY, n=6, seed=3):
    return Tensor(make_rng(seed).normal(size=(n, cfg.dim)))


def tiny_inputs(cfg=TINY, n=6, seed=4):
    pooled = Tensor(make_rng(seed).normal(size=(n, FEAT2D_DIM)))
    return encoder_input(VoxelFeatureSet(coords=tiny_coords(n), features=pooled), cfg.dim)


def tiny_queries(fused, cfg=TINY, k=3):
    emb = Tensor(fused.data[:k] + 0.1)
    return QuerySet(embeddings=emb, positions=tiny_coords()[:k])


def tiny_text(cfg=TINY, t=2, seed=5):
    rng = make_rng(seed)
    tok = Tensor(rng.normal(size=(t, cfg.dim)))
    return TextEmbedding(tokens=tok, sentence=sentence_embed(tok))


# ---------------------------------------------------------------------------
# config / params
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(dim=6, heads=4)
    with pytest.raises(ValueError):
        ModelConfig(layers=-1)
    with pytest.raises(ValueError):
        ModelConfig(k_det=0)


def test_config_rejects_heads_below_one():
    with pytest.raises(ValueError, match="heads"):
        ModelConfig(heads=0)
    with pytest.raises(ValueError, match="heads"):
        ModelConfig(dim=32, heads=-2)


def test_config_rejects_non_int_sizes():
    with pytest.raises(ValueError, match="heads must be an int"):
        ModelConfig(heads="2")
    with pytest.raises(ValueError, match="k_det must be an int"):
        ModelConfig(k_det=4.5)
    with pytest.raises(ValueError, match="layers must be an int"):
        ModelConfig(layers=True)


def test_load_model_names_checkpoint_on_bad_model_config(tmp_path):
    store = init_model_params(TINY, seed=1)
    for i, (change, field) in enumerate([({"typo": 1}, "typo"), ({"heads": "2"}, "heads"),
                                         ({"k_det": 4.5}, "k_det"),
                                         ({"disable_qim": 1}, "disable_qim"),
                                         ({"disable_rag": "false"}, "disable_rag")]):
        path = tmp_path / f"bad{i}.json"
        save_model(store, TINY, path)
        manifest = json.loads(path.read_text())
        manifest["extra"]["model_config"].update(change)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=rf"bad{i}\.json.*{field}"):
            load_model(path)


def test_load_model_rejects_missing_model_config_fields(tmp_path):
    # no tensor shape depends on heads, k_det, k_grd or the switches, so a
    # missing field must not fall back to its default; the five-field
    # model_config of checkpoints written before the switches is refused too
    cfg = ModelConfig(dim=8, layers=1, heads=4, k_det=8, k_grd=3, disable_rag=True)
    for dropped in (["heads", "k_det"], ["disable_qim", "disable_rag"]):
        path = tmp_path / "old.json"
        save_model(init_model_params(cfg, seed=1), cfg, path)
        manifest = json.loads(path.read_text())
        for name in dropped:
            del manifest["extra"]["model_config"][name]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=rf"old\.json: missing model_config fields "
                                             rf"\['{dropped[0]}', '{dropped[1]}'\]"):
            load_model(path)


@pytest.mark.parametrize("name, value", [("text_dim", 16), ("feat2d_dim", 16),
                                         ("ffn_mult", 2), ("num_classes", 6)])
def test_load_model_rejects_widths_the_config_no_longer_holds(tmp_path, name, value):
    # the stub embeddings own the input widths and the class count
    path = tmp_path / "model.json"
    save_model(init_model_params(TINY, seed=1), TINY, path)
    manifest = json.loads(path.read_text())
    manifest["extra"]["model_config"][name] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"unknown model_config fields \['{name}'\]"):
        load_model(path)


def test_init_deterministic_and_complete():
    a = init_model_params(TINY, seed=7)
    b = init_model_params(TINY, seed=7)
    assert a.names() == b.names()
    for name in a.names():
        assert np.array_equal(a[name].data, b[name].data)
    c = init_model_params(TINY, seed=8)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a.names())
    assert any(module_of(n) == "decoder" for n in a.names())


def test_init_golden_bytes():
    # names, shapes and values of the default model, pinned: any change to
    # the order of creation or of random draws shows here
    h = hashlib.sha256()
    for name, p in init_model_params(ModelConfig(), 0).items():
        h.update(name.encode())
        h.update(repr(p.shape).encode())
        h.update(p.data.tobytes())
    assert h.hexdigest() == "aecc6312774607c7a3cb8305bff9dff10ede16d8335f8b15702e7de1ff910ef5"


def test_module_grouping_covers_all_params():
    for cfg in (TINY, ModelConfig()):
        names = init_model_params(cfg, 0).names()
        groups = [module_of(name) for name in names]
        assert "other" not in groups
        assert set(groups) == {module for module, _ in MODULES}


# ---------------------------------------------------------------------------
# checkpoints: the stored model_config is the payload's only description
# ---------------------------------------------------------------------------


def _saved(tmp_path, stem="ckpt", **extra):
    store = init_model_params(TINY, seed=1)
    path = tmp_path / f"{stem}.json"
    save_model(store, TINY, path, extra=extra)
    return store, path


def _load_error(path, error=ValueError):
    with pytest.raises(error) as err:
        load_model(path)
    message = str(err.value)
    assert message.startswith(f"checkpoint {path}: ") and "\n" not in message, message
    return message


def test_save_load_round_trip(tmp_path):
    store, path = _saved(tmp_path, steps=3)
    loaded, cfg, extra = load_model(path)
    assert cfg == TINY and extra == {"steps": 3}
    assert loaded.names() == store.names() == list(model_shapes(TINY))
    for name in store.names():
        assert loaded[name].data.tobytes() == store[name].data.tobytes()
    # no tensor table: the manifest is the format and the extra object alone
    assert json.loads(path.read_text()) == {
        "format": "egoground-checkpoint-v2",
        "extra": {"model_config": asdict(TINY), "steps": 3}}
    assert path.with_suffix(".bin").read_bytes() == store.data.astype("<f8").tobytes()


def test_checkpoint_round_trip_bit_identical(tmp_path):
    # signed zeros, subnormals and the float64 extremes come back bit for bit
    store = init_model_params(TINY, seed=1)
    odd = np.array([-0.0, 0.0, 5e-324, -5e-324, np.finfo(np.float64).max,
                    -np.finfo(np.float64).max, np.finfo(np.float64).tiny, 1.0 / 3.0])
    store.data[:odd.size] = odd
    store.data[-odd.size:] = odd[::-1]
    path = tmp_path / "odd.json"
    extra = {"steps": 7, "run": {"lr": 0.1, "tags": ["a", "b"]}}
    save_model(store, TINY, path, extra=extra)
    loaded, cfg, loaded_extra = load_model(path)
    assert cfg == TINY and loaded_extra == extra
    assert loaded.data.tobytes() == store.data.tobytes()
    assert np.signbit(loaded.data[0]) and not np.signbit(loaded.data[1])


def test_save_then_save_identical_bytes(tmp_path):
    _, a = _saved(tmp_path, "a")
    _, b = _saved(tmp_path, "b")
    assert a.read_bytes() == b.read_bytes()
    assert a.with_suffix(".bin").read_bytes() == b.with_suffix(".bin").read_bytes()


def test_checkpoint_loads_into_an_arena(tmp_path):
    store, path = _saved(tmp_path)
    loaded, _, _ = load_model(path)
    assert loaded.data.tobytes() == store.data.tobytes()
    for name, p in loaded.items():
        assert p.shape == store[name].shape
        assert np.shares_memory(p.data, loaded.data) and np.shares_memory(p.grad, loaded.grad)
    assert not loaded.grad.any()
    loaded.data[...] += 1.0  # writable, and the params see it
    assert loaded["enc3d.w"].data.tobytes() == (store["enc3d.w"].data + 1.0).tobytes()


def test_checkpoint_rejects_unknown_format(tmp_path):
    store, path = _saved(tmp_path)
    # a v1 manifest, with its per-tensor table, is refused by its format alone
    entries, offset = [], 0
    for name, p in store.items():
        entries.append({"name": name, "shape": list(p.shape), "dtype": "float64",
                        "offset": offset})
        offset += 8 * p.data.size
    v1 = {"format": "egoground-checkpoint-v1", "byte_order": "little", "payload": "ckpt.bin",
          "extra": {"model_config": asdict(TINY)}, "params": entries}
    path.write_text(json.dumps(v1))
    assert _load_error(path) == (f"checkpoint {path}: unrecognized checkpoint format "
                                 "'egoground-checkpoint-v1', expected 'egoground-checkpoint-v2'")
    for fmt in ("something-else", None, 2):
        path.write_text(json.dumps({"format": fmt, "extra": {"model_config": asdict(TINY)}}))
        assert f"unrecognized checkpoint format {fmt!r}" in _load_error(path)


def _payload_length_errors(tmp_path, change):
    _, path = _saved(tmp_path)
    payload = path.with_suffix(".bin")
    good = payload.read_bytes()
    need = 8 * sum(int(np.prod(shape)) for shape in model_shapes(TINY).values())
    assert len(good) == need
    for changed in change(good):
        payload.write_bytes(changed)
        assert _load_error(path).endswith(
            f"payload holds {len(changed)} bytes, its model_config needs {need}")


def test_checkpoint_rejects_truncated_payload(tmp_path):
    _payload_length_errors(tmp_path, lambda good: (good[:-8], good[:-3], good[:1], b""))


def test_checkpoint_rejects_trailing_payload_bytes(tmp_path):
    # what the v1 tiling check caught as bytes past the last tensor
    _payload_length_errors(tmp_path, lambda good: (good + bytes(8), good + bytes(1), good * 2))


def test_checkpoint_non_finite_payload_names_tensor(tmp_path):
    store, path = _saved(tmp_path)
    payload = path.with_suffix(".bin")
    good = payload.read_bytes()
    spans, end = [], 0
    for name, p in store.items():
        spans.append((name, end, end + p.data.size))
        end += p.data.size
    for name, lo, hi in spans[::7] + spans[-1:]:
        for index, value in ((lo, np.nan), (hi - 1, np.inf), (hi - 1, -np.inf)):
            raw = bytearray(good)
            raw[8 * index:8 * index + 8] = np.array([value], dtype="<f8").tobytes()
            payload.write_bytes(bytes(raw))
            assert _load_error(path, NonFiniteError) == \
                f"checkpoint {path}: tensor {name!r} holds non-finite values"


def test_checkpoint_reported_manifests_raise_named_errors(tmp_path):
    _, path = _saved(tmp_path)
    good = json.loads(path.read_text())
    cases = [
        (lambda m: m.pop("format"), "unrecognized checkpoint format None"),
        (lambda m: m.pop("extra"), "extra must be an object, got None"),
        (lambda m: m.update(extra=[1]), r"extra must be an object, got \[1\]"),
        (lambda m: m["extra"].update(model_config=3), "extra.model_config must be an object, got 3"),
    ]
    for mutate, pattern in cases:
        manifest = json.loads(json.dumps(good))
        mutate(manifest)
        path.write_text(json.dumps(manifest))
        assert re.search(pattern, _load_error(path)), pattern
    path.write_text("{not json")
    assert "not JSON" in _load_error(path)
    path.write_bytes(b"\xff\xfe{}")
    assert "not JSON" in _load_error(path)
    path.write_text("[]")
    assert "JSON object" in _load_error(path)


_MISSING = object()
_BAD_FIELDS = {  # malformed values for each manifest field
    "format": [_MISSING, "x", 1.5, None, "egoground-checkpoint-v1"],
    "extra": [_MISSING, [1], "x", 3, None],
    "model_config": [_MISSING, [1], "x", 3, None],
}


def test_checkpoint_fuzzed_manifests_and_payloads_raise_named_errors(tmp_path):
    rng = make_rng(211)
    store, path = _saved(tmp_path, "fuzz", steps=3)
    payload = path.with_suffix(".bin")
    good_text, good_payload = path.read_text(), payload.read_bytes()
    assert load_model(path)[0].data.tobytes() == store.data.tobytes()
    for trial in range(300):
        manifest = json.loads(good_text)
        payload.write_bytes(good_payload)
        kind = trial % 3
        if kind == 0:  # the payload cut or grown by a few bytes
            delta = int(rng.choice([-16, -8, -3, -1, 1, 5, 8, 24]))
            payload.write_bytes(good_payload[:delta] if delta < 0 else good_payload + bytes(delta))
            pattern = "payload holds"
        elif kind == 1:  # a valid model_config of another layout
            change = [("dim", 4), ("dim", 16), ("layers", 0), ("layers", 2)][int(rng.integers(4))]
            manifest["extra"]["model_config"].update([change])
            pattern = "payload holds"
        else:  # a manifest field removed or given a wrong value
            key = list(_BAD_FIELDS)[int(rng.integers(len(_BAD_FIELDS)))]
            value = _BAD_FIELDS[key][int(rng.integers(len(_BAD_FIELDS[key])))]
            owner = manifest["extra"] if key == "model_config" else manifest
            if value is _MISSING:
                del owner[key]
            else:
                owner[key] = value
            pattern = key
        path.write_text(json.dumps(manifest))
        message = _load_error(path)
        assert re.search(pattern, message), (trial, pattern, message)


def test_load_model_rejects_shape_not_matching_config(tmp_path):
    # a transposed tensor keeps the byte count, so save_model refuses it where
    # it arises; a model_config edited to other shapes no longer fits the payload
    store = init_model_params(TINY, seed=1)
    transposed = ParamStore()
    for name, p in store.items():
        transposed.create(name, p.data.T if name == "enc3d.w" else p.data)
    path = tmp_path / "model.json"
    want = ("enc3d.w", model_shapes(TINY)["enc3d.w"])
    have = ("enc3d.w", want[1][::-1])
    with pytest.raises(ValueError, match=re.escape(f"model.json: tensor 0 is {have} in the store "
                                                   f"but {want} in its model_config")):
        save_model(transposed, TINY, path)
    assert not path.exists() and not path.with_suffix(".bin").exists()
    save_model(store, TINY, path)
    manifest = json.loads(path.read_text())
    manifest["extra"]["model_config"]["dim"] = 16
    path.write_text(json.dumps(manifest))
    assert re.search(r"payload holds \d+ bytes, its model_config needs \d+$", _load_error(path))


def test_load_model_rejects_unknown_and_missing_tensors(tmp_path):
    full = init_model_params(TINY, seed=1)
    names = full.names()
    stray, partial, swapped = ParamStore(), ParamStore(), ParamStore()
    for name, p in full.items():
        stray.create(name, p.data)
        if name != names[3]:
            partial.create(name, p.data)
    stray.create("stray.w", np.zeros(2))
    for name in [names[1], names[0], *names[2:]]:
        swapped.create(name, full[name].data)
    entry = {name: (name, p.shape) for name, p in full.items()}
    path = tmp_path / "model.json"
    for store, i, have, want in ((stray, len(names), ("stray.w", (2,)), None),
                                 (partial, 3, entry[names[4]], entry[names[3]]),
                                 (swapped, 0, entry[names[1]], entry[names[0]])):
        with pytest.raises(ValueError, match=re.escape(f"model.json: tensor {i} is {have} in the "
                                                       f"store but {want} in its model_config")):
            save_model(store, TINY, path)
        assert not path.exists()
    # a payload written around save_model is refused by its length
    save_model(full, TINY, path)
    for store in (stray, partial):
        path.with_suffix(".bin").write_bytes(store.data.astype("<f8").tobytes())
        assert f"payload holds {8 * store.total_parameters()} bytes" in _load_error(path)


def test_load_model_checks_shapes_without_drawing(tmp_path, monkeypatch):
    # save and load walk the creation code with no generator: the names,
    # order and shapes are those of a drawn store, and nothing is drawn
    for cfg in (TINY, ModelConfig()):
        drawn = init_model_params(cfg, 0)
        assert list(model_shapes(cfg).items()) == [(name, p.shape) for name, p in drawn.items()]
    store = init_model_params(TINY, seed=1)

    def no_draws(*args, **kwargs):
        raise AssertionError("save_model or load_model drew initial weights")

    monkeypatch.setattr(autodiff, "xavier_uniform", no_draws)
    good = tmp_path / "good.json"
    save_model(store, TINY, good)
    loaded, cfg, _ = load_model(good)
    assert cfg == TINY and loaded.data.tobytes() == store.data.tobytes()
    manifest = json.loads(good.read_text())
    manifest["extra"]["model_config"]["layers"] = 2
    good.write_text(json.dumps(manifest))
    assert "payload holds" in _load_error(good)


def test_model_shapes_draws_no_memory(tmp_path):
    # a config claiming a million-wide model lays out 7 TiB of weights per
    # attention projection; it is refused by its payload length, not by numpy
    assert model_shapes(replace(TINY, dim=1_000_000))["dec0.self.q.w"] == (1_000_000, 1_000_000)
    _, path = _saved(tmp_path)
    manifest = json.loads(path.read_text())
    manifest["extra"]["model_config"]["dim"] = 1_000_000
    path.write_text(json.dumps(manifest))
    assert re.search(r"payload holds \d+ bytes, its model_config needs \d+$", _load_error(path))


def test_load_requires_config(tmp_path):
    _, path = _saved(tmp_path)
    manifest = json.loads(path.read_text())
    del manifest["extra"]["model_config"]
    path.write_text(json.dumps(manifest))
    assert "extra.model_config must be an object, got None" in _load_error(path)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def test_fuse_concat_width_and_output_dim():
    cfg = ModelConfig(dim=8)
    store = init_model_params(cfg, seed=127)
    assert store["enc3d.w"].shape == (FEAT2D_DIM + cfg.dim, cfg.dim)
    assert store["fuse.w"].shape == (cfg.dim + FEAT2D_DIM, cfg.dim)
    points = np.array([[0.01, 0.01, 0.01], [0.3, -0.2, 0.1]])
    vox = voxelize(points, np.ones((2, FEAT2D_DIM)), 0.25)
    inputs = encoder_input(vox, cfg.dim)
    assert np.array_equal(inputs, np.hstack([vox.features.data,
                                             positional_encoding(vox.coords, cfg.dim)]))
    encoded = encode_voxels(inputs, store)
    assert encoded.shape == (len(vox), cfg.dim)
    fused = fuse_features(encoded, np.ones((len(vox), FEAT2D_DIM)), store)
    assert fused.shape == (len(vox), cfg.dim)
    narrow = voxelize(points, np.ones((2, 1)), 0.25)
    with pytest.raises(ValueError, match="'enc3d'"):
        encode_voxels(encoder_input(narrow, cfg.dim), store)


def test_fusion_gradients_flow_to_both_linears():
    cfg = ModelConfig(dim=6)
    store = ParamStore()
    for name, p in init_model_params(cfg, seed=131).items():
        if module_of(name) == "fusion":
            store.create(name, p.data)
    assert store.names() == ["enc3d.w", "enc3d.b", "fuse.w", "fuse.b"]
    rng = make_rng(131)
    vox = voxelize(rng.uniform(-0.6, 0.6, size=(12, 3)), rng.normal(size=(12, FEAT2D_DIM)), 0.3)
    sampled = rng.normal(size=(len(vox), FEAT2D_DIM))

    def fn(s):
        fused = fuse_features(encode_voxels(encoder_input(vox, cfg.dim), s), sampled, s)
        return mean(mul(fused, fused))

    assert grad_check(fn, store, eps=1e-5, tol=1e-4).passed


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------


def test_sentence_embed_examples():
    one = Tensor([[1.0, -2.0, 3.0]])
    assert np.array_equal(sentence_embed(one).data, one.data)
    two = Tensor([[1.0], [3.0]])
    assert sentence_embed(two).data.item() == 2.0
    rng = make_rng(4)
    toks = rng.normal(size=(5, 4))
    a = sentence_embed(Tensor(toks)).data
    b = sentence_embed(Tensor(toks[::-1].copy())).data
    assert np.allclose(a, b, atol=1e-15)
    with pytest.raises(ValueError):
        sentence_embed(Tensor(np.zeros((0, 4))))


def test_embed_text_projects_and_pools():
    store = init_model_params(TINY, seed=2)
    raw = make_rng(6).normal(size=(3, TEXT_DIM))
    text = embed_text(raw, store)
    assert text.tokens.shape == (3, TINY.dim)
    assert text.sentence.shape == (1, TINY.dim)
    assert np.allclose(text.sentence.data, text.tokens.data.mean(axis=0, keepdims=True))
    with pytest.raises(ValueError):
        embed_text(np.zeros((0, TEXT_DIM)), store)


# ---------------------------------------------------------------------------
# query selection
# ---------------------------------------------------------------------------


def test_select_queries_ranking_and_embedding():
    store = init_model_params(TINY, seed=9)
    fused, coords = tiny_fused(), tiny_coords()
    logits = scoring_logits(fused, store, "detection")
    qs = select_queries(fused, coords, tiny_inputs(), 4, logits)
    # oracle: stable sort of max class logit, descending
    order = np.argsort(-logits.data.max(axis=1), kind="stable")[:4]
    assert np.array_equal(qs.positions, coords[order])
    # the encoder input's encoding rows are the encoding of the selected rows, bit for bit
    pe = positional_encoding(coords[order], TINY.dim)
    assert qs.embeddings.data.tobytes() == (fused.data[order] + pe).tobytes()


def test_select_queries_all_and_onehot_and_ties():
    store = init_model_params(TINY, seed=9)
    fused, coords = tiny_fused(), tiny_coords()
    logits = scoring_logits(fused, store, "grounding")
    inputs = tiny_inputs()
    qs = select_queries(fused, coords, inputs, 6, logits)
    assert sorted(map(tuple, qs.positions)) == sorted(map(tuple, coords))

    onehot = Tensor(np.array([[0.0], [0.0], [5.0], [0.0], [0.0], [0.0]]))
    qs = select_queries(fused, coords, inputs, 1, onehot)
    assert np.array_equal(qs.positions, coords[[2]])

    tied = Tensor(np.array([[0.0], [1.0], [0.0], [1.0], [0.0], [0.0]]))
    qs = select_queries(fused, coords, inputs, 3, tied)
    assert np.array_equal(qs.positions, coords[[1, 3, 0]])


def test_select_queries_k_out_of_range():
    store = init_model_params(TINY, seed=9)
    fused, coords = tiny_fused(), tiny_coords()
    logits = scoring_logits(fused, store, "detection")
    with pytest.raises(ValueError):
        select_queries(fused, coords, tiny_inputs(), 7, logits)
    with pytest.raises(ValueError):
        select_queries(fused, coords, tiny_inputs(), 0, logits)
    with pytest.raises(ValueError):
        scoring_logits(fused, store, "segmentation")


def _nan_last_column(a):
    a = np.array(a, dtype=np.float64)
    a[:, -1] = np.nan
    return a


NAN_CONSTANTS = {
    "encode_voxels": lambda store: encode_voxels(_nan_last_column(tiny_inputs()), store),
    "fuse_features": lambda store: fuse_features(
        encode_voxels(tiny_inputs(), store), _nan_last_column(np.ones((6, FEAT2D_DIM))), store),
    "embed_text": lambda store: embed_text(_nan_last_column(np.ones((2, TEXT_DIM))), store),
    # the last column is the selected queries' positional encoding
    "select_queries": lambda store: select_queries(
        tiny_fused(), tiny_coords(), _nan_last_column(tiny_inputs()), 6,
        scoring_logits(tiny_fused(), store, "detection")),
}


@pytest.mark.parametrize("stage", sorted(NAN_CONSTANTS))
def test_nan_constant_inputs_raise_named_error(stage):
    # scene and text arrays enter the tape as constants, checked as leaves are
    with pytest.raises(NonFiniteError, match="^non-finite values in tensor$"):
        NAN_CONSTANTS[stage](init_model_params(TINY, seed=2))


# ---------------------------------------------------------------------------
# QIM
# ---------------------------------------------------------------------------


def test_qim_identity_at_init():
    store = init_model_params(TINY, seed=11)
    rng = make_rng(12)
    q = Tensor(rng.normal(size=(4, TINY.dim)))
    s = Tensor(rng.normal(size=(1, TINY.dim)))
    out = qim_modulate(q, s, store)
    assert np.array_equal(out.data, q.data)  # bit exact


def test_qim_hand_values():
    store = ParamStore()
    rng = make_rng(0)
    init_mlp(store, "qim_beta", [2, 2, 2], rng, zero_last=True,
             last_bias=np.array([2.0, 0.5]))
    init_mlp(store, "qim_gamma", [2, 2, 2], rng, zero_last=True,
             last_bias=np.array([1.0, 1.0]))
    out = qim_modulate(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]), store)
    assert np.allclose(out.data, [[5.0, 5.0]], atol=1e-15)
    # beta=0, gamma=1: every query row equals the sentence
    store2 = ParamStore()
    init_mlp(store2, "qim_beta", [2, 2, 2], rng, zero_last=True, last_bias=0.0)
    init_mlp(store2, "qim_gamma", [2, 2, 2], rng, zero_last=True, last_bias=1.0)
    q = Tensor([[1.0, 2.0], [7.0, -3.0]])
    out2 = qim_modulate(q, Tensor([[3.0, 4.0]]), store2)
    assert np.allclose(out2.data, [[3.0, 4.0], [3.0, 4.0]], atol=1e-15)


def test_qim_width_mismatch():
    store = init_model_params(TINY, seed=11)
    with pytest.raises(ValueError):
        qim_modulate(Tensor(np.zeros((2, TINY.dim))),
                     Tensor(np.zeros((1, TINY.dim + 1))), store)


def test_qim_gradcheck():
    store = ParamStore()
    rng = make_rng(13)
    init_mlp(store, "qim_beta", [4, 4, 4], rng, zero_last=True, last_bias=1.0)
    init_mlp(store, "qim_gamma", [4, 4, 4], rng, zero_last=True, last_bias=0.0)
    q = make_rng(14).normal(size=(3, 4))
    s = make_rng(15).normal(size=(1, 4))

    def fn(store):
        out = qim_modulate(Tensor(q), Tensor(s), store)
        return mean(mul(out, out))

    report = grad_check(fn, store)
    assert report.passed, report.worst


# ---------------------------------------------------------------------------
# RAG
# ---------------------------------------------------------------------------


def test_rag_identity_at_init():
    store = init_model_params(TINY, seed=21)
    fused = tiny_fused()
    text = tiny_text()
    region, logits = rag_apply(fused, text, store, TINY)
    assert np.array_equal(region.data, fused.data)  # bit exact
    assert logits.shape == (6,)
    sig = 1.0 / (1.0 + np.exp(-logits.data))
    assert ((sig > 0.0) & (sig < 1.0)).all()


def test_rag_attention_rows_sum_to_one():
    store = init_model_params(TINY, seed=21)
    fused = tiny_fused()
    text = tiny_text(t=3)
    _, weights = _attention_core(linear(fused, store, "rag_att.q"),
                                 linear(text.tokens, store, "rag_att.k"),
                                 linear(text.tokens, store, "rag_att.v"), TINY.heads)
    assert weights.shape == (TINY.heads, 6, 3)
    assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-12)


def test_rag_departs_from_identity_once_trained():
    store = init_model_params(TINY, seed=21)
    store["rag_att.o.w"].data[:] = make_rng(1).normal(size=store["rag_att.o.w"].shape) * 0.1
    fused = tiny_fused()
    region, _ = rag_apply(fused, tiny_text(), store, TINY)
    assert not np.allclose(region.data, fused.data)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------


def test_zero_layers_feeds_heads_directly():
    cfg = ModelConfig(dim=8, layers=0, heads=2)
    store = init_model_params(cfg, seed=31)
    fused = tiny_fused(cfg)
    qs = tiny_queries(fused, cfg)
    out = decoder_forward(fused, None, qs, store, cfg, "detection")
    raw = mlp(qs.embeddings, store, "head_box")
    assert np.allclose(out.box_pred.data[:, 0:3], qs.positions + raw.data[:, 0:3], atol=1e-15)
    assert np.allclose(out.box_pred.data[:, 3:6], raw.data[:, 3:6], atol=1e-15)
    logits = mlp(qs.embeddings, store, "head_det")
    assert np.allclose(out.logits.data, logits.data, atol=1e-15)


def test_decoder_output_shapes_and_positive_extents():
    store = init_model_params(TINY, seed=32)
    # blow up the box head so raw outputs are arbitrary and large
    store["head_box.1.w"].data[:] = make_rng(2).normal(size=store["head_box.1.w"].shape) * 5.0
    fused = tiny_fused()
    text = tiny_text()
    qs = tiny_queries(fused)
    out = decoder_forward(fused, text, qs, store, TINY, "grounding")
    assert out.boxes.shape == (3, 9)
    assert out.logits.shape == (3, 1)
    assert out.box_pred.shape == (3, 12)
    assert np.array_equal(out.boxes[:, :3], out.box_pred.data[:, 0:3])
    assert (out.boxes[:, 3:6] > 0.0).all()
    sin_n, cos_n = out.box_pred.data[:, 6:9], out.box_pred.data[:, 9:12]
    assert np.allclose(sin_n ** 2 + cos_n ** 2, 1.0, atol=1e-9)
    assert np.allclose(out.boxes[:, 6:], np.arctan2(sin_n, cos_n), atol=1e-9)
    assert ((out.boxes[:, 6:] > -np.pi) & (out.boxes[:, 6:] <= np.pi)).all()


def test_detection_ignores_text_entirely():
    store = init_model_params(TINY, seed=33)
    fused = tiny_fused()
    qs = tiny_queries(fused)
    out_none = decoder_forward(fused, None, qs, store, TINY, "detection")
    out_text = decoder_forward(fused, tiny_text(), qs, store, TINY, "detection")
    assert np.array_equal(out_none.logits.data, out_text.logits.data)
    assert np.array_equal(out_none.box_pred.data, out_text.box_pred.data)
    with pytest.raises(ValueError):
        decoder_forward(fused, None, qs, store, TINY, "grounding")


def test_decoder_set_equivariance():
    store = init_model_params(TINY, seed=34)
    fused = tiny_fused()
    text = tiny_text()
    qs = tiny_queries(fused, k=3)
    perm = np.array([2, 0, 1])
    qs_p = QuerySet(embeddings=Tensor(qs.embeddings.data[perm]),
                    positions=qs.positions[perm])
    a = decoder_forward(fused, text, qs, store, TINY, "grounding")
    b = decoder_forward(fused, text, qs_p, store, TINY, "grounding")
    assert np.allclose(a.logits.data[perm], b.logits.data, atol=1e-12)
    assert np.allclose(a.box_pred.data[perm], b.box_pred.data, atol=1e-12)
    assert np.allclose(a.boxes[perm], b.boxes, atol=1e-12)


def _decode_ref(raw, positions):
    """The tape composition ``_decode_boxes`` replaces, as one (K, 12) tensor."""
    centers = add(Tensor(positions), getitem(raw, np.s_[:, 0:3]))
    sin_raw, cos_raw = getitem(raw, np.s_[:, 6:9]), getitem(raw, np.s_[:, 9:12])
    norm = pow_(add(add(mul(sin_raw, sin_raw), mul(cos_raw, cos_raw)), 1e-12), 0.5)
    return concat([centers, getitem(raw, np.s_[:, 3:6]), div(sin_raw, norm), div(cos_raw, norm)],
                  axis=1)


def test_fused_box_decode_matches_composition_bytes():
    rng = make_rng(36)
    raw = rng.normal(size=(6, 12))
    raw[2, 6:] = 0.0  # sin = cos = 0, as a dead ReLU layer leaves the head: norm sqrt(1e-12)
    positions = rng.normal(size=(6, 3))
    rows = [4, 0, 2]  # rows 1, 3 and 5 are unmatched: a zero upstream gradient
    gt = np.hstack([rng.normal(size=(3, 3)), rng.uniform(0.5, 2.0, size=(3, 3)),
                    rng.uniform(-3, 3, size=(3, 3))])
    weights = rng.normal(size=(6, 12))
    weights[[1, 3, 5]] = 0.0
    upstreams = (lambda pred: box_regression_loss(pred, rows, gt),
                 lambda pred: sum_(mul(pred, Tensor(weights))))

    def run(decode, upstream):
        leaf = Tensor(raw)
        pred = decode(leaf)
        upstream(pred).backward()
        return pred.data.tobytes(), leaf.grad.tobytes()

    leaf = Tensor(raw)
    boxes, pred = _decode_boxes(leaf, positions)
    assert pred._parents == (leaf,)
    angles = wrap_angle(np.arctan2(raw[:, 6:9], raw[:, 9:12]))
    centers = _decode_ref(leaf, positions).data[:, :3]
    assert boxes.tobytes() == np.hstack([centers, np.exp(raw[:, 3:6]), angles]).tobytes()
    for upstream in upstreams:
        fused = run(lambda t: _decode_boxes(t, positions)[1], upstream)
        assert fused == run(lambda t: _decode_ref(t, positions), upstream)
        grad = np.frombuffer(fused[1]).reshape(raw.shape)
        assert not grad[[1, 3, 5]].any() and grad[2, 6:].any()
    big = raw.copy()
    big[0, 3] = 800.0
    with pytest.raises(NonFiniteError, match="extents"):
        _decode_boxes(Tensor(big), positions)


def test_decoder_shape_mismatch_errors():
    store = init_model_params(TINY, seed=35)
    fused = tiny_fused()
    qs = tiny_queries(fused)
    bad = Tensor(np.zeros((6, TINY.dim + 2)))
    with pytest.raises(ValueError):
        decoder_forward(bad, None, qs, store, TINY, "detection")
    bad_q = QuerySet(embeddings=Tensor(np.zeros((2, TINY.dim + 1))),
                     positions=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        decoder_forward(fused, None, bad_q, store, TINY, "detection")
    with pytest.raises(ValueError):
        decoder_forward(fused, None, qs, store, TINY, "other")


def test_box_head_shared_between_tasks():
    store = init_model_params(TINY, seed=36)
    fused = tiny_fused()
    text = tiny_text()
    qs = tiny_queries(fused)

    out = decoder_forward(fused, None, qs, store, TINY, "detection")
    sum_(out.logits).backward()
    det_touched = {n for n, p in store.items() if np.any(p.grad != 0.0)}
    store.zero_grad()
    out = decoder_forward(fused, text, qs, store, TINY, "grounding")
    sum_(out.logits).backward()
    grd_touched = {n for n, p in store.items() if np.any(p.grad != 0.0)}
    store.zero_grad()

    shared = {n for n in store.names() if module_of(n) == "decoder"}
    text_names = {n for n in shared if ".text." in n or ".ln2." in n}
    assert text_names <= grd_touched
    assert not (text_names & det_touched)
    assert (shared - text_names) <= det_touched
    assert (shared - text_names) <= grd_touched
    assert "head_det.1.w" in det_touched and "head_det.1.w" not in grd_touched
    assert "head_grd.1.w" in grd_touched and "head_grd.1.w" not in det_touched


# ---------------------------------------------------------------------------
# fused nodes against the tape compositions they replace
# ---------------------------------------------------------------------------


def _signed_zeros(rng, shape):
    """Normal draws whose first two entries are -0.0 and 0.0."""
    a = rng.normal(size=shape)
    a.reshape(-1)[:2] = (-0.0, 0.0)
    return a


def _node_bytes(build, arrays, store, upstream):
    """Value, each input leaf's gradient and the store's gradient of ``build``, as bytes."""
    store.zero_grad()
    leaves = [Tensor(a) for a in arrays]
    out = build(store, *leaves)
    sum_(mul(out, Tensor(upstream))).backward()
    return out.data.tobytes(), [t.grad.tobytes() for t in leaves], store.grad.tobytes()


def _assert_node_matches(fused, reference, arrays, store, rng):
    upstream = _signed_zeros(rng, fused(store, *(Tensor(a) for a in arrays)).shape)
    assert _node_bytes(fused, arrays, store, upstream) == \
        _node_bytes(reference, arrays, store, upstream)


def test_fused_fuse_features_matches_concat_and_linear():
    rng = make_rng(501)
    cfg = ModelConfig(dim=6)
    store = init_model_params(cfg, seed=501)
    sampled = _signed_zeros(rng, (7, FEAT2D_DIM))
    encoded = Tensor(_signed_zeros(rng, (7, cfg.dim)))
    assert fuse_features(encoded, sampled, store)._parents == \
        (encoded, store["fuse.w"], store["fuse.b"])
    _assert_node_matches(lambda s, e: fuse_features(e, sampled, s),
                         lambda s, e: linear(concat([e, sampled], axis=1), s, "fuse"),
                         [_signed_zeros(rng, (7, cfg.dim))], store, rng)


@pytest.mark.parametrize("t", [1, 3])
def test_fused_sentence_embed_matches_the_mean(t):
    rng = make_rng(503, t)
    _assert_node_matches(lambda s, x: sentence_embed(x),
                         lambda s, x: mean(x, axis=0, keepdims=True),
                         [_signed_zeros(rng, (t, 5))], ParamStore(), rng)


def test_fused_select_queries_matches_gather_plus_encoding():
    rng = make_rng(505)
    inputs = tiny_inputs()
    logits = Tensor(rng.normal(size=(6, 3)))
    order = np.argsort(-logits.data.max(axis=1), kind="stable")[:4]
    encoding = inputs[order, inputs.shape[1] - TINY.dim:]
    _assert_node_matches(
        lambda s, f: select_queries(f, tiny_coords(), inputs, 4, logits).embeddings,
        lambda s, f: add(getitem(f, order), encoding),
        [_signed_zeros(rng, (6, TINY.dim))], ParamStore(), rng)


@pytest.mark.parametrize("k, identity", [(4, True), (4, False), (1, True), (1, False)])
def test_fused_qim_matches_the_affine_composition(k, identity):
    # at init beta is exactly 1 and gamma exactly 0; K = 1 sums no rows
    rng = make_rng(507, k)
    store = ParamStore()
    init_mlp(store, "qim_beta", [5, 5, 5], rng, zero_last=True, last_bias=1.0)
    init_mlp(store, "qim_gamma", [5, 5, 5], rng, zero_last=True, last_bias=0.0)
    if not identity:
        store.data[:] += rng.normal(scale=0.3, size=store.data.shape)

    def reference(s, q, sentence):
        beta, gamma = mlp(sentence, s, "qim_beta"), mlp(sentence, s, "qim_gamma")
        return add(mul(beta, q), mul(gamma, sentence))

    _assert_node_matches(lambda s, q, sentence: qim_modulate(q, sentence, s), reference,
                         [_signed_zeros(rng, (k, 5)), _signed_zeros(rng, (1, 5))], store, rng)


# ---------------------------------------------------------------------------
# end-to-end gradient check
# ---------------------------------------------------------------------------


def test_grounding_pipeline_gradcheck():
    cfg = TINY
    store = init_model_params(cfg, seed=41)
    rng = make_rng(42)
    n = 6
    coords = rng.uniform(-1.0, 1.0, size=(n, 3))
    pooled = rng.normal(size=(n, FEAT2D_DIM))
    tok_raw = rng.normal(size=(2, TEXT_DIM))
    labels = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    gt = SetTargets(np.array([[*coords[0], 0.6, 0.5, 0.4, 0.3, 0.0, 0.0]]), [0], labels)
    voxels = VoxelFeatureSet(coords=coords, features=Tensor(pooled))

    def fn(store):
        inputs = encoder_input(voxels, cfg.dim)
        fused = encode_voxels(inputs, store)
        logits = scoring_logits(fused, store, "grounding")
        qs = select_queries(fused, coords, inputs, cfg.k_grd, logits)
        text = embed_text(tok_raw, store)
        region, relevance = rag_apply(fused, text, store, cfg)
        modded = replace(qs, embeddings=qim_modulate(qs.embeddings, text.sentence, store))
        out = decoder_forward(region, text, modded, store, cfg, "grounding")
        out.relevance = relevance
        loss, _ = total_loss(out, gt, 1.0, LossWeights())
        return add(loss, mul(mean(mul(logits, logits)), 0.1))

    report = grad_check(fn, store)
    assert report.passed, f"worst: {report.worst} ({report.max_rel_err:.2e})"
