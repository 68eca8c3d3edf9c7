"""Network module: selection, modulation, region attention, decoder, heads.

The init-identity properties are checked bit for bit, the decoder for set
equivariance under query permutation, and the whole grounding pipeline gets
a finite-difference gradient check on a tiny scene.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from egoground.autodiff import (
    ParamStore,
    Tensor,
    _attention_core,
    grad_check,
    init_mlp,
    linear,
    make_rng,
    mlp_apply,
)
from egoground.geometry import VoxelFeatureSet, positional_encoding, voxelize
from egoground.losses import LossWeights, SetTargets, total_loss
from egoground.network import (
    MODULES,
    ModelConfig,
    QuerySet,
    TextEmbedding,
    decoder_forward,
    embed_text,
    encode_voxels,
    fuse_features,
    init_model_params,
    load_model,
    module_of,
    qim_modulate,
    rag_apply,
    save_model,
    scoring_logits,
    select_queries,
    sentence_embed,
)
from egoground.scenes import FEAT2D_DIM, TEXT_DIM

TINY = ModelConfig(dim=8, layers=1, heads=2, k_det=4, k_grd=3)


def tiny_coords(n=6):
    return np.arange(n * 3, dtype=np.float64).reshape(n, 3) * 0.25


def tiny_fused(cfg=TINY, n=6, seed=3):
    return Tensor(make_rng(seed).normal(size=(n, cfg.dim)))


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
    assert h.hexdigest() == "3d20a8984df3caf842fb8cc3271140ad4f76965931f2009e9674872c872905f2"


def test_module_grouping_covers_all_params():
    for cfg in (TINY, ModelConfig()):
        names = init_model_params(cfg, 0).names()
        groups = [module_of(name) for name in names]
        assert "other" not in groups
        assert set(groups) == {module for module, _ in MODULES}


def test_save_load_round_trip(tmp_path):
    store = init_model_params(TINY, seed=1)
    path = tmp_path / "model.json"
    save_model(store, TINY, path, extra={"step": 12})
    loaded, cfg, extra = load_model(path)
    assert cfg == TINY
    assert extra["step"] == 12
    for name in store.names():
        assert np.array_equal(store[name].data, loaded[name].data)


def test_load_model_rejects_shape_not_matching_config(tmp_path):
    # a transposed shape keeps the byte count, so the payload still tiles
    store = init_model_params(TINY, seed=1)
    path = tmp_path / "model.json"
    save_model(store, TINY, path)
    manifest = json.loads(path.read_text())
    entry = next(e for e in manifest["params"] if e["name"] == "enc3d.w")
    entry["shape"] = entry["shape"][::-1]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"model\.json.*'enc3d\.w' has shape"):
        load_model(path)


def test_load_model_rejects_unknown_and_missing_tensors(tmp_path):
    full = init_model_params(TINY, seed=1)
    extra = ParamStore()
    for name, p in full.items():
        extra.create(name, p.data)
    extra.create("stray.w", np.zeros(2))
    path = tmp_path / "extra.json"
    save_model(extra, TINY, path)
    with pytest.raises(ValueError, match=r"extra\.json.*unexpected tensor 'stray\.w'"):
        load_model(path)
    partial = ParamStore()
    for name, p in list(full.items())[1:]:
        partial.create(name, p.data)
    path = tmp_path / "partial.json"
    save_model(partial, TINY, path)
    first = full.names()[0]
    with pytest.raises(ValueError, match=rf"partial\.json.*'{first}' is missing"):
        load_model(path)


def test_load_requires_config(tmp_path):
    from egoground.autodiff import save_checkpoint
    store = init_model_params(TINY, seed=1)
    path = tmp_path / "raw.json"
    save_checkpoint(store, path, extra={})
    with pytest.raises(ValueError, match="model_config"):
        load_model(path)


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
    encoded = encode_voxels(vox, store, cfg)
    assert encoded.shape == (len(vox), cfg.dim)
    fused = fuse_features(encoded, np.ones((len(vox), FEAT2D_DIM)), store)
    assert fused.shape == (len(vox), cfg.dim)
    narrow = voxelize(points, np.ones((2, 1)), 0.25)
    with pytest.raises(ValueError, match="'enc3d'"):
        encode_voxels(narrow, store, cfg)


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
        fused = fuse_features(encode_voxels(vox, s, cfg), sampled, s)
        return (fused * fused).mean()

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
    qs = select_queries(fused, coords, 4, logits, TINY)
    # oracle: stable sort of max class logit, descending
    order = np.argsort(-logits.data.max(axis=1), kind="stable")[:4]
    assert np.array_equal(qs.positions, coords[order])
    pe = positional_encoding(coords[order], TINY.dim)
    assert np.allclose(qs.embeddings.data, fused.data[order] + pe)


def test_select_queries_all_and_onehot_and_ties():
    store = init_model_params(TINY, seed=9)
    fused, coords = tiny_fused(), tiny_coords()
    logits = scoring_logits(fused, store, "grounding")
    qs = select_queries(fused, coords, 6, logits, TINY)
    assert sorted(map(tuple, qs.positions)) == sorted(map(tuple, coords))

    onehot = Tensor(np.array([[0.0], [0.0], [5.0], [0.0], [0.0], [0.0]]))
    qs = select_queries(fused, coords, 1, onehot, TINY)
    assert np.array_equal(qs.positions, coords[[2]])

    tied = Tensor(np.array([[0.0], [1.0], [0.0], [1.0], [0.0], [0.0]]))
    qs = select_queries(fused, coords, 3, tied, TINY)
    assert np.array_equal(qs.positions, coords[[1, 3, 0]])


def test_select_queries_k_out_of_range():
    store = init_model_params(TINY, seed=9)
    fused, coords = tiny_fused(), tiny_coords()
    logits = scoring_logits(fused, store, "detection")
    with pytest.raises(ValueError):
        select_queries(fused, coords, 7, logits, TINY)
    with pytest.raises(ValueError):
        select_queries(fused, coords, 0, logits, TINY)
    with pytest.raises(ValueError):
        scoring_logits(fused, store, "segmentation")


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
        return (out * out).mean()

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
    raw = mlp_apply(qs.embeddings, store, "head_box")
    assert np.allclose(out.centers.data, qs.positions + raw.data[:, 0:3], atol=1e-15)
    assert np.allclose(out.log_extents.data, raw.data[:, 3:6], atol=1e-15)
    logits = mlp_apply(qs.embeddings, store, "head_det")
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
    assert np.array_equal(out.boxes[:, :3], out.centers.data)
    assert (out.boxes[:, 3:6] > 0.0).all()
    norm = out.sin_angles.data ** 2 + out.cos_angles.data ** 2
    assert np.allclose(norm, 1.0, atol=1e-9)
    assert np.allclose(out.boxes[:, 6:], np.arctan2(out.sin_angles.data, out.cos_angles.data),
                       atol=1e-9)
    assert ((out.boxes[:, 6:] > -np.pi) & (out.boxes[:, 6:] <= np.pi)).all()


def test_detection_ignores_text_entirely():
    store = init_model_params(TINY, seed=33)
    fused = tiny_fused()
    qs = tiny_queries(fused)
    out_none = decoder_forward(fused, None, qs, store, TINY, "detection")
    out_text = decoder_forward(fused, tiny_text(), qs, store, TINY, "detection")
    assert np.array_equal(out_none.logits.data, out_text.logits.data)
    assert np.array_equal(out_none.centers.data, out_text.centers.data)
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
    assert np.allclose(a.centers.data[perm], b.centers.data, atol=1e-12)
    assert np.allclose(a.boxes[perm], b.boxes, atol=1e-12)


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
    out.logits.sum().backward()
    det_touched = {n for n, p in store.items() if np.any(p.grad != 0.0)}
    store.zero_grad()
    out = decoder_forward(fused, text, qs, store, TINY, "grounding")
    out.logits.sum().backward()
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
        fused = encode_voxels(voxels, store, cfg)
        logits = scoring_logits(fused, store, "grounding")
        qs = select_queries(fused, coords, cfg.k_grd, logits, cfg)
        text = embed_text(tok_raw, store)
        region, relevance = rag_apply(fused, text, store, cfg)
        modded = replace(qs, embeddings=qim_modulate(qs.embeddings, text.sentence, store))
        out = decoder_forward(region, text, modded, store, cfg, "grounding")
        out.relevance = relevance
        loss, _ = total_loss(out, gt, 1.0, LossWeights())
        return loss + (logits * logits).mean() * 0.1

    report = grad_check(fn, store)
    assert report.passed, f"worst: {report.worst} ({report.max_rel_err:.2e})"
