"""Grounding network: fusion, query selection, text modulation and a shared decoder.

The trunk mirrors a two-backbone pipeline at desk scale: ``encode_voxels``
is one learned linear over ``encoder_input``, [pooled voxel feature |
sinusoidal encoding of the center] (a sparse 3D conv stand-in), and
``fuse_features`` projects [encoded 3D | sampled 2D] to the model width with
a second one.  The encoder input depends only on the scene and the model
width, so a prepared scene computes it once (``train.SceneBatch``), and
query selection reads each query's positional encoding from its columns.

Detection and grounding run the same decoder weights and the same box head;
only the scoring heads, the task heads and the two language modules differ.
The language modules are built to be exact identities at initialization:

* query modulation computes per-channel ``beta`` and ``gamma`` from the
  sentence embedding and applies ``beta * Q + gamma * sentence`` per query;
  the two MLPs start as constant 1 and constant 0, so step 0 equals the
  unmodulated path bit for bit.
* region attention attends the voxel features over the text tokens and adds
  the result residually; its output projection starts at zero, so step 0
  leaves the features untouched.  A small MLP on the residual output yields
  one spatial relevance logit per voxel.

The decoder is pre-norm: each layer applies query self-attention, cross
attention to text (skipped entirely for detection), cross attention to the
voxel features, then a feed-forward block, each behind its own layer norm
with a residual add.  There is no final layer norm, so a zero-layer decoder
feeds the initial queries straight to the heads.

Box regression predicts, per query, a center offset from the query's voxel
center, log extents, and sine/cosine pairs per angle; angles are recovered
with atan2 and wrapped to (-pi, pi], extents with exp.  A decoded extent that
underflows to zero or overflows to inf raises ``NonFiniteError``.  The
decoded boxes are one (K, 9) array, a row per query; ``Box9DoF`` objects are
built only where boxes leave the model (see train).  Query selection is not
differentiated through; the scoring heads learn from an auxiliary objective
instead (see train).

Every stage passes plain tensors: the fused trunk, the region-refined
features and the relevance logits are (N, C) / (N,) ``Tensor`` rows in voxel
order, and the voxel centers are passed alongside where a stage needs them
(query selection).  Both tasks' decoder outputs carry one ``logits`` field,
(K, num_classes) for detection and (K, 1) for grounding.

The parameter store built by ``init_model_params`` is the one description of
the model, and every learned layer is created, named and applied in this
module.  ``ModelConfig`` holds only what a run sets: the input widths and the
class count are those of the stub embeddings in ``scenes``, and the
feed-forward block is twice the model width.  Its ``disable_rag`` and
``disable_qim`` switches turn a grounding module off in the forward only, so
one seed gives the same parameters with a module on or off.  ``MODULES`` is
the one map from parameter-name prefix to module (gradcheck groups its table
by it), and every MLP's depth and widths are read from the store by
``mlp_apply``, never restated at a call site.  ``load_model`` checks a
checkpoint's names and shapes against ``model_shapes``, the same creation
code run without a generator on a store that keeps only shapes, so it
draws and stores nothing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .autodiff import (
    NonFiniteError,
    ParamStore,
    Tensor,
    _is_int,
    attention,
    concat,
    init_attention,
    init_layer_norm,
    init_linear,
    init_mlp,
    layer_norm,
    linear,
    load_checkpoint,
    make_rng,
    mlp,
    mlp_apply,
    save_checkpoint,
)
from .boxes import wrap_angle
from .geometry import VoxelFeatureSet, positional_encoding
from .scenes import CLASS_NAMES, FEAT2D_DIM, TEXT_DIM

Array = np.ndarray

TASKS = ("detection", "grounding")


@dataclass
class ModelConfig:
    dim: int = 32
    layers: int = 2
    heads: int = 2
    k_det: int = 32
    k_grd: int = 16
    disable_rag: bool = False   # run grounding without region attention and relevance
    disable_qim: bool = False   # run grounding without query modulation

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool" and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be a bool, got {value!r}")
            if f.type == "int" and not _is_int(value):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if self.dim < 1 or self.dim % self.heads != 0:
            raise ValueError("dim must be positive and divisible by heads")
        if self.layers < 0:
            raise ValueError("layers must be >= 0")
        for name in ("k_det", "k_grd"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class TextEmbedding:
    tokens: Tensor    # (T, C) projected token features
    sentence: Tensor  # (1, C) mean of token rows


@dataclass
class QuerySet:
    embeddings: Tensor  # (K, C)
    positions: Array    # (K, 3) voxel centers


@dataclass
class DecoderOutput:
    boxes: Array                # (K, 9) rows (x, y, z, l, w, h, alpha, beta, gamma)
    logits: Tensor              # (K, num_classes) for detection, (K, 1) for grounding
    relevance: Tensor | None    # (N,) spatial relevance logits, grounding only
    centers: Tensor             # (K, 3)
    log_extents: Tensor         # (K, 3)
    sin_angles: Tensor          # (K, 3) normalized
    cos_angles: Tensor          # (K, 3) normalized


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


# Parameter-name prefix -> module; init_model_params chooses the prefixes.
MODULES = (
    ("fusion", ("enc3d", "fuse")),
    ("text", ("text_proj",)),
    ("scoring", ("score_det", "score_grd")),
    ("qim", ("qim_beta", "qim_gamma")),
    ("rag", ("rag_att", "relevance")),
    ("decoder", ("dec",)),
    ("heads", ("head_box", "head_det", "head_grd")),
)


def module_of(param_name: str) -> str:
    """The ``MODULES`` entry that owns ``param_name``, or ``"other"``."""
    for module, prefixes in MODULES:
        if param_name.startswith(prefixes):
            return module
    return "other"


def _mlp_sizes(cfg: ModelConfig, out: int) -> list[int]:
    return [cfg.dim, cfg.dim, out]


def init_model_params(cfg: ModelConfig, seed: int) -> ParamStore:
    """Create every learnable tensor; creation order is fixed for determinism."""
    store = ParamStore()
    _create_params(store, cfg, make_rng(seed, 100))
    return store


class _Shapes(dict):
    """Stands in for a ``ParamStore``: ``create`` keeps each parameter's shape only."""

    def create(self, name: str, value) -> None:
        self[name] = np.shape(value)


def model_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in creation order, with nothing drawn or stored."""
    shapes = _Shapes()
    _create_params(shapes, cfg, None)
    return dict(shapes)


def _create_params(store: ParamStore, cfg: ModelConfig, rng: np.random.Generator | None) -> None:
    """Create the model's parameters in ``store``; with no ``rng`` drawn weights are zero."""
    init_linear(store, "enc3d", FEAT2D_DIM + cfg.dim, cfg.dim, rng)
    init_linear(store, "fuse", cfg.dim + FEAT2D_DIM, cfg.dim, rng)
    init_linear(store, "text_proj", TEXT_DIM, cfg.dim, rng)

    init_mlp(store, "score_det", _mlp_sizes(cfg, len(CLASS_NAMES)), rng)
    init_mlp(store, "score_grd", _mlp_sizes(cfg, 1), rng)

    # identity at init: beta outputs exactly 1, gamma exactly 0
    init_mlp(store, "qim_beta", [cfg.dim, cfg.dim, cfg.dim], rng,
             zero_last=True, last_bias=1.0)
    init_mlp(store, "qim_gamma", [cfg.dim, cfg.dim, cfg.dim], rng,
             zero_last=True, last_bias=0.0)

    # identity at init: zeroed output projection kills the residual branch
    init_attention(store, "rag_att", cfg.dim, rng, zero_out=True)
    init_mlp(store, "relevance", _mlp_sizes(cfg, 1), rng)

    for i in range(cfg.layers):
        for ln in ("ln1", "ln2", "ln3", "ln4"):
            init_layer_norm(store, f"dec{i}.{ln}", cfg.dim)
        init_attention(store, f"dec{i}.self", cfg.dim, rng)
        init_attention(store, f"dec{i}.text", cfg.dim, rng)
        init_attention(store, f"dec{i}.vis", cfg.dim, rng)
        init_linear(store, f"dec{i}.ffn1", cfg.dim, 2 * cfg.dim, rng)
        init_linear(store, f"dec{i}.ffn2", 2 * cfg.dim, cfg.dim, rng)

    init_mlp(store, "head_box", _mlp_sizes(cfg, 12), rng)
    init_mlp(store, "head_det", _mlp_sizes(cfg, len(CLASS_NAMES)), rng)
    init_mlp(store, "head_grd", _mlp_sizes(cfg, 1), rng)


def save_model(store: ParamStore, cfg: ModelConfig, path: str | Path,
               extra: dict | None = None) -> None:
    payload = {"model_config": asdict(cfg)}
    if extra:
        payload.update(extra)
    save_checkpoint(store, path, extra=payload)


def load_model(path: str | Path) -> tuple[ParamStore, ModelConfig, dict]:
    store, extra = load_checkpoint(path)
    if "model_config" not in extra:
        raise ValueError(f"checkpoint {path} has no model_config entry")
    raw = extra.pop("model_config")
    if not isinstance(raw, dict):
        raise ValueError(f"checkpoint {path}: model_config must be an object, got {raw!r}")
    known = {f.name for f in fields(ModelConfig)}
    unknown, missing = set(raw) - known, known - set(raw)
    if unknown:
        raise ValueError(f"checkpoint {path}: unknown model_config fields {sorted(unknown)}")
    if missing:
        raise ValueError(f"checkpoint {path}: missing model_config fields {sorted(missing)}")
    try:
        cfg = ModelConfig(**raw)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: bad model_config: {exc}") from exc
    expected = model_shapes(cfg)
    for name, p in store.items():
        if name not in expected:
            raise ValueError(f"checkpoint {path}: unexpected tensor {name!r} for its model_config")
        if p.shape != expected[name]:
            raise ValueError(f"checkpoint {path}: tensor {name!r} has shape {p.shape}, "
                             f"its model_config needs {expected[name]}")
    missing = [name for name in expected if name not in store]
    if missing:
        raise ValueError(f"checkpoint {path}: tensor {missing[0]!r} is missing "
                         f"({len(missing)} of {len(expected)} absent)")
    return store, cfg, extra


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------


def encoder_input(voxels: VoxelFeatureSet, dim: int) -> Array:
    """(N, C' + dim) [pooled voxel features | positional encoding of the centers]."""
    return np.concatenate([voxels.features.data, positional_encoding(voxels.coords, dim)], axis=1)


def encode_voxels(inputs: Array, store: ParamStore) -> Tensor:
    """Voxel encoder stub: the ``encoder_input`` rows -> (N, C)."""
    return linear(Tensor(inputs), store, "enc3d")


def fuse_features(encoded: Tensor, sampled: Array, store: ParamStore) -> Tensor:
    """Concatenate [encoded 3D | mean sampled 2D] and project to the model width.

    ``encoded`` is the (N, C) ``encode_voxels`` output and ``sampled`` the
    (N, C') ``geometry.sample_views`` output for the same voxels, a constant
    on the tape; gradients flow through the projection and the 3D branch.
    """
    return linear(concat([encoded, Tensor(sampled)], axis=1), store, "fuse")


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------


def sentence_embed(tokens: Tensor) -> Tensor:
    """Mean over token rows; (T, C) -> (1, C)."""
    if tokens.shape[0] < 1:
        raise ValueError("sentence embedding needs at least one token")
    return tokens.mean(axis=0, keepdims=True)


def embed_text(token_vectors: Array, store: ParamStore) -> TextEmbedding:
    """Project raw token vectors into model width and pool the sentence."""
    raw = np.asarray(token_vectors, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[0] < 1:
        raise ValueError(f"token vectors must be (T, TEXT_DIM) with T >= 1, got {raw.shape}")
    tokens = linear(Tensor(raw), store, "text_proj")
    return TextEmbedding(tokens=tokens, sentence=sentence_embed(tokens))


# ---------------------------------------------------------------------------
# Query selection
# ---------------------------------------------------------------------------


def scoring_logits(features: Tensor, store: ParamStore, task: str) -> Tensor:
    """Per-voxel confidence logits: (N, num_classes) for detection, (N, 1) for grounding."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    name = "score_det" if task == "detection" else "score_grd"
    return mlp_apply(features, store, name)


def select_queries(features: Tensor, coords: Array, inputs: Array, k: int,
                   logits: Tensor) -> QuerySet:
    """Top-k voxels by max ``scoring_logits`` row; ties keep ascending voxel index.

    A query is its voxel's (N, C) ``features`` row plus its positional
    encoding, the last C columns of its ``encoder_input`` row ``inputs``.
    Selection indices are treated as constants; gradients flow into the
    selected voxel features and into the scoring head only through the
    logits tensor (pass it to the auxiliary objective).
    """
    n, dim = features.shape
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} voxels")
    order = np.argsort(-logits.data.max(axis=1), kind="stable")[:k]
    embeddings = features[order] + Tensor(inputs[order, inputs.shape[1] - dim:])
    return QuerySet(embeddings=embeddings, positions=coords[order])


# ---------------------------------------------------------------------------
# Language modules
# ---------------------------------------------------------------------------


def qim_modulate(queries: Tensor, sentence: Tensor, store: ParamStore) -> Tensor:
    """Channel-wise affine on queries, parameters predicted from the sentence."""
    if queries.shape[-1] != sentence.shape[-1]:
        raise ValueError(f"query width {queries.shape[-1]} != sentence width "
                         f"{sentence.shape[-1]}")
    beta = mlp_apply(sentence, store, "qim_beta")
    gamma = mlp_apply(sentence, store, "qim_gamma")
    return beta * queries + gamma * sentence


def rag_apply(features: Tensor, text: TextEmbedding, store: ParamStore,
              cfg: ModelConfig) -> tuple[Tensor, Tensor]:
    """Text-conditioned residual refinement plus (N,) per-voxel relevance logits."""
    refined = features + attention(features, text.tokens, text.tokens, store, "rag_att",
                                   heads=cfg.heads)
    logits = mlp_apply(refined, store, "relevance")
    return refined, logits.reshape((features.shape[0],))


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------


def _decode_boxes(raw: Tensor, positions: Array):
    log_extents = raw[:, 3:6]
    with np.errstate(over="ignore"):
        extents = np.exp(log_extents.data)
    if not (np.isfinite(extents).all() and (extents > 0.0).all()):
        raise NonFiniteError(f"decoded box extents must be finite and positive, got "
                             f"{extents.min()} .. {extents.max()}")
    offsets = raw[:, 0:3]
    centers = Tensor(positions) + offsets
    sin_raw = raw[:, 6:9]
    cos_raw = raw[:, 9:12]
    norm = (sin_raw * sin_raw + cos_raw * cos_raw + 1e-12) ** 0.5
    sin_n = sin_raw / norm
    cos_n = cos_raw / norm
    angles = wrap_angle(np.arctan2(sin_raw.data, cos_raw.data))
    boxes = np.hstack([centers.data, extents, angles])
    return boxes, centers, log_extents, sin_n, cos_n


def decoder_forward(features: Tensor, text: TextEmbedding | None,
                    queries: QuerySet, store: ParamStore, cfg: ModelConfig,
                    task: str) -> DecoderOutput:
    """Run the shared decoder and the task heads.

    Detection skips the text cross-attention sublayer; grounding requires
    ``text`` and should receive region-refined features and modulated
    queries from the caller.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if queries.embeddings.shape[-1] != cfg.dim:
        raise ValueError(f"query width {queries.embeddings.shape[-1]} != model dim {cfg.dim}")
    if features.shape[-1] != cfg.dim:
        raise ValueError(f"feature width {features.shape[-1]} != model dim {cfg.dim}")
    if task == "grounding" and text is None:
        raise ValueError("grounding requires text")

    q = queries.embeddings
    for i in range(cfg.layers):
        h = layer_norm(q, store, f"dec{i}.ln1")
        q = q + attention(h, h, h, store, f"dec{i}.self", heads=cfg.heads)
        if task == "grounding":
            h = layer_norm(q, store, f"dec{i}.ln2")
            q = q + attention(h, text.tokens, text.tokens, store, f"dec{i}.text",
                              heads=cfg.heads)
        h = layer_norm(q, store, f"dec{i}.ln3")
        q = q + attention(h, features, features, store, f"dec{i}.vis", heads=cfg.heads)
        h = layer_norm(q, store, f"dec{i}.ln4")
        q = q + mlp(h, store, (f"dec{i}.ffn1", f"dec{i}.ffn2"))

    raw = mlp_apply(q, store, "head_box")
    boxes, centers, log_extents, sin_n, cos_n = _decode_boxes(raw, queries.positions)
    logits = mlp_apply(q, store, "head_det" if task == "detection" else "head_grd")
    return DecoderOutput(boxes=boxes, logits=logits, relevance=None, centers=centers,
                         log_extents=log_extents, sin_angles=sin_n, cos_angles=cos_n)

