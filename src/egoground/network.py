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
voxel features, then a feed-forward block.  Each sublayer reads its own
layer norm of the queries and adds its output back to them; the add is the
sublayer node's ``residual`` operand, not a node of its own.  There is no
final layer norm, so a zero-layer decoder feeds the initial queries
straight to the heads.

Box regression predicts, per query, a center offset from the query's voxel
center, log extents, and sine/cosine pairs per angle; angles are recovered
with atan2 and wrapped to (-pi, pi], extents with exp.  A decoded extent that
underflows to zero or overflows to inf raises ``NonFiniteError``.  The
decoded boxes are one (K, 9) array, a row per query; ``Box9DoF`` objects are
built only where boxes leave the model (see train).  What the box loss
regresses is one (K, 12) tensor, [centers | log extents | sin / norm |
cos / norm] with norm = sqrt(sin^2 + cos^2 + 1e-12), decoded from the box
head in one tape node (``_decode_boxes``), as are ``fuse_features``,
``sentence_embed``, ``select_queries`` and ``qim_modulate`` (see autodiff).
Query selection is not differentiated through; the scoring heads learn
from an auxiliary objective instead (see train).

Every stage passes plain tensors: the fused trunk, the region-refined
features and the relevance logits are (N, C) / (N,) ``Tensor`` rows in voxel
order, and the voxel centers are passed alongside where a stage needs them
(query selection).  Both tasks' decoder outputs carry one ``logits`` field,
(K, num_classes) for detection and (K, 1) for grounding, and one
``box_pred`` field, the (K, 12) box tensor.

The parameter store built by ``init_model_params`` is the one description of
the model, and every learned layer is created, named and applied in this
module.  ``ModelConfig`` holds only what a run sets: the input widths and the
class count are those of the stub embeddings in ``scenes``, and the
feed-forward block is twice the model width.  Its ``disable_rag`` and
``disable_qim`` switches turn a grounding module off in the forward only, so
one seed gives the same parameters with a module on or off.  ``MODULES`` is
the one map from parameter-name prefix to module (gradcheck groups its table
by it), and every MLP's depth and widths are read from the store by
``mlp``, never restated at a call site.

A checkpoint is a JSON manifest holding its format and an ``extra`` object
with the ``model_config``, plus the arena as little-endian float64 in a
``.bin`` beside it.  That config is the payload's only description: ``model_shapes``
runs the creation code without a generator on a store that keeps only
shapes, ``save_model`` refuses a store that differs from it and
``load_model`` reads the payload in its order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .autodiff import (
    NonFiniteError,
    ParamStore,
    Tensor,
    _constant,
    _is_int,
    attention,
    init_attention,
    init_layer_norm,
    init_linear,
    init_mlp,
    layer_norm,
    linear,
    make_rng,
    mlp,
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
    box_pred: Tensor            # (K, 12) [centers | log extents | sin/norm | cos/norm]


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
        init_mlp(store, f"dec{i}.ffn", [cfg.dim, 2 * cfg.dim, cfg.dim], rng)

    init_mlp(store, "head_box", _mlp_sizes(cfg, 12), rng)
    init_mlp(store, "head_det", _mlp_sizes(cfg, len(CLASS_NAMES)), rng)
    init_mlp(store, "head_grd", _mlp_sizes(cfg, 1), rng)


CHECKPOINT_FORMAT = "egoground-checkpoint-v2"


def save_model(store: ParamStore, cfg: ModelConfig, path: str | Path,
               extra: dict | None = None) -> None:
    """Write the manifest at ``path`` and the arena at ``path.with_suffix(".bin")``.

    A store whose names, order or shapes are not ``model_shapes(cfg)`` is a
    ``ValueError`` naming the first tensor that differs, and nothing is written.
    """
    path = Path(path)
    layout = [(name, p.shape) for name, p in store.items()]
    for i, (have, want) in enumerate(zip_longest(layout, model_shapes(cfg).items())):
        if have != want:
            raise ValueError(f"checkpoint {path}: tensor {i} is {have} in the store "
                             f"but {want} in its model_config")
    manifest = {"format": CHECKPOINT_FORMAT, "extra": {"model_config": asdict(cfg), **(extra or {})}}
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    path.with_suffix(".bin").write_bytes(np.ascontiguousarray(store.data, dtype="<f8").tobytes())


def load_model(path: str | Path) -> tuple[ParamStore, ModelConfig, dict]:
    """Read a ``save_model`` checkpoint: its store, its config and the rest of ``extra``.

    A malformed manifest or ``model_config``, or a payload whose length is not
    that of ``model_shapes``, is a ``ValueError`` naming the checkpoint and the
    field; a non-finite value is a ``NonFiniteError`` naming its tensor.
    """
    path = Path(path)

    def bad(message: str) -> ValueError:
        return ValueError(f"checkpoint {path}: {message}")

    try:
        manifest = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise bad(f"manifest is not JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise bad(f"manifest must be a JSON object, got {type(manifest).__name__}")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise bad(f"unrecognized checkpoint format {manifest.get('format')!r}, "
                  f"expected {CHECKPOINT_FORMAT!r}")
    extra = manifest.get("extra")
    if not isinstance(extra, dict):
        raise bad(f"extra must be an object, got {extra!r}")
    raw = extra.pop("model_config", None)
    if not isinstance(raw, dict):
        raise bad(f"extra.model_config must be an object, got {raw!r}")
    known = {f.name for f in fields(ModelConfig)}
    unknown, missing = set(raw) - known, known - set(raw)
    if unknown:
        raise bad(f"unknown model_config fields {sorted(unknown)}")
    if missing:
        raise bad(f"missing model_config fields {sorted(missing)}")
    try:
        cfg = ModelConfig(**raw)
    except ValueError as exc:
        raise bad(f"bad model_config: {exc}") from exc
    payload = path.with_suffix(".bin").read_bytes()
    size = 8 * sum(math.prod(shape) for shape in model_shapes(cfg).values())
    if len(payload) != size:
        raise bad(f"payload holds {len(payload)} bytes, its model_config needs {size}")
    store = ParamStore()
    _create_params(store, cfg, None)  # model_shapes' order, then every value overwritten
    store.data[...] = np.frombuffer(payload, dtype="<f8")
    finite = np.isfinite(store.data)
    if not finite.all():
        raise NonFiniteError(f"checkpoint {path}: tensor "
                             f"{store.name_at(int(np.argmin(finite)))!r} holds non-finite values")
    return store, cfg, extra


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------


def encoder_input(voxels: VoxelFeatureSet, dim: int) -> Array:
    """(N, C' + dim) [pooled voxel features | positional encoding of the centers]."""
    return np.concatenate([voxels.features.data, positional_encoding(voxels.coords, dim)], axis=1)


def encode_voxels(inputs: Array, store: ParamStore) -> Tensor:
    """Voxel encoder stub: the ``encoder_input`` rows -> (N, C)."""
    return linear(inputs, store, "enc3d")


def fuse_features(encoded: Tensor, sampled: Array, store: ParamStore) -> Tensor:
    """Concatenate [encoded 3D | mean sampled 2D] and project to the model width, as one node.

    ``encoded`` is the (N, C) ``encode_voxels`` output and ``sampled`` the
    (N, C') ``geometry.sample_views`` output for the same voxels, a constant
    on the tape; ``encoded`` takes its columns of the whole input's gradient.
    """
    w, b = store["fuse.w"], store["fuse.b"]
    x = np.concatenate([encoded.data, _constant(sampled)], axis=1)
    out = Tensor(x @ w.data + b.data, (encoded, w, b))

    def backward(g):
        encoded.grad += (g @ w.data.T)[:, :encoded.shape[1]]
        w.grad += x.T @ g
        b.grad += g.sum(axis=0)

    return out._taped(backward)


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------


def sentence_embed(tokens: Tensor) -> Tensor:
    """Mean over token rows, as one node; (T, C) -> (1, C)."""
    if tokens.shape[0] < 1:
        raise ValueError("sentence embedding needs at least one token")
    inv_t = 1.0 / tokens.shape[0]
    out = Tensor(tokens.data.sum(axis=0, keepdims=True) * inv_t, (tokens,))

    def backward(g):
        tokens.grad += np.broadcast_to(g * inv_t, tokens.shape)

    return out._taped(backward)


def embed_text(token_vectors: Array, store: ParamStore) -> TextEmbedding:
    """Project raw token vectors into model width and pool the sentence."""
    raw = np.asarray(token_vectors, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[0] < 1:
        raise ValueError(f"token vectors must be (T, TEXT_DIM) with T >= 1, got {raw.shape}")
    tokens = linear(raw, store, "text_proj")
    return TextEmbedding(tokens=tokens, sentence=sentence_embed(tokens))


# ---------------------------------------------------------------------------
# Query selection
# ---------------------------------------------------------------------------


def scoring_logits(features: Tensor, store: ParamStore, task: str) -> Tensor:
    """Per-voxel confidence logits: (N, num_classes) for detection, (N, 1) for grounding."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    name = "score_det" if task == "detection" else "score_grd"
    return mlp(features, store, name)


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
    pos = _constant(inputs[order, inputs.shape[1] - dim:])
    out = Tensor(features.data[order] + pos, (features,))

    def backward(g):
        np.add.at(features.grad, order, g)

    return QuerySet(embeddings=out._taped(backward), positions=coords[order])


# ---------------------------------------------------------------------------
# Language modules
# ---------------------------------------------------------------------------


def qim_modulate(queries: Tensor, sentence: Tensor, store: ParamStore) -> Tensor:
    """Channel-wise affine ``beta * Q + gamma * s``, beta and gamma predicted from the sentence."""
    if queries.shape[-1] != sentence.shape[-1]:
        raise ValueError(f"query width {queries.shape[-1]} != sentence width "
                         f"{sentence.shape[-1]}")
    beta = mlp(sentence, store, "qim_beta")
    gamma = mlp(sentence, store, "qim_gamma")
    q, s = queries.data, sentence.data
    out = Tensor(beta.data * q + gamma.data * s, (beta, queries, gamma, sentence))

    def backward(g):
        beta.grad += (g * q).sum(axis=0, keepdims=True)
        queries.grad += g * beta.data
        g_s = g.sum(axis=0, keepdims=True)
        gamma.grad += g_s * s
        sentence.grad += g_s * gamma.data

    return out._taped(backward)


def rag_apply(features: Tensor, text: TextEmbedding, store: ParamStore,
              cfg: ModelConfig) -> tuple[Tensor, Tensor]:
    """Text-conditioned residual refinement plus (N,) per-voxel relevance logits."""
    refined = attention(features, text.tokens, store, "rag_att", heads=cfg.heads, residual=features)
    logits = mlp(refined, store, "relevance")
    return refined, logits.reshape((features.shape[0],))


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------


def _decode_boxes(raw: Tensor, positions: Array) -> tuple[Array, Tensor]:
    """The (K, 9) boxes and the (K, 12) [centers | log extents | sin/norm | cos/norm] tensor.

    One tape node over the ``head_box`` output ``raw``, with the value and
    the gradient bytes of the composition it replaces: four column slices,
    positions + offsets, norm = (s*s + c*c + 1e-12) ** 0.5 and the two
    quotients.  The backward adds that tape's terms in its order: the sin
    (cos) gradient takes g / norm, then the product's two equal terms.  A
    tape slot starts from zero, which only settles the sign of a zero; the
    one add into ``raw``'s zero slot does that here.
    """
    with np.errstate(over="ignore"):
        extents = np.exp(raw.data[:, 3:6])
    if not (np.isfinite(extents).all() and (extents > 0.0).all()):
        raise NonFiniteError(f"decoded box extents must be finite and positive, got "
                             f"{extents.min()} .. {extents.max()}")
    s, c = raw.data[:, 6:9], raw.data[:, 9:12]
    centers = positions + raw.data[:, 0:3]
    q = s * s + c * c + 1e-12
    n = q ** 0.5
    out = Tensor(np.hstack([centers, raw.data[:, 3:6], s / n, c / n]), (raw,))
    boxes = np.hstack([centers, extents, wrap_angle(np.arctan2(s, c))])

    def backward(g):
        gs, gc = g[:, 6:9], g[:, 9:12]
        gn = -gs * s / (n * n) + -gc * c / (n * n)  # the norm's two quotient terms
        gq = gn * 0.5 * q ** -0.5
        raw.grad += np.hstack([g[:, 0:6], gs / n + gq * s + gq * s, gc / n + gq * c + gq * c])

    return boxes, out._taped(backward)


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
        q = attention(h, h, store, f"dec{i}.self", heads=cfg.heads, residual=q)
        if task == "grounding":
            h = layer_norm(q, store, f"dec{i}.ln2")
            q = attention(h, text.tokens, store, f"dec{i}.text", heads=cfg.heads, residual=q)
        h = layer_norm(q, store, f"dec{i}.ln3")
        q = attention(h, features, store, f"dec{i}.vis", heads=cfg.heads, residual=q)
        h = layer_norm(q, store, f"dec{i}.ln4")
        q = mlp(h, store, f"dec{i}.ffn", residual=q)

    raw = mlp(q, store, "head_box")
    boxes, box_pred = _decode_boxes(raw, queries.positions)
    logits = mlp(q, store, "head_det" if task == "detection" else "head_grd")
    return DecoderOutput(boxes=boxes, logits=logits, relevance=None, box_pred=box_pred)

