"""Dense float64 tensors with reverse-mode differentiation on a recorded tape.

Every operation allocates a new node holding its value, its parent nodes and
a closure ``backward(g)`` that takes the gradient ``g`` of the node's output
and adds its contribution to each parent's ``grad``.  Calling
``Tensor.backward`` on a scalar allocates the gradient slots, then calls
``node._backward(node.grad)`` for every node in reverse topological order.

A closure never captures its own output tensor: it reads the output gradient
from ``g`` and, where it needs the output value (``sigmoid``, ``sqrt``,
``softmax``), captures that array.  Capturing ``out`` would make an
``out -> closure -> out`` reference cycle per node, so a step's graph could
only be freed by the cyclic garbage collector instead of by reference
counting when the loss is dropped.

Inside ``with no_grad():`` ops record nothing: each output keeps no parents
and no closure, so an intermediate is freed as soon as nothing reads it.
Values are computed by the same arithmetic as on the tape.  Inference
(``detection_predictions``, ``grounding_predictions``, the heatmap) and the
finite-difference forwards of ``grad_check`` run this way; a forward kept
alive as a tape holds thousands of collector-tracked objects until it
ends, enough to set off a full collection every few dozen forwards.

Everything is double precision so analytic gradients can be compared against
central finite differences at tight tolerances (``grad_check``).

Module layout:

* ``Tensor``, the free function ``concat`` and ``no_grad``: the op set.
* ``ParamStore``: named leaf tensors with gradient slots, plus init helpers
  for linear / MLP / layer-norm / attention parameter groups.
* ``SGD`` / ``Adam``: in-place optimizers over a ``ParamStore``.
* ``grad_check``: central finite-difference verification of the tape.
* ``save_checkpoint`` / ``load_checkpoint``: structured-text manifest plus a
  raw little-endian float64 sidecar.

Randomness throughout the package comes from numpy's PCG64 generator seeded
explicitly (``make_rng``); the same seed words give the same stream on every
platform.
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray


def make_rng(*seed_words: int) -> np.random.Generator:
    """PCG64 generator keyed by one or more integer seed words."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(w) for w in seed_words])))


class NonFiniteError(ValueError):
    """A NaN or infinity reached a tensor, a loss, a box or a cost matrix."""


def _sigmoid(x: Array) -> Array:
    """The package's one numpy logistic; exp only sees -|x|, so neither tail overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


_recording = True  # False inside no_grad()


@contextmanager
def no_grad():
    """Run ops without recording them on the tape (see the module docstring)."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


class Tensor:
    """A float64 array plus the tape bookkeeping needed for backward().

    ``data`` is always a C-contiguous float64 ndarray with finite entries;
    non-finite values are rejected at construction (``NonFiniteError``) so
    divergence surfaces at the op that produced it.  ``grad`` is lazily allocated (parameters get a
    zero slot up front via ``ParamStore``).
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple = (), backward: Callable[[Array], None] | None = None):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if not np.isfinite(arr).all():
            raise NonFiniteError("non-finite values in tensor")
        self.data = arr
        self.grad: Array | None = None
        self._parents = parents
        self._backward = backward

    def _taped(self, backward: Callable[[Array], None]) -> "Tensor":
        """Attach an op's backward closure, or drop its parents under no_grad()."""
        if _recording:
            self._backward = backward
        else:
            self._parents = ()
        return self

    # ---- introspection ----

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, data={self.data!r})"

    # ---- arithmetic ----

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = Tensor(self.data + other.data, (self, other))

        def backward(g):
            self.grad += _unbroadcast(g, self.data.shape)
            other.grad += _unbroadcast(g, other.data.shape)

        return out._taped(backward)

    def __radd__(self, other) -> "Tensor":
        return as_tensor(other).__add__(self)

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, (self,))

        def backward(g):
            self.grad -= g

        return out._taped(backward)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = Tensor(self.data - other.data, (self, other))

        def backward(g):
            self.grad += _unbroadcast(g, self.data.shape)
            other.grad -= _unbroadcast(g, other.data.shape)

        return out._taped(backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = Tensor(self.data * other.data, (self, other))

        def backward(g):
            self.grad += _unbroadcast(g * other.data, self.data.shape)
            other.grad += _unbroadcast(g * self.data, other.data.shape)

        return out._taped(backward)

    def __rmul__(self, other) -> "Tensor":
        return as_tensor(other).__mul__(self)

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = Tensor(self.data / other.data, (self, other))

        def backward(g):
            self.grad += _unbroadcast(g / other.data, self.data.shape)
            other.grad += _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)

        return out._taped(backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        p = float(exponent)
        if p == 0.0:
            return Tensor(np.ones_like(self.data), (self,), lambda g: None)
        out = Tensor(self.data ** p, (self,))

        def backward(g):
            self.grad += g * p * self.data ** (p - 1.0)

        return out._taped(backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ValueError(f"matmul expects 2-d operands, got {self.shape} @ {other.shape}")
        out = Tensor(self.data @ other.data, (self, other))

        def backward(g):
            self.grad += g @ other.data.T
            other.grad += self.data.T @ g

        return out._taped(backward)

    # ---- elementwise nonlinearities ----

    def relu(self) -> "Tensor":
        out = Tensor(np.maximum(self.data, 0.0), (self,))

        def backward(g):
            self.grad += g * (self.data > 0.0)

        return out._taped(backward)

    def sigmoid(self) -> "Tensor":
        y = _sigmoid(self.data)
        out = Tensor(y, (self,))

        def backward(g):
            self.grad += g * y * (1.0 - y)

        return out._taped(backward)

    def softplus(self) -> "Tensor":
        # log(1 + e^x) = max(x, 0) + log1p(e^-|x|), stable on both tails
        out = Tensor(np.maximum(self.data, 0.0) + np.log1p(np.exp(-np.abs(self.data))), (self,))

        def backward(g):
            self.grad += g * _sigmoid(self.data)

        return out._taped(backward)

    def abs(self) -> "Tensor":
        out = Tensor(np.abs(self.data), (self,))

        def backward(g):
            self.grad += g * np.sign(self.data)

        return out._taped(backward)

    def sqrt(self) -> "Tensor":
        y = np.sqrt(self.data)
        out = Tensor(y, (self,))

        def backward(g):
            self.grad += g * 0.5 / y

        return out._taped(backward)

    # ---- reductions ----

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self.grad += np.broadcast_to(g, self.data.shape)

        return out._taped(backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ---- shape ops ----

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), (self,))

        def backward(g):
            self.grad += g.reshape(self.data.shape)

        return out._taped(backward)

    def transpose(self, axes=None) -> "Tensor":
        out = Tensor(self.data.transpose(axes), (self,))

        def backward(g):
            if axes is None:
                self.grad += g.transpose()
            else:
                inverse = np.argsort(axes)
                self.grad += g.transpose(inverse)

        return out._taped(backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out = Tensor(self.data[key], (self,))
        fancy = isinstance(key, np.ndarray) or (
            isinstance(key, tuple) and any(isinstance(k, np.ndarray) for k in key)
        )

        def backward(g):
            if fancy:
                np.add.at(self.grad, key, g)
            else:
                self.grad[key] += g

        return out._taped(backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        if self.data.shape[axis] == 0:
            raise ValueError("softmax over an empty axis")
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=axis, keepdims=True)
        out = Tensor(y, (self,))

        def backward(g):
            inner = (g * y).sum(axis=axis, keepdims=True)
            self.grad += (g - inner) * y

        return out._taped(backward)

    # ---- backward pass ----

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        for node in topo:
            if node.grad is None:
                node.grad = np.zeros(node.data.shape)
        self.grad = self.grad + np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            t.grad += g[tuple(index)]

    return out._taped(backward)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class ParamStore:
    """Ordered map of parameter name -> leaf Tensor with a gradient slot."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def create(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(value)
        t.grad = np.zeros_like(t.data)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad[...] = 0.0

    def total_parameters(self) -> int:
        return sum(p.data.size for p in self._params.values())


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> Array:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_linear(store: ParamStore, name: str, fan_in: int, fan_out: int,
                rng: np.random.Generator, zero_weight: bool = False, bias: float | Array = 0.0) -> None:
    if zero_weight:
        w = np.zeros((fan_in, fan_out))
    else:
        w = xavier_uniform(rng, fan_in, fan_out)
    store.create(name + ".w", w)
    store.create(name + ".b", np.broadcast_to(np.asarray(bias, dtype=np.float64), (fan_out,)).copy())


def linear(x: Tensor, store: ParamStore, name: str) -> Tensor:
    w = store[name + ".w"]
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"linear {name!r}: input width {x.shape[-1]} != weight fan-in {w.shape[0]}")
    return x @ w + store[name + ".b"]


def init_mlp(store: ParamStore, prefix: str, sizes: Sequence[int], rng: np.random.Generator,
             zero_last: bool = False, last_bias: float | Array = 0.0) -> None:
    """Parameters for an MLP with layer i mapping sizes[i] -> sizes[i+1]."""
    n = len(sizes) - 1
    for i in range(n):
        last = i == n - 1
        init_linear(store, f"{prefix}.{i}", sizes[i], sizes[i + 1], rng,
                    zero_weight=zero_last and last, bias=last_bias if last else 0.0)


def mlp_apply(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    """Apply the MLP under ``prefix``; ReLU between layers, none after the last.

    The depth and the widths are read from the store: layers ``prefix.0``,
    ``prefix.1``, ... run until ``prefix.{i}.w`` is absent, and ``linear``
    checks each layer's input width.
    """
    if f"{prefix}.0.w" not in store:
        raise ValueError(f"mlp {prefix!r} has no layers in the store")
    h = linear(x, store, f"{prefix}.0")
    i = 1
    while f"{prefix}.{i}.w" in store:
        h = linear(h.relu(), store, f"{prefix}.{i}")
        i += 1
    return h


def init_layer_norm(store: ParamStore, name: str, dim: int) -> None:
    store.create(name + ".g", np.ones(dim))
    store.create(name + ".b", np.zeros(dim))


def layer_norm(x: Tensor, store: ParamStore, name: str) -> Tensor:
    """Normalize the last axis by its mean and sqrt(variance + 1e-5), then scale and shift."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    y = centered / (var + 1e-5).sqrt()
    return y * store[name + ".g"] + store[name + ".b"]


def init_attention(store: ParamStore, prefix: str, dim: int, rng: np.random.Generator,
                   zero_out: bool = False) -> None:
    for part in ("q", "k", "v"):
        init_linear(store, f"{prefix}.{part}", dim, dim, rng)
    init_linear(store, f"{prefix}.o", dim, dim, rng, zero_weight=zero_out)


def attention(q: Tensor, k: Tensor, v: Tensor, store: ParamStore, prefix: str,
              heads: int = 1, return_weights: bool = False):
    """Scaled dot-product attention with learned projections.

    q is (N, C), k and v are (T, C).  Heads split the projected width; the
    per-head outputs are concatenated and passed through the output
    projection.  Scale is 1/sqrt(C/heads).
    """
    if k.shape[0] == 0:
        raise ValueError("attention with an empty key set")
    if k.shape != v.shape:
        raise ValueError(f"key/value shape mismatch: {k.shape} vs {v.shape}")
    dim = q.shape[-1]
    if dim % heads != 0:
        raise ValueError(f"head count {heads} does not divide width {dim}")
    qp = linear(q, store, f"{prefix}.q")
    kp = linear(k, store, f"{prefix}.k")
    vp = linear(v, store, f"{prefix}.v")
    d = dim // heads
    scale = 1.0 / np.sqrt(d)
    outs = []
    weights = []
    for h in range(heads):
        cols = slice(h * d, (h + 1) * d)
        logits = qp[:, cols] @ kp[:, cols].T * scale
        w = logits.softmax(axis=-1)
        outs.append(w @ vp[:, cols])
        weights.append(w.data)
    merged = outs[0] if heads == 1 else concat(outs, axis=1)
    out = linear(merged, store, f"{prefix}.o")
    if return_weights:
        return out, np.stack(weights)
    return out


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


class SGD:
    """Plain gradient descent."""

    def __init__(self, lr: float):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def step(self, store: ParamStore) -> None:
        for _, p in store.items():
            p.data -= self.lr * p.grad
            p.grad[...] = 0.0


class Adam:
    """Adam with bias correction (beta1 0.9, beta2 0.999, eps 1e-8)."""

    def __init__(self, lr: float):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.t = 0
        self._m: dict[str, Array] = {}
        self._v: dict[str, Array] = {}

    def step(self, store: ParamStore) -> None:
        self.t += 1
        b1, b2 = 0.9, 0.999
        for name, p in store.items():
            if name not in self._m:
                self._m[name] = np.zeros_like(p.data)
                self._v[name] = np.zeros_like(p.data)
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * p.grad * p.grad
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            p.grad[...] = 0.0


def make_optimizer(kind: str, lr: float):
    kinds = {"sgd": SGD, "adam": Adam}
    if kind.lower() not in kinds:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    return kinds[kind.lower()](lr)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    """Per-parameter maximum relative error between tape and finite differences."""

    per_param: dict[str, float]
    eps: float
    tol: float

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def worst(self) -> tuple[str, float]:
        name = max(self.per_param, key=self.per_param.get)
        return name, self.per_param[name]


def grad_check(fn: Callable[[ParamStore], Tensor], store: ParamStore,
               eps: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of ``fn(store)`` against central differences.

    ``fn`` must be a deterministic map from the parameters to a scalar
    Tensor.  For every parameter coordinate w the check perturbs w by +/-eps,
    evaluates the loss, and forms (f+ - f-) / (2 eps).  The relative error is
    |analytic - fd| / max(|analytic|, |fd|, 1e-3); the floor keeps
    near-zero gradients from amplifying finite-difference roundoff.
    """
    store.zero_grad()
    loss = fn(store)
    if loss.data.size != 1:
        raise ValueError("grad_check requires a scalar-valued fn")
    if not np.isfinite(loss.data).all():
        raise NonFiniteError("non-finite loss")
    loss.backward()
    analytic = {name: p.grad.copy() for name, p in store.items()}

    per_param: dict[str, float] = {}
    with no_grad():
        for name, p in store.items():
            flat = p.data.reshape(-1)
            a_flat = analytic[name].reshape(-1)
            worst = 0.0
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + eps
                f_plus = float(fn(store).data.reshape(()))
                flat[i] = saved - eps
                f_minus = float(fn(store).data.reshape(()))
                flat[i] = saved
                fd = (f_plus - f_minus) / (2.0 * eps)
                rel = abs(a_flat[i] - fd) / max(abs(a_flat[i]), abs(fd), 1e-3)
                if rel > worst:
                    worst = rel
            per_param[name] = worst
    store.zero_grad()
    return GradCheckReport(per_param, eps=eps, tol=tol)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "egoground-checkpoint-v1"


def save_checkpoint(store: ParamStore, path: str | Path, extra: dict | None = None) -> None:
    """Write a JSON manifest at ``path`` and raw float64 payload beside it.

    The manifest records name, shape, dtype and byte offset for every
    parameter in insertion order; the sidecar ``.bin`` holds the
    little-endian float64 payload at those offsets.
    """
    path = Path(path)
    payload_path = path.with_suffix(".bin")
    entries = []
    offset = 0
    chunks = []
    for name, p in store.items():
        raw = np.ascontiguousarray(p.data, dtype="<f8").tobytes()
        entries.append({
            "name": name,
            "shape": list(p.data.shape),
            "dtype": "float64",
            "offset": offset,
        })
        chunks.append(raw)
        offset += len(raw)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "byte_order": "little",
        "payload": payload_path.name,
        "extra": extra or {},
        "params": entries,
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    payload_path.write_bytes(b"".join(chunks))


def load_checkpoint(path: str | Path) -> tuple[ParamStore, dict]:
    """Read a checkpoint written by ``save_checkpoint``.

    The manifest entries must tile the payload exactly, in order: each
    tensor starts where the previous one ended and the last one ends at the
    end of the payload.  Any other layout is a ``ValueError`` naming the
    checkpoint and the tensor.
    """
    path = Path(path)
    manifest = json.loads(path.read_text())
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format {manifest.get('format')!r}")
    payload = (path.parent / manifest["payload"]).read_bytes()
    store = ParamStore()
    end = 0
    for entry in manifest["params"]:
        name = entry["name"]
        shape = tuple(entry["shape"])
        start = entry["offset"]
        if not all(isinstance(d, int) and d >= 0 for d in shape):
            raise ValueError(f"checkpoint {path}: tensor {name!r} has invalid shape {list(shape)}")
        count = int(np.prod(shape)) if shape else 1
        if start != end:
            raise ValueError(f"checkpoint {path}: tensor {name!r} starts at byte {start}, "
                             f"expected {end} (entries must tile the payload)")
        end = start + 8 * count
        if end > len(payload):
            raise ValueError(f"checkpoint {path}: tensor {name!r} needs bytes [{start}, {end}) "
                             f"but the payload holds {len(payload)}")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start).reshape(shape)
        store.create(name, arr.astype(np.float64))
    if end != len(payload):
        after = f" after tensor {name!r}" if len(store) else ""
        raise ValueError(f"checkpoint {path}: {len(payload) - end} trailing payload bytes{after}")
    return store, manifest.get("extra", {})
