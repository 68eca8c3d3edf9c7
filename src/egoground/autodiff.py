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
Values are computed by the same arithmetic as on the tape.  The model's
inference forwards (``train.forward_detection`` and
``train.forward_grounding``, so every prediction and heatmap) enter it
themselves, and the finite-difference forwards of ``grad_check`` run this
way too; only ``train.training_losses`` records.  A forward kept alive as a
tape holds thousands of collector-tracked objects until it ends, enough to
set off a full collection every few dozen forwards.

A tape's cost is Python overhead per node, so the model's building blocks
are each one node with a hand-written backward:

* ``linear``: ``x @ w + b`` over ``(x, w, b)``.
* ``mlp``: linears with a ReLU between them over ``x`` and every layer's
  ``(w, b)``; ``mlp_apply`` and the decoder's feed-forward block use it.
* ``layer_norm``: one node over ``(x, gamma, beta)`` whose backward is the
  closed form of Ba et al. (2016), not the chain through mean, variance,
  square root and division.
* the attention core: ``softmax(q k^T / sqrt(d)) v`` for every head at once
  on (H, N, d) stacks (Vaswani et al., 2017), so ``attention`` is five
  nodes (four linears and the core) for any head count.
* the loss tails in ``losses``: ``focal_loss``, ``box_regression_loss`` and
  ``spatial_relevance_loss`` are one node each over their input tensors.

Their forward values are bit-identical to the elementwise compositions they
replace (the tests keep those compositions as references).  The gradients
of ``linear``, ``mlp`` and the loss tails are bit-identical too: their
backwards apply the composition's terms in its tape order.  Those of
``layer_norm`` and the attention core agree to rounding, since their closed
forms sum in a different order.

Finiteness is checked where values enter and where they leave, not per
node.  A ``Tensor`` built from data must be finite (``NonFiniteError``);
an op's output is not checked, so a NaN or infinity travels on to the
loss.  ``backward`` refuses a non-finite loss, ``train.train`` checks the
whole gradient arena once per step and names the first bad parameter, and
the inference forwards check their outputs once.

Parameters live in one flat arena per ``ParamStore``: every parameter's
``data`` and ``grad`` are views into the store's ``data`` and ``grad``
buffers, in creation order.  Nothing rebinds a parameter's ``data`` or
``grad``; optimizers, ``zero_grad`` and ``grad_check`` update them in place,
so an optimizer step is a few whole-buffer operations and a checkpoint
payload is the ``data`` buffer.

Everything is double precision so analytic gradients can be compared against
central finite differences at tight tolerances (``grad_check``).

Module layout:

* ``Tensor``, the free function ``concat`` and ``no_grad``: the op set.
* ``ParamStore``: named leaf tensors on a flat arena, plus init helpers and
  the fused ops for linear / MLP / layer-norm / attention parameter groups.
* ``SGD`` / ``Adam``: in-place optimizers over a store's arena.
* ``grad_check``: central finite-difference verification of the tape.
* ``save_checkpoint`` / ``load_checkpoint``: structured-text manifest plus a
  raw little-endian float64 sidecar.

Randomness throughout the package comes from numpy's PCG64 generator seeded
explicitly (``make_rng``); the same seed words give the same stream on every
platform.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


def make_rng(*seed_words: int) -> np.random.Generator:
    """PCG64 generator keyed by one or more integer seed words."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(w) for w in seed_words])))


class NonFiniteError(ValueError):
    """A NaN or infinity reached a tensor, a loss, a box or a cost matrix."""


def _is_int(value) -> bool:
    """An int that is not a bool, as the package's file and config checks want it."""
    return isinstance(value, int) and not isinstance(value, bool)


def _sigmoid(x: Array) -> Array:
    """The package's one numpy logistic; exp only sees -|x|, so neither tail overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def _softplus(x: Array) -> Array:
    """log(1 + e^x) = max(x, 0) + log1p(e^-|x|), stable on both tails."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


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

    ``data`` is always a C-contiguous float64 ndarray.  A tensor built from
    data (no parents) must be finite, or construction raises
    ``NonFiniteError``; an op's output is not checked (see the module
    docstring).  ``grad`` is lazily allocated (parameters get a zero slot up
    front via ``ParamStore``).
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple = (), backward: Callable[[Array], None] | None = None):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if not parents and not np.isfinite(arr).all():
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

    def __pow__(self, exponent: float) -> "Tensor":
        p = float(exponent)
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
        out = Tensor(_softplus(self.data), (self,))

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
        count = self.data.size if axis is None else self.data.shape[axis]
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
        if not np.isfinite(self.data).all():
            raise NonFiniteError(f"non-finite loss {self.item()}")
        topo: list[Tensor] = []
        seen: set[Tensor] = set()  # Tensor defines no __eq__, so it hashes by identity
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for parent in node._parents:
                if parent not in seen:
                    stack.append((parent, False))
        for node in topo:
            if node.grad is None:
                node.grad = np.zeros(node.data.shape)
        self.grad += 1.0
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
    """Ordered map of parameter name -> leaf Tensor, backed by one flat arena.

    Every parameter's ``data`` and ``grad`` are views into the store's two
    float64 buffers (``store.data``, ``store.grad``), laid out in creation
    order, which is also the checkpoint order.  Optimizers and ``zero_grad``
    update the buffers in place; nothing rebinds a parameter's ``data`` or
    ``grad``.  ``create`` grows the buffers geometrically and re-points the
    existing views when they move, so hold the Tensor, not its array, while
    a store is still being built.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._data = np.zeros(0)  # capacity; the live prefix is [:_size]
        self._grad = np.zeros(0)
        self._size = 0

    def _bind(self, t: Tensor, offset: int) -> int:
        """Point ``t.data``/``t.grad`` at the arena from ``offset``; return its end."""
        end = offset + t.data.size
        t.data = self._data[offset:end].reshape(t.data.shape)
        t.grad = self._grad[offset:end].reshape(t.data.shape)
        return end

    def create(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(value)
        start, end = self._size, self._size + t.data.size
        if end > self._data.size:
            capacity = max(end, 2 * self._data.size)
            data, grad = np.zeros(capacity), np.zeros(capacity)
            data[:start] = self._data[:start]
            grad[:start] = self._grad[:start]
            self._data, self._grad = data, grad
            offset = 0
            for p in self._params.values():
                offset = self._bind(p, offset)
        self._data[start:end] = t.data.reshape(-1)
        self._bind(t, start)
        self._size = end
        self._params[name] = t
        return t

    @property
    def data(self) -> Array:
        """Every parameter's values, flat, in creation order (a view)."""
        return self._data[:self._size]

    @property
    def grad(self) -> Array:
        """Every parameter's gradient, flat, in creation order (a view)."""
        return self._grad[:self._size]

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
        self.grad.fill(0.0)

    def name_at(self, index: int) -> str:
        """The parameter whose arena slice holds flat element ``index``."""
        end = 0
        for name, p in self._params.items():
            end += p.data.size
            if index < end:
                return name
        raise IndexError(f"arena index {index} is past the {self._size} parameters")

    def total_parameters(self) -> int:
        return self._size


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> Array:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_linear(store: ParamStore, name: str, fan_in: int, fan_out: int,
                rng: np.random.Generator | None, zero_weight: bool = False,
                bias: float | Array = 0.0) -> None:
    """``name.w`` (fan_in, fan_out) and ``name.b`` (fan_out,); with no ``rng`` the weight is zero."""
    if zero_weight or rng is None:
        w = np.zeros((fan_in, fan_out))
    else:
        w = xavier_uniform(rng, fan_in, fan_out)
    store.create(name + ".w", w)
    store.create(name + ".b", np.broadcast_to(np.asarray(bias, dtype=np.float64), (fan_out,)).copy())


def linear(x: Tensor, store: ParamStore, name: str) -> Tensor:
    """``x @ w + b`` for a (N, fan_in) ``x``, as one tape node."""
    w = store[name + ".w"]
    b = store[name + ".b"]
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"linear {name!r}: input shape {x.shape} does not fit weight fan-in {w.shape[0]}")
    out = Tensor(x.data @ w.data + b.data, (x, w, b))

    def backward(g):
        x.grad += g @ w.data.T
        w.grad += x.data.T @ g
        b.grad += g.sum(axis=0)

    return out._taped(backward)


def init_mlp(store: ParamStore, prefix: str, sizes: Sequence[int], rng: np.random.Generator | None,
             zero_last: bool = False, last_bias: float | Array = 0.0) -> None:
    """Parameters for an MLP with layer i mapping sizes[i] -> sizes[i+1]."""
    n = len(sizes) - 1
    for i in range(n):
        last = i == n - 1
        init_linear(store, f"{prefix}.{i}", sizes[i], sizes[i + 1], rng,
                    zero_weight=zero_last and last, bias=last_bias if last else 0.0)


def mlp(x: Tensor, store: ParamStore, layers: Sequence[str]) -> Tensor:
    """The linears ``layers`` in turn, ReLU between them and none after the last, as one node.

    Its value is that of the chain ``linear``, ``relu``, ``linear``, ...; its
    backward runs the chain's closures in their tape order, last layer first,
    so every gradient byte matches the chain's too.
    """
    params = [(store[name + ".w"], store[name + ".b"]) for name in layers]
    inputs = []  # each layer's input; past layer 0 a ReLU output, > 0 where the ReLU passes
    h = x.data
    for i, (name, (w, b)) in enumerate(zip(layers, params)):
        if i:
            h = np.maximum(h, 0.0)
        if h.ndim != 2 or h.shape[1] != w.shape[0]:
            raise ValueError(f"linear {name!r}: input shape {h.shape} does not fit weight "
                             f"fan-in {w.shape[0]}")
        inputs.append(h)
        h = h @ w.data + b.data
    out = Tensor(h, (x, *(t for pair in params for t in pair)))

    def backward(g):
        for i in range(len(params) - 1, -1, -1):
            w, b = params[i]
            gx = g @ w.data.T
            w.grad += inputs[i].T @ g
            b.grad += g.sum(axis=0)
            if i == 0:
                x.grad += gx
            else:
                g = gx * (inputs[i] > 0.0)

    return out._taped(backward)


def mlp_apply(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    """Apply the MLP under ``prefix`` with ``mlp``.

    The depth and the widths are read from the store: layers ``prefix.0``,
    ``prefix.1``, ... run until ``prefix.{i}.w`` is absent, and each layer's
    input width is checked.
    """
    if f"{prefix}.0.w" not in store:
        raise ValueError(f"mlp {prefix!r} has no layers in the store")
    layers = [f"{prefix}.0"]
    while f"{prefix}.{len(layers)}.w" in store:
        layers.append(f"{prefix}.{len(layers)}")
    return mlp(x, store, layers)


def init_layer_norm(store: ParamStore, name: str, dim: int) -> None:
    store.create(name + ".g", np.ones(dim))
    store.create(name + ".b", np.zeros(dim))


def layer_norm(x: Tensor, store: ParamStore, name: str) -> Tensor:
    """Normalize the last axis by its mean and sqrt(variance + 1e-5), then scale and shift.

    One tape node.  With xhat the normalized input and s = sqrt(var + 1e-5),
    the backward is the closed form dx = (gy - mean(gy) - xhat mean(gy xhat)) / s
    for gy = g * gamma (Ba et al., 2016).
    """
    gamma = store[name + ".g"]
    beta = store[name + ".b"]
    inv_c = 1.0 / x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * inv_c
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_c + 1e-5)
    xhat = centered / std
    out = Tensor(xhat * gamma.data + beta.data, (x, gamma, beta))

    def backward(g):
        gy = g * gamma.data
        mean_gy = gy.sum(axis=-1, keepdims=True) * inv_c
        mean_gy_xhat = (gy * xhat).sum(axis=-1, keepdims=True) * inv_c
        x.grad += (gy - mean_gy - xhat * mean_gy_xhat) / std
        rows = g.reshape(-1, g.shape[-1])
        gamma.grad += (rows * xhat.reshape(rows.shape)).sum(axis=0)
        beta.grad += rows.sum(axis=0)

    return out._taped(backward)


def init_attention(store: ParamStore, prefix: str, dim: int, rng: np.random.Generator | None,
                   zero_out: bool = False) -> None:
    for part in ("q", "k", "v"):
        init_linear(store, f"{prefix}.{part}", dim, dim, rng)
    init_linear(store, f"{prefix}.o", dim, dim, rng, zero_weight=zero_out)


def _attention_core(qp: Tensor, kp: Tensor, vp: Tensor, heads: int) -> tuple[Tensor, Array]:
    """softmax(q k^T / sqrt(d)) v for every head at once, as one tape node.

    The projected (N, C) queries and (T, C) keys and values are viewed as
    (H, N, d) and (H, T, d) stacks, d = C / H; the per-head outputs come back
    side by side as (N, C).  Returns the output and the (H, N, T) weights.
    """
    (n, dim), t = qp.shape, kp.shape[0]
    d = dim // heads
    scale = 1.0 / np.sqrt(d)
    # contiguous per-head blocks: BLAS then sees the operand layouts of a
    # per-head slice, and the products round exactly as they would per head
    qh = np.ascontiguousarray(qp.data.reshape(n, heads, d).transpose(1, 0, 2))
    kt = np.ascontiguousarray(kp.data.reshape(t, heads, d).transpose(1, 2, 0))
    vh = np.ascontiguousarray(vp.data.reshape(t, heads, d).transpose(1, 0, 2))
    logits = qh @ kt * scale
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    out = Tensor((w @ vh).transpose(1, 0, 2).reshape(n, dim), (qp, kp, vp))

    def backward(g):
        gh = g.reshape(n, heads, d).transpose(1, 0, 2)
        gw = gh @ vh.transpose(0, 2, 1)
        gl = (gw - (gw * w).sum(axis=-1, keepdims=True)) * w * scale
        qp.grad += (gl @ kt.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(n, dim)
        kp.grad += (gl.transpose(0, 2, 1) @ qh).transpose(1, 0, 2).reshape(t, dim)
        vp.grad += (w.transpose(0, 2, 1) @ gh).transpose(1, 0, 2).reshape(t, dim)

    return out._taped(backward), w


def attention(q: Tensor, k: Tensor, v: Tensor, store: ParamStore, prefix: str,
              heads: int = 1) -> Tensor:
    """Scaled dot-product attention with learned projections.

    q is (N, C), k and v are (T, C).  Heads split the projected width; the
    per-head outputs are concatenated and passed through the output
    projection.  Scale is 1/sqrt(C/heads).  Five tape nodes for any head
    count: the q, k, v and output linears and the head-batched core.
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
    merged, _ = _attention_core(qp, kp, vp, heads)
    return linear(merged, store, f"{prefix}.o")


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


class SGD:
    """Plain gradient descent over a store's flat arena."""

    def __init__(self, lr: float):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def step(self, store: ParamStore) -> None:
        data = store.data
        data -= self.lr * store.grad
        store.zero_grad()


class Adam:
    """Adam with bias correction (beta1 0.9, beta2 0.999, eps 1e-8).

    The moments are two flat arrays aligned with the store's arena, so a
    step is a few whole-buffer operations; every element sees the same
    arithmetic as a per-tensor loop would give it.  The step allocates
    nothing: each operation of ``data -= lr * m_hat / (sqrt(v_hat) + eps)``
    writes into one of two spare buffers, in the order the expression
    evaluates, so the bytes are those of the expression.
    """

    def __init__(self, lr: float):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.t = 0
        self._m: Array | None = None
        self._v: Array | None = None
        self._spare: tuple[Array, Array] | None = None

    def step(self, store: ParamStore) -> None:
        data, grad = store.data, store.grad
        if self._m is None:
            self._m = np.zeros_like(data)
            self._v = np.zeros_like(data)
            self._spare = (np.empty_like(data), np.empty_like(data))
        elif self._m.shape != data.shape:
            raise ValueError(f"Adam moments cover {self._m.size} parameters, the store holds {data.size}")
        self.t += 1
        b1, b2 = 0.9, 0.999
        m, v = self._m, self._v
        a, b = self._spare
        m *= b1
        m += np.multiply(1.0 - b1, grad, out=a)
        v *= b2
        v += np.multiply(np.multiply(1.0 - b2, grad, out=a), grad, out=a)
        np.divide(m, 1.0 - b1 ** self.t, out=a)  # m_hat
        np.divide(v, 1.0 - b2 ** self.t, out=b)  # v_hat
        np.add(np.sqrt(b, out=b), 1e-8, out=b)
        data -= np.divide(np.multiply(self.lr, a, out=a), b, out=a)
        store.zero_grad()


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
                if not math.isfinite(fd):
                    raise NonFiniteError(f"non-finite loss with {name}[{i}] moved by +/-{eps}")
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
    parameter in creation order; the sidecar ``.bin`` is the store's arena,
    little-endian float64, so each tensor sits at its offset.
    """
    path = Path(path)
    payload_path = path.with_suffix(".bin")
    entries = []
    offset = 0
    for name, p in store.items():
        entries.append({
            "name": name,
            "shape": list(p.data.shape),
            "dtype": "float64",
            "offset": offset,
        })
        offset += 8 * p.data.size
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "byte_order": "little",
        "payload": payload_path.name,
        "extra": extra or {},
        "params": entries,
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    payload_path.write_bytes(np.ascontiguousarray(store.data, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ParamStore, dict]:
    """Read a checkpoint written by ``save_checkpoint``.

    The manifest must be a JSON object in this module's format with
    little-endian float64 entries, each a distinct ``name``, a ``shape`` of
    non-negative ints and an int ``offset``.  The entries must tile the
    payload exactly, in order: each tensor starts where the previous one
    ended and the last one ends at the end of the payload.  Anything else is
    a ``ValueError`` naming the checkpoint and the field or tensor.
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
        raise bad(f"unrecognized checkpoint format {manifest.get('format')!r}")
    if manifest.get("byte_order") != "little":
        raise bad(f"byte_order must be 'little', got {manifest.get('byte_order')!r}")
    payload_name = manifest.get("payload")
    if not isinstance(payload_name, str) or payload_name in ("", ".", "..") \
            or Path(payload_name).name != payload_name:
        raise bad(f"payload must be a file name beside the manifest, got {payload_name!r}")
    extra = manifest.get("extra", {})
    if not isinstance(extra, dict):
        raise bad(f"extra must be an object, got {extra!r}")
    entries = manifest.get("params")
    if not isinstance(entries, list):
        raise bad(f"params must be a list, got {entries!r}")
    payload = (path.parent / payload_name).read_bytes()

    layout: list[tuple[str, tuple[int, ...]]] = []
    seen: set[str] = set()
    end = 0
    for i, entry in enumerate(entries):
        field_ = f"params[{i}]"
        if not isinstance(entry, dict):
            raise bad(f"{field_} must be an object, got {entry!r}")
        name = entry.get("name")
        if not isinstance(name, str):
            raise bad(f"{field_}.name must be a string, got {name!r}")
        if name in seen:
            raise bad(f"{field_}.name: duplicate tensor {name!r}")
        seen.add(name)
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(_is_int(d) and d >= 0 for d in shape):
            raise bad(f"tensor {name!r} has invalid shape {shape!r} ({field_}.shape)")
        if entry.get("dtype") != "float64":
            raise bad(f"tensor {name!r} has dtype {entry.get('dtype')!r}, "
                      f"expected 'float64' ({field_}.dtype)")
        start = entry.get("offset")
        if not _is_int(start):
            raise bad(f"tensor {name!r} has offset {start!r}, expected an int ({field_}.offset)")
        if start != end:
            raise bad(f"tensor {name!r} starts at byte {start}, expected {end} "
                      f"({field_}.offset; entries must tile the payload)")
        end = start + 8 * math.prod(shape)
        if end > len(payload):
            raise bad(f"tensor {name!r} needs bytes [{start}, {end}) "
                      f"but the payload holds {len(payload)}")
        layout.append((name, tuple(shape)))
    if end != len(payload):
        after = f" after tensor {layout[-1][0]!r}" if layout else ""
        raise bad(f"{len(payload) - end} trailing payload bytes{after}")
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    finite = np.isfinite(data)
    if not finite.all():
        first = int(np.argmin(finite)) * 8
        name = next(e["name"] for e in reversed(entries) if e["offset"] <= first)
        raise NonFiniteError(f"checkpoint {path}: tensor {name!r} holds non-finite values")
    store = ParamStore()
    offset = 0
    for name, shape in layout:
        size = math.prod(shape)
        store.create(name, data[offset:offset + size].reshape(shape))
        offset += size
    return store, extra
