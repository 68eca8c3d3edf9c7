"""Dense float64 tensors with reverse-mode differentiation on a recorded tape.

Every operation allocates a new node holding its value, its parent nodes and
a closure ``backward(g)`` that takes the gradient ``g`` of the node's output
and adds its contribution to each parent's ``grad``.  Calling
``Tensor.backward`` on a scalar allocates the gradient slots, then calls
``node._backward(node.grad)`` for every node in reverse topological order.

A closure never captures its own output tensor: it reads the output gradient
from ``g`` and, where it needs the output value (the attention core's softmax
weights), captures that array.  Capturing ``out`` would make an
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

``Tensor`` holds no arithmetic: its ops are ``reshape``, ``backward``,
``item`` and ``shape`` (``tests/test_train.py`` pins them).  Every other
node is one of the model's layers with a hand-written backward, since a
tape's cost is Python overhead per node.  An array that enters a node
(scene features, text vectors, positional encodings) and a loss weight are
constants, not leaves: they get no node, no gradient slot and no gradient,
so a training tape's only leaves are parameters.  The nodes:

* ``linear``: ``x @ w + b`` over ``(x, w, b)``, or ``(w, b)`` for a constant
  ``x``.
* ``mlp``: the linears stored under a name prefix, with a ReLU between them,
  over ``x`` and every layer's ``(w, b)``; every MLP of the model, the
  decoder's feed-forward blocks included, is one ``mlp`` call.
* the pre-norm residual add (Xiong et al., 2020): ``linear`` and ``mlp``
  take the residual stream as an operand, listed first among the node's
  parents, and compute ``residual + (...)``; ``attention`` passes it to its
  output linear.  A residual block is then the layer norm plus its
  sublayer's nodes, with no node for the add.
* ``layer_norm``: one node over ``(x, gamma, beta)`` whose backward is the
  closed form of Ba et al. (2016), not the chain through mean, variance,
  square root and division.
* the attention core: ``softmax(q k^T / sqrt(d)) v`` for every head at once
  on (H, N, d) stacks (Vaswani et al., 2017), so ``attention`` is five
  nodes (four linears and the core) for any head count, its residual add
  included.
* in ``network``: ``fuse_features`` (concat and linear), ``sentence_embed``
  (the mean), ``select_queries`` (gather and positional encoding),
  ``qim_modulate`` (``beta * Q + gamma * s``) and the box decode.
* in ``losses``: the three loss tails and ``weighted_sum``, an objective's
  weighted total.

Their forward values are bit-identical to the compositions they replace;
the tests keep those compositions as references, built from generic ops
the model never records (addition, multiplication, sums, indexing,
concatenation, subtraction, division, powers, matmul, transpose, softmax
and the elementwise nonlinearities) in ``tests/tape_reference.py``.  The
gradients of every node but ``layer_norm`` and the attention core are
bit-identical too: their backwards apply the composition's terms in its
tape order.  A residual operand keeps this: the backward adds ``g`` into
the residual first, where the add's own node ran, just before its
sublayer's.  Those of ``layer_norm`` and the attention core agree to
rounding, since their closed forms sum in a different order.

Finiteness is checked where values enter and where they leave, not per
node.  A ``Tensor`` built from data and a constant operand must be finite
(``NonFiniteError``); an op's output is not checked, so a NaN or infinity
travels on to the loss.  ``backward`` refuses a non-finite loss,
``train.train`` checks the whole gradient arena once per step and names the
first bad parameter, and the inference forwards check their outputs once.

Parameters live in one flat arena per ``ParamStore``: every parameter's
``data`` and ``grad`` are views into the store's ``data`` and ``grad``
buffers, in creation order.  Nothing rebinds a parameter's ``data`` or
``grad``; optimizers, ``zero_grad`` and ``grad_check`` update them in place,
so an optimizer step is a few whole-buffer operations, and
``network.save_model`` writes the ``data`` buffer as a checkpoint's payload.

Everything is double precision so analytic gradients can be compared against
central finite differences at tight tolerances (``grad_check``).

Module layout:

* ``Tensor`` and ``no_grad``: the tape.
* ``ParamStore``: named leaf tensors on a flat arena, plus init helpers and
  the fused ops for linear / MLP / layer-norm / attention parameter groups.
* ``SGD`` / ``Adam``: in-place optimizers over a store's arena.
* ``grad_check``: central finite-difference verification of the tape.

Randomness throughout the package comes from numpy's PCG64 generator seeded
explicitly (``make_rng``); the same seed words give the same stream on every
platform.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
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

    def __init__(self, data, parents: tuple = ()):
        self.data = np.ascontiguousarray(data, dtype=np.float64) if parents else _constant(data)
        self.grad: Array | None = None
        self._parents = parents
        self._backward: Callable[[Array], None] | None = None

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

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, data={self.data!r})"

    # ---- shape ops ----

    def reshape(self, shape) -> "Tensor":
        out = Tensor(self.data.reshape(shape), (self,))

        def backward(g):
            self.grad += g.reshape(self.data.shape)

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


def _constant(value) -> Array:
    """A constant operand, held as a leaf holds its data: contiguous float64, checked finite.

    A scalar becomes shape (1,), as ``np.ascontiguousarray`` makes it.
    """
    arr = np.ascontiguousarray(value, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NonFiniteError("non-finite values in tensor")
    return arr


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
        w = np.broadcast_to(0.0, (fan_in, fan_out))  # no memory until create copies it
    else:
        w = xavier_uniform(rng, fan_in, fan_out)
    store.create(name + ".w", w)
    store.create(name + ".b", np.broadcast_to(np.asarray(bias, dtype=np.float64), (fan_out,)).copy())


def linear(x, store: ParamStore, name: str, residual: Tensor | None = None) -> Tensor:
    """``x @ w + b`` for a (N, fan_in) ``x``, as one tape node.

    An array ``x`` is a constant (``_constant``).  With a ``residual``, the
    node is the pre-norm residual add ``residual + (x @ w + b)``; its
    backward adds ``g`` into the residual before its own terms, as the add's
    node ran just before the linear's.
    """
    w = store[name + ".w"]
    b = store[name + ".b"]
    tensor = isinstance(x, Tensor)
    xd = x.data if tensor else _constant(x)
    if xd.ndim != 2 or xd.shape[1] != w.shape[0]:
        raise ValueError(f"linear {name!r}: input shape {xd.shape} does not fit weight fan-in {w.shape[0]}")
    y = xd @ w.data + b.data
    parents = (x, w, b) if tensor else (w, b)
    if residual is not None:
        y, parents = residual.data + y, (residual, *parents)
    out = Tensor(y, parents)

    def backward(g):
        if residual is not None:
            residual.grad += g
        if tensor:
            x.grad += g @ w.data.T
        w.grad += xd.T @ g
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


def mlp(x: Tensor, store: ParamStore, prefix: str, residual: Tensor | None = None) -> Tensor:
    """The MLP under ``prefix``, ReLU between its linears and none after the last, as one node.

    The depth and the widths are read from the store: layers ``prefix.0``,
    ``prefix.1``, ... run until ``prefix.{i}.w`` is absent, and each layer's
    input width is checked.  Its value is that of the chain ``linear``,
    ReLU, ``linear``, ...; its backward runs the chain's closures in their
    tape order, last layer first, so every gradient byte matches the chain's
    too.  A ``residual`` joins the node as in ``linear``.
    """
    layers = []
    while f"{prefix}.{len(layers)}.w" in store:
        layers.append(f"{prefix}.{len(layers)}")
    if not layers:
        raise ValueError(f"mlp {prefix!r} has no layers in the store")
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
    parents = (x, *(t for pair in params for t in pair))
    if residual is not None:
        h, parents = residual.data + h, (residual, *parents)
    out = Tensor(h, parents)

    def backward(g):
        if residual is not None:
            residual.grad += g
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


def attention(q: Tensor, kv: Tensor, store: ParamStore, prefix: str, heads: int = 1,
              residual: Tensor | None = None) -> Tensor:
    """Scaled dot-product attention with learned projections.

    q is (N, C) and kv, the one input of both the key and the value
    projection, is (T, C).  Heads split the projected width; the per-head
    outputs are concatenated and passed through the output projection, which
    adds a ``residual`` as ``linear`` does.  Scale is 1/sqrt(C/heads).  Five
    tape nodes for any head count: the q, k, v and output linears and the
    head-batched core.
    """
    if kv.shape[0] == 0:
        raise ValueError("attention with an empty key set")
    dim = q.shape[-1]
    if dim % heads != 0:
        raise ValueError(f"head count {heads} does not divide width {dim}")
    qp = linear(q, store, f"{prefix}.q")
    kp = linear(kv, store, f"{prefix}.k")
    vp = linear(kv, store, f"{prefix}.v")
    merged, _ = _attention_core(qp, kp, vp, heads)
    return linear(merged, store, f"{prefix}.o", residual)


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
    near-zero gradients from amplifying finite-difference roundoff.  ``eps``
    and ``tol`` must be finite and positive, or a ``ValueError`` names them.
    """
    for name, value in (("eps", eps), ("tol", tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"grad_check {name} must be finite and > 0, got {value}")
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
