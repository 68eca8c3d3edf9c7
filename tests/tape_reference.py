"""Tape ops the model never records, kept as references for the fused ops.

The tests compare each fused node (``mlp``, ``layer_norm``, the attention
core, ``fuse_features``, ``sentence_embed``, ``select_queries``,
``qim_modulate``, the box decode, the loss tails and ``weighted_sum``)
against the elementwise composition it replaces, by value bytes and by
gradient.  These free functions are the ops those compositions need: each
builds its output with ``Tensor(value, parents)._taped(backward)``, so it
records on the tape and honours ``no_grad`` exactly as a model node does.
``add``, ``mul``, ``sum_``, ``mean``, ``getitem`` and ``concat`` were
``Tensor``'s generic arithmetic; an array or float operand of theirs is a
constant, as it is for a model node.
"""

import numpy as np

from egoground.autodiff import Tensor, _constant, _sigmoid, _softplus


def _unbroadcast(grad, shape):
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


def add(self: Tensor, other) -> Tensor:
    tensor = isinstance(other, Tensor)
    b = other.data if tensor else _constant(other)
    out = Tensor(self.data + b, (self, other) if tensor else (self,))

    def backward(g):
        self.grad += _unbroadcast(g, self.data.shape)
        if tensor:
            other.grad += _unbroadcast(g, other.data.shape)

    return out._taped(backward)


def mul(self: Tensor, other) -> Tensor:
    """``self * other``; float multiplication commutes, so ``c * t`` is ``mul(t, c)``."""
    tensor = isinstance(other, Tensor)
    b = other.data if tensor else _constant(other)
    out = Tensor(self.data * b, (self, other) if tensor else (self,))

    def backward(g):
        self.grad += _unbroadcast(g * b, self.data.shape)
        if tensor:
            other.grad += _unbroadcast(g * self.data, other.data.shape)

    return out._taped(backward)


def sum_(self: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        self.grad += np.broadcast_to(g, self.data.shape)

    return out._taped(backward)


def mean(self: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = self.data.size if axis is None else self.data.shape[axis]
    return mul(sum_(self, axis=axis, keepdims=keepdims), 1.0 / count)


def getitem(self: Tensor, key) -> Tensor:
    """``self[key]``; the backward scatters with ``np.add.at``, so repeated indices add up."""
    out = Tensor(self.data[key], (self,))

    def backward(g):
        np.add.at(self.grad, key, g)

    return out._taped(backward)


def concat(parts, axis: int = 0) -> Tensor:
    """Join ``parts`` along ``axis``; an array among them is a constant (``_constant``)."""
    arrays = [t.data if isinstance(t, Tensor) else _constant(t) for t in parts]
    out = Tensor(np.concatenate(arrays, axis=axis), tuple(t for t in parts if isinstance(t, Tensor)))
    offsets = np.cumsum([0] + [a.shape[axis] for a in arrays])

    def backward(g):
        for t, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if isinstance(t, Tensor):
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t.grad += g[tuple(index)]

    return out._taped(backward)


def as_tensor(value) -> Tensor:
    """``value`` as a tape operand: a ``Tensor`` as it is, anything else as a new leaf."""
    return value if isinstance(value, Tensor) else Tensor(value)


def neg(t: Tensor) -> Tensor:
    out = Tensor(-t.data, (t,))

    def backward(g):
        t.grad -= g

    return out._taped(backward)


def sub(a: Tensor, b) -> Tensor:
    b = as_tensor(b)
    out = Tensor(a.data - b.data, (a, b))

    def backward(g):
        a.grad += _unbroadcast(g, a.data.shape)
        b.grad -= _unbroadcast(g, b.data.shape)

    return out._taped(backward)


def div(a: Tensor, b) -> Tensor:
    b = as_tensor(b)
    out = Tensor(a.data / b.data, (a, b))

    def backward(g):
        a.grad += _unbroadcast(g / b.data, a.data.shape)
        b.grad += _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)

    return out._taped(backward)


def pow_(t: Tensor, exponent: float) -> Tensor:
    """``t ** exponent`` for a constant exponent."""
    p = float(exponent)
    out = Tensor(t.data ** p, (t,))

    def backward(g):
        t.grad += g * p * t.data ** (p - 1.0)

    return out._taped(backward)


def matmul(a: Tensor, b) -> Tensor:
    b = as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, (a, b))

    def backward(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    return out._taped(backward)


def relu(t: Tensor) -> Tensor:
    out = Tensor(np.maximum(t.data, 0.0), (t,))

    def backward(g):
        t.grad += g * (t.data > 0.0)

    return out._taped(backward)


def sigmoid(t: Tensor) -> Tensor:
    y = _sigmoid(t.data)
    out = Tensor(y, (t,))

    def backward(g):
        t.grad += g * y * (1.0 - y)

    return out._taped(backward)


def softplus(t: Tensor) -> Tensor:
    out = Tensor(_softplus(t.data), (t,))

    def backward(g):
        t.grad += g * _sigmoid(t.data)

    return out._taped(backward)


def abs_(t: Tensor) -> Tensor:
    out = Tensor(np.abs(t.data), (t,))

    def backward(g):
        t.grad += g * np.sign(t.data)

    return out._taped(backward)


def sqrt(t: Tensor) -> Tensor:
    y = np.sqrt(t.data)
    out = Tensor(y, (t,))

    def backward(g):
        t.grad += g * 0.5 / y

    return out._taped(backward)


def transpose(t: Tensor) -> Tensor:
    """The 2-d transpose, ``t.T``."""
    out = Tensor(t.data.transpose(), (t,))

    def backward(g):
        t.grad += g.transpose()

    return out._taped(backward)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, (t,))

    def backward(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        t.grad += (g - inner) * y

    return out._taped(backward)
