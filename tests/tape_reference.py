"""Tape ops the model never records, kept as references for the fused ops.

The tests compare each fused node (``mlp``, ``layer_norm``, the attention
core, the box decode, the loss tails) against the elementwise composition it
replaces, by value bytes and by gradient.  These free functions are the ops
those compositions need beyond ``Tensor``'s own: each builds its output with
``Tensor(value, parents)._taped(backward)``, so it records on the tape and
honours ``no_grad`` exactly as a ``Tensor`` method does.
"""

import numpy as np

from egoground.autodiff import Tensor, _sigmoid, _softplus, _unbroadcast


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
