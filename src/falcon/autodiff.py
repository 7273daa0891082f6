"""Reverse-mode gradients over the package's fixed kernel set.

``Var`` wraps an ndarray and records every operation applied to it; calling
``backward()`` on a scalar result accumulates gradients into all reachable
``Var`` leaves. The helpers at the bottom (``gelu``, ``softmax_rows``,
``layer_norm``, ``put``, ``total``) accept plain arrays or ``Var`` objects,
so the encoder forward is written once and serves both the plain fast path
and the gradient path. Every operation works over leading batch axes: a
matrix product acts on the last two axes, the gradient of an operand
broadcast along leading axes is summed over them, and layer norm's gamma
and beta gradients sum over all rows. ``out`` of ``gelu`` and
``softmax_rows``, and the slot that ``put`` writes, are written on the plain
path only; a ``Var`` result is always new, just as ``a *= b`` rebinds a
``Var``, which has no in-place operators. Analytic gradients are validated
against central finite differences by the verification suite.
"""

from __future__ import annotations

import numpy as np

from . import numerics
from .numerics import GELU_A, GELU_C, LN_EPS


def _accumulate(v, g):
    if isinstance(v, Var):
        v.grad = g if v.grad is None else v.grad + g


def _sum_to(g, shape):
    """``g`` summed over the leading axes that broadcasting added to an
    operand of ``shape``."""
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra))) if extra else g


class Var:
    """An ndarray plus the tape edge that produced it."""

    # Keep numpy from absorbing Var into object arrays; ``ndarray @ Var``
    # then falls through to ``__rmatmul__``, the one reflected operator.
    __array_ufunc__ = None
    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def reshape(self, *shape) -> "Var":
        out = Var(self.value.reshape(*shape), (self,))
        out._backward = lambda g: _accumulate(self, g.reshape(self.value.shape))
        return out

    def swapaxes(self, a: int, b: int) -> "Var":
        out = Var(self.value.swapaxes(a, b), (self,))
        out._backward = lambda g: _accumulate(self, g.swapaxes(a, b))
        return out

    def __add__(self, other):
        ov = value_of(other)
        parents = (self, other) if isinstance(other, Var) else (self,)
        out = Var(self.value + ov, parents)

        def backward(g):
            _accumulate(self, g)
            _accumulate(other, g)

        out._backward = backward
        return out

    def __mul__(self, other):
        ov = value_of(other)
        parents = (self, other) if isinstance(other, Var) else (self,)
        out = Var(self.value * ov, parents)

        def backward(g):
            _accumulate(self, g * ov)
            _accumulate(other, g * self.value)

        out._backward = backward
        return out

    def __matmul__(self, other):
        ov = value_of(other)
        parents = (self, other) if isinstance(other, Var) else (self,)
        out = Var(self.value @ ov, parents)

        def backward(g):
            _accumulate(self, _sum_to(g @ ov.swapaxes(-1, -2), self.value.shape))
            _accumulate(other, _sum_to(self.value.swapaxes(-1, -2) @ g, ov.shape))

        out._backward = backward
        return out

    def __rmatmul__(self, other):
        ov = np.asarray(other)
        out = Var(ov @ self.value, (self,))
        out._backward = lambda g: _accumulate(
            self, _sum_to(ov.swapaxes(-1, -2) @ g, self.value.shape)
        )
        return out

    def __getitem__(self, key):
        out = Var(self.value[key], (self,))

        def backward(g):
            full = np.zeros_like(self.value)
            full[key] = g
            _accumulate(self, full)

        out._backward = backward
        return out

    def backward(self):
        """Seed with ones and propagate through the tape in reverse topo order."""
        order: list[Var] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if isinstance(parent, Var):
                    stack.append((parent, False))
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def value_of(x):
    return x.value if isinstance(x, Var) else x


def gelu(x, out=None):
    if not isinstance(x, Var):
        return numerics.gelu(x, out)
    v = x.value
    out = Var(numerics.gelu(v), (x,))

    def backward(g):
        t = np.tanh(GELU_C * (v + GELU_A * v**3))
        du = GELU_C * (1.0 + 3.0 * GELU_A * v * v)
        _accumulate(x, g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du))

    out._backward = backward
    return out


def softmax_rows(x, out=None):
    if not isinstance(x, Var):
        return numerics.softmax_rows(x, out)
    y = numerics.softmax_rows(x.value)
    out = Var(y, (x,))

    def backward(g):
        _accumulate(x, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    out._backward = backward
    return out


def layer_norm(x, gamma, beta):
    if not any(isinstance(t, Var) for t in (x, gamma, beta)):
        return numerics.layer_norm(x, gamma, beta)
    xv, gv, bv = value_of(x), value_of(gamma), value_of(beta)
    mu = xv.mean(axis=-1, keepdims=True)
    centered = xv - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    parents = tuple(t for t in (x, gamma, beta) if isinstance(t, Var))
    out = Var(xhat * gv + bv, parents)

    def backward(g):
        rows = (-1, xv.shape[-1])
        _accumulate(gamma, (g * xhat).reshape(rows).sum(axis=0))
        _accumulate(beta, g.reshape(rows).sum(axis=0))
        if isinstance(x, Var):
            gi = g * gv
            m1 = gi.mean(axis=-1, keepdims=True)
            m2 = (gi * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, inv * (gi - m1 - xhat * m2))

    out._backward = backward
    return out


def put(x, key, value):
    """``x`` with ``x[key]`` replaced by ``value``, broadcast to the slot.

    A plain ``x`` is written in place and returned. With a ``Var`` in play
    the result is a new ``Var``: the slot's gradient goes to ``value`` and
    the rest to ``x``.
    """
    if not isinstance(x, Var) and not isinstance(value, Var):
        x[key] = value
        return x
    result = value_of(x).copy()
    result[key] = value_of(value)
    out = Var(result, tuple(t for t in (x, value) if isinstance(t, Var)))

    def backward(g):
        _accumulate(value, _sum_to(g[key], value_of(value).shape))
        if isinstance(x, Var):
            rest = g.copy()
            rest[key] = 0
            _accumulate(x, rest)

    out._backward = backward
    return out


def total(x):
    """Sum of all entries; the scalar loss used by the gradient checks."""
    if not isinstance(x, Var):
        return float(np.sum(x))
    out = Var(np.asarray(x.value.sum()), (x,))
    out._backward = lambda g: _accumulate(x, g * np.ones_like(x.value))
    return out
