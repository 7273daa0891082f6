"""Reverse-mode gradients over the package's fixed kernel set.

``Var`` wraps an ndarray and records every operation applied to it; calling
``backward()`` on a scalar result accumulates gradients into all reachable
``Var`` leaves. Every node is built in one call, ``Var(value, inputs,
backward)``: ``inputs`` may mix ``Var`` objects and plain arrays, only the
``Var`` entries become the node's parents, and ``backward(g)`` hands the
node's gradient ``g`` on to them. The helpers at the bottom (``gelu``,
``softmax_rows``, ``layer_norm``, ``put``, ``total``) accept plain arrays or
``Var`` objects, so the encoder forward is written once and serves both the
plain fast path and the gradient path. ``gelu``, ``softmax_rows`` and
``layer_norm`` take a ``Var`` result's value from the ``numerics`` kernel,
so each forward rule is stated once. Every operation works over leading
batch axes: a matrix product acts on the last two axes, the gradient of an
operand broadcast along leading axes is summed over them, and layer norm's
gamma and beta gradients sum over all rows. ``out`` of ``gelu`` and
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

    def __init__(self, value, inputs=(), backward=None):
        self.value = np.asarray(value)
        self.grad = None
        self._parents = tuple(t for t in inputs if isinstance(t, Var))
        self._backward = backward

    def reshape(self, *shape) -> "Var":
        return Var(self.value.reshape(*shape), (self,),
                   lambda g: _accumulate(self, g.reshape(self.value.shape)))

    def swapaxes(self, a: int, b: int) -> "Var":
        return Var(self.value.swapaxes(a, b), (self,),
                   lambda g: _accumulate(self, g.swapaxes(a, b)))

    def __add__(self, other):
        ov = value_of(other)

        def backward(g):
            _accumulate(self, _sum_to(g, self.value.shape))
            _accumulate(other, _sum_to(g, np.shape(ov)))

        return Var(self.value + ov, (self, other), backward)

    def __mul__(self, other):
        ov = value_of(other)

        def backward(g):
            _accumulate(self, _sum_to(g * ov, self.value.shape))
            _accumulate(other, _sum_to(g * self.value, np.shape(ov)))

        return Var(self.value * ov, (self, other), backward)

    def __matmul__(self, other):
        ov = value_of(other)

        def backward(g):
            _accumulate(self, _sum_to(g @ ov.swapaxes(-1, -2), self.value.shape))
            _accumulate(other, _sum_to(self.value.swapaxes(-1, -2) @ g, ov.shape))

        return Var(self.value @ ov, (self, other), backward)

    def __rmatmul__(self, other):
        ov = np.asarray(other)
        return Var(ov @ self.value, (self,), lambda g: _accumulate(
            self, _sum_to(ov.swapaxes(-1, -2) @ g, self.value.shape)))

    def __getitem__(self, key):
        def backward(g):
            full = np.zeros_like(self.value)
            full[key] = g
            _accumulate(self, full)

        return Var(self.value[key], (self,), backward)

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
            stack.extend((parent, False) for parent in node._parents)
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

    def backward(g):
        t = np.tanh(GELU_C * (v + GELU_A * v**3))
        du = GELU_C * (1.0 + 3.0 * GELU_A * v * v)
        _accumulate(x, g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du))

    return Var(numerics.gelu(v), (x,), backward)


def softmax_rows(x, out=None):
    if not isinstance(x, Var):
        return numerics.softmax_rows(x, out)
    y = numerics.softmax_rows(x.value)
    return Var(y, (x,), lambda g: _accumulate(x, y * (g - (g * y).sum(axis=-1, keepdims=True))))


def layer_norm(x, gamma, beta):
    if not any(isinstance(t, Var) for t in (x, gamma, beta)):
        return numerics.layer_norm(x, gamma, beta)
    xv, gv, bv = value_of(x), value_of(gamma), value_of(beta)

    def backward(g):
        centered = xv - xv.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + LN_EPS)
        xhat = centered * inv
        rows = (-1, xv.shape[-1])
        _accumulate(gamma, (g * xhat).reshape(rows).sum(axis=0))
        _accumulate(beta, g.reshape(rows).sum(axis=0))
        if isinstance(x, Var):
            gi = g * gv
            m1 = gi.mean(axis=-1, keepdims=True)
            m2 = (gi * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, inv * (gi - m1 - xhat * m2))

    return Var(numerics.layer_norm(xv, gv, bv), (x, gamma, beta), backward)


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

    def backward(g):
        _accumulate(value, _sum_to(g[key], value_of(value).shape))
        if isinstance(x, Var):
            rest = g.copy()
            rest[key] = 0
            _accumulate(x, rest)

    return Var(result, (x, value), backward)


def total(x):
    """Sum of all entries; the scalar loss used by the gradient checks."""
    if not isinstance(x, Var):
        return float(np.sum(x))
    return Var(x.value.sum(), (x,), lambda g: _accumulate(x, g * np.ones_like(x.value)))
