"""Reverse-mode automatic differentiation on a dynamically built operation tape.

Values are float64 numpy arrays. The last axis is the vector axis; any leading
axes are treated as independent batch axes (a batch of Monte Carlo chains can
share one tape). A scalar is an array of shape ``()`` or, batched, ``(B,)``.

Gradients are first-order only: every quantity whose derivative is needed must
be expressed in tape operations (in particular, scores of log-densities are
built analytically rather than by nesting backward passes). Composites such as
`Tape.gaussian_logpdf` are single nodes with hand-written VJPs: their forward
value repeats the numpy operations of the primal chain they replace, in the
same order, so values match it bit for bit while the tape holds one node.
`Tape.gaussian_logpdf` takes a shared scalar or a (D,) diagonal variance, and
is every Gaussian density: q's, the momentum kernels' and the logistic prior.
There is no `log` operation: every logarithm sits inside a fused node.
The chain's own fused nodes are `Tape.muladd` (a * x + y), `Tape.mulsub`
(a * x - y), `Tape.lerp` ((1 - w) x + w y) and `MeanFieldGaussian.score`.
`Tape.push` records such a node from any module; the array kernels
`sigmoid` and `softplus` serve both the tape operations of those names and
fused nodes.
The sigmoid has no select between its two branches: it divides exp(min(x, 0))
by 1 + exp(-|x|), which gives the same float as either branch.

A tape node is an operation or a trainable parameter (a leaf lifted with
`trainable=True`, listed in `Tape.params`), so `len(tape.nodes)` counts
operations and parameters. Every other value is a constant: a `Var` with no
tape, no index and no slot, which `lift` makes of any value that is not
trainable, including a number or array passed to an operation.

The tape records only what backward can use. A node needs a gradient when it
is a parameter or some parent needs one (`Var.needs_grad`); only such a node
keeps its parents and VJP. Any other operation still takes its index slot,
so indices stay unique, but the slot holds one shared placeholder with no
value, parents or VJP; the value lives only in the caller's `Var`, so numpy
frees it once the caller drops it. Backward skips placeholders and sends no
adjoint into a parent that needs none. A tape with no parameter (pure
evaluation) therefore holds no node value at all.

A `Var` holds a weak reference to its tape (one `weakref.ref` per tape,
shared by its nodes), so tape -> nodes -> tape is no reference cycle, and
reference counting frees a tape with every array it holds as soon as the
last strong reference to the tape goes. `Var.tape` raises `RuntimeError`
once the tape has been freed, and on a constant, which has none.

No VJP writes into an array in place, neither an adjoint it is given nor
one it returns. So `backward` stores a parent's first adjoint as it comes,
even when it aliases the child's adjoint or another parent's, and adds
later ones into a new array; it copies each parameter's adjoint once when
it returns, so the caller gets writable arrays that share no memory.
"""

from __future__ import annotations

import math
import weakref
from typing import Sequence

import numpy as np

__all__ = ["Tape", "Var", "DomainError", "sigmoid", "softplus"]


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""

    def __init__(self, opcode: str, detail: str):
        self.opcode = opcode
        super().__init__(f"{opcode}: {detail}")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Var:
    """Handle to a node on a tape, or a constant (no tape and index None).

    `needs_grad` is true when the node is trainable or descends from a
    trainable node; only such nodes are recorded in full (see `Tape.push`).
    """

    __slots__ = ("_tape", "index", "value", "parents", "vjp", "name",
                 "needs_grad")

    def __init__(self, tape_ref, index, value, parents=(), vjp=None,
                 name=None, needs_grad=False):
        self._tape = tape_ref
        self.index = index
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.name = name
        self.needs_grad = needs_grad

    @property
    def tape(self) -> "Tape":
        if self._tape is None:
            raise RuntimeError("a constant Var belongs to no tape")
        tape = self._tape()
        if tape is None:
            raise RuntimeError(f"the tape of Var #{self.index} has been freed; "
                               "keep a reference to the tape while its "
                               "Vars are in use")
        return tape

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        if self.value is None:
            return "Var(untracked)"
        return f"Var(#{self.index}, shape={self.value.shape})"


class Tape:
    """Append-only record of operations.

    The tape is rebuilt for every loss evaluation (dynamic graph). `backward`
    reads the tape without changing it, so a second sweep from the same loss
    returns the same adjoints. A tape is single-threaded; independent tapes
    may be evaluated concurrently.
    """

    def __init__(self):
        self.nodes: list[Var] = []
        self.params: list[Var] = []
        self._ref = weakref.ref(self)

    # ------------------------------------------------------------------ leaves

    def lift(self, value, trainable: bool = False, name: str | None = None) -> Var:
        """A finite value as a constant (no slot), or, when trainable, as a
        parameter: a node listed in `params`, whose adjoint `backward` returns
        under `name`, which it must have."""
        arr = np.asarray(value, dtype=np.float64)
        if not (math.isfinite(value) if isinstance(value, (int, float))
                else np.isfinite(arr).all()):
            raise DomainError("lift", f"non-finite input {arr!r}")
        if not trainable:
            return Var(None, None, arr)
        if name is None:
            raise ValueError("a trainable lift needs a name")
        var = Var(self._ref, len(self.nodes), arr, name=name, needs_grad=True)
        self.nodes.append(var)
        self.params.append(var)
        return var

    def push(self, value, parents, vjp) -> Var:
        """Record an operation: its value, its parent Vars and its VJP.

        `vjp(adj)` maps the adjoint of `value` to one adjoint per parent, in
        the order of `parents`; it may give None for a parent that needs no
        gradient. Tape methods and fused nodes defined outside this module
        (such as the logistic-regression target's) are all recorded here.

        An operation none of whose parents needs a gradient is not recorded:
        its slot gets the shared placeholder, and the returned Var carries
        the value but neither the parents nor the VJP.
        """
        index = len(self.nodes)
        for parent in parents:
            if parent.needs_grad:
                break
        else:
            self.nodes.append(_UNTRACKED)
            return Var(self._ref, index, value)
        var = Var(self._ref, index, value, parents, vjp, needs_grad=True)
        self.nodes.append(var)
        return var

    def _coerce(self, x) -> Var:
        return x if isinstance(x, Var) else self.lift(x)

    # ------------------------------------------------------------ arithmetic

    def add(self, a, b) -> Var:
        a, b = self._coerce(a), self._coerce(b)
        value = a.value + b.value

        def vjp(adj):
            return (_unbroadcast(adj, a.shape) if a.needs_grad else None,
                    _unbroadcast(adj, b.shape) if b.needs_grad else None)

        return self.push(value, (a, b), vjp)

    def sub(self, a, b) -> Var:
        a, b = self._coerce(a), self._coerce(b)
        value = a.value - b.value

        def vjp(adj):
            return (_unbroadcast(adj, a.shape) if a.needs_grad else None,
                    _unbroadcast(-adj, b.shape) if b.needs_grad else None)

        return self.push(value, (a, b), vjp)

    def mul(self, a, b) -> Var:
        a, b = self._coerce(a), self._coerce(b)
        value = a.value * b.value

        def vjp(adj):
            return (_unbroadcast(adj * b.value, a.shape) if a.needs_grad
                    else None,
                    _unbroadcast(adj * a.value, b.shape) if b.needs_grad
                    else None)

        return self.push(value, (a, b), vjp)

    def muladd(self, a, x, y) -> Var:
        """a * x + y as one node: the value of `add(mul(a, x), y)`."""
        a, x, y = self._coerce(a), self._coerce(x), self._coerce(y)
        value = a.value * x.value + y.value

        def vjp(adj):
            return (_unbroadcast(adj * x.value, a.shape) if a.needs_grad
                    else None,
                    _unbroadcast(adj * a.value, x.shape) if x.needs_grad
                    else None,
                    _unbroadcast(adj, y.shape) if y.needs_grad else None)

        return self.push(value, (a, x, y), vjp)

    def mulsub(self, a, x, y) -> Var:
        """a * x - y as one node: the value of `sub(mul(a, x), y)`."""
        a, x, y = self._coerce(a), self._coerce(x), self._coerce(y)
        value = a.value * x.value - y.value

        def vjp(adj):
            return (_unbroadcast(adj * x.value, a.shape) if a.needs_grad
                    else None,
                    _unbroadcast(adj * a.value, x.shape) if x.needs_grad
                    else None,
                    _unbroadcast(-adj, y.shape) if y.needs_grad else None)

        return self.push(value, (a, x, y), vjp)

    def lerp(self, w, x, y) -> Var:
        """(1 - w) x + w y as one node: the value of
        `add(mul(sub(1.0, w), x), mul(w, y))`."""
        w, x, y = self._coerce(w), self._coerce(x), self._coerce(y)
        keep = 1.0 - w.value
        value = keep * x.value + w.value * y.value

        def vjp(adj):
            return (_unbroadcast(adj * (y.value - x.value), w.shape)
                    if w.needs_grad else None,
                    _unbroadcast(adj * keep, x.shape) if x.needs_grad
                    else None,
                    _unbroadcast(adj * w.value, y.shape) if y.needs_grad
                    else None)

        return self.push(value, (w, x, y), vjp)

    def div(self, a, b) -> Var:
        a, b = self._coerce(a), self._coerce(b)
        if (b.value == 0.0).any():
            raise DomainError("div", "division by zero")
        value = a.value / b.value

        def vjp(adj):
            return (_unbroadcast(adj / b.value, a.shape),
                    _unbroadcast(-adj * value / b.value, b.shape))

        return self.push(value, (a, b), vjp)

    def neg(self, a) -> Var:
        a = self._coerce(a)
        return self.push(-a.value, (a,), lambda adj: (-adj,))

    # ------------------------------------------------------------- elementwise

    def exp(self, a) -> Var:
        a = self._coerce(a)
        value = np.exp(a.value)
        return self.push(value, (a,), lambda adj: (adj * value,))

    def tanh(self, a) -> Var:
        a = self._coerce(a)
        value = np.tanh(a.value)
        return self.push(value, (a,), lambda adj: (adj * (1.0 - value * value),))

    def softplus(self, a) -> Var:
        a = self._coerce(a)
        x = a.value
        return self.push(softplus(x), (a,), lambda adj: (adj * sigmoid(x),))

    def sigmoid(self, a) -> Var:
        a = self._coerce(a)
        value = sigmoid(a.value)
        return self.push(value, (a,), lambda adj: (adj * value * (1.0 - value),))

    def square(self, a) -> Var:
        a = self._coerce(a)
        return self.push(a.value * a.value, (a,),
                         lambda adj: (2.0 * adj * a.value,))

    def sqrt(self, a) -> Var:
        a = self._coerce(a)
        if (a.value <= 0.0).any():
            raise DomainError("sqrt", f"non-positive input (min {a.value.min()})")
        value = np.sqrt(a.value)
        return self.push(value, (a,), lambda adj: (adj / (2.0 * value),))

    # ------------------------------------------------------------- reductions

    def sum(self, a) -> Var:
        """Sum over the vector (last) axis."""
        a = self._coerce(a)
        if a.value.ndim == 0:
            raise DomainError("sum", "scalar has no vector axis")
        value = a.value.sum(axis=-1)

        def vjp(adj):
            return (np.broadcast_to(adj[..., None], a.shape).copy(),)

        return self.push(value, (a,), vjp)

    def mean_all(self, a) -> Var:
        """Mean over every axis, producing a true scalar (used for batch losses)."""
        a = self._coerce(a)
        n = a.value.size
        value = np.asarray(a.value.mean())

        def vjp(adj):
            return (np.broadcast_to(adj / n, a.shape).copy(),)

        return self.push(value, (a,), vjp)

    # ----------------------------------------------------------- linear maps

    def affine(self, x, matrix) -> Var:
        """Constant linear map: x @ matrix.T, with `matrix` fixed."""
        x = self._coerce(x)
        matrix = np.asarray(matrix, dtype=np.float64)
        value = x.value @ matrix.T

        def vjp(adj):
            return (adj @ matrix,)

        return self.push(value, (x,), vjp)

    def linear(self, x, weight: Var, bias: Var) -> Var:
        """Trainable linear layer: x @ W.T + b, with W and b on the tape."""
        x = self._coerce(x)
        value = x.value @ weight.value.T + bias.value

        def vjp(adj):
            a2 = adj.reshape(-1, adj.shape[-1])
            x2 = x.value.reshape(-1, x.value.shape[-1])
            return (adj @ weight.value, a2.T @ x2,
                    _unbroadcast(adj, bias.shape))

        return self.push(value, (x, weight, bias), vjp)

    # ------------------------------------------------------- shape utilities

    def concat(self, parts: Sequence) -> Var:
        """Concatenate along the vector (last) axis."""
        parts = [self._coerce(p) for p in parts]
        value = np.concatenate([p.value for p in parts], axis=-1)
        sizes = [p.value.shape[-1] for p in parts]
        offsets = np.cumsum([0] + sizes)

        def vjp(adj):
            return tuple(adj[..., offsets[i]:offsets[i + 1]]
                         for i in range(len(parts)))

        return self.push(value, tuple(parts), vjp)

    def narrow(self, a, start: int, stop: int) -> Var:
        """Slice [start:stop] of the vector (last) axis."""
        a = self._coerce(a)
        value = a.value[..., start:stop]

        def vjp(adj):
            g = np.zeros(a.shape)
            g[..., start:stop] = adj
            return (g,)

        return self.push(value, (a,), vjp)

    # --------------------------------------------------------------- composite

    def gaussian_logpdf(self, x, mean, var) -> Var:
        """Diagonal-Gaussian log-density, summed over the vector axis.

        `var` is positive: one variance shared by every component (a python
        float or a scalar Var), or a (D,) diagonal with one per component.
        Returns sum_d [-0.5 log(2 pi var_d) - (x_d - mean_d)^2 / (2 var_d)]
        as one node whose VJP gives the adjoints of `x`, `mean` and `var`,
        each only when that operand needs one.
        """
        x, mean, var = self._coerce(x), self._coerce(mean), self._coerce(var)
        xv, mv, vv = x.value, mean.value, var.value
        d = xv.shape[-1]
        if vv.shape not in ((), (d,)) or (vv <= 0.0).any():
            raise DomainError("gaussian_logpdf", "variance must be positive "
                              f"and of shape () or ({d},), got {vv!r}")
        diff = xv - mv
        quad, half_d = diff * diff, 0.5
        if not vv.ndim:
            quad, half_d = quad.sum(axis=-1), 0.5 * d
        two_var = 2.0 * vv
        value = -(half_d * np.log((2.0 * np.pi) * vv) + quad / two_var)
        if vv.ndim:
            value = value.sum(axis=-1)

        def vjp(adj):
            # d/dx = -(x - mean) / var; d/dvar = quad / (2 var^2) - half_d / var
            r = (adj[..., None] / vv) * diff
            adj_var = adj[..., None] if vv.ndim else adj
            return (
                _unbroadcast(-r, xv.shape) if x.needs_grad else None,
                _unbroadcast(r, mv.shape) if mean.needs_grad else None,
                _unbroadcast(adj_var * (quad / (two_var * vv) - half_d / vv),
                             vv.shape) if var.needs_grad else None)

        return self.push(value, (x, mean, var), vjp)

    # ---------------------------------------------------------------- backward

    def backward(self, loss: Var) -> dict[str, np.ndarray]:
        """Reverse sweep from a scalar loss; returns adjoints per parameter,
        keyed by its lift name. The sweep leaves the tape unchanged, so it
        may be repeated.
        """
        if loss.index is None:
            raise ValueError("loss is a constant; it depends on no parameter")
        if loss.tape is not self:
            raise ValueError("loss lives on a different tape")
        if loss.value.ndim != 0:
            raise DomainError("backward",
                              f"loss must be scalar, got shape {loss.value.shape}")

        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        grads[loss.index] = np.ones(())
        for node in reversed(self.nodes[: loss.index + 1]):
            if node.vjp is None:    # a leaf or an untracked placeholder
                continue
            adj = grads[node.index]
            if adj is None:
                continue
            for parent, g in zip(node.parents, node.vjp(adj)):
                if not parent.needs_grad:
                    continue
                # no VJP writes in place (see the module docstring), so a
                # first adjoint is stored uncopied
                if grads[parent.index] is None:
                    grads[parent.index] = g
                else:
                    grads[parent.index] = grads[parent.index] + g

        return {p.name: np.zeros(p.shape) if grads[p.index] is None
                else np.array(grads[p.index], dtype=np.float64)
                for p in self.params}


# Holds the slot of every operation that is not recorded (see `Tape.push`).
# It has no tape, index, value or shape; its repr is "Var(untracked)".
_UNTRACKED = Var(None, None, None)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None,
            scratch: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of an array, as exp(min(x, 0)) / (1 + exp(-|x|)).

    Neither exponent is positive, so nothing overflows, and the quotient is
    the same float as 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x))
    for x < 0, with no select. Working in two buffers matters more than the
    arithmetic: on (256, 351) logits each fresh temporary is a large
    allocation whose pages cost more to touch than the exp itself. The
    result goes to `out` and the denominator to `scratch`, each a fresh
    array when not given; both must have x's shape, and `out` may be `x`
    itself (the denominator is taken from x first). A 0-d input gives a
    0-d array.
    """
    num = np.empty_like(x) if out is None else out
    den = np.empty_like(x) if scratch is None else scratch
    np.exp(np.negative(np.abs(x, out=den), out=den), out=den)
    den += 1.0
    np.exp(np.minimum(x, 0.0, out=num), out=num)
    num /= den
    return num


def softplus(x: np.ndarray, out: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> np.ndarray:
    """log(1 + exp(x)) of an array, as max(x, 0) + log1p(exp(-|x|)).

    Stable for large |x|. Like `sigmoid` it works in two buffers, `out` and
    `scratch` (fresh when not given, shaped like x); `out` may be `x`.
    """
    out = np.empty_like(x) if out is None else out
    buf = np.empty_like(x) if scratch is None else scratch
    np.log1p(np.exp(np.negative(np.abs(x, out=buf), out=buf), out=buf), out=buf)
    np.maximum(x, 0.0, out=out)
    out += buf
    return out
