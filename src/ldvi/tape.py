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
`Tape.push` records such a node from any module; the array kernels `sigmoid`
and `softplus` serve both the tape operations of those names and fused nodes.
The sigmoid has no select between its two branches: it divides exp(min(x, 0))
by 1 + exp(-|x|), which gives the same float as either branch.

The tape records only what backward can use. A node needs a gradient when it
is a trainable leaf or when some parent needs one (`Var.needs_grad`); only
such a node keeps its parents and its VJP on the tape. Any other node, such
as a constant or an operation on constants only, still takes its index slot,
so indices stay unique and `len(tape.nodes)` counts every operation, but the
slot holds one shared placeholder with no value, parents or VJP. Its value
lives only in the `Var` handed to the caller, so numpy frees it as soon as
the caller drops that `Var`. Backward skips placeholders and sends no adjoint
into a parent that needs none. A tape lifted with no trainable leaf (pure
evaluation) therefore holds no node value at all.

A `Var` holds a weak reference to its tape (one `weakref.ref` per tape,
shared by its nodes), so tape -> nodes -> tape is no reference cycle, and
reference counting frees a tape with every array it holds as soon as the
last strong reference to the tape goes. `Var.tape` raises `RuntimeError`
once the tape has been freed.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tape", "Var", "DomainError", "sigmoid", "softplus"]


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""

    def __init__(self, opcode: str, detail: str):
        self.opcode = opcode
        super().__init__(f"{opcode}: {detail}")


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Var:
    """Handle to a node on a tape.

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
        """Bring a constant or trainable value onto the tape."""
        arr = _as_array(value)
        if not np.all(np.isfinite(arr)):
            raise DomainError("lift", f"non-finite input {arr!r}")
        var = self.push(arr, (), None, trainable=trainable, name=name)
        if trainable:
            self.params.append(var)
        return var

    def constant(self, value) -> Var:
        return self.lift(value, trainable=False)

    def push(self, value, parents, vjp, trainable=False, name=None) -> Var:
        """Record a node: its value, its parent Vars and its VJP.

        `vjp(adj)` maps the adjoint of `value` to one adjoint per parent, in
        the order of `parents`; a leaf has no parents and `vjp=None`. Tape
        methods and fused nodes defined outside this module (such as the
        logistic-regression target's) are all recorded through here.

        A node that is not trainable and has no parent needing a gradient is
        not recorded: its slot gets the shared placeholder, and the returned
        Var carries the value but neither the parents nor the VJP.
        """
        index = len(self.nodes)
        if not trainable:
            for parent in parents:
                if parent.needs_grad:
                    break
            else:
                self.nodes.append(_UNTRACKED)
                return Var(self._ref, index, value, name=name)
        var = Var(self._ref, index, value, parents, vjp, name, True)
        self.nodes.append(var)
        return var

    def _coerce(self, x) -> Var:
        if isinstance(x, Var):
            return x
        if isinstance(x, (int, float)):
            if not math.isfinite(x):
                raise DomainError("lift", f"non-finite input {x!r}")
            return self.push(np.asarray(x, dtype=np.float64), (), None)
        return self.constant(x)

    # ------------------------------------------------------------ arithmetic

    def add(self, a, b) -> Var:
        a, b = self._coerce(a), self._coerce(b)
        value = a.value + b.value

        def vjp(adj):
            return _unbroadcast(adj, a.shape), _unbroadcast(adj, b.shape)

        return self.push(value, (a, b), vjp)

    def sub(self, a, b) -> Var:
        a, b = self._coerce(a), self._coerce(b)
        value = a.value - b.value

        def vjp(adj):
            return _unbroadcast(adj, a.shape), _unbroadcast(-adj, b.shape)

        return self.push(value, (a, b), vjp)

    def mul(self, a, b) -> Var:
        a, b = self._coerce(a), self._coerce(b)
        value = a.value * b.value

        def vjp(adj):
            return (_unbroadcast(adj * b.value, a.shape),
                    _unbroadcast(adj * a.value, b.shape))

        return self.push(value, (a, b), vjp)

    def div(self, a, b) -> Var:
        a, b = self._coerce(a), self._coerce(b)
        if np.any(b.value == 0.0):
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

    def log(self, a) -> Var:
        a = self._coerce(a)
        if np.any(a.value <= 0.0):
            raise DomainError("log", f"non-positive input (min {a.value.min()})")
        return self.push(np.log(a.value), (a,), lambda adj: (adj / a.value,))

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
        if np.any(a.value <= 0.0):
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
        matrix = _as_array(matrix)
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

    def index(self, a, i: int) -> Var:
        """Select element i of the vector axis, dropping the axis."""
        a = self._coerce(a)
        value = a.value[..., i]

        def vjp(adj):
            g = np.zeros(a.shape)
            g[..., i] = adj
            return (g,)

        return self.push(value, (a,), vjp)

    # --------------------------------------------------------------- composite

    def gaussian_logpdf(self, x, mean, var) -> Var:
        """Diagonal-Gaussian log-density, summed over the vector axis.

        `var` is a shared positive variance: a python float or a scalar Var.
        Returns sum_d [-0.5 log(2 pi var) - (x_d - mean_d)^2 / (2 var)] as one
        node whose VJP gives the adjoints of `x`, `mean` and `var`. Operands
        that are not Vars are constants and push no node of their own.
        """
        xv, mv, vv = (_operand_value(a) for a in (x, mean, var))
        if np.any(vv <= 0.0):
            raise DomainError("gaussian_logpdf",
                              f"non-positive variance {vv!r}")
        d = xv.shape[-1]
        diff = xv - mv
        quad = (diff * diff).sum(axis=-1)
        two_var = 2.0 * vv
        value = -((0.5 * d) * np.log((2.0 * np.pi) * vv) + quad / two_var)
        parents = tuple(a for a in (x, mean, var) if isinstance(a, Var))

        def vjp(adj):
            # d/dx = -(x - mean) / var; d/dvar = quad / (2 var^2) - d / (2 var)
            r = (adj / vv)[..., None] * diff
            grads = []
            if isinstance(x, Var):
                grads.append(_unbroadcast(-r, xv.shape))
            if isinstance(mean, Var):
                grads.append(_unbroadcast(r, mv.shape))
            if isinstance(var, Var):
                grads.append(_unbroadcast(
                    adj * (quad / (two_var * vv) - (0.5 * d) / vv), vv.shape))
            return grads

        return self.push(value, parents, vjp)

    # ---------------------------------------------------------------- backward

    def backward(self, loss: Var) -> dict[str, np.ndarray]:
        """Reverse sweep from a scalar loss; returns adjoints per parameter slot.

        Parameter slots are keyed by their lift name (or ``param{i}`` when
        unnamed). The sweep leaves the tape unchanged, so it may be repeated.
        """
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
                if grads[parent.index] is None:
                    grads[parent.index] = np.asarray(g, dtype=np.float64).copy()
                else:
                    grads[parent.index] = grads[parent.index] + g

        out: dict[str, np.ndarray] = {}
        for i, p in enumerate(self.params):
            key = p.name if p.name is not None else f"param{i}"
            g = grads[p.index]
            out[key] = np.zeros(p.shape) if g is None else np.asarray(g)
        return out


# Holds the slot of every node that is not recorded (see `Tape.push`). It has
# no index, value or shape; its repr is "Var(untracked)".
_UNTRACKED = Var(lambda: None, None, None)


def _operand_value(a) -> np.ndarray:
    """Value of a Var, or a finite constant lifted without a tape node."""
    if isinstance(a, Var):
        return a.value
    arr = _as_array(a)
    if not np.all(np.isfinite(arr)):
        raise DomainError("lift", f"non-finite input {arr!r}")
    return arr


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array, as exp(min(x, 0)) / (1 + exp(-|x|)).

    Neither exponent is positive, so nothing overflows, and the quotient is
    the same float as 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x))
    for x < 0, with no select. Working in two preallocated buffers matters
    more than the arithmetic: on (256, 351) logits each fresh temporary is a
    large allocation whose pages cost more to touch than the exp itself.
    A 0-d input gives a 0-d array.
    """
    num = np.empty_like(x)
    den = np.empty_like(x)
    np.exp(np.minimum(x, 0.0, out=num), out=num)
    np.exp(np.negative(np.abs(x, out=den), out=den), out=den)
    den += 1.0
    num /= den
    return num


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) of an array, as max(x, 0) + log1p(exp(-|x|)).

    Stable for large |x|; works in two buffers like `sigmoid`.
    """
    out = np.empty_like(x)
    buf = np.empty_like(x)
    np.log1p(np.exp(np.negative(np.abs(x, out=buf), out=buf), out=buf), out=buf)
    np.maximum(x, 0.0, out=out)
    out += buf
    return out
