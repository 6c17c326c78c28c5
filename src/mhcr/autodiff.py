"""Minimal reverse-mode automatic differentiation over numpy arrays.

The model's training graph is a fixed composition, so a small tensor
engine is enough: each op records its parents and a closure that maps the
upstream gradient to parent gradients. Gradients accumulate by summation
during a reverse topological sweep. Each view step (UI propagation, item
propagation, each incidence and each whole hypergraph pass) and each loss
term is one `custom_op` node with a hand-derived gradient, and so is each
objective, reading its own rows of the embeddings it scores; the generic
ops below cover the projections, the readout gather, concatenation and the
view sums. A full training step records 21 nodes. Inputs that do not
require a gradient record nothing, so a forward pass over constants builds
no tape.

All data is float64. `add` takes operands of equal shape; there is no
broadcasting.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ShapeError

Array = np.ndarray


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], Sequence[Array | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad of every reachable tensor."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        # Every closure hands back a RowGrad or an array made for that parent
        # alone (see `custom_op`), so a first contribution is stored as is
        # and later ones are added into it in place.
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            for parent, grad in zip(node._parents, node._backward(node.grad)):
                if grad is None or not parent.requires_grad:
                    continue
                if isinstance(grad, RowGrad):
                    if parent.grad is None:
                        parent.grad = np.zeros(parent.shape)
                    add_rows(parent.grad, *grad)
                elif parent.grad is None:
                    parent.grad = grad
                else:
                    parent.grad += grad


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def constant(value) -> Tensor:
    return Tensor(value, requires_grad=False)


def zeros(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape))


def _node(data: Array, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def custom_op(data, parents: Sequence[Tensor], backward) -> Tensor:
    """One tape node with a hand-derived gradient: `backward(g)` maps the
    upstream gradient to one gradient (or None) per parent, in order. Each is
    a RowGrad or an array allocated for that parent alone, never `g` or a
    view of it: the tape keeps the first gradient a tensor is handed and
    adds later ones into it in place."""
    return _node(data, tuple(parents), backward)


def _equal_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _equal_shapes("add", a, b)
    data = a.data + b.data

    def backward(g):
        return tuple(g.copy() if p.requires_grad else None for p in (a, b))

    return _node(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _node(data, (a, b), backward)


class RowGrad(NamedTuple):
    """A gradient that is zero outside rows `indices`, as `add_rows` adds it."""

    indices: Array
    values: Array


def add_rows(out: Array, indices: Array, g: Array) -> None:
    """out += g scattered to rows `indices`, in place. Repeated indices are
    first summed in order, as `np.add.at` sums them into zeros, so the
    result is bit for bit `out` plus that dense scatter."""
    rows, inverse = np.unique(indices, return_inverse=True)
    if rows.size == indices.size:
        out[indices] += g
    else:
        summed = np.zeros((rows.size,) + g.shape[1:])
        np.add.at(summed, inverse, g)
        out[rows] += summed


def gather_rows(a: Tensor, indices) -> Tensor:
    indices = np.asarray(indices, dtype=np.int64)
    return _node(a.data[indices], (a,), lambda g: (RowGrad(indices, g),))


def concat_rows(parts: Iterable[Tensor]) -> Tensor:
    parts = tuple(as_tensor(p) for p in parts)
    data = np.concatenate([p.data for p in parts], axis=0)
    offsets = np.cumsum([p.shape[0] for p in parts])[:-1]

    def backward(g):
        return tuple(
            part.copy() if p.requires_grad else None
            for p, part in zip(parts, np.split(g, offsets, axis=0))
        )

    return _node(data, parts, backward)

