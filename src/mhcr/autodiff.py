"""Minimal reverse-mode automatic differentiation over numpy arrays.

The model's training graph is a fixed composition, so a small tensor
engine is enough: each op records its parents and a closure that maps the
upstream gradient to parent gradients. Gradients accumulate by summation
during a reverse topological sweep. Every node on a training tape is a
model node with a hand-derived gradient (`custom_op`): each view step (UI
propagation, item propagation and each modality's whole hypergraph pass,
each projecting the modality features itself) and each objective, reading
its own rows of the embeddings it scores; the view sums are `add` nodes.
A full training step (three modalities) records 13 nodes. Inputs that do
not require a gradient record nothing, so a forward pass over constants
builds no tape.

Data keeps its floating type: a Tensor holds float32 or float64 as it is
given, and anything else as float64. Every op allocates its output and
its gradients in its inputs' type, and a gradient is accumulated in the
type of the tensor it belongs to: the losses compute in float64, and the
row gradients they hand a float32 tensor are rounded as they are added
into its float32 gradient. `add` takes operands of equal shape; there is
no broadcasting.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ShapeError

Array = np.ndarray
_FLOAT_TYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOAT_TYPES else data.astype(np.float64)
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
                        parent.grad = np.zeros(parent.shape, dtype=parent.data.dtype)
                    add_rows(parent.grad, *grad)
                elif parent.grad is None:
                    parent.grad = grad
                else:
                    parent.grad += grad


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def constant(value) -> Tensor:
    return Tensor(value, requires_grad=False)


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


def add(*terms) -> Tensor:
    """The sum of equal-shape terms, left to right, as one node that hands
    each term a copy of the upstream gradient; a single term is returned
    as it is."""
    terms = tuple(as_tensor(t) for t in terms)
    if len(terms) == 1:
        return terms[0]
    for t in terms[1:]:
        if t.shape != terms[0].shape:
            raise ShapeError(f"add shape mismatch: {terms[0].shape} vs {t.shape}")
    data = terms[0].data + terms[1].data
    for t in terms[2:]:
        data += t.data

    def backward(g):
        return tuple(g.copy() if t.requires_grad else None for t in terms)

    return _node(data, terms, backward)


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
        summed = np.zeros((rows.size,) + g.shape[1:], dtype=g.dtype)
        np.add.at(summed, inverse, g)
        out[rows] += summed
