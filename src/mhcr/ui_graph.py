"""Symmetrically normalized user-item bipartite graph and its linear
propagation with layer-sum readout, one tape node with a closed-form
gradient."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .dataio import TRAIN, InteractionDataset
from .errors import DataError, ShapeError


def build_norm_adjacency(ds: InteractionDataset) -> sp.csr_matrix:
    """(|U|+|I|)-node adjacency with edge weight 1/sqrt(deg(u) * deg(i)).

    Users occupy node rows [0, |U|), items [|U|, |U|+|I|). Only train
    interactions contribute edges, read from `ds.user_csr(TRAIN)`, whose
    row and column counts are the degrees; isolated nodes keep zero rows.
    The result is symmetric with sorted indices.
    """
    x = ds.user_csr(TRAIN)
    if x.nnz == 0:
        raise DataError("cannot build bipartite graph: no train interactions")
    deg_u = np.diff(x.indptr)
    deg_i = np.bincount(x.indices, minlength=ds.num_items)
    x.data = 1.0 / np.sqrt(np.repeat(deg_u, deg_u) * deg_i[x.indices])
    return sp.bmat([[None, x], [x.T, None]], format="csr")


def propagate_ui(adjacency: sp.csr_matrix, e0, layers: int, rows: np.ndarray) -> ad.Tensor:
    """Sum of embeddings over layers 0..L, where layer l is A_norm^l @ e0.

    Pure linear propagation: no nonlinearity and no per-layer parameters.
    `rows` (node ids) selects the output rows: layers 1..L-1 run over the
    whole graph, layer L is A_norm[rows] @ layer L-1, and the readout adds
    only the selected rows, in the same order.

    One tape node with the transposed chain as its gradient: the upstream
    gradient g enters layer L-1 through A_norm[rows]^T and every layer
    through the readout at `rows`, and each layer passes its total on to the
    one below through A_norm^T, which is A_norm itself: the matrix of
    `build_norm_adjacency` is symmetric with sorted indices, so the product
    sums each row in the order of the transposed one.
    """
    e0 = ad.as_tensor(e0)
    if e0.ndim != 2 or e0.shape[0] != adjacency.shape[0]:
        raise ShapeError(
            f"embedding rows {e0.shape} do not match {adjacency.shape[0]} graph nodes"
        )
    if layers == 0:
        return ad.custom_op(e0.data[rows], (e0,), lambda g: (ad.RowGrad(rows, g),))
    last_adjacency = adjacency[rows]
    current = e0.data
    out = current[rows]
    for _ in range(layers - 1):
        current = adjacency @ current
        out += current[rows]

    def backward(g):
        grad = last_adjacency.T @ g
        for _ in range(layers - 1):
            ad.add_rows(grad, rows, g)
            grad = adjacency @ grad
        ad.add_rows(grad, rows, g)
        return (grad,)

    out += last_adjacency @ current
    return ad.custom_op(out, (e0,), backward)
