"""Reference code the tests compare the library against, kept out of the
package because no program path runs it."""

from __future__ import annotations

import numpy as np

from mhcr import autodiff as ad


def exp(a: ad.Tensor) -> ad.Tensor:
    data = np.exp(a.data)
    return ad.custom_op(data, (a,), lambda g: (g * data,))


def log(a: ad.Tensor) -> ad.Tensor:
    return ad.custom_op(np.log(a.data), (a,), lambda g: (g / a.data,))


def cosine_affinity(features: np.ndarray, a: int, b: int) -> float:
    """Cosine similarity of item rows a and b; zero-norm rows compare as 0."""
    va, vb = features[a], features[b]
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(va @ vb / (na * nb))
