"""Small dense complex matrix helpers: Haar sampling, polar projection."""

from __future__ import annotations

import numpy as np


def haar_unitary(size: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R factor's diagonal is rotated to be real positive, which makes the
    distribution exactly Haar and the draw deterministic given the rng state.
    """
    try:
        z = (rng.standard_normal((size, size))
             + 1j * rng.standard_normal((size, size))) / np.sqrt(2.0)
    except ValueError as exc:  # a size numpy cannot address at all
        raise MemoryError(str(exc)) from None
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def polar_unitary(m: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition: the nearest unitary to m."""
    u, _, vh = np.linalg.svd(np.asarray(m, dtype=complex))
    return u @ vh

