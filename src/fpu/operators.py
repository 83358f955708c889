"""Banded unitary operators on l2(Z) with exact finite data.

Two storage classes cover everything the library manipulates:

  PeriodicBandOperator   entries repeat along the diagonal with period n,
                         confined to a band |i-j| <= band
  EndPeriodicOperator    a periodic background plus a finite square patch
                         centered at 0 that overrides it entirely

Both share the Operator interface: a periodic operator is the end-periodic
one whose patch is empty, its own background with patch radius 0.  Shift
operators, block-diagonal operators, single-block periodic embeddings and
finite unitary insertions are all constructed into these classes, which are
closed under product and adjoint.  Scalars are complex doubles; exact
structure (indices, periods, radii) is integer.
"""

from __future__ import annotations

import cmath
import types
from dataclasses import dataclass
from math import lcm
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .errors import NumericalError, ValidationError

# canonicalization threshold: entries at or below this are treated as zero
ZERO_TOL = 1e-12
# default tolerance for unitarity and agreement checks
CHECK_TOL = 1e-9


def _finite(v) -> complex:
    v = complex(v)
    if not cmath.isfinite(v):
        raise ValidationError(f"entry value {v} is not finite")
    return v


class Operator:
    """A periodic background overridden by a patch on [-patch_radius, patch_radius)^2.

    Every operator reads as background, patch_radius and patch; a periodic
    one is its own background with patch radius 0 and an empty patch.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def prop_bound(self) -> int:
        """Structural bound on |i-j| for nonzero entries."""
        return max(self.background.band, 2 * self.patch_radius - 1)

    def __eq__(self, other) -> bool:
        # entrywise over a common refinement; tolerance matches the floating
        # representation (exact structure plus complex double values)
        if not isinstance(other, Operator):
            return NotImplemented
        return operators_close(self, other)

    __hash__ = None

    def __matmul__(self, other):
        return multiply(self, other)


class PeriodicBandOperator(Operator):
    """Operator with S^n U S^{-n} = U, stored as one period of band entries.

    entries maps (i, d) -> complex for 0 <= i < period, |d| <= band, and
    means U[i + t*n, i + t*n + d] = entries[(i, d)] for every integer t.
    Absent entries are zero.  Construction validates ranges and drops
    near-zero values; it does not check unitarity.
    """

    __slots__ = ("period", "band", "entries")

    patch_radius = 0
    # read-only, since every periodic operator shares it
    patch = types.MappingProxyType({})

    def __init__(self, period: int, band: int,
                 entries: Mapping[Tuple[int, int], complex]):
        period = int(period)
        band = int(band)
        if period < 1:
            raise ValidationError("period must be >= 1")
        if band < 0:
            raise ValidationError("band must be >= 0")
        clean: Dict[Tuple[int, int], complex] = {}
        for (i, d), v in entries.items():
            i, d = int(i), int(d)
            if not 0 <= i < period:
                raise ValidationError(f"row index {i} outside [0, {period})")
            if abs(d) > band:
                raise ValidationError(f"band violation: |{d}| > band {band}")
            v = _finite(v)
            if abs(v) > ZERO_TOL:
                clean[(i, d)] = v
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "entries", clean)

    @property
    def background(self) -> "PeriodicBandOperator":
        return self

    def entry(self, i: int, j: int) -> complex:
        d = j - i
        if abs(d) > self.band:
            return 0j
        return self.entries.get((i % self.period, d), 0j)

    def adjoint(self) -> "PeriodicBandOperator":
        adj = {}
        for (i, d), v in self.entries.items():
            adj[((i + d) % self.period, -d)] = v.conjugate()
        return PeriodicBandOperator(self.period, self.band, adj)

    def __repr__(self):
        return (f"PeriodicBandOperator(period={self.period}, band={self.band}, "
                f"{len(self.entries)} entries)")


class EndPeriodicOperator(Operator):
    """A periodic background overridden on the finite window [-R, R)^2.

    Inside the window the entry is patch[(i, j)] with absent keys meaning an
    explicit zero; outside it the entry is the background's.  Construction
    shrinks the window while its outer ring agrees with the background within
    ZERO_TOL, so padding a patch with background values canonicalizes away.
    """

    __slots__ = ("background", "patch_radius", "patch")

    def __init__(self, background: PeriodicBandOperator, patch_radius: int,
                 patch: Mapping[Tuple[int, int], complex]):
        radius = int(patch_radius)
        if radius < 0:
            raise ValidationError("patch radius must be >= 0")
        clean: Dict[Tuple[int, int], complex] = {}
        for (i, j), v in patch.items():
            i, j = int(i), int(j)
            if not (-radius <= i < radius and -radius <= j < radius):
                raise ValidationError(
                    f"patch entry ({i}, {j}) outside window [-{radius}, {radius})")
            v = _finite(v)
            if abs(v) > ZERO_TOL:
                clean[(i, j)] = v
        object.__setattr__(self, "background", background)
        object.__setattr__(self, "patch_radius", radius)
        object.__setattr__(self, "patch", clean)
        radius, clean = _shrink_patch(self)
        object.__setattr__(self, "patch_radius", radius)
        object.__setattr__(self, "patch", clean)

    @property
    def period(self) -> int:
        return self.background.period

    def entry(self, i: int, j: int) -> complex:
        r = self.patch_radius
        if -r <= i < r and -r <= j < r:
            return self.patch.get((i, j), 0j)
        return self.background.entry(i, j)

    def adjoint(self) -> "EndPeriodicOperator":
        adj = {(j, i): v.conjugate() for (i, j), v in self.patch.items()}
        return EndPeriodicOperator(self.background.adjoint(),
                                   self.patch_radius, adj)

    def __repr__(self):
        return (f"EndPeriodicOperator(background={self.background!r}, "
                f"patch_radius={self.patch_radius}, {len(self.patch)} patch entries)")


def window(op: Operator, rows, cols) -> np.ndarray:
    """Dense entries op[rows, cols] of integer index arrays broadcast as in
    numpy indexing; window(op, rows[:, None], cols) is the rectangle.

    The one place that reads the entries/patch storage: a lookup in a
    (period, 2*band + 2) table of the background's diagonals, overridden
    inside the patch window by the patch, where absent keys read as zero.
    """
    bg = op.background
    # offsets index the table as in numpy, negative ones from the end, so every
    # offset beyond the band clips onto the zero column band + 1
    table = np.zeros((bg.period, 2 * bg.band + 2), dtype=complex)
    for (i, d), v in bg.entries.items():
        table[i, d] = v
    out = table[rows % bg.period, np.clip(cols - rows, -bg.band - 1, bg.band + 1)]
    r = op.patch_radius
    if r:
        rows, cols = np.broadcast_arrays(rows, cols)
        patch = np.zeros((2 * r, 2 * r), dtype=complex)
        for (i, j), v in op.patch.items():
            patch[i + r, j + r] = v
        inside = (-r <= rows) & (rows < r) & (-r <= cols) & (cols < r)
        out[inside] = patch[rows[inside] + r, cols[inside] + r]
    return out


def _shrink_patch(op: EndPeriodicOperator):
    """Smallest patch window outside which op agrees with its background.

    Cell (i, j) lies on ring max(i + 1, -i, j + 1, -j) of the window; the new
    radius is the largest ring of any cell that differs from the background
    by more than ZERO_TOL.  Only the stored cells and the background's band
    can differ, so only those are read.
    """
    bg, diagonal = op.background, np.arange(-op.patch_radius, op.patch_radius)[:, None]
    band = diagonal + np.arange(-bg.band, bg.band + 1)
    keys = np.array(list(op.patch), dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([np.broadcast_to(diagonal, band.shape).ravel(), keys[:, 0]])
    cols = np.concatenate([band.ravel(), keys[:, 1]])
    differs = np.abs(window(op, rows, cols) - window(bg, rows, cols)) > ZERO_TOL
    ring = np.maximum.reduce([rows + 1, -rows, cols + 1, -cols])
    radius = int(ring[differs].max(initial=0))
    return radius, {(i, j): v for (i, j), v in op.patch.items()
                    if max(i + 1, -i, j + 1, -j) <= radius}


def _entries(dense: np.ndarray, row0: int, col0: int) -> Dict[Tuple[int, int], complex]:
    """Storage dict of the nonzero cells of dense, its cell [0, 0] at (row0, col0)."""
    rows, cols = np.nonzero(dense)
    keys = zip((rows + row0).tolist(), (cols + col0).tolist())
    return dict(zip(keys, dense[rows, cols].tolist()))


def _collapse(op: EndPeriodicOperator) -> Operator:
    """An end-periodic operator whose patch shrank away is just its background."""
    if op.patch_radius == 0:
        return op.background
    return op


# -- constructors -------------------------------------------------------------

def make_periodic(period: int, band: int,
                  entry_list: Iterable[Tuple[int, int, complex]]) -> PeriodicBandOperator:
    """Build a periodic operator from (i, d, value) triples; duplicates rejected."""
    entries: Dict[Tuple[int, int], complex] = {}
    for i, d, v in entry_list:
        key = (int(i), int(d))
        if key in entries:
            raise ValidationError(f"duplicate entry at (i, d) = {key}")
        entries[key] = v
    return PeriodicBandOperator(period, band, entries)


def make_shift(k: int) -> PeriodicBandOperator:
    """S^k: (S^k v)_i = v_{i+k}, a single unit diagonal at offset k."""
    k = int(k)
    return PeriodicBandOperator(1, abs(k), {(0, k): 1.0})


def identity() -> PeriodicBandOperator:
    return make_shift(0)


def delta_embed(block: np.ndarray, k: int = 0) -> PeriodicBandOperator:
    """Periodic operator repeating one LxL block along the diagonal, blocks
    occupying [k + n*L, k + (n+1)*L)^2."""
    m = np.asarray(block, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError("block must be a square matrix")
    size = m.shape[0]
    entries: Dict[Tuple[int, int], complex] = {}
    for r in range(size):
        for c in range(size):
            entries[((k + r) % size, c - r)] = m[r, c]
    return PeriodicBandOperator(size, max(size - 1, 0), entries)


def block_diagonal(k: int, block_size: int, repeating: np.ndarray,
                   central: Optional[Mapping[int, np.ndarray]] = None) -> Operator:
    """Block-diagonal operator on the grid [k + n*L, k + (n+1)*L)^2.

    With only `repeating` the block tiles the whole diagonal (periodic).
    `central` maps block indices n to blocks that replace the repeating one
    there, giving an end-periodic operator.
    """
    size = int(block_size)
    if size < 1:
        raise ValidationError("block size must be >= 1")
    bg = delta_embed(repeating, k)
    if not central:
        return bg
    blocks = {}
    for n, mat in central.items():
        m = np.asarray(mat, dtype=complex)
        if m.shape != (size, size):
            raise ValidationError(f"central block {n} is not {size}x{size}")
        blocks[int(n)] = m
    radius = max(max(-(k + n * size), k + (n + 1) * size) for n in blocks)
    radius = max(radius, 1)
    cells = np.arange(-radius, radius)
    dense = window(bg, cells[:, None], cells)
    for n, m in blocks.items():
        base = k + n * size + radius
        dense[base:base + size, base:base + size] = m
    return _collapse(EndPeriodicOperator(bg, radius, _entries(dense, -radius, -radius)))


def embed_finite(matrix: np.ndarray) -> Operator:
    """Insert a 2m x 2m unitary over the identity, occupying [-m, m)^2."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("matrix must be square")
    size = m.shape[0]
    if size == 0 or size % 2:
        raise ValidationError("matrix size must be a positive even number")
    half = size // 2
    patch = {(-half + r, -half + c): m[r, c]
             for r in range(size) for c in range(size)}
    return _collapse(EndPeriodicOperator(identity(), half, patch))


# -- algebra -------------------------------------------------------------------

def adjoint(op: Operator) -> Operator:
    return op.adjoint()


def _multiply_periodic(a: PeriodicBandOperator,
                       b: PeriodicBandOperator) -> PeriodicBandOperator:
    n = lcm(a.period, b.period)
    band = a.band + b.band
    rows = np.arange(n)[:, None]
    mid = np.arange(-a.band, n + a.band)  # every k a row of a reaches
    product = window(a, rows, mid) @ window(b, mid[:, None], np.arange(-band, n + band))
    # row i of product holds columns i - band .. i + band at i .. i + 2*band
    diagonals = product[rows, rows + np.arange(2 * band + 1)]
    return PeriodicBandOperator(n, band, _entries(diagonals, 0, -band))


def multiply(a: Operator, b: Operator) -> Operator:
    """Exact banded product; propagation is subadditive by construction.

    The patch window of the result is a conservative envelope around both
    input patches, computed as one dense window product; the constructor's
    shrink pass trims it back to the rows that actually deviate from the
    background product.
    """
    if isinstance(a, PeriodicBandOperator) and isinstance(b, PeriodicBandOperator):
        return _multiply_periodic(a, b)
    bg = _multiply_periodic(a.background, b.background)
    pa = a.prop_bound()
    radius = (max(a.patch_radius, b.patch_radius, 1)
              + lcm(a.period, b.period) + pa + b.prop_bound())
    cells = np.arange(-radius, radius)
    mid = np.arange(-radius - pa, radius + pa)  # every k a window row reaches
    product = window(a, cells[:, None], mid) @ window(b, mid[:, None], cells)
    return _collapse(EndPeriodicOperator(bg, radius, _entries(product, -radius, -radius)))


def propagation(op: Operator, tol: float = 0.0) -> int:
    """Largest |i-j| with |entry| > tol over one period plus the patch window."""
    reach = [abs(d) for (_, d), v in op.background.entries.items() if abs(v) > tol]
    reach += [abs(i - j) for (i, j), v in op.patch.items() if abs(v) > tol]
    return max(reach, default=0)


def max_entry_difference(a: Operator, b: Operator) -> float:
    """sup |a_ij - b_ij|, evaluated over a window wide enough to witness it.

    The rows cover both patch windows and one full common background period
    beyond on each side; every row outside the patch windows is a background
    row, so it repeats a row inside.  Each row spans both bands.
    """
    prop = max(a.prop_bound(), b.prop_bound(), 1)
    reach = max(a.patch_radius, b.patch_radius) + lcm(a.period, b.period)
    rows = np.arange(-reach, reach)[:, None]
    cols = rows + np.arange(-prop, prop + 1)
    return float(np.max(np.abs(window(a, rows, cols) - window(b, rows, cols))))


def operators_close(a: Operator, b: Operator, tol: float = CHECK_TOL) -> bool:
    return max_entry_difference(a, b) <= tol


def unitarity_residual(op: Operator) -> float:
    """max deviation of op*op^adj and op^adj*op from the identity."""
    ident = identity()
    star = op.adjoint()
    return max(max_entry_difference(multiply(op, star), ident),
               max_entry_difference(multiply(star, op), ident))


def require_unitary(op: Operator, tol: float = CHECK_TOL) -> float:
    res = unitarity_residual(op)
    if res > tol:
        raise NumericalError(f"operator is not unitary: residual {res:.3e} > {tol:.3e}")
    return res


@dataclass(frozen=True)
class CornerData:
    """Finitely supported parts of the two off-corner blocks.

    minus_plus[r, c] = U[-size + r, c] covers rows i < 0, columns j >= 0;
    plus_minus[r, c] = U[r, -size + c] covers rows i >= 0, columns j < 0.
    Everything outside vanishes by the band bound.
    """
    minus_plus: np.ndarray
    plus_minus: np.ndarray
    size: int


def corner_data(op: Operator) -> CornerData:
    k = op.prop_bound()
    minus, plus = np.arange(-k, 0), np.arange(k)
    return CornerData(minus_plus=window(op, minus[:, None], plus),
                      plus_minus=window(op, plus[:, None], minus), size=k)


# -- states --------------------------------------------------------------------

class StateVector:
    """Finitely supported vector in l2(Z), stored index -> complex amplitude."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: Mapping[int, complex]):
        amps = {int(i): c for i, v in amplitudes.items() if (c := _finite(v))}
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @classmethod
    def delta(cls, j: int = 0) -> "StateVector":
        return cls({j: 1.0})

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(v) ** 2 for v in self.amplitudes.values())))

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self.amplitudes))

    def __getitem__(self, j: int) -> complex:
        return self.amplitudes.get(int(j), 0j)

    def __repr__(self):
        items = ", ".join(f"{i}: {v}" for i, v in sorted(self.amplitudes.items()))
        return f"StateVector({{{items}}})"


def apply_state(op: Operator, psi: StateVector) -> StateVector:
    """(op psi)_i = sum_j op[i, j] psi_j; support grows by at most prop(op)."""
    reach = op.prop_bound()
    out: Dict[int, complex] = {}
    for j, v in psi.amplitudes.items():
        rows = range(j - reach, j + reach + 1)
        for i, w in zip(rows, window(op, np.asarray(rows), j).tolist()):
            if w != 0:
                out[i] = out.get(i, 0j) + w * v
    return StateVector(out)
