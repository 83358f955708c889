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
structure (indices, periods, radii) is integer.  Operators keep their data
in read-only arrays built once; entries and patch are views derived from them.
"""

from __future__ import annotations

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


def _validated(values: np.ndarray, rules=(), computed: bool = False) -> np.ndarray:
    """Mask of the values above ZERO_TOL.  Raises ValidationError at the first
    cell failing a rule, a (bad mask, message of a position) pair, or not
    finite, then a NumericalError instead if the library computed the value."""
    failed = ~np.isfinite(values)
    for bad, _ in rules:
        failed |= bad
    if failed.any():
        k = int(np.argmax(failed))
        for bad, message in rules:
            if bad[k]:
                raise ValidationError(message(k))
        v = complex(values.flat[k])
        raise (NumericalError(f"computed value {v} is not finite") if computed
               else ValidationError(f"entry value {v} is not finite"))
    return np.abs(values) > ZERO_TOL


def _mapping_cells(mapping: Mapping[Tuple[int, int], complex]):
    """Index arrays of the keys and the value array of a mapping, in its order."""
    try:
        cells = np.array(list(mapping), dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # as Python ints these fail the range checks
        cells = np.array(list(mapping), dtype=object).reshape(-1, 2)
    return cells[:, 0], cells[:, 1], np.array(list(mapping.values()), dtype=complex)


def _mapping(array: np.ndarray, row0: int, col0: int) -> Mapping:
    """Read-only mapping of the nonzero cells of array, its [0, 0] at (row0, col0)."""
    r, c = np.nonzero(array)
    keys = zip((r + row0).tolist(), (c + col0).tolist())
    return types.MappingProxyType(dict(zip(keys, array[r, c].tolist())))


def _zeros(rows: int, cols: int) -> np.ndarray:
    """Complex zeros of a shape read from the input.  numpy refuses a shape it
    cannot address with a ValueError; that is a MemoryError here."""
    try:
        return np.zeros((rows, cols), dtype=complex)
    except ValueError as exc:
        raise MemoryError(str(exc)) from None


def _new(cls, *fields):  # fields in slot order; arrays become read-only
    op = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(op, name, value)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return op


class Operator:
    """A periodic background overridden by a patch on [-patch_radius, patch_radius)^2.

    Every operator reads as background, patch_radius and patch; a periodic
    one is its own background with patch radius 0 and an empty patch.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def patch(self) -> Mapping[Tuple[int, int], complex]:
        return _mapping(self.dense_patch, -self.patch_radius, -self.patch_radius)

    def prop_bound(self) -> int:
        """Bound on |i-j| of nonzero entries, wide enough to span the patch window."""
        return max(self.background.reach, 2 * self.patch_radius - 1)

    def adjoint(self) -> "Operator":
        # U*[i, i + d] = conj(U[i + d, i]) over the background's period
        bg = self.background
        i, d = np.arange(bg.period)[:, None], np.arange(-bg.reach, bg.reach + 1)
        star = _periodic(bg.period, bg.band, window(bg, i + d, i).conj())
        return star if self is bg else _patched(star, self.dense_patch.conj().T)

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
    near-zero values; it does not check unitarity.  diagonals[i, reach + 1 + d]
    holds entries[(i, d)], reach the largest |d| stored; its edge columns are 0.
    """

    __slots__ = ("period", "band", "diagonals")

    patch_radius = 0
    dense_patch = np.zeros((0, 0), dtype=complex)

    def __new__(cls, period: int, band: int,
                entries: Mapping[Tuple[int, int], complex]):
        period, band = int(period), int(band)
        if period < 1:
            raise ValidationError("period must be >= 1")
        if band < 0:
            raise ValidationError("band must be >= 0")
        i, d, values = _mapping_cells(entries)
        _validated(values, [
            ((i < 0) | (i >= period),
             lambda k: f"row index {i[k]} outside [0, {period})"),
            (np.abs(d) > band, lambda k: f"band violation: |{d[k]}| > band {band}")])
        h = int(np.abs(d).max(initial=0))
        table = _zeros(period, 2 * h + 1)
        table[i, d + h] = values
        return _periodic(period, band, table)

    @property
    def reach(self) -> int:
        return self.diagonals.shape[1] // 2 - 1

    @property
    def entries(self) -> Mapping[Tuple[int, int], complex]:
        return _mapping(self.diagonals, 0, -self.reach - 1)

    @property
    def background(self) -> "PeriodicBandOperator":
        return self

    def entry(self, i: int, j: int) -> complex:
        edge = self.reach + 1  # offsets beyond the reach read a zero column
        d = min(max(j - i, -edge), edge)
        return complex(self.diagonals[i % self.period, d + edge])

    def __repr__(self):
        return (f"PeriodicBandOperator(period={self.period}, band={self.band}, "
                f"{len(self.entries)} entries)")


class EndPeriodicOperator(Operator):
    """A periodic background overridden on the finite window [-R, R)^2.

    Inside the window the entry is patch[(i, j)] with absent keys meaning an
    explicit zero; outside it the entry is the background's.  Construction
    shrinks the window while its outer ring agrees with the background within
    ZERO_TOL, so padding a patch with background values canonicalizes away.
    The (2R, 2R) array dense_patch holds patch[(i, j)] at [i + R, j + R].
    """

    __slots__ = ("background", "patch_radius", "dense_patch")

    def __new__(cls, background: PeriodicBandOperator, patch_radius: int,
                patch: Mapping[Tuple[int, int], complex]):
        radius = int(patch_radius)
        if radius < 0:
            raise ValidationError("patch radius must be >= 0")
        i, j, values = _mapping_cells(patch)
        outside = (i < -radius) | (i >= radius) | (j < -radius) | (j >= radius)
        keep = _validated(values, [(outside, lambda k: (
            f"patch entry ({i[k]}, {j[k]}) outside window [-{radius}, {radius})"))])
        i, j, values = i[keep], j[keep], values[keep]
        if not background.diagonals.any():  # only the given cells can differ from it
            radius = int(np.max([i + 1, -i, j + 1, -j], initial=0))
        dense = _zeros(2 * radius, 2 * radius)
        dense[i + radius, j + radius] = values
        return _end_periodic(background, dense)

    @property
    def period(self) -> int:
        return self.background.period

    def entry(self, i: int, j: int) -> complex:
        r = self.patch_radius
        if -r <= i < r and -r <= j < r:
            return complex(self.dense_patch[i + r, j + r])
        return self.background.entry(i, j)

    def __repr__(self):
        return (f"EndPeriodicOperator(background={self.background!r}, "
                f"patch_radius={self.patch_radius}, {len(self.patch)} patch entries)")


def _periodic(period: int, band: int, table: np.ndarray,
              computed: bool = False) -> PeriodicBandOperator:
    """The periodic operator with U[i, i + d] = table[i, h + d], table of shape
    (period, 2h + 1) with h <= band, once it passes _validated."""
    keep = _validated(table, computed=computed)
    h, used = table.shape[1] // 2, np.flatnonzero(keep.any(axis=0))
    reach = int(max(h - used[0], used[-1] - h)) if len(used) else 0
    diagonals = np.zeros((period, 2 * reach + 3), dtype=complex)
    diagonals[:, 1:-1] = np.where(keep, table, 0)[:, h - reach:h + reach + 1]
    return _new(PeriodicBandOperator, period, band, diagonals)


def _end_periodic(background: PeriodicBandOperator, dense: np.ndarray,
                  computed: bool = False) -> EndPeriodicOperator:
    """background overridden by dense[i + R, j + R] on [-R, R)^2, once that
    passes _validated, on the smallest window outside which the two agree: the
    largest ring max(i + 1, -i, j + 1, -j) of a cell where they differ by more
    than ZERO_TOL."""
    r = dense.shape[0] // 2
    cells, dense = np.arange(-r, r), np.where(_validated(dense, (), computed), dense, 0)
    differs = np.abs(dense - window(background, cells[:, None], cells)) > ZERO_TOL
    ring = np.maximum(cells + 1, -cells)
    radius = int(max(ring[differs.any(axis=1)].max(initial=0),
                     ring[differs.any(axis=0)].max(initial=0)))
    return _new(EndPeriodicOperator, background, radius,
                dense[r - radius:r + radius, r - radius:r + radius].copy())


def _patched(background: PeriodicBandOperator, dense: np.ndarray,
             computed: bool = False) -> Operator:
    """_end_periodic, or just the background if the patch shrinks away."""
    op = _end_periodic(background, dense, computed)
    return op if op.patch_radius else background


def window(op: Operator, rows, cols) -> np.ndarray:
    """Dense entries op[rows, cols] of integer index arrays broadcast as in
    numpy indexing; window(op, rows[:, None], cols) is the rectangle."""
    bg = op.background
    edge = bg.reach + 1
    out = bg.diagonals[rows % bg.period,
                       np.minimum(np.maximum(cols - rows, -edge), edge) + edge]
    r = op.patch_radius
    if r:
        inside = ((-r <= rows) & (rows < r)) & ((-r <= cols) & (cols < r))
        flat = (rows + r) * (2 * r) + (cols + r)
        out[inside] = op.dense_patch.ravel()[flat[inside]]
    return out


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
    size, (r, c) = len(m), np.indices(m.shape)
    table = np.zeros((size, 2 * size - 1), dtype=complex)
    table[(k + r) % size, size - 1 + c - r] = m
    return _periodic(size, size - 1, table)


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
    radius = max(1, *(max(-k - n * size, k + (n + 1) * size) for n in map(int, central)))
    cells = np.arange(-radius, radius)
    dense = window(bg, cells[:, None], cells)
    for n, m in central.items():
        if np.shape(m) != (size, size):
            raise ValidationError(f"central block {n} is not {size}x{size}")
        base = k + int(n) * size + radius
        dense[base:base + size, base:base + size] = m
    return _patched(bg, dense)


def embed_finite(matrix: np.ndarray) -> Operator:
    """Insert a 2m x 2m unitary over the identity, occupying [-m, m)^2."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("matrix must be square")
    if len(m) == 0 or len(m) % 2:
        raise ValidationError("matrix size must be a positive even number")
    return _patched(identity(), m)


# -- algebra -------------------------------------------------------------------

def adjoint(op: Operator) -> Operator:
    return op.adjoint()


def _multiply_periodic(a: PeriodicBandOperator,
                       b: PeriodicBandOperator) -> PeriodicBandOperator:
    n = lcm(a.period, b.period)
    reach = a.reach + b.reach
    rows = np.arange(n)[:, None]
    mid = np.arange(-a.reach, n + a.reach)  # every k a row of a reaches
    product = window(a, rows, mid) @ window(b, mid[:, None], np.arange(-reach, n + reach))
    # row i of product holds columns i - reach .. i + reach at i .. i + 2*reach
    diagonals = product[rows, rows + np.arange(2 * reach + 1)]
    return _periodic(n, a.band + b.band, diagonals, computed=True)


def multiply(a: Operator, b: Operator) -> Operator:
    """Exact banded product; propagation is subadditive by construction.

    The result's patch window starts as the envelope outside which AB equals
    the product of the backgrounds, computed as one dense window product; the
    constructor's shrink pass trims it to the rows that actually deviate from
    the background product.
    """
    bg = _multiply_periodic(a.background, b.background)
    ra, rb = a.patch_radius, b.patch_radius
    if not (ra or rb):
        return bg
    # AB - A0 B0 = (A - A0) B + A0 (B - B0): the first term lies within p(b) of
    # [-Ra, Ra)^2 and is 0 if Ra = 0, the second within p(A0) <= p(a) of [-Rb, Rb)^2
    pa = propagation(a)
    radius = max(ra + propagation(b) if ra else 0, rb + pa if rb else 0)
    cells = np.arange(-radius, radius)
    mid = np.arange(-radius - pa, radius + pa)  # every k a window row reaches
    product = window(a, cells[:, None], mid) @ window(b, mid[:, None], cells)
    return _patched(bg, product, computed=True)


def propagation(op: Operator) -> int:
    """Largest |i-j| of a nonzero entry over one period plus the patch window."""
    i, j = np.nonzero(op.dense_patch)
    return max(op.background.reach, int(np.abs(i - j).max(initial=0)))


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
        _validated(values := np.array(list(amplitudes.values()), dtype=complex))
        amps = {int(i): v for i, v in zip(amplitudes, values.tolist()) if v}
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
    _validated(np.array(list(out.values()), dtype=complex), computed=True)
    return StateVector(out)
