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
from math import lcm
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .errors import NumericalError, ValidationError
from .sequences import _index

# canonicalization threshold: entries at or below this are treated as zero
ZERO_TOL = 1e-12
# default tolerance for unitarity and agreement checks
CHECK_TOL = 1e-9


def _validated(values: np.ndarray, rules=()) -> np.ndarray:
    """Mask of the values above ZERO_TOL.  Raises ValidationError at the first
    cell failing a rule, a (bad mask, message of a position) pair, or not finite."""
    failed = ~np.isfinite(values)
    for bad, _ in rules:
        failed |= bad
    if failed.any():
        k = int(np.argmax(failed))
        for bad, message in rules:
            if bad[k]:
                raise ValidationError(message(k))
        raise ValidationError(f"entry value {complex(values.flat[k])} is not finite")
    return np.abs(values) > ZERO_TOL


def _computed(values: np.ndarray) -> np.ndarray:
    """values, once all are finite; one that is not is an overflow, a NumericalError."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise NumericalError(f"computed value {complex(values[bad][0])} is not finite")
    return values


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
        # not the exact propagation: ones at (-1, -1) and (0, 0) over zeros on
        # [-8, 8)^2 have propagation 0, and a trace window that narrow passes
        # that non-unitary patch as index 0
        return max(self.background.reach, 2 * self.patch_radius - 1)

    def adjoint(self) -> "Operator":
        # U*[i, i + d] = conj(U[i + d, i]) over the background's period
        bg = self.background
        i, d = np.arange(bg.period)[:, None], np.arange(-bg.reach, bg.reach + 1)
        star = _periodic(bg.band, window(bg, i + d, i).conj())
        if self is bg:
            return star
        # a cell and its transpose share a ring and their gap to the background, so
        # the conjugate transpose of a minimal patch is minimal; C order, as window ravels it
        patch = np.conjugate(self.dense_patch.T, order="C")
        return _new(EndPeriodicOperator, star, self.patch_radius, patch)

    def __eq__(self, other) -> bool:
        # entrywise over a common refinement; tolerance matches the floating
        # representation (exact structure plus complex double values)
        if not isinstance(other, Operator):
            return NotImplemented
        return max_entry_difference(self, other) <= CHECK_TOL

    __hash__ = None


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
        period, band = _index(period), _index(band)
        if period < 1:
            raise ValidationError("period must be >= 1")
        if band < 0:
            raise ValidationError("band must be >= 0")
        i, d, values = _mapping_cells(entries)
        keep = _validated(values, [
            ((i < 0) | (i >= period),
             lambda k: f"row index {i[k]} outside [0, {period})"),
            (np.abs(d) > band, lambda k: f"band violation: |{d[k]}| > band {band}")])
        reach = int(np.abs(d[keep]).max(initial=0))  # a dropped value sizes nothing
        diagonals = _zeros(period, 2 * reach + 3)
        diagonals[i[keep], d[keep] + reach + 1] = values[keep]
        return _new(cls, period, band, diagonals)

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
    ZERO_TOL, so padding a patch with background values canonicalizes away;
    a patch that shrinks away entirely gives the background itself.
    The (2R, 2R) array dense_patch holds patch[(i, j)] at [i + R, j + R].
    """

    __slots__ = ("background", "patch_radius", "dense_patch")

    def __new__(cls, background: PeriodicBandOperator, patch_radius: int,
                patch: Mapping[Tuple[int, int], complex]):
        radius = _index(patch_radius)
        if radius < 0:
            raise ValidationError("patch radius must be >= 0")
        if not radius and not patch:  # a periodic operator: no patch to scatter
            return background
        i, j, values = _mapping_cells(patch)
        outside = (i < -radius) | (i >= radius) | (j < -radius) | (j >= radius)
        keep = _validated(values, [(outside, lambda k: (
            f"patch entry ({i[k]}, {j[k]}) outside window [-{radius}, {radius})"))])
        i, j, values = i[keep], j[keep], values[keep]
        # scatter only within the outermost ring of a cell that differs from the
        # background: a given one, or an explicit zero on a nonzero diagonal
        ring = np.maximum(np.maximum(i, -1 - i), np.maximum(j, -1 - j))  # ring - 1: no overflow
        row = (i % background.period).astype(np.int64)
        edge = background.reach + 1  # offsets clipped this far read a zero column
        offset = np.minimum(np.maximum(j - i, -edge), edge).astype(np.int64)
        base = window(background, row, row + offset)
        differs = np.abs(values - base) > ZERO_TOL
        radius = _explicit_zero_ring(background, radius, i, j,
                                     int(ring[differs].max(initial=-1)) + 1)
        dense, inner = _zeros(2 * radius, 2 * radius), ring < radius
        dense[(i[inner] + radius).astype(np.int64),
              (j[inner] + radius).astype(np.int64)] = values[inner]
        return _new(EndPeriodicOperator, background, radius, dense) if radius else background

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


def _explicit_zero_ring(background: PeriodicBandOperator, radius: int,
                        i: np.ndarray, j: np.ndarray, ring: int) -> int:
    """The larger of ring and the outermost ring of a cell of [-radius, radius)^2
    on a nonzero background diagonal that the given cells (i, j) leave out.
    The ring is convex along a diagonal, so it peaks at the first cell missing
    from either end; the walk to it passes only given cells above ring."""
    if ring >= radius:  # no cell of the window lies further out
        return ring
    given = set(zip(i.tolist(), j.tolist()))

    def on(r, c):  # the ring of cell (r, c)
        return max(r + 1, -r, c + 1, -c)

    n, edge = background.period, background.reach + 1
    for row, col in zip(*np.nonzero(background.diagonals)):
        d = int(col) - edge  # x runs over the rows = row mod n with x, x + d inside
        lo, hi = max(-radius, -radius - d), min(radius, radius - d) - 1
        x, y = lo + (int(row) - lo) % n, hi - (hi - int(row)) % n
        while x <= y and on(x, x + d) > ring and (x, x + d) in given:
            x += n
        while x <= y and on(y, y + d) > ring and (y, y + d) in given:
            y -= n
        if x <= y:
            ring = max(ring, on(x, x + d), on(y, y + d))
    return ring


def _periodic(band: int, table: np.ndarray) -> PeriodicBandOperator:
    """The periodic operator with U[i, i + d] = table[i, h + d], table of shape
    (period, 2h + 1) with h <= band, once it passes _validated."""
    keep = _validated(table)
    h, used = table.shape[1] // 2, np.flatnonzero(keep.any(axis=0))
    reach = int(max(h - used[0], used[-1] - h)) if len(used) else 0
    diagonals = np.zeros((len(table), 2 * reach + 3), dtype=complex)
    diagonals[:, 1:-1] = np.where(keep, table, 0)[:, h - reach:h + reach + 1]
    return _new(PeriodicBandOperator, len(table), band, diagonals)


def _patched(background: PeriodicBandOperator, dense: np.ndarray) -> Operator:
    """background overridden by dense[i + R, j + R] on [-R, R)^2, once that
    passes _validated, on the smallest window outside which the two agree: the
    largest ring max(i + 1, -i, j + 1, -j) of a cell where they differ by more
    than ZERO_TOL.  That is the background itself when no cell differs."""
    r = dense.shape[0] // 2
    cells, dense = np.arange(-r, r), np.where(_validated(dense), dense, 0)
    differs = np.abs(dense - window(background, cells[:, None], cells)) > ZERO_TOL
    ring = np.maximum(cells + 1, -cells)
    radius = int(max(ring[differs.any(axis=1)].max(initial=0),
                     ring[differs.any(axis=0)].max(initial=0)))
    if not radius:
        return background
    return _new(EndPeriodicOperator, background, radius,
                dense[r - radius:r + radius, r - radius:r + radius].copy())


def window(op: Operator, rows, cols) -> np.ndarray:
    """Dense entries op[rows, cols] of integer index arrays broadcast as in
    numpy indexing; window(op, rows[:, None], cols) is the rectangle, and two
    scalar (or 0-d) indices read one entry as a numpy scalar."""
    bg = op.background
    edge = bg.reach + 1
    out = bg.diagonals[rows % bg.period,
                       np.minimum(np.maximum(cols - rows, -edge), edge) + edge]
    r = op.patch_radius
    if r:
        inside = ((-r <= rows) & (rows < r)) & ((-r <= cols) & (cols < r))
        if out.ndim:
            flat = (rows + r) * (2 * r) + (cols + r)
            out[inside] = op.dense_patch.ravel()[flat[inside]]
        elif inside:  # one entry: a numpy scalar, which takes no item assignment
            out = op.dense_patch[rows + r, cols + r]
    return out


# -- constructors -------------------------------------------------------------

def make_shift(k: int) -> PeriodicBandOperator:
    """S^k: (S^k v)_i = v_{i+k}, a single unit diagonal at offset k."""
    k = _index(k)
    return PeriodicBandOperator(1, abs(k), {(0, k): 1.0})


# its table written out: built through the constructor at import, it would
# page in numpy code that every sequence command then carries (about 0.6 MB)
_IDENTITY = _new(PeriodicBandOperator, 1, 0, np.array([[0, 1, 0]], dtype=complex))


def identity() -> PeriodicBandOperator:
    """The identity, one immutable operator built once."""
    return _IDENTITY


def delta_embed(block: np.ndarray, k: int = 0) -> PeriodicBandOperator:
    """Periodic operator repeating one LxL block along the diagonal, blocks
    occupying [k + n*L, k + (n+1)*L)^2."""
    m = np.asarray(block, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError("block must be a square matrix")
    k = _index(k)
    size, (r, c) = len(m), np.indices(m.shape)
    table = np.zeros((size, 2 * size - 1), dtype=complex)
    table[(k + r) % size, size - 1 + c - r] = m
    return _periodic(size - 1, table)


def block_diagonal(k: int, repeating: np.ndarray,
                   central: Optional[Mapping[int, np.ndarray]] = None) -> Operator:
    """Block-diagonal operator on the grid [k + n*L, k + (n+1)*L)^2, with L
    the size of the square block `repeating`.

    With only `repeating` the block tiles the whole diagonal (periodic).
    `central` maps block indices n to blocks that replace the repeating one
    there, giving an end-periodic operator.
    """
    bg = delta_embed(repeating, k)
    if not central:
        return bg
    # compare only the central blocks, with repeating as bg stores it: bg owns every other cell
    size, idx, blocks = bg.period, np.arange(bg.period), []
    stored = np.where(_validated(rep := np.asarray(repeating, dtype=complex)), rep, 0)
    for n, m in sorted(central.items(), key=lambda item: _index(item[0])):
        if np.shape(m) != (size, size):
            raise ValidationError(f"central block {n} is not {size}x{size}")
        m = np.where(_validated(m := np.asarray(m, dtype=complex)), m, 0)
        differs, start = np.abs(m - stored) > ZERO_TOL, k + _index(n) * size
        rings = np.maximum(start + idx + 1, -start - idx)[differs.any(0) | differs.any(1)]
        blocks.append((start, m, int(rings.max(initial=0))))
    radius = max(ring for *_, ring in blocks)
    if not radius:
        return bg
    cells = np.arange(-radius, radius)
    dense = window(bg, cells[:, None], cells)
    for start, m, _ in blocks:  # the cells of each block inside the square
        lo, hi = (min(max(end - start, 0), size) for end in (-radius, radius))
        part = slice(start + radius + lo, start + radius + hi)
        dense[part, part] = m[lo:hi, lo:hi]
    return _new(EndPeriodicOperator, bg, radius, dense)


def embed_finite(matrix: np.ndarray) -> Operator:
    """Insert a 2m x 2m unitary over the identity, occupying [-m, m)^2."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("matrix must be square")
    if len(m) == 0 or len(m) % 2:
        raise ValidationError("matrix size must be a positive even number")
    return _patched(identity(), m)


# -- algebra -------------------------------------------------------------------

def _rows_product(a: Operator, b: Operator, rows, cols) -> np.ndarray:
    """Dense (ab)[rows, cols] for a run of rows covering a's patch window, summed
    over the rows extended by reach(A0): a row of a is nonzero nowhere else.
    A product with the identity is a read of a; no rows give a (0, cols) product."""
    if b is _IDENTITY:
        product = window(a, rows[:, None], cols)
    elif len(rows):
        mid = np.arange(rows[0] - a.background.reach, rows[-1] + a.background.reach + 1)
        product = window(a, rows[:, None], mid) @ window(b, mid[:, None], cols)
    else:
        return np.zeros((0, len(cols)), dtype=complex)
    # zeros as a sum gives them: some BLAS kernels leave -0.0, and a read keeps a stored one
    product += 0.0
    return _computed(product)


def _envelope(a: Operator, b: Operator) -> int:
    """Radius R of the square [-R, R)^2 outside which ab is A0 B0: in AB - A0 B0
    = (A - A0) B + A0 (B - B0) the first term lies within reach(B0) of
    [-Ra, Ra)^2 and is 0 if Ra = 0, the second within reach(A0) of [-Rb, Rb)^2."""
    ra, rb = a.patch_radius, b.patch_radius
    return max(ra + b.background.reach if ra else 0, rb + a.background.reach if rb else 0)


def _band(a0: PeriodicBandOperator, b0: PeriodicBandOperator, n: int, w: int):
    """Diagonals -w..w of rows [0, n) of a0 b0: table[i, w + d] = (a0 b0)[i, i + d].
    With b0 the identity they are a0's own, read without a product."""
    rows = np.arange(n)[:, None]
    if b0 is _IDENTITY:
        return window(a0, rows, rows + np.arange(-w, w + 1)) + 0.0  # zeros as a sum's
    product = _rows_product(a0, b0, rows[:, 0], np.arange(-w, n + w))
    return product[rows, rows + np.arange(2 * w + 1)]


def multiply(a: Operator, b: Operator) -> Operator:
    """Exact banded product; propagation is subadditive by construction.

    Its table of diagonals is the _band of A0 B0 over the lcm of the periods,
    its patch [-R, R)^2 of AB, R the _envelope.  The constructor's shrink pass
    trims the patch to the cells that deviate from A0 B0.
    """
    a0, b0, radius = a.background, b.background, _envelope(a, b)
    table = _band(a0, b0, lcm(a0.period, b0.period), a0.reach + b0.reach)
    cells = np.arange(-radius, radius)
    return _patched(_periodic(a0.band + b0.band, table), _rows_product(a, b, cells, cells))


def propagation(op: Operator) -> int:
    """Largest |i-j| of a nonzero entry over one period plus the patch window."""
    if not op.patch_radius:
        return op.background.reach
    i, j = np.nonzero(op.dense_patch)
    return max(op.background.reach, int(np.abs(i - j).max(initial=0)))


def _excess(product: np.ndarray, target) -> float:
    """sup |product - target|, product's values at or below ZERO_TOL read as 0,
    as a constructor stores them.  Overwrites product."""
    product[np.abs(product) <= ZERO_TOL] = 0
    product -= target
    return float(np.abs(product).max(initial=0.0))


# A fact about operators is decided by two blocks: the square [-R, R)^2, outside
# which each is its background, and the diagonals of one common period of the
# backgrounds.  A periodic difference has a translate outside any square, so
# the background block may compare every one of its cells.

def max_entry_difference(a: Operator, b: Operator) -> float:
    """sup |a_ij - b_ij|, exactly: the residual of a times the identity against
    b, whose products are reads of a; a's values at or below ZERO_TOL read as 0."""
    return _product_residual(a, _IDENTITY, b)


def _product_residual(a: Operator, b: Operator, c: Operator) -> float:
    """sup |ab - c| from window products of a and b, without building ab: over
    the diagonals of one common period out to the wider band, and over the
    square of ab's _envelope and c's patch radius."""
    a0, b0, c0 = a.background, b.background, c.background
    n, w = lcm(a0.period, b0.period, c0.period), max(a0.reach + b0.reach, c0.reach)
    rows = np.arange(n)[:, None]
    residual = _excess(_band(a0, b0, n, w), window(c0, rows, rows + np.arange(-w, w + 1)))
    cells = np.arange(-(radius := max(_envelope(a, b), c.patch_radius)), radius)
    return max(residual, _excess(_rows_product(a, b, cells, cells),
                                 window(c, cells[:, None], cells)))


def unitarity_residual(op: Operator) -> float:
    """max deviation of op op* and op* op from the identity, as the Grams of
    op's rows and of its columns: rows [0, n) of the background and the patch
    rows [-R, R) of op.  A Gram cell is the background's unless one of its two
    rows (columns) meets the patch window, and the Grams are Hermitian.  A row
    or column of op is nonzero only inside the patch window or within reach of
    itself: the sum runs over the rows extended by reach, the columns extend
    that again."""
    reach, r = op.background.reach, op.patch_radius

    def deviation(u, lo, hi):  # sup |gram - I| over rows [lo, hi)
        mid, cols = (np.arange(lo - k * reach, hi + k * reach) for k in (1, 2))
        rows = slice(2 * reach, 2 * reach + hi - lo)  # the Gram's rows within its columns
        identity = cols[rows, None] == cols

        def excess(x):  # x's rows span the columns; their Gram is the conjugate of x x*
            return _excess(_computed(x[rows].conj() @ x.T), identity)
        return max(excess(window(u, cols[:, None], mid)),
                   excess(window(u, mid[:, None], cols).T))
    residual = deviation(op.background, 0, op.period)
    return max(residual, deviation(op, -r, r)) if r else residual


def require_unitary(op: Operator, tol: float = CHECK_TOL) -> float:
    res = unitarity_residual(op)
    if not res <= tol:  # a NaN fails every gate
        raise NumericalError(f"operator is not unitary: residual {res:.3e} > {tol:.3e}")
    return res


# -- states --------------------------------------------------------------------

def apply_state(op: Operator, amplitudes: Mapping[int, complex]) -> Dict[int, complex]:
    """(op psi)_i = sum_j op[i, j] psi_j for psi = {j: amplitude}, as the nonzero
    sums by index i; the support grows by at most prop_bound().  Raises
    ValidationError on an amplitude that is not finite."""
    _validated(values := np.array(list(amplitudes.values()), dtype=complex))
    # a zero amplitude is dropped: adding its product could turn a sum's -0.0 to 0.0
    psi = {_index(j): v for j, v in zip(amplitudes, values.tolist()) if v}
    reach, bg, r = op.prop_bound(), op.background, op.patch_radius
    out: Dict[int, complex] = {}
    for j, v in psi.items():
        # a column off the patch is a background column: read it at j mod period
        # and shift its rows back in Python ints, which cannot overflow
        base = 0 if -r <= j < r else j - j % bg.period
        rows = range(j - base - reach, j - base + reach + 1)
        column = window(bg if base else op, np.asarray(rows), j - base)
        for i, w in zip(rows, column.tolist()):
            if w != 0:
                out[i + base] = out.get(i + base, 0j) + w * v
    _computed(np.array(list(out.values()), dtype=complex))
    return {i: out[i] for i in sorted(out) if out[i]}
