"""Exact linear algebra over Q and over polynomial rings.

Rational matrices are plain ``list[list[Fraction]]`` and sparse rows are
``dict[int, Fraction]``; polynomial matrices are ``list[list[Polynomial]]``.
Everything here is deterministic and exact.  Over Q there is one
elimination, run on Python ints: ``echelon`` clears each row of
denominators and reduces it fraction-free against the rows before it,
always at its smallest column, into primitive integer rows.
``sparse_rref`` adds one fraction-free back-substitution and divides each
row by its pivot only at the end; ``rref`` is its dense view, and ``rank``,
``kernel_basis`` and ``solve_linear`` read its pivot rows.  Since the lead
is the smallest column, the rows led by the last columns involve only
those columns: a system whose wanted unknowns come last (the strong kernel)
stops after ``echelon``.  Over polynomial entries there is one loop too,
fraction-free (Bareiss, exact-division form): ``bareiss_echelon``.
``generic_rank`` counts its pivots and ``bareiss_det`` reads its last one,
so ranks and determinants over Q(x) are certified rather than estimated.
The generic rank runs once per presentation; the Q(t) kernels below serve
the tests as an oracle of the limit engine.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Mapping, Sequence

from .expr import Polynomial, PolyVectorField

Vec = tuple[Fraction, ...]
Matrix = list[list[Fraction]]
PolyMatrix = list[list[Polynomial]]


def fracs(row: Sequence) -> list[Fraction]:
    # Fractions are immutable, so entries that already are one are shared
    return [x if type(x) is Fraction else Fraction(x) for x in row]


def primitive(vec: Sequence) -> list[int]:
    """Coprime integers proportional to ``vec`` (ints or Fractions), first
    nonzero entry positive; a zero vector stays zero."""
    den = lcm(*[x.denominator for x in vec])
    if den == 1:
        ints = [x.numerator for x in vec]
    else:
        ints = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*ints)
    if g == 0:
        return ints
    if next(n for n in ints if n) < 0:
        g = -g
    return ints if g == 1 else [n // g for n in ints]


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [fracs(r) for r in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(m: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []


def mat_vec(m: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vec:
    return tuple(sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in m)


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------


def lie_bracket(X: PolyVectorField, Y: PolyVectorField) -> PolyVectorField:
    """[X, Y] with components sum_j (X_j dY_i/dx_j - Y_j dX_i/dx_j)."""
    if X.vars != Y.vars:
        raise ValueError("variable-set mismatch")
    comps = tuple(X.apply_to(Yi) - Y.apply_to(Xi) for Xi, Yi in zip(X.components, Y.components))
    return PolyVectorField(X.vars, comps)


# ---------------------------------------------------------------------------
# Elimination over Q: one fraction-free forward pass on integer rows
# ---------------------------------------------------------------------------

SparseRow = dict[int, Fraction]
IntRow = dict[int, int]


def _eliminate(r: IntRow, q: IntRow, c: int) -> IntRow:
    """(a/g) r - (b/g) q with a = q[c], b = r[c] and g = gcd(a, b), divided by
    its content: the integer row that vanishes at c (r may be changed in place)."""
    a, b = q[c], r[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        r = {k: a * v for k, v in r.items()}
    for k, v in q.items():
        s = r.get(k, 0) - b * v
        if s:
            r[k] = s
        else:
            del r[k]
    g = gcd(*r.values())
    return {k: v // g for k, v in r.items()} if g > 1 else r


def echelon(rows: Iterable[Mapping[int, int | Fraction]]) -> dict[int, IntRow]:
    """Fraction-free forward elimination of sparse rational rows.

    Returns {lead column: row}: each row is a primitive integer vector whose
    smallest nonzero column is its lead, no two rows share a lead, and the
    rows span the row space of the input.  A new row is reduced at its lead
    by the row that owns that column (``_eliminate``), until its lead is new,
    where its entry is made positive, or it vanishes.  A row with its lead
    among the last columns involves only those columns, so the system's
    kernel projected onto them is the kernel of those rows alone.
    """
    pivots: dict[int, IntRow] = {}
    for row in rows:
        _insert(pivots, row)
    return pivots


def _insert(pivots: dict[int, IntRow], row: Mapping[int, int | Fraction]) -> bool:
    """Reduce one row against ``pivots`` and add it under its new lead;
    False when it reduces to zero, that is, it lies in their span."""
    r = {c: v for c, v in row.items() if v}
    r = dict(zip(r, primitive(r.values())))
    while r:
        c = min(r)
        q = pivots.get(c)
        if q is None:
            pivots[c] = r if r[c] > 0 else {k: -v for k, v in r.items()}
            return True
        r = _eliminate(r, q, c)
    return False


def independent_rows(rows: Iterable[Sequence]) -> list[int]:
    """Indices of the dense rows that are independent of all rows before
    them, found by the same elimination as ``echelon``: a basis of the row
    space, taken greedily in row order."""
    pivots: dict[int, IntRow] = {}
    return [i for i, row in enumerate(rows) if _insert(pivots, {c: x for c, x in enumerate(row) if x})]


def sparse_rref(rows: Iterable[Mapping[int, int | Fraction]]) -> dict[int, SparseRow]:
    """Full reduction of sparse rational rows; returns {pivot_col: normalized row}.

    Every returned row has coefficient 1 at its pivot column, which is its
    leading column, and 0 at every other pivot column: sorted by pivot column
    the rows are the reduced echelon form, so kernel vectors and canonical
    solutions read off directly.  Entries may be ints or Fractions; the
    result holds Fractions.  This is ``echelon`` followed by a fraction-free
    back-substitution from the highest pivot down, each row divided by its
    pivot only at the end.
    """
    pivots = echelon(rows)
    reduced: dict[int, IntRow] = {}
    for c in sorted(pivots, reverse=True):
        r = pivots[c]
        # a reduced row is zero at every other pivot column above c, so
        # clearing one column of r brings in no other: the hits are known
        for h in [k for k in r if k in reduced]:
            r = _eliminate(r, reduced[h], h)
        reduced[c] = r
    out: dict[int, SparseRow] = {}
    for c, r in reduced.items():
        d = r[c]
        if d == 1:  # Fraction(v) skips the gcd that Fraction(v, 1) would take
            out[c] = {k: Fraction(v) for k, v in r.items()}
        else:
            out[c] = {k: Fraction(v, d) for k, v in r.items()}
    return out


def pivot_rows(rows: Iterable[Sequence]) -> dict[int, SparseRow]:
    """``sparse_rref`` of dense rows of ints or Fractions."""
    return sparse_rref({c: x for c, x in enumerate(row) if x} for row in rows)


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns (exact, canonical).

    The dense view of ``sparse_rref``: one row per input row, the pivot rows
    first and then zero rows.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = pivot_rows(rows)
    cols = sorted(pivots)
    zero = Fraction(0)
    red = [[pivots[c].get(k, zero) for k in range(ncols)] for c in cols]
    red.extend([zero] * ncols for _ in range(len(rows) - len(cols)))
    return red, cols


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of dense rows: the number of ``echelon`` leads."""
    return len(echelon(dict(enumerate(row)) for row in rows))


def kernel_vectors(pivots: Mapping[int, SparseRow], ncols: int, coords: Sequence[int]) -> list[Vec]:
    """The standard kernel basis of a reduced system, projected onto ``coords``.

    One vector per free column f: e_f - sum_c pivots[c][f] e_c over the
    pivot columns c.
    """
    out: list[Vec] = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = []
        for c in coords:
            if c == f:
                vec.append(Fraction(1))
            elif c in pivots:
                vec.append(-pivots[c].get(f, Fraction(0)))
            else:
                vec.append(Fraction(0))
        out.append(tuple(vec))
    return out


def kernel_basis(rows: Sequence[Sequence], ncols: int | None = None) -> list[Vec]:
    """Canonical (reduced echelon) basis of the right kernel of a matrix."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    vectors = kernel_vectors(pivot_rows(rows), ncols, range(ncols))
    return [tuple(r) for r in rref(vectors)[0]]


def solve_linear(rows: Sequence[Sequence], b: Sequence) -> Vec | None:
    """One exact solution of A x = b in canonical form, or None if inconsistent.

    The canonical solution sets every free unknown to 0.
    """
    rhs = list(b)
    if len(rows) != len(rhs):
        raise ValueError("right-hand side has wrong length")
    ncols = len(rows[0]) if rows else 0
    pivots = pivot_rows([*row, y] for row, y in zip(rows, rhs))
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for c, row in pivots.items():
        x[c] = row.get(ncols, Fraction(0))
    return tuple(x)


# ---------------------------------------------------------------------------
# Polynomial matrices and determinants
# ---------------------------------------------------------------------------


def eval_poly_matrix(m: PolyMatrix, point: Sequence) -> Matrix:
    return [[entry.eval(point) for entry in row] for row in m]


def _poly_zero_like(m: PolyMatrix) -> Polynomial:
    return Polynomial.zero(m[0][0].vars)


def bareiss_echelon(m: PolyMatrix) -> tuple[PolyMatrix, list[int], list[int]]:
    """Fraction-free forward elimination over a polynomial ring.

    Returns (nonzero echelon rows, pivot column indices, original indices of
    the pivot rows).  The echelon rows span the row space of ``m`` over the
    fraction field, with exact polynomial entries.
    """
    if not m:
        return [], [], []
    work = [list(row) for row in m]
    n_rows, n_cols = len(work), len(work[0])
    idx = list(range(n_rows))
    zero = _poly_zero_like(m)
    pivot_cols: list[int] = []
    prev: Polynomial | None = None
    pr = 0
    for c in range(n_cols):
        cand = [i for i in range(pr, n_rows) if not work[i][c].is_zero()]
        if not cand:
            continue
        best = min(cand, key=lambda i: len(work[i][c].terms))
        work[pr], work[best] = work[best], work[pr]
        idx[pr], idx[best] = idx[best], idx[pr]
        p = work[pr][c]
        for i in range(pr + 1, n_rows):
            # Bareiss: update every lower row, even with a zero head entry,
            # to keep the exact-division invariant for later pivots.
            head = work[i][c]
            for j in range(c + 1, n_cols):
                num = work[i][j] * p - head * work[pr][j]
                work[i][j] = num.exact_div(prev) if prev is not None else num
            work[i][c] = zero
        pivot_cols.append(c)
        prev = p
        pr += 1
        if pr == n_rows:
            break
    return work[:pr], pivot_cols, idx[:pr]


def generic_rank(m: PolyMatrix) -> int:
    """Rank over the fraction field of the polynomial ring."""
    if not m or not m[0]:
        return 0
    return len(bareiss_echelon(m)[1])


def bareiss_det(m: PolyMatrix) -> Polynomial:
    """Exact determinant of a square polynomial matrix, read off
    ``bareiss_echelon``: 0 below full rank, else the last pivot, which is the
    determinant of the rows in their returned order, signed by that order's
    parity."""
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix has no determinant here")
    rows, cols, order = bareiss_echelon(m)
    if len(cols) < n:
        return _poly_zero_like(m)
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
    return -rows[-1][-1] if inversions & 1 else rows[-1][-1]


def rational_det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square rational matrix via exact elimination."""
    m = as_matrix(rows)
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if m[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def subset_index(mask: int, n: int) -> int:
    """Position of the column set ``mask`` (bit c for column c) in
    ``combinations(range(n), k)`` order, k = the number of its columns.

    Combinatorial number system: the sets that come at or after
    c_0 < ... < c_{k-1} in lexicographic order number
    sum_i C(n - 1 - c_i, k - i), so the position is C(n, k) - 1 minus that
    sum.  Complementing a set in range(n) reverses the order, so the
    complement of the set at position i is at position C(n, k) - 1 - i.
    """
    k = mask.bit_count()
    index = comb(n, k) - 1
    while mask:
        low = mask & -mask
        index -= comb(n - low.bit_length(), k)
        k -= 1
        mask ^= low
    return index


def maximal_minors(rows: Sequence[Sequence], ncols: int) -> dict:
    """The nonzero k x k minors of a k x ncols matrix, keyed by the position
    of their column set in ``combinations(range(ncols), k)`` order; every
    position left out is a zero minor.

    Laplace expansion along one row at a time: the minors of the first j + 1
    rows on a column set S are sums of entries of row j times the minors of
    the first j rows on S minus one column, so each smaller minor is computed
    once and shared by every larger one that contains it.  Column sets are
    bitmasks, placed by ``subset_index`` only at the end.  Zero entries and
    zero sub-minors are dropped, so the work follows the nonzero minors and
    no loop runs over all C(ncols, k) column sets.  Nothing is divided, so
    the entries may come from any commutative ring with ``+``, ``-`` and
    ``*`` (ints, Fractions, Polynomials).  The single minor of a matrix with
    no rows is 1; a matrix with more rows than columns has none.
    """
    if not rows:
        return {0: 1}
    if len(rows) > ncols:
        return {}
    minors = {1 << c: x for c, x in enumerate(rows[0]) if x}
    for j, row in enumerate(rows[1:], 1):
        entries = [(1 << c, x) for c, x in enumerate(row) if x]
        grown: dict = {}
        for mask, minor in minors.items():
            for bit, x in entries:
                if mask & bit:
                    continue
                term = x * minor
                # sign (-1)^(i+j), i the position of the new column in the set
                if ((mask & (bit - 1)).bit_count() + j) & 1:
                    term = -term
                key = mask | bit
                prev = grown.get(key)
                grown[key] = term if prev is None else prev + term
        minors = {mask: m for mask, m in grown.items() if m}
    return {subset_index(mask, ncols): m for mask, m in minors.items()}


# ---------------------------------------------------------------------------
# Kernels over Q(t) (the test oracle of the limit engine) and their content
# ---------------------------------------------------------------------------


def poly_gcd_1d(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of univariate polynomials (Euclid over Q[t])."""
    if a.vars != b.vars or len(a.vars) != 1:
        raise ValueError("poly_gcd_1d expects univariate polynomials over one ring")
    while not b.is_zero():
        a, b = b, _poly_mod_1d(a, b)
    if a.is_zero():
        return a
    lead = max(a.terms, key=lambda e: e[0])
    return a * (1 / a.terms[lead])


def _poly_mod_1d(a: Polynomial, b: Polynomial) -> Polynomial:
    lead_b = max(b.terms, key=lambda e: e[0])
    db = lead_b[0]
    cb = b.terms[lead_b]
    r = a
    while not r.is_zero():
        lead_r = max(r.terms, key=lambda e: e[0])
        dr = lead_r[0]
        if dr < db:
            break
        c = r.terms[lead_r] / cb
        shift = Polynomial.monomial((dr - db,), c, a.vars)
        r = r - shift * b
    return r


def normalize_poly_vector(vec: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """Divide by the content (gcd over Q[t]) and scale to a primitive-integer,
    sign-normalized form: first nonzero entry has positive leading coefficient."""
    nz = [p for p in vec if not p.is_zero()]
    if not nz:
        return tuple(vec)
    g = nz[0]
    for p in nz[1:]:
        if g.total_degree() == 0:
            break
        g = poly_gcd_1d(g, p)
    if g.total_degree() > 0:
        vec = [p.exact_div(g) for p in vec]
    coeffs = [c for p in vec for c in p.terms.values()]
    scale = primitive(coeffs)[0] / coeffs[0]
    vec = [p * scale for p in vec]
    for p in vec:
        if p.is_zero():
            continue
        lead = max(p.terms, key=lambda e: e[0])
        if p.terms[lead] < 0:
            vec = [-q for q in vec]
        break
    return tuple(vec)


def kernel_basis_over_curve(m_t: PolyMatrix) -> list[tuple[Polynomial, ...]]:
    """Basis of the right kernel of a matrix over Q(t), cleared of denominators.

    Cramer construction on the pivot submatrix found by fraction-free
    elimination; each returned vector is a polynomial vector of content 1.
    """
    if not m_t or not m_t[0]:
        return []
    n_cols = len(m_t[0])
    _, pivot_cols, pivot_rows = bareiss_echelon(m_t)
    r = len(pivot_cols)
    free_cols = [c for c in range(n_cols) if c not in set(pivot_cols)]
    if not free_cols:
        return []
    zero = _poly_zero_like(m_t)
    sub_rows = [m_t[i] for i in pivot_rows]
    det_p = bareiss_det([[row[c] for c in pivot_cols] for row in sub_rows]) if r else None
    basis = []
    for f in free_cols:
        v = [zero] * n_cols
        if r == 0:
            v[f] = Polynomial.one(zero.vars)
        else:
            v[f] = det_p
            for i in range(r):
                cols = list(pivot_cols)
                cols[i] = f
                d = bareiss_det([[row[c] for c in cols] for row in sub_rows])
                v[pivot_cols[i]] = -d
        basis.append(normalize_poly_vector(v))
    return basis
