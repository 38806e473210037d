"""Canonical linear subspaces, Pluecker coordinates, and exact Grassmannian limits.

A ``Subspace`` is stored by its reduced-echelon basis, which is a complete
invariant; the normalized Pluecker vector (primitive integers, first nonzero
entry positive) is computed lazily from it and is the second complete
invariant used in reports.  Only its nonzero coordinates are computed, by
one shared-minor pass (``algebra.maximal_minors``) over the basis rows scaled
to primitive integers; each minor is keyed by its column subset's position
in lexicographic order, found from the subset's bitmask by the combinatorial
number system, and every other coordinate is 0.  When 2k > N the pass runs
on the annihilator, whose N - k rows read off the echelon basis: p_S(V) =
±p_{S^c}(V°), and the complement of the subset at position i is at position
C(N,k) - 1 - i.

Limits of kernels along polynomial arcs t -> x(t) are computed exactly by
saturating the arc's row lattice at t = 0.  M(x(t)) is built as integer rows
of t-coefficient lists, with no polynomial objects.  Its first rows R(t)
that are independent over Q(t) come from one exact evaluation at
t0 = B + 1, B the product over the rows of max(1, the sum of the absolute
values of the row's coefficients): B bounds the coefficient sum of every
minor, so by Cauchy's root bound no nonzero minor vanishes at t0, and ranks
at t0 are ranks over Q(t).  While R(0) is rank-deficient a primitive integer
left-kernel vector c of R(0) replaces one row by (c^T R(t))/t.  This is a
Hermite form over the local ring Q[t]_(t); the last R(0) spans the limit row
space and the limit kernel is ker R(0).  No Pluecker vector over Q[t] is
formed.  ``kernel_basis_over_curve`` with ``reconstruct_from_plucker`` is the
older Pluecker route, kept as a test oracle.

Only the float functions (``Subspace.basis_floats``, ``point_distance``,
``principal_angle``) use numpy, and each imports it itself: the exact work
never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm, prod
from typing import TYPE_CHECKING, Sequence

from . import algebra
from .algebra import PolyMatrix, Vec

if TYPE_CHECKING:
    import numpy as np


class CurveNotGeneric(ValueError):
    """The arc fails to be generically regular for the requested dimension."""


class ZeroPluckerLimit(RuntimeError):
    """Internal consistency failure: a Pluecker limit vanished identically."""


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """A linear subspace of Q^N with canonical reduced-echelon basis rows.

    ``reduce`` is the one reduction modulo that basis: membership tests and
    the isotropy quotient (``foliation.IsotropyAlgebra``) are built on it.
    Each row's lead column and nonzero entries are found on the first
    ``reduce`` and kept with the subspace.
    """

    __slots__ = ("ambient_dim", "basis", "_plucker", "_support")

    def __init__(self, ambient_dim: int, basis: tuple[Vec, ...]):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._plucker: tuple[int, ...] | None = None
        self._support: tuple[tuple[int, tuple[tuple[int, Fraction], ...]], ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def plucker(self) -> tuple[int, ...]:
        if self._plucker is None:
            self._plucker = normalize_plucker(plucker_of_basis(self.basis, self.ambient_dim))
        return self._plucker

    @property
    def support(self) -> tuple[tuple[int, tuple[tuple[int, Fraction], ...]], ...]:
        """Per basis row, its lead column and its nonzero ``(column, entry)`` pairs."""
        if self._support is None:
            rows = [tuple((i, x) for i, x in enumerate(row) if x != 0) for row in self.basis]
            self._support = tuple((pairs[0][0], pairs) for pairs in rows)
        return self._support

    def reduce(self, v: Sequence) -> list[Fraction]:
        """Remainder of v modulo the reduced-echelon basis: v minus, for each
        row, v's entry at the row's pivot column times the row.  It is zero at
        every pivot column, and zero exactly when v lies in the subspace."""
        r = algebra.fracs(v)
        if len(r) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        for lead, pairs in self.support:
            f = r[lead]
            if f != 0:
                for i, x in pairs:
                    r[i] -= f * x
        return r

    def contains_vector(self, v: Sequence) -> bool:
        return not any(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector(v) for v in other.basis)

    def basis_floats(self) -> np.ndarray:
        import numpy as np

        return np.array([[float(x) for x in row] for row in self.basis], dtype=float)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        rows = "; ".join(",".join(str(x) for x in row) for row in self.basis)
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: [{rows}])"


def make_subspace(vectors: Sequence[Sequence], ambient_dim: int | None = None) -> Subspace:
    """Canonical subspace spanned by the given vectors (idempotent)."""
    vecs = [list(v) for v in vectors]
    if ambient_dim is None:
        if not vecs:
            raise ValueError("ambient_dim required for an empty generating set")
        ambient_dim = len(vecs[0])
    for v in vecs:
        if len(v) != ambient_dim:
            raise ValueError("ambient dimension mismatch")
    if not vecs:
        return Subspace(ambient_dim, ())
    red, pivots = algebra.rref(vecs)
    basis = tuple(tuple(row) for row in red[: len(pivots)])
    return Subspace(ambient_dim, basis)


def annihilator(v: Subspace) -> Subspace:
    """The annihilator V° in the dual, dim(V°) = N - dim(V)."""
    rows = algebra.kernel_basis(v.basis, ncols=v.ambient_dim)
    return Subspace(v.ambient_dim, tuple(rows))


# ---------------------------------------------------------------------------
# Pluecker coordinates
# ---------------------------------------------------------------------------


def plucker_of_basis(basis: Sequence[Sequence[Fraction]], ambient_dim: int) -> tuple[int, ...]:
    """Integer vector proportional to the Pluecker vector of the rows' span.

    Coordinates follow the lexicographic column subsets; all vanish when the
    rows are dependent.  Each row is scaled to primitive integers
    (``algebra.primitive``); one shared-minor pass (``algebra.maximal_minors``)
    yields only the nonzero minors, each keyed by its subset's position, and
    every other coordinate is 0.  A row scale of either sign multiplies all
    minors by one scalar.
    When 2k > N the pass runs on the smaller annihilator V° instead, whose
    standard basis reads off the reduced echelon form of the rows, and
    p_S(V) = eps(S) p_{S^c}(V°) with eps(S) = (-1)^(sum(S) - k(k-1)/2).
    Since sum(S) = N(N-1)/2 - sum(S^c), eps(S) is the product of (-1)^c over
    the columns c of S^c, up to one sign for all S; negating the odd columns
    of V°'s rows puts that factor into every minor.  The minor of V° at
    position i then goes to position C(N, k) - 1 - i, because complementing
    the subsets reverses their order.  ``normalize_plucker`` removes the
    overall scalar.
    """
    k = len(basis)
    vec = [0] * comb(ambient_dim, k)
    if 2 * k <= ambient_dim:
        minors = algebra.maximal_minors([algebra.primitive(r) for r in basis], ambient_dim)
    else:
        pivots = algebra.pivot_rows(basis)
        if len(pivots) < k:
            return tuple(vec)
        dual = [
            [-x if c & 1 else x for c, x in enumerate(algebra.primitive(v))]
            for v in algebra.kernel_vectors(pivots, ambient_dim, range(ambient_dim))
        ]
        last = len(vec) - 1
        minors = {last - i: q for i, q in algebra.maximal_minors(dual, ambient_dim).items()}
    for i, q in minors.items():
        vec[i] = q
    return tuple(vec)


def normalize_plucker(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale to primitive integers with the first nonzero entry positive;
    the gcd and the sign are taken over the nonzero entries only."""
    support = [i for i, x in enumerate(vec) if x]
    if not support:
        raise ZeroPluckerLimit("all Pluecker coordinates vanish")
    ints = [0] * len(vec)
    for i, n in zip(support, algebra.primitive([vec[i] for i in support])):
        ints[i] = n
    return tuple(ints)


def reconstruct_from_plucker(vec: Sequence[Fraction], ambient_dim: int, k: int) -> Subspace:
    """Rebuild the subspace from a (decomposable) Pluecker vector.

    Uses the contraction rows at the lexicographically first nonzero
    coordinate: row i has entries p(s_1,...,s_{i-1}, j, s_{i+1},...,s_k).
    """
    if k == 0:
        return Subspace(ambient_dim, ())
    subsets = list(combinations(range(ambient_dim), k))
    coords = {s: Fraction(v) for s, v in zip(subsets, vec)}

    def signed(indices: tuple[int, ...]) -> Fraction:
        if len(set(indices)) != len(indices):
            return Fraction(0)
        order = sorted(range(len(indices)), key=lambda i: indices[i])
        perm = [indices[i] for i in order]
        inversions = sum(
            1 for a in range(len(indices)) for b in range(a + 1, len(indices)) if order[a] > order[b]
        )
        sign = -1 if inversions % 2 else 1
        return sign * coords[tuple(perm)]

    base = next((s for s in subsets if coords[s] != 0), None)
    if base is None:
        raise ZeroPluckerLimit("cannot reconstruct from the zero Pluecker vector")
    rows = []
    for i in range(k):
        row = []
        for j in range(ambient_dim):
            idx = list(base)
            idx[i] = j
            row.append(signed(tuple(idx)))
        rows.append(row)
    sub = make_subspace(rows, ambient_dim)
    if sub.dim != k:
        raise ZeroPluckerLimit("Pluecker vector is not decomposable of the expected rank")
    return sub


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    """A polynomial arc t -> x(t) in the base: coordinate i is
    sum_d coeffs[i][d] t^d, so x(0) = center is each coordinate's first
    coefficient.  Coefficients are held as Fractions."""

    coeffs: tuple[tuple[Fraction, ...], ...]
    label: str = ""

    def __post_init__(self):
        coeffs = tuple(tuple(algebra.fracs(c)) for c in self.coeffs)
        if not all(coeffs):
            raise ValueError("every curve coordinate needs a constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def center(self) -> tuple[Fraction, ...]:
        return tuple(c[0] for c in self.coeffs)

    @staticmethod
    def constant(m: Sequence) -> "Curve":
        return Curve(tuple((x,) for x in m), "constant")

    @staticmethod
    def ray(m: Sequence, d: Sequence, label: str | None = None) -> "Curve":
        dd = algebra.fracs(d)
        return Curve(tuple(zip(m, dd)), label or f"ray d=({','.join(map(str, dd))})")

    @staticmethod
    def arc(m: Sequence, d: Sequence, e: Sequence, power: int = 2, label: str | None = None) -> "Curve":
        """m + t d + t^power e, power >= 1."""
        if power < 1:
            raise ValueError("arc power must be >= 1")
        dd, ee = algebra.fracs(d), algebra.fracs(e)
        coeffs = []
        for c, v, w in zip(m, dd, ee):
            row = [c, v] + [0] * (power - 1)
            row[power] += w
            coeffs.append(row)
        return Curve(
            tuple(coeffs),
            label or f"arc d=({','.join(map(str, dd))}) e=({','.join(map(str, ee))}) pow={power}",
        )

    def is_constant(self) -> bool:
        return not any(x for c in self.coeffs for x in c[1:])

    def eval(self, t) -> tuple[Fraction, ...]:
        return tuple(_horner(c, t) for c in self.coeffs)


# ---------------------------------------------------------------------------
# Exact limits along curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitDetail:
    """Record of one limit computation."""

    limit: Subspace  # limit of the kernel family
    valuation: int   # saturation steps: t-valuation of the maximal minors of R(t)


def limit_along_curve_detailed(
    m: PolyMatrix, curve: Curve, expected_dim: int, vars: Sequence[str]
) -> LimitDetail:
    """Exact limit of ker M(x(t)) as t -> 0, by saturating the row lattice at t = 0.

    M(x(t)) is formed as integer rows of t-coefficient lists (``_integer_rows``),
    with curve coordinate i substituted for ``vars[i]``.  Its rank over Q(t),
    and its first rows in row order that are independent over Q(t), come from
    one exact evaluation at t0 = B + 1, where B is the product over the rows
    of max(1, the sum of the absolute values of the row's coefficients).
    Every minor of any set of rows is an integer polynomial whose
    coefficients' absolute values sum to at most B, so by Cauchy's bound none
    that is nonzero vanishes at t0: ranks at t0 are ranks over Q(t), for the
    whole matrix and for every prefix of its rows.

    Those rows R(t) are a basis of the row space over Q(t).  While R(0) is
    rank-deficient, a primitive integer left-kernel vector c of R(0) makes
    c^T R(t) divisible by t, and (c^T R(t))/t replaces a row j with c_j != 0.
    Each step lowers the t-valuation of the maximal minors of R(t) by one, so
    the loop ends, with R(0) spanning the limit row space; the limit is
    ker R(0), the one step on Fractions.

    The curve must be generically regular: the kernel of M(x(t)) over Q(t)
    must have dimension exactly ``expected_dim``; otherwise CurveNotGeneric.
    """
    rows = _integer_rows(m, curve, vars)
    n_cols = len(m[0]) if m else 0
    needed_rank = n_cols - expected_dim
    if needed_rank < 0:
        raise CurveNotGeneric(f"expected_dim {expected_dim} exceeds ambient {n_cols}")
    bound = prod(max(1, sum(abs(a) for entry in row for a in entry)) for row in rows)
    chosen = algebra.independent_rows([_horner(entry, bound + 1) for entry in row] for row in rows)
    rank = len(chosen)
    if rank != needed_rank:
        if expected_dim <= needed_rank:
            reason = f"kernel over Q(t) has dimension {n_cols - rank}, expected {expected_dim}"
        else:
            reason = f"rank over Q(t) is {rank}, expected {needed_rank}"
        raise CurveNotGeneric(f"{reason} ({curve.label})")

    # R(t) = sum_d t^d R_d, kept as its integer coefficient matrices R_d
    depth = max((len(entry) for i in chosen for entry in rows[i]), default=1)
    coeffs = [
        [[entry[d] if d < len(entry) else 0 for entry in rows[i]] for i in chosen] for d in range(depth)
    ]
    steps = 0
    while True:
        # R(0) with the identity appended: an echelon row led by an appended
        # column is zero on R(0), so its appended part is a primitive c
        pivots = algebra.echelon(
            {**{col: x for col, x in enumerate(row) if x}, n_cols + i: 1} for i, row in enumerate(coeffs[0])
        )
        lead = max(pivots, default=-1)
        if lead < n_cols:
            break
        terms = [(col - n_cols, x) for col, x in pivots[lead].items()]
        j = lead - n_cols
        # c^T R(t) vanishes at t = 0; its coefficients of t, t^2, ... become row j
        shifted = [[sum(x * r_d[i][col] for i, x in terms) for col in range(n_cols)] for r_d in coeffs[1:]]
        for r_d, row in zip(coeffs, shifted + [[0] * n_cols]):
            r_d[j] = row
        steps += 1
    return LimitDetail(Subspace(n_cols, tuple(algebra.kernel_basis(coeffs[0], ncols=n_cols))), steps)


def _integer_rows(m: PolyMatrix, curve: Curve, vars: Sequence[str]) -> list[list[list[int]]]:
    """M(x(t)) with entry (i, j) the list of its t-coefficients, lowest power
    first, and each row scaled by one positive integer to clear denominators.

    Coordinate i of the curve (``Curve.coeffs[i]``) is substituted for
    ``vars[i]``, and each entry's variables are looked up by name, as
    ``Polynomial.subs`` does.  Each power of a coordinate and each
    monomial's image is computed once, as integer coefficients over one
    denominator.
    """
    if len(vars) != len(curve.coeffs):
        raise ValueError("curve dimension mismatch")
    powers: dict[str, list[tuple[list[int], int]]] = {}
    for v, coeffs in zip(vars, curve.coeffs):
        den = lcm(*[a.denominator for a in coeffs])
        powers[v] = [([1], 1), ([a.numerator * (den // a.denominator) for a in coeffs], den)]
    monomials: dict[tuple[tuple[str, ...], tuple[int, ...]], tuple[list[int], int]] = {}

    def image(names: tuple[str, ...], exp: tuple[int, ...]) -> tuple[list[int], int]:
        key = (names, exp)
        if key not in monomials:
            ints, den = [1], 1
            for v, e in zip(names, exp):
                if not e:
                    continue
                table = powers[v]
                while len(table) <= e:
                    table.append((_mul(table[-1][0], table[1][0]), table[-1][1] * table[1][1]))
                ints, den = _mul(ints, table[e][0]), den * table[e][1]
            monomials[key] = (ints, den)
        return monomials[key]

    rows = []
    for poly_row in m:
        for names in {q.vars for q in poly_row}:
            missing = [v for v in names if v not in powers]
            if missing:
                raise ValueError(f"substitution misses variables {missing}")
        terms_row = [
            [(a.numerator, a.denominator, *image(q.vars, exp)) for exp, a in q.terms.items()] for q in poly_row
        ]
        scale = lcm(*[den * img_den for terms in terms_row for _, den, _, img_den in terms])
        row = []
        for terms in terms_row:
            entry = [0] * max((len(ints) for _, _, ints, _ in terms), default=0)
            for num, den, ints, img_den in terms:
                f = num * (scale // (den * img_den))
                for d, b in enumerate(ints):
                    entry[d] += f * b
            while entry and not entry[-1]:
                entry.pop()
            row.append(entry)
        rows.append(row)
    return rows


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two coefficient lists, lowest power first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _horner(entry: Sequence[int], t: int) -> int:
    """Value at t of a coefficient list, lowest power first."""
    value = 0
    for a in reversed(entry):
        value = value * t + a
    return value


# ---------------------------------------------------------------------------
# Float-side metric
# ---------------------------------------------------------------------------


def subspace_distance(v: Subspace, w: Subspace) -> float:
    """Largest principal angle between two subspaces of equal dimension."""
    if v.ambient_dim != w.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if v.dim != w.dim:
        raise ValueError("subspace dimension mismatch")
    return principal_angle(v.basis_floats(), w.basis_floats())


def point_distance(v: Subspace, x: Sequence[float]) -> float:
    """Euclidean distance from the float vector x to the subspace."""
    import numpy as np

    x = np.asarray([float(c) for c in x], dtype=float)
    if v.dim == 0:
        return float(np.linalg.norm(x))
    q, _ = np.linalg.qr(v.basis_floats().T)
    return float(np.linalg.norm(x - q @ (q.T @ x)))


def principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between the row spans of two float matrices
    with independent rows, the same number of each."""
    import numpy as np

    if len(a) == 0:
        return 0.0
    q1, _ = np.linalg.qr(a.T)
    q2, _ = np.linalg.qr(b.T)
    sigma = np.linalg.svd(q1.T @ q2, compute_uv=False)
    smin = float(np.clip(sigma.min(), -1.0, 1.0))
    return float(np.arccos(smin))
