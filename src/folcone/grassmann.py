"""Canonical linear subspaces, Pluecker coordinates, and exact Grassmannian limits.

A ``Subspace`` is stored by its reduced-echelon basis, which is a complete
invariant; the normalized Pluecker vector (primitive integers, first nonzero
entry positive) is computed lazily from it and is the second complete
invariant used in reports and in limit reconstruction.  All C(N,k)
coordinates come from one shared-minor pass (``algebra.maximal_minors``) over
the basis rows scaled to primitive integers; when 2k > N the pass runs on the
annihilator, whose N - k rows read off the echelon basis, and the
coordinates follow from p_S(V) = ±p_{S^c}(V°).

Limits of kernels along polynomial arcs t -> x(t) are computed exactly:
substitute the arc, take a polynomial basis of the relevant space over Q(t),
form its Pluecker vector (a polynomial vector in t, from the same shared-minor
pass over Q[t]), strip the common power
of t, and read off the value at t = 0.  The limit of the kernel family is
computed on whichever side of the annihilator duality is smaller (kernel of
the matrix, or its row space), which give the same subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from . import algebra
from .algebra import PolyMatrix, Vec
from .expr import Polynomial


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
    """

    __slots__ = ("ambient_dim", "basis", "_plucker")

    def __init__(self, ambient_dim: int, basis: tuple[Vec, ...]):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._plucker: tuple[Fraction, ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def plucker(self) -> tuple[Fraction, ...]:
        if self._plucker is None:
            self._plucker = normalize_plucker(plucker_of_basis(self.basis, self.ambient_dim))
        return self._plucker

    def reduce(self, v: Sequence) -> list[Fraction]:
        """Remainder of v modulo the reduced-echelon basis: v minus, for each
        row, v's entry at the row's pivot column times the row.  It is zero at
        every pivot column, and zero exactly when v lies in the subspace."""
        r = algebra.fracs(v)
        if len(r) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        for row in self.basis:
            lead = next(i for i, x in enumerate(row) if x != 0)
            f = r[lead]
            if f != 0:
                r = [a - f * b for a, b in zip(r, row)]
        return r

    def contains_vector(self, v: Sequence) -> bool:
        return not any(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector(v) for v in other.basis)

    def basis_floats(self) -> np.ndarray:
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
    n = v.ambient_dim
    if v.dim == 0:
        return make_subspace([tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)], n)
    rows = algebra.kernel_basis([list(r) for r in v.basis], ncols=n)
    return Subspace(n, tuple(rows))


# ---------------------------------------------------------------------------
# Pluecker coordinates
# ---------------------------------------------------------------------------


def plucker_of_basis(basis: Sequence[Sequence[Fraction]], ambient_dim: int) -> tuple[int, ...]:
    """Integer vector proportional to the Pluecker vector of the rows' span.

    Coordinates follow the lexicographic column subsets; all vanish when the
    rows are dependent.  Each row is scaled to primitive integers
    (``algebra.primitive``) and every minor comes from one shared-minor pass
    (``algebra.maximal_minors``); a row scale of either sign multiplies all
    minors by one scalar.
    When 2k > N the pass runs on the smaller annihilator V° instead, whose
    standard basis reads off the reduced echelon form of the rows, and
    p_S(V) = eps(S) p_{S^c}(V°) with eps(S) = (-1)^(sum(S) - k(k-1)/2), up to
    one nonzero scalar.  ``normalize_plucker`` removes that scalar.
    """
    k = len(basis)
    if 2 * k <= ambient_dim:
        return tuple(algebra.maximal_minors([algebra.primitive(r) for r in basis], ambient_dim))
    red, pivots = algebra.rref(basis)
    if len(pivots) < k:
        return (0,) * comb(ambient_dim, k)
    dual = [algebra.primitive(v) for v in algebra.standard_kernel_vectors(red, pivots, ambient_dim)]
    # complementing the subsets reverses their lexicographic order
    dual_minors = reversed(algebra.maximal_minors(dual, ambient_dim))
    shift = k * (k - 1) // 2
    return tuple(
        -q if (sum(cols) - shift) & 1 else q
        for cols, q in zip(combinations(range(ambient_dim), k), dual_minors)
    )


def normalize_plucker(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale to primitive integers with the first nonzero entry positive."""
    ints = algebra.primitive(vec)
    if not any(ints):
        raise ZeroPluckerLimit("all Pluecker coordinates vanish")
    return tuple(Fraction(n) for n in ints)


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

_T_VARS = ("t",)


@dataclass(frozen=True)
class Curve:
    """A polynomial arc t -> x(t) in the base, with x(0) = center."""

    center: tuple[Fraction, ...]
    components: tuple[Polynomial, ...]
    label: str = ""

    def __post_init__(self):
        for m_i, comp in zip(self.center, self.components):
            if comp.vars != _T_VARS:
                raise ValueError("curve components must be univariate in t")
            if comp.constant_term() != m_i:
                raise ValueError("curve does not start at its center")

    @staticmethod
    def constant(m: Sequence) -> "Curve":
        center = tuple(Fraction(x) for x in m)
        comps = tuple(Polynomial.const(c, _T_VARS) for c in center)
        return Curve(center, comps, "constant")

    @staticmethod
    def ray(m: Sequence, d: Sequence, label: str | None = None) -> "Curve":
        center = tuple(Fraction(x) for x in m)
        dd = tuple(Fraction(x) for x in d)
        comps = tuple(
            Polynomial.const(c, _T_VARS) + Polynomial.monomial((1,), v, _T_VARS)
            for c, v in zip(center, dd)
        )
        return Curve(center, comps, label or f"ray d=({','.join(str(x) for x in dd)})")

    @staticmethod
    def arc(m: Sequence, d: Sequence, e: Sequence, power: int = 2, label: str | None = None) -> "Curve":
        center = tuple(Fraction(x) for x in m)
        dd = tuple(Fraction(x) for x in d)
        ee = tuple(Fraction(x) for x in e)
        comps = tuple(
            Polynomial.const(c, _T_VARS)
            + Polynomial.monomial((1,), v, _T_VARS)
            + Polynomial.monomial((power,), w, _T_VARS)
            for c, v, w in zip(center, dd, ee)
        )
        return Curve(
            center,
            comps,
            label
            or f"arc d=({','.join(str(x) for x in dd)}) e=({','.join(str(x) for x in ee)}) pow={power}",
        )

    def is_constant(self) -> bool:
        return all(c.total_degree() <= 0 for c in self.components)

    def eval(self, t) -> tuple[Fraction, ...]:
        return tuple(c.eval([t]) for c in self.components)

    def substitution(self, vars: Sequence[str]) -> dict[str, Polynomial]:
        if len(vars) != len(self.components):
            raise ValueError("curve dimension mismatch")
        return dict(zip(vars, self.components))


# ---------------------------------------------------------------------------
# Exact limits along curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitDetail:
    """Full record of one limit computation (used by the float cross-check)."""

    limit: Subspace                       # limit of the kernel family
    side: str                             # "kernel" or "image"
    side_dim: int                         # dimension of the space the Pluecker data describes
    plucker_polys: tuple[Polynomial, ...]  # un-normalized Pluecker vector in t
    valuation: int                        # common power of t removed
    side_limit_plucker: tuple[Fraction, ...]  # normalized exact limit on that side


def _poly_rows_pluecker(rows: Sequence[Sequence[Polynomial]], n_cols: int) -> tuple[Polynomial, ...]:
    if not rows:
        return (Polynomial.one(_T_VARS),)
    return tuple(algebra.maximal_minors(rows, n_cols))


def limit_along_curve_detailed(
    m: PolyMatrix, curve: Curve, expected_dim: int, vars: Sequence[str] | None = None
) -> LimitDetail:
    """Exact limit of ker M(x(t)) as t -> 0, with the Pluecker polynomials.

    The curve must be generically regular: the kernel of M(x(t)) over Q(t)
    must have dimension exactly ``expected_dim``; otherwise CurveNotGeneric.
    """
    if vars is None:
        if not m or not m[0]:
            raise ValueError("cannot infer variables from an empty matrix")
        vars = m[0][0].vars
    sub = curve.substitution(vars)
    m_t = algebra.subs_poly_matrix(m, sub)
    n_cols = len(m_t[0]) if m_t else 0
    needed_rank = n_cols - expected_dim
    if needed_rank < 0:
        raise CurveNotGeneric(f"expected_dim {expected_dim} exceeds ambient {n_cols}")

    if expected_dim <= needed_rank:
        rows = algebra.kernel_basis_over_curve(m_t)
        if len(rows) != expected_dim:
            raise CurveNotGeneric(
                f"kernel over Q(t) has dimension {len(rows)}, expected {expected_dim} ({curve.label})"
            )
        side = "kernel"
        side_dim = expected_dim
    else:
        ech, pivot_cols, _ = algebra.bareiss_echelon(m_t)
        if len(pivot_cols) != needed_rank:
            raise CurveNotGeneric(
                f"rank over Q(t) is {len(pivot_cols)}, expected {needed_rank} ({curve.label})"
            )
        rows = [algebra.normalize_poly_vector(r) for r in ech]
        side = "image"
        side_dim = needed_rank

    pl = _poly_rows_pluecker(rows, n_cols)
    vals = [algebra.t_valuation(p) for p in pl]
    nz_vals = [v for v in vals if v is not None]
    if not nz_vals:
        raise ZeroPluckerLimit(f"Pluecker polynomial vanished identically ({curve.label})")
    v0 = min(nz_vals)
    shifted = [algebra.t_shift_down(p, v0) if not p.is_zero() else p for p in pl]
    limit_vec = [p.constant_term() for p in shifted]
    side_plucker = normalize_plucker(limit_vec)
    side_space = reconstruct_from_plucker(side_plucker, n_cols, side_dim)
    limit = side_space if side == "kernel" else annihilator(side_space)
    return LimitDetail(limit, side, side_dim, pl, v0, side_plucker)


def limit_along_curve(
    m: PolyMatrix, curve: Curve, expected_dim: int, vars: Sequence[str] | None = None
) -> Subspace:
    """lim_{t->0} ker M(x(t)), an exact subspace of dimension expected_dim."""
    return limit_along_curve_detailed(m, curve, expected_dim, vars).limit


# ---------------------------------------------------------------------------
# Float-side metric
# ---------------------------------------------------------------------------


def subspace_distance(v: Subspace, w: Subspace) -> float:
    """Largest principal angle between two subspaces of equal dimension."""
    if v.ambient_dim != w.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if v.dim != w.dim:
        raise ValueError("subspace dimension mismatch")
    if v.dim == 0:
        return 0.0
    q1, _ = np.linalg.qr(v.basis_floats().T)
    q2, _ = np.linalg.qr(w.basis_floats().T)
    sigma = np.linalg.svd(q1.T @ q2, compute_uv=False)
    smin = float(np.clip(sigma.min(), -1.0, 1.0))
    return float(np.arccos(smin))
