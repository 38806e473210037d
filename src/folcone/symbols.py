"""Operator words, their realization as differential operators, and symbols.

Formal elements are sums of words f(x) * g_{i1}. ... .g_{ik}.  The product of
two elements rewrites coefficients to the left through the module relation
a.(f b) = (f a).b + X_a[f] b, so realization is an algebra morphism onto
composed differential operators in normal form (coefficients left, partial
derivatives right).

Symbols are polynomials on A*, the dual of the holonomy Lie algebroid: a
plain ``Polynomial`` over the base variables followed by one fiber
coordinate per generator, named by ``expr.with_fiber``.  The top symbol of
an element of degree k replaces each letter with the commuting fiber
variable xi_i; restricted to a sampled cone fiber it depends only on the
realized operator, which the test suites check exactly.  The classical
principal symbol lives on T*M in the same layout, with fiber coordinates
eta_1..eta_n, and the pullback identity between the two is one
substitution xi = rho(x)^T eta.

numpy is imported only where floats are computed: the pencil eigenvalues and
the sphere sampling of ``ellipticity_check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from . import algebra
from .expr import OperatorWord, Polynomial, PolyVectorField, merge_words, with_fiber
from .foliation import FoliationPresentation
from .grassmann import Subspace
from .hncone import curve_family, hn_fiber

if TYPE_CHECKING:
    import numpy as np


class OddDegreeWarning(ValueError):
    """Positivity verdicts need an even degree; the nonvanishing convention judges |symbol|."""


# ---------------------------------------------------------------------------
# Formal elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UEAElement:
    """A merged, canonically ordered list of operator words."""

    vars: tuple[str, ...]
    words: tuple[OperatorWord, ...]

    @classmethod
    def from_words(cls, words: Sequence[OperatorWord], vars: Sequence[str]) -> "UEAElement":
        return cls(tuple(vars), tuple(merge_words(words, vars)))

    @property
    def degree(self) -> int:
        return max((len(w.letters) for w in self.words), default=0)

    def is_zero(self) -> bool:
        return not self.words

    def __add__(self, other: "UEAElement") -> "UEAElement":
        if self.vars != other.vars:
            raise ValueError("variable-set mismatch")
        return UEAElement.from_words(self.words + other.words, self.vars)

    def __sub__(self, other: "UEAElement") -> "UEAElement":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "UEAElement":
        if isinstance(c, Polynomial):
            scaled = [OperatorWord(c * w.coefficient, w.letters) for w in self.words]
        else:
            scaled = [OperatorWord(w.coefficient * Fraction(c), w.letters) for w in self.words]
        return UEAElement.from_words(scaled, self.vars)


def uea_product(p: FoliationPresentation, a: UEAElement, b: UEAElement) -> UEAElement:
    """Product in the enveloping algebra modulo the module relation.

    Words multiply by moving the right factor's coefficient to the left:
    (f, u+[i]) * (g, w)  ->  (f, u) * (g, [i]+w)  +  (f, u) * (X_i[g], w).
    """
    if a.vars != b.vars or a.vars != p.vars:
        raise ValueError("variable-set mismatch")
    out: list[OperatorWord] = []

    def word_product(f: Polynomial, u: tuple[int, ...], g: Polynomial, w: tuple[int, ...]):
        if f.is_zero() or g.is_zero():
            return
        if not u:
            out.append(OperatorWord(f * g, w))
            return
        head, last = u[:-1], u[-1]
        word_product(f, head, g, (last,) + w)
        word_product(f, head, p.generators[last].apply_to(g), w)

    for wa in a.words:
        for wb in b.words:
            word_product(wa.coefficient, wa.letters, wb.coefficient, wb.letters)
    return UEAElement.from_words(out, a.vars)


# ---------------------------------------------------------------------------
# Differential operators in normal form
# ---------------------------------------------------------------------------


class DiffOperator:
    """sum_alpha f_alpha(x) * d^alpha, canonical: no zero coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms=None):
        self.vars = tuple(vars)
        clean: dict[tuple[int, ...], Polynomial] = {}
        if terms:
            for alpha, f in terms.items():
                if not f.is_zero():
                    alpha = tuple(alpha)
                    clean[alpha] = clean[alpha] + f if alpha in clean else f
        self.terms = {a: f for a, f in clean.items() if not f.is_zero()}

    @classmethod
    def identity(cls, vars: Sequence[str]) -> "DiffOperator":
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): Polynomial.one(vars)})

    @property
    def order(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, DiffOperator)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        if self.vars != other.vars:
            raise ValueError("variable-set mismatch")
        terms = dict(self.terms)
        for a, f in other.terms.items():
            terms[a] = terms[a] + f if a in terms else f
        return DiffOperator(self.vars, terms)

    def scale(self, f: Polynomial) -> "DiffOperator":
        return DiffOperator(self.vars, {a: f * g for a, g in self.terms.items()})

    def field_compose_left(self, x_field: PolyVectorField) -> "DiffOperator":
        """X o D for a vector field X = sum g_i d_i."""
        terms: dict[tuple[int, ...], Polynomial] = {}

        def add(alpha, f):
            if f.is_zero():
                return
            terms[alpha] = terms[alpha] + f if alpha in terms else f

        for alpha, h in self.terms.items():
            for i, (name, g) in enumerate(zip(self.vars, x_field.components)):
                if g.is_zero():
                    continue
                add(alpha, g * h.diff(name))
                bumped = list(alpha)
                bumped[i] += 1
                add(tuple(bumped), g * h)
        return DiffOperator(self.vars, terms)

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """self o other, renormalized."""
        if self.vars != other.vars:
            raise ValueError("variable-set mismatch")
        result = DiffOperator(self.vars, {})
        for alpha, f in self.terms.items():
            part = other
            for i, e in enumerate(alpha):
                for _ in range(e):
                    part = part._partial_left(i)
            result = result + part.scale(f)
        return result

    def _partial_left(self, i: int) -> "DiffOperator":
        terms: dict[tuple[int, ...], Polynomial] = {}

        def add(alpha, f):
            if f.is_zero():
                return
            terms[alpha] = terms[alpha] + f if alpha in terms else f

        name = self.vars[i]
        for alpha, g in self.terms.items():
            add(alpha, g.diff(name))
            bumped = list(alpha)
            bumped[i] += 1
            add(tuple(bumped), g)
        return DiffOperator(self.vars, terms)

    def apply(self, f: Polynomial) -> Polynomial:
        if f.vars != self.vars:
            raise ValueError("variable-set mismatch")
        out = Polynomial.zero(self.vars)
        for alpha, coeff in self.terms.items():
            g = f
            for name, e in zip(self.vars, alpha):
                for _ in range(e):
                    g = g.diff(name)
                    if g.is_zero():
                        break
            if not g.is_zero():
                out = out + coeff * g
        return out

    def __repr__(self):
        if not self.terms:
            return "DiffOperator(0)"
        bits = []
        for alpha in sorted(self.terms, key=lambda a: (sum(a), a), reverse=True):
            d = "".join(f" d{v}^{e}" if e > 1 else f" d{v}" for v, e in zip(self.vars, alpha) if e)
            bits.append(f"({self.terms[alpha]}){d}")
        return "DiffOperator(" + " + ".join(bits) + ")"


def realize(element: UEAElement, p: FoliationPresentation) -> DiffOperator:
    """Algebra morphism: compose the generator fields of each word, in order."""
    if element.vars != p.vars:
        raise ValueError("variable-set mismatch")
    total = DiffOperator(p.vars, {})
    for w in element.words:
        op = DiffOperator.identity(p.vars)
        for letter in reversed(w.letters):
            if letter < 0 or letter >= p.num_generators:
                raise ValueError(f"unknown generator index {letter}")
            op = op.field_compose_left(p.generators[letter])
        total = total + op.scale(w.coefficient)
    return total


# ---------------------------------------------------------------------------
# Symbols: polynomials on A* and on T*M
# ---------------------------------------------------------------------------


def symbol_top(element: UEAElement, k: int | None = None, fiber_dim: int | None = None) -> Polynomial:
    """Top symbol on A*, over the base variables and xi_1..xi_N: words of
    length k contribute coeff(x) * xi_{i1}...xi_{ik}."""
    if k is None:
        k = element.degree
    if fiber_dim is None:
        fiber_dim = max((max(w.letters) + 1 for w in element.words if w.letters), default=0)
    n = len(element.vars)
    names = with_fiber(element.vars, "xi", fiber_dim)
    sigma = Polynomial.zero(names)
    for w in element.words:
        if len(w.letters) != k:
            continue
        exp = [0] * len(names)
        for letter in w.letters:
            if letter >= fiber_dim:
                raise ValueError("letter outside the declared fiber dimension")
            exp[n + letter] += 1
        sigma = sigma + w.coefficient.lift(names) * Polynomial.monomial(exp, 1, names)
    return sigma


def classical_principal_symbol(d: DiffOperator, k: int | None = None) -> Polynomial:
    """sum_{|alpha| = k} f_alpha(x) eta^alpha from the normal form, over the
    base variables and eta_1..eta_n."""
    if k is None:
        k = d.order
    names = with_fiber(d.vars, "eta", len(d.vars))
    return Polynomial(
        names, {e + alpha: c for alpha, f in d.terms.items() if sum(alpha) == k for e, c in f.terms.items()}
    )


def symbol_on_fiber(sigma: Polynomial, m: Sequence, v_dual: Subspace) -> Polynomial:
    """Restrict to a covector space: substitute x = m and xi = B^T u for the
    canonical basis B of the space; returns an exact polynomial in u_1..u_r."""
    if len(sigma.vars) - len(m) != v_dual.ambient_dim:
        raise ValueError("fiber dimension mismatch")
    r = v_dual.dim
    u_vars = tuple(f"u{a+1}" for a in range(r))
    unit = [tuple(int(a == b) for b in range(r)) for a in range(r)]
    xi = [
        Polynomial(u_vars, {unit[a]: row[j] for a, row in enumerate(v_dual.basis)})
        for j in range(v_dual.ambient_dim)
    ]
    x = [Polynomial.const(c, u_vars) for c in m]
    return sigma.subs(dict(zip(sigma.vars, x + xi)))


# ---------------------------------------------------------------------------
# Pullback along the transposed anchor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PullbackReport:
    """sigma_cl(x, eta) - sigma_top(x, rho(x)^T eta) in Q[x, eta]."""

    defect: Polynomial

    @property
    def ok(self) -> bool:
        return self.defect.is_zero()


def pullback_defect(top: Polynomial, classical: Polynomial, p: FoliationPresentation) -> Polynomial:
    """``classical`` minus ``top`` pulled back along rho^T, in Q[x, eta]: one
    substitution of xi_j = sum_l X_j^l(x) eta_l into the top symbol, so the
    difference is 0 exactly when the identity holds at every point and
    covector."""
    names = classical.vars
    x = [Polynomial.var(v, names) for v in names[: p.dim]]
    eta = [Polynomial.var(v, names) for v in names[p.dim :]]
    xi = [
        sum((comp.lift(names) * eta_l for comp, eta_l in zip(g.components, eta)), Polynomial.zero(names))
        for g in p.generators
    ]
    return classical - top.subs(dict(zip(top.vars, x + xi)))


def pullback_consistency(element: UEAElement, p: FoliationPresentation) -> PullbackReport:
    """The identity sigma_cl(x, eta) = sigma_top(x, rho(x)^T eta) between the
    classical symbol of the realization and the top symbol, exactly in
    Q[x, eta]."""
    k = element.degree
    top = symbol_top(element, k, fiber_dim=p.num_generators)
    return PullbackReport(pullback_defect(top, classical_principal_symbol(realize(element, p), k), p))


# ---------------------------------------------------------------------------
# Longitudinal ellipticity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberVerdict:
    space: Subspace
    min_value: float
    exact_min: Fraction | None
    restricted_zero: bool
    positive: bool


@dataclass(frozen=True)
class PointVerdict:
    point: tuple[Fraction, ...]
    fibers: tuple[FiberVerdict, ...]
    elliptic: bool
    witness: Subspace | None  # a fiber space violating positivity, if any


@dataclass(frozen=True)
class EllipticityReport:
    degree: int
    tolerance: float
    points: tuple[PointVerdict, ...]

    @property
    def elliptic(self) -> bool:
        return all(pv.elliptic for pv in self.points)


def _gram_of_quadratic(q: Polynomial, r: int) -> list[list[Fraction]]:
    g = [[Fraction(0)] * r for _ in range(r)]
    for exp, c in q.terms.items():
        idx = [i for i, e in enumerate(exp) for _ in range(e)]
        if len(idx) != 2:
            raise ValueError("not a quadratic form")
        a, b = idx
        if a == b:
            g[a][a] += c
        else:
            g[a][b] += c / 2
            g[b][a] += c / 2
    return g


def _gram(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """The Gram matrix of the rows, exactly: each row's nonzero support is
    read once, and only the columns where two supports overlap are
    multiplied."""
    supports = [{j: x for j, x in enumerate(row) if x} for row in rows]
    gram = [[Fraction(0)] * len(rows) for _ in rows]
    for a, sa in enumerate(supports):
        for b in range(a, len(rows)):
            sb = supports[b]
            gram[a][b] = gram[b][a] = sum((x * sb[j] for j, x in sa.items() if j in sb), Fraction(0))
    return gram


def _positive_definite(m: list[list[Fraction]]) -> bool:
    """Sylvester's criterion by one elimination pass without pivoting: the
    k-th leading minor of a symmetric matrix is the product of the first k
    pivots, so it is positive definite exactly when every pivot is > 0."""
    m = [list(row) for row in m]
    n = len(m)
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return True


def _pencil_eigenvalues(g: list[list[Fraction]], gram: list[list[Fraction]]) -> list[float]:
    """Float eigenvalues of the pencil (G, M), ascending, by a Cholesky
    reduction of M."""
    import numpy as np

    g_np = np.array([[float(x) for x in row] for row in g])
    m_np = np.array([[float(x) for x in row] for row in gram])
    inv = np.linalg.inv(np.linalg.cholesky(m_np))
    reduced = inv @ g_np @ inv.T
    return np.linalg.eigvalsh((reduced + reduced.T) / 2).tolist()


def _pencil_minimum(
    g: list[list[Fraction]], gram: list[list[Fraction]], tol: Fraction
) -> tuple[float, Fraction | None, bool]:
    """(float min, exact min or None, verdict min > tol).

    Minimizes u^T G u over the ellipsoid u^T M u = 1 (M = Gram of the basis),
    i.e. the smallest generalized eigenvalue of (G, M).  M is positive
    definite, so the pencil diagonalizes: c is an eigenvalue of multiplicity
    r - rank(G - cM).  Each float eigenvalue is snapped with
    ``limit_denominator`` at the bounds 10^0 ... 10^15 in turn, and a snap is
    kept only while it has been kept fewer times than that multiplicity, so
    every kept root is exact.  The exact min is the smallest root when every
    root is recovered, else None.  The verdict is Sylvester's criterion on
    G - tol M (``_positive_definite``): the smallest eigenvalue exceeds tol
    exactly when G - tol M is positive definite.
    """
    r = len(g)
    eigenvalues = _pencil_eigenvalues(g, gram)
    roots: list[Fraction] | None = []
    for value in eigenvalues:
        for bound in (10**e for e in range(16)):
            cand = Fraction(value).limit_denominator(bound)
            nullity = r - algebra.rank([[a - cand * b for a, b in zip(*rows)] for rows in zip(g, gram)])
            if roots.count(cand) < nullity:
                roots.append(cand)
                break
        else:
            roots = None
            break
    exact_min = min(roots) if roots else None
    float_min = float(exact_min) if exact_min is not None else min(eigenvalues)
    shifted = [[a - tol * b for a, b in zip(*rows)] for rows in zip(g, gram)]
    return float_min, exact_min, _positive_definite(shifted)


def ellipticity_check(
    element: UEAElement,
    p: FoliationPresentation,
    points: Sequence[Sequence],
    *,
    tolerance: float = 1e-9,
    sphere_samples: int = 8,
    seed: int = 0,
    direction_count: int | None = None,
    arc_degree: int = 2,
    convention: str = "positive",
) -> EllipticityReport:
    """Minimize the restricted symbol on the unit sphere of each sampled
    cone fiber space; elliptic at a point iff every minimum exceeds tolerance.

    Quadratic symbols get an exact generalized-eigenvalue minimum (the sphere
    lives in the ambient covector space); higher even degrees use seeded
    sphere sampling with descent refinement.  ``convention`` is "positive"
    (strict positivity off the zero section) or "nonvanishing" (judge
    |symbol|, so negative-definite symbols also count as elliptic); odd
    degrees are only meaningful under "nonvanishing".
    """
    import numpy as np

    if convention not in ("positive", "nonvanishing"):
        raise ValueError("convention must be 'positive' or 'nonvanishing'")
    nonvanishing = convention == "nonvanishing"
    k = element.degree
    if k % 2 == 1 and not nonvanishing:
        raise OddDegreeWarning(
            "odd-degree symbol: strict positivity is inapplicable "
            "(use the nonvanishing convention to judge |symbol|)"
        )
    sigma = symbol_top(element, k, fiber_dim=p.num_generators)
    tol_exact = Fraction(tolerance).limit_denominator(10**12)
    verdicts = []
    for m in points:
        point = tuple(Fraction(x) for x in m)
        sample = hn_fiber(p, point, curve_family(point, direction_count, arc_degree, seed))
        form = _fiber_form(sigma, point) if k != 2 else None
        fibers = []
        for space in sample.spaces:
            restricted = symbol_on_fiber(sigma, point, space)
            if restricted.is_zero():
                fv = FiberVerdict(space, 0.0, Fraction(0), True, False)
            elif k == 2:
                gram_symbol = _gram_of_quadratic(restricted, space.dim)
                gram_basis = _gram(space.basis)
                fmin, emin, pos = _pencil_minimum(gram_symbol, gram_basis, tol_exact)
                if nonvanishing and not pos:
                    # negative-definite restrictions are nonvanishing too; the
                    # sphere minimum of |symbol| is then the pencil minimum of
                    # the negated form
                    neg = [[-x for x in row] for row in gram_symbol]
                    neg_fmin, neg_emin, neg_pos = _pencil_minimum(neg, gram_basis, tol_exact)
                    if neg_pos:
                        fmin, emin, pos = neg_fmin, neg_emin, True
                fv = FiberVerdict(space, fmin, emin, False, pos)
            else:
                # seeded sampling on the Euclidean unit sphere of the space
                q_ortho, _ = np.linalg.qr(space.basis_floats().T)
                fmin = _sphere_minimum_on_space(form, q_ortho, sphere_samples, seed, nonvanishing)
                fv = FiberVerdict(space, fmin, None, False, fmin > tolerance)
            fibers.append(fv)
        # prefer a vanishing-restriction witness when reporting failure
        failing = [fv for fv in fibers if not fv.positive]
        witness = None
        if failing:
            witness = next((fv.space for fv in failing if fv.restricted_zero), failing[0].space)
        verdicts.append(PointVerdict(point, tuple(fibers), witness is None, witness))
    return EllipticityReport(k, tolerance, tuple(verdicts))


def _fiber_form(sigma: Polynomial, m: Sequence[Fraction]) -> list[tuple[tuple[int, ...], float]]:
    """sigma at the base point m: its fiber exponents in sorted order, each
    with the float coefficient at m summed over its base terms in term order."""
    n = len(m)
    mf = [float(x) for x in m]
    coeffs: dict[tuple[int, ...], float] = {}
    for exp, c in sigma.terms.items():
        term = float(c)
        for v, e in zip(mf, exp[:n]):
            if e:
                term *= v ** e
        coeffs[exp[n:]] = coeffs.get(exp[n:], 0.0) + term
    return sorted(coeffs.items())


def _sphere_minimum_on_space(
    form: list[tuple[tuple[int, ...], float]],
    q_ortho: np.ndarray,
    samples: int,
    seed: int,
    use_abs: bool,
) -> float:
    import numpy as np

    def value(xi: np.ndarray) -> float:
        total = 0.0
        for exp, coeff in form:
            term = coeff
            for v, e in zip(xi, exp):
                if e:
                    term *= v ** e
            total += term
        return abs(total) if use_abs else total

    r = q_ortho.shape[1]
    rng = np.random.default_rng(seed)
    count = max(10 * r * samples, 8)
    best = float("inf")
    best_c = None
    for _ in range(count):
        c = rng.normal(size=r)
        norm = np.linalg.norm(c)
        if norm == 0:
            continue
        c = c / norm
        xi = q_ortho @ c
        val = value(xi)
        if val < best:
            best, best_c = val, c
    if best_c is None:
        return 0.0
    # light descent refinement with numeric gradients
    c = best_c
    step = 0.1
    eps = 1e-6
    for _ in range(100):
        grad = np.zeros(r)
        base = value(q_ortho @ c)
        for i in range(r):
            cc = c.copy()
            cc[i] += eps
            cc = cc / np.linalg.norm(cc)
            grad[i] = (value(q_ortho @ cc) - base) / eps
        if np.linalg.norm(grad) < 1e-12:
            break
        cand = c - step * grad
        cand = cand / np.linalg.norm(cand)
        val = value(q_ortho @ cand)
        if val < best:
            best, c = val, cand
        else:
            step *= 0.5
            if step < 1e-10:
                break
    return float(best)
