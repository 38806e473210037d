"""Foliation presentations, pointwise kernels, strong kernels, isotropy algebras.

A presentation is an immutable anchored module of polynomial vector fields:
generators X_1..X_N over base variables x_1..x_n.  It owns its structure
functions c with [X_i, X_j] = sum_k c_ij^k X_k as exact polynomial
identities: either the ones given in the input, validated on construction,
or the ones ``solve_structure_functions`` finds at the default degree bound,
solved on first use and memoised like the anchor and the generic rank.

The strong kernel at a point m is approximated by degree-bounded syzygies:
values f(m) of polynomial vectors f with sum_j f_j X_j = 0 identically and
deg f <= D.  The approximation is certified equal to the strong kernel at a
regular point when D >= r * (max generator degree), r the generic rank, and
at a homogeneous centre when D >= s, the spread of the column degrees there
(``strong_kernel_at``); elsewhere it is not certified.  The isotropy algebra
at m is ker(anchor at m) modulo that approximation, with the bracket induced
by constant-coefficient lifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Collection, Sequence

from . import algebra
from .algebra import Matrix, PolyMatrix, Vec
from .expr import Polynomial, PolyVectorField
from .grassmann import Subspace, make_subspace


class MissingStructureFunctions(RuntimeError):
    """Raised when an operation needs structure functions that are absent."""


StructureArray = tuple[tuple[tuple[Polynomial, ...], ...], ...]  # c[i][j] = vector over generators


@dataclass(frozen=True)
class Structure:
    """Structure functions c[i][j][k] = c_ij^k, with the degree bound their
    solve needed (None when they were given)."""

    functions: StructureArray
    bound_used: int | None = None


@dataclass(frozen=True)
class FoliationPresentation:
    """Generators of a polynomial singular foliation, as an anchored bundle."""

    vars: tuple[str, ...]
    generators: tuple[PolyVectorField, ...]
    given_structure: StructureArray | None = None
    name: str = ""
    # anchor, generic rank and structure, each computed on first use
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.vars != self.vars:
                raise ValueError("generator over wrong variable set")
        if self.given_structure is not None:
            object.__setattr__(self, "given_structure", _normalize_structure(self))
            err = structure_defect(self)
            if err is not None:
                raise ValueError(err)

    def _memoised(self, key: str, compute: Callable):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- basic data ---------------------------------------------------------

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def dim(self) -> int:
        return len(self.vars)

    def max_generator_degree(self) -> int:
        return max((g.max_degree() for g in self.generators), default=0)

    def anchor(self) -> PolyMatrix:
        return self._memoised("anchor", lambda: anchor_matrix(self))

    def anchor_at(self, m: Sequence) -> Matrix:
        return algebra.eval_poly_matrix(self.anchor(), m)

    def generic_rank(self) -> int:
        return self._memoised("generic_rank", lambda: algebra.generic_rank(self.anchor()))

    def bracket(self, i: int, j: int) -> PolyVectorField:
        return algebra.lie_bracket(self.generators[i], self.generators[j])

    def structure(self) -> Structure | None:
        """The given structure functions, else those solved at the default
        bound on first use; None when no solution exists within it."""

        def resolve() -> Structure | None:
            if self.given_structure is not None:
                return Structure(self.given_structure)
            return solve_structure_functions(self)

        return self._memoised("structure", resolve)

    def has_structure(self) -> bool:
        return self.structure() is not None

    def require_structure(self, what: str) -> StructureArray:
        """The structure functions, or MissingStructureFunctions saying ``what`` needs them."""
        s = self.structure()
        if s is None:
            raise MissingStructureFunctions(f"{what} needs structure functions")
        return s.functions


def _normalize_structure(p: FoliationPresentation) -> StructureArray:
    n = p.num_generators
    c = p.given_structure
    if len(c) != n or any(len(row) != n for row in c):
        raise ValueError("structure array must be N x N")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            vec = tuple(c[i][j])
            if len(vec) != n:
                raise ValueError("structure vectors must have one entry per generator")
            row.append(vec)
        out.append(tuple(row))
    return tuple(out)


def structure_defect(p: FoliationPresentation) -> str | None:
    """None when the presentation's structure functions satisfy all identities exactly."""
    c = p.require_structure("structure_defect")
    n = p.num_generators
    zero = Polynomial.zero(p.vars)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not (c[i][j][k] + c[j][i][k]).is_zero():
                    return f"structure functions not antisymmetric at ({i},{j},{k})"
    for i in range(n):
        for j in range(i + 1, n):
            combo = PolyVectorField(p.vars, tuple(zero for _ in p.vars))
            for k in range(n):
                if not c[i][j][k].is_zero():
                    combo = combo + c[i][j][k] * p.generators[k]
            diff = p.bracket(i, j) + (-1) * combo
            if not diff.is_zero():
                return (
                    f"identity fails for pair ({i},{j}): "
                    f"[X_{i+1},X_{j+1}] - sum_k c*X_k = {diff}"
                )
    return None


# ---------------------------------------------------------------------------
# Anchor and pointwise ranks
# ---------------------------------------------------------------------------


def anchor_matrix(p: FoliationPresentation) -> PolyMatrix:
    """n x N matrix whose j-th column holds generator j's components."""
    return [[g.components[i] for g in p.generators] for i in range(p.dim)]


def leaf_dimension_at(p: FoliationPresentation, m: Sequence) -> int:
    return algebra.rank(p.anchor_at(m))


def is_regular(p: FoliationPresentation, m: Sequence) -> bool:
    """Whether the anchor at m attains the generic rank."""
    return leaf_dimension_at(p, m) == p.generic_rank()


def kernel_at(p: FoliationPresentation, m: Sequence) -> Subspace:
    rows = algebra.kernel_basis(p.anchor_at(m), ncols=p.num_generators)
    return Subspace(p.num_generators, tuple(rows))


# ---------------------------------------------------------------------------
# Monomial bookkeeping
# ---------------------------------------------------------------------------


def monomials_up_to(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree <= degree, graded-lex ascending."""
    out: list[tuple[int, ...]] = []
    for d in range(degree + 1):
        out.extend(sorted(_monomials_of_degree(n_vars, d)))
    return out


def _monomials_of_degree(n_vars: int, d: int) -> list[tuple[int, ...]]:
    if n_vars == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        for rest in _monomials_of_degree(n_vars - 1, d - first):
            out.append((first,) + rest)
    return out


def default_strong_kernel_bound(p: FoliationPresentation) -> int:
    return max(p.max_generator_degree(), 0) + p.dim


# ---------------------------------------------------------------------------
# Degree-bounded module membership: strong kernels and structure functions
# ---------------------------------------------------------------------------


def _membership_rows(
    anchor: PolyMatrix,
    monos: Sequence[tuple[int, ...]],
    target: PolyVectorField | None = None,
    constants_last: bool = False,
) -> list[algebra.SparseRow]:
    """Sparse rows of sum_k f_k X_k = target, one per (component, monomial).

    ``anchor[l][k]`` is component l of X_k.  Unknown ``k * len(monos) + i`` is
    the coefficient of ``monos[i]`` in f_k, and the target's coefficients sit
    in column ``len(anchor[0]) * len(monos)``; without a target the system is
    homogeneous.  With ``constants_last`` the coefficients of the constant
    monomial ``monos[0]`` move to the last columns: f_k(0) is unknown
    ``N * (len(monos) - 1) + k``, N = ``len(anchor[0])``, and the other
    unknowns close up in order.
    """
    n_gens, n_monos = len(anchor[0]), len(monos)
    target_col = n_gens * n_monos
    if constants_last:
        cols = [
            [n_gens * (n_monos - 1) + k] + [k * (n_monos - 1) + i for i in range(n_monos - 1)]
            for k in range(n_gens)
        ]
    else:
        cols = [[k * n_monos + i for i in range(n_monos)] for k in range(n_gens)]
    equations: dict[tuple[int, tuple[int, ...]], algebra.SparseRow] = {}
    for l, comps in enumerate(anchor):
        for k, entry in enumerate(comps):
            for alpha, coeff in entry.terms.items():
                for col, mu in zip(cols[k], monos):
                    # alpha = beta - mu: each unknown meets each equation once
                    equations.setdefault((l, tuple(a + b for a, b in zip(alpha, mu))), {})[col] = coeff
        if target is not None:
            for alpha, coeff in target.components[l].terms.items():
                equations.setdefault((l, alpha), {})[target_col] = coeff
    return list(equations.values())


def strong_kernel_at(
    p: FoliationPresentation, m: Sequence, degree_bound: int | None = None, ker: Subspace | None = None
) -> Subspace:
    """span{ f(m) : deg f <= D, sum_j f_j X_j = 0 identically }.

    Monotone non-decreasing in D and always contained in ker(anchor at m),
    which the caller may pass as ``ker`` (it is computed otherwise).  The
    result is the full strong kernel, the union over all D, in two certified
    cases, and then it is found without a solve at D:

    (a) m is regular (rank r = generic rank) and D >= r * (max generator
        degree): the Cramer syzygies Delta e_k - sum_j Delta_j e_{i_j} have
        degree <= r * deg and their values span the kernel, so the result
        is ``ker`` and nothing is solved;
    (b) recentred at m, every nonzero column X_k is homogeneous of some
        degree d_k, and the spread s = max d_k - min d_k is <= D: syzygies
        are graded, and a homogeneous one with a nonzero value at m has
        every component of degree <= s, so the system is solved at s.

    Elsewhere the result at D is not certified equal to the strong kernel.
    The system is recentred at m so the evaluation is the constant coefficient,
    and the N constant coefficients are its last unknowns.  One forward
    elimination (``algebra.echelon``) then leaves them the rows whose lead is
    among them; those rows involve only the constants, and their kernel is
    the projection of the whole kernel onto the constants.
    """
    if degree_bound is None:
        degree_bound = default_strong_kernel_bound(p)
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    point = [Fraction(x) for x in m]
    big_n = p.num_generators
    if ker is None:
        ker = kernel_at(p, point)
    r = p.generic_rank()
    if big_n - ker.dim == r and degree_bound >= r * p.max_generator_degree():
        return ker
    shifted = [[entry.shift(point) for entry in row] for row in p.anchor()]
    spread = _degree_spread(shifted)
    if spread is not None:
        degree_bound = min(degree_bound, spread)
    monos = monomials_up_to(p.dim, degree_bound)
    first = big_n * (len(monos) - 1)
    rows = algebra.echelon(_membership_rows(shifted, monos, constants_last=True))
    tail = [{c - first: v for c, v in row.items()} for lead, row in rows.items() if lead >= first]
    values = algebra.kernel_vectors(algebra.sparse_rref(tail), big_n, range(big_n))
    return make_subspace(values, big_n)


def _degree_spread(anchor: PolyMatrix) -> int | None:
    """max d_k - min d_k when every nonzero column X_k of ``anchor`` is
    homogeneous of degree d_k (0 when every column is zero), else None."""
    degrees: set[int] = set()
    for column in zip(*anchor):
        column_degrees = {sum(e) for entry in column for e in entry.terms}
        if len(column_degrees) > 1:
            return None
        degrees |= column_degrees
    return max(degrees) - min(degrees) if degrees else 0


def solve_structure_functions(
    p: FoliationPresentation, degree_bound: int | None = None
) -> Structure | None:
    """Find c_ij^k (degree <= bound) with [X_i,X_j] = sum_k c X_k, or None.

    Bounds are tried in increasing order so that constant solutions are
    preferred when they exist; per-pair systems are solved independently and
    ties are broken by the canonical echelon solution.  The presentation is
    left as it is: ``p.structure()`` memoises this solve at the default bound.
    """
    if degree_bound is None:
        degree_bound = max(p.max_generator_degree(), 0)
    n, big_n = p.dim, p.num_generators
    zero = Polynomial.zero(p.vars)
    zero_row = tuple(zero for _ in range(big_n))
    c: list[list[tuple[Polynomial, ...] | None]] = [
        [None] * big_n for _ in range(big_n)
    ]
    for i in range(big_n):
        c[i][i] = zero_row
    bound_used = 0
    for i in range(big_n):
        for j in range(i + 1, big_n):
            bracket = p.bracket(i, j)
            sol = None
            for bound in range(degree_bound + 1):
                sol = _solve_membership(p, bracket, bound)
                if sol is not None:
                    bound_used = max(bound_used, bound)
                    break
            if sol is None:
                return None
            c[i][j] = sol
            c[j][i] = tuple(-q for q in sol)
    return Structure(tuple(tuple(row) for row in c), bound_used)  # type: ignore[arg-type]


def _solve_membership(
    p: FoliationPresentation, target: PolyVectorField, bound: int
) -> tuple[Polynomial, ...] | None:
    """Solve sum_k c_k X_k = target with deg c_k <= bound (canonical solution)."""
    monos = monomials_up_to(p.dim, bound)
    target_col = p.num_generators * len(monos)
    pivots = algebra.sparse_rref(_membership_rows(p.anchor(), monos, target))
    if target_col in pivots:
        return None
    # free unknowns are 0; a pivot unknown takes its row's target entry
    terms: list[dict] = [{} for _ in range(p.num_generators)]
    for col, row in pivots.items():
        if target_col in row:
            terms[col // len(monos)][monos[col % len(monos)]] = row[target_col]
    return tuple(Polynomial(p.vars, t) for t in terms)


def jacobi_flag(p: FoliationPresentation) -> bool:
    """True when the structure functions satisfy the Jacobi identity.

    The cyclic sum of [[e_i,e_j],e_k]-expansions through c and anchor
    derivatives must vanish identically; almost-Lie structures may fail this.
    The Jacobiator is alternating (given antisymmetric c), so distinct
    index triples suffice.  The sums run on coefficient maps (``terms``),
    and X_c[c_ab^m] is left out where c_ab^m is constant.

    A certificate comes first.  Since [X_a, X_b] = sum_l c_ab^l X_l holds
    exactly, the anchor maps the Jacobiator J of a triple to
    [[X_a,X_b],X_c] + cyclic = 0: J is a syzygy of the generators.  When
    every c_ab^l is constant, so is J, and when the generator fields are
    linearly independent over Q (one ``echelon`` of their coefficient rows
    has rank N), every J is 0 and the flag is True without the triple loop.
    Otherwise the loop decides.
    """
    c = p.require_structure("the Jacobi flag")
    n = p.num_generators
    constant = (0,) * p.dim
    if all(q.terms.keys() <= {constant} for a in range(n) for b in range(a + 1, n) for q in c[a][b]):
        if len(algebra.echelon(_membership_rows(p.anchor(), [constant]))) == n:
            return True
    nonzero = [
        [[(l, c[a][b][l].terms) for l in range(n) if c[a][b][l].terms] for b in range(n)]
        for a in range(n)
    ]
    varying = [
        [[(l, t) for l, t in row if len(t) > 1 or constant not in t] for row in rows] for rows in nonzero
    ]
    fields = [[comp.terms for comp in g.components] for g in p.generators]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc: list[dict] = [{} for _ in range(n)]
                for (a, b, cc) in ((i, j, k), (j, k, i), (k, i, j)):
                    # [[e_a,e_b],e_c] = sum_l c_ab^l [e_l,e_c] - X_c[c_ab^m] e_m
                    for l, cab_l in nonzero[a][b]:
                        for m_out, v in nonzero[l][cc]:
                            _add_product(acc[m_out], cab_l, v)
                    for m_out, cab_m in varying[a][b]:
                        _subtract_derivative(acc[m_out], fields[cc], cab_m)
                if any(any(q.values()) for q in acc):
                    return False
    return True


def _add_product(acc: dict, f: dict, g: dict) -> None:
    """acc += f * g on coefficient maps."""
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2


def _subtract_derivative(acc: dict, field: Sequence[dict], f: dict) -> None:
    """acc -= X[f] = sum_i X_i * df/dx_i on coefficient maps."""
    for exp, coeff in f.items():
        for i, e in enumerate(exp):
            if e == 0 or not field[i]:
                continue
            lowered = exp[:i] + (e - 1,) + exp[i + 1 :]
            for e2, c2 in field[i].items():
                mono = tuple(x + y for x, y in zip(lowered, e2))
                acc[mono] = acc.get(mono, 0) - coeff * e * c2


# ---------------------------------------------------------------------------
# Isotropy Lie algebra
# ---------------------------------------------------------------------------


@dataclass
class IsotropyAlgebra:
    """ker(anchor at m) modulo the strong-kernel approximation, with bracket."""

    point: tuple[Fraction, ...]
    ambient: Subspace           # ker(anchor at m) inside Q^N
    sker: Subspace              # degree-bounded strong kernel at m
    quotient: Subspace          # spanned by the representatives, complementary to sker
    bracket_table: tuple[tuple[Vec, ...], ...]  # coords of [q_a, q_b] in quotient basis
    degree_bound: int

    @property
    def quotient_basis(self) -> tuple[Vec, ...]:
        """The representatives q_a: the reduced-echelon basis of ``quotient``."""
        return self.quotient.basis

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def class_coordinates(self, v: Sequence) -> Vec:
        """Coordinates of the class of v (must lie in ker) in the quotient basis.

        The representatives are the reduced-echelon basis of R(ker), where R
        is the (linear) reduction modulo the strong kernel's basis.  R(v) lies
        in their span exactly when v lies in ker, and then its entries at
        their pivot columns are its coordinates.  No linear system is solved.
        """
        r = self.sker.reduce(v)
        if any(self.quotient.reduce(r)):
            raise ValueError("vector does not lie in the kernel at this point")
        return tuple(r[lead] for lead, _ in self.quotient.support)

    def project_subspace(self, v: Subspace) -> Subspace:
        """Image of a subspace of ker in the quotient, as a subspace of Q^dim."""
        if self.dim == 0:
            return Subspace(0, ())
        vecs = [self.class_coordinates(row) for row in v.basis]
        return make_subspace(vecs, self.dim)


def isotropy_algebra(
    p: FoliationPresentation, m: Sequence, degree_bound: int | None = None
) -> IsotropyAlgebra:
    """Quotient ker/Sker_D at m with the constant-coefficient-lift bracket.

    The structure functions the representatives meet are evaluated at m once
    (``_structure_at``); every bracket of representatives reads that table.
    """
    p.require_structure("the isotropy bracket")
    if degree_bound is None:
        degree_bound = default_strong_kernel_bound(p)
    point = tuple(Fraction(x) for x in m)
    ker = kernel_at(p, point)
    sker = strong_kernel_at(p, point, degree_bound, ker)
    if not ker.contains_subspace(sker):
        raise RuntimeError("strong kernel escaped the kernel; inconsistent data")
    # representatives: kernel basis reduced modulo sker, re-echelonized
    reduced = [r for r in map(sker.reduce, ker.basis) if any(r)]
    quotient = make_subspace(reduced, p.num_generators)
    reps = quotient.basis
    g_dim = len(reps)
    c_at_m = _structure_at(p, point, {i for q in reps for i, x in enumerate(q) if x})
    # the table is antisymmetric (structure_defect enforces c_ij = -c_ji):
    # fill the pairs a < b, zero the diagonal and negate for b > a
    table: list[list[Vec]] = [[(Fraction(0),) * g_dim for _ in range(g_dim)] for _ in range(g_dim)]
    iso = IsotropyAlgebra(point, ker, sker, quotient, (), degree_bound)
    for a in range(g_dim):
        for b in range(a + 1, g_dim):
            w = _lift_bracket(c_at_m, reps[a], reps[b])
            table[a][b] = iso.class_coordinates(w)
            table[b][a] = tuple(-x for x in table[a][b])
    iso.bracket_table = tuple(tuple(row) for row in table)
    return iso


StructureAtPoint = dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]


def _structure_at(p: FoliationPresentation, m: Sequence, support: Collection[int]) -> StructureAtPoint:
    """The nonzero values c_ij^k(m) as ``(k, value)`` pairs, keyed by (i, j)
    for i != j in ``support``; c_ii = 0 and c_ji = -c_ij, so each pair of
    generators is evaluated once."""
    c = p.require_structure("the isotropy bracket")
    out: StructureAtPoint = {}
    for i in support:
        for j in support:
            if i < j:
                values = tuple((k, x) for k, x in enumerate(q.eval(m) for q in c[i][j]) if x)
                out[i, j], out[j, i] = values, tuple((k, -x) for k, x in values)
    return out


def _lift_bracket(c_at_m: StructureAtPoint, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    """Value at m of [sum u_i e_i, sum v_j e_j] from the structure functions
    at m, for u and v supported where ``c_at_m`` was evaluated."""
    out = [Fraction(0)] * len(u)
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            uv = ui * vj
            for k, x in c_at_m.get((i, j), ()):
                out[k] += uv * x
    return tuple(out)
