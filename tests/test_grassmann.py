import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folcone import algebra
from folcone.acceptance import float_limit_angles
from folcone.expr import Polynomial, parse_polynomial, parse_vector_field
from folcone.grassmann import (
    Curve,
    CurveNotGeneric,
    Subspace,
    annihilator,
    limit_along_curve_detailed,
    make_subspace,
    normalize_plucker,
    plucker_of_basis,
    reconstruct_from_plucker,
    subspace_distance,
)

XYZ = ("x", "y", "z")
XY = ("x", "y")


def so3_anchor():
    gens = [
        parse_vector_field("z*d/dy - y*d/dz", XYZ),
        parse_vector_field("x*d/dz - z*d/dx", XYZ),
        parse_vector_field("y*d/dx - x*d/dy", XYZ),
    ]
    return [[g.components[i] for g in gens] for i in range(3)]


def order2_anchor():
    texts = ["x^2*d/dx", "y^2*d/dx", "x*y*d/dx", "x^2*d/dy", "y^2*d/dy", "x*y*d/dy"]
    gens = [parse_vector_field(t, XY) for t in texts]
    return [[g.components[i] for g in gens] for i in range(2)]


class TestMakeSubspace:
    def test_coordinate_plane(self):
        s = make_subspace([(2, 0, 0), (0, 3, 0)])
        assert s.basis == ((Fraction(1), 0, 0), (0, Fraction(1), 0))
        assert s.plucker == (Fraction(1), Fraction(0), Fraction(0))

    def test_dependent_input(self):
        s = make_subspace([(1, 1), (2, 2)])
        assert s.dim == 1
        assert s.plucker == (Fraction(1), Fraction(1))

    def test_already_reduced(self):
        rows = [(1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)]
        s = make_subspace(rows)
        assert s.basis == tuple(tuple(Fraction(x) for x in r) for r in rows)
        # spot-check two minors against hand expansion
        idx = {cols: k for k, cols in enumerate(__import__("itertools").combinations(range(6), 2))}
        assert s.plucker[idx[(0, 3)]] == 1
        assert s.plucker[idx[(0, 1)]] == 0

    def test_idempotent(self):
        s = make_subspace([(1, 2, 3), (4, 5, 6)])
        again = make_subspace(s.basis)
        assert again == s and again.plucker == s.plucker

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_subspace([(1, 0), (1, 0, 0)])

    def test_zero_subspace(self):
        s = make_subspace([(0, 0, 0)], ambient_dim=3)
        assert s.dim == 0 and s.plucker == (Fraction(1),)


class TestPlucker:
    def test_basis_independence(self):
        rng = random.Random(21)
        for _ in range(15):
            rows = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(2)]
            s = make_subspace(rows, 4)
            if s.dim != 2:
                continue
            # random invertible combination of the rows spans the same space
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c == 0:
                continue
            mixed = [
                [a * rows[0][j] + b * rows[1][j] for j in range(4)],
                [c * rows[0][j] + d * rows[1][j] for j in range(4)],
            ]
            assert make_subspace(mixed, 4).plucker == s.plucker

    def test_normalization_primitive_and_sign(self):
        p = normalize_plucker((Fraction(-2, 3), Fraction(4, 3), Fraction(0)))
        assert p == (Fraction(1), Fraction(-2), Fraction(0))

    def test_reconstruction_round_trip(self):
        rng = random.Random(22)
        for _ in range(15):
            k = rng.randint(1, 3)
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(k)]
            s = make_subspace(rows, 5)
            if s.dim == 0:
                continue
            rebuilt = reconstruct_from_plucker(s.plucker, 5, s.dim)
            assert rebuilt == s

    def test_equality_iff_plucker_equality(self):
        a = make_subspace([(1, 0, 1), (0, 1, 1)])
        b = make_subspace([(1, 1, 2), (1, -1, 0)])
        c = make_subspace([(1, 0, 0), (0, 1, 1)])
        assert a == b and a.plucker == b.plucker
        assert a != c and a.plucker != c.plucker


def plucker_oracle(rows, n):
    """Normalized k x k minors, one rational determinant per column subset; None if all vanish."""
    minors = [algebra.rational_det([[r[c] for c in cols] for r in rows]) for cols in combinations(range(n), len(rows))]
    return normalize_plucker(minors) if any(minors) else None


@st.composite
def bases(draw, max_dim=7):
    """k x N rational rows with k = 0..N, so both 2k <= N and 2k > N occur."""
    n = draw(st.integers(1, max_dim))
    k = draw(st.integers(0, n))
    entry = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return rows, n


class TestPluckerOfBasis:
    @settings(max_examples=150, deadline=None)
    @given(bases())
    def test_any_basis_matches_oracle(self, case):
        # raw rows: not echelon, possibly dependent
        rows, n = case
        expected = plucker_oracle(rows, n)
        got = plucker_of_basis(rows, n)
        if expected is None:
            assert not any(got)
        else:
            assert normalize_plucker(got) == expected

    @settings(max_examples=150, deadline=None)
    @given(bases())
    def test_echelon_basis_matches_oracle(self, case):
        rows, n = case
        s = make_subspace(rows, n)
        assert s.plucker == plucker_oracle(s.basis, n)

    def test_complement_beyond_hypothesis_sizes(self):
        # a 7-dimensional subspace of Q^10 takes the complement path with 3 dual rows
        rng = random.Random(26)
        rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(10)] for _ in range(7)]
        s = make_subspace(rows, 10)
        assert s.dim == 7
        assert s.plucker == plucker_oracle(s.basis, 10) == plucker_oracle(rows, 10)

    def test_sparse_r4_shaped_limits(self):
        # hn-fiber r4 at the origin: Pluecker vectors of length C(16, 4) = 1820
        # with 1 or 16 nonzero coordinates
        def vec(entries):
            return [Fraction(entries.get(c, 0)) for c in range(16)]

        # row a: the diagonal entry of block a plus a multiple of the next one;
        # rows of disjoint support, so 2^4 nonzero minors
        small = make_subspace([vec({5 * a: 1, 4 * a + (a + 1) % 4: a + 1}) for a in range(4)], 16)
        # every unit vector but four, mixed so that the rows are not echelon
        kept = [c for c in range(16) if c % 5]
        big = make_subspace([vec({c: 1, d: 2}) for c, d in zip(kept, kept[1:] + kept[:1])], 16)
        assert (small.dim, big.dim) == (4, 12)
        for space, nonzero in ((small, 16), (big, 1), (annihilator(small), 16)):
            p = space.plucker
            assert len(p) == math.comb(16, 4)
            assert sum(1 for x in p if x) == nonzero
            assert p == plucker_oracle(space.basis, 16)


class TestReduce:
    @settings(max_examples=150, deadline=None)
    @given(bases(), st.data())
    def test_remainder_modulo_the_echelon_basis(self, case, data):
        rows, n = case
        s = make_subspace(rows, n)
        v = data.draw(st.lists(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)), min_size=n, max_size=n))
        r = s.reduce(v)
        pivots = [next(i for i, x in enumerate(row) if x) for row in s.basis]
        assert all(r[c] == 0 for c in pivots)
        # v - r lies in the span, and r vanishes exactly when v does
        assert algebra.rank(list(s.basis) + [[a - b for a, b in zip(v, r)]]) == s.dim
        assert (not any(r)) == (algebra.rank(list(s.basis) + [v]) == s.dim) == s.contains_vector(v)


def dense_reduce(basis, v):
    """Reference remainder: for each row, subtract v's entry at the row's lead
    column times the whole row, entry by entry over all N columns."""
    r = [Fraction(x) for x in v]
    for row in basis:
        f = r[next(i for i, x in enumerate(row) if x)]
        r = [a - f * b for a, b in zip(r, row)]
    return r


class TestReduceAgainstDenseReference:
    @settings(max_examples=150, deadline=None)
    @given(bases(), st.data())
    def test_inside_and_outside(self, case, data):
        rows, n = case
        s = make_subspace(rows, n)
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=s.dim, max_size=s.dim))
        inside = [sum((c * row[i] for c, row in zip(coeffs, s.basis)), Fraction(0)) for i in range(n)]
        outside = data.draw(st.lists(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)), min_size=n, max_size=n))
        for v in (inside, outside):
            expected = dense_reduce(s.basis, v)
            # twice: the second call reads the row supports kept by the first
            assert s.reduce(v) == expected == s.reduce(tuple(v))
            assert s.contains_vector(v) == (not any(expected))
        assert s.contains_vector(inside)

    def test_ambient_dimension_mismatch(self):
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            make_subspace([(1, 2, 3)]).reduce((1, 2))


class TestAnnihilator:
    def test_line_in_three_space(self):
        v = annihilator(make_subspace([(1, 0, 0)]))
        assert v.basis == ((0, Fraction(1), 0), (0, 0, Fraction(1)))

    def test_zero_space(self):
        full = annihilator(make_subspace([], ambient_dim=3))
        assert full.dim == 3

    def test_biduality(self):
        rng = random.Random(23)
        for _ in range(15):
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(2)]
            s = make_subspace(rows, 4)
            assert annihilator(annihilator(s)) == s

    def test_pairings_vanish(self):
        s = make_subspace([(1, 2, 3), (0, 1, 1)])
        a = annihilator(s)
        assert a.dim == 1
        for row in a.basis:
            for b in s.basis:
                assert sum(x * y for x, y in zip(row, b)) == 0


class TestCurve:
    def test_constant(self):
        c = Curve.constant((1, 2))
        assert c.is_constant() and c.eval(Fraction(5)) == (1, 2)
        assert c.coeffs == ((1,), (2,)) and c.label == "constant"

    def test_ray_and_arc(self):
        c = Curve.ray((0, 0), (1, 2))
        assert c.eval(Fraction(1, 2)) == (Fraction(1, 2), Fraction(1))
        a = Curve.arc((0, 0), (1, 0), (0, 1))
        assert a.eval(Fraction(2)) == (Fraction(2), Fraction(4))
        assert not c.is_constant() and not a.is_constant()
        with pytest.raises(ValueError, match="power"):
            Curve.arc((0,), (1,), (1,), power=0)

    def test_eval_at_a_fraction(self):
        c = Curve.arc((1, Fraction(1, 2)), (Fraction(2, 3), 0), (-1, 3), power=3)
        assert c.coeffs == ((1, Fraction(2, 3), 0, -1), (Fraction(1, 2), 0, 0, 3))
        t = Fraction(-3, 4)
        assert c.eval(t) == (1 + Fraction(2, 3) * t - t**3, Fraction(1, 2) + 3 * t**3)
        assert c.center == (1, Fraction(1, 2))
        assert all(type(x) is Fraction for row in c.coeffs for x in row)

    def test_arc_with_a_zero_direction(self):
        # t^2 e_1: no linear term, yet not constant
        a = Curve.arc((0, 0), (0, 0), (1, 0))
        assert a.coeffs == ((0, 0, 1), (0, 0, 0)) and a.label == "arc d=(0,0) e=(1,0) pow=2"
        assert not a.is_constant() and a.eval(Fraction(3)) == (9, 0)
        assert Curve.ray((1, 1), (0, 0)).is_constant()

    def test_coordinate_without_coefficients(self):
        with pytest.raises(ValueError, match="constant coefficient"):
            Curve(((1,), ()))


class TestLimits:
    def test_so3_scaled_direction(self):
        curve = Curve.ray((0, 0, 0), (0, 0, 1))
        lim = limit_along_curve_detailed(so3_anchor(), curve, 1, XYZ).limit
        assert lim.basis == ((0, 0, Fraction(1)),)

    def test_order2_diagonal(self):
        curve = Curve.ray((0, 0), (1, 1))
        lim = limit_along_curve_detailed(order2_anchor(), curve, 4, XY).limit
        expected = annihilator(make_subspace([(1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)]))
        assert lim == expected

    def test_constant_curve_at_regular_point(self):
        m = (1, 0, 0)
        curve = Curve.constant(m)
        lim = limit_along_curve_detailed(so3_anchor(), curve, 1, XYZ).limit
        rows = algebra.kernel_basis(algebra.eval_poly_matrix(so3_anchor(), m))
        assert lim == Subspace(3, tuple(rows))

    def test_singular_constant_curve_rejected(self):
        with pytest.raises(CurveNotGeneric):
            limit_along_curve_detailed(so3_anchor(), Curve.constant((0, 0, 0)), 1, XYZ)

    def test_sides_agree(self):
        # a 4-dimensional limit in Q^6: the Pluecker route on the kernel side
        # and on the row side (then the annihilator) give the engine's limit
        curve = Curve.arc((0, 0), (1, 0), (0, 1))
        detail = limit_along_curve_detailed(order2_anchor(), curve, 4, XY)
        assert detail.limit.dim == 4
        assert detail.limit == pluecker_route_limit(order2_anchor(), curve, 4, XY, side="kernel")
        assert detail.limit == pluecker_route_limit(order2_anchor(), curve, 4, XY, side="row")

    def test_float_cross_check(self):
        # the criterion-10 oracle: SVD kernel at x(1e-4) vs the exact kernel
        # there, and that exact kernel vs the limit, as Pluecker vectors
        curve = Curve.arc((0, 0), (0, 1), (1, 0))
        detail = limit_along_curve_detailed(order2_anchor(), curve, 4, XY)
        svd_angle, limit_angle = float_limit_angles(order2_anchor(), curve, detail.limit)
        assert svd_angle < 1e-6
        assert limit_angle < 1e-2

    def test_scalar_stability_of_annihilators(self):
        lim = limit_along_curve_detailed(so3_anchor(), Curve.ray((0, 0, 0), (1, 2, 2)), 1, XYZ).limit
        dual = annihilator(lim)
        rng = random.Random(25)
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(dual.dim)]
            xi = [
                sum((coeffs[a] * dual.basis[a][j] for a in range(dual.dim)), Fraction(0))
                for j in range(3)
            ]
            for lam in (Fraction(2), Fraction(-7, 3), Fraction(0)):
                assert dual.contains_vector([lam * x for x in xi])


def dense_minors(rows, n):
    """``maximal_minors`` of polynomial rows, one entry per column subset, zero where it keys none."""
    minors = algebra.maximal_minors(rows, n)
    zero = Polynomial.zero(rows[0][0].vars)
    return [minors.get(i, zero) for i in range(math.comb(n, len(rows)))]


def subs_poly_matrix(m, mapping):
    return [[entry.subs(mapping) for entry in row] for row in m]


def substitution(curve, vars):
    """The curve's coordinates as polynomials in t, keyed by ``vars``."""
    t = ("t",)
    return {v: Polynomial(t, {(d,): a for d, a in enumerate(c) if a}) for v, c in zip(vars, curve.coeffs)}


def pluecker_route_limit(m, curve, expected_dim, vars, side="kernel"):
    """The Pluecker route to lim ker M(x(t)): a polynomial basis of one side
    over Q(t) (the Cramer kernel, or the content-free Bareiss echelon rows),
    its Pluecker vector from one shared-minor pass over Q[t], the coefficient
    of the lowest power of t, and the subspace rebuilt from it.  Raises
    CurveNotGeneric with the engine's wording when the kernel over Q(t) has
    the wrong dimension."""
    m_t = subs_poly_matrix(m, substitution(curve, vars))
    n = len(m_t[0])
    kernel = algebra.kernel_basis_over_curve(m_t)
    if len(kernel) != expected_dim:
        if 2 * expected_dim <= n:
            reason = f"kernel over Q(t) has dimension {len(kernel)}, expected {expected_dim}"
        else:
            reason = f"rank over Q(t) is {n - len(kernel)}, expected {n - expected_dim}"
        raise CurveNotGeneric(f"{reason} ({curve.label})")
    if side == "kernel":
        rows = kernel
    else:
        rows = [algebra.normalize_poly_vector(r) for r in algebra.bareiss_echelon(m_t)[0]]
    if not rows:
        space = Subspace(n, ())
    else:
        minors = dense_minors(rows, n)
        low = min(min(e[0] for e in q.terms) for q in minors if q)
        space = reconstruct_from_plucker(normalize_plucker([q.coefficient((low,)) for q in minors]), n, len(rows))
    return space if side == "kernel" else annihilator(space)


def row_side_valuation(m, curve, vars):
    """Lowest power of t among the maximal minors of the first rows of M(x(t))
    that are independent over Q(t), taken in row order: row i is taken when
    it raises the rank over Q(t) of the rows up to it."""
    m_t = subs_poly_matrix(m, substitution(curve, vars))
    ranks = [algebra.generic_rank(m_t[:i]) for i in range(len(m_t) + 1)]
    rows = [row for i, row in enumerate(m_t) if ranks[i + 1] > ranks[i]]
    if not rows:
        return 0
    return min(min(e[0] for e in q.terms) for q in algebra.maximal_minors(rows, len(m_t[0])).values())


# sparse entries over Q[x, y] of degree <= 2, mostly without constant term,
# so that the rank drops at the center and saturation takes several steps
poly_xy = st.one_of(
    st.just(Polynomial.zero(XY)),
    st.builds(
        lambda terms: Polynomial(XY, terms),
        st.dictionaries(
            st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (1, 1)]),
            st.integers(-2, 2).map(Fraction),
            min_size=1,
            max_size=2,
        ),
    ),
)
small_vec = st.lists(st.integers(-2, 2), min_size=2, max_size=2)


@st.composite
def limit_cases(draw):
    n_rows = draw(st.integers(1, 3))
    n_cols = draw(st.integers(1, 4))
    m = draw(st.lists(st.lists(poly_xy, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))
    center = draw(st.one_of(st.just([0, 0]), small_vec))
    d = draw(small_vec)
    if draw(st.booleans()):
        curve = Curve.ray(center, d)
    else:
        curve = Curve.arc(center, d, draw(small_vec), power=draw(st.integers(2, 3)))
    generic = n_cols - algebra.generic_rank(m)
    expected = draw(st.one_of(st.just(generic), st.integers(0, n_cols)))
    return m, curve, expected


class TestSaturationEngine:
    @settings(max_examples=200, deadline=None)
    @given(limit_cases())
    def test_matches_pluecker_route(self, case):
        m, curve, expected = case
        try:
            want = pluecker_route_limit(m, curve, expected, XY)
        except CurveNotGeneric as exc:
            with pytest.raises(CurveNotGeneric) as got:
                limit_along_curve_detailed(m, curve, expected, XY)
            assert str(got.value) == str(exc)
            return
        detail = limit_along_curve_detailed(m, curve, expected, XY)
        assert detail.limit == want and detail.limit.dim == expected
        assert detail.valuation == row_side_valuation(m, curve, XY)

    def test_saturation_steps_on_a_singular_fiber(self):
        # so3 at the origin along the arc t e_1 + t^2 e_2: M(x(t)) has rows
        # (0, 0, t^2), (0, 0, -t), (-t^2, t, 0); the first two independent ones,
        # (0, 0, t^2) and (-t^2, t, 0), have maximal minors 0, t^4 and -t^3,
        # so R(t) has t-valuation 3
        curve = Curve.arc((0, 0, 0), (1, 0, 0), (0, 1, 0))
        detail = limit_along_curve_detailed(so3_anchor(), curve, 1, XYZ)
        assert detail.valuation == row_side_valuation(so3_anchor(), curve, XYZ) == 3
        assert detail.limit.basis == ((Fraction(1), 0, 0),)

    def test_rank_is_certified_where_small_points_fail(self):
        # rows (1, x, 0)/100 and (x, x^2, x(x - 1)(x - 2)(x - 3))/100: rank 2
        # over Q(t) on the ray x = t, but every 2 x 2 minor vanishes at
        # t = 1, 2 and 3, and the rows' coefficients sum to less than 1 until
        # the rows are cleared to integers
        x = ("x",)
        q = parse_polynomial("x*(x - 1)*(x - 2)*(x - 3)", x)
        m = [
            [parse_polynomial(text, x) * Fraction(1, 100) for text in ("1", "x", "0")],
            [p * Fraction(1, 100) for p in (parse_polynomial("x", x), parse_polynomial("x^2", x), q)],
        ]
        curve = Curve.ray((0,), (1,))
        for t0 in (1, 2, 3):
            assert algebra.rank(algebra.eval_poly_matrix(m, (t0,))) == 1
        detail = limit_along_curve_detailed(m, curve, 1, x)
        assert detail.limit == pluecker_route_limit(m, curve, 1, x)
        assert detail.valuation == row_side_valuation(m, curve, x) == 1
        with pytest.raises(CurveNotGeneric, match="rank over Q\\(t\\) is 2, expected 1"):
            limit_along_curve_detailed(m, curve, 2, x)

    def test_components_map_to_variables_by_name(self):
        # the curve's components follow ``vars``, not the entries' own
        # variable order: here y(t) = t and x(t) = t^2
        curve = Curve.arc((0, 0), (1, 0), (0, 1))
        yx = ("y", "x")
        detail = limit_along_curve_detailed(order2_anchor(), curve, 4, yx)
        assert detail.limit == pluecker_route_limit(order2_anchor(), curve, 4, yx)
        assert detail.limit != limit_along_curve_detailed(order2_anchor(), curve, 4, XY).limit


class TestDistance:
    def test_identical(self):
        s = make_subspace([(1, 2), (0, 1)])
        assert subspace_distance(s, s) == 0.0

    def test_orthogonal_lines(self):
        d = subspace_distance(make_subspace([(1, 0)]), make_subspace([(0, 1)]))
        assert abs(d - math.pi / 2) < 1e-12

    def test_small_angle(self):
        eps = 1e-3
        d = subspace_distance(
            make_subspace([(1, 0)]), make_subspace([(Fraction(1), Fraction(1, 1000))])
        )
        assert abs(d - math.atan(eps)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            subspace_distance(make_subspace([(1, 0)]), make_subspace([(1, 0), (0, 1)]))
