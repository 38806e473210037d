import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folcone import algebra
from folcone.expr import Polynomial, PolyVectorField, parse_polynomial, parse_vector_field
from folcone.foliation import FoliationPresentation, monomials_up_to, solve_structure_functions
from folcone.presets import BUILTIN_NAMES, load_preset

XYZ = ("x", "y", "z")
XY = ("x", "y")
T = ("t",)


def tpoly(text):
    return parse_polynomial(text, T)


class TestLieBracket:
    def test_so3_relation(self):
        X = parse_vector_field("z*d/dy - y*d/dz", XYZ)
        Y = parse_vector_field("x*d/dz - z*d/dx", XYZ)
        Z = parse_vector_field("y*d/dx - x*d/dy", XYZ)
        assert algebra.lie_bracket(X, Y) == Z

    def test_antisymmetry_diagonal(self):
        X = parse_vector_field("x^2*d/dx + y*d/dy", XY)
        assert algebra.lie_bracket(X, X).is_zero()

    def test_disjoint_variables(self):
        X = parse_vector_field("x^2*d/dx", XY)
        Y = parse_vector_field("y^2*d/dy", XY)
        assert algebra.lie_bracket(X, Y).is_zero()

    def test_variable_mismatch(self):
        X = parse_vector_field("d/dx", XY)
        Y = parse_vector_field("d/dx", XYZ)
        with pytest.raises(ValueError):
            algebra.lie_bracket(X, Y)


small_poly = st.builds(
    lambda terms: Polynomial(XY, terms),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-3, 3).map(Fraction),
        max_size=3,
    ),
)
field_st = st.builds(lambda p, q: PolyVectorField(XY, (p, q)), small_poly, small_poly)


@settings(max_examples=25, deadline=None)
@given(field_st, field_st, field_st)
def test_jacobi_identity_exact(X, Y, Z):
    lb = algebra.lie_bracket
    total = lb(lb(X, Y), Z) + lb(lb(Y, Z), X) + lb(lb(Z, X), Y)
    assert total.is_zero()


@settings(max_examples=25, deadline=None)
@given(field_st, field_st)
def test_bracket_antisymmetry(X, Y):
    left = algebra.lie_bracket(X, Y)
    right = algebra.lie_bracket(Y, X)
    assert (left + right).is_zero()


class TestRationalLinearAlgebra:
    def test_zero_matrix(self):
        zero = [[0, 0, 0]] * 3
        assert algebra.rank(zero) == 0
        ker = algebra.kernel_basis(zero)
        assert len(ker) == 3
        assert ker == [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]

    def test_identity(self):
        eye = algebra.identity(4)
        assert algebra.rank(eye) == 4
        assert algebra.kernel_basis(eye) == []

    def test_so3_anchor_at_point(self):
        # columns are the generator values at (1,0,0)
        m = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
        assert algebra.rank(m) == 2
        assert algebra.kernel_basis(m) == [(Fraction(1), Fraction(0), Fraction(0))]

    def test_rank_equals_rank_of_transpose(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
            assert algebra.rank(m) == algebra.rank(algebra.transpose(m))

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(8)
        for _ in range(20):
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(3)]
            for v in algebra.kernel_basis(m):
                assert all(x == 0 for x in algebra.mat_vec(m, v))

    def test_rank_plus_kernel_dim(self):
        rng = random.Random(9)
        for _ in range(20):
            cols = rng.randint(1, 5)
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(3)]
            assert algebra.rank(m) + len(algebra.kernel_basis(m)) == cols


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))), max_size=6))
def test_primitive_is_the_canonical_integer_multiple(vec):
    ints = algebra.primitive(vec)
    assert all(type(n) is int for n in ints) and len(ints) == len(vec)
    if not any(vec):
        assert ints == [0] * len(vec)
        return
    assert math.gcd(*ints) == 1
    assert next(n for n in ints if n) > 0
    # proportional: every 2x2 minor of (vec, ints) vanishes
    assert all(vec[i] * ints[j] == vec[j] * ints[i] for i in range(len(vec)) for j in range(len(vec)))
    assert algebra.primitive(ints) == ints
    assert algebra.primitive([-3 * x for x in vec]) == ints


class TestSolveLinear:
    def test_identity(self):
        assert algebra.solve_linear(algebra.identity(3), [1, 2, 3]) == (1, 2, 3)

    def test_inconsistent(self):
        assert algebra.solve_linear([[0, 0], [0, 0]], [1, 0]) is None

    def test_underdetermined(self):
        x = algebra.solve_linear([[1, 1], [0, 0]], [2, 0])
        assert x is not None and x[0] + x[1] == 2

    def test_solution_satisfies_system(self):
        rng = random.Random(10)
        for _ in range(20):
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            target = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            x = algebra.solve_linear(m, target)
            if x is not None:
                assert list(algebra.mat_vec(m, x)) == target


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


class TestGenericRank:
    def test_so3(self):
        assert algebra.generic_rank(so3_anchor()) == 2

    def test_order2(self):
        assert algebra.generic_rank(order2_anchor()) == 2

    def test_zero(self):
        z = Polynomial.zero(XY)
        assert algebra.generic_rank([[z, z], [z, z]]) == 0

    @pytest.mark.parametrize("anchor,point_dim", [(so3_anchor(), 3), (order2_anchor(), 2)])
    def test_random_point_cross_check(self, anchor, point_dim):
        # oracle: the generic rank is attained at seeded random rational points
        rng = random.Random(11)
        generic = algebra.generic_rank(anchor)
        for _ in range(5):
            point = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(point_dim)]
            evaluated = algebra.eval_poly_matrix(anchor, point)
            assert algebra.rank(evaluated) == generic


class TestDeterminants:
    def test_bareiss_matches_rational_det(self):
        rng = random.Random(12)
        for _ in range(15):
            n = rng.randint(1, 4)
            rat = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            polys = [[Polynomial.const(c, T) for c in row] for row in rat]
            assert algebra.bareiss_det(polys).constant_term() == algebra.rational_det(rat)

    def test_symbolic_three_by_three(self):
        # oracle: cofactor expansion by hand for a small symbolic matrix
        x = Polynomial.var("x", XY)
        y = Polynomial.var("y", XY)
        one = Polynomial.one(XY)
        zero = Polynomial.zero(XY)
        m = [[x, y, zero], [one, x, y], [zero, one, x]]
        expected = x * (x * x - y) - y * (x - zero)
        assert algebra.bareiss_det(m) == expected


def minors_oracle(rows, ncols, det):
    """One determinant per column subset, the definition maximal_minors must meet."""
    return [det([[row[c] for c in cols] for row in rows]) for cols in combinations(range(ncols), len(rows))]


# zeros are frequent so that zero entries and zero sub-minors are exercised
rational_entry = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
)
t_poly = st.builds(
    lambda cs: Polynomial(T, {(e,): c for e, c in enumerate(cs)}),
    st.lists(st.integers(-2, 2).map(Fraction), max_size=3),
)


@st.composite
def matrices(draw, entry, min_rows=0, max_cols=6):
    ncols = draw(st.integers(0, max_cols))
    k = draw(st.integers(min_rows, ncols + 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    return rows, ncols


def dense_minors(rows, ncols, zero):
    """``maximal_minors`` as one entry per column subset, ``zero`` where it keys none."""
    minors = algebra.maximal_minors(rows, ncols)
    assert all(minors.values()), "only nonzero minors are returned"
    size = math.comb(ncols, len(rows)) if len(rows) <= ncols else 0
    assert all(0 <= i < size for i in minors)
    return [minors.get(i, zero) for i in range(size)]


@settings(max_examples=150, deadline=None)
@given(matrices(rational_entry))
def test_maximal_minors_match_rational_det(case):
    rows, ncols = case
    dense = dense_minors(rows, ncols, Fraction(0))
    assert dense == minors_oracle(rows, ncols, algebra.rational_det)


@settings(max_examples=60, deadline=None)
@given(matrices(t_poly, min_rows=1, max_cols=5))
def test_maximal_minors_match_bareiss_det(case):
    rows, ncols = case
    dense = dense_minors(rows, ncols, Polynomial.zero(T))
    assert dense == minors_oracle(rows, ncols, algebra.bareiss_det)


@pytest.mark.parametrize("n", range(10))
def test_subset_index_is_the_combinations_order(n):
    full = (1 << n) - 1
    for k in range(n + 1):
        subsets = list(combinations(range(n), k))
        for position, cols in enumerate(subsets):
            mask = sum(1 << c for c in cols)
            assert algebra.subset_index(mask, n) == position
            # complementing a subset reverses the lexicographic order
            assert algebra.subset_index(full ^ mask, n) == len(subsets) - 1 - position


class TestKernelOverCurve:
    def test_trivial_kernel(self):
        m = [[tpoly("t"), tpoly("0")], [tpoly("0"), tpoly("1")]]
        assert algebra.kernel_basis_over_curve(m) == []

    def test_one_by_two(self):
        m = [[tpoly("t"), tpoly("-t^2")]]
        basis = algebra.kernel_basis_over_curve(m)
        assert len(basis) == 1
        assert basis[0] == (tpoly("t"), tpoly("1"))

    def test_so3_along_axis_ray(self):
        mapping = {"x": tpoly("t"), "y": tpoly("0"), "z": tpoly("0")}
        m_t = [[e.subs(mapping) for e in row] for row in so3_anchor()]
        basis = algebra.kernel_basis_over_curve(m_t)
        assert basis == [(tpoly("1"), tpoly("0"), tpoly("0"))]

    def test_pointwise_span_property(self):
        # kernel vectors evaluated at 20 random t != 0 span the pointwise kernel
        mapping = {"x": tpoly("t"), "y": tpoly("t^2"), "z": tpoly("1 + t")}
        m_t = [[e.subs(mapping) for e in row] for row in so3_anchor()]
        basis = algebra.kernel_basis_over_curve(m_t)
        rng = random.Random(13)
        for _ in range(20):
            t_val = Fraction(rng.randint(1, 40), rng.randint(1, 7))
            point_matrix = [[e.eval([t_val]) for e in row] for row in m_t]
            pointwise = algebra.kernel_basis(point_matrix)
            evaluated = [[e.eval([t_val]) for e in vec] for vec in basis]
            joint = algebra.rank(evaluated + [list(v) for v in pointwise])
            assert algebra.rank(evaluated) == len(pointwise) == joint

    def test_content_is_one(self):
        m = [[tpoly("t^2"), tpoly("-t^3")]]
        basis = algebra.kernel_basis_over_curve(m)
        assert basis == [(tpoly("t"), tpoly("1"))]


def dense_rref(rows):
    """Dense Gauss-Jordan over Q, the oracle of the one sparse elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    pivots = []
    pr = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(pr, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        inv = 1 / m[pr][c]
        m[pr] = [x * inv for x in m[pr]]
        for i in range(len(m)):
            if i != pr and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
        pivots.append(c)
        pr += 1
        if pr == len(m):
            break
    return m, pivots


def dense_solve(rows, b):
    """The canonical solution (free unknowns 0) read off the oracle's augmented form."""
    ncols = len(rows[0]) if rows else 0
    red, pivots = dense_rref([list(row) + [y] for row, y in zip(rows, b)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return tuple(x)


# ints as well as Fractions: an int pivot must not turn into a float
mixed_entry = st.one_of(rational_entry, st.integers(-3, 3))


@st.composite
def dependent_matrices(draw, max_rows=5, max_cols=5, entry=mixed_entry):
    """Random rational matrices, possibly empty, zero, 1 x N or N x 1, often
    with rows that are combinations of earlier ones."""
    ncols = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=max_rows))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, [sum((a * row[c] for a, row in zip(coeffs, rows)), Fraction(0)) for c in range(ncols)])
    return rows


@settings(max_examples=300, deadline=None)
@given(dependent_matrices())
def test_rref_matches_the_dense_oracle(rows):
    red, pivots = algebra.rref(rows)
    assert (red, pivots) == dense_rref(rows)
    assert all(type(x) is Fraction for row in red for x in row)
    assert algebra.rank(rows) == len(pivots)


@settings(max_examples=300, deadline=None)
@given(dependent_matrices(), st.data())
def test_solve_linear_returns_the_oracle_solution(rows, data):
    b = data.draw(st.lists(mixed_entry, min_size=len(rows), max_size=len(rows)))
    x = algebra.solve_linear(rows, b)
    assert x == dense_solve(rows, b)
    if x is not None:
        assert all(type(v) is Fraction for v in x)
        assert list(algebra.mat_vec(rows, x)) == b


# 60-bit numerators and denominators beside small ints and Fractions
wide_entry = st.one_of(
    mixed_entry,
    st.integers(-(2**60), 2**60),
    st.builds(Fraction, st.integers(-(2**60), 2**60), st.integers(1, 2**60)),
)


@settings(max_examples=300, deadline=None)
@given(dependent_matrices(max_rows=6, max_cols=6, entry=wide_entry))
def test_sparse_rref_and_echelon_match_the_dense_oracle(rows):
    ncols = len(rows[0]) if rows else 0
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    red, pivots = dense_rref(rows)
    reduced = algebra.sparse_rref(sparse)
    assert reduced == {c: {k: x for k, x in enumerate(red[i]) if x} for i, c in enumerate(pivots)}
    assert all(type(x) is Fraction for row in reduced.values() for x in row.values())
    # the forward pass: primitive integer rows, each led by its smallest
    # column, spanning the same row space, so their leads are the pivots
    forward = algebra.echelon(sparse)
    assert sorted(forward) == pivots
    for lead, row in forward.items():
        assert lead == min(row) and row[lead] > 0
        assert all(type(x) is int for x in row.values()) and math.gcd(*row.values()) == 1
    dense_forward = [[row.get(k, 0) for k in range(ncols)] for row in forward.values()]
    assert dense_rref(dense_forward)[0] == red[: len(pivots)]


def dense_membership(p, target, bound):
    """Dense rows of sum_k c_k X_k = target with deg c_k <= bound, solved by the oracle."""
    monos = monomials_up_to(p.dim, bound)
    eq_keys, rows, rhs = {}, [], []

    def eq_row(key):
        if key not in eq_keys:
            eq_keys[key] = len(rows)
            rows.append([Fraction(0)] * (p.num_generators * len(monos)))
            rhs.append(Fraction(0))
        return eq_keys[key]

    for l in range(p.dim):
        for k in range(p.num_generators):
            for alpha, coeff in p.generators[k].components[l].terms.items():
                for i, mu in enumerate(monos):
                    rows[eq_row((l, tuple(a + b for a, b in zip(alpha, mu))))][k * len(monos) + i] += coeff
        for alpha, coeff in target.components[l].terms.items():
            rhs[eq_row((l, alpha))] += coeff
    sol = dense_solve(rows, rhs)
    if sol is None:
        return None
    return tuple(
        Polynomial(p.vars, {mu: sol[k * len(monos) + i] for i, mu in enumerate(monos) if sol[k * len(monos) + i]})
        for k in range(p.num_generators)
    )


def oracle_structure(p, degree_bound=None):
    """(structure array, bound used) by the dense route, or (None, None)."""
    if degree_bound is None:
        degree_bound = max(p.max_generator_degree(), 0)
    n = p.num_generators
    zero = tuple(Polynomial.zero(p.vars) for _ in range(n))
    c = [[zero] * n for _ in range(n)]
    used = 0
    for i in range(n):
        for j in range(i + 1, n):
            for bound in range(degree_bound + 1):
                sol = dense_membership(p, p.bracket(i, j), bound)
                if sol is not None:
                    used = max(used, bound)
                    break
            else:
                return None, None
            c[i][j], c[j][i] = sol, tuple(-q for q in sol)
    return tuple(tuple(row) for row in c), used


def structure_case(name):
    """A presentation without structure functions, and the degree bound to solve with."""
    def fresh(vars, texts):
        return FoliationPresentation(vars, tuple(parse_vector_field(t, vars) for t in texts), name=name)

    order2 = ("x^2*d/dx", "y^2*d/dx", "x*y*d/dx", "x^2*d/dy", "y^2*d/dy", "x*y*d/dy")
    if name == "gl2":
        return fresh(("x1", "x2"), ("x1*d/dx1", "x1*d/dx2", "x2*d/dx1", "x2*d/dx2")), None
    if name.startswith("o2-bound"):
        return fresh(XY, order2), int(name[-1])
    if name == "so3_radial":
        so3 = fresh(XYZ, ("z*d/dy - y*d/dz", "x*d/dz - z*d/dx", "y*d/dx - x*d/dy"))
        x, y, z = (Polynomial.var(v, XYZ) for v in XYZ)
        radial = x * so3.generators[0] + y * so3.generators[1] + z * so3.generators[2]
        return FoliationPresentation(XYZ, so3.generators + (radial,), name=name), None
    # a fresh copy of a builtin, without its shipped or cached structure functions
    p = load_preset(name).presentation
    return FoliationPresentation(p.vars, p.generators, name=name), None


@pytest.mark.parametrize("name", ["gl2", "o2-bound0", "o2-bound2", "so3_radial", *BUILTIN_NAMES])
def test_structure_functions_match_the_dense_route(name):
    p, bound = structure_case(name)
    expected, expected_bound = oracle_structure(p, bound)
    solved = solve_structure_functions(p, bound)
    assert (solved.functions if solved is not None else None) == expected
    assert (solved.bound_used if solved is not None else None) == expected_bound


class TestSparseSolver:
    def test_matches_dense_kernel(self):
        rng = random.Random(14)
        for _ in range(10):
            rows = [[Fraction(rng.randint(-2, 2)) for _ in range(5)] for _ in range(3)]
            sparse_rows = [
                {j: v for j, v in enumerate(row) if v != 0} for row in rows
            ]
            pivots = algebra.sparse_rref(sparse_rows)
            projected = algebra.kernel_vectors(pivots, 5, range(5))
            dense = algebra.kernel_basis(rows, ncols=5)
            assert algebra.rank([list(v) for v in projected]) == len(dense)
            for v in projected:
                assert all(x == 0 for x in algebra.mat_vec(rows, v))
