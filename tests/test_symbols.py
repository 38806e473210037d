import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from folcone import algebra
from folcone.expr import OperatorWord, Polynomial, parse_operator, parse_polynomial
from folcone.foliation import strong_kernel_at
from folcone.grassmann import Curve, annihilator, make_subspace
from folcone.hncone import hn_fiber
from folcone.presets import load_preset
from folcone.symbols import (
    DiffOperator,
    OddDegreeWarning,
    PullbackReport,
    UEAElement,
    classical_principal_symbol,
    ellipticity_check,
    pullback_consistency,
    pullback_defect,
    realize,
    symbol_on_fiber,
    symbol_top,
    uea_product,
)
from folcone.symbols import _gram, _pencil_eigenvalues, _pencil_minimum

XYZ = ("x", "y", "z")
XYZ_XI = XYZ + ("xi1", "xi2", "xi3")


def so3_preset():
    return load_preset("so3_r3")


def element_from(text, preset):
    if text in preset.operators:
        words = preset.operators[text]
    else:
        words = parse_operator(text, preset.generator_names, preset.presentation.vars)
    return UEAElement.from_words(words, preset.presentation.vars)


# -- sympy oracle -------------------------------------------------------------


def to_sympy(poly: Polynomial, syms):
    expr = sympy.Integer(0)
    for exp, c in poly.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exp):
            term *= s ** e
        expr += term
    return sympy.expand(expr)


def oracle_apply(presentation, element: UEAElement, f: Polynomial):
    """Independent path: apply each word with sympy derivatives, right to left."""
    syms = sympy.symbols(presentation.vars)
    total = sympy.Integer(0)
    f_expr = to_sympy(f, syms)
    for word in element.words:
        expr = f_expr
        for letter in reversed(word.letters):
            gen = presentation.generators[letter]
            expr = sum(
                to_sympy(comp, syms) * sympy.diff(expr, s)
                for comp, s in zip(gen.components, syms)
            )
        total += to_sympy(word.coefficient, syms) * expr
    return sympy.expand(total)


def identity(r):
    return [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]


def congruent_pencil(w, diagonal):
    """(W^T D W, W^T W) for an invertible W and D = diag(diagonal): the
    pencil's roots are the diagonal, with multiplicity."""
    r = len(w)
    g = [[sum(Fraction(w[k][i] * w[k][j]) * diagonal[k] for k in range(r)) for j in range(r)] for i in range(r)]
    m = [[Fraction(sum(w[k][i] * w[k][j] for k in range(r))) for j in range(r)] for i in range(r)]
    return g, m


LAM = ("lam",)


def pencil_oracle(g, m, tol):
    """``_pencil_minimum`` by the characteristic polynomial: det(G - lam M)
    over Q[lam] (``bareiss_det``), each float eigenvalue snapped at the
    bounds 10^0 ... 10^15 and kept when synthetic division by (lam - snap)
    leaves remainder 0, and Sylvester's criterion on G - tol M by its
    leading minors (``rational_det``)."""
    r = len(g)
    lam = Polynomial.var("lam", LAM)
    char = algebra.bareiss_det(
        [[Polynomial.const(a, LAM) - lam * Polynomial.const(b, LAM) for a, b in zip(*rows)] for rows in zip(g, m)]
    )
    work = [char.coefficient((d,)) for d in range(r, -1, -1)]  # descending
    eigenvalues = _pencil_eigenvalues(g, m)
    roots = []
    for value in eigenvalues:
        for bound in (10**e for e in range(16)):
            cand = Fraction(value).limit_denominator(bound)
            acc, quotient = Fraction(0), []
            for c in work:
                acc = acc * cand + c
                quotient.append(acc)
            if quotient.pop() == 0:
                roots.append(cand)
                work = quotient
                break
        else:
            roots = None
            break
    exact = min(roots) if roots else None
    fmin = float(exact) if exact is not None else min(eigenvalues)
    shifted = [[a - tol * b for a, b in zip(*rows)] for rows in zip(g, m)]
    positive = all(algebra.rational_det([row[:k] for row in shifted[:k]]) > 0 for k in range(1, r + 1))
    return fmin, exact, positive


PLANTED = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(7, 3)]


@st.composite
def pencil_cases(draw):
    """(G, M, tol) with G = W^T B W and M = W^T W: B is block diagonal, the
    planted rational roots (repeats allowed) beside a random symmetric
    integer block, whose roots are mostly irrational."""
    r = draw(st.integers(1, 4))
    w = draw(st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r), min_size=r, max_size=r))
    assume(algebra.rank(w) == r)
    k = draw(st.integers(0, r))
    planted = draw(st.lists(st.sampled_from(PLANTED), min_size=k, max_size=k))
    b = [[Fraction(0)] * r for _ in range(r)]
    for i, x in enumerate(planted):
        b[i][i] = x
    for i in range(k, r):
        for j in range(i, r):
            b[i][j] = b[j][i] = Fraction(draw(st.integers(-3, 3)))
    g = [[sum(w[a][i] * b[a][c] * w[c][j] for a in range(r) for c in range(r)) for j in range(r)] for i in range(r)]
    m = [[Fraction(sum(w[a][i] * w[a][j] for a in range(r))) for j in range(r)] for i in range(r)]
    tol = draw(st.sampled_from(PLANTED + [Fraction(-3), Fraction(1, 3)]))
    return g, m, tol


class TestRealize:
    def test_single_partial(self):
        line = load_preset("debord_line")
        op = realize(element_from("g1", line), line.presentation)
        assert op.terms == {(1,): Polynomial.one(("x",))}

    def test_sum_of_squares_on_x_squared(self):
        pre = so3_preset()
        sos = element_from("sos", pre)
        op = realize(sos, pre.presentation)
        f = parse_polynomial("x^2", XYZ)
        # frozen from the sympy oracle below: the rotation sum-of-squares sends
        # x^2 to 2y^2 + 2z^2 - 4x^2
        expected = parse_polynomial("2*y^2 + 2*z^2 - 4*x^2", XYZ)
        assert op.apply(f) == expected
        syms = sympy.symbols(XYZ)
        assert oracle_apply(pre.presentation, sos, f) == to_sympy(expected, syms)

    def test_rotation_invariant_killed(self):
        pre = so3_preset()
        sos = element_from("sos", pre)
        op = realize(sos, pre.presentation)
        r2 = parse_polynomial("x^2 + y^2 + z^2", XYZ)
        assert op.apply(r2).is_zero()
        assert oracle_apply(pre.presentation, sos, r2) == 0

    def test_r4_counterexample_realizes_to_zero(self):
        pre = load_preset("r4_counterexample")
        element = UEAElement.from_words(pre.operators["p"], pre.presentation.vars)
        assert realize(element, pre.presentation).is_zero()

    def test_oracle_on_random_words(self):
        pre = so3_preset()
        p = pre.presentation
        rng = random.Random(41)
        syms = sympy.symbols(XYZ)
        for _ in range(8):
            letters = tuple(rng.randrange(3) for _ in range(rng.randint(1, 3)))
            coeff = Polynomial(
                XYZ, {tuple(rng.randint(0, 1) for _ in range(3)): Fraction(rng.randint(-2, 2))}
            )
            if coeff.is_zero():
                coeff = Polynomial.one(XYZ)
            element = UEAElement.from_words([OperatorWord(coeff, letters)], XYZ)
            op = realize(element, p)
            f = Polynomial(
                XYZ, {tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-3, 3))}
            )
            assert to_sympy(op.apply(f), syms) == oracle_apply(p, element, f)

    def test_unknown_letter_rejected(self):
        pre = so3_preset()
        element = UEAElement.from_words([OperatorWord(Polynomial.one(XYZ), (7,))], XYZ)
        with pytest.raises(ValueError):
            realize(element, pre.presentation)


class TestApply:
    def test_basic_partial(self):
        line = load_preset("debord_line")
        op = realize(element_from("g1", line), line.presentation)
        assert op.apply(parse_polynomial("x^2", ("x",))) == parse_polynomial("2*x", ("x",))

    def test_zero_operator(self):
        op = DiffOperator(XYZ, {})
        assert op.apply(parse_polynomial("x*y + z", XYZ)).is_zero()

    def test_linearity(self):
        pre = so3_preset()
        op = realize(element_from("g1.g2", pre), pre.presentation)
        f = parse_polynomial("x^2*y", XYZ)
        g = parse_polynomial("z^3 - x", XYZ)
        assert op.apply(f + g) == op.apply(f) + op.apply(g)


class TestAlgebraMorphism:
    def test_realize_respects_products(self):
        pre = so3_preset()
        p = pre.presentation
        rng = random.Random(42)
        texts = ["g1", "x*g2", "g1.g3 - g2", "z*g3.g1", "1 + y*g2"]
        for _ in range(6):
            a = element_from(rng.choice(texts), pre)
            b = element_from(rng.choice(texts), pre)
            product = uea_product(p, a, b)
            assert realize(product, p) == realize(a, p).compose(realize(b, p))

    def test_quotient_relation_soundness(self):
        # realize(a.(f b)) = realize((f a).b) + realize(X_a[f] . b), exactly
        pre = so3_preset()
        p = pre.presentation
        rng = random.Random(43)
        for _ in range(8):
            i = rng.randrange(3)
            f = Polynomial(
                XYZ, {tuple(rng.randint(0, 1) for _ in range(3)): Fraction(rng.randint(-3, 3))}
            )
            if f.is_zero():
                f = Polynomial.var("x", XYZ)
            w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 2)))
            g = Polynomial.const(rng.randint(1, 3), XYZ)
            a_dot_fb = UEAElement.from_words([OperatorWord(f * g, (i,) + w)], XYZ)
            fa_dot_b = UEAElement.from_words([OperatorWord(f * g, (i,) + w)], XYZ)
            # left side composed through the product machinery
            a = UEAElement.from_words([OperatorWord(Polynomial.one(XYZ), (i,))], XYZ)
            fb = UEAElement.from_words([OperatorWord(f * g, w)], XYZ)
            lhs = realize(uea_product(p, a, fb), p)
            deriv = p.generators[i].apply_to(f * g)
            rhs = realize(fa_dot_b, p) + realize(
                UEAElement.from_words([OperatorWord(deriv, w)], XYZ), p
            )
            assert lhs == rhs

    def test_degree_filtration(self):
        pre = so3_preset()
        p = pre.presentation
        for text in ("g1.g2.g3", "x*g1 + g2.g3", "1"):
            element = element_from(text, pre)
            assert realize(element, p).order <= element.degree


class TestSymbolTop:
    def test_sum_of_squares(self):
        pre = so3_preset()
        sigma = symbol_top(element_from("sos", pre), 2, fiber_dim=3)
        assert sigma == parse_polynomial("xi1^2 + xi2^2 + xi3^2", XYZ_XI)

    def test_r4_counterexample_nonzero(self):
        pre = load_preset("r4_counterexample")
        element = UEAElement.from_words(pre.operators["p"], pre.presentation.vars)
        sigma = symbol_top(element, 2, fiber_dim=16)
        assert not sigma.is_zero() and len(sigma.terms) == 2
        assert sigma.vars[4:] == tuple(f"xi{j+1}" for j in range(16))

    def test_coefficient_word(self):
        pre = so3_preset()
        sigma = symbol_top(element_from("x*g1", pre), 1, fiber_dim=3)
        assert sigma == parse_polynomial("x*xi1", XYZ_XI)

    def test_short_words_do_not_contribute(self):
        pre = so3_preset()
        sigma = symbol_top(element_from("g1.g2 + g3 + 5", pre), 2, fiber_dim=3)
        assert sigma == parse_polynomial("xi1*xi2", XYZ_XI)

    def test_homogeneity(self):
        pre = so3_preset()
        sigma = symbol_top(element_from("g1.g2 + z*g3.g3", pre), 2, fiber_dim=3)
        # structurally homogeneous, and numerically sigma(m, s*xi) = s^k sigma(m, xi)
        assert all(sum(exp[3:]) == 2 for exp in sigma.terms)
        rng = random.Random(44)
        for _ in range(10):
            m = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            xi = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            scaled = [lam * v for v in xi]
            assert sigma.eval(m + scaled) == lam ** 2 * sigma.eval(m + xi)


class TestClassicalSymbol:
    def test_mixed_partial(self):
        op = DiffOperator(("x", "y"), {(1, 1): Polynomial.one(("x", "y"))})
        sigma = classical_principal_symbol(op, 2)
        assert sigma == parse_polynomial("eta1*eta2", ("x", "y", "eta1", "eta2"))

    def test_zero(self):
        assert classical_principal_symbol(DiffOperator(XYZ, {}), 2).is_zero()

    def test_so3_at_pole(self):
        pre = so3_preset()
        op = realize(element_from("sos", pre), pre.presentation)
        sigma = classical_principal_symbol(op, 2)
        # rank-2 quadratic form annihilating covectors parallel to the point
        m = (0, 0, 1)
        assert sigma.eval(m + (0, 0, 1)) == 0
        assert sigma.eval(m + (1, 0, 0)) == 1
        assert sigma.eval(m + (0, 1, 0)) == 1
        assert sigma.eval(m + (1, 1, 0)) == 2


class TestPullback:
    def test_single_generator(self):
        pre = so3_preset()
        report = pullback_consistency(element_from("g1", pre), pre.presentation)
        assert report.ok

    def test_sum_of_squares(self):
        pre = so3_preset()
        report = pullback_consistency(element_from("sos", pre), pre.presentation)
        assert report.ok and report.defect.is_zero()

    def test_top_symbol_of_another_element_fails(self):
        pre = so3_preset()
        p = pre.presentation
        top = symbol_top(element_from("g1", pre), 1, fiber_dim=3)
        classical = classical_principal_symbol(realize(element_from("g2", pre), p), 1)
        report = PullbackReport(pullback_defect(top, classical, p))
        assert not report.ok
        # X_2 . eta - X_1 . eta with X_1 = z d/dy - y d/dz and X_2 = x d/dz - z d/dx
        names = XYZ + ("eta1", "eta2", "eta3")
        assert report.defect == parse_polynomial("-z*eta1 - z*eta2 + x*eta3 + y*eta3", names)

    def test_counterexample_both_sides_zero(self):
        pre = load_preset("r4_counterexample")
        element = UEAElement.from_words(pre.operators["p"], pre.presentation.vars)
        m = (1, 1, 1, 1)
        classical = classical_principal_symbol(realize(element, pre.presentation), 2)
        top = symbol_top(element, 2, fiber_dim=16)
        rng = random.Random(45)
        for _ in range(10):
            eta = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
            pulled = algebra.mat_vec(algebra.transpose(pre.presentation.anchor_at(m)), eta)
            assert classical.eval(m + tuple(eta)) == 0
            assert top.eval(m + tuple(pulled)) == 0


class TestSymbolOnFiber:
    def test_projection_plane(self):
        pre = so3_preset()
        sigma = symbol_top(element_from("sos", pre), 2, fiber_dim=3)
        v_dual = make_subspace([(0, 1, 0), (0, 0, 1)])
        restricted = symbol_on_fiber(sigma, (1, 0, 0), v_dual)
        u = ("u1", "u2")
        assert restricted == parse_polynomial("u1^2 + u2^2", u)

    def test_zero_symbol(self):
        pre = so3_preset()
        zero = symbol_top(element_from("g1 - g1", pre), 2, fiber_dim=3)
        v_dual = make_subspace([(1, 0, 0)])
        assert symbol_on_fiber(zero, (0, 0, 0), v_dual).is_zero()

    def test_restriction_depends_only_on_realization(self):
        # the two halves of the counterexample word have different symbols but
        # equal realizations; restrictions to sampled fibers must agree
        pre = load_preset("r4_counterexample")
        p = pre.presentation
        half_a = element_from("g12.g34", pre)
        half_b = element_from("g14.g32", pre)
        assert realize(half_a, p) == realize(half_b, p)
        sig_a = symbol_top(half_a, 2, fiber_dim=16)
        sig_b = symbol_top(half_b, 2, fiber_dim=16)
        points_and_curves = [
            ((0, 0, 0, 0), [Curve.ray((0, 0, 0, 0), (1, 1, 1, 1)), Curve.ray((0, 0, 0, 0), (1, 0, 0, 0))]),
            ((1, 2, 1, 1), [Curve.constant((1, 2, 1, 1))]),
        ]
        for m, curves in points_and_curves:
            for space in hn_fiber(p, m, curves).spaces:
                assert symbol_on_fiber(sig_a, m, space) == symbol_on_fiber(sig_b, m, space)

    def test_fibers_inside_strong_kernel_annihilator(self):
        suites = [("so3_r3", (0, 0, 0)), ("so3_r3", (1, 0, 0)), ("order2_r2", (0, 0))]
        for name, m in suites:
            p = load_preset(name).presentation
            sker_ann = annihilator(strong_kernel_at(p, m))
            for space in hn_fiber(p, m).spaces:
                assert sker_ann.contains_subspace(space)

    def test_dimension_mismatch(self):
        pre = so3_preset()
        sigma = symbol_top(element_from("sos", pre), 2, fiber_dim=3)
        with pytest.raises(ValueError):
            symbol_on_fiber(sigma, (0, 0, 0), make_subspace([(1, 0)]))


class TestEllipticity:
    def test_sum_of_squares_elliptic(self):
        pre = so3_preset()
        rep = ellipticity_check(
            element_from("sos", pre), pre.presentation, [(0, 0, 0), (1, 0, 0)], tolerance=1e-9
        )
        assert rep.elliptic
        for pv in rep.points:
            for fv in pv.fibers:
                assert fv.exact_min == 1

    def test_single_square_not_elliptic_at_origin(self):
        pre = so3_preset()
        rep = ellipticity_check(element_from("g1sq", pre), pre.presentation, [(0, 0, 0)])
        assert not rep.elliptic
        witness = rep.points[0].witness
        assert witness is not None
        sigma = symbol_top(element_from("g1sq", pre), 2, fiber_dim=3)
        assert symbol_on_fiber(sigma, (0, 0, 0), witness).is_zero()

    def test_debord_square_elliptic(self):
        pre = load_preset("debord_line")
        rep = ellipticity_check(element_from("g1sq", pre), pre.presentation, [(0,), (1,)])
        assert rep.elliptic

    def test_odd_degree_raises_unless_forced(self):
        pre = so3_preset()
        with pytest.raises(OddDegreeWarning):
            ellipticity_check(element_from("g1", pre), pre.presentation, [(1, 0, 0)])
        rep = ellipticity_check(
            element_from("g1", pre), pre.presentation, [(1, 0, 0)], convention="nonvanishing"
        )
        assert not rep.elliptic  # |xi_1| vanishes somewhere on the fiber sphere

    def test_nonvanishing_convention_accepts_negative_definite(self):
        pre = so3_preset()
        negative = element_from("0 - g1.g1 - g2.g2 - g3.g3", pre)
        strict = ellipticity_check(negative, pre.presentation, [(1, 0, 0)])
        assert not strict.elliptic
        loose = ellipticity_check(
            negative, pre.presentation, [(1, 0, 0)], convention="nonvanishing"
        )
        assert loose.elliptic
        assert loose.points[0].fibers[0].exact_min == 1  # min |symbol| on the sphere

    def test_unknown_convention_rejected(self):
        pre = so3_preset()
        with pytest.raises(ValueError):
            ellipticity_check(
                element_from("sos", pre), pre.presentation, [(1, 0, 0)], convention="bogus"
            )

    def test_gram_matches_the_dense_sum(self):
        # seeded sparse rational bases, empty rows and no rows included
        rng = random.Random(0)
        for _ in range(200):
            width = rng.randint(1, 16)
            density = rng.choice([0.0, 0.1, 0.3, 1.0])
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < density else Fraction(0) for _ in range(width)]
                for _ in range(rng.randint(0, 6))
            ]
            dense = [[sum((a[j] * b[j] for j in range(width)), Fraction(0)) for b in rows] for a in rows]
            gram = _gram(rows)
            assert gram == dense
            assert all(type(x) is Fraction for row in gram for x in row)

    def test_pencil_snaps_large_rational_roots(self):
        # G = W^T diag(roots) W and M = W^T W: the pencil's roots, one double
        roots = [Fraction(1000000007, 3), Fraction(-2, 5), Fraction(7), Fraction(7)]
        w = [[1, 2, 0, 1], [0, 1, -1, 0], [1, 0, 1, 2], [0, 1, 0, 1]]
        g, m = congruent_pencil(w, roots)
        assert _pencil_minimum(g, m, Fraction(0)) == (-0.4, Fraction(-2, 5), False)
        assert _pencil_minimum(g, m, Fraction(-1, 2)) == (-0.4, Fraction(-2, 5), True)

    def test_pencil_irrational_roots_leave_no_exact_min(self):
        # roots +-sqrt 2: no snap of +-1.41421356... is a root
        g = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        fmin, emin, pos = _pencil_minimum(g, identity(2), Fraction(-2))
        assert abs(fmin + 2**0.5) < 1e-12 and emin is None and pos is True

    def test_pencil_snap_counts_multiplicity(self):
        # roots 1 and 11/10 -+ sqrt(2)/10: the root 0.958... snaps to 1 at
        # bound 1 and takes the simple root 1, so the float 1.0 finds none
        # left and the minimum is not exact
        tenth = Fraction(1, 10)
        g = [[Fraction(1), 0, 0], [0, Fraction(1), tenth], [0, tenth, Fraction(6, 5)]]
        fmin, emin, pos = _pencil_minimum(g, identity(3), Fraction(0))
        assert abs(fmin - (1.1 - 2**0.5 / 10)) < 1e-12 and emin is None and pos is True
        assert pencil_oracle(g, identity(3), Fraction(0)) == (fmin, emin, pos)

    @settings(max_examples=200, deadline=None)
    @given(pencil_cases())
    def test_pencil_matches_the_characteristic_polynomial_route(self, case):
        g, m, tol = case
        assert _pencil_minimum(g, m, tol) == pencil_oracle(g, m, tol)

    def test_pencil_minimum_verdict(self):
        one, half = Fraction(1), Fraction(1, 2)
        eye = identity(2)
        # roots (3 +- sqrt 5)/2: no exact minimum, the verdict still exact
        g = [[one, one], [one, Fraction(2)]]
        fmin, emin, pos = _pencil_minimum(g, eye, Fraction(0))
        assert abs(fmin - (3 - 5**0.5) / 2) < 1e-12 and emin is None and pos is True
        assert _pencil_minimum(g, eye, half) == (fmin, None, False)
        # rational roots 1 and 3: the minimum must exceed tol strictly
        g = [[one, Fraction(0)], [Fraction(0), Fraction(3)]]
        assert _pencil_minimum(g, eye, one) == (1.0, 1, False)
        assert _pencil_minimum(g, eye, half) == (1.0, 1, True)

    def test_quartic_sphere_sampling(self):
        pre = so3_preset()
        quartic = element_from("g1.g1.g1.g1 + g2.g2.g2.g2 + g3.g3.g3.g3", pre)
        rep = ellipticity_check(quartic, pre.presentation, [(1, 0, 0)], tolerance=1e-3, seed=0)
        assert rep.elliptic
        # min of u^4 + v^4 on the unit circle is 1/2
        assert abs(rep.points[0].fibers[0].min_value - 0.5) < 1e-3
