import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_foliation import bracket_coords

from folcone import algebra
from folcone.expr import Polynomial, parse_vector_field
from folcone.foliation import FoliationPresentation, isotropy_algebra, strong_kernel_at
from folcone.grassmann import Curve, annihilator, make_subspace
from folcone.hncone import (
    NashFiberSample,
    cone_checks,
    curve_family,
    hn_fiber,
    hn_membership_distance,
    limit_subalgebra_check,
    nash_fiber,
    sandwich_check,
)
from folcone.presets import load_preset

XYZ = ("x", "y", "z")


def so3():
    return load_preset("so3_r3").presentation


class TestCurveFamily:
    def test_axis_rays_always_included(self):
        family = curve_family((0, 0, 0), direction_count=3, arc_degree=1)
        labels = {c.label for c in family}
        for d in ("(1,0,0)", "(0,1,0)", "(0,0,1)"):
            assert f"ray d={d}" in labels

    def test_constant_curve_included(self):
        family = curve_family((1, 0, 0))
        assert any(c.is_constant() for c in family)

    def test_degree_two_arcs_present(self):
        family = curve_family((0, 0), arc_degree=2)
        labels = {c.label for c in family}
        assert "arc d=(1,0) e=(0,1) pow=2" in labels
        assert "arc d=(0,1) e=(1,0) pow=2" in labels

    def test_deterministic_from_seed(self):
        f1 = curve_family((0, 0, 0), direction_count=15, seed=5)
        f2 = curve_family((0, 0, 0), direction_count=15, seed=5)
        assert [c.label for c in f1] == [c.label for c in f2]

    def test_default_family_size(self):
        # n axis + 2n diagonal rays + n(n-1) arcs + constant
        family = curve_family((0, 0, 0))
        rays = [c for c in family if c.label.startswith("ray")]
        arcs = [c for c in family if c.label.startswith("arc")]
        assert len(rays) == 9 and len(arcs) == 6

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_more_directions_than_the_draw_reaches(self, n):
        # every primitive direction in [-3,3]^n up to sign, and no more; the
        # draw stops there instead of spending 100 attempts per missing one
        reachable = {
            tuple(v) if next(x for x in v if x) > 0 else tuple(-x for x in v)
            for v in itertools.product(range(-3, 4), repeat=n)
            if any(v) and math.gcd(*v) == 1
        }
        family = curve_family((0,) * n, direction_count=10**8, arc_degree=1, include_constant=False)
        assert {tuple(int(x) for x in c.label[len("ray d=("):-1].split(",")) for c in family} == reachable


class TestNashFiber:
    def test_regular_point_collapses(self):
        sample = nash_fiber(so3(), (1, 0, 0))
        assert len(sample.limits) == 1
        assert sample.limits[0].basis == ((Fraction(1), 0, 0),)
        assert all(r.accepted for r in sample.curves_used)

    def test_origin_axis_rays(self):
        curves = [Curve.ray((0, 0, 0), d) for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        sample = nash_fiber(so3(), (0, 0, 0), curves)
        expected = {make_subspace([d], 3) for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1))}
        assert set(sample.limits) == expected

    def test_limits_sorted_and_indexed_with_fractional_entries(self):
        # the ray limits span(d) read (1, d2/d1, 0): their order turns on the denominators
        dirs = ((1, 1, 0), (3, 2, 0), (2, 1, 0), (3, 1, 0), (2, 1, 0))
        sample = nash_fiber(so3(), (0, 0, 0), [Curve.ray((0, 0, 0), d) for d in dirs])
        assert [v.basis[0][1] for v in sample.limits] == [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1]
        for d, record in zip(dirs, sample.curves_used):
            assert sample.limits[record.limit_index] == make_subspace([d], 3)

    def test_rejected_curves_logged(self):
        curves = [Curve.constant((0, 0, 0)), Curve.ray((0, 0, 0), (1, 0, 0))]
        sample = nash_fiber(so3(), (0, 0, 0), curves)
        flags = {r.label: r.accepted for r in sample.curves_used}
        assert flags["constant"] is False and len(sample.limits) == 1
        reason = next(r.reason for r in sample.curves_used if not r.accepted)
        assert "CurveNotGeneric" in reason

    def test_off_center_curve_rejected(self):
        sample = nash_fiber(so3(), (0, 0, 0), [Curve.ray((1, 0, 0), (1, 0, 0))])
        assert not sample.limits
        assert "not centered" in sample.curves_used[0].reason

    def test_determinism(self):
        a = nash_fiber(so3(), (0, 0, 0), seed=3)
        b = nash_fiber(so3(), (0, 0, 0), seed=3)
        assert a.limits == b.limits
        assert [r.label for r in a.curves_used] == [r.label for r in b.curves_used]

    def test_order2_distinct_limit_count(self):
        o2 = load_preset("order2_r2").presentation
        curves = [Curve.ray((0, 0), (1, c)) for c in (0, 1, 2)] + [Curve.arc((0, 0), (0, 1), (1, 0))]
        sample = nash_fiber(o2, (0, 0), curves)
        assert len(sample.limits) == 4
        assert all(v.dim == 4 for v in sample.limits)

    def test_non_empty_across_presets(self):
        suites = [
            ("so3_r3", (0, 0, 0)),
            ("vanishing_origin_2", (0, 0)),
            ("order2_r2", (0, 0)),
            ("debord_line", (0,)),
        ]
        for name, point in suites:
            p = load_preset(name).presentation
            sample = nash_fiber(p, point)
            assert sample.limits, name


class TestHNFiber:
    def test_regular_points_give_orthogonal_planes(self):
        for v in ((1, 0, 0), (0, 2, 0), (1, 1, 1)):
            sample = hn_fiber(so3(), v)
            assert len(sample.spaces) == 1
            assert sample.spaces[0] == annihilator(make_subspace([v], 3))

    def test_dimension_law(self):
        samples = [
            hn_fiber(so3(), (0, 0, 0)),
            hn_fiber(load_preset("vanishing_origin_2").presentation, (0, 0)),
            hn_fiber(load_preset("order2_r2").presentation, (0, 0)),
        ]
        for sample in samples:
            p_rank = {3: 2, 4: 2, 6: 2}[sample.spaces[0].ambient_dim]
            for space in sample.spaces:
                assert space.dim == p_rank

    def test_gl2_rank_one_matrices(self):
        gl2 = load_preset("vanishing_origin_2").presentation
        sample = hn_fiber(gl2, (0, 0))
        from folcone import algebra

        for space in sample.spaces:
            for row in space.basis:
                matrix = [[row[0], row[1]], [row[2], row[3]]]
                assert algebra.rank(matrix) <= 1

    def test_debord_full_dual(self):
        deb = load_preset("debord_line").presentation
        sample = hn_fiber(deb, (2,))
        assert len(sample.spaces) == 1 and sample.spaces[0].dim == 1


class TestChecks:
    def test_sandwich_so3_origin(self):
        p = so3()
        sample = nash_fiber(p, (0, 0, 0))
        report = sandwich_check(p, sample, strong_kernel_at(p, (0, 0, 0)))
        assert report.ok and report.sker_dim == 0 and report.ker_dim == 3

    def test_sandwich_regular_point(self):
        p = so3()
        sample = nash_fiber(p, (1, 0, 0))
        report = sandwich_check(p, sample, strong_kernel_at(p, (1, 0, 0)))
        assert report.ok and report.sker_dim == report.ker_dim == 1

    def test_cone_checks_without_structure_functions(self):
        # [d/dx, x d/dy] = d/dy is no combination of the fields at x = 0
        xy = ("x", "y")
        p = FoliationPresentation(xy, (parse_vector_field("d/dx", xy), parse_vector_field("x*d/dy", xy)))
        checks = cone_checks(p, nash_fiber(p, (0, 0)))
        assert checks.sandwich.ok and checks.subalgebra is None

    def test_subalgebra_so3_origin(self):
        p = so3()
        sample = nash_fiber(p, (0, 0, 0))
        iso = isotropy_algebra(p, (0, 0, 0))
        report = limit_subalgebra_check(p, sample, iso)
        assert report.ok and report.expected_codim == 2
        assert all(v.dim == 1 for v in report.images)

    def test_subalgebra_gl2_origin(self):
        p = load_preset("vanishing_origin_2").presentation
        sample = nash_fiber(p, (0, 0))
        iso = isotropy_algebra(p, (0, 0))
        report = limit_subalgebra_check(p, sample, iso)
        assert report.ok and report.expected_codim == 2
        assert all(v.dim == 2 for v in report.images)

    def test_subalgebra_not_closed_is_reported(self):
        # span(e1, e2) in so(3): [e1, e2] = +-e3 leaves the plane
        p = so3()
        origin = (Fraction(0),) * 3
        plane = make_subspace([(1, 0, 0), (0, 1, 0)], 3)
        sample = NashFiberSample(origin, (plane,), ())
        report = limit_subalgebra_check(p, sample, isotropy_algebra(p, origin))
        assert report.closed == (False,)
        assert "limit 0: image not closed under the isotropy bracket" in report.violations
        assert not report.ok

    def test_not_closed_away_from_the_first_row(self):
        # in gl3 the identity g11 + g22 + g33 is central and leads the reduced
        # basis; only [g12, g21] = +-(g11 - g22) leaves the span
        p = load_preset("vanishing_origin_3").presentation
        origin = (Fraction(0),) * 3
        span = make_subspace([(1, 0, 0, 0, 1, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0, 0)], 9)
        report = limit_subalgebra_check(p, NashFiberSample(origin, (span,), ()), isotropy_algebra(p, origin))
        assert report.closed == (False,)

    def test_point_mismatch_rejected(self):
        p = so3()
        sample = nash_fiber(p, (0, 0, 0))
        iso = isotropy_algebra(p, (1, 0, 0))
        with pytest.raises(ValueError):
            limit_subalgebra_check(p, sample, iso)


@lru_cache(maxsize=None)
def origin_isotropy(name):
    """The preset, its isotropy algebra at the origin and the Nash fiber there."""
    p = load_preset(name).presentation
    origin = (Fraction(0),) * p.dim
    return p, isotropy_algebra(p, origin), nash_fiber(p, origin)


def closed_by_brackets(iso, vectors):
    """The subalgebra generated by ``vectors``: their span, closed under the
    bracket by adding the brackets of its basis until the dimension stays."""
    span = make_subspace(vectors, iso.dim)
    while True:
        brackets = [bracket_coords(iso, a, b) for a, b in itertools.combinations(span.basis, 2)]
        bigger = make_subspace(list(span.basis) + brackets, iso.dim)
        if bigger.dim == span.dim:
            return span
        span = bigger


def centralizer(iso, x):
    """{y : [x, y] = 0}, a subalgebra by the Jacobi identity."""
    ad_columns = [bracket_coords(iso, x, e) for e in algebra.identity(iso.dim)]
    return make_subspace(algebra.kernel_basis(algebra.transpose(ad_columns), iso.dim), iso.dim)


@st.composite
def quotient_subspaces(draw):
    """A preset with a nonzero isotropy algebra at the origin and a subspace of
    that algebra: spanned by sparse rational vectors, or closed by
    construction (a limit's image, a generated subalgebra, a centralizer, the
    derived algebra)."""
    name = draw(st.sampled_from(["vanishing_origin_2", "vanishing_origin_3", "order2_r2", "r4_counterexample"]))
    p, iso, sample = origin_isotropy(name)
    g = iso.dim
    entry = st.sampled_from([0] * 6 + [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
    vector = st.lists(entry, min_size=g, max_size=g)
    kind = draw(st.sampled_from(["span", "span", "limit", "generated", "centralizer", "derived"]))
    if kind == "span":
        vbar = make_subspace(draw(st.lists(vector, max_size=g)), g)
    elif kind == "limit":
        vbar = iso.project_subspace(draw(st.sampled_from(sample.limits)))
    elif kind == "generated":
        vbar = closed_by_brackets(iso, draw(st.lists(vector, min_size=1, max_size=2)))
    elif kind == "centralizer":
        vbar = centralizer(iso, draw(vector))
    else:
        vbar = closed_by_brackets(iso, [bracket_coords(iso, a, b) for a, b in itertools.combinations(algebra.identity(g), 2)])
    return p, iso, vbar


class TestSubalgebraClosure:
    @settings(max_examples=120, deadline=None)
    @given(quotient_subspaces())
    def test_closure_matches_pairwise_brackets(self, case):
        p, iso, vbar = case
        # lift the classes to the kernel: sum_a c_a q_a for the representatives q_a
        lifted = make_subspace(
            [[sum(c * q[i] for c, q in zip(row, iso.quotient_basis)) for i in range(p.num_generators)]
             for row in vbar.basis],
            p.num_generators,
        )
        report = limit_subalgebra_check(p, NashFiberSample(iso.point, (lifted,), ()), iso)
        assert report.images == (vbar,)
        expected = all(
            vbar.contains_vector(bracket_coords(iso, a, b)) for a, b in itertools.combinations(vbar.basis, 2)
        )
        assert report.closed == (expected,)


class TestMembershipDistance:
    def test_member_is_zero(self):
        sample = hn_fiber(so3(), (1, 0, 0))
        xi = sample.spaces[0].basis[0]
        assert hn_membership_distance(sample, [float(x) for x in xi]) < 1e-14

    def test_axis_sample_diagonal_covector(self):
        curves = [Curve.ray((0, 0, 0), d) for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        sample = hn_fiber(so3(), (0, 0, 0), curves)
        xi = [1 / math.sqrt(3)] * 3
        assert abs(hn_membership_distance(sample, xi) - 1 / math.sqrt(3)) < 1e-12

    def test_zero_covector(self):
        sample = hn_fiber(so3(), (0, 0, 0))
        assert hn_membership_distance(sample, [0.0, 0.0, 0.0]) == 0.0


class TestPresentationIndependence:
    def test_nonzero_redundant_generator(self):
        base = so3()
        x, y = Polynomial.var("x", XYZ), Polynomial.var("y", XYZ)
        extra = x * base.generators[0] + y * base.generators[1]
        aug = FoliationPresentation(XYZ, base.generators + (extra,), name="so3_aug_nonzero")
        for point in ((0, 0, 0), (1, 1, 1)):
            point = tuple(Fraction(q) for q in point)
            iso = isotropy_algebra(base, point)
            base_images = {
                iso.project_subspace(v).basis for v in nash_fiber(base, point).limits
            }
            h_at = (x.eval(point), y.eval(point), Fraction(0))
            aug_images = set()
            for v in nash_fiber(aug, point).limits:
                mapped = [
                    tuple(row[i] + row[3] * h_at[i] for i in range(3)) for row in v.basis
                ]
                image = make_subspace(mapped, 3)
                aug_images.add(iso.project_subspace(image).basis)
            assert base_images == aug_images
