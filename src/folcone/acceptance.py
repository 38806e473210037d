"""The acceptance suite: eleven exactly-specified checks over the builtin presets.

Each criterion function returns a CriterionResult and is cached, so the CLI
``selftest`` command and the pytest acceptance module share one computation.
Tolerances are pinned here; everything rational is compared exactly.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import algebra
from .expr import Polynomial
from .foliation import FoliationPresentation, isotropy_algebra, monomials_up_to
from .grassmann import Curve, Subspace, annihilator, make_subspace, principal_angle
from .hncone import cone_checks, curve_family, hn_fiber, nash_fiber
from .poisson import check_scenario
from .presets import BUILTIN_NAMES, load_preset
from .symbols import (
    UEAElement,
    ellipticity_check,
    pullback_consistency,
    realize,
    symbol_on_fiber,
    symbol_top,
)


@dataclass(frozen=True)
class CriterionResult:
    criterion: int
    title: str
    passed: bool
    detail: str


def _result(num: int, title: str, failures: list[str], detail: str = "") -> CriterionResult:
    if failures:
        return CriterionResult(num, title, False, "; ".join(failures[:5]))
    return CriterionResult(num, title, True, detail)


# ---------------------------------------------------------------------------
# Criterion 1: regular cone fibers of the rotation preset
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def criterion_1() -> CriterionResult:
    title = "so3 regular fiber equals the orthogonal plane of the base point"
    so3 = load_preset("so3_r3").presentation
    failures = []
    for v in ((1, 0, 0), (0, 2, 0), (1, 1, 1)):
        sample = hn_fiber(so3, v)
        expected = annihilator(make_subspace([tuple(Fraction(x) for x in v)]))
        if len(sample.spaces) != 1:
            failures.append(f"point {v}: {len(sample.spaces)} covector spaces, expected 1")
            continue
        if sample.spaces[0].plucker != expected.plucker:
            failures.append(f"point {v}: Pluecker mismatch {sample.spaces[0].plucker} vs {expected.plucker}")
    return _result(1, title, failures, "3 regular points, singleton fibers, exact Pluecker equality")


# ---------------------------------------------------------------------------
# Criterion 2: the singular fiber at the origin covers the dual space
# ---------------------------------------------------------------------------


def _orthogonal_rays() -> list[tuple[tuple[Fraction, ...], Curve]]:
    """Ten seeded covectors xi of so3_r3, each with a ray at the origin orthogonal to it."""
    rng = random.Random(2)
    out = []
    for _ in range(10):
        xi = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3))
        if all(x == 0 for x in xi):
            xi = (Fraction(1), Fraction(0), Fraction(0))
        d = algebra.kernel_basis([list(xi)], ncols=3)[0]
        out.append((xi, Curve.ray((0, 0, 0), d)))
    return out


@lru_cache(maxsize=None)
def criterion_2() -> CriterionResult:
    title = "so3 fiber at the origin covers every covector via an orthogonal ray"
    so3 = load_preset("so3_r3").presentation
    failures = []
    covered = 0
    for trial, (xi, ray) in enumerate(_orthogonal_rays()):
        sample = hn_fiber(so3, (0, 0, 0), [ray])
        if len(sample.spaces) != 1:
            failures.append(f"trial {trial}: ray rejected")
            continue
        if not sample.spaces[0].contains_vector(xi):
            failures.append(f"trial {trial}: xi={xi} not in the fiber element")
        else:
            covered += 1
    if covered != 10 and not failures:
        failures.append(f"coverage {covered}/10")
    return _result(2, title, failures, "10 seeded covectors, all covered exactly")


# ---------------------------------------------------------------------------
# Criterion 3: linear-action presets give rank-<=-1 covector matrices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def criterion_3() -> CriterionResult:
    title = "vanishing_origin_d fibers at 0 are made of rank-<=-1 matrices (d=2,3)"
    failures = []
    rng = random.Random(3)
    for d in (2, 3):
        p = load_preset(f"vanishing_origin_{d}").presentation
        origin = tuple(Fraction(0) for _ in range(d))
        sample = hn_fiber(p, origin)
        if not sample.spaces:
            failures.append(f"d={d}: empty fiber sample")
            continue
        for s_idx, space in enumerate(sample.spaces):
            vectors = [row for row in space.basis]
            for _ in range(50):
                combo = [Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(space.dim)]
                vec = [
                    sum((combo[a] * space.basis[a][q] for a in range(space.dim)), Fraction(0))
                    for q in range(space.ambient_dim)
                ]
                vectors.append(tuple(vec))
            for vec in vectors:
                matrix = [[vec[i * d + j] for j in range(d)] for i in range(d)]
                if algebra.rank(matrix) > 1:
                    failures.append(f"d={d}, space {s_idx}: rank > 1 element {vec}")
                    break
    return _result(3, title, failures, "basis covectors and 50 seeded elements per space, exact rank")


# ---------------------------------------------------------------------------
# Criterion 4: the order-two preset's fiber planes satisfy the cone equations
# ---------------------------------------------------------------------------


def _order2_curves() -> list[Curve]:
    origin = (0, 0)
    curves = [Curve.ray(origin, (1, c), label=f"ray (1,{c})") for c in (0, 1, 2, 3)]
    curves.append(Curve.arc(origin, (1, 0), (0, 1), label="arc (t,t^2)"))
    curves.append(Curve.arc(origin, (0, 1), (1, 0), label="arc (t^2,t)"))
    return curves


@lru_cache(maxsize=None)
def criterion_4() -> CriterionResult:
    title = "order2 fiber planes satisfy xi1*xi2 = xi3^2 and xi4*xi5 = xi6^2; >= 5 planes"
    p = load_preset("order2_r2").presentation
    sample = hn_fiber(p, (0, 0), _order2_curves())
    failures = []
    if len(sample.spaces) < 5:
        failures.append(f"only {len(sample.spaces)} distinct planes")
    for idx, space in enumerate(sample.spaces):
        if space.dim != 2:
            failures.append(f"plane {idx}: dimension {space.dim}")
        for row in space.basis:
            if row[0] * row[1] - row[2] ** 2 != 0 or row[3] * row[4] - row[5] ** 2 != 0:
                failures.append(f"plane {idx}: cone equation fails on {row}")
    return _result(4, title, failures, f"{len(sample.spaces)} distinct planes, cone equations exact")


# ---------------------------------------------------------------------------
# Criterion 5: the degree-2 word with zero realization but nonzero symbol
# ---------------------------------------------------------------------------


def _r4_fiber_points():
    origin = (0, 0, 0, 0)
    curves_origin = [
        Curve.ray(origin, (1, 0, 0, 0)),
        Curve.ray(origin, (0, 1, 0, 0)),
        Curve.ray(origin, (0, 0, 1, 0)),
        Curve.ray(origin, (0, 0, 0, 1)),
        Curve.ray(origin, (1, 1, 1, 1)),
        Curve.arc(origin, (1, 0, 0, 0), (0, 1, 0, 0)),
        Curve.arc(origin, (0, 0, 1, 0), (0, 0, 0, 1)),
    ]
    regulars = [(1, 1, 1, 1), (1, 2, 1, 3)]
    return origin, curves_origin, regulars


@lru_cache(maxsize=None)
def criterion_5() -> CriterionResult:
    title = "r4 word realizes to zero, has nonzero symbol, and vanishes on all cone fibers"
    preset = load_preset("r4_counterexample")
    p = preset.presentation
    element = UEAElement.from_words(preset.operators["p"], p.vars)
    op = realize(element, p)
    failures = []
    for mono in monomials_up_to(4, 4):
        f = Polynomial.monomial(mono, 1, p.vars)
        if not op.apply(f).is_zero():
            failures.append(f"realization does not annihilate x^{mono}")
            break
    sigma = symbol_top(element, 2, fiber_dim=p.num_generators)
    if sigma.is_zero():
        failures.append("top symbol unexpectedly zero")
    origin, curves_origin, regulars = _r4_fiber_points()
    samples = [hn_fiber(p, origin, curves_origin)]
    samples += [hn_fiber(p, m, [Curve.constant(m)]) for m in regulars]
    for sample in samples:
        if not sample.spaces:
            failures.append(f"empty fiber sample at {sample.point}")
        for space in sample.spaces:
            if not symbol_on_fiber(sigma, sample.point, space).is_zero():
                failures.append(f"nonzero restriction at {sample.point}")
                break
    return _result(5, title, failures, "70 monomials annihilated; restrictions vanish on every sampled space")


# ---------------------------------------------------------------------------
# Criterion 6: classical symbol vs top symbol through the transposed anchor
# ---------------------------------------------------------------------------


def _random_element(p: FoliationPresentation, rng: random.Random) -> UEAElement:
    from .expr import OperatorWord

    words = []
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(0, 3)
        letters = tuple(rng.randrange(p.num_generators) for _ in range(length))
        terms = {}
        for _ in range(rng.randint(1, 2)):
            exp = tuple(rng.randint(0, 1) for _ in range(p.dim))
            terms[exp] = Fraction(rng.randint(-3, 3))
        coeff = Polynomial(p.vars, terms)
        if coeff.is_zero():
            coeff = Polynomial.one(p.vars)
        words.append(OperatorWord(coeff, letters))
    element = UEAElement.from_words(words, p.vars)
    if element.is_zero() or element.degree == 0:
        element = UEAElement.from_words([OperatorWord(Polynomial.one(p.vars), (0,))], p.vars)
    return element


@lru_cache(maxsize=None)
def criterion_6() -> CriterionResult:
    title = "pullback consistency: classical symbol = top symbol through the transposed anchor"
    failures = []
    for name in BUILTIN_NAMES:
        p = load_preset(name).presentation
        rng = random.Random(6)
        for e_idx in range(5):
            if not pullback_consistency(_random_element(p, rng), p).ok:
                failures.append(f"{name}: element {e_idx} fails")
    return _result(6, title, failures, "6 presets x 5 elements, exact identities in Q[x, eta]")


# ---------------------------------------------------------------------------
# Criterion 7: sandwich inclusions and limit subalgebras at singular points
# ---------------------------------------------------------------------------


_SINGULAR_SUITES: tuple[tuple[str, tuple, object], ...] = (
    ("so3_r3", (0, 0, 0), None),
    ("vanishing_origin_2", (0, 0), None),
    ("vanishing_origin_3", (0, 0, 0), None),
    ("order2_r2", (0, 0), None),
    ("r4_counterexample", (0, 0, 0, 0), "small"),
)


def _singular_sample(name: str, point, family):
    p = load_preset(name).presentation
    if family == "small":
        origin, curves, _ = _r4_fiber_points()
        return p, nash_fiber(p, point, curves)
    return p, nash_fiber(p, point)


@lru_cache(maxsize=None)
def criterion_7() -> CriterionResult:
    title = "sandwich inclusions and bracket-closed limit images of expected codimension"
    failures = []
    for name, point, family in _SINGULAR_SUITES:
        p, sample = _singular_sample(name, point, family)
        if not sample.limits:
            failures.append(f"{name}: empty sample")
            continue
        checks = cone_checks(p, sample)
        for report in (checks.sandwich, checks.subalgebra):
            if not report.ok:
                failures.append(f"{name}: {report.violations[0]}")
    return _result(7, title, failures, "5 presets at their singular point, all inclusions exact")


# ---------------------------------------------------------------------------
# Criterion 8: Poisson invariance of the cone under Hamiltonian flows
# ---------------------------------------------------------------------------


_POISSON_SCENARIOS = {
    "so3_r3": (
        ((1, 0, 0), 1, (1, 1, 1)),
        ((0, 0, 1), 0, (1, -1, 2)),
        ((1, 1, 0), 2, (2, 1, 1)),
    ),
    "vanishing_origin_2": (
        ((1, 0), 1, (1, 1)),
        ((1, 2), 0, (1, -1)),
        ((0, 1), 2, (2, 1)),
    ),
}


@lru_cache(maxsize=None)
def criterion_8() -> CriterionResult:
    title = "cone membership drift and cotangent-lift deviation <= 1e-6 over RK4 flows"
    failures = []
    for name, scenarios in _POISSON_SCENARIOS.items():
        p = load_preset(name).presentation
        for idx, (m, gen, eta) in enumerate(scenarios):
            res = check_scenario(p, m, eta, gen, 1.0, 1000, tol=1e-6)
            if res.identity_defects:
                failures.append(f"{name} scenario {idx}: identities {list(res.identity_defects)}")
            if not res.invariance.passed:
                failures.append(f"{name} scenario {idx}: drift {res.invariance.max_drift:.3e}")
            if not res.lift.passed:
                failures.append(f"{name} scenario {idx}: lift deviation {res.lift.max_deviation:.3e}")
    return _result(8, title, failures, "2 presets x 3 scenarios, T=1, 1000 steps")


# ---------------------------------------------------------------------------
# Criterion 9: ellipticity verdicts
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def criterion_9() -> CriterionResult:
    title = "sum-of-squares elliptic with exact minimum 1; single-square not; line elliptic"
    failures = []
    so3p = load_preset("so3_r3")
    so3 = so3p.presentation
    sos = UEAElement.from_words(so3p.operators["sos"], so3.vars)
    rep = ellipticity_check(sos, so3, [(0, 0, 0), (1, 0, 0), (1, 1, 1)], tolerance=1e-9)
    if not rep.elliptic:
        failures.append("sum of squares not judged elliptic")
    for pv in rep.points:
        for fv in pv.fibers:
            if fv.exact_min != Fraction(1):
                failures.append(f"fiber minimum {fv.exact_min} != 1 at {pv.point}")
                break
    g1sq = UEAElement.from_words(so3p.operators["g1sq"], so3.vars)
    rep2 = ellipticity_check(g1sq, so3, [(0, 0, 0)], tolerance=1e-9)
    if rep2.elliptic:
        failures.append("single square wrongly judged elliptic at the origin")
    witness = rep2.points[0].witness
    if witness is None:
        failures.append("no witness plane reported")
    else:
        sigma = symbol_top(g1sq, 2, fiber_dim=3)
        if not symbol_on_fiber(sigma, (0, 0, 0), witness).is_zero():
            failures.append("witness plane does not annihilate the symbol")
    debp = load_preset("debord_line")
    dsq = UEAElement.from_words(debp.operators["g1sq"], debp.presentation.vars)
    rep3 = ellipticity_check(dsq, debp.presentation, [(0,), (2,)], tolerance=1e-9)
    if not rep3.elliptic:
        failures.append("line preset square not judged elliptic")
    return _result(9, title, failures, "verdicts and exact minima as expected")


# ---------------------------------------------------------------------------
# Criterion 10: float cross-check of the exact limit pipeline
# ---------------------------------------------------------------------------


T_FLOAT = 1e-4
T_EXACT = Fraction(1, 10**4)


def _accepted_curves() -> list[tuple[FoliationPresentation, Curve, Subspace]]:
    """(presentation, curve, limit) for every accepted curve of the criteria 1-4 inputs."""
    so3 = load_preset("so3_r3").presentation
    suites = [(so3, v, curve_family(v)) for v in ((1, 0, 0), (0, 2, 0), (1, 1, 1))]
    suites += [(so3, (0, 0, 0), [ray]) for _, ray in _orthogonal_rays()]
    for d in (2, 3):
        p, origin = load_preset(f"vanishing_origin_{d}").presentation, (0,) * d
        suites.append((p, origin, curve_family(origin)))
    suites.append((load_preset("order2_r2").presentation, (0, 0), _order2_curves()))
    out = []
    for p, point, curves in suites:
        sample = nash_fiber(p, point, curves)
        out += [
            (p, curve, sample.limits[rec.limit_index])
            for curve, rec in zip(curves, sample.curves_used)
            if rec.accepted
        ]
    return out


def float_limit_angles(anchor: algebra.PolyMatrix, curve: Curve, limit: Subspace) -> tuple[float, float]:
    """Float oracle of one exact limit of ker M(x(t)), at t = 1e-4.

    Returns (a) the largest principal angle between the numpy-SVD null space
    of M(x(1e-4)), evaluated in floats, and the exact kernel at x(1/10^4);
    (b) the angle between the Pluecker vectors of that exact kernel and of
    the limit.  (b) is the same on the annihilator side by Hodge duality.
    Both are inf when the exact kernel's dimension is not the limit's.
    """
    n = len(anchor[0])
    at_t = algebra.eval_poly_matrix(anchor, curve.eval(T_EXACT))
    exact = Subspace(n, tuple(algebra.kernel_basis(at_t, ncols=n)))
    if exact.dim != limit.dim:
        return float("inf"), float("inf")
    x = [sum(float(a) * T_FLOAT**d for d, a in enumerate(c)) for c in curve.coeffs]
    _, _, vt = np.linalg.svd(np.array([[e.eval_float(x) for e in row] for row in anchor], dtype=float))
    svd_angle = principal_angle(vt[n - limit.dim :], exact.basis_floats())
    return svd_angle, _angle(np.array(exact.plucker, dtype=float), np.array(limit.plucker, dtype=float))


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return float("inf")
    c = abs(float(u @ v)) / (nu * nv)
    return float(np.arccos(min(1.0, c)))


@lru_cache(maxsize=None)
def criterion_10() -> CriterionResult:
    title = "float oracle of every accepted limit at t=1e-4: SVD kernel and Pluecker angles"
    failures = []
    max_svd = 0.0
    max_convergence = 0.0
    accepted = _accepted_curves()
    for p, curve, limit in accepted:
        a, b = float_limit_angles(p.anchor(), curve, limit)
        max_svd = max(max_svd, a)
        max_convergence = max(max_convergence, b)
        if not (a < 1e-6):
            failures.append(f"{p.name} {curve.label}: SVD-vs-exact kernel angle {a:.3e}")
        if not (b < 1e-2):
            failures.append(f"{p.name} {curve.label}: kernel-to-limit Pluecker angle {b:.3e}")
    return _result(
        10,
        title,
        failures,
        f"{len(accepted)} accepted curves; max SVD-vs-exact kernel angle {max_svd:.2e}; "
        f"max kernel-to-limit Pluecker angle {max_convergence:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 11: independence of the presentation under a redundant generator
# ---------------------------------------------------------------------------


def _augmented_so3() -> FoliationPresentation:
    """so3 plus the redundant combination x*g1 + y*g2 + z*g3 (the radial
    syzygy, which is the zero field) as a fourth generator."""
    so3 = load_preset("so3_r3").presentation
    x, y, z = (Polynomial.var(v, so3.vars) for v in so3.vars)
    extra = (
        x * so3.generators[0]
        + y * so3.generators[1]
        + z * so3.generators[2]
    )
    return FoliationPresentation(so3.vars, so3.generators + (extra,), name="so3_aug")


@lru_cache(maxsize=None)
def criterion_11() -> CriterionResult:
    title = "fiber images in the isotropy quotient ignore a redundant generator"
    so3 = load_preset("so3_r3").presentation
    aug = _augmented_so3()
    failures = []
    # combination coefficients of the redundant generator, for the bundle map
    combo = ("x", "y", "z")
    for point in ((0, 0, 0), (1, 0, 0), (1, 1, 1)):
        point = tuple(Fraction(x) for x in point)
        iso = isotropy_algebra(so3, point)
        base_images = {
            iso.project_subspace(v).basis for v in nash_fiber(so3, point).limits
        }
        h_at = [Polynomial.var(v, so3.vars).eval(point) for v in combo]
        aug_images = set()
        for v in nash_fiber(aug, point).limits:
            mapped = []
            for row in v.basis:
                vec = [row[i] + row[3] * h_at[i] for i in range(3)]
                mapped.append(tuple(vec))
            image = make_subspace(mapped, 3) if any(any(x != 0 for x in r) for r in mapped) else Subspace(3, ())
            aug_images.add(iso.project_subspace(image).basis)
        if base_images != aug_images:
            failures.append(f"point {tuple(map(str, point))}: image sets differ")
    return _result(11, title, failures, "image sets agree exactly at 3 points")


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all(verbose: bool = False) -> list[CriterionResult]:
    results = []
    for fn in CRITERIA:
        res = fn()
        results.append(res)
        if verbose:
            status = "PASS" if res.passed else "FAIL"
            print(f"{status} C{res.criterion:02d}: {res.title} -- {res.detail}", file=sys.stderr)
    return results
