"""Nash blow-up fiber points and cone fibers, sampled along polynomial arcs.

The fiber over a point m is sampled: every curve in a deterministic family
centered at m either yields an exact Grassmannian limit of the kernel family
(recorded, deduplicated) or is rejected as non-generic (logged).  Annihilators
of the limits give the dual-side cone fiber.  Structural checks (sandwich
inclusions, limit subalgebras, dimension laws) run exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from . import algebra
from .foliation import (
    FoliationPresentation,
    IsotropyAlgebra,
    default_strong_kernel_bound,
    isotropy_algebra,
    kernel_at,
    leaf_dimension_at,
    strong_kernel_at,
)
from .grassmann import Curve, CurveNotGeneric, Subspace, annihilator, limit_along_curve_detailed


@dataclass(frozen=True)
class CurveRecord:
    label: str
    accepted: bool
    reason: str = ""
    limit_index: int | None = None


@dataclass(frozen=True)
class NashFiberSample:
    """Sampled limit subspaces V with Sker ⊆ V ⊆ ker, each of dim N - r."""

    point: tuple[Fraction, ...]
    limits: tuple[Subspace, ...]
    curves_used: tuple[CurveRecord, ...]


@dataclass(frozen=True)
class HNFiberSample:
    """Annihilators of the Nash limits: covector spaces of dimension r."""

    point: tuple[Fraction, ...]
    spaces: tuple[Subspace, ...]
    nash: NashFiberSample


# ---------------------------------------------------------------------------
# Curve families
# ---------------------------------------------------------------------------


def curve_family(
    m: Sequence,
    direction_count: int | None = None,
    arc_degree: int = 2,
    seed: int = 0,
    include_constant: bool = True,
) -> list[Curve]:
    """Deterministic-from-seed family of arcs centered at m.

    Always contains the n axis rays; the default adds 2n diagonal rays and
    the n(n-1) canonical degree-2 arcs m + t e_i + t^2 e_j.  Extra seeded
    rational rays are appended until ``direction_count`` directions exist, or
    until every direction the draw can reach is present.
    The constant curve is included by default; at singular points it is
    rejected downstream, so including it is harmless.
    """
    center = tuple(Fraction(x) for x in m)
    n = len(center)
    if arc_degree < 1:
        raise ValueError("arc_degree must be >= 1")
    directions: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()

    def push(d) -> None:
        prim = tuple(algebra.primitive(d))
        if any(prim) and prim not in seen:
            seen.add(prim)
            directions.append(prim)

    for i in range(n):
        push([Fraction(int(i == j)) for j in range(n)])
    if n > 1:
        for i in range(n):
            j = (i + 1) % n
            push([Fraction(int(k == i) + int(k == j)) for k in range(n)])
            push([Fraction(int(k == i) - int(k == j)) for k in range(n)])
    default_count = n + (2 * n if n > 1 else 0)
    want = default_count if direction_count is None else max(direction_count, n)
    # the draws can reach only the primitive directions in [-3,3]^n, up to
    # sign: (7^n - 1) nonzero vectors less the (3^n - 1) with all entries
    # even and the (3^n - 1) with all entries divisible by 3, halved
    want = min(want, (7**n - 1 - 2 * (3**n - 1)) // 2)
    rng = random.Random(seed)
    attempts = 0
    while len(directions) < want and attempts < 100 * want:
        push([Fraction(rng.randint(-3, 3)) for _ in range(n)])
        attempts += 1

    curves: list[Curve] = []
    if include_constant:
        curves.append(Curve.constant(center))
    curves.extend(Curve.ray(center, d) for d in directions)
    if arc_degree >= 2:
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                e_i = [Fraction(int(k == i)) for k in range(n)]
                e_j = [Fraction(int(k == j)) for k in range(n)]
                curves.append(Curve.arc(center, e_i, e_j, power=2))
        for power in range(3, arc_degree + 1):
            for _ in range(n):
                d = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
                e = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
                if any(x != 0 for x in d) and any(x != 0 for x in e):
                    curves.append(Curve.arc(center, d, e, power=power))
    return curves


# ---------------------------------------------------------------------------
# Fiber sampling
# ---------------------------------------------------------------------------


def nash_fiber(
    p: FoliationPresentation,
    m: Sequence,
    curves: Sequence[Curve] | None = None,
    *,
    direction_count: int | None = None,
    arc_degree: int = 2,
    seed: int = 0,
) -> NashFiberSample:
    """Deduplicated exact limits of the kernel family along the curve family."""
    point = tuple(Fraction(x) for x in m)
    if curves is None:
        curves = curve_family(point, direction_count, arc_degree, seed)
    r = p.generic_rank()
    expected = p.num_generators - r
    anchor = p.anchor()
    limits: list[Subspace] = []
    records: list[CurveRecord] = []
    # every limit lies in Q^N with N the anchor's column count, so its basis
    # entries' (numerator, denominator) pairs, in row order, identify it
    keys: list[tuple[tuple[int, int], ...]] = []
    index: dict[tuple[tuple[int, int], ...], int] = {}
    for curve in curves:
        if curve.center != point:
            records.append(CurveRecord(curve.label, False, "not centered at the point"))
            continue
        try:
            limit = limit_along_curve_detailed(anchor, curve, expected, p.vars).limit
        except CurveNotGeneric as exc:
            records.append(CurveRecord(curve.label, False, f"CurveNotGeneric: {exc}"))
            continue
        key = tuple([(x.numerator, x.denominator) for row in limit.basis for x in row])
        i = index.setdefault(key, len(limits))
        if i == len(limits):
            limits.append(limit)
            keys.append(key)
        records.append(CurveRecord(curve.label, True, "", i))
    # the bases in order, compared as integers over one common denominator;
    # rows of one length make the flat order the row-by-row order
    den = lcm(*(d for key in keys for _, d in key))
    order = sorted(range(len(limits)), key=lambda i: tuple([n * (den // d) for n, d in keys[i]]))
    remap = {old: new for new, old in enumerate(order)}
    records = [
        CurveRecord(r.label, r.accepted, r.reason, remap[r.limit_index] if r.limit_index is not None else None)
        for r in records
    ]
    return NashFiberSample(point, tuple(limits[i] for i in order), tuple(records))


def hn_fiber(
    p: FoliationPresentation,
    m: Sequence,
    curves: Sequence[Curve] | None = None,
    *,
    direction_count: int | None = None,
    arc_degree: int = 2,
    seed: int = 0,
) -> HNFiberSample:
    """Annihilators of the Nash-fiber limits; singleton {Im rho*_m} at regular m."""
    nash = nash_fiber(
        p, m, curves, direction_count=direction_count, arc_degree=arc_degree, seed=seed
    )
    spaces = tuple(annihilator(v) for v in nash.limits)
    return HNFiberSample(nash.point, spaces, nash)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SandwichReport:
    point: tuple[Fraction, ...]
    sker_dim: int
    ker_dim: int
    lower_ok: tuple[bool, ...]   # Sker ⊆ V per limit
    upper_ok: tuple[bool, ...]   # V ⊆ ker per limit
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def sandwich_check(p: FoliationPresentation, sample: NashFiberSample, sker: Subspace) -> SandwichReport:
    """Exact check of Sker_D ⊆ V ⊆ ker for every sampled limit, given the
    strong kernel Sker_D at the sample's point (``strong_kernel_at``, or the
    ``sker`` of the isotropy algebra there)."""
    ker = kernel_at(p, sample.point)
    lower, upper, violations = [], [], []
    for idx, v in enumerate(sample.limits):
        lo = v.contains_subspace(sker)
        hi = ker.contains_subspace(v)
        lower.append(lo)
        upper.append(hi)
        if not lo:
            violations.append(f"limit {idx}: strong kernel not contained in the limit")
        if not hi:
            violations.append(f"limit {idx}: limit not contained in the kernel")
    return SandwichReport(sample.point, sker.dim, ker.dim, tuple(lower), tuple(upper), tuple(violations))


@dataclass(frozen=True)
class SubalgebraReport:
    point: tuple[Fraction, ...]
    expected_codim: int
    images: tuple[Subspace, ...]       # V-bar inside the isotropy quotient
    closed: tuple[bool, ...]
    codim_ok: tuple[bool, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def limit_subalgebra_check(
    p: FoliationPresentation, sample: NashFiberSample, isotropy: IsotropyAlgebra
) -> SubalgebraReport:
    """Each limit image V-bar is bracket-closed of codim r - dim(Im rho_m).

    V-bar is closed exactly when <w, [u_i, u_j]> = 0 for every w of a basis
    of its annihilator and every pair i < j of its basis (the bracket is
    alternating, so these pairs decide it).  For each w the bracket table
    contracts to an alternating form B_w, and the test is U B_w U^T = 0.  The
    table, the rows u_i and each w are scaled to integers by positive
    factors, which change no zero, so the verdict is exact.
    """
    if isotropy.point != sample.point:
        raise ValueError("isotropy must be computed at the sample's point")
    r = p.generic_rank()
    expected_codim = r - leaf_dimension_at(p, sample.point)
    forms = _integer_bracket_forms(isotropy.bracket_table)
    images, closed_flags, codim_flags, violations = [], [], [], []
    for idx, v in enumerate(sample.limits):
        vbar = isotropy.project_subspace(v)
        images.append(vbar)
        closed = _is_subalgebra(vbar, forms)
        codim = isotropy.dim - vbar.dim
        closed_flags.append(closed)
        codim_flags.append(codim == expected_codim)
        if not closed:
            violations.append(f"limit {idx}: image not closed under the isotropy bracket")
        if codim != expected_codim:
            violations.append(
                f"limit {idx}: image codimension {codim} != expected {expected_codim}"
            )
    return SubalgebraReport(
        sample.point,
        expected_codim,
        tuple(images),
        tuple(closed_flags),
        tuple(codim_flags),
        tuple(violations),
    )


def _integer_bracket_forms(table: Sequence[Sequence[Sequence[Fraction]]]) -> list[list[tuple[int, int, int]]]:
    """Per quotient coordinate k, the entries (a, b, n) with a < b and n != 0
    of the table's k-th coordinate, all scaled by one common denominator."""
    g = len(table)
    upper = [(a, b, table[a][b]) for a in range(g) for b in range(a + 1, g)]
    den = lcm(*(x.denominator for _, _, cell in upper for x in cell))
    forms: list[list[tuple[int, int, int]]] = [[] for _ in range(g)]
    for a, b, cell in upper:
        for k, x in enumerate(cell):
            if x:
                forms[k].append((a, b, x.numerator * (den // x.denominator)))
    return forms


def _is_subalgebra(vbar: Subspace, forms: Sequence[Sequence[tuple[int, int, int]]]) -> bool:
    """Whether the span of the reduced-echelon rows u_i is bracket-closed:
    U B_w U^T = 0 for the annihilator basis w_f = e_f - sum_i u_i[f] e_lead(i),
    one per column f that leads no row."""
    g, d = vbar.ambient_dim, vbar.dim
    if d <= 1 or d == g:
        return True
    rows = [dict(pairs) for _, pairs in vbar.support]
    leads = [lead for lead, _ in vbar.support]
    u = [list(zip(row, algebra.primitive(list(row.values())))) for row in rows]
    for f in set(range(g)).difference(leads):
        w = {f: Fraction(1)}
        for lead, row in zip(leads, rows):
            if f in row:
                w[lead] = -row[f]
        form = [[0] * g for _ in range(g)]
        for k, wk in zip(w, algebra.primitive(list(w.values()))):
            for a, b, n in forms[k]:
                form[a][b] += wk * n
                form[b][a] -= wk * n
        columns = list(zip(*[_combination(row, form, g) for row in u]))  # of U B_w
        if any(any(_combination(row, columns, d)) for row in u):
            return False
    return True


def _combination(row: Sequence[tuple[int, int]], vectors: Sequence[Sequence[int]], length: int) -> list[int]:
    """sum of x * vectors[a] over the ``(a, x)`` pairs of a sparse row."""
    acc = [0] * length
    for a, x in row:
        acc = [s + x * t for s, t in zip(acc, vectors[a])]
    return acc


@dataclass(frozen=True)
class ConeChecks:
    sandwich: SandwichReport
    subalgebra: SubalgebraReport | None  # None without structure functions


def cone_checks(
    p: FoliationPresentation, sample: NashFiberSample, degree_bound: int | None = None
) -> ConeChecks:
    """The sandwich check at the sample's point and, when the presentation
    has structure functions, the limit-subalgebra check, from one strong
    kernel: the isotropy algebra's when there is one."""
    if degree_bound is None:
        degree_bound = default_strong_kernel_bound(p)
    if not p.has_structure():
        sker = strong_kernel_at(p, sample.point, degree_bound)
        return ConeChecks(sandwich_check(p, sample, sker), None)
    iso = isotropy_algebra(p, sample.point, degree_bound)
    return ConeChecks(sandwich_check(p, sample, iso.sker), limit_subalgebra_check(p, sample, iso))


def hn_membership_distance(sample: HNFiberSample, xi: Sequence[float]) -> float:
    """min over sampled covector spaces of |xi - proj(xi)| (Euclidean)."""
    x = np.asarray([float(v) for v in xi], dtype=float)
    best = float("inf")
    for space in sample.spaces:
        if space.dim == 0:
            dist = float(np.linalg.norm(x))
        else:
            q, _ = np.linalg.qr(space.basis_floats().T)
            dist = float(np.linalg.norm(x - q @ (q.T @ x)))
        best = min(best, dist)
    if best == float("inf"):
        raise ValueError("empty fiber sample")
    return best
