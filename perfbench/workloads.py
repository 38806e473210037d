"""Seeded op cycles for the benchmark workloads.

A workload turns ``--seed`` into a deterministic cycle of ``folcone`` argv
lists; a run repeats that cycle until its time is up, so every op is timed
several times and its fastest repeat can be told from host noise.  folcone
receives nothing else.  This module imports no part of folcone, so
generating inputs costs the measured process nothing and needs no checkout
of the program.

The seed changes the inputs but not the work they take, as far as the inputs
allow: a run's time should move with the program and the host, not with the
luck of a seed.
"""

from __future__ import annotations

import random

R4 = "r4_counterexample"

# Builtin presets used by small_mix: base dimension and generator names, as in
# src/folcone/data/*.preset.  For all five, every nonzero point is regular.
SMALL_PRESETS = {
    "debord_line": (1, ("g1",)),
    "so3_r3": (3, ("g1", "g2", "g3")),
    "vanishing_origin_2": (2, ("g11", "g12", "g21", "g22")),
    "vanishing_origin_3": (3, tuple(f"g{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))),
    "order2_r2": (2, tuple(f"g{k}" for k in range(1, 7))),
}

# A small_mix cycle runs every kind once on every preset, so the share of
# each kind is fixed.
SMALL_KINDS = ("analyze", "nash-fiber", "hn-fiber", "symbol", "elliptic", "poisson-check")

# Exit codes that are a verdict, not a failure: 1 means a check ran and said no.
VERDICT_COMMANDS = ("elliptic", "poisson-check")


def _point(values) -> str:
    return ",".join(str(v) for v in values)


def _nonzero_point(rng: random.Random, n: int, radius: int) -> tuple[int, ...]:
    while True:
        p = tuple(rng.randint(-radius, radius) for _ in range(n))
        if any(p):
            return p


def _sum_of_squares(rng: random.Random, gens: tuple[str, ...]) -> str:
    """Sum of two squares of seeded generator words of length 2 (degree 4);
    a fixed shape, so the op's cost does not swing with the seed."""
    terms = []
    for _ in range(2):
        word = ".".join(rng.choice(gens) for _ in range(2))
        c = rng.randint(1, 3)
        terms.append(f"{c}*{word}.{word}" if c != 1 else f"{word}.{word}")
    return "+".join(terms)


def _sign_flip(rng: random.Random, base: tuple[int, ...]) -> str:
    return _point(x * rng.choice((1, -1)) for x in base)


# r4 is the module of all linear vector fields on R^4.  Flipping the sign of
# a coordinate maps it to itself and its anchor matrices to the same matrices
# up to signs, so seeded sign flips of fixed points change the report but not
# the exact arithmetic it takes.
R4_BASES = ((1, 2, -1, 3), (3, 0, 1, 2))


def r4_cone(seed: int) -> list[list[str]]:
    """The cone fiber of r4 at the origin, its only singular point.

    The input does not depend on the seed.  With seeded extra rays
    (``--curves 14 --seed s``) the cost moved by up to a quarter from seed
    to seed, which hid every smaller change.
    """
    return [["hn-fiber", R4, "--point", "0,0,0,0"]]


def r4_isotropy(seed: int) -> list[list[str]]:
    """r4 analysis, one point per op: the origin and seeded sign flips of two
    fixed points.  ``--points=`` keeps a leading minus sign off argparse."""
    rng = random.Random(f"r4_isotropy:{seed}")
    points = ["0,0,0,0", *(_sign_flip(rng, b) for b in R4_BASES)]
    return [["analyze", R4, f"--points={p}"] for p in points]


def small_op(rng: random.Random, kind: str, preset: str) -> list[str]:
    n, gens = SMALL_PRESETS[preset]
    origin = _point([0] * n)
    if kind == "analyze":
        return ["analyze", preset, "--points", f"{origin};{_point(_nonzero_point(rng, n, 3))}"]
    if kind in ("nash-fiber", "hn-fiber"):
        return [kind, preset, "--point", origin, "--seed", str(rng.randrange(10**6))]
    op = _sum_of_squares(rng, gens)
    if kind == "symbol":
        return ["symbol", preset, "--op", op]
    if kind == "elliptic":
        points = f"{origin};{_point(_nonzero_point(rng, n, 3))}"
        return ["elliptic", preset, "--op", op, "--points", points, "--seed", str(rng.randrange(10**6))]
    # Start in [-1,1]^n: the quadratic fields of order2_r2 then blow up no
    # sooner than T = 1, so every flow exists on the scenario's interval.
    start = _point(_nonzero_point(rng, n, 1))
    eta = _point(_nonzero_point(rng, n, 2))
    return ["poisson-check", preset, "--scenario", f"point={start};gen={rng.choice(gens)};eta={eta}"]


def small_mix(seed: int) -> list[list[str]]:
    """Every kind once on every small preset, with seeded parameters."""
    rng = random.Random(f"small_mix:{seed}")
    return [small_op(rng, kind, preset) for preset in SMALL_PRESETS for kind in SMALL_KINDS]


WORKLOADS = {
    "r4_cone": (r4_cone, (R4,)),
    "r4_isotropy": (r4_isotropy, (R4,)),
    "small_mix": (small_mix, tuple(SMALL_PRESETS)),
}


def cycle(workload: str, seed: int) -> list[list[str]]:
    return WORKLOADS[workload][0](seed)


def presets_of(workload: str) -> tuple[str, ...]:
    return WORKLOADS[workload][1]


def op_key(argv: list[str]) -> str:
    return " ".join(argv)
