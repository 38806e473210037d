"""Generated command lines against the CLI input contract.

Every input gives a report (exit 0, or 1 when a mathematical check fails) or
exit 2 with one ``error:`` line; nothing raises out of ``cli.main``.
"""

import contextlib
import io
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from folcone.cli import main

# builtin presets with their dimensions
PRESETS = {"debord_line": 1, "so3_r3": 3, "vanishing_origin_2": 2, "order2_r2": 2}

number = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1/2", "-2/3", "0.5", "1e400", "1/0", "nan", "inf", "-inf", "", " ", "x"]),
)
any_point = st.lists(number, max_size=4).map(",".join)
op = st.one_of(
    st.sampled_from(["g1.g1+g2.g2", "g1.g1", "sos", "g1sq", "g1", "2*g1.g2-g2.g1", "0", "g9.g9",
                     "g1.g1.g1.g1+g2.g2.g2.g2"]),
    st.text(alphabet="g123.+-*/() x", max_size=12),
)
tol = st.one_of(number, st.just("1e-6"))
curves = st.one_of(st.integers(-5, 30).map(str), st.sampled_from(["x", "", "1e3", "100000000"]))

# flags drawn for every command.  Every command reads --seed and refuses a
# negative one; the commands not named in READERS must refuse the other two.
CSV_DIR = "<csv dir>"
SHARED_FLAGS = {
    "--degree-bound": st.sampled_from(["0", "1", "2", "-1", "x"]),
    "--csv": st.just(CSV_DIR),
    "--seed": st.one_of(st.integers(-10**6, 10**6).map(str), st.just("x")),
}
READERS = {
    "--degree-bound": {"analyze", "hn-fiber"},
    "--csv": {"nash-fiber", "hn-fiber", "poisson-check"},
}


def point(n):
    # mostly the preset's dimension, so that most inputs reach the mathematics
    exact = st.lists(st.integers(-3, 3).map(str), min_size=n, max_size=n).map(",".join)
    return st.one_of(exact, exact, any_point)


def scenario(n):
    chunk = st.one_of(
        point(n).map("point={}".format),
        point(n).map("eta={}".format),
        st.sampled_from(["g1", "g2", "g3", "g9", ""]).map("gen={}".format),
        st.one_of(number, st.sampled_from(["1/10", "1/2"])).map("T={}".format),
        st.sampled_from(["=", "bogus=1", "point"]),
    )
    # few steps keep each flow short; counts above the cap are refused before
    # any flow runs
    steps = st.sampled_from(
        ["1", "5", "20", "0", "-1", "x", "1e3", "100001", "100000000", "10" * 20]
    ).map("steps={}".format)
    return st.tuples(st.lists(chunk, max_size=4), steps).map(lambda c: ";".join(c[0] + [c[1]]))


def own_flags(draw, command, preset):
    n = PRESETS[preset]
    points = st.lists(point(n), max_size=3).map(";".join)
    if command == "analyze":
        return ["--points", draw(points)]
    if command in ("nash-fiber", "hn-fiber"):
        return ["--point", draw(point(n)), "--curves", draw(curves)]
    if command == "symbol":
        return ["--op", draw(op)]
    if command == "elliptic":
        return ["--op", draw(op), "--points", draw(points), "--tol", draw(tol), "--curves", draw(curves)]
    return ["--scenario", draw(scenario(n)), "--tol", draw(tol)]


@st.composite
def command_lines(draw):
    preset = draw(st.sampled_from(sorted(PRESETS)))
    command = draw(st.sampled_from(["analyze", "nash-fiber", "hn-fiber", "symbol", "elliptic", "poisson-check"]))
    argv = [command, preset] + own_flags(draw, command, preset)
    for flag in draw(st.lists(st.sampled_from(sorted(SHARED_FLAGS)), unique=True)):
        argv += [flag, draw(SHARED_FLAGS[flag])]
    return argv


@settings(max_examples=60, deadline=20000, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_every_command_line_reports_or_exits_two(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as csv_dir:
        argv = [csv_dir if a == CSV_DIR else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if any(flag in argv and argv[0] not in readers for flag, readers in READERS.items()):
        assert code == 2
    if "--seed" in argv and argv[argv.index("--seed") + 1].startswith("-"):
        assert code == 2
    curves = argv[argv.index("--curves") + 1] if "--curves" in argv else ""
    if curves.lstrip("-").isdigit() and int(curves) < 1:
        assert code == 2
    if "--tol" in argv and argv[argv.index("--tol") + 1].startswith("-"):
        assert code == 2
    if code == 2:
        assert out.getvalue() == ""
        assert len([line for line in err.getvalue().splitlines() if "error:" in line]) == 1
    else:
        assert out.getvalue().startswith("{")
