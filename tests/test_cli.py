import argparse
import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folcone.cli import (
    MAX_ARC_DEGREE,
    MAX_DEGREE_BOUND,
    MAX_FLOW_STEPS,
    MAX_SPHERE_SAMPLES,
    _json_text,
    _parse_scenario,
    build_parser,
    main,
)
from folcone.expr import parse_operator
from folcone.hncone import curve_family
from folcone.poisson import dual_vars
from folcone.presets import BUILTIN_NAMES, PresetError, load_preset, parse_preset_text
from folcone.symbols import UEAElement, pullback_consistency


# an exact integer whose float overflows only in products: 10^200
BIG = "1" + "0" * 200

REPORT_KEYS = {"schema", "version", "command", "parameters", "seed", "results", "timing_seconds"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


json_scalars = st.one_of(
    st.none(),
    st.sampled_from([True, 1, False, 0, -0.0, 5e-324, 1e300, float("nan"), float("inf"), float("-inf")]),
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.text(),  # non-ASCII and control characters included
    st.sampled_from(["", "\x00\x1f\x7f", "\"\\/\b\f\n\r\t", "é\u2028\ud800", "\U0001f600"]),
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.text(max_size=3), max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(json_trees)
def test_report_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


class TestPresets:
    def test_all_builtins_load(self):
        expected = {
            "debord_line": 1,
            "so3_r3": 3,
            "vanishing_origin_2": 4,
            "vanishing_origin_3": 9,
            "order2_r2": 6,
            "r4_counterexample": 16,
        }
        assert set(BUILTIN_NAMES) == set(expected)
        for name, n_gens in expected.items():
            preset = load_preset(name)
            assert preset.presentation.num_generators == n_gens
            assert preset.presentation.name == name

    def test_so3_shape(self):
        preset = load_preset("so3_r3")
        assert preset.presentation.vars == ("x", "y", "z")
        assert preset.presentation.has_structure()
        assert set(preset.operators) == {"sos", "g1sq"}

    def test_order2_shape(self):
        preset = load_preset("order2_r2")
        assert preset.presentation.vars == ("x", "y")
        assert len(preset.generator_names) == 6

    def test_malformed_line_reports_position(self):
        bad = "name broken\nvars x y\n\ngenerators\n  g1 = d/dx\n  g2 = y*(d/dy\n"
        with pytest.raises(PresetError) as err:
            parse_preset_text(bad)
        assert err.value.line == 6
        assert err.value.column > 1

    def test_unknown_section_line(self):
        with pytest.raises(PresetError) as err:
            parse_preset_text("vars x\nbogus line here\n")
        assert err.value.line == 2

    def test_bad_structure_identity_rejected(self):
        text = (
            "name wrong\nvars x y z\n\ngenerators\n"
            "  g1 = z*d/dy - y*d/dz\n  g2 = x*d/dz - z*d/dx\n  g3 = y*d/dx - x*d/dy\n\n"
            "structure\n  [g1, g2] = g1\n"
        )
        with pytest.raises(PresetError):
            parse_preset_text(text)

    def test_path_loading(self, tmp_path):
        path = tmp_path / "mini.preset"
        path.write_text("name mini\nvars x\n\ngenerators\n  g1 = x*d/dx\n")
        preset = load_preset(str(path))
        assert preset.presentation.name == "mini"

    def test_unknown_name(self):
        with pytest.raises(PresetError):
            load_preset("not_a_preset")

    @pytest.mark.parametrize("name", ["TMP", "not_a_preset"])
    def test_whole_file_errors_name_no_position(self, capsys, tmp_path, name):
        code, out, err = run_cli(capsys, "analyze", name.replace("TMP", str(tmp_path)))
        assert code == 2 and out == "" and "error:" in err and "(line" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("name novars\n\ngenerators\n  g1 = d/dx\n", "missing 'vars' declaration"),
            ("name nogens\nvars x\n", "missing 'generators' section"),
            ("name wrong\nvars x\n\ngenerators\n  g1 = d/dx\n  g2 = x*d/dx\n\nstructure\n  [g1, g2] = g2\n",
             "invalid presentation: "),
        ],
        ids=["no-vars", "no-generators", "invalid-presentation"],
    )
    def test_whole_text_errors_carry_no_line(self, text, message):
        with pytest.raises(PresetError) as err:
            parse_preset_text(text)
        assert err.value.line is None and err.value.column is None
        assert str(err.value).startswith(message) and "(line" not in str(err.value)

    @pytest.mark.parametrize(
        "text, line",
        [
            # the second x could never be reached
            ("name dup\nvars x x\n\ngenerators\n  g1 = d/dx\n", 2),
            # generator x would shadow variable x in every operator
            ("name shadow\nvars x y\n\ngenerators\n  x = d/dx\n  g2 = d/dy\n\noperators\n  p = x*g2\n", 5),
            # the error names the repeated generator's line, not the first one's
            ("name twice\nvars x y\n\ngenerators\n  g1 = d/dx\n  g2 = d/dy\n  g1 = x*d/dy\n", 7),
            # operator g1 would shadow generator g1 for --op
            ("name opgen\nvars x y\n\ngenerators\n  g1 = d/dx\n  g2 = d/dy\n\noperators\n  g1 = g2.g2\n", 9),
            ("name opvar\nvars x y\n\ngenerators\n  g1 = d/dx\n  g2 = d/dy\n\noperators\n  x = g1.g1\n", 9),
            # the second definition would silently replace the first
            ("name optwice\nvars x y\n\ngenerators\n  g1 = d/dx\n  g2 = d/dy\n\noperators\n  p = g1\n  p = g2\n", 10),
        ],
        ids=[
            "variable-twice",
            "generator-named-like-variable",
            "generator-twice",
            "operator-named-like-generator",
            "operator-named-like-variable",
            "operator-twice",
        ],
    )
    def test_repeated_names_rejected(self, capsys, tmp_path, text, line):
        path = tmp_path / "bad.preset"
        path.write_text(text)
        with pytest.raises(PresetError) as err:
            load_preset(str(path))
        assert err.value.line == line
        code, out, err_text = run_cli(capsys, "analyze", str(path))
        errors = [entry for entry in err_text.splitlines() if "error:" in entry]
        assert code == 2 and out == "" and len(errors) == 1

    @pytest.mark.parametrize(
        "brackets, line",
        [
            # the later line would overwrite c_12 and c_21 set by the earlier one
            ("  [g1, g2] = g1\n  [g2, g1] = g2\n", 9),
            ("  [g1, g2] = g1\n  [g1, g2] = g1\n", 9),
            # c_11 is zero by antisymmetry; setting it would store -vec
            ("  [g1, g1] = g1\n", 8),
        ],
        ids=["pair-twice-reversed", "pair-twice", "self-bracket"],
    )
    def test_bad_bracket_lines_rejected(self, capsys, tmp_path, brackets, line):
        path = tmp_path / "bad.preset"
        path.write_text("name br\nvars x\n\ngenerators\n  g1 = d/dx\n  g2 = x*d/dx\nstructure\n" + brackets)
        with pytest.raises(PresetError) as err:
            load_preset(str(path))
        assert err.value.line == line
        code, out, err_text = run_cli(capsys, "analyze", str(path))
        errors = [entry for entry in err_text.splitlines() if "error:" in entry]
        assert code == 2 and out == "" and len(errors) == 1
        assert f"(line {line}," in errors[0]


class TestCommands:
    def test_hn_fiber_origin_lists_planes(self, capsys):
        code, out, _ = run_cli(capsys, "hn-fiber", "so3_r3", "--point", "0,0,0", "--seed", "0")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        spaces = report["results"]["covector_spaces"]
        assert len(spaces) >= 3
        assert all(s["dim"] == 2 for s in spaces)
        assert report["results"]["sandwich"]["ok"]
        assert report["results"]["subalgebra"]["ok"]

    def test_byte_identical_reports(self, capsys):
        args = ("hn-fiber", "so3_r3", "--point", "0,0,0", "--seed", "0")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert json.loads(out1)["timing_seconds"] is None

    def test_analyze(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "so3_r3", "--points", "0,0,0;1,0,0")
        assert code == 0
        report = json.loads(out)
        res = report["results"]
        assert res["generic_rank"] == 2
        assert res["jacobi_flag"] is True
        origin, regular = res["points"]
        assert origin["regular"] is False and origin["isotropy"]["dim"] == 3
        assert regular["regular"] is True and regular["isotropy"]["dim"] == 0

    def test_nash_fiber_csv_and_out(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "nash-fiber",
            "so3_r3",
            "--point",
            "0,0,0",
            "--out",
            str(out_file),
            "--csv",
            str(tmp_path),
        )
        assert code == 0 and out == ""
        report = json.loads(out_file.read_text())
        assert report["results"]["limits"]
        csv_text = (tmp_path / "nash_fiber.csv").read_text()
        assert csv_text.startswith("space_index,vector_index")

    def test_symbol_counterexample(self, capsys):
        code, out, _ = run_cli(capsys, "symbol", "r4_counterexample", "--op", "p")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["realized_zero"] is True
        assert res["top_symbol_zero"] is False

    def test_fiber_names_never_repeat_a_base_variable(self, capsys, tmp_path):
        # base variables named like the default fiber coordinates xi1 and eta1
        path = tmp_path / "clash.preset"
        path.write_text("name clash\nvars xi1 eta1\n\ngenerators\n  g1 = d/dxi1\n  g2 = d/deta1\n")
        code, out, _ = run_cli(capsys, "symbol", str(path), "--op", "xi1*g1.g2 + g2.g2")
        res = json.loads(out)["results"]
        assert code == 0
        assert res["top_symbol"] == "xi1*xi_1*xi_2 + xi_2^2"
        assert res["classical_principal_symbol"] == "xi1*eta_1*eta_2 + eta_2^2"
        preset = load_preset(str(path))
        p = preset.presentation
        element = UEAElement.from_words(parse_operator("xi1*g1.g2 + g2.g2", preset.generator_names, p.vars), p.vars)
        assert pullback_consistency(element, p).ok
        names = dual_vars(p)
        assert names == ("xi1", "eta1", "xi_1", "xi_2") and len(set(names)) == len(names)

    def test_elliptic_exit_codes(self, capsys):
        code, out, _ = run_cli(
            capsys, "elliptic", "so3_r3", "--op", "g1.g1+g2.g2+g3.g3", "--points", "0,0,0;1,0,0"
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["elliptic"] is True
        for point in res["points"]:
            for fiber in point["fibers"]:
                assert fiber["exact_min"] == "1"
        code, out, _ = run_cli(capsys, "elliptic", "so3_r3", "--op", "g1sq", "--points", "0,0,0")
        assert code == 1
        res = json.loads(out)["results"]
        assert res["elliptic"] is False and res["points"][0]["witness"] is not None

    def test_poisson_check(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "poisson-check",
            "so3_r3",
            "--scenario",
            "point=1,0,0;gen=g3;eta=0,1,0;T=1;steps=500",
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["ok"] is True and res["jacobi_flag"] is True
        assert res["scenarios"][0]["identity_defects"] == []

    def test_poisson_trajectory_csv(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "poisson-check",
            "so3_r3",
            "--scenario",
            "point=1,0,0;gen=g2;eta=1,1,1;T=1/2;steps=100",
            "--csv",
            str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "trajectory_0.csv").read_text().splitlines()
        assert lines[0] == "t,x_x,x_y,x_z,xi_1,xi_2,xi_3"
        assert len(lines) == 102  # header + steps + 1 states

    def test_elliptic_nonvanishing_convention(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "elliptic",
            "so3_r3",
            "--op",
            "0 - g1.g1 - g2.g2 - g3.g3",
            "--points",
            "1,0,0",
            "--convention",
            "nonvanishing",
        )
        assert code == 0
        assert json.loads(out)["results"]["elliptic"] is True

    def test_force_odd_reports_the_convention_it_judges_by(self, capsys):
        code, out, _ = run_cli(
            capsys, "elliptic", "so3_r3", "--op", "0 - g1.g1 - g2.g2 - g3.g3", "--points", "1,0,0", "--force-odd"
        )
        report = json.loads(out)
        assert code == 0 and report["results"]["elliptic"] is True
        assert report["parameters"]["convention"] == "nonvanishing"

    def test_elliptic_large_coefficient_exact(self, capsys):
        # a ten-digit coefficient: the exact minima come from snapped eigenvalues, not a divisor search
        code, out, _ = run_cli(
            capsys, "elliptic", "so3_r3", "--op", "1000000007*g1.g1+g2.g2+3*g3.g3", "--points", "0,0,0"
        )
        assert code == 0
        fibers = json.loads(out)["results"]["points"][0]["fibers"]
        assert fibers and {f["exact_min"] for f in fibers} <= {"1", "2", "3"}

    def test_usage_errors_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "nonexistent_preset")
        assert code == 2 and "unknown preset" in err
        code, _, _ = run_cli(capsys, "hn-fiber", "so3_r3", "--point", "banana")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "so3_r3", "--points", "1,2"),
            ("hn-fiber", "so3_r3", "--point", "0,0"),
            ("elliptic", "so3_r3", "--op", "g1.g1", "--points", "1,2"),
            ("elliptic", "so3_r3", "--op", "0-g1.g1-g2.g2-g3.g3", "--points", ";"),
            ("nash-fiber", "so3_r3", "--point", "0,0,0", "--arc-degree", "0"),
            ("analyze", "so3_r3", "--points", ""),
            ("analyze", "so3_r3", "--points", ";"),
            ("hn-fiber", "so3_r3", "--point", "0,0,0", "--curves", "-3"),
            ("nash-fiber", "so3_r3", "--point", "0,0,0", "--curves", "0"),
            ("analyze", "so3_r3", "--degree-bound", "-1"),
            ("poisson-check", "so3_r3", "--scenario", "point=1,0,0;gen=g3;eta=0,1,0;steps=0"),
            ("poisson-check", "so3_r3", "--scenario", "point=1,0,0;gen=g3;eta=0,1,0;steps=x"),
            ("poisson-check", "so3_r3", "--scenario", "point=1,0,0;gen=g3;eta=0,1"),
            ("poisson-check", "so3_r3", "--scenario", "point=0,0,0;gen=g3;eta=0,1,0"),
            ("poisson-check", "so3_r3", "--scenario", "gen=g3;eta=0,1,0"),
            ("poisson-check", "order2_r2", "--scenario", "point=2,2;gen=g1;eta=1,2"),
            ("elliptic", "so3_r3", "--op", "g1.g1+g2.g2", "--points", "1,0,0", "--tol", "nan"),
            ("elliptic", "so3_r3", "--op", "g1.g1+g2.g2", "--points", "1,0,0", "--tol", "inf"),
            ("poisson-check", "so3_r3", "--tol", "nan"),
            ("poisson-check", "so3_r3", "--scenario", "point=1,0,0;gen=g3;T=1e400"),
            ("poisson-check", "so3_r3", "--scenario", "point=1e400,0,0;gen=g3"),
            ("poisson-check", "so3_r3", "--scenario", "point=1,0,0;gen=g3;steps=100001"),
            ("poisson-check", "so3_r3", "--scenario", "point=1,0,0;gen=g3;steps=100000000"),
            ("symbol", "so3_r3", "--op", "g1.g1", "--degree", "-1"),
            ("elliptic", "so3_r3", "--op", "g1.g1+g2.g2", "--points", "1,0,0", "--sphere-samples", "0"),
            # each subcommand refuses the flags it does not read
            ("symbol", "so3_r3", "--op", "g1.g1", "--degree-bound", "2"),
            ("analyze", "so3_r3", "--csv", "fibers"),
            ("elliptic", "so3_r3", "--op", "g1.g1", "--points", "1,0,0", "--degree-bound", "1"),
            ("poisson-check", "so3_r3", "--degree-bound", "2"),
            ("nash-fiber", "so3_r3", "--point", "0,0,0", "--degree-bound", "2"),
            # numpy's sampler refuses a negative seed, so every command does
            ("elliptic", "so3_r3", "--op", "g1.g1.g1.g1+g2.g2.g2.g2+g3.g3.g3.g3", "--points", "0,0,0;1,0,0",
             "--seed=-1"),
            ("analyze", "so3_r3", "--seed", "-1"),
            # a negative tolerance would pass a negative-definite symbol
            ("elliptic", "so3_r3", "--op=-g1.g1-g2.g2-g3.g3", "--points", "1,0,0", "--tol=-5"),
            ("poisson-check", "so3_r3", "--tol", "-1e-6"),
            # output paths that cannot be written: TMP is a directory, TMP/file a file
            ("hn-fiber", "so3_r3", "--point", "0,0,0", "--out", "TMP"),
            ("hn-fiber", "so3_r3", "--point", "0,0,0", "--out", "TMP/missing/report.json"),
            ("nash-fiber", "so3_r3", "--point", "0,0,0", "--csv", "TMP/file"),
            ("poisson-check", "so3_r3", "--csv", "TMP/file"),
            # preset paths that exist but cannot be read: a directory, a file not in UTF-8
            ("analyze", "TMP"),
            ("analyze", "TMP/latin1.preset"),
            # the arc degree is capped on every command that builds a curve family
            ("nash-fiber", "so3_r3", "--point", "0,0,0", "--arc-degree", str(MAX_ARC_DEGREE + 1)),
            ("hn-fiber", "so3_r3", "--point", "0,0,0", "--arc-degree", "1000000"),
            ("elliptic", "so3_r3", "--op", "g1.g1", "--points", "1,0,0", "--arc-degree", str(MAX_ARC_DEGREE + 1)),
            # the degree bound is capped on every command that solves a strong kernel
            ("analyze", "so3_r3", "--degree-bound", str(MAX_DEGREE_BOUND + 1)),
            ("hn-fiber", "so3_r3", "--point", "0,0,0", "--degree-bound", "1000000"),
            # so is the sphere sample count of an elliptic verdict
            ("elliptic", "so3_r3", "--op", "g1.g1", "--points", "1,0,0", "--sphere-samples", str(MAX_SPHERE_SAMPLES + 1)),
            ("elliptic", "so3_r3", "--op", "g1.g1", "--points", "1,0,0", "--sphere-samples", "1000000000"),
            # a flow whose base point snaps onto the singular set (the origin, at time index 500)
            ("poisson-check", "vanishing_origin_2", "--scenario", "point=1,0;gen=g11;T=-50"),
            # exact values whose floats leave the float range: rho*_m eta is about 10^400
            ("poisson-check", "so3_r3", "--scenario", f"point={BIG},0,0;gen=g1;eta=0,{BIG},0"),
            ("elliptic", "so3_r3", "--op", "g1.g1+g2.g2", "--points", "1e200,1,0"),
            ("elliptic", "so3_r3", "--op", "g1.g1.g1.g1+g2.g2.g2.g2", "--points", "1e400,0,0"),
            ("nash-fiber", "so3_r3", "--point", "1,1e400,0", "--csv", "TMP/csv"),
        ],
    )
    def test_bad_input_exits_two_with_one_error_line(self, capsys, tmp_path, argv):
        (tmp_path / "file").write_text("")
        (tmp_path / "latin1.preset").write_bytes("name caf\xe9\n".encode("latin-1"))
        argv = [a.replace("TMP", str(tmp_path)) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "Traceback" not in err

    def test_refused_runs_leave_no_csv_and_name_the_singular_time(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "nash-fiber", "so3_r3", "--point", "1,1e400,0", "--csv", str(tmp_path / "csv"))
        assert code == 2 and not (tmp_path / "csv").exists()
        code, _, err = run_cli(
            capsys, "poisson-check", "vanishing_origin_2", "--csv", str(tmp_path / "flows"),
            "--scenario", "point=1,0;gen=g11", "--scenario", "point=1,0;gen=g11;T=-50",
        )
        assert code == 2 and not (tmp_path / "flows").exists()
        assert err == (
            "error: scenario 1: the flow reaches the singular point (0,0) at time index 500; try a shorter T\n"
        )

    def test_flow_steps_capped_at_the_limit(self):
        # the cap itself parses; one step more is refused before any flow runs
        preset = load_preset("so3_r3")
        assert _parse_scenario(f"point=1,0,0;steps={MAX_FLOW_STEPS}", preset)["steps"] == MAX_FLOW_STEPS
        with pytest.raises(argparse.ArgumentTypeError, match=f"steps must be between 1 and {MAX_FLOW_STEPS}$"):
            _parse_scenario(f"point=1,0,0;steps={MAX_FLOW_STEPS + 1}", preset)

    def test_ops_run_no_polynomial_elimination(self, capsys, monkeypatch):
        # one Bareiss pass per presentation gives its generic rank; with that
        # memoised, an op runs no Bareiss pass, polynomial determinant or
        # rational_det: arc limits work on integer t-coefficient rows and the
        # quadratic pencil on the one elimination over Q
        from folcone import algebra

        for name in ("so3_r3", "r4_counterexample"):
            load_preset(name).presentation.generic_rank()

        def refuse(*args):
            raise AssertionError("polynomial elimination on an op path")

        for name in ("bareiss_det", "bareiss_echelon", "rational_det"):
            monkeypatch.setattr(algebra, name, refuse)
        code, _, err = run_cli(capsys, "hn-fiber", "r4_counterexample", "--point", "0,0,0,0")
        assert code == 0, err
        code, _, err = run_cli(capsys, "elliptic", "so3_r3", "--op", "g1.g1+g2.g2+g3.g3", "--points", "0,0,0;1,0,0")
        assert code == 0, err
        curves = curve_family((0, 0, 0, 0), arc_degree=3)
        assert all(type(x) is Fraction for curve in curves for row in curve.coeffs for x in row)

    @pytest.mark.parametrize("command", ["nash-fiber", "hn-fiber", "elliptic"])
    def test_arc_degree_capped_at_the_limit(self, command):
        # the cap itself parses; one more is refused (see the bad-input rows)
        argv = [command, "so3_r3", "--arc-degree", str(MAX_ARC_DEGREE)]
        argv += ["--op", "g1.g1", "--points", "1,0,0"] if command == "elliptic" else ["--point", "0,0,0"]
        assert build_parser().parse_args(argv).arc_degree == MAX_ARC_DEGREE

    @pytest.mark.parametrize("command", ["analyze", "hn-fiber"])
    def test_degree_bound_capped_at_the_limit(self, command):
        # the cap itself parses (no op runs at it); one more is refused (see the bad-input rows)
        argv = [command, "so3_r3", "--degree-bound", str(MAX_DEGREE_BOUND)]
        argv += ["--point", "0,0,0"] if command == "hn-fiber" else []
        assert build_parser().parse_args(argv).degree_bound == MAX_DEGREE_BOUND

    def test_sphere_samples_capped_at_the_limit(self):
        # the cap itself parses (no op runs at it); one more is refused (see the bad-input rows)
        argv = ["elliptic", "so3_r3", "--op", "g1.g1", "--points", "1,0,0", "--sphere-samples", str(MAX_SPHERE_SAMPLES)]
        assert build_parser().parse_args(argv).sphere_samples == MAX_SPHERE_SAMPLES

    def test_auto_scenarios_give_up_without_a_regular_start(self, capsys, tmp_path):
        # every integer in [-3,3] is a zero of the field, as are the three fixed
        # candidates (x = 1), so no seeded draw is regular; in a subprocess with
        # a timeout a draw loop that never ends fails the test instead of hanging it
        preset = tmp_path / "septic.preset"
        preset.write_text("name septic\nvars x\n\ngenerators\n  g1 = x*(x-1)*(x-2)*(x-3)*(x+1)*(x+2)*(x+3)*d/dx\n")
        proc = subprocess.run(
            [sys.executable, "-m", "folcone.cli", "poisson-check", str(preset)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(errors) == 1 and "--scenario" in errors[0]
        # a named regular start reports (short, as x' grows like x^7 from x = 5)
        code, out, err = run_cli(capsys, "poisson-check", str(preset), "--scenario", "point=5;T=1/10000000;steps=100")
        assert code == 0, err
        assert json.loads(out)["results"]["ok"]

    def test_elliptic_fibers_follow_the_curve_flags(self, capsys):
        # elliptic builds its curve family from the same three flags as hn-fiber
        flags = ["--curves", "5", "--arc-degree", "3", "--seed", "4"]
        elliptic = ["elliptic", "so3_r3", "--op", "sos", "--points", "0,0,0"]

        def fiber_spaces(*flags):
            code, out, err = run_cli(capsys, *elliptic, *flags)
            assert code == 0, err
            return [f["space"] for f in json.loads(out)["results"]["points"][0]["fibers"]]

        code, out, err = run_cli(capsys, "hn-fiber", "so3_r3", "--point", "0,0,0", *flags)
        assert code == 0, err
        assert fiber_spaces(*flags) == json.loads(out)["results"]["covector_spaces"]
        assert fiber_spaces(*flags) != fiber_spaces()

    def test_odd_degree_elliptic_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "elliptic", "so3_r3", "--op", "g1", "--points", "1,0,0")
        assert code == 2 and "odd" in err

    @pytest.mark.parametrize(
        "preset, point",
        [("so3_r3", "0,0,0"), ("vanishing_origin_2", "0,0"), ("r4_counterexample", "0,0,0,0"), (None, "0,0")],
    )
    def test_hn_fiber_solves_the_strong_kernel_once(self, capsys, monkeypatch, tmp_path, preset, point):
        # with structure functions the sandwich and subalgebra checks read the
        # isotropy algebra's kernel and strong kernel, and the leaf dimension
        # by rank-nullity from that kernel; without them both are solved directly
        from folcone import foliation

        if preset is None:
            # [g1, g2] = d/dy is not a polynomial combination of d/dx, x*d/dy
            preset = str(tmp_path / "nostructure.preset")
            (tmp_path / "nostructure.preset").write_text(
                "name nostructure\nvars x y\n\ngenerators\n  g1 = d/dx\n  g2 = x*d/dy\n"
            )
        names = ("kernel_at", "leaf_dimension_at", "strong_kernel_at")
        calls = dict.fromkeys(names, 0)
        for fname in names:
            original = getattr(foliation, fname)

            def counted(*args, _original=original, _name=fname, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            # patched under every name bound to it, as hncone and cli import it by name
            for name, module in list(sys.modules.items()):
                if name.startswith("folcone") and getattr(module, fname, None) is original:
                    monkeypatch.setattr(module, fname, counted)
        code, out, _ = run_cli(capsys, "hn-fiber", preset, "--point", point)
        report = json.loads(out)
        assert code == 0 and report["results"]["sandwich"]["ok"]
        assert calls == {"kernel_at": 1, "leaf_dimension_at": 0, "strong_kernel_at": 1}

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # 3 fixed candidate starts, then 11 sampled steps on each of 2 flows,
            # plus the Jacobi flag's rank test (constant structure functions)
            (
                ("poisson-check", "so3_r3"),
                {"is_regular": 3, "leaf_dimension_at": 3, "kernel_at": 0, "echelon": 26, "sparse_rref": 22},
            ),
            # the named start once, then 11 sampled steps; the structure
            # functions are not constant, so the Jacobi flag runs no rank test
            (
                ("poisson-check", "order2_r2", "--scenario", "point=0,1;gen=g2;eta=0,-2"),
                {"is_regular": 1, "leaf_dimension_at": 1, "kernel_at": 0, "echelon": 12, "sparse_rref": 11},
            ),
            # one isotropy algebra at each of 3 default points; the strong
            # kernel is solved at the origin only, the other two are regular;
            # plus the Jacobi flag's rank test (constant structure functions)
            (
                ("analyze", "r4_counterexample"),
                {"is_regular": 0, "leaf_dimension_at": 0, "kernel_at": 3, "echelon": 12, "sparse_rref": 10},
            ),
        ],
        ids=["poisson-check-auto", "poisson-check-scenario", "analyze-r4"],
    )
    def test_one_elimination_of_the_anchor_per_point(self, capsys, monkeypatch, argv, expected):
        # a poisson-check flow reads the regular cone fiber off the anchor's row
        # space at each sampled step, no arc limit; analyze reads the leaf
        # dimension off the isotropy algebra's kernel by rank-nullity
        from folcone import algebra, foliation, grassmann, hncone

        p = load_preset(argv[1]).presentation
        p.generic_rank(), p.structure()  # memoised, so that only the op's own work is counted
        expected = {**expected, "hn_fiber": 0, "limit_along_curve_detailed": 0}
        calls = dict.fromkeys(expected, 0)
        for owner in (algebra, foliation, grassmann, hncone):
            for fname in calls:
                original = getattr(owner, fname, None)
                if original is None or original.__module__ != owner.__name__:
                    continue

                def counted(*args, _original=original, _name=fname, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                # patched under every name bound to it, as the modules import it by name
                for name, module in list(sys.modules.items()):
                    if name.startswith("folcone") and getattr(module, fname, None) is original:
                        monkeypatch.setattr(module, fname, counted)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert calls == expected

    def test_parser_is_built_once(self, capsys, monkeypatch):
        run_cli(capsys, "symbol", "debord_line", "--op", "g1.g1")
        built = []
        original = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        code, _, _ = run_cli(capsys, "symbol", "debord_line", "--op", "g1.g1")
        assert code == 0 and built == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "debord_line"),
            ("nash-fiber", "debord_line", "--point", "0"),
            ("hn-fiber", "debord_line", "--point", "0"),
            ("symbol", "debord_line", "--op", "g1.g1"),
            ("elliptic", "debord_line", "--op", "g1.g1", "--points", "0"),
            ("poisson-check", "debord_line", "--scenario", "point=1;steps=10"),
        ],
    )
    def test_report_keys(self, capsys, argv):
        # main adds the shared keys; each command owns parameters and results
        code, out, _ = run_cli(capsys, *argv)
        report = json.loads(out)
        assert code == 0 and report["command"] == argv[0]
        assert set(report) == REPORT_KEYS | ({"bounds"} if argv[0] == "analyze" else set())

    def test_selftest(self, capsys):
        code, out, err = run_cli(capsys, "selftest")
        assert code == 0
        report = json.loads(out)
        assert set(report) == REPORT_KEYS
        assert len(report["results"]) == 11
        assert all(entry["passed"] for entry in report["results"])
        assert err.count("PASS") == 11

    @pytest.mark.parametrize(
        "argv, sha256, size",
        [
            # 3- and 6-dimensional subspaces of Q^9: direct and complement Pluecker paths
            (
                ("hn-fiber", "vanishing_origin_3", "--point", "0,0,0", "--seed", "0"),
                "25f1cbafab9ac815286d8eb11ac9c5b148fd40471bfee6a8f9c84e14617b5114",
                42619,
            ),
            # a 12-dimensional strong kernel in Q^16
            (
                ("analyze", "r4_counterexample", "--points", "3,0,1,2", "--seed", "0"),
                "785178aadd2beb8b2f33ed5f07e3978f250ceda4a4dd79e1cb43a7da76edbef5",
                36116,
            ),
            # a 16-dimensional isotropy algebra: 256 bracket values through class_coordinates
            (
                ("analyze", "r4_counterexample", "--points", "0,0,0,0", "--seed", "0"),
                "ed4794bb1169ac2b41cc0abe3bcc1a91c8a03cbbf254c69df86606b8aa44ae7e",
                95821,
            ),
            # quadratic symbol: exact pencil minima
            (
                ("elliptic", "so3_r3", "--op", "g1.g1+g2.g2+g3.g3", "--points", "0,0,0;1,0,0", "--seed", "0"),
                "2243faa8c599049fccd011ae15d33614e494c59595db68a4d89303bea7e5e2d6",
                6918,
            ),
            # one-dimensional limits in Q^3, a curve with four saturation
            # steps, and the kernel-wording rejection of the constant curve
            (
                ("hn-fiber", "so3_r3", "--point", "0,0,0", "--arc-degree", "3", "--seed", "0"),
                "565587b6c5461a1d10f10f4e840b2c9d181c4983e0edf545bf816e5d7a6dde79",
                10068,
            ),
            # twelve 12-dimensional limits in Q^16 at the origin of r4
            (
                ("hn-fiber", "r4_counterexample", "--point", "0,0,0,0", "--seed", "0"),
                "88a63a4f77831bdc4f800c72d50f5d1b4adc5f5ed764ab8fd8db524ed9d31435",
                720149,
            ),
            # the two automatic flow scenarios: drift, snap radius and lift deviation floats
            (
                ("poisson-check", "so3_r3", "--seed", "0"),
                "0fceae2b9f09f592bcac96544c4eca7afe44f3d843d479f9f42f3f47e2674ce8",
                876,
            ),
            # top and classical symbol strings with x-dependent coefficients and lower-order words
            (
                ("symbol", "so3_r3", "--op", "x*g1.g2+z*g3.g3-g1+y*y*g2.g3.g1", "--degree", "2"),
                "81c3fec819887438bcd319d1aa1f5f69cb62a6f9af0d80027bb1cb63c031257c",
                1124,
            ),
            # sphere-sampled float minima of a quartic whose coefficient depends on x
            (
                (
                    "elliptic", "so3_r3", "--op", "g1.g1.g1.g1+g2.g2.g2.g2+g3.g3.g3.g3+x*x*g1.g2.g1.g2",
                    "--points", "1,0,0;1,1,1", "--seed", "3",
                ),
                "0efc13751d5e54f3cb19a44ece5c68dd74ce178dd2fc0ed87e9a102659d4bfed",
                2158,
            ),
            # sampled minima that change in the last bits if the float sum of a coefficient's
            # terms, or of the fiber monomials, runs in another order
            (
                (
                    "elliptic", "so3_r3", "--op",
                    "(1/10+1/5*x+3/10*x*x)*g1.g1.g1.g1+g2.g2.g2.g2+(2+z)*g3.g3.g3.g3+y*y*g1.g1.g2.g2",
                    "--points", "1,0,0;1,1,1;0,0,1", "--seed", "2",
                ),
                "17c14a91e4b2aa89ddbbefe2f1a0f325ba2ce1aed9ff8118b0abf49e095b14a6",
                3032,
            ),
        ],
        ids=[
            "hn-fiber-vanishing_origin_3",
            "analyze-r4_counterexample",
            "analyze-r4_counterexample-origin",
            "elliptic-so3_r3",
            "hn-fiber-so3_r3-arc-degree-3",
            "hn-fiber-r4_counterexample-origin",
            "poisson-check-so3_r3",
            "symbol-so3_r3-x-dependent",
            "elliptic-so3_r3-quartic-x-dependent",
            "elliptic-so3_r3-quartic-summation-order",
        ],
    )
    def test_golden_reports(self, capsys, argv, sha256, size):
        code, out, _ = run_cli(capsys, *argv)
        data = out.encode()
        assert code == 0
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, size)

    @pytest.mark.parametrize(
        "preset, code, digests",
        [
            (
                "so3_r3",
                0,
                {
                    "trajectory_0.csv": "7d2afeac2bc325693f3b7ad1ec458a108640cc9c7c6c6946bcb8b345decd0e5f",
                    "trajectory_1.csv": "88c146a23f86e7dcc855307dd2b21c178960c43348551cea9290336ca862807a",
                },
            ),
            # quadratic fields, and a cotangent lift that fails its check
            (
                "order2_r2",
                1,
                {
                    "trajectory_0.csv": "7c8b9bd67b16163794c3fd32dd9301e68c032b8eb3c0d921477c4b4ddaeb47fd",
                    "trajectory_1.csv": "2961feee2a5a4ab692d7589a89d12aa5dedb745348d8eff70e7cadd41894681d",
                },
            ),
        ],
    )
    def test_golden_trajectory_csv(self, capsys, tmp_path, preset, code, digests):
        # every RK4 state, as written by the numpy loop that the generated code replaced
        assert run_cli(capsys, "poisson-check", preset, "--csv", str(tmp_path))[0] == code
        assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()} == digests

    def test_exact_commands_do_not_load_numpy(self):
        # numpy is imported only on the float paths (elliptic, poisson-check,
        # selftest); a fresh interpreter shows what the exact commands load
        script = """
import contextlib, io, sys
import folcone
from folcone import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

run("analyze", "so3_r3")
run("nash-fiber", "so3_r3", "--point", "0,0,0")
run("hn-fiber", "so3_r3", "--point", "0,0,0")
run("symbol", "so3_r3", "--op", "g1.g1+g2.g2+g3.g3")
run("analyze", "r4_counterexample", "--points=1,2,-1,3")
print("numpy" in sys.modules)
run("elliptic", "so3_r3", "--op", "g1.g1+g2.g2+g3.g3", "--points", "1,0,0")
print("numpy" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "folcone.cli", "analyze", "debord_line"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"]["generic_rank"] == 1
