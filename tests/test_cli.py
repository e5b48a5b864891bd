"""Command line interface: file parsing, exit codes, byte-deterministic
output, and the pretty printer."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qtrace.cli import (
    ParseError,
    emit_polynomial,
    explain_polynomial,
    main,
    parse_link_file,
    parse_polynomial_file,
    parse_surface_file,
    render_coefficient,
    render_h_power,
    render_monomial,
)
from qtrace.biangle import CROSSING_KINDS, SLICE_KINDS
from qtrace.surface import build_surface

from oracles import CurveStep, classical_trace_polynomial
from triangulations import once_punctured_torus

TORUS_SURFACE = """\
# once-punctured torus
n 3
triangles 2
edge d T0.0 T1.2
edge r T0.1 T1.0
edge b T0.2 T1.1
"""

CURVE_A = """\
arc T1 0 right 1
arc T0 0 left 1
"""

CURVE_A_MOVED = """\
arc T1 0 right 1
arc T0 0 right 2
arc T0 2 right 1
slice b inc_cw 1
"""

CURVE_B = """\
arc T0 2 left 1
arc T1 2 right 1
"""

CURVE_B_MOVED = """\
arc T0 2 left 1
arc T1 2 left 2
arc T1 0 left 1
slice r inc_ccw 1
"""

UNKNOT = """\
slice d inc_ccw 1
slice d dec_ccw 1
"""


@pytest.fixture
def torus_files(tmp_path):
    surface = tmp_path / "torus.surface"
    surface.write_text(TORUS_SURFACE)
    return tmp_path, surface


class TestParsers:
    def test_surface_round_trip(self):
        n, tr = parse_surface_file("torus.surface", TORUS_SURFACE)
        assert n == 3
        assert tr.n_triangles == 2
        assert tuple(e.id for e in tr.edges) == ("d", "r", "b")
        assert tr.edge_by_id("r").incidences == ((0, 1), (1, 0))

    def test_surface_errors_carry_position(self):
        with pytest.raises(ParseError, match=r"s\.surface:2"):
            parse_surface_file("s.surface", "n 3\nedge d T0.x\ntriangles 1\n")
        with pytest.raises(ParseError, match="missing 'n'"):
            parse_surface_file("s.surface", "triangles 1\n")
        with pytest.raises(ParseError, match="missing triangle"):
            parse_surface_file(
                "s.surface",
                "n 3\ntriangles 1\nedge d T0.0 T9.2\nedge p T0.1\nedge q T0.2\n",
            )
        with pytest.raises(ParseError, match="at least one triangle"):
            parse_surface_file("s.surface", "n 3\ntriangles 0\n")
        # str.isdigit accepts a superscript two, which int rejects
        with pytest.raises(ParseError, match=r"s\.surface:1: expected 'n <integer>'"):
            parse_surface_file("s.surface", "n \u00b2\ntriangles 1\n")
        # a triangulation error names the line of the offending edge
        torus = "n 3\ntriangles 2\nedge d T0.0 T1.2\nedge r T0.1 T1.0\nedge b T0.2 T1.1\n"
        for text, where in [
            (torus + "edge x T0.0\n", ":6: side 0 of triangle 0 is claimed twice"),
            (torus + "edge r T0.0\n", ":6: duplicate edge id 'r'"),
            ("n 3\ntriangles 1\nedge d T0.0 T0.1\nedge q T0.2\n", ":3: edge 'd' would make triangle 0 self-folded"),
            ("n 3\ntriangles 1\n# a comment\nedge d T0.0 T9.2\n", ":4: edge 'd' refers to missing triangle 9"),
            ("n 3\ntriangles 1\nedge p T0.1\nedge d T0.7\n", ":4: edge 'd' has bad side 7"),
            ("n 3\n\ntriangles 0\n", ":3: a triangulation needs at least one triangle"),
            # a side that no edge claims has no line of its own
            ("n 3\ntriangles 1\nedge d T0.0\nedge p T0.1\n", ":1: side 2 of triangle 0 is not glued to any edge"),
            # a header directive may appear once
            (torus + "n 4\n", ":6: repeated 'n' directive"),
            ("n 3\ntriangles 1\ntriangles 2\nedge d T0.0\n", ":3: repeated 'triangles' directive"),
            # the rank is checked where it is read
            ("n 1\ntriangles 1\nedge d T0.0\nedge p T0.1\nedge q T0.2\n", ":1: rank n must be at least 2"),
            ("# rank\nn 0\ntriangles 1\nedge d T0.0\nedge p T0.1\nedge q T0.2\n", ":2: rank n must be at least 2"),
        ]:
            with pytest.raises(ParseError) as err:
                parse_surface_file("s.surface", text)
            assert str(err.value) == "s.surface" + where

    def test_link_round_trip(self):
        link = parse_link_file(
            "l.link", "arc T0 2 left 1\nslice d inc_ccw 1\nstate q 1 2\n"
        )
        assert len(link.arcs) == 1
        assert link.arcs[0].exit == 0
        assert link.slices["d"][0].kind == "inc_ccw"
        assert link.boundary_states[("q", 1)] == 2

    def test_link_errors(self):
        with pytest.raises(ParseError, match=r"l\.link:1"):
            parse_link_file("l.link", "arc T0 2 sideways 1\n")
        with pytest.raises(ParseError):
            parse_link_file("l.link", "slice d sideways_kind 1\n")
        with pytest.raises(ParseError, match="unknown directive"):
            parse_link_file("l.link", "loop d\n")
        with pytest.raises(ParseError, match="expected 'state"):
            parse_link_file("l.link", "state q 1 \u00b2\n")
        # one state per boundary position; the last must not silently win
        with pytest.raises(ParseError) as err:
            parse_link_file("l.link", "state q 1 2\nstate q 2 3\narc T0 2 left 1\nstate q 1 3\n")
        assert str(err.value) == "l.link:4: repeated state for edge 'q' position 1"

    def test_every_slice_kind_parses(self):
        turns_and_kinks = {"dec_cw", "dec_ccw", "inc_ccw", "inc_cw", "kink_pos", "kink_neg"}
        assert set(SLICE_KINDS) == turns_and_kinks | set(CROSSING_KINDS)
        assert len(SLICE_KINDS) == 14
        text = "".join(f"slice d {kind} 1\n" for kind in SLICE_KINDS)
        link = parse_link_file("l.link", text)
        assert tuple(s.kind for s in link.slices["d"]) == SLICE_KINDS

    def test_polynomial_round_trip(self):
        terms = {(1, -2): {0: 3, -4: 1}, (0, 0): {6: -1}}
        text = emit_polynomial(3, ("a.1", "a.2"), terms)
        n, gens, parsed = parse_polynomial_file("p.poly", text)
        assert (n, gens) == (3, ("a.1", "a.2"))
        assert parsed == terms

    def test_polynomial_errors(self):
        with pytest.raises(ParseError, match="missing 'polynomial'"):
            parse_polynomial_file("p.poly", "n 3\ngenerators a\n")
        with pytest.raises(ParseError, match="expected 2 exponents"):
            parse_polynomial_file(
                "p.poly", "polynomial\nn 3\ngenerators a b\nterm 1 ; 0 1\n"
            )
        with pytest.raises(ParseError, match="duplicate"):
            parse_polynomial_file(
                "p.poly",
                "polynomial\nn 3\ngenerators a\nterm 1 ; 0 1\nterm 1 ; 2 1\n",
            )
        for rank in ("0", "1"):
            with pytest.raises(ParseError, match=r"p\.poly:2: rank n must be at least 2"):
                parse_polynomial_file("p.poly", f"polynomial\nn {rank}\ngenerators a\nterm 1 ; 1 1\n")
        # a header directive may appear once; the last must not silently win
        for text, where in [
            ("polynomial\nn 3\ngenerators a b\nterm 1 2 ; 0 1\ngenerators x\n", ":5: repeated 'generators' directive"),
            ("polynomial\nn 3\ngenerators a\nn 4\nterm 1 ; 0 1\n", ":4: repeated 'n' directive"),
            # and within one term, the last pair of an h-exponent must not win
            ("polynomial\nn 3\ngenerators a b\nterm 1 2 ; 0 1 0 5\n", ":4: repeated h-exponent 0"),
        ]:
            with pytest.raises(ParseError) as err:
                parse_polynomial_file("p.poly", text)
            assert str(err.value) == "p.poly" + where


class TestRendering:
    def test_h_power_grouping(self):
        assert render_h_power(3, 0, 7) == "7"
        assert render_h_power(3, 18, 1) == "q"
        assert render_h_power(3, 48, 1) == "q^(8/3)"
        assert render_h_power(3, -48, 1) == "q^(-8/3)"
        assert render_h_power(3, 6, -1) == "-q^(1/3)"
        assert render_h_power(3, 4, 2) == "2*w^2"
        assert render_h_power(3, 1, 1) == "h"

    def test_coefficient_and_monomial(self):
        assert render_coefficient(3, {0: 1, 18: -1}) == "1 - q"
        assert render_coefficient(3, {0: 0}) == "0"
        assert render_monomial(3, ("a", "b", "c"), (3, -2, 0)) == "a b^(-2/3)"

    def test_explain_scalar_term(self):
        text = explain_polynomial(3, ("a",), {(0,): {48: 1}})
        assert text == "q^(8/3)\n"


class TestTraceCommand:
    def test_two_good_positions_byte_identical(self, torus_files):
        tmp_path, surface = torus_files
        outputs = []
        for i, content in enumerate((CURVE_A, CURVE_A_MOVED)):
            link = tmp_path / f"pos{i}.link"
            link.write_text(content)
            out = tmp_path / f"pos{i}.poly"
            assert main(["trace", str(surface), str(link), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    # The two good positions of each fixture knot of scripts/run_verification.py,
    # at every rank up to 5, with the number of terms they emit.
    @pytest.mark.parametrize("n,n_terms", [(2, 3), (3, 8), (4, 21), (5, 55)])
    @pytest.mark.parametrize("positions", [(CURVE_A, CURVE_A_MOVED), (CURVE_B, CURVE_B_MOVED)], ids=["knot_a", "knot_b"])
    def test_fixture_positions_agree_at_every_rank(self, tmp_path, positions, n, n_terms):
        surface = tmp_path / "torus.surface"
        surface.write_text(TORUS_SURFACE.replace("n 3", f"n {n}"))
        outputs = []
        for i, content in enumerate(positions):
            link = tmp_path / f"pos{i}.link"
            link.write_text(content)
            out = tmp_path / f"pos{i}.poly"
            assert main(["trace", str(surface), str(link), "--out", str(out)]) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]
        assert f"n {n}\n" in outputs[0]
        assert sum(line.startswith("term ") for line in outputs[0].splitlines()) == n_terms

    def test_repeated_runs_are_deterministic(self, torus_files, capsys):
        tmp_path, surface = torus_files
        link = tmp_path / "a.link"
        link.write_text(CURVE_A)
        assert main(["trace", str(surface), str(link)]) == 0
        first = capsys.readouterr().out
        assert main(["trace", str(surface), str(link)]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("polynomial\nn 3\ngenerators d.1 d.2 r.1 r.2 b.1 b.2")

    def test_unknot_is_a_single_scalar_term(self, torus_files, capsys):
        tmp_path, surface = torus_files
        link = tmp_path / "unknot.link"
        link.write_text(UNKNOT)
        assert main(["trace", str(surface), str(link)]) == 0
        out = capsys.readouterr().out
        assert "term 0 0 0 0 0 0 0 0 ; -36 1 0 1 36 1" in out
        assert out.count("term") == 1

    def test_classical_flag_matches_reference(self, torus_files, capsys):
        tmp_path, surface = torus_files
        link = tmp_path / "a.link"
        link.write_text(CURVE_A)
        assert main(["trace", str(surface), str(link), "--classical"]) == 0
        out = capsys.readouterr().out
        _, _, terms = parse_polynomial_file("out.poly", out)
        surf = build_surface(once_punctured_torus(), 3)
        reference = classical_trace_polynomial(
            [CurveStep("r", 1, "right"), CurveStep("d", 0, "left")], surf
        )
        assert terms == {e: {0: c} for e, c in reference.items()}

    def test_invalid_link_exits_one(self, torus_files, capsys):
        tmp_path, surface = torus_files
        link = tmp_path / "bad.link"
        link.write_text("arc T1 0 right 1\narc T0 0 right 1\n")
        assert main(["trace", str(surface), str(link)]) == 1
        assert "biangle 'r'" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        surface = tmp_path / "bad.surface"
        surface.write_text("n 3\ntriangles 1\nedge d T0.0 T9.2\nedge p T0.1\nedge q T0.2\n")
        link = tmp_path / "a.link"
        link.write_text(CURVE_A)
        assert main(["trace", str(surface), str(link)]) == 2
        assert "bad.surface:3" in capsys.readouterr().err

    def test_rank_comes_only_from_the_surface_file(self, torus_files, capsys):
        tmp_path, surface = torus_files
        link = tmp_path / "a.link"
        link.write_text(CURVE_A)
        with pytest.raises(SystemExit) as err:
            main(["trace", str(surface), str(link), "--n", "4"])
        assert err.value.code == 2
        assert "unrecognized arguments: --n 4" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        # a missing file, then one that is not UTF-8
        surface = tmp_path / "no.surface"
        for content in (None, b"\xff\xfe"):
            if content is not None:
                surface.write_bytes(content)
            assert main(["trace", str(surface), str(tmp_path / "no.link")]) == 2
            assert f"{surface}:0: cannot read file" in capsys.readouterr().err

    def test_unwritable_output_exits_one(self, torus_files, capsys):
        tmp_path, surface = torus_files
        link = tmp_path / "a.link"
        link.write_text(CURVE_A)
        out = tmp_path / "no" / "such" / "x.poly"
        assert main(["trace", str(surface), str(link), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"{out}: cannot write file: ")


class TestVerifyCommand:
    def test_full_suite_passes(self, capsys):
        assert main(["verify", "--suite", "all"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        passed, total = out.splitlines()[-1].split()[0].split("/")
        assert int(passed) == int(total) == len(lines)

    def test_single_suite_selection(self, capsys):
        assert main(["verify", "--suite", "duality", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "duality.lemma_at_lambda_plus n=3" in out
        assert "matrices." not in out

    def test_unsupported_rank_rejected(self, capsys):
        assert main(["verify", "--suite", "matrices", "--n", "7"]) == 1
        assert "2..4" in capsys.readouterr().err
        assert main(["verify", "--suite", "all", "--n", "7"]) == 1
        assert "--n" in capsys.readouterr().err
        assert main(["verify", "--suite", "moves", "--n", "7"]) == 1
        assert "moves suite supports n in 2..4, got 7" in capsys.readouterr().err
        assert main(["verify", "--suite", "moves", "--n", "4"]) == 0
        assert "16/16 checks passed" in capsys.readouterr().out
        for n in ("0", "1", "-3"):
            assert main(["verify", "--suite", "duality", "--n", n]) == 1
            assert f"duality suite supports n >= 2, got {n}" in capsys.readouterr().err

    def test_rank_zero_duality_exits_without_traceback(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-m", "qtrace.cli", "verify", "--suite", "duality", "--n", "0"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "duality suite" in done.stderr


class TestExplainCommand:
    def test_explain_polynomial_file(self, tmp_path, capsys):
        poly = tmp_path / "p.poly"
        poly.write_text(
            "polynomial\nn 3\ngenerators d.1 d.2\nterm 3 -2 ; 0 1 18 -1\n"
        )
        assert main(["explain", str(poly)]) == 0
        assert capsys.readouterr().out == "(1 - q) d.1 d.2^(-2/3)\n"

# Lines of each file format, built from tokens that are valid, near misses
# or numbers that str.isdigit, str.isdecimal and int disagree on, mixed
# with lines of loose tokens.  Ranks stay small: a trace costs more as n grows.
WORDS = (
    "n", "triangles", "edge", "arc", "slice", "state", "polynomial", "generators", "term", ";", "#",
    "T0", "T1", "T0.0", "T0.1", "T0.2", "T1.0", "T0.", "T.0", "T", ".", "a", "b", "c", "d",
    "left", "right", "up", "inc_ccw", "dec_cw", "kink_pos", "pos_same_to_lower", "neg_opp_to_higher",
    "0", "1", "2", "3", "4", "-1", "+2", "1_0", "\u00b2", "\u0663", "\u00bd", "0x1", "1.0",
)
number = st.sampled_from(("0", "1", "2", "3", "4", "-1", "\u00b2", "\u0663", "10", "x"))
name = st.sampled_from(("a", "b", "c", "d"))
triangle = st.sampled_from(("T0", "T1", "T", "T-1", "T\u00b2"))
incidence = st.tuples(triangle, st.sampled_from(("0", "1", "2", "3", "-1", ""))).map(".".join)
kind = st.sampled_from(("inc_ccw", "dec_cw", "kink_pos", "kink_neg", "pos_same_to_lower", "neg_opp_to_higher", "twist"))
loose = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join)


def directive(head, *args):
    return st.tuples(*args).map(lambda parts: " ".join((head, *parts)))


def soup(*lines):
    return st.lists(st.one_of(loose, *lines), max_size=10).map(lambda ls: "\n".join(ls) + "\n")


POLYNOMIAL_SOUP = soup(
    directive("n", number), directive("generators", name, name),
    directive("term", number, number, st.just(";"), number, number), directive("term", number, st.just(";"), number),
)
SURFACE_SOUP = soup(
    directive("n", number), directive("triangles", number),
    directive("edge", name, incidence), directive("edge", name, incidence, incidence),
)
LINK_SOUP = soup(
    directive("arc", triangle, number, st.sampled_from(("left", "right")), number),
    directive("slice", name, kind, number), directive("state", name, number, number),
)
ONE_TRIANGLE = "n 3\ntriangles 1\nedge a T0.0\nedge b T0.1\nedge c T0.2\n"
fuzz = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestParserFuzz:
    """Any input ends with exit code 0, 1 or 2, never an exception."""

    def run(self, tmp_path, command, files):
        paths = []
        for name, text in files.items():
            paths.append(str(tmp_path / name))
            (tmp_path / name).write_text(text, encoding="utf-8")
        out = ["--out", str(tmp_path / "o.poly")] if command == "trace" else []
        return main([command, *paths, *out])

    @given(head=st.sampled_from(("", "polynomial\n", "polynomial\ngenerators a b\n")), text=POLYNOMIAL_SOUP)
    @fuzz
    def test_polynomial_soup(self, tmp_path, head, text):
        assert self.run(tmp_path, "explain", {"p.poly": head + text}) in (0, 1, 2)

    @given(text=SURFACE_SOUP)
    @fuzz
    def test_surface_soup(self, tmp_path, text):
        assert self.run(tmp_path, "trace", {"s.surface": text, "l.link": ""}) in (0, 1, 2)

    @given(text=LINK_SOUP)
    @fuzz
    def test_link_soup_on_one_triangle(self, tmp_path, text):
        assert self.run(tmp_path, "trace", {"s.surface": ONE_TRIANGLE, "l.link": text}) in (0, 1, 2)


def test_verification_script_runs_from_a_checkout(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # an existing scratch directory, and a nested one the script creates
    for workdir in (tmp_path, tmp_path / "new" / "nested"):
        done = subprocess.run(
            [sys.executable, str(script), str(workdir)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert "all checks passed" in done.stdout
        assert (workdir / "torus.surface").is_file()


def load_verification_script(monkeypatch):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec = importlib.util.spec_from_file_location("run_verification", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verification_script_fails_cleanly_when_no_trace_is_written(tmp_path, monkeypatch, capsys):
    # every trace of the one-position unknot fails, so there is no output
    # of that fixture to explain: the script reports it and returns 1
    module = load_verification_script(monkeypatch)

    def cli(argv):
        if argv[0] == "trace" and Path(argv[2]).name.startswith("unknot"):
            return 1
        return main(argv)

    monkeypatch.setattr(module, "cli", cli)
    assert module.run(tmp_path) == 1
    out = capsys.readouterr().out
    assert "FAIL trace unknot position 0 (exit 1)" in out
    assert "-- knot_b --" in out and "-- unknot --" not in out
    assert out.rstrip().endswith("1 failures")


def test_verification_script_counts_a_failing_explain(tmp_path, monkeypatch, capsys):
    # every trace succeeds, but explain exits 2 on each fixture's output
    module = load_verification_script(monkeypatch)
    monkeypatch.setattr(module, "cli", lambda argv: 2 if argv[0] == "explain" else main(argv))
    assert module.run(tmp_path) == 1
    out = capsys.readouterr().out
    assert "FAIL explain knot_a (exit 2)" in out and "all checks passed" not in out
    assert out.rstrip().endswith("3 failures")
