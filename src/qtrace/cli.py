"""Command line interface: trace, verify, explain.

File formats are line-based text with '#' comments:

Surface file::

    n 3
    triangles 2
    edge d T0.0 T1.2
    edge p T0.1            # single incidence: boundary edge

Link file::

    arc T0 0 left 1        # triangle, entry side, turn, height
    slice d inc_ccw 1      # biangle slice: edge, kind, position
    state p 1 2            # boundary state: edge, position, value

Polynomial file::

    polynomial
    n 3
    generators d.1 d.2 ...
    term <exponents in 1/n units> ; <h-exp> <coeff> [<h-exp> <coeff> ...]

Terms are sorted lexicographically by exponent vector and coefficient
pairs by h-exponent, so emission is byte-deterministic.

Exit codes: 0 success, 1 validation or verification failure, 2 parse
error (with line-positioned diagnostics on stderr).
"""

import argparse
import sys
from fractions import Fraction

from .qtorus import ONE, TorusElement
from .fock_goncharov import is_mnq_point, is_slnq_point, triangle_poisson
from .biangle import (
    SLICE_KINDS,
    Slice,
    crossing_matrix,
    duality_lemma_check,
    duality_parameter,
    skein_checks,
    yang_baxter_holds,
)
from .surface import (
    Edge,
    GoodPositionLink,
    IdealTriangulation,
    TriangleArc,
    TriangulationError,
    arc_quantum_matrix,
    build_surface,
    glued_trace,
    verify_moves,
)


class ParseError(Exception):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def _content_lines(path, text):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line.split()


# ---------------------------------------------------------------------------
# surface and link files


def parse_surface_file(path, text):
    n = None
    n_triangles = None
    edges = []
    edge_lines = []
    for line_no, tokens in _content_lines(path, text):
        key = tokens[0]
        if key in ("n", "triangles") and (n if key == "n" else n_triangles) is not None:
            raise ParseError(path, line_no, f"repeated {key!r} directive")
        if key == "n":
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise ParseError(path, line_no, "expected 'n <integer>'")
            n = int(tokens[1])
            if n < 2:
                raise ParseError(path, line_no, "rank n must be at least 2")
        elif key == "triangles":
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise ParseError(path, line_no, "expected 'triangles <count>'")
            n_triangles = int(tokens[1])
            if n_triangles < 1:
                raise ParseError(path, line_no, "a triangulation needs at least one triangle")
        elif key == "edge":
            if len(tokens) not in (3, 4):
                raise ParseError(
                    path, line_no, "expected 'edge <id> <tri>.<side> [<tri>.<side>]'"
                )
            incidences = []
            for token in tokens[2:]:
                parts = token.split(".")
                if (
                    len(parts) != 2
                    or not parts[0].startswith("T")
                    or not parts[0][1:].isdecimal()
                    or not parts[1].isdecimal()
                ):
                    raise ParseError(
                        path, line_no, f"bad incidence {token!r}, expected T<tri>.<side>"
                    )
                incidences.append((int(parts[0][1:]), int(parts[1])))
            edges.append(Edge(tokens[1], tuple(incidences)))
            edge_lines.append(line_no)
        else:
            raise ParseError(path, line_no, f"unknown directive {key!r}")
    if n is None:
        raise ParseError(path, 1, "missing 'n' directive")
    if n_triangles is None:
        raise ParseError(path, 1, "missing 'triangles' directive")
    try:
        triangulation = IdealTriangulation(n_triangles=n_triangles, edges=tuple(edges))
    except TriangulationError as err:
        raise ParseError(path, 1 if err.edge is None else edge_lines[err.edge], str(err))
    return n, triangulation


def parse_link_file(path, text):
    arcs = []
    slices = {}
    states = {}
    for line_no, tokens in _content_lines(path, text):
        key = tokens[0]
        if key == "arc":
            if (
                len(tokens) != 5
                or not tokens[1].startswith("T")
                or not tokens[1][1:].isdecimal()
                or not tokens[2].isdecimal()
                or tokens[3] not in ("left", "right")
                or not tokens[4].isdecimal()
            ):
                raise ParseError(
                    path, line_no, "expected 'arc T<tri> <entry side> <left|right> <height>'"
                )
            arcs.append(
                TriangleArc(int(tokens[1][1:]), int(tokens[2]), tokens[3], int(tokens[4]))
            )
        elif key == "slice":
            if len(tokens) != 4 or not tokens[3].isdecimal():
                raise ParseError(path, line_no, "expected 'slice <edge> <kind> <position>'")
            if tokens[2] not in SLICE_KINDS:
                raise ParseError(path, line_no, f"unknown slice kind {tokens[2]!r}")
            slices.setdefault(tokens[1], []).append(Slice(tokens[2], int(tokens[3])))
        elif key == "state":
            if len(tokens) != 4 or not tokens[2].isdecimal() or not tokens[3].isdecimal():
                raise ParseError(path, line_no, "expected 'state <edge> <position> <value>'")
            slot = (tokens[1], int(tokens[2]))
            if slot in states:
                raise ParseError(path, line_no, f"repeated state for edge {slot[0]!r} position {slot[1]}")
            states[slot] = int(tokens[3])
        else:
            raise ParseError(path, line_no, f"unknown directive {key!r}")
    return GoodPositionLink(arcs=tuple(arcs), slices=slices, boundary_states=states)


# ---------------------------------------------------------------------------
# polynomial files


def emit_polynomial(n, generator_ids, terms) -> str:
    """Canonical text for a polynomial given as {exponent vector:
    {h-exponent: integer}} with exponents in 1/n units."""
    lines = ["polynomial", f"n {n}", "generators " + " ".join(generator_ids)]
    for evec in sorted(terms):
        coeff = terms[evec]
        pairs = " ".join(f"{k} {coeff[k]}" for k in sorted(coeff) if coeff[k])
        if not pairs:
            continue
        lines.append("term " + " ".join(str(e) for e in evec) + " ; " + pairs)
    return "\n".join(lines) + "\n"


def polynomial_terms(elem: TorusElement):
    return {e: c.terms for e, c in elem.terms.items()}


def parse_polynomial_file(path, text):
    n = None
    generator_ids = None
    terms = {}
    saw_header = False
    for line_no, tokens in _content_lines(path, text):
        key = tokens[0]
        if key in ("n", "generators") and (n if key == "n" else generator_ids) is not None:
            raise ParseError(path, line_no, f"repeated {key!r} directive")
        if key == "polynomial":
            saw_header = True
        elif key == "n":
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise ParseError(path, line_no, "expected 'n <integer>'")
            n = int(tokens[1])
            if n < 2:
                raise ParseError(path, line_no, "rank n must be at least 2")
        elif key == "generators":
            generator_ids = tuple(tokens[1:])
        elif key == "term":
            if generator_ids is None:
                raise ParseError(path, line_no, "'term' before 'generators'")
            if ";" not in tokens:
                raise ParseError(path, line_no, "term line needs ';' separator")
            cut = tokens.index(";")
            exps = tokens[1:cut]
            pairs = tokens[cut + 1:]
            if len(exps) != len(generator_ids):
                raise ParseError(
                    path, line_no,
                    f"expected {len(generator_ids)} exponents, got {len(exps)}",
                )
            if len(pairs) % 2 != 0 or not pairs:
                raise ParseError(path, line_no, "coefficient pairs must come in twos")
            try:
                evec = tuple(int(x) for x in exps)
                coeff = {}
                for i in range(0, len(pairs), 2):
                    if int(pairs[i]) in coeff:
                        raise ParseError(path, line_no, f"repeated h-exponent {int(pairs[i])}")
                    coeff[int(pairs[i])] = int(pairs[i + 1])
            except ValueError:
                raise ParseError(path, line_no, "exponents and coefficients must be integers")
            if evec in terms:
                raise ParseError(path, line_no, "duplicate exponent vector")
            terms[evec] = coeff
        else:
            raise ParseError(path, line_no, f"unknown directive {key!r}")
    if not saw_header:
        raise ParseError(path, 1, "missing 'polynomial' header")
    if n is None:
        raise ParseError(path, 1, "missing 'n' directive")
    if generator_ids is None:
        raise ParseError(path, 1, "missing 'generators' directive")
    return n, generator_ids, terms


# ---------------------------------------------------------------------------
# pretty printing


def _render_power(base: str, exp: Fraction) -> str:
    """base, base^k or base^(p/q)."""
    if exp == 1:
        return base
    if exp.denominator == 1:
        return f"{base}^{exp.numerator}"
    return f"{base}^({exp.numerator}/{exp.denominator})"


def render_h_power(n: int, k: int, coeff: int) -> str:
    """One coefficient monomial, grouped as powers of q, q^(1/n), or
    the n-th root of q squared where the h-exponent divides evenly."""
    if k == 0:
        return str(coeff)
    if k % (2 * n) == 0:
        power = _render_power("q", Fraction(k, 2 * n * n))
    elif k % 2 == 0:
        power = _render_power("w", Fraction(k, 2))
    else:
        power = _render_power("h", Fraction(k))
    if coeff == 1:
        return power
    if coeff == -1:
        return "-" + power
    return f"{coeff}*{power}"


def render_coefficient(n: int, coeff: dict) -> str:
    parts = [render_h_power(n, k, coeff[k]) for k in sorted(coeff) if coeff[k]]
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def render_monomial(n: int, generator_ids, evec) -> str:
    return " ".join(_render_power(gid, Fraction(e, n)) for gid, e in zip(generator_ids, evec) if e)


def explain_polynomial(n, generator_ids, terms) -> str:
    lines = []
    for evec in sorted(terms):
        coeff = render_coefficient(n, terms[evec])
        mono = render_monomial(n, generator_ids, evec)
        if mono:
            lines.append(f"({coeff}) {mono}")
        else:
            lines.append(coeff)
    if not lines:
        lines.append("0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as err:
        raise ParseError(path, 0, f"cannot read file: {err.strerror}")
    except UnicodeDecodeError as err:
        raise ParseError(path, 0, f"cannot read file: {err}")


def cmd_trace(args) -> int:
    n, triangulation = parse_surface_file(args.surface, _read(args.surface))
    link = parse_link_file(args.link, _read(args.link))
    surface = build_surface(triangulation, n)
    glued = glued_trace(link, surface)
    if args.classical:
        terms = {e: {0: c} for e, c in glued.at_one().items() if c}
    else:
        terms = polynomial_terms(glued)
    text = emit_polynomial(n, surface.glued_ids, terms)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as err:
            print(f"{args.out}: cannot write file: {err.strerror}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def _matrix_suite(n: int):
    tri = triangle_poisson(n)
    checks = [
        (f"matrices.{turn}_is_slnq_point n={n}", is_slnq_point(arc_quantum_matrix(tri, 0, turn)))
        for turn in ("left", "right")
    ]
    raw = arc_quantum_matrix(tri, 0, "left", normalized=False)
    checks.append((f"matrices.unnormalized_left_fails n={n}", not is_mnq_point(raw)))
    return checks


def _skein_suite(n: int):
    checks = [(f"skein.{name} n={n}", ok) for name, ok in skein_checks(n).items()]
    if n in (2, 3):
        checks.append((f"skein.yang_baxter n={n}", yang_baxter_holds(n)))
    same = crossing_matrix("pos_same_to_lower", n)
    opp = crossing_matrix("pos_opp_to_lower", n)
    flat = lambda M: [[x.at_one() for x in row] for row in M.entries]
    checks.append((f"skein.same_equals_opp_at_h1 n={n}", flat(same) == flat(opp)))
    return checks


def _duality_suite(n: int):
    checks = []
    for sign, tag in ((1, "plus"), (-1, "minus")):
        report = duality_lemma_check(n, duality_parameter(n, sign))
        checks.append((f"duality.lemma_at_lambda_{tag} n={n}", all(report.values())))
    at_one = duality_lemma_check(n, ONE)
    checks.append((f"duality.lemma_fails_at_lambda_one n={n}", not all(at_one.values())))
    return checks


def _moves_suite(n: int):
    return [(f"moves.{name} n={n}", ok) for name, ok in verify_moves(n).items()]


def cmd_verify(args) -> int:
    suite = args.suite
    if suite == "all" and args.n is not None:
        print("--n selects the rank of one suite; --suite all runs fixed ranks", file=sys.stderr)
        return 1
    n = args.n if args.n is not None else 3
    if suite == "duality" and n < 2:
        print(f"duality suite supports n >= 2, got {n}", file=sys.stderr)
        return 1
    if suite in ("matrices", "skein", "moves") and n not in (2, 3, 4):
        print(f"{suite} suite supports n in 2..4, got {n}", file=sys.stderr)
        return 1
    checks = []
    for name, ranked_suite in (("matrices", _matrix_suite), ("skein", _skein_suite)):
        if suite in (name, "all"):
            for m in (2, 3, 4) if suite == "all" else (n,):
                checks.extend(ranked_suite(m))
    if suite in ("duality", "all"):
        checks.extend(_duality_suite(3 if suite == "all" else n))
    if suite in ("moves", "all"):
        checks.extend(_moves_suite(n))
    failures = 0
    for name, ok in checks:
        print(("PASS " if ok else "FAIL ") + name)
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def cmd_explain(args) -> int:
    n, generator_ids, terms = parse_polynomial_file(args.polynomial, _read(args.polynomial))
    sys.stdout.write(explain_polynomial(n, generator_ids, terms))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtrace",
        description="Exact SL(n) quantum trace polynomials on triangulated surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="compute a quantum trace polynomial")
    p_trace.add_argument("surface", help="surface file")
    p_trace.add_argument("link", help="link file")
    p_trace.add_argument("--classical", action="store_true", help="specialize at h = 1")
    p_trace.add_argument("--out", default=None, help="output path (default stdout)")
    p_trace.set_defaults(func=cmd_trace)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument(
        "--suite",
        choices=("matrices", "moves", "skein", "duality", "all"),
        default="all",
    )
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_explain = sub.add_parser("explain", help="pretty-print a polynomial file")
    p_explain.add_argument("polynomial", help="polynomial file")
    p_explain.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(str(err), file=sys.stderr)
        return 2
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
