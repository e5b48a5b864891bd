"""Golden outputs: emitted polynomial files and the verify report must
stay byte-identical across refactors.

Each file in tests/golden was written by ``qtrace trace`` (or
``qtrace verify --suite all``); regenerate one only when a change is
meant to alter the emitted text.
"""

from hashlib import sha256
from pathlib import Path

import pytest

from qtrace.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def torus_surface(n):
    return f"n {n}\ntriangles 2\nedge d T0.0 T1.2\nedge r T0.1 T1.0\nedge b T0.2 T1.1\n"


CURVE_A = "arc T1 0 right 1\narc T0 0 left 1\n"
CURVE_B = "arc T0 2 left 1\narc T1 2 right 1\n"
CURVE_A_TWICE = "arc T1 0 right 1\narc T0 0 left 1\narc T1 0 right 2\narc T0 0 left 2\n"
CURVE_B_TWICE = "arc T0 2 left 1\narc T1 2 right 1\narc T0 2 left 2\narc T1 2 right 2\n"
CURVE_B_THRICE = (
    "arc T0 2 left 1\narc T1 2 right 1\narc T0 2 left 2\narc T1 2 right 2\narc T0 2 left 3\narc T1 2 right 3\n"
)

# Two copies of curve a with, in each of the biangles d and r, a crossing,
# a kink pair, a zig-zag and the inverse crossing: isotopic to CURVE_A_TWICE.
CURVE_A_TWICE_BRAIDED = CURVE_A_TWICE + (
    "slice d pos_same_to_lower 1\nslice d kink_pos 1\nslice d kink_neg 1\n"
    "slice d inc_ccw 2\nslice d inc_cw 1\nslice d neg_same_to_lower 1\n"
    "slice r pos_same_to_lower 1\nslice r kink_pos 1\nslice r kink_neg 1\n"
    "slice r inc_ccw 1\nslice r inc_cw 2\nslice r neg_same_to_lower 1\n"
)

CURVE_A_THRICE = "".join(f"arc T1 0 right {h}\narc T0 0 left {h}\n" for h in (1, 2, 3))
CURVE_A_FIVE = "".join(f"arc T1 0 right {h}\narc T0 0 left {h}\n" for h in range(1, 6))

# Three copies of curve a with, in each of the biangles d and r, a word w of
# three crossings, a kink pair, a zig-zag and w^-1: isotopic to CURVE_A_THRICE.
CURVE_A_THRICE_BRAIDED = CURVE_A_THRICE + (
    "slice d pos_same_to_lower 1\nslice d neg_same_to_higher 2\nslice d pos_same_to_higher 1\n"
    "slice d kink_pos 3\nslice d kink_neg 3\nslice d inc_ccw 2\nslice d inc_cw 1\n"
    "slice d neg_same_to_higher 1\nslice d pos_same_to_higher 2\nslice d neg_same_to_lower 1\n"
    "slice r neg_same_to_lower 2\nslice r neg_same_to_higher 1\nslice r pos_same_to_lower 2\n"
    "slice r kink_neg 1\nslice r kink_pos 1\nslice r inc_ccw 1\nslice r inc_cw 2\n"
    "slice r neg_same_to_lower 2\nslice r pos_same_to_higher 1\nslice r pos_same_to_lower 2\n"
)

# Three copies of curve a with one uncancelled crossing of the two lowest
# strands in the biangle d: the table splits above height 2, not height 1.
CURVE_A_THRICE_LOW_CROSSING = CURVE_A_THRICE + "slice d pos_same_to_lower 1\n"

# Two copies of curve a with 50 unknots in the biangle d: coefficients of up
# to 78 bits, so the biangle sweep must carry amplitudes wider than 64 bits.
CURVE_A_TWICE_UNKNOTS = CURVE_A_TWICE + "slice d inc_ccw 1\nslice d dec_ccw 1\n" * 50

# Two copies of curve a twisted 48 times in the biangle d: small output
# coefficients, but a coefficient bound of 3^48 over the sweep.
CURVE_A_TWICE_TWISTED = CURVE_A_TWICE + "slice d pos_same_to_lower 1\n" * 48


def strip(m):
    """One left-turning arc through a fan of m triangles at n = 3, from
    state 1 on edge e0 to state 3 on edge e1."""
    surface = ["n 3", f"triangles {m}", "edge e0 T0.0"]
    surface += [f"edge i{i} T{i - 1}.1 T{i}.0" for i in range(1, m)]
    surface += [f"edge s{i} T{i}.2" for i in range(m)]
    surface.append(f"edge e1 T{m - 1}.1")
    link = [f"arc T{i} 0 left 1" for i in range(m)] + ["state e0 1 1", "state e1 1 3"]
    return "\n".join(surface) + "\n", "\n".join(link) + "\n"


def two_strands(m):
    """Two parallel left-turning arcs through the fan of strip(m), at
    heights 1 and 2, from states 1 and 2 on e0 to states 3 and 3 on e1."""
    link = [f"arc T{i} 0 left {h}" for h in (1, 2) for i in range(m)]
    link += ["state e0 1 1", "state e0 2 2", "state e1 1 3", "state e1 2 3"]
    return strip(m)[0], "\n".join(link) + "\n"


# (case id, surface text, link text, golden file)
TRACES = [
    *(
        (f"bundle-n{n}-k1-{c}", torus_surface(n), link, f"bundle-n{n}-k1-{c}.poly")
        for n in (3, 4, 5)
        for c, link in (("a", CURVE_A), ("b", CURVE_B))
    ),
    ("bundle-n3-k2-a", torus_surface(3), CURVE_A_TWICE, "bundle-n3-k2-a.poly"),
    ("bundle-n3-k3-a", torus_surface(3), CURVE_A_THRICE, "bundle-n3-k3-a.poly"),
    ("bundle-n3-k3-b", torus_surface(3), CURVE_B_THRICE, "bundle-n3-k3-b.poly"),
    ("bundle-n4-k2-a", torus_surface(4), CURVE_A_TWICE, "bundle-n4-k2-a.poly"),
    ("bundle-n4-k2-b", torus_surface(4), CURVE_B_TWICE, "bundle-n4-k2-b.poly"),
    ("bundle-n3-k5-a", torus_surface(3), CURVE_A_FIVE, "bundle-n3-k5-a.poly"),
    ("braided-n3-k2-a", torus_surface(3), CURVE_A_TWICE_BRAIDED, "bundle-n3-k2-a.poly"),
    ("braided-n3-k3-a", torus_surface(3), CURVE_A_THRICE_BRAIDED, "bundle-n3-k3-a.poly"),
    ("braided-low-n3-k3-a", torus_surface(3), CURVE_A_THRICE_LOW_CROSSING, "braided-low-n3-k3-a.poly"),
    ("unknots50-n3-k2-a", torus_surface(3), CURVE_A_TWICE_UNKNOTS, "unknots50-n3-k2-a.poly"),
    ("twist48-n3-k2-a", torus_surface(3), CURVE_A_TWICE_TWISTED, "twist48-n3-k2-a.poly"),
    *((f"strip-n3-m{m}", *strip(m), f"strip-n3-m{m}.poly") for m in (2, 5, 8, 12)),
    ("strip2-n3-m5", *two_strands(5), "strip2-n3-m5.poly"),
]


@pytest.mark.parametrize(
    "surface_text,link_text,golden", [case[1:] for case in TRACES], ids=[case[0] for case in TRACES]
)
def test_trace_output_is_golden(tmp_path, surface_text, link_text, golden):
    surface = tmp_path / "in.surface"
    link = tmp_path / "in.link"
    out = tmp_path / "out.poly"
    surface.write_text(surface_text)
    link.write_text(link_text)
    assert main(["trace", str(surface), str(link), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# The largest outputs (about 100 KB each for the bundles, 333 KB and 2.6 MB
# for the long strips) are pinned by the sha256 of the emitted file instead
# of a copy.  (case id, surface text, link text, digest)
DIGESTS = [
    (
        "bundle-n5-k2-a",
        torus_surface(5),
        CURVE_A_TWICE,
        "01b2a71b438df9cbbacc253b9faa6c0db39931abc6f509244553307944814c06",
    ),
    (
        "bundle-n5-k2-b",
        torus_surface(5),
        CURVE_B_TWICE,
        "813ba42515892df1e9e9adadf9375e84fa4324abab6a30e1a6588bc2513c7b5f",
    ),
    ("strip-n3-m30", *strip(30), "253a2553a605ecffd5f9204a47ad0fe56652163fbbef56c5693c9e43c5823c96"),
    ("strip-n3-m60", *strip(60), "4801d7e24e9c8a467362079cdbec23fec9f6e76eba92044fc09ba5971c1fc93d"),
]


@pytest.mark.parametrize(
    "surface_text,link_text,digest", [case[1:] for case in DIGESTS], ids=[case[0] for case in DIGESTS]
)
def test_trace_output_has_pinned_digest(tmp_path, surface_text, link_text, digest):
    surface = tmp_path / "in.surface"
    link = tmp_path / "in.link"
    out = tmp_path / "out.poly"
    surface.write_text(surface_text)
    link.write_text(link_text)
    assert main(["trace", str(surface), str(link), "--out", str(out)]) == 0
    assert sha256(out.read_bytes()).hexdigest() == digest


def test_verify_report_is_golden(capsys):
    assert main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "verify-all.txt").read_bytes()
