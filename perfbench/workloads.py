"""Seeded inputs, job lists and the correctness gate of the qtrace benchmark.

Every input file is a pure function of (workload, seed).  The seed picks
only the order of the jobs in a pass and, in the ``braided`` workload,
which braid words of a fixed pool go together into a job and whether each
crossing is named ``_to_lower`` or ``_to_higher`` (the same matrix).  It
never picks a size, a boundary state or a word's crossings, whose
pattern sets the cost of the biangle sums, so the cost of a pass does not
depend on the seed.

Workloads (why each was chosen is also recorded in BENCHMARK.json):

- ``torus-bundle``: k parallel copies of each of the two fixture curves
  of ``scripts/run_verification.py`` on the once-punctured torus, on the
  ladder (n, k) = (3, 3), (4, 2), (5, 2).  Big multi-term polynomials
  and trivial biangles: torus accumulation and gluing dominate.
- ``strip``: one left-turning arc through a fan of m triangles with
  boundary states (1, n), n = 3, m = 5..8.  The brute-force state space
  grows as n^(m-1) while the output stays tiny.
- ``braided``: the n = 3, k = 3 bundle of the first curve with a braid
  word w.w^-1, a kink pair and a zig-zag in each of the biangles d and r.  The link is isotopic to the plain bundle, so its emitted file
  must equal the plain one byte for byte; biangle state sums dominate.
- ``verify``: ``verify --suite all`` repeated; many small matrix
  products, quantum determinants and point checks.

Each job is checked against a sha256 digest of the emitted file pinned
from the program as it stood when the benchmark was defined.  The
emitted files themselves are kept in ``golden.json.gz`` (a gzip-compressed
JSON object, key -> text) so that a mismatch can name the first line
that differs.
"""

import gzip
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("torus-bundle", "strip", "braided", "verify")

# Sizes are fixed: only the order of jobs and the braid words vary with the seed.
TORUS_LADDER = ((3, 3), (4, 2), (5, 2))
STRIP_LADDER = ((3, 5), (3, 6), (3, 7), (3, 8))
BRAIDED_RANK, BRAIDED_COPIES, BRAIDED_JOBS, BRAID_LENGTH = 3, 3, 3, 6
VERIFY_REPEATS = 8

# The two simple closed curves of the fixture torus: (triangle, entry side, turn).
CURVES = {
    "a": ((1, 0, "right"), (0, 0, "left")),
    "b": ((0, 2, "left"), (1, 2, "right")),
}

# Zig-zags that straighten to the identity on the biangles the first curve
# crosses; each opens a cup and closes it on the neighbouring strand.
ZIGZAGS = {"d": (("inc_ccw", 2), ("inc_cw", 1)), "r": (("inc_ccw", 1), ("inc_cw", 2))}

VERIFY_TOTAL = 42

# sha256 of each base input's emitted polynomial file.
DIGESTS = {
    "bundle-n3-k1-a": "af46d38864097d129784bb235ec46e807f8548738ff192c84fcbc05a0a5981df",
    "bundle-n3-k1-b": "f2503473a38f1111dcb1e0aab8b3b8d2be2ce03cecd245381764d90aff31f362",
    "bundle-n4-k1-a": "a4d0afe361d056daea6bef5ce1287691bffda45458fc3ffd9acac6fc1520da03",
    "bundle-n4-k1-b": "395c4a295ea749c12ea734453501677d944b36ee05035a613a079b6c6b4f214c",
    "bundle-n5-k1-a": "20d7759f3b7e690bf6e1f0caf2ef573b784e8d2856d4888384ef6ac009871bde",
    "bundle-n5-k1-b": "92a6e9e983dd2053570e32ef7b9538af8cf915e0e3025ba20d56b53b130f6b94",
    "bundle-n3-k2-a": "fc95eebedd7520251707b0f21123aa8cfd5ebe03b82539a9d58a62d405761566",
    "bundle-n3-k3-a": "c8dab6fe8e4b0a500097d53010a3f2b46d1ad4df5dc311b42a2159741c70445f",
    "bundle-n3-k3-b": "05ceafd0330367c822e634e1f3d2b288bf1a60b21a5c8e5c767352e770c957a4",
    "bundle-n4-k2-a": "46e322ee89d993cae11a49c1917928dd1ceb35f92291675fdfe9f637c0eb8f73",
    "bundle-n4-k2-b": "67dc85655418826060d7c4787686fe8be12642f9edf65904af90ac72c88c0620",
    "bundle-n5-k2-a": "01b2a71b438df9cbbacc253b9faa6c0db39931abc6f509244553307944814c06",
    "bundle-n5-k2-b": "813ba42515892df1e9e9adadf9375e84fa4324abab6a30e1a6588bc2513c7b5f",
    "strip-n3-m2": "14ab90365a09bb5ff0731d0db43e2a094a23ce8867e54cb7864a2b3c7d899eec",
    "strip-n3-m5": "c06cb3fd1f7b8ddcc67c36695b98aa82935f57935a6826b60a2b4ee6255ed46c",
    "strip-n3-m6": "e5bf05860c1d82cb6ad9134086bc5cac363bca686ce8267c70f94c3d26a03690",
    "strip-n3-m7": "d26733bdf87675ad6d429faac8ed33244cf7e01a8285c684ed4f631671827903",
    "strip-n3-m8": "c56f8394901956393668e29f1d29477a8285f3941a2dd043ecf794af30d7c56e",
}

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json.gz"


@dataclass(frozen=True)
class Job:
    """One CLI call.  ``argv`` names input files relative to the work
    directory; ``expect`` is a DIGESTS key, or ``"verify"``."""

    name: str
    argv: tuple
    expect: str


@dataclass(frozen=True)
class Plan:
    files: dict  # file name -> text
    warmup: tuple  # untimed jobs that fill the per-rank caches
    jobs: tuple  # one pass, in seeded order


# ---------------------------------------------------------------------------
# generators


def torus_surface(n):
    return f"n {n}\ntriangles 2\nedge d T0.0 T1.2\nedge r T0.1 T1.0\nedge b T0.2 T1.1\n"


def bundle_link(curve, k, slices=()):
    """k parallel copies of a fixture curve, copy h at height h in both
    triangles, followed by biangle slices given as (edge, kind, pos)."""
    lines = [f"arc T{t} {s} {turn} {h}" for h in range(1, k + 1) for t, s, turn in CURVES[curve]]
    lines += [f"slice {edge} {kind} {pos}" for edge, kind, pos in slices]
    return "\n".join(lines) + "\n"


def strip_files(n, m):
    """A fan of m triangles, T(i-1) side 1 glued to Ti side 0, and one arc
    entering every triangle through side 0 and turning left."""
    surface = [f"n {n}", f"triangles {m}", "edge e0 T0.0"]
    surface += [f"edge i{i} T{i - 1}.1 T{i}.0" for i in range(1, m)]
    surface += [f"edge s{i} T{i}.2" for i in range(m)]
    surface.append(f"edge e1 T{m - 1}.1")
    link = [f"arc T{i} 0 left 1" for i in range(m)]
    link += ["state e0 1 1", f"state e1 1 {n}"]
    return "\n".join(surface) + "\n", "\n".join(link) + "\n"


def _inverse_kind(kind):
    sign, rest = kind.split("_", 1)
    return ("neg" if sign == "pos" else "pos") + "_" + rest


def braid_word(rng, strands, length=BRAID_LENGTH):
    """A word of same-direction crossings with no letter followed by its
    own inverse, so nothing cancels before the middle of w.w^-1."""
    word = []
    while len(word) < length:
        kind = f"{rng.choice(('pos', 'neg'))}_same_to_{rng.choice(('lower', 'higher'))}"
        pos = rng.randint(1, strands - 1)
        if word and word[-1][1] == pos and word[-1][0][:3] != kind[:3]:
            continue
        word.append((kind, pos))
    return word


def word_pool(edge, strands):
    """The fixed braid words of one biangle, one per braided job."""
    return [braid_word(random.Random(f"braided-pool:{edge}:{i}"), strands)
            for i in range(BRAIDED_JOBS)]


def relabel(rng, word):
    """The same word with each crossing named over the lower or the
    higher strand at random."""
    return [(kind.rsplit("_", 1)[0] + "_" + rng.choice(("lower", "higher")), pos)
            for kind, pos in word]


def braided_slices(words):
    """w, a kink pair, the zig-zag and w^-1 in each of the biangles d and r."""
    slices = []
    for edge in ("d", "r"):
        w = words[edge]
        inverse = [(_inverse_kind(kind), pos) for kind, pos in reversed(w)]
        middle = [("kink_pos", 1), ("kink_neg", 1), *ZIGZAGS[edge]]
        slices += [(edge, kind, pos) for kind, pos in (*w, *middle, *inverse)]
    return slices


def _trace(name, surface, link, expect):
    return Job(name, ("trace", surface, link, "--out", name + ".poly"), expect)


def make_plan(workload, seed, smoke=False):
    """Inputs and job lists of one workload.  ``smoke`` keeps only the
    smallest rung of the pass, run through the same code."""
    rng = random.Random(f"{workload}:{seed}")
    files, warmup, jobs = {}, [], []
    if workload == "torus-bundle":
        ladder = TORUS_LADDER[:1] if smoke else TORUS_LADDER
        ranks = sorted({n for n, _ in ladder})
        for n in ranks:
            files[f"torus-n{n}.surface"] = torus_surface(n)
        for n, k in [(n, 1) for n in ranks] + list(ladder):
            for curve in CURVES:
                key = f"bundle-n{n}-k{k}-{curve}"
                files[key + ".link"] = bundle_link(curve, k)
                (warmup if k == 1 else jobs).append(_trace(key, f"torus-n{n}.surface", key + ".link", key))
    elif workload == "strip":
        ladder = STRIP_LADDER[:1] if smoke else STRIP_LADDER
        for n, m in [(ladder[0][0], 2)] + list(ladder):
            key = f"strip-n{n}-m{m}"
            files[key + ".surface"], files[key + ".link"] = strip_files(n, m)
            (warmup if m == 2 else jobs).append(_trace(key, key + ".surface", key + ".link", key))
    elif workload == "braided":
        n, k = BRAIDED_RANK, BRAIDED_COPIES
        files[f"torus-n{n}.surface"] = torus_surface(n)
        # The warm-up crosses two strands once each way, which builds every
        # crossing matrix of rank n and its inverse.
        one = [("pos_same_to_lower", 1)]
        files["braided-warmup.link"] = bundle_link("a", 2, braided_slices({"d": one, "r": one}))
        warmup.append(_trace("braided-warmup", f"torus-n{n}.surface", "braided-warmup.link",
                             f"bundle-n{n}-k2-a"))
        pools = {edge: word_pool(edge, k) for edge in ("d", "r")}
        for pool in pools.values():
            rng.shuffle(pool)
        for j in range(1 if smoke else BRAIDED_JOBS):
            words = {edge: relabel(rng, pools[edge][j]) for edge in ("d", "r")}
            name = f"braided-{j}"
            files[name + ".link"] = bundle_link("a", k, braided_slices(words))
            jobs.append(_trace(name, f"torus-n{n}.surface", name + ".link", f"bundle-n{n}-k{k}-a"))
    elif workload == "verify":
        warmup.append(Job("verify-warmup", ("verify", "--suite", "all"), "verify"))
        for j in range(1 if smoke else VERIFY_REPEATS):
            jobs.append(Job(f"verify-{j}", ("verify", "--suite", "all"), "verify"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return Plan(files=files, warmup=tuple(warmup), jobs=tuple(jobs))


# ---------------------------------------------------------------------------
# correctness gate


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def first_difference(expected, actual):
    """1-based number and both versions of the first line that differs."""
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    for i in range(max(len(exp_lines), len(act_lines))):
        e = exp_lines[i] if i < len(exp_lines) else "<end of file>"
        a = act_lines[i] if i < len(act_lines) else "<end of file>"
        if e != a:
            return i + 1, e, a
    return None


def load_golden(key, path=GOLDEN_PATH):
    """The pinned emitted file of a base input, checked against its digest."""
    with gzip.open(path, "rt", encoding="utf-8") as f:
        text = json.load(f)[key]
    if sha256(text.encode()) != DIGESTS[key]:
        raise ValueError(f"golden file for {key} does not match its pinned digest")
    return text


def check_trace_output(key, data, golden=load_golden):
    """None when the emitted bytes carry the pinned digest of ``key``,
    else a message naming the first differing line."""
    if sha256(data) == DIGESTS[key]:
        return None
    diff = first_difference(golden(key), data.decode("utf-8", "replace"))
    if diff is None:
        return f"digest differs from {key} with no differing line (line endings?)"
    line, expected, actual = diff
    return f"output differs from {key} at line {line}: expected {expected[:120]!r}, got {actual[:120]!r}"


def check_verify_output(text):
    """None when every check passed, else the first failing line."""
    for line in text.splitlines():
        if line.startswith("FAIL"):
            return f"verify reported {line!r}"
    summary = f"{VERIFY_TOTAL}/{VERIFY_TOTAL} checks passed"
    if summary not in text.splitlines():
        last = text.splitlines()[-1] if text.strip() else "<no output>"
        return f"verify summary is {last!r}, expected {summary!r}"
    return None
