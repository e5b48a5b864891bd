"""Tests of the benchmark itself: input generators, the correctness gate,
the span arithmetic and the tracer, and a smoke run.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from qtrace.cli import parse_link_file, parse_surface_file  # noqa: E402
from qtrace.surface import build_surface, validate_good_position  # noqa: E402


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert workloads.make_plan(workload, 7) == workloads.make_plan(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_neither_sizes_nor_expected_outputs(workload):
    plans = [workloads.make_plan(workload, seed) for seed in range(6)]
    for plan in plans[1:]:
        assert sorted(plan.files) == sorted(plans[0].files)
        assert {len(text.splitlines()) for text in plan.files.values()} == {
            len(text.splitlines()) for text in plans[0].files.values()}
        assert sorted((j.name, j.expect) for j in plan.jobs) == sorted(
            (j.name, j.expect) for j in plans[0].jobs)
        assert plan.warmup == plans[0].warmup
    if workload in ("torus-bundle", "strip"):
        assert all(p.files == plans[0].files for p in plans)
        assert len({tuple(j.name for j in p.jobs) for p in plans}) > 1
    if workload == "braided":
        assert len({p.files["braided-0.link"] for p in plans}) > 1
        assert len({crossing_pattern(p) for p in plans}) == 1


def crossing_pattern(plan):
    """The multiset of biangle slice lists over a pass, over-strand labels
    dropped: what sets the cost of the biangle sums."""
    words = []
    for job in plan.jobs:
        lines = [line.rsplit("_to_", 1)[0] for line in plan.files[job.argv[2]].splitlines()
                 if line.startswith("slice")]
        for edge in ("d", "r"):
            words.append(tuple(line for line in lines if line.split()[1] == edge))
    return tuple(sorted(words))


def test_inputs_do_not_depend_on_hash_seed():
    code = ("import hashlib, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "print(hashlib.sha256(repr(sorted(workloads.make_plan('braided', 3).files.items()))"
            ".encode()).hexdigest())")
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code, str(BENCH)], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(proc.stdout)
    assert len(digests) == 1


@pytest.mark.parametrize("workload", ("torus-bundle", "strip", "braided"))
def test_every_generated_link_is_in_good_position(workload):
    plan = workloads.make_plan(workload, 1)
    for job in plan.warmup + plan.jobs:
        _, surface_name, link_name, *_ = job.argv
        n, triangulation = parse_surface_file(surface_name, plan.files[surface_name])
        link = parse_link_file(link_name, plan.files[link_name])
        assert validate_good_position(link, build_surface(triangulation, n)) == []


def test_strip_is_a_fan_with_one_arc_per_triangle():
    surface, link = workloads.strip_files(3, 8)
    n, triangulation = parse_surface_file("s", surface)
    assert (n, triangulation.n_triangles, len(triangulation.internal_edges)) == (3, 8, 7)
    assert link.count("arc ") == 8
    assert "state e0 1 1" in link and "state e1 1 3" in link


def test_braid_words_have_six_crossings_and_no_adjacent_inverse():
    import random

    for seed in range(20):
        word = workloads.braid_word(random.Random(seed), 3)
        assert len(word) >= 6
        assert all("_same_" in kind for kind, _ in word)
        for (k1, p1), (k2, p2) in zip(word, word[1:]):
            assert not (p1 == p2 and k1[:3] != k2[:3])


def test_braided_slices_invert_the_word():
    word = [("pos_same_to_lower", 1), ("neg_same_to_higher", 2)]
    slices = workloads.braided_slices({"d": word, "r": word})
    d = [(kind, pos) for edge, kind, pos in slices if edge == "d"]
    assert d[:2] == word
    assert d[2:6] == [("kink_pos", 1), ("kink_neg", 1), ("inc_ccw", 2), ("inc_cw", 1)]
    assert d[6:] == [("pos_same_to_higher", 2), ("neg_same_to_lower", 1)]


# ---------------------------------------------------------------------------
# correctness gate


def test_golden_files_match_pinned_digests():
    for key in workloads.DIGESTS:
        assert workloads.load_golden(key).startswith("polynomial\n")


def test_trace_gate_accepts_pinned_output():
    text = workloads.load_golden("strip-n3-m5")
    assert workloads.check_trace_output("strip-n3-m5", text.encode()) is None


def test_trace_gate_names_first_differing_line():
    lines = workloads.load_golden("strip-n3-m5").splitlines(keepends=True)
    lines[4] = lines[4].replace(" 1", " 2", 1)
    message = workloads.check_trace_output("strip-n3-m5", "".join(lines).encode())
    assert "strip-n3-m5" in message and "line 5" in message


def test_trace_gate_reports_truncated_output():
    text = workloads.load_golden("bundle-n3-k1-a")
    message = workloads.check_trace_output("bundle-n3-k1-a", text[: text.rindex("term")].encode())
    assert "<end of file>" in message


def test_verify_gate():
    good = "PASS a\n" * 42 + "42/42 checks passed\n"
    assert workloads.check_verify_output(good) is None
    assert "FAIL b" in workloads.check_verify_output("PASS a\nFAIL b\n41/42 checks passed\n")
    assert "41/41" in workloads.check_verify_output("PASS a\n41/41 checks passed\n")
    assert workloads.check_verify_output("") is not None


# ---------------------------------------------------------------------------
# span arithmetic


def span(name, start, end, parent, info=None):
    return (name, start, end, parent, "job", info)


SPANS = [
    span("cli.main", 0.0, 10.0, -1),                     # 0
    span("surface.quantum_trace", 1.0, 4.0, 0, 7),       # 1
    span("biangle.biangle_trace", 2.0, 3.0, 1, (1, 1)),  # 2
    span("qtorus.normal_product", 3.0, 6.0, 0),          # 3 overlaps span 1
    span("qtorus.normal_product", 3.5, 4.5, 3),          # 4 nested in a span of its own name
]


def test_self_time_subtracts_union_of_direct_children():
    assert tracing.self_times(SPANS) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])


def test_outer_time_counts_nested_spans_once():
    assert tracing.outer_time(SPANS, {"qtorus.normal_product"}) == pytest.approx(3.0)
    assert tracing.outer_time(SPANS, {"cli.main", "surface.quantum_trace"}) == pytest.approx(10.0)


def test_state_space_multiplies_nonzero_entries_per_edge_table():
    spans = [span("surface.quantum_trace", 0.0, 1.0, -1, 0)]
    spans += [span("biangle.biangle_trace", 0.1, 0.2, 0, (1, hit)) for hit in (1, 1, 0, 1)]
    spans += [span("biangle.biangle_trace", 0.3, 0.4, 0, (2, hit)) for hit in (1, 0, 1)]
    spans.append(span("biangle.biangle_trace", 2.0, 3.0, -1, (3, 1)))  # outside any trace
    assert tracing.state_space(spans) == 3 * 2


def test_layer_metrics_of_synthetic_spans():
    m = tracing.layer_metrics(SPANS)
    assert m["qtorus.normal_product_calls"] == 2
    assert m["qtorus.normal_product_s"] == pytest.approx(3.0)
    assert m["qtorus.self_s"] == pytest.approx(3.0)
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["surface.state_sum_self_s"] == pytest.approx(2.0)
    assert m["surface.tensor_terms"] == 7
    assert m["biangle.trace_nonzero_ratio"] == 1.0
    assert m["trace.spans"] == 5


def test_join_reindexes_parents():
    joined = tracing.join(SPANS[:2], SPANS)
    assert [s[3] for s in joined] == [-1, 0, -1, 2, 3, 2, 5]


def test_tracer_patches_every_importing_module_and_restores():
    import qtrace.cli
    import qtrace.qtorus
    import qtrace.surface

    original = qtrace.qtorus.normal_product
    t = tracing.Tracer()
    t.install()
    try:
        assert qtrace.surface.normal_product is qtrace.qtorus.normal_product is not original
        n, tri = parse_surface_file("s", workloads.torus_surface(3))
        surface = build_surface(tri, n)
        link = parse_link_file("l", workloads.bundle_link("a", 1))
        qtrace.surface.quantum_trace(link, surface)
    finally:
        t.uninstall()
    assert qtrace.surface.normal_product is original
    assert qtrace.qtorus.TorusElement.__add__ is qtrace.qtorus.TorusElement.__radd__
    spans = t.take()
    names = {s[0] for s in spans}
    assert {"surface.quantum_trace", "surface.validate_good_position",
            "biangle.biangle_trace", "qtorus.normal_product"} <= names
    m = tracing.layer_metrics(spans)
    assert m["surface.state_space"] >= 1 and m["surface.tensor_terms"] == 8


# ---------------------------------------------------------------------------
# the contract


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()


def test_smoke_run_of_every_workload_is_correct():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "1",
                           "--seconds", "0", "--trace", "0", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    assert set(results) == set(workloads.WORKLOADS)
    for result in results.values():
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "strip", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# speed rescaling


def test_rescale_removes_sampler_time_and_scales_by_speed():
    import speed

    slow = 2 * speed.NOMINAL_S
    samples = [(t, t + slow) for t in (0.0, 1.0, 2.0, 3.0)]
    # [0.5, 2.5] holds two samples; the machine ran at half the reference speed.
    assert speed.rescale(0.5, 2.5, samples) == pytest.approx((2.0 - 2 * slow) / 2)


def test_rescale_uses_nearest_samples_for_a_short_interval():
    import speed

    samples = [(0.0, speed.NOMINAL_S), (10.0, 10.0 + 4 * speed.NOMINAL_S)]
    assert speed.rescale(9.0, 9.1, samples) == pytest.approx(0.1 / 2.5)
    with pytest.raises(ValueError):
        speed.rescale(0.0, 1.0, [])
