#!/usr/bin/env python3
"""End-to-end demonstration: writes the once-punctured torus fixtures
to a scratch directory, runs every CLI verification suite, computes the
fixture trace polynomials through two distinct good positions, and
checks the outputs byte for byte.  It imports qtrace from the
checkout's src/, so it runs without an install.

Usage: python3 scripts/run_verification.py [scratch_dir]

scratch_dir is created, with its parents, when it does not exist.
"""

import filecmp
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qtrace.cli import main as cli  # noqa: E402

TORUS = """\
n 3
triangles 2
edge d T0.0 T1.2
edge r T0.1 T1.0
edge b T0.2 T1.1
"""

FIXTURES = {
    "knot_a": (
        "arc T1 0 right 1\narc T0 0 left 1\n",
        "arc T1 0 right 1\narc T0 0 right 2\narc T0 2 right 1\nslice b inc_cw 1\n",
    ),
    "knot_b": (
        "arc T0 2 left 1\narc T1 2 right 1\n",
        "arc T0 2 left 1\narc T1 2 left 2\narc T1 0 left 1\nslice r inc_ccw 1\n",
    ),
    "unknot": ("slice d inc_ccw 1\nslice d dec_ccw 1\n",),
}


def run(workdir: Path) -> int:
    failures = 0

    print("== invariant suites ==")
    if cli(["verify", "--suite", "all"]) != 0:
        failures += 1

    surface = workdir / "torus.surface"
    surface.write_text(TORUS)

    print("\n== fixture traces ==")
    for name, positions in FIXTURES.items():
        outputs = []
        for i, content in enumerate(positions):
            link = workdir / f"{name}_{i}.link"
            link.write_text(content)
            out = workdir / f"{name}_{i}.poly"
            code = cli(["trace", str(surface), str(link), "--out", str(out)])
            if code != 0:
                print(f"FAIL trace {name} position {i} (exit {code})")
                failures += 1
                continue
            outputs.append(out)
        if len(outputs) == 2:
            same = filecmp.cmp(outputs[0], outputs[1], shallow=False)
            print(("PASS" if same else "FAIL") + f" {name}: positions agree byte for byte")
            failures += 0 if same else 1
        if outputs:
            print(f"-- {name} --")
            cli(["explain", str(outputs[0])])

    print(f"\n{'all checks passed' if failures == 0 else f'{failures} failures'}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    if len(sys.argv) > 1:
        workdir = Path(sys.argv[1])
        try:
            workdir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            sys.exit(f"cannot create {workdir}: {err.strerror}")
        sys.exit(run(workdir))
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(run(Path(tmp)))
