"""The benchmark's tracer still binds every library name it wraps.

`perfbench/tracing.py` wraps library functions and methods by name from
outside `src/`; a refactor that drops or moves one of them breaks traced
benchmark runs.  `decide.load_library` re-imports `ffr`, so the traced run
happens in a child interpreter.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import json, os, sys
root = sys.argv[1]
sys.path.insert(0, os.path.join(root, "perfbench"))
import decide, tracing
lib = decide.load_library(os.path.join(root, "src"))
tr = tracing.Tracer(lib)
R = lib.ring.PolyRing(lib.ring.QQ, ["x", "y"])
for _ in range(2):
    with tr.active():
        I = lib.groebner.IdealGens(
            R, [lib.ring.parse_poly(s, R) for s in ("x^2 - y", "x*y - 1")])
        G = I.groebner()
        assert I.groebner() is G  # cached: read through IdealGens._gb
        G.normal_form(lib.ring.parse_poly("x^3", R))
print(json.dumps({"metrics": tracing.layer_metrics(tr),
                  "basis": [str(g) for g in G.basis]}))
"""


def test_tracer_binds_library_names():
    proc = subprocess.run([sys.executable, "-c", CHILD, ROOT], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    metrics = out["metrics"]
    assert out["basis"] == ["x^2 - y", "x*y - 1", "y^2 - x"]
    assert metrics["groebner.gb_calls"] == 2
    assert metrics["groebner.basis_len"] == 6
    assert metrics["groebner.nf_calls"] == 2
    assert metrics["algebra.ideal_gens_offered"] == 4
    assert metrics["algebra.ideal_gens_kept"] == 4
    assert metrics["ring.parse_s"] > 0
