"""The benchmark's traced mode runs against the current package: one traced
`perfbench/child.py` step on a certificate reports no problems, and the
Cauchy-Binet counters its tracer reads off `cauchy_binet`'s arguments and
result add up."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_certificate_step():
    spec = {
        "mode": "op",
        "src": str(ROOT / "src"),
        "trace": True,
        "label": "matrix-minus-cauchy-binet",
        "argv": [
            "matrix", "--family", "minus", "--n", "3", "--indices", "0,2,5,8",
            "--kappa", "1/3", "--show", "cauchy-binet",
        ],
    }
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout)
    assert result["problems"] == []
    counters = result["trace"]["counters"]
    enumerated, pruned, kept = (
        counters[f"linalg.cauchy_binet.{name}"]
        for name in ("enumerated", "pruned", "kept")
    )
    assert enumerated == pruned + kept
    # C(8, 3) = 56 column subsets, 2 * 3 * 3 = 18 band products kept
    assert (enumerated, kept) == (56, 18)
