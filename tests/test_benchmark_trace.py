"""The benchmark runs against the current package.  Its default-seed
operations print the bytes `perfbench/golden.json` records.  Its traced mode
works: traced `perfbench/child.py` steps on a certificate, a density grid and
`verify` sweeps report no problems, the counters its tracer reads off
`cauchy_binet`'s arguments and result, and off the length of `density_grid`'s
result, add up, and the mpmath cache counters it reads off `gammanum` are
there."""

import contextlib
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gammalattice import cli

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_default_seed_stdout_is_the_golden_bytes(workload):
    # the benchmark hashes each operation's stdout against golden.json and
    # counts a mismatch as a wrong output, at sizes no GOLDEN_STDOUT argv runs
    assert GOLDEN["seed"] == workloads.DEFAULT_SEED
    for op in workloads.operations(workload, workloads.DEFAULT_SEED):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(list(op.argv)) == 0, op.label
        digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
        assert digest == GOLDEN["sha256"][op.label], op.label


def _traced_step(label, argv):
    spec = {
        "mode": "op",
        "src": str(ROOT / "src"),
        "trace": True,
        "label": label,
        "argv": argv,
    }
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def test_traced_certificate_step():
    result = _traced_step("matrix-minus-cauchy-binet", [
        "matrix", "--family", "minus", "--n", "3", "--indices", "0,2,5,8",
        "--kappa", "1/3", "--show", "cauchy-binet",
    ])
    assert result["problems"] == []
    counters = result["trace"]["counters"]
    enumerated, pruned, kept = (
        counters[f"linalg.cauchy_binet.{name}"]
        for name in ("enumerated", "pruned", "kept")
    )
    assert enumerated == pruned + kept
    # C(8, 3) = 56 column subsets, 2 * 3 * 3 = 18 band products kept
    assert (enumerated, kept) == (56, 18)


def test_traced_density_step():
    # the tracer takes len() of the grid, so the grid must be sized
    result = _traced_step("density-bivariate-json", [
        "density", "--variant", "bivariate", "--N", "2:9", "--M", "1:9",
        "--with-oracle",
    ])
    assert result["problems"] == []
    # 8 values of N by 9 of M
    assert result["trace"]["counters"]["density.density_grid.cells"] == 72


def test_traced_verify_steps():
    plain = _traced_step("verify-plain-identity", [
        "verify", "--family", "plain", "--n-max", "4", "--m-max", "5", "--digits", "30",
    ])
    recover = _traced_step("verify-plus-recover", [
        "verify", "--family", "plus", "--mode", "recover", "--n-max", "3",
        "--digits", "40", "--kappa-set", "1/3",
    ])
    assert plain["problems"] == recover["problems"] == []
    # each point's psi values are computed once, the basis point's included
    assert plain["caches"]["psi_hits"] == 0
    assert plain["caches"]["psi_misses"] > 0
