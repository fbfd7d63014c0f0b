"""gammalattice benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-density --seed 3 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each
    python3 perfbench/run.py --quick                   # self-test on small sizes
    python3 perfbench/run.py --record-golden           # re-record golden.json

Load is a closed loop: one client, one thread, operations back to back.  A
pass runs every operation of the workload once, each in a fresh interpreter
(see child.py).  Passes, each preceded by one set-up sample, repeat until the
next one would overrun `--seconds`.

`wall_s` and `cpu_s` sum, over the operations, each operation's median over
the run's passes.  On the shared 2-core host the bounds were set on, one
operation runs up to twice as slow for seconds, sometimes minutes, at a time,
with no steal time reported.  Summed per-operation medians of sub-second
operations over 60 s runs were among the steadiest estimators tried, and far
steadier than best-of-N (see README.md).  `setup_s` and
`peak_rss_mb` are medians over the run; the pass medians and quartiles of
every time are printed and recorded too.
`--trace 1` alternates untraced and traced passes and reports the medians of
the per-layer metrics over the traced ones.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the full
record (environment, argv, seed, every sample) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
GOLDEN = BENCH_DIR / "golden.json"

MIN_SETUP_SAMPLES = 5
STEP_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "sympoly.tables": "count",
    "sympoly.cells": "count",
    "sympoly.busy_s": "s",
    "coeffs.coefficient_calls": "count",
    "coeffs.build_system_calls": "count",
    "coeffs.self_s": "s",
    "linalg.det_calls": "count",
    "linalg.det_busy_s": "s",
    "linalg.inverse_busy_s": "s",
    "linalg.cb_enumerated": "count",
    "linalg.cb_pruned": "count",
    "linalg.cb_kept": "count",
    "linalg.cb_kept_ratio": "ratio",
    "linalg.cb_self_s": "s",
    "linalg.self_s": "s",
    "gammanum.derivs_calls": "count",
    "gammanum.derivs_busy_s": "s",
    "gammanum.psi_hits": "count",
    "gammanum.psi_misses": "count",
    "gammanum.gamma_hits": "count",
    "gammanum.gamma_misses": "count",
    "gammanum.verify_calls": "count",
    "gammanum.verify_self_s": "s",
    "gammanum.verify_p50_ms": "ms",
    "gammanum.verify_p95_ms": "ms",
    "gammanum.recover_busy_s": "s",
    "gammanum.self_s": "s",
    "density.cells": "count",
    "density.min_sum_calls": "count",
    "density.self_s": "s",
    "cli.rows": "count",
    "cli.output_bytes": "B",
    "cli.serialize_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.attributed_share": "ratio",
    "trace.overhead_s": "s",
}

# Self-test predictions: counters that must be non-zero on a workload, and
# counters that must stay zero because the workload never enters that layer.
_GAMMANUM_COUNTS = (
    "gammanum.derivs_calls", "gammanum.psi_hits", "gammanum.psi_misses",
    "gammanum.gamma_hits", "gammanum.gamma_misses", "gammanum.verify_calls",
)
_CB_COUNTS = ("linalg.cb_enumerated", "linalg.cb_pruned", "linalg.cb_kept")
_DENSITY_COUNTS = ("density.cells", "density.min_sum_calls")
PREDICTIONS = {
    "coeffs-verify": (
        (*_GAMMANUM_COUNTS, "sympoly.tables", "sympoly.cells",
         "coeffs.coefficient_calls", "coeffs.build_system_calls",
         "linalg.det_calls", "cli.rows", "cli.output_bytes"),
        (*_CB_COUNTS, *_DENSITY_COUNTS),
    ),
    "certify-density": (
        (*_CB_COUNTS, *_DENSITY_COUNTS, "linalg.det_calls",
         "coeffs.build_system_calls", "sympoly.tables", "cli.rows", "cli.output_bytes"),
        (*_GAMMANUM_COUNTS, "coeffs.coefficient_calls"),
    ),
}
# The layer self times must cover the traced wall time to within this share;
# the rest is the output check.
MIN_ATTRIBUTED_SHARE = 0.9


def _step(spec: dict) -> dict:
    """Run one child step; a crash or timeout comes back as a problem."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=STEP_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {STEP_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        return {"problems": [f"child exited {proc.returncode}: {tail}"]}
    return json.loads(proc.stdout.splitlines()[-1])


def _setup_sample() -> float:
    result = _step({"mode": "setup", "src": str(SRC)})
    if "setup_s" not in result:
        raise RuntimeError(f"set-up step failed: {result['problems']}")
    return result["setup_s"]


def _run_pass(ops, traced: bool, golden: dict | None, spans_dir: Path | None) -> dict:
    """Every operation once; sums over operations, failures listed by label."""
    results = {}
    for op in ops:
        spec = {"mode": "op", "src": str(SRC), "argv": list(op.argv),
                "trace": traced, "label": op.label}
        if spans_dir is not None:
            spec["spans_path"] = str(spans_dir / f"{op.label}.jsonl")
        result = _step(spec)
        if golden is not None and result.get("sha256") not in (None, golden[op.label]):
            result["problems"].append("stdout differs from the golden sha256")
        results[op.label] = result
    done = [r for r in results.values() if "wall_s" in r]
    record = {
        "traced": traced,
        "ops": len(ops),
        "failed": sorted(label for label, r in results.items() if r["problems"]),
        "problems": {label: r["problems"] for label, r in results.items() if r["problems"]},
        "wall_s": sum(r["wall_s"] for r in done),
        "cpu_s": sum(r["cpu_s"] for r in done),
        "op_wall_s": {label: r["wall_s"] for label, r in results.items() if "wall_s" in r},
        "op_cpu_s": {label: r["cpu_s"] for label, r in results.items() if "wall_s" in r},
        "rows": sum(r["rows"] for r in done),
        "output_bytes": sum(r["output_bytes"] for r in done),
        "peak_rss_mb": max((r["peak_rss_mb"] for r in done), default=0.0),
        "sha256": {label: r.get("sha256") for label, r in results.items()},
    }
    if traced:
        record["layers"] = _layer_metrics(record, done)
    return record


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def _layer_metrics(record: dict, done: list[dict]) -> dict:
    calls, busy, own, layer_self, counters, caches = {}, {}, {}, {}, {}, {}
    verify_ms = []
    for result in done:
        trace = result["trace"]
        for total, part in ((calls, trace["calls"]), (busy, trace["busy_s"]),
                            (own, trace["self_s"]), (layer_self, trace["layer_self_s"]),
                            (counters, trace["counters"]), (caches, result["caches"])):
            for key, value in part.items():
                total[key] = total.get(key, 0) + value
        verify_ms.extend(trace["verify_ms"])

    def fn_sum(table, *keys):
        return sum(table.get(key, 0) for key in keys)

    tables = ("sympoly.elementary_prefix", "sympoly.homogeneous_prefix")
    enumerated = counters.get("linalg.cauchy_binet.enumerated", 0)
    kept = counters.get("linalg.cauchy_binet.kept", 0)
    wall = record["wall_s"]
    return {
        "sympoly.tables": fn_sum(calls, *tables),
        "sympoly.cells": fn_sum(counters, *(f"{t}.cells" for t in tables)),
        "sympoly.busy_s": sum(v for k, v in busy.items() if k.startswith("sympoly.")),
        "coeffs.coefficient_calls": calls.get("coeffs.coefficient", 0),
        "coeffs.build_system_calls": calls.get("coeffs.build_system", 0),
        "coeffs.self_s": layer_self.get("coeffs", 0.0),
        "linalg.det_calls": calls.get("linalg.det_exact", 0),
        "linalg.det_busy_s": busy.get("linalg.det_exact", 0.0),
        "linalg.inverse_busy_s": busy.get("linalg.inverse_exact", 0.0),
        "linalg.cb_enumerated": enumerated,
        "linalg.cb_pruned": counters.get("linalg.cauchy_binet.pruned", 0),
        "linalg.cb_kept": kept,
        "linalg.cb_kept_ratio": kept / enumerated if enumerated else 0.0,
        "linalg.cb_self_s": own.get("linalg.cauchy_binet", 0.0),
        "linalg.self_s": layer_self.get("linalg", 0.0),
        "gammanum.derivs_calls": calls.get("gammanum.gamma_derivatives", 0),
        "gammanum.derivs_busy_s": busy.get("gammanum.gamma_derivatives", 0.0),
        "gammanum.psi_hits": caches.get("psi_hits", 0),
        "gammanum.psi_misses": caches.get("psi_misses", 0),
        "gammanum.gamma_hits": caches.get("gamma_hits", 0),
        "gammanum.gamma_misses": caches.get("gamma_misses", 0),
        "gammanum.verify_calls": calls.get("gammanum.verify_identity", 0),
        "gammanum.verify_self_s": own.get("gammanum.verify_identity", 0.0),
        "gammanum.verify_p50_ms": _percentile(verify_ms, 0.50),
        "gammanum.verify_p95_ms": _percentile(verify_ms, 0.95),
        "gammanum.recover_busy_s": busy.get("gammanum.recover_basis", 0.0),
        "gammanum.self_s": layer_self.get("gammanum", 0.0),
        "density.cells": counters.get("density.density_grid.cells", 0),
        "density.min_sum_calls": calls.get("density.bivariate_min_sum", 0),
        "density.self_s": layer_self.get("density", 0.0),
        "cli.rows": record["rows"],
        "cli.output_bytes": record["output_bytes"],
        "cli.serialize_s": fn_sum(busy, "cli.to_json", "cli.to_csv"),
        "cli.self_s": layer_self.get("cli", 0.0),
        "trace.wall_s": wall,
        "trace.attributed_share": sum(layer_self.values()) / wall if wall else 0.0,
    }


def _stats(values: list[float], value: float | None = None) -> dict:
    """The reported value (the median unless given) and the samples' quartiles."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"value": median if value is None else value,
            "median": median, "q1": q1, "q3": q3, "n": len(values)}


def _sum_of_medians(passes: list[dict], key: str) -> float:
    """Sum over operations of each operation's median sample."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for label, value in p[key].items():
            samples.setdefault(label, []).append(value)
    return sum(statistics.median(values) for values in samples.values())


def _environment() -> dict:
    import mpmath
    import mpmath.libmp

    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True).stdout
            dirty = bool(status.strip())
        except OSError:
            pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Passes until the time budget, then the metrics; the full record."""
    environment = _environment()
    ops = workloads.operations(name, seed, quick)
    golden = None
    if seed == workloads.DEFAULT_SEED and not quick:
        golden = json.loads(GOLDEN.read_text())["sha256"]
    spans_dir = None
    if trace:
        spans_dir = OUT / "spans" / name
        spans_dir.mkdir(parents=True, exist_ok=True)

    # One set-up sample before each pass spreads them over the whole window,
    # so they see the same machine state as the passes.
    setup, passes = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.perf_counter()
        setup.append(_setup_sample())
        passes.append(_run_pass(ops, traced, golden, spans_dir if traced else None))
        took = time.perf_counter() - began
        elapsed = time.perf_counter() - start
        missing_traced = trace and not any(p["traced"] for p in passes)
        if not missing_traced and elapsed + took > seconds:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(_setup_sample())

    environment["loadavg_end"] = list(os.getloadavg())
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    wall = _sum_of_medians(plain, "op_wall_s")
    rows = statistics.median(p["rows"] for p in plain)
    end_to_end = {
        "wall_s": _stats([p["wall_s"] for p in plain], wall),
        "cpu_s": _stats([p["cpu_s"] for p in plain], _sum_of_medians(plain, "op_cpu_s")),
        "rows_per_s": _stats([p["rows"] / p["wall_s"] for p in plain if p["wall_s"]],
                             rows / wall if wall else 0.0),
        "peak_rss_mb": _stats([p["peak_rss_mb"] for p in plain]),
        "setup_s": _stats(setup),
    }
    per_layer = {}
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        for key in PER_LAYER:
            if key != "trace.overhead_s":
                per_layer[key] = _stats([p["layers"][key] for p in traced_passes])
        overhead = per_layer["trace.wall_s"]["median"] - end_to_end["wall_s"]["median"]
        per_layer["trace.overhead_s"] = {"value": overhead, "n": len(passes)}
    return {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "seconds": seconds,
        "trace": trace,
        "environment": environment,
        "argv": {op.label: list(op.argv) for op in ops},
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "passes": passes,
    }


def _print_table(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  passes {len(record['passes'])}  "
          f"ops attempted {record['attempted']}")
    rows = [(k, v, END_TO_END[k]) for k, v in record["end_to_end"].items()]
    rows += [(k, v, PER_LAYER[k]) for k, v in record["per_layer"].items()]
    for key, s, unit in rows:
        spread = (f"median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  if "q1" in s else "")
        print(f"  {key:28s} {s['value']:>14.10g} {unit:7s} ({spread}n={s['n']})")
    print(f"  {'failed_share':28s} {record['failed_share']:>14.10g} {'ratio':7s} "
          f"({record['failed']}/{record['attempted']})")
    for p in record["passes"]:
        for label, problems in p["problems"].items():
            print(f"  FAILED {label}: {'; '.join(problems)}")


def _result_line(records: list[dict], trace: bool, prefix: bool) -> dict:
    metrics = {}
    for record in records:
        chosen = record["per_layer"] if trace else record["end_to_end"]
        units = PER_LAYER if trace else END_TO_END
        for key, s in chosen.items():
            name = f"{record['workload']}/{key}" if prefix else key
            metrics[name] = {"value": s["value"], "unit": units[key]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _save(record: dict) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    tag = "quick" if record["quick"] else f"seed{record['seed']}"
    path = OUT / f"{record['workload']}-{tag}-trace{int(record['trace'])}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def self_test(names: list[str]) -> bool:
    """Small sizes, one untraced and one traced pass per workload; check each
    counter against the layer -> workload predictions."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = all(
        {m["name"]: m["unit"] for m in declared[section]} == metrics
        for section, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER))
    )
    print(f"{'PASS' if ok else 'FAIL'} BENCHMARK.json metric names and units match run.py")
    for name in names:
        record = run_workload(name, workloads.DEFAULT_SEED, 0, trace=True, quick=True)
        _save(record)
        layers = {k: v["value"] for k, v in record["per_layer"].items()}
        nonzero, zero = PREDICTIONS[name]
        checks = [(f"{k} > 0", layers[k] > 0) for k in nonzero]
        checks += [(f"{k} == 0", layers[k] == 0) for k in zero]
        share = layers["trace.attributed_share"]
        checks.append((f"trace.attributed_share {share:.3f} >= {MIN_ATTRIBUTED_SHARE}",
                       share >= MIN_ATTRIBUTED_SHARE))
        checks.append((f"failed_share == 0 ({record['failed']}/{record['attempted']})",
                       record["failed"] == 0))
        for label, passed in checks:
            print(f"{'PASS' if passed else 'FAIL'} {name}: {label}")
            ok &= passed
    return ok


def record_golden() -> None:
    """Record the stdout sha256 of every operation at the default seed."""
    table = {}
    for name in workloads.WORKLOADS:
        ops = workloads.operations(name, workloads.DEFAULT_SEED)
        record = _run_pass(ops, traced=False, golden=None, spans_dir=None)
        if record["failed"]:
            raise RuntimeError(f"{name}: {record['problems']}")
        table.update(record["sha256"])
    GOLDEN.write_text(json.dumps(
        {"seed": workloads.DEFAULT_SEED, "sha256": table}, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="self-test on small sizes")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "gammalattice" / "cli.py").is_file():
        print(f"error: no gammalattice sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    names = list(workloads.WORKLOADS) if args.workload in (None, "all") else [args.workload]
    if args.quick:
        return 0 if self_test(names) else 1
    if args.workload is None:
        parser.error("--workload is required")

    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), quick=False)
        _print_table(record)
        print(f"  record: {_save(record).relative_to(ROOT)}")
        records.append(record)
    print(json.dumps(_result_line(records, bool(args.trace), prefix=len(records) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
