"""Run one benchmark step in a fresh interpreter and print its result as JSON.

Two kinds of step, selected by the JSON spec in argv[1]:

* "setup": time `import gammalattice.cli` plus `build_parser()`, the cost every
  CLI invocation pays before it does any work;
* "op": call `gammalattice.cli.main(argv)` with stdout captured, check the
  output, and report wall and CPU time from the `main` call to the end of the
  check, the rows and bytes emitted, peak RSS, the mpmath cache counters and,
  when traced, the per-layer span summary.

A fresh interpreter per operation starts the mpmath `lru_cache`s cold, as they
are for a CLI user.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time


def _cache_counts(gammanum) -> dict:
    psi = gammanum._psi_cached.cache_info()
    gamma = gammanum._gamma_cached.cache_info()
    return {
        "psi_hits": psi.hits,
        "psi_misses": psi.misses,
        "gamma_hits": gamma.hits,
        "gamma_misses": gamma.misses,
    }


def _parse_rows(argv: list[str], text: str) -> tuple[list[dict], dict]:
    """The output rows and, for JSON, the envelope params."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        return list(csv.DictReader(io.StringIO(text))), {}
    payload = json.loads(text)
    return payload["rows"], payload["params"]


def _truthy(value) -> bool:
    return value is True or value == "True"


def check_output(argv: list[str], status: int, text: str) -> tuple[list[str], int]:
    """Problems found in one operation's stdout (empty when it is correct),
    and the number of output rows.  These checks hold for every seed."""
    if status != 0:
        return [f"exit status {status}"], 0
    rows, params = _parse_rows(argv, text)
    problems = []
    if not rows:
        problems.append("no output rows")
    command = argv[0]
    if command == "verify":
        failing = sum(not _truthy(row["pass"]) for row in rows)
        if failing:
            problems.append(f"{failing} verify rows without pass: true")
    elif command == "density":
        mismatched = sum(not _truthy(row["oracle_match"]) for row in rows)
        if mismatched:
            problems.append(f"{mismatched} density rows without oracle_match")
    elif command == "matrix" and "cauchy-binet" in argv:
        if params.get("total_det") != params.get("parent_det"):
            problems.append("certificate total_det differs from parent_det")
        if params.get("all_terms_positive") is not True:
            problems.append("certificate has a non-positive term")
    return problems, len(rows)


def _setup() -> dict:
    start = time.perf_counter()
    import gammalattice.cli as cli

    cli.build_parser()
    return {"setup_s": time.perf_counter() - start}


def _op(spec: dict) -> dict:
    import gammalattice.cli as cli
    from gammalattice import gammanum

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    argv = spec["argv"]
    stdout, stderr = io.StringIO(), io.StringIO()
    caches_before = _cache_counts(gammanum)
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        text = stdout.getvalue()
        problems, rows = check_output(argv, status, text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    except Exception as exc:  # a crash is a failed operation, reported, never fatal
        problems, rows, digest = [f"raised {type(exc).__name__}: {exc}"], 0, None
        text = stdout.getvalue()
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    caches_after = _cache_counts(gammanum)
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "rows": rows,
        "output_bytes": len(text.encode("utf-8")),
        "sha256": digest,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "caches": {k: caches_after[k] - caches_before[k] for k in caches_after},
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"], spec["label"])
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    result = _setup() if spec["mode"] == "setup" else _op(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
