"""Seeded workloads: each one is a fixed list of gammalattice CLI operations.

Operations come in four groups, one per pipeline stage: coefficient tables
(`coeff-sweep`), numeric verification (`verify-grid`), certificates
(`certify`) and density bounds (`density-grid`).  The benchmark runs two
workloads of two groups each, paired so that every layer has a workload that
exercises it and one that bypasses it:

* `coeffs-verify` = coeff-sweep + verify-grid: sympoly, coeffs and gammanum;
* `certify-density` = certify + density-grid: linalg, density and the largest
  CLI output.

Two workloads rather than four give each run 60 s instead of 30 s within the
benchmark's time budget; see run.py for why the runs need it.  Every operation
is sized to take well under a second, so that one run collects a dozen or more
samples of each.

The seed picks the shift values and the interior lattice indices.  Counts,
spans and orders are fixed, so the amount of work does not change with the
seed.  Two choices keep the work seed-invariant in detail as well:

* a shift is drawn from the complementary pair {1/3, 2/3} of the
  known-transcendental whitelist, so every seed works with denominators of the
  same size (the bignum sizes, and the time, follow the denominator);
* interior indices of a Cauchy-Binet certificate are a seeded permutation of a
  fixed multiset of band widths, so the number of surviving subsets (the
  product of the widths) and the number of candidates (C(span, bands)) do not
  depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1

# Complementary pair from the whitelist {1/6, 1/4, 1/3, 1/2, 2/3, 3/4, 5/6}.
KAPPA_POOL = ("1/3", "2/3")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: a stable label and the argv handed to `main`."""

    label: str
    argv: tuple[str, ...]


def _kappa(rng: random.Random) -> str:
    return rng.choice(KAPPA_POOL)


def _banded_indices(rng: random.Random, start: int, widths: tuple[int, ...]) -> str:
    """Indices start, start+w1, start+w1+w2, ... for a seeded order of widths."""
    order = list(widths)
    rng.shuffle(order)
    indices = [start]
    for width in order:
        indices.append(indices[-1] + width)
    return ",".join(str(i) for i in indices)


def _spanning_indices(rng: random.Random, count: int, last: int) -> str:
    """`count` sorted indices with 0 and `last` fixed and the interior seeded."""
    interior = sorted(rng.sample(range(1, last), count - 2))
    return ",".join(str(i) for i in [0, *interior, last])


def coeff_sweep(rng: random.Random, quick: bool) -> list[Op]:
    n, hi = (6, 8) if quick else (16, 26)
    common = ("--n", str(n), "--format", "json")
    return [
        Op("coeffs-minus", ("coeffs", "--family", "minus", *common,
                            "--m", f"0:{hi}", "--kappa", _kappa(rng))),
        Op("coeffs-plus", ("coeffs", "--family", "plus", *common,
                           "--m", f"0:{hi}", "--kappa", _kappa(rng))),
        Op("coeffs-plain", ("coeffs", "--family", "plain", *common,
                            "--m", f"1:{hi}")),
    ]


def verify_grid(rng: random.Random, quick: bool) -> list[Op]:
    plain = ("4", "5", "30") if quick else ("10", "12", "100")
    minus = ("3", "3", "30") if quick else ("8", "10", "60")
    recover = ("3", "40") if quick else ("8", "150")
    return [
        Op("verify-plain-identity", ("verify", "--family", "plain",
                                     "--n-max", plain[0], "--m-max", plain[1],
                                     "--digits", plain[2])),
        Op("verify-minus-identity", ("verify", "--family", "minus",
                                     "--n-max", minus[0], "--m-max", minus[1],
                                     "--digits", minus[2],
                                     "--kappa-set", _kappa(rng))),
        Op("verify-plus-recover", ("verify", "--family", "plus", "--mode", "recover",
                                   "--n-max", recover[0], "--digits", recover[1],
                                   "--kappa-set", _kappa(rng))),
    ]


def certify(rng: random.Random, quick: bool) -> list[Op]:
    if quick:
        minus_widths, plain_widths, det_n, det_last = (2, 3, 2), (2, 3), 5, 8
    else:
        # 7 indices over 0..18 (18,564 candidates, 648 kept) and
        # 6 indices over 1..16 (3,003 candidates, 216 kept).
        minus_widths, plain_widths, det_n, det_last = (
            (2, 3, 3, 3, 3, 4), (2, 3, 3, 3, 4), 20, 24)
    minus_indices = _banded_indices(rng, 0, minus_widths)
    plain_indices = _banded_indices(rng, 1, plain_widths)
    det_indices = _spanning_indices(rng, det_n + 1, det_last)
    det_kappa = _kappa(rng)
    system = ("matrix", "--family", "plus", "--n", str(det_n),
              "--indices", det_indices, "--kappa", det_kappa)
    return [
        Op("matrix-minus-cauchy-binet", ("matrix", "--family", "minus",
                                         "--n", str(len(minus_widths)),
                                         "--indices", minus_indices,
                                         "--kappa", _kappa(rng),
                                         "--show", "cauchy-binet")),
        Op("matrix-plain-cauchy-binet", ("matrix", "--family", "plain",
                                         "--n", str(len(plain_widths) + 1),
                                         "--indices", plain_indices,
                                         "--show", "cauchy-binet")),
        Op("matrix-plus-det", (*system, "--show", "det")),
        Op("matrix-plus-inverse", (*system, "--show", "inverse")),
    ]


def density_grid(rng: random.Random, quick: bool) -> list[Op]:
    hi = 20 if quick else 100
    return [
        Op("density-bivariate-json", ("density", "--variant", "bivariate",
                                      "--N", f"2:{hi}", "--M", f"1:{hi}",
                                      "--with-oracle", "--format", "json")),
        Op("density-shifted-csv", ("density", "--variant", "bivariate-shifted",
                                   "--N", f"1:{hi}", "--M", f"0:{hi - 1}",
                                   "--with-oracle", "--format", "csv")),
    ]


WORKLOADS = {
    "coeffs-verify": {"coeff-sweep": coeff_sweep, "verify-grid": verify_grid},
    "certify-density": {"certify": certify, "density-grid": density_grid},
}


def operations(workload: str, seed: int, quick: bool = False) -> list[Op]:
    """The workload's operations for `seed`; the same seed gives the same argv."""
    ops = []
    for group, build in WORKLOADS[workload].items():
        ops += build(random.Random(f"{group}:{seed}"), quick)
    return ops
