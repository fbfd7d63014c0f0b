"""Command-line front end.

Subcommands:

    coeffs    rational coefficient tables for one family
    matrix    assembled systems, determinants, inverses, subset certificates
    verify    identity / basis-recovery sweeps against the numeric oracle
    density   density lower-bound tables, optionally with the min-sum oracle

Output is a single JSON envelope (command, params, rows, warnings, exitStatus)
or CSV (header plus rows).  Rationals are serialized as "num/den" strings,
never floats; reals carry an explicit digit count.  Exit codes: 0 success,
1 verification failure, 2 usage error.  Warnings go to stderr and never change
the exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from .coeffs import (
    KNOWN_TRANSCENDENTAL_SHIFTS,
    LatticeSpec,
    build_system,
    coefficient_table,
)
from .density import BoundVariant, density_grid
from .errors import GammaLatticeError, NotSquareError, SingularMatrixError
from .gammanum import PrecisionContext, verify_identity, verify_recovery
from .linalg import RationalMatrix, certify_prefix_matrix, det_exact, inverse_exact
from .sympoly import ArgumentFamily, FamilyKind

VERIFICATION_FAILURE = 1
USAGE_ERROR = 2


@dataclass
class OutputEnvelope:
    command: str
    params: dict
    rows: list
    warnings: list = field(default_factory=list)
    exit_status: int = 0

    def to_payload(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "rows": self.rows,
            "warnings": self.warnings,
            "exitStatus": self.exit_status,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        if not self.rows:
            return ""
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=list(self.rows[0].keys()), lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(self.rows)
        return buf.getvalue()


def _parse_int_range(text: str) -> list[int]:
    """'7' -> [7]; '2:5' -> [2, 3, 4, 5]."""
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad index list {text!r}; want e.g. 1,2,5") from None


def _parse_shift(text: str) -> Fraction:
    """'1/3' -> Fraction(1, 3); a malformed value or a zero denominator is a
    usage error, not a crash."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad shift {text!r}; want a rational such as 1/3") from None


def _warn_conditional(warnings: list, shifts) -> None:
    """One warning naming every shift off the known-transcendental whitelist."""
    outside = sorted(v for v in shifts if v not in KNOWN_TRANSCENDENTAL_SHIFTS)
    if outside:
        listed = ", ".join(str(v) for v in outside)
        whitelist = ", ".join(str(v) for v in sorted(KNOWN_TRANSCENDENTAL_SHIFTS))
        warnings.append(
            f"shift value(s) {listed} outside the known-transcendental whitelist "
            f"{{{whitelist}}}; results are conditional on "
            f"transcendence of Gamma at the shift"
        )


def _resolve_kappa(text: str | None, warnings: list) -> Fraction | None:
    if text is None:
        return None
    kappa = _parse_shift(text)
    _warn_conditional(warnings, [kappa])
    return kappa


def _at_least(flag: str, value: int, low: int, family: FamilyKind) -> None:
    """Reject a bound that would leave the sweep empty."""
    if value < low:
        raise ValueError(f"{flag} must be >= {low}; the {family.value} sweep is empty")


def _real_str(value, digits: int) -> str:
    return mp.nstr(value, digits)


def _matrix_rows(matrix: RationalMatrix) -> list:
    return [
        {"row": r, "col": c, "value": str(matrix.at(r, c))}
        for r in range(matrix.rows)
        for c in range(matrix.cols)
    ]


def _cmd_coeffs(args) -> OutputEnvelope:
    warnings: list = []
    family = FamilyKind(args.family)
    kappa = _resolve_kappa(args.kappa, warnings)
    ms = _parse_int_range(args.m)
    table = coefficient_table(family, args.n, ms, kappa)
    shift = str(kappa) if kappa else ""
    rows = [
        {
            "family": family.value,
            "kappa": shift,
            "n": args.n,
            "ell": ell,
            "m": m,
            "value": str(value),
        }
        for m, values in zip(ms, table)
        for ell, value in enumerate(values)
    ]
    params = {
        "family": family.value,
        "n": args.n,
        "m": args.m,
        "kappa": str(kappa) if kappa else None,
    }
    return OutputEnvelope("coeffs", params, rows, warnings)


def _cmd_matrix(args) -> OutputEnvelope:
    warnings: list = []
    family = FamilyKind(args.family)
    kappa = _resolve_kappa(args.kappa, warnings)
    spec = LatticeSpec(family, _parse_indices(args.indices), kappa)
    system = build_system(spec, args.n)
    params = {
        "family": family.value,
        "n": args.n,
        "indices": args.indices,
        "kappa": str(kappa) if kappa else None,
        "show": args.show,
        "shape": f"{system.matrix.rows}x{system.matrix.cols}",
        "unknowns": list(system.unknowns_label),
    }

    if args.show is None:
        rows = _matrix_rows(system.matrix)
        for r, value in enumerate(system.constant_column):
            rows.append({"row": r, "col": "const", "value": str(value)})
        return OutputEnvelope("matrix", params, rows, warnings)

    if args.show == "det":
        det = det_exact(system.matrix)
        return OutputEnvelope("matrix", params, [{"det": str(det)}], warnings)

    if args.show == "inverse":
        try:
            inverse = inverse_exact(system.matrix)
        except SingularMatrixError as exc:
            rows = [{"error": "singular coefficient matrix", "det": str(exc.det)}]
            return OutputEnvelope(
                "matrix", params, rows, warnings, exit_status=VERIFICATION_FAILURE
            )
        return OutputEnvelope("matrix", params, _matrix_rows(inverse), warnings)

    # cauchy-binet: certificate for the prefix-matrix chain behind this system
    if not system.is_square:
        shape = params["shape"]
        raise NotSquareError(f"cauchy-binet needs a square system, got {shape}")
    variables = spec.argument_family
    certificate = certify_prefix_matrix(
        [variables.prefix_length(m) for m in spec.indices],
        variables,
        variables.poly_kind,
    )
    rows = [
        {
            # space-separated so CSV never needs quoting
            "subset": " ".join(str(s) for s in term.subset),
            "det_left": str(term.det_left),
            "det_right": str(term.det_right),
            "product": str(term.product),
        }
        for term in certificate.expansion.surviving
    ]
    params.update(
        {
            "total_det": str(certificate.expansion.total_det),
            "parent_det": str(certificate.parent_det),
            "pruned": certificate.expansion.pruned_count,
            "all_terms_positive": certificate.all_terms_positive,
        }
    )
    return OutputEnvelope(
        "matrix",
        params,
        rows,
        warnings,
        exit_status=0 if certificate.holds else VERIFICATION_FAILURE,
    )


def _verify_kappas(family: FamilyKind, kappa_set: str | None, warnings: list):
    """The shifts to sweep: --kappa-set if given, else the whitelist for the
    shifted families and no shift for the plain one."""
    if kappa_set is None:
        if not family.shifted:
            return [None]
        values = sorted(KNOWN_TRANSCENDENTAL_SHIFTS)
    else:
        values = [_parse_shift(part) for part in kappa_set.split(",")]
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            listed = ", ".join(str(v) for v in repeated)
            raise ValueError(f"--kappa-set repeats {listed}")
    _warn_conditional(warnings, values)
    return values


def _cmd_verify(args) -> OutputEnvelope:
    warnings: list = []
    family = FamilyKind(args.family)
    ctx = PrecisionContext(args.digits)
    families = [
        ArgumentFamily(family, kappa)
        for kappa in _verify_kappas(family, args.kappa_set, warnings)
    ]
    digits = ctx.decimal_digits
    params = {
        "family": family.value,
        "mode": args.mode,
        "n_max": args.n_max,
        "m_max": args.m_max,
        "kappa_set": args.kappa_set,
        "digits": args.digits,
        "tolerance": args.tolerance,
    }
    if args.mode == "identity" and args.m_max is None:
        raise ValueError("--m-max is required for identity mode")
    if args.mode == "recover" and args.m_max is not None:
        raise ValueError("--m-max does not apply to recover mode")
    rows = []
    for variables in families:
        kappa = variables.kappa
        head = {"family": family.value, "kappa": str(kappa) if kappa else ""}
        if args.mode == "identity":
            _at_least("--n-max", args.n_max, 0, family)
            _at_least("--m-max", args.m_max, variables.min_index, family)
            for n in range(args.n_max + 1):
                for m in range(variables.min_index, args.m_max + 1):
                    report = verify_identity(
                        family, n, m, kappa, ctx, tolerance=args.tolerance
                    )
                    rows.append(
                        {
                            **head,
                            "n": n,
                            "m": m,
                            "lhs": _real_str(report.lhs, digits),
                            "rhs": _real_str(report.rhs, digits),
                            "abs_residual": _real_str(report.abs_residual, digits),
                            "rel_residual": _real_str(report.rel_residual, digits),
                            "pass": report.passed,
                        }
                    )
        else:
            # from the smallest system that is more than one identity
            n_start = variables.first_order + 1
            _at_least("--n-max", args.n_max, n_start, family)
            for n in range(n_start, args.n_max + 1):
                for report in verify_recovery(family, n, kappa, ctx, args.tolerance):
                    rows.append(
                        {
                            **head,
                            "n": n,
                            "indices": " ".join(str(i) for i in report.spec.indices),
                            "ell": report.ell,
                            "recovered": _real_str(report.recovered, digits),
                            "reference": _real_str(report.reference, digits),
                            "abs_error": _real_str(report.abs_residual, digits),
                            "rel_error": _real_str(report.rel_residual, digits),
                            "pass": report.passed,
                        }
                    )

    failed = not all(row["pass"] for row in rows)
    status = VERIFICATION_FAILURE if failed else 0
    return OutputEnvelope("verify", params, rows, warnings, exit_status=status)


def _cmd_density(args) -> OutputEnvelope:
    variant = BoundVariant(args.variant)
    flags = {"N": args.N, "M": args.M, "n": args.n}
    params = {
        "variant": variant.value,
        **flags,
        "with_oracle": args.with_oracle,
        "digits": args.digits,
    }
    ranges = []
    for name in variant.ranges:
        text = flags.pop(name)
        if text is None:
            raise ValueError(f"--{name} is required for variant {variant.value}")
        ranges.append(_parse_int_range(text))
    for name, text in flags.items():
        if text is not None:
            raise ValueError(f"--{name} does not apply to variant {variant.value}")
    if args.with_oracle and not variant.has_oracle:
        raise ValueError("--with-oracle applies to the bivariate variants only")

    grid = density_grid(
        variant, *ranges, include_oracle=args.with_oracle, digits=args.digits
    )
    rows = []
    for cell in grid:
        bound = cell.bound
        row = {"variant": variant.value, **bound.params}
        row["value"] = (
            str(bound.value) if bound.exact else _real_str(bound.value, args.digits)
        )
        row["branch"] = bound.branch
        row["exact"] = bound.exact
        if args.with_oracle:
            row["oracle"] = str(cell.oracle)
            row["oracle_match"] = cell.oracle == bound.value
        rows.append(row)
    failed = not all(row.get("oracle_match", True) for row in rows)
    status = VERIFICATION_FAILURE if failed else 0
    return OutputEnvelope("density", params, rows, exit_status=status)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line, without the usage block."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gammalattice",
        description="Exact coefficient systems, certificates, numeric checks, "
        "and density bounds for Gamma derivatives at lattice points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="print coefficient tables")
    coeffs.add_argument("--family", required=True, choices=["plain", "plus", "minus"])
    coeffs.add_argument("--n", type=int, required=True, help="derivative order")
    coeffs.add_argument("--m", required=True, help="lattice index, single or lo:hi")
    coeffs.add_argument("--kappa", default=None, help="shift, e.g. 1/2")
    coeffs.add_argument("--format", choices=["csv", "json"], default="json")
    coeffs.set_defaults(handler=_cmd_coeffs)

    matrix = sub.add_parser("matrix", help="print systems, dets, inverses, certificates")
    matrix.add_argument("--family", required=True, choices=["plain", "plus", "minus"])
    matrix.add_argument("--n", type=int, required=True)
    matrix.add_argument("--indices", required=True, help="comma list, e.g. 1,2,5")
    matrix.add_argument("--kappa", default=None)
    matrix.add_argument(
        "--show", choices=["det", "inverse", "cauchy-binet"], default=None
    )
    matrix.add_argument("--format", choices=["csv", "json"], default="json")
    matrix.set_defaults(handler=_cmd_matrix)

    verify = sub.add_parser("verify", help="identity / recovery verification sweeps")
    verify.add_argument("--family", required=True, choices=["plain", "plus", "minus"])
    verify.add_argument("--mode", choices=["identity", "recover"], default="identity")
    verify.add_argument("--n-max", type=int, required=True)
    verify.add_argument("--m-max", type=int, default=None)
    verify.add_argument("--kappa-set", default=None, help="comma list, e.g. 1/2,1/3")
    verify.add_argument("--digits", type=int, default=60)
    verify.add_argument("--tolerance", default=None, help="override, e.g. 1e-40")
    verify.add_argument("--format", choices=["csv", "json"], default="json")
    verify.set_defaults(handler=_cmd_verify)

    density = sub.add_parser("density", help="density lower-bound tables")
    density.add_argument(
        "--variant",
        required=True,
        choices=[v.value for v in BoundVariant],
    )
    density.add_argument("--N", default=None, help="single or lo:hi")
    density.add_argument("--M", default=None, help="single or lo:hi")
    density.add_argument("--n", default=None, help="single or lo:hi (fixed-n variants)")
    density.add_argument("--with-oracle", action="store_true")
    density.add_argument("--digits", type=int, default=50)
    density.add_argument("--format", choices=["csv", "json"], default="json")
    density.set_defaults(handler=_cmd_density)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_ERROR
    try:
        envelope = args.handler(args)
    except (GammaLatticeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    output = envelope.to_json() if args.format == "json" else envelope.to_csv()
    if output and not output.endswith("\n"):
        output += "\n"
    sys.stdout.write(output)
    for warning in envelope.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return envelope.exit_status


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
