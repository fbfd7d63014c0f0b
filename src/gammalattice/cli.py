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

Only `verify` prints mpmath reals, so only its handler imports mpmath and the
numeric oracle, `gammanum`; an inexact prior bound arrives as the text of its
digits, and the other subcommands load neither.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .budget import MAX_DIGITS
from .coeffs import (
    KNOWN_TRANSCENDENTAL_SHIFTS,
    LatticeSpec,
    build_system,
    coefficient_table,
)
from .density import BoundVariant, density_grid
from .errors import (
    GammaLatticeError,
    GuardExceededError,
    NotSquareError,
    SingularMatrixError,
)
from .linalg import RationalMatrix, certify_lattice, det_exact, inverse_exact
from .sympoly import ArgumentFamily, FamilyKind

VERIFICATION_FAILURE = 1
USAGE_ERROR = 2


# Rows are flat dicts of str, int, bool and None.  Encoded with the separators
# of an `indent=2` dump at their depth, a row needs no indent logic, so the C
# encoder writes it; `OutputEnvelope.to_json` puts its braces on lines of their
# own and splices the rows into the dump of the rest of the envelope.  It
# encodes up to `_ROWS_PER_CALL` rows at a time, as one list: a string never
# holds a raw newline, so a brace, the separator and a brace mark the seam
# between two rows, and the braces move onto lines of their own.  The batches
# are bounded and joined once with the rest: one call over every row, or the
# rows joined apart first, made a second full copy of the rows' text.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
_ROWS_SLOT = '\n  "rows": [],'
_ROWS_PER_CALL = 100
_SEAM, _ROW_SEAM = "},\n      {", "\n    },\n    {\n      "


def _row_pieces(rows: list):
    """The nonempty list `rows` in the layout of an `indent=2` dump two levels
    deep, as pieces to join.  Every CLI table has one key set, so its rows are
    all empty, each printed as {}, or all nonempty."""
    if not rows[0]:
        yield ",\n    ".join("{}" for _ in rows)
        return
    encode = _ROW_ENCODER.encode
    yield "{\n      "
    for at in range(0, len(rows), _ROWS_PER_CALL):
        if at:
            yield _ROW_SEAM
        yield encode(rows[at : at + _ROWS_PER_CALL])[2:-2].replace(_SEAM, _ROW_SEAM)
    yield "\n    }"


class OutputEnvelope(NamedTuple):
    command: str
    params: dict
    rows: list
    warnings: list | tuple = ()
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
        """The payload as `json.dumps(payload, sort_keys=True, indent=2)`."""
        text = json.dumps({**self.to_payload(), "rows": []}, sort_keys=True, indent=2)
        if not self.rows:
            return text
        head, _, tail = text.partition(_ROWS_SLOT)
        return "".join(
            [head, '\n  "rows": [\n    ', *_row_pieces(self.rows), "\n  ],", tail]
        )

    def to_csv(self) -> str:
        """A header of the first row's keys, then every row in that order."""
        if not self.rows:
            return ""
        fields = list(self.rows[0])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([row[name] for name in fields] for row in self.rows)
        return buf.getvalue()


def _parse_int_range(text: str) -> range:
    """'7' -> range(7, 8); '2:5' -> range(2, 6), that is 2, 3, 4, 5."""
    lo_text, _, hi_text = text.partition(":")
    try:
        lo, hi = int(lo_text), int(hi_text if ":" in text else lo_text)
    except ValueError:
        raise ValueError(f"bad range {text!r}; want e.g. 7 or 2:5") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad index list {text!r}; want e.g. 1,2,5") from None


def _parse_shift(text: str) -> Fraction:
    """'1/3' -> Fraction(1, 3); a malformed value or a zero denominator is a
    usage error, not a crash.  An exponent is read off the text before the
    value is built, and refused past `MAX_DIGITS` plus the digits the text
    writes out, so a shift's numerator and denominator stay that short."""
    exponent = re.search(r"[eE][-+]?([\d_]+)\s*\Z", text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0") or "0"
        bound = MAX_DIGITS + sum(c.isdecimal() for c in text[: exponent.start()])
        if len(digits) > len(str(bound)) or int(digits) > bound:
            raise GuardExceededError(
                f"the exponent of shift {text!r} is past {bound}: the digit "
                f"budget {MAX_DIGITS} plus the digits it writes"
            )
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


def _resolve_family(args, warnings: list) -> ArgumentFamily:
    """The lattice named by --family and --kappa."""
    shifts = [] if args.kappa is None else [_parse_shift(args.kappa)]
    family = ArgumentFamily(FamilyKind(args.family), *shifts)
    _warn_conditional(warnings, shifts)
    return family


def _shift_str(family: ArgumentFamily) -> str:
    return str(family.kappa) if family.kappa else ""


def _params(args, **derived) -> dict:
    """The envelope's params: every parsed flag but --format, then `derived`."""
    skip = ("command", "handler", "format")
    return {**{k: v for k, v in vars(args).items() if k not in skip}, **derived}


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms as `str(Fraction(num, den))` prints it, for
    den > 0: "p/q", or "p" when q = 1."""
    g = gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def _matrix_rows(matrix: RationalMatrix) -> list:
    return [
        {"row": r, "col": c, "value": str(matrix.at(r, c))}
        for r in range(matrix.rows)
        for c in range(matrix.cols)
    ]


def _cmd_coeffs(args) -> OutputEnvelope:
    warnings: list = []
    family = _resolve_family(args, warnings)
    ms = _parse_int_range(args.m)
    table = coefficient_table(family, args.n, ms)
    shift = _shift_str(family)
    rows = [
        {
            "family": args.family,
            "kappa": shift,
            "n": args.n,
            "ell": ell,
            "m": m,
            "value": str(value),
        }
        for m, values in zip(ms, table)
        for ell, value in enumerate(values)
    ]
    return OutputEnvelope("coeffs", _params(args, kappa=shift or None), rows, warnings)


def _cmd_matrix(args) -> OutputEnvelope:
    warnings: list = []
    family = _resolve_family(args, warnings)
    spec = LatticeSpec(family, _parse_indices(args.indices))
    system = build_system(spec, args.n)
    params = _params(
        args,
        kappa=_shift_str(family) or None,
        shape=f"{system.matrix.rows}x{system.matrix.cols}",
        unknowns=list(system.unknowns_label),
    )

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
        except SingularMatrixError:
            rows = [{"error": "singular coefficient matrix", "det": "0"}]
            return OutputEnvelope(
                "matrix", params, rows, warnings, exit_status=VERIFICATION_FAILURE
            )
        return OutputEnvelope("matrix", params, _matrix_rows(inverse), warnings)

    # cauchy-binet: certificate for the prefix-matrix chain behind this system
    if not system.is_square:
        shape = params["shape"]
        raise NotSquareError(f"cauchy-binet needs a square system, got {shape}")
    certificate = certify_lattice(family, spec.indices)
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


def _verify_families(kind: FamilyKind, kappa_set: str | None, warnings: list):
    """One family per shift to sweep: --kappa-set if given, else the whitelist
    for the shifted kinds and no shift for the plain one.  All are built
    before the sweep, so a bad shift fails before any row is computed."""
    if kappa_set is None:
        values = sorted(KNOWN_TRANSCENDENTAL_SHIFTS) if kind.shifted else [None]
    else:
        values = [_parse_shift(part) for part in kappa_set.split(",")]
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            listed = ", ".join(str(v) for v in repeated)
            raise ValueError(f"--kappa-set repeats {listed}")
        _warn_conditional(warnings, values)
    return [ArgumentFamily(kind, kappa) for kappa in values]


#: (key, `Residual` attribute) of a verify row's reals, in the CSV header's order.
_IDENTITY_KEYS = (("lhs", "reference"), ("rhs", "value"),
                  ("abs_residual", "abs_residual"), ("rel_residual", "rel_residual"))
_RECOVERY_KEYS = (("recovered", "value"), ("reference", "reference"),
                  ("abs_error", "abs_residual"), ("rel_error", "rel_residual"))


def _cmd_verify(args) -> OutputEnvelope:
    from mpmath import mp

    from .gammanum import PrecisionContext, verify_sweep

    warnings: list = []
    ctx = PrecisionContext(args.digits, args.tolerance)
    families = _verify_families(FamilyKind(args.family), args.kappa_set, warnings)
    if args.mode == "identity" and args.m_max is None:
        raise ValueError("--m-max is required for identity mode")
    if args.mode == "recover" and args.m_max is not None:
        raise ValueError("--m-max does not apply to recover mode")
    rows = []
    for family, n, m, result in verify_sweep(families, args.n_max, args.m_max, ctx):
        head = {"family": args.family, "kappa": _shift_str(family), "n": n}
        if args.m_max is None:
            indices = " ".join(str(i) for i in m)
            cells = [
                ({"indices": indices, "ell": ell}, _RECOVERY_KEYS, check)
                for ell, check in enumerate(result, family.min_index)
            ]
        else:
            cells = [({"m": m}, _IDENTITY_KEYS, result)]
        for where, keys, check in cells:
            reals = {key: mp.nstr(getattr(check, name), args.digits) for key, name in keys}
            rows.append({**head, **where, **reals, "pass": check.passed})

    failed = not all(row["pass"] for row in rows)
    status = VERIFICATION_FAILURE if failed else 0
    return OutputEnvelope("verify", _params(args), rows, warnings, exit_status=status)


def _cmd_density(args) -> OutputEnvelope:
    variant = BoundVariant(args.variant)
    flags = {"N": args.N, "M": args.M, "n": args.n}
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
    name = variant.value
    if variant is BoundVariant.PRIOR:
        rows = [
            {
                "variant": name,
                "N": bound.N,
                "value": str(bound.value),
                "branch": bound.branch,
                "exact": bound.exact,
            }
            for bound in grid
        ]
        return OutputEnvelope("density", _params(args), rows)
    first = variant.ranges[0]
    rows = []
    for cell in grid:
        row = {
            "variant": name,
            first: cell.first,
            "M": cell.M,
            "value": _ratio(cell.num, cell.den),
            "branch": cell.branch,
            "exact": True,
        }
        if args.with_oracle:
            row["oracle"] = _ratio(cell.oracle_num, cell.oracle_den)
            row["oracle_match"] = cell.oracle_match
        rows.append(row)
    failed = not all(row.get("oracle_match", True) for row in rows)
    status = VERIFICATION_FAILURE if failed else 0
    return OutputEnvelope("density", _params(args), rows, exit_status=status)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line, without the usage block,
    reads a word such as `-1:2`, `-3:-1`, `-1,2` or `-1/3` as a value, not a
    flag (no option of this CLI starts with a dash and a digit), and refuses
    `--n=--` as it refuses `--n --`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[-\d:,/]*$")

    def error(self, message):
        self.exit(USAGE_ERROR, f"error: {message}\n")

    def _get_values(self, action, arg_strings):
        # argparse strips the `--` of `--n=--` and would pass on an empty list
        if action.nargs is None and arg_strings == ["--"]:
            self.error(f"argument {action.option_strings[0]}: expected one argument")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gammalattice",
        description="Exact coefficient systems, certificates, numeric checks, "
        "and density bounds for Gamma derivatives at lattice points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = [kind.value for kind in FamilyKind]
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=["csv", "json"], default="json")
    lattice = argparse.ArgumentParser(add_help=False, parents=[output])
    lattice.add_argument("--family", required=True, choices=kinds)

    coeffs = sub.add_parser("coeffs", parents=[lattice], help="print coefficient tables")
    coeffs.add_argument("--n", type=int, required=True, help="derivative order")
    coeffs.add_argument("--m", required=True, help="lattice index, single or lo:hi")
    coeffs.add_argument("--kappa", default=None, help="shift, e.g. 1/2")
    coeffs.set_defaults(handler=_cmd_coeffs)

    matrix = sub.add_parser(
        "matrix", parents=[lattice], help="print systems, dets, inverses, certificates"
    )
    matrix.add_argument("--n", type=int, required=True)
    matrix.add_argument("--indices", required=True, help="comma list, e.g. 1,2,5")
    matrix.add_argument("--kappa", default=None)
    matrix.add_argument(
        "--show", choices=["det", "inverse", "cauchy-binet"], default=None
    )
    matrix.set_defaults(handler=_cmd_matrix)

    verify = sub.add_parser(
        "verify", parents=[lattice], help="identity / recovery verification sweeps"
    )
    verify.add_argument("--mode", choices=["identity", "recover"], default="identity")
    verify.add_argument("--n-max", type=int, required=True)
    verify.add_argument("--m-max", type=int, default=None)
    verify.add_argument("--kappa-set", default=None, help="comma list, e.g. 1/2,1/3")
    verify.add_argument("--digits", type=int, default=60)
    verify.add_argument("--tolerance", default=None, help="override, e.g. 1e-40")
    verify.set_defaults(handler=_cmd_verify)

    density = sub.add_parser("density", parents=[output], help="density lower-bound tables")
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
    density.set_defaults(handler=_cmd_density)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_ERROR
    # Exact values print in full: the work budgets bound their length, so
    # CPython's 4300-digit limit on int-to-str is lifted for the run.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        envelope = args.handler(args)
        output = envelope.to_json() if args.format == "json" else envelope.to_csv()
    except (GammaLatticeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        sys.set_int_max_str_digits(limit)
    try:
        sys.stdout.write(output)
        if output and not output.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: what is still buffered goes to os.devnull, so the
        # interpreter's last flush cannot fail, and the run keeps its status
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    for warning in envelope.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return envelope.exit_status


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
