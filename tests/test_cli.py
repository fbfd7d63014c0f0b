import contextlib
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from _oracles import (
    density_oracle,
    minus_coefficient_oracle,
    plus_coefficient_oracle,
    reference_csv,
    reference_json,
)
from gammalattice import (
    SingularMatrixError,
    budget,
    cli,
    coeffs,
    density,
    gammanum,
    linalg,
    sympoly,
)
from gammalattice.cli import OutputEnvelope, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_cell(*args, **kwargs):
    raise AssertionError("work started before the budget was checked")


BIG = "100000000000000000000000"  # 10**23, past 2**63
FLOATLESS = str(10**309)  # past float range

# (family, shift) whose points a float rounds onto a pole of Gamma
NEAR_POLES = [
    ("minus", "1/100000000000000000000"),
    ("minus", "99999999999999999999/100000000000000000000"),
    ("plus", "1e-400"),
]
NEAR_POLE_IDS = ["minus-near-0", "minus-near-1", "plus-1e-400"]


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# sha256 of stdout for argv covering every family of coeffs, matrix (entries,
# det, inverse, cauchy-binet) and verify (identity, recover), and every density
# variant in JSON and CSV.  The coeffs rows were recorded before the coefficient
# sweep shared one table, the matrix and verify rows before the family facts
# moved into the family object, the two deeper minus verify rows before the
# verify grid shared one derivative vector per point, the density rows before
# the bounds shared one window rule, and the two wide density rows, non-square
# with both branches and reduced pairs of several digits, before the grid
# held its cells as integer pairs.  The order-8 minus recovery row was
# recorded before every recovery order read its rows off one sweep at n_max.
GOLDEN_STDOUT = [
    ("plain", "coeffs --family plain --n 6 --m 1:8",
     "661a78e42308a4225b08c45956aa4dd4677c67d61d438ccb96bf9fe4cb1c1ebf"),
    ("plus", "coeffs --family plus --n 6 --m 0:8 --kappa 1/3",
     "05704390214f55e9562fbdd333a98daf1674cb0f15556f41556378420a693d89"),
    ("minus", "coeffs --family minus --n 6 --m 0:8 --kappa 1/3",
     "6304c02851e7828bccc35a635e60c54759c07e4108b411ef9717be5395b5b9fe"),
    ("matrix-plain-entries", "matrix --family plain --n 3 --indices 1,2,4",
     "7245b8dad93b09759acea2bb60a4a13b2c176d2298beff5885e27fc382b140e3"),
    ("matrix-plus-entries",
     "matrix --family plus --n 2 --indices 0,1,3 --kappa 1/3",
     "b67e521a0a47e8c3e946d73805db3efea0118d52a51295a4c638d336f92da70a"),
    ("matrix-minus-entries",
     "matrix --family minus --n 2 --indices 0,2,3 --kappa 1/3",
     "e12f568a4d8db292cd2a26a12a042fdf000ae3b22a4f02e8024bb631d3b4e7cb"),
    ("matrix-plain-det",
     "matrix --family plain --n 3 --indices 1,2,4 --show det",
     "c742ff8b62bc81a8d3ff7c6a396814729e7184ed441a3b12f9054168aa8089d0"),
    ("matrix-plus-det",
     "matrix --family plus --n 2 --indices 0,1,3 --kappa 1/3 --show det",
     "463e5b19f8f5f28d33b5a4e6346b6345950021114fe048a20932e0472335e336"),
    ("matrix-minus-det",
     "matrix --family minus --n 2 --indices 0,2,3 --kappa 1/3 --show det",
     "17080dc1d7fd58eff696e0ef692fd26212f968d218eed46547b20f7ef6bdc3a6"),
    ("matrix-plain-inverse",
     "matrix --family plain --n 3 --indices 1,2,4 --show inverse",
     "1acd49abc868ee5c2f03ee6632498888f6d64c75302215ad6fdfad996261bdfe"),
    ("matrix-plus-inverse",
     "matrix --family plus --n 2 --indices 0,1,3 --kappa 1/3 --show inverse",
     "b1df4d7337c424d5f5d8f3c7046044d5738d9584374a36d45bdbc3a6d91cc9e8"),
    ("matrix-minus-inverse",
     "matrix --family minus --n 2 --indices 0,2,3 --kappa 1/3 --show inverse",
     "bd7b86c86a784cd8b16e8511eb2425f0c329bb163534e051c21f03bafb4bec5b"),
    ("matrix-plain-cauchy-binet",
     "matrix --family plain --n 3 --indices 1,3,6 --show cauchy-binet",
     "38bed0e47906b767f021750dcea0f7f91d7fb84522d54b28fb1bb6c6f48d20ef"),
    ("matrix-plus-cauchy-binet",
     "matrix --family plus --n 2 --indices 0,2,5 --kappa 1/3 --show cauchy-binet",
     "0060f3d81fd12dfdd24f46fe36354ffbefe841c4cab1fb345f908e5227ac20cb"),
    ("matrix-minus-cauchy-binet",
     "matrix --family minus --n 2 --indices 0,2,5 --kappa 1/3 --show cauchy-binet",
     "5bf73e3ea8eb62fed4d53bc27c3a5752911678ddee3e0fa932c871ec1ee1e08c"),
    ("verify-plain-identity",
     "verify --family plain --n-max 3 --m-max 4 --digits 30",
     "381b63fd6c7a7e4a9f2a3e7d31a2f49a1b4f076cfe0e2d41f4b9ad324af48a6c"),
    ("verify-minus-identity",
     "verify --family minus --n-max 2 --m-max 3 --kappa-set 1/3 --digits 30",
     "e9b249178beecef3b65237696411f89cb9836c5f5a9cb85a25faa263804cb4de"),
    ("verify-plain-recover",
     "verify --family plain --mode recover --n-max 3 --digits 30",
     "c09196f1cdc6fa2d4c25663d636591a155ebf2778d6e5d56a63bf7f2c52844bc"),
    ("verify-plus-recover",
     "verify --family plus --mode recover --n-max 2 --kappa-set 1/3 --digits 30",
     "b3e8f9acf5af7144e523ab51edd9304b7c0729e161f87108363f812c4388da9c"),
    ("verify-minus-identity-deep",
     "verify --family minus --n-max 6 --m-max 8 --kappa-set 1/3,2/3 --digits 60",
     "66fb30f71a93a1a20f45835ef1973c73e5a3adba575e54ffd7fed226cbb74956"),
    ("verify-minus-recover",
     "verify --family minus --mode recover --n-max 5 --kappa-set 1/3 --digits 40",
     "f9f9b943fa687a41f81a6f779af120be3a9c71d3c4a566a44ec1a4652e569a4b"),
    ("verify-minus-recover-deep",
     "verify --family minus --mode recover --n-max 8 --kappa-set 1/3 --digits 30",
     "e899c5ff1111b74122ccd3751f7358b528500014f8844eee714c10f393c85ad5"),
    ("density-prior",
     "density --variant prior --N 1:30",
     "1c392e9e3d5fdcd088f6668d01228d66c179470309fe3f3229afcb77d8b85fc4"),
    ("density-prior-csv",
     "density --variant prior --N 1:30 --format csv",
     "a831dec198d9695dfb502d5931c70f1353fb69e9d05da9726a923c95d725ef8b"),
    ("density-fixed-n",
     "density --variant fixed-n --n 2:6 --M 1:8",
     "21c98763b1f864bd53722621a05f54343e367df10ccaa833b9cb9217c3df5c80"),
    ("density-fixed-n-csv",
     "density --variant fixed-n --n 2:6 --M 1:8 --format csv",
     "3cd93b301a5d468776712e9acf0435fc95e37e93b5aaf275b23208d19be3b7db"),
    ("density-fixed-n-shifted",
     "density --variant fixed-n-shifted --n 1:5 --M 0:7",
     "c7c49f421723995701d4c6f16de5fd13d1450f6002ee14a25f371d0fa627f6d4"),
    ("density-fixed-n-shifted-csv",
     "density --variant fixed-n-shifted --n 1:5 --M 0:7 --format csv",
     "99e4ab95a4d46b42b944e5a9fe82b2c5aab21112f75126a0cddceb89707785b4"),
    ("density-bivariate-oracle",
     "density --variant bivariate --N 2:9 --M 1:9 --with-oracle",
     "a8ed204749c8f3bdcef5d16daf1969558d23881ef67dbca44e5e7844225f8661"),
    ("density-bivariate-oracle-csv",
     "density --variant bivariate --N 2:9 --M 1:9 --with-oracle --format csv",
     "b2a690f9028443907a8d837b06d600c51d911615fa92440d044b35da01ff131a"),
    ("density-bivariate",
     "density --variant bivariate --N 2:9 --M 1:9",
     "0647eb833b03d5b0a1bbeacae7ecdacb175ae92b12a6832dc78eaabbed085172"),
    ("density-bivariate-shifted-oracle",
     "density --variant bivariate-shifted --N 1:8 --M 0:8 --with-oracle",
     "6ba16bef3070fae1871b2c956d8547c04deb805ea4f32cd4789a6a4631583f3e"),
    ("density-bivariate-shifted-oracle-csv",
     "density --variant bivariate-shifted --N 1:8 --M 0:8 --with-oracle --format csv",
     "2c7ccf6b3bd7064047cc1b9c994d56395833bfa30fa58612ab1782589e8de382"),
    ("density-bivariate-oracle-wide",
     "density --variant bivariate --N 2:40 --M 1:60 --with-oracle",
     "59eeaf5499334aac8c4b0ee565f724c012e3ad52d68f4772c48d15cbbc120487"),
    ("density-fixed-n-shifted-wide-csv",
     "density --variant fixed-n-shifted --n 1:30 --M 0:45 --format csv",
     "4f9ca6446369d0319273ebb38a2e11f260e3b4f7065f2655aec661b23ee44d9a"),
]


class TestCoeffsCommand:
    def test_plain_row_values(self, capsys):
        code, payload, err = run_json(
            capsys, "coeffs", "--family", "plain", "--n", "2", "--m", "3"
        )
        assert code == 0
        values = [row["value"] for row in payload["rows"]]
        assert values == ["2", "6", "2"]
        assert payload["exitStatus"] == 0
        assert payload["warnings"] == []

    def test_plus_order_zero(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "coeffs", "--family", "plus", "--n", "0", "--m", "0", "--kappa", "1/2",
        )
        assert code == 0
        assert [row["value"] for row in payload["rows"]] == ["1"]

    def test_degenerate_plain_row(self, capsys):
        code, payload, _ = run_json(
            capsys, "coeffs", "--family", "plain", "--n", "1", "--m", "1"
        )
        assert code == 0
        assert [row["value"] for row in payload["rows"]] == ["0", "1"]

    def test_m_range_sorted(self, capsys):
        code, payload, _ = run_json(
            capsys, "coeffs", "--family", "plain", "--n", "0", "--m", "1:4"
        )
        assert code == 0
        assert [row["m"] for row in payload["rows"]] == [1, 2, 3, 4]
        assert [row["value"] for row in payload["rows"]] == ["1", "1", "2", "6"]

    def test_plain_with_kappa_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "coeffs", "--family", "plain", "--n", "1", "--m", "2", "--kappa", "1/2",
        )
        assert code == 2
        assert "error:" in err

    def test_kappa_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "coeffs", "--family", "plus", "--n", "1", "--m", "2", "--kappa", "3/2",
        )
        assert code == 2

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "coeffs", "--family", "weird", "--n", "1", "--m", "1")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_flag_is_one_line_usage_error(self, capsys):
        code, out, err = run(capsys, "coeffs", "--family", "plain", "--m", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_conditional_warning_off_whitelist(self, capsys):
        code, payload, err = run_json(
            capsys,
            "coeffs", "--family", "plus", "--n", "1", "--m", "1", "--kappa", "2/5",
        )
        assert code == 0  # warnings never change the exit status
        conditional = [w for w in payload["warnings"] if "conditional" in w]
        assert len(conditional) == 1
        assert len(payload["warnings"]) == 1
        assert "conditional" in err

    def test_conditional_warning_names_the_whitelist(self, capsys):
        code, _, err = run(
            capsys,
            "coeffs", "--family", "plus", "--n", "1", "--m", "1", "--kappa", "2/5",
        )
        assert code == 0
        assert err == (
            "warning: shift value(s) 2/5 outside the known-transcendental whitelist "
            "{1/6, 1/4, 1/3, 1/2, 2/3, 3/4, 5/6}; results are conditional on "
            "transcendence of Gamma at the shift\n"
        )

    def test_no_warning_on_whitelist(self, capsys):
        _, payload, err = run_json(
            capsys,
            "coeffs", "--family", "minus", "--n", "1", "--m", "1", "--kappa", "1/2",
        )
        assert payload["warnings"] == []
        assert err == ""

    def test_negative_order_is_usage_error(self, capsys):
        code, out, err = run(capsys, "coeffs", "--family", "plain", "--n", "-1", "--m", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_zero_denominator_kappa_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "coeffs", "--family", "plus", "--n", "2", "--m", "0:2", "--kappa", "1/0",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_range_end_past_int64_is_usage_error(self, capsys, monkeypatch):
        # it raised OverflowError (exit 1, a traceback) from tuple(range)
        monkeypatch.setattr(sympoly.ArgumentFamily, "x", _no_cell)
        code, out, err = run(
            capsys, "coeffs", "--family", "plain", "--n", "1", "--m", f"1:{BIG}"
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: the elementary table of length {int(BIG) - 1} and degree 1 "
            f"is over the work budget {budget.MAX_WORK}\n"
        )

    def test_range_start_past_int64_is_usage_error(self, capsys, monkeypatch):
        # it raised OverflowError (a traceback) from len(range) when sizing
        # the rows, though every index below 1 is off the lattice
        monkeypatch.setattr(sympoly.ArgumentFamily, "x", _no_cell)
        assert run(
            capsys, "coeffs", "--family", "plain", "--n", "0", "--m", f"-{BIG}:8"
        ) == (2, "", f"error: plain lattice index -{BIG} must be >= 1\n")

    @pytest.mark.parametrize("family, kappa", NEAR_POLES, ids=NEAR_POLE_IDS)
    def test_shift_near_a_pole_prints_the_oracle_rows(self, capsys, family, kappa):
        # the ratio estimate rounded a point onto a pole of lgamma: "error:
        # math domain error", exit 2
        code, payload, _ = run_json(
            capsys, "coeffs", "--family", family, "--n", "1", "--m", "0:2", "--kappa", kappa
        )
        assert code == 0
        oracle = plus_coefficient_oracle if family == "plus" else minus_coefficient_oracle
        shift = Fraction(kappa)
        assert [row["value"] for row in payload["rows"]] == [
            str(oracle(1, ell, m, shift)) for m in range(3) for ell in range(2)
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            # ran 28 s, then exited 2 with CPython's int-to-str digit limit
            ["coeffs", "--family", "plain", "--n", "2", "--m", "20000"],
            ["coeffs", "--family", "minus", "--n", "50", "--m", "0:400", "--kappa", "1/3"],
            # ran 34 s, then the same
            ["matrix", "--family", "plain", "--n", "2", "--indices", "1,20000",
             "--show", "det"],
            # ran until it was killed
            ["matrix", "--family", "plain", "--n", "2", "--indices", f"1,{BIG}"],
            ["matrix", "--family", "minus", "--n", "1", "--indices", f"0,{BIG}",
             "--kappa", "1/3", "--show", "cauchy-binet"],
            # raised OverflowError (exit 1, a traceback) from the table estimate
            ["coeffs", "--family", "plain", "--n", "1", "--m", FLOATLESS],
            ["coeffs", "--family", "plain", "--n", FLOATLESS, "--m", "1"],
            ["verify", "--family", "plain", "--n-max", "1", "--m-max", FLOATLESS],
            ["matrix", "--family", "minus", "--n", "2", "--indices", f"0,1,{FLOATLESS}",
             "--kappa", "1/3", "--show", "cauchy-binet"],
        ],
        ids=["coeffs-plain", "coeffs-minus", "matrix-det", "matrix-huge-index",
             "cauchy-binet-huge-index", "float-range-m", "float-range-n",
             "float-range-verify", "float-range-cauchy-binet"],
    )
    def test_table_over_the_budget_is_usage_error(self, capsys, monkeypatch, argv):
        # refused before any row of the table is filled
        monkeypatch.setattr(sympoly.ArgumentFamily, "x", _no_cell)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: the ") and err.count("\n") == 1
        assert err.endswith(f"is over the work budget {budget.MAX_WORK}\n")

    def test_rows_over_the_cell_cap_are_usage_error(self, capsys, monkeypatch):
        # 1:8000 ran 75 s, peaked at 375 MB and printed 105 MB: each of its
        # rows weighs 111 cells by the 27,749 digits of 7999!, the top row,
        # which is the only one built, with its one Gamma ratio, before the
        # rows are held
        row, ratios = coeffs._row, coeffs._ratios
        built = []

        def top_row_only(table, n, length, ratio):
            if built != [("ratios", (8000,))]:
                raise AssertionError("a row was built before the rows were held")
            built.append(("row", length))
            return row(table, n, length, ratio)

        def top_ratio_only(family, ms):
            if built:
                raise AssertionError("a ratio was built before the rows were held")
            built.append(("ratios", tuple(ms)))
            return ratios(family, ms)

        monkeypatch.setattr(coeffs, "_row", top_row_only)
        monkeypatch.setattr(coeffs, "_ratios", top_ratio_only)
        assert run(capsys, "coeffs", "--family", "plain", "--n", "0", "--m", "1:8000") == (
            2, "", f"error: 8000 coefficients of weight 111 are over the budget "
            f"{budget.MAX_CELLS}\n",
        )
        assert built == [("ratios", (8000,)), ("row", 7999)]

    @pytest.mark.parametrize("m, admitted", [(100000, True), (200000, False)])
    def test_one_long_ratio_is_charged_before_it_is_walked(
        self, capsys, monkeypatch, m, admitted
    ):
        # 200000 ran 42 s: its running product of 199,999 steps, walked for
        # the top row and again for the rows, was in no charge, and its row
        # weighed about 3,900 of the 100,000 cells.  100000 runs about 11 s.
        walks = []

        class RowsWalked(Exception):
            pass

        def factorial_ratio(family, ms):
            # the plain Gamma ratio (m-1)!, off math.factorial
            walks.append(tuple(ms))
            if len(walks) > 1:
                raise RowsWalked
            return {k: math.factorial(k - 1) for k in ms}

        monkeypatch.setattr(coeffs, "_ratios", factorial_ratio)
        argv = ["coeffs", "--family", "plain", "--n", "0", "--m", str(m)]
        if admitted:
            # every budget check passes: the rows' walk starts
            with pytest.raises(RowsWalked):
                main(argv)
            assert walks == [(m,), (m,)]
        else:
            assert run(capsys, *argv) == (
                2, "", f"error: the Gamma ratio at index {m} is over the work budget "
                f"{budget.MAX_WORK}\n",
            )
            assert walks == []

    def test_long_exact_values_print_in_full(self, capsys):
        # 1699! has 4,753 digits, past CPython's default int-to-str limit
        code, payload, _ = run_json(
            capsys, "coeffs", "--family", "plain", "--n", "0", "--m", "1700"
        )
        assert code == 0
        # Decimal converts ints without that limit
        assert payload["rows"][0]["value"] == str(Decimal(math.factorial(1699)))

    @pytest.mark.parametrize(
        "argv,digest",
        [case[1:] for case in GOLDEN_STDOUT],
        ids=[case[0] for case in GOLDEN_STDOUT],
    )
    def test_stdout_byte_identical(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys,
            "coeffs", "--family", "plain", "--n", "1", "--m", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,kappa,n,ell,m,value"
        assert lines[1:] == ["plain,,1,0,2,1", "plain,,1,1,2,1"]


class TestMatrixCommand:
    def test_det(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "matrix", "--family", "plain", "--n", "2", "--indices", "1,2",
            "--show", "det",
        )
        assert code == 0
        assert payload["rows"] == [{"det": "-2"}]

    def test_one_by_one_det(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "matrix", "--family", "plain", "--n", "1", "--indices", "1",
            "--show", "det",
        )
        assert code == 0
        assert payload["rows"] == [{"det": "1"}]

    def test_entries_and_constants(self, capsys):
        code, payload, _ = run_json(
            capsys, "matrix", "--family", "plain", "--n", "2", "--indices", "1,2"
        )
        assert code == 0
        entries = {(r["row"], r["col"]): r["value"] for r in payload["rows"]}
        assert entries[(0, 0)] == "0"
        assert entries[(0, 1)] == "1"
        assert entries[(1, 0)] == "2"
        assert entries[(1, 1)] == "1"
        assert entries[(0, "const")] == "0"
        assert payload["params"]["shape"] == "2x2"

    def test_inverse(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "matrix", "--family", "plain", "--n", "2", "--indices", "1,2",
            "--show", "inverse",
        )
        assert code == 0
        entries = {(r["row"], r["col"]): r["value"] for r in payload["rows"]}
        assert entries[(0, 0)] == "-1/2"
        assert entries[(0, 1)] == "1/2"
        assert entries[(1, 0)] == "1"
        assert entries[(1, 1)] == "0"

    def test_singular_inverse_is_a_failure_row(self, capsys, monkeypatch):
        def singular(matrix):
            raise SingularMatrixError("matrix is singular")

        monkeypatch.setattr(cli, "inverse_exact", singular)
        code, payload, _ = run_json(
            capsys,
            "matrix", "--family", "plain", "--n", "2", "--indices", "1,2",
            "--show", "inverse",
        )
        assert code == 1
        assert payload["rows"] == [{"error": "singular coefficient matrix", "det": "0"}]

    def test_cauchy_binet_certificate(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "matrix", "--family", "minus", "--n", "1", "--indices", "0,1",
            "--kappa", "1/2", "--show", "cauchy-binet",
        )
        assert code == 0
        assert payload["params"]["total_det"] == payload["params"]["parent_det"]
        assert payload["params"]["all_terms_positive"] is True
        for row in payload["rows"]:
            assert not row["det_left"].startswith("-")
            assert not row["det_right"].startswith("-")

    @pytest.mark.parametrize("family, kappa", NEAR_POLES, ids=NEAR_POLE_IDS)
    def test_cauchy_binet_near_a_pole(self, capsys, family, kappa):
        # exited 2 with "error: math domain error" from the ratio estimate
        code, payload, _ = run_json(
            capsys, "matrix", "--family", family, "--n", "1", "--indices", "0,2",
            "--kappa", kappa, "--show", "cauchy-binet",
        )
        assert code == 0
        assert payload["params"]["total_det"] == payload["params"]["parent_det"]
        assert payload["params"]["all_terms_positive"] is True

    def test_cauchy_binet_walks_band_products_not_subsets(self, capsys):
        # C(36, 7) = 8,347,680 column subsets, but only 30 * 1^6 band products
        code, payload, _ = run_json(
            capsys,
            "matrix", "--family", "minus", "--n", "7",
            "--indices", "0,30,31,32,33,34,35,36", "--kappa", "1/3",
            "--show", "cauchy-binet",
        )
        assert code == 0
        params = payload["params"]
        assert len(payload["rows"]) == 30
        assert params["pruned"] == 8347650
        assert params["total_det"] == params["parent_det"]
        assert params["all_terms_positive"] is True

    @pytest.mark.parametrize(
        "n, indices, leaves",
        [
            # 4^9 = 262,144 band products
            (9, "0,4,8,12,16,20,24,28,32,36", 262144),
            # 2^13 = 8,192 band products, but each at depth 16
            (16, "0,2,4,6,8,10,12,14,16,18,20,22,24,26,27,28,29", 8192),
        ],
        ids=["wide", "deep"],
    )
    def test_cauchy_binet_over_budget_is_usage_error(self, capsys, n, indices, leaves):
        code, out, err = run(
            capsys,
            "matrix", "--family", "minus", "--n", str(n),
            "--indices", indices, "--kappa", "1/3", "--show", "cauchy-binet",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: the walk over {leaves} band products at depth {n} "
            f"is over the work budget {budget.MAX_WORK}\n"
        )

    def test_cauchy_binet_over_the_cell_cap_is_usage_error(self, capsys):
        # 316^2 = 99,856 terms, a walk well under the work budget, kept 375 MB
        # and printed 90 MB with no cap; each weighs 7 cells by its digits
        code, out, err = run(
            capsys,
            "matrix", "--family", "plain", "--n", "3", "--indices", "1,317,633",
            "--show", "cauchy-binet",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: 99856 band products of weight 7 "
            f"are over the budget {budget.MAX_CELLS}\n"
        )

    def test_elimination_over_the_budget_is_usage_error(self, capsys, monkeypatch):
        # the 41 x 41 minus-1/3 inverse ran past 120 s; the 31 x 31 one took 32 s
        monkeypatch.setattr(linalg, "_reduce", _no_cell)
        code, out, err = run(
            capsys,
            "matrix", "--family", "minus", "--n", "40", "--kappa", "1/3",
            "--indices", ",".join(str(i) for i in range(41)), "--show", "inverse",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: the inverse of a 41x41 matrix of 4815-bit rows "
            f"is over the work budget {budget.MAX_WORK}\n"
        )

    def test_cauchy_binet_needs_two_indices(self, capsys):
        code, _, err = run(
            capsys,
            "matrix", "--family", "plain", "--n", "1", "--indices", "1",
            "--show", "cauchy-binet",
        )
        assert code == 2

    def test_rectangular_cauchy_binet_is_usage_error(self, capsys):
        # the certificate covers the 3x3 prefix matrix, not this 3x9 system
        code, out, err = run(
            capsys,
            "matrix", "--family", "plain", "--n", "9", "--indices", "1,3,6",
            "--show", "cauchy-binet",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_rectangular_det_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys,
            "matrix", "--family", "plain", "--n", "3", "--indices", "1,2",
            "--show", "det",
        )
        assert code == 2

    def test_bad_indices_string(self, capsys):
        code, _, _ = run(
            capsys, "matrix", "--family", "plain", "--n", "2", "--indices", "1;2"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "indices,line",
        [
            ("3,1", "error: indices (3, 1) are not strictly increasing\n"),
            ("1,1", "error: indices (1, 1) are not strictly increasing\n"),
            ("0,1", "error: plain lattice indices must be >= 1\n"),
        ],
    )
    def test_bad_index_set_message(self, capsys, indices, line):
        code, out, err = run(
            capsys, "matrix", "--family", "plain", "--n", "2", "--indices", indices
        )
        assert (code, out, err) == (2, "", line)

    def test_negative_order_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "matrix", "--family", "plus", "--n", "-1", "--indices", "0,1",
            "--kappa", "1/3",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_zero_denominator_kappa_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "matrix", "--family", "minus", "--n", "1", "--indices", "0,1",
            "--kappa", "1/0", "--show", "det",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


# The printed rows of the `verify` argv of GOLDEN_STDOUT, recorded as values.
# A change that moves printed digits within each run's tolerance re-records
# them (and the GOLDEN_STDOUT digests): the tolerance check still holds it to
# the rows recorded before.
VERIFY_ROWS = Path(__file__).parent / "fixtures" / "verify_rows.json"
VERIFY_GOLDEN = [case for case in GOLDEN_STDOUT if case[1].startswith("verify")]


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "argv", [case[1] for case in VERIFY_GOLDEN], ids=[case[0] for case in VERIFY_GOLDEN]
    )
    def test_rows_are_the_recorded_values(self, capsys, argv):
        code, payload, _ = run_json(capsys, *argv.split())
        recorded = json.loads(VERIFY_ROWS.read_text())[argv]
        assert code == 0 and len(payload["rows"]) == len(recorded)
        params = payload["params"]
        ctx = gammanum.PrecisionContext(params["digits"], params["tolerance"])
        with mp.workdps(ctx.working_digits):
            for row, old in zip(payload["rows"], recorded):
                for key in ("lhs", "rhs", "recovered", "reference"):
                    if key in old:
                        value, before = mp.mpf(row[key]), mp.mpf(old[key])
                        assert abs(value - before) <= ctx.tolerance * max(1, abs(before))
        assert payload["rows"] == recorded

    def test_identity_sweep_passes(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "verify", "--family", "plain", "--n-max", "2", "--m-max", "3",
            "--digits", "40",
        )
        assert code == 0
        assert payload["exitStatus"] == 0
        assert len(payload["rows"]) == 9
        assert all(row["pass"] for row in payload["rows"])

    @pytest.mark.parametrize("mode", [["--m-max", "2"], ["--mode", "recover"]],
                             ids=["identity", "recover"])
    @pytest.mark.parametrize("family, kappa", NEAR_POLES[:2], ids=NEAR_POLE_IDS[:2])
    def test_shift_near_a_pole_is_checked(self, capsys, family, kappa, mode):
        # exited 2 with "error: math domain error" from the ratio estimate; a
        # failing row here is the oracle's cancellation near the pole
        code, payload, _ = run_json(
            capsys, "verify", "--family", family, "--n-max", "2", *mode,
            "--kappa-set", kappa, "--digits", "30",
        )
        assert code in (0, 1) and payload["rows"]
        assert code == (not all(row["pass"] for row in payload["rows"]))

    def test_shifted_identity_single_kappa(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "verify", "--family", "plus", "--n-max", "0", "--m-max", "3",
            "--kappa-set", "1/2", "--digits", "40",
        )
        assert code == 0
        assert len(payload["rows"]) == 4
        assert all(row["pass"] for row in payload["rows"])

    def test_recover_mode(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "verify", "--family", "plain", "--mode", "recover", "--n-max", "3",
            "--digits", "40",
        )
        assert code == 0
        rows = payload["rows"]
        assert {row["n"] for row in rows} == {2, 3}
        gamma_prime_rows = [r for r in rows if r["ell"] == 1]
        assert gamma_prime_rows
        for row in gamma_prime_rows:
            assert row["recovered"].startswith("-0.577215664901532")
        assert all(row["pass"] for row in rows)

    def test_low_digits_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--family", "plain", "--n-max", "1", "--m-max", "1",
            "--digits", "10",
        )
        assert code == 2

    @pytest.mark.parametrize("digits", ["20", "29"])
    def test_digits_below_thirty_is_usage_error(self, capsys, digits):
        # below 30 digits the default tolerance 10^-(digits-20) passes anything
        code, out, err = run(
            capsys, "verify", "--family", "plain", "--n-max", "1", "--m-max", "2",
            "--digits", digits,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_digits_at_the_cap_accepted(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "--family", "plain", "--n-max", "0", "--m-max", "3",
            "--digits", "1000",
        )
        assert code == 0
        assert payload["params"]["digits"] == 1000
        assert all(row["pass"] for row in payload["rows"])

    @pytest.mark.parametrize("digits", ["1001", "100000000"])
    def test_digits_above_the_cap_is_usage_error(self, capsys, digits):
        # rejected before any row is computed, not after minutes of work
        code, out, err = run(
            capsys, "verify", "--family", "plain", "--n-max", "2", "--m-max", "2",
            "--digits", digits,
        )
        assert code == 2
        assert out == ""
        assert err == "error: decimal_digits must be <= 1000\n"

    def test_m_max_in_recover_mode_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--family", "plain", "--mode", "recover", "--n-max", "2",
            "--m-max", "99", "--digits", "30",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --m-max does not apply to recover mode\n"

    def test_zero_tolerance_forces_failure(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "verify", "--family", "plain", "--n-max", "1", "--m-max", "2",
            "--digits", "40", "--tolerance", "0",
        )
        assert code == 1
        assert payload["exitStatus"] == 1
        assert not any(row["pass"] for row in payload["rows"])

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_is_usage_error(self, capsys, tolerance):
        code, out, err = run(
            capsys, "verify", "--family", "plain", "--n-max", "1", "--m-max", "2",
            "--digits", "40", f"--tolerance={tolerance}",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("tolerance", ["1/0", "0/0"])
    def test_zero_denominator_tolerance_is_usage_error(self, capsys, tolerance):
        code, out, err = run(
            capsys, "verify", "--family", "plain", "--n-max", "1", "--m-max", "1",
            "--digits", "30", "--tolerance", tolerance,
        )
        assert (code, out) == (2, "")
        assert err == f"error: bad tolerance '{tolerance}'; want e.g. 1e-40\n"

    def test_zero_denominator_kappa_set_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--family", "plus", "--n-max", "1", "--m-max", "1",
            "--kappa-set", "1/2,1/0", "--digits", "40",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_repeated_kappa_set_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--family", "minus", "--n-max", "0", "--m-max", "1",
            "--kappa-set", "1/3,1/2,2/6", "--digits", "40",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "1/3" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "plain", "--n-max", "1", "--m-max", "1", "--tolerance=-1"),
            ("--family", "plain", "--n-max", "-1", "--m-max", "3"),
            ("--family", "plain", "--n-max", "1", "--m-max", "0"),
            ("--family", "minus", "--n-max", "1", "--m-max", "-1", "--kappa-set", "1/3"),
            ("--family", "plus", "--n-max", "1", "--m-max", "1", "--kappa-set="),
            ("--family", "plain", "--mode", "recover", "--n-max", "1"),
            ("--family", "plus", "--mode", "recover", "--n-max", "0", "--kappa-set", "1/3"),
        ],
        ids=[
            "negative-tolerance",
            "negative-n-max",
            "m-max-below-plain-start",
            "m-max-below-shifted-start",
            "empty-kappa-set",
            "plain-recover-n-max-1",
            "shifted-recover-n-max-0",
        ],
    )
    def test_empty_or_failing_sweep_is_usage_error(self, capsys, argv):
        # each would otherwise "pass" with no rows, or fail every row
        code, out, err = run(capsys, "verify", *argv, "--digits", "30")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            # ran until it was killed
            ("--n-max", "1", "--m-max", BIG),
            # about 2 s and 969 kB of output; priced over the cap by the j
            # products each point of prefix length j is charged
            ("--n-max", "1", "--m-max", "1700"),
            ("--n-max", BIG, "--m-max", "1"),
            ("--mode", "recover", "--n-max", BIG),
            ("--mode", "recover", "--n-max", "100"),
        ],
        ids=["m-max-huge", "m-max-1700", "n-max-huge", "recover-huge", "recover-100"],
    )
    def test_sweep_over_the_budget_is_usage_error(self, capsys, monkeypatch, argv):
        # refused before the first cell runs
        monkeypatch.setattr(gammanum, "gamma_derivatives", _no_cell)
        code, out, err = run(
            capsys, "verify", "--family", "plain", *argv, "--digits", "30"
        )
        assert (code, out) == (2, "")
        assert err == f"error: the verify sweep is over the work budget {budget.MAX_WORK}\n"

    def test_bad_tolerance_is_reported_before_other_faults(self, capsys):
        # the context reads the tolerance first, before the shifts or the sweep
        code, out, err = run(
            capsys, "verify", "--family", "plus", "--n-max", "1", "--m-max", "1",
            "--kappa-set", "1/0", "--tolerance", "nan", "--digits", "30",
        )
        assert (code, out) == (2, "")
        assert err == "error: tolerance 'nan' must be finite and >= 0\n"

    def test_missing_m_max_identity(self, capsys):
        code, _, _ = run(capsys, "verify", "--family", "plain", "--n-max", "1")
        assert code == 2

    def test_kappa_set_conditional_warning_once(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "verify", "--family", "minus", "--n-max", "0", "--m-max", "1",
            "--kappa-set", "2/5,3/7", "--digits", "40",
        )
        assert code == 0
        assert len([w for w in payload["warnings"] if "conditional" in w]) == 1


class TestDensityCommand:
    def test_bivariate_single_cell(self, capsys):
        code, payload, _ = run_json(
            capsys, "density", "--variant", "bivariate", "--N", "10", "--M", "10"
        )
        assert code == 0
        assert payload["rows"][0]["value"] == "1/2"

    def test_prior_perfect_square(self, capsys):
        code, payload, _ = run_json(capsys, "density", "--variant", "prior", "--N", "25")
        assert code == 0
        row = payload["rows"][0]
        assert row["value"] == "1/10"
        assert row["exact"] is True

    def test_prior_inexact_cell(self, capsys):
        code, payload, _ = run_json(capsys, "density", "--variant", "prior", "--N", "7")
        assert code == 0
        row = payload["rows"][0]
        assert row["exact"] is False
        assert row["value"].startswith("0.020821615866")

    def test_shifted_with_oracle(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "density", "--variant", "bivariate-shifted", "--N", "4", "--M", "2",
            "--with-oracle",
        )
        assert code == 0
        row = payload["rows"][0]
        assert row["value"] == "1/4"
        assert row["oracle"] == "1/4"
        assert row["oracle_match"] is True

    def test_fixed_n_grid(self, capsys):
        code, payload, _ = run_json(
            capsys, "density", "--variant", "fixed-n", "--n", "3", "--M", "1:10"
        )
        assert code == 0
        assert len(payload["rows"]) == 10
        assert payload["rows"][-1]["value"] == "4/5"

    def test_empty_range_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "density", "--variant", "bivariate", "--N", "5:3", "--M", "1"
        )
        assert code == 2

    def test_oracle_flag_rejected_for_prior(self, capsys):
        code, _, _ = run(
            capsys, "density", "--variant", "prior", "--N", "25", "--with-oracle"
        )
        assert code == 2

    def test_range_flag_off_the_variant_is_usage_error(self, capsys):
        assert run(
            capsys, "density", "--variant", "fixed-n", "--n", "3", "--M", "5", "--N", "4"
        ) == (2, "", "error: --N does not apply to variant fixed-n\n")

    @pytest.mark.parametrize("digits", ["0", "-3"])
    def test_digits_below_one_is_usage_error(self, capsys, digits):
        # no precision below one digit can print the bound, about 0.0992
        code, out, err = run(
            capsys, "density", "--variant", "prior", "--N", "30", f"--digits={digits}"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_digits_at_the_cap_accepted(self, capsys):
        code, payload, _ = run_json(
            capsys, "density", "--variant", "prior", "--N", "7", "--digits", "1000"
        )
        assert code == 0
        assert payload["params"]["digits"] == 1000
        assert payload["rows"][0]["value"].startswith("0.0208216158663700843573736790913")

    @pytest.mark.parametrize("digits", ["1001", "1000000"])
    def test_digits_above_the_cap_is_usage_error(self, capsys, digits):
        # a million digits ran for 15 s and printed 1 MB; `verify` has the same cap
        code, out, err = run(
            capsys, "density", "--variant", "prior", "--N", "7", f"--digits={digits}"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: digits={digits} must be <= 1000\n"

    def test_missing_required_range(self, capsys):
        code, _, _ = run(capsys, "density", "--variant", "bivariate", "--N", "5")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--variant", "bivariate", "--N", "2:3000", "--M", "1:3000"],
            ["--variant", "fixed-n-shifted", "--n", "1:1000000", "--M", "0:1000000"],
            ["--variant", "prior", "--N", "1:100001"],
        ],
        ids=["bivariate", "fixed-n-shifted", "prior"],
    )
    def test_grid_over_the_budget_is_usage_error(self, capsys, monkeypatch, argv):
        # 2:3000 x 1:3000 ran past 10 s with no cap; no cell may be computed
        for name in ("_window", "_min_sum_pairs", "_prior_bound"):
            monkeypatch.setattr(density, name, _no_cell)
        code, out, err = run(capsys, "density", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"grid cells are over the budget {budget.MAX_CELLS}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            # it raised OverflowError (exit 1, a traceback) from len(range)
            ["--variant", "bivariate", "--N", f"2:{BIG}", "--M", "1"],
            # the oracle sums every order up to N at each M
            ["--variant", "bivariate", "--N", BIG, "--M", "1", "--with-oracle"],
            # at 1000 digits a prior cell weighs five: 1:10000 took 1.8 s and 64 MB
            ["--variant", "prior", "--N", "1:20001", "--digits", "1000"],
        ],
        ids=["range-past-int64", "oracle-span", "prior-digits"],
    )
    def test_weighted_grid_over_the_budget_is_usage_error(
        self, capsys, monkeypatch, argv
    ):
        for name in ("_window", "_min_sum_pairs", "_prior_bound"):
            monkeypatch.setattr(density, name, _no_cell)
        code, out, err = run(capsys, "density", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"are over the budget {budget.MAX_CELLS}\n")

    def test_oracle_disagreement_is_verification_failure(self, capsys, monkeypatch):
        # the oracle's pair at N = 3, M = 2 is moved off the closed form's 1/4
        pairs = density._min_sum_pairs

        def skewed(variant, Ns, Ms):
            cells = ((N, M) for N in Ns for M in Ms)
            for (N, M), (num, den) in zip(cells, pairs(variant, Ns, Ms)):
                yield (num + 1 if (N, M) == (3, 2) else num), den

        monkeypatch.setattr(density, "_min_sum_pairs", skewed)
        code, payload, _ = run_json(
            capsys, "density", "--variant", "bivariate", "--N", "2:4", "--M", "1:3",
            "--with-oracle",
        )
        assert (code, payload["exitStatus"]) == (1, 1)
        failing = [row for row in payload["rows"] if not row["oracle_match"]]
        assert [(row["N"], row["M"]) for row in failing] == [(3, 2)]
        # the oracle prints its own value, (1 + 1)/4 in lowest terms
        assert (failing[0]["value"], failing[0]["oracle"]) == ("1/4", "1/2")
        assert sum(row["oracle_match"] for row in payload["rows"]) == 8

    @given(
        variant=st.sampled_from([v for v in density.BoundVariant if v.ranges[1:]]),
        first=st.tuples(st.integers(0, 30), st.integers(0, 12)),
        second=st.tuples(st.integers(0, 30), st.integers(0, 12)),
        oracle=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_printed_values_are_the_density_oracle(self, variant, first, second, oracle):
        # every cell prints the test-side oracle's Fraction, as the value and
        # as the oracle's; the lowest M is 0 on the shifted lattices
        offset = 0 if variant.shifted else 1
        (a, da), (b, db) = first, second
        a, b = a + 1 + offset, b + offset
        argv = ["density", "--variant", variant.value,
                f"--{variant.ranges[0]}", f"{a}:{a + da}", "--M", f"{b}:{b + db}"]
        oracle = oracle and variant.has_oracle
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--with-oracle"] * oracle)
        assert code == 0
        rows = json.loads(out.getvalue())["rows"]
        assert len(rows) == (da + 1) * (db + 1)
        # the window within the order cap, then beyond it: on both lattices
        # the window is beyond the cap where M >= n (or N)
        labels = {
            "fixed-n": ("M<=n-1", "M>n-1"),
            "fixed-n-shifted": ("M+1<=n", "M+1>n"),
            "bivariate": ("M<=N-1", "M>N-1"),
            "bivariate-shifted": ("M+1<=N", "M+1>N"),
        }[variant.value]
        for row in rows:
            order, M = row[variant.ranges[0]], row["M"]
            value = str(density_oracle(variant, order, M))
            assert (row["value"], row["branch"]) == (value, labels[M >= order])
            if oracle:
                assert (row["oracle"], row["oracle_match"]) == (value, True)
            else:
                assert "oracle" not in row


class TestArgumentParsing:
    @pytest.mark.parametrize(
        "argv, line",
        [
            (["coeffs", "--family", "plus", "--n", "2", "--m", "-1:2", "--kappa", "1/3"],
             "error: plus lattice index -1 must be >= 0\n"),
            (["density", "--variant", "bivariate", "--N", "3", "--M", "-1:2"],
             "error: M=-1 must be >= 1\n"),
            (["matrix", "--family", "plain", "--n", "2", "--indices", "-1,2"],
             "error: plain lattice indices must be >= 1\n"),
            # a second dash inside the value: read as a flag until it too matched
            (["coeffs", "--family", "minus", "--n", "1", "--m", "-3:-1", "--kappa", "1/3"],
             "error: minus lattice index -3 must be >= 0\n"),
            (["matrix", "--family", "plain", "--n", "2", "--indices", "-2,-1"],
             "error: plain lattice indices must be >= 1\n"),
            (["verify", "--family", "minus", "--n-max", "1", "--m-max", "1",
              "--kappa-set", "-1/3,-2/3"],
             "error: shift -1/3 outside (0, 1)\n"),
            (["density", "--variant", "bivariate", "--N", "3", "--M", "-3:-1"],
             "error: M=-3 must be >= 1\n"),
        ],
        ids=["m", "M", "indices", "m-two-dashes", "indices-two-dashes",
             "kappa-set-two-dashes", "M-two-dashes"],
    )
    def test_value_starting_with_a_dash_is_a_value(self, capsys, argv, line):
        # `--m -1:2` used to read -1:2 as a flag: "expected one argument"
        at = next(i for i, word in enumerate(argv) if re.match(r"-\d", word))
        joined = [*argv[: at - 1], f"{argv[at - 1]}={argv[at]}", *argv[at + 1 :]]
        for form in (argv, joined):
            assert run(capsys, *form) == (2, "", line)

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["coeffs", "--family", "plain", "--n", "2", "--m", "1:x"], "1:x"),
            (["density", "--variant", "bivariate", "--N", "2:x", "--M", "1"], "2:x"),
            (["density", "--variant", "fixed-n", "--n", "3:", "--M", "1"], "3:"),
            (["density", "--variant", "prior", "--N", "y"], "y"),
        ],
        ids=["m", "N", "n", "single"],
    )
    def test_bad_range_names_its_text(self, capsys, argv, text):
        # int()'s "invalid literal for int() with base 10" named neither the
        # flag's text nor the form a range takes
        assert run(capsys, *argv) == (
            2, "", f"error: bad range {text!r}; want e.g. 7 or 2:5\n"
        )

    @pytest.mark.parametrize("kappa", ["1e-1000000", "1e-1002"])
    def test_shift_exponent_past_the_digit_budget_is_refused_at_once(self, capsys, kappa):
        # the shift was built first: 1e-1000000 spent 15 s of CPU before its
        # refusal, 1e-10000000 (not run here) did not finish in 100 s, and
        # 1e-1002 exited 2 with "math domain error"
        start = time.process_time()
        code, out, err = run(
            capsys, "coeffs", "--family", "plus", "--n", "1", "--m", "0:2", "--kappa", kappa
        )
        assert time.process_time() - start < 0.5
        assert (code, out) == (2, "")
        assert err == (
            f"error: the exponent of shift {kappa!r} is past {budget.MAX_DIGITS + 1}: "
            f"the digit budget {budget.MAX_DIGITS} plus the digits it writes\n"
        )

    @pytest.mark.parametrize("kappa", ["1e-1001", "0.1e-1001", "1E-0_5"])
    def test_shift_exponent_inside_the_digit_budget_runs(self, capsys, kappa):
        code, payload, _ = run_json(
            capsys, "coeffs", "--family", "plus", "--n", "0", "--m", "1", "--kappa", kappa
        )
        assert code == 0
        assert payload["rows"][0]["value"] == str(Fraction(kappa))

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--family", "plain", "--n=--", "--m", "1"],
            ["coeffs", "--family", "plus", "--n", "1", "--m", "1", "--kappa=--"],
            ["density", "--variant", "prior", "--N=--"],
        ],
        ids=["n", "kappa", "N"],
    )
    def test_double_dash_value_is_refused(self, capsys, argv):
        # argparse stripped the `--` and passed an empty list on: a TypeError
        flag = next(word for word in argv if word.endswith("=--")).split("=")[0]
        assert run(capsys, *argv) == (
            2, "", f"error: argument {flag}: expected one argument\n"
        )


# Text an encoder must escape or keep apart from the layout: quotes,
# backslashes, control characters, raw newlines, non-ASCII, and the very text
# that separates two rows of the indented dump.
_TEXT = st.one_of(
    st.text(max_size=8),
    st.text(alphabet='"\\\n\r\t\x00\x1f\x7f,:{}[] \u00e9\u2028\U0001f600', max_size=12),
    st.just("},\n      {"),
)
_SCALAR = st.one_of(
    _TEXT, st.integers(), st.integers(-(10**40), 10**40), st.booleans(), st.none()
)
_PARAM = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _envelopes(draw):
    """Envelopes whose rows are flat dicts over one key set, as every CLI
    table is, each row in its own key order."""
    keys = draw(st.lists(_TEXT | st.just("rows"), unique=True, max_size=5))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        items = [(key, draw(_SCALAR)) for key in keys]
        rows.append(dict(draw(st.permutations(items))))
    params = draw(st.dictionaries(_TEXT | st.just("rows"), _PARAM, max_size=4))
    warnings = draw(st.lists(_TEXT, max_size=3))
    return OutputEnvelope(draw(_TEXT), params, rows, warnings, draw(st.integers(0, 2)))


class TestEnvelopeContract:
    @given(envelope=_envelopes())
    @settings(max_examples=200, deadline=None)
    def test_renderings_match_the_standard_library(self, envelope):
        assert envelope.to_json() == reference_json(envelope.to_payload())
        assert envelope.to_csv() == reference_csv(envelope.rows)

    def test_rows_are_flat(self, capsys):
        # the row encoder lays out one level of keys; a nested value would
        # print valid JSON in the wrong layout
        for _, argv, _ in GOLDEN_STDOUT:
            if "csv" in argv:
                continue
            code, payload, _ = run_json(capsys, *argv.split())
            assert code == 0
            for row in payload["rows"]:
                assert all(type(v) in (str, int, bool, type(None)) for v in row.values())

    def test_json_round_trip_is_byte_identical(self, capsys):
        for argv in (
            ["coeffs", "--family", "plain", "--n", "2", "--m", "1:3"],
            ["matrix", "--family", "plus", "--n", "1", "--indices", "0,1",
             "--kappa", "1/3", "--show", "det"],
            ["density", "--variant", "bivariate", "--N", "3:5", "--M", "2",
             "--with-oracle"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            parsed = json.loads(out)
            assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out

    def test_envelope_fields(self, capsys):
        _, payload, _ = run_json(
            capsys, "coeffs", "--family", "plain", "--n", "0", "--m", "1"
        )
        assert set(payload) == {"command", "params", "rows", "warnings", "exitStatus"}
        assert payload["command"] == "coeffs"

    def test_csv_never_needs_quoting(self, capsys):
        for argv in (
            ["matrix", "--family", "minus", "--n", "2", "--indices", "0,2,5",
             "--kappa", "1/3", "--show", "cauchy-binet"],
            ["verify", "--family", "plain", "--mode", "recover", "--n-max", "2",
             "--digits", "40"],
            ["density", "--variant", "bivariate", "--N", "3:5", "--M", "1:4",
             "--with-oracle"],
        ):
            code, out, _ = run(capsys, *argv, "--format", "csv")
            assert code == 0
            assert '"' not in out

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0

    @pytest.mark.parametrize("command", ["coeffs", "matrix", "verify", "density"])
    def test_subcommand_help_lists_format(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert "--format" in out

    @pytest.mark.parametrize(
        "argv",
        [case[1] for case in GOLDEN_STDOUT if "csv" not in case[1]],
        ids=[case[0] for case in GOLDEN_STDOUT if "csv" not in case[1]],
    )
    def test_params_echo_the_parsed_flags(self, capsys, argv):
        # every flag but --format, plus what the command derives from them
        argv = argv.split()
        parsed = vars(build_parser().parse_args(argv))
        keys = set(parsed) - {"command", "handler", "format"}
        if argv[0] == "matrix":
            keys |= {"shape", "unknowns"}
        if "cauchy-binet" in argv:
            keys |= {"total_det", "parent_det", "pruned", "all_terms_positive"}
        _, payload, _ = run_json(capsys, *argv)
        assert set(payload["params"]) == keys


# The CLI contract over argv: exit 0, 1 or 2, never a traceback, one `error:`
# line and no output on a usage error, and each run inside a few seconds.  An
# argv is a well-formed one, so that runs get past the parser, with some of
# its values replaced by hostile ones or its flags dropped.
_SMALL = st.integers(-1, 8)  # near 0, where the sweeps are small
_INT = st.one_of(
    _SMALL,
    st.integers(-(2**70), -2),
    st.integers(2**63, 2**70),
    st.integers(10**308, 10**320),  # past float range
    st.integers(-(10**320), -(10**308)),
)
_WHITELIST = st.sampled_from(["1/6", "1/4", "1/3", "1/2", "2/3", "3/4", "5/6", "2/5"])
_HOSTILE = st.one_of(
    _INT.map(str),
    st.tuples(_INT, _INT).map(lambda ends: f"{ends[0]}:{ends[1]}"),
    st.lists(_INT, min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.tuples(_INT, _INT).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from(
        ["", ":", "1:", "a:b", "1:2:3", ",", "1,,2", "1/0", "0/0", "3/2", "1//3",
         "abc", "nan", "inf", "other", "-1", "-1:2", "-1,2", "-1/3", "-x", "--", "-"]
    ),
    # exponent-form shifts: past the digit budget either way, one whose
    # points a float rounds onto a pole of Gamma, and a plain one
    st.sampled_from(["1e-1000000", "1e-400", "1e1000000", "0.5e-1"]),
)


def _small_range(low):
    return st.tuples(st.integers(low, 6), st.integers(0, 3)).map(
        lambda r: f"{r[0]}:{r[0] + r[1]}" if r[1] else str(r[0])
    )


@st.composite
def _well_formed(draw, command):
    """(flag, value) pairs of an argv that parses and runs; None flags a switch."""
    fmt = [("--format", draw(st.sampled_from(["json", "csv"])))]
    if command == "density":
        variant = draw(st.sampled_from(list(density.BoundVariant)))
        low = {"N": 1, "n": 1, "M": 0}
        pairs = [("--variant", variant.value)]
        pairs += [(f"--{name}", draw(_small_range(low[name]))) for name in variant.ranges]
        if variant.has_oracle and draw(st.booleans()):
            pairs.append(("--with-oracle", None))
        if variant is density.BoundVariant.PRIOR and draw(st.booleans()):
            pairs.append(("--digits", str(draw(st.integers(1, 60)))))
        return pairs + fmt
    family = draw(st.sampled_from(["plain", "plus", "minus"]))
    shifted = family != "plain"
    pairs = [("--family", family)]
    if command == "verify":
        recover = draw(st.booleans())
        pairs.append(("--n-max", str(draw(st.integers(int(shifted), 6)))))
        if recover:
            pairs.append(("--mode", "recover"))
        else:
            pairs.append(("--m-max", str(draw(st.integers(1, 6)))))
        if shifted and draw(st.booleans()):
            shifts = draw(st.lists(_WHITELIST, min_size=1, max_size=3, unique=True))
            pairs.append(("--kappa-set", ",".join(shifts)))
        pairs.append(("--digits", str(draw(st.integers(30, 40)))))
        if draw(st.booleans()):
            pairs.append(("--tolerance", draw(st.sampled_from(["0", "1e-20"]))))
        return pairs + fmt
    kappa = [("--kappa", draw(_WHITELIST))] if shifted else []
    pairs.append(("--n", str(draw(st.integers(0, 6)))))
    if command == "coeffs":
        return pairs + [("--m", draw(_small_range(1 - shifted)))] + kappa + fmt
    indices = draw(st.lists(st.integers(1 - shifted, 8), min_size=1, max_size=4, unique=True))
    pairs.append(("--indices", ",".join(map(str, sorted(indices)))))
    show = draw(st.sampled_from([None, "det", "inverse", "cauchy-binet"]))
    return pairs + kappa + ([("--show", show)] if show else []) + fmt


@st.composite
def _argv(draw, command):
    argv = [command]
    for flag, value in draw(_well_formed(command)):
        change = draw(st.integers(0, 7))
        if change == 7:
            continue  # dropped
        if value is None:
            argv.append(flag)
            continue
        if change == 6:
            value = draw(_HOSTILE)
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    return argv


# A run that passes this is cut off.  The drawn values are near 0, past 2**63
# or past float range, so an accepted run stays well under it on a 2-core
# host, and a huge one is refused by the work budget before it starts.
_RUN_SECONDS = 10


def _timed_out(signum, frame):
    raise TimeoutError(f"the run took more than {_RUN_SECONDS} s")


def _check_contract(argv):
    """Exit 0, 1 or 2 inside the timer, no traceback, and a usage error as one
    `error:` line with no output."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, _RUN_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out.getvalue() == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCliContract:
    @pytest.mark.parametrize("extra, status", [((), 0), (("--tolerance", "1e-300"), 1)])
    def test_a_closed_stdout_pipe_keeps_the_run_status(self, extra, status):
        # the reader leaves before the first write: no traceback, and the
        # exit code is the run's own, not 1 for an uncaught BrokenPipeError
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        argv = ["verify", "--family", "plain", "--n-max", "3", "--m-max", "3", *extra]
        proc = subprocess.Popen(
            [sys.executable, "-m", "gammalattice.cli", *argv, "--digits", "30"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        with proc:
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == status
        assert err == b""

    @pytest.mark.parametrize("command", ["coeffs", "matrix", "verify", "density"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_exit_codes_and_one_line_errors(self, command, data):
        _check_contract(data.draw(_argv(command), label="argv"))

    @pytest.mark.parametrize(
        "argv",
        [
            # OverflowError escaped `main` from the table estimate
            ["coeffs", "--family", "plain", "--n", "1", "--m", FLOATLESS],
            # the shift's million-digit denominator outlasted the timer
            ["coeffs", "--family", "plus", "--n", "1", "--m", "0:2",
             "--kappa", "1e-1000000"],
        ],
        ids=["float-range", "exponent"],
    )
    def test_pinned_hostile_argv(self, argv):
        _check_contract(argv)
