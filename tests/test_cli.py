import hashlib
import json

import pytest

from gammalattice.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# sha256 of stdout for argv covering every family of coeffs, matrix (entries,
# det, inverse, cauchy-binet) and verify (identity, recover), and every density
# variant in JSON and CSV.  The coeffs rows were recorded before the coefficient
# sweep shared one table, the matrix and verify rows before the family facts
# moved into the family object, and the density rows before the bounds shared
# one window rule.
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


class TestVerifyCommand:
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

    @pytest.mark.parametrize("digits", ["0", "-3"])
    def test_digits_below_one_is_usage_error(self, capsys, digits):
        # no precision below one digit can print the bound, about 0.0992
        code, out, err = run(
            capsys, "density", "--variant", "prior", "--N", "30", f"--digits={digits}"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_required_range(self, capsys):
        code, _, _ = run(capsys, "density", "--variant", "bivariate", "--N", "5")
        assert code == 2


class TestEnvelopeContract:
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
