import contextlib
import functools
import io
import json
import math
import os
import re
import site
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopreg import cli

from closed_forms import radial_analytic
from references import render_two_pass


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_raw(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReportShape:
    def test_report_has_contract_keys(self, capsys):
        code, report = run_json(capsys, ["mu1", "--m", "1.0"])
        assert code == 0
        assert set(report) == {"subcommand", "inputs", "outputs", "provenance", "ledger"}

    def test_every_output_field_has_provenance(self, capsys):
        for argv in (
            ["mu1", "--m", "1.0"],
            ["phi4", "--sigma", "1", "--lambda", "6"],
            ["selfenergy", "--m", "0.000511"],
            ["lambshift"],
            ["regularize", "--n", "2", "--msq", "1.0", "--mu1", "0.5"],
            ["resum", "--lambda0", "0.5", "--mu0", "1.0", "--mu", "2.0"],
            ["oracle", "--n", "3", "--msq", "1.0", "--grid", "1e2,1e3,1e4,1e5"],
        ):
            code, report = run_json(capsys, argv)
            assert code == 0, argv
            assert set(report["outputs"]) == set(report["provenance"]), argv


class TestMu1Command:
    def test_mev_boundary_conversion(self, capsys):
        code, report = run_json(capsys, ["mu1", "--m", "0.511", "--units", "MeV", "--precision", "5"])
        assert code == 0
        assert report["outputs"]["mu1"] == "0.22208"
        assert report["inputs"]["units"] == "MeV"

    def test_gev_default(self, capsys):
        code, report = run_json(capsys, ["mu1", "--m", "1.0"])
        assert float(report["outputs"]["mu1"]) == pytest.approx(math.exp(-5.0 / 6.0), rel=1e-11)


class TestRegularizeCommand:
    def test_log_member_report(self, capsys):
        code, report = run_json(capsys, ["regularize", "--n", "2", "--msq", "1.0"])
        assert code == 0
        assert report["outputs"]["unit"] == "i/(16*pi^2)"
        terms = report["outputs"]["terms"]
        assert terms == [{"coefficient": "-1", "msq_power": "0", "log": True}]
        assert report["outputs"]["unfixed_constants"] == "1"
        assert report["ledger"][0]["name"] == "C1"
        assert report["ledger"][0]["status"] == "unfixed"

    def test_aliased_scale_enables_numeric_value(self, capsys):
        code, report = run_json(capsys, ["regularize", "--n", "2", "--msq", "1.0", "--mu1", "1.0"])
        assert code == 0
        assert report["ledger"][0]["status"] == "fixed"
        assert float(report["outputs"]["bracket_at_msq"]) == 0.0

    def test_convergent_member_has_empty_ledger(self, capsys):
        code, report = run_json(capsys, ["regularize", "--n", "3", "--msq", "1.0"])
        assert code == 0
        assert report["ledger"] == []
        assert float(report["outputs"]["bracket_at_msq"]) == pytest.approx(-0.5, rel=1e-12)

    def test_alias_without_constant_rejected(self, capsys):
        code, _, err = run_raw(capsys, ["regularize", "--n", "3", "--mu1", "1.0"])
        assert code == 2
        assert "no dimensionless constant" in err


class TestPhi4Command:
    def test_example_values(self, capsys):
        code, report = run_json(capsys, ["phi4", "--sigma", "1", "--lambda", "6", "--precision", "17"])
        assert code == 0
        out = report["outputs"]
        assert float(out["phi1"]) == pytest.approx(1.0, rel=1e-12)
        assert float(out["m_sigma"]) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert float(out["lambda_renormalized"]) == pytest.approx(6.0 * (1.0 + 54.0 / (32.0 * math.pi**2)), rel=1e-12)
        assert float(out["invariant_ratio"]) == pytest.approx(6.0, rel=1e-12)
        assert (float(out["higgs_lower_bound"]), float(out["higgs_predicted"]), float(out["higgs_upper_bound"])) == (76.0, 138.0, 170.0)

    def test_vacuum_fits_where_its_square_does_not(self, capsys):
        # 6*sigma/lambda overflows, but Phi1 = sqrt(6*sigma/lambda) = 2.449e300 fits: exit 0
        code, report = run_json(capsys, ["phi4", "--sigma", "1e300", "--lambda", "1e-300", "--precision", "17"])
        assert code == 0
        phi1 = Fraction(report["outputs"]["phi1"])
        assert float(phi1**2 * Fraction(1e-300) / (6 * Fraction(1e300))) == pytest.approx(1.0, rel=4e-15)

    def test_higgs_constants_converted_with_units(self, capsys):
        code, report = run_json(capsys, ["phi4", "--sigma", "1e6", "--lambda", "6", "--units", "MeV"])
        assert code == 0
        assert float(report["outputs"]["higgs_predicted"]) == pytest.approx(138000.0)
        assert float(report["outputs"]["phi1"]) == pytest.approx(1000.0)


class TestSelfEnergyCommand:
    def test_default_scale_zeroes_shift(self, capsys):
        code, report = run_json(capsys, ["selfenergy", "--m", "0.000511"])
        assert code == 0
        assert abs(float(report["outputs"]["delta_m"])) < 1e-18
        assert report["outputs"]["constant_coefficient"] == "5"
        assert report["outputs"]["log_coefficient"] == "-3"
        assert report["ledger"][0]["status"] == "fixed"

    def test_explicit_scale(self, capsys):
        code, report = run_json(capsys, ["selfenergy", "--m", "0.000511", "--mu1", "0.000511"])
        expected = 5.0 * (1.0 / 137.036) * 0.000511 / (4.0 * math.pi)
        assert float(report["outputs"]["delta_m"]) == pytest.approx(expected, rel=1e-11)


class TestLambshiftCommand:
    def test_band(self, capsys):
        code, report = run_json(capsys, ["lambshift"])
        assert code == 0
        assert 900.0 <= float(report["outputs"]["lamb_shift_mhz"]) <= 1100.0

    def test_alpha5_past_the_float_range_with_a_small_mass(self, capsys):
        # alpha^5 = 1e310 overflows, yet the estimate, -3.69e28 MHz, fits: it is taken from its log
        mpmath = pytest.importorskip("mpmath")
        from loopreg import qed

        code, report = run_json(capsys, ["lambshift", "--alpha", "1e62", "--m", "1e-300", "--precision", "17"])
        assert code == 0
        with mpmath.workdps(40):
            alpha, m = mpmath.mpf(1e62), mpmath.mpf(1e-300)
            bracket = -2 * mpmath.log(alpha) - mpmath.mpf(qed.DEFAULT_BETHE_LOG) + mpmath.mpf(19) / 30
            exact = float(alpha**5 * m / (6 * mpmath.pi) * bracket * mpmath.mpf(qed.GEV_TO_MHZ))
        assert float(report["outputs"]["lamb_shift_mhz"]) == pytest.approx(exact, rel=1e-12)


class TestResumCommand:
    def test_single_point(self, capsys):
        code, report = run_json(capsys, ["resum", "--lambda0", "0.5", "--mu0", "1.0", "--mu", "2.0"])
        assert code == 0
        assert float(report["outputs"]["coupling"]) == pytest.approx(0.510075171111, rel=1e-10)
        assert report["outputs"]["status"] == "ssb-vacuum"

    def test_status_agrees_with_the_coupling_next_to_the_pole(self, capsys):
        # mu lies within rounding of the critical scale, and the chain is still finite there
        code, report = run_json(
            capsys,
            ["resum", "--lambda0", "5.398498348890079", "--mu0", "3.772246373507371", "--mu", "97.30272273994002", "--precision", "17"],
        )
        assert code == 0
        assert report["outputs"]["coupling"] == "48625350304843192"
        assert report["outputs"]["status"] == "ssb-vacuum"

    def test_status_below_the_pole(self, capsys):
        # a printed report lies below the pole (at or past it the coupling exits 3), so it says ssb-vacuum
        code, report = run_json(capsys, ["resum", "--lambda0", "1", "--mu0", "1", "--mu", "4.1e7"])
        assert code == 0
        assert float(report["outputs"]["critical_scale"]) == pytest.approx(4.1697985644e7, rel=1e-10)
        assert report["outputs"]["status"] == "ssb-vacuum"
        assert report["provenance"]["status"] == (
            "ssb-vacuum below the critical scale; at or past it the coupling has a pole and the request exits 3 without a report"
        )

    def test_pole_is_numeric_failure(self, capsys):
        code, _, err = run_raw(capsys, ["resum", "--lambda0", "1.0", "--mu0", "1.0", "--mu", "1e9"])
        assert code == 3
        assert "pole" in err

    def test_sweep_csv(self, capsys):
        code, out, _ = run_raw(
            capsys,
            ["resum", "--lambda0", "1.0", "--mu0", "1.0", "--mu-min", "1.0", "--mu-max", "1e9",
             "--mu-points", "10", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mu,coupling,status"
        assert len(lines) == 11
        assert any(line.endswith(",pole") and ",," in line for line in lines[1:])

    def test_sweep_plot_data_skips_poles(self, capsys):
        code, out, _ = run_raw(
            capsys,
            ["resum", "--lambda0", "1.0", "--mu0", "1.0", "--mu-min", "1.0", "--mu-max", "1e9",
             "--mu-points", "10", "--format", "plot-data"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert 0 < len(lines) < 10
        for line in lines:
            x, y = line.split()
            float(x), float(y)

    def test_sweep_needs_both_bounds(self, capsys):
        code, _, err = run_raw(capsys, ["resum", "--lambda0", "1.0", "--mu0", "1.0", "--mu-min", "1.0"])
        assert code == 2


class TestOracleCommand:
    def test_json_report(self, capsys):
        code, report = run_json(capsys, ["oracle", "--n", "2", "--msq", "1.0"])
        assert code == 0
        assert report["outputs"]["signature_kind"] == "log"
        assert float(report["outputs"]["asymptote_constant"]) == pytest.approx(-0.5, abs=1e-6)
        assert len(report["outputs"]["rows"]) == 5

    def test_csv_sweep(self, capsys):
        code, out, _ = run_raw(
            capsys, ["oracle", "--n", "3", "--msq", "1.0", "--grid", "10,100,1000,10000", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "cutoff,radial,unit_multiple"
        assert len(lines) == 5
        last = lines[-1].split(",")
        assert float(last[2]) == pytest.approx(-0.5, rel=1e-6)

    def test_plot_data(self, capsys):
        code, out, _ = run_raw(
            capsys, ["oracle", "--n", "2", "--msq", "1.0", "--grid", "10,100,1000", "--format", "plot-data"]
        )
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert [float(r[0]) for r in rows] == [10.0, 100.0, 1000.0]

    def test_tiny_mass_keeps_its_quadratic_signature(self, capsys):
        # the quadrature runs in t = k/sqrt(M^2), so k^3 underflowing at
        # k ~ 1e-145 no longer zeroes every radial
        code, report = run_json(capsys, ["oracle", "--n", "1", "--msq", "1e-300"])
        assert code == 0
        assert report["outputs"]["signature_kind"] == "quadratic"
        radials = [float(row["radial"]) for row in report["outputs"]["rows"]]
        assert radials[-1] == pytest.approx(0.5e-288, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("msq", ["1e300", "1e-300", "0.7", "5"])
    def test_asymptote_at_any_mass(self, capsys, msq):
        # the fit runs in (cutoff_top/cutoff)^2, which neither underflows nor overflows
        code, report = run_json(capsys, ["oracle", "--n", "2", "--msq", msq, "--precision", "17"])
        assert code == 0
        expected = -0.5 * math.log(float(msq)) - 0.5
        assert abs(float(report["outputs"]["asymptote_constant"]) - expected) < 1e-6

    def test_unmeetable_tolerance_is_numeric_failure(self, capsys):
        code, _, err = run_raw(capsys, ["oracle", "--n", "2", "--msq", "1.0", "--rel-tol", "1e-30"])
        assert code == 3
        assert "quadrature" in err.lower()

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--n", "1", "--msq", "1", "--grid", "10,100,1000"],
            ["oracle", "--n", "2", "--msq", "1", "--grid", "10,100,1000,10000"],
        ],
    )
    def test_grid_too_short_for_the_fits_rejected_before_quadrature(self, capsys, integrations, argv):
        code, out, err = run_raw(capsys, argv)
        assert (code, out) == (2, "")
        assert "need at least 4 cutoffs" in err
        assert integrations() == 0

    @pytest.mark.parametrize(
        "argv, cutoffs",
        [
            (["oracle", "--n", "2", "--msq", "1"], 5),
            (["oracle", "--n", "3", "--msq", "1"], 5),
            (["oracle", "--n", "2", "--msq", "1", "--grid", "1,10,100,1e3,1e4,1e5,1e6"], 7),
        ],
    )
    def test_json_report_integrates_each_cutoff_once(self, capsys, monkeypatch, argv, cutoffs):
        from loopreg import oracle

        calls = []
        radial_integral = oracle.radial_integral

        def counted(*args):
            calls.append(args)
            return radial_integral(*args)

        monkeypatch.setattr(oracle, "radial_integral", counted)
        code, report = run_json(capsys, argv)
        assert code == 0
        assert len(report["outputs"]["rows"]) == cutoffs
        assert len(calls) == cutoffs

    @pytest.mark.parametrize(
        "n, msq, grid",
        [("6", "1", "1e30"), ("6", "1e-60", "1"), ("2", "1e-300", "1e-70,1e-60")],
    )
    def test_cutoffs_far_above_the_mass_stay_finite(self, capsys, n, msq, grid):
        # t^3/(t^2+1)^n overflows there; the integrand falls back to t^(3-2n)/(1+t^-2)^n
        argv = ["oracle", "--n", n, "--msq", msq, "--grid", grid, "--format", "csv", "--precision", "17"]
        code, out, _ = run_raw(capsys, argv)
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cutoff, radial, _ = (float(v) for v in line.split(","))
            exact = radial_analytic(int(n), float(msq), cutoff)
            assert abs(radial - exact) <= 1e-10 * exact

    def test_bad_grid_string_rejected(self, capsys):
        code, _, err = run_raw(capsys, ["oracle", "--n", "2", "--msq", "1.0", "--grid", "10,abc"])
        assert code == 2
        assert "argument --grid" in err


# argv that must exit 2 or 3 with nothing on stdout, and a text its stderr must hold
_FAILURES = [
    (["selfenergy", "--m", "1e308", "--mu1", "1e-308"], 3, "numeric failure: delta_m must be finite, got -inf"),
    (["lambshift", "--alpha", "1e62"], 3, "numeric failure: lamb_shift_mhz is not finite: -inf\n"),  # the true value is -1.9e325
    (["resum", "--lambda0", "0.0105", "--mu0", "249.56", "--mu", "2.99e7"], 3, "numeric failure"),
    (["regularize", "--n", "2", "--msq", "1", "--mu1", "inf"], 2, "error"),
    (["phi4", "--sigma", "inf", "--lambda", "1"], 2, "error"),
    (["oracle", "--n", "2", "--msq", "1", "--grid", "10,100,nan"], 2, "error"),
    (["phi4", "--sigma", "1.7e308", "--lambda", "1e-310"], 3, "numeric failure: phi1 is not finite: inf\n"),  # Phi1 = 3.2e309
    (["phi4", "--sigma", "1", "--lambda", "1e300"], 3, "numeric failure"),
    (["oracle", "--n", "1", "--msq", "1e300", "--grid", "1e156", "--format", "csv"], 3, "numeric failure"),
    # a result past the float range, not a bad input: exit 3
    (["lambshift", "--alpha", "3", "--m", "1e300", "--bethe-log", "3"], 3, "numeric failure"),
    (["resum", "--lambda0", "1.7e308", "--mu0", "1.46e-255", "--mu", "1e-300"], 3, "numeric failure"),
    (["resum", "--lambda0", "137", "--mu0", "137", "--mu", "137", "--b", "1.7e308"], 3, "numeric failure"),
    (["selfenergy", "--m", "1.7e308", "--mu1", "1"], 3, "numeric failure"),
    (["regularize", "--n", "4", "--msq", "1e-200"], 3, "numeric failure: bracket past the float range: (M^2)^-2 at mass_sq=1e-200\n"),
    # the ledger entry's own check of a scale alias, C = -ln(mu^2)
    (["regularize", "--n", "2", "--msq", "1", "--mu1", "0"], 2, "error: scale must be positive, got 0.0\n"),
    # a power of M^2 past the float range names the quantity it was computing
    (["oracle", "--n", "400", "--msq", "1e-300"], 3, "numeric failure: radial integral past the float range for power=400, mass_sq=1e-300,"),
    (["regularize", "--n", "50", "--msq", "1e-200"], 3, "numeric failure: bracket past the float range: (M^2)^-48 at mass_sq=1e-200\n"),
    # 2*b*lambda0 underflows to 0: the pole scale is past the float range, as where the exponent overflows
    (["resum", "--lambda0", "5e-324", "--mu0", "1e200", "--b", "1e-154"], 3, "numeric failure: critical_scale is not finite: inf\n"),
    # a scale the library derives underflows to 0: a numeric failure, not a bad input
    (["selfenergy", "--m", "5e-324"], 3, "numeric failure: mu1 = m*exp(-5/6) underflows to 0 at m=5e-324\n"),
    (["mu1", "--m", "5e-324"], 3, "numeric failure: mu1 = m*exp(-5/6) underflows to 0 at m=5e-324\n"),
    # Phi1 = 1.9e-314 fits as sqrt(6)*sqrt(sigma)/sqrt(lambda); the one-loop coupling does not
    (["phi4", "--sigma", "1e-320", "--lambda", "1.7e308"], 3, "numeric failure: lambda_renormalized is not finite: inf\n"),
    # the CLI's own check of the evaluation point, made after the integral's check of its power
    (["regularize", "--n", "2", "--msq", "0"], 2, "error: numeric mass_sq must be positive, got 0.0\n"),
    (["regularize", "--n", "3", "--msq", "-1"], 2, "error: numeric mass_sq must be positive, got -1.0\n"),
    (["regularize", "--n", "0", "--msq", "-1"], 2, "error: denominator power must be a positive integer, got 0\n"),
    # a typed positive value that --units MeV turns into 0 is refused as typed, before any computation
    (["mu1", "--m", "1e-321", "--units", "MeV"], 2, "error: 1e-321 MeV underflows to 0 in GeV\n"),
    (
        ["resum", "--lambda0", "3.73501e+231", "--mu0", "6.96681e-200", "--mu-min", "5e-324", "--mu-max", "1.1722e-312", "--mu-points", "5", "--units", "MeV"],
        2,
        "error: 5e-324 MeV underflows to 0 in GeV\n",
    ),
    # a subcommand's flag typed before the subcommand is named, not taken for a bad subcommand
    (["--units", "MeV", "mu1", "--m", "1"], 2, "loopreg: error: --units goes after the subcommand: loopreg <subcommand> --units ...\n"),
    (["--precision", "5", "regularize", "--n", "2"], 2, "loopreg: error: --precision goes after the subcommand: loopreg <subcommand> --precision ...\n"),
]


class TestExitCodes:
    def test_unknown_flag_usage_error(self, capsys):
        code, _, err = run_raw(capsys, ["mu1", "--m", "1.0", "--bogus"])
        assert code == 2
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_raw(capsys, ["frobnicate"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["mu1", "--m", "-1.0"], ["oracle", "--n", "2", "--msq", "-1"]],
        ids=lambda argv: argv[0],
    )
    def test_validation_error(self, capsys, argv):
        code, _, err = run_raw(capsys, argv)
        assert code == 2
        assert "must be positive" in err

    def test_precision_window(self, capsys):
        code, _, err = run_raw(capsys, ["mu1", "--m", "1.0", "--precision", "3"])
        assert code == 2
        code, _, err = run_raw(capsys, ["mu1", "--m", "1.0", "--precision", "18"])
        assert code == 2

    @pytest.mark.parametrize("fmt", ["csv", "plot-data"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["regularize", "--n", "2", "--msq", "1.0"],
            # computed, these two would be numeric failures (exit 3): the format is checked first
            ["selfenergy", "--m", "1", "--mu1", "1e-320"],
            ["resum", "--lambda0", "1", "--mu0", "1", "--mu", "1e9"],
            ["mu1", "--m", "1.0"],
            ["lambshift"],
            ["phi4", "--sigma", "1", "--lambda", "6"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_csv_rejected_for_non_sweep(self, capsys, argv, fmt):
        code, out, err = run_raw(capsys, [*argv, "--format", fmt])
        assert code == 2
        assert out == ""
        assert "has no sweep output" in err

    # each id names a case by its position and exit code, not by its message
    @pytest.mark.parametrize(
        "argv, expected, message", _FAILURES, ids=[f"argv{i}-{code}" for i, (_, code, _) in enumerate(_FAILURES)]
    )
    def test_failure_exits_without_report(self, capsys, argv, expected, message):
        code, out, err = run_raw(capsys, argv)
        assert code == expected
        assert out == ""
        assert message in err

    # scales whose square (or the ratio of squares) leaves the float range, though each log does not
    @pytest.mark.parametrize(
        "m, mu1",
        [("1e-200", "1"), ("1e-200", None), ("1e200", None), ("1", "1e200"), ("1", "1e-320"), ("1e154", "1e-154")],
    )
    def test_selfenergy_carries_the_scale_log_as_logs(self, capsys, m, mu1):
        code, report = run_json(capsys, ["selfenergy", "--m", m] + (["--mu1", mu1] if mu1 else []))
        assert code == 0
        mu1_used = float(report["outputs"]["mu1_used"])
        log_ratio = 2.0 * (math.log(float(m)) - math.log(mu1_used))
        assert float(report["outputs"]["log_ratio"]) == pytest.approx(log_ratio, rel=1e-11)
        assert float(report["ledger"][0]["value"]) == pytest.approx(-2.0 * math.log(mu1_used), rel=1e-11)
        delta_m = float(report["outputs"]["delta_m"])
        assert math.isfinite(delta_m) and (mu1 or abs(delta_m) < 1e-15 * float(m))

    # alpha^5 underflows to 0 while ln(1/alpha^2) = -2 ln(alpha) stays finite: the estimate is 0, not a failure
    @pytest.mark.parametrize("alpha", ["1e-160", "1e-200"])
    def test_lambshift_tiny_alpha_estimates_zero(self, capsys, alpha):
        code, report = run_json(capsys, ["lambshift", "--alpha", alpha])
        assert code == 0
        assert report["outputs"]["lamb_shift_mhz"] == "0"

    @pytest.mark.parametrize("mu1", ["1e-170", "1e200", "5e-324", "1.7e308"])
    def test_regularize_aliases_any_positive_scale(self, capsys, mu1):
        code, report = run_json(capsys, ["regularize", "--n", "2", "--msq", "1", "--mu1", mu1])
        assert code == 0
        constant = -2.0 * math.log(float(mu1))
        assert float(report["ledger"][0]["value"]) == pytest.approx(constant, rel=1e-11)
        assert float(report["outputs"]["bracket_at_msq"]) == pytest.approx(-constant, rel=1e-11)


def _fresh_python(*args, path=()):
    """A fresh interpreter run with this checkout's ``loopreg`` first on its path, then the directories ``path``."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, *path, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


@functools.cache
def _cold_imports(argv):
    """Every module a fresh ``python -S -X importtime -m loopreg.cli ARGV`` imported.

    ``-S``, because a ``.pth`` file in site-packages may import typing or pathlib
    before loopreg runs and hide its own imports; site-packages stays on the
    path, so an import of scipy or numpy still succeeds where they are installed.
    """
    proc = _fresh_python("-S", "-X", "importtime", "-m", "loopreg.cli", *argv, path=site.getsitepackages())
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "imported package" not in line
    }


_QED = {"qed", "kernel", "feynpar"}
#: each subcommand's argv and the library modules it loads (``loopreg.cli`` itself runs as ``__main__``)
_COLD = [
    (("regularize", "--n", "2", "--msq", "1.0", "--mu1", "0.5"), {"kernel"}),
    (("selfenergy", "--m", "0.000511"), _QED),
    (("mu1", "--m", "1.0"), _QED),
    (("lambshift",), _QED),
    (("phi4", "--sigma", "1", "--lambda", "6"), {"phi4"}),
    (("resum", "--lambda0", "0.5", "--mu0", "1.0", "--mu", "2.0"), {"phi4"}),
    # quadrature and root finding are pure Python too: no subcommand loads scipy
    (("oracle", "--n", "2", "--msq", "1"), {"oracle"}),
    (("demo",), {"checks", "feynpar", "kernel", "oracle", "phi4", "qed"}),
]

_LAZY_PROBE = """
import sys, loopreg
loaded = lambda: sorted(m for m in sys.modules if m.startswith("loopreg."))
print(loaded())
print(type(loopreg.oracle).__name__, loopreg.oracle.__name__, loaded())
try:
    loopreg.nope
except AttributeError as exc:
    print(exc)
"""


class TestColdImport:
    """One cold run per subcommand (``_cold_imports``, cached) serves every import rule below."""

    @pytest.mark.parametrize("argv", [argv for argv, _ in _COLD])
    def test_closed_form_subcommands_start_without_scipy(self, argv):
        assert {name.split(".")[0] for name in _cold_imports(argv)} & {"scipy", "numpy"} == set()

    @pytest.mark.parametrize("argv, modules", _COLD, ids=[argv[0] for argv, _ in _COLD])
    def test_subcommand_loads_only_its_modules(self, argv, modules):
        loaded = {name.split(".", 1)[1] for name in _cold_imports(argv) if name.startswith("loopreg.")}
        assert loaded == modules

    @pytest.mark.parametrize("argv", [argv for argv, _ in _COLD], ids=[argv[0] for argv, _ in _COLD])
    def test_no_subcommand_imports_dataclasses(self, argv):
        # the value types are slots records: dataclasses and the inspect it pulls in cost ~10 ms per call
        assert _cold_imports(argv) & {"dataclasses", "inspect"} == set()

    @pytest.mark.parametrize("argv", [argv for argv, _ in _COLD], ids=[argv[0] for argv, _ in _COLD])
    def test_no_subcommand_imports_typing_or_pathlib(self, argv):
        assert _cold_imports(argv) & {"typing", "pathlib"} == set()

    def test_package_exposes_its_modules_only(self):
        proc = _fresh_python("-c", "import loopreg; print(' '.join(sorted(n for n in dir(loopreg) if not n.startswith('_'))))")
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["feynpar", "kernel", "oracle", "phi4", "qed"]

    def test_modules_load_on_first_use(self):
        proc = _fresh_python("-c", _LAZY_PROBE)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines() == [
            "[]",
            "module loopreg.oracle ['loopreg.oracle']",
            "module 'loopreg' has no attribute 'nope'",
        ]


class TestParserReuse:
    """Every ``run`` in a process shares one parser, built on first use."""

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_parsing_leaves_no_state_behind(self, capsys):
        valid = ["selfenergy", "--m", "0.000511"]  # also reads the --alpha default
        usage_error = ["regularize"]  # --n missing
        before = run_raw(capsys, valid)
        results = {
            tuple(argv): run_raw(capsys, argv)
            for argv in (["--help"], ["oracle", "--help"], usage_error, ["bogus"], ["oracle", "--n", "2", "--msq", "inf"])
        }
        assert run_raw(capsys, valid) == before
        assert before[0] == 0
        first_error = results[tuple(usage_error)]
        assert first_error[0] == 2 and "--n" in first_error[2]
        assert run_raw(capsys, usage_error) == first_error

    def test_alpha_and_bethe_log_defaults_are_read_per_call(self, capsys):
        from loopreg import qed

        before = run_json(capsys, ["lambshift"])[1]
        with mock.patch.object(qed, "DEFAULT_ALPHA", 0.01), mock.patch.object(qed, "DEFAULT_BETHE_LOG", 3.0):
            code, patched = run_json(capsys, ["lambshift"])
            assert run_json(capsys, ["selfenergy", "--m", "1"])[1]["inputs"]["alpha"] == "0.01"
        assert code == 0
        assert (patched["inputs"]["alpha"], patched["inputs"]["bethe_log"]) == ("0.01", "3.0")
        assert patched["outputs"] != before["outputs"]
        assert run_json(capsys, ["lambshift"])[1] == before

    def test_import_does_not_build_the_parser(self):
        proc = _fresh_python("-c", "import loopreg.cli as cli; print(cli._build_parser.cache_info().currsize)")
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "0"


# argv whose first string names a subcommand are parsed by that subparser alone; these pin that the
# messages, exit codes and reports are what the top-level parser's parse_args gives for each of them
_DISPATCH_ARGV = [
    # trailing unknown flags and positionals
    ["mu1", "--m", "1", "--bogus"],
    ["mu1", "--m", "1", "extra", "--bogus", "x"],
    ["regularize", "--n", "2", "-x"],
    ["demo", "x"],
    # help of a subcommand, also by an abbreviated flag
    ["mu1", "-h"],
    ["oracle", "--he"],
    # a missing required flag, a bad choice, an ambiguous abbreviation, an abbreviated flag
    ["regularize"],
    ["phi4", "--sigma", "1"],
    ["mu1", "--m", "1", "--units", "KeV"],
    ["oracle", "--n", "2", "--msq", "1", "--format", "xml"],
    ["regularize", "--n", "2", "--m", "1"],
    ["resum", "--lambda0", "1", "--mu0", "1", "--mu-min", "1", "--mu-max", "10", "--mu-p", "4"],
    # --flag=value forms and --
    ["regularize", "--n=3", "--msq=2"],
    ["regularize", "--n=3", "--", "x"],
    ["mu1", "--m", "1", "--", "--bogus"],
    ["mu1", "--", "--m", "1"],
    # what the top-level parser still parses itself
    ["--units", "MeV", "mu1", "--m", "1"],
    [],
    ["frobnicate"],
    ["--he"],
    # ordinary reports
    ["selfenergy", "--m", "0.000511", "--units", "MeV", "--precision", "7"],
    ["resum", "--lambda0", "1", "--mu0", "1", "--mu-min", "1", "--mu-max", "1e9", "--mu-points", "4", "--format", "csv"],
]


class TestDispatch:
    @pytest.mark.parametrize("argv", _DISPATCH_ARGV, ids=lambda argv: " ".join(argv) or "no-argv")
    def test_matches_the_top_level_parser(self, capsys, argv):
        parser, _ = cli._build_parser()
        with mock.patch.object(cli, "_build_parser", return_value=(parser, {})):  # no subcommand dispatches
            expected = run_raw(capsys, argv)
        assert run_raw(capsys, argv) == expected

    def test_subcommand_argv_is_parsed_once(self, capsys):
        parser, _ = cli._build_parser()
        with mock.patch.object(parser, "parse_args", side_effect=AssertionError("parsed by the top-level parser")):
            assert run_raw(capsys, ["mu1", "--m", "1"])[0] == 0


class TestConfigResolution:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "loopreg.cfg"
        cfg.write_text("# settings\nunits=MeV\nprecision=5\n")
        code, report = run_json(capsys, ["mu1", "--m", "0.511", "--config", str(cfg)])
        assert code == 0
        assert report["outputs"]["mu1"] == "0.22208"

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "loopreg.cfg"
        cfg.write_text("unitz=MeV\n")
        code, _, err = run_raw(capsys, ["mu1", "--m", "1.0", "--config", str(cfg)])
        assert code == 2
        assert "unknown config key" in err

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "loopreg.cfg"
        cfg.write_text("precision=5\n")
        code, report = run_json(capsys, ["mu1", "--m", "1.0", "--config", str(cfg), "--precision", "10"])
        assert report["inputs"]["precision"] == "10"

    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("LOOPREG_PRECISION", "6")
        code, report = run_json(capsys, ["mu1", "--m", "1.0"])
        assert report["inputs"]["precision"] == "6"
        assert len(report["outputs"]["mu1"].replace("0.", "")) == 6

    def test_env_yields_to_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("LOOPREG_PRECISION", "6")
        code, report = run_json(capsys, ["mu1", "--m", "1.0", "--precision", "9"])
        assert report["inputs"]["precision"] == "9"

    def test_bad_env_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("LOOPREG_PRECISION", "lots")
        code, _, err = run_raw(capsys, ["mu1", "--m", "1.0"])
        assert code == 2


_ROUND_TRIP_ARGV = [
    ["mu1", "--m", "0.511", "--units", "MeV", "--precision", "7"],
    ["phi4", "--sigma", "1.7", "--lambda", "3.3", "--precision", "10"],
    ["selfenergy", "--m", "0.000511", "--mu1", "0.0003", "--precision", "14"],
    ["resum", "--lambda0", "0.5", "--mu0", "1.0", "--mu", "2.0", "--precision", "9"],
    ["lambshift", "--m", "0.000511", "--bethe-log", "2.8118", "--precision", "8"],
    ["regularize", "--n", "2", "--msq", "1.25", "--mu1", "0.4", "--precision", "11"],
    ["oracle", "--n", "2", "--msq", "1.0", "--grid", "100,1000,1e4,1e5,1e6", "--precision", "10"],
    # the default grid echoed in MeV
    ["oracle", "--n", "1", "--msq", "0.141649", "--units", "MeV", "--precision", "15"],
]


class TestRoundTrip:
    @pytest.mark.parametrize("argv", _ROUND_TRIP_ARGV)
    def test_reparsed_inputs_reproduce_report_bitwise(self, capsys, argv):
        code, out1, _ = run_raw(capsys, argv)
        assert code == 0
        report = json.loads(out1)
        rebuilt = [report["subcommand"]]
        for key, value in report["inputs"].items():
            if value is None:
                continue
            flag = "--" + key.replace("_", "-")
            rebuilt.extend([flag, str(value)])
        code2, out2, _ = run_raw(capsys, rebuilt)
        assert code2 == 0
        assert out2 == out1


class TestDemo:
    def test_demo_passes_all_gates(self, capsys):
        from loopreg import checks

        code, out, _ = run_raw(capsys, ["demo"])
        assert code == 0
        assert "FAIL" not in out
        assert "ALL CHECKS PASSED" in out
        # demo prints the very table the acceptance gate asserts, in order
        passed = [line.split("  ")[1] for line in out.splitlines() if line.startswith("PASS  ")]
        assert passed == [check.name for check in checks.CHECKS]

    def test_demo_ignores_format(self, capsys):
        code, out, _ = run_raw(capsys, ["demo", "--format", "csv"])
        assert code == 0
        assert "ALL CHECKS PASSED" in out

    def test_demo_fails_loudly_when_a_check_breaks(self, capsys, monkeypatch):
        from loopreg import qed

        monkeypatch.setattr(qed, "lamb_shift_estimate", lambda *a, **k: 1.0)
        code, out, _ = run_raw(capsys, ["demo"])
        assert code == 3
        assert "FAIL" in out
        assert "SOME CHECKS FAILED" in out


# float flag values at and past the edges of the float range
_EXTREME = st.sampled_from(["0", "-0", "5e-324", "1e-300", "1e-154", "1", "1e154", "1e300", "1.7e308", "-1"])
# mixed with ordinary magnitudes 10^U(-6, 6), typed to six digits, so more reports are rendered
_FLOAT = st.one_of(_EXTREME, st.floats(-6.0, 6.0).map(lambda e: f"{10.0**e:.6g}"))
_VALUES = {"--n": st.integers(1, 6).map(str), "--grid": st.lists(_FLOAT, min_size=1, max_size=5).map(",".join)}
# each subcommand's flags, and whether the flag is required
_FLAGS = {
    "regularize": (("--n", True), ("--msq", False), ("--mu1", False)),
    "selfenergy": (("--m", True), ("--alpha", False), ("--mu1", False)),
    "mu1": (("--m", True),),
    "lambshift": (("--alpha", False), ("--m", False), ("--bethe-log", False)),
    "phi4": (("--sigma", True), ("--lambda", True)),
    "resum": (("--lambda0", True), ("--mu0", True), ("--b", False), ("--mu", False), ("--mu-min", False), ("--mu-max", False)),
    "oracle": (("--n", True), ("--msq", True), ("--grid", False), ("--rel-tol", False)),
    "demo": (),
}


@st.composite
def _argv(draw):
    subcommand = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [subcommand]
    for flag, required in _FLAGS[subcommand]:
        if required or draw(st.booleans()):
            argv += [flag, draw(_VALUES.get(flag, _FLOAT))]
    if subcommand in ("resum", "oracle") and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["csv", "plot-data"]))]
    if draw(st.booleans()):
        argv += ["--units", "MeV"]
    return argv


class TestContract:
    """The CLI contract over hundreds of generated argv, all parsed by the one parser of this process."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(_argv())
    def test_every_argv_exits_0_2_or_3_and_prints_only_finite_numbers(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue(), argv
        if code == 3:  # a numeric failure names its quantity, never with Python's bare float-error text
            assert not re.search("Numerical result out of range|division by zero|math range error", err.getvalue()), (argv, err.getvalue())
        if code == 0:
            assert not re.search(r"\b(inf|nan)\b", out.getvalue(), re.IGNORECASE), (argv, out.getvalue())


def _rendered(render, subcommand, report, cfg):
    """What a renderer writes to stdout, and the message of the OverflowError it raises, if any."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            render(subcommand, report, cfg)
    except OverflowError as exc:
        return out.getvalue(), str(exc)
    return out.getvalue(), None


def _reports(argv):
    """Every (subcommand, report, config) that ``run(argv)`` hands to the renderer."""
    calls = []
    with mock.patch.object(cli, "_render", side_effect=lambda *args: calls.append(args)):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.run(argv)
    return calls


_NON_ASCII = "\u03bc\u2081 \u2192 \u221e, na\u00efve \"q\" \\ \t \u2028 \U0001d53c"


class TestOnePassRenderer:
    """``cli._render`` writes the bytes of formatting each number, then ``json.dumps(indent=2)``."""

    def assert_renders_as_two_pass(self, subcommand, report, cfg):
        assert _rendered(cli._render, subcommand, report, cfg) == _rendered(render_two_pass, subcommand, report, cfg)

    @pytest.mark.parametrize("argv", _ROUND_TRIP_ARGV)
    def test_round_trip_reports(self, argv):
        (call,) = _reports(argv)
        self.assert_renders_as_two_pass(*call)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(_argv())
    def test_generated_argv(self, argv):
        for call in _reports(argv):
            self.assert_renders_as_two_pass(*call)

    @pytest.mark.parametrize("precision", [4, 17])
    @pytest.mark.parametrize(
        "report",
        [
            cli.Report({}, []),
            cli.Report({"flag": True, "none": None, "empty": ""}, [("empty_list", [], ""), ("empty_dict", {}, ""), ("nested", [[], {}, [{}]], "")], [{}]),
            cli.Report({}, [("none", None, "null"), ("flags", [True, False, None], "bools stay bools")], ({"fixed": False},)),
            cli.Report({_NON_ASCII: _NON_ASCII}, [(_NON_ASCII, {_NON_ASCII: [_NON_ASCII]}, _NON_ASCII)]),
            cli.Report({"x": 0.1, "q": Fraction(1, 3)}, [("numbers", [Fraction(-5, 3), 7, -0.0, 1e300, 5e-324, 2.0 / 3.0], "")], [{"value": Fraction(5)}]),
            # a number that is not finite is refused under its field's name, before anything is written
            cli.Report({}, [("fine", 1.0, ""), ("deep", [1.0, {"x": math.nan}], ""), ("later", math.inf, "")]),
            cli.Report({}, [("fine", 1.0, "")], [{"value": 2.0}, {"value": -math.inf}]),
            # rows that do not share their keys: an unfixed constant, then a fixed one whose row adds its value
            cli.Report(
                {},
                [],
                [
                    {"name": "C1", "mass_dimension": 0, "coefficient": Fraction(-1), "msq_power": 1, "status": "unfixed"},
                    {"name": "C2", "mass_dimension": 2, "coefficient": Fraction(-1), "msq_power": 0, "status": "fixed", "value": 0.25},
                ],
            ),
            # rows with the same keys in another order
            cli.Report({}, [("rows", [{"mu": 1.0, "coupling": 0.5, "status": "ok"}, {"status": "pole", "mu": 2.0, "coupling": None}], "")]),
        ],
    )
    def test_edge_values(self, report, precision):
        self.assert_renders_as_two_pass("\u03b4m", report, cli.RunConfig(precision=precision))

    @pytest.mark.parametrize("fmt", ["csv", "plot-data"])
    @pytest.mark.parametrize(
        "rows",
        [
            [{"mu": 1.0, "coupling": None, "status": "pole"}, {"mu": 2.5, "coupling": 0.125, "status": _NON_ASCII}],
            [{"\u03bc": Fraction(1, 3), "\u03bb": 2, "\u00e9": "ok"}],
            [{"cutoff": 1.0, "radial": None, "unit_multiple": math.nan}],
            [{"cutoff": 1.0, "radial": 2.0, "unit_multiple": 3.0}, {"cutoff": math.inf, "radial": 1.0, "unit_multiple": 0.5}],
        ],
    )
    def test_sweep_cells(self, rows, fmt):
        report = cli.Report({}, [("rows", rows, "")])
        self.assert_renders_as_two_pass("oracle", report, cli.RunConfig(precision=9, out_format=fmt))
