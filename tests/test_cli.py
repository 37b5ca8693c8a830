import collections
import contextlib
import functools
import io
import json
import math
import os
import random
import re
import site
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from loopreg import cli

from references import _perfbench, bench_checker, bench_workloads, render_two_pass
from test_golden import _read as golden_entries

radial_analytic = bench_checker().radial


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

    def test_a_repeated_power_is_reduced_once_per_process(self, capsys, monkeypatch):
        from loopreg import kernel

        calls = []
        real = kernel.integrate_back
        monkeypatch.setattr(kernel, "integrate_back", lambda value, times: calls.append(times) or real(value, times))
        kernel.regularize.cache_clear()
        cli._power_fields.cache_clear()  # which keeps the reduced value of each power it has seen
        first, second = run_raw(capsys, ["regularize", "--n", "1"]), run_raw(capsys, ["regularize", "--n", "1"])
        assert first == second and first[0] == 0
        assert calls == [2]

    def test_a_power_renders_its_expression_once_per_process(self, capsys, monkeypatch):
        from loopreg import kernel

        assert run_raw(capsys, ["regularize", "--n", "2"])[0] == 0
        calls = []
        real = kernel.RegularizedValue.render
        monkeypatch.setattr(kernel.RegularizedValue, "render", lambda self: calls.append(self) or real(self))
        code, report = run_json(capsys, ["regularize", "--n", "2", "--msq", "1", "--mu1", "0.5"])
        assert code == 0 and calls == []
        # the alias fixes C1's value, not the text, so the cached text is what this value renders
        aliased = kernel.regularize(kernel.ScalarLoopIntegral(power=2)).with_scale_alias(1, 0.5)
        assert report["outputs"]["expression"] == real(aliased)

    def test_power_fields_are_kept_per_power_like_the_reduction(self, capsys):
        from loopreg import kernel

        assert cli._power_fields.cache_info().maxsize == kernel.regularize.cache_info().maxsize == 64
        cli._power_fields.cache_clear()
        for n in range(1, 71):
            assert run_raw(capsys, ["regularize", "--n", str(n)])[0] == 0
        assert cli._power_fields.cache_info().currsize == 64

    @pytest.mark.parametrize("argv, most", [(["regularize", "--n", "7", "--msq", "3.7"], 6), (["regularize", "--n", "1"], 5)])
    def test_a_warm_report_lays_out_only_what_its_request_computed(self, capsys, monkeypatch, argv, most):
        # the power's fields and its unaliased ledger are laid out once per power; a warm request lays out its
        # echo, unfixed_constants and the bracket floats (each call of the recursive _json counts)
        assert run_raw(capsys, argv)[0] == 0
        calls = []
        real = cli._json
        monkeypatch.setattr(cli, "_json", lambda *args: calls.append(args[0]) or real(*args))
        assert run_raw(capsys, argv)[0] == 0
        assert len(calls) <= most, calls

    def test_an_alias_leaves_the_power_fields_unchanged(self, capsys):
        plain = run_json(capsys, ["regularize", "--n", "2", "--msq", "1"])[1]
        cached = cli._power_fields(2)
        before = json.dumps(cached, default=str)
        code, aliased = run_json(capsys, ["regularize", "--n", "2", "--msq", "1", "--mu1", "0.5"])
        assert code == 0 and aliased["ledger"] != plain["ledger"]
        assert cli._power_fields(2) is cached and json.dumps(cached, default=str) == before
        fields = cached[1]  # the reduced value, the five leading fields, the unaliased ledger and their text
        assert [aliased["outputs"][name] for name, _, _ in fields] == [plain["outputs"][name] for name, _, _ in fields]


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

    @pytest.mark.parametrize(
        "argv, couplings",
        [
            (["--lambda0", "1e200", "--mu0", "5", "--b", "1e200", "--mu-min", "1", "--mu-max", "10", "--mu-points", "3"], ["3.1066746728e-201", "1.09135666794e-200", None]),
            (["--lambda0", "1e200", "--mu0", "5", "--b", "1e200"], ["1e+200"]),
            (["--lambda0", "137", "--mu0", "137", "--mu", "137", "--b", "1.7e308"], ["137"]),
        ],
    )
    def test_b_lambda0_past_the_float_range(self, capsys, argv, couplings):
        # the denominator 1 - 2 b lambda0 ln(mu/mu0) is inf or nan, though the coupling fits: 3.1066746727980594e-201
        # at mu = 1 (exactly, from the float log), lambda0 itself at mu = mu0, and a pole past it
        code, report = run_json(capsys, ["resum", *argv])
        assert code == 0
        out = report["outputs"]
        assert [row["coupling"] for row in out.get("rows", [out])] == couplings
        assert "rows" in out or out["first_order"] == couplings[0]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_sweep_lays_out_its_rows_in_one_call(self, capsys, monkeypatch, fmt):
        # every cell of a JSON sweep is laid out in one pass and filled into one row template, so its calls of the
        # recursive _json do not grow with the points; csv lays out no JSON
        real, counts = cli._json, []
        for points in ("2", "25", "500"):
            argv = ["resum", "--lambda0", "2", "--mu0", "1", "--mu-min", "0.5", "--mu-max", "1e6", "--mu-points", points, "--format", fmt]
            assert run_raw(capsys, argv)[0] == 0
            calls = []
            monkeypatch.setattr(cli, "_json", lambda *args: calls.append(args[0]) or real(*args))
            code, out, _ = run_raw(capsys, argv)
            monkeypatch.setattr(cli, "_json", real)
            assert code == 0 and "pole" in out
            counts.append(len(calls))
        assert counts == ([4] * 3 if fmt == "json" else [0] * 3)

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

        def counted(power, mass_sq, cutoff, rel_tol):
            calls.append(cutoff)
            return radial_integral(power, mass_sq, cutoff, rel_tol)

        monkeypatch.setattr(oracle, "radial_integral", counted)
        code, report = run_json(capsys, argv)
        assert code == 0
        assert len(report["outputs"]["rows"]) == cutoffs
        # the rows and both fits read the probe's radials, which read each cutoff of the grid once, in grid order
        assert calls == [float(row["cutoff"]) for row in report["outputs"]["rows"]]

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
    # b*lambda0 and 2b*ln(mu/mu0) past the float range below mu0: the truncation, -3.2e313, does not fit
    (["resum", "--lambda0", "137", "--mu0", "137", "--mu", "1", "--b", "1.7e308"], 3, "numeric failure: first_order is not finite: -inf\n"),
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
    # the integrand of so large a power is 0.0 where both of its forms overflow; (M^2)^(2-n) still leaves the float range
    (["oracle", "--n", "5000", "--msq", "1e-300"], 3, "numeric failure: radial integral past the float range for power=5000, mass_sq=1e-300,"),
    # a sweep builds every row before it prints one, so its count is bounded
    (["resum", "--lambda0", "1", "--mu0", "1", "--mu-min", "1", "--mu-max", "2", "--mu-points", "1000000000"], 2, "error: sweep takes at most 100000 points, got 1000000000\n"),
    # a typed MeV mass whose GeV image is subnormal keeps two significant bits: refused as typed, like one that underflows to 0
    (["mu1", "--m", "1e-320", "--units", "MeV"], 2, "error: 1e-320 MeV underflows to the subnormal 1e-323 in GeV\n"),
    # under --units MeV the message quotes the mass and the failing cutoff as typed, not their GeV images
    (["oracle", "--n", "6", "--msq", "1e-290", "--grid", "1e8,1e10", "--format", "csv", "--units", "MeV"], 3, "numeric failure: radial integral past the float range for power=6, mass_sq=1e-290, cutoff=100000000.0\n"),
    # so do resum's pole and regularize's bracket: mu and the critical scale in MeV, M^2 in MeV^2
    (["resum", "--lambda0", "1", "--mu0", "1", "--mu", "1e300", "--units", "MeV"], 3, "numeric failure: resummed coupling has a pole: mu = 1e+300 reaches the critical scale 4.1698e+07\n"),
    (["regularize", "--n", "200", "--msq", "1e-290", "--units", "MeV"], 3, "numeric failure: bracket past the float range: (M^2)^-198 at mass_sq=1e-290\n"),
    # a power that no float holds is quoted by its first six digits and its power of ten, not by its 401 digits
    (["oracle", "--n", str(10**400), "--msq", "1", "--grid", "0.5", "--format", "csv"], 3, "numeric failure: radial integral past the float range for power=1e+400\n"),
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
    (("lambshift",), {"qed"}),
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

    @pytest.mark.parametrize("argv", [argv for argv, _ in _COLD], ids=[argv[0] for argv, _ in _COLD])
    def test_no_subcommand_imports_argparse(self, argv):
        # the declared table parses a well-formed argv: argparse, and the gettext it loads, only help and usage errors
        assert _cold_imports(argv) & {"argparse", "gettext"} == set()

    @pytest.mark.parametrize("argv", [argv for argv, _ in _COLD], ids=[argv[0] for argv, _ in _COLD])
    def test_no_subcommand_imports_json(self, argv):
        # the renderer takes encode_basestring_ascii from the C module _json, not from the json package
        assert _cold_imports(argv) & {"json", "json.encoder", "json.decoder", "json.scanner"} == set()

    @pytest.mark.parametrize("argv", [argv for argv, _ in _COLD if argv[0] in ("phi4", "resum", "oracle")], ids=["phi4", "resum", "oracle"])
    def test_float_subcommands_import_neither_fractions_nor_decimal(self, argv):
        # exact rationals are for the reports that print them: fractions, and the decimal it loads, cost ~2 ms per call
        assert _cold_imports(argv) & {"fractions", "decimal", "_decimal", "_pydecimal"} == set()

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


# argv that the declared table parses without argparse, and argv it hands to argparse; these pin that the
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
        # the parser is built once per process and reused: a second run of the argv prints the same bytes
        expected = run_raw(capsys, argv)
        assert run_raw(capsys, argv) == expected

    def test_subcommand_argv_is_parsed_once(self, capsys):
        parser = cli._build_parser()
        with mock.patch.object(parser, "parse_args", side_effect=AssertionError("parsed by the top-level parser")):
            assert run_raw(capsys, ["mu1", "--m", "1"])[0] == 0


def _argparse_vars(argv):
    """vars() of the namespace the top-level parser makes of argv; None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def _parsed_as_argparse_parses(argv):
    """Whether the declared table parses argv; where it does, its namespace must be the one argparse makes."""
    ns = cli._parse_declared(argv)
    if ns is not None:
        assert vars(ns) == _argparse_vars(argv), argv
    return ns is not None


_OPTION_STRINGS = sorted({option for options in cli._OPTIONS.values() for option in options})
# tokens argparse reads in its own way: abbreviations, --flag=value, --, help, negative numbers, unknown strings
_ODD_TOKENS = ["--ms", "--mu-p", "--n=2", "--m=1", "--units=MeV", "--", "-h", "--help", "-1", "-1e-3", "-.5", "--bogus", "x"]
# values no declared type or choice takes, values another flag's type or choices take, and values that start with -,
# which argparse takes as a value where they look like a negative number (-1, -.5) and as a flag where not (-1e-3, -x)
_ODD_VALUES = ["nan", "inf", "-inf", "abc", "", "1e400", "10,abc", "1.5", "KeV", "xml", "GeV", "csv", "1e2,1e3", "-1", "-.5", "-1e-3", "-x"]


def _fitting(f):
    """Values a declared flag row takes."""
    if f.choices is not None:
        return st.sampled_from(f.choices)
    if f.type is int:
        return st.integers(0, 40).map(str)
    if f.type is None:
        return st.just("loopreg.cfg")
    return st.floats(1e-3, 1e3).map(lambda x: f"{x:.4g}")


@st.composite
def _parse_shapes(draw):
    """A subcommand's well-formed argv (its required flags and some of its others, maybe repeated, with values their
    rows take), then at most one change: an odd value, another flag or an odd token in place of a flag, a flag
    dropped (maybe a required one), or an odd token inserted anywhere, a stray trailing one among them."""
    name = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    options = cli._OPTIONS[name]
    flags = [f.flag for f in options.values() if f.required] + draw(st.lists(st.sampled_from(list(options)), max_size=4))
    pairs = [[flag, draw(_fitting(options[flag]))] for flag in draw(st.permutations(flags))]
    change = draw(st.sampled_from(["none", "value", "flag", "drop", "token"]))
    if pairs and change == "value":
        draw(st.sampled_from(pairs))[1] = draw(st.sampled_from(_ODD_VALUES))
    elif pairs and change == "flag":
        draw(st.sampled_from(pairs))[0] = draw(st.sampled_from(_OPTION_STRINGS + _ODD_TOKENS))
    elif pairs and change == "drop":
        pairs.remove(draw(st.sampled_from(pairs)))
    argv = [name, *(token for pair in pairs for token in pair)]
    if change == "token":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_ODD_TOKENS)))
    return argv


class TestDeclaredParse:
    """``cli._parse_declared`` refuses an argv or makes the namespace the top-level parser makes of it."""

    def test_the_corpus(self):
        taken = sum(_parsed_as_argparse_parses(argv) for _, _, argv in golden_entries())
        # 872 of the 930 corpus argv are well formed; a table that refused them all would parse nothing itself
        assert taken >= 850

    @settings(max_examples=250)
    @given(_parse_shapes())
    def test_generated_shapes(self, argv):
        _parsed_as_argparse_parses(argv)

    @pytest.mark.parametrize(
        "argv, taken",
        [
            (["mu1", "--m", "1", "--m", "2"], True),  # a repeated flag keeps its last value
            (["demo", "--units", "MeV", "--format", "csv"], True),
            (["mu1", "--m", "-1"], False),  # a negative value goes to argparse, which takes it
            (["mu1", "--m", "1", "--units"], False),
            (["phi4", "--sigma", "1"], False),
        ],
    )
    def test_shapes(self, argv, taken):
        assert _parsed_as_argparse_parses(argv) is taken


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

    def test_env_change_takes_effect_on_the_next_run(self, capsys, monkeypatch):
        argv = ["regularize", "--n", "3", "--msq", "3.7"]
        monkeypatch.setenv("LOOPREG_PRECISION", "6")
        first = run_json(capsys, argv)[1]
        monkeypatch.setenv("LOOPREG_PRECISION", "15")
        second = run_json(capsys, argv)[1]
        assert (first["inputs"]["precision"], second["inputs"]["precision"]) == ("6", "15")
        assert (first["outputs"]["bracket_at_msq"], second["outputs"]["bracket_at_msq"]) == (f"{-1 / 3.7 / 2:.6g}", f"{-1 / 3.7 / 2:.15g}")

    def test_rewritten_config_takes_effect_on_the_next_run(self, capsys, tmp_path):
        cfg = tmp_path / "loopreg.cfg"
        argv = ["mu1", "--m", "0.511", "--config", str(cfg)]
        cfg.write_text("units=MeV\nprecision=5\n")
        first = run_json(capsys, argv)[1]
        cfg.write_text("precision=7\n")
        second = run_json(capsys, argv)[1]
        assert (first["inputs"]["units"], first["outputs"]["mu1"]) == ("MeV", "0.22208")
        assert (second["inputs"]["units"], second["inputs"]["precision"], second["outputs"]["mu1"]) == ("GeV", "7", "0.2220797")
        cfg.write_text("format=csv\n")
        assert run_raw(capsys, argv)[0] == 2  # mu1 has no sweep output


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
# regularize at each power 1..70, cycling through a bare report, --msq, --precision 4 and 17 and --units MeV, with
# the aliases of n = 1 and 2; then the same argv from the last back: a process keeps the laid-out text of 64 powers,
# so the second pass finds the last powers warm and lays out the first again after their eviction
_REGULARIZE_SETTINGS = [[], ["--msq", "3.7"], ["--msq", "0.25", "--precision", "4"], ["--msq", "0.5", "--precision", "17"], ["--msq", "2.5e5", "--units", "MeV"]]
_REGULARIZE_ARGV = [["regularize", "--n", str(n), *_REGULARIZE_SETTINGS[(n - 1) % 5]] for n in range(1, 71)] + [
    ["regularize", "--n", "1", "--mu1", "0.5"],
    ["regularize", "--n", "2", "--msq", "1.5", "--mu1", "0.4", "--precision", "4"],
    ["regularize", "--n", "2", "--msq", "2.5e5", "--mu1", "700", "--units", "MeV", "--precision", "17"],
]
_ROUND_TRIP_ARGV += _REGULARIZE_ARGV + _REGULARIZE_ARGV[::-1]


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
# each subcommand's flags, whether the flag is required, and its mass dimension: a value typed in --units^dim,
# which the CLI's own table must declare alike (TestUnits)
_FLAGS = {
    "regularize": (("--n", True, 0), ("--msq", False, 2), ("--mu1", False, 1)),
    "selfenergy": (("--m", True, 1), ("--alpha", False, 0), ("--mu1", False, 1)),
    "mu1": (("--m", True, 1),),
    "lambshift": (("--alpha", False, 0), ("--m", False, 1), ("--bethe-log", False, 0)),
    "phi4": (("--sigma", True, 2), ("--lambda", True, 0)),
    "resum": (("--lambda0", True, 0), ("--mu0", True, 1), ("--b", False, 0), ("--mu", False, 1), ("--mu-min", False, 1), ("--mu-max", False, 1)),
    "oracle": (("--n", True, 0), ("--msq", True, 2), ("--grid", False, 1), ("--rel-tol", False, 0)),
    "demo": (),
}
# flags the generated argv leave out, in the same columns: a drawn float is no point count
_UNDRAWN = {"resum": (("--mu-points", False, 0),)}


@st.composite
def _argv(draw):
    subcommand = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [subcommand]
    for flag, required, _ in _FLAGS[subcommand]:
        if required or draw(st.booleans()):
            argv += [flag, draw(_VALUES.get(flag, _FLOAT))]
    if subcommand in ("resum", "oracle") and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["csv", "plot-data"]))]
    if draw(st.booleans()):
        argv += ["--units", "MeV"]
    return argv


# Both generated-argv properties below draw from one seed, so they see the same argv, and each argv runs through
# ``cli.run`` once: the first property to meet it records the run, the other reads the record.
_GENERATED_ARGV = seed(20260)


@functools.cache
def _recorded_run(argv):
    """Exit code, stdout, stderr and the argument tuple of every ``cli._render`` call of one ``cli.run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_render", wraps=cli._render) as render:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue(), tuple(call.args for call in render.call_args_list)


class TestContract:
    """The CLI contract over hundreds of generated argv, all parsed by the one parser of this process."""

    @_GENERATED_ARGV
    @settings(max_examples=300)
    @given(_argv())
    # grids with two cutoffs whose logarithms round to one double, a step of zero width in ln(Lambda)
    @example(["oracle", "--n", "1", "--msq", "1", "--grid", "100,100.00000000000003,1000,10000,100000"])
    @example(["oracle", "--n", "2", "--msq", "1", "--grid", "100,100.00000000000003,1000,10000,100000,1000000"])
    @example(["oracle", "--n", "3", "--msq", "1", "--grid", "100,1000,10000,99999.99999999999,100000"])
    def test_every_argv_exits_0_2_or_3_and_prints_only_finite_numbers(self, argv):
        code, out, err, _ = _recorded_run(tuple(argv))
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in out + err, argv
        if code == 3:  # a numeric failure names its quantity, never with Python's bare float-error text
            assert not re.search("Numerical result out of range|division by zero|math range error", err), (argv, err)
        if code == 0:
            assert not re.search(r"\b(inf|nan)\b", out, re.IGNORECASE), (argv, out)


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


class _Float(float):
    """A float subclass: not an exact ``float``, so the renderer formats it as any other number, by ``_fmt_scalar``."""


class _Str(str):
    """A str subclass, laid out as a string."""


class _List(list):
    """A list subclass, laid out as a list."""


_NON_ASCII = "\u03bc\u2081 \u2192 \u221e, na\u00efve \"q\" \\ \t \u2028 \U0001d53c"
#: a resum sweep's 500 rows: 14 couplings, then a pole (None) in each later row
_SWEEP = [{"mu": 1.03**i, "coupling": 1 / (1 - 14 * math.log(1.03**i)) if i < 14 else None, "status": "ok" if i < 14 else "pole"} for i in range(500)]


class TestOnePassRenderer:
    """``cli._render`` writes the bytes of formatting each number, then ``json.dumps(indent=2)``."""

    def assert_renders_as_two_pass(self, subcommand, report, cfg):
        assert _rendered(cli._render, subcommand, report, cfg) == _rendered(render_two_pass, subcommand, report, cfg)

    @pytest.mark.parametrize("argv", _ROUND_TRIP_ARGV)
    def test_round_trip_reports(self, argv):
        (call,) = _reports(argv)
        self.assert_renders_as_two_pass(*call)

    @_GENERATED_ARGV
    @settings(max_examples=300)
    @given(_argv())
    def test_generated_argv(self, argv):
        for call in _recorded_run(tuple(argv))[3]:
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
            # rows that share their keys, filled into one template: Fraction, nested, subclass and bool cells; a tuple of them
            cli.Report(
                {},
                [
                    ("rows", [{"q": Fraction(1, 3), "nested": [1.5, {"a%s": None, "b": [[]]}], "t": (2, "%")}, {"q": Fraction(-5), "nested": [], "t": ()}], ""),
                    ("terms", ({"c": _Float(0.5), "s": _Str("%s"), "flag": True}, {"c": 7, "s": "%%", "flag": None}), "a tuple"),
                    ("empty_rows", [{}, {}], ""),
                ],
                [{"name": "C1", "value": 0.25}, {"name": "C2", "value": 0.5}],
            ),
            # a dict followed by what is not one, though its items are the dict's keys: laid out one item at a time
            cli.Report({}, [("mixed", [{"a": 1.0, "b": 2.0}, ("a", "b")], ""), ("chars", [{"a": 1.0, "b": 2.0}, "ab"], "")]),
            # a later row with the keys reordered, with an extra key, or with one missing: each laid out on its own
            cli.Report(
                {},
                [
                    ("reordered", [{"a": 1.0, "b": "x"}, {"a": 2.0, "b": "y"}, {"b": "z", "a": 3.0}], ""),
                    ("extra", [{"a": 1.0, "b": "x"}, {"a": 2.0, "b": "y", "c": None}], ""),
                    ("missing", [{"a": 1.0, "b": "x"}, {"a": 2.0}, {"a": 3.0, "b": "z"}], ""),
                ],
            ),
        ],
    )
    def test_edge_values(self, report, precision):
        self.assert_renders_as_two_pass("\u03b4m", report, cli.RunConfig(precision=precision))

    @pytest.mark.parametrize("precision", [4, 17])
    def test_synthetic_report_with_warm_and_cleared_caches(self, precision):
        # keys that need escaping, every kind of leaf, a tuple field, empty containers, rows that differ in keys and order
        keys = ['q"uote', "back\\slash", "\u03bc\u2081", _NON_ASCII]
        report = cli.Report(
            {"n": 3, "x": _Float(0.1), "flag": False, "none": None, "q": Fraction(2, 7), keys[0]: "v"},
            [
                ("leaves", {keys[0]: True, keys[1]: None, keys[2]: 7, keys[3]: Fraction(-5, 3), "f": _Float(2.0 / 3.0), "g": 1e-300}, keys[1]),
                ("tuple", (1.5, "s", (2, []), {}), "a tuple field"),
                ("subclasses", [_Str("s"), collections.OrderedDict(b=_Float(0.5), a=[]), _List([1.25, None])], "laid out as their base types"),
                ("empty", [[], {}, [{}], ""], keys[2]),
                ("rows", [{"mu": 1.0, keys[0]: 0.5, "status": "ok"}, {"status": "pole", "mu": _Float(2.0)}, {keys[3]: None, "mu": 3.0, "extra": [True]}], keys[3]),
            ],
            [{"name": keys[1], "coefficient": Fraction(1, 3), "msq_power": 0}, {"value": 0.25, "name": "C2", "status": "fixed"}],
        )
        cfg = cli.RunConfig(precision=precision)
        expected = _rendered(render_two_pass, "\u03b4m", report, cfg)
        assert expected[1] is None
        for clear in (False, False, True):
            if clear:
                cli._template.cache_clear()
                cli._skeleton.cache_clear()
            assert _rendered(cli._render, "\u03b4m", report, cfg) == expected

    @pytest.mark.parametrize(
        "field, fields, ledger",
        [
            ("outputs_field", [("fine", 1.0, ""), ("outputs_field", -math.inf, "")], ()),
            ("rows", [("rows", [{"mu": 1.0, "coupling": 0.5}, {"mu": 2.0, "coupling": math.nan}], "")], ()),
            ("ledger", [("fine", 1.0, "")], [{"name": "C1", "value": 0.5}, {"name": "C2", "value": _Float(math.inf)}]),
            # the last of 500 rows that share their keys
            ("rows", [("rows", [{"mu": float(i), "coupling": 0.5} for i in range(499)] + [{"mu": 500.0, "coupling": _Float(math.inf)}], "")], ()),
        ],
    )
    def test_non_finite_float_is_refused_under_its_field(self, field, fields, ledger):
        for _ in range(2):  # the second time with every cache warm
            out, message = _rendered(cli._render, "x", cli.Report({}, fields, ledger), cli.RunConfig())
            assert out == "" and message is not None and message.startswith(f"{field} is not finite: ")

    def test_shapes_of_one_subcommand_alternate_with_a_warm_skeleton(self):
        # each shape's fixed text is laid out once; a shape must not take another's pieces, however they alternate
        shapes = [
            _reports(["regularize", "--n", "2"]),
            _reports(["regularize", "--n", "2", "--msq", "1.5", "--mu1", "0.5"]),
            _reports(["regularize", "--n", "3", "--msq", "1.5"]),
            _reports(["resum", "--lambda0", "0.5", "--mu0", "1", "--mu", "2"]),
            _reports(["resum", "--lambda0", "0.5", "--mu0", "1", "--mu-min", "0.5", "--mu-max", "8", "--mu-points", "5"]),
        ]
        # keys and provenance made of the pieces' own punctuation, and of format and template markers
        odd = ["%", "%s", "{}", "%(x)s {0}", '", "', '": ', ",\n    ", "\n  }", "\n}\n", "", '"ledger": ']
        for key in odd:
            shapes.append([("\u03b4m", cli.Report({key: 1.5, "n": key}, [(key, 0.25, key), ("why", key, "%s" + key)], [{key: key}]), cli.RunConfig())])
            shapes.append([(key, cli.Report({key: None}, [(key + "x", [], key)]), cli.RunConfig(precision=17))])
        assert all(len(calls) == 1 for calls in shapes)
        expected = [_rendered(render_two_pass, *calls[0]) for calls in shapes]
        for _ in range(2):  # the second round with every skeleton warm, in the other order
            for i in range(len(shapes)):
                assert _rendered(cli._render, *shapes[i][0]) == expected[i], shapes[i][0]
            shapes.reverse()
            expected.reverse()

    @pytest.mark.parametrize(
        "argv",
        [
            ["regularize", "--n", "2"],
            ["regularize", "--n", "2", "--msq", "1.5", "--mu1", "0.5"],
            ["selfenergy", "--m", "0.000511"],
            ["resum", "--lambda0", "0.5", "--mu0", "1", "--mu-min", "0.5", "--mu-max", "8", "--mu-points", "5"],
            ["oracle", "--n", "2", "--msq", "1.5"],
        ],
        ids=" ".join,
    )
    def test_a_report_is_one_template_filled_once(self, capsys, argv):
        # a shape's fixed text is one str with a slot per input, per output and for the ledger; warm, no template is laid out
        with mock.patch.object(cli, "_skeleton", wraps=cli._skeleton) as skeleton:
            assert run_raw(capsys, argv)[0] == 0
        (call,) = skeleton.call_args_list
        _, inputs, pairs = call.args
        text = cli._skeleton(*call.args)
        assert type(text) is str
        assert text.replace("%%", "").count("%s") == len(inputs) + len(pairs) + 1
        before = cli._template.cache_info(), cli._skeleton.cache_info()
        assert run_raw(capsys, argv)[0] == 0
        after = cli._template.cache_info(), cli._skeleton.cache_info()
        assert [now.misses - then.misses for now, then in zip(after, before)] == [0, 0]
        assert after[1].hits - before[1].hits == 1

    @pytest.mark.parametrize("fmt", ["json", "csv", "plot-data"])
    @pytest.mark.parametrize(
        "rows",
        [
            [{"mu": 1.0, "coupling": None, "status": "pole"}, {"mu": 2.5, "coupling": 0.125, "status": _NON_ASCII}],
            [{"\u03bc": Fraction(1, 3), "\u03bb": 2, "\u00e9": "ok"}],
            [{"cutoff": 1.0, "radial": None, "unit_multiple": math.nan}],
            [{"cutoff": 1.0, "radial": 2.0, "unit_multiple": 3.0}, {"cutoff": math.inf, "radial": 1.0, "unit_multiple": 0.5}],
            # keys and cells that hold the fill's own markers
            [{"%": "%s", "mu%s": 1.5, "100%%": "%(x)s"}, {"%": "%", "mu%s": None, "100%%": "%d%%"}],
            # 500 rows across a pole, then the same rows with a float that is not finite in the last one
            _SWEEP,
            _SWEEP[:-1] + [{**_SWEEP[-1], "coupling": math.inf}],
            tuple(_SWEEP[:3]),
        ],
    )
    def test_sweep_cells(self, rows, fmt):
        report = cli.Report({}, [("rows", rows, "")])
        self.assert_renders_as_two_pass("oracle", report, cli.RunConfig(precision=9, out_format=fmt))


# one GeV argv per subcommand (more where a report has another shape); the MeV twin scales each value of dimension d by 10^(3d)
_GEV_ARGV = [
    ["regularize", "--n", "2", "--msq", "1.5", "--mu1", "0.5"],
    ["regularize", "--n", "3", "--msq", "1.5"],
    ["selfenergy", "--m", "0.000511", "--alpha", "0.0073", "--mu1", "0.0003"],
    ["mu1", "--m", "0.000511"],
    ["lambshift", "--alpha", "0.0073", "--m", "0.000511", "--bethe-log", "2.8"],
    ["phi4", "--sigma", "1.5", "--lambda", "6"],
    ["resum", "--lambda0", "0.5", "--mu0", "1", "--b", "0.03", "--mu", "2"],
    ["resum", "--lambda0", "0.5", "--mu0", "1", "--mu-min", "0.5", "--mu-max", "8", "--mu-points", "5"],
    ["oracle", "--n", "2", "--msq", "1.5", "--grid", "100,1000,1e4,1e5,1e6", "--rel-tol", "1e-9"],
    ["oracle", "--n", "1", "--msq", "2"],
    ["oracle", "--n", "3", "--msq", "0.25"],
]
# the mass outputs, in a report's outputs, a sweep's rows and the ledger; every other number is dimensionless or
# GeV-based (radial, unit_multiple, signature_coefficient, asymptote_constant, bracket_at_msq, value_imag_at_msq)
_MASS_OUTPUTS = {"delta_m", "mu1_used", "mu1", "phi1", "m_sigma", "higgs_lower_bound", "higgs_predicted", "higgs_upper_bound", "critical_scale", "cutoff", "mu", "scale_alias"}


def _mev_twin(argv):
    """An argv in MeV: each value of mass dimension d, by this file's map, times 10^(3d), exactly in decimal."""
    dims = {flag: dim for flag, _, dim in _FLAGS[argv[0]] + _UNDRAWN.get(argv[0], ())}
    twin = [argv[0]]
    for flag, value in zip(argv[1::2], argv[2::2]):
        twin += [flag, ",".join(str(Decimal(v).scaleb(3 * dims[flag])) for v in value.split(","))]
    return twin + ["--units", "MeV"]


def _assert_twins(gev, mev, name):
    """A mass output prints 1e3 times its GeV value at the printed precision (12 digits); any other prints unchanged."""
    if isinstance(gev, dict):
        assert gev.keys() == mev.keys(), name
        for key in gev:
            _assert_twins(gev[key], mev[key], key)
    elif isinstance(gev, list):
        assert len(gev) == len(mev), name
        for g, m in zip(gev, mev):
            _assert_twins(g, m, name)
    elif name in _MASS_OUTPUTS:
        assert float(mev) == pytest.approx(1e3 * float(gev), rel=1e-11), name
    else:
        assert mev == gev, name


class TestUnits:
    def test_the_map_is_the_table(self):
        declared = {name: tuple((f.flag, f.required, f.dim) for f in command.flags) for name, command in cli._SUBCOMMANDS.items()}
        assert declared == {name: flags + _UNDRAWN.get(name, ()) for name, flags in _FLAGS.items()}

    @pytest.mark.parametrize("argv", _GEV_ARGV, ids=" ".join)
    def test_mev_twin_scales_the_mass_outputs_only(self, capsys, argv):
        code, gev = run_json(capsys, argv)
        mev_code, mev = run_json(capsys, _mev_twin(argv))
        assert code == mev_code == 0
        _assert_twins(gev["outputs"], mev["outputs"], "outputs")
        _assert_twins(gev["ledger"], mev["ledger"], "ledger")


def _bench_request(workloads, kind, argv, **params):
    return workloads.Request(kind, tuple(argv), {"units": "GeV", "precision": 12, **params})


def _near_mass_cutoffs(rng, workloads):
    """One to four oracle cutoffs 1e-2..10 sqrt(M^2), in csv: the radial below, at and just above the mass."""
    text, msq = workloads._typed(10.0 ** rng.uniform(-6.0, 6.0))
    cutoffs = sorted({workloads._typed(math.sqrt(msq) * 10.0 ** rng.uniform(-2.0, 1.0)) for _ in range(rng.randint(1, 4))}, key=lambda c: c[1])
    n = workloads._oracle_power(rng)
    argv = ["oracle", "--n", str(n), "--msq", text, "--grid", ",".join(t for t, _ in cutoffs), "--format", "csv"]
    return _bench_request(workloads, "oracle-point", argv, n=n, msq=msq, grid=tuple(c for _, c in cutoffs), rel_tol=1e-10)


def _near_mass_report(rng, workloads):
    """A JSON oracle report over one cutoff per decade from 0.1..3 sqrt(M^2): the fits read only those at or above it."""
    text, msq = workloads._typed(10.0 ** rng.uniform(-6.0, 6.0))
    start = rng.uniform(-1.0, 0.5)
    cutoffs = [workloads._typed(math.sqrt(msq) * 10.0 ** (start + k)) for k in range(rng.randint(6, 8))]
    n = workloads._oracle_power(rng)
    argv = ["oracle", "--n", str(n), "--msq", text, "--grid", ",".join(t for t, _ in cutoffs)]
    return _bench_request(workloads, "oracle-report", argv, n=n, msq=msq, grid=tuple(c for _, c in cutoffs), rel_tol=1e-10)


def _weak_coupling_resum(rng, workloads):
    """lambda0 1e-4..1e-2 at the one-loop b: b*lambda0 < 3e-4, so the pole scale lies past the float range."""
    (l0_text, lambda0), (mu0_text, mu0) = workloads._typed(10.0 ** rng.uniform(-4.0, -2.0)), workloads._typed(10.0 ** rng.uniform(0.0, 3.0))
    argv, params = ["resum", "--lambda0", l0_text, "--mu0", mu0_text], {"lambda0": lambda0, "mu0": mu0}
    if rng.random() < 0.5:
        mu_text, params["mu"] = workloads._typed(mu0 * 10.0 ** rng.uniform(-2.0, 6.0))
        return _bench_request(workloads, "resum-point", argv + ["--mu", mu_text], **params)
    (lo_text, lo), fmt, points = workloads._typed(mu0 * 10.0 ** rng.uniform(-2.0, 0.0)), rng.choice(("json", "csv")), rng.randint(2, 50)
    hi_text, hi = workloads._typed(lo * 10.0 ** rng.uniform(1.0, 10.0))
    argv += ["--format", fmt, "--mu-min", lo_text, "--mu-max", hi_text, "--mu-points", str(points)]
    return _bench_request(workloads, "resum-sweep", argv, format=fmt, mu_min=lo, mu_max=hi, mu_points=points, **params)


def _huge_power(rng, workloads):
    """regularize at n 1e6..1e20, bare or at M^2 = 1; or an oracle cutoff at n 1e8..1e15, M^2 = 1.  The checker's closed
    form of the radial loses about n ulps to cancellation, and cancels to 0 once n - 1 and n - 2 round to one double
    (n > 2^53), so the oracle draws stop at 1e15."""
    if rng.random() < 0.5:
        n = int(10.0 ** rng.uniform(6.0, 20.0))
        msq = rng.choice((None, 1.0))
        argv = ["regularize", "--n", str(n)] + (["--msq", "1"] if msq else [])
        return _bench_request(workloads, "regularize", argv, n=n, msq=msq, mu1=None)
    n = int(10.0 ** rng.uniform(8.0, 15.0))
    text, cutoff = workloads._typed(10.0 ** rng.uniform(0.5, 6.0))
    argv = ["oracle", "--n", str(n), "--msq", "1", "--grid", text, "--format", "csv"]
    return _bench_request(workloads, "oracle-point", argv, n=n, msq=1.0, grid=(cutoff,), rel_tol=1e-10)


_UNDRAWN_BY_THE_BENCH = (_near_mass_cutoffs, _near_mass_report, _weak_coupling_resum, _huge_power)
_BENCH_SEEDS = (4242, 9001)


def _bench_requests(seed):
    """About 400 requests: the benchmark's own draws at one seed (8 report-warm blocks of 40, 4 cli-cold blocks of
    12), then 40 it does not make, 10 of each kind above."""
    workloads, rng = bench_workloads(), random.Random(seed)
    drawn = [req for name, count in (("report-warm", 8), ("cli-cold", 4)) for block, _ in zip(workloads.blocks(name, seed), range(count)) for req in block]
    return drawn + [draw(rng, workloads) for draw in _UNDRAWN_BY_THE_BENCH for _ in range(10)]


# each known defect a draw may meet: its reason and the text of the check it fails
_POLE_PAST_RANGE = ("a pole scale past the float range fails the report with exit 3, though the coupling was computed", "critical_scale is not finite: inf")
_CHECKER_CANCELS = ("the checker's closed form of the radial loses about n ulps to cancellation, so at n 1e8..1e15 it misses the "
                    "oracle's radial, which test_large_powers_within_four_epsilon_of_mpmath holds to mpmath", "radial at ")


def _known_defect(req):
    """The known defect a request meets, decided from its parameters alone; None for every other request."""
    p = req.params
    if req.kind in ("resum-point", "resum-sweep") and p.get("format", "json") == "json":  # a csv sweep prints no pole scale
        if bench_checker()._Running(p).log_critical >= math.log(sys.float_info.max):
            return _POLE_PAST_RANGE
    if req.kind.startswith("oracle") and p["n"] >= 10**8:
        return _CHECKER_CANCELS
    return None


def _judged(req):
    """The checker's verdict on the report ``cli.run`` writes for one request: None if it holds, else the Miss."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(req.argv))
    return bench_checker().check_cli(req.kind, req.params, code, out.getvalue(), err.getvalue())


_BENCH_DRAWS = {seed: _bench_requests(seed) for seed in _BENCH_SEEDS}
_DEFECT_DRAWS = [
    pytest.param(req, defect[1], marks=pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason=defect[0]), id=f"{seed}-{i}-{req.kind}")
    for seed, requests in _BENCH_DRAWS.items()
    for i, req in enumerate(requests)
    if (defect := _known_defect(req))
]


class TestReportsAgainstTheBenchChecker:
    """Every report of the benchmark's draws, and of draws it does not make, judged by ``perfbench/checker.py``."""

    @pytest.mark.parametrize("seed", _BENCH_SEEDS)
    def test_every_report_holds(self, seed):
        misses = [(req.argv, str(miss)) for req in _BENCH_DRAWS[seed] if not _known_defect(req) and (miss := _judged(req))]
        assert misses == []

    # strict: once the defect is mended, the request passes and its mark must go; a failure by anything but the
    # defect's symptom is an AssertionError, which the mark does not expect.  No traceback: pytest would parse this file per case
    @pytest.mark.parametrize("req, symptom", _DEFECT_DRAWS)
    def test_a_known_defect_still_fails(self, req, symptom):
        miss = _judged(req)
        assert miss is None or symptom in str(miss), (req.argv, str(miss))
        if miss is not None:
            pytest.fail(str(miss), pytrace=False)


def _clear_library_caches():
    """Every functools cache of the package, so the counts of a run do not depend on the tests run before it."""
    from loopreg import checks, kernel, oracle, phi4, qed

    for module in (checks, cli, kernel, oracle, phi4, qed):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _sweep(p):
    """The library work behind one oracle report, as perfbench/worker.py's SweepClient runs an oracle-sweep request."""
    from loopreg import oracle

    probe = oracle.CutoffProbe(p["n"], p["msq"], p["grid"], oracle.QuadratureSpec(rel_tol=p["rel_tol"]))
    for cutoff in p["grid"]:
        oracle.radial_integral(p["n"], p["msq"], cutoff, p["rel_tol"])
    oracle.divergence_signature(probe)
    if p["n"] == 2:
        oracle.asymptote_constant(probe)


class TestBenchBlockCounts:
    """The work of the first block of a benchmark workload at seed 101, from cold caches: radial pieces integrated,
    cache misses and renderer calls.  They are exact counts, so unlike a time they move only when the work does."""

    @pytest.mark.parametrize(
        "workload, expected",
        [
            ("oracle-sweep", {"pieces": 81, "K5 panels": 18, "K15 panels": 167, "_integral_to": 41, "_decade_sums": 63, "regularize": 0, "_json": 0}),
            ("report-warm", {"pieces": 67, "K5 panels": 0, "K15 panels": 203, "_integral_to": 14, "_decade_sums": 62, "regularize": 8, "_json": 268}),
        ],
        ids=["oracle-sweep", "report-warm"],
    )
    def test_first_block_from_cold_caches(self, capsys, integrations, monkeypatch, workload, expected):
        # a radial panel is counted by its rule: G2-K5 for a narrow piece's first panel, G7-K15 for every other
        from loopreg import kernel, oracle

        _clear_library_caches()
        calls, real = [], cli._json
        monkeypatch.setattr(cli, "_json", lambda *args: calls.append(args[0]) or real(*args))
        panels = collections.Counter()

        def counted(panel):
            def by_rule(power, a, b, rule=oracle._K15):
                panels.update(("K5 panels" if rule is oracle._K5 else "K15 panels",))
                return panel(power, a, b, rule)
            return by_rule

        monkeypatch.setattr(oracle, "_radial_panel", counted(oracle._radial_panel))
        monkeypatch.setattr(oracle, "_sigma_panel", counted(oracle._sigma_panel))
        for req in next(bench_workloads().blocks(workload, 101)):
            if req.argv is None:
                _sweep(req.params)
            else:
                run_raw(capsys, list(req.argv))
        counts = {
            "pieces": integrations(),
            "K5 panels": panels["K5 panels"],
            "K15 panels": panels["K15 panels"],
            "_integral_to": oracle._integral_to.cache_info().misses,
            "_decade_sums": oracle._decade_sums.cache_info().misses,
            "regularize": kernel.regularize.cache_info().misses,
            "_json": len(calls),
        }
        assert counts == expected

    def test_demo_from_cold_caches_then_warm(self, capsys, integrations, monkeypatch):
        # panels are counted where the oracle builds them: _panel for every generic integrand, the two written-out
        # radial panels for the pieces; root evaluations through the f that find_root receives
        from loopreg import kernel, oracle

        _clear_library_caches()
        counts = collections.Counter()

        def counted(key, fn):
            return lambda *args: counts.update((key,)) or fn(*args)

        def counting_root(find_root):
            return lambda f, lo, hi: find_root(counted("root evaluations", f), lo, hi)

        monkeypatch.setattr(oracle, "_panel", counted("generic panels", oracle._panel))
        monkeypatch.setattr(oracle, "_radial_panel", counted("radial panels", oracle._radial_panel))
        monkeypatch.setattr(oracle, "_sigma_panel", counted("radial panels", oracle._sigma_panel))
        monkeypatch.setattr(oracle, "find_root", counting_root(oracle.find_root))
        monkeypatch.setattr(cli, "_json", counted("_json", cli._json))
        caches = {"_decade_sums": oracle._decade_sums, "_integral_to": oracle._integral_to, "regularize": kernel.regularize}

        def totals():
            return {"pieces": integrations(), **{name: cache.cache_info().misses for name, cache in caches.items()}}

        runs = []
        for _ in range(2):
            counts.clear()
            before = totals()
            assert run_raw(capsys, ["demo"])[0] == 0
            counts.update({key: value - before[key] for key, value in totals().items()})
            runs.append({key: value for key, value in counts.items() if value})
        # 226 root evaluations: 78 (mu1 root finder) + 42 (minimization) + 106 (resummation pole)
        cold = {"pieces": 45, "radial panels": 159, "generic panels": 33, "root evaluations": 226, "_decade_sums": 45, "_integral_to": 9, "regularize": 1}
        assert runs == [cold, {"generic panels": 33, "root evaluations": 226}]


@functools.cache
def _traced_default_report():
    """spans' per-layer metrics of the library calls of a default n = 2 oracle report from cold caches, traced as
    perfbench/smoke.py's check_default_sweep traces them."""
    spans, workloads = _perfbench("spans"), bench_workloads()
    _clear_library_caches()
    tracer = spans.Tracer()
    tracer.request = "p0.0"
    tracer.install()  # patches 20 library functions before it imports scipy.integrate: uninstall in any case
    try:
        start = time.perf_counter()
        _sweep({"n": 2, "msq": 1.0, "grid": workloads.DEFAULT_GRID_FACTORS, "rel_tol": 1e-10, "units": "GeV"})
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return spans.layer_metrics(tracer, {"p0.0": "p0"}, wall, 1, [], 0)


class TestBenchSelfChecks:
    """perfbench/smoke.py's in-process checks, on its files loaded by path and only read (ROADMAP item 17).  Those
    that fail on a stale pin of the benchmark are strict xfails: they XPASS, and so fail, once perfbench is mended."""

    def test_layer_map_matches_the_per_layer_metrics(self):
        spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
        _perfbench("smoke").check_layer_map(spec)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 17: KNOWN_FAILURE quotes `outputs.critical_scale is not finite: 'inf'`; the program prints `critical_scale is not finite: inf`")
    def test_known_failure_names_the_printed_message(self, capsys):
        # a coupling 5% above mu0 whose pole scale lies past the float range (ROADMAP item 4)
        code, out, err = run_raw(capsys, ["resum", "--lambda0", "0.0165776", "--mu0", "219.57", "--mu", "231.111"])
        params = {"lambda0": 0.0165776, "mu0": 219.57, "mu": 231.111, "units": "GeV"}
        miss = bench_checker().check_cli("resum-point", params, code, out, err)
        assert code == cli.EXIT_NUMERIC and miss is not None
        assert _perfbench("smoke").KNOWN_FAILURE in str(miss), str(miss)

    @pytest.mark.xfail(strict=True, raises=ImportError, reason="ROADMAP item 17: spans.SPANNED wraps scipy.integrate.quad, which the package no longer calls or lists")
    def test_tracer_installs_without_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.integrate", None)
        tracer = _perfbench("spans").Tracer()
        try:
            tracer.install()
        finally:
            tracer.uninstall()

    @pytest.mark.parametrize(
        "metric, holds",
        [
            pytest.param("oracle.quad_calls", lambda v: v > 0, id="quad_calls", marks=pytest.mark.xfail(
                strict=True, raises=AssertionError, reason="ROADMAP item 17: spans counts scipy.integrate.quad, which nothing has called since PR 27")),
            pytest.param("oracle.integrand_evals", lambda v: v > 0, id="integrand_evals", marks=pytest.mark.xfail(
                strict=True, raises=AssertionError, reason="ROADMAP item 17: spans counts oracle.radial_integrand, which the radial panels write out")),
            pytest.param("oracle.distinct_radial_ratio", lambda v: Fraction(v).limit_denominator(100) == Fraction(1, 3), id="distinct_radial_ratio", marks=pytest.mark.xfail(
                strict=True, raises=AssertionError, reason="ROADMAP item 17: reads 0.5, since a default report reads each of its 5 cutoffs twice through radial_integral; 1/3 was the scipy oracle's")),
        ],
    )
    def test_default_report_counters(self, metric, holds):
        pytest.importorskip("scipy")
        value = _traced_default_report()[metric]
        assert holds(value), (metric, value)
