import contextlib
import itertools
import math
import operator
import random
import sys
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopreg import checks, oracle
from loopreg.oracle import CutoffProbe, InsufficientGridError, QuadratureSpec, default_grid

import references
from references import bisect

radial_analytic = references.bench_checker().radial


class TestRadialAnalytic:
    def test_log_member_at_small_cutoff(self):
        # int_0^10 k^3/(k^2+1)^2 dk = (ln 101 + 1/101 - 1)/2
        expected = 0.5 * (math.log(101.0) + 1.0 / 101.0 - 1.0)
        assert radial_analytic(2, 1.0, 10.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(1.81251075347, rel=1e-11)

    def test_convergent_members_reach_closed_limits(self):
        # limits (M^2)^(2-n) / (2 (n-1)(n-2))
        assert radial_analytic(3, 1.0, 1e8) == pytest.approx(0.25, rel=1e-10)
        assert radial_analytic(4, 2.0, 1e8) == pytest.approx(1.0 / 48.0, rel=1e-10)

    @pytest.mark.parametrize("power", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("mass_sq", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("cutoff", [10.0, 1e3, 1e6])
    def test_quadrature_self_check(self, power, mass_sq, cutoff):
        exact = radial_analytic(power, mass_sq, cutoff)
        numeric = oracle.radial_integral(power, mass_sq, cutoff)
        assert abs(numeric - exact) / abs(exact) < 1e-10


class TestWickRotatedRadial:
    def test_cubic_member_unit_multiple(self):
        # converges to -1/2 in units of i/(16 pi^2)
        assert oracle.wick_rotated_radial(3, 1.0, 1e6) == pytest.approx(-0.5, rel=1e-8)

    def test_sign_alternates_with_power(self):
        assert oracle.wick_rotated_radial(3, 1.0, 1e3) < 0
        assert oracle.wick_rotated_radial(4, 1.0, 1e3) > 0

    def test_quadratic_growth_of_linear_member(self):
        # doubling the cutoff quadruples the increments of the power-1 radial
        r1 = oracle.radial_integral(1, 1.0, 1e3)
        r2 = oracle.radial_integral(1, 1.0, 2e3)
        r4 = oracle.radial_integral(1, 1.0, 4e3)
        assert (r4 - r2) / (r2 - r1) == pytest.approx(4.0, rel=1e-2)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            oracle.wick_rotated_radial(0, 1.0, 10.0)
        with pytest.raises(ValueError):
            oracle.radial_integral(2, -1.0, 10.0)
        with pytest.raises(ValueError):
            oracle.radial_integral(2, 1.0, 0.0)

    @pytest.mark.parametrize("power", [0, -1])
    def test_radial_owns_its_power_check(self, power):
        # not only its wick-rotated caller: a radial of power < 1 is no member of the family
        with pytest.raises(ValueError, match="power must be >= 1"):
            oracle.radial_integral(power, 1.0, 10.0)


class TestCutoffProbe:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            CutoffProbe(2, 1.0, (1e3, 1e2))

    def test_grid_must_be_positive(self):
        with pytest.raises(ValueError):
            CutoffProbe(2, 1.0, (0.0, 1e2))
        # a nan is refused wherever it stands: first by the sign check, later by the order check
        for grid, text in (((math.nan, 1e2, 1e3), "cutoff grid values must be positive"),
                           ((1e2, math.nan, 1e3), "cutoff grid must be strictly increasing"),
                           ((1e2, 1e3, math.nan), "cutoff grid must be strictly increasing")):
            with pytest.raises(ValueError, match=f"^{text}$"):
                CutoffProbe(2, 1.0, grid)

    def test_rel_tol_window(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=1e-5)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        assert QuadratureSpec().rel_tol == 1e-10

    @pytest.mark.parametrize("rel_tol", [math.nan, 0.5, 1e-5, 0.0, -1.0])
    def test_a_single_cutoff_refuses_what_a_probe_refuses(self, rel_tol):
        # unchecked, nan runs every piece to the panel limit and 0.5 is taken; 0 or -1 is bad input, not a QuadratureError
        for refuse in (QuadratureSpec, partial(oracle.radial_integral, 2, 1.0, 1e3), partial(oracle.wick_rotated_radial, 2, 1.0, 1e3)):
            with pytest.raises(ValueError, match=r"rel_tol must lie in \(0, 1e-6\], got"):
                refuse(rel_tol)


class TestDivergenceSignature:
    def test_log_member(self):
        sig = oracle.divergence_signature(CutoffProbe(2, 1.0, (1e2, 1e3, 1e4, 1e5)))
        assert sig.kind == "log"
        assert sig.coefficient == pytest.approx(1.0, rel=1e-2)
        # cutoffs below the mass, where the radial grows like t^4/4, are left out of the fit
        assert oracle.divergence_signature(CutoffProbe(2, 1.0, (1e-2, 1e-1, 1e2, 1e3, 1e4, 1e5))) == sig

    def test_convergent_member(self):
        sig = oracle.divergence_signature(CutoffProbe(3, 1.0, (1e2, 1e3, 1e4, 1e5)))
        assert sig.kind == "convergent"
        assert sig.coefficient == pytest.approx(0.25, rel=1e-6)

    def test_convergent_tail_shrinks_quadratically(self):
        vals = [oracle.radial_integral(3, 1.0, lam) for lam in (1e2, 1e3, 1e4)]
        d1, d2 = vals[1] - vals[0], vals[2] - vals[1]
        assert d2 / d1 == pytest.approx(1e-2, rel=0.05)

    def test_quadratic_member(self):
        sig = oracle.divergence_signature(CutoffProbe(1, 1.0, (1e2, 1e3, 1e4, 1e5)))
        assert sig.kind == "quadratic"
        assert sig.coefficient == pytest.approx(0.5, rel=1e-2)

    @pytest.mark.parametrize("power", range(1, 7))
    def test_a_step_of_zero_width_carries_no_slope(self, power):
        # a strictly increasing grid may hold two cutoffs whose logarithms round to one double: the next float
        # up after the first, a middle and the last cutoff of the default grid
        grid = default_grid(1.0)
        split = list(grid)
        for i in (len(grid) - 1, len(grid) // 2, 0):  # from the top, so each index still names its cutoff
            split.insert(i + 1, math.nextafter(grid[i], math.inf))
            assert math.log(split[i + 1]) == math.log(grid[i])
        kind = oracle.divergence_signature(CutoffProbe(power, 1.0, tuple(split))).kind
        assert kind == oracle.divergence_signature(CutoffProbe(power, 1.0, grid)).kind

    def test_insufficient_points(self):
        with pytest.raises(InsufficientGridError):
            oracle.divergence_signature(CutoffProbe(2, 1.0, (1e2, 1e3, 1e4)))

    def test_insufficient_span(self):
        with pytest.raises(InsufficientGridError):
            oracle.divergence_signature(CutoffProbe(2, 1.0, (1e2, 2e2, 4e2, 8e2)))


class TestAsymptoteConstant:
    def test_unit_mass_limit(self):
        lim = oracle.asymptote_constant(CutoffProbe(2, 1.0, default_grid(1.0)))
        assert lim == pytest.approx(-0.5, abs=1e-8)

    def test_e_squared_mass_limit(self):
        m2 = math.e**2
        lim = oracle.asymptote_constant(CutoffProbe(2, m2, default_grid(m2)))
        assert lim == pytest.approx(-1.5, abs=1e-8)

    def test_non_log_probe_rejected(self):
        with pytest.raises(ValueError, match="non-log"):
            oracle.asymptote_constant(CutoffProbe(3, 1.0, default_grid(1.0)))

    def test_narrow_grid_rejected(self):
        with pytest.raises(InsufficientGridError):
            oracle.asymptote_constant(CutoffProbe(2, 1.0, (1e2, 1e3, 5e3, 1e5)))
        # five cutoffs over four decades, but only four of them, over three decades, at or above sqrt(M^2)
        with pytest.raises(InsufficientGridError, match=r"at or above sqrt\(M\^2\)"):
            oracle.asymptote_constant(CutoffProbe(2, 1.0, (0.1, 1.0, 10.0, 1e2, 1e3)))


def _fit_or_refusal(fit, grid):
    """fit(probe) at n = 2, M^2 = 1 over grid, or None where the grid is refused."""
    try:
        return fit(CutoffProbe(2, 1.0, grid))
    except InsufficientGridError:
        return None


class TestAcceptedGridsThatMisread:
    """n = 2 grids whose fits printed a wrong answer once accepted (ROADMAP item 19).  The right answer or a refusal of
    the grid passes, so the strict xfails XPASS, and so fail, once the signature reads only where the expansion holds."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 19: the first step starts at sqrt(M^2), where the slope is 1/4 of its limit, so the signature reads quadratic")
    def test_first_step_at_the_mass(self):
        assert _fit_or_refusal(lambda p: oracle.divergence_signature(p).kind, (1.0, 2.0, 10.0, 100.0, 10000.0)) in (None, "log")

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 19: the last step's radials round alike, so its slope reads 0 and the signature convergent")
    def test_last_step_narrower_than_rounding(self):
        assert _fit_or_refusal(lambda p: oracle.divergence_signature(p).kind, (1.0, 10.0, 99.0, 9999.999999999998, 10000.0)) in (None, "log")

    def test_asymptote_over_a_step_narrower_than_rounding(self):
        # the window's two cutoffs lie 4e-16 apart in x = (Lambda_top/Lambda)^2, where a line fit read -4.5: refused
        limit = _fit_or_refusal(oracle.asymptote_constant, (1.0, 10.0, 99.0, 9999.999999999998, 10000.0))
        assert limit is None or abs(limit + 0.5) <= 1e-6, limit


class TestFitsAgainstTheBenchChecker:
    """Both fits, on grids that may start far below the mass, held to the bench's checker."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_each_fit_holds_or_the_grid_is_refused(self, seed):
        checker, rng = references.bench_checker(), random.Random(seed)
        for _ in range(300):
            # n as the bench weighs it, M^2 1e-6..1e6, a first cutoff 1e-3..1e3 sqrt(M^2), 4-8 cutoffs over 3-8 decades
            power, mass_sq = rng.choice((1, 2, 2, 3, 4, 6)), 10.0 ** rng.uniform(-6.0, 6.0)
            first, count, decades = 10.0 ** rng.uniform(-3.0, 3.0) * math.sqrt(mass_sq), rng.randint(4, 8), rng.uniform(3.0, 8.0)
            grid = tuple(first * 10.0 ** (decades * i / (count - 1)) for i in range(count))
            params = {"n": power, "msq": mass_sq, "grid": grid, "rel_tol": rng.choice((1e-10, 1e-8, 1e-6)), "units": "GeV"}
            probe = CutoffProbe(power, mass_sq, grid, QuadratureSpec(params["rel_tol"]))
            far = [lam for lam in grid if lam >= 10.0 * math.sqrt(mass_sq)]
            try:
                kind = oracle.divergence_signature(probe).kind
                asymptote = oracle.asymptote_constant(probe) if power == 2 else None
            except InsufficientGridError as exc:
                # 4 cutoffs at or above 10 sqrt(M^2) over 4 decades meet both rules: only the top-two-decade count may refuse them
                assert len(far) < 4 or far[-1] / far[0] < 1e4 or "top two decades" in str(exc), (params, exc)
                continue
            assert checker.check_sweep(params, probe.radials, kind, asymptote) is None, params

    @pytest.mark.parametrize("seed", [1, 7])
    def test_an_asymptote_with_a_near_duplicate_top_cutoff_holds_or_the_grid_is_refused(self, seed):
        # n = 2, M^2 1e-6..1e6, 4-7 cutoffs over 4-7 decades from 1-100 sqrt(M^2), and one more cutoff 1e-16..0.1 of the
        # top one below it; the asymptote's window may then hold only the top cutoff and that one
        checker, rng = references.bench_checker(), random.Random(seed)
        for _ in range(200):
            mass_sq = 10.0 ** rng.uniform(-6.0, 6.0)
            first, count, decades = 10.0 ** rng.uniform(0.0, 2.0) * math.sqrt(mass_sq), rng.randint(4, 7), rng.uniform(4.0, 7.0)
            grid = [first * 10.0 ** (decades * i / (count - 1)) for i in range(count)]
            grid.insert(-1, grid[-1] * (1.0 - 10.0 ** rng.uniform(-16.0, -1.0)))
            try:
                asymptote = oracle.asymptote_constant(CutoffProbe(2, mass_sq, sorted(set(grid))))
            except InsufficientGridError as exc:
                assert "top two decades" in str(exc), (mass_sq, grid, exc)
                continue
            assert abs(asymptote - checker.log_asymptote(mass_sq)) <= checker.ASYMPTOTE_ABS_TOL, (mass_sq, grid, asymptote)


class TestLineFit:
    def test_recovers_exact_line(self):
        xs = [0.5, 1.0, 2.0, 7.0, 11.0]
        slope, intercept = oracle._line_fit(xs, [3.0 - 2.5 * x for x in xs])
        assert slope == pytest.approx(-2.5, rel=1e-14)
        assert intercept == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("mass_sq", [1e-6, 0.5, 1.0, math.e**2, 1e6])
    def test_agrees_with_polyfit_on_log_probe_points(self, mass_sq):
        grid = default_grid(mass_sq)
        vals = [oracle.radial_integral(2, mass_sq, lam) for lam in grid]
        # divergence_signature: ln-slope of the n = 2 radials
        logs = [math.log(lam) for lam in grid]
        slope, _ = oracle._line_fit(logs, vals)
        assert slope == pytest.approx(references.line_fit(logs, vals)[0], rel=1e-12)
        # asymptote_constant: (cutoff_top/cutoff)^2 extrapolation over the top two decades
        top = [(lam, v) for lam, v in zip(grid, vals) if lam >= grid[-1] / 100.0]
        xs = [(grid[-1] / lam) ** 2 for lam, _ in top]
        gs = [v - math.log(lam) for lam, v in top]
        _, intercept = oracle._line_fit(xs, gs)
        assert intercept == pytest.approx(references.line_fit(xs, gs)[1], rel=1e-12)


def _default_report(mass_sq):
    """What `oracle --n 2 --msq <mass_sq>` computes: the radials, the signature and
    the asymptote over t = 1e2..1e6, i.e. the decades [0, 1], [1, 10], ..., [1e5, 1e6]."""
    probe = CutoffProbe(2, mass_sq, default_grid(mass_sq))
    for lam in probe.lambda_grid:
        oracle.radial_integral(2, mass_sq, lam)
    oracle.divergence_signature(probe)
    oracle.asymptote_constant(probe)


def _clear_radial_caches():
    oracle._decade_sums.cache_clear()
    oracle._integral_to.cache_clear()


@contextlib.contextmanager
def _short_pieces(piece):
    """oracle._radial_piece replaced by piece inside the block.  The decade sums of power 2 up to t = 1e3 at the default
    tolerance are read first, so below t = 1e3 piece stands in for a cutoff's short piece alone, and the per-cutoff
    results made inside the block are dropped after it, so no later test reads them."""
    oracle.radial_integral(2, 1.0, 1e3)
    oracle._integral_to.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_radial_piece", piece)
        try:
            yield
        finally:
            oracle._integral_to.cache_clear()


class TestPieceCache:
    def test_default_report_integrates_each_decade_once(self, integrations):
        # the images in sigma of t = 0, 1, ..., 1e6 and the doubling 0.5 below ln 2 bound 8 pieces; the pieces carry no mass
        for mass_sq, new_pieces in ((1.0, 8), (4.0, 0)):
            before = integrations()
            _default_report(mass_sq)
            assert integrations() - before == new_pieces

    def test_cached_pieces_still_fail_the_tolerance(self, integrations):
        for _ in range(2):
            with pytest.raises(oracle.QuadratureError):
                oracle.radial_integral(2, 1.0, 1e6, rel_tol=1e-16)
        assert integrations() == 8  # the pieces up to the image of t = 1e6

    def test_a_warm_cutoff_is_one_lookup(self, integrations):
        # after one default report the single reads of its cutoffs, and the same report at a mass whose cutoffs have
        # the same t, neither integrate a piece nor look up a decade sum: each cutoff is one _integral_to hit
        probe = CutoffProbe(2, 1.0, default_grid(1.0))
        oracle.divergence_signature(probe)
        oracle.asymptote_constant(probe)
        pieces, decades = integrations(), oracle._decade_sums.cache_info()
        for lam in probe.lambda_grid:
            oracle.radial_integral(2, 1.0, lam)
        _default_report(4.0)
        after = oracle._decade_sums.cache_info()
        assert integrations() == pieces and after.hits + after.misses == decades.hits + decades.misses

    def test_a_warm_single_read_is_one_lookup(self, integrations):
        # one _setup hit and one _integral_to hit, then the scaling: no piece integrated, no decade sum read
        oracle.radial_integral(2, 4.554, 2.134e4)
        caches = (oracle._setup, oracle._integral_to, oracle._decade_sums)
        before, pieces = [cache.cache_info() for cache in caches], integrations()
        oracle.radial_integral(2, 4.554, 2.134e4)
        after = [cache.cache_info() for cache in caches]
        assert [(a.hits - b.hits, a.misses - b.misses) for a, b in zip(after, before)] == [(1, 0), (1, 0), (0, 0)]
        assert integrations() == pieces

    def test_top_pieces_do_not_evict_the_decades(self, integrations):
        _default_report(1.0)
        for i in range(300):  # 300 distinct top pieces [0, t], t < 1
            oracle.radial_integral(2, 1.0, (i + 1) / 400.0)
        before = integrations()
        _default_report(1.0)
        assert integrations() - before == 0

    def test_top_pieces_do_not_evict_the_last_decade(self, integrations):
        # a cutoff past t = 1e9 reads every piece up to the image of 1e9 from the decade sums, the last one included,
        # and integrates only its own top piece, from that image up to its sigma
        oracle.radial_integral(2, 1.0, 1e12)
        for i in range(300):  # 300 distinct top pieces [0, t], t < 1
            oracle.radial_integral(2, 1.0, (i + 1) / 400.0)
        before = integrations()
        oracle.radial_integral(2, 1.0, 1e15)
        assert integrations() - before == 1

    @pytest.mark.parametrize(
        "cutoff, one_panel",
        [
            (math.nextafter(1e4, 0.0), True),
            (float("9.99999e5"), True),
            (0.99 * 1e4, True),  # the lowest cutoff taken as its decade less a piece
            (math.nextafter(0.99 * 1e4, 0.0), False),  # the highest one integrated up from the edge below
        ],
    )
    def test_a_cutoff_just_below_an_edge_costs_one_panel(self, integrations, monkeypatch, cutoff, one_panel):
        # power 1, in t = cutoff/10 at M^2 = 100: a piece over most of [100, 1e3] takes 5 panels, a piece up to an edge one
        oracle.radial_integral(1, 100.0, 1e7)  # caches the decade sums up to t = 1e6
        panels, radial_panel = [], oracle._radial_panel

        def counted(*args):
            panels.append(args)
            return radial_panel(*args)

        monkeypatch.setattr(oracle, "_radial_panel", counted)
        oracle.radial_integral(1, 100.0, cutoff)
        assert (len(panels) == 1) == one_panel

    @settings(max_examples=20)
    @given(
        power=st.integers(1, 6),
        log_mass_sq=st.floats(-6.0, 6.0),
        factors=st.lists(st.floats(0.1, 1e6), min_size=1, max_size=6, unique=True),
    )
    def test_cold_and_warm_cache_agree_exactly(self, power, log_mass_sq, factors):
        mass_sq = 10.0**log_mass_sq
        grid = sorted(f * math.sqrt(mass_sq) for f in factors)
        cold = []
        for lam in grid:
            _clear_radial_caches()
            cold.append(oracle.radial_integral(power, mass_sq, lam))
        warm = [oracle.radial_integral(power, mass_sq, lam) for lam in grid]
        assert warm == cold


def _outcome(radial_integral, *args):
    """A radial's float, or its QuadratureError or OverflowError as (type, text)."""
    try:
        return radial_integral(*args)
    except (oracle.QuadratureError, OverflowError) as exc:
        return type(exc), str(exc)


# the decade edges of t from 1 to 1e30, each ten times the last (from 1e23 on not
# always 10.0**k), exact and 1 ulp either side
_EDGE_TS = [e for x in itertools.accumulate([10.0] * 30, operator.mul, initial=1.0)
            for e in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]


class TestRadialPrefixSums:
    @settings(max_examples=100)
    @given(
        power=st.integers(1, 6),
        mass_sq=st.one_of(st.floats(-6.0, 6.0).map(lambda e: 10.0**e), st.integers(-9, 9).map(lambda j: 4.0**j)),
        ts=st.lists(st.one_of(st.floats(-3.0, 30.0).map(lambda e: 10.0**e), st.integers(0, 92).map(_EDGE_TS.__getitem__)),
                    min_size=1, max_size=8),
        rel_tol=st.sampled_from([1e-6, 1e-8, 1e-10, 1e-16]),
        order=st.randoms(use_true_random=False),
    )
    # every edge up to the last, 1e9, and an ulp either side
    @example(power=1, mass_sq=1.0, ts=_EDGE_TS[:29], rel_tol=1e-10, order=random.Random(0))
    # t from 1e22 to 1e30, whose sigma lies past the image of 1e9, the last edge
    @example(power=3, mass_sq=1.0, ts=_EDGE_TS[-24:], rel_tol=1e-10, order=random.Random(0))
    def test_same_float_as_the_decade_by_decade_sum(self, power, mass_sq, ts, rel_tol, order):
        # 4^j masses have an exact square root, so their cutoffs land on the edges exactly; for power 1
        # a t past 1e9 adds the integral of k in k, not the decades the reference sums
        root = math.sqrt(mass_sq)
        cutoffs = [t * root for t in ts if power >= 2 or t * root / root <= 1e9]
        order.shuffle(cutoffs)
        _clear_radial_caches()
        for cutoff in cutoffs:
            args = (power, mass_sq, cutoff, rel_tol)
            assert _outcome(oracle.radial_integral, *args) == _outcome(references.radial_integral, *args)

    @settings(max_examples=200)
    @given(
        power=st.integers(1, 6),
        mass_sq=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
        edge=st.integers(0, 30).map(lambda j: 10.0**j),
        below=st.floats(0.0, 0.01, exclude_max=True),
    )
    def test_below_an_edge_agrees_with_the_sum_up_to_the_cutoff(self, power, mass_sq, edge, below):
        # at the default rel_tol; looser ones let the two sums part further (n = 1 at 1e-6: 5e-13)
        cutoff = edge * (1.0 - below) * math.sqrt(mass_sq)
        args = (power, mass_sq, cutoff)
        assert oracle.radial_integral(*args) == pytest.approx(references.radial_integral(*args, complement=False), rel=1e-14)

    def test_the_subtracted_piece_adds_its_error(self):
        with _short_pieces(lambda power, a, b, epsrel: (0.0, 1.0)), pytest.raises(oracle.QuadratureError, match="quadrature error 1.000e"):
            oracle.radial_integral(2, 1.0, 0.995e3)

    @pytest.mark.parametrize("power", range(1, 7))
    def test_inline_panel_is_the_integrand_panel(self, power):
        f = _piece_integrand(power)
        panel = oracle._radial_panel if power == 1 else oracle._sigma_panel
        for a, b in ((0.0, 0.5), (0.0, 1.0), (1.0, 10.0), (10.0, 1e3), (40.0, 800.0), (1e5, 1e9)):
            assert panel(power, a, b) == oracle._panel(f, a, b)
            assert oracle._radial_piece(power, a, b, 1e-11) == oracle.integrate(f, a, b, 1e-11)


def _piece_integrand(power):
    """The integrand of a radial piece as a plain function: power 1 in t; from power 2 on in sigma = c ln(1 + t^2), over 1/(2c)."""
    c = power - 2

    def f(x):
        if power == 1:
            return oracle.radial_integrand(x, power, 1.0)
        return -math.expm1(-x / c) * math.exp(-x) if c else -math.expm1(-x)

    return f


def _rule_on_unit_interval(rule, f):
    """(Kronrod, Gauss) values of a radial panel's rule for f over [0, 1]."""
    pairs, kronrod, gauss = rule
    kronrod, gauss = kronrod * f(0.5), gauss * f(0.5)
    for x, w_kronrod, w_gauss in pairs:
        pair = f(0.5 - 0.5 * x) + f(0.5 + 0.5 * x)
        kronrod += w_kronrod * pair
        gauss += w_gauss * pair
    return 0.5 * kronrod, 0.5 * gauss


@contextlib.contextmanager
def _panels_by_rule():
    """Counts of the radial panels built inside the block, by rule: {"K5": ..., "K15": ...}."""
    counts = {"K5": 0, "K15": 0}

    def counting(panel):
        def counted(power, a, b, rule=oracle._K15):
            counts["K5" if rule is oracle._K5 else "K15"] += 1
            return panel(power, a, b, rule)
        return counted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_radial_panel", counting(oracle._radial_panel))
        patch.setattr(oracle, "_sigma_panel", counting(oracle._sigma_panel))
        yield counts


class TestNarrowPieces:
    """A piece no wider than 1e-5 of its upper end takes one G2-K5 panel first, and keeps it where its error meets epsrel.

    The tests keep the names they had for the G3-K7 rule, gated at 1e-3, that G2-K5 replaced."""

    @pytest.mark.parametrize("k", range(14))
    def test_k7_integrates_monomials_to_rounding(self, k):
        # Kronrod's extension of the 2-point Gauss rule is exact to degree 3*2 + 1 = 7, the Gauss rule to 3
        kronrod, gauss = _rule_on_unit_interval(oracle._K5, lambda x: x**k)
        exact = 1.0 / (k + 1)
        assert (abs(kronrod - exact) <= 2 * math.ulp(exact)) == (k <= 7)
        assert (abs(gauss - exact) <= 2 * math.ulp(exact)) == (k <= 3)

    def test_k7_nodes_and_weights_to_30_digits(self):
        # the G2-K5 table, (pairs, Kronrod center weight, Gauss center weight), from a 30-digit computation
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            # the Stieltjes polynomial x^3 + p x is orthogonal to P2, x P2 and x^2 P2, P2 = (3x^2 - 1)/2, where only x P2
            # sets a condition (the other two products are odd); its roots join the Gauss nodes +-1/sqrt(3), the roots of P2
            def moment(j):
                return mp.mpf(2) / (j + 1) if j % 2 == 0 else mp.mpf(0)

            def p2_moment(j):  # int_-1^1 P2(x) x^j dx
                return (3 * moment(j + 2) - moment(j)) / 2

            p = -p2_moment(4) / p2_moment(2)
            nodes = [mp.sqrt(-p), 1 / mp.sqrt(3)]
            points = [-x for x in nodes] + [mp.mpf(0)] + nodes[::-1]
            weights = mp.lu_solve(mp.matrix([[x**j for x in points] for j in range(5)]), mp.matrix([moment(j) for j in range(5)]))
            gauss = (0, 2 / ((1 - nodes[1] ** 2) * (3 * nodes[1]) ** 2))  # 2 / ((1 - x^2) P2'(x)^2); the center is no Gauss node
            want = (tuple((float(x), float(weights[i]), float(gauss[i])) for i, x in enumerate(nodes)), float(weights[2]), 0.0)
        assert oracle._K5 == want

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10, 1e-16])
    @pytest.mark.parametrize("power", range(1, 7))
    def test_a_piece_next_to_an_edge_takes_k7(self, power, rel_tol):
        # within 1e-6 below and above each edge in t or sigma, at the epsrel the pieces of a radial at rel_tol take
        f, epsrel = _piece_integrand(power), oracle._setup(power, 1.0, rel_tol)[3]
        for edge in oracle._edges(power)[1:]:
            for a, b in ((edge * (1.0 - 1e-6), edge), (edge, edge * (1.0 + 1e-6))):
                with _panels_by_rule() as panels:
                    value, error = oracle._radial_piece(power, a, b, epsrel)
                assert panels == {"K5": 1, "K15": 0}
                assert abs(value - oracle.integrate(f, a, b, epsrel)[0]) <= 4 * math.ulp(value)
                assert error <= epsrel * abs(value)

    @pytest.mark.parametrize("power", range(4, 7))
    def test_a_narrow_piece_that_k7_misses_is_the_adaptive_rule(self, power):
        # an epsrel far below the rounding of the 5-point sums forces |K5 - G2| to miss it inside the gate
        f, edge = _piece_integrand(power), oracle._edges(power)[-1]
        a = edge * (1.0 - 0.999e-5)  # inside the gate: b - a at exactly 1e-5 b rounds to either side of it
        with _panels_by_rule() as panels:
            got = oracle._radial_piece(power, a, edge, 1e-20)
        assert got == oracle.integrate(f, a, edge, 1e-20)
        assert panels["K5"] == 1 and panels["K15"] >= 1

    @pytest.mark.parametrize("width", [1.001e-5, 1e-4, 1e-3, 1.001e-3, 1e-2, 0.5])
    @pytest.mark.parametrize("power", range(1, 7))
    def test_a_wider_piece_is_the_adaptive_rule(self, power, width):
        f = _piece_integrand(power)
        for edge in oracle._edges(power)[1:]:
            a = edge * (1.0 - width)
            with _panels_by_rule() as panels:
                got = oracle._radial_piece(power, a, edge, 1e-11)
            assert got == oracle.integrate(f, a, edge, 1e-11) and panels["K5"] == 0


# cutoffs in units of sqrt(M^2): exact decade edges 1..1e6 and points within 1e-6 either side of one
_PROBE_TS = st.one_of(
    st.integers(0, 6).map(lambda j: 10.0**j),
    st.tuples(st.integers(0, 6), st.floats(-1e-6, 1e-6)).map(lambda jd: 10.0 ** jd[0] * (1.0 + jd[1])),
)


def _probe_radials(power, mass_sq, grid, rel_tol):
    return CutoffProbe(power, mass_sq, grid, QuadratureSpec(rel_tol)).radials


def _single_reads(power, mass_sq, grid, rel_tol):
    """radial_integral at each cutoff, in grid order, as a probe gives them: the floats, or the first failure."""
    outcomes = [_outcome(oracle.radial_integral, power, mass_sq, lam, rel_tol) for lam in grid]
    return next((o for o in outcomes if not isinstance(o, float)), tuple(outcomes))


class TestProbeRadials:
    @settings(max_examples=60)
    @given(
        power=st.integers(1, 6),
        mass_sq=st.one_of(st.floats(-6.0, 6.0).map(lambda e: 10.0**e), st.integers(-9, 9).map(lambda j: 4.0**j)),
        ts=st.lists(_PROBE_TS, min_size=4, max_size=8),
        rel_tol=st.sampled_from([1e-10, 1e-8, 1e-6]),
    )
    def test_one_pass_is_the_reference_cutoff_by_cutoff(self, power, mass_sq, ts, rel_tol):
        grid = tuple(sorted({t * math.sqrt(mass_sq) for t in ts}))
        assume(len(grid) >= 4)
        want = tuple(references.radial_integral(power, mass_sq, lam, rel_tol) for lam in grid)
        _clear_radial_caches()
        for _ in ("cold", "warm"):
            assert CutoffProbe(power, mass_sq, grid, QuadratureSpec(rel_tol)).radials == want

    @pytest.mark.parametrize("rel_tol, failing", [(1e-16, None), (1e-10, lambda power, a, b, epsrel: (0.0, 1.0))])
    def test_a_cutoff_that_misses_rel_tol_fails_as_radial_integral_does(self, rel_tol, failing):
        # 10 is a decade edge, so only the cutoff just below 1e3 integrates a piece, which the patch fails
        probe = CutoffProbe(2, 1.0, (10.0, 0.995e3), QuadratureSpec(rel_tol))
        with _short_pieces(failing) if failing else contextlib.nullcontext():
            with pytest.raises(oracle.QuadratureError) as alone:
                oracle.radial_integral(2, 1.0, 0.995e3 if failing else 10.0, rel_tol)
            with pytest.raises(oracle.QuadratureError, match="quadrature error") as in_probe:
                probe.radials
        assert str(in_probe.value) == str(alone.value)

    @settings(max_examples=30)
    @given(
        power=st.integers(1, 6),
        mass_sq=st.one_of(st.floats(-6.0, 6.0).map(lambda e: 10.0**e), st.integers(-9, 9).map(lambda j: 4.0**j)),
        ts=st.lists(_PROBE_TS, min_size=1, max_size=8),
        rel_tol=st.sampled_from([1e-10, 1e-8, 1e-6]),
    )
    # the cutoffs off radial_integral's common path: a t-integral below the mass that underflows, t > 1e9 at power 1,
    # (M^2)^(2-n) past the float range (the radial fits at t = 1e-20, not at t = 1) and rel_tol missed; and a power
    # past the float range, which the set-up refuses
    @example(power=3, mass_sq=1e-200, ts=[1e-90, 1e-80], rel_tol=1e-10)
    @example(power=1, mass_sq=1.0, ts=[1e8, 1e10, 1e12], rel_tol=1e-10)
    @example(power=6, mass_sq=1e-80, ts=[1e-20, 1.0], rel_tol=1e-10)
    @example(power=2, mass_sq=1.0, ts=[10.0, 1e6], rel_tol=1e-16)
    @example(power=10**400, mass_sq=1.0, ts=[0.5], rel_tol=1e-10)
    def test_cold_warm_single_and_evicted_reads_agree(self, power, mass_sq, ts, rel_tol):
        # the per-cutoff cache holds 256 cutoffs, so 300 distinct ones below sqrt(M^2) evict every cutoff of the grid
        root = math.sqrt(mass_sq)
        grid = tuple(sorted({t * root for t in ts}))
        _clear_radial_caches()
        cold_single = _single_reads(power, mass_sq, grid, rel_tol)
        _clear_radial_caches()
        cold = _outcome(_probe_radials, power, mass_sq, grid, rel_tol)
        warm = _outcome(_probe_radials, power, mass_sq, grid, rel_tol)
        single = _single_reads(power, mass_sq, grid, rel_tol)
        for i in range(300):
            _outcome(oracle.radial_integral, power, mass_sq, (i + 1) / 400.0 * root, rel_tol)
        evicted = _outcome(_probe_radials, power, mass_sq, grid, rel_tol)
        assert cold_single == cold and warm == cold and single == cold and evicted == cold


class TestCutoffPastTheLastEdge:
    """Past the last decade edge, t = cutoff/sqrt(M^2) = 1e9, inf included: power 1 adds to the decades up to that
    edge the integral of k in k from E = 1e9 sqrt(M^2) to the cutoff, (cutoff - E)(cutoff + E)/2; from power 2 on
    the top piece runs in sigma = c ln(1 + t^2) from the image of 1e9 up to the cutoff's sigma, which stops at 800
    from power 3 on, and which is 2c(ln cutoff - ln sqrt(M^2)) where t^2 overflows."""

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("cutoff", [1e308, 1.7e308])
    def test_log_member_is_ln_t_less_one_half(self, cutoff, rel_tol):
        assert oracle.radial_integral(2, 1.0, cutoff, rel_tol) == pytest.approx(math.log(cutoff) - 0.5, rel=1e-12)

    @pytest.mark.parametrize("mass_sq, cutoff", [(0.5, 1.7e308), (1e-10, 1e308), (1e-300, 1e300)])
    def test_log_member_where_t_overflows(self, mass_sq, cutoff):
        # t = cutoff/sqrt(M^2) is inf; ln t - 1/2 is 709.57 at the first
        want = math.log(cutoff) - 0.5 * math.log(mass_sq) - 0.5
        assert oracle.radial_integral(2, mass_sq, cutoff) == pytest.approx(want, rel=1e-14)
        assert CutoffProbe(2, mass_sq, (cutoff,)).radials == (oracle.radial_integral(2, mass_sq, cutoff),)
        with pytest.raises(OverflowError, match="past the float range"):
            oracle.radial_integral(2, mass_sq, math.inf)

    @pytest.mark.parametrize("power", range(3, 13))
    def test_a_t_that_overflows_gives_the_closed_form(self, power):
        # t = 1e308/1e-5 overflows to inf, yet the radial is finite (2.5e9 at n = 3)
        radial = oracle.radial_integral(power, 1e-10, 1e308)
        assert radial == pytest.approx(radial_analytic(power, 1e-10, 1e308), rel=1e-10)

    @pytest.mark.parametrize("power", range(3, 13))
    @pytest.mark.parametrize("mass_sq", [1.0, 1e-10])
    def test_cutoffs_past_t_1e9_give_one_float(self, power, mass_sq):
        # every cutoff whose sigma reaches the cap, 800 (t >= 5e173 at power 3), is the one float at the cap; at
        # M^2 = 1e-10 t overflows from 1e308 on, and t^2 from 1e200 sqrt(M^2) on at either mass
        root = math.sqrt(mass_sq)
        cutoffs = (1e200 * root, 1e300 * root, 1e308, math.nextafter(1e308, math.inf), 1.7e308, sys.float_info.max)
        radials = {oracle.radial_integral(power, mass_sq, cutoff) for cutoff in cutoffs}
        assert radials == {references.radial_integral(power, mass_sq, 1e200 * root)}

    @pytest.mark.parametrize("power", [1, 2])
    def test_powers_1_and_2_within_two_ulps_of_sixty_digits(self, power):
        mp = pytest.importorskip("mpmath")
        # t from 1e9 up, inf included: an ulp past the edge, cutoffs whose t or t^2 overflows (5.0e299 for
        # n = 1 at M^2 = 1e-320 and cutoff 1e150), then t 10^U(9, 300) at M^2 10^U(-30, 30)
        rng = random.Random(11)
        cases = [(1.0, math.nextafter(1e9, math.inf)), (1e-320, 1e150), (1.8e-19, 1.5e149), (1e-300, 1e300), (0.5, 1.7e308)]
        for _ in range(200):
            mass_sq = 10.0 ** rng.uniform(-30.0, 30.0)
            cases.append((mass_sq, min(10.0 ** rng.uniform(9.0, 300.0) * math.sqrt(mass_sq), sys.float_info.max)))
        for mass_sq, cutoff in cases:
            with mp.workdps(60):
                lam2, m2 = mp.mpf(cutoff) ** 2, mp.mpf(mass_sq)
                log = mp.log1p(lam2 / m2)
                want = (lam2 - m2 * log) / 2 if power == 1 else (log + m2 / (lam2 + m2) - 1) / 2
            if want > sys.float_info.max:
                with pytest.raises(OverflowError, match="past the float range"):
                    oracle.radial_integral(power, mass_sq, cutoff)
            else:
                got = oracle.radial_integral(power, mass_sq, cutoff)
                assert abs(got - want) <= 2 * math.ulp(float(want)), (mass_sq, cutoff)


class TestScalePastTheFloatRange:
    """(M^2)^(2-n) alone past the float range while the radial fits: the product is taken from its logarithm."""

    @pytest.mark.parametrize("power, mass_sq, cutoff", [(3, 1e-310, 1e-160), (6, 1e-80, 1e-60), (8, 1e-60, 1e-45), (4, 1e-200, 1e-110)])
    def test_within_the_exponent_rounding_of_fifty_digits(self, power, mass_sq, cutoff):
        mp = pytest.importorskip("mpmath")
        with pytest.raises(OverflowError):
            mass_sq ** (2 - power)
        with mp.workdps(50):
            m2 = mp.mpf(mass_sq)
            t_cut = mp.mpf(cutoff) / mp.sqrt(m2)
            # t = t_cut u: mpmath's tolerance is absolute, and the u-integral is O(1)
            want = m2 ** (2 - power) * t_cut**4 * mp.quad(lambda u: u**3 / (t_cut * t_cut * u * u + 1) ** power, [0, 1])
        if want > sys.float_info.max:  # 2.5e+359 at n = 4
            with pytest.raises(OverflowError, match="past the float range"):
                oracle.radial_integral(power, mass_sq, cutoff)
        else:  # 2.4999999995e+289, 2.5e+239 and 2.5e+299, each within 3e-14 on x86-64 glibc
            # exp(x) turns the rounding of an x near 700 into a relative error of |x| * epsilon, ~1.5e-13
            bound = float(mp.log(want)) * sys.float_info.epsilon
            assert abs(oracle.radial_integral(power, mass_sq, cutoff) - want) <= bound * want


def _mp_radial(mp, power, m2, lam2):
    """int_0^cutoff k^3 (k^2 + M^2)^(-n) dk from its antiderivative in v = k^2, at mpmath's working precision."""
    w = lam2 + m2
    if power == 1:
        return (lam2 - m2 * mp.log(w / m2)) / 2
    if power == 2:
        return (mp.log(w / m2) + m2 / w - 1) / 2

    def antiderivative(v):
        return (v ** (2 - power) / (2 - power) + m2 * v ** (1 - power) / (power - 1)) / 2

    return antiderivative(w) - antiderivative(m2)


class TestTIntegralPastTheFloatRange:
    """The t-integral t^4/4 below the mass underflows: the radial is taken from the logarithms of cutoff^4 (M^2)^(-n) and J."""

    @pytest.mark.parametrize("power, mass_sq, cutoff", [(3, 1e-200, 1e-190), (3, 1e-300, 1e-300), (1, 1e-300, 1e-300),
                                                        (2, 1e-300, 1e-300), (5, 5e-324, 5e-324)])
    def test_within_the_exponent_rounding_of_fifty_digits(self, power, mass_sq, cutoff):
        mp = pytest.importorskip("mpmath")
        assert (cutoff / math.sqrt(mass_sq)) ** 4 / 4 < sys.float_info.min
        # the antiderivative's difference cancels 2 |log10 x| digits, x = cutoff^2/M^2, so 50 are kept beyond those
        lost = 2 * round(math.log10(mass_sq) - 2 * math.log10(cutoff))
        with mp.workdps(50 + lost):
            m2, lam2 = mp.mpf(mass_sq), mp.mpf(cutoff) ** 2
            want = _mp_radial(mp, power, m2, lam2)
        if want > sys.float_info.max:  # 5e+322 at n = 5
            with pytest.raises(OverflowError, match="past the float range"):
                oracle.radial_integral(power, mass_sq, cutoff)
        elif 2 * want < math.ulp(0.0):  # 2.5e-901 at n = 1 and 2.5e-601 at n = 2 underflow in any form
            assert oracle.radial_integral(power, mass_sq, cutoff) == 0.0
        else:  # 2.5000000000004011e-161 and 2.5000000000003341e-301 on x86-64 glibc
            # the exponent 4 ln(cutoff) - n ln(M^2) + ln J is rounded at the size of its terms, ~3000-5000 here
            bound = (4 * abs(math.log(cutoff)) + power * abs(math.log(mass_sq))) * sys.float_info.epsilon
            assert abs(oracle.radial_integral(power, mass_sq, cutoff) - want) <= bound * want

    def test_power_past_the_float_range(self):
        # an n that no float holds is refused by name where the edges are derived, before any quadrature
        with pytest.raises(OverflowError, match="past the float range"):
            oracle.radial_integral(10**400, 1.0, 0.5)


class TestIntegrate:
    @pytest.mark.parametrize(
        "f, a, b, want",
        [
            (math.exp, 0.0, 1.0, math.expm1(1.0)),
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 10.0, math.atan(10.0)),
            (math.sqrt, 0.0, 1.0, 2.0 / 3.0),
            (math.log, 0.0, 1.0, -1.0),
            (lambda x: math.sin(20.0 * x), 0.0, 3.0, (1.0 - math.cos(60.0)) / 20.0),
            (lambda k: oracle.radial_integrand(k, 2, 1.0), 0.0, 1e3, radial_analytic(2, 1.0, 1e3)),
        ],
        ids=["exp", "lorentzian", "sqrt", "log-singular", "oscillating", "radial-n2"],
    )
    def test_agrees_with_quadpack(self, f, a, b, want):
        value, error = oracle.integrate(f, a, b, 1e-12)
        assert error <= 1e-12 * abs(value)
        assert value == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize(
        "f, a, b, epsrel, epsabs",
        [
            (math.exp, 0.0, 1.0, 1e-12, 0.0),  # one panel
            (math.sqrt, 0.0, 1.0, 1e-12, 0.0),  # bisected
            (lambda x: -0.0, 0.0, 1.0, 1e-12, 0.0),  # a -0.0 panel: the fsum gives 0.0
            (lambda x: -x * 0.0, 0.0, 1.0, 1e-12, 1e-12),
            (math.sin, -1.0, 1.0, 1e-12, 0.0),  # an odd integrand: no relative tolerance is met
            (lambda x: 1e-300 * x, 0.0, 1.0, 1e-12, 1e-12),
        ],
        ids=["exp", "sqrt", "minus-zero", "minus-zero-abs", "odd", "tiny"],
    )
    def test_same_floats_as_the_adapt_that_always_sums(self, f, a, b, epsrel, epsabs):
        got = oracle.integrate(f, a, b, epsrel, epsabs)
        assert repr(got) == repr(references.adapt(partial(oracle._panel, f), a, b, epsrel, epsabs))

    @pytest.mark.parametrize("power", range(1, 7))
    def test_radial_pieces_are_the_adapt_that_always_sums(self, power):
        # power 1's pieces in t, the others' in sigma, each with the written-out panel its variable takes
        panel = oracle._radial_panel if power == 1 else oracle._sigma_panel
        pieces = ((0.0, 1.0), (1.0, 10.0), (10.0, 100.0), (990.0, 1e3), (1e5, 1e6)) if power == 1 else (
            (0.0, 0.5), (0.5, math.log(2.0)), (4.0, 4.7), (13.5, 13.9), (41.0, 800.0))
        for a, b in pieces:
            for epsrel in (1e-11, 1e-9, 1e-7, 5e-14):
                want = references.adapt(partial(panel, power), a, b, epsrel)
                assert oracle._adapt(panel, power, a, b, epsrel, 0.0) == want

    def test_absolute_tolerance_ends_a_zero_integral(self):
        # the on-shell x-integrand at L = 5/3 integrates to 0 (5 - 3L)
        calls = []

        def f(x):
            calls.append(x)
            return (2.0 + 2.0 * x) * (-(5.0 / 3.0 + 2.0 * math.log(x)))

        value, error = oracle.integrate(f, 0.0, 1.0, 1e-12, epsabs=1e-12)
        assert abs(value) <= 1e-12 and error <= 1e-12
        assert len(calls) < 15 * 100
        # a purely relative test cannot be met at 0: it bisects up to 200 panels
        calls.clear()
        oracle.integrate(f, 0.0, 1.0, 1e-12)
        assert len(calls) == 15 * (1 + 2 * 199)

    @pytest.mark.parametrize("big_l", [0.0, 1.0, 5.0 / 3.0])
    def test_x_quadrature_row_in_s(self, evaluations, big_l):
        # in s = -ln x the log singularity is an exponential decay: 1125-1245 evaluations in x, 225 in s
        assert abs(checks._pipeline_x_integral(big_l) - (5.0 - 3.0 * big_l)) <= 1e-14
        assert 0 < evaluations() <= 300


def _root_and_evaluations(finder, f, lo, hi):
    """(root, number of evaluations of f) of one root finder call."""
    xs = []

    def counted(x):
        xs.append(x)
        return f(x)

    return finder(counted, lo, hi), len(xs)


@pytest.fixture
def evaluations(monkeypatch):
    """Evaluations of the functions handed to ``oracle.find_root`` and ``oracle.integrate`` since the fixture."""
    count = [0]

    def counting(tool):
        def wrapper(f, *args, **kwargs):
            def counted(x):
                count[0] += 1
                return f(x)

            return tool(counted, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(oracle, "find_root", counting(oracle.find_root))
    monkeypatch.setattr(oracle, "integrate", counting(oracle.integrate))
    return lambda: count[0]


# the evaluations each costly check row makes, exactly
_ROW_EVALUATIONS = {"mu1 root finder agrees": 78, "minimizing the potential": 42, "resummation pole": 106, "x-quadrature": 495}

# monotone, smooth, odd shapes: the computed sign of shape(c * (x - root)) is the sign of x - root
_SHAPES = {"cubic": lambda d: d + d**3, "expm1": math.expm1, "sinh": math.sinh, "atan": math.atan, "tanh": math.tanh}


@st.composite
def _brackets(draw):
    """A bracket (lo, hi): above zero over up to 18 decades of width, across zero, or among the subnormals."""
    kind = draw(st.sampled_from(["positive", "crossing", "subnormal"]))
    if kind == "positive":
        lo = 10.0 ** draw(st.floats(-3.0, 3.0))
        return lo, lo * (1.0 + 10.0 ** draw(st.floats(-15.0, 3.0)))
    if kind == "crossing":
        return -(10.0 ** draw(st.floats(-3.0, 3.0))), 10.0 ** draw(st.floats(-3.0, 3.0))
    i = draw(st.integers(0, 40))
    return i * 5e-324, (i + draw(st.integers(1, 40))) * 5e-324


def _traced(finder, f, lo, hi):
    """(the reprs of the points finder evaluates f at, in order; the repr of its root or its error)."""
    points = []

    def traced(x):
        points.append(repr(x))
        return f(x)

    try:
        outcome = repr(finder(traced, lo, hi))
    except Exception as e:
        outcome = f"{type(e).__name__}: {e}"
    return points, outcome


class TestFindRoot:
    def test_converges_to_machine_width(self):
        assert oracle.find_root(math.cos, 0.0, 2.0) == pytest.approx(0.5 * math.pi, rel=2e-15)

    def test_endpoint_root(self):
        assert oracle.find_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0

    def test_a_bracket_with_no_float_inside_ends_the_search(self):
        # among subnormals the relative stop width 1e-15 * hi is 0, so only the bracket running out of floats ends it
        assert oracle.find_root(lambda x: -1.0 if x <= 1e-323 else 1.0, 0.0, 2e-323) == 1e-323

    def test_a_halved_subnormal_end_keeps_its_sign(self):
        # f is never 0; an Illinois halving rounds f_lo = 5e-324 to 0.0, and the sign read at lo still steers the steps
        def f(x):
            return -1e-323 * math.copysign(1.0, x - 0.3) * max(abs(math.tanh(100.0 * (x - 0.3))), 0.6)

        root = oracle.find_root(f, 0.0, 1.0)
        assert (f(math.nextafter(root, 0.0)) > 0.0) != (f(math.nextafter(root, 1.0)) > 0.0)
        assert abs(root - 0.3) <= 1e-15

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (2.0, 3.0)])
    def test_same_signed_bracket_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="same sign"):
            oracle.find_root(lambda x: (x - 1.5) ** 2 + 1.0, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(1.0, 4.0), (0.3, 1e6), (1e-300, 1.0), (2.0, 2.0000000000001), (-3.0, 5.0)])
    @pytest.mark.parametrize("at", [0.3, 0.999])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_step_function_is_pure_bisection(self, lo, hi, at, sign):
        # f repeats its values, so every step bisects: the root of bisection, in as many evaluations
        root = lo + at * (hi - lo)

        def step(x):
            return sign if x >= root else -sign

        assert _root_and_evaluations(oracle.find_root, step, lo, hi) == _root_and_evaluations(bisect, step, lo, hi)

    @settings(max_examples=300)
    @given(
        log_lo=st.floats(-3.0, 3.0),
        log_width=st.floats(-3.0, 3.0),
        at=st.floats(0.0, 1.0),
        log_steepness=st.floats(-2.0, 2.0),
        shape=st.sampled_from(sorted(_SHAPES)),
        sign=st.sampled_from([1.0, -1.0]),
    )
    # nearly linear, root next to an end: regula falsi lands on it, and the far end must still move
    @example(log_lo=-1.0, log_width=0.0, at=1e-15, log_steepness=-2.0, shape="sinh", sign=1.0)
    def test_monotone_smooth_root_in_no_more_evaluations_than_bisection(self, log_lo, log_width, at, log_steepness, shape, sign):
        lo = 10.0**log_lo
        hi = lo * (1.0 + 10.0**log_width)
        true_root = lo + at * (hi - lo)
        c = 10.0**log_steepness / (hi - lo)

        def f(x):
            return sign * _SHAPES[shape](c * (x - true_root))

        root, n = _root_and_evaluations(oracle.find_root, f, lo, hi)
        assert abs(root - true_root) <= 1e-15 * true_root
        assert n <= _root_and_evaluations(bisect, f, lo, hi)[1]

    @settings(max_examples=400)
    @given(
        bracket=_brackets(),
        kind=st.sampled_from(["shape", "step", "nan past"]),
        at=st.floats(0.0, 1.0),
        cut=st.floats(0.0, 1.0),
        log_steepness=st.floats(-2.0, 2.0),
        shape=st.sampled_from(sorted(_SHAPES)),
        sign=st.sampled_from([1.0, -1.0]),
        amplitude=st.sampled_from([1.0, 1e-300, 1e-320, 5e-324]),
    )
    # a regula falsi step halves f_lo = 5e-324 to 0.0: the next steps still read the sign f(lo) had at first
    @example(bracket=(0.0, 1.0), kind="shape", at=0.5, cut=0.0, log_steepness=2.0, shape="tanh", sign=-1.0, amplitude=5e-324)
    # a root at 0 inside a bracket across zero: the stop width and margin read max(|lo|, |hi|) = -lo to the end
    @example(bracket=(-5.0, 3.0), kind="shape", at=0.625, cut=0.0, log_steepness=0.0, shape="cubic", sign=1.0, amplitude=1.0)
    def test_same_points_and_root_as_the_reference_loop(self, bracket, kind, at, cut, log_steepness, shape, sign, amplitude):
        lo, hi = bracket
        root, past, steepness = lo + at * (hi - lo), lo + cut * (hi - lo), 10.0**log_steepness

        def f(x):
            if kind == "step":
                return sign if x >= root else -sign
            if kind == "nan past" and x > past:
                return math.nan
            return sign * amplitude * _SHAPES[shape](steepness * ((x - root) / (hi - lo)))

        assert _traced(oracle.find_root, f, lo, hi) == _traced(references.find_root, f, lo, hi)

    @pytest.mark.parametrize(
        "row, most",
        [
            ("mu1 root finder agrees", 80),  # bisection: 318
            ("minimizing the potential", 55),  # bisection: 159
            ("resummation pole", 106),  # a step function: bisection's count
            ("x-quadrature", 495),  # 3 x 11 pieces, each settled in one panel of 15 nodes
        ],
    )
    def test_evaluations_per_check_row(self, evaluations, row, most):
        # most is the row's budget; the count is exact, so a change in the points a row visits shows here
        (check,) = [c for c in checks.CHECKS if c.name.startswith(row)]
        ok, detail = check.run()
        assert ok, detail
        assert evaluations() == _ROW_EVALUATIONS[row] <= most


class TestRadialReferences:
    @pytest.mark.parametrize("power", range(1, 13))
    @pytest.mark.parametrize("mass_sq", [1e-300, 1e-6, 1.0, 1e6, 1e300])
    def test_fifty_digit_quadrature(self, power, mass_sq):
        mp = pytest.importorskip("mpmath")
        cutoff = 1e3 * math.sqrt(mass_sq)
        with mp.workdps(50):
            m2 = mp.mpf(mass_sq)
            # mpmath's tolerance is absolute: the factor makes the k-integral O(1)
            norm = m2 ** (power - 2)
            edges = [mp.mpf(0)] + [mp.sqrt(m2) * 10**j for j in range(3)] + [mp.mpf(cutoff)]
            want = mp.quad(lambda k: norm * k**3 / (k * k + m2) ** power, edges) / norm
        if want > sys.float_info.max:
            with pytest.raises(OverflowError):
                oracle.radial_integral(power, mass_sq, cutoff)
        elif want < sys.float_info.min:  # the true value underflows
            assert abs(oracle.radial_integral(power, mass_sq, cutoff)) <= sys.float_info.min
        else:
            assert oracle.radial_integral(power, mass_sq, cutoff) == pytest.approx(float(want), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("power", [1090, 1100, 5000])
    def test_a_power_whose_integrand_overflows_both_ways(self, power):
        # near t = 1 both t^3/(t^2+1)^n and t^(3-2n)/(1+t^-2)^n overflow (2^n); the integrand is below 2^-1024 there
        assert oracle.radial_integrand(1.0, power, 1.0) == 0.0
        # the tail past t = 100 is below 1e-4000, so the radial is its limit, int_0^inf t^3 (t^2 + 1)^(-n) dt = 1/(2(n - 1)(n - 2))
        assert oracle.radial_integral(power, 1.0, 100.0) == pytest.approx(1 / (2 * (power - 1) * (power - 2)), rel=1e-12)

    @pytest.mark.parametrize("power", [20_000_000, 40_000_000, 10**15, 10**20])
    def test_large_powers_within_four_epsilon_of_mpmath(self, power):
        mp = pytest.importorskip("mpmath")
        # the integrand's mass lies near t = 1/sqrt(n), below the first node of a panel over [0, 1] in t; cutoffs
        # 1e-14 .. 1e298 at M^2 = 1 span it, the radial's growth as t^4/4 below it and its limit 1/(2(n - 1)(n - 2))
        for cutoff in [10.0**e for e in range(-14, 300, 4)]:
            with mp.workdps(60 + 2 * len(str(power))):  # the antiderivative's two terms cancel about n-fold
                want = _mp_radial(mp, mp.mpf(power), mp.mpf(1), mp.mpf(cutoff) ** 2)
            for rel_tol in (1e-10, 1e-6):
                got = oracle.radial_integral(power, 1.0, cutoff, rel_tol)
                assert abs(got - want) <= 4 * sys.float_info.epsilon * want, (cutoff, rel_tol)

    def test_seeded_requests_meet_their_tolerance(self):
        # n 1..6, M^2 1e-6..1e6, cutoff 10^0.5..10^6 sqrt(M^2), rel_tol 1e-10..1e-6
        rng = random.Random(6)
        worst = 0.0
        for _ in range(400):
            power = rng.randint(1, 6)
            mass_sq = 10.0 ** rng.uniform(-6.0, 6.0)
            cutoff = 10.0 ** rng.uniform(0.5, 6.0) * math.sqrt(mass_sq)
            rel_tol = 10.0 ** rng.uniform(-10.0, -6.0)
            got = oracle.radial_integral(power, mass_sq, cutoff, rel_tol)  # no QuadratureError
            exact = radial_analytic(power, mass_sq, cutoff)
            worst = max(worst, abs(got - exact) / (rel_tol * abs(exact)))
        assert worst <= 1.0


class TestCutoffIndependenceOfDifferences:
    def test_radial_differences_stable_over_top_decades(self):
        # the mass-to-mass difference is the physical content; it must be
        # cutoff-stable even while both radials grow without bound
        m2a, m2b = 0.5, 2.0
        diffs = [
            oracle.radial_integral(2, m2a, lam) - oracle.radial_integral(2, m2b, lam)
            for lam in (1e4, 1e5, 1e6)
        ]
        for d in diffs[1:]:
            assert abs(d - diffs[0]) < 1e-6
        assert diffs[-1] == pytest.approx(-0.5 * math.log(m2a / m2b), abs=1e-6)
