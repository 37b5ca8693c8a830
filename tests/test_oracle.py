import itertools
import math
import operator
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopreg import checks, oracle
from loopreg.oracle import CutoffProbe, InsufficientGridError, QuadratureSpec, default_grid

from closed_forms import radial_analytic
import references
from references import bisect


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

    def test_rel_tol_window(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=1e-5)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        assert QuadratureSpec().rel_tol == 1e-10


class TestDivergenceSignature:
    def test_log_member(self):
        sig = oracle.divergence_signature(CutoffProbe(2, 1.0, (1e2, 1e3, 1e4, 1e5)))
        assert sig.kind == "log"
        assert sig.coefficient == pytest.approx(1.0, rel=1e-2)

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


class TestLineFit:
    def test_recovers_exact_line(self):
        xs = [0.5, 1.0, 2.0, 7.0, 11.0]
        slope, intercept = oracle._line_fit(xs, [3.0 - 2.5 * x for x in xs])
        assert slope == pytest.approx(-2.5, rel=1e-14)
        assert intercept == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("mass_sq", [1e-6, 0.5, 1.0, math.e**2, 1e6])
    def test_agrees_with_polyfit_on_log_probe_points(self, mass_sq):
        np = pytest.importorskip("numpy")
        grid = default_grid(mass_sq)
        vals = [oracle.radial_integral(2, mass_sq, lam) for lam in grid]
        # divergence_signature: ln-slope of the n = 2 radials
        logs = [math.log(lam) for lam in grid]
        slope, _ = oracle._line_fit(logs, vals)
        assert slope == pytest.approx(float(np.polyfit(logs, vals, 1)[0]), rel=1e-12)
        # asymptote_constant: (cutoff_top/cutoff)^2 extrapolation over the top two decades
        top = [(lam, v) for lam, v in zip(grid, vals) if lam >= grid[-1] / 100.0]
        xs = [(grid[-1] / lam) ** 2 for lam, _ in top]
        gs = [v - math.log(lam) for lam, v in top]
        _, intercept = oracle._line_fit(xs, gs)
        assert intercept == pytest.approx(float(np.polyfit(xs, gs, 1)[1]), rel=1e-12)


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
    oracle._piece.cache_clear()


class TestPieceCache:
    def test_default_report_integrates_each_decade_once(self, integrations):
        for mass_sq, new_pieces in ((1.0, 7), (4.0, 0)):  # the pieces carry no mass
            before = integrations()
            _default_report(mass_sq)
            assert integrations() - before == new_pieces

    def test_cached_pieces_still_fail_the_tolerance(self, integrations):
        for _ in range(2):
            with pytest.raises(oracle.QuadratureError):
                oracle.radial_integral(2, 1.0, 1e6, rel_tol=1e-16)
        assert integrations() == 7

    def test_top_pieces_do_not_evict_the_decades(self, integrations):
        _default_report(1.0)
        for i in range(300):  # 300 distinct top pieces [0, t], t < 1
            oracle.radial_integral(2, 1.0, (i + 1) / 400.0)
        before = integrations()
        _default_report(1.0)
        assert integrations() - before == 0

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
        _default_report(1.0)  # caches the decade sums up to t = 1e6
        panels, radial_panel = [], oracle._radial_panel

        def counted(*args):
            panels.append(args)
            return radial_panel(*args)

        monkeypatch.setattr(oracle, "_radial_panel", counted)
        oracle.radial_integral(2, 1.0, cutoff)
        assert (len(panels) == 1) == one_panel

    @settings(max_examples=20, deadline=None, database=None)
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
    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(
        power=st.integers(1, 6),
        mass_sq=st.one_of(st.floats(-6.0, 6.0).map(lambda e: 10.0**e), st.integers(-9, 9).map(lambda j: 4.0**j)),
        ts=st.lists(st.one_of(st.floats(-3.0, 30.0).map(lambda e: 10.0**e), st.integers(0, 92).map(_EDGE_TS.__getitem__)),
                    min_size=1, max_size=8),
        rel_tol=st.sampled_from([1e-6, 1e-8, 1e-10, 1e-16]),
        order=st.randoms(use_true_random=False),
    )
    # above 1e22 the edges are not 10.0**k, and a split at 10.0**k changes these power-1 radials
    @example(power=1, mass_sq=1.0, ts=_EDGE_TS[-24:], rel_tol=1e-10, order=random.Random(0))
    def test_same_float_as_the_decade_by_decade_sum(self, power, mass_sq, ts, rel_tol, order):
        # 4^j masses have an exact square root, so their cutoffs land on the edges exactly
        cutoffs = [t * math.sqrt(mass_sq) for t in ts]
        order.shuffle(cutoffs)
        _clear_radial_caches()
        for cutoff in cutoffs:
            args = (power, mass_sq, cutoff, rel_tol)
            assert _outcome(oracle.radial_integral, *args) == _outcome(references.radial_integral, *args)

    @settings(max_examples=200, deadline=None, database=None)
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

    def test_the_subtracted_piece_adds_its_error(self, monkeypatch):
        monkeypatch.setattr(oracle, "_piece", lambda power, t_a, t_b, epsrel: (0.0, 1.0))
        with pytest.raises(oracle.QuadratureError, match="quadrature error 1.000e"):
            oracle.radial_integral(2, 1.0, 0.995e3)

    @pytest.mark.parametrize("power", range(1, 7))
    def test_inline_panel_is_the_integrand_panel(self, power):
        def f(t):
            return oracle.radial_integrand(t, power, 1.0)

        # t^3 / (t^2 + 1)^n overflows from about t = 10^(154/n) (n >= 2), 10^102.7 (n = 1)
        overflow = 10.0 ** (102.7 if power == 1 else 154.0 / power)
        for a, b in ((0.0, 1.0), (1.0, 10.0), (10.0, 1e3), (overflow / 1e3, overflow / 10.0)):
            assert oracle._radial_panel(power, a, b) == oracle._panel(f, a, b)
            assert oracle._radial_piece(power, a, b, 1e-11) == oracle.integrate(f, a, b, 1e-11)
        a, b = overflow / 10.0, overflow * 10.0  # across: the piece falls back on the scaled form
        with pytest.raises(OverflowError):
            oracle._radial_panel(power, a, b)
        assert oracle._radial_piece(power, a, b, 1e-11) == oracle.integrate(f, a, b, 1e-11)


class TestCutoffPastTheLastEdge:
    """For power >= 3 a t = cutoff/sqrt(M^2) past the last finite decade edge, inf included, is taken at that edge;
    for power 2 the piece from that edge to t is integrated, its panels centered without forming a + b."""

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-12])  # 1e-12 bisects the top piece
    @pytest.mark.parametrize("cutoff", [1e308, 1.7e308])
    def test_log_member_is_ln_t_less_one_half(self, cutoff, rel_tol):
        assert oracle.radial_integral(2, 1.0, cutoff, rel_tol) == pytest.approx(math.log(cutoff) - 0.5, rel=1e-12)

    @pytest.mark.parametrize("power", range(3, 13))
    def test_a_t_that_overflows_gives_the_closed_form(self, power):
        # t = 1e308/1e-5 overflows to inf, yet the radial is finite (2.5e9 at n = 3)
        radial = oracle.radial_integral(power, 1e-10, 1e308)
        assert radial == pytest.approx(radial_analytic(power, 1e-10, 1e308), rel=1e-10)

    @pytest.mark.parametrize("power", range(3, 13))
    def test_a_finite_t_past_the_edge_gives_the_float_at_the_edge(self, power):
        edge = oracle._EDGES[-2]  # 9.999999999999998e307
        at_edge = references.radial_integral(power, 1.0, edge)
        for t in (math.nextafter(edge, math.inf), 1e308, 1.7e308, sys.float_info.max):
            assert oracle.radial_integral(power, 1.0, t) == at_edge


class TestIntegrate:
    @pytest.mark.parametrize(
        "f, a, b",
        [
            (math.exp, 0.0, 1.0),
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 10.0),
            (math.sqrt, 0.0, 1.0),
            (math.log, 0.0, 1.0),
            (lambda x: math.sin(20.0 * x), 0.0, 3.0),
            (lambda k: oracle.radial_integrand(k, 2, 1.0), 0.0, 1e3),
        ],
        ids=["exp", "lorentzian", "sqrt", "log-singular", "oscillating", "radial-n2"],
    )
    def test_agrees_with_quadpack(self, f, a, b):
        integrate = pytest.importorskip("scipy.integrate")
        want, _ = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)
        value, error = oracle.integrate(f, a, b, 1e-12)
        assert error <= 1e-12 * abs(value)
        assert value == pytest.approx(want, rel=1e-11)

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
        # in s = -ln x the log singularity is an exponential decay: 1125-1245 evaluations in x
        assert abs(checks._pipeline_x_integral(big_l) - (5.0 - 3.0 * big_l)) <= 1e-14
        assert evaluations() <= 300


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


# monotone, smooth, odd shapes: the computed sign of shape(c * (x - root)) is the sign of x - root
_SHAPES = {"cubic": lambda d: d + d**3, "expm1": math.expm1, "sinh": math.sinh, "atan": math.atan, "tanh": math.tanh}


class TestFindRoot:
    def test_converges_to_machine_width(self):
        assert oracle.find_root(math.cos, 0.0, 2.0) == pytest.approx(0.5 * math.pi, rel=2e-15)

    def test_endpoint_root(self):
        assert oracle.find_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0

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

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
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

    @pytest.mark.parametrize(
        "row, most",
        [
            ("mu1 root finder agrees", 80),  # bisection: 318
            ("minimizing the potential", 55),  # bisection: 159
            ("resummation pole", 106),  # a step function: bisection's count
        ],
    )
    def test_evaluations_per_check_row(self, evaluations, row, most):
        (check,) = [c for c in checks.CHECKS if c.name.startswith(row)]
        ok, detail = check.run()
        assert ok, detail
        assert evaluations() <= most


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
