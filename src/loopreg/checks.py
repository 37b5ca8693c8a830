"""The cross-checks of every claim the package makes, as one table.

``CHECKS`` is an ordered tuple of rows: a claim's name and a function that
returns ``(ok, detail)``.  ``loopreg demo`` prints one line per row and the
acceptance test asserts each row, within its time bound if it has one.  Rows
call the library through its modules (``qed.lamb_shift_estimate``, not a
``from`` import), so a patched library function is what a row sees.  The
quadrature, root finding and minimization here are independent of the closed
forms they check: they use ``oracle.integrate``, ``oracle.find_root`` and the
oracle's radial quadrature, never a closed form of the claim under test, and
they read only the public names of the modules they call.  The pole row
bisects ``phi4.symmetry_status``, which reads the pole test of
``phi4.resum_chain``, so no row steers a loop by a raised error.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import partial

from . import kernel, oracle, phi4, qed
from .qed import DEFAULT_ALPHA, DEFAULT_BETHE_LOG, DEFAULT_ELECTRON_MASS_GEV

# the resummation states the finite-order, pole and restored-vacuum rows probe
_RESUM_STATES = (phi4.ResummationState(lambda0=1.0, mu0=1.0), phi4.ResummationState(lambda0=2.0, mu0=1.0))


# a claim's name, its ``() -> (ok, detail)`` function, and the wall-time bound in
# seconds the acceptance test holds the row to (None: no bound)
Check = namedtuple("Check", ("name", "run", "seconds"), defaults=(None,))


def _power_counting() -> tuple[bool, str]:
    integrals = [kernel.ScalarLoopIntegral(power=n) for n in (1, 2, 3)]
    degrees = tuple(kernel.superficial_degree(i) for i in integrals)
    depths = tuple(kernel.differentiation_count(i) for i in integrals)
    return degrees == (2, 0, -2) and depths == (2, 1, 0), ""


def _closed_forms() -> tuple[bool, str]:
    worst = 0.0
    for power in (3, 4, 5, 6):
        closed = kernel.evaluate_convergent(kernel.ScalarLoopIntegral(power=power))
        for msq in (0.5, 1.0, 2.0, 10.0):
            exact = closed.bracket(msq)
            quad = oracle.wick_rotated_radial(power, msq, 1e6 * math.sqrt(msq))
            worst = max(worst, abs(quad - exact) / abs(exact))
    # prefactor 2 times the power-3 member is -i/(16 pi^2 M^2): unit multiple -1/M^2
    doubled = kernel.evaluate_convergent(kernel.ScalarLoopIntegral(power=3)).scaled(2)
    unit = all(doubled.bracket(msq) == -1.0 / msq for msq in (0.5, 1.0, 2.0))
    return worst < 1e-8 and unit, f"worst rel err {worst:.2e}"


def _derivative_identity() -> tuple[bool, str]:
    target = kernel.evaluate_convergent(kernel.ScalarLoopIntegral(power=3)).scaled(2)
    return kernel.regularize(kernel.ScalarLoopIntegral(power=2)).differentiate() == target, ""


def _one_constant() -> tuple[bool, str]:
    reg2 = kernel.regularize(kernel.ScalarLoopIntegral(power=2))
    mu_probe = 0.731
    return len(reg2.constants) == 1 and reg2.with_scale_alias(1, mu_probe).bracket(mu_probe**2) == 0.0, ""


def _asymptote_difference(m2a: float, m2b: float) -> tuple[bool, str]:
    limits = [oracle.asymptote_constant(oracle.CutoffProbe(2, m2, oracle.default_grid(m2))) for m2 in (m2a, m2b)]
    err = abs((limits[0] - limits[1]) + 0.5 * math.log(m2a / m2b))
    return err < 1e-6, f"err {err:.2e}"


def _exact_coefficients() -> tuple[bool, str]:
    return qed.pipeline_coefficients() == (Fraction(5), Fraction(-3)), ""


# pieces of the x-quadrature in s = -ln x, narrow enough that each settles in one panel
_S_EDGES = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0)


def _pipeline_x_integral(big_l: float) -> float:
    """Quadrature over x of the on-shell integrand (2 + 2x) * (-(L + 2 ln x)).

    In s = -ln x the log singularity at x = 0 becomes the decay of
    (2 + 2e^-s) * (2s - L) * e^-s; past s = 64 that tail is below 1e-25.
    """

    def integrand(s: float) -> float:
        x = math.exp(-s)
        return (2.0 + 2.0 * x) * (2.0 * s - big_l) * x

    # absolute tolerance too: at L = 5/3 the integral is 0
    return math.fsum(oracle.integrate(integrand, a, b, 1e-12, 1e-12)[0] for a, b in zip(_S_EDGES, _S_EDGES[1:]))


def _x_quadrature() -> tuple[bool, str]:
    worst = max(abs(_pipeline_x_integral(big_l) - (5.0 - 3.0 * big_l)) for big_l in (0.0, 1.0, 5.0 / 3.0))
    return worst < 1e-9, f"worst err {worst:.2e}"


def _mu1_reference() -> tuple[bool, str]:
    ratios = [qed.solve_mu1(m) / m for m in (1.0, 0.000511, 80.0)]
    worst = max(max(abs(r - math.exp(-5.0 / 6.0)), abs(r - 0.434598208507078)) for r in ratios)
    return worst < 1e-12, f"worst err {worst:.2e}"


def _mu1_root() -> tuple[bool, str]:
    agree = spread = 0.0
    for m in (1.0, DEFAULT_ELECTRON_MASS_GEV):
        closed = qed.solve_mu1(m)
        roots = [qed.solve_mu1_by_root(m, alpha) for alpha in (DEFAULT_ALPHA, 0.1, 0.3)]
        agree = max(agree, max(abs(r - closed) / closed for r in roots))
        spread = max(spread, (max(roots) - min(roots)) / closed)
    return agree < 1e-12 and spread < 1e-12, f"agree {agree:.2e}, spread {spread:.2e}"


def _shift_vanishes() -> tuple[bool, str]:
    m_e = DEFAULT_ELECTRON_MASS_GEV
    return abs(qed.on_shell_mass_shift(m_e, DEFAULT_ALPHA, qed.solve_mu1(m_e)).delta_m) <= 1e-18, ""


def _lamb_band() -> tuple[bool, str]:
    mhz = qed.lamb_shift_estimate(DEFAULT_ALPHA, DEFAULT_ELECTRON_MASS_GEV, DEFAULT_BETHE_LOG)
    return 900.0 <= mhz <= 1100.0, f"{mhz:.1f} MHz"


# the sigma and lambda grids of the coupling-closure row
_SIGMAS = tuple([0.4 * i for i in range(1, 11)])
_LAMBDAS = tuple([0.6 * j for j in range(1, 11)])


def _vacuum_closure() -> tuple[bool, str]:
    worst = 0.0
    for sigma in _SIGMAS:
        for lam in _LAMBDAS:
            phi1, m_sigma = phi4.ssb_vacuum(phi4.SSBPotential(sigma, lam))
            worst = max(worst, abs(phi4.lambda_invariant_ratio(m_sigma, phi1) - lam) / lam)
    return worst <= 1e-12, f"worst rel err {worst:.2e}"


def _vacuum_minimization() -> tuple[bool, str]:
    worst = 0.0
    for sigma, lam in ((1.0, 6.0), (2.5, 1.2), (0.3, 8.0)):
        pot = phi4.SSBPotential(sigma=sigma, lam=lam)
        phi1, _ = phi4.ssb_vacuum(pot)
        h = 1e-5 * phi1

        def slope(x: float) -> float:  # independent minimization: root of the central-difference slope
            return (pot(x + h) - pot(x - h)) / (2.0 * h)

        found = oracle.find_root(slope, 0.5 * phi1, 2.0 * phi1)
        worst = max(worst, abs(found - phi1) / phi1)
    return worst <= 1e-8, f"worst rel err {worst:.2e}"


def _one_loop_coupling() -> tuple[bool, str]:
    err = abs(phi4.lambda_renormalized(1.0) - (1.0 + 9.0 / (32.0 * math.pi**2)))
    values = [phi4.lambda_renormalized(0.1 * k) for k in range(1, 101)]
    return err < 1e-12 and all(math.isfinite(v) and v > 0.0 for v in values), f"err {err:.2e}"


def _finite_orders() -> tuple[bool, str]:
    values = []
    for s in _RESUM_STATES:  # past the pole, mu = 10 mu_c: lambda0 sum_{k<=K} x^k for K = 0..10, x = 2 b lambda0 ln(mu/mu0), and the first order
        mu = 10.0 * phi4.critical_scale(s)
        terms = [s.lambda0 * (2.0 * s.beta_coeff * s.lambda0 * math.log(mu / s.mu0)) ** k for k in range(11)]
        values += [math.fsum(terms[:order + 1]) for order in range(11)] + [phi4.resum_first_order(s, mu)]
    return all(map(math.isfinite, values)), ""


def _pole_boundary(state: phi4.ResummationState) -> float:
    """Locate the finite/pole boundary of resum_chain by bisection alone: past_pole returns only -1 and 1,
    so find_root never interpolates.  symmetry_status reports the vacuum restored exactly where
    resum_chain raises LandauPoleError, so the boundary is that of the raise."""

    def past_pole(mu: float) -> float:
        return 1.0 if phi4.symmetry_status(state, mu) == phi4.VACUUM_RESTORED else -1.0

    lo = state.mu0
    while past_pole(4.0 * lo) < 0.0:
        lo *= 4.0
    return oracle.find_root(past_pole, lo, 4.0 * lo)


def _pole() -> tuple[bool, str]:
    worst = max(abs(_pole_boundary(s) - phi4.critical_scale(s)) / phi4.critical_scale(s) for s in _RESUM_STATES)
    return worst <= 1e-9, f"rel err {worst:.2e}"


def _restored() -> tuple[bool, str]:
    statuses = {phi4.symmetry_status(s, 2.0 * phi4.critical_scale(s)) for s in _RESUM_STATES}
    return statuses == {phi4.VACUUM_RESTORED}, ""


def _reference_window() -> tuple[bool, str]:
    lower, predicted, upper = phi4.HIGGS_LOWER_BOUND, phi4.HIGGS_PREDICTED, phi4.HIGGS_UPPER_BOUND
    return (lower, predicted, upper) == (76.0, 138.0, 170.0) and lower < predicted < upper, ""


CHECKS: tuple[Check, ...] = (
    Check("power counting: degrees (2, 0, -2), depths (2, 1, 0) for n = 1..3", _power_counting),
    Check("closed forms n=3..6 match quadrature to 1e-8; 2*I_3 = -1/M^2", _closed_forms, 1.0),
    Check("d/dM^2 of the regulated n=2 value is 2 * I_3 exactly", _derivative_identity),
    Check("regulated n=2 value has one constant; aliased bracket(mu1^2) = 0", _one_constant),
    Check("asymptote difference at M^2 = (0.5, 2) is -0.5*ln ratio to 1e-6", partial(_asymptote_difference, 0.5, 2.0), 5.0),
    Check("asymptote difference at M^2 = (1, e^2) is -0.5*ln ratio to 1e-6", partial(_asymptote_difference, 1.0, math.e**2), 5.0),
    Check("on-shell mass-shift coefficients = (5, -3) in exact arithmetic", _exact_coefficients),
    Check("x-quadrature gives 5 - 3L to 1e-9 at L = 0, 1, 5/3", _x_quadrature),
    Check("mu1/m = exp(-5/6) = 0.434598208507078 to 1e-12 at three masses", _mu1_reference),
    Check("mu1 root finder agrees to 1e-12 and is alpha-independent", _mu1_root),
    Check("mass shift vanishes at the fixed scale", _shift_vanishes),
    Check("2S-2P estimate lies in [900, 1100] MHz", _lamb_band),
    Check("coupling = 3*(m_sigma/phi1)^2 closes to 1e-12 on a 10x10 grid", _vacuum_closure),
    Check("minimizing the potential finds the vacuum to 1e-8", _vacuum_minimization),
    Check("one-loop coupling at 1 to 1e-12; finite and positive on (0, 10]", _one_loop_coupling),
    Check("finite orders are regular (partial sums, first-order truncation)", _finite_orders),
    Check("resummation pole sits at the critical scale (bisection, 1e-9)", _pole),
    Check("vacuum reported restored beyond the critical scale", _restored),
    Check("reference window 76 < 138 < 170 GeV (stored constants)", _reference_window),
)
