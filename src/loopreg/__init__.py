"""loopreg: one-loop integral regularization by mass-parameter
differentiation, with QED self-energy and quartic-scalar applications and an
independent cutoff-quadrature oracle."""

from . import feynpar, kernel, oracle, phi4, qed

__version__ = "0.1.0"
