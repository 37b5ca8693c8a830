"""loopreg: one-loop integral regularization by mass-parameter
differentiation, with QED self-energy and quartic-scalar applications and an
independent cutoff-quadrature oracle.

The five modules are the API, and each loads on first use (PEP 562), so
``import loopreg`` loads none of them and a caller pays only for the modules
it reads: ``loopreg.kernel`` and ``from loopreg import kernel`` both work."""

__version__ = "0.1.0"

_MODULES = ("feynpar", "kernel", "oracle", "phi4", "qed")


def __getattr__(name: str):
    if name in _MODULES:  # through __import__, so -X importtime lists the module too
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES})
