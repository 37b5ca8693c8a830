"""loopreg: one-loop integral regularization by mass-parameter
differentiation, with QED self-energy and quartic-scalar applications and an
independent cutoff-quadrature oracle.

The five modules are the API, and each loads on first use (PEP 562), so
``import loopreg`` loads none of them and a caller pays only for the modules
it reads: ``loopreg.kernel`` and ``from loopreg import kernel`` both work.
Every module refuses an input that must be > 0 through ``_positive``, with
one message that names the input and quotes its value."""

from math import log as _log

__version__ = "0.1.0"

_MODULES = ("feynpar", "kernel", "oracle", "phi4", "qed")


def __getattr__(name: str):
    if name in _MODULES:  # through __import__, so -X importtime lists the module too
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES})


def _log_ratio(a: float, b: float) -> float:
    """ln(a/b) of two positive scales: the log of the ratio, rounded once, so it is the closest; where the
    ratio leaves (1e-300, 1e300), the difference of the logs of each scale, which stays finite."""
    ratio = a / b
    return _log(ratio) if 1e-300 < ratio < 1e300 else _log(a) - _log(b)


def _positive(name: str, value: float) -> None:
    """The package's one refusal of an input that is not > 0, nan included: ValueError naming the input and its value."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


class _FrozenInstanceError(AttributeError):
    """An assignment to or deletion of a field of a frozen record."""


class _Record:
    """Base of the frozen value types.  A subclass names its fields in order as ``__slots__ =
    __match_args__`` and sets them in its ``__init__`` with ``object.__setattr__``.  Equality (within
    one type), hash and repr read the fields; copy, pickle and ``replace`` rebuild through ``__init__``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        # a list, not a generator: tuple() of a generator over-allocates and shrinks, and costs ~1.7x as much
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({pairs})"

    def __setattr__(self, name: str, value) -> None:
        raise _FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated again by ``__init__``."""
        for name in self.__match_args__:
            if name not in changes:
                changes[name] = getattr(self, name)
        return type(self)(**changes)
