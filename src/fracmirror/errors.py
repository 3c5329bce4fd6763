"""Exception types shared across the package, and its one integer rule:
every integer read from a caller passes ``_as_int`` or ``_as_ints``, which
take a Python or NumPy int and refuse a bool, float, str or ``Fraction``."""

from operator import index

__all__ = ["FracmirrorError", "InvalidNefPartition", "SmoothnessError"]


class FracmirrorError(ValueError):
    """Base class for domain errors raised by this package."""


class InvalidNefPartition(FracmirrorError):
    """The vertex partition fails the nef-partition axioms."""


class SmoothnessError(FracmirrorError):
    """A volume/Euler-characteristic identity required for a smooth
    double cover failed, signalling a violated transversality hypothesis."""


def _as_int(x, what):
    """x as an int; ``what`` names it in the TypeError that refuses it."""
    if type(x) is bool or not hasattr(type(x), "__index__"):
        raise TypeError(f"{what} {x!r} is not an integer")
    return index(x)


def _as_ints(values, what):
    """An iterable's values as a tuple of ints, read once: one scan for bools
    and one ``index`` pass, with the refused value looked up only on failure."""
    values = tuple(values)
    try:
        if bool not in map(type, values):
            return tuple(map(index, values))
    except TypeError:
        pass
    for x in values:
        _as_int(x, what)
