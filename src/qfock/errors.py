"""Exception types shared across the package.

The CLI maps these to exit codes: bad input -> 2, UnsupportedRegimeError -> 3,
InvariantError -> 4.
"""


class UnsupportedRegimeError(ValueError):
    """Parameters outside the implemented regime (non-integral m-vector)."""


class InvariantError(RuntimeError):
    """An internal mathematical invariant failed (a bar support that does not
    rise in wedge dominance, fuel exhausted, non-antisymmetric correction).
    Never caught internally: something is wrong with the computation itself,
    and the run must fail loudly."""
