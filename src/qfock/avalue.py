"""Lusztig a-values through translated symbols, and the induced preorder.

The absolute a-value of an l-partition is  f(n, h, m) + S1 - S2  where f is
a constant depending only on the parameters, the rank and the symbol height,
and

  S1 = sum of min(x, y) over entry pairs x in B^(i), y in B^(j) taken over
       component pairs i <= j, restricted to x > y when i = j,
  S2 = sum over entries x and components j of sum_{k=1..x} min(k, m^(j)),

with B the m-translated symbol of height h:  B^(i)_j = lambda^(i)_j - j + h
+ m^(i).  The constant f is defined in terms of Schur elements and is not
computed here; a_rel returns S1 - S2, which carries every comparison the
algorithms need, since f cancels between equal-rank labels at a common
height.  Printed tables are calibrated by one additive constant per charge.

The shift vector is m^(j) = s_j - (j-1)e/l + alpha*e with alpha the smallest
integer >= 0 making every entry nonnegative.  When l does not divide (j-1)e
the entries are not integers and the inner sum over k = 1..x is ill-defined;
such regimes are rejected rather than guessed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import UnsupportedRegimeError
from .partitions import composition_rank


class MVector(NamedTuple):
    entries: tuple  # Fractions, all >= 0
    alpha: int


def m_vector(e: int, l: int, charge, alpha: int | None = None) -> MVector:
    """The shift vector; alpha defaults to the smallest value >= 0 that
    makes every entry nonnegative."""
    base = [Fraction(charge[j - 1]) - Fraction((j - 1) * e, l) for j in range(1, l + 1)]
    if alpha is None:
        need = max(-(b / e) for b in base)
        alpha = max(0, -((-need.numerator) // need.denominator) if need > 0 else 0)
    entries = tuple(b + alpha * e for b in base)
    if any(entry < 0 for entry in entries):
        raise ValueError("alpha=%d leaves a negative shift entry" % alpha)
    return MVector(entries, alpha)


def integral_shifts(m: MVector) -> tuple:
    """The shift entries as plain ints, or an UnsupportedRegimeError."""
    out = []
    for entry in m.entries:
        if entry.denominator != 1:
            raise UnsupportedRegimeError(
                "non-integral shift vector %s: a-values are only implemented "
                "for integral shifts" % (m.entries,)
            )
        out.append(int(entry))
    return tuple(out)


def height(mc) -> int:
    return max((len(comp) for comp in mc), default=0)


def translated_symbol(mc, m: MVector, h: int) -> tuple:
    """Per-component entry lists B^(i)_j = part_j - j + h + m^(i), j = 1..h,
    missing parts read as 0."""
    shifts = integral_shifts(m)
    if h < height(mc):
        raise ValueError("height %d is below the height of %r" % (h, mc))
    out = []
    for i, comp in enumerate(mc):
        out.append(tuple(
            (comp[j - 1] if j <= len(comp) else 0) - j + h + shifts[i]
            for j in range(1, h + 1)
        ))
    return tuple(out)


def _min_ramp(x: int, m: int) -> int:
    """sum_{k=1..x} min(k, m) for x, m >= 0."""
    if x <= m:
        return x * (x + 1) // 2
    return m * (m + 1) // 2 + (x - m) * m


def symbol_sums(symbol, m: MVector) -> int:
    """S1 - S2 for an already-built symbol.

    Within one component the pair sum runs over unordered position pairs;
    for the strictly decreasing symbols of partitions this is the same as
    summing min(a, b) over entry pairs with a > b, and it is the version
    under which the node-addition preorder property survives symbols with
    tied entries (compositions).
    """
    shifts = integral_shifts(m)
    l = len(symbol)
    s1 = 0
    for i in range(l):
        bi = symbol[i]
        for p in range(len(bi)):
            for r in range(p + 1, len(bi)):
                s1 += bi[p] if bi[p] < bi[r] else bi[r]
        for j in range(i + 1, l):
            for x in bi:
                for y in symbol[j]:
                    s1 += x if x < y else y
    s2 = 0
    for bi in symbol:
        for x in bi:
            for mj in shifts:
                s2 += _min_ramp(x, mj)
    return s1 - s2


def a_rel(mc, e: int, l: int, charge, h: int | None = None,
          alpha: int | None = None) -> int:
    """The two explicit sums of the a-value at height h (defaults to the
    composition's height plus one).  Differences between equal-rank labels
    at a common height equal differences of true a-values."""
    m = m_vector(e, l, charge, alpha)
    if h is None:
        h = height(mc) + 1
    return symbol_sums(translated_symbol(mc, m, h), m)


class AValueTable(dict):
    """a_rel of each label at one common height h, computed on first use.

    Differences of a_rel between equal-rank labels at a common height are
    differences of true a-values, so one table at h = n + 1 orders every
    family of equal-rank labels of rank at most n."""

    def __init__(self, e: int, l: int, charge, h: int):
        super().__init__()
        self._params = (e, l, tuple(charge), h)

    def __missing__(self, mc):
        value = self[mc] = a_rel(mc, *self._params)
        return value


def precedes(mu, nu, e: int, l: int, charge, alpha: int | None = None) -> bool:
    """The strict preorder on equal-rank l-compositions: compare the symbol
    sums at a common height."""
    if composition_rank(mu) != composition_rank(nu):
        raise ValueError("precedes compares equal ranks only")
    h = max(height(mu), height(nu)) + 1
    return a_rel(mu, e, l, charge, h, alpha) < a_rel(nu, e, l, charge, h, alpha)


def a_table(e: int, l: int, charge, labels, h: int | None = None,
            alpha: int | None = None, calibrate_to=None):
    """a_rel over a family of equal-rank labels at one common height.

    With calibrate_to set to a label, shifts the whole table so that label
    maps to 0 (how the printed tables fix the unknown constant f).
    Returns {label: value}.
    """
    if h is None:
        h = max((height(mc) for mc in labels), default=0) + 1
    vals = {mc: a_rel(mc, e, l, charge, h, alpha) for mc in labels}
    if calibrate_to is not None:
        base = vals[calibrate_to]
        vals = {mc: v - base for mc, v in vals.items()}
    return vals
