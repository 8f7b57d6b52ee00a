"""Lusztig a-values through translated symbols.

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
integer >= 0 making every entry nonnegative.  Any larger value a gives the
shift vector of the charge s + a*e, so alpha is not a free choice.  Unless l
divides e, some (j-1)e/l is not an integer and the inner sum over k = 1..x is
ill-defined; such regimes are rejected rather than guessed.
"""

from itertools import count
from operator import mul

from .errors import UnsupportedRegimeError
from .partitions import check_ambient, check_multipartition


def m_vector(e: int, l: int, charge) -> tuple:
    """(shifts, alpha): the shift vector as ints and its alpha, the
    smallest value >= 0 that makes every entry nonnegative."""
    check_ambient(e, l, charge)
    if e % l:
        raise UnsupportedRegimeError("non-integral shift vector: l=%d does not divide e=%d; "
                                     "a-values are only implemented for integral shifts" % (l, e))
    base = [charge[j] - j * e // l for j in range(l)]
    alpha = max(0, -(min(base) // e))
    return tuple(b + alpha * e for b in base), alpha


def _entries(comp, t: int, h: int) -> list:
    """One component's symbol entries, top to bottom, for h >= len(comp)."""
    top = h + t
    return [p - j + top for j, p in enumerate(comp, 1)] + list(
        range(top - len(comp) - 1, top - h - 1, -1))


def _min_ramp(x: int, m: int) -> int:
    """sum_{k=1..x} min(k, m) for x, m >= 0."""
    if x <= m:
        return x * (x + 1) // 2
    return m * (m + 1) // 2 + (x - m) * m


def a_rel(mc, table: "AValueTable") -> int:
    """The two explicit sums of the a-value of mc at the table's height,
    read through the table's memo of per-component pieces.  Differences
    between equal-rank labels at a common height equal differences of true
    a-values.

    S1 sums min over every unordered pair of symbol positions; for the
    strictly decreasing components of partitions this is the pairs of
    entries x > y within a component, and over positions it is the version
    under which the node-addition preorder property survives the tied
    entries of compositions.  With all entries sorted descending,
    v_1 >= v_2 >= ..., the k-th is the min of each pair it forms with the
    k - 1 before it, ties included, so S1 = sum_k (k - 1) v_k.  S2 is a sum
    over entries, so each component brings its own share.

    ValueError unless mc has l components, each a composition: a tuple of
    nonnegative ints, checked only when its piece is not yet memoized.
    """
    if len(mc) != len(table.shifts):
        check_multipartition(mc, len(table.shifts))  # raises ValueError
    entries = []
    s2 = 0
    pieces = table.pieces
    for key in enumerate(mc):
        piece = pieces.get(key)
        if piece is None:
            if not all(isinstance(p, int) and p >= 0 for p in key[1]):
                raise ValueError("component %r is not a composition" % (key[1],))
            if table.h < len(key[1]):
                raise ValueError("height %d is below the height of %r" % (table.h, mc))
            piece = pieces[key] = table.piece(*key)
        entries += piece[0]
        s2 += piece[1]
    entries.sort(reverse=True)
    return sum(map(mul, count(), entries)) - s2


class AValueTable(dict):
    """a_rel of each label at one common height h, computed on first use.

    Differences of a_rel between equal-rank labels at a common height are
    differences of true a-values, so one table at h = n + 1 orders every
    family of equal-rank labels of rank at most n.  The table holds the
    shift vector `shifts` and its `alpha` (see m_vector), the height `h`,
    `ramp[x]`, the memoized S2 term sum_j sum_{k=1..x} min(k, m^(j)) of an
    entry x, and `pieces[(slot, comp)]`, the memoized symbol entries and S2
    share of the component comp at the 0-based slot.
    """

    def __init__(self, e: int, l: int, charge, h: int):
        super().__init__()
        self.shifts, self.alpha = m_vector(e, l, charge)
        self.h = h
        self.ramp = {}
        self.pieces = {}

    def __missing__(self, mc):
        value = self[mc] = a_rel(mc, self)
        return value

    def piece(self, slot: int, comp) -> tuple:
        """(entries, share): comp's symbol entries at slot, as a tuple, and
        the sum of their S2 terms; needs h >= len(comp)."""
        entries = tuple(_entries(comp, self.shifts[slot], self.h))
        ramp = self.ramp
        for x in entries:
            if x not in ramp:
                ramp[x] = sum(_min_ramp(x, t) for t in self.shifts)
        return entries, sum(map(ramp.__getitem__, entries))
