"""Semi-infinite wedge monomials and their abacus bijection.

A monomial u_{k_1} ^ u_{k_2} ^ ... with k_1 > k_2 > ... and k_i = s - i + 1
for large i is stored as its canonical prefix (the indices that differ from
the eventual arithmetic tail) plus the total charge s.

Each index factors uniquely as  k = a + e(l - b) - e*l*m  with a in [1, e],
b in [1, l], m in Z.  Runner b of the l-abacus carries the values a - e*m of
its beads; reading off each runner gives the component partitions and the
component charges (s_1, ..., s_l) with sum s.
"""

from collections import namedtuple

from .partitions import check_ambient, check_multipartition, ints_from_text


class WedgeMonomial(namedtuple("WedgeMonomial", "prefix s")):
    """Canonical semi-infinite monomial: strictly decreasing prefix, total
    charge s, implicit tail k_i = s - i + 1 past the prefix."""

    __slots__ = ()

    def to_text(self):
        return "s=%d; k=%s" % (self.s, ",".join(str(k) for k in self.prefix))

    def to_json(self):
        return {"s": self.s, "prefix": list(self.prefix)}


def wedge_monomial(prefix, s: int) -> WedgeMonomial:
    """Canonicalize: the prefix must be strictly decreasing and stay above
    the tail; trailing entries that already equal s - i + 1 are trimmed."""
    prefix = tuple(prefix)
    for i in range(len(prefix) - 1):
        if prefix[i] <= prefix[i + 1]:
            raise ValueError("prefix not strictly decreasing: %r" % (prefix,))
    r = len(prefix)
    if r and prefix[-1] <= s - r:
        raise ValueError("prefix %r dips into the tail of charge %d" % (prefix, s))
    while r and prefix[r - 1] == s - r + 1:
        r -= 1
    return WedgeMonomial(prefix[:r], s)


def monomial_from_text(text: str) -> WedgeMonomial:
    """Parse the `s=3; k=15,12` form of to_text, s first; ValueError if malformed."""
    fields = [chunk.split("=") for chunk in text.split(";")]
    if [(field[0].strip(), len(field)) for field in fields] != [("s", 2), ("k", 2)]:
        raise ValueError("malformed monomial %r, expected 's=<int>; k=<ints>'" % text)
    (_, spart), (_, body) = fields
    prefix = ints_from_text(body, "k") if body.strip() else ()
    (s,) = ints_from_text(spart, "s", single=True)
    return wedge_monomial(prefix, s)


def degree(u: WedgeMonomial) -> int:
    """Total displacement above the charge-s vacuum, i.e. the finite sum of
    k_i - (s - i + 1) over the prefix; 0 iff u is the vacuum."""
    return sum(k - u.s + i - 1 for i, k in enumerate(u.prefix, start=1))


def dominance(u: WedgeMonomial) -> int:
    """Wedge dominance: -sum_i (k_i^2 - (s - i + 1)^2) over u's prefix.  A
    pair rewrite keeps k1 + k2 and emits indices in [k1, k2], so every term
    but the plain reversal has a smaller sum of squares: every w != u in the
    support of bar(u), and so of G(u), has strictly larger dominance."""
    return -sum(k * k - (u.s - i) ** 2 for i, k in enumerate(u.prefix))


def factorize(k: int, e: int, l: int) -> tuple:
    """The unique (a, b, m) with k = a + e(l - b) - e*l*m."""
    a = (k - 1) % e + 1
    t = (k - a) // e
    b = l - t % l
    m = (a + e * (l - b) - k) // (e * l)
    return a, b, m


def runner_value(k: int, e: int, l: int) -> tuple:
    """(b, v) where v = a - e*m is the position of bead k on its runner."""
    a, b, m = factorize(k, e, l)
    return b, a - e * m


def bead_index(v: int, b: int, e: int, l: int) -> int:
    """Inverse of runner_value: the global index of the bead at position v
    on runner b."""
    a = (v - 1) % e + 1
    m = (a - v) // e
    return a + e * (l - b) - e * l * m


def _runner_tail_top(cutoff: int, b: int, e: int, l: int) -> int:
    """Largest runner-b position v with global index <= cutoff.  Runner b
    holds its positions e*t + 1..e*t + e at indices e(l - b) + el*t + 1..+e,
    so v = e*t + min(e, r) for t, r = divmod(cutoff - e(l - b), el)."""
    t, r = divmod(cutoff - e * (l - b), e * l)
    return e * t + min(e, r)


def to_pair(u: WedgeMonomial, e: int, l: int) -> tuple:
    """The (multipartition, charge) labeled by u; inverse of from_pair."""
    r = len(u.prefix)
    cutoff = u.s - r  # tail occupies every integer <= cutoff
    per_runner = [[] for _ in range(l)]
    for k in u.prefix:
        b, v = runner_value(k, e, l)
        per_runner[b - 1].append(v)
    comps = []
    charges = []
    for b in range(1, l + 1):
        head = sorted(per_runner[b - 1], reverse=True)
        top = _runner_tail_top(cutoff, b, e, l)
        t = len(head)
        s_b = top + t
        comp = []
        for i, v in enumerate(head, start=1):
            part = v - s_b + i - 1
            if part < 0 or (comp and comp[-1] < part):
                raise ValueError("malformed monomial %r" % (u,))
            comp.append(part)
        while comp and comp[-1] == 0:
            comp.pop()
        comps.append(tuple(comp))
        charges.append(s_b)
    if sum(charges) != u.s:
        raise AssertionError("charge bookkeeping broke on %r" % (u,))
    return tuple(comps), tuple(charges)


def from_pair(mp, charge, e: int, l: int) -> WedgeMonomial:
    """The canonical monomial labeled by (mp, charge), in one pass.

    Runner b carries beads at s_b + comp_i - i + 1 for its rows i and at
    every position <= s_b - len(comp), so its first hole is at
    s_b - len(comp) + 1.  bead_index grows with the position on each
    runner, so every index below the lowest first hole `hole` over all
    runners is a bead: the prefix is the sorted beads above `hole`, the
    tail continues from hole - 1, and s = hole - 1 + len(prefix).
    """
    check_ambient(e, l, charge)
    mp = check_multipartition(mp, l)  # a zero part would misplace the first hole
    runners = list(enumerate(zip(mp, charge), start=1))
    hole = min(bead_index(s_b - len(comp) + 1, b, e, l) for b, (comp, s_b) in runners)
    beads = []
    for b, (comp, s_b) in runners:
        beads.extend(bead_index(part + s_b - i, b, e, l) for i, part in enumerate(comp))
        v = s_b - len(comp)  # this runner's tail beads above the hole
        while (k := bead_index(v, b, e, l)) > hole:
            beads.append(k)
            v -= 1
    beads.sort(reverse=True)
    return WedgeMonomial(tuple(beads), hole - 1 + len(beads))
