"""The level-l Fock space of one charge on bead masks, and the divided powers
of f_i acting on it.

An l-partition is held as one int, the bead mask of its charged abacus.
Component c (1-based) of charge s_c carries a bead at lambda_a - a + s_c
for every row a, empty rows included, and bit (x - lo) * l + (l - c) of the
mask is set when it has a bead at position x.  Every position below lo is
a bead of every component, so lo must sit below the first hole of every
label held: ChargedAbacus(e, l, charge, n) puts it at min(charge) - n - 1,
which serves every label of rank at most n.

The nodes of a rank-n label of component c lie in the window
s_c - n .. s_c + n.  Where the windows of the charge leave a gap, every
component above it is placed lower by a multiple of e, as far as keeps its
window above the gap: residues and the order of nodes are unchanged, and
the width is at most l^2 (2n + 2 + e) bits whatever the charge's spread.

Bit order is the 'above' order of nodes: a node of component c and content
x is the bit of (x, c), which rises with x, ties going to the larger
component first.  The node of content x is addable when (x - 1, c) holds a
bead and (x, c) does not, and removable when (x, c) holds one and (x - 1, c)
does not; adding or removing it moves one bead, an xor of two bits l apart.
Its residue is x mod e, so the addable and removable i-nodes are ANDs with
one residue mask per i.

A Fock vector is a flat dict {(mask, exponent): coefficient} of nonzero
ints; every label in it is at the abacus's charge.  A vector that is done
changing is frozen into one tuple of (mask, exponent, coefficient) runs,
which holds no tuple per term.
"""

from __future__ import annotations

from itertools import chain, combinations

from .partitions import mp_to_text


class ChargedAbacus:
    """Bead masks for the labels of rank at most n at one charge: the
    conversions to and from multipartition tuples, and the node masks."""

    def __init__(self, e: int, l: int, charge, n: int):
        self.e = e
        self.l = l
        self.charge = tuple(charge)
        self.n = n
        placed = list(self.charge)  # where each component's charge sits
        drop, top = 0, min(self.charge) + n
        for c in sorted(range(l), key=self.charge.__getitem__):
            s = self.charge[c]
            if s - n - 1 > top:  # s - n - 2 - top free positions below the window
                drop += (s - n - 2 - top) // e * e
            placed[c] = s - drop
            top = s + n
        self.placed = tuple(placed)
        self.lo = min(self.placed) - n - 1
        # positions lo .. max(placed) + n hold every node of a rank-n label
        self.positions = max(self.placed) + n + 1 - self.lo
        column = _repeat(1, l, l * self.positions)
        self._columns = [column << (l - c) for c in range(1, l + 1)]  # component c's bits
        self._low = (1 << l) - 1
        self._residues = {}

    def mask(self, mp) -> int:
        """The bead mask of mp, whose rank must be at most n."""
        l, lo = self.l, self.lo
        b = 0
        for c, (comp, s) in enumerate(zip(mp, self.placed), start=1):
            for a, part in enumerate(comp, start=1):
                b |= 1 << ((part - a + s - lo) * l + l - c)
            # the run of beads from lo up to the first hole, s - len(comp)
            b |= self._columns[c - 1] & ((1 << ((s - len(comp) - lo) * l)) - 1)
        return b

    def label(self, b) -> tuple:
        """The multipartition of the bead mask b."""
        l, lo = self.l, self.lo
        bits = bin(b)[:1:-1]  # bits[j] is bit j
        out = []
        for c, s in enumerate(self.placed, start=1):
            beads = bits[l - c::l]  # positions lo, lo + 1, ...
            comp = []
            end = len(beads)
            while True:
                x = beads.rfind("1", 0, end)
                part = x + lo + len(comp) + 1 - s
                if part <= 0:
                    break
                comp.append(part)
                end = x
            out.append(tuple(comp))
        return tuple(out)

    def nodes(self, b) -> tuple:
        """(addable, removable): the masks of b's addable and removable
        nodes."""
        below = (b << self.l) | self._low  # bit (x, c) set: a bead at (x - 1, c)
        return below & ~b, b & ~below

    def residue(self, i: int) -> int:
        """The mask of every bit at a position of residue i."""
        hit = self._residues.get(i)
        if hit is None:
            l = self.l
            x = (i - self.lo) % self.e  # the first such position, counted from lo
            hit = 0 if x >= self.positions else _repeat(
                self._low << (l * x), l * self.e, l * self.positions)
            self._residues[i] = hit
        return hit

    def residue_of(self, bit: int) -> int:
        """The residue of the node at the single-bit mask bit."""
        return ((bit.bit_length() - 1) // self.l + self.lo) % self.e


def _repeat(bits, period, width):
    """bits | bits << period | bits << 2 * period | ..., cut to its low
    width bits; the copies double at each step, so a wide abacus costs a
    few shifts, not one per position."""
    while period < width:
        bits |= bits << period
        period *= 2
    return bits & ((1 << width) - 1)


def freeze(vec) -> tuple:
    """The flat vector vec as one tuple of (mask, exponent, coefficient)
    runs."""
    return tuple(chain.from_iterable((b, x, c) for (b, x), c in vec.items()))


def each_term(frozen):
    """The (mask, exponent, coefficient) terms of a frozen vector."""
    it = iter(frozen)
    return zip(it, it, it)


def apply_f(i, terms, abacus, k=1) -> dict:
    """The divided power f_i^(k) = f_i^k / [k]! on the (mask, exponent,
    coefficient) terms of a vector, as a flat vector: adds every k-set S of
    addable i-nodes with weight q^N, N = sum over gamma in S of N^b_i(mp,
    gamma), minus k(k-1)/2.

    Adding an i-node changes no other i-node's addability or removability
    (its neighbours have residues i +- 1), so N^b_i, the addable minus the
    removable i-nodes of mp below gamma, counts the bits of mp's i-node
    masks above gamma's.  Added one at a time, a node of S sees N^b_i two
    lower for each node of S below it already added; summed over the k!
    orders of S that gives q^(-k(k-1)/2) [k]!, so no division is needed.
    A label's images are worked out once for the run of its terms."""
    res = abacus.residue(i)
    nodes = abacus.nodes
    l = abacus.l
    shift = k * (k - 1) // 2
    out = {}
    get = out.get
    last = None
    for b, x, c in terms:
        if b != last:
            last = b
            add, rem = nodes(b)
            add &= res
            rem &= res
            images = []  # (mask, weight) with one node added, for k = 1
            while add:
                bit = add & -add
                add ^= bit
                # the bead moves up from gamma's left neighbour
                images.append((b ^ bit ^ bit >> l, add.bit_count() - (rem & -bit).bit_count()))
            if k > 1:  # two i-nodes share no bit of their flips, so sums are unions
                flips = combinations([mu ^ b for mu, _w in images], k)
                weights = combinations([w for _mu, w in images], k)
                images = [(b ^ sum(f), sum(w) - shift) for f, w in zip(flips, weights)]
        for mu, w in images:
            key = (mu, x + w)
            out[key] = get(key, 0) + c
    if 0 in out.values():
        return {key: c for key, c in out.items() if c}
    return out


def fock_to_json(vec):
    """The JSON records of a vector {(mp, charge): polynomial}, sorted by
    (charge, multipartition), made one at a time as they are read."""
    items = sorted(vec.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return (
        {
            "multipartition": mp_to_text(mp),
            "charge": list(charge),
            "coefficient": c.to_pairs(),
        }
        for (mp, charge), c in items
    )
