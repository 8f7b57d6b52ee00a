"""The level-l Fock space of one charge on bead masks, and the divided powers
of f_i acting on it.

An l-partition is held as one int, the bead mask of its charged abacus.
Component c (1-based), placed at p_c (see below), carries a bead at
lambda_a - a + p_c for every row a, empty rows included, and bit
(x - lo) * l + (l - c) of the mask is set when it has a bead at position x.
Every position below lo is a bead of every component, so lo must sit below
the first hole of every label held: ChargedAbacus(e, l, charge, n) puts it
at min(charge) - n - 1, which serves every label of rank at most n.

The nodes of a rank-n label of component c lie in the window
s_c - n .. s_c + n.  Where the windows of the charge leave a gap, every
component above it is placed lower, p_c = s_c - d_c, as far as keeps one
free position above the gap: the order of nodes is unchanged, and the width
is at most l^2 (2n + 2) bits whatever the charge's spread and e.

Bit order is the 'above' order of nodes: the node of component c at
position x is the bit of (x, c), which rises with x, ties going to the
larger component first.  The node at x is addable when (x - 1, c) holds a
bead and (x, c) does not, and removable when (x, c) holds one and (x - 1, c)
does not; adding or removing it moves one bead, an xor of two bits l apart.
Its content is x + d_c and its residue that mod e, so the addable and
removable i-nodes are ANDs with one residue mask per i.  A label's reduced
i-signatures take those two ANDs per residue of the window, and a bit walk
only for a colour whose addable nodes interleave its removable ones; the
normal nodes of a colour come out as one mask.

A Fock vector is a flat dict {(mask, exponent): coefficient} of nonzero
ints; every label in it is at the abacus's charge.  A vector that is done
changing is frozen into one tuple of (mask, exponent, coefficient) runs,
which holds no tuple per term.
"""

from itertools import chain, combinations

from .partitions import check_ambient


class ChargedAbacus:
    """Bead masks for the labels of rank at most n at one charge: the
    conversions to and from multipartition tuples, the node masks, and the
    reduced i-signatures.  Each component's bits by (slot, partition), and
    its partition by those bits, are kept once worked out in either
    direction, for the life of the instance."""

    def __init__(self, e: int, l: int, charge, n: int):
        if n < 0:
            raise ValueError("rank must be >= 0")
        self.e = e
        self.l = l
        self.charge = tuple(charge)
        check_ambient(e, l, self.charge)
        self.n = n
        placed = list(self.charge)  # where each component's charge sits
        drop, top = 0, min(self.charge) + n
        for c in sorted(range(l), key=self.charge.__getitem__):
            s = self.charge[c]
            if s - n - 1 > top:  # close the gap down to one position, s - n - 1
                drop += s - n - 2 - top
            placed[c] = s - drop
            top = s + n
        self.placed = tuple(placed)
        drops = tuple(s - p for s, p in zip(self.charge, self.placed))
        self.lo = min(self.placed) - n - 1
        # positions lo .. max(placed) + n hold every node of a rank-n label
        self.positions = max(self.placed) + n + 1 - self.lo
        self._low = (1 << l) - 1
        column = ((1 << l * self.positions) - 1) // self._low  # bits 0, l, 2l, ...
        self._columns = [column << (l - c) for c in range(1, l + 1)]  # component c's bits
        self._residues = {}  # residue -> the mask of its bits
        for j in range(l * self.positions):
            # the residue of the node at bit j, position plus drop mod e
            i = (j // l + self.lo + drops[l - 1 - j % l]) % e
            self._residues[i] = self._residues.get(i, 0) | 1 << j
        self._colours = sorted(self._residues.items())  # the window's residues, each once
        # one bijection, each direction worked out once: (slot, partition) ->
        # that component's bits, and the bits of a component -> its partition
        self._bits = {}
        self._parts = {}

    def mask(self, mp) -> int:
        """The bead mask of mp, whose rank must be at most n."""
        b = 0
        for slot in enumerate(mp):
            bits = self._bits.get(slot)
            if bits is None:
                bits = self._bits[slot] = self._component(*slot)
            b |= bits
        return b

    def _component(self, slot: int, comp) -> int:
        """The bits of component slot + 1 when it holds the partition comp."""
        l, lo, s = self.l, self.lo, self.placed[slot]
        # the run of beads from lo up to the first hole, s - len(comp)
        b = self._columns[slot] & ((1 << ((s - len(comp) - lo) * l)) - 1)
        for a, part in enumerate(comp, start=1):
            b |= 1 << ((part - a + s - lo) * l + l - 1 - slot)
        return b

    def label(self, b) -> tuple:
        """The multipartition of the bead mask b, each component read
        through the memo of its bits."""
        out = []
        for slot, column in enumerate(self._columns):
            bits = b & column
            comp = self._parts.get(bits)
            if comp is None:
                comp = self._parts[bits] = self._partition(slot, bits)
                self._bits[slot, comp] = bits
            out.append(comp)
        return tuple(out)

    def _partition(self, slot: int, bits: int) -> tuple:
        """The partition that component slot + 1 holds when its bits are
        bits."""
        l, s = self.l, self.placed[slot]
        beads = bin(bits >> l - 1 - slot)[:1:-1][::l]  # beads[x - lo]: a bead at x
        comp = []
        end = len(beads)
        while True:
            x = beads.rfind("1", 0, end)
            part = x + self.lo + len(comp) + 1 - s
            if part <= 0:
                return tuple(comp)
            comp.append(part)
            end = x

    def nodes(self, b) -> tuple:
        """(addable, removable): the masks of b's addable and removable
        nodes."""
        below = (b << self.l) | self._low  # bit (x, c) set: a bead at (x - 1, c)
        return below & ~b, b & ~below

    def residue(self, i: int) -> int:
        """The mask of every bit whose node has residue i."""
        return self._residues.get(i, 0)

    def signatures(self, b) -> tuple:
        """(last, normal): the i-signatures of the label with bead mask b,
        reduced.  last[i] is the single-bit mask of the last uncancelled
        addable i-node, which f~_i adds; normal[i] is the mask of the
        surviving removable i-nodes, the normal ones, so the good i-node,
        the most 'above', is its lowest bit.  A colour with no such node has
        no key in last, or in normal.

        The i-signature lists the addable and removable i-nodes from most
        'above' to least, which is bit order, and each addable node cancels
        the nearest surviving removable node above it.  (The prose
        definition leaves the inclusivity of "between" open; this
        cancellation convention is the one pinned by the rank-4 Uglov sets,
        the FLOTW equivalence and the per-colour degree bounds of the
        crystal, see the test suite.)  Adding an i-node turns it into a
        removable one and changes the removability of no other i-node (its
        neighbours have residues i +- 1), so mp -> mp + gamma is a crystal
        edge exactly when gamma becomes the good i-node of mp + gamma, and
        only the last uncancelled addable node does.

        Each colour is settled on its own, one AND with each of the two node
        masks per residue of the abacus window, so the cost is bounded by
        the window, not by e.  Most colours need no more: with no removable
        node, with no addable node, or with every addable node above every
        removable one (a bit below the lowest removable bit), nothing
        cancels.  Only a colour with an addable node below a removable one
        walks its addable bits."""
        add, rem = self.nodes(b)
        last = {}
        normal = {}
        for i, res in self._colours:
            a = add & res
            r = rem & res
            if r and a > r & -r:  # an addable node below a removable one
                top = 0
                while a:
                    bit = a & -a
                    a ^= bit
                    above = r & bit - 1
                    if above:  # it cancels the nearest survivor above it
                        r ^= 1 << above.bit_length() - 1
                    else:
                        top = bit
                a = top
            if a:
                last[i] = 1 << a.bit_length() - 1
            if r:
                normal[i] = r
        return last, normal


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

