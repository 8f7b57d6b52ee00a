"""Straightening of q-wedge products and the bar involution.

An unordered pair u_{k1} ^ u_{k2} (k1 <= k2) rewrites into ordered pairs by
one of four rules, selected by whether alpha and beta vanish, where alpha and
beta are the residues mod e*l of (a2 - a1) and e*(b1 - b2) in the bead
factorization k = a + e(l-b) - e*l*m:

  alpha = 0, beta = 0:  u_{k1}^u_{k2} = -u_{k2}^u_{k1}        (so u^u = 0)
  alpha != 0, beta = 0: reversal with -q^{-1}, plus two geometric strings of
                        pair shifts by alpha + elm and elm;
  alpha = 0, beta != 0: reversal with +q, plus strings shifted by beta + elm
                        and elm;
  alpha, beta != 0:     reversal with +1, plus four strings shifted by beta,
                        alpha, alpha+beta and el; the rational prefactors
                        (q^{2m+1}+q^{-2m-1})/(q+q^{-1}) and
                        (q^{2m}-q^{-2m})/(q+q^{-1}) expand into alternating
                        integer Laurent polynomials, so everything stays in
                        Z[q, q^-1].

Each string continues only while the produced pair is still ordered.  Every
emitted index lies in [min(k1,k2), max(k1,k2)], which is what lets a prefix
be straightened against a frozen arithmetic tail: nothing can collide with a
tail bead that the prefix did not already touch.

The engine reads the word left to right, appending one factor at a time to
an already ordered combination, held as an int bit mask: bit i stands for
index origin + i, with origin a multiple of e.  Appending u_j to an ordered
prefix A + B, where A is the run of entries above j, never touches A: every
index the straightening emits lies in [min(B), j].  Shifting every index by
e keeps each bead letter a and shifts each runner b by one amount mod l, so
the rules, and the whole straightening of B ^ u_j, translate with it.  So
the memo is keyed on the appended index and B, both moved down by the
multiple of e that brings min(B) below e, and A is re-attached and the shift
undone on each result: prefixes that differ only above j, or only by a
translate by e, share one entry.  Masks become index tuples once, on the
way out.  Caching never changes results; a fresh engine recomputes
everything from scratch.

Few distinct coefficients occur: a bar's memo holds several results per
distinct polynomial.  So inside the engine a coefficient is an int id into
a per-engine table of distinct polynomials (0 is zero, 1 is one), keyed by
the polynomial itself, and a product or sum is computed once per pair of
ids and then looked up.  The pair cache, the insert memo and the working
vector hold ids; every public method returns LaurentPoly values.  Most memo
results have one term, so a dict per entry would outweigh its terms: an
entry is one flat tuple (mask, id, mask, id, ...) in the memo's own frame,
the shared () when the result vanishes.  Its readers undo the shift and
re-attach A as they read each mask, so a hit builds nothing.

Every memo is keyed by one exact int, so a lookup hashes an int and a
stored key holds no tuple.  The insert memo's key is B | 2 << J for the
moved-down index J and prefix B: no bit of B lies above J, so the marker
bit sits above B, and J is the key's bit length minus 2.  A product or sum
of ids a <= b is keyed by the triangular number b (b + 1) / 2 plus a, which
is exact for any ids, and the pair cache keys k1 < k2 the same way.
"""

from collections import Counter
from itertools import chain

from .abacus import WedgeMonomial, degree, dominance, factorize, wedge_monomial
from .errors import InvariantError
from .laurent import ONE, LaurentPoly

_MINUS_ONE = LaurentPoly({0: -1})
_MINUS_Q_INV = LaurentPoly({-1: -1})
_PLUS_Q = LaurentPoly({1: 1})
_Q_MINUS_QINV = LaurentPoly({1: 1, -1: -1})


def _string(n):
    """(q - q^{-1}) * (q^n - (-q)^{-n}) / (q + q^{-1}) as a polynomial."""
    return _Q_MINUS_QINV * LaurentPoly({n - 1 - 2 * j: (-1) ** j for j in range(n)})


def _shared_pairs(values) -> int:
    """The number of pairs i < j with values[i] == values[j]."""
    return sum(c * (c - 1) // 2 for c in Counter(values).values())


def _indices(mask, origin):
    """The strictly decreasing index tuple of a bit mask read from origin."""
    top = origin + mask.bit_length() - 1
    return tuple(top - i for i, bit in enumerate(bin(mask)[2:]) if bit == "1")


class WedgeEngine:
    """Straightening and bar for a fixed ambient (e, l).

    All caches are confined to the instance; an engine is cheap, so tests
    that need a cold recomputation just build a fresh one.  Operations
    never mutate their arguments, so a single engine can be shared freely
    within a thread.

    max_degree, when given, caps the length of the word that straighten and
    bar straighten, tail beads included: a longer one is refused with a
    ValueError before it is built.  fuel caps the insert-memo misses over
    the engine's life; exhausting it raises InvariantError.
    """

    fuel = 50_000_000

    def __init__(self, e: int, l: int, max_degree: int | None = None):
        if e < 2 or l < 1:
            raise ValueError("need e >= 2 and l >= 1")
        self.e = e
        self.l = l
        self.el = e * l
        self.max_degree = max_degree
        self._spent = 0
        self._pair_cache = {}
        self._insert_cache = {}
        self._polys = [LaurentPoly(), ONE]  # id -> polynomial
        self._ids = {self._polys[0]: 0, ONE: 1}  # polynomial -> id
        self._products = {}  # b (b + 1) / 2 + a for ids a <= b -> id of the product
        self._sums = {}  # the same key -> id of the sum

    # -- coefficients by id ---------------------------------------------------

    def _id(self, poly) -> int:
        """The id of a polynomial, entered in the table on first sight."""
        hit = self._ids.get(poly)
        if hit is None:
            hit = self._ids[poly] = len(self._polys)
            self._polys.append(poly)
        return hit

    def _times(self, a: int, b: int) -> int:
        """Id of the product of the polynomials with ids a and b."""
        key = b * (b + 1) // 2 + a if a <= b else a * (a + 1) // 2 + b
        hit = self._products.get(key)
        if hit is None:
            hit = self._products[key] = self._id(self._polys[a] * self._polys[b])
        return hit

    def _add(self, vec, key, c: int):
        """vec[key] += c for a key already in the sparse {key: id} vector
        vec, dropping a zero sum."""
        cur = vec[key]
        pair = c * (c + 1) // 2 + cur if cur <= c else cur * (cur + 1) // 2 + c
        s = self._sums.get(pair)
        if s is None:
            s = self._sums[pair] = self._id(self._polys[cur] + self._polys[c])
        if s:
            vec[key] = s
        else:
            del vec[key]

    # -- fuel ---------------------------------------------------------------

    def _burn(self):
        self._spent += 1
        if self._spent > self.fuel:
            raise InvariantError(
                "straightening fuel exhausted (%d steps); either raise the "
                "limit or report a non-terminating rewrite" % self.fuel
            )

    def _check_length(self, n: int):
        """Refuse a word of n factors longer than max_degree."""
        if self.max_degree is not None and n > self.max_degree:
            raise ValueError(
                "the word to straighten has %d factors (tail beads included), exceeding "
                "max_degree %d; raise the cap to proceed" % (n, self.max_degree)
            )

    # -- one adjacent pair ----------------------------------------------------

    def straighten_pair(self, k1: int, k2: int):
        """Expansion of u_{k1} ^ u_{k2} with k1 <= k2 into ordered pairs.

        Returns a tuple of ((x, y), coefficient) with x > y.  Equal indices
        give the empty expansion (the wedge square is zero).  Each rule is
        its reversal coefficient and its strings, (shift, coefficient(m),
        first m); no two terms share a pair, since a nonzero alpha is no
        multiple of e and beta is, so the shifts differ mod el.
        """
        if k1 > k2:
            raise ValueError("straighten_pair expects k1 <= k2")
        if k1 == k2:
            return ()
        e, l, el = self.e, self.l, self.el
        a1, b1, _ = factorize(k1, e, l)
        a2, b2, _ = factorize(k2, e, l)
        alpha = (a2 - a1) % el
        beta = (e * (b1 - b2)) % el
        if alpha == 0 and beta == 0:
            reversal, strings = _MINUS_ONE, ()
        elif beta == 0:
            reversal, strings = _MINUS_Q_INV, (
                (alpha, lambda m: LaurentPoly({-2 * m - 2: 1, -2 * m: -1}), 0),
                (0, lambda m: LaurentPoly({-2 * m + 1: 1, -2 * m - 1: -1}), 1),
            )
        elif alpha == 0:
            reversal, strings = _PLUS_Q, (
                (beta, lambda m: LaurentPoly({2 * m + 2: 1, 2 * m: -1}), 0),
                (0, lambda m: LaurentPoly({2 * m + 1: 1, 2 * m - 1: -1}), 1),
            )
        else:
            # Mixed rule.  The alpha+beta chain carries the string of n =
            # 2m+2: giving it n = 2m (the zero polynomial at m = 0) breaks
            # confluence and the two-factor bar involution, with defect
            # 2(q-q^{-1})^2 exactly at the alpha+beta shift.
            reversal, strings = ONE, (
                (beta, lambda m: _string(2 * m + 1), 0),
                (alpha, lambda m: _string(2 * m + 1), 0),
                (alpha + beta, lambda m: _string(2 * m + 2), 0),
                (0, lambda m: _string(2 * m), 1),
            )
        out = [((k2, k1), reversal)]
        for shift, string, m in strings:
            while k2 - shift - el * m > k1 + shift + el * m:
                out.append(((k2 - shift - el * m, k1 + shift + el * m), string(m)))
                m += 1
        return tuple(sorted(out))

    def _pair(self, k1: int, k2: int):
        """straighten_pair with coefficient ids, for 0 <= k1 <= k2, cached
        under the int k2 (k2 + 1) / 2 + k1."""
        key = k2 * (k2 + 1) // 2 + k1
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = self._pair_cache[key] = tuple(
                (xy, self._id(c)) for xy, c in self.straighten_pair(k1, k2))
        return hit

    # -- insertion into an ordered monomial ---------------------------------

    def _insert(self, j: int, mono: int):
        """mono ^ u_j for an ordered monomial held as a bit mask (bit i is
        index origin + i, origin a multiple of e; j >= 0 in the same frame),
        as (run, d, head): run is a flat (mask, coefficient id, ...) tuple,
        and each of its masks m stands for the result m << d | head.

        Split mono into A = head, its entries above j, and B.  Every index a
        pair straightening emits lies in [min(B), j], below every entry of
        A, so A is re-attached to every result of B ^ u_j.  Shifting the
        indices of a pair by e keeps alpha, beta and the string
        coefficients, so B ^ u_j translates by any multiple of e: with d =
        min(B) rounded down to a multiple of e, the memo is keyed on the
        int B >> d | 2 << (j - d), whose top bit marks j - d above the
        translated B, holds the run in that frame, and each miss burns one
        unit of fuel.  The caller applies the shift and A as it reads, so a
        hit copies nothing.  Within a miss the products for one straightened
        pair are summed before the pair coefficient multiplies them, once
        per result monomial.
        """
        tail = mono & ((2 << j) - 1)
        if not tail:
            return (1 << j, 1), 0, mono
        low = (tail & -tail).bit_length() - 1
        if low == j:
            return (), 0, 0
        d = low - low % self.e
        key = tail >> d | 2 << j - d
        run = self._insert_cache.get(key)
        if run is None:
            self._burn()
            out = {}
            add, times = self._add, self._times
            k = low - d
            init = tail >> d ^ 1 << k
            for (x, y), c in self._pair(k, j - d):
                # init ^ u_x ^ u_y with x > y: place x, then y; the trivial
                # placements are emitted here instead of through a call
                if not init & ((2 << x) - 1):
                    m = init | 1 << x | 1 << y
                    if m in out:
                        add(out, m, c)
                    else:
                        out[m] = c
                    continue
                below_y = (2 << y) - 1
                part = {}
                run2, d2, head2 = self._insert(x, init)
                it2 = iter(run2)
                for m2, c2 in zip(it2, it2):
                    m2 = m2 << d2 | head2
                    if not m2 & below_y:
                        m2 |= 1 << y
                        if m2 in part:
                            add(part, m2, c2)
                        else:
                            part[m2] = c2
                        continue
                    run3, d3, head3 = self._insert(y, m2)
                    it3 = iter(run3)
                    for m3, c3 in zip(it3, it3):
                        m3 = m3 << d3 | head3
                        c3 = c2 if c3 == 1 else c3 if c2 == 1 else times(c2, c3)
                        if m3 in part:
                            add(part, m3, c3)
                        else:
                            part[m3] = c3
                for m, p in part.items():
                    p = p if c == 1 else c if p == 1 else times(c, p)
                    if m in out:
                        add(out, m, p)
                    else:
                        out[m] = p
            run = self._insert_cache[key] = tuple(chain.from_iterable(out.items()))
        return run, d, mono ^ tail

    def straighten_indices(self, indices):
        """Straighten a finite wedge of arbitrary integer indices.

        Returns {strictly decreasing tuple: coefficient}; monomials that
        develop a repeated index vanish along the way.  A word long enough for
        _insert's recursion to reach Python's limit (about a thousand
        factors) raises InvariantError; the memos keep only finished entries.
        """
        word = tuple(indices)
        low = min(word, default=0)
        origin = low - low % self.e
        add, times = self._add, self._times
        vec = {0: 1}
        try:
            for j in word:
                j -= origin
                nxt = {}
                for mono, c in vec.items():
                    run, d, head = self._insert(j, mono)
                    it = iter(run)
                    for m2, c2 in zip(it, it):
                        m2 = m2 << d | head
                        c2 = c2 if c == 1 else c if c2 == 1 else times(c, c2)
                        if m2 in nxt:
                            add(nxt, m2, c2)
                        else:
                            nxt[m2] = c2
                vec = nxt
        except RecursionError:
            raise InvariantError("straightening a word of %d factors reached Python's "
                                 "recursion limit" % len(word)) from None
        polys = self._polys
        return {_indices(m, origin): polys[c] for m, c in vec.items()}

    # -- semi-infinite wrappers ----------------------------------------------

    def straighten(self, indices, s: int):
        """Straighten a raw wedge read as the first len(indices) factors of a
        charge-s semi-infinite monomial.

        Indices at or below the tail boundary s - r are legitimate input: a
        repeated bead does NOT kill a q-wedge unless the two copies are
        adjacent, so the word is extended with explicit tail beads down past
        its minimum index (anything deeper is inert) and straightened in
        full.  Returns {WedgeMonomial: coefficient}.  The word's length is
        checked against max_degree first; a result that dips into the tail
        below the word raises InvariantError.
        """
        indices = tuple(indices)
        n = word_length(indices, s)
        self._check_length(n)
        word = indices + tuple(s - i + 1 for i in range(len(indices) + 1, n + 1))
        out = {}
        for mono, c in self.straighten_indices(word).items():
            if mono and mono[-1] <= s - n:
                raise InvariantError("straightened prefix dipped into the tail")
            out[wedge_monomial(mono, s)] = c  # injective on words of one length
        return out

    def bar(self, u: WedgeMonomial):
        """The bar involution of an ordered monomial, as a new dict
        {WedgeMonomial: c} on every call.

        Reverses the first r = max(degree, prefix length) factors (any
        larger r gives the same result), straightens them back against the
        frozen tail, and scales by (-q)^{omega'} q^{-omega}, where omega and
        omega' count index pairs i < j <= r sharing the bead letter a, resp.
        the runner b.  bar is unitriangular in wedge dominance (see
        abacus.dominance), and this is where that is checked for every bar
        image: a coefficient other than exactly 1 on u, or a support w != u
        whose dominance does not rise above u's, raises InvariantError.  The
        r factors are checked against max_degree first.
        """
        r0 = len(u.prefix)
        r = max(degree(u), r0)
        self._check_length(r)
        factors = list(u.prefix) + [u.s - i + 1 for i in range(r0 + 1, r + 1)]
        letters = [factorize(k, self.e, self.l) for k in factors]
        omega = _shared_pairs(a for a, _b, _m in letters)
        omega_p = _shared_pairs(b for _a, b, _m in letters)
        pref = LaurentPoly({omega_p - omega: (-1) ** omega_p})
        out = {w: pref * c for w, c in self.straighten(factors[::-1], u.s).items()}
        one = out.get(u)
        if one is None or one.terms != {0: 1}:
            raise InvariantError("bar(%s) has coefficient %s on its own monomial" % (u, one))
        low = dominance(u)
        for w in out:
            if w != u and dominance(w) <= low:
                raise InvariantError(
                    "bar(%s) has support %s, which does not rise in wedge dominance" % (u, w))
        return out


# -- the length of a word to straighten ------------------------------------------

def word_length(indices, s: int) -> int:
    """Length of the word `WedgeEngine.straighten` straightens: the indices,
    followed, when their minimum reaches the charge-s tail, by the tail
    beads down to one below that minimum."""
    r = len(indices)
    if indices and min(indices) <= s - r:
        return s + 2 - min(indices)  # tail included down to min - 1
    return r

