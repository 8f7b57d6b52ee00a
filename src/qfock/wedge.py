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
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from .abacus import WedgeMonomial, degree, factorize, wedge_monomial
from .errors import InvariantError
from .laurent import ONE, LaurentPoly

_MINUS_ONE = LaurentPoly({0: -1})
_MINUS_Q_INV = LaurentPoly({-1: -1})
_PLUS_Q = LaurentPoly({1: 1})
_Q_MINUS_QINV = LaurentPoly({1: 1, -1: -1})


def _odd_string(m):
    """(q - q^{-1}) * (q^{2m+1} + q^{-2m-1}) / (q + q^{-1}) as a polynomial."""
    body = LaurentPoly({2 * m - 2 * j: (-1) ** j for j in range(2 * m + 1)})
    return _Q_MINUS_QINV * body


def _even_string(m):
    """(q - q^{-1}) * (q^{2m} - q^{-2m}) / (q + q^{-1}) as a polynomial."""
    body = LaurentPoly({2 * m - 1 - 2 * j: (-1) ** j for j in range(2 * m)})
    return _Q_MINUS_QINV * body


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
    ValueError before it is built.
    """

    def __init__(self, e: int, l: int, max_degree: int | None = None, fuel: int = 50_000_000):
        if e < 2 or l < 1:
            raise ValueError("need e >= 2 and l >= 1")
        self.e = e
        self.l = l
        self.el = e * l
        self.max_degree = max_degree
        self.fuel = fuel
        self._spent = 0
        self._pair_cache = {}
        self._insert_cache = {}
        self._bar_cache = {}
        self._polys = [LaurentPoly(), ONE]  # id -> polynomial
        self._ids = {self._polys[0]: 0, ONE: 1}  # polynomial -> id
        self._products = {}  # (id, id) -> id of the product
        self._sums = {}  # (id, id) -> id of the sum

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
        key = (a, b) if a < b else (b, a)
        hit = self._products.get(key)
        if hit is None:
            hit = self._products[key] = self._id(self._polys[a] * self._polys[b])
        return hit

    def _add(self, vec, key, c: int):
        """vec[key] += c for a key already in the sparse {key: id} vector
        vec, dropping a zero sum."""
        cur = vec[key]
        pair = (cur, c) if cur < c else (c, cur)
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
            # Mixed rule.  The alpha+beta chain carries even-string index
            # m+1: starting it at m (whose string is the zero polynomial)
            # breaks confluence and the two-factor bar involution, with
            # defect 2(q-q^{-1})^2 exactly at the alpha+beta shift.
            reversal, strings = ONE, (
                (beta, _odd_string, 0),
                (alpha, _odd_string, 0),
                (alpha + beta, lambda m: _even_string(m + 1), 0),
                (0, _even_string, 1),
            )
        out = [((k2, k1), reversal)]
        for shift, string, m in strings:
            while k2 - shift - el * m > k1 + shift + el * m:
                out.append(((k2 - shift - el * m, k1 + shift + el * m), string(m)))
                m += 1
        return tuple(sorted(out))

    def _pair(self, k1: int, k2: int):
        """straighten_pair with coefficient ids, cached per (k1, k2)."""
        key = (k1, k2)
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
        coefficients, so B ^ u_j translates by any multiple of e: the memo
        is keyed on (j - d, B >> d), with d = min(B) rounded down to a
        multiple of e, holds the run in that frame, and each miss burns one
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
        key = (j - d, tail >> d)
        run = self._insert_cache.get(key)
        if run is None:
            self._burn()
            out = {}
            add, times = self._add, self._times
            k = low - d
            init = key[1] ^ 1 << k
            for (x, y), c in self._pair(k, key[0]):
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
        checked against max_degree first.
        """
        indices = tuple(indices)
        n = word_length(indices, s)
        self._check_length(n)
        word = indices + tuple(s - i + 1 for i in range(len(indices) + 1, n + 1))
        # wedge_monomial is injective on words of one length
        return {wedge_monomial(mono, s): c
                for mono, c in self.straighten_indices(word).items()}

    def bar(self, u: WedgeMonomial, r: int | None = None):
        """The bar involution of an ordered monomial, as {WedgeMonomial: c}.

        Reverses the first r factors (r >= degree is required; the result is
        then independent of r), straightens them back against the frozen
        tail, and scales by (-q)^{omega'} q^{-omega}, where omega and omega'
        count index pairs i < j <= r sharing the bead letter a, resp. the
        runner b.  Every computed image must have coefficient exactly 1 on u
        (bar is unitriangular); anything else raises InvariantError before
        the image is cached under (u, r).  The r factors are checked against
        max_degree first.
        """
        n = degree(u)
        r0 = len(u.prefix)
        if r is None:
            r = max(n, r0)
        elif r < max(n, r0):
            raise ValueError("bar needs r >= max(degree, prefix length) = %d" % max(n, r0))
        self._check_length(r)
        key = (u, r)
        hit = self._bar_cache.get(key)
        if hit is not None:
            return hit
        factors = list(u.prefix) + [u.s - i + 1 for i in range(r0 + 1, r + 1)]
        letters = [factorize(k, self.e, self.l) for k in factors]
        omega = _shared_pairs(x.a for x in letters)
        omega_p = _shared_pairs(x.b for x in letters)
        pref = LaurentPoly({omega_p - omega: (-1) ** omega_p})
        out = {}
        floor = u.s - r
        for mono, c in self.straighten_indices(reversed(factors)).items():
            if mono and mono[-1] <= floor:
                raise InvariantError("straightened prefix dipped into the tail")
            out[wedge_monomial(mono, u.s)] = pref * c  # injective, as in straighten
        one = out.get(u)
        if one is None or one.terms != {0: 1}:
            raise InvariantError("bar(%s) has coefficient %s on its own monomial" % (u, one))
        self._bar_cache[key] = out
        return out


# -- small helpers shared by tests and the CLI ---------------------------------

def word_length(indices, s: int) -> int:
    """Length of the word `WedgeEngine.straighten` straightens: the indices,
    followed, when their minimum reaches the charge-s tail, by the tail
    beads down to one below that minimum."""
    r = len(indices)
    if indices and min(indices) <= s - r:
        return s + 2 - min(indices)  # tail included down to min - 1
    return r


def vector_to_json(vec):
    """WedgeVector as {monomial, coefficient} records, sorted, made one at a
    time as they are read."""
    items = sorted(vec.items(), key=lambda kv: (kv[0].s, kv[0].prefix))
    return (
        {"monomial": u.to_json(), "coefficient": c.to_pairs()}
        for u, c in items
    )

