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
an already ordered combination.  Appending u_j to an ordered prefix A + B,
where A is the leading run of entries above j, never touches A: every index
the straightening emits lies in [min(B), j].  So the memo is keyed on
(appended index, B) alone and A is re-attached to each result, which lets
prefixes that differ only above j share one entry.  Caching never changes
results; a fresh engine recomputes everything from scratch.
"""

from __future__ import annotations

from .abacus import WedgeMonomial, degree, factorize, wedge_monomial
from .errors import InvariantError
from .laurent import ONE, LaurentPoly, _acc

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


class WedgeEngine:
    """Straightening and bar for a fixed ambient (e, l).

    All caches are confined to the instance; an engine is cheap, so tests
    that need a cold recomputation just build a fresh one.  Operations
    never mutate their arguments, so a single engine can be shared freely
    within a thread.
    """

    def __init__(self, e: int, l: int, fuel: int = 50_000_000):
        if e < 2 or l < 1:
            raise ValueError("need e >= 2 and l >= 1")
        self.e = e
        self.l = l
        self.el = e * l
        self.fuel = fuel
        self._spent = 0
        self._pair_cache = {}
        self._insert_cache = {}
        self._bar_cache = {}

    # -- fuel ---------------------------------------------------------------

    def _burn(self, amount=1):
        self._spent += amount
        if self._spent > self.fuel:
            raise InvariantError(
                "straightening fuel exhausted (%d steps); either raise the "
                "limit or report a non-terminating rewrite" % self.fuel
            )

    # -- one adjacent pair ----------------------------------------------------

    def straighten_pair(self, k1: int, k2: int):
        """Expansion of u_{k1} ^ u_{k2} with k1 <= k2 into ordered pairs.

        Returns a tuple of ((x, y), coefficient) with x > y.  Equal indices
        give the empty expansion (the wedge square is zero).
        """
        if k1 > k2:
            raise ValueError("straighten_pair expects k1 <= k2")
        key = (k1, k2)
        hit = self._pair_cache.get(key)
        if hit is not None:
            return hit
        e, l, el = self.e, self.l, self.el
        out = {}
        if k1 != k2:
            a1, b1, _ = factorize(k1, e, l)
            a2, b2, _ = factorize(k2, e, l)
            alpha = (a2 - a1) % el
            beta = (e * (b1 - b2)) % el
            if alpha == 0 and beta == 0:
                _acc(out, (k2, k1), LaurentPoly({0: -1}))
            elif alpha != 0 and beta == 0:
                _acc(out, (k2, k1), _MINUS_Q_INV)
                m = 0
                while k2 - alpha - el * m > k1 + alpha + el * m:
                    _acc(out, (k2 - alpha - el * m, k1 + alpha + el * m),
                         LaurentPoly({-2 * m - 2: 1, -2 * m: -1}))
                    m += 1
                m = 1
                while k2 - el * m > k1 + el * m:
                    _acc(out, (k2 - el * m, k1 + el * m),
                         LaurentPoly({-2 * m + 1: 1, -2 * m - 1: -1}))
                    m += 1
            elif alpha == 0:
                _acc(out, (k2, k1), _PLUS_Q)
                m = 0
                while k2 - beta - el * m > k1 + beta + el * m:
                    _acc(out, (k2 - beta - el * m, k1 + beta + el * m),
                         LaurentPoly({2 * m + 2: 1, 2 * m: -1}))
                    m += 1
                m = 1
                while k2 - el * m > k1 + el * m:
                    _acc(out, (k2 - el * m, k1 + el * m),
                         LaurentPoly({2 * m + 1: 1, 2 * m - 1: -1}))
                    m += 1
            else:
                # Mixed rule.  The alpha+beta chain carries even-string index
                # m+1: starting it at m (whose string is the zero polynomial)
                # breaks confluence and the two-factor bar involution, with
                # defect 2(q-q^{-1})^2 exactly at the alpha+beta shift.
                _acc(out, (k2, k1), ONE)
                for shift, string, mstart in (
                    (beta, _odd_string, 0),
                    (alpha, _odd_string, 0),
                    (alpha + beta, lambda m: _even_string(m + 1), 0),
                    (0, _even_string, 1),
                ):
                    m = mstart
                    while k2 - shift - el * m > k1 + shift + el * m:
                        _acc(out, (k2 - shift - el * m, k1 + shift + el * m), string(m))
                        m += 1
        result = self._pair_cache[key] = tuple(sorted(out.items()))
        return result

    # -- insertion into an ordered monomial ---------------------------------

    def insert(self, j: int, mono: tuple):
        """(ordered monomial) ^ u_j as {ordered tuple: coefficient}.

        Split mono into A, its leading run of entries above j, and B.  Every
        index a pair straightening emits lies in [mono[-1], j], below every
        entry of A, so each placement stops before reaching A:
        insert(j, A + B) == {A + m: c for m, c in insert(j, B).items()}.
        The memo is keyed on (j, B) only, A is re-attached on the way out,
        and each miss burns one unit of fuel.  Within a miss the products
        for one straightened pair are summed before the pair coefficient
        multiplies them, once per result monomial.
        """
        if not mono or j < mono[-1]:
            return {mono + (j,): ONE}
        if j == mono[-1]:
            return {}
        # split off the leading run above j; mono[-1] < j ends the scan
        lo = 0
        while mono[lo] > j:
            lo += 1
        tail = mono[lo:]
        key = (j, tail)
        out = self._insert_cache.get(key)
        if out is None:
            self._burn()
            out = {}
            init = tail[:-1]
            for (x, y), c in self.straighten_pair(tail[-1], j):
                # init ^ u_x ^ u_y with x > y: place x, then y; the trivial
                # placements are emitted here instead of through a call
                if not init or x < init[-1]:
                    _acc(out, init + (x, y), c)
                    continue
                part = {}
                for m2, c2 in self.insert(x, init).items():
                    if y < m2[-1]:
                        _acc(part, m2 + (y,), c2)
                    else:
                        for m3, c3 in self.insert(y, m2).items():
                            _acc(part, m3, c2 * c3)
                for m, p in part.items():
                    _acc(out, m, c * p)
            self._insert_cache[key] = out
        if lo:
            head = mono[:lo]
            return {head + m: c for m, c in out.items()}
        return out

    def straighten_indices(self, indices):
        """Straighten a finite wedge of arbitrary integer indices.

        Returns {strictly decreasing tuple: coefficient}; monomials that
        develop a repeated index vanish along the way.
        """
        vec = {(): ONE}
        for j in indices:
            nxt = {}
            for mono, c in vec.items():
                for m2, c2 in self.insert(j, mono).items():
                    _acc(nxt, m2, c * c2)
            vec = nxt
        return vec

    # -- semi-infinite wrappers ----------------------------------------------

    def straighten(self, indices, s: int):
        """Straighten a raw wedge read as the first len(indices) factors of a
        charge-s semi-infinite monomial.

        Indices at or below the tail boundary s - r are legitimate input: a
        repeated bead does NOT kill a q-wedge unless the two copies are
        adjacent, so the word is extended with explicit tail beads down past
        its minimum index (anything deeper is inert) and straightened in
        full.  Returns {WedgeMonomial: coefficient}.
        """
        indices = tuple(indices)
        r = len(indices)
        if indices and min(indices) <= s - r:
            r_ext = s + 2 - min(indices)  # tail included down to min - 1
            word = indices + tuple(s - i + 1 for i in range(r + 1, r_ext + 1))
        else:
            word = indices
        out = {}
        for mono, c in self.straighten_indices(word).items():
            _acc(out, wedge_monomial(mono, s), c)
        return out

    def bar(self, u: WedgeMonomial, r: int | None = None):
        """The bar involution of an ordered monomial, as {WedgeMonomial: c}.

        Reverses the first r factors (r >= degree is required; the result is
        then independent of r), straightens them back against the frozen
        tail, and scales by (-q)^{omega'} q^{-omega}, where omega and omega'
        count index pairs i < j <= r sharing the bead letter a, resp. the
        runner b.  Every computed image must have coefficient exactly 1 on u
        (bar is unitriangular); anything else raises InvariantError before
        the image is cached under (u, r).
        """
        n = degree(u)
        r0 = len(u.prefix)
        if r is None:
            r = max(n, r0)
        elif r < max(n, r0):
            raise ValueError("bar needs r >= max(degree, prefix length) = %d" % max(n, r0))
        key = (u, r)
        hit = self._bar_cache.get(key)
        if hit is not None:
            return hit
        factors = list(u.prefix) + [u.s - i + 1 for i in range(r0 + 1, r + 1)]
        letters = [factorize(k, self.e, self.l) for k in factors]
        omega = 0
        omega_p = 0
        for i in range(r):
            for j in range(i + 1, r):
                if letters[i].a == letters[j].a:
                    omega += 1
                if letters[i].b == letters[j].b:
                    omega_p += 1
        pref = LaurentPoly({omega_p - omega: (-1) ** omega_p})
        out = {}
        floor = u.s - r
        for mono, c in self.straighten_indices(reversed(factors)).items():
            if mono and mono[-1] <= floor:
                raise InvariantError("straightened prefix dipped into the tail")
            _acc(out, wedge_monomial(mono, u.s), pref * c)
        one = out.get(u)
        if one is None or one.terms != {0: 1}:
            raise InvariantError("bar(%s) has coefficient %s on its own monomial" % (u, one))
        self._bar_cache[key] = out
        return out

    def bar_vector(self, vec):
        """Semilinear extension: coefficients through q -> q^{-1}, monomials
        through bar."""
        out = {}
        for u, c in vec.items():
            cbar = c.bar()
            for v, c2 in self.bar(u).items():
                _acc(out, v, cbar * c2)
        return out


# -- small helpers shared by tests and the CLI ---------------------------------

def vector_to_json(vec):
    """WedgeVector as a list of {monomial, coefficient} records, sorted."""
    items = sorted(vec.items(), key=lambda kv: (kv[0].s, kv[0].prefix))
    return [
        {"monomial": u.to_json(), "coefficient": c.to_pairs()}
        for u, c in items
    ]

