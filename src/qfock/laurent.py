"""Exact Laurent polynomials in q with integer coefficients.

Every coefficient in the straightening rules and in the bar-invariant basis
recursion lives in Z[q, q^-1], so this is the only scalar type the package
needs.  Polynomials are stored sparsely as {exponent: coefficient} with no
zero coefficients; Python ints make overflow impossible.
"""


class LaurentPoly:
    """A Laurent polynomial over Z, immutable by convention.

    The constructor normalizes: zero coefficients are stripped.  Instances
    are safe to share (no operation mutates `terms` after construction).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms:
            self.terms = {e: c for e, c in terms.items() if c != 0}
        else:
            self.terms = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls):
        return cls({0: 1})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = terms
        return out

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            out = LaurentPoly.__new__(LaurentPoly)
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                elif e in terms:
                    del terms[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- the operations the theory needs ------------------------------------

    def is_antisymmetric(self):
        """True iff bar(p) == -p."""
        for e, c in self.terms.items():
            if self.terms.get(-e, 0) != -c:
                return False
        return True

    # -- rendering -----------------------------------------------------------

    def to_pairs(self):
        """JSON form: [exponent, coefficient] pairs sorted by exponent."""
        return [[e, self.terms[e]] for e in sorted(self.terms)]

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                qpart = "q" if e == 1 else "q^%d" % e
                body = qpart if abs(c) == 1 else "%d*%s" % (abs(c), qpart)
            if not chunks:
                chunks.append(body if c > 0 else "-" + body)
            else:
                chunks.append(("+ " if c > 0 else "- ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return "LaurentPoly(%r)" % (self.terms,)


ONE = LaurentPoly.one()


def _acc(vec, key, poly):
    """vec[key] += poly for a sparse {key: LaurentPoly} vector, dropping
    zeros."""
    cur = vec.get(key)
    if cur is None:
        if poly:
            vec[key] = poly
    else:
        s = cur + poly
        if s:
            vec[key] = s
        else:
            del vec[key]
