"""Canonical basis elements, and the resulting decomposition matrices at
q = 1.

FockBasis builds G(lambda) for every label of one charge through the Fock
action, after Lascoux-Leclerc-Thibon and Uglov.  Peel a maximal good
i-string, lambda' = e~_i^k lambda, for the lowest colour i that has a good
node; then v = f_i^(k) G(lambda') is bar-invariant (Uglov's bar involution
commutes with f_i).  fock.apply_f builds the divided power in one pass, as
a sum over the k-sets of addable i-nodes, with no division by [k]!.
Subtracting bar-invariant multiples of G(nu) wherever a coefficient of v
off lambda is not in qZ[q] leaves G(lambda).
A label with no good node at any colour is a highest-weight vertex of its
crystal component.  Its start vector is v = u + bar(u), u the label's
wedge monomial, which is bar-invariant with 2 on lambda; the same
corrections leave 2 G(lambda), the unique bar-invariant element congruent
to 2u modulo q, and the build halves it.  The corrections are taken in
wedge dominance order (see dominance), which needs no a-value, and may
need G(nu) of labels below lambda or in other components, so the build is
demand-driven on an explicit stack.  The `canonical` command and
decomposition_matrix use this route; the latter refuses a column whose
build meets a highest-weight label other than the vacuum.

CanonicalBasis builds G(v) for any ordered wedge monomial v, Uglov or not,
by the bar recursion over the whole bar closure of v, independently of the
Fock action; the tests compare FockBasis against it.  For such v let
bar(v) = v + sum of other monomials (WedgeEngine.bar asserts the unit
coefficient on v and owns the only cache of bar images).  Writing
d = bar(v) - v and expanding d over the already-known canonical elements of
the monomials reachable from v gives antisymmetric coefficients; truncating
each to its positive-exponent half yields the corrections, and

    G(v) = v + sum_alpha  trunc(gamma_alpha) G(alpha)

is the unique bar-invariant element congruent to v modulo q.  The recursion
takes the monomials reachable from v in wedge dominance order, the order
FockBasis corrects in: every bar support rises in dominance, and a bar
support that does not rise aborts the run.  So it never compares a-values,
which are not even defined across charges.
"""

from __future__ import annotations

from functools import cached_property

from .abacus import WedgeMonomial, from_pair, to_pair
from .avalue import AValueTable
from .crystal import _reduce, uglov_set
from .errors import InvariantError
from .fock import apply_f
from .laurent import LaurentPoly, _acc
from .partitions import (
    empty_multipartition,
    is_split_semisimple,
    mp_to_text,
    multipartitions,
    rank,
    remove_node,
    signature_nodes,
)
from .wedge import WedgeEngine


def dominance(u: WedgeMonomial) -> int:
    """Wedge dominance: -sum_i (k_i^2 - (s - i + 1)^2) over u's prefix.  A
    pair rewrite keeps k1 + k2 and emits indices in [k1, k2], so every term
    but the plain reversal has a smaller sum of squares: every w != u in the
    support of bar(u), and so of G(u), has strictly larger dominance."""
    return -sum(k * k - (u.s - i) ** 2 for i, k in enumerate(u.prefix))


class CanonicalBasis:
    """Shared straightening engine, which caches the bar images, plus a
    global cache of canonical elements keyed by monomial.  Monomials carry
    their total charge, so one instance serves every charge of a fixed
    (e, l)."""

    def __init__(self, e: int, l: int):
        self.e = e
        self.l = l
        self.engine = WedgeEngine(e, l)
        self._g = {}

    def bar_closure(self, u0: WedgeMonomial) -> list:
        """Monomials reachable from u0 through bar supports, sorted by
        (dominance, prefix): u0 first, each before everything its bar image
        reaches.  A bar support that does not rise in wedge dominance
        aborts."""
        dom = {u0: dominance(u0)}
        work = [u0]
        while work:
            u = work.pop()
            low = dom[u]
            for w in self.engine.bar(u):
                if w == u:
                    continue
                d = dom.get(w)
                if d is None:
                    d = dom[w] = dominance(w)
                    work.append(w)
                if d <= low:
                    raise InvariantError(
                        "bar(%s) has support %s, which does not rise in wedge dominance"
                        % (u, w)
                    )
        return sorted(dom, key=lambda u: (dom[u], u.prefix))

    def element(self, u0: WedgeMonomial):
        """The canonical element G(u0) as {monomial: polynomial}."""
        hit = self._g.get(u0)
        if hit is not None:
            return hit
        order = self.bar_closure(u0)
        pos = {u: i for i, u in enumerate(order)}
        for v in reversed(order):
            if v in self._g:
                continue
            residual = dict(self.engine.bar(v))
            del residual[v]  # unit coefficient asserted in WedgeEngine.bar
            g = {v: LaurentPoly({0: 1})}
            while residual:
                alpha = min(residual, key=pos.__getitem__)
                gamma = residual.pop(alpha)
                if not gamma.is_antisymmetric():
                    raise InvariantError(
                        "correction coefficient %s on %s is not antisymmetric "
                        "(bar involution broken upstream)" % (gamma, alpha)
                    )
                beta = gamma.truncate_positive()
                for w, c in self._g[alpha].items():
                    _acc(g, w, beta * c)
                    if w != alpha:
                        _acc(residual, w, -(gamma * c))
            self._g[v] = g
        return self._g[u0]

    def element_for_label(self, mp, charge):
        """G for a (multipartition, charge) label, as a Fock-space vector
        {(mp, charge): polynomial}."""
        g = self.element(from_pair(mp, charge, self.e, self.l))
        out = {}
        for u, c in g.items():
            out[to_pair(u, self.e, self.l)] = c
        return out


class FockBasis:
    """Canonical elements G(lambda) of the labels of one charge, built
    through the Fock action.  A highest-weight label starts from its own
    bar, taken on one WedgeEngine made when the first needs it;
    `wedge_labels` lists those labels in the order they were sent.

    Elements are Fock-space vectors {(mp, charge): polynomial}."""

    def __init__(self, e: int, l: int, charge):
        self.e = e
        self.l = l
        self.charge = tuple(charge)
        vacuum = empty_multipartition(l)
        self._g = {vacuum: {(vacuum, self.charge): LaurentPoly.one()}}
        self._open = set()  # labels whose build has started and not finished
        self._key = {}
        self.wedge_labels = []

    @cached_property
    def engine(self) -> WedgeEngine:
        return WedgeEngine(self.e, self.l)

    def key(self, mp):
        """Correction order: the dominance of mp's wedge monomial, then
        text.  The first entry strictly grows from a label to every other
        label in the support of its G."""
        hit = self._key.get(mp)
        if hit is None:
            hit = self._key[mp] = (
                dominance(from_pair(mp, self.charge, self.e, self.l)),
                mp_to_text(mp),
            )
        return hit

    def peel(self, mp):
        """(i, k, e~_i^k mp) for the lowest colour i with a good node of mp
        and the largest such k; None when mp has no good node, i.e. is a
        highest-weight vertex of its crystal component.  e~_i^k removes
        every normal i-node of mp: removing the good one turns it into an
        uncancelled addable node and leaves the others normal.  Only the
        residues that occur among mp's nodes are tried, so the cost does
        not grow with e."""
        sigs = {}
        for cont, _c, node, addable in signature_nodes(mp, self.charge):
            sigs.setdefault(cont % self.e, []).append((node, addable))
        for i in sorted(sigs):
            normal = _reduce(sigs[i])[1]
            if normal:
                for gamma in normal:
                    mp = remove_node(mp, gamma)
                return i, len(normal), mp
        return None

    def _highest(self, mp) -> dict:
        """u + bar(u) for the wedge monomial u of a highest-weight label, as
        a Fock vector: bar-invariant, with 2 on mp.  Every other label of
        its support must be at this charge and rise in wedge dominance, the
        order the corrections are taken in."""
        self.wedge_labels.append(mp)
        u = from_pair(mp, self.charge, self.e, self.l)
        low = dominance(u)
        v = {(mp, self.charge): LaurentPoly.one()}
        for w, c in self.engine.bar(u).items():
            label = to_pair(w, self.e, self.l)
            if label[1] != self.charge:
                raise InvariantError(
                    "bar of %s at charge %s has support %s at charge %s"
                    % (mp_to_text(mp), self.charge, mp_to_text(label[0]), label[1])
                )
            if w != u and dominance(w) <= low:
                raise InvariantError(
                    "bar(%s) has support %s, which does not rise in wedge dominance"
                    % (u, w)
                )
            _acc(v, label, c)
        return v

    def element(self, mp) -> dict:
        """G(mp), building whatever it needs first."""
        stack = []
        self._push(mp, stack)
        while stack:
            frame = stack[-1]
            lam, v, corrected, lead = frame
            if v is None:
                peeled = self.peel(lam)
                if peeled is None:
                    v = frame[1] = self._highest(lam)
                    lead = frame[3] = 2
                else:
                    i, k, low = peeled
                    if self._push(low, stack):
                        continue
                    # bar-invariant and on lam, with lam's coefficient not yet 1
                    v = frame[1] = apply_f(i, self._g[low], self.e, k)
            nu = self._lowest_uncorrected(lam, v)
            while nu is not None and not self._push(nu, stack):
                if nu in corrected:
                    # each subtraction only moves labels above nu in key order
                    raise InvariantError(
                        "building G(%s) at charge %s needs a second correction on %s"
                        % (mp_to_text(lam), self.charge, mp_to_text(nu))
                    )
                corrected.add(nu)
                self._subtract(v, nu)
                nu = self._lowest_uncorrected(lam, v)
            if nu is not None:
                continue  # resume once G(nu) is built
            one = v.get((lam, self.charge))
            if one is None or one.terms != {0: lead}:
                raise InvariantError(
                    "G(%s) at charge %s ends with coefficient %s on its label, not %d"
                    % (mp_to_text(lam), self.charge, one, lead)
                )
            if lead == 2:  # v is 2 G(lam)
                odd = [key for key, c in v.items() if any(x % 2 for x in c.terms.values())]
                if odd:
                    raise InvariantError(
                        "2 G(%s) at charge %s has an odd coefficient %s on %s"
                        % (mp_to_text(lam), self.charge, v[odd[0]], mp_to_text(odd[0][0]))
                    )
                v = {key: LaurentPoly({x: cx // 2 for x, cx in c.terms.items()})
                     for key, c in v.items()}
            self._g[lam] = v
            self._open.discard(lam)
            stack.pop()
        return self._g[mp]

    def _push(self, mp, stack) -> bool:
        """Open a build of mp unless G(mp) is stored; True when opened.  A
        label already open would make the build wait on itself."""
        if mp in self._g:
            return False
        if mp in self._open:
            raise InvariantError(
                "build of G(%s) at charge %s waits on itself"
                % (mp_to_text(mp), self.charge)
            )
        self._open.add(mp)
        # label, vector so far, labels corrected, coefficient its label ends with
        stack.append([mp, None, set(), 1])
        return True

    def _lowest_uncorrected(self, lam, v):
        """The lowest label off lam, in key order, whose coefficient in v is
        not in qZ[q]; None when there is none."""
        bad = [mp for (mp, _charge), c in v.items() if mp != lam and min(c.terms) <= 0]
        return min(bad, key=self.key, default=None)

    def _subtract(self, v, nu):
        """v -= alpha G(nu), alpha the bar-invariant polynomial with
        v[nu] - alpha in qZ[q]."""
        c = v[(nu, self.charge)]
        minus_alpha = {}
        for x, cx in c.terms.items():
            if x <= 0:
                minus_alpha[x] = minus_alpha.get(x, 0) - cx
                if x:
                    minus_alpha[-x] = minus_alpha.get(-x, 0) - cx
        minus_alpha = LaurentPoly(minus_alpha)
        for key, d in self._g[nu].items():
            _acc(v, key, minus_alpha * d)


class DecompositionMatrix:
    """Rows: all l-partitions of rank n, sorted by (a_rel, text form).
    Columns: the Uglov l-partitions, sorted the same way.  Entries are the
    canonical-basis coefficients; `entries` holds them at q = 1, `qentries`
    keeps the polynomials, `aval` is the a-value table at height n + 1, and
    `text` maps each row label to its text form, which every renderer
    reads."""

    def __init__(self, e, l, charge, n, rows, cols, qentries, checks, aval, text):
        self.e = e
        self.l = l
        self.charge = charge
        self.n = n
        self.rows = rows
        self.cols = cols
        self.qentries = qentries
        self.entries = {key: c.eval_one() for key, c in qentries.items()}
        self.checks = checks
        self.aval = aval
        self.text = text

    def triples(self):
        """The matrix as sorted (row label, column label, entry) triples,
        zero entries omitted; the canonical comparison form."""
        return self._sorted(self.entries)

    def _sorted(self, entries) -> list:
        """(row text, column text, value) for the nonzero values of
        entries, sorted; no two share their texts, so values are never
        compared."""
        text = self.text
        return sorted((text[row], text[col], v) for (row, col), v in entries.items() if v)

    def to_csv(self):
        """The CSV text, line by line."""
        yield "row,column,entry\n"
        for row, col, v in self.triples():
            yield "%s,%s,%d\n" % (row.replace(",", " "), col.replace(",", " "), v)

    def to_latex(self):
        """The LaTeX array, line by line.  Each row starts from "." in every
        column and is filled from that row's nonzero entries, grouped once."""
        pos = {col: j for j, col in enumerate(self.cols)}
        nonzero = {}
        for (row, col), v in self.entries.items():
            if v:
                nonzero.setdefault(row, []).append((pos[col], v))
        yield r"\begin{array}{l|%s}" % ("c" * len(self.cols)) + "\n"
        for row in self.rows:
            cells = ["."] * len(self.cols)
            for j, v in nonzero.get(row, ()):
                cells[j] = str(v)
            yield "%s & %s \\\\\n" % (self.text[row], " & ".join(cells))
        yield r"\end{array}" + "\n"

    def to_json(self, keep_q=False) -> dict:
        """The JSON payload; its lists are iterators, read from sorted data
        as they are written."""
        text = self.text
        body = {
            "e": self.e,
            "l": self.l,
            "charge": list(self.charge),
            "rank": self.n,
            "rows": map(text.__getitem__, self.rows),
            "columns": map(text.__getitem__, self.cols),
            "triples": iter(self.triples()),
            "checks": self.checks,
        }
        if keep_q:
            body["q_triples"] = (
                [row, col, p.to_pairs()] for row, col, p in self._sorted(self.qentries)
            )
        return body


def decomposition_matrix(e, l, charge, n) -> DecompositionMatrix:
    """Columns are the canonical elements of the rank-n Uglov labels, built
    by FockBasis and evaluated at q = 1 on the charge-matching keys.  Every
    label such a build meets lies in the crystal component of the vacuum, so
    a build that sends one to the wedge engine raises.

    Cross-charge and cross-rank supports of each column are required to be
    empty and recorded under checks["foreign_support"]; nonempty means the
    run hit something the theory says cannot happen.
    """
    aval = AValueTable(e, l, charge, n + 1)
    basis = FockBasis(e, l, charge)
    text = {mp: mp_to_text(mp) for mp in multipartitions(l, n)}

    def order(mp):
        return (aval[mp], text[mp])

    rows = sorted(text, key=order)
    cols = sorted(uglov_set(e, l, charge, n), key=order)
    qentries = {}
    foreign = []
    for col in cols:
        g = basis.element(col)
        if basis.wedge_labels:
            raise InvariantError(
                "building the Uglov column %s at charge %s needed the wedge engine for %s"
                % (mp_to_text(col), tuple(charge), mp_to_text(basis.wedge_labels[0]))
            )
        for (mp, ch), c in g.items():
            if ch != tuple(charge) or rank(mp) != n:
                foreign.append([mp_to_text(mp), list(ch), mp_to_text(col)])
                continue
            qentries[(mp, col)] = c
    checks = {
        "semisimple": is_split_semisimple(e, charge, n),
        "foreign_support": sorted(foreign),
    }
    return DecompositionMatrix(e, l, charge, n, rows, cols, qentries, checks, aval, text)


def verify_unitriangular(matrix: DecompositionMatrix) -> dict:
    """Checks the triangular shape against the a-value order: unit diagonal,
    strictly larger a_rel on every off-label row of each column, uniqueness
    of each column's minimal row, nonnegative integer entries, and, since
    the d_{lambda mu}(q) are parabolic Kazhdan-Lusztig polynomials,
    nonnegative q-coefficients."""
    aval = matrix.aval
    violations = []
    minimal_rows = {}
    row_pos = {row: i for i, row in enumerate(matrix.rows)}
    supports = {}
    for (row, col), v in matrix.entries.items():
        if v and row in row_pos:
            supports.setdefault(col, []).append(row)
    for col in matrix.cols:
        support = sorted(supports.get(col, ()), key=row_pos.__getitem__)
        if matrix.entries.get((col, col)) != 1:
            violations.append("column %s: diagonal entry is %r, not 1"
                              % (mp_to_text(col), matrix.entries.get((col, col))))
        if not support:
            violations.append("column %s: empty" % mp_to_text(col))
            continue
        amin = min(aval[row] for row in support)
        lowest = [row for row in support if aval[row] == amin]
        if lowest != [col]:
            violations.append(
                "column %s: minimal-a rows are %s"
                % (mp_to_text(col), [mp_to_text(r) for r in lowest])
            )
        minimal_rows.setdefault(tuple(lowest), []).append(col)
        for row in support:
            if row != col and aval[row] <= aval[col]:
                violations.append(
                    "column %s: row %s has a=%d <= %d"
                    % (mp_to_text(col), mp_to_text(row), aval[row], aval[col])
                )
    for lowest, cols in minimal_rows.items():
        if len(cols) > 1:
            violations.append(
                "columns %s share the minimal row set %s"
                % ([mp_to_text(c) for c in cols], [mp_to_text(r) for r in lowest])
            )
    for (row, col), v in matrix.entries.items():
        if v < 0:
            violations.append(
                "entry (%s, %s) = %d is negative" % (mp_to_text(row), mp_to_text(col), v)
            )
    for (row, col), p in matrix.qentries.items():
        if any(c < 0 for c in p.terms.values()):
            violations.append(
                "entry (%s, %s) = %s has a negative coefficient"
                % (mp_to_text(row), mp_to_text(col), p)
            )
    return {"ok": not violations, "violations": violations}
