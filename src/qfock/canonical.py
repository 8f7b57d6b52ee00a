"""Canonical basis elements, and the resulting decomposition matrices at
q = 1.

FockBasis builds G(lambda) for every label of one charge through the Fock
action, after Lascoux-Leclerc-Thibon and Uglov.  Peel a maximal good
i-string, lambda' = e~_i^k lambda, for the lowest colour i that has a good
node; then v = f_i^(k) G(lambda') is bar-invariant (Uglov's bar involution
commutes with f_i).  fock.apply_f builds the divided power in one pass, as
a sum over the k-sets of addable i-nodes, with no division by [k]!.
Subtracting bar-invariant multiples of G(nu) wherever a coefficient of v
off lambda is not in qZ[q] leaves G(lambda).  Labels are bead masks and
coefficients plain ints throughout the build (see fock.py); tuples and
polynomials appear only where a result leaves the build.
A label with no good node at any colour is a highest-weight vertex of its
crystal component.  Its start vector is v = u + bar(u), u the label's
wedge monomial, which is bar-invariant with 2 on lambda; the same
corrections leave 2 G(lambda), the unique bar-invariant element congruent
to 2u modulo q, and the build halves it.  The corrections are taken in
wedge dominance order (see abacus.dominance), which needs no a-value, and
may need G(nu) of labels below lambda or in other components, so the build
is demand-driven on an explicit stack.  The `canonical` command and
decomposition_matrix use this route; the latter refuses a column whose
build meets a highest-weight label other than the vacuum.

CanonicalBasis builds G(v) for any ordered wedge monomial v, Uglov or not,
by the bar recursion over the whole bar closure of v, independently of the
Fock action; the tests compare FockBasis against it.  For such v let
bar(v) = v + sum of other monomials (CanonicalBasis keeps each image it
reads).  Writing d = bar(v) - v and expanding d over the already-known
canonical elements of the monomials reachable from v gives antisymmetric
coefficients; truncating each to its positive-exponent half yields the
corrections, and

    G(v) = v + sum_alpha  trunc(gamma_alpha) G(alpha)

is the unique bar-invariant element congruent to v modulo q.  The recursion
takes the monomials reachable from v in wedge dominance order, the order
FockBasis corrects in.  Both builders rely on bar being unitriangular in
that order, which WedgeEngine.bar checks on every image it makes: a unit
coefficient on v, and a strictly larger dominance on every other monomial.
So neither compares a-values, which are not even defined across charges.
"""

from functools import cached_property
from itertools import groupby
from operator import itemgetter

from .abacus import WedgeMonomial, bead_index, dominance, from_pair, to_pair
from .avalue import AValueTable
from .crystal import uglov_layer
from .errors import InvariantError
from .fock import ChargedAbacus, apply_f, each_term, freeze
from .laurent import LaurentPoly, _acc
from .partitions import (
    check_multipartition,
    empty_multipartition,
    is_split_semisimple,
    mp_to_text,
    multipartitions,
    rank,
)
from .wedge import WedgeEngine


class CanonicalBasis:
    """Shared straightening engine, plus the bar images and canonical
    elements already worked out, each keyed by monomial: the closure walk
    and element both read a bar, which is straightened once.  Monomials
    carry their total charge, so one instance serves every charge of a
    fixed (e, l)."""

    def __init__(self, e: int, l: int):
        self.e = e
        self.l = l
        self.engine = WedgeEngine(e, l)
        self._bars = {}
        self._g = {}

    def _bar(self, u: WedgeMonomial) -> dict:
        """bar(u), straightened on first use."""
        hit = self._bars.get(u)
        if hit is None:
            hit = self._bars[u] = self.engine.bar(u)
        return hit

    def bar_closure(self, u0: WedgeMonomial) -> list:
        """Monomials reachable from u0 through bar supports, sorted by
        (dominance, prefix): u0 first, each before everything its bar image
        reaches, since WedgeEngine.bar checks that every support rises."""
        dom = {u0: dominance(u0)}
        work = [u0]
        while work:
            for w in self._bar(work.pop()):
                if w not in dom:
                    dom[w] = dominance(w)
                    work.append(w)
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
            residual = dict(self._bar(v))
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
                beta = LaurentPoly({x: c for x, c in gamma.terms.items() if x > 0})
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
    """Canonical elements G(lambda) of the labels of rank at most n at one
    charge, built through the Fock action on bead masks of one
    ChargedAbacus (see fock.py).  A highest-weight label starts from its own
    bar, taken on one WedgeEngine made when the first needs it and capped
    at max_degree factors (see WedgeEngine); `wedge_labels` lists the
    labels whose bar it returned, in that order.

    element() takes a multipartition and returns a Fock-space vector
    {(mp, charge): polynomial}; build() takes a bead mask and returns the
    frozen flat vector (see fock.py), the form every G is stored in."""

    def __init__(self, e: int, l: int, charge, n: int, max_degree: int | None = None):
        self.e = e
        self.l = l
        self.charge = tuple(charge)
        abacus = self.abacus = ChargedAbacus(e, l, self.charge, n)
        self.max_degree = max_degree
        vacuum = self._vacuum = abacus.mask(empty_multipartition(l))
        self._g = {vacuum: (vacuum, 0, 1)}  # frozen vectors
        self.wedge_labels = []
        # the squared wedge index of the bead at each bit j: position
        # x = j // l + lo of component c = l - j % l, placed at p_c, is
        # position x + s_c - p_c + 1 of runner c in the wedge's bijection
        drops = [s - p for s, p in zip(self.charge, abacus.placed)]
        self._squares = [bead_index(j // l + abacus.lo + drops[l - 1 - j % l] + 1, l - j % l,
                                    e, l) ** 2 for j in range(l * abacus.positions)]

    @cached_property
    def engine(self) -> WedgeEngine:
        return WedgeEngine(self.e, self.l, self.max_degree)

    def mask(self, mp) -> int:
        """The bead mask of mp, an l-partition of rank at most the basis's."""
        mp = check_multipartition(mp, self.l)
        if rank(mp) > self.abacus.n:
            raise ValueError("multipartition %s has rank %d, above the basis's rank %d"
                             % (mp_to_text(mp), rank(mp), self.abacus.n))
        return self.abacus.mask(mp)

    def element(self, mp) -> dict:
        """G(mp) as {(mp, charge): polynomial}, building whatever it needs
        first."""
        terms = {}
        for b, x, c in each_term(self.build(self.mask(mp))):
            terms.setdefault(b, {})[x] = c
        label = self.abacus.label
        return {(label(b), self.charge): LaurentPoly(t) for b, t in terms.items()}

    def key(self, b) -> int:
        """Correction order: the rise of the label with bead mask b, the
        dominance of its wedge monomial up to a constant of the charge,
        which strictly grows from a label to every other label in the
        support of its G.  Ties need no break: a correction at nu changes
        only nu and labels of strictly larger rise, so the labels tied with
        nu are untouched whichever goes first.

        Beads that b shares with the vacuum cancel, so the rise sums the
        squared wedge indices (_squares) over the vacuum's beads that b
        lacks, minus those over b's beads that the vacuum lacks: at most two
        bits per row, however widely the charge spreads."""
        squares, vacuum = self._squares, self._vacuum
        rise = 0
        for bits, sign in ((vacuum & ~b, 1), (b & ~vacuum, -1)):
            while bits:
                j = bits.bit_length() - 1
                rise += sign * squares[j]
                bits ^= 1 << j
        return rise

    def _text(self, b) -> str:
        return mp_to_text(self.abacus.label(b))

    def peel(self, b):
        """(i, k, e~_i^k b) for the lowest colour i with a good node of the
        label with bead mask b and the largest such k; None when it has no
        good node, i.e. is a highest-weight vertex of its crystal component.
        e~_i^k removes every normal i-node (see ChargedAbacus.signatures):
        removing the good one turns it into an uncancelled addable node and
        leaves the others normal."""
        normal = self.abacus.signatures(b)[1]
        i = min((i for i, nodes in normal.items() if nodes), default=None)
        if i is None:
            return None
        flip = 0
        for bit in normal[i]:
            flip |= bit | bit >> self.l
        return i, len(normal[i]), b ^ flip

    def _highest(self, lam) -> dict:
        """u + bar(u) for the wedge monomial u of a highest-weight label, as
        a flat vector: bar-invariant, with 2 on lam.  Every other label of
        its support must be at this charge and rank; WedgeEngine.bar has
        checked that it rises in wedge dominance, so in key order, the
        order the corrections are taken in."""
        mp = self.abacus.label(lam)
        u = from_pair(mp, self.charge, self.e, self.l)
        image = self.engine.bar(u)
        self.wedge_labels.append(mp)
        n = rank(mp)
        v = {(lam, 0): 1}
        for w, c in image.items():
            nu, charge = to_pair(w, self.e, self.l)
            if charge != self.charge or rank(nu) != n:
                raise InvariantError(
                    "bar of %s at charge %s and rank %d has support %s at charge %s and rank %d"
                    % (mp_to_text(mp), self.charge, n, mp_to_text(nu), charge, rank(nu))
                )
            b = self.abacus.mask(nu)  # bar(u) is 1 on u, so no term cancels
            for x, cx in c.terms.items():
                v[b, x] = v.get((b, x), 0) + cx
        return v

    def build(self, b) -> tuple:
        """G of the label with bead mask b, as a frozen vector, building
        whatever it needs first.  The open builds are the keys of `stack`,
        in the order opened, so a build that raises leaves none behind."""
        stack = {}
        self._push(b, stack)
        while stack:
            lam = next(reversed(stack))
            frame = stack[lam]
            v, corrected, lead = frame
            if v is None:
                peeled = self.peel(lam)
                if peeled is None:
                    v = frame[0] = self._highest(lam)
                    lead = frame[2] = 2
                else:
                    i, k, low = peeled
                    if self._push(low, stack):
                        continue
                    # bar-invariant and on lam, with lam's coefficient not yet 1
                    v = frame[0] = apply_f(i, each_term(self._g[low]), self.abacus, k)
            nu, terms = self._lowest_uncorrected(lam, v)
            while nu is not None and not self._push(nu, stack):
                if nu in corrected:
                    # each subtraction only moves labels above nu in key order
                    raise InvariantError(
                        "building G(%s) at charge %s needs a second correction on %s"
                        % (self._text(lam), self.charge, self._text(nu))
                    )
                corrected.add(nu)
                self._subtract(v, nu, terms)
                nu, terms = self._lowest_uncorrected(lam, v)
            if nu is not None:
                continue  # resume once G(nu) is built
            own = {x: c for (mu, x), c in v.items() if mu == lam}
            if own != {0: lead}:
                raise InvariantError(
                    "G(%s) at charge %s ends with coefficient %s on its label, not %d"
                    % (self._text(lam), self.charge, LaurentPoly(own) if own else None, lead)
                )
            if lead == 2:  # v is 2 G(lam)
                odd = next((mu for (mu, _x), c in v.items() if c % 2), None)
                if odd is not None:
                    raise InvariantError(
                        "2 G(%s) at charge %s has an odd coefficient %s on %s"
                        % (self._text(lam), self.charge,
                           LaurentPoly({x: c for (mu, x), c in v.items() if mu == odd}),
                           self._text(odd))
                    )
                v = {key: c // 2 for key, c in v.items()}
            self._g[lam] = freeze(v)
            stack.popitem()
        return self._g[b]

    def _push(self, b, stack) -> bool:
        """Open a build of the label with bead mask b unless its G is
        stored; True when opened.  A label already open would make the build
        wait on itself."""
        if b in self._g:
            return False
        if b in stack:
            raise InvariantError(
                "build of G(%s) at charge %s waits on itself" % (self._text(b), self.charge)
            )
        # vector so far, labels corrected, coefficient its label ends with
        stack[b] = [None, set(), 1]
        return True

    def _lowest_uncorrected(self, lam, v):
        """The lowest label off lam, in key order, with a coefficient in v
        not in qZ[q], and its terms at exponents <= 0; (None, None) when
        there is none."""
        bad = {}
        for (mu, x), c in v.items():
            if x <= 0 and mu != lam:
                bad.setdefault(mu, []).append((x, c))
        if not bad:
            return None, None
        nu = min(bad, key=self.key)
        return nu, bad[nu]

    def _subtract(self, v, nu, terms):
        """v -= alpha G(nu), alpha the bar-invariant polynomial with
        v[nu] - alpha in qZ[q]; terms are v[nu]'s terms at exponents <= 0."""
        minus_alpha = {x: -c for x, c in terms}
        minus_alpha.update((-x, -c) for x, c in terms if x)
        get = v.get
        for mu, y, d in each_term(self._g[nu]):
            for x, a in minus_alpha.items():
                s = get((mu, x + y), 0) + a * d
                if s:
                    v[mu, x + y] = s
                else:
                    del v[mu, x + y]


class DecompositionMatrix:
    """Rows: all l-partitions of rank n, sorted by (a_rel, text form).
    Columns: the Uglov l-partitions, sorted the same way.  `columns` maps
    each column to its canonical element as a frozen vector, one tuple of
    (key, exponent, coefficient) runs with no zero coefficient, and
    `row_of` maps each key to its row label (decomposition_matrix keys by
    bead mask and shares the vectors with the build).  That is the one copy
    of the matrix: column() reads a column's entries at q = 1 from its
    runs.  `aval` is the a-value table at height n + 1, and `text` maps
    each row label to its text form, which every renderer reads."""

    def __init__(self, e, l, charge, n, rows, cols, columns, row_of, checks, aval, text):
        self.e = e
        self.l = l
        self.charge = charge
        self.n = n
        self.rows = rows
        self.cols = cols
        self.columns = columns
        self.row_of = row_of
        self.checks = checks
        self.aval = aval
        self.text = text

    def column(self, col) -> dict:
        """Column col at q = 1, {row: entry}, summed from its runs; a row
        whose terms cancel at q = 1 is kept with entry 0."""
        row_of = self.row_of
        out = {}
        for key, _x, c in each_term(self.columns[col]):
            row = row_of[key]
            out[row] = out.get(row, 0) + c
        return out

    def triples(self):
        """The matrix as (row label, column label, entry) triples, zero
        entries omitted, sorted when the first is read: the canonical
        comparison form.  No two share their texts, so no entry is compared."""
        text = self.text
        yield from sorted((text[row], text[col], v) for col in self.cols
                          for row, v in self.column(col).items() if v)

    def q_triples(self):
        """[row label, column label, [[exponent, coefficient], ...]] in the
        order of triples, exponents rising; sorted when the first is read."""
        text, row_of = self.text, self.row_of
        flat = sorted((text[row_of[key]], text[col], x, c)
                      for col, g in self.columns.items() for key, x, c in each_term(g))
        for (row, col), terms in groupby(flat, itemgetter(0, 1)):
            yield [row, col, [[x, c] for _row, _col, x, c in terms]]

    def to_csv(self):
        """The CSV text, line by line."""
        yield "row,column,entry\n"
        for row, col, v in self.triples():
            yield "%s,%s,%d\n" % (row.replace(",", " "), col.replace(",", " "), v)

    def to_latex(self):
        """The LaTeX array, line by line.  Each row starts from "." in every
        column and is filled from that row's nonzero entries, grouped once."""
        nonzero = {}
        for j, col in enumerate(self.cols):
            for row, v in self.column(col).items():
                if v:
                    nonzero.setdefault(row, []).append((j, v))
        yield r"\begin{array}{l|%s}" % ("c" * len(self.cols)) + "\n"
        for row in self.rows:
            cells = ["."] * len(self.cols)
            for j, v in nonzero.get(row, ()):
                cells[j] = str(v)
            yield "%s & %s \\\\\n" % (self.text[row], " & ".join(cells))
        yield r"\end{array}" + "\n"

    def to_json(self, keep_q=False) -> dict:
        """The JSON payload; its lists are iterators, each sorted when it is
        first read, so no two sorted lists are held at once."""
        text = self.text
        body = {
            "e": self.e,
            "l": self.l,
            "charge": list(self.charge),
            "rank": self.n,
            "rows": map(text.__getitem__, self.rows),
            "columns": map(text.__getitem__, self.cols),
            "triples": self.triples(),
            "checks": self.checks,
        }
        if keep_q:
            body["q_triples"] = self.q_triples()
        return body


def decomposition_matrix(e, l, charge, n) -> DecompositionMatrix:
    """Columns are the canonical elements of the rank-n Uglov labels, built
    by FockBasis on bead masks and kept as built; one map takes each mask to
    its row, so every row and column key is a label of `rows`.  Every label
    such a build meets lies in the crystal component of the vacuum, so a
    build that sends one to the wedge engine raises.

    A column with support outside the rows (a label of another rank; every
    label of a build is at its charge) raises at the first such label, so
    checks["foreign_support"] is always empty.
    """
    semisimple = is_split_semisimple(e, charge, n)  # refuses a bad e or rank first
    basis = FockBasis(e, l, charge, n)
    aval = AValueTable(e, l, charge, n + 1)
    text = {mp: mp_to_text(mp) for mp in multipartitions(l, n)}

    rows = sorted(text, key=lambda mp: (aval[mp], text[mp]))
    row_of = {basis.abacus.mask(mp): mp for mp in rows}
    masks = {row_of[b]: b for b in uglov_layer(basis.abacus)}
    cols = [mp for mp in rows if mp in masks]
    columns = {}
    for col in cols:
        g = basis.build(masks[col])
        if basis.wedge_labels:
            raise InvariantError(
                "building the Uglov column %s at charge %s needed the wedge engine for %s"
                % (mp_to_text(col), tuple(charge), mp_to_text(basis.wedge_labels[0]))
            )
        stray = next((b for b in g[::3] if b not in row_of), None)
        if stray is not None:
            raise InvariantError(
                "the Uglov column %s at charge %s has foreign support on %s, not a "
                "label of rank %d" % (mp_to_text(col), tuple(charge), basis._text(stray), n)
            )
        columns[col] = g
    checks = {"semisimple": semisimple, "foreign_support": []}
    return DecompositionMatrix(e, l, charge, n, rows, cols, columns, row_of, checks, aval, text)


def verify_unitriangular(matrix: DecompositionMatrix) -> dict:
    """Checks the source paper's theorem on the matrix's shape: each column
    mu has d_{mu mu} = 1 and a strictly larger a_rel than mu on every other
    row of its support.  So mu is its column's unique a-minimal row: no
    column is empty and no two share their minimal row.  Also checked:
    since the d_{lambda mu}(q) are parabolic Kazhdan-Lusztig polynomials,
    nonnegative q-coefficients (so no entry is negative at q = 1 either);
    and Ariki's criterion, checks["semisimple"], a second route to the
    shape: the algebra is split semisimple iff the matrix is square with no
    nonzero off-diagonal entry."""
    aval = matrix.aval
    violations = []
    off_diagonal = False
    for col in matrix.cols:
        column = matrix.column(col)
        for row, v in column.items():
            if v and row != col:
                off_diagonal = True
                if aval[row] <= aval[col]:
                    violations.append("column %s: row %s has a=%d <= %d"
                                      % (mp_to_text(col), mp_to_text(row), aval[row], aval[col]))
        if column.get(col) != 1:
            violations.append("column %s: diagonal entry is %r, not 1"
                              % (mp_to_text(col), column.get(col)))
        g = matrix.columns[col]
        if min(g[2::3], default=0) < 0:
            terms = {}
            for key, x, c in each_term(g):
                entry = terms.setdefault(matrix.row_of[key], {})
                entry[x] = entry.get(x, 0) + c
            for row, p in terms.items():
                if min(p.values()) < 0:
                    violations.append("entry (%s, %s) = %s has a negative coefficient"
                                      % (mp_to_text(row), mp_to_text(col), LaurentPoly(p)))
    semisimple = matrix.checks["semisimple"]
    identity = len(matrix.rows) == len(matrix.cols) and not off_diagonal
    if identity != semisimple:
        violations.append(
            "Ariki's criterion gives split semisimple = %s, but the matrix %s square "
            "with no nonzero off-diagonal entry" % (semisimple, "is" if identity else "is not")
        )
    return {"ok": not violations, "violations": violations}
