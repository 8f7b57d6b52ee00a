import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from io import StringIO

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qfock import canonical, wedge
from qfock.abacus import (
    WedgeMonomial,
    degree,
    dominance,
    from_pair,
    to_pair,
    wedge_monomial,
)
from qfock.avalue import AValueTable, m_vector
from qfock.canonical import (
    CanonicalBasis,
    DecompositionMatrix,
    FockBasis,
    decomposition_matrix,
    verify_unitriangular,
)
from qfock.cli import _jdump, main
from qfock.crystal import kleshchev_charge, uglov_layer, uglov_set
from qfock.errors import InvariantError, UnsupportedRegimeError
from qfock.fock import apply_f, each_term
from qfock.laurent import LaurentPoly
from qfock.partitions import mp_from_text, mp_to_text, multipartitions, partitions, rank
from qfock.wedge import WedgeEngine

from oracles import (
    _relabel,
    bar_vector,
    crystal_image,
    defect,
    divide_exact,
    entries,
    enumerate_degree_component,
    good_node,
    graded_cartan,
    jantzen_sum,
    mullineux,
    qentries,
    quantum_factorial,
    remove_node,
    residue_content,
    sharp,
    unpermute,
)
from paper_data import MATRICES, UGLOV_SETS


def test_bar_closure_trivia():
    basis = CanonicalBasis(2, 2)
    vac = WedgeMonomial((), 0)
    assert basis.bar_closure(vac) == [vac]
    fixed = wedge_monomial((1, 0, -1), 0)  # bar-fixed, found in development
    assert basis.bar_closure(fixed) == [fixed]


def test_bar_closure_bounded_by_degree_component():
    basis = CanonicalBasis(4, 2)
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(0, 9)
        gamma = rng.choice(partitions(n)) if n else ()
        u = wedge_monomial(tuple(1 - i + 1 + g for i, g in enumerate(gamma, start=1)), 1)
        closure = basis.bar_closure(u)
        assert closure[0] == u
        assert len(closure) <= len(partitions(degree(u)))
        assert len(set(closure)) == len(closure)
        # dominance never falls along the closure, and every bar-support
        # edge points forward in the list
        doms = [dominance(v) for v in closure]
        assert doms == sorted(doms)
        pos = {v: i for i, v in enumerate(closure)}
        for v in closure:
            assert all(pos[w] > pos[v] for w in basis.engine.bar(v) if w != v)


def test_level_one_canonical_element():
    # the classical e=2 rank-2 column: G((2)) = |(2)> + q |(1,1)>
    basis = CanonicalBasis(2, 1)
    g = basis.element(wedge_monomial((2,), 0))
    assert g == {
        wedge_monomial((2,), 0): LaurentPoly.one(),
        wedge_monomial((1, 0), 0): LaurentPoly({1: 1}),
    }
    # and the (1,1) column is trivial
    assert basis.element(wedge_monomial((1, 0), 0)) == {
        wedge_monomial((1, 0), 0): LaurentPoly.one()
    }


def test_sink_monomials_are_their_own_element():
    basis = CanonicalBasis(2, 2)
    fixed = wedge_monomial((2, 0), 0)
    assert basis.element(fixed) == {fixed: LaurentPoly.one()}


def test_level_two_equal_parameter_rank1():
    mat = decomposition_matrix(2, 2, (0, 0), 1)
    assert list(mat.triples()) == [("-|1", "1|-", 1), ("1|-", "1|-", 1)]
    assert verify_unitriangular(mat)["ok"]


def test_rank0_matrix():
    mat = decomposition_matrix(4, 2, (0, 1), 0)
    assert list(mat.triples()) == [("-|-", "-|-", 1)]
    assert verify_unitriangular(mat)["ok"]


def test_canonical_element_shape():
    # bar-invariance and the q-congruence, checked through the wedge engine
    basis = CanonicalBasis(4, 2)
    for mp, charge in [
        (((2,), (1,)), (0, 1)),
        (((1, 1), ()), (4, 1)),
        (((), (2, 1)), (0, 5)),
    ]:
        u0 = from_pair(mp, charge, 4, 2)
        g = basis.element(u0)
        assert g[u0] == LaurentPoly.one()
        for u, c in g.items():
            if u != u0:
                assert all(exp >= 1 for exp in c.terms)
        assert bar_vector(basis.engine, g) == g


def test_paper_matrices():
    for charge, want in MATRICES.items():
        mat = decomposition_matrix(4, 2, charge, 4)
        got = {(row, col, v) for (row, col), v in entries(mat).items() if v}
        assert got == want
        assert mat.checks["foreign_support"] == []
        assert verify_unitriangular(mat)["ok"]
        assert set(mat.cols) == UGLOV_SETS[charge]


@st.composite
def ambients(draw):
    """(e, l, charge, n) with e <= 5, l <= 3, charge entries in [-4, 4] and
    n <= 5."""
    e, l = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    charge = tuple(draw(st.lists(st.integers(-4, 4), min_size=l, max_size=l)))
    return e, l, charge, draw(st.integers(0, 5))


def _integral(e, l, charge):
    try:
        m_vector(e, l, charge)
    except UnsupportedRegimeError:
        return False
    return True


@settings(max_examples=300)
@given(ambients())
def test_uglov_labels_are_the_canonical_basic_set(ambient):
    # the source paper's theorem: each column's a-minimal row set is that
    # column alone, so no two columns share one, and the columns are the
    # Uglov labels
    e, l, charge, n = ambient
    assume(_integral(e, l, charge))
    mat = decomposition_matrix(e, l, charge, n)
    assert set(mat.cols) == uglov_set(e, l, charge, n)
    support = {}
    for (row, col), v in entries(mat).items():
        if v:
            support.setdefault(col, []).append(row)
    minimal = {}
    for col in mat.cols:
        amin = min(mat.aval[row] for row in support[col])
        minimal[col] = {row for row in support[col] if mat.aval[row] == amin}
    assert minimal == {col: {col} for col in mat.cols}
    assert verify_unitriangular(mat)["ok"]


@settings(max_examples=80)
@given(ambients())
def test_decomp_refuses_a_non_integral_shift_vector(ambient):
    e, l, charge, n = ambient
    assume(not _integral(e, l, charge))
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["decomp", "--e=%d" % e, "--charge=" + ",".join(map(str, charge)),
                     "--rank=%d" % n])
    assert code == 3 and out.getvalue() == ""
    assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("unsupported regime: ")


def _columns(e, l, charge, n):
    """{column: {row: entry}} of the matrix at q = 1, zero entries left out."""
    columns = {}
    for (row, col), v in entries(decomposition_matrix(e, l, charge, n)).items():
        if v:
            columns.setdefault(col, {})[row] = v
    return columns


@settings(max_examples=200)
@given(ambients(), st.data())
def test_columns_agree_under_the_relabeling_at_a_shifted_charge(ambient, data):
    # the paper's relabeling: moving one charge entry by t e leaves the
    # algebra, so the column labeled mu at s equals, at q = 1, the column
    # labeled Psi(mu) at the shifted charge
    e, l, charge, n = ambient
    assume(_integral(e, l, charge))
    j = data.draw(st.integers(0, l - 1))
    t = data.draw(st.sampled_from((-2, -1, 1, 2)))
    shifted = charge[:j] + (charge[j] + t * e,) + charge[j + 1:]
    here, there = _columns(e, l, charge, n), _columns(e, l, shifted, n)
    assert len(here) == len(there)
    for col, column in here.items():
        assert there.get(_relabel(col, e, charge, shifted)) == column, col


def _vectors(columns):
    """The columns' vectors, as a sorted list, whichever labels they carry."""
    return sorted(sorted(column.items()) for column in columns.values())


@settings(max_examples=200)
@given(ambients(), st.data())
def test_columns_agree_across_the_charge_orbit(ambient, data):
    # the source paper's point: the decomposition numbers belong to the
    # algebra, which permuting the charge by sigma and shifting it by t in
    # e Z^l leave alone (S^lambda at s is S^{sigma lambda} at sigma s + t);
    # only the labeling moves.  So the q = 1 columns at sigma s + t, rows
    # mapped back by sigma^-1, are those at s, and the crystal isomorphism
    # of the two vacuum components takes each column to its match; sigma =
    # id is the relabeling Psi
    e, l, charge, n = ambient
    assume(_integral(e, l, charge))
    perm = tuple(data.draw(st.permutations(range(l))))
    shift = data.draw(st.lists(st.integers(-2, 2), min_size=l, max_size=l))
    target = tuple(charge[p] + t * e for p, t in zip(perm, shift))
    here = _columns(e, l, charge, n)
    there = {col: {unpermute(row, perm): v for row, v in column.items()}
             for col, column in _columns(e, l, target, n).items()}
    assert _vectors(there) == _vectors(here)
    for col, column in here.items():
        image = crystal_image(col, e, charge, target)
        assert there.get(image) == column, (col, image)
        if perm == tuple(range(l)):
            assert image == _relabel(col, e, charge, target), col


@settings(max_examples=200)
@given(ambients())
def test_graded_cartan_entries_are_palindromes_centred_on_the_defect(ambient):
    # the cyclotomic quiver Hecke algebra of a block beta is graded
    # symmetric of degree 2 def(beta) (Brundan-Kleshchev 2009; Shan-
    # Varagnolo-Vasserot), so each graded Cartan entry c_{mu nu}(q) =
    # sum over lambda of d_{lambda mu}(q) d_{lambda nu}(q) reads the same
    # backwards, and its end exponents sum to 2 def(beta) for mu's residue
    # content beta; the diagonal is never zero
    e, l, charge, n = ambient
    assume(_integral(e, l, charge))
    mat = decomposition_matrix(e, l, charge, n)
    cartan = graded_cartan(mat)
    assert all((mu, mu) in cartan for mu in mat.cols)
    for (mu, nu), entry in cartan.items():
        low, high = min(entry), max(entry)
        assert all(entry.get(low + high - x) == c for x, c in entry.items()), (mu, nu, entry)
        assert low + high == 2 * defect(mu, charge, e), (mu, nu, entry)


def _jantzen_mismatches(mat, q) -> list:
    """The (row, column) pairs of a level-1 matrix with q-entries q where
    d'_{lam mu}(1), the derivative at q = 1, is not the Jantzen sum
    J_{lam nu} d_{nu mu}(1) over nu."""
    at_1 = {key: sum(p.terms.values()) for key, p in q.items()}
    out = []
    for row in mat.rows:
        jantzen = jantzen_sum(row[0], mat.e)
        for col in mat.cols:
            p = q.get((row, col), LaurentPoly())
            if sum(x * c for x, c in p.terms.items()) != sum(
                    c * at_1.get(((nu,), col), 0) for nu, c in jantzen.items()):
                out.append((row, col))
    return out


@settings(max_examples=40)
@given(st.integers(2, 5), st.integers(0, 10), st.data())
def test_jantzen_sum_gives_the_q_exponents_at_level_one(e, n, data):
    # the Jantzen filtration of a Specht module grades it (Shan, Represent.
    # Theory 16, 2012), so d'_{lam mu}(1) = sum over nu of J_{lam nu}
    # d_{nu mu}(1): the q-exponents of each entry follow from q = 1 values
    # and the Jantzen coefficients alone, which apply_f does not compute
    mat = decomposition_matrix(e, 1, (0,), n)
    q = qentries(mat)
    assert _jantzen_mismatches(mat, q) == []
    # one term's exponent moved keeps every q = 1 value, and breaks the
    # identity at its entry
    key = data.draw(st.sampled_from(sorted(q)))
    x, c = data.draw(st.sampled_from(sorted(q[key].terms.items())))
    q[key] = q[key] + LaurentPoly({x + 1: c, x: -c})
    assert _jantzen_mismatches(mat, q) == [key]


def _graded_columns(e, charge, n) -> dict:
    """{mu: {lam: d_{lam mu}(q)}} for the Uglov columns mu of rank n at
    charge, built by a FockBasis of their own."""
    basis = FockBasis(e, len(charge), charge, n)
    return {mu: {lam: p for (lam, _at), p in basis.element(mu).items()}
            for mu in sorted(uglov_set(e, len(charge), charge, n))}


def _mullineux_mismatches(e, charge, n, columns, target, flip=sharp) -> list:
    """The (row, column) pairs of the graded rank-n columns at charge where
    d_{flip(lam), M(mu)}(q) at target, built by a FockBasis of its own, is
    not q^def(mu) d_{lam mu}(q^-1); flip is an involution on labels."""
    there = FockBasis(e, len(charge), target, n)
    out = []
    for mu, column in columns.items():
        d = defect(mu, charge, e)
        g = there.element(mullineux(mu, e, charge, target))
        image = {flip(nu): p for (nu, _at), p in g.items()}
        for lam in sorted(column.keys() | image.keys()):
            want = {d - x: c for x, c in column.get(lam, LaurentPoly()).terms.items()}
            if image.get(lam, LaurentPoly()) != LaurentPoly(want):
                out.append((lam, mu))
    return out


@settings(max_examples=200)
@given(st.sampled_from([(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (3, 3)]), st.data())
def test_mullineux_symmetry_relates_the_graded_columns_at_dual_charges(ambient, data):
    # the graded Mullineux symmetry, read as a crystal involution (Jacon-
    # Lecouvey, J. Algebra 321, 2009; graded by Brundan-Kleshchev, Adv.
    # Math. 222, 2009): at s* = (-s_l, ..., -s_1), d_{#lam, M(mu)}(q) =
    # q^def(mu) d_{lam mu}(q^-1) for every row lam, with # conjugating each
    # component and reversing their order, and M(mu) mu's crystal path
    # replayed at s* with every colour negated.  Two builds at two charges
    # agree on whole graded columns, at every level and rank
    e, l = ambient
    charge = tuple(data.draw(st.lists(st.integers(-2, 2 * e), min_size=l, max_size=l)))
    n = data.draw(st.integers(0, 4 if l == 3 else 6))
    dual = tuple(-s for s in reversed(charge))
    columns = _graded_columns(e, charge, n)
    assert _mullineux_mismatches(e, charge, n, columns, dual) == []
    # one term's exponent moved breaks the identity at its entry alone
    mu = data.draw(st.sampled_from(sorted(columns)))
    lam = data.draw(st.sampled_from(sorted(columns[mu])))
    x, c = data.draw(st.sampled_from(sorted(columns[mu][lam].terms.items())))
    columns[mu][lam] = columns[mu][lam] + LaurentPoly({x + 1: c, x: -c})
    assert _mullineux_mismatches(e, charge, n, columns, dual) == [(lam, mu)]


def test_mullineux_symmetry_needs_the_components_reversed():
    # the control: at (-s_1, ..., -s_l), with each component conjugated in
    # place, the identity fails on some entries of the rank-4 columns at
    # (4, 2), charge (0, 1)
    columns = _graded_columns(4, (0, 1), 4)
    assert _mullineux_mismatches(4, (0, 1), 4, columns, (-1, 0)) == []
    kept = _mullineux_mismatches(4, (0, 1), 4, columns, (0, -1),
                                 lambda mp: tuple(sharp((comp,))[0] for comp in mp))
    assert kept


def test_matrix_renderings_are_consistent():
    mat = decomposition_matrix(4, 2, (0, 1), 2)
    csv = "".join(mat.to_csv())
    assert csv.splitlines()[0] == "row,column,entry"
    assert len(csv.splitlines()) == 1 + len(list(mat.triples()))
    latex = "".join(mat.to_latex())
    assert latex.count("\\\\") == len(mat.rows)
    out = []
    _jdump(mat.to_json(keep_q=True), out.append)
    js = json.loads("".join(out))
    assert js["rows"][0] == "2|-" and len(js["columns"]) == len(mat.cols)
    assert js["triples"] == [list(t) for t in mat.triples()]


def test_decomposition_matrix_raises_at_a_stray_label(monkeypatch):
    # a label outside the rows, planted in the first built column, raises
    # there, naming the column, the charge and the label
    real = FockBasis.build
    planted = []

    def build(self, b):
        g = real(self, b)
        if planted:
            return g
        planted.append(self.abacus.label(b))
        return g + (self.mask(mp_from_text("1|1")), 3, 5)  # rank 2

    monkeypatch.setattr(FockBasis, "build", build)
    with pytest.raises(InvariantError) as info:
        decomposition_matrix(4, 2, (0, 1), 3)
    assert str(info.value) == ("the Uglov column %s at charge (0, 1) has foreign support "
                               "on 1|1, not a label of rank 3" % mp_to_text(planted[0]))


def test_verify_unitriangular_negative_control():
    rows = [((2,), ()), ((1, 1), ())]
    cols = [((1, 1), ())]
    columns = {((1, 1), ()): (((2,), ()), 0, 1, ((1, 1), ()), 0, 1)}
    aval = AValueTable(4, 2, (0, 1), 3)
    text = {r: mp_to_text(r) for r in rows}
    same = {r: r for r in rows}
    bad = DecompositionMatrix(4, 2, (0, 1), 2, rows, cols, columns, same,
                              {"semisimple": False}, aval, text)
    # 2|- has the lower a-value, so the column's minimal row is not its own
    # label: reported as the off-row a-value that puts it there
    report = verify_unitriangular(bad)
    assert report == {"ok": False, "violations": [
        "column 1,1|-: row 2|- has a=%d <= %d" % (aval[rows[0]], aval[rows[1]])]}
    assert any("minimal-a rows" in v for v in _verify_by_lookup(bad)["violations"])

    # identity matrix passes
    ident = DecompositionMatrix(
        4, 2, (0, 1), 2, rows, rows,
        {r: (r, 0, 1) for r in rows}, same, {"semisimple": True}, aval, text,
    )
    assert verify_unitriangular(ident)["ok"]


def _verify_by_lookup(matrix):
    """Oracle: the per-(row, col) scan verify_unitriangular replaced, on the
    entries the oracles sum from the columns' runs."""
    aval = matrix.aval
    at_1 = entries(matrix)
    violations = []
    minimal_rows = {}
    for col in matrix.cols:
        support = [row for row in matrix.rows if at_1.get((row, col))]
        if at_1.get((col, col)) != 1:
            violations.append("column %s: diagonal entry is %r, not 1"
                              % (mp_to_text(col), at_1.get((col, col))))
        if not support:
            violations.append("column %s: empty" % mp_to_text(col))
            continue
        amin = min(aval[row] for row in support)
        lowest = [row for row in support if aval[row] == amin]
        if lowest != [col]:
            violations.append("column %s: minimal-a rows are %s"
                              % (mp_to_text(col), [mp_to_text(r) for r in lowest]))
        minimal_rows.setdefault(tuple(lowest), []).append(col)
        for row in support:
            if row != col and aval[row] <= aval[col]:
                violations.append("column %s: row %s has a=%d <= %d"
                                  % (mp_to_text(col), mp_to_text(row), aval[row], aval[col]))
    for lowest, cols in minimal_rows.items():
        if len(cols) > 1:
            violations.append("columns %s share the minimal row set %s"
                              % ([mp_to_text(c) for c in cols], [mp_to_text(r) for r in lowest]))
    for (row, col), v in at_1.items():
        if v < 0:
            violations.append("entry (%s, %s) = %d is negative"
                              % (mp_to_text(row), mp_to_text(col), v))
    for (row, col), p in qentries(matrix).items():
        if min(p.terms.values()) < 0:
            violations.append("entry (%s, %s) = %s has a negative coefficient"
                              % (mp_to_text(row), mp_to_text(col), p))
    return {"ok": not violations, "violations": violations}


def _implied(violation):
    """True for the four kinds of _verify_by_lookup's violations that
    verify_unitriangular's own checks imply.  The unit diagonal and the
    off-row a-values imply three: an empty column, a minimal row set other
    than the column's label, and a minimal row set shared by two columns.
    The q-coefficient check covers the fourth, a negative entry at q = 1:
    the entry sums its q-coefficients, so one of them is negative."""
    return (violation.endswith(": empty") or ": minimal-a rows are " in violation
            or " share the minimal row set " in violation or violation.endswith(" is negative"))


def _ariki(matrix):
    """The violation verify_unitriangular reports when Ariki's criterion
    disagrees with the matrix's shape, read by lookups; [] when it agrees."""
    at_1 = entries(matrix)
    identity = len(matrix.rows) == len(matrix.cols) and not any(
        at_1.get((row, col)) for row in matrix.rows for col in matrix.cols if row != col)
    semisimple = matrix.checks["semisimple"]
    if identity == semisimple:
        return []
    return ["Ariki's criterion gives split semisimple = %s, but the matrix %s square "
            "with no nonzero off-diagonal entry" % (semisimple, "is" if identity else "is not")]


def _assert_matches_lookup(matrix):
    """verify_unitriangular(matrix) has the reference's ok and its
    violations, as a multiset, less the implied kinds; the reference is
    _verify_by_lookup plus the Ariki check.  Returns the report."""
    want = _verify_by_lookup(matrix)["violations"] + _ariki(matrix)
    report = verify_unitriangular(matrix)
    assert report["ok"] == (not want)
    assert Counter(report["violations"]) == Counter(v for v in want if not _implied(v))
    return report


def _put(mat, row, col, *terms):
    """Corrupts entry (row, col) in its column's runs, the matrix's one
    copy: row's runs are dropped, then one run is appended for each
    (exponent, coefficient) term."""
    b = next(key for key, r in mat.row_of.items() if r == row)
    kept = tuple(x for run in each_term(mat.columns[col]) if run[0] != b for x in run)
    mat.columns[col] = kept + tuple(v for x, c in terms for v in (b, x, c))


def test_verify_unitriangular_matches_lookup_scan_on_corrupted_matrices():
    mat = decomposition_matrix(4, 2, (0, 1), 5)
    assert verify_unitriangular(mat) == _verify_by_lookup(mat) == {"ok": True, "violations": []}
    # verify_unitriangular reads every entry's row as one of mat.rows
    assert {row for row, _col in entries(mat)} <= set(mat.rows)
    clean = dict(mat.columns)
    c0, c1, c2, c3 = mat.cols[:4]
    # verify and the renderers read the same runs: a doubled diagonal shows
    # in both
    csv = set("".join(mat.to_csv()).splitlines())
    _put(mat, c0, c0, (0, 2))
    label = mp_to_text(c0).replace(",", " ")
    assert csv ^ set("".join(mat.to_csv()).splitlines()) == {
        "%s,%s,1" % (label, label), "%s,%s,2" % (label, label)}
    assert verify_unitriangular(mat)["violations"] == [
        "column %s: diagonal entry is 2, not 1" % mp_to_text(c0)]
    mat.columns[c1] = ()  # empty column
    _put(mat, c0, c2, (1, 1))  # a row of lower a-value than its column
    _put(mat, mat.rows[-1], c3, (1, -1))  # negative entry, and coefficient
    _put(mat, mat.rows[-2], c3, (1, 1), (1, -1))  # explicit zero: not support
    report = _assert_matches_lookup(mat)
    # the empty column c1 is reported only by its diagonal, c2's minimal
    # row c0 (shared with column c0) only by c0's a-value in c2, and the
    # negative entry only by its negative q-coefficient
    assert len(report["violations"]) == 4
    assert [v for v in _verify_by_lookup(mat)["violations"] if _implied(v)] == [
        "column %s: empty" % mp_to_text(c1),
        "column %s: minimal-a rows are %s" % (mp_to_text(c2), [mp_to_text(c0)]),
        "columns %s share the minimal row set %s"
        % ([mp_to_text(c0), mp_to_text(c2)], [mp_to_text(c0)]),
        "entry (%s, %s) = -1 is negative" % (mp_to_text(mat.rows[-1]), mp_to_text(c3)),
    ]
    # a q-entry with a negative coefficient but a positive value at q = 1
    mat.columns = dict(clean)
    off = next(key for key in qentries(mat) if key[0] != key[1])
    _put(mat, *off, (1, 2), (3, -1))
    report = _assert_matches_lookup(mat)
    assert report["violations"] == ["entry (%s, %s) = %s has a negative coefficient"
                                    % (mp_to_text(off[0]), mp_to_text(off[1]),
                                       LaurentPoly({1: 2, 3: -1}))]
    rng = random.Random(11)
    for _ in range(40):  # random corruptions, shared minimal rows included
        mat.columns = dict(clean)
        for _ in range(rng.randint(1, 12)):
            terms = rng.choice([(), ((1, -1),), ((1, 1), (1, -1)), ((1, 1),), ((0, 2),)])
            _put(mat, rng.choice(mat.rows), rng.choice(mat.cols), *terms)
        _assert_matches_lookup(mat)


# (e, l, charge, n): two matrices of the paper's ambient, one at l = 3, one
# at e = 2 and a split semisimple one; each has labels tied in a-value
CORRUPTED = [(4, 2, (0, 1), 4), (4, 2, (0, 5), 3), (3, 3, (0, 1, 2), 3), (2, 2, (0, 1), 3),
             (4, 2, (0, 2), 1)]


_clean = cache(decomposition_matrix)


@settings(max_examples=300)
@given(st.sampled_from(CORRUPTED), st.data())
def test_verify_unitriangular_matches_lookup_on_drawn_corruptions(ambient, data):
    m = _clean(*ambient)  # never corrupted: each draw corrupts a copy
    mat = DecompositionMatrix(m.e, m.l, m.charge, m.n, m.rows, m.cols, dict(m.columns),
                              m.row_of, dict(m.checks), m.aval, m.text)
    rows, cols, aval = mat.rows, mat.cols, mat.aval
    mask = {row: b for b, row in mat.row_of.items()}
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["tie", "diagonal", "negative", "zero", "empty",
                                          "semisimple", "q", "any"]))
        col = data.draw(st.sampled_from(cols))
        row = data.draw(st.sampled_from(rows))
        if kind == "tie":  # another row at the column's a-value, else below it
            tied = [r for r in rows if r != col and aval[r] == aval[col]]
            low = tied or [r for r in rows if aval[r] < aval[col]]
            if low:
                _put(mat, data.draw(st.sampled_from(low)), col, (1, 1))
        elif kind == "diagonal":  # dropped, cancelled or doubled
            _put(mat, col, col, *data.draw(st.sampled_from([(), ((0, 1), (0, -1)), ((0, 2),)])))
        elif kind == "negative":
            _put(mat, row, col, (1, data.draw(st.integers(-2, -1))))
        elif kind == "zero":  # explicit: not support
            _put(mat, row, col, (1, 1), (1, -1))
        elif kind == "empty":
            mat.columns[col] = ()
        elif kind == "semisimple":
            mat.checks["semisimple"] = not mat.checks["semisimple"]
        elif kind == "q":  # q - q^2 on a row: 0 at q = 1, so the entries stay
            mat.columns[col] += (mask[row], 1, 1, mask[row], 2, -1)
        else:  # appended to whatever the row holds
            mat.columns[col] += (mask[row], data.draw(st.integers(0, 2)),
                                 data.draw(st.sampled_from([-1, 1, 2])))
    _assert_matches_lookup(mat)


def _plant_bars(monkeypatch, engine, images):
    """Make engine.bar(u) straighten to images[u] for each u in images:
    straighten answers the reversed word of u's factors, which sort back to
    u, and the prefactor is 1, so bar's own checks still run."""
    monkeypatch.setattr(wedge, "_shared_pairs", lambda values: 0)
    monkeypatch.setattr(engine, "straighten", lambda indices, s: dict(
        images[wedge_monomial(sorted(indices, reverse=True), s)]))


def test_bar_cycle_detection_guard(monkeypatch):
    # a synthetic bar image with a 2-cycle must abort closure construction:
    # one of its two edges falls in wedge dominance, and bar refuses it
    basis = CanonicalBasis(2, 2)
    a = wedge_monomial((4,), 0)
    b = wedge_monomial((3, 0), 0)
    _plant_bars(monkeypatch, basis.engine, {
        a: {a: LaurentPoly.one(), b: LaurentPoly({1: 1})},
        b: {b: LaurentPoly.one(), a: LaurentPoly({1: 1})},
    })
    with pytest.raises(InvariantError, match="does not rise"):
        basis.bar_closure(a)


def test_element_rejects_a_correction_that_is_not_antisymmetric():
    # bar(a) = a + q b with bar(b) = b leaves the correction q on b, which is
    # not antisymmetric, so the bar involution is broken upstream
    basis = CanonicalBasis(2, 2)
    a = wedge_monomial((4,), 0)
    b = wedge_monomial((3, 0), 0)
    assert dominance(a) < dominance(b)
    basis._bars[a] = {a: LaurentPoly.one(), b: LaurentPoly({1: 1})}
    basis._bars[b] = {b: LaurentPoly.one()}
    with pytest.raises(InvariantError, match="not antisymmetric"):
        basis.element(a)


def test_bar_closure_rejects_a_support_that_does_not_rise(monkeypatch):
    # an acyclic bar support from b down to a, lower in wedge dominance: no
    # cycle, but it breaks the order both canonical-basis builders rely on,
    # and WedgeEngine.bar refuses it as it makes the image
    basis = CanonicalBasis(2, 2)
    a = wedge_monomial((4,), 0)
    b = wedge_monomial((3, 0), 0)
    assert dominance(a) < dominance(b)
    _plant_bars(monkeypatch, basis.engine, {
        b: {b: LaurentPoly.one(), a: LaurentPoly({1: 1})},
        a: {a: LaurentPoly.one()},
    })
    with pytest.raises(InvariantError, match="does not rise"):
        basis.bar_closure(b)


def test_wedge_route_fuel_regression_guard():
    # the bars of one closure share insert-memo entries once the memo ignores
    # the prefix above the new factor and keeps one entry per translate by e
    # (9 104 steps); untranslated it spent 11 799, and keyed on the whole
    # ordered prefix 45 610
    basis = CanonicalBasis(3, 3)
    basis.element(from_pair(mp_from_text("6,1|-|-"), (0, 1, 2), 3, 3))
    assert basis.engine._spent <= 10_000


def test_full_component_sweep_matches_lazy_closures():
    # stress mode: every element of a degree component, compared against a
    # fresh per-monomial computation
    sweep_basis = CanonicalBasis(2, 2)
    full = {u: sweep_basis.element(u) for u in enumerate_degree_component(0, 7)}
    assert len(full) == len(partitions(7))
    fresh = CanonicalBasis(2, 2)
    for u, g in full.items():
        assert fresh.element(u) == g
        assert bar_vector(sweep_basis.engine, g) == g


def test_rank5_labelings_agree_up_to_column_relabeling():
    # the three charge labelings describe one algebra at every rank, so the
    # column-vector sets must keep coinciding past the benchmark rank
    colsets = []
    for charge in [(0, 1), (4, 1), (0, 5)]:
        mat = decomposition_matrix(4, 2, charge, 5)
        assert verify_unitriangular(mat)["ok"]
        assert mat.checks["foreign_support"] == []
        cols = {}
        for (r, c), v in entries(mat).items():
            if v:
                cols.setdefault(c, set()).add((r, v))
        colsets.append({frozenset(s) for s in cols.values()})
        assert len(colsets[-1]) == len(mat.cols) == 22
    assert colsets[0] == colsets[1] == colsets[2]


def test_level_three_pipeline():
    # full pipeline at l = 3 (nine-residue straightening rules)
    for charge, ncols in [((0, 1, 2), 12), ((2, 0, 1), 12), ((0, 0, 0), 5)]:
        mat = decomposition_matrix(3, 3, charge, 3)
        assert len(mat.rows) == 22 and len(mat.cols) == ncols
        assert verify_unitriangular(mat)["ok"]
        assert mat.checks["foreign_support"] == []


@st.composite
def block_ambients(draw):
    """(e, l, charge, n): the integral ambients (2,1), (3,1), (4,1), (2,2),
    (4,2) and (3,3), charge entries in [-2, 2e] and n <= 6."""
    e, l = draw(st.sampled_from([(2, 1), (3, 1), (4, 1), (2, 2), (4, 2), (3, 3)]))
    charge = tuple(draw(st.lists(st.integers(-2, 2 * e), min_size=l, max_size=l)))
    return e, l, charge, draw(st.integers(0, 6))


@settings(max_examples=60)
@given(block_ambients())
@example((4, 2, (0, 1), 5))
@example((4, 2, (4, 1), 5))
@example((4, 2, (0, 5), 5))
def test_residue_blocks_and_their_weight_0_and_1_shapes(ambient):
    # block theory, at every rank up to the drawn one: a nonzero entry joins
    # two labels of one residue content, which nothing in the build
    # enforces.  After Fayers (Adv. Math. 206, 2006) a block of weight
    # def = 0 is simple, and one of weight 1 is a line of 1s and qs: one
    # more row than columns, each column holding exactly 1 and q, and no
    # row more than two nonzero entries.
    e, l, charge, top = ambient
    for n in range(top + 1):
        mat = decomposition_matrix(e, l, charge, n)
        content = {mp: tuple(residue_content(mp, charge, e)) for mp in mat.rows}
        by_col, by_row = {}, {}
        for (row, col), c in qentries(mat).items():
            assert content[row] == content[col], (row, col, charge)
            by_col.setdefault(col, []).append(c)
            by_row[row] = by_row.get(row, 0) + 1
        blocks = {}
        for mp in mat.rows:
            blocks.setdefault(content[mp], []).append(mp)
        for block in blocks.values():
            weight = defect(block[0], charge, e)
            cols = [mp for mp in block if mp in by_col]
            if weight == 0:
                assert len(block) == len(cols) == 1, (block, charge)
            elif weight == 1:
                assert len(block) == len(cols) + 1, (block, charge)
                for col in cols:
                    assert sorted(c.to_pairs() for c in by_col[col]) == [[[0, 1]], [[1, 1]]], (col, charge)
                assert all(by_row.get(row, 0) <= 2 for row in block), (block, charge)


def test_column_support_is_single_charge_and_rank():
    basis = CanonicalBasis(4, 2)
    for charge in [(0, 1), (4, 1), (0, 5)]:
        for mp in UGLOV_SETS[charge]:
            vec = basis.element_for_label(mp, charge)
            for (row, ch), c in vec.items():
                assert ch == charge and rank(row) == 4


def test_fock_columns_match_wedge_columns():
    # differential: the Fock route that decomposition_matrix uses against the
    # wedge bar recursion, one shared wedge cache per (e, l)
    cases = [
        (4, 2, [(0, 1), (4, 1), (0, 5)], range(7)),
        (4, 2, [(0, 1)], [8]),
        (3, 3, [(0, 1, 2)], range(6)),  # rank 6 alone costs the wedge route 1 s
        (2, 2, [(0, 1), (0, 0)], range(7)),
    ]
    wedge = {}
    for e, l, charges, ranks in cases:
        basis = wedge.setdefault((e, l), CanonicalBasis(e, l))
        for charge in charges:
            for n in ranks:
                mat = decomposition_matrix(e, l, charge, n)
                for col in mat.cols:
                    want = basis.element_for_label(col, charge)
                    got = {(mp, charge): c for (mp, c_col), c in qentries(mat).items()
                           if c_col == col}
                    assert got == want, (e, l, charge, n, col)


def test_fock_build_traps():
    # at (4,2), charge (0,1): 1|3,1 peels a single 0-node (the lowest colour
    # with a good node) to 1|3, and f_0 G(1|3) has 1 + q^2 on 1|3,1 ...
    charge = (0, 1)
    lam, low = mp_from_text("1|3,1"), mp_from_text("1|3")
    basis = FockBasis(4, 2, charge, 5)
    assert basis.peel(basis.mask(lam)) == (0, 1, basis.mask(low))
    basis.element(low)
    image = apply_f(0, each_term(basis._g[basis.mask(low)]), basis.abacus)
    assert {x: c for (b, x), c in image.items() if b == basis.mask(lam)} == {0: 1, 2: 1}
    # ... and the correction that restores the 1 needs G(1|4), lower in
    # the correction order and in a-value
    fresh = FockBasis(4, 2, charge, 5)
    g = fresh.element(lam)
    assert g[(lam, charge)] == LaurentPoly.one()
    side = mp_from_text("1|4")
    assert {mp for mp in map(fresh.abacus.label, fresh._g) if rank(mp) == 5} == {lam, side}
    assert fresh.key(fresh.mask(side)) < fresh.key(fresh.mask(lam))
    aval = AValueTable(4, 2, charge, 6)
    assert aval[side] < aval[lam]


def test_fock_basis_of_each_rank_builds_the_same_elements():
    # at (3,3), charge (0,40,-30), the windows leave gaps, so a basis of
    # each rank places the charge anew and its masks are not a shift of the
    # rank-5 basis's; G of every Uglov label of ranks 1-5 is the same on both
    e, charge = 3, (0, 40, -30)
    wide = FockBasis(e, 3, charge, 5)
    placed = {wide.abacus.placed}
    for n in range(1, 6):
        basis = FockBasis(e, 3, charge, n)
        placed.add(basis.abacus.placed)
        for mp in sorted(uglov_set(e, 3, charge, n)):
            assert basis.element(mp) == wide.element(mp), (n, mp_to_text(mp))
            assert basis.element([list(comp) for comp in mp]) == wide.element(mp)  # lists too
        assert not basis.wedge_labels
    assert len(placed) == 5 and not wide.wedge_labels


def test_fock_basis_refuses_a_label_above_its_rank():
    basis = FockBasis(4, 2, (0, 1), 3)
    with pytest.raises(ValueError, match="rank 4, above the basis's rank 3"):
        basis.element(mp_from_text("2|1,1"))


def test_fock_build_cycle_guard(monkeypatch):
    # a peel that leads from 1|3 back to 1|3,1 makes the build of G(1|3,1)
    # wait on itself
    basis = FockBasis(4, 2, (0, 1), 5)
    lam, low = basis.mask(mp_from_text("1|3,1")), basis.mask(mp_from_text("1|3"))
    real = FockBasis.peel
    monkeypatch.setattr(FockBasis, "peel",
                        lambda self, b: (0, 1, lam) if b == low else real(self, b))
    with pytest.raises(InvariantError, match=r"G\(1\|3,1\) at charge \(0, 1\) waits on itself"):
        basis.element(mp_from_text("1|3,1"))


def test_refused_build_leaves_the_basis_usable(monkeypatch):
    # at (4,2), charge (0,40), 1|- is a highest-weight label whose bar needs
    # a word of 725 factors: a capped basis refuses it before straightening,
    # again on a retry, and still builds -|1, which needs no wedge work
    def refuse(*args):
        raise AssertionError("a word was straightened")

    monkeypatch.setattr(WedgeEngine, "straighten_indices", refuse)
    basis = FockBasis(4, 2, (0, 40), 1, max_degree=64)
    for _ in range(2):
        with pytest.raises(ValueError, match="has 725 factors"):
            basis.element(mp_from_text("1|-"))
    assert basis.wedge_labels == []
    lam = mp_from_text("-|1")
    assert basis.element(lam) == FockBasis(4, 2, (0, 40), 1).element(lam)
    assert basis.wedge_labels == []


def test_fock_build_of_non_uglov_labels(monkeypatch):
    # -|3,1 lies outside the vacuum's crystal component; the Fock route
    # builds it down to a highest-weight label that the wedge engine serves
    charge = (0, 1)
    lam = mp_from_text("-|3,1")
    assert lam not in UGLOV_SETS[charge]
    basis = FockBasis(4, 2, charge, 4)
    assert basis.element(lam) == CanonicalBasis(4, 2).element_for_label(lam, charge)
    highest = mp_from_text("-|1,1")
    assert basis.wedge_labels == [highest] and basis.peel(basis.mask(highest)) is None
    # decomposition_matrix refuses a column that would need the wedge engine
    monkeypatch.setattr(canonical, "uglov_layer",
                        lambda abacus: uglov_layer(abacus) | {abacus.mask(lam)})
    with pytest.raises(InvariantError, match="needed the wedge engine"):
        decomposition_matrix(4, 2, charge, 4)


def _plant_bar(monkeypatch, basis, mp, *support):
    """Plant bar(u) = u + sum of c w, for u the wedge monomial of mp, in the
    engine of a FockBasis, which then answers bar for u alone; support holds
    (w, c) pairs."""
    u = from_pair(mp, basis.charge, basis.e, basis.l)
    _plant_bars(monkeypatch, basis.engine, {u: {u: LaurentPoly.one(), **dict(support)}})


# at (4,2), charge (0,1), 1,1,1|1 is a highest-weight label whose bar has
# support on 1,1,1,1|- and -|1,1,1,1, both above it in key order
HIGHEST = mp_from_text("1,1,1|1")


def test_highest_weight_start_rejects_a_support_that_does_not_rise(monkeypatch):
    # the bar that FockBasis starts from is checked where it is made
    basis = FockBasis(4, 2, (0, 1), 4)
    assert basis.peel(basis.mask(HIGHEST)) is None
    low = mp_from_text("2|1,1")
    assert basis.key(basis.mask(low)) <= basis.key(basis.mask(HIGHEST))
    _plant_bar(monkeypatch, basis, HIGHEST, (from_pair(low, (0, 1), 4, 2), LaurentPoly({1: 2})))
    with pytest.raises(InvariantError, match="does not rise"):
        basis.element(HIGHEST)


def test_highest_weight_start_rejects_support_at_another_charge(monkeypatch):
    basis = FockBasis(4, 2, (0, 1), 4)
    w = from_pair(mp_from_text("-|1,1,1,1"), (1, 0), 4, 2)
    assert dominance(w) > basis.key(basis.mask(HIGHEST))
    _plant_bar(monkeypatch, basis, HIGHEST, (w, LaurentPoly({1: 2})))
    with pytest.raises(InvariantError, match=r"at charge \(1, 0\)"):
        basis.element(HIGHEST)


def test_highest_weight_start_rejects_an_odd_coefficient(monkeypatch):
    # u + bar(u) = 2u + q w needs no correction, since G(w) = w and q is in
    # qZ[q], but it is not twice a vector over Z[q, q^-1]
    basis = FockBasis(4, 2, (0, 1), 4)
    w = mp_from_text("1,1,1,1|-")
    assert basis.key(basis.mask(w)) > basis.key(basis.mask(HIGHEST))
    assert basis.element(w) == {(w, (0, 1)): LaurentPoly.one()}
    _plant_bar(monkeypatch, basis, HIGHEST, (from_pair(w, (0, 1), 4, 2), LaurentPoly({1: 1})))
    with pytest.raises(InvariantError, match="odd coefficient"):
        basis.element(HIGHEST)


def test_fock_route_wedge_fuel_regression_guard():
    # every label of ranks <= 8 at (2,2), charge (0,1): straightening each
    # highest-weight label's own bar alone spends 5 517 steps; building the
    # G of each whole bar closure on the wedge spent 6 526
    basis = FockBasis(2, 2, (0, 1), 8)
    for n in range(9):
        for mp in multipartitions(2, n):
            basis.element(mp)
    assert basis.wedge_labels
    assert basis.engine._spent <= 6_000


# Every label of ranks <= n at (e, l, charge, n), Uglov or not: three
# ambients whose shift vector is not integral ((3,2), (5,2), (2,3)) and one
# widely spread charge, (0, 9).
ALL_LABEL_AMBIENTS = [
    (4, 2, (0, 1), 5), (4, 2, (4, 1), 5), (4, 2, (0, 9), 4),
    (3, 2, (0, 1), 5), (3, 2, (0, 0), 5), (3, 2, (2, -3), 4),
    (5, 2, (0, 2), 5), (2, 2, (0, 1), 6), (3, 3, (0, 1, 2), 4), (2, 3, (0, 0, 1), 4),
]


@pytest.fixture(scope="module")
def wedge_oracles():
    """One CanonicalBasis per (e, l), shared by the tests over every label."""
    return {}


def test_peel_matches_repeated_good_node_removal():
    # peel removes all normal nodes of the lowest colour that has one in a
    # single step; removing the good node one at a time must agree
    multi = 0
    for e, l, charges in [(4, 2, [(0, 1), (4, 1), (0, 5)]),
                          (3, 3, [(0, 1, 2), (0, 4, -1)]),
                          (2, 2, [(0, 1), (2, 2)])]:
        for charge in charges:
            basis = FockBasis(e, l, charge, 6)
            for n in range(7):
                for mp in multipartitions(l, n):
                    b = basis.mask(mp)
                    want = None
                    for i in range(e):
                        low, k = mp, 0
                        while (gamma := good_node(low, i, charge, e)) is not None:
                            low, k = remove_node(low, gamma), k + 1
                        if k:
                            want = (i, k, basis.mask(low))
                            break
                    assert basis.peel(b) == want, (e, l, charge, mp_to_text(mp))
                    multi += want is not None and want[1] > 1
    assert multi > 100


def test_fock_route_matches_wedge_route_on_every_label(wedge_oracles):
    for e, l, charge, top in ALL_LABEL_AMBIENTS:
        oracle = wedge_oracles.setdefault((e, l), CanonicalBasis(e, l))
        basis = FockBasis(e, l, charge, top)
        for n in range(top + 1):
            for mp in multipartitions(l, n):
                assert basis.element(mp) == oracle.element_for_label(mp, charge), \
                    (e, l, charge, mp_to_text(mp))


def test_correction_key_grows_along_bar_supports_and_canonical_supports(wedge_oracles):
    # the order FockBasis corrects in: along every bar-support edge u -> w
    # (w != u) the wedge dominance sum falls, so the key's first entry
    # strictly grows; so it does from each label to the rest of its G
    for e, l, charge, top in ALL_LABEL_AMBIENTS:
        oracle = wedge_oracles.setdefault((e, l), CanonicalBasis(e, l))
        basis = FockBasis(e, l, charge, min(top, 5))
        for n in range(min(top, 5) + 1):
            for mp in multipartitions(l, n):
                low = basis.key(basis.mask(mp))
                u = from_pair(mp, charge, e, l)
                for w in oracle.engine.bar(u):
                    if w != u:
                        nu, ch = to_pair(w, e, l)
                        assert ch == charge and basis.key(basis.mask(nu)) > low, \
                            (e, l, charge, mp, nu)
                for nu, ch in basis.element(mp):
                    assert nu == mp or basis.key(basis.mask(nu)) > low, (e, l, charge, mp, nu)


def test_correction_key_is_wedge_dominance_up_to_a_constant_of_the_charge():
    # key reads the label's bead mask, not its wedge monomial, so it orders
    # the labels of one charge as wedge dominance does; the constant is 0
    # at (4, 2), charge (0, 1).  The Kleshchev charge (72, 37, 2) leaves
    # gaps that the abacus closes, so its masks place the components lower
    spread = kleshchev_charge((0, 1, 2), 3, 3, 6)
    assert FockBasis(3, 3, spread, 6).abacus.placed != spread
    for e, l, charge, want in [(4, 2, (0, 1), 0), (4, 2, (0, 5), 56), (4, 2, (1, 0), 24),
                               (4, 2, (0, 100), 964800), (3, 3, (0, 1, 2), 7),
                               (2, 1, (0,), 0), (5, 3, (-3, 7, 2), 1164),
                               (3, 3, spread, 866815), (3, 2, (-4, -1), -20)]:
        basis = FockBasis(e, l, charge, 6)
        shifts = {basis.key(basis.mask(mp)) - dominance(from_pair(mp, charge, e, l))
                  for n in range(7) for mp in multipartitions(l, n)}
        assert shifts == {want}, (e, l, charge, shifts)


def test_spread_charge_decomp_builds_no_wedge_monomial(monkeypatch):
    # from_pair walks the whole spread of the charge; the decomp route must
    # not call it
    def refuse(*args):
        raise AssertionError("from_pair called on %r" % (args,))

    monkeypatch.setattr(canonical, "from_pair", refuse)
    mat = decomposition_matrix(4, 2, (0, 100000), 8)
    assert len(mat.rows) == 185
    assert verify_unitriangular(mat)["ok"]


def test_divide_exact():
    # the division the divided-power oracle of tests/oracles.py relies on
    fact = quantum_factorial(3)
    assert fact == LaurentPoly({-3: 1, -1: 2, 1: 2, 3: 1})  # [2][3]
    p = LaurentPoly({5: 3, -1: -2}) * fact
    assert divide_exact(p, fact) == LaurentPoly({5: 3, -1: -2})
    assert divide_exact(p + LaurentPoly.one(), fact) is None
    assert divide_exact(LaurentPoly(), fact) == LaurentPoly()
