"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; everything is exact, no tolerances anywhere.
"""

import cmath
import json
import random
import time
from itertools import product

import pytest

from qfock.abacus import from_pair, to_pair, wedge_monomial
from qfock.avalue import AValueTable, m_vector
from qfock.canonical import CanonicalBasis, decomposition_matrix, verify_unitriangular
from qfock.cli import main as cli_main
from qfock.crystal import flotw_predicate, uglov_set
from qfock.laurent import LaurentPoly
from qfock.partitions import (
    is_split_semisimple,
    mp_from_text,
    mp_to_text,
    multipartitions,
    rank,
)
from qfock.wedge import WedgeEngine

from oracles import (
    _relabel,
    add_nodes_to_part,
    apply_e,
    bar_reversing,
    bar_vector,
    entries,
    enumerate_degree_component,
    fock_apply_f,
    height,
    n_count,
    precedes,
    qentries,
    straighten_naive,
    translated_symbol,
    uglov_layers,
)
from paper_data import A_VALUES, MATRICES, UGLOV_SETS, WORKED_LABEL, WORKED_MONOMIAL

CHARGES = [(0, 1), (4, 1), (0, 5)]


@pytest.fixture(scope="module")
def basis():
    return CanonicalBasis(4, 2)


@pytest.fixture(scope="module")
def matrices():
    return {charge: decomposition_matrix(4, 2, charge, 4) for charge in CHARGES}


def test_criterion_1_decomposition_matrices(matrices, capsys):
    t0 = time.time()
    for charge, mat in matrices.items():
        got = {(mp_to_text(r), mp_to_text(c), v) for (r, c), v in entries(mat).items() if v}
        want = {(mp_to_text(r), mp_to_text(c), v) for (r, c, v) in MATRICES[charge]}
        assert got == want, charge
        assert len(mat.rows) == 20 and len(mat.cols) == 13
    # the CLI reproduces the same triples
    for charge in CHARGES:
        code = cli_main(["decomp", "--e", "4", "--l", "2",
                         "--charge", "%d,%d" % charge, "--rank", "4", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert {tuple(t) for t in payload["triples"]} == \
            {(mp_to_text(r), mp_to_text(c), v) for (r, c, v) in MATRICES[charge]}
    print("\nACCEPTANCE 1 (decomposition matrices, 3 charges, exact): PASS"
          "  [%.1fs]" % (time.time() - t0))


def test_criterion_2_a_values():
    mps = multipartitions(2, 4)
    for charge, table in A_VALUES.items():
        minimal = min(table, key=table.get)
        aval = AValueTable(4, 2, charge, 5)  # the rank-4 labels' height plus one
        got = {mp: aval[mp] - aval[minimal] for mp in mps}
        assert got == table, charge
        assert min(got.values()) == 0 and got[minimal] == 0
        # alpha-sensitivity, measured: lifting the charge by t*e gives the
        # shift vector with alpha = t, and the calibrated table does not move
        for t in (1, 2):
            aval = AValueTable(4, 2, tuple(c + 4 * t for c in charge), 5)
            assert {mp: aval[mp] - aval[minimal] for mp in mps} == table
    print("ACCEPTANCE 2 (60 printed a-values, exact; alpha-insensitive): PASS")


def test_criterion_3_crystal_labelings(matrices):
    for charge in CHARGES:
        assert uglov_set(4, 2, charge, 4) == UGLOV_SETS[charge], charge
    colvec = {}
    for charge, mat in matrices.items():
        cols = {}
        for (r, c), v in entries(mat).items():
            if v:
                cols.setdefault(c, set()).add((r, v))
        colvec[charge] = {frozenset(s) for s in cols.values()}
        assert len(colvec[charge]) == 13
    assert colvec[(0, 1)] == colvec[(4, 1)] == colvec[(0, 5)]
    print("ACCEPTANCE 3 (Uglov sets + column-relabeling agreement): PASS")


def test_criterion_3_labelings_agree_by_crystal_isomorphism():
    # the column labeled mu at s equals, at q = 1, the column labeled Psi(mu)
    # at a congruent charge s'; the q-polynomials need not agree
    t0 = time.time()
    compared = 0
    for e, l, charges, top in [(4, 2, CHARGES, 6), (3, 3, [(0, 1, 2), (3, 1, 2), (0, 4, -1)], 5)]:
        for n in range(top + 1):
            columns = {}
            for charge in charges:
                mat = decomposition_matrix(e, l, charge, n)
                columns[charge] = {col: {} for col in mat.cols}
                for (row, col), v in entries(mat).items():
                    if v:
                        columns[charge][col][row] = v
            for s, s2 in product(charges, repeat=2):
                for col, column in columns[s].items():
                    image = _relabel(col, e, s, s2)
                    assert image in columns[s2], (e, l, s, s2, col)
                    assert columns[s2][image] == column, (e, l, s, s2, col, image)
                    compared += 1
    # the q-polynomials differ: 2|- at (0,1) is 2|- + q 1|1, its image 1|1 at
    # (0,5) is q 2|- + 1|1
    two, one_one = mp_from_text("2|-"), mp_from_text("1|1")
    assert _relabel(two, 4, (0, 1), (0, 5)) == one_one
    here, there = decomposition_matrix(4, 2, (0, 1), 2), decomposition_matrix(4, 2, (0, 5), 2)
    here, there = qentries(here), qentries(there)
    assert here[two, two] == there[one_one, one_one] == LaurentPoly.one()
    assert here[one_one, two] == there[two, one_one] == LaurentPoly({1: 1})
    print("ACCEPTANCE 3a (columns agree under the crystal relabeling Psi, %d pairs): PASS"
          "  [%.1fs]" % (compared, time.time() - t0))


def test_criterion_4_flotw_equivalence():
    t0 = time.time()
    for (e, l) in [(4, 2), (3, 2), (4, 3)]:
        for charge in product(range(e), repeat=l):
            if any(charge[j] > charge[j + 1] for j in range(l - 1)):
                continue
            layers = uglov_layers(e, l, charge, 5)
            for n in range(6):
                flotw = {mp for mp in multipartitions(l, n) if flotw_predicate(mp, e, charge)}
                assert flotw == layers[n], (e, l, charge, n)
    print("ACCEPTANCE 4 (FLOTW = crystal component, ranks <= 5): PASS  [%.1fs]"
          % (time.time() - t0))


def test_criterion_5_worked_example():
    prefix, s = WORKED_MONOMIAL
    mp, charge = WORKED_LABEL
    u = wedge_monomial(prefix, s)
    assert to_pair(u, 4, 3) == (mp, charge)
    assert from_pair(mp, charge, 4, 3) == u
    print("ACCEPTANCE 5 (worked abacus example round-trip): PASS")


def test_criterion_6a_bar_involution_and_r_independence():
    t0 = time.time()
    for (e, l, s) in [(2, 1, 0), (2, 2, 0), (4, 2, 0), (4, 2, 1)]:
        eng = WedgeEngine(e, l)
        for n in range(9):
            for u in enumerate_degree_component(s, n):
                image = eng.bar(u)
                assert image[u] == LaurentPoly.one()
                assert bar_vector(eng, image) == {u: LaurentPoly.one()}
                if n:
                    for r in (n + 1, n + 2):
                        assert bar_reversing(eng, u, r) == image
    print("ACCEPTANCE 6a (bar involutivity + r-independence, degree <= 8): PASS"
          "  [%.1fs]" % (time.time() - t0))


def test_criterion_6b_bar_supports_climb_in_a_value(basis, matrices):
    t0 = time.time()
    edges = same = cross_charge = cross_rank = 0
    explored = set()
    for charge in CHARGES:
        for col in UGLOV_SETS[charge]:
            explored.update(basis.bar_closure(from_pair(col, charge, 4, 2)))
    eng22 = WedgeEngine(2, 2)
    extra = [(eng22, u) for n in range(9) for u in enumerate_degree_component(0, n)]
    work = [(basis.engine, u) for u in sorted(explored)] + extra
    for eng, u in work:
        mp_u, ch_u = to_pair(u, eng.e, eng.l)
        image = eng.bar(u)
        for v in image:
            if v == u:
                continue
            edges += 1
            mp_v, ch_v = to_pair(v, eng.e, eng.l)
            if ch_v != ch_u:
                cross_charge += 1
                continue
            if rank(mp_v) != rank(mp_u):
                cross_rank += 1
                continue
            same += 1
            h = max(height(mp_u), height(mp_v)) + 1
            aval = AValueTable(eng.e, eng.l, ch_u, h)
            assert aval[mp_v] > aval[mp_u], (u, v)
    assert edges > 0 and same > 0
    print("ACCEPTANCE 6b (bar DAG acyclic; same-charge supports climb in a): PASS"
          "  [%d edges: %d same-charge asserted, %d cross-charge, %d cross-rank"
          " recorded; %.1fs]" % (edges, same, cross_charge, cross_rank, time.time() - t0))


def test_criterion_6c_sl2_commutator():
    rng = random.Random(607)
    done = 0
    while done < 200:
        l = rng.randint(1, 3)
        e = rng.randint(2, 5)
        mp = rng.choice(multipartitions(l, rng.randint(0, 5)))
        charge = tuple(rng.randint(-4, 6) for _ in range(l))
        i = rng.randint(0, e - 1)
        v = {(mp, charge): LaurentPoly.one()}
        lhs = {}
        for key, c in apply_e(i, fock_apply_f(i, v, e), e).items():
            lhs[key] = lhs.get(key, LaurentPoly()) + c
        for key, c in fock_apply_f(i, apply_e(i, v, e), e).items():
            s = lhs.get(key, LaurentPoly()) - c
            if s:
                lhs[key] = s
            else:
                lhs.pop(key, None)
        lhs = {k: c for k, c in lhs.items() if c}
        n_i = n_count(mp, i, charge, e)
        want = {}
        if n_i > 0:
            want[(mp, charge)] = LaurentPoly({n_i - 1 - 2 * j: 1 for j in range(n_i)})
        elif n_i < 0:
            want[(mp, charge)] = LaurentPoly({-(-n_i - 1 - 2 * j): -1 for j in range(-n_i)})
        assert lhs == want
        done += 1
    print("ACCEPTANCE 6c (sl2 commutator on 200 random vectors): PASS")


def test_criterion_6d_two_strategy_straightening():
    rng = random.Random(608)
    engines = {pair: WedgeEngine(*pair) for pair in [(2, 1), (2, 2), (4, 2), (4, 3)]}
    for trial in range(200):
        eng = engines[rng.choice(list(engines))]
        word = tuple(rng.randint(-9, 11) for _ in range(rng.randint(2, 6)))
        assert eng.straighten_indices(word) == straighten_naive(eng, word), word
    print("ACCEPTANCE 6d (insertion = naive rewriting, 200 random wedges): PASS")


def test_criterion_6e_preorder_property():
    rng = random.Random(609)
    done = 0
    while done < 200:
        e, l = rng.choice([(4, 2), (2, 2), (3, 3), (5, 1), (6, 2)])
        charge = tuple(rng.randint(0, 2 * e) for _ in range(l))
        lam = tuple(tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
                    for _ in range(l))
        h = height(lam) + rng.randint(1, 2)
        symbol = translated_symbol(lam, m_vector(e, l, charge)[0], h)
        spots = [(i, j) for i in range(1, l + 1) for j in range(1, h + 1)]
        if len(spots) < 2:
            continue
        (i1, j1), (i2, j2) = rng.sample(spots, 2)
        b1, b2 = symbol[i1 - 1][j1 - 1], symbol[i2 - 1][j2 - 1]
        if b1 == b2:
            continue
        if b1 > b2:
            (i1, j1), (i2, j2) = (i2, j2), (i1, j1)
        r = rng.randint(1, 4)
        mu = add_nodes_to_part(lam, i1, j1, r, max_row=h)
        nu = add_nodes_to_part(lam, i2, j2, r, max_row=h)
        assert precedes(nu, mu, e, l, charge)
        done += 1
    print("ACCEPTANCE 6e (node-addition preorder property, 200 instances): PASS")


def test_criterion_6f_column_shape(basis, matrices):
    h = 5
    for charge in CHARGES:
        aval = AValueTable(4, 2, charge, h)
        q = qentries(matrices[charge])
        for col in sorted(UGLOV_SETS[charge]):
            vec = basis.element_for_label(col, charge)
            # the wedge route reproduces the Fock-built column exactly
            assert vec == {(mp, charge): c for (mp, c_col), c in q.items() if c_col == col}
            assert vec[(col, charge)] == LaurentPoly.one()
            for (mp, ch), c in vec.items():
                assert ch == charge, "cross-charge support on %s" % (col,)
                assert rank(mp) == 4
                if mp != col:
                    assert all(exp >= 1 for exp in c.terms)
                    assert all(isinstance(v, int) for v in c.terms.values())
                    assert aval[mp] > aval[col]
            g = basis.element(from_pair(col, charge, 4, 2))
            assert bar_vector(basis.engine, g) == g
        report = verify_unitriangular(matrices[charge])
        assert report["ok"], report["violations"]
        assert all(v >= 0 for v in entries(matrices[charge]).values())
    print("ACCEPTANCE 6f (wedge columns = Fock columns; diagonal 1, qZ[q], "
          "a-increase, single charge, bar-invariant): PASS")


def test_criterion_7_semisimplicity_gate():
    # the modular benchmark cases are all non-semisimple
    for charge in CHARGES:
        assert not is_split_semisimple(4, charge, 4)
    # independent oracle over a grid: numeric root-of-unity evaluation
    rng = random.Random(611)
    agree = 0
    for _ in range(400):
        e = rng.randint(2, 7)
        l = rng.randint(1, 3)
        charge = tuple(rng.randint(-5, 9) for _ in range(l))
        n = rng.randint(0, 5)
        eta = cmath.exp(2j * cmath.pi / e)
        ok = True
        for i in range(l):
            for j in range(l):
                if i == j:
                    continue
                for d in range(-(n - 1), n):
                    if abs(eta ** d * eta ** charge[i] - eta ** charge[j]) < 1e-9:
                        ok = False
        for i in range(1, n + 1):
            if abs(sum(eta ** k for k in range(i))) < 1e-9:
                ok = False
        assert is_split_semisimple(e, charge, n) == ok, (e, charge, n)
        agree += 1
    # generic split-semisimple spot checks
    assert is_split_semisimple(5, (0,), 4)
    assert is_split_semisimple(7, (0, 3), 2)
    print("ACCEPTANCE 7 (semisimplicity criterion vs numeric oracle, %d cases): PASS"
          % agree)
