import argparse
import json
import sys
import time
import tracemalloc
from collections.abc import Iterator
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock import canonical, cli
from qfock.canonical import FockBasis, decomposition_matrix, verify_unitriangular
from qfock.cli import main
from qfock.crystal import crystal_graph, crystal_to_dot, crystal_to_json
from qfock.errors import InvariantError
from qfock.partitions import multipartitions
from qfock.wedge import WedgeEngine


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_semisimple_command(capsys):
    code, out, _ = run(capsys, "semisimple", "--e", "4", "--charge", "0,1", "--rank", "4")
    assert code == 0 and out == "false\n"
    code, out, _ = run(capsys, "semisimple", "--e", "5", "--charge", "0", "--rank", "4")
    assert code == 0 and out == "true\n"


def test_semisimple_costs_nothing_in_the_rank(capsys):
    argv = ("semisimple", "--e", "1000000001", "--rank", "100000000")
    for charge, want in (("0,500000000", "true\n"), ("0,99999999", "false\n")):
        start = time.perf_counter()
        assert run(capsys, *argv, "--charge", charge) == (0, want, "")
        assert time.perf_counter() - start < 1.0


def test_semisimple_takes_l_like_the_other_ambient_commands(capsys):
    bare = run(capsys, "semisimple", "--e=4", "--charge=0,1", "--rank=4")
    assert bare == (0, "false\n", "")
    assert run(capsys, "semisimple", "--e=4", "--l=2", "--charge=0,1", "--rank=4") == bare
    code, out, err = run(capsys, "semisimple", "--e=4", "--l=3", "--charge=0,1", "--rank=4")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("invalid input: charge 0,1 has 2 entries")


def test_uglov_set_rank0(capsys):
    code, out, _ = run(capsys, "uglov-set", "--e", "4", "--l", "2", "--charge", "0,5", "--rank", "0")
    assert code == 0 and out == "-|-\n"


def test_uglov_set_json(capsys):
    code, out, _ = run(capsys, "uglov-set", "--e", "4", "--l", "2", "--charge", "0,1",
                       "--rank", "1", "--format", "json")
    assert code == 0 and json.loads(out) == ["-|1", "1|-"]


def test_flotw_check(capsys):
    code, out, _ = run(capsys, "flotw-check", "--e", "4", "--charge", "0,1", "--mp", "4|-")
    assert code == 0 and out == "true\n"
    # values starting with '-' need the --opt=value spelling
    code, out, _ = run(capsys, "flotw-check", "--e", "4", "--charge", "0,1", "--mp=-|3,1")
    assert code == 0 and out == "false\n"
    code, _, err = run(capsys, "flotw-check", "--e", "4", "--charge", "1,0", "--mp=-|-")
    assert code == 2 and "invalid input" in err


def test_mp_labels_must_be_partitions(capsys):
    # a component that is not a partition is bad input, not a bar failure
    # and not a silently different label
    for argv in (["canonical", "--e", "4", "--charge", "0,1", "--mp=1,2|-"],
                 ["canonical", "--e", "4", "--charge", "0,1", "--mp=0|1"],
                 ["flotw-check", "--e", "4", "--charge", "0,1", "--mp=1,2|-"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "is not a partition" in err


def test_crystal_dot(capsys):
    code, out, _ = run(capsys, "crystal", "--e", "4", "--l", "2", "--charge", "0,1",
                       "--rank", "1", "--format", "dot")
    assert code == 0 and out.startswith("digraph crystal {")
    assert 'label="0"' in out and 'label="1"' in out


def test_avalue_regimes(capsys):
    code, out, _ = run(capsys, "avalue", "--e", "4", "--l", "2", "--charge", "0,1", "--rank", "2")
    assert code == 0 and out.splitlines()[0] == "label,a_value"
    code, _, err = run(capsys, "avalue", "--e", "3", "--l", "2", "--charge", "0,1", "--rank", "2")
    assert code == 3 and "unsupported regime" in err


def test_straighten_and_bar(capsys):
    code, out, _ = run(capsys, "straighten", "--e", "2", "--l", "1", "--s", "0",
                       "--indices", "0,3")
    assert code == 0
    assert out == "(q^-2 - 1) * [s=0; k=2,1]\n(-q^-1) * [s=0; k=3,0]\n"
    code, out, _ = run(capsys, "bar", "--e", "2", "--l", "1", "--monomial", "s=0; k=2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"monomial": {"s": 0, "prefix": [1, 0]}, "coefficient": [[-1, -1], [1, 1]]},
        {"monomial": {"s": 0, "prefix": [2]}, "coefficient": [[0, 1]]},
    ]


def test_bar_degree_guard(capsys, monkeypatch):
    code, _, err = run(capsys, "bar", "--e", "2", "--l", "1", "--monomial", "s=0; k=99",
                       "--max-degree", "10")
    assert code == 2 and "has 99 factors" in err and "max_degree 10" in err
    # the reversal length is checked before the word is built or straightened
    monkeypatch.setattr(WedgeEngine, "straighten_indices", _no_straightening)
    code, out, err = run(capsys, "bar", "--e", "4", "--l", "2",
                         "--monomial", "s=0; k=10000000000000")
    assert code == 2 and out == "" and "has 10000000000000 factors" in err


def test_bar_reversal_length_guard(capsys):
    # the image is the same for every reversal length, so bar takes none: it
    # reverses the monomial's own factors, and a long --r on a shallow
    # monomial is refused by argparse before any work
    argv = ["bar", "--e", "4", "--l", "2", "--monomial", "s=0; k=1"]
    for extra in (("--r", "400"), ("--r", "24", "--max-degree", "24")):
        code, out, err = _parsed(cli.build_parser(), argv + list(extra), capsys)
        assert code == 2 and out == "" and "--r" in err, extra
    code, out, _ = run(capsys, *argv, "--max-degree", "24")
    assert code == 0 and "[s=0; k=1]" in out


def test_straighten_word_length_guard(capsys):
    # (1, -3) at s=0 reaches the tail, so the word takes the tail beads down
    # to -4: five factors
    argv = ("straighten", "--e", "2", "--l", "1", "--s", "0", "--indices", "1,-3")
    outs = []
    for cap in ("5", "6"):
        code, out, err = run(capsys, *argv, "--max-degree", cap)
        assert code == 0 and out and err == "", cap
        outs.append(out)
    assert outs[0] == outs[1]
    code, out, err = run(capsys, *argv, "--max-degree", "4")
    assert code == 2 and out == "" and "has 5 factors" in err and "max_degree 4" in err
    # the default cap of 64 refuses (80, -80), an 82-factor word, before any work
    code, out, err = run(capsys, "straighten", "--e", "4", "--l", "2", "--s", "0",
                         "--indices", "80,-80")
    assert code == 2 and out == "" and "has 82 factors" in err and "max_degree 64" in err
    # the length is counted, not built: a huge charge costs nothing to refuse
    code, out, err = run(capsys, "straighten", "--e", "4", "--l", "2", "--s", "10000000000000",
                         "--indices", "0")
    assert code == 2 and out == "" and "has 10000000000002 factors" in err
    # a word that stays above the tail counts its own factors alone
    code, _, err = run(capsys, "straighten", "--e", "2", "--l", "1", "--s", "0",
                       "--indices", "9,7,5,3,1", "--max-degree", "4")
    assert code == 2 and "has 5 factors" in err


def _no_straightening(*args):
    raise AssertionError("a word was straightened")


def test_canonical_refuses_only_a_highest_weight_bar_over_the_cap(capsys, monkeypatch):
    # at (4,2), charge (0,40), -|1 is an Uglov label whose wedge monomial
    # has degree 725, but its build needs no wedge work; 1|- is a
    # highest-weight label whose bar needs a word of 725 factors
    monkeypatch.setattr(WedgeEngine, "straighten_indices", _no_straightening)
    argv = ("canonical", "--e", "4", "--charge", "0,40")
    code, out, err = run(capsys, *argv, "--mp=-|1")
    assert code == 0 and '"multipartition": "-|1"' in out and err == ""
    code, out, err = run(capsys, *argv, "--mp=1|-")
    assert code == 2 and out == ""
    assert err == ("invalid input: the word to straighten has 725 factors (tail beads "
                   "included), exceeding max_degree 64; raise the cap to proceed\n")


@contextmanager
def recursion_headroom(frames):
    """Python's recursion limit lowered to `frames` above the current depth,
    and restored on the way out."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# -|1,1 at charge (0,1) is a highest-weight label: its bar straightens a word
# of e + 2 factors, and the recursion of _insert goes about one frame deeper
# per tail bead, so at e = 150 a headroom of 100 frames is too little
DEEP_ARGV = ("canonical", "--e", "150", "--charge", "0,1", "--mp=-|1,1", "--keep-q",
             "--max-degree", "1000")


def test_a_word_past_the_recursion_limit_exits_4(capsys):
    with recursion_headroom(100):
        code = main(list(DEEP_ARGV))
    out = capsys.readouterr()
    assert (code, out.out) == (4, "")
    assert out.err == ("internal invariant violation: straightening a word of 152 factors "
                       "reached Python's recursion limit\n")
    code, out, err = run(capsys, *DEEP_ARGV)
    assert code == 0 and err == "" and '"multipartition": "-|1,1"' in out


def test_engine_and_basis_outlive_the_recursion_limit():
    mp = ((), (1, 1))
    basis = FockBasis(150, 2, (0, 1), 2)
    with recursion_headroom(100), pytest.raises(InvariantError, match="word of 152 factors"):
        basis.element(mp)
    assert basis.wedge_labels == []
    assert basis.element(mp) == FockBasis(150, 2, (0, 1), 2).element(mp)
    assert basis.wedge_labels == [mp]


def test_malformed_monomials_are_invalid_input(capsys):
    for text in ("s 1; k=9,4", "s=1; k 9,4", "s=1", "s=1; k=9; k=4", "s=1=2; k=9"):
        code, out, err = run(capsys, "bar", "--e", "2", "--l", "1", "--monomial", text)
        assert code == 2 and out == "" and "invalid input" in err


def test_internal_key_error_is_not_invalid_input(capsys, monkeypatch):
    # exit 2 is kept for parse and validation errors; a KeyError raised
    # inside a command is a bug and propagates
    import qfock.cli

    def broken(*args):
        raise KeyError("planted")

    monkeypatch.setattr(qfock.cli, "is_split_semisimple", broken)
    with pytest.raises(KeyError, match="planted"):
        main(["semisimple", "--e", "4", "--charge", "0,1", "--rank", "4"])


def test_canonical_command(capsys):
    code, out, _ = run(capsys, "canonical", "--e", "2", "--l", "1", "--charge", "0",
                       "--mp", "2", "--keep-q")
    assert code == 0
    assert json.loads(out) == [
        {"multipartition": "1,1", "charge": [0], "coefficient": [[1, 1]]},
        {"multipartition": "2", "charge": [0], "coefficient": [[0, 1]]},
    ]


def test_decomp_determinism_and_formats(capsys):
    args = ["decomp", "--e", "4", "--l", "2", "--charge", "0,1", "--rank", "2",
            "--format", "csv"]
    code, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code == code2 == 0 and out1 == out2
    assert out1.splitlines()[0] == "row,column,entry"

    code, out, _ = run(capsys, "decomp", "--e", "4", "--l", "2", "--charge", "0,1",
                       "--rank", "2", "--format", "json", "--keep-q")
    assert code == 0
    payload = json.loads(out)
    assert payload["unitriangular"]["ok"] is True
    assert payload["checks"]["foreign_support"] == []
    assert "q_triples" in payload


def test_decomp_rejects_non_integral_shift_regime(capsys):
    # matrix rows are sorted by a-value, so charges with a fractional shift
    # vector are an unsupported regime for decomp, not a silent fallback
    code, _, err = run(capsys, "decomp", "--e", "3", "--l", "2", "--charge", "0,1",
                       "--rank", "2")
    assert code == 3 and "unsupported regime" in err


def test_decomp_semisimple_warning(capsys):
    code, out, err = run(capsys, "decomp", "--e", "7", "--l", "1", "--charge", "0",
                         "--rank", "2")
    assert code == 0 and "semisimple" in err
    assert out.splitlines()[1:] == ["1 1,1 1,1", "2,2,1"]


def test_decomp_has_no_wedge_degree_guard(capsys):
    # the Fock route builds no wedge monomial, so a charge whose labels sit
    # at wedge degree 172 is no reason to refuse
    code, out, err = run(capsys, "decomp", "--e", "4", "--charge", "0,20", "--rank", "4")
    assert code == 0 and err == ""
    assert out == "".join(decomposition_matrix(4, 2, (0, 20), 4).to_csv())
    with pytest.raises(SystemExit):
        main(["decomp", "--e", "4", "--charge", "0,1", "--rank", "4", "--max-degree", "64"])


def test_decomp_ignores_cache_dir(tmp_path, capsys, monkeypatch):
    # QFOCK_CACHE_DIR once named an on-disk payload cache; a forged file under
    # the old cache name must be neither served nor rewritten
    args = ["decomp", "--e", "2", "--l", "2", "--charge", "0,0", "--rank", "2",
            "--format", "json"]
    code, want, _ = run(capsys, *args)
    assert code == 0
    forged = tmp_path / "decomp-e2-l2-s0_0-n2.json"
    forged.write_text('{"checks": {"foreign_support": []}, "triples": []}')
    monkeypatch.setenv("QFOCK_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, *args)
    assert code == 0 and out == want
    assert list(tmp_path.iterdir()) == [forged]
    assert forged.read_text() == '{"checks": {"foreign_support": []}, "triples": []}'


def _decomp_fails_before_any_output(capsys, needle):
    # both decomp checks run before the first byte, so stdout stays empty
    # even under the --json envelope, whose head would otherwise come first
    for fmt in ("csv", "latex", "json"):
        for envelope in ((), ("--json",)):
            code, out, err = run(capsys, *envelope, "decomp", "--e=4", "--l=2", "--charge=0,1",
                                 "--rank=2", "--format=" + fmt, "--keep-q")
            assert code == 4 and out == "", (fmt, envelope)
            assert err.count("\n") == 1 and "internal invariant violation" in err
            assert needle in err


def test_decomp_failed_unitriangularity_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_unitriangular",
                        lambda mat: {"ok": False, "violations": ["planted violation"]})
    _decomp_fails_before_any_output(capsys, "planted violation")


def test_decomp_foreign_support_exits_4(capsys, monkeypatch):
    # a label of rank 1 planted in every built column
    real = FockBasis.build

    def build(self, b):
        return real(self, b) + (self.mask(((1,), ())), 3, 5)

    monkeypatch.setattr(FockBasis, "build", build)
    _decomp_fails_before_any_output(capsys, "foreign support on 1|-")


def test_decomp_ariki_mismatch_exits_4(capsys, monkeypatch):
    # Ariki's criterion is a second route to the matrix's shape: a
    # criterion that calls these parameters split semisimple beside a
    # matrix with off-diagonal entries is a violation, before any output
    monkeypatch.setattr(canonical, "is_split_semisimple", lambda *args: True)
    for envelope in ((), ("--json",)):
        code, out, err = run(capsys, *envelope, "decomp", "--e=4", "--charge=0,1", "--rank=3")
        assert code == 4 and out == "", envelope
        assert err.count("\n") == 1 and "Ariki's criterion gives split semisimple = True" in err


def test_ariki_criterion_matches_the_matrix_both_ways(monkeypatch):
    # identity matrices exactly where the criterion says semisimple
    for e, charge, n, semisimple in [(5, (0,), 4, True), (8, (0, 3), 3, True),
                                     (4, (0, 1), 3, False), (3, (0,), 3, False)]:
        mat = decomposition_matrix(e, len(charge), charge, n)
        assert mat.checks["semisimple"] is semisimple
        assert verify_unitriangular(mat) == {"ok": True, "violations": []}
        mat.checks["semisimple"] = not semisimple
        assert verify_unitriangular(mat)["violations"] == [
            "Ariki's criterion gives split semisimple = %s, but the matrix %s square with no "
            "nonzero off-diagonal entry" % (not semisimple, "is" if semisimple else "is not")]


def test_decomp_build_and_render_memory_guard():
    # tracemalloc peak of the rank-12 build plus its JSON --keep-q render,
    # caches cold or warm: 2.92 MiB cold on CPython 3.11, with 25% slack;
    # LaurentPoly values on tuple labels peaked at 9.4 MiB
    tracemalloc.start()
    try:
        mat = decomposition_matrix(4, 2, (0, 1), 12)
        cli._jdump(mat.to_json(keep_q=True), lambda text: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2.92 * 2 ** 20, peak / 2 ** 20


def test_wedge_engine_serves_only_highest_weight_labels(capsys, monkeypatch):
    # canonical of an Uglov label, and decomp, build no WedgeEngine in
    # qfock.canonical; -|3,1 at (3,2) peels down to -|1,1, which has no good
    # node and does
    import qfock.canonical

    built = []
    engine = qfock.canonical.WedgeEngine
    monkeypatch.setattr(qfock.canonical, "WedgeEngine",
                        lambda *args: built.append(args) or engine(*args))
    code, _, _ = run(capsys, "canonical", "--e", "4", "--charge", "0,1", "--mp", "3,1|-")
    assert code == 0 and built == []
    code, _, _ = run(capsys, "decomp", "--e", "4", "--charge", "0,1", "--rank", "5")
    assert code == 0 and built == []
    code, out, _ = run(capsys, "canonical", "--e", "3", "--charge", "0,1", "--mp=-|3,1",
                       "--keep-q")
    assert code == 0 and built == [(3, 2, 64)]
    assert '"multipartition": "-|3,1"' in out


def test_json_envelope(capsys):
    code, out, _ = run(capsys, "--json", "semisimple", "--e", "4", "--charge", "0,1",
                       "--rank", "4")
    assert code == 0
    assert json.loads(out) == {"command": "semisimple", "data": "false\n"}


def test_invalid_inputs(capsys):
    code, _, err = run(capsys, "uglov-set", "--e", "4", "--l", "3", "--charge", "0,1",
                       "--rank", "1")
    assert code == 2 and "invalid input" in err
    code, _, err = run(capsys, "semisimple", "--e", "4", "--charge", "zero", "--rank", "1")
    assert code == 2


def test_level_zero_is_refused(capsys):
    # --l 0 is a level, not an absent option: it must not fall back to the
    # charge length
    for argv in (["uglov-set", "--e", "4", "--l", "0", "--charge", "0,1", "--rank", "2"],
                 ["canonical", "--e", "4", "--l", "0", "--charge", "0,1", "--mp=1|2"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err == "invalid input: need e >= 2 and l >= 1\n"


def test_negative_rank_is_refused(capsys):
    # one message for every --rank command, and refused before decomp's
    # semisimplicity warning, which it would fake
    for command in ("avalue", "semisimple", "uglov-set", "crystal", "decomp"):
        code, out, err = run(capsys, command, "--e", "4", "--charge", "0,1", "--rank=-1")
        assert code == 2 and out == "" and err == "invalid input: rank must be >= 0\n"


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _dumped(obj):
    """The text cli._jdump writes for obj."""
    out = []
    cli._jdump(obj, out.append)
    return "".join(out)


def _lazy(obj):
    """obj with every list, at every depth, replaced by an iterator."""
    if isinstance(obj, dict):
        return {k: _lazy(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return iter([_lazy(x) for x in obj])
    return obj


def _materialized(obj):
    """obj with every iterator and tuple, at every depth, read into a list."""
    if isinstance(obj, dict):
        return {k: _materialized(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, Iterator)):
        return [_materialized(x) for x in obj]
    return obj


# strings that look like the JSON around them, or need escaping
_TRICKY = st.text(alphabet='{}[],:" \\\nab\u00e9\u2603\U0001f600', max_size=12) | st.sampled_from(
    ["},", "],", '"', "\n", "},\n    {", "},\n  {", "\u00e9t\u00e9", ""])
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-10**60, max_value=10**60) | st.floats()
            | st.text(max_size=8) | _TRICKY)
_KEYS = st.text(max_size=6) | _TRICKY
_FLAT_DICTS = st.dictionaries(_KEYS, _SCALARS, min_size=1, max_size=4)
_FLAT_LISTS = st.lists(_SCALARS, min_size=1, max_size=4)
_JSON = st.recursive(
    _SCALARS | st.lists(_FLAT_DICTS, max_size=4) | st.lists(_FLAT_LISTS, max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_JSON)
def test_jdump_matches_json_dumps(obj):
    assert _dumped(obj) == _json_dumps(obj)
    assert _dumped(_lazy(obj)) == _json_dumps(obj)


# decomp --keep-q's q-triples [row, col, [[exp, coef], ...]], with empty and
# ragged pair lists, alone and inside a payload
_PAIRS = st.lists(st.lists(_SCALARS, max_size=3), max_size=3)
_Q_TRIPLES = st.lists(st.tuples(_SCALARS, _SCALARS, _PAIRS).map(list), max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_Q_TRIPLES | st.dictionaries(_KEYS, _Q_TRIPLES, max_size=3))
def test_jdump_matches_json_dumps_on_q_triples(obj):
    assert _dumped(obj) == _json_dumps(obj)
    assert _dumped(_lazy(obj)) == _json_dumps(obj)


def test_jdump_matches_json_dumps_on_edge_shapes():
    for obj in ([], {}, [[]], [{}], [{}, {"a": 1}], [{"a": 1}, 3], [{"a": 1}, {"b": [1]}],
                [[1], []], [[1], {"a": 1}], [[1, "],\n    ["], ("x", None)], [[[1]], [2]],
                {"a": {"b": 1}, "c": []}, ([1], (2,)), [{"k": "},\n    {"}, {"k": "],"}],
                {"x": {"y": [1, [2, {}]]}}, -10**40, "\u00e9", None, True, 1.5e300,
                [[[], []]], [[[], 1], [[], 2]], [["a", []], ["b", [[1, 2]]]], [[1, [2]], [3, 4]],
                [{"a": [1], "b": 2}, {"a": [], "b": 3}], [{"a": [1]}, {"b": [1]}],
                [{"a": {}}, {"a": {"b": [1]}}], [[], [1], [[2]]], ["\u0000", ["\u0000"]]):
        assert _dumped(obj) == _json_dumps(obj), obj


def test_jdump_refuses_what_json_dumps_refuses():
    for obj in ([object()], {"a": {1, 2}}, [[1, b"x"]], 1j):
        with pytest.raises(TypeError) as ours:
            _dumped(obj)
        with pytest.raises(TypeError) as theirs:
            _json_dumps(obj)
        assert str(ours.value) == str(theirs.value), obj


# one item of each shape the commands write, numbered
_ITEM_SHAPES = (
    lambda i: i,
    lambda i: "\u00e9\"%d" % i,
    lambda i: {"from": "%d|-" % i, "color": i % 3, "to": "-|%d" % i},
    lambda i: ["%d|-" % i, "-|1", i],
    lambda i: ["%d|-" % i, "-|1", [[0, i], [2, 1]] if i % 2 else []],
)


def test_jdump_streams_at_chunk_boundaries(monkeypatch):
    chunk = 4
    monkeypatch.setattr(cli, "CHUNK", chunk)
    for n in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        for shape in _ITEM_SHAPES:
            items = [shape(i) for i in range(n)]
            writes = []
            cli._jdump(iter(items), writes.append)
            assert "".join(writes) == _json_dumps(items), (n, items)
            # one write per chunk, then the closing bracket
            assert len(writes) == ((n + chunk - 1) // chunk + 1 if n else 1)
            obj = {"k": iter(items), "a": [iter(items), 1], "z": None}
            want = {"k": items, "a": [items, 1], "z": None}
            assert _dumped(obj) == _json_dumps(want), (n, items)


def test_json_envelope_streams_at_chunk_boundaries(capsys, monkeypatch):
    # the envelope around dot, CSV, LaTeX and JSON text cut at every chunk
    # boundary
    chunk = 4
    monkeypatch.setattr(cli, "CHUNK", chunk)
    mat = decomposition_matrix(4, 2, (0, 1), 4)
    texts = (
        ("crystal", list(crystal_to_dot(crystal_graph(4, 2, (0, 1), 3), (0, 1)))),
        ("decomp", list(mat.to_csv())),
        ("decomp", list(mat.to_latex())),
    )
    args = cli.build_parser().parse_args(["--json", "semisimple", "--e=4", "--charge=0,1",
                                          "--rank=1"])
    for n in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        for command, lines in texts:
            assert len(lines) > n
            args.command = command
            cli._emit(args, cli._lines, iter(lines[:n]))
            want = {"command": command, "data": "".join(lines[:n])}
            assert capsys.readouterr().out == _json_dumps(want), (command, n)
        items = [shape(i) for shape in _ITEM_SHAPES for i in range(n)]
        cli._emit(args, cli._jdump, {"values": iter(items)})
        want = {"command": args.command, "data": _json_dumps({"values": items})}
        assert capsys.readouterr().out == _json_dumps(want), n


def test_jdump_matches_json_dumps_on_every_command(capsys, monkeypatch):
    # each payload is read into lists before it is written, and stdout must
    # be json.dumps of what was read; under --json, of the envelope around
    # the plain output
    payloads = []
    real = cli._jdump

    def hooked(obj, write):
        obj = _materialized(obj)
        payloads.append(obj)
        real(obj, write)

    monkeypatch.setattr(cli, "_jdump", hooked)
    for argv in (
        ["uglov-set", "--e=4", "--charge=0,1", "--rank=4", "--format=json"],
        ["uglov-set", "--e=4", "--charge=0,1", "--rank=0", "--format=json"],
        ["crystal", "--e=4", "--charge=0,5", "--rank=5", "--format=json"],
        ["crystal", "--e=3", "--charge=0,1,2", "--rank=0", "--format=json"],
        ["avalue", "--e=4", "--charge=4,1", "--rank=5", "--format=json"],
        ["straighten", "--e=4", "--l=2", "--s=0", "--indices=1,3", "--format=json"],
        ["straighten", "--e=4", "--l=2", "--s=0", "--indices=", "--format=json"],
        ["bar", "--e=4", "--l=2", "--monomial=s=3; k=15,12,8", "--format=json"],
        ["canonical", "--e=4", "--charge=0,1", "--mp=2,1|1"],
        ["canonical", "--e=4", "--charge=0,1", "--mp=2,1|1", "--keep-q"],
        ["decomp", "--e=4", "--charge=0,1", "--rank=4", "--format=json"],
        ["decomp", "--e=3", "--charge=0,1,2", "--rank=3", "--format=json", "--keep-q"],
        ["--json", "crystal", "--e=4", "--charge=0,1", "--rank=2", "--format=dot"],
    ):
        seen = len(payloads)
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        if argv[0] == "--json":
            plain = run(capsys, *argv[1:])[1]
            assert out == _json_dumps({"command": argv[1], "data": plain})
        else:
            assert len(payloads) == seen + 1
            assert out == _json_dumps(payloads[-1]), argv
    assert len(payloads) == 12


def test_crystal_json_render_holds_less_than_its_output():
    # the writer holds one chunk of records and their text at a time,
    # besides the label texts; building the whole payload and then the
    # whole text holds about six times the output's length
    graph = crystal_graph(4, 2, (0, 5), 13)
    written = []
    tracemalloc.start()
    try:
        cli._jdump(crystal_to_json(graph), lambda text: written.append(len(text)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(written) > 10 ** 6
    assert peak < sum(written)


def test_avalue_default_height_is_rank_plus_one(capsys):
    # the tallest rank-n label is (1^n) in one component; the calibrated
    # table is the same at every height that serves, so avalue takes none
    for e, charge in ((4, "0,1"), (3, "0,1,2")):
        l = len(charge.split(","))
        for n in range(7):
            tallest = max((len(comp) for mp in multipartitions(l, n) for comp in mp), default=0)
            assert tallest == n
            argv = ["avalue", "--e=%d" % e, "--charge=" + charge, "--rank=%d" % n]
            code, out, _ = run(capsys, *argv, "--format=json")
            assert code == 0 and json.loads(out)["height"] == n + 1
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out.endswith("at height %d\n" % (n + 1))
            code, out, err = _parsed(cli.build_parser(), argv + ["--height=%d" % (n + 1)], capsys)
            assert code == 2 and out == "" and "--height" in err


def test_peel_and_apply_f_do_not_grow_with_e(capsys):
    # decomp at rank 4 peels and applies f_i on every label; canonical peels
    # its label down to the vacuum
    for argv in (["decomp", "--charge=0,1", "--rank=4"],
                 ["canonical", "--charge=0,1", "--mp=2,1|1"]):
        small = run(capsys, *argv, "--e=1000")
        assert small[0] == 0
        start = time.perf_counter()
        assert run(capsys, *argv, "--e=1000000") == small, argv
        assert time.perf_counter() - start < 0.5, argv


def _parsed(parser, argv, capsys):
    """What parse_args does with argv: the namespace or the exit code, and
    the text written."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


def test_parser_for_the_invoked_command_reads_as_the_full_parser(capsys):
    # build_parser(argv) gives options to the invoked command only; help,
    # usage errors and parsed values stay those of the full parser
    commands = ["semisimple", "uglov-set", "flotw-check", "crystal", "avalue", "straighten",
                "bar", "canonical", "decomp"]
    cases = [[], ["--help"], ["-h"], ["--json"], ["--json", "--help"], ["nope"],
             ["--json", "nope", "--e=4"], ["--bogus", "decomp"],
             ["decomp", "--e=4", "--charge=0,1", "--rank=4", "--format=latex"],
             ["--json", "bar", "--e=4", "--l=2", "--monomial=s=0; k=3"],
             ["canonical", "--e=4", "--charge=0,1", "--mp=1|1", "--keep-q"]]
    for name in commands:
        cases += [[name, "--help"], [name], ["--json", name, "--e=4"], [name, "--bogus"],
                  [name, "--e=x", "--charge=0,1"]]
    for argv in cases:
        got = _parsed(cli.build_parser(argv), argv, capsys)
        assert got == _parsed(cli.build_parser(), argv, capsys), argv
        assert got[1] or got[2] or isinstance(got[0], dict), argv


# Every option of every command, --json (the parser's own) under "".  A new
# setting shows up here, where it must be argued for.
OPTIONS = {
    "": ["--json"],
    "semisimple": ["--e", "--l", "--charge", "--rank"],
    "uglov-set": ["--e", "--l", "--charge", "--rank", "--format"],
    "flotw-check": ["--e", "--l", "--charge", "--mp"],
    "crystal": ["--e", "--l", "--charge", "--rank", "--format"],
    "avalue": ["--e", "--l", "--charge", "--rank", "--format"],
    "straighten": ["--e", "--l", "--s", "--indices", "--max-degree", "--format"],
    "bar": ["--e", "--l", "--monomial", "--max-degree", "--format"],
    "canonical": ["--e", "--l", "--charge", "--mp", "--keep-q", "--max-degree"],
    "decomp": ["--e", "--l", "--charge", "--rank", "--format", "--keep-q"],
}


def _options(parser):
    return [opt for action in parser._actions if not isinstance(action, argparse._HelpAction)
            for opt in action.option_strings]


def test_option_inventory():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {"": _options(parser)}
    found.update((name, _options(p)) for name, p in commands.choices.items())
    assert found == OPTIONS
