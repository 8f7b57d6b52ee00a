"""Command-line front end.

Exit codes: 0 success, 2 invalid input (a ValueError from parsing or
validation only), 3 unsupported regime (non-integral shift vector), 4
internal invariant violation (a bar support that does not rise in wedge
dominance or sits at another charge vector, a bar image without
coefficient 1 on its own monomial, fuel exhaustion, a word to straighten
too long for Python's recursion limit, a canonical element with the wrong
coefficient on its label or an odd one to halve, a decomposition matrix
with foreign support or failed unitriangularity),
141 stdout closed by its reader before all output was written (a broken
pipe; nothing is written to stderr).  Any other exception is a bug and
propagates.  Identical invocations produce byte-identical output.
`decomp` and `canonical` build canonical elements through the Fock action
(canonical.FockBasis); for the highest-weight labels of crystal components
other than the vacuum's, `canonical` straightens each label's own bar on
the wedge engine, and `bar` and `straighten` run on it alone.  Their
--max-degree is the engine's cap on the length of a word to straighten
(see WedgeEngine), checked before the word is built.

main() is the in-process entry and returns the exit code.  A process
(`qfock`, `python -m qfock.cli`) runs it through run(): once main()
returns, stdout and stderr are flushed and the process ends by os._exit,
with no interpreter teardown and no atexit hooks.
"""

from __future__ import annotations

import argparse
import os
import sys
from _json import encode_basestring_ascii, make_encoder
from collections.abc import Iterator
from functools import lru_cache
from itertools import chain, islice
from operator import add
from typing import NoReturn

from .abacus import monomial_from_text
from .avalue import AValueTable
from .canonical import FockBasis, decomposition_matrix, verify_unitriangular
from .crystal import crystal_graph, crystal_to_dot, crystal_to_json, flotw_predicate, uglov_set
from .errors import InvariantError, UnsupportedRegimeError
from .fock import fock_to_json
from .partitions import (
    charge_from_text,
    is_split_semisimple,
    mp_from_text,
    mp_to_text,
    multipartitions,
    rank,
)
from .wedge import WedgeEngine, vector_to_json


# Exit code of a run whose stdout was closed before all of it was written,
# as a shell reports a process that SIGPIPE ended (128 + 13).
BROKEN_PIPE = 141

# Items of a list or iterator encoded and written per step of _jdump, and
# lines joined per write by _lines: the text held at once stays bounded, and
# writes stay few (each one is a system call when stdout is unbuffered).
CHUNK = 256

_SEQUENCES = (list, tuple, Iterator)
_CONTAINERS = (dict,) + _SEQUENCES


def _default(o):
    """What json.JSONEncoder().default does: refuse o."""
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


@lru_cache(maxsize=None)
def _encoder(sep: str):
    """The C encoder that joins a container's items with `sep`, sorts keys
    and escapes to ASCII, as json.dumps does.  It is taken from _json itself,
    as json.encoder takes it, so that no command imports the json package."""
    return make_encoder(None, _default, encode_basestring_ascii, None, ": ", sep, True, False, True)


def _scalars(types) -> bool:
    return not any(issubclass(t, _CONTAINERS) for t in types)


def _jdump(obj, write) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2) + "\n", byte for byte,
    through write; dict keys must be strings, and an iterator stands for the
    list of its items.

    CPython serves indent= with its pure-Python encoder, so the C encoder
    does the work here, a whole batch of values per call where the shape
    allows (see _batch and _texts): a list of q-triples
    [row, col, [[exp, coef], ...]] takes three calls, not one per scalar.
    A list or iterator goes CHUNK items at a time, and the text so far is
    written after each chunk, so neither the whole payload nor the whole
    text is held at once.  An iterator among those items is taken the same
    way (the crystal's layers); lists among them are encoded with their
    chunk."""
    out = []
    _write(obj, "\n", out, write)
    out.append("\n")
    _flush(out, write)


def _write(obj, nl: str, out: list, write=None):
    """Append the indent=2 text of obj to out; nl is a newline plus the
    indentation of the line obj starts on.  With write given, out is written
    and emptied after each chunk of a list or iterator."""
    inner = nl + "  "
    if isinstance(obj, _SEQUENCES):
        items = iter(obj)
        chunk = list(islice(items, CHUNK))
        if not chunk:
            out.append("[]")
            return
        sep = "," + inner
        out += ("[", inner)
        while chunk:
            if any(issubclass(t, Iterator) for t in set(map(type, chunk))):
                # an item that is an iterator streams too: items one by one
                for x in chunk[:-1]:
                    _write(x, inner, out, write)
                    out.append(sep)
                _write(chunk[-1], inner, out, write)
            else:
                text = _batch(chunk, inner, sep)
                out.append(sep.join(_texts(chunk, inner)) if text is None else text)
            chunk = list(islice(items, CHUNK))
            if chunk:
                out.append(sep)
            if write is not None:
                _flush(out, write)
        out += (nl, "]")
    elif not obj and isinstance(obj, dict):
        out.append("{}")
    else:
        text = _batch([obj], nl, "")
        if text is not None:
            out.append(text)
            return
        sep = "{" + inner
        for k, v in sorted(obj.items()):
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _write(v, inner, out, write)
            sep = "," + inner
        out.append(nl + "}")


def _batch(objs, nl: str, mark: str):
    """The indent=2 texts of objs joined by mark, from one call of the C
    encoder, or None when their shape needs more than one.  Each text is
    laid out as if it started on a line whose break and indentation are nl.

    One call serves scalars, joined by mark itself, and nonempty lists, or
    nonempty dicts, of scalars: joined by a separator that carries the inner
    newline and indentation, with the breaks between them written in by one
    str.replace (no scalar ends in a bracket, so "}," + sep + "{" and
    "]," + sep + "[" occur only there)."""
    types = set(map(type, objs))
    if _scalars(types):
        return "".join(_encoder(mark)(objs, 0))[1:-1]
    lists = all(issubclass(t, (list, tuple)) for t in types)
    if not (lists or all(issubclass(t, dict) for t in types)) or not all(objs):
        return None
    items = iter if lists else dict.values
    if not _scalars(set(map(type, items(objs[0])))) or len(objs) > 1 and not _scalars(
        {type(x) for o in objs for x in items(o)}
    ):
        return None
    inner = nl + "  "
    sep = "," + inner
    text = "".join(_encoder(sep)(objs, 0))[1:-1]
    start, end = text[0], text[-1]
    text = text[1:-1].replace(end + sep + start, nl + end + mark + start + inner)
    return start + inner + text + nl + end


def _texts(objs, nl: str) -> list:
    """The indent=2 texts of objs, laid out as in _batch.  A batch that
    _batch takes is split apart at a NUL, which no encoded text holds.
    Other lists go a column at a time when they have one length, and as
    the run of all their items otherwise; dicts of one key set go a key at
    a time; anything else one object at a time."""
    if not objs:
        return []
    text = _batch(objs, nl, "\0")
    if text is not None:
        return text.split("\0")
    types = set(map(type, objs))
    inner = nl + "  "
    sep = "," + inner
    if all(issubclass(t, (list, tuple)) for t in types):
        if len(objs) > 1 and len(set(map(len, objs))) == 1 and objs[0]:
            rows = zip(*[_texts(col, inner) for col in zip(*objs)])
        else:
            run = iter(_texts([x for o in objs for x in o], inner))
            rows = (islice(run, len(o)) for o in objs)
        return ["[" + inner + sep.join(r) + nl + "]" if o else "[]" for o, r in zip(objs, rows)]
    if all(issubclass(t, dict) for t in types):
        keys = objs[0].keys()
        if keys and all(d.keys() == keys for d in objs):
            keys = sorted(keys)
            heads = [encode_basestring_ascii(k) + ": " for k in keys]
            cols = [_texts([d[k] for d in objs], inner) for k in keys]
            return ["{" + inner + sep.join(map(add, heads, r)) + nl + "}" for r in zip(*cols)]
    texts = []
    for o in objs:
        out = []
        _write(o, nl, out)
        texts.append("".join(out))
    return texts


def _flush(out: list, write) -> None:
    """Write the strings of out as one text and empty out, before the write:
    stdout encodes the text to bytes, and the pieces need not outlive it."""
    text = "".join(out)
    out.clear()
    write(text)


def _lines(texts, write) -> None:
    """Write the strings of texts, CHUNK of them joined per write."""
    texts = iter(texts)
    for chunk in iter(lambda: list(islice(texts, CHUNK)), []):
        _flush(chunk, write)


def _emit(args, render, obj) -> None:
    """render(obj, write) to stdout: render is _jdump or _lines.  Under --json
    the text becomes the "data" string of {"command": ..., "data": ...}, its
    head written first, then each chunk escaped as json.dumps escapes it,
    then its tail; the bytes are those of _jdump on that dict."""
    write = sys.stdout.write
    if not args.json_envelope:
        render(obj, write)
        return
    write('{\n  "command": %s,\n  "data": "' % encode_basestring_ascii(args.command))
    render(obj, lambda text: write(encode_basestring_ascii(text)[1:-1]))
    write('"\n}\n')


def _ambient(args):
    """(e, l, charge) with l defaulted from the charge length when --l is
    absent."""
    charge = charge_from_text(args.charge)
    l = len(charge) if args.l is None else args.l
    if args.e < 2 or l < 1:
        raise ValueError("need e >= 2 and l >= 1")
    if len(charge) != l:
        raise ValueError("charge %s has %d entries, expected l=%d" % (args.charge, len(charge), l))
    return args.e, l, charge


def _wedge_vector_text(vec):
    """The text lines of a wedge vector, one "(c) * [u]" per monomial, or
    "0" alone."""
    if not vec:
        yield "0\n"
    for u, c in sorted(vec.items(), key=lambda kv: (kv[0].s, kv[0].prefix)):
        yield "(%s) * [%s]\n" % (c, u.to_text())


# -- subcommands ------------------------------------------------------------------


def cmd_semisimple(args):
    e, l, charge = _ambient(args)
    _emit(args, _lines, ["true\n" if is_split_semisimple(e, charge, args.rank) else "false\n"])


def cmd_uglov_set(args):
    e, l, charge = _ambient(args)
    labels = sorted(uglov_set(e, l, charge, args.rank))
    if args.format == "json":
        _emit(args, _jdump, map(mp_to_text, labels))
    else:
        _emit(args, _lines, (mp_to_text(mp) + "\n" for mp in labels))


def cmd_flotw_check(args):
    e, l, charge = _ambient(args)
    member = flotw_predicate(mp_from_text(args.mp), e, charge)
    _emit(args, _lines, ["true\n" if member else "false\n"])


def cmd_crystal(args):
    e, l, charge = _ambient(args)
    graph = crystal_graph(e, l, charge, args.rank)
    if args.format == "dot":
        _emit(args, _lines, crystal_to_dot(graph, charge))
    else:
        _emit(args, _jdump, crystal_to_json(graph))


def cmd_avalue(args):
    e, l, charge = _ambient(args)
    labels = multipartitions(l, args.rank)
    h = args.height
    if h is None:
        h = args.rank + 1  # (1^n) in one component is the tallest label
    vals = AValueTable(e, l, charge, h)
    table = sorted((vals[mp], mp_to_text(mp)) for mp in labels)
    base, calibration = table[0]
    if args.format == "json":
        _emit(args, _jdump, {
            "calibration": calibration,
            "height": h,
            "alpha": vals.alpha,
            "values": ({"label": t, "a": v - base} for v, t in table),
        })
    else:
        _emit(args, _lines, chain(
            ["label,a_value\n"],
            ("%s,%d\n" % (t.replace(",", " "), v - base) for v, t in table),
            ["# calibration: %s -> 0 at height %d\n" % (calibration, h)],
        ))


def cmd_straighten(args):
    indices = [int(k) for k in args.indices.split(",")] if args.indices else []
    # no name holds the engine, so its memos are freed before the render
    vec = WedgeEngine(args.e, args.l, args.max_degree).straighten(indices, args.s)
    if args.format == "json":
        _emit(args, _jdump, vector_to_json(vec))
    else:
        _emit(args, _lines, _wedge_vector_text(vec))


def cmd_bar(args):
    u = monomial_from_text(args.monomial)
    # as in straighten, the engine and its memos are freed before the render
    vec = WedgeEngine(args.e, args.l, args.max_degree).bar(u, r=args.r)
    if args.format == "json":
        _emit(args, _jdump, vector_to_json(vec))
    else:
        _emit(args, _lines, _wedge_vector_text(vec))


def cmd_canonical(args):
    e, l, charge = _ambient(args)
    mp = mp_from_text(args.mp)
    vec = FockBasis(e, l, charge, rank(mp), args.max_degree).element(mp)
    records = fock_to_json(vec)
    if not args.keep_q:
        records = (
            {"multipartition": r["multipartition"], "charge": r["charge"],
             "coefficient_at_1": sum(c for _exp, c in r["coefficient"])}
            for r in records
        )
    _emit(args, _jdump, records)


def cmd_decomp(args):
    e, l, charge = _ambient(args)
    mat = decomposition_matrix(e, l, charge, args.rank)
    report = verify_unitriangular(mat)
    if not report["ok"]:
        raise InvariantError(
            "decomposition matrix is not unitriangular: %s" % report["violations"]
        )
    # every check above has passed before the first byte is written, and a
    # failed one leaves its error as the only line on stderr
    if mat.checks["semisimple"]:
        sys.stderr.write(
            "warning: these parameters are split semisimple; the matrix is trivial\n"
        )
    if args.format == "csv":
        _emit(args, _lines, mat.to_csv())
    elif args.format == "latex":
        _emit(args, _lines, mat.to_latex())
    else:
        payload = mat.to_json(keep_q=args.keep_q)
        payload["unitriangular"] = report
        _emit(args, _jdump, payload)


# -- parser ------------------------------------------------------------------------


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The qfock parser.  Every command is listed, for the help and the
    unknown-command error, but when argv is given only the command it
    invokes, its first word that is not an option, gets its options: a
    subparser's options matter only to the subparser that parses."""
    invoked = None if argv is None else next((a for a in argv if not a.startswith("-")), "")
    parser = argparse.ArgumentParser(
        prog="qfock",
        description="Canonical bases of higher-level q-deformed Fock spaces and "
                    "Ariki-Koike decomposition matrices, in exact arithmetic.",
    )
    parser.add_argument("--json", dest="json_envelope", action="store_true",
                        help="wrap any output in a JSON envelope")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, func):
        """The subparser of `name`, or None when argv invokes another."""
        p = sub.add_parser(name, help=help_text)
        if invoked is not None and name != invoked:
            return None
        p.set_defaults(func=func)
        return p

    def common(p, rank=True):
        p.add_argument("--e", type=int, required=True, help="quantum characteristic, >= 2")
        p.add_argument("--l", type=int, default=None, help="level (default: charge length)")
        p.add_argument("--charge", required=True, help="comma-separated integers s_1,...,s_l")
        if rank:
            p.add_argument("--rank", type=int, required=True, help="number of boxes n >= 0")

    if p := command("semisimple", "Ariki's split-semisimplicity criterion", cmd_semisimple):
        common(p)

    if p := command("uglov-set", "rank-n layer of the crystal component", cmd_uglov_set):
        common(p)
        p.add_argument("--format", choices=["text", "json"], default="text")

    if p := command("flotw-check", "membership test for ascending charges in [0, e)",
                    cmd_flotw_check):
        common(p, rank=False)
        p.add_argument("--mp", required=True, help="multipartition, e.g. '2,1|-'")

    if p := command("crystal", "crystal graph on ranks <= n with component marking",
                    cmd_crystal):
        common(p)
        p.add_argument("--format", choices=["dot", "json"], default="dot")

    if p := command("avalue", "calibrated a-value table for all rank-n labels", cmd_avalue):
        common(p)
        p.add_argument("--height", type=int, default=None)
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    if p := command("straighten", "straighten a raw wedge against the charge-s tail",
                    cmd_straighten):
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--s", type=int, required=True, help="total charge of the ambient space")
        p.add_argument("--indices", required=True, help="comma-separated integers")
        p.add_argument("--max-degree", type=int, default=64,
                       help="cap on the length of the word, tail beads included")
        p.add_argument("--format", choices=["text", "json"], default="text")

    if p := command("bar", "bar involution of an ordered monomial", cmd_bar):
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--monomial", required=True, help="e.g. 's=3; k=15,12,8'")
        p.add_argument("--r", type=int, default=None, help="reversal length (default: the degree)")
        p.add_argument("--max-degree", type=int, default=64)
        p.add_argument("--format", choices=["text", "json"], default="text")

    if p := command("canonical", "canonical basis element of a label", cmd_canonical):
        common(p, rank=False)
        p.add_argument("--mp", required=True)
        p.add_argument("--keep-q", action="store_true", help="keep q-polynomials")
        p.add_argument("--max-degree", type=int, default=64)

    if p := command("decomp", "decomposition matrix at q = 1", cmd_decomp):
        common(p)
        p.add_argument("--format", choices=["csv", "latex", "json"], default="csv")
        p.add_argument("--keep-q", action="store_true")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        args.func(args)
    except UnsupportedRegimeError as exc:
        sys.stderr.write("unsupported regime: %s\n" % exc)
        return 3
    except InvariantError as exc:
        sys.stderr.write("internal invariant violation: %s\n" % exc)
        return 4
    except ValueError as exc:
        sys.stderr.write("invalid input: %s\n" % exc)
        return 2
    return 0


def run() -> NoReturn:
    """The process entry point: main() on sys.argv, ended by os._exit (see
    the module docstring).  A stdout closed by its reader ends it with
    BROKEN_PIPE, without a traceback; anything else raised out of main(),
    argparse's help and usage exits included, takes the normal interpreter
    exit."""
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = BROKEN_PIPE
    os._exit(code)


if __name__ == "__main__":
    run()
