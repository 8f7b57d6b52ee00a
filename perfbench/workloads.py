"""Job lists for the three workloads, and the checks on every job's output.

A job is one `qfock` command line.  Each workload is generated from a seed:
decomp-paper uses the seed only to order its fixed jobs; wedge-cold and
combinatorics also shift every charge by a seeded multiple of e (charges)
or e*l (wedge monomials).  Such a shift relabels all indices but leaves the
work identical, because the straightening rules and the crystal depend only
on residues and on index differences; so runs with different seeds measure
the same amount of work.  wedge-cold also draws its canonical-basis labels
at random from a fixed pool.

Every output is checked twice where possible: against a digest recorded
from a known-good commit (after undoing the seeded shift), and by a
property that holds for any correct answer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Wedge degree cap for generated bar and canonical jobs.  Cost grows
# steeply with degree (bar of `s=0; k=32` at e=4, l=2 takes 6 s and
# 370 MB; degree 50 runs out of memory), so the generator never exceeds it
# and the CLI's own guard is given the same cap.
MAX_DEGREE = 24

# Seeded shifts are t * e (charges) or t * e * l (monomials), t in this range.
SHIFTS = range(-3, 4)

PROBE_ARGV = ("semisimple", "--e=4", "--charge=0,1", "--rank=4")


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  `key` names its reference digest; jobs drawn at
    random from a pool have none and rely on the property checks alone."""

    kind: str
    argv: tuple
    key: str | None = None
    params: dict = field(default_factory=dict, compare=False)


def _charge_text(charge) -> str:
    return ",".join(str(c) for c in charge)


def _mp_text(mp) -> str:
    return "|".join(",".join(str(p) for p in comp) if comp else "-" for comp in mp)


def _mp_parse(text: str) -> tuple:
    return tuple(
        () if chunk in ("-", "") else tuple(int(p) for p in chunk.split(","))
        for chunk in text.split("|")
    )


def probe_job() -> Job:
    """A fresh process that does no computation: the set-up cost."""
    return Job("probe", PROBE_ARGV, key="probe")


# -- workloads --------------------------------------------------------------------


def decomp_paper(rng, tiny=False) -> list:
    """The paper's computation: e=4, l=2 at its three charges, plus (3,3)."""
    jobs = []
    for charge in ((0, 1), (4, 1), (0, 5)):
        jobs.append(_decomp(4, 2, charge, 4, "csv"))
        if not tiny:
            jobs.append(_decomp(4, 2, charge, 8, "json"))
    if tiny:
        jobs.append(_decomp(4, 2, (0, 1), 4, "json"))
    else:
        jobs.append(_decomp(3, 3, (0, 1, 2), 6, "csv"))
    rng.shuffle(jobs)
    return jobs


def _decomp(e, l, charge, n, fmt) -> Job:
    argv = ("decomp", "--e=%d" % e, "--l=%d" % l, "--charge=" + _charge_text(charge),
            "--rank=%d" % n, "--format=" + fmt)
    if fmt == "json":
        argv += ("--keep-q",)
    return Job("decomp-" + fmt, argv, key=" ".join(argv),
               params={"e": e, "l": l, "charge": charge, "n": n})


# (e, l, offsets gamma, base total charge): bar of the monomial whose i-th
# index is s - i + 1 + gamma_i, so its wedge degree is sum(gamma).
BAR_TEMPLATES = (
    (4, 2, (24,), 0), (4, 2, (16,), 1),
    (3, 3, (24,), 0), (3, 3, (10, 6, 2), 2),
    (2, 2, (20,), 0), (2, 2, (6, 6, 6), 1),
)
BAR_TEMPLATES_TINY = ((4, 2, (6,), 0), (3, 3, (5, 2), 1), (2, 2, (4, 2), 0))
CANONICAL_AMBIENTS = ((4, 2, (0, 1)), (3, 3, (0, 1, 2)), (2, 2, (0, 1)))
# Each ambient runs the pool's costliest label of rank 5-7 (by fuel, the
# engine's straightening steps) and two labels drawn from those of at most
# LIGHT_FUEL.  Drawing from the whole pool would let one seed carry several
# times the work of another.
LIGHT_FUEL = 2000


def wedge_cold(rng, tiny=False) -> list:
    """Cold-engine wedge work: bar of ordered monomials and canonical
    elements of non-Uglov labels of rank 5-7, each in a fresh process."""
    pool = reference()["label_pool"]
    jobs = []
    for e, l, gamma, s0 in BAR_TEMPLATES_TINY if tiny else BAR_TEMPLATES:
        if sum(gamma) > MAX_DEGREE:
            raise ValueError("bar template %r exceeds the degree cap" % (gamma,))
        t = rng.choice(SHIFTS)
        s = s0 + t * e * l
        prefix = [s - i + gamma[i] for i in range(len(gamma))]
        argv = ("bar", "--e=%d" % e, "--l=%d" % l,
                "--monomial=s=%d; k=%s" % (s, _charge_text(prefix)),
                "--max-degree=%d" % MAX_DEGREE, "--format=json")
        jobs.append(Job("bar", argv, key="bar e=%d l=%d gamma=%s s0=%d"
                        % (e, l, _charge_text(gamma), s0),
                        params={"e": e, "l": l, "s": s, "prefix": prefix, "shift": t * e * l}))
    for e, l, base in CANONICAL_AMBIENTS:
        entries = pool["%d %d %s" % (e, l, _charge_text(base))]
        if tiny:
            labels = [rng.choice([lab for lab, n, _fuel in entries if n == 3])]
        else:
            full = [(fuel, lab) for lab, n, fuel in entries if n >= 5]
            light = sorted(lab for fuel, lab in full if fuel <= LIGHT_FUEL)
            labels = [max(full)[1]] + rng.sample(light, 2)
        for i, label in enumerate(labels):
            t = rng.choice(SHIFTS)
            charge = tuple(c + t * e for c in base)
            argv = ("canonical", "--e=%d" % e, "--l=%d" % l,
                    "--charge=" + _charge_text(charge), "--mp=" + label, "--keep-q",
                    "--max-degree=%d" % MAX_DEGREE)
            key = None if tiny or i else "canonical e=%d l=%d base=%s mp=%s" % (
                e, l, _charge_text(base), label)
            jobs.append(Job("canonical", argv, key=key,
                            params={"charge": charge, "label": label, "shift": t * e}))
    rng.shuffle(jobs)
    return jobs


def combinatorics(rng, tiny=False) -> list:
    """Crystal, Uglov-set and a-value commands: no wedge code runs."""
    specs = (
        ("uglov-set", 4, 2, (0, 1), 18, 5, "text"),
        ("uglov-set", 3, 3, (0, 1, 2), 14, 5, "json"),
        ("avalue", 4, 2, (4, 1), 16, 4, "json"),
        ("avalue", 3, 3, (0, 1, 2), 11, 4, "csv"),
        ("crystal", 4, 2, (0, 5), 13, 3, "json"),
        ("crystal", 3, 3, (0, 1, 2), 10, 3, "dot"),
    )
    jobs = []
    for command, e, l, base, n, n_tiny, fmt in specs:
        n = n_tiny if tiny else n
        t = rng.choice(SHIFTS)
        charge = tuple(c + t * e for c in base)
        argv = (command, "--e=%d" % e, "--l=%d" % l, "--charge=" + _charge_text(charge),
                "--rank=%d" % n, "--format=" + fmt)
        key = "%s e=%d l=%d base=%s rank=%d %s" % (command, e, l, _charge_text(base), n, fmt)
        jobs.append(Job("%s-%s" % (command, fmt), argv, key=key,
                        params={"e": e, "l": l, "base": base, "n": n}))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "decomp-paper": decomp_paper,
    "wedge-cold": wedge_cold,
    "combinatorics": combinatorics,
}


# -- checks -----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def reference() -> dict:
    """Recorded digests and the canonical-label pool (see record.py)."""
    with open(REFERENCE) as fh:
        return json.load(fh)


def _qfock():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qfock.crystal
    import qfock.partitions

    return qfock


@functools.lru_cache(maxsize=None)
def _paper_matrices() -> dict:
    spec = importlib.util.spec_from_file_location("paper_data", ROOT / "tests" / "paper_data.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MATRICES


@functools.lru_cache(maxsize=None)
def _flotw_layer(e, l, base, n) -> frozenset:
    """Rank-n labels passing the FLOTW test: a second route to the Uglov set."""
    qfock = _qfock()
    return frozenset(
        _mp_text(mp) for mp in qfock.partitions.multipartitions(l, n)
        if qfock.crystal.flotw_predicate(mp, e, base)
    )


@functools.lru_cache(maxsize=None)
def _multipartition_count(l, n) -> int:
    return len(_qfock().partitions.multipartitions(l, n))


def normalize(job: Job, out: str) -> str:
    """The output with the seeded shift undone, as the digest sees it."""
    if job.kind == "bar":
        d = job.params["shift"]
        return json.dumps([
            {"monomial": {"s": r["monomial"]["s"] - d,
                          "prefix": [k - d for k in r["monomial"]["prefix"]]},
             "coefficient": r["coefficient"]}
            for r in json.loads(out)
        ], sort_keys=True)
    if job.kind == "canonical":
        d = job.params["shift"]
        return json.dumps([dict(r, charge=[c - d for c in r["charge"]]) for r in json.loads(out)],
                          sort_keys=True)
    if job.kind == "avalue-json":
        payload = json.loads(out)
        payload.pop("alpha")  # the only field a uniform charge shift moves
        return json.dumps(payload, sort_keys=True)
    return out


def digest(job: Job, out: str) -> str:
    return hashlib.sha256(normalize(job, out).encode()).hexdigest()


def check(job: Job, out: str) -> list:
    """Problems found in a job's stdout; empty when it is correct."""
    try:
        problems = _PROPERTY_CHECKS.get(job.kind, lambda job, out: [])(job, out)
        if job.key is not None:
            want = reference()["digests"].get(job.key)
            if want is None:
                problems.append("no reference digest for %r" % job.key)
            elif digest(job, out) != want:
                problems.append("output differs from the reference digest")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = ["unparsable output: %r" % exc]
    return problems


def _check_probe(job, out):
    return [] if out in ("true\n", "false\n") else ["probe printed %r" % out[:40]]


def _check_decomp_csv(job, out):
    lines = out.splitlines()
    if lines[:1] != ["row,column,entry"]:
        return ["missing CSV header"]
    p = job.params
    if (p["e"], p["l"], p["n"]) != (4, 2, 4):
        return []
    triples = set()
    for line in lines[1:]:
        row, col, entry = line.split(",")
        triples.add((_mp_parse(row.replace(" ", ",")), _mp_parse(col.replace(" ", ",")),
                     int(entry)))
    if triples != _paper_matrices()[p["charge"]]:
        return ["rank-4 matrix differs from the paper's"]
    return []


def _check_decomp_json(job, out):
    payload = json.loads(out)
    problems = []
    if payload["unitriangular"]["ok"] is not True:
        problems.append("unitriangular.ok is not true")
    if payload["checks"]["foreign_support"]:
        problems.append("foreign support: %r" % payload["checks"]["foreign_support"][:3])
    return problems


def _check_bar(job, out):
    records = json.loads(out)
    charges = {r["monomial"]["s"] for r in records}
    own = [r["coefficient"] for r in records if r["monomial"]["prefix"] == job.params["prefix"]]
    problems = []
    if charges != {job.params["s"]}:
        problems.append("total charges %r, expected only %d" % (sorted(charges), job.params["s"]))
    if own != [[[0, 1]]]:
        problems.append("coefficient on the input monomial is %r, not 1" % own)
    return problems


def _check_canonical(job, out):
    label = _mp_text(_mp_parse(job.params["label"]))
    charge = list(job.params["charge"])
    rank = sum(map(sum, _mp_parse(label)))
    problems = []
    seen = False
    for r in json.loads(out):
        mp, coeff = r["multipartition"], r["coefficient"]
        if r["charge"] != charge or sum(map(sum, _mp_parse(mp))) != rank:
            problems.append("support %s at charge %r leaves the label's weight space"
                            % (mp, r["charge"]))
        if mp == label:
            seen = True
            if coeff != [[0, 1]]:
                problems.append("coefficient on the label is %r, not 1" % coeff)
        elif not coeff or any(exp < 1 for exp, _c in coeff):
            problems.append("coefficient on %s is %r, not in qZ[q]" % (mp, coeff))
    if not seen:
        problems.append("label %s missing from its own canonical element" % label)
    return problems


def _check_uglov(job, out):
    p = job.params
    if job.kind == "uglov-set-json":
        labels = json.loads(out)
    else:
        labels = out.splitlines()
    if len(labels) != len(set(labels)) or set(labels) != _flotw_layer(p["e"], p["l"], p["base"], p["n"]):
        return ["Uglov set differs from the FLOTW multipartitions"]
    return []


def _check_avalue_json(job, out):
    payload = json.loads(out)
    values = [(v["a"], v["label"]) for v in payload["values"]]
    problems = []
    if values != sorted(values) or not values or values[0][0] != 0:
        problems.append("a-values are not sorted upwards from 0")
    if (0, payload["calibration"]) not in values:
        problems.append("calibration label is not at a-value 0")
    if len(values) != _multipartition_count(job.params["l"], job.params["n"]):
        problems.append("%d a-values, expected one per multipartition" % len(values))
    return problems


def _check_avalue_csv(job, out):
    lines = out.splitlines()
    if lines[:1] != ["label,a_value"] or not lines[-1].startswith("# calibration: "):
        return ["malformed a-value CSV"]
    if len(lines) - 2 != _multipartition_count(job.params["l"], job.params["n"]):
        return ["%d a-values, expected one per multipartition" % (len(lines) - 2)]
    return []


_PROPERTY_CHECKS = {
    "probe": _check_probe,
    "decomp-csv": _check_decomp_csv,
    "decomp-json": _check_decomp_json,
    "bar": _check_bar,
    "canonical": _check_canonical,
    "uglov-set-text": _check_uglov,
    "uglov-set-json": _check_uglov,
    "avalue-json": _check_avalue_json,
    "avalue-csv": _check_avalue_csv,
}
