"""Span and count wrappers around the public functions of each qfock module.

    python perfbench/tracer.py <0|1> <qfock arguments...>

runs qfock.cli.main(arguments) in this process, with the wrappers when the
first argument is 1, and prints one record to stderr after a line starting
with MARK: main's wall time plus, when traced, the counts, span times and
cache sizes below.  Nothing in src/ is changed; the wrappers replace the
functions in every qfock namespace that bound them, including names bound
by `from .x import f`.

Spans are aggregated in memory, not stored one by one: a layer's inclusive
time counts only its outermost span (recursion is not counted twice), and
its self time is its spans' duration minus the part their child spans of
any layer cover.
"""

from __future__ import annotations

import json
import sys
import time

MARK = "@perfbench-trace "

# (module, attribute, span layer, call counter).  A class attribute is
# written "Class.method"; every alias of the same function is wrapped too.
TARGETS = (
    ("qfock.laurent", "LaurentPoly.__mul__", "laurent", "laurent.mul"),
    ("qfock.laurent", "LaurentPoly.__add__", "laurent", "laurent.add"),
    ("qfock.laurent", "LaurentPoly.__sub__", "laurent", "laurent.other"),
    ("qfock.laurent", "LaurentPoly.__neg__", "laurent", "laurent.other"),
    ("qfock.laurent", "LaurentPoly.bar", "laurent", "laurent.other"),
    ("qfock.laurent", "LaurentPoly.is_antisymmetric", "laurent", "laurent.other"),
    ("qfock.laurent", "LaurentPoly.truncate_positive", "laurent", "laurent.other"),
    ("qfock.laurent", "LaurentPoly.eval_one", "laurent", "laurent.other"),
    ("qfock.wedge", "WedgeEngine.straighten_pair", "wedge.straighten", "wedge.straighten_pair"),
    ("qfock.wedge", "WedgeEngine.insert", "wedge.straighten", "wedge.insert"),
    ("qfock.wedge", "WedgeEngine.straighten_indices", "wedge.straighten", "wedge.straighten_indices"),
    ("qfock.wedge", "WedgeEngine.straighten", "wedge.straighten", "wedge.straighten"),
    ("qfock.wedge", "WedgeEngine.bar", "wedge.bar", "wedge.bar"),
    ("qfock.wedge", "WedgeEngine.bar_vector", "wedge.bar", "wedge.bar_vector"),
    ("qfock.canonical", "CanonicalBasis.element", "canonical.element", "canonical.element"),
    ("qfock.canonical", "CanonicalBasis.bar_closure", "canonical.bar_closure", "canonical.bar_closure"),
    ("qfock.canonical", "verify_unitriangular", "canonical.verify", "canonical.verify"),
    ("qfock.fock", "apply_f", "fock.apply_f", "fock.apply_f"),
    ("qfock.partitions", "addable_nodes", "partitions.node", "partitions.node"),
    ("qfock.partitions", "removable_nodes", "partitions.node", "partitions.node"),
    ("qfock.crystal", "good_node", "crystal.good_node", "crystal.good_node"),
    ("qfock.crystal", "uglov_set", "crystal.uglov_set", "crystal.uglov_set"),
    ("qfock.crystal", "crystal_graph", "crystal.graph", "crystal.graph"),
    ("qfock.avalue", "a_rel", "avalue.a_rel", "avalue.a_rel"),
    ("qfock.abacus", "from_pair", "abacus.from_pair", "abacus.from_pair"),
    ("qfock.cli", "_jdump", "cli.render", "cli.render"),
    ("qfock.cli", "_payload_csv", "cli.render", "cli.render"),
    ("qfock.cli", "_payload_latex", "cli.render", "cli.render"),
    ("qfock.cli", "_wedge_vector_text", "cli.render", "cli.render"),
    ("qfock.crystal", "crystal_to_dot", "cli.render", "cli.render"),
    ("qfock.crystal", "crystal_to_json", "cli.render", "cli.render"),
    ("qfock.fock", "fock_to_json", "cli.render", "cli.render"),
    ("qfock.wedge", "vector_to_json", "cli.render", "cli.render"),
    ("qfock.canonical", "DecompositionMatrix.to_json", "cli.render", "cli.render"),
)

# Instances whose caches are read after main returns: (module, class).
INSTANCES = (("qfock.wedge", "WedgeEngine"), ("qfock.canonical", "CanonicalBasis"))


class Tracer:
    def __init__(self):
        self.counts = {}
        self.spans = {}  # layer -> [inclusive s, self s, open spans]
        self.instances = []
        self.warnings = []
        self._stack = [0.0]  # per open span: time covered by its children

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, layer, counter, hook=None):
        counts = self.counts
        counts.setdefault(counter, 0)
        stat = self.spans.setdefault(layer, [0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            if hook is not None:
                hook(*args)
            stat[2] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[1] += dt - stack.pop()
                stack[-1] += dt
                stat[2] -= 1
                if not stat[2]:
                    stat[0] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _mul_hook(self, a, b):
        if isinstance(b, int) or len(a.terms) == 1 or len(b.terms) == 1:
            self.counts["laurent.mul_one_term"] += 1

    def _insert_hook(self, engine, j, mono):
        if mono and j < mono[0]:  # past the early returns: the cache is consulted
            self.counts["wedge.insert_eligible"] += 1
            if (j, mono) in getattr(engine, "_insert_cache", ()):
                self.counts["wedge.insert_hits"] += 1

    def install(self):
        """Wrap every target in every qfock namespace that holds it."""
        import qfock.cli  # noqa: F401  (imports every module the CLI uses)

        for extra in ("laurent.mul_one_term", "wedge.insert_eligible", "wedge.insert_hits"):
            self.counts[extra] = 0
        hooks = {"laurent.mul": self._mul_hook, "wedge.insert": self._insert_hook}
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "qfock" or name.startswith("qfock.")]
        for module_name, attr, layer, counter in TARGETS:
            owner, name = _resolve(module_name, attr)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.warnings.append("trace target %s.%s not found" % (module_name, attr))
                continue
            wrapper = self.wrap(original, layer, counter, hooks.get(counter))
            holders = [owner] if isinstance(owner, type) else namespaces
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
        for module_name, class_name in INSTANCES:
            cls, _ = _resolve(module_name, class_name + ".__init__")
            if cls is None:
                self.warnings.append("trace class %s.%s not found" % (module_name, class_name))
                continue
            cls.__init__ = self._registering(cls.__init__)

    def _registering(self, init):
        instances = self.instances

        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        return wrapper

    # -- the record -------------------------------------------------------------

    def gauges(self) -> dict:
        """Work counters the engines keep themselves, summed over instances."""
        out = {"wedge.fuel": 0, "wedge.insert_cache_entries": 0,
               "wedge.pair_cache_entries": 0, "canonical.elements": 0}
        reads = {
            "WedgeEngine": (("wedge.fuel", "_spent", int),
                            ("wedge.insert_cache_entries", "_insert_cache", len),
                            ("wedge.pair_cache_entries", "_pair_cache", len)),
            "CanonicalBasis": (("canonical.elements", "_g", len),),
        }
        for obj in self.instances:
            for gauge, attr, read in reads[type(obj).__name__]:
                value = getattr(obj, attr, None)
                if value is None:
                    self.warnings.append("%s has no %s" % (type(obj).__name__, attr))
                else:
                    out[gauge] += read(value)
        return out

    def record(self) -> dict:
        return {
            "counts": dict(self.counts),
            "incl": {layer: s[0] for layer, s in self.spans.items()},
            "self": {layer: s[1] for layer, s in self.spans.items()},
            "gauges": self.gauges(),
            "warnings": self.warnings,
        }


def _resolve(module_name, attr):
    """(owner, name) for "f" in a module or "Class.method" in a class."""
    module = sys.modules.get(module_name)
    if module is None:
        return None, None
    if "." not in attr:
        return module, attr
    class_name, name = attr.split(".", 1)
    cls = getattr(module, class_name, None)
    return (cls, name) if isinstance(cls, type) else (None, None)


# -- aggregation in the benchmark process -------------------------------------------


def empty_totals() -> dict:
    return {"main_s": 0.0, "counts": {}, "incl": {}, "self": {}, "gauges": {}}


def add_totals(totals, record):
    """Sum one child's record into the workload totals."""
    totals["main_s"] += record["main_s"]
    for section in ("counts", "incl", "self", "gauges"):
        into = totals[section]
        for key, value in record[section].items():
            into[key] = into.get(key, 0) + value


def layer_metrics(t) -> dict:
    """The per-layer metrics, {name: (value, unit)}.  A layer that did no
    work reads 0; it is never left out."""
    c, incl, self_s, g = t["counts"], t["incl"], t["self"], t["gauges"]

    def n(key):
        return c.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "laurent.mul_calls": (n("laurent.mul"), "count"),
        "laurent.add_calls": (n("laurent.add"), "count"),
        "laurent.mul_one_term_ratio": (ratio(n("laurent.mul_one_term"), n("laurent.mul")), "ratio"),
        "laurent.self_s": (self_s.get("laurent", 0.0), "s"),
        "wedge.bar_calls": (n("wedge.bar"), "count"),
        "wedge.bar_s": (incl.get("wedge.bar", 0.0), "s"),
        "wedge.straighten_self_s": (self_s.get("wedge.straighten", 0.0), "s"),
        "wedge.insert_calls": (n("wedge.insert"), "count"),
        "wedge.fuel": (g.get("wedge.fuel", 0), "count"),
        "wedge.insert_hit_ratio": (ratio(n("wedge.insert_hits"), n("wedge.insert_eligible")), "ratio"),
        "wedge.insert_cache_entries": (g.get("wedge.insert_cache_entries", 0), "count"),
        "wedge.pair_cache_entries": (g.get("wedge.pair_cache_entries", 0), "count"),
        "canonical.elements": (g.get("canonical.elements", 0), "count"),
        "canonical.element_self_s": (self_s.get("canonical.element", 0.0), "s"),
        "canonical.bar_closure_s": (incl.get("canonical.bar_closure", 0.0), "s"),
        "canonical.verify_s": (incl.get("canonical.verify", 0.0), "s"),
        "fock.apply_f_calls": (n("fock.apply_f"), "count"),
        "fock.apply_f_s": (incl.get("fock.apply_f", 0.0), "s"),
        "partitions.node_calls": (n("partitions.node"), "count"),
        "partitions.node_s": (incl.get("partitions.node", 0.0), "s"),
        "crystal.good_node_calls": (n("crystal.good_node"), "count"),
        "crystal.uglov_set_s": (incl.get("crystal.uglov_set", 0.0), "s"),
        "crystal.graph_s": (incl.get("crystal.graph", 0.0), "s"),
        "avalue.a_rel_calls": (n("avalue.a_rel"), "count"),
        "avalue.a_rel_s": (incl.get("avalue.a_rel", 0.0), "s"),
        "abacus.from_pair_calls": (n("abacus.from_pair"), "count"),
        "abacus.from_pair_s": (incl.get("abacus.from_pair", 0.0), "s"),
        "cli.render_s": (incl.get("cli.render", 0.0), "s"),
    }


def main(argv) -> int:
    traced, args = argv[0] == "1", argv[1:]
    import qfock.cli

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    rc = qfock.cli.main(args)
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    record = tracer.record() if tracer is not None else {"warnings": []}
    record["main_s"] = main_s
    sys.stderr.write("\n" + MARK + json.dumps(record, sort_keys=True) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
