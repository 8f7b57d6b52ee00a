"""Independent routes the tests check the library against.

Nothing in `src/` calls these; they are kept deliberately simple so that a
fault in the optimized code cannot hide in them as well.
"""

from itertools import combinations, count
from operator import mul

from qfock.abacus import WedgeMonomial, degree, factorize, wedge_monomial
from qfock.avalue import AValueTable, _entries, _min_ramp
from qfock.canonical import FockBasis
from qfock.fock import ChargedAbacus, apply_f
from qfock.laurent import ONE, LaurentPoly, _acc
from qfock.partitions import empty_multipartition, multipartitions, partitions, rank
from qfock.wedge import WedgeEngine, _indices


# -- the crystal on multipartition tuples --------------------------------------
#
# A node is (a, b, c) = (row, column, component), all 1-based; its content
# under a charge (s_1, ..., s_l) is b - a + s_c, and its residue is the
# content mod e.  One node is 'above' another when its content is smaller,
# ties going to the larger component.

def signature_nodes(mp, charge) -> list:
    """The addable and removable nodes of mp, most 'above' first, as
    (content, -component, node, is_addable).  No two of them share a
    content and a component."""
    keyed = []
    for c, comp in enumerate(mp, start=1):
        s = charge[c - 1]
        last = len(comp)
        for a, p in enumerate(comp, start=1):
            # row a can grow iff it stays weakly below row a-1
            if a == 1 or p < comp[a - 2]:
                keyed.append((p + 1 - a + s, -c, (a, p + 1, c), True))
            if a == last or comp[a] < p:
                keyed.append((p - a + s, -c, (a, p, c), False))
        keyed.append((s - last, -c, (last + 1, 1, c), True))
    keyed.sort()
    return keyed


def i_signatures(mp, charge, e):
    """For each residue i, the i-signature of mp: its addable and removable
    i-nodes, most 'above' first, as (node, is_addable) pairs."""
    sigs = [[] for _ in range(e)]
    for cont, _c, node, addable in signature_nodes(mp, charge):
        sigs[cont % e].append((node, addable))
    return sigs


def addable_nodes(mp, i, charge, e):
    """Addable i-nodes, most 'above' first."""
    return [g for g, addable in i_signatures(mp, charge, e)[i] if addable]


def removable_nodes(mp, i, charge, e):
    """Removable i-nodes, most 'above' first."""
    return [g for g, addable in i_signatures(mp, charge, e)[i] if not addable]


def add_node(mp, node):
    """The multipartition with one box added at `node` (must be addable)."""
    a, b, c = node
    comp = list(mp[c - 1])
    if a == len(comp) + 1:
        if b != 1:
            raise ValueError("node %r is not addable to %r" % (node, mp))
        comp.append(1)
    else:
        if comp[a - 1] + 1 != b or (a > 1 and comp[a - 2] < b):
            raise ValueError("node %r is not addable to %r" % (node, mp))
        comp[a - 1] += 1
    return mp[: c - 1] + (tuple(comp),) + mp[c:]


def reduce_signature(sig):
    """Reduce an i-signature, letting each addable node cancel the nearest
    surviving removable node above it.  Returns the last addable node left
    uncancelled (None when every one cancels a removable node) and the
    surviving removable nodes, most 'above' first."""
    survivors = []
    last_addable = None
    for g, addable in sig:
        if not addable:
            survivors.append(g)
        elif survivors:
            survivors.pop()
        else:
            last_addable = g
    return last_addable, survivors


def good_node(mp, i, charge, e):
    """The highest normal i-node, or None."""
    survivors = reduce_signature(i_signatures(mp, charge, e)[i])[1]
    return survivors[0] if survivors else None


def good_addable_nodes(mp, charge, e):
    """The nodes gamma such that mp -> mp+gamma is a crystal edge, one per
    colour at most, as (i, gamma) pairs in colour order.  Only the residues
    that occur are reduced, so e may be large."""
    sigs = {}
    for cont, _c, node, addable in signature_nodes(mp, charge):
        sigs.setdefault(cont % e, []).append((node, addable))
    good = ((i, reduce_signature(sig)[0]) for i, sig in sorted(sigs.items()))
    return [(i, gamma) for i, gamma in good if gamma is not None]


def crystal_graph_on_tuples(e: int, l: int, charge, n: int) -> dict:
    """crystal.crystal_graph walking multipartition tuples."""
    layers = [multipartitions(l, m) for m in range(n + 1)]
    edges = []
    marked = {empty_multipartition(l)}
    for layer in layers[:n]:
        for mp in layer:
            for i, gamma in good_addable_nodes(mp, charge, e):
                mu = add_node(mp, gamma)
                edges.append((mp, i, mu))
                if mp in marked:
                    marked.add(mu)
    edges.sort()
    return {"layers": layers, "edges": edges, "uglov": marked}


def _relabel(mp, e, charge, target):
    """Psi: the label at charge `target` reached from the vacuum by the
    colours of a good-node path from the vacuum to mp at `charge`."""
    colours = []
    while rank(mp):
        i, gamma = next((i, g) for i in range(e)
                        if (g := good_node(mp, i, charge, e)) is not None)
        colours.append(i)
        mp = remove_node(mp, gamma)
    for i in reversed(colours):
        mp = add_node(mp, dict(good_addable_nodes(mp, target, e))[i])
    return mp


def bit_node(abacus, b, bit):
    """The node (row, column, component) of the addable or removable node
    at the single-bit mask `bit` of the bead mask b, read off the labels
    before and after its bead moves."""
    mp = abacus.label(b)
    mu = abacus.label(b ^ bit ^ bit >> abacus.l)
    c = next(c for c in range(len(mp)) if mp[c] != mu[c])
    small, big = sorted((mp[c], mu[c]), key=sum)
    a = next(a for a, part in enumerate(big) if a >= len(small) or small[a] != part)
    return a + 1, big[a], c + 1


def single_bits(mask) -> list:
    """The single-bit masks of the set bits of mask, lowest first."""
    out = []
    while mask:
        out.append(mask & -mask)
        mask ^= out[-1]
    return out


def straighten_naive(eng, indices):
    """Rewrite the leftmost unordered adjacent pair of a wedge with the
    engine's pair rules until every monomial is ordered; burns the engine's
    fuel once per rewrite.  Exponential; keep inputs short."""
    work = {tuple(indices): ONE}
    done = {}
    while work:
        mono, c = work.popitem()
        eng._burn()
        spot = None
        for i in range(len(mono) - 1):
            if mono[i] <= mono[i + 1]:
                spot = i
                break
        if spot is None:
            _acc(done, mono, c)
            continue
        for (x, y), c2 in eng.straighten_pair(mono[spot], mono[spot + 1]):
            nxt = mono[:spot] + (x, y) + mono[spot + 2:]
            _acc(work, nxt, c * c2)
    return done


class LaurentWedgeEngine(WedgeEngine):
    """WedgeEngine with LaurentPoly coefficients in its insert memo and its
    working vector, where the engine keeps ids into a table of distinct
    polynomials.  The memo is keyed as the engine's and burns one unit of
    fuel per miss, so fuel and memo size must agree with the engine's too;
    bar and straighten are inherited and run on this straightening."""

    def _insert(self, j: int, mono: int):
        tail = mono & ((2 << j) - 1)
        if not tail:
            return {mono | 1 << j: ONE}
        low = (tail & -tail).bit_length() - 1
        if low == j:
            return {}
        d = low - low % self.e
        key = tail >> d | 2 << j - d
        out = self._insert_cache.get(key)
        if out is None:
            self._burn()
            out = {}
            init = tail >> d ^ 1 << (low - d)
            for (x, y), c in self.straighten_pair(low - d, j - d):
                part = {}
                for m2, c2 in self._insert(x, init).items():
                    for m3, c3 in self._insert(y, m2).items():
                        _acc(part, m3, c2 * c3)
                for m, p in part.items():
                    _acc(out, m, c * p)
            self._insert_cache[key] = out
        head = mono ^ tail
        return {m << d | head: c for m, c in out.items()}

    def straighten_indices(self, indices):
        word = tuple(indices)
        low = min(word, default=0)
        origin = low - low % self.e
        vec = {0: ONE}
        for j in word:
            nxt = {}
            for mono, c in vec.items():
                for m2, c2 in self._insert(j - origin, mono).items():
                    _acc(nxt, m2, c * c2)
            vec = nxt
        return {_indices(m, origin): c for m, c in vec.items()}


def qbar(p: LaurentPoly) -> LaurentPoly:
    """The involution q -> q^-1 of a Laurent polynomial (exponent
    negation)."""
    return LaurentPoly({-x: c for x, c in p.terms.items()})


def bar_vector(engine, vec):
    """The bar involution of a wedge vector {monomial: polynomial}, extended
    semilinearly: coefficients through q -> q^{-1}, monomials through
    engine.bar."""
    out = {}
    for u, c in vec.items():
        cbar = qbar(c)
        for v, c2 in engine.bar(u).items():
            _acc(out, v, cbar * c2)
    return out


def index_sum(u: WedgeMonomial, depth: int) -> int:
    """Sum of the first `depth` indices; conserved by straightening when the
    compared monomials share s."""
    ks = list(u.prefix) + [u.s - i + 1 for i in range(len(u.prefix) + 1, depth + 1)]
    return sum(ks[:depth])


def content(node, charge) -> int:
    a, b, c = node
    return b - a + charge[c - 1]


def residue(node, charge, e: int) -> int:
    """The content mod e, normalized to [0, e)."""
    return content(node, charge) % e


def above(gamma, gamma2, charge) -> bool:
    """The strict node order: smaller content is higher, ties go to the
    larger component index."""
    c1 = content(gamma, charge)
    c2 = content(gamma2, charge)
    return c1 < c2 or (c1 == c2 and gamma2[2] < gamma[2])


def is_normal(mp, gamma, i, charge, e) -> bool:
    """Whether the removable i-node gamma of mp survives the reduction."""
    sig = i_signatures(mp, charge, e)[i]
    if (gamma, False) not in sig:
        raise ValueError("%r is not a removable %d-node of %r" % (gamma, i, mp))
    return gamma in reduce_signature(sig)[1]


def add_nodes_to_part(mc, component: int, row: int, r: int, max_row: int | None = None):
    """Grow one part of an l-composition by r boxes.

    `component` and `row` are 1-based.  Rows past the end of a component are
    rows of length 0 and may be addressed up to max_row (the symbol height)
    when given, or freely otherwise; the zeros in between stay in place,
    since the symbol machinery reads positions, not just parts.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if not 1 <= component <= len(mc):
        raise IndexError("component %d out of range" % component)
    if row < 1 or (max_row is not None and row > max_row):
        raise IndexError("row %d out of range" % row)
    if r == 0:
        return mc
    comp = list(mc[component - 1])
    comp.extend([0] * (row - len(comp)))
    comp[row - 1] += r
    return mc[: component - 1] + (tuple(comp),) + mc[component:]


def n_count(mp, i, charge, e) -> int:
    """Addable minus removable i-nodes of mp."""
    return len(addable_nodes(mp, i, charge, e)) - len(removable_nodes(mp, i, charge, e))


def n_above(mp, mu, gamma, i, charge, e) -> int:
    """Addable i-nodes of mp above gamma, minus removable i-nodes of mu
    above gamma (mu = mp plus gamma)."""
    return (
        sum(1 for g in addable_nodes(mp, i, charge, e) if above(g, gamma, charge))
        - sum(1 for g in removable_nodes(mu, i, charge, e) if above(g, gamma, charge))
    )


def n_below(mp, mu, gamma, i, charge, e) -> int:
    """Same count on the nodes below gamma."""
    return (
        sum(1 for g in addable_nodes(mp, i, charge, e) if above(gamma, g, charge))
        - sum(1 for g in removable_nodes(mu, i, charge, e) if above(gamma, g, charge))
    )


def apply_e(i, vec, e) -> dict:
    """e_i: removes every removable i-node gamma with weight q^{-N^a_i}."""
    out = {}
    for (mp, charge), c in vec.items():
        for gamma in removable_nodes(mp, i, charge, e):
            mu = remove_node(mp, gamma)
            w = -n_above(mu, mp, gamma, i, charge, e)
            _acc(out, (mu, charge), c * LaurentPoly({w: 1}))
    return out


def apply_k(i, vec, e) -> dict:
    """k_i: diagonal with weight q^{N_i}."""
    out = {}
    for (mp, charge), c in vec.items():
        _acc(out, (mp, charge), c * LaurentPoly({n_count(mp, i, charge, e): 1}))
    return out


def quantum_factorial(k: int) -> LaurentPoly:
    """[k]! with [j] = q^(j-1) + q^(j-3) + ... + q^(1-j)."""
    out = LaurentPoly.one()
    for j in range(2, k + 1):
        out = out * LaurentPoly({j - 1 - 2 * t: 1 for t in range(j)})
    return out


def divide_exact(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly | None:
    """p / d for d with leading coefficient 1, or None when d does not
    divide p in Z[q, q^-1]."""
    top = max(d.terms)
    floor = min(p.terms, default=0) - min(d.terms)  # lowest exponent of an exact quotient
    rem = dict(p.terms)
    quot = {}
    while rem:
        lead = max(rem)
        c = rem[lead]
        x = lead - top
        if x < floor:
            return None
        quot[x] = c
        for y, cy in d.terms.items():
            s = rem.get(x + y, 0) - c * cy
            if s:
                rem[x + y] = s
            else:
                rem.pop(x + y, None)
    return LaurentPoly(quot)


def remove_node(mp, node):
    """The multipartition with the box at `node` removed (must be removable)."""
    a, b, c = node
    comp = list(mp[c - 1])
    if a > len(comp) or comp[a - 1] != b or (a < len(comp) and comp[a] >= b):
        raise ValueError("node %r is not removable from %r" % (node, mp))
    comp[a - 1] -= 1
    if comp[a - 1] == 0:
        comp.pop()
    return mp[: c - 1] + (tuple(comp),) + mp[c:]


def apply_f_on_tuples(i, vec, e, k=1) -> dict:
    """fock.apply_f on {(mp, charge): polynomial} vectors, read off the
    i-signature of each multipartition tuple: N^b_i of an addable i-node
    is counted off the signature nodes after it."""
    out = {}
    shift = k * (k - 1) // 2
    for (mp, charge), c in vec.items():
        sig = [(node, addable) for cont, _c, node, addable in signature_nodes(mp, charge)
               if cont % e == i]
        below = sum(1 if addable else -1 for _g, addable in sig)  # N_i of mp
        nodes = []
        for gamma, addable in sig:
            if addable:
                below -= 1  # now the nodes below gamma only
                nodes.append((gamma, below))
            else:
                below += 1
        for subset in combinations(nodes, k):
            mu = mp
            for gamma, _b in subset:
                mu = add_node(mu, gamma)
            weight = sum(b for _g, b in subset) - shift
            _acc(out, (mu, charge), c * LaurentPoly({weight: 1}))
    return out


def peel_on_tuples(mp, charge, e):
    """FockBasis.peel on a multipartition tuple: (i, k, e~_i^k mp) for the
    lowest colour i whose reduced i-signature keeps a removable node, every
    such node removed; None when there is none."""
    sigs = {}
    for cont, _c, node, addable in signature_nodes(mp, charge):
        sigs.setdefault(cont % e, []).append((node, addable))
    for i in sorted(sigs):
        normal = reduce_signature(sigs[i])[1]
        if normal:
            for gamma in normal:
                mp = remove_node(mp, gamma)
            return i, len(normal), mp
    return None


def fock_apply_f(i, vec, e, k=1) -> dict:
    """fock.apply_f itself on a {(mp, charge): polynomial} vector: the
    labels of each charge go to bead masks on an abacus wide enough for
    their images, and back."""
    out = {}
    for charge in {ch for _mp, ch in vec}:
        part = {key: c for key, c in vec.items() if key[1] == charge}
        abacus = ChargedAbacus(e, len(charge), charge, max(map(rank, (mp for mp, _ch in part))) + k)
        flat = [(abacus.mask(mp), x, cx) for (mp, _ch), c in part.items()
                for x, cx in c.terms.items()]
        terms = {}
        for (b, x), cx in apply_f(i, flat, abacus, k).items():
            terms.setdefault(abacus.label(b), {})[x] = cx
        out.update({(mp, charge): LaurentPoly(t) for mp, t in terms.items()})
    return out


def divided_power_by_division(i, vec, e, k) -> dict:
    """f_i^(k) the long way: k single applications of f_i, then every
    coefficient divided exactly by [k]!."""
    for _ in range(k):
        vec = apply_f_on_tuples(i, vec, e)
    fact = quantum_factorial(k)
    out = {}
    for key, c in vec.items():
        quot = divide_exact(c, fact)
        assert quot is not None, "%s on %s is not divisible by [%d]!" % (c, key, k)
        out[key] = quot
    return out


def mp_to_text_per_label(mp) -> str:
    """partitions.mp_to_text formatting every part on each call."""
    return "|".join(",".join(str(p) for p in comp) if comp else "-" for comp in mp)


def a_rel_per_label(mc, table) -> int:
    """avalue.a_rel building every symbol entry of mc and its S2 term on
    each call; reads only the table's h and shifts."""
    h = table.h
    if h < height(mc):
        raise ValueError("height %d is below the height of %r" % (h, mc))
    entries = []
    for comp, t in zip(mc, table.shifts):
        entries += _entries(comp, t, h)
    entries.sort(reverse=True)
    s2 = sum(_min_ramp(x, t) for x in entries for t in table.shifts)
    return sum(map(mul, count(), entries)) - s2


def uglov_layers(e: int, l: int, charge, n: int) -> list:
    """Layers 0..n of the crystal component of the empty multipartition,
    every one kept."""
    layer = {empty_multipartition(l)}
    layers = [set(layer)]
    for _ in range(n):
        nxt = set()
        for mp in layer:
            for _i, gamma in good_addable_nodes(mp, charge, e):
                nxt.add(add_node(mp, gamma))
        layers.append(nxt)
        layer = nxt
    return layers


def enumerate_degree_component(s: int, n: int) -> list:
    """All monomials of total charge s and degree n: offsets k_i - (s-i+1)
    run over the partitions of n, so the component has p(n) elements."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    out = []
    for gamma in partitions(n):
        prefix = tuple(s - i + 1 + gamma[i - 1] for i in range(1, len(gamma) + 1))
        out.append(WedgeMonomial(prefix, s))
    return out


def height(mc) -> int:
    return max((len(comp) for comp in mc), default=0)


def translated_symbol(mc, shifts, h: int) -> tuple:
    """Per-component entry lists B^(i)_j = part_j - j + h + m^(i), j = 1..h,
    missing parts read as 0, for the shift vector `shifts`."""
    if h < height(mc):
        raise ValueError("height %d is below the height of %r" % (h, mc))
    return tuple(tuple(_entries(comp, t, h)) for comp, t in zip(mc, shifts))


def precedes(mu, nu, e: int, l: int, charge) -> bool:
    """The strict a-value preorder on equal-rank l-compositions: compare the
    symbol sums at a common height."""
    if rank(mu) != rank(nu):
        raise ValueError("precedes compares equal ranks only")
    table = AValueTable(e, l, charge, max(height(mu), height(nu)) + 1)
    return table[mu] < table[nu]


# -- the searches the closed forms replaced ------------------------------------

def is_split_semisimple_by_search(e: int, charge, n: int) -> bool:
    """Ariki's criterion by trying every |d| < n on every ordered pair of
    charge entries: O(l^2 n)."""
    if n < 0:
        raise ValueError("rank must be >= 0")
    if n == 0:
        return True
    if e <= n:
        return False
    l = len(charge)
    for i in range(l):
        for j in range(l):
            if i == j:
                continue
            for d in range(-(n - 1), n):
                if (d + charge[i] - charge[j]) % e == 0:
                    return False
    return True


def runner_tail_top_by_search(cutoff: int, b: int, e: int, l: int) -> int:
    """Largest runner-b position with global index <= cutoff, as the best
    over the e bead letters a."""
    best = None
    for a in range(1, e + 1):
        # smallest m with a + e(l-b) - elm <= cutoff
        num = a + e * (l - b) - cutoff
        m = -((-num) // (e * l))  # ceil(num / el)
        v = a - e * m
        if best is None or v > best:
            best = v
    return best


def bar_omegas_by_pairs(factors, e: int, l: int) -> tuple:
    """(omega, omega') of the bar prefactor: the index pairs i < j of the
    word sharing the bead letter a, resp. the runner b, counted pair by
    pair."""
    letters = [factorize(k, e, l) for k in factors]
    omega = omega_p = 0
    for i in range(len(letters)):
        for j in range(i + 1, len(letters)):
            if letters[i][0] == letters[j][0]:
                omega += 1
            if letters[i][1] == letters[j][1]:
                omega_p += 1
    return omega, omega_p


def bar_reversing(engine, u: WedgeMonomial, r: int) -> dict:
    """bar(u) read through its first r factors, for any r >= max(degree,
    prefix length): the r factors reversed, straightened back against the
    tail by engine.straighten_indices, and scaled by (-q)^{omega'}
    q^{-omega}, the pairs counted by bar_omegas_by_pairs.  WedgeEngine.bar
    reverses the least such r; the image is the same for every r."""
    r0 = len(u.prefix)
    assert r >= max(degree(u), r0)
    factors = list(u.prefix) + [u.s - i + 1 for i in range(r0 + 1, r + 1)]
    omega, omega_p = bar_omegas_by_pairs(factors, engine.e, engine.l)
    pref = LaurentPoly({omega_p - omega: (-1) ** omega_p})
    return {wedge_monomial(mono, u.s): pref * c
            for mono, c in engine.straighten_indices(reversed(factors)).items()}


def crystal_image(mp, e: int, charge, target):
    """The label at charge `target` reached from its vacuum by f~_i along
    the colours of a good-node path that peels mp to the vacuum at
    `charge`, both read through ChargedAbacus.signatures.  When the two
    charges have one dominant weight (equal residues mod e, in any order),
    this is the crystal isomorphism between their vacuum components; mp
    must lie in the component at `charge`."""
    n, l = rank(mp), len(charge)
    here, there = ChargedAbacus(e, l, charge, n), ChargedAbacus(e, l, target, n)
    b, colours = here.mask(mp), []
    for _ in range(n):
        normal = here.signatures(b)[1]
        i = min(normal)
        bit = normal[i] & -normal[i]  # the good i-node, the lowest normal bit
        b ^= bit ^ bit >> l
        colours.append(i)
    if b != here.mask(empty_multipartition(l)):
        raise ValueError("%r is not in the vacuum's component at %r" % (mp, charge))
    b = there.mask(empty_multipartition(l))
    for i in reversed(colours):
        bit = there.signatures(b)[0][i]
        b ^= bit ^ bit >> l
    return there.label(b)


def sharp(mp) -> tuple:
    """#mp: every component conjugated, and the components in reverse
    order."""
    return tuple(tuple(sum(p > j for p in comp) for j in range(comp[0] if comp else 0))
                 for comp in reversed(mp))


def mullineux(mp, e: int, charge, target) -> tuple:
    """M(mp), the label at charge `target` that mp's crystal path reaches
    with every colour negated; the Mullineux map takes `target` to be the
    dual (-s_l, ..., -s_1) of `charge`.  The path is FockBasis.peel's steps
    (i, k) from mp down to the vacuum at `charge`, replayed from the vacuum
    at `target` by applying f~_{-i} k times, read through
    ChargedAbacus.signatures.  mp must lie in the vacuum's component at
    `charge`."""
    n, l = rank(mp), len(charge)
    here, steps = FockBasis(e, l, charge, n), []
    b = here.mask(mp)
    while (peeled := here.peel(b)) is not None:
        i, k, b = peeled
        steps.append((i, k))
    if b != here.mask(empty_multipartition(l)):
        raise ValueError("%r is not in the vacuum's component at %r" % (mp, charge))
    there = ChargedAbacus(e, l, target, n)
    b = there.mask(empty_multipartition(l))
    for i, k in reversed(steps):
        for _ in range(k):
            bit = there.signatures(b)[0][-i % e]
            b ^= bit ^ bit >> l
    return there.label(b)


def residue_content(mp, charge, e: int) -> list:
    """beta_i, the number of nodes of mp with residue i, for i in [0, e)."""
    beta = [0] * e
    for c, comp in enumerate(mp, start=1):
        for a, p in enumerate(comp, start=1):
            for b in range(1, p + 1):
                beta[residue((a, b, c), charge, e)] += 1
    return beta


def defect(mp, charge, e: int) -> int:
    """def(beta) = (Lambda|beta) - (beta|beta)/2 for mp's residue content
    beta and Lambda = the sum of Lambda_{s_j mod e}, under the form of the
    affine sl_e Cartan matrix (a_ii = 2, a_{i,i+-1} = -1, or -2 at e = 2)."""
    beta = residue_content(mp, charge, e)
    return (sum(beta[s % e] for s in charge) - sum(x * x for x in beta)
            + sum(beta[i] * beta[(i + 1) % e] for i in range(e)))


def entries(mat) -> dict:
    """{(row, column): entry} of a DecompositionMatrix at q = 1, summed run
    by run from its columns, keeping an entry whose terms cancel as 0."""
    out = {}
    for col, g in mat.columns.items():
        for i in range(0, len(g), 3):
            key = mat.row_of[g[i]], col
            out[key] = out.get(key, 0) + g[i + 2]
    return out


def qentries(mat) -> dict:
    """{(row, column): LaurentPoly} of a DecompositionMatrix, summed run by
    run from its columns; zero entries left out."""
    out = {}
    for col, g in mat.columns.items():
        for i in range(0, len(g), 3):
            _acc(out, (mat.row_of[g[i]], col), LaurentPoly({g[i + 1]: g[i + 2]}))
    return out


def graded_cartan(mat) -> dict:
    """{(mu, nu): {exponent: coefficient}} of c_{mu nu}(q), the sum over
    rows lambda of d_{lambda mu}(q) d_{lambda nu}(q), for every pair of
    columns with a nonzero entry."""
    by_row = {}
    for col, g in mat.columns.items():
        for i in range(0, len(g), 3):
            by_row.setdefault(mat.row_of[g[i]], []).append((col, g[i + 1], g[i + 2]))
    cartan = {}
    for terms in by_row.values():
        for mu, x1, c1 in terms:
            for nu, x2, c2 in terms:
                entry = cartan.setdefault((mu, nu), {})
                entry[x1 + x2] = entry.get(x1 + x2, 0) + c1 * c2
    return {pair: {x: c for x, c in entry.items() if c}
            for pair, entry in cartan.items() if any(entry.values())}


def unpermute(mp, perm):
    """The label lambda with lambda[perm[j]] = mp[j]: sigma^-1 on labels,
    for the sigma that sends lambda to (lambda[perm[0]], lambda[perm[1]],
    ...)."""
    out = [None] * len(perm)
    for j, p in enumerate(perm):
        out[p] = mp[j]
    return tuple(out)


# -- the Jantzen sum formula at level 1 ------------------------------------------


def jantzen_sum(lam, e: int) -> dict:
    """{nu: J_{lam nu}}, the nonzero coefficients of the Jantzen sum of the
    Specht module S^lam at level 1 (James-Mathas, "A q-analogue of the
    Jantzen-Schaper theorem", Proc. London Math. Soc. 74, 1997).  On a
    beta-set B of the partition lam, every pair of beads X > Y and empty
    position G < Y with T = X + Y - G empty gives nu = B - {X, Y} + {G, T},
    with coefficient [e | X - G] - [e | Y - G] times (-1) to the number of
    beads strictly between G and X plus those strictly between Y and T."""
    n = len(lam)
    beads = {p + n - i for i, p in enumerate(lam, start=1)}  # and every position < 0
    out = {}
    for x, y in combinations(sorted(beads, reverse=True), 2):
        for g in range(y):
            t = x + y - g
            c = ((x - g) % e == 0) - ((y - g) % e == 0)
            if not c or g in beads or t in beads:
                continue
            moved = sum(g < b < x for b in beads) + sum(y < b < t for b in beads)
            nu = sorted(beads - {x, y} | {g, t}, reverse=True)
            nu = tuple(p for p in (b - n + i for i, b in enumerate(nu, start=1)) if p)
            out[nu] = out.get(nu, 0) + (-1) ** moved * c
    return {nu: c for nu, c in out.items() if c}


# -- runner removal ----------------------------------------------------------------
#
# Component b of a label at charge s is the set of its beta-numbers
# x = lambda_a - a + s_b, a = 1, 2, ..., placed on an e-runner abacus at row
# x // e of runner x % e.

def runner_row(e: int, charge, mps, full: bool) -> int:
    """k for a new runner under the labels mps at charge: one above the
    highest row that holds a first-row bead of any of them when full, else
    the lowest row of a first gap; below either every row is full."""
    if full:
        return 1 + max((s - 1 + (comp[0] if comp else 0)) // e
                       for mp in mps for comp, s in zip(mp, charge))
    return min((s - max(len(mp[b]) for mp in mps)) // e for b, s in enumerate(charge))


def add_runner(mp, charge, e: int, p: int, k: int) -> tuple:
    """(mp+, charge+): mp's abacus on e + 1 runners, with a new runner
    inserted at index p (0 <= p <= e) that holds a bead in every row below
    k; the runners from p up move one to the right."""
    out, shifted = [], []
    for comp, s in zip(mp, charge):
        low = min((s - len(comp)) // e, k)  # every row below it is full, runner p too
        beads = [r * (e + 1) + p for r in range(low, k)]
        for a in count(1):
            x = (comp[a - 1] if a <= len(comp) else 0) - a + s
            if x < low * e:
                break
            beads.append(x // e * (e + 1) + x % e + (x % e >= p))
        beads.sort(reverse=True)
        s = low * (e + 1) + len(beads)  # the charge of the new bead set
        out.append(tuple(x + a - s for a, x in enumerate(beads, start=1) if x + a > s))
        shifted.append(s)
    return tuple(out), tuple(shifted)
