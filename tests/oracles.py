"""Independent routes the tests check the library against.

Nothing in `src/` calls these; they are kept deliberately simple so that a
fault in the optimized code cannot hide in them as well.
"""

from qfock.abacus import WedgeMonomial
from qfock.laurent import ONE, _acc


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


def index_sum(u: WedgeMonomial, depth: int) -> int:
    """Sum of the first `depth` indices; conserved by straightening when the
    compared monomials share s."""
    ks = list(u.prefix) + [u.s - i + 1 for i in range(len(u.prefix) + 1, depth + 1)]
    return sum(ks[:depth])
