"""Translations, bitranslations, the translational hull, and kernel actions.

A left translation satisfies lam(st) = lam(s)t, a right translation
(st)rho = s(t)rho, and a linked pair additionally s lam(t) = (s)rho t.
Composition in the hull is (lam1 o lam2, rho2 o rho1), which makes
s -> (lam_s, rho_s) a homomorphism.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import itemgetter

from .core import (
    FiniteSemigroup,
    BoundExceededError,
    SemigroupError,
    opposite,
    generating_set,
    record,
    small_generating_set,
    _extend_on_generators,
    _find_identity,
)
from .green import (
    ReesMatrixSemigroup,
    NotCompletelySimpleError,
    green_structure,
    is_completely_simple,
    kernel,
)
from .constructions import realize, rees_indexer


@record(order=True)
class Bitranslation:
    lam: tuple[int, ...]
    rho: tuple[int, ...]


def inner_bitranslation(S: FiniteSemigroup, s: int) -> Bitranslation:
    return Bitranslation(S.table[s], tuple(row[s] for row in S.table))


def left_translations(S: FiniteSemigroup) -> list[tuple[int, ...]]:
    """All maps lam with lam(st) = lam(s)t, in lexicographic order of their
    values on small_generating_set(S).

    A left translation is determined by its values on a generating set,
    since lam(xg) = lam(x)g; each assignment of values is extended and
    checked along the right Cayley graph (core._extend_on_generators).
    """
    gens = small_generating_set(S)
    maps = (
        _extend_on_generators(S.table, gens, values, S.table, gens)
        for values in itertools.product(range(len(S)), repeat=len(gens))
    )
    return [lam for lam in maps if lam is not None]


def right_translations(S: FiniteSemigroup) -> list[tuple[int, ...]]:
    """All maps rho with (st)rho = s(t)rho: the left translations of the
    opposite semigroup."""
    return left_translations(opposite(S))


def _linked(S: FiniteSemigroup, lam: tuple[int, ...], rho: tuple[int, ...]) -> bool:
    """s lam(g) = (s)rho g for every s and every generator g. That suffices:
    since lam is a left translation, the t with s lam(t) = (s)rho t for all s
    are closed under products, s lam(tu) = s lam(t)u = (s)rho tu."""
    table = S.table
    return all(row[lam[g]] == table[r][g] for g in generating_set(S) for row, r in zip(table, rho))


def enumerate_hull(S, bound: int = 8) -> frozenset[Bitranslation]:
    """All bitranslations of S, by brute force over translation candidates.

    A ReesMatrixSemigroup argument is routed to the parametrized
    enumeration, which has no size bound.
    """
    if isinstance(S, ReesMatrixSemigroup):
        return enumerate_hull_rees(S)
    if len(S) > bound:
        raise BoundExceededError(f"|S|={len(S)} exceeds brute-force bound {bound}")
    lams = left_translations(S)
    rhos = right_translations(S)
    return frozenset(
        Bitranslation(lam, rho) for lam in lams for rho in rhos if _linked(S, lam, rho)
    )


def enumerate_hull_rees(rm: ReesMatrixSemigroup) -> frozenset[Bitranslation]:
    """Bitranslations of a Rees matrix semigroup via the parametrized form.

    Left translations are (a,g,b) -> (phi(a), mu(a)g, b) and right
    translations (a,g,b) -> (a, g nu(b), psi(b)); a pair is linked exactly
    when nu(b) P(psi(b), a) = P(b, phi(a)) mu(a) for all a, b. The equation
    for one b involves only psi(b) and nu(b), so the rights linked to a left
    are the product over b of the values (psi(b), nu(b)) whose row
    (nu(b) P(psi(b), a))_a equals (P(b, phi(a)) mu(a))_a.
    """
    A, B, G, P = rm.a_size, rm.b_size, rm.group, rm.sandwich
    ng = len(G)
    n = len(realize(rm))  # realize also checks the group and the sandwich
    idx = rees_indexer(ng, B)

    rights = {}
    for psi in itertools.product(range(B), repeat=B):
        for nu in itertools.product(range(ng), repeat=B):
            rho = [0] * n
            for a in range(A):
                for g in range(ng):
                    for b in range(B):
                        rho[idx(a, g, b)] = idx(a, G.table[g][nu[b]], psi[b])
            rights[psi, nu] = tuple(rho)
    links: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for p in range(B):
        for v in range(ng):
            row = tuple(G.table[v][P[p][a]] for a in range(A))
            links.setdefault(row, []).append((p, v))

    out = set()
    for phi in itertools.product(range(A), repeat=A):
        for mu in itertools.product(range(ng), repeat=A):
            options = [
                links.get(tuple(G.table[P[b][phi[a]]][mu[a]] for a in range(A)), ())
                for b in range(B)
            ]
            if not all(options):
                continue
            lam = [0] * n
            for a in range(A):
                for g in range(ng):
                    for b in range(B):
                        lam[idx(a, g, b)] = idx(phi[a], G.table[mu[a]][g], b)
            lam = tuple(lam)
            for choice in itertools.product(*options):
                psi, nu = zip(*choice)
                out.add(Bitranslation(lam, rights[psi, nu]))
    return frozenset(out)


def compose(x: Bitranslation, y: Bitranslation) -> Bitranslation:
    n = len(x.lam)
    return Bitranslation(
        tuple(x.lam[y.lam[i]] for i in range(n)),
        tuple(y.rho[x.rho[i]] for i in range(n)),
    )


def hull_monoid(hull) -> tuple[FiniteSemigroup, list[Bitranslation]]:
    """The hull as an abstract monoid under pair composition.

    Returns the table (elements sorted for determinism) together with the
    ordering used. Raises if the given set is not closed.
    """
    items = sorted(hull)
    pos = {bt: i for i, bt in enumerate(items)}
    tab = []
    for x in items:
        row = []
        for y in items:
            z = compose(x, y)
            if z not in pos:
                raise SemigroupError("set of bitranslations is not closed under composition")
            row.append(pos[z])
        tab.append(tuple(row))
    labels = tuple(f"b{i}" for i in range(len(items)))
    return FiniteSemigroup(labels, tuple(tab), None, _find_identity(tuple(tab))), items


@record
class KernelRepresentation:
    """Left and right action of every element on the minimum ideal."""

    kernel: tuple[int, ...]
    lambda_of: tuple[tuple[int, ...], ...]  # element -> self-map of kernel positions
    rho_of: tuple[tuple[int, ...], ...]


def kernel_representation(S: FiniteSemigroup) -> KernelRepresentation:
    ker = tuple(sorted(kernel(S)))
    pos = {k: i for i, k in enumerate(ker)}
    n = len(S)
    lam = tuple(tuple(pos[S.table[s][k]] for k in ker) for s in range(n))
    rho = tuple(tuple(pos[S.table[k][s]] for k in ker) for s in range(n))
    return KernelRepresentation(ker, lam, rho)


def classify(S: FiniteSemigroup) -> dict:
    """LM / RM / GGM / WGGM flags of the action of S on its kernel.

    WGGM fails exactly when some element outside the kernel shares its left
    or its right action with another element. Actions are only counted, so
    each is read unnumbered off a row (s k)_k or column (k s)_k of the table.
    """
    ker = kernel(S)
    n = len(S)
    on_kernel = itemgetter(*ker)
    left = list(map(on_kernel, S.table))
    right = list(map(on_kernel, zip(*S.table)))
    lams, rhos = Counter(left), Counter(right)
    wggm = all(lams[left[u]] == 1 and rhos[right[u]] == 1 for u in range(n) if u not in ker)
    lm, rm = len(lams) == n, len(rhos) == n
    return {"lm": lm, "rm": rm, "ggm": lm and rm, "wggm": wggm}


def reductivity(S: FiniteSemigroup) -> dict:
    """Injectivity of the canonical maps into translations of S itself."""
    n = len(S)
    lams, rhos = S.table, list(zip(*S.table))  # s -> row s, column s
    right_red = len(set(lams)) == n
    left_red = len(set(rhos)) == n
    weak = len(set(zip(lams, rhos))) == n
    return {
        "right_reductive": right_red,
        "left_reductive": left_red,
        "weakly_reductive": weak,
    }


def torsion_checks(S: FiniteSemigroup) -> dict:
    """Torsion predicates of a completely simple semigroup.

    has_torsion: S is not a rectangular group, i.e. fails x y^w x^w = x.
    That holds exactly when some product ef of idempotents is not idempotent:
    at x = e, y = f the identity gives efe = e, so (ef)^2 = ef; conversely a
    completely simple semigroup whose idempotents form a subsemigroup is a
    rectangular group.
    full_torsion: at least two R- and two L-classes, and ef idempotent
    forces ef in {e, f}.
    plenty_left: for distinct R-equivalent idempotents e, f there is an
    idempotent g in the L-class of e with fg != e; plenty_right is dual.
    """
    if not is_completely_simple(S):
        raise NotCompletelySimpleError("torsion predicates need a completely simple semigroup")
    gs = green_structure(S)
    table = S.table
    idem = S.idempotents()
    has_torsion = False
    # every R- and L-class of a completely simple semigroup holds an idempotent
    full = len(set(gs.r_class)) >= 2 and len(set(gs.l_class)) >= 2
    for e in idem:
        for f in idem:
            ef = table[e][f]
            if table[ef][ef] != ef:
                has_torsion = True
            elif ef != e and ef != f:
                full = False

    def plenty(same, other, prod) -> bool:
        """For distinct idempotents e, f in one `same` class, some idempotent
        g in the `other` class of e has prod(f, g) != e."""
        by_other: dict[int, list[int]] = {}
        for g in idem:
            by_other.setdefault(other[g], []).append(g)
        return all(
            any(prod(f, g) != e for g in by_other[other[e]])
            for e in idem
            for f in idem
            if f != e and same[f] == same[e]
        )

    return {
        "has_torsion": has_torsion,
        "full_torsion": full,
        "plenty_left": plenty(gs.r_class, gs.l_class, lambda f, g: table[f][g]),
        "plenty_right": plenty(gs.l_class, gs.r_class, lambda f, g: table[g][f]),
    }
