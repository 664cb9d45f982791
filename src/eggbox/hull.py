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
from typing import Iterator

from .core import (
    FiniteSemigroup,
    BoundExceededError,
    from_function,
    opposite,
    generating_set,
    record,
    small_generating_set,
    _extend_on_generators,
    omega_tables,
)
from .green import (
    ReesMatrixSemigroup,
    NotCompletelySimpleError,
    green_structure,
    is_completely_simple,
    kernel,
)
from .constructions import rees_sandwich


@record(order=True)
class Bitranslation:
    lam: tuple[int, ...]
    rho: tuple[int, ...]


def inner_bitranslation(S: FiniteSemigroup, s: int) -> Bitranslation:
    return Bitranslation(S.table[s], S.columns[s])


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


def linked_translations(S: FiniteSemigroup, bound: int = 8) -> Iterator[tuple[tuple[int, ...], list]]:
    """Each left translation lam, by brute force, with the right translations
    rho linked to it: s lam(g) = (s)rho g for every s and generator g. That
    suffices, since the t with s lam(t) = (s)rho t for all s are closed under
    products, s lam(tu) = s lam(t)u = (s)rho tu. So the rho are grouped once by
    their signature ((s)rho g)_{g,s}, and each lam looks up (s lam(g))_{g,s}."""
    if len(S) > bound:
        raise BoundExceededError(f"|S|={len(S)} exceeds brute-force bound {bound}")
    columns, gens = S.columns, generating_set(S)
    by_signature: dict[tuple, list] = {}
    for rho in right_translations(S):
        by_signature.setdefault(tuple(tuple(map(columns[g].__getitem__, rho)) for g in gens), []).append(rho)
    for lam in left_translations(S):
        yield lam, by_signature.get(tuple(columns[lam[g]] for g in gens), [])


def enumerate_hull(S, bound: int = 8) -> frozenset[Bitranslation]:
    """All bitranslations of S, from linked_translations.

    A ReesMatrixSemigroup argument is routed to the parametrized
    enumeration, which has no size bound.
    """
    if isinstance(S, ReesMatrixSemigroup):
        return enumerate_hull_rees(S)
    return frozenset(Bitranslation(lam, rho) for lam, rhos in linked_translations(S, bound) for rho in rhos)


def rees_hull_parameters(rm: ReesMatrixSemigroup) -> Iterator[tuple]:
    """The (phi, mu, psi, nu) of every bitranslation of a Rees matrix
    semigroup M(A, G, B; P), by solving the linking equations (Petrich, "The
    translational hull of a completely 0-simple semigroup", 1968).

    Left translations are (a,g,b) -> (phi(a), mu(a)g, b) and right
    translations (a,g,b) -> (a, g nu(b), psi(b)); a pair is linked exactly
    when nu(b) P(psi(b), a) = P(b, phi(a)) mu(a) for all a, b. Fix phi, psi
    and m = mu(0). The equations at a = 0 force
    nu(b) = P(b, phi(0)) m P(psi(b), 0)^-1, then those at b = 0 force
    mu(a) = P(0, phi(a))^-1 nu(0) P(psi(0), a), and the rest are checked.
    A linked pair fixes phi, mu, psi and nu, hence (phi, psi, mu(0)), and
    that triple forces the rest: each linked pair is yielded exactly once, in
    A^A B^B |G| A B steps. The input is checked as rees_matrix checks it,
    without building the table.
    """
    A, B, G = rm.a_size, rm.b_size, rm.group
    P = rees_sandwich(A, G, B, rm.sandwich)
    mul, inv, ng = G.table, omega_tables(G)[1], len(G)  # x^(w-1) inverts x in a group
    for phi in itertools.product(range(A), repeat=A):
        for psi in itertools.product(range(B), repeat=B):
            for m in range(ng):
                nu = [mul[mul[P[b][phi[0]]][m]][inv[P[psi[b]][0]]] for b in range(B)]
                mu = [mul[mul[inv[P[0][phi[a]]]][nu[0]]][P[psi[0]][a]] for a in range(A)]
                if all(mul[nu[b]][P[psi[b]][a]] == mul[P[b][phi[a]]][mu[a]]
                       for a in range(A) for b in range(B)):
                    yield phi, mu, psi, nu


def enumerate_hull_rees(rm: ReesMatrixSemigroup) -> frozenset[Bitranslation]:
    """Bitranslations from rees_hull_parameters; (a, g, b) is element (a*ng + g)*B + b."""
    A, B, mul, ng = rm.a_size, rm.b_size, rm.group.table, len(rm.group)
    return frozenset(
        Bitranslation(
            tuple((phi[a] * ng + h) * B + b for a in range(A) for h in mul[mu[a]] for b in range(B)),
            tuple((a * ng + mul[g][nu[b]]) * B + psi[b] for a in range(A) for g in range(ng) for b in range(B)),
        )
        for phi, mu, psi, nu in rees_hull_parameters(rm)
    )


def compose(x: Bitranslation, y: Bitranslation) -> Bitranslation:
    n = len(x.lam)
    return Bitranslation(
        tuple(x.lam[y.lam[i]] for i in range(n)),
        tuple(y.rho[x.rho[i]] for i in range(n)),
    )


def hull_monoid(hull) -> tuple[FiniteSemigroup, list[Bitranslation]]:
    """The hull as an abstract monoid under pair composition.

    Returns the table (elements sorted for determinism) together with the
    ordering used. Raises NotClosedError if the given set is not closed.
    """
    items = sorted(hull)
    return from_function(items, compose, [f"b{i}" for i in range(len(items))]), items


@record
class KernelRepresentation:
    """Left and right action of every element on the minimum ideal."""

    kernel: tuple[int, ...]
    lambda_of: tuple[tuple[int, ...], ...]  # element -> self-map of kernel positions
    rho_of: tuple[tuple[int, ...], ...]


def kernel_representation(S: FiniteSemigroup) -> KernelRepresentation:
    ker = tuple(sorted(kernel(S)))
    pos = {k: i for i, k in enumerate(ker)}
    lam = tuple(tuple(pos[row[k]] for k in ker) for row in S.table)
    rho = tuple(tuple(pos[col[k]] for k in ker) for col in S.columns)
    return KernelRepresentation(ker, lam, rho)


def classify(S: FiniteSemigroup) -> dict:
    """LM / RM / GGM / WGGM flags of the action of S on its kernel.

    WGGM fails exactly when some element outside the kernel shares its left
    or its right action with another element. Actions are only counted, so
    each is read unnumbered off a row (s k)_k or column (k s)_k of the table.
    """
    ker = kernel(S)
    n = len(S)
    if len(ker) == n:  # the whole rows and columns are the actions
        left, right = S.table, S.columns
    else:
        on_kernel = itemgetter(*ker)
        left, right = list(map(on_kernel, S.table)), list(map(on_kernel, S.columns))
    lams, rhos = Counter(left), Counter(right)
    wggm = all(lams[left[u]] == 1 and rhos[right[u]] == 1 for u in range(n) if u not in ker)
    lm, rm = len(lams) == n, len(rhos) == n
    return {"lm": lm, "rm": rm, "ggm": lm and rm, "wggm": wggm}


def reductivity(S: FiniteSemigroup) -> dict:
    """Injectivity of the canonical maps into translations of S itself."""
    n = len(S)
    row_ids: dict = {}  # the distinct rows and columns, numbered: each hashed once
    col_ids: dict = {}
    rows = [row_ids.setdefault(row, len(row_ids)) for row in S.table]
    cols = [col_ids.setdefault(col, len(col_ids)) for col in S.columns]
    return {
        "right_reductive": len(row_ids) == n,
        "left_reductive": len(col_ids) == n,
        "weakly_reductive": len(set(zip(rows, cols))) == n,
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
