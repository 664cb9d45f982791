"""Translations, bitranslations, the translational hull, and kernel actions.

A left translation satisfies lam(st) = lam(s)t, a right translation
(st)rho = s(t)rho, and a linked pair additionally s lam(t) = (s)rho t.
Composition in the hull is (lam1 o lam2, rho2 o rho1), which makes
s -> (lam_s, rho_s) a homomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    FiniteSemigroup,
    BoundExceededError,
    SemigroupError,
    omega_power,
    opposite,
    generating_set,
    small_generating_set,
    _extend_on_generators,
    _find_identity,
)
from .green import (
    ReesMatrixSemigroup,
    NotCompletelySimpleError,
    is_completely_simple,
    kernel,
)
from .constructions import realize


@dataclass(frozen=True, order=True)
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
    S = realize(rm)
    n = len(S)

    def idx(a: int, g: int, b: int) -> int:
        return (a * ng + g) * B + b

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


@dataclass(frozen=True)
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
    """LM / RM / GGM / WGGM flags of the action of S on its kernel."""
    rep = kernel_representation(S)
    n = len(S)
    lm = len(set(rep.lambda_of)) == n
    rm = len(set(rep.rho_of)) == n
    ker = set(rep.kernel)
    wggm = True
    for u in range(n):
        for v in range(u + 1, n):
            apart = rep.lambda_of[u] != rep.lambda_of[v] and rep.rho_of[u] != rep.rho_of[v]
            if not (apart or (u in ker and v in ker)):
                wggm = False
                break
        if not wggm:
            break
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
    full_torsion: at least two R- and two L-classes, and ef idempotent
    forces ef in {e, f}.
    plenty_left: for distinct R-equivalent idempotents e, f there is an
    idempotent g in the L-class of e with fg != e; plenty_right is dual.
    """
    if not is_completely_simple(S):
        raise NotCompletelySimpleError("torsion predicates need a completely simple semigroup")
    n = len(S)
    idem = S.idempotents()
    omega = [omega_power(S, x) for x in range(n)]

    has_torsion = False
    for x in range(n):
        if has_torsion:
            break
        row = S.table[x]
        xw = omega[x]
        for y in range(n):
            if S.table[row[omega[y]]][xw] != x:
                has_torsion = True
                break

    # for idempotents, e R f iff ef = f and fe = e (L dual); in a completely
    # simple semigroup every element is R- and L-equivalent to its omega
    # power, so class counts over idempotents are class counts over S
    def r_eq(e, f):
        return S.table[e][f] == f and S.table[f][e] == e

    def l_eq(e, f):
        return S.table[e][f] == e and S.table[f][e] == f

    n_r = sum(1 for i, e in enumerate(idem) if not any(r_eq(e, f) for f in idem[:i]))
    n_l = sum(1 for i, e in enumerate(idem) if not any(l_eq(e, f) for f in idem[:i]))

    full = n_r >= 2 and n_l >= 2
    if full:
        for e in idem:
            for f in idem:
                ef = S.table[e][f]
                if S.is_idempotent(ef) and ef not in (e, f):
                    full = False
                    break
            if not full:
                break

    plenty_left = True
    for e in idem:
        for f in idem:
            if e == f or not r_eq(e, f):
                continue
            if not any(S.table[f][g] != e for g in idem if l_eq(g, e)):
                plenty_left = False
                break
        if not plenty_left:
            break

    plenty_right = True
    for e in idem:
        for f in idem:
            if e == f or not l_eq(e, f):
                continue
            if not any(S.table[g][f] != e for g in idem if r_eq(g, e)):
                plenty_right = False
                break
        if not plenty_right:
            break

    return {
        "has_torsion": has_torsion,
        "full_torsion": full,
        "plenty_left": plenty_left,
        "plenty_right": plenty_right,
    }
