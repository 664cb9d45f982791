"""Explicit semigroup constructions.

Rees matrix semigroups M(A, G, B; P), the 4p-element semigroups K_p, the
synthesis semigroup M(S, T, f) = S + S^1 x T^1 x S^1, the subsemigroup
gadgets realizing K_p^1 inside a synthesis semigroup, and semidirect
products S x| T.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .core import (
    FiniteSemigroup,
    SemigroupError,
    adjoin_identity,
    cyclic_group,
    direct_product,
    omega_power,
    record,
    subsemigroup,
    _find_identity,
)
from .green import ReesMatrixSemigroup


class NotAGroupError(SemigroupError):
    pass


class ShapeMismatchError(SemigroupError):
    pass


class NotPrimeError(SemigroupError):
    pass


class PartialFError(SemigroupError):
    pass


class NotMonoidHomError(SemigroupError):
    pass


class NotEndomorphismError(SemigroupError):
    pass


def _require_group(G: FiniteSemigroup) -> None:
    """G has an identity e and x^w = e for every x (so x^(w-1) inverts x)."""
    e = G.identity
    if e is None:
        raise NotAGroupError("no identity element")
    for x in range(len(G)):
        if omega_power(G, x) != e:
            raise NotAGroupError(f"element {x} has no inverse")


def rees_matrix(
    a_size: int,
    group: FiniteSemigroup,
    b_size: int,
    sandwich: Sequence[Sequence[int]],
) -> FiniteSemigroup:
    """M(A, G, B; P) with (a,g,b)(a',g',b') = (a, g P(b,a') g', b').

    Elements are ordered lexicographically by (a, g, b); labels show the
    triples. The result is completely simple by construction, so no
    associativity rescan is performed.
    """
    if a_size < 1 or b_size < 1:
        raise ShapeMismatchError(f"index sets must be nonempty, got a={a_size}, b={b_size}")
    _require_group(group)
    ng = len(group)
    P = tuple(tuple(int(v) for v in row) for row in sandwich)
    if len(P) != b_size or any(len(row) != a_size for row in P):
        raise ShapeMismatchError(f"sandwich must be {b_size}x{a_size}")
    for row in P:
        for v in row:
            if not 0 <= v < ng:
                raise ShapeMismatchError(f"sandwich entry {v} is not a group element")

    idx = rees_indexer(ng, b_size)
    triples = [(a, g, b) for a in range(a_size) for g in range(ng) for b in range(b_size)]
    tab = []
    for (a, g, b) in triples:
        row = [0] * len(triples)
        for (a2, g2, b2) in triples:
            row[idx(a2, g2, b2)] = idx(a, group.table[group.table[g][P[b][a2]]][g2], b2)
        tab.append(tuple(row))
    labels = tuple(f"({a},{group.elements[g]},{b})" for (a, g, b) in triples)
    return FiniteSemigroup(labels, tuple(tab), None, None)


def rees_indexer(ng: int, b_size: int) -> Callable[[int, int, int], int]:
    """The index of (a, g, b) in rees_matrix's lexicographic element order,
    for a group of order ng and b_size L-classes."""
    return lambda a, g, b: (a * ng + g) * b_size + b


def realize(rm: ReesMatrixSemigroup) -> FiniteSemigroup:
    return rees_matrix(rm.a_size, rm.group, rm.b_size, rm.sandwich)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def kp_rees(p: int) -> ReesMatrixSemigroup:
    if not _is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    return ReesMatrixSemigroup(2, 2, cyclic_group(p), ((0, 0), (0, 1)))


def k_p(p: int) -> FiniteSemigroup:
    """The 4p-element completely simple semigroup M({0,1}, Z/p, {0,1}; [[0,0],[0,1]])."""
    return realize(kp_rees(p))


@record
class SynthesisSemigroup:
    """M(S, T, f) = S + S^1 x T^1 x S^1 with multiplication threaded via f."""

    s_part: FiniteSemigroup
    t_part: FiniteSemigroup
    f: tuple[int, ...]  # S^1 index -> T^1 index
    carrier: FiniteSemigroup
    s1: FiniteSemigroup
    t1: FiniteSemigroup

    def s_index(self, s: int) -> int:
        return s

    def triple_index(self, s1: int, t: int, s2: int) -> int:
        n1 = len(self.s1)
        nt = len(self.t1)
        return len(self.s_part) + (s1 * nt + t) * n1 + s2


def synthesis(
    S: FiniteSemigroup,
    T: FiniteSemigroup,
    f: Mapping[int, int] | Sequence[int] | Callable[[int], int],
) -> SynthesisSemigroup:
    """Build M(S, T, f) for a total map f: S^1 -> T^1.

    S^1 and T^1 use adjoin-only-if-needed semantics. The four multiplication
    rules are:

        s . s'                  = ss'
        s . (s1, t, s2)         = (s s1, t, s2)
        (s1, t, s2) . s         = (s1, t, s2 s)
        (s1, t, s2) . (s1', t', s2') = (s1, t f(s2 s1') t', s2')

    The carrier is associative for every f, since both bracketings of a
    product of three triples give (s1, t f(s2 r1) u f(r2 q1) v, q2); so it
    is not rescanned.
    """
    S1 = adjoin_identity(S)
    T1 = adjoin_identity(T)
    n1, nt = len(S1), len(T1)
    if callable(f):
        fmap = [f(x) for x in range(n1)]
    elif isinstance(f, Mapping):
        try:
            fmap = [f[x] for x in range(n1)]
        except KeyError as exc:
            raise PartialFError(f"f undefined on S^1 element {exc.args[0]}") from None
    else:
        fmap = list(f)
        if len(fmap) != n1:
            raise PartialFError(f"f must cover all {n1} elements of S^1")
    for v in fmap:
        if not 0 <= v < nt:
            raise PartialFError(f"f value {v} is not a T^1 element")

    ns = len(S)
    ntrip = n1 * nt * n1

    def tri(s1: int, t: int, s2: int) -> int:
        return ns + (s1 * nt + t) * n1 + s2

    size = ns + ntrip
    tab = [[0] * size for _ in range(size)]
    triples = [(s1, t, s2) for s1 in range(n1) for t in range(nt) for s2 in range(n1)]
    for s in range(ns):
        for s2 in range(ns):
            tab[s][s2] = S.table[s][s2]
        for (s1, t, s2) in triples:
            tab[s][tri(s1, t, s2)] = tri(S1.table[s][s1], t, s2)
            tab[tri(s1, t, s2)][s] = tri(s1, t, S1.table[s2][s])
    for (s1, t, s2) in triples:
        me = tri(s1, t, s2)
        for (r1, u, r2) in triples:
            mid = T1.table[T1.table[t][fmap[S1.table[s2][r1]]]][u]
            tab[me][tri(r1, u, r2)] = tri(s1, mid, r2)

    labels = tuple(f"S:{S.elements[s]}" for s in range(ns)) + tuple(
        f"({S1.elements[s1]},{T1.elements[t]},{S1.elements[s2]})" for (s1, t, s2) in triples
    )
    if len(set(labels)) != size:
        raise SemigroupError("duplicate element labels")
    tab = tuple(map(tuple, tab))
    carrier = FiniteSemigroup(labels, tab, None, _find_identity(tab))
    return SynthesisSemigroup(S, T, tuple(fmap), carrier, S1, T1)


def bullet_gadget(p: int) -> FiniteSemigroup:
    """A copy of K_p^1 carved out of a synthesis semigroup over Z/p.

    For odd p this is {0} + {0,1} x G x {0,1} inside M(G, G, g) with
    g(2) = 1 and g = 0 elsewhere; for p = 2 the top group is G x G and the
    map h sends (1,1) to 1.
    """
    if not _is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    G = cyclic_group(p)
    if p != 2:
        g = [1 if x == 2 else 0 for x in range(p)]
        syn = synthesis(G, G, g)
        front = [0, 1]
        back = [0, 1]
        zero = syn.s_index(0)
    else:
        GG = direct_product(G, G)
        # product elements in lex order: (0,0)=0, (0,1)=1, (1,0)=2, (1,1)=3
        h = [1 if x == 3 else 0 for x in range(4)]
        syn = synthesis(GG, G, h)
        front = [0, 2]  # (0,0), (1,0)
        back = [0, 1]   # (0,0), (0,1)
        zero = syn.s_index(0)
    keep = [zero] + [
        syn.triple_index(s1, t, s2)
        for s1 in front
        for t in range(p)
        for s2 in back
    ]
    return subsemigroup(syn.carrier, keep)


def semidirect_product(
    S: FiniteSemigroup,
    T: FiniteSemigroup,
    action: Mapping[int, Sequence[int]],
) -> FiniteSemigroup:
    """S x| T for an action of T^1 on S by endomorphisms.

    `action` maps each T element index to the image tuple of its
    endomorphism of S (the adjoined identity of T^1, when T is not a monoid,
    acts as the identity map and need not be supplied). Multiplication is
    (s1, t1)(s2, t2) = (s1 * (t1 . s2), t1 t2).
    """
    ns, nt = len(S), len(T)
    endos = {}
    for t in range(nt):
        if t not in action:
            raise NotMonoidHomError(f"action undefined on T element {t}")
        img = tuple(action[t])
        if len(img) != ns or any(not 0 <= v < ns for v in img):
            raise NotEndomorphismError(f"action of {t} is not a self-map of S")
        endos[t] = img
    for t, img in endos.items():
        for x in range(ns):
            for y in range(ns):
                if img[S.table[x][y]] != S.table[img[x]][img[y]]:
                    raise NotEndomorphismError(
                        f"action of {t} is not an endomorphism at ({x},{y})"
                    )
    ident = tuple(range(ns))
    if T.identity is not None and endos[T.identity] != ident:
        raise NotMonoidHomError("identity of T must act as the identity map")
    for t1 in range(nt):
        for t2 in range(nt):
            composed = tuple(endos[t1][endos[t2][x]] for x in range(ns))
            if endos[T.table[t1][t2]] != composed:
                raise NotMonoidHomError(
                    f"action is not a monoid homomorphism at ({t1},{t2})"
                )

    pairs = [(s, t) for s in range(ns) for t in range(nt)]
    pos = {p: i for i, p in enumerate(pairs)}
    tab = tuple(
        tuple(
            pos[(S.table[s1][endos[t1][s2]], T.table[t1][t2])] for (s2, t2) in pairs
        )
        for (s1, t1) in pairs
    )
    labels = tuple(f"({S.elements[s]},{T.elements[t]})" for (s, t) in pairs)
    return FiniteSemigroup(labels, tab, None, _find_identity(tab))
