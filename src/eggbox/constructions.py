"""Explicit semigroup constructions.

Rees matrix semigroups M(A, G, B; P), the 4p-element semigroups K_p, the
synthesis semigroup M(S, T, f) = S + S^1 x T^1 x S^1, the subsemigroup
gadgets realizing K_p^1 inside a synthesis semigroup, and semidirect
products S x| T.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Mapping, Sequence

from .core import (
    FiniteSemigroup,
    SemigroupError,
    _extend_on_generators,
    _pair_product,
    adjoin_identity,
    cyclic_group,
    direct_product,
    generating_set,
    omega_power,
    record,
    subsemigroup,
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


def rees_sandwich(
    a_size: int,
    group: FiniteSemigroup,
    b_size: int,
    sandwich: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    """The sandwich of M(A, G, B; P) as int tuples, after checking that the
    index sets are nonempty, G is a group and P is a B x A matrix over G."""
    if a_size < 1 or b_size < 1:
        raise ShapeMismatchError(f"index sets must be nonempty, got a={a_size}, b={b_size}")
    _require_group(group)
    P = tuple(tuple(int(v) for v in row) for row in sandwich)
    if len(P) != b_size or any(len(row) != a_size for row in P):
        raise ShapeMismatchError(f"sandwich must be {b_size}x{a_size}")
    for v in chain.from_iterable(P):
        if not 0 <= v < len(group):
            raise ShapeMismatchError(f"sandwich entry {v} is not a group element")
    return P


def _rees_rows(offset: int, a_size: int, g_tab, b_size: int, P) -> list[tuple[int, ...]]:
    """The rows of M(A, G, B; P) over any semigroup table g_tab, with (a, g, b) at
    offset + (a |G| + g) |B| + b, and (a, g, b)(a', g', b') = (a, g P[b][a'] g', b')."""
    ng = len(g_tab)
    # cells[a][g] lists (a, g, b) over b, and block[a][u] lists (a, u g', b') over g', b'
    cells = [[tuple(range(offset + (a * ng + g) * b_size, offset + (a * ng + g + 1) * b_size))
              for g in range(ng)] for a in range(a_size)]
    block = [[tuple(chain.from_iterable(map(cell.__getitem__, row))) for row in g_tab]
             for cell in cells]
    return [tuple(chain.from_iterable(map(block[a].__getitem__, map(g_tab[g].__getitem__, P[b]))))
            for a in range(a_size) for g in range(ng) for b in range(b_size)]


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
    P = rees_sandwich(a_size, group, b_size, sandwich)
    labels = tuple(f"({a},{g},{b})"
                   for a in range(a_size) for g in group.elements for b in range(b_size))
    return FiniteSemigroup(labels, tuple(_rees_rows(0, a_size, group.table, b_size, P)))


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
        return len(self.s_part) + (s1 * len(self.t1) + t) * len(self.s1) + s2


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
    ns, n1, nt = len(S), len(S1), len(T1)
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

    triples = [(s1, t, s2) for s1 in range(n1) for t in range(nt) for s2 in range(n1)]
    labels = tuple(f"S:{s}" for s in S.elements) + tuple(
        f"({S1.elements[s1]},{T1.elements[t]},{S1.elements[s2]})" for (s1, t, s2) in triples)
    if len(set(labels)) != len(labels):
        raise SemigroupError("duplicate element labels")
    s1_tab, m = S1.table, nt * n1  # S's rows are S^1's rows restricted to S
    span = range(ns, ns + n1 * m)  # (s1, t, s2) is at ns + (s1 nt + t) n1 + s2
    # s s' = ss', s (s1', t', s2') = (s s1', t', s2')
    rows = [tuple(S.table[s]) + tuple(chain.from_iterable(span[x * m:][:m] for x in s1_tab[s]))
            for s in range(ns)]
    # (s1, t, s2) s' = (s1, t, s2 s'); the triples multiply as M(S^1, T^1, S^1; f(s2 s1'))
    triple_rows = _rees_rows(ns, n1, T1.table, n1, [[fmap[x] for x in row] for row in s1_tab])
    rows += [tuple(ns + (s1 * nt + t) * n1 + x for x in s1_tab[s2][:ns]) + row
             for (s1, t, s2), row in zip(triples, triple_rows)]
    carrier = FiniteSemigroup(labels, tuple(rows))
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
        syn = synthesis(G, G, [1 if x == 2 else 0 for x in range(p)])
        front = back = [0, 1]
    else:
        # (s, t) in G x G is 2s + t: h(1,1) = 1, front (0,0), (1,0) and back (0,0), (0,1)
        syn = synthesis(direct_product(G, G), G, [1 if x == 3 else 0 for x in range(4)])
        front, back = [0, 2], [0, 1]
    keep = [syn.s_index(0)] + [
        syn.triple_index(s1, t, s2) for s1 in front for t in range(p) for s2 in back
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
    (s1, t1)(s2, t2) = (s1 * (t1 . s2), t1 t2). Both laws of the action are
    checked on generators; a failure names the first failing pair, row-major.
    """
    ns, nt = len(S), len(T)
    endos = []
    for t in range(nt):
        if t not in action:
            raise NotMonoidHomError(f"action undefined on T element {t}")
        img = tuple(action[t])
        if len(img) != ns or any(not 0 <= v < ns for v in img):
            raise NotEndomorphismError(f"action of {t} is not a self-map of S")
        endos.append(img)
    s_tab, t_tab, s_gens = S.table, T.table, generating_set(S)
    for t, img in enumerate(endos):  # an endomorphism is fixed by its values on generators
        on_gens = [img[g] for g in s_gens]
        if _extend_on_generators(s_tab, s_gens, on_gens, s_tab, on_gens) != img:
            x, y = next((x, y) for x in range(ns) for y in range(ns)
                        if img[s_tab[x][y]] != s_tab[img[x]][img[y]])
            raise NotEndomorphismError(f"action of {t} is not an endomorphism at ({x},{y})")
    if T.identity is not None and endos[T.identity] != tuple(range(ns)):
        raise NotMonoidHomError("identity of T must act as the identity map")
    breaks = lambda t1, t2: endos[t_tab[t1][t2]] != tuple(map(endos[t1].__getitem__, endos[t2]))
    # the u with endos[tu] = endos[t] o endos[u] for every t are closed under products
    if any(breaks(t, g) for g in generating_set(T) for t in range(nt)):
        t1, t2 = next((t1, t2) for t1 in range(nt) for t2 in range(nt) if breaks(t1, t2))
        raise NotMonoidHomError(f"action is not a monoid homomorphism at ({t1},{t2})")
    return _pair_product(S, T, endos)
