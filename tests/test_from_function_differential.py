"""Each construction against verbatim copies of the table code it replaced.

`subsemigroup`, `direct_product`, `null_semigroup`, `synthesis`,
`semidirect_product` and `hull_monoid` each used to carry their own
value-to-index map and table loop, and then built their tables through
`core.from_function`; they must give the same semigroups (same labels, same
tables, same identity) and the same errors, except that a set that is not
closed now raises `NotClosedError` with a message naming the first pair that
escapes. `subsemigroup`, `null_semigroup` and `hull_monoid` still use
`from_function`. The products have since moved on to two index-block
builders, each row joined from precomputed runs of consecutive indices:
`core._pair_product` for `direct_product` and `semidirect_product`, and
`constructions._rees_rows` for `rees_matrix` and the triples of `synthesis`.
Their `from_function` versions (and the block-per-construction `synthesis`)
are kept here as the oracles for that.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Iterable, Mapping, Sequence

import pytest

from eggbox import constructions, core, hull
from eggbox.constructions import (
    NotAGroupError,
    NotEndomorphismError,
    NotMonoidHomError,
    PartialFError,
    ShapeMismatchError,
    SynthesisSemigroup,
    _require_group,
)
from eggbox.core import (
    FiniteSemigroup,
    NotClosedError,
    SemigroupError,
    _extend_on_generators,
    adjoin_identity,
    from_function,
    generating_set,
)
from eggbox.hull import Bitranslation, compose
from conftest import random_transformation_semigroup, small_library


# --- the replaced code, copied verbatim (only the public names renamed) --------

def old_subsemigroup(S: FiniteSemigroup, indices: Iterable[int]) -> FiniteSemigroup:
    """Restrict S to a subset that must already be closed under the table."""
    keep = sorted(set(indices))
    pos = {x: i for i, x in enumerate(keep)}
    for x in keep:
        for y in keep:
            if S.table[x][y] not in pos:
                raise NotClosedError(f"subset not closed: {x}*{y} escapes")
    tab = tuple(tuple(pos[S.table[x][y]] for y in keep) for x in keep)
    return FiniteSemigroup(tuple(S.elements[x] for x in keep), tab)


def old_direct_product(S: FiniteSemigroup, T: FiniteSemigroup) -> FiniteSemigroup:
    pairs = [(i, j) for i in range(len(S)) for j in range(len(T))]
    pos = {p: k for k, p in enumerate(pairs)}
    tab = tuple(
        tuple(pos[(S.table[i][x], T.table[j][y])] for (x, y) in pairs) for (i, j) in pairs
    )
    labels = tuple(f"({S.elements[i]},{T.elements[j]})" for (i, j) in pairs)
    return FiniteSemigroup(labels, tab)


def old_null_semigroup(n: int = 2) -> FiniteSemigroup:
    """n elements a1..a_{n-1} and 0, with every product equal to 0."""
    labels = [f"a{i}" for i in range(1, n)] + ["0"]
    zero = n - 1
    tab = tuple(tuple(zero for _ in range(n)) for _ in range(n))
    return FiniteSemigroup(tuple(labels), tab)


def old_synthesis(
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
    carrier = FiniteSemigroup(labels, tab)
    return SynthesisSemigroup(S, T, tuple(fmap), carrier, S1, T1)


def from_function_synthesis(
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
    triples = [(s1, t, s2) for s1 in range(n1) for t in range(nt) for s2 in range(n1)]
    labels = [f"S:{S.elements[s]}" for s in range(ns)] + [
        f"({S1.elements[s1]},{T1.elements[t]},{S1.elements[s2]})" for (s1, t, s2) in triples
    ]
    if len(set(labels)) != len(labels):
        raise SemigroupError("duplicate element labels")
    s1_tab, t1_tab = S1.table, T1.table  # S's rows are S^1's rows restricted to S

    def mul(x: tuple, y: tuple) -> tuple:  # (s,) for s in S, (s1, t, s2) for a triple
        if len(y) == 1:  # s s' or (s1, t, s2 s)
            return x[:-1] + (s1_tab[x[-1]][y[0]],)
        if len(x) == 1:  # (s s1, t, s2)
            return (s1_tab[x[0]][y[0]],) + y[1:]
        return (x[0], t1_tab[t1_tab[x[1]][fmap[s1_tab[x[2]][y[0]]]]][y[1]], y[2])

    carrier = from_function([(s,) for s in range(ns)] + triples, mul, labels)
    return SynthesisSemigroup(S, T, tuple(fmap), carrier, S1, T1)


def old_semidirect_product(
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
    return FiniteSemigroup(labels, tab)


def old_hull_monoid(hull) -> tuple[FiniteSemigroup, list[Bitranslation]]:
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
    return FiniteSemigroup(labels, tuple(tab)), items


def from_function_direct_product(S: FiniteSemigroup, T: FiniteSemigroup) -> FiniteSemigroup:
    pairs = [(i, j) for i in range(len(S)) for j in range(len(T))]
    s_tab, t_tab = S.table, T.table
    labels = [f"({S.elements[i]},{T.elements[j]})" for (i, j) in pairs]
    return from_function(pairs, lambda p, q: (s_tab[p[0]][q[0]], t_tab[p[1]][q[1]]), labels)


def old_rees_sandwich(
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
    ng = len(group)
    P = tuple(tuple(int(v) for v in row) for row in sandwich)
    if len(P) != b_size or any(len(row) != a_size for row in P):
        raise ShapeMismatchError(f"sandwich must be {b_size}x{a_size}")
    for row in P:
        for v in row:
            if not 0 <= v < ng:
                raise ShapeMismatchError(f"sandwich entry {v} is not a group element")
    return P


def from_function_rees_matrix(
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
    P = old_rees_sandwich(a_size, group, b_size, sandwich)
    ng = len(group)
    mul = group.table
    triples = [(a, g, b) for a in range(a_size) for g in range(ng) for b in range(b_size)]
    labels = [f"({a},{group.elements[g]},{b})" for (a, g, b) in triples]
    return from_function(
        triples, lambda x, y: (x[0], mul[mul[x[1]][P[x[2]][y[0]]]][y[1]], y[2]), labels
    )


def block_synthesis(
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
    triples = [(s1, t, s2) for s1 in range(n1) for t in range(nt) for s2 in range(n1)]
    labels = tuple(f"S:{S.elements[s]}" for s in range(ns)) + tuple(
        f"({S1.elements[s1]},{T1.elements[t]},{S1.elements[s2]})" for (s1, t, s2) in triples
    )
    if len(set(labels)) != len(labels):
        raise SemigroupError("duplicate element labels")
    s1_tab, t1_tab = S1.table, T1.table  # S's rows are S^1's rows restricted to S
    chain = itertools.chain.from_iterable
    # (s1, t, s2) has index ns + (s1 nt + t) n1 + s2, so the triples with a
    # given s1 are one range; block[s1][u] lists (s1, u t', s2') over t', s2'
    spans = [tuple(range(ns + s1 * nt * n1, ns + (s1 + 1) * nt * n1)) for s1 in range(n1)]
    block = [[tuple(chain(span[ut * n1:(ut + 1) * n1] for ut in t1_tab[u])) for u in range(nt)]
             for span in spans]
    rows = [
        # s s' = ss', s (s1', t', s2') = (s s1', t', s2')
        tuple(S.table[s]) + tuple(chain(map(spans.__getitem__, s1_tab[s])))
        for s in range(ns)
    ]
    for s1, t, s2 in triples:
        # (s1, t, s2) s' = (s1, t, s2 s'), then (s1, t f(s2 s1') t', s2')
        base, times_t, to_s1 = ns + (s1 * nt + t) * n1, t1_tab[t], block[s1]
        rows.append(tuple(base + x for x in s1_tab[s2][:ns])
                    + tuple(chain(to_s1[times_t[fmap[x]]] for x in s1_tab[s2])))
    carrier = FiniteSemigroup(labels, tuple(rows))
    return SynthesisSemigroup(S, T, tuple(fmap), carrier, S1, T1)


def from_function_semidirect_product(
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
    endos = {}
    for t in range(nt):
        if t not in action:
            raise NotMonoidHomError(f"action undefined on T element {t}")
        img = tuple(action[t])
        if len(img) != ns or any(not 0 <= v < ns for v in img):
            raise NotEndomorphismError(f"action of {t} is not a self-map of S")
        endos[t] = img
    s_tab, t_tab, s_gens = S.table, T.table, generating_set(S)
    for t, img in endos.items():  # an endomorphism is fixed by its values on generators
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

    pairs = [(s, t) for s in range(ns) for t in range(nt)]
    labels = [f"({S.elements[s]},{T.elements[t]})" for (s, t) in pairs]
    return from_function(
        pairs, lambda x, y: (s_tab[x[0]][endos[x[1]][y[0]]], t_tab[x[1]][y[1]]), labels
    )


# --- inputs ----------------------------------------------------------------------

LIBRARY = small_library()


def random_semigroups(count=30, seed=13):
    rng = random.Random(seed)
    return [random_transformation_semigroup(rng, max_size=12) for _ in range(count)]


RANDOM = random_semigroups()
SEMIGROUPS = list(LIBRARY.values()) + RANDOM


def same_semigroup(old: FiniteSemigroup, new: FiniteSemigroup) -> None:
    assert core.to_dict(new) == core.to_dict(old)
    assert new.elements == old.elements and new.generators == old.generators


def outcome(build: Callable[[], object]):
    """The value, or the error's type and message."""
    try:
        return build()
    except SemigroupError as exc:
        return type(exc), str(exc)


# --- subsemigroup -------------------------------------------------------------------

def test_subsemigroup_matches_on_closed_subsets():
    rng = random.Random(21)
    for S in SEMIGROUPS:
        n = len(S)
        subsets = [range(n)] + [
            core.generated_subsemigroup(S, rng.sample(range(n), rng.randint(1, min(3, n))))
            for _ in range(4)
        ]
        for subset in subsets:
            # indices in any order and with repeats
            indices = list(subset) * 2
            rng.shuffle(indices)
            same_semigroup(old_subsemigroup(S, indices), core.subsemigroup(S, indices))


def test_subsemigroup_refuses_the_same_subsets():
    rng = random.Random(22)
    refused = accepted = 0
    for S in SEMIGROUPS:
        for _ in range(6):
            indices = rng.sample(range(len(S)), rng.randint(1, len(S)))
            try:
                old = old_subsemigroup(S, indices)
            except NotClosedError:
                with pytest.raises(NotClosedError, match=r"^not closed: \d+\*\d+ = \d+ is not"):
                    core.subsemigroup(S, indices)
                refused += 1
            else:
                same_semigroup(old, core.subsemigroup(S, indices))
                accepted += 1
    assert refused > 50 and accepted > 10


def test_subsemigroup_names_the_first_pair_the_old_loop_met():
    # the old message named the first escaping pair, row-major over the sorted subset
    rng = random.Random(23)
    compared = 0
    for S in RANDOM:
        indices = rng.sample(range(len(S)), max(1, len(S) // 2))
        try:
            old_subsemigroup(S, indices)
        except NotClosedError as exc:
            x, y = map(int, str(exc).split(": ")[1].split(" ")[0].split("*"))
            with pytest.raises(NotClosedError) as new:
                core.subsemigroup(S, indices)
            assert str(new.value) == (
                f"not closed: {x}*{y} = {S.mul(x, y)} is not among the values"
            )
            compared += 1
    assert compared > 20


# --- direct_product and null_semigroup ------------------------------------------------

def test_direct_product_matches():
    pool = list(LIBRARY.values()) + RANDOM[:10]
    for S, T in itertools.product(pool, repeat=2):
        if len(S) * len(T) <= 60:
            same_semigroup(old_direct_product(S, T), core.direct_product(S, T))


@pytest.mark.parametrize("n", range(1, 8))
def test_null_semigroup_matches(n):
    same_semigroup(old_null_semigroup(n), core.null_semigroup(n))


# --- synthesis ----------------------------------------------------------------------

def synthesis_size(S: FiniteSemigroup, T: FiniteSemigroup) -> int:
    n1 = len(adjoin_identity(S))
    return len(S) + n1 * len(adjoin_identity(T)) * n1


def same_synthesis(old: SynthesisSemigroup, new: SynthesisSemigroup) -> None:
    for field in ("s_part", "t_part", "carrier", "s1", "t1"):
        same_semigroup(getattr(old, field), getattr(new, field))
    assert new.f == old.f
    assert new == old


def synthesis_cases():
    rng = random.Random(31)
    cases = []
    for S, T in itertools.product(SEMIGROUPS, repeat=2):
        if synthesis_size(S, T) > 150:
            continue
        n1, nt1 = len(adjoin_identity(S)), len(adjoin_identity(T))
        f = [rng.randrange(nt1) for _ in range(n1)]
        cases.append((S, T, f))
    return cases


SYNTHESIS_CASES = synthesis_cases()


def test_synthesis_cases_cover_monoid_and_non_monoid_parts():
    monoid = [S.identity is not None for S, _, _ in SYNTHESIS_CASES]
    t_monoid = [T.identity is not None for _, T, _ in SYNTHESIS_CASES]
    assert 40 < sum(monoid) < len(monoid) - 40
    assert 40 < sum(t_monoid) < len(t_monoid) - 40


def test_synthesis_matches():
    for S, T, f in SYNTHESIS_CASES:
        same_synthesis(old_synthesis(S, T, f), constructions.synthesis(S, T, f))
    for S, T, f in SYNTHESIS_CASES[::10]:  # f as a mapping and as a callable
        same_synthesis(old_synthesis(S, T, dict(enumerate(f))),
                       constructions.synthesis(S, T, dict(enumerate(f))))
        same_synthesis(old_synthesis(S, T, f.__getitem__),
                       constructions.synthesis(S, T, f.__getitem__))


def test_synthesis_rows_match_the_from_function_table():
    # the carrier's rows are joined from index blocks; from_function, which
    # built them before, is the oracle
    rng = random.Random(37)
    parts = {"monoid": [], "not a monoid": []}
    for S in SEMIGROUPS + random_semigroups(20, seed=38):
        parts["not a monoid" if S.identity is None else "monoid"].append(S)
    compared = set()
    for _ in range(60):
        kinds = (rng.choice(list(parts)), rng.choice(list(parts)))
        S, T = (rng.choice(parts[kind]) for kind in kinds)
        if synthesis_size(S, T) > 400:
            continue
        n1, nt1 = len(adjoin_identity(S)), len(adjoin_identity(T))
        f = [rng.randrange(nt1) for _ in range(n1)]
        old = from_function_synthesis(S, T, f).carrier
        new = constructions.synthesis(S, T, f).carrier
        assert new.elements == old.elements and new.table == old.table
        compared.add(kinds)
    assert len(compared) == 4


def test_synthesis_triple_index_matches_the_carrier():
    for S, T, f in SYNTHESIS_CASES[::7]:
        syn = constructions.synthesis(S, T, f)
        s1, t1 = syn.s1.elements, syn.t1.elements
        for a, t, b in itertools.product(range(len(s1)), range(len(t1)), range(len(s1))):
            assert syn.carrier.elements[syn.triple_index(a, t, b)] == f"({s1[a]},{t1[t]},{s1[b]})"


def test_synthesis_refuses_the_same_maps():
    z2, n2 = core.cyclic_group(2), core.null_semigroup(2)
    comma = core.from_function([0, 1], min, ["a", "a,a"])  # (a,a,a,a) twice among the triples
    cases = [
        (z2, z2, [0]),
        (z2, z2, [0, 1, 0]),
        (z2, z2, [0, 2]),
        (z2, z2, [-1, 0]),
        (z2, z2, {0: 1}),
        (n2, z2, {0: 1, 1: 0}),
        (n2, z2, lambda x: 5),
        (comma, comma, [0, 0]),
    ]
    for S, T, f in cases:
        old = outcome(lambda: old_synthesis(S, T, f))
        assert isinstance(old, tuple) and issubclass(old[0], SemigroupError)
        assert outcome(lambda: constructions.synthesis(S, T, f)) == old


# --- semidirect_product ---------------------------------------------------------------

def trivial_action(S: FiniteSemigroup, T: FiniteSemigroup) -> dict[int, tuple[int, ...]]:
    return {t: tuple(range(len(S))) for t in range(len(T))}


def multiplier_action(n: int, m: int, u: int) -> dict[int, tuple[int, ...]]:
    """Z_m acting on Z_n by x -> u^t x."""
    return {t: tuple(pow(u, t, n) * x % n for x in range(n)) for t in range(m)}


def unit_actions():
    """(n, m, u) for every unit u of Z_n whose order divides m, n and m up to 8."""
    out = []
    for n, m in itertools.product(range(1, 9), repeat=2):
        for u in (u for u in range(n) if math.gcd(u, n) == 1):
            order = next(k for k in range(1, n + 1) if pow(u, k, n) == 1 % n)
            if m % order == 0:
                out.append((n, m, u))
    return out


def test_semidirect_product_with_the_trivial_action_matches():
    pool = list(LIBRARY.values()) + RANDOM[:8]
    for S, T in itertools.product(pool, repeat=2):
        if len(S) * len(T) <= 60:
            action = trivial_action(S, T)
            same_semigroup(old_semidirect_product(S, T, action),
                           constructions.semidirect_product(S, T, action))


def test_semidirect_product_of_cyclic_groups_matches():
    cases = unit_actions()
    assert len(cases) > 100 and any(u not in (0, 1) for _, _, u in cases)
    for n, m, u in cases:
        S, T = core.cyclic_group(n), core.cyclic_group(m)
        action = multiplier_action(n, m, u)
        same_semigroup(old_semidirect_product(S, T, action),
                       constructions.semidirect_product(S, T, action))


def test_semidirect_product_refuses_the_same_actions():
    z3, z2 = core.cyclic_group(3), core.cyclic_group(2)
    cases = [
        {0: (0, 1, 2)},
        {0: (0, 1, 2), 1: (0, 1)},
        {0: (0, 1, 2), 1: (0, 0, 1)},
        {0: (0, 2, 1), 1: (0, 2, 1)},
    ]
    for action in cases:
        old = outcome(lambda: old_semidirect_product(z3, z2, action))
        assert isinstance(old, tuple) and old[0] in (NotEndomorphismError, NotMonoidHomError)
        assert outcome(lambda: constructions.semidirect_product(z3, z2, action)) == old


# --- hull_monoid ------------------------------------------------------------------------

HULLS = {name: hull.enumerate_hull(S) for name, S in LIBRARY.items() if len(S) <= 8}


def test_hull_monoid_matches():
    assert set(HULLS) == set(LIBRARY)
    for name, H in HULLS.items():
        old_M, old_items = old_hull_monoid(H)
        new_M, new_items = hull.hull_monoid(H)
        same_semigroup(old_M, new_M)
        assert new_items == old_items, name


def test_hull_monoid_refuses_the_same_sets():
    rng = random.Random(41)
    refused = accepted = 0
    for name, H in HULLS.items():
        members = sorted(H)
        for _ in range(5):
            subset = rng.sample(members, rng.randint(1, len(members)))
            try:
                old = old_hull_monoid(subset)
            except SemigroupError:
                with pytest.raises(NotClosedError):
                    hull.hull_monoid(subset)
                refused += 1
            else:
                new = hull.hull_monoid(subset)
                same_semigroup(old[0], new[0])
                assert new[1] == old[1]
                accepted += 1
    assert refused > 20 and accepted > 5


# --- the index-block builders: products and Rees matrices ------------------------------

T3 = core.full_transformation_monoid(3)
S3_IN_T3 = core.subsemigroup(T3, [x for x, m in enumerate(T3.elements) if len(set(m)) == 3])
ONE_ELEMENT = [core.trivial(), core.cyclic_group(1), core.null_semigroup(1)]
GROUPS = [core.trivial(), core.cyclic_group(1), core.cyclic_group(2), core.cyclic_group(3),
          core.cyclic_group(5), S3_IN_T3]


def test_the_unit_group_of_t3_is_non_abelian():
    tab = S3_IN_T3.table
    assert len(S3_IN_T3) == 6 and S3_IN_T3.identity is not None
    assert any(tab[x][y] != tab[y][x] for x in range(6) for y in range(6))


def test_direct_product_matches_the_from_function_version():
    pool = list(LIBRARY.values()) + RANDOM[:12] + ONE_ELEMENT + [S3_IN_T3, T3]
    pairs = [(S, T) for S, T in itertools.product(pool, repeat=2) if len(S) * len(T) <= 120]
    pairs += [(T3, S3_IN_T3), (core.cyclic_group(16), core.cyclic_group(16))]
    assert len(pairs) > 500
    assert any(len(S) == 1 for S, _ in pairs) and any(len(T) == 1 for _, T in pairs)
    for S, T in pairs:
        same_semigroup(from_function_direct_product(S, T), core.direct_product(S, T))


def sign(permutation: str) -> int:
    return (-1) ** sum(a > b for a, b in itertools.combinations(permutation, 2))


def sign_action() -> dict[int, tuple[int, ...]]:
    """The unit group of T3 acting on Z3 by x -> sign(s) x."""
    return {t: tuple(x * sign(label) % 3 for x in range(3))
            for t, label in enumerate(S3_IN_T3.elements)}


def conjugation_action() -> dict[int, tuple[int, ...]]:
    """The unit group of T3 acting on T3 by f -> s f s^-1."""
    action = {}
    for t, label in enumerate(S3_IN_T3.elements):
        s = tuple(map(int, label))
        inverse = tuple(s.index(x) for x in range(3))
        action[t] = tuple(
            T3.index_of("".join(str(s[f[inverse[x]]]) for x in range(3)))
            for f in (tuple(map(int, m)) for m in T3.elements)
        )
    return action


def semidirect_cases():
    pool = list(LIBRARY.values()) + RANDOM[:8] + ONE_ELEMENT
    cases = [(S, T, trivial_action(S, T))
             for S, T in itertools.product(pool, repeat=2) if len(S) * len(T) <= 60]
    cases += [(core.cyclic_group(n), core.cyclic_group(m), multiplier_action(n, m, u))
              for n, m, u in unit_actions()]
    return cases + [(core.cyclic_group(3), S3_IN_T3, sign_action()),
                    (T3, S3_IN_T3, conjugation_action())]


def test_semidirect_product_matches_the_from_function_version():
    cases = semidirect_cases()
    assert len(cases) > 500
    for S, T, action in cases:
        same_semigroup(from_function_semidirect_product(S, T, action),
                       constructions.semidirect_product(S, T, action))


def test_semidirect_products_by_sign_and_conjugation_are_not_direct_products():
    twisted = constructions.semidirect_product(core.cyclic_group(3), S3_IN_T3, sign_action())
    assert twisted.table != core.direct_product(core.cyclic_group(3), S3_IN_T3).table
    twisted = constructions.semidirect_product(T3, S3_IN_T3, conjugation_action())
    assert len(twisted) == 162 and twisted.table != core.direct_product(T3, S3_IN_T3).table


def test_semidirect_product_refuses_like_the_from_function_version():
    z3, z2 = core.cyclic_group(3), core.cyclic_group(2)
    odd = next(t for t, label in enumerate(S3_IN_T3.elements) if sign(label) < 0)
    cases = [
        (z3, z2, {0: (0, 1, 2)}),
        (z3, z2, {0: (0, 1, 2), 1: (0, 1)}),
        (z3, z2, {0: (0, 1, 2), 1: (0, 1, 3)}),
        (z3, z2, {0: (0, 1, 2), 1: (0, 0, 1)}),
        (z3, z2, {0: (0, 2, 1), 1: (0, 2, 1)}),
        (z3, S3_IN_T3, {**sign_action(), odd: (0, 1, 2)}),
    ]
    for S, T, action in cases:
        old = outcome(lambda: from_function_semidirect_product(S, T, action))
        assert isinstance(old, tuple) and old[0] in (NotEndomorphismError, NotMonoidHomError)
        assert outcome(lambda: constructions.semidirect_product(S, T, action)) == old


def rees_cases():
    """M(A, G, B; P) for A, B up to 3 over the GROUPS, two seeded sandwiches each."""
    rng = random.Random(43)
    return [
        (a, G, b, [[rng.randrange(len(G)) for _ in range(a)] for _ in range(b)])
        for G in GROUPS for a, b in itertools.product(range(1, 4), repeat=2) for _ in range(2)
    ]


def test_rees_matrix_matches_the_from_function_version():
    cases = rees_cases()
    assert len(cases) == 108
    for a, G, b, P in cases:
        same_semigroup(from_function_rees_matrix(a, G, b, P),
                       constructions.rees_matrix(a, G, b, P))
    for p in (2, 3, 5, 7, 11):
        rm = constructions.kp_rees(p)
        same_semigroup(from_function_rees_matrix(rm.a_size, rm.group, rm.b_size, rm.sandwich),
                       constructions.k_p(p))


def test_rees_matrix_refuses_like_the_from_function_version():
    z2 = core.cyclic_group(2)
    cases = [
        (0, z2, 1, []),
        (1, z2, 0, []),
        (-1, z2, 10**9, []),
        (1, core.u1(), 1, [[0]]),
        (2, z2, 2, [[0, 0]]),
        (2, z2, 2, [[0, 0], [0]]),
        (2, z2, 1, [[0, 2]]),
        (1, S3_IN_T3, 2, [[0], [-1]]),
    ]
    for a, G, b, P in cases:
        old = outcome(lambda: from_function_rees_matrix(a, G, b, P))
        assert isinstance(old, tuple) and old[0] in (ShapeMismatchError, NotAGroupError)
        assert outcome(lambda: constructions.rees_matrix(a, G, b, P)) == old


def test_rees_rows_match_from_function_over_any_semigroup_table():
    # synthesis calls the builder over T^1, which need not be a group, and shifted by |S|
    rng = random.Random(47)
    for G in list(LIBRARY.values()) + RANDOM[:12] + ONE_ELEMENT:
        a, b, offset = rng.randint(1, 3), rng.randint(1, 3), rng.randrange(5)
        P = [[rng.randrange(len(G)) for _ in range(a)] for _ in range(b)]
        mul = G.table
        triples = [(x, g, y) for x in range(a) for g in range(len(G)) for y in range(b)]
        oracle = from_function(
            triples, lambda p, q: (p[0], mul[mul[p[1]][P[p[2]][q[0]]]][q[1]], q[2]))
        assert constructions._rees_rows(offset, a, G.table, b, P) == [
            tuple(offset + v for v in row) for row in oracle.table]


def test_synthesis_matches_the_block_version():
    rng = random.Random(53)
    extra = [(S, T) for S in ONE_ELEMENT + [S3_IN_T3] for T in ONE_ELEMENT + [S3_IN_T3, T3]]
    cases = SYNTHESIS_CASES + [
        (S, T, [rng.randrange(len(adjoin_identity(T))) for _ in range(len(adjoin_identity(S)))])
        for S, T in extra
    ]
    for S, T, f in cases:
        same_synthesis(block_synthesis(S, T, f), constructions.synthesis(S, T, f))
    for S, T, f in cases[::10]:  # f as a mapping and as a callable
        same_synthesis(block_synthesis(S, T, dict(enumerate(f))),
                       constructions.synthesis(S, T, dict(enumerate(f))))
        same_synthesis(block_synthesis(S, T, f.__getitem__),
                       constructions.synthesis(S, T, f.__getitem__))
