"""Green's relations, kernels, Rees coordinates, and structural predicates.

On finite semigroups D = J, so only R, L, J, H are computed. Class ids are
assigned in order of least member, which keeps everything deterministic.
"""

from __future__ import annotations

from operator import add
from typing import Mapping

from .core import (
    FiniteSemigroup,
    GeneratorsDoNotGenerateError,
    SemigroupError,
    adjoin_identity,
    generated_subsemigroup,
    generating_set,
    omega_minus_one,
    record,
    subsemigroup,
    _is_int,
    _require_list,
    from_dict as semigroup_from_dict,
    to_dict as semigroup_to_dict,
)


class NotCompletelySimpleError(SemigroupError):
    pass


class NotIdempotentError(SemigroupError):
    pass


@record
class GreenStructure:
    r_class: tuple[int, ...]
    l_class: tuple[int, ...]
    j_class: tuple[int, ...]
    h_class: tuple[int, ...]
    j_order: frozenset[tuple[int, int]]  # (lower, higher) pairs of J-class ids
    kernel_class: int
    regular: tuple[bool, ...]  # indexed by J-class id


@record
class ReesMatrixSemigroup:
    """Coordinatized completely simple semigroup M(A, G, B; P).

    sandwich is a b_size x a_size matrix of group element indices; when
    produced by rees_coordinatize, the first row and column hold the group
    identity.
    """

    a_size: int
    b_size: int
    group: FiniteSemigroup
    sandwich: tuple[tuple[int, ...], ...]


def green_structure(S: FiniteSemigroup) -> GreenStructure:
    """Green's R, L, J, H classes and the J-order, computed once per S."""
    return S._derive("green", _green_structure)


def _green_structure(S: FiniteSemigroup) -> GreenStructure:
    """R-, L- and J-classes as the strongly connected components of the right,
    left and two-sided Cayley graphs over the generating set A: xS^1 is x and
    every x a1..ak, so y lies in xS^1 exactly when the right graph has a path
    from x to y (S^1x and S^1xS^1 likewise). The J-order is reachability in
    the two-sided condensation, whose unique sink is the minimum ideal."""
    table, columns, gens = S.table, S.columns, generating_set(S)
    right = list(zip(*(columns[g] for g in gens)))  # x -> xa
    left = list(zip(*(table[g] for g in gens)))  # x -> ax
    two = list(map(add, right, left))
    r = _least_member_ids(_sccs(right))
    l = _least_member_ids(_sccs(left))
    comp = _sccs(two)
    j = _least_member_ids(comp)
    h = _least_member_ids(list(zip(r, l)))

    # components complete sinks first, so every edge leads to a component
    # numbered no higher, and each reach set is built from finished ones
    below: list[set[int]] = [set() for _ in range(max(comp) + 1)]
    for c, succ in zip(comp, two):
        below[c].update(map(comp.__getitem__, succ))
    reach: list[set[int]] = []
    for c, out in enumerate(below):
        reach.append({c}.union(*(reach[d] for d in out if d != c)))
    j_of = dict(zip(comp, j))
    order = frozenset((j_of[a], j_of[b]) for b, down in enumerate(reach) for a in down)
    regular = [False] * len(reach)
    for e in S.idempotents():
        regular[j[e]] = True
    return GreenStructure(r, l, j, h, order, j_of[0], tuple(regular))


def _sccs(successors: list[tuple[int, ...]]) -> list[int]:
    """The strongly connected components of the graph with edges x -> y for y
    in successors[x], by Tarjan's algorithm (1972) without recursion: comp[x]
    numbers x's component in the order the components complete, so an edge
    never leads to a component numbered higher."""
    n = len(successors)
    index, low, comp = [-1] * n, [0] * n, [-1] * n
    stack: list[int] = []
    count = visited = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        path = [(root, iter(successors[root]))]
        while path:
            x, todo = path[-1]
            for y in todo:
                if index[y] < 0:  # descend; x's remaining edges wait in todo
                    index[y] = low[y] = visited
                    visited += 1
                    stack.append(y)
                    path.append((y, iter(successors[y])))
                    break
                if comp[y] < 0 and index[y] < low[x]:  # y is still on the stack
                    low[x] = index[y]
            else:
                path.pop()
                if low[x] == index[x]:
                    while True:
                        y = stack.pop()
                        comp[y] = count
                        if y == x:
                            break
                    count += 1
                if path and low[x] < low[path[-1][0]]:
                    low[path[-1][0]] = low[x]
    return comp


def _least_member_ids(keys) -> tuple[int, ...]:
    """Renumber the classes given by `keys` in order of least member."""
    ids: dict = {}
    return tuple(ids.setdefault(k, len(ids)) for k in keys)


def kernel(S: FiniteSemigroup) -> frozenset[int]:
    """The minimum ideal: elements of the least J-class, found once per S."""
    return S._derive("kernel", _kernel)


def _kernel(S: FiniteSemigroup) -> frozenset[int]:
    gs = green_structure(S)
    return frozenset(x for x in range(len(S)) if gs.j_class[x] == gs.kernel_class)


def is_completely_simple(S: FiniteSemigroup) -> bool:
    """Is S simple, i.e. a single J-class? For finite S this is equivalent to
    x(yx)^w = x for all x, y."""
    return max(green_structure(S).j_class) == 0


def maximal_subgroup(S: FiniteSemigroup, e: int) -> FiniteSemigroup:
    """The H-class of an idempotent e, as a group with identity e."""
    if not S.is_idempotent(e):
        raise NotIdempotentError(f"element {e} is not idempotent")
    gs = green_structure(S)
    members = [x for x in range(len(S)) if gs.h_class[x] == gs.h_class[e]]
    return subsemigroup(S, members)


def rees_coordinatize(S: FiniteSemigroup) -> tuple[ReesMatrixSemigroup, tuple[tuple[int, int, int], ...]]:
    """Rees coordinates of a completely simple semigroup.

    Picks the idempotent e of least index; A and B list the R- and L-classes
    with e's classes first; G is the H-class of e. The sandwich matrix is
    normalized so that the row and column through e hold the identity.
    Returns the coordinate system and, for each element of S, its (a, g, b)
    triple.
    """
    if not is_completely_simple(S):
        raise NotCompletelySimpleError("semigroup is not completely simple")
    gs = green_structure(S)
    table = S.table
    e = min(S.idempotents())
    r_e, l_e = gs.r_class[e], gs.l_class[e]
    a_of = {c: i for i, c in enumerate(dict.fromkeys((r_e, *gs.r_class)))}
    b_of = {c: i for i, c in enumerate(dict.fromkeys((l_e, *gs.l_class)))}
    least: dict[tuple[int, int], int] = {}  # least member of each H-class
    for x, rl in enumerate(zip(gs.r_class, gs.l_class)):
        least.setdefault(rl, x)

    h_members = sorted(x for x, h in enumerate(gs.h_class) if h == gs.h_class[e])
    G = subsemigroup(S, h_members)
    g_of = {x: i for i, x in enumerate(h_members)}

    # r_a in R_a meet L_e, normalized so that e*r_a = e; q_b dual.
    r_reps = []
    for cls in a_of:
        r = least[cls, l_e]
        r_reps.append(table[r][omega_minus_one(S, table[e][r])])
    q_reps = []
    for cls in b_of:
        q = least[r_e, cls]
        q_reps.append(table[omega_minus_one(S, table[q][e])][q])

    sandwich = tuple(tuple(g_of[table[q][r]] for r in r_reps) for q in q_reps)
    # s = r_a g q_b (Rees's theorem) gives e s e = g, since e r_a = e = q_b e and g lies in H_e
    coords = []
    for s in range(len(S)):
        a, b = a_of[gs.r_class[s]], b_of[gs.l_class[s]]
        coords.append((a, g_of[table[table[e][s]][e]], b))
    rm = ReesMatrixSemigroup(len(a_of), len(b_of), G, sandwich)
    return rm, tuple(coords)


def is_equidivisible(S: FiniteSemigroup):
    """Exhaustive check of equidivisibility; returns (bool, counterexample).

    The counterexample, when present, is a quadruple (s, t, u, v) of indices
    with s*t = u*v but no w in S^1 completing either s*w = u, w*v = t or
    u*w = s, v = w*t.
    """
    tab, n = adjoin_identity(S).table, len(S)  # S^1's rows restricted to S are S's rows
    by_product: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # uv -> every (u, v), row-major
    for u in range(n):
        for v in range(n):
            by_product[tab[u][v]].append((u, v))
    for s in range(n):
        for t in range(n):
            for u, v in by_product[tab[s][t]]:
                if not any((tab[s][w] == u and tab[w][v] == t) or (tab[u][w] == s and tab[w][t] == v)
                           for w in range(len(tab))):
                    return False, (s, t, u, v)
    return True, None


def letter_cancelative(S: FiniteSemigroup, gen_map: Mapping[str, int]) -> dict:
    """Right/left letter cancellativity over the images of gen_map.

    Right: for every generator image a, sa = ta implies s = t; left is dual.
    Witnesses are (letter, s, t) triples. The images must generate S.
    """
    if generated_subsemigroup(S, gen_map.values()) != frozenset(range(len(S))):
        raise GeneratorsDoNotGenerateError("letter images must generate the semigroup")
    out = {"right": True, "left": True, "right_witness": None, "left_witness": None}
    for letter, a in gen_map.items():
        for side, images in (("right", S.columns[a]), ("left", S.table[a])):  # s -> sa, s -> as
            if out[side]:
                first: dict[int, int] = {}  # each image's first index
                pairs = ((first.setdefault(x, t), t) for t, x in enumerate(images))
                least = min(((s, t) for s, t in pairs if s != t), default=None)
                if least:
                    out[side], out[f"{side}_witness"] = False, (letter, *least)
    return out


# --- Rees JSON ---------------------------------------------------------------

def rees_to_dict(rm: ReesMatrixSemigroup) -> dict:
    return {
        "a": rm.a_size,
        "b": rm.b_size,
        "group": semigroup_to_dict(rm.group),
        "sandwich": [list(row) for row in rm.sandwich],
    }


def rees_from_dict(obj: Mapping) -> ReesMatrixSemigroup:
    """Rees matrix semigroup from its JSON object: 'a' and 'b' positive
    integers, 'group' a semigroup object, 'sandwich' a list of lists of
    integers. Errors name the offending path, e.g. sandwich[0][1]."""
    if not isinstance(obj, Mapping):
        raise SemigroupError("Rees JSON must be an object")
    for key in ("a", "b", "group", "sandwich"):
        if key not in obj:
            raise SemigroupError(f"Rees JSON needs {key!r}")
    for key in ("a", "b"):
        if not _is_int(obj[key]) or obj[key] < 1:
            raise SemigroupError(f"{key} must be a positive integer, got {obj[key]!r}")
    group = semigroup_from_dict(obj["group"])
    return ReesMatrixSemigroup(obj["a"], obj["b"], group, sandwich_from_json(obj["sandwich"]))


def sandwich_from_json(value) -> tuple[tuple[int, ...], ...]:
    """A sandwich matrix from JSON data: a list of lists of integers (bool and
    float rejected), errors naming the entry, e.g. sandwich[0][1]."""
    _require_list(value, "sandwich", lambda row: isinstance(row, list), "a list of integers")
    for i, row in enumerate(value):
        _require_list(row, f"sandwich[{i}]", _is_int, "an integer")
    return tuple(map(tuple, value))
