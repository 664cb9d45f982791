"""The one stable-order search and the one-pass syntactic BFS against
verbatim copies of the code they replaced.

`is_orderable` used to close the seeds (s, t), s < t, in a loop of its own,
and `enumerate_stable_orders` ran a second copy of the seed search over an
n(n-1) list of pairs; both now read `order._stable_orders`. The BFS of
`syntactic_semigroup` used to seed the letters in a loop before the main
loop; it now starts from the empty word. Decisions, witnesses, order lists
and syntactic semigroups must be the same as before.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Collection, Iterable, Optional

import pytest

from eggbox import constructions, core, order
from eggbox.core import BoundExceededError, FiniteSemigroup, from_function
from eggbox.order import (
    Dfa,
    OrderedSemigroup,
    OrderError,
    _close,
    _complete_and_trim,
    _diagonal,
)
from conftest import random_transformation_semigroup, s3_table, small_library
from test_order_differential import random_dfas


# --- the replaced code, copied verbatim (only the public names prefixed) ------

def _stable_order(
    S: FiniteSemigroup,
    seed: tuple[int, int],
    bad: Collection[tuple[int, int]],
    base: Iterable[tuple[int, int]] = (),
) -> Optional[frozenset[tuple[int, int]]]:
    """The closure of base and seed when it is a stable order, else None."""
    rel, violation = _close(S, [seed], stop=True, base=base, bad=bad)
    return None if violation is not None else frozenset(rel) | _diagonal(len(S))


def old_is_orderable(S: FiniteSemigroup) -> tuple[bool, Optional[OrderedSemigroup]]:
    """Does S admit a nontrivial stable partial order?

    The witness is the stable closure of the first orderable seed pair (s, t),
    s != t, in lexicographic order. The closure of (t, s) is the order dual
    of that of (s, t), so the first orderable seed has s < t and only those
    are closed. A failed seed fails inside every closure that reaches it or
    its reverse, so such closures stop there.
    """
    n = len(S)
    bad: set[tuple[int, int]] = set()
    for s in range(n):
        for t in range(s + 1, n):
            rel = _stable_order(S, (s, t), bad)
            if rel is not None:
                return True, OrderedSemigroup(S, rel)
            bad.update(((s, t), (t, s)))
    return False, None


def old_enumerate_stable_orders(
    S: FiniteSemigroup, limit: Optional[int] = None
) -> list[OrderedSemigroup]:
    """All stable partial orders on S, via closure-based search.

    Every stable order is reached from the trivial one by repeatedly closing
    over one extra pair, so a breadth-first search over closures is
    exhaustive. A limit k stops it at the k-th order found; without one the
    carrier is capped at 6 elements. Seeds that fail on the trivial order
    (and their reverses) fail on every base.
    """
    n = len(S)
    if limit is None and n > 6:
        raise BoundExceededError(f"|S|={n} needs an explicit limit")
    if limit is not None and limit < 1:
        raise OrderError(f"limit must be at least 1, got {limit}")
    trivial = _diagonal(n)
    seen = {trivial}
    queue = deque([trivial])
    bad: set[tuple[int, int]] = set()
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    while queue and len(seen) != limit:
        base = queue.popleft()
        for s, t in pairs:
            if (s, t) in base or (s, t) in bad:
                continue
            rel = _stable_order(S, (s, t), bad, base)
            if rel is None:
                if base is trivial:
                    bad.update(((s, t), (t, s)))
            elif rel not in seen:
                seen.add(rel)
                queue.append(rel)
                if len(seen) == limit:
                    break
    return [OrderedSemigroup(S, rel) for rel in sorted(seen, key=sorted)]


def old_syntactic_semigroup(d: Dfa) -> tuple[OrderedSemigroup, dict[str, int]]:
    """The syntactic ordered semigroup of the language of a DFA.

    States of the trimmed DFA that include each other's languages merge into
    one class, a state of the minimal DFA. Elements are the class
    transformations induced by nonempty words; u <= v holds when every
    context accepting v accepts u. Returns the ordered semigroup (labels are
    shortest witness words, a multi-character letter in brackets as in
    terms.term_to_text) and the map from letters to element indices.
    """
    t = _complete_and_trim(d)
    idx = {q: i for i, q in enumerate(t.states)}
    step = {a: [idx[t.transition[(q, a)]] for q in t.states] for a in t.alphabet}

    # incl[p][q]: every word accepted from p is accepted from q
    n = len(t.states)
    acc = [q in t.accepting for q in t.states]
    incl = [[not (acc[p] and not acc[q]) for q in range(n)] for p in range(n)]
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for q in range(n):
                if not incl[p][q]:
                    continue
                for a in t.alphabet:
                    if not incl[step[a][p]][step[a][q]]:
                        incl[p][q] = False
                        changed = True
                        break
    # one class per language, numbered in order of its least state
    least = [next(r for r in range(n) if incl[p][r] and incl[r][p]) for p in range(n)]
    reps = sorted(set(least))
    nq = len(reps)
    letter_tf = {a: tuple(reps.index(least[step[a][r]]) for r in reps) for a in t.alphabet}
    incl = [[incl[p][q] for q in reps] for p in reps]
    text = {a: a if len(a) == 1 else f"[{a}]" for a in t.alphabet}

    transforms: list[tuple[int, ...]] = []
    words: list[str] = []
    pos: dict[tuple[int, ...], int] = {}
    queue = deque()
    for a in t.alphabet:
        tf = letter_tf[a]
        if tf not in pos:
            pos[tf] = len(transforms)
            transforms.append(tf)
            words.append(text[a])
            queue.append(tf)
    while queue:
        tf = queue.popleft()
        w = words[pos[tf]]
        for a in t.alphabet:
            tf2 = tuple(letter_tf[a][tf[q]] for q in range(nq))
            if tf2 not in pos:
                pos[tf2] = len(transforms)
                transforms.append(tf2)
                words.append(w + text[a])
                queue.append(tf2)

    size = len(transforms)
    table = from_function(transforms, lambda f, g: tuple(map(g.__getitem__, f)), words).table
    S = FiniteSemigroup(tuple(words), table, {a: pos[letter_tf[a]] for a in t.alphabet})
    # a stable partial order by construction: incl is reflexive and
    # transitive and preserved by letters, and two class transformations
    # that include each other's languages everywhere are equal
    leq = frozenset(
        (i, j)
        for i in range(size)
        for j in range(size)
        if all(incl[transforms[j][q]][transforms[i][q]] for q in range(nq))
    )
    return OrderedSemigroup(S, leq), {a: pos[letter_tf[a]] for a in t.alphabet}


# --- cases ---------------------------------------------------------------------

def rees_cases():
    z3, s3 = core.cyclic_group(3), s3_table()
    # sandwiches P[b][a], not normalized: entries off the identity in row and column 0
    return {
        "M(2,Z3,2)": constructions.rees_matrix(2, z3, 2, [[1, 0], [2, 1]]),
        "M(3,Z3,2)": constructions.rees_matrix(3, z3, 2, [[0, 2, 1], [1, 1, 0]]),
        "M(2,S3,2)": constructions.rees_matrix(2, s3, 2, [[3, 1], [0, 5]]),
        "M(1,S3,3)": constructions.rees_matrix(1, s3, 3, [[2], [4], [0]]),
    }


@pytest.fixture(scope="module")
def search_cases():
    cases = dict(small_library())
    cases.update({f"K{p}": constructions.k_p(p) for p in (2, 3, 5, 7)})
    cases.update(rees_cases())
    rng = random.Random(1919)
    for i in range(60):
        cases[f"random{i}"] = random_transformation_semigroup(rng, max_size=30, min_size=2)
    return cases


def test_is_orderable_matches_its_own_seed_loop(search_cases):
    orderable = {}
    for name, S in search_cases.items():
        got = order.is_orderable(S)
        assert got == old_is_orderable(S), name
        orderable[name] = got[0]
    random_orderable = sum(v for k, v in orderable.items() if k.startswith("random"))
    assert 20 <= random_orderable < 60
    assert not any(orderable[f"K{p}"] for p in (2, 3, 5, 7))
    assert orderable["U1"] and not orderable["S3"]


def test_enumerate_matches_the_pairs_list_search(search_cases):
    counts = set()
    for name, S in search_cases.items():
        for limit in range(1, 26):
            got = order.enumerate_stable_orders(S, limit=limit)
            old = old_enumerate_stable_orders(S, limit=limit)
            assert [sorted(o.leq) for o in got] == [sorted(o.leq) for o in old], (name, limit)
            assert all(o.semigroup is S for o in got)
        counts.add(len(got))
    # some searches end before the limit, some stop at it
    assert 25 in counts and min(counts) == 1 and len(counts) > 5


@pytest.mark.parametrize("name", ["trivial", "U1", "Z3", "LZ2", "N3", "U1xU1"])
def test_enumerate_without_limit_matches(name):
    S = small_library()[name]
    assert order.enumerate_stable_orders(S) == old_enumerate_stable_orders(S)


def syntactic_parts(syntactic, d):
    os_, gens = syntactic(d)
    S = os_.semigroup
    return S.elements, S.table, S.generators, os_.leq, gens


@pytest.mark.parametrize("seed, count, alphabet", [(1995, 300, ("a", "b", "c")), (2015, 100, ("a", "b", "cd"))])
def test_syntactic_semigroup_matches_the_seeded_bfs(seed, count, alphabet):
    for d in random_dfas(seed, count, alphabet):
        assert syntactic_parts(order.syntactic_semigroup, d) == syntactic_parts(old_syntactic_semigroup, d)
