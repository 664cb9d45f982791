"""`order.ordered` and `order.syntactic_semigroup` against verbatim copies
of the code they replaced.

`ordered` used to check transitivity over all pairs of pairs and stability
pair by pair; then it asked whether the stable closure adds a pair; it now
checks one-step compositions and products with the generators, and runs the
closure only to name the pair it adds.
`syntactic_semigroup` used to minimize the DFA by Moore refinement before
computing the state-inclusion relation; it now merges the states that
include each other. Both must give the same answers as before.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable

import pytest

from eggbox import constructions, core, order
from eggbox.core import FiniteSemigroup
from eggbox.order import Dfa, OrderedSemigroup, OrderError, _complete_and_trim
from conftest import random_transformation_semigroup, small_library


# --- the replaced code, copied verbatim (only the two public names renamed) ---

def old_ordered(S: FiniteSemigroup, pairs: Iterable[tuple[int, int]]) -> OrderedSemigroup:
    """Build an OrderedSemigroup, verifying all order axioms and stability."""
    n = len(S)
    leq = {(int(a), int(b)) for a, b in pairs} | {(x, x) for x in range(n)}
    for a, b in leq:
        if not (0 <= a < n and 0 <= b < n):
            raise OrderError(f"pair ({a},{b}) out of range")
        if a != b and (b, a) in leq:
            raise OrderError(f"not antisymmetric at ({a},{b})")
    for a, b in leq:
        for c, d in leq:
            if b == c and (a, d) not in leq:
                raise OrderError(f"not transitive: ({a},{b}) and ({c},{d})")
    for a, b in leq:
        for u in range(n):
            if (S.table[u][a], S.table[u][b]) not in leq:
                raise OrderError(f"not left stable at u={u}, pair ({a},{b})")
            if (S.table[a][u], S.table[b][u]) not in leq:
                raise OrderError(f"not right stable at u={u}, pair ({a},{b})")
    return OrderedSemigroup(S, frozenset(leq))


def closure_ordered(S: FiniteSemigroup, pairs: Iterable[tuple[int, int]]) -> OrderedSemigroup:
    """Build an OrderedSemigroup, verifying all order axioms and stability:
    a reflexive antisymmetric relation is a stable order exactly when its
    stable closure adds no pair (the error names the least pair it adds)."""
    n = len(S)
    leq = {(int(a), int(b)) for a, b in pairs} | {(x, x) for x in range(n)}
    for a, b in leq:
        if not (0 <= a < n and 0 <= b < n):
            raise OrderError(f"pair ({a},{b}) out of range")
        if a != b and (b, a) in leq:
            raise OrderError(f"not antisymmetric at ({a},{b})")
    added = order.stable_closure(S, leq)[0] - leq
    if added:
        a, b = min(added)
        raise OrderError(f"not transitive and stable: its stable closure adds ({a},{b})")
    return OrderedSemigroup(S, frozenset(leq))


def _minimize(d: Dfa) -> Dfa:
    d = _complete_and_trim(d)
    block = {q: (q in d.accepting) for q in d.states}
    while True:
        sig = {
            q: (block[q],) + tuple(block[d.transition[(q, a)]] for a in d.alphabet)
            for q in d.states
        }
        ids: dict = {}
        for q in d.states:
            ids.setdefault(sig[q], len(ids))
        new_block = {q: ids[sig[q]] for q in d.states}
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    reps: dict[int, str] = {}
    for q in d.states:
        reps.setdefault(block[q], q)
    states = tuple(f"c{c}" for c in sorted(reps))
    trans = {
        (f"c{c}", a): f"c{block[d.transition[(reps[c], a)]]}"
        for c in sorted(reps)
        for a in d.alphabet
    }
    accepting = frozenset(f"c{c}" for c, q in reps.items() if q in d.accepting)
    return Dfa(states, d.alphabet, trans, f"c{block[d.initial]}", accepting)


def old_syntactic_semigroup(d: Dfa) -> tuple[OrderedSemigroup, dict[str, int]]:
    """The syntactic ordered semigroup of the language of a DFA.

    Elements are the state transformations of the minimized DFA induced by
    nonempty words; u <= v holds when every context accepting v accepts u.
    Returns the ordered semigroup (element labels are shortest witness
    words) and the map from letters to element indices.
    """
    m = _minimize(d)
    idx = {q: i for i, q in enumerate(m.states)}
    nq = len(m.states)
    letter_tf = {
        a: tuple(idx[m.transition[(q, a)]] for q in m.states) for a in m.alphabet
    }

    transforms: list[tuple[int, ...]] = []
    words: list[str] = []
    pos: dict[tuple[int, ...], int] = {}
    queue = deque()
    for a in m.alphabet:
        tf = letter_tf[a]
        if tf not in pos:
            pos[tf] = len(transforms)
            transforms.append(tf)
            words.append(a)
            queue.append(tf)
    while queue:
        tf = queue.popleft()
        w = words[pos[tf]]
        for a in m.alphabet:
            tf2 = tuple(letter_tf[a][tf[q]] for q in range(nq))
            if tf2 not in pos:
                pos[tf2] = len(transforms)
                transforms.append(tf2)
                words.append(w + a)
                queue.append(tf2)

    size = len(transforms)
    table = tuple(
        tuple(
            pos[tuple(transforms[j][transforms[i][q]] for q in range(nq))]
            for j in range(size)
        )
        for i in range(size)
    )
    S = FiniteSemigroup(tuple(words), table, {a: pos[letter_tf[a]] for a in m.alphabet})

    # acc_incl[p][q]: every word accepted from p is accepted from q
    acc = [m.states[p] in m.accepting for p in range(nq)]
    incl = [[not (acc[p] and not acc[q]) for q in range(nq)] for p in range(nq)]
    changed = True
    while changed:
        changed = False
        for p in range(nq):
            for q in range(nq):
                if not incl[p][q]:
                    continue
                for a in m.alphabet:
                    if not incl[letter_tf[a][p]][letter_tf[a][q]]:
                        incl[p][q] = False
                        changed = True
                        break
    # a stable partial order by construction: incl is reflexive and
    # transitive and preserved by letters, and two transformations that
    # include each other's languages everywhere are equal in a minimal DFA
    leq = frozenset(
        (i, j)
        for i in range(size)
        for j in range(size)
        if all(incl[transforms[j][q]][transforms[i][q]] for q in range(nq))
    )
    return OrderedSemigroup(S, leq), {a: pos[letter_tf[a]] for a in m.alphabet}


# --- syntactic_semigroup -------------------------------------------------------

def random_dfa(rng, alphabet, partial):
    states = [f"q{i}" for i in range(rng.randint(1, 4))]
    alphabet = alphabet[: rng.randint(1, len(alphabet))]
    trans = {
        (q, a): rng.choice(states)
        for q in states
        for a in alphabet
        if not partial or rng.random() < 0.7
    }
    accepting = [q for q in states if rng.random() < 0.5]
    return order.dfa(states, alphabet, trans, rng.choice(states), accepting)


def random_dfas(seed, count, alphabet=("a", "b", "c")):
    """`count` seeded DFAs, complete and partial in turn, each followed by
    its concat_letter with the first letter."""
    rng = random.Random(seed)
    for i in range(count):
        d = random_dfa(rng, list(alphabet), partial=i % 2 == 1)
        yield d
        yield order.concat_letter(d, alphabet[0])


def syntactic_output(syntactic, d):
    os_, gens = syntactic(d)
    return core.to_dict(os_.semigroup, order=os_.leq), gens


def test_syntactic_semigroup_matches_minimize_then_include():
    merged = partial = nontrivial = 0
    for d in random_dfas(1995, 300):
        obj, gens = syntactic_output(order.syntactic_semigroup, d)
        assert (obj, gens) == syntactic_output(old_syntactic_semigroup, d), order.dfa_to_dict(d)
        merged += len(_minimize(d).states) < len(_complete_and_trim(d).states)
        partial += len(d.transition) < len(d.states) * len(d.alphabet)
        nontrivial += any(a != b for a, b in obj["order"])
    # the cases exercise merged states, added sinks and nontrivial orders
    assert merged > 100 and partial > 100 and nontrivial > 150


def test_multi_character_letters_change_only_the_labels():
    # the old labels glued letters together; the new ones bracket "cd"
    labelled = 0
    for d in random_dfas(2015, 100, alphabet=("a", "b", "cd")):
        obj, gens = syntactic_output(order.syntactic_semigroup, d)
        old, old_gens = syntactic_output(old_syntactic_semigroup, d)
        assert [e.replace("[cd]", "cd") for e in obj["elements"]] == old["elements"]
        assert dict(obj, elements=None) == dict(old, elements=None) and gens == old_gens
        assert len(set(obj["elements"])) == len(obj["elements"])
        labelled += any("[cd]" in e for e in obj["elements"])
    assert labelled > 20


# --- ordered ---------------------------------------------------------------------

def ordered_outcome(ordered, S, pairs):
    try:
        return ordered(S, pairs)
    except OrderError as exc:
        return str(exc)


def relations(S, rng):
    """Seeded relations on S: its stable orders (up to 12), its orderability
    witness, each of those less one off-diagonal pair, and random pair sets,
    now and then with an index out of range."""
    n = len(S)
    orders = [o.leq for o in order.enumerate_stable_orders(S, limit=12)]
    ok, witness = order.is_orderable(S)
    if ok:
        orders.append(witness.leq)
    out = list(orders)
    for leq in orders:
        off = sorted(p for p in leq if p[0] != p[1])
        for p in rng.sample(off, min(len(off), 6)):
            out.append(leq - {p})
    for _ in range(12):
        top = n + (rng.random() < 0.1)
        out.append({(rng.randrange(top), rng.randrange(top)) for _ in range(rng.randint(0, 2 * n))})
    return [sorted(r) for r in out]


@pytest.fixture(scope="module")
def ordered_cases():
    rng = random.Random(509)
    cases = [S for S in small_library().values() if len(S) <= 12]
    cases += [constructions.k_p(2), core.left_zero(3), core.right_zero(3)]
    cases += [random_transformation_semigroup(rng, max_size=12, min_size=2) for _ in range(25)]
    return [(S, pairs) for S in cases for pairs in relations(S, rng)]


def test_ordered_matches_the_pairwise_checks(ordered_cases):
    kinds = {"accepted": 0, "early": 0, "closure": 0}
    for S, pairs in ordered_cases:
        new, old = ordered_outcome(order.ordered, S, pairs), ordered_outcome(old_ordered, S, pairs)
        if isinstance(old, OrderedSemigroup):
            assert new == old, pairs
            kinds["accepted"] += 1
        elif old.startswith(("pair ", "not antisymmetric")):
            # range and antisymmetry are checked first, as before
            assert new == old, pairs
            kinds["early"] += 1
        else:
            leq = set(pairs) | {(x, x) for x in range(len(S))}
            a, b = min(order.stable_closure(S, pairs)[0] - leq)
            assert new == f"not transitive and stable: its stable closure adds ({a},{b})"
            kinds["closure"] += 1
    assert min(kinds.values()) > 100, kinds


def test_ordered_names_the_least_pair_the_closure_adds():
    # every partial order on a left-zero semigroup is stable, so only
    # transitivity fails: 0 <= 1 <= 2 <= 3 closes by adding (0,2), (0,3), (1,3)
    with pytest.raises(OrderError, match=r"its stable closure adds \(0,2\)$"):
        order.ordered(core.left_zero(4), [(2, 3), (1, 2), (0, 1)])
    # on Z2 the pair (0,1) is not stable: its closure adds (1,0)
    with pytest.raises(OrderError, match=r"its stable closure adds \(1,0\)$"):
        order.ordered(core.cyclic_group(2), [(0, 1)])


def transitive_closure(pairs, n):
    leq = set(pairs) | {(x, x) for x in range(n)}
    while True:
        more = {(a, d) for a, b in leq for c, d in leq if b == c} - leq
        if not more:
            return leq
        leq |= more


def test_ordered_matches_the_closure_test(ordered_cases):
    # the stable orders, their one-pair deletions and random relations, plus
    # random partial orders: transitive, so only stability can fail
    rng = random.Random(514)
    cases = list(ordered_cases)
    for S in {id(S): S for S, _ in ordered_cases}.values():
        n = len(S)
        for _ in range(6 if n > 1 else 0):
            ranked = rng.sample(range(n), n)  # a < b only when a comes first
            seeds = [tuple(sorted(rng.sample(range(n), 2), key=ranked.index)) for _ in range(rng.randint(1, n))]
            cases.append((S, sorted(transitive_closure(seeds, n))))
    kinds = {"accepted": 0, "transitive": 0, "closure": 0}
    for S, pairs in cases:
        old = ordered_outcome(closure_ordered, S, pairs)
        assert ordered_outcome(order.ordered, S, pairs) == old, pairs
        if isinstance(old, OrderedSemigroup):
            kinds["accepted"] += 1
        elif "closure adds" in old:
            transitive = transitive_closure(pairs, len(S)) == set(pairs) | order._diagonal(len(S))
            kinds["transitive" if transitive else "closure"] += 1
    assert min(kinds.values()) > 100, kinds
