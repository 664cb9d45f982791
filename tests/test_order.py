import itertools
import random
from collections import deque

import pytest

from eggbox import constructions, core, order, terms, words
from eggbox.core import BoundExceededError
from eggbox.order import OrderError
from conftest import full_transformation_dfa, random_transformation_semigroup, small_library, s3_table


def test_stable_closure_u1(u1):
    rel, violation = order.stable_closure(u1, [(0, 1)])
    assert violation is None
    assert rel == frozenset({(0, 0), (1, 1), (0, 1)})


def test_stable_closure_group_fails_antisymmetry(z2):
    rel, violation = order.stable_closure(z2, [(0, 1)])
    assert violation is not None
    assert (0, 1) in rel and (1, 0) in rel


def test_stable_closure_empty_seed(z3):
    rel, violation = order.stable_closure(z3, [])
    assert violation is None
    assert rel == frozenset((x, x) for x in range(3))


def test_ordered_factory_validation(u1, z2):
    os_ = order.ordered(u1, [(0, 1)])
    assert (0, 1) in os_.leq
    with pytest.raises(OrderError):
        order.ordered(z2, [(0, 1)])  # not stable without (1, 0)
    with pytest.raises(OrderError):
        order.ordered(u1, [(0, 1), (1, 0)])


def test_is_orderable(u1, z2, lz2):
    ok, witness = order.is_orderable(u1)
    assert ok and not witness.is_trivial()
    order.ordered(u1, witness.leq)  # passes all axioms
    assert not order.is_orderable(z2)[0]
    assert order.is_orderable(lz2)[0]


def test_every_partial_order_on_left_zero_is_stable(lz2):
    for pairs in [[], [(0, 1)], [(1, 0)]]:
        order.ordered(lz2, pairs)


def test_enumerate_stable_orders(u1, z3, lz2):
    assert len(order.enumerate_stable_orders(lz2)) == 3
    assert len(order.enumerate_stable_orders(u1)) == 3
    assert len(order.enumerate_stable_orders(z3)) == 1
    for os_ in order.enumerate_stable_orders(u1):
        order.ordered(u1, os_.leq)
    with pytest.raises(BoundExceededError):
        order.enumerate_stable_orders(core.cyclic_group(7))
    capped = order.enumerate_stable_orders(core.cyclic_group(7), limit=1)
    assert len(capped) == 1 and capped[0].is_trivial()


def test_orderable_cross_validates_enumeration():
    for name, S in small_library().items():
        if len(S) > 5:
            continue
        count = len(order.enumerate_stable_orders(S))
        assert order.is_orderable(S)[0] == (count > 1), name


def test_groups_are_unorderable():
    for n in range(2, 13):
        assert not order.is_orderable(core.cyclic_group(n))[0]
    assert not order.is_orderable(s3_table())[0]


def test_unorderability_report(u1, k2, k3):
    rep = order.unorderability_report(k2)
    assert rep == {"ggm": True, "orderable": False, "consistent": True}
    rep = order.unorderability_report(k3)
    assert rep == {"ggm": True, "orderable": False, "consistent": True}
    rep = order.unorderability_report(u1)
    assert rep["orderable"] and not rep["ggm"] and rep["consistent"]


def test_order_dual(u1):
    os_ = order.ordered(u1, [(0, 1)])
    dual = order.order_dual(os_)
    assert (1, 0) in dual.leq and (0, 1) not in dual.leq
    order.ordered(u1, dual.leq)  # dual of a stable order is stable
    assert order.order_dual(dual) == os_
    triv = order.trivial_order(u1)
    assert order.order_dual(triv) == triv


def test_inequality_pair_equals_identity(u1):
    # u <= v in S and in its dual iff u = v in S
    os_ = order.ordered(u1, [(0, 1)])
    dual = order.order_dual(os_)
    for lhs, rhs in [("xy", "y"), ("xy", "yx"), ("x", "y"), ("x^2", "x")]:
        both = (
            terms.satisfies_inequality(os_, lhs, rhs)[0]
            and terms.satisfies_inequality(dual, lhs, rhs)[0]
        )
        assert both == terms.satisfies_identity(u1, lhs, rhs)[0]


def dfa_even_a():
    return order.dfa(["e", "o"], ["a"], {("e", "a"): "o", ("o", "a"): "e"}, "e", ["e"])


def dfa_starts_a():
    trans = {
        ("q0", "a"): "acc",
        ("q0", "b"): "rej",
        ("acc", "a"): "acc",
        ("acc", "b"): "acc",
        ("rej", "a"): "rej",
        ("rej", "b"): "rej",
    }
    return order.dfa(["q0", "acc", "rej"], ["a", "b"], trans, "q0", ["acc"])


def dfa_all_nonempty():
    trans = {(q, a): "f" for q in ("i", "f") for a in ("a", "b")}
    return order.dfa(["i", "f"], ["a", "b"], trans, "i", ["f"])


def dfa_ends_a():
    trans = {("n", "a"): "y", ("n", "b"): "n", ("y", "a"): "y", ("y", "b"): "n"}
    return order.dfa(["n", "y"], ["a", "b"], trans, "n", ["y"])


def test_syntactic_even_a():
    os_, gens = order.syntactic_semigroup(dfa_even_a())
    assert core.is_isomorphic(os_.semigroup, core.cyclic_group(2)) is not None
    assert os_.is_trivial()
    assert set(gens) == {"a"}


def test_syntactic_starts_a(lz2):
    os_, gens = order.syntactic_semigroup(dfa_starts_a())
    assert core.is_isomorphic(os_.semigroup, lz2) is not None


def test_syntactic_all_nonempty():
    os_, _ = order.syntactic_semigroup(dfa_all_nonempty())
    assert len(os_.semigroup) == 1


def test_syntactic_ends_a(rz2):
    os_, _ = order.syntactic_semigroup(dfa_ends_a())
    assert core.is_isomorphic(os_.semigroup, rz2) is not None


def test_syntactic_semigroup_stops_past_its_limit():
    d = order.dfa_from_dict(full_transformation_dfa(4))
    full, gens = order.syntactic_semigroup(d)
    assert len(full.semigroup) == 4**4 and len(gens) == 3
    assert order.syntactic_semigroup(d, limit=256) == (full, gens)
    with pytest.raises(BoundExceededError, match="^the syntactic semigroup has more than 255 elements$"):
        order.syntactic_semigroup(d, limit=255)
    with pytest.raises(BoundExceededError, match="more than 4096 elements"):  # T_6: 46656
        order.syntactic_semigroup(order.dfa_from_dict(full_transformation_dfa(6)), limit=4096)


def test_syntactic_is_dfa_independent():
    # a redundant non-minimal DFA for (aa)* gives the same semigroup
    trans = {
        ("e1", "a"): "o",
        ("o", "a"): "e2",
        ("e2", "a"): "o",
    }
    redundant = order.dfa(["e1", "o", "e2"], ["a"], trans, "e1", ["e1", "e2"])
    a_os, _ = order.syntactic_semigroup(dfa_even_a())
    b_os, _ = order.syntactic_semigroup(redundant)
    assert core.is_isomorphic(a_os.semigroup, b_os.semigroup) is not None
    assert len(a_os.leq) == len(b_os.leq)


def test_syntactic_congruence_holds():
    # words with the same image accept identically in every context
    d = dfa_starts_a()
    os_, gens = order.syntactic_semigroup(d)
    S = os_.semigroup

    def accepts(w):
        q = "q0"
        for c in w:
            q = d.transition[(q, c)]
        return q in {"acc"}

    wordlist = ["".join(w) for k in (1, 2, 3) for w in itertools.product("ab", repeat=k)]
    for u in wordlist:
        for v in wordlist:
            same = core.evaluate_word(S, gens, u) == core.evaluate_word(S, gens, v)
            contexts_agree = all(
                accepts(x + u + y) == accepts(x + v + y)
                for x in ["", "a", "b", "ab"]
                for y in ["", "a", "b", "ba"]
            )
            if same:
                assert contexts_agree


def test_concat_letter():
    la = order.concat_letter(dfa_even_a(), "a")
    os_, _ = order.syntactic_semigroup(la)
    assert core.is_isomorphic(os_.semigroup, core.cyclic_group(2)) is not None
    # empty language stays empty
    empty = order.dfa(["q"], ["a"], {("q", "a"): "q"}, "q", [])
    os_e, _ = order.syntactic_semigroup(order.concat_letter(empty, "a"))
    assert len(os_e.semigroup) == 1
    lb = order.concat_letter(dfa_starts_a(), "b")
    os_b, gens_b = order.syntactic_semigroup(lb)
    # aA*b: membership of wb only, sanity-check via the quotient map
    assert order is not None and os_b is not None
    with pytest.raises(order.UnknownLetterError):
        order.concat_letter(dfa_even_a(), "z")


def test_syntactic_orders_are_valid_orders():
    for d in (dfa_even_a(), dfa_starts_a(), dfa_ends_a()):
        os_, _ = order.syntactic_semigroup(d)
        order.ordered(os_.semigroup, os_.leq)


def random_dfa(rng):
    states = [f"q{i}" for i in range(rng.randint(1, 4))]
    alphabet = ["a", "b", "c"][: rng.randint(1, 3)]
    trans = {(q, a): rng.choice(states) for q in states for a in alphabet}
    accepting = [q for q in states if rng.random() < 0.5]
    return order.dfa(states, alphabet, trans, rng.choice(states), accepting)


def test_syntactic_orders_of_random_dfas_pass_the_axiom_check():
    # syntactic_semigroup builds its order without ordered(); the order must
    # still be reflexive, antisymmetric, transitive and stable
    rng = random.Random(23)
    nontrivial = 0
    for _ in range(100):
        os_, _ = order.syntactic_semigroup(random_dfa(rng))
        assert order.ordered(os_.semigroup, os_.leq) == os_
        nontrivial += not os_.is_trivial()
    assert nontrivial > 8


def test_subword_order_shadow_on_shuffle_ideal():
    # L = A* a A* b A* is upward closed under superwords, so on its
    # J-trivial syntactic semigroup the subword seed pairs close into a
    # stable partial order contained in the syntactic one
    trans = {
        ("0", "a"): "1",
        ("0", "b"): "0",
        ("1", "a"): "1",
        ("1", "b"): "2",
        ("2", "a"): "2",
        ("2", "b"): "2",
    }
    d = order.dfa(["0", "1", "2"], ["a", "b"], trans, "0", ["2"])
    os_, gens = order.syntactic_semigroup(d)
    S = os_.semigroup
    assert terms.pseudovariety_membership(S, "J")[0]
    wordlist = ["".join(w) for k in (1, 2, 3, 4) for w in itertools.product("ab", repeat=k)]
    seeds = set()
    for u in wordlist:
        for v in wordlist:
            if words.is_subword(u, v):
                seeds.add(
                    (core.evaluate_word(S, gens, v), core.evaluate_word(S, gens, u))
                )
    for pair in seeds:
        assert pair in os_.leq
    rel, violation = order.stable_closure(S, sorted(seeds))
    assert violation is None
    assert rel <= os_.leq


def test_dfa_json_round_trip():
    d = dfa_starts_a()
    obj = order.dfa_to_dict(d)
    back = order.dfa_from_dict(obj)
    assert back.states == d.states and back.accepting == d.accepting
    assert dict(back.transition) == dict(d.transition)


def test_stable_orders_on_rb22_factor_through_rows_and_columns(rb22):
    # (a,b) <= (a',b') stable forces row- and column-wise comparability, so
    # the stable orders are exactly products of a row order and a column
    # order: 3 x 3 = 9
    found = order.enumerate_stable_orders(rb22, limit=50)
    assert len(found) == 9


# --- differential tests: the early-exit search against the full closures ------

def oracle_stable_closure(S, seeds):
    """The full-closure BFS that `stable_closure` replaced, copied verbatim."""
    n = len(S)
    rel = {(x, x) for x in range(n)}
    succ = [{x} for x in range(n)]
    pred = [{x} for x in range(n)]
    queue = deque()
    violation = None

    def add(a, b):
        nonlocal violation
        if (a, b) in rel:
            return
        rel.add((a, b))
        succ[a].add(b)
        pred[b].add(a)
        queue.append((a, b))
        if violation is None and a != b and (b, a) in rel:
            violation = (a, b)

    for a, b in seeds:
        add(a, b)
    while queue:
        a, b = queue.popleft()
        for u in range(n):
            add(S.table[u][a], S.table[u][b])
            add(S.table[a][u], S.table[b][u])
        for x in list(pred[a]):
            add(x, b)
        for y in list(succ[b]):
            add(a, y)
    return frozenset(rel), violation


def oracle_is_orderable(S):
    """The full-closure decision: the first seed (s, t), over all s != t in
    lexicographic order, whose closure is antisymmetric."""
    n = len(S)
    for s in range(n):
        for t in range(n):
            if s != t:
                rel, violation = order.stable_closure(S, [(s, t)])
                if violation is None:
                    return True, rel
    return False, None


def oracle_enumerate_stable_orders(S, limit):
    """The full-closure breadth-first search over bases, copied verbatim
    but for the size bound and the result: the orders in the order the
    search finds them, as sorted pair lists. The search can run past
    `limit` within one base, so the list can be longer than `limit`."""
    n = len(S)
    trivial = frozenset((x, x) for x in range(n))
    seen = {trivial}
    discovered = [trivial]
    queue = deque([trivial])
    full = limit is not None and len(seen) >= limit
    while queue and not full:
        base = queue.popleft()
        for s in range(n):
            for t in range(n):
                if s == t or (s, t) in base:
                    continue
                rel, violation = order.stable_closure(S, sorted(base) + [(s, t)])
                if violation is None and rel not in seen:
                    seen.add(rel)
                    discovered.append(rel)
                    queue.append(rel)
                    if limit is not None and len(seen) >= limit:
                        full = True
            if full:
                break
    return [sorted(rel) for rel in discovered]


@pytest.fixture(scope="module")
def differential_cases():
    cases = dict(small_library())
    cases.update({f"K{p}": constructions.k_p(p) for p in (2, 3, 5)})
    cases.update({f"Z{n}": core.cyclic_group(n) for n in (5, 7, 8)})
    rng = random.Random(20151)
    for i in range(30):
        cases[f"random{i}"] = random_transformation_semigroup(rng, max_size=20)
    return cases


def test_is_orderable_matches_full_closure_decision(differential_cases):
    decisions = set()
    for name, S in differential_cases.items():
        ok, witness = order.is_orderable(S)
        expected_ok, expected_leq = oracle_is_orderable(S)
        assert ok == expected_ok, name
        if ok:
            assert witness.leq == expected_leq, name
            order.ordered(S, witness.leq)
        else:
            assert witness is None, name
        decisions.add(ok)
    assert decisions == {True, False}


def test_enumerate_matches_full_closure_search(differential_cases):
    for name, S in differential_cases.items():
        if len(S) > 12:
            continue
        for limit in (1, 4, 30):
            found = [sorted(o.leq) for o in order.enumerate_stable_orders(S, limit=limit)]
            first = sorted(oracle_enumerate_stable_orders(S, limit)[:limit])
            assert found == first, (name, limit)


def test_stable_closure_matches_full_closure_bfs(differential_cases):
    rng = random.Random(7)
    for name, S in differential_cases.items():
        n = len(S)
        seed_lists = [[(s, t)] for s in range(min(n, 5)) for t in range(min(n, 5))]
        seed_lists += [
            [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 4))]
            for _ in range(10)
        ]
        for seeds in seed_lists:
            assert order.stable_closure(S, seeds) == oracle_stable_closure(S, seeds), (name, seeds)


def single_seed_closures(S):
    n = len(S)
    return {
        (s, t): order.stable_closure(S, [(s, t)])[0]
        for s in range(n)
        for t in range(n)
        if s != t
    }


def lemma_cases(differential_cases):
    return [S for S in differential_cases.values() if len(S) <= 12]


def test_closure_of_reversed_seed_is_the_dual(differential_cases):
    # the cut to seeds s < t: (t, s) closes to the order dual of (s, t)
    for S in lemma_cases(differential_cases):
        closures = single_seed_closures(S)
        for (s, t), rel in closures.items():
            assert closures[(t, s)] == frozenset((b, a) for a, b in rel)


def test_closure_of_a_member_is_contained(differential_cases):
    # the shared bad pairs: p in closure(q) implies closure(p) within closure(q)
    for S in lemma_cases(differential_cases):
        closures = single_seed_closures(S)
        for q, rel in closures.items():
            for p in rel:
                if p[0] != p[1]:
                    assert closures[p] <= rel, (p, q)


@pytest.mark.parametrize("limit", [0, -1])
def test_enumerate_rejects_limit_below_one(u1, limit):
    with pytest.raises(OrderError, match="limit"):
        order.enumerate_stable_orders(u1, limit=limit)
