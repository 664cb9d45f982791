"""Acceptance suite: one test per criterion, exact checks, desk runtimes.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.
"""

import itertools
import random
from contextlib import contextmanager

from eggbox import core, green, hull, order, terms, words, constructions as cons
from eggbox.terms import GroupSpec, parse_term
from conftest import group_subsemigroups, s3_table


@contextmanager
def report(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS  {desc}")


def test_criterion_01_debruijn_laws():
    with report(1, "Phi_n laws (a)-(c) on 10^4 random pairs"):
        rng = random.Random(101)
        for _ in range(10_000):
            n = rng.randint(0, 4)
            sigma = "abcd"[: rng.randint(2, 4)]
            u = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 8)))
            v = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 8)))
            # (a) words of length <= n encode to the empty word
            if len(u) <= n:
                assert words.debruijn_encode(u, n).letters == ()
            # (b) words of length n+1 are single grams equal to themselves
            if len(u) == n + 1:
                assert words.debruijn_encode(u, n).letters == (u,)
            # (c) both factorization forms
            uv = words.debruijn_encode(u + v, n).letters
            left = (
                words.debruijn_encode(u, n).letters
                + words.debruijn_encode(str(words.t_n(u, n)) + v, n).letters
            )
            right = (
                words.debruijn_encode(u + str(words.i_n(v, n)), n).letters
                + words.debruijn_encode(v, n).letters
            )
            assert uv == left == right


def test_criterion_02_debruijn_injective():
    with report(2, "Phi_n injective on words of length in (n, 9], n in {1,2,3}"):
        for n in (1, 2, 3):
            seen = {}
            for length in range(n + 1, 10):
                for tup in itertools.product("ab", repeat=length):
                    w = "".join(tup)
                    key = words.debruijn_encode(w, n).letters
                    assert key not in seen, (n, seen.get(key), w)
                    seen[key] = w


def test_criterion_03_kp_facts():
    with report(3, "K_p size, generators, full torsion, GGM, bullet gadget"):
        for p in (2, 3, 5):
            kp = cons.k_p(p)
            assert len(kp) == 4 * p
            gens = [kp.index_of("(0,0,1)"), kp.index_of("(1,0,0)")]
            assert all(kp.is_idempotent(g) for g in gens)
            assert core.generated_subsemigroup(kp, gens) == frozenset(range(4 * p))
            assert hull.torsion_checks(kp)["full_torsion"]
            assert hull.classify(kp)["ggm"]
            gadget = cons.bullet_gadget(p)
            kp1 = core.adjoin_identity(kp)
            assert core.is_isomorphic(gadget, kp1, bound=32) is not None


def test_criterion_04_synthesis_lemma():
    with report(4, "synthesis semigroups associative, subgroups embed in S or T"):
        pool = {
            "U1": core.u1(),
            "Z2": core.cyclic_group(2),
            "Z3": core.cyclic_group(3),
            "LZ2": core.left_zero(2),
        }
        for S, T in itertools.product(pool.values(), repeat=2):
            S1 = core.adjoin_identity(S)
            T1 = core.adjoin_identity(T)
            hosts = group_subsemigroups(S) + group_subsemigroups(T)
            host_sizes = {len(G) for G in hosts}
            for f in itertools.product(range(len(T1)), repeat=len(S1)):
                syn = cons.synthesis(S, T, list(f))
                M = syn.carrier
                core.validate(M.elements, M.table)  # full associativity scan
                assert len(M) == len(S) + len(S1) ** 2 * len(T1)
                gs = green.green_structure(M)
                for e in M.idempotents():
                    members = [x for x in range(len(M)) if gs.h_class[x] == gs.h_class[e]]
                    H = core.subsemigroup(M, members)
                    assert len(H) in host_sizes
                    assert any(
                        len(G) == len(H) and core.is_isomorphic(H, G) is not None
                        for G in hosts
                    )


def test_criterion_05_translational_hull():
    with report(5, "hull of RB22, path agreement, closure, inner ideal"):
        rb = core.rectangular_band(2, 2)
        H = hull.enumerate_hull(rb)
        assert len(H) == 16
        M, _ = hull.hull_monoid(H)
        t2l = core.full_transformation_monoid(2)
        t2r = core.full_transformation_monoid(2, act_on_right=True)
        assert core.is_isomorphic(M, core.direct_product(t2l, t2r)) is not None

        assert hull.enumerate_hull(cons.k_p(2)) == hull.enumerate_hull_rees(cons.kp_rees(2))
        rng = random.Random(105)
        for _ in range(20):
            P = tuple(tuple(rng.randrange(2) for _ in range(2)) for _ in range(2))
            rm = green.ReesMatrixSemigroup(2, 2, core.cyclic_group(2), P)
            assert hull.enumerate_hull(cons.realize(rm)) == hull.enumerate_hull_rees(rm)

        for S in (rb, cons.k_p(2), core.u1()):
            bits = hull.enumerate_hull(S)
            ident = hull.Bitranslation(tuple(range(len(S))), tuple(range(len(S))))
            assert ident in bits
            for x in bits:
                for y in bits:
                    assert hull.compose(x, y) in bits

        small = [
            core.trivial(),
            core.u1(),
            core.cyclic_group(2),
            core.cyclic_group(3),
            core.cyclic_group(4),
            core.adjoin_identity(core.left_zero(2)),
            core.direct_product(core.u1(), core.cyclic_group(2)),
            core.adjoin_identity(core.null_semigroup(2)),
            cons.rees_matrix(2, core.cyclic_group(2), 1, [[0, 1]]),
        ]
        for S in small:
            if len(S) > 6 or not hull.reductivity(S)["weakly_reductive"]:
                continue
            bits = hull.enumerate_hull(S, bound=6)
            inner = {hull.inner_bitranslation(S, s) for s in range(len(S))}
            for x in bits:
                for y in inner:
                    assert hull.compose(x, y) in inner
                    assert hull.compose(y, x) in inner


def test_criterion_06_reduction_proposition():
    with report(6, "CS weakly reductive; lm iff plenty of torsion on the left"):
        rng = random.Random(106)
        groups = [core.trivial(), core.cyclic_group(2), core.cyclic_group(3)]
        checked = 0
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                for G in groups:
                    for _ in range(200):
                        P = [[rng.randrange(len(G)) for _ in range(a)] for _ in range(b)]
                        S = cons.rees_matrix(a, G, b, P)
                        red = hull.reductivity(S)
                        if len(S) <= 20:
                            assert red["weakly_reductive"], (a, b, len(G), P)
                        torsion = hull.torsion_checks(S)
                        assert red["right_reductive"] == torsion["plenty_left"]
                        assert red["left_reductive"] == torsion["plenty_right"]
                        checked += 1
        assert checked == 9 * 3 * 200
        # the canonical maps into translations agree with the kernel action
        # on a sample, since a completely simple semigroup is its own kernel
        rng2 = random.Random(107)
        for _ in range(10):
            P = [[rng2.randrange(2) for _ in range(2)] for _ in range(2)]
            S = cons.rees_matrix(2, core.cyclic_group(2), 2, P)
            flags = hull.classify(S)
            red = hull.reductivity(S)
            assert flags["lm"] == red["right_reductive"]
            assert flags["rm"] == red["left_reductive"]


def test_criterion_07_orderability():
    with report(7, "groups unorderable; U1, LZ2 orderable with 3 orders; K_p GGM unorderable"):
        for n in range(2, 13):
            assert not order.is_orderable(core.cyclic_group(n))[0]
        assert not order.is_orderable(s3_table())[0]
        assert order.is_orderable(core.u1())[0]
        assert order.is_orderable(core.left_zero(2))[0]
        assert len(order.enumerate_stable_orders(core.left_zero(2))) == 3
        assert len(order.enumerate_stable_orders(core.u1())) == 3
        for p in (2, 3):
            rep = order.unorderability_report(cons.k_p(p))
            assert rep == {"ggm": True, "orderable": False, "consistent": True}


def test_criterion_08_separation_fixture():
    with report(8, "eq. separation fixture in M(Z4,U1,xi) and M(Z4,Z3,delta)"):
        z4 = core.cyclic_group(4)
        lhs = parse_term("y(uy)^(w-1) wuy (wy)^(w-1)")
        rhs = parse_term("y(uy)^w (ey)^(w-1) (wy)^w")

        # xi sends 3 to the U1 zero and everything else to the U1 identity
        u1 = core.u1()
        xi = [0 if x == 3 else 1 for x in range(4)]
        syn = cons.synthesis(z4, u1, xi)
        asg = {
            "y": syn.triple_index(0, 1, 0),  # (1, 1, 1): identities and the top of U1
            "u": 1,
            "w": 1,
            "e": 3,
        }
        got_lhs = terms.evaluate(lhs, syn.carrier, asg)
        got_rhs = terms.evaluate(rhs, syn.carrier, asg)
        assert got_lhs == syn.triple_index(0, 1, 0)  # (1, 1, 1)
        assert got_rhs == syn.triple_index(0, 0, 0)  # (1, 0, 1)
        assert got_lhs != got_rhs

        # the Z/p variant: delta sends 3 to 1, and y to (1, 0, 1)
        z3 = core.cyclic_group(3)
        delta = [1 if x == 3 else 0 for x in range(4)]
        syn2 = cons.synthesis(z4, z3, delta)
        asg2 = {"y": syn2.triple_index(0, 0, 0), "u": 1, "w": 1, "e": 3}
        got_lhs = terms.evaluate(lhs, syn2.carrier, asg2)
        got_rhs = terms.evaluate(rhs, syn2.carrier, asg2)
        assert got_lhs == syn2.triple_index(0, 0, 0)  # (1, 0, 1)
        assert got_rhs == syn2.triple_index(0, 2, 0)  # (1, -1, 1)
        assert got_lhs != got_rhs


def band_models():
    u1, lz2, rz2 = core.u1(), core.left_zero(2), core.right_zero(2)
    singles = [u1, lz2, rz2]
    pairs = [core.direct_product(a, b) for a, b in itertools.combinations(singles, 2)]
    triple = [core.direct_product(core.direct_product(u1, lz2), rz2)]
    return singles + pairs + triple


def test_criterion_09_crh_word_problem():
    with report(9, "free band has 6 classes, closure + separation; Ab_2 soundness"):
        triv = GroupSpec.trivial()
        wordlist = []
        for length in range(1, 7):
            wordlist += ["".join(w) for w in itertools.product("ab", repeat=length)]
        by_class = {}
        for w in wordlist:
            by_class.setdefault(terms.crh_class_key(w, triv), w)
        assert len(by_class) == 6
        reps = sorted(by_class.values(), key=lambda w: (len(w), w))

        # (a) concatenation of representatives stays within the 6 classes and
        # the induced table is an idempotent semigroup
        keys = list(by_class)
        key_pos = {k: i for i, k in enumerate(keys)}
        table = []
        for u in (by_class[k] for k in keys):
            row = []
            for v in (by_class[k] for k in keys):
                k2 = terms.crh_class_key(u + v, triv)
                assert k2 in key_pos
                row.append(key_pos[k2])
            table.append(row)
        band = core.validate([by_class[k] for k in keys], table)
        assert all(band.is_idempotent(x) for x in range(6))

        # (b) distinct classes are separated by a product of U1, LZ2, RZ2
        models = band_models()
        for u, v in itertools.combinations(reps, 2):
            separated = False
            for M in models:
                for ga, gb in itertools.product(range(len(M)), repeat=2):
                    gm = {"a": ga, "b": gb}
                    if core.evaluate_word(M, gm, u) != core.evaluate_word(M, gm, v):
                        separated = True
                        break
                if separated:
                    break
            assert separated, (u, v)

        # Ab_2: single-letter powers and (ab)-power pairs behave per the
        # group condition
        ab2 = GroupSpec.abelian(2)
        assert terms.equal_in_crh("aaa", "a", ab2)[0]
        assert not terms.equal_in_crh("aa", "a", ab2)[0]
        assert terms.equal_in_crh("ababab", "ab", ab2)[0]
        assert not terms.equal_in_crh("abab", "ab", ab2)[0]

        # soundness: no false "equal" against the model library
        rng = random.Random(109)
        models2 = band_models() + [cons.k_p(2), core.direct_product(core.u1(), cons.k_p(2))]
        for _ in range(200):
            u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
            v = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
            if not terms.equal_in_crh(u, v, ab2)[0]:
                continue
            for M in models2:
                for ga, gb in itertools.product(range(len(M)), repeat=2):
                    gm = {"a": ga, "b": gb}
                    assert core.evaluate_word(M, gm, u) == core.evaluate_word(M, gm, v)


def test_criterion_10_registry_sanity():
    with report(10, "identity registry classifies the library correctly"):
        member = lambda S, name: terms.pseudovariety_membership(S, name)[0]
        u1, rb = core.u1(), core.rectangular_band(2, 2)
        k2, z2 = cons.k_p(2), core.cyclic_group(2)
        n2, lz2 = core.null_semigroup(2), core.left_zero(2)
        assert member(u1, "Sl") and member(u1, "J") and member(u1, "DA")
        assert member(rb, "RB") and not member(rb, "Sl")
        assert member(k2, "CS") and member(k2, "CR") and not member(k2, "G")
        assert member(z2, "G") and member(z2, "Ab2")
        assert member(n2, "N") and member(n2, "A")
        assert member(lz2, "LZ") and member(lz2, "K1")


def test_criterion_11_constructive_lemmas():
    with report(11, "stretch and connect postconditions on 10^3 random inputs each"):
        rng = random.Random(111)
        done = 0
        while done < 1000:
            sigma = "ab"
            a = rng.choice(sigma)
            body = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 5)))
            s = body + a + a
            x = ""
            for _ in range(rng.randint(0, 8)):
                nxt = rng.choice(sigma)
                if s in x + nxt:
                    break
                x += nxt
            avoid = [
                "".join(rng.choice(sigma) for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(0, 2))
            ]
            r = str(words.stretch_word(x, avoid, s, alphabet=sigma))
            assert x + r not in avoid
            full = x + r + s
            hits = [i for i in range(len(full)) if full.startswith(s, i)]
            assert hits == [len(x + r)], (x, avoid, s, r)
            done += 1
        for _ in range(1000):
            w = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            a, b = rng.sample(["a", "b", "c"], 2)
            t = str(words.connect_word(w, a, b))
            wt = w + t
            aw, bw = a + w, b + w
            hits = [i for i in range(len(wt)) if wt.startswith(aw, i)]
            assert hits == [len(wt) - len(aw)], (w, a, b, t)
            assert bw not in wt, (w, a, b, t)


def test_criterion_12_syntactic_pipeline():
    with report(12, "syntactic semigroups of (aa)* and aA*, concat-letter recomputation"):
        even = order.dfa(["e", "o"], ["a"], {("e", "a"): "o", ("o", "a"): "e"}, "e", ["e"])
        os_even, _ = order.syntactic_semigroup(even)
        assert core.is_isomorphic(os_even.semigroup, core.cyclic_group(2)) is not None

        starts_a = order.dfa(
            ["q0", "acc", "rej"],
            ["a", "b"],
            {
                ("q0", "a"): "acc",
                ("q0", "b"): "rej",
                ("acc", "a"): "acc",
                ("acc", "b"): "acc",
                ("rej", "a"): "rej",
                ("rej", "b"): "rej",
            },
            "q0",
            ["acc"],
        )
        os_sa, _ = order.syntactic_semigroup(starts_a)
        assert core.is_isomorphic(os_sa.semigroup, core.left_zero(2)) is not None

        odd = order.concat_letter(even, "a")
        os_odd, _ = order.syntactic_semigroup(odd)
        assert core.is_isomorphic(os_odd.semigroup, core.cyclic_group(2)) is not None

        sab = order.concat_letter(starts_a, "b")
        os_sab, _ = order.syntactic_semigroup(sab)
        order.ordered(os_sab.semigroup, os_sab.leq)
