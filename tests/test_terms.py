import itertools
import operator
import random
from collections import Counter

import pytest

from eggbox import core, constructions as cons, terms, words
from eggbox.terms import (
    Concat,
    GroupSpec,
    Letter,
    OmegaExp,
    Power,
    TermSyntaxError,
    TermTooShortError,
    UnassignedLetterError,
    UnknownPseudovarietyError,
    equal_in_crh,
    parse_term,
    term_to_text,
)
from conftest import old_characteristic_sequence, random_transformation_semigroup, random_words, small_library


def test_parse_basic():
    t = parse_term("(xy)^w x")
    assert t == Concat((Power(Concat((Letter("x"), Letter("y"))), OmegaExp(0)), Letter("x")))
    assert parse_term("x^(w-1)") == Power(Letter("x"), OmegaExp(-1))
    assert parse_term("x^(w+2)") == Power(Letter("x"), OmegaExp(2))
    assert parse_term("x^3") == Power(Letter("x"), 3)
    assert parse_term("[ab][ba]") == Concat((Letter("ab"), Letter("ba")))


def test_parse_errors():
    with pytest.raises(TermSyntaxError):
        parse_term("x^0")
    with pytest.raises(TermSyntaxError):
        parse_term("x^(w-2)")
    with pytest.raises(TermSyntaxError):
        parse_term("(xy")
    with pytest.raises(TermSyntaxError):
        parse_term("")
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("xy)")
    assert exc.value.pos == 2


def test_printer_round_trip():
    for text in ["(xy)^w x", "x^(w-1)", "x^(w+1) y^4", "xyx", "((xy)^w x)^2", "[ab]([ba][ab])^(w-1)"]:
        t = parse_term(text)
        assert parse_term(term_to_text(t)) == t


def test_evaluate_examples(k2, z3, u1):
    x, y = k2.index_of("(0,0,1)"), k2.index_of("(1,0,0)")
    t = parse_term("(xy)^w x")
    assert terms.evaluate(t, k2, {"x": x, "y": y}) == x
    for g in range(3):
        assert terms.evaluate(parse_term("x^(w+1)"), z3, {"x": g}) == g
    assert terms.evaluate(parse_term("x^w"), u1, {"x": 0}) == 0
    with pytest.raises(UnassignedLetterError):
        terms.evaluate(parse_term("xy"), u1, {"x": 0})


def test_evaluate_omega_minus_one(z6):
    # x^(w-1) x = x^w in every finite semigroup
    for name, S in small_library().items():
        for s in range(len(S)):
            v = terms.evaluate(parse_term("x^(w-1)"), S, {"x": s})
            assert S.mul(v, s) == core.omega_power(S, s), name


def test_satisfies_identity(u1, z2, k2):
    assert terms.satisfies_identity(u1, "x^2", "x") == (True, None)
    ok, witness = terms.satisfies_identity(z2, "x^2", "x")
    assert not ok and witness == {"x": 1}
    assert terms.satisfies_identity(k2, "x(yx)^w", "x")[0]


def test_satisfies_identity_lex_first_witness(z3):
    ok, witness = terms.satisfies_identity(z3, "xy", "yx x")
    assert not ok
    # brute-force oracle for the lexicographically first failure
    expected = None
    for x, y in itertools.product(range(3), repeat=2):
        if (x + y) % 3 != (y + x + x) % 3:
            expected = {"x": x, "y": y}
            break
    assert witness == expected


# --- the compiled scan against the recursive interpreter it replaced ----------

def oracle_evaluate(term, S, assignment):
    if isinstance(term, Letter):
        if term.ch not in assignment:
            raise UnassignedLetterError(f"letter {term.ch!r} is unassigned")
        return assignment[term.ch]
    if isinstance(term, Concat):
        acc = oracle_evaluate(term.parts[0], S, assignment)
        for p in term.parts[1:]:
            acc = S.table[acc][oracle_evaluate(p, S, assignment)]
        return acc
    v = oracle_evaluate(term.base, S, assignment)
    e = term.exp
    if isinstance(e, int):
        return S.power(v, e)
    if e.k == -1:
        return core.omega_minus_one(S, v)
    acc = core.omega_power(S, v)
    for _ in range(e.k):
        acc = S.table[acc][v]
    return acc


def oracle_first_failure(S, lhs, rhs, related):
    """The brute-force scan: every assignment in lexicographic order."""
    variables = sorted(terms.letters_of(lhs) | terms.letters_of(rhs))
    for values in itertools.product(range(len(S)), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if not related(oracle_evaluate(lhs, S, assignment), oracle_evaluate(rhs, S, assignment)):
            return False, assignment
    return True, None


def random_term(rng, depth=3):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return Letter(rng.choice("xyz"))
    if roll < 0.6:
        return terms.concat([random_term(rng, depth - 1) for _ in range(rng.randint(2, 3))])
    exp = rng.choice([rng.randint(1, 4), OmegaExp(0), OmegaExp(-1), OmegaExp(rng.randint(1, 3))])
    return Power(random_term(rng, depth - 1), exp)


def differential_cases():
    rng = random.Random(2015)
    cases = list(small_library().values())
    cases += [random_transformation_semigroup(rng, max_size=12) for _ in range(30)]
    for S in cases:
        pairs = [(random_term(rng), random_term(rng)) for _ in range(3)]
        t = random_term(rng)
        pairs.append((t, t))
        yield rng, S, pairs


def test_evaluate_matches_interpreter():
    for rng, S, pairs in differential_cases():
        for t in [t for pair in pairs for t in pair]:
            for _ in range(5):
                asg = {ch: rng.randrange(len(S)) for ch in "xyz"}
                assert terms.evaluate(t, S, asg) == oracle_evaluate(t, S, asg), term_to_text(t)
            missing = {ch: 0 for ch in sorted(terms.letters_of(t))[1:]}
            with pytest.raises(UnassignedLetterError):
                terms.evaluate(t, S, missing)


def test_satisfies_identity_matches_brute_force():
    names = ["B", "CR", "CS", "DA", "J", "LI", "N", "ReG"]
    registry = [pair for name in names for pair in terms.pseudovariety_basis(name)]
    for _, S, pairs in differential_cases():
        for lhs, rhs in pairs + registry:
            want = oracle_first_failure(S, lhs, rhs, lambda a, b: a == b)
            assert terms.satisfies_identity(S, lhs, rhs) == want, (term_to_text(lhs), term_to_text(rhs))


def test_satisfies_inequality_matches_brute_force():
    from eggbox import order

    fixed = [(parse_term("xy"), parse_term("x")), (parse_term("x^w"), parse_term("x"))]
    checked = 0
    for _, S, pairs in differential_cases():
        if len(S) > 8:
            continue
        for os_ in order.enumerate_stable_orders(S, limit=3):
            for lhs, rhs in pairs + fixed:
                want = oracle_first_failure(S, lhs, rhs, lambda a, b: (a, b) in os_.leq)
                assert terms.satisfies_inequality(os_, lhs, rhs) == want
                checked += 1
    assert checked > 100


def test_satisfies_inequality(u1):
    from eggbox import order

    os_ = order.ordered(u1, [(0, 1)])
    assert terms.satisfies_inequality(os_, "xy", "y") == (True, None)
    ok, witness = terms.satisfies_inequality(os_, "y", "xy")
    assert not ok and witness == {"x": 0, "y": 1}
    # with the trivial order, u <= v holds iff u = v holds
    triv = order.trivial_order(u1)
    assert terms.satisfies_inequality(triv, "xy", "yx")[0] == terms.satisfies_identity(
        u1, "xy", "yx"
    )[0]


def test_registry_examples(u1, z2, k2, rb22, n2, lz2):
    member = lambda S, name: terms.pseudovariety_membership(S, name)[0]
    assert member(rb22, "RB") and not member(rb22, "Sl")
    assert member(z2, "G") and member(z2, "Ab2")
    assert member(k2, "CS") and member(k2, "CR") and not member(k2, "G")
    assert member(u1, "Sl") and member(u1, "J") and member(u1, "DA")
    assert member(n2, "N") and member(n2, "A")
    assert member(lz2, "LZ") and member(lz2, "K1")
    with pytest.raises(UnknownPseudovarietyError):
        terms.pseudovariety_membership(u1, "nope")


def test_registry_failure_reports(z2):
    ok, failing = terms.pseudovariety_membership(z2, "B")
    assert not ok
    assert failing["witness"] == {"x": 1}


def test_registry_containments():
    # morally Sl <= B, Sl <= J <= DA <= DS, LZ <= RB <= B, CS <= CR <= DS,
    # G <= CR, N <= A <= DA is false (A not in DA)... keep to listed chains
    chains = [
        ("Sl", "B"),
        ("Sl", "J"),
        ("J", "DA"),
        ("DA", "DO"),
        ("DA", "DS"),
        ("DO", "DS"),
        ("LZ", "RB"),
        ("RZ", "RB"),
        ("RB", "B"),
        ("B", "DA"),
        ("CS", "CR"),
        ("CR", "DS"),
        ("G", "CR"),
        ("LZ", "K"),
        ("RZ", "D"),
        ("K", "LI"),
        ("D", "LI"),
        ("N", "LI"),
        ("Ab2", "G"),
        ("Sl", "DA"),
    ]
    lib = small_library()
    for low, high in chains:
        for name, S in lib.items():
            if len(S) > 8:
                continue
            if terms.pseudovariety_membership(S, low)[0]:
                assert terms.pseudovariety_membership(S, high)[0], (name, low, high)


def test_registry_parametrized(lz2, rz2):
    assert terms.pseudovariety_membership(lz2, "K1")[0]
    assert terms.pseudovariety_membership(rz2, "D1")[0]
    assert terms.pseudovariety_membership(rz2, "D2")[0]  # D1 <= D2
    assert not terms.pseudovariety_membership(lz2, "D1")[0]
    z2 = core.cyclic_group(2)
    assert terms.pseudovariety_membership(z2, "Ab2")[0]
    assert terms.pseudovariety_membership(z2, "Ab4")[0]
    assert not terms.pseudovariety_membership(core.cyclic_group(3), "Ab2")[0]


def test_term_i_t():
    assert str(terms.term_i_t("(ab)^w", 2)[1]) == "ab"
    assert str(terms.term_i_t("(ab)^w c", 3)[0]) == "aba"
    assert str(terms.term_i_t("a^w b", 2)[1]) == "ab"
    # independent of the unfolding depth beyond the bound
    t = parse_term("(ab)^w c (ba)^(w+1)")
    for n in (1, 2, 3):
        base = (str(terms.unfold(t, n + 2)[: n]), )
        for extra in (3, 4, 6):
            w = terms.unfold(t, n + extra)
            assert str(words.i_n(w, n)) == str(terms.term_i_t(t, n)[0])
            assert str(words.t_n(w, n)) == str(terms.term_i_t(t, n)[1])
        del base


def test_debruijn_encode_term_exact_shape():
    enc = terms.debruijn_encode_term("(ab)^w", 1)
    expected = Concat(
        (Letter("ab"), Power(Concat((Letter("ba"), Letter("ab"))), OmegaExp(-1)))
    )
    assert enc == expected


def test_debruijn_encode_term_plain_word_matches_words_module():
    for text, n in [("aba", 1), ("abcab", 2), ("aabb", 1)]:
        enc = terms.debruijn_encode_term(text, n)
        flat = terms.unfold(enc, 1)  # no omega powers present
        assert flat.letters == words.debruijn_encode(text, n).letters


def test_debruijn_encode_term_string_unfolding_for_plain_omega():
    # when the base is already >= n long and the exponent is w or w+k with
    # k >= 0, the encoding co-unfolds letter for letter with the source
    cases = [("(ab)^w", 1), ("(ab)^w", 2), ("(ab)^(w+1)", 1), ("(abc)^(w+2) a", 2)]
    for text, n in cases:
        enc = terms.debruijn_encode_term(text, n)
        for m in (n + 2, n + 4, n + 8):
            got = terms.unfold(enc, m).letters
            want = words.debruijn_encode(terms.unfold(parse_term(text), m), n).letters
            assert got == want, (text, n, m)


def test_debruijn_encode_term_semantic_oracle():
    # ground truth: unfold deep enough that every omega power stabilizes in
    # the probe semigroups (reps = 4! covers sizes <= 4), encode the word,
    # and compare evaluations under every assignment of the gram letters
    cases = [
        ("(ab)^w", 1),
        ("(ab)^(w+1)", 1),
        ("(ab)^(w-1)", 1),
        ("(ab)^(w-1)", 2),
        ("a^w b", 1),
        ("a^w b", 2),
        ("(ab)^w c (ab)^w", 2),
        ("((ab)^w c)^w", 1),
        ("a^(w-1)", 1),
        ("(ab)^w (ba)^(w-1)", 1),
    ]
    reps = 24
    probes = [
        core.u1(),
        core.cyclic_group(2),
        core.cyclic_group(3),
        core.cyclic_group(4),
        core.left_zero(2),
        core.right_zero(2),
    ]
    for text, n in cases:
        enc = terms.debruijn_encode_term(text, n)
        grams_word = words.debruijn_encode(terms.unfold(parse_term(text), reps), n)
        variables = sorted(terms.letters_of(enc) | set(grams_word.letters))
        for T in probes:
            for values in itertools.product(range(len(T)), repeat=len(variables)):
                asg = dict(zip(variables, values))
                got = terms.evaluate(enc, T, asg)
                want = core.evaluate_word(T, asg, grams_word.letters)
                assert got == want, (text, n, T.elements, asg)


def test_debruijn_encode_term_power_law_random():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 3)
        u = "".join(rng.choice("ab") for _ in range(rng.randint(max(1, n), 5)))
        m = rng.randint(2, 5)
        lhs = words.debruijn_encode(u * m, n).letters
        rhs = words.debruijn_encode(u, n).letters + words.debruijn_encode(
            str(words.t_n(u, n)) + u, n
        ).letters * (m - 1)
        assert lhs == rhs


def test_debruijn_encode_term_too_short():
    with pytest.raises(TermTooShortError):
        terms.debruijn_encode_term("ab", 2)


def test_check_vdn(u1, z2):
    res = terms.check_vdn("ab", "ba", 1, u1)
    assert not res.i_t_equal
    res = terms.check_vdn("(ab)^w", "(ab)^w ab", 1, z2)
    assert res.i_t_equal and not res.encoded_identity_holds
    res = terms.check_vdn("(ab)^w a", "(ab)^w a", 2, u1)
    assert res.i_t_equal and res.encoded_identity_holds


def test_equal_in_crh_examples():
    triv = GroupSpec.trivial()
    assert equal_in_crh("ab", "ba", triv) == (False, "zero")
    assert equal_in_crh("aab", "ab", triv) == (True, None)
    assert equal_in_crh("aba", "ab", triv)[0] is False
    assert equal_in_crh("aba", "ab", triv)[1] == "one"
    p = 3
    assert equal_in_crh("a" * (p + 1), "a", GroupSpec.abelian(p)) == (True, None)
    assert equal_in_crh("aa", "a", GroupSpec.abelian(p))[0] is False
    assert equal_in_crh("aa", "a", GroupSpec.all_groups())[0] is False
    with pytest.raises(words.EmptyWordError):
        equal_in_crh("", "a", triv)


def test_equal_in_crh_is_an_equivalence():
    two_letter_words = []
    for length in range(1, 7):
        two_letter_words += ["".join(w) for w in itertools.product("ab", repeat=length)]
    for h in (GroupSpec.trivial(), GroupSpec.abelian(2), GroupSpec.all_groups()):
        keys = {w: terms.crh_class_key(w, h) for w in two_letter_words}
        for u in two_letter_words[:20]:
            for v in two_letter_words[:20]:
                assert equal_in_crh(u, v, h)[0] == (keys[u] == keys[v])


def test_equal_in_crh_free_band_classes():
    # the free band on two generators has six elements
    ws = []
    for length in range(1, 7):
        ws += ["".join(w) for w in itertools.product("ab", repeat=length)]
    classes = {terms.crh_class_key(w, GroupSpec.trivial()) for w in ws}
    assert len(classes) == 6


def band_models():
    u1, lz2, rz2 = core.u1(), core.left_zero(2), core.right_zero(2)
    singles = [u1, lz2, rz2]
    prods = [core.direct_product(a, b) for a, b in itertools.combinations(singles, 2)]
    return singles + prods


def test_equal_in_crh_sound_for_trivial_groups():
    rng = random.Random(10)
    models = band_models()
    for _ in range(150):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        if not equal_in_crh(u, v, GroupSpec.trivial())[0]:
            continue
        for M in models:
            for ga, gb in itertools.product(range(len(M)), repeat=2):
                gm = {"a": ga, "b": gb}
                assert core.evaluate_word(M, gm, u) == core.evaluate_word(M, gm, v)


def test_equal_in_crh_sound_for_ab2():
    rng = random.Random(11)
    models = band_models() + [cons.k_p(2), core.direct_product(core.u1(), cons.k_p(2))]
    for _ in range(100):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        if not equal_in_crh(u, v, GroupSpec.abelian(2))[0]:
            continue
        for M in models:
            for ga, gb in itertools.product(range(len(M)), repeat=2):
                gm = {"a": ga, "b": gb}
                assert core.evaluate_word(M, gm, u) == core.evaluate_word(M, gm, v)


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec.abelian(1)
    with pytest.raises(ValueError):
        GroupSpec("bogus")
    assert GroupSpec.from_text("ab:3") == GroupSpec.abelian(3)
    assert GroupSpec.from_text("trivial") == GroupSpec.trivial()
    assert GroupSpec.from_text("groups") == GroupSpec.all_groups()


def test_identity_stable_under_products():
    pool = [core.u1(), core.cyclic_group(2), core.left_zero(2)]
    idents = [("x^2", "x"), ("xy", "yx"), ("xy", "x"), ("x^(w+1)", "x")]
    for S, T in itertools.product(pool, repeat=2):
        P = core.direct_product(S, T)
        for lhs, rhs in idents:
            both = terms.satisfies_identity(S, lhs, rhs)[0] and terms.satisfies_identity(T, lhs, rhs)[0]
            assert terms.satisfies_identity(P, lhs, rhs)[0] == both


def test_satisfies_identity_symmetric():
    pool = [core.u1(), core.cyclic_group(2), core.left_zero(2)]
    for S in pool:
        for lhs, rhs in [("xy", "yx"), ("x^2", "x"), ("xy", "x")]:
            assert (
                terms.satisfies_identity(S, lhs, rhs)[0]
                == terms.satisfies_identity(S, rhs, lhs)[0]
            )


def crh_closure(letters, h):
    """Class representatives closed under concatenation; one key memo is
    shared by every word, as all are keyed over the same h."""
    memo: dict = {}
    reps = {terms._crh_key(tuple(a), h, memo): a for a in letters}
    while True:
        new = {}
        items = list(reps.values())
        for u in items:
            for v in items:
                k = terms._crh_key(tuple(u + v), h, memo)
                if k not in reps and k not in new:
                    new[k] = u + v
        if not new:
            return reps
        reps.update(new)


def test_free_band_on_three_generators_has_159_elements():
    # Green-Rees: |FB(1)| = 1, |FB(2)| = 6, |FB(3)| = 159
    triv = GroupSpec.trivial()
    assert len(crh_closure("a", triv)) == 1
    assert len(crh_closure("ab", triv)) == 6
    assert len(crh_closure("abc", triv)) == 159


def test_free_object_for_ab2_on_two_generators():
    # the free completely regular semigroup with exponent-2 subgroups on
    # {a,b}: four single-letter classes plus a 4 x 4 kernel with maximal
    # subgroups of order 8, i.e. 4 + 4*4*8 = 132 elements
    reps = crh_closure("ab", GroupSpec.abelian(2))
    assert len(reps) == 132
    singles = [k for k in reps if k[0] == "pow"]
    full = [k for k in reps if k[0] == "word"]
    assert len(singles) == 4 and len(full) == 128


def test_single_letter_free_object_mod_3():
    reps = crh_closure("a", GroupSpec.abelian(3))
    assert len(reps) == 3


def test_parse_rejects_deep_nesting(z2):
    # 100 levels parse, print and evaluate; past that the parser stops
    assert parse_term("(" * 100 + "x" + ")" * 100) == Letter("x")
    for text in ["x" + "^2" * 100, "(" * 100 + "x" + ")^2" * 100, "(x" * 99 + "x" + ")" * 99]:
        t = parse_term(text)
        assert parse_term(term_to_text(t)) == t
        assert terms.satisfies_identity(z2, t, t) == (True, None)
    for text, pos in [("(" * 400 + "x" + ")" * 400, 100), ("x" + "^2" * 2000, 201)]:
        with pytest.raises(TermSyntaxError, match="nested deeper") as exc:
            parse_term(text)
        assert exc.value.pos == pos
    # concatenations and powers add up along a path
    text = "x"
    for _ in range(60):
        text = f"({text} y)^2"
    with pytest.raises(TermSyntaxError, match="nested deeper"):
        parse_term(text)


oracle_crh_memo: dict = {}


def oracle_crh_key(letters, h):
    """The key with its process-global memo, as before the memo became per call."""
    memo_key = (letters, h)
    if memo_key in oracle_crh_memo:
        return oracle_crh_memo[memo_key]
    if not letters:
        result = ("eps",)
    else:
        c = frozenset(letters)
        if len(c) == 1:
            a = letters[0]
            j = len(letters)
            if h.kind == "trivial":
                result = ("pow", a)
            elif h.kind == "abelian":
                result = ("pow", a, j % h.n)
            else:
                result = ("pow", a, j)
        else:
            w = words.Word(letters)
            zero_key = oracle_crh_key(words.left_basic_factorization(w).prefix.letters, h)
            one_key = oracle_crh_key(words.right_basic_factorization(w).remainder.letters, h)
            ids = tuple(
                oracle_crh_key(factor.letters, h)
                for factor, _, _ in words.characteristic_sequence(w)
            )
            if h.kind == "trivial":
                chi_part = None
            elif h.kind == "abelian":
                counts = Counter(ids)
                chi_part = frozenset(
                    (i, cnt % h.n) for i, cnt in counts.items() if cnt % h.n != 0
                )
            else:
                chi_part = ids
            result = ("word", c, zero_key, one_key, chi_part)
    oracle_crh_memo[memo_key] = result
    return result


def test_crh_keys_need_no_global_memo():
    def sizes():
        return {
            name: len(value)
            for name, value in vars(terms).items()
            if isinstance(value, (dict, list, set))
        }

    before = sizes()
    rng = random.Random(12)
    specs = [GroupSpec.trivial(), GroupSpec.abelian(2), GroupSpec.abelian(3), GroupSpec.all_groups()]
    ws = ["".join(rng.choice("abc") for _ in range(rng.randint(1, 9))) for _ in range(60)]
    for h in specs:
        for u in ws:
            assert terms.crh_class_key(u, h) == oracle_crh_key(tuple(u), h)
        for u, v in zip(ws, ws[1:]):
            assert equal_in_crh(u, v, h)[0] == (oracle_crh_key(tuple(u), h) == oracle_crh_key(tuple(v), h))
    assert not hasattr(terms, "_crh_memo")
    assert sizes() == before


def test_power_tables_match_the_sequential_product():
    rng = random.Random(71)
    for _ in range(8):
        S = random_transformation_semigroup(rng, max_size=40)
        n = len(S)
        for _ in range(6):
            e = rng.randint(1, 3 * n)
            k = rng.randint(1, 3 * n)
            power = terms._compile(Power(Letter("x"), e), S, {"x": 0})
            omega_plus = terms._compile(Power(Letter("x"), OmegaExp(k)), S, {"x": 0})
            for x in range(n):
                acc = x
                for _ in range(e - 1):
                    acc = S.table[acc][x]
                assert power((x,)) == acc
                acc = core.omega_power(S, x)
                for _ in range(k):
                    acc = S.table[acc][x]
                assert omega_plus((x,)) == acc


def test_huge_exponents_are_evaluated_without_unfolding(z2):
    assert terms.satisfies_identity(z2, "x^100000000", "x") == (False, {"x": 1})
    assert terms.satisfies_identity(z2, "x^(w+100000001)", "x") == (True, None)


def test_vdn_rejects_long_unfoldings_before_unfolding(u1):
    bound = terms._MAX_UNFOLDED
    assert terms.term_i_t(f"a^{bound - 2}b^2", 1)[1].letters == ("b",)
    nested = "a"
    for _ in range(40):
        nested = f"({nested} b)^(w-1)"
    for term in (f"a^{bound + 1}", "a^100000000", nested, f"(ab)^{bound // 2}(ab)^w"):
        with pytest.raises(ValueError, match=f"bound {bound}"):
            terms.term_i_t(term, 1)
        with pytest.raises(ValueError, match=f"bound {bound}"):
            terms.debruijn_encode_term(term, 1)
        with pytest.raises(ValueError, match=f"bound {bound}"):
            terms.check_vdn(term, "ab", 1, u1)


# --- the keyed scan and the linear CR keys against the code they replaced -----

def old_first_failure(S, lhs, rhs, related):
    """terms._first_failure before the scan was keyed: every assignment."""
    lhs, rhs = terms._as_term(lhs), terms._as_term(rhs)
    variables = sorted(terms.letters_of(lhs) | terms.letters_of(rhs))
    index = {ch: i for i, ch in enumerate(variables)}
    f, g = terms._compile(lhs, S, index), terms._compile(rhs, S, index)
    for values in itertools.product(range(len(S)), repeat=len(variables)):
        if not related(f(values), g(values)):
            return dict(zip(variables, values))
    return None


def term_with_repeats(rng, pool, letters, depth=3):
    """A random term over `letters` that reuses the subterms in `pool`."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return Letter(rng.choice(letters))
    if roll < 0.45:
        return rng.choice(pool)
    if roll < 0.75:
        return terms.concat([term_with_repeats(rng, pool, letters, depth - 1) for _ in range(rng.randint(2, 4))])
    exp = rng.choice([rng.randint(1, 3), OmegaExp(0), OmegaExp(-1), OmegaExp(1)])
    return Power(term_with_repeats(rng, pool, letters, depth - 1), exp)


def keyed_scan_cases():
    """Pairs of terms with repeated z-free subterms, single-letter terms, and
    terms in which the last letter occurs on one side only."""
    rng = random.Random(2017)
    semigroups = list(small_library().values())
    semigroups += [random_transformation_semigroup(rng, max_size=10) for _ in range(25)]
    for S in semigroups:
        pool = [random_term(rng, depth=1) for _ in range(3)]
        pairs = [(term_with_repeats(rng, pool, "xyz"), term_with_repeats(rng, pool, "xyz")) for _ in range(3)]
        pairs.append((term_with_repeats(rng, pool, "x"), term_with_repeats(rng, pool, "x")))
        pairs.append((term_with_repeats(rng, pool, "xy"), term_with_repeats(rng, pool, "yz")))
        pairs.append((term_with_repeats(rng, pool, "xz"), term_with_repeats(rng, pool, "xy")))
        t = term_with_repeats(rng, pool, "xyz")
        pairs += [(t, t), (concat_with(t, "z"), concat_with(t, "z"))]
        yield S, pairs


def concat_with(t, ch):
    return terms.concat([t, Letter(ch), t])


def test_keyed_scan_matches_the_full_scan():
    checked = failed = 0
    for S, pairs in keyed_scan_cases():
        for lhs, rhs in pairs:
            want = old_first_failure(S, lhs, rhs, operator.eq)
            assert terms._first_failure(S, lhs, rhs, operator.eq) == want, (term_to_text(lhs), term_to_text(rhs))
            checked += 1
            failed += want is not None
    assert checked > 300 and 0.2 < failed / checked < 0.9


def test_keyed_scan_is_exact_when_its_memo_is_refilled(monkeypatch):
    monkeypatch.setattr(terms, "_MAX_SCAN_KEYS", 2)
    for S, pairs in itertools.islice(keyed_scan_cases(), 10):
        for lhs, rhs in pairs:
            assert terms._first_failure(S, lhs, rhs, operator.eq) == old_first_failure(S, lhs, rhs, operator.eq)


def test_keyed_scan_tries_every_z_once_per_distinct_key():
    S = core.full_transformation_monoid(3)
    calls = []

    def related(a, b):
        calls.append(None)
        return a == b

    # two slots, xy and (xy)^w, whose key is fixed by the value of xy
    assert terms._first_failure(S, "xyz(xy)^w", "x(yz)(xy)^w", related) is None
    keys = {S.table[x][y] for x in range(len(S)) for y in range(len(S))}
    assert len(calls) == len(S) * len(keys) < len(S) ** 3


def test_keyed_scan_of_inequalities_matches_the_full_scan():
    from eggbox import order

    checked = 0
    for S, pairs in keyed_scan_cases():
        if len(S) > 8:
            continue
        for os_ in order.enumerate_stable_orders(S, limit=3):
            related = lambda a, b: (a, b) in os_.leq
            for lhs, rhs in pairs:
                want = old_first_failure(S, lhs, rhs, related)
                assert terms.satisfies_inequality(os_, lhs, rhs) == (want is None, want)
                checked += 1
    assert checked > 200


def test_hoisting_shares_slots_and_groups_z_free_factors():
    slots = {}
    hoisted = terms._hoist(parse_term("(x y z x y)^w x y (z t)^2"), "z", slots)
    assert slots == {parse_term("xy"): 0, Letter("t"): 1}
    slot = Letter(0)
    assert hoisted == terms.concat(
        [Power(terms.concat([slot, Letter("z"), slot]), OmegaExp(0)), slot, Power(terms.concat([Letter("z"), Letter(1)]), 2)]
    )
    assert terms._hoist(parse_term("x y^w"), "z", {}) == slot


def old_crh_key(letters, h, memo):
    """terms._crh_key before it worked on letter tuples and spans."""
    if letters in memo:
        return memo[letters]
    if not letters:
        result = ("eps",)
    else:
        c = frozenset(letters)
        if len(c) == 1:
            a = letters[0]
            j = len(letters)
            if h.kind == "trivial":
                result = ("pow", a)
            elif h.kind == "abelian":
                result = ("pow", a, j % h.n)
            else:
                result = ("pow", a, j)
        else:
            w = words.Word(letters)
            zero_key = old_crh_key(words.left_basic_factorization(w).prefix.letters, h, memo)
            one_key = old_crh_key(words.right_basic_factorization(w).remainder.letters, h, memo)
            ids = tuple(
                old_crh_key(factor.letters, h, memo)
                for factor, _, _ in old_characteristic_sequence(w)
            )
            if h.kind == "trivial":
                chi_part = None
            elif h.kind == "abelian":
                counts = Counter(ids)
                chi_part = frozenset(
                    (i, cnt % h.n) for i, cnt in counts.items() if cnt % h.n != 0
                )
            else:
                chi_part = ids
            result = ("word", c, zero_key, one_key, chi_part)
    memo[letters] = result
    return result


def key_id(key, table, seen):
    """An int per class key, equal for equal keys. Keys share subkeys, so
    comparing two separately built keys with == can take exponential time;
    this walks each shared subkey once (`seen` maps id(subkey) to its int)."""
    if id(key) not in seen:
        canon = key
        if key[0] == "word":
            _, c, zero, one, chi = key
            sub = lambda k: key_id(k, table, seen)
            if isinstance(chi, frozenset):
                chi = frozenset((sub(k), count) for k, count in chi)
            elif chi is not None:
                chi = tuple(map(sub, chi))
            canon = ("word", c, sub(zero), sub(one), chi)
        seen[id(key)] = table.setdefault(canon, len(table))
    return seen[id(key)]


def test_crh_keys_match_the_factorization_keys():
    rng = random.Random(2018)
    ws = random_words(rng, 400, max_len=16)
    for h in (GroupSpec.trivial(), GroupSpec.abelian(2), GroupSpec.all_groups()):
        old_memo, shared, table = {}, {}, {}
        old = [old_crh_key(w, h, old_memo) for w in ws]
        new = [terms._crh_key(w, h, shared) for w in ws]
        alone = [terms.crh_class_key(w, h) for w in ws]
        seen = {}  # every key stays alive in the lists above, so ids are not reused
        ids = [[key_id(k, table, seen) for k in keys] for keys in (old, new, alone)]
        assert ids[0] == ids[1] == ids[2]
        assert len(set(ids[0])) > len(ws) // 2 and set(shared) <= set(old_memo)
        for (u, i), (v, j) in zip(zip(ws, ids[0]), zip(ws[1:], ids[0][1:])):
            assert equal_in_crh(u, v, h)[0] == (i == j)


def test_encode_visits_count_the_letters_encode_visits(monkeypatch):
    rng = random.Random(2019)
    encode = terms._encode
    visits = []

    def counting(ctx, term, n):
        visits[-1] += isinstance(term, Letter)
        return encode(ctx, term, n)

    monkeypatch.setattr(terms, "_encode", counting)
    for _ in range(300):
        t, n = random_term(rng), rng.randint(1, 4)
        visits.append(0)
        try:
            terms.debruijn_encode_term(t, n)
        except TermTooShortError:
            pass
        assert visits[-1] == terms._encode_visits(t, n), (term_to_text(t), n)


def test_vdn_rejects_costly_encodings_before_encoding(z2):
    term = "a^w^w^w^w^w"
    assert terms._unfolded_length(parse_term(term), 10) == terms._MAX_UNFOLDED
    with pytest.raises(ValueError, match=f"visits 1048576 letters at n = 8, over the bound {terms._MAX_UNFOLDED}"):
        terms.check_vdn(term, "aa", 8, z2)
    assert terms.check_vdn(term, "aa", 1, z2).i_t_equal


def test_trivial_crh_keys_key_only_the_zero_and_one_parts():
    """Over bands (trivial H) a key is content, 0-part and 1-part alone, so
    keying a word fills the memo with the words its 0/1 cuts reach, at most
    2^|content| - 1 of them whatever the length, and with no factor of the
    characteristic sequence."""
    rng = random.Random(5000)
    h = GroupSpec.trivial()
    for k in (2, 3, 5, 8):
        letters = tuple(rng.choice("abcdefgh"[:k]) for _ in range(5000))
        memo = {}
        terms._crh_key(letters, h, memo)
        reached, todo = {letters}, [letters]
        for u in todo:
            if len(set(u)) > 1:
                for cut in (
                    words.left_basic_factorization(u).prefix.letters,
                    words.right_basic_factorization(u).remainder.letters,
                ):
                    if cut not in reached:
                        reached.add(cut)
                        todo.append(cut)
        assert set(memo) == reached
        assert len(memo) < 2**k
        short = letters[:300]
        assert terms.crh_class_key(short, h) == old_crh_key(short, h, {})
