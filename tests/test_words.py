import itertools
import random

import pytest

from eggbox import words
from eggbox.words import (
    AvoidSetTooLargeError,
    ContentTooSmallError,
    EmptyWordError,
    PreconditionViolatedError,
    Word,
)
from conftest import old_characteristic_sequence, random_words


def test_prefix_suffix_content():
    assert str(words.t_n("abcab", 2)) == "ab"
    assert str(words.i_n("abcab", 2)) == "ab"
    assert str(words.t_n("ab", 5)) == "ab"
    assert words.content("aba") == frozenset("ab")
    assert words.content("") == frozenset()


def test_debruijn_encode_basics():
    assert words.debruijn_encode("aba", 1).letters == ("ab", "ba")
    assert words.debruijn_encode("ab", 2).letters == ()
    assert words.debruijn_encode("abc", 0).letters == ("a", "b", "c")


def test_debruijn_concat_laws_random():
    rng = random.Random(1)
    for _ in range(400):
        n = rng.randint(0, 4)
        sigma = "abcd"[: rng.randint(2, 4)]
        u = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 8)))
        v = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 8)))
        uv = words.debruijn_encode(u + v, n)
        left = words.debruijn_encode(u, n).letters + words.debruijn_encode(
            str(words.t_n(u, n)) + v, n
        ).letters
        right = words.debruijn_encode(u + str(words.i_n(v, n)), n).letters + words.debruijn_encode(
            v, n
        ).letters
        assert uv.letters == left == right


def test_debruijn_injective_on_long_words():
    for n in (1, 2, 3):
        seen = {}
        for length in range(n + 1, 9):
            for w in itertools.product("ab", repeat=length):
                key = words.debruijn_encode("".join(w), n).letters
                assert key not in seen
                seen[key] = w


def test_valid_debruijn_encoding():
    assert words.valid_debruijn_encoding(words.debruijn_encode("abcab", 1), 1)
    assert not words.valid_debruijn_encoding(Word(("ab", "ca")), 1)
    assert not words.valid_debruijn_encoding(Word(("abc",)), 1)


def test_left_basic_factorization():
    f = words.left_basic_factorization("aabac")
    assert (str(f.prefix), f.marker, str(f.remainder)) == ("aaba", "c", "")
    f = words.left_basic_factorization("acaba")
    assert (str(f.prefix), f.marker, str(f.remainder)) == ("aca", "b", "a")
    assert str(f.reassemble()) == "acaba"
    assert words.content(f.prefix) | {f.marker} == words.content("acaba")
    with pytest.raises(EmptyWordError):
        words.left_basic_factorization("")


def test_right_basic_factorization():
    f = words.right_basic_factorization("acaba")
    assert (str(f.prefix), f.marker, str(f.remainder)) == ("a", "c", "aba")
    assert str(f.reassemble()) == "acaba"
    assert words.content(f.remainder) | {f.marker} == words.content("acaba")


def test_lbf_marker_is_unique():
    rng = random.Random(2)
    for _ in range(200):
        w = "".join(rng.choice("abc") for _ in range(rng.randint(1, 10)))
        f = words.left_basic_factorization(w)
        hits = 0
        for pos in range(len(w)):
            prefix, marker = w[:pos], w[pos]
            if set(prefix) | {marker} == set(w) and marker not in set(prefix):
                hits += 1
        assert hits == 1 and str(f.reassemble()) == w


def test_basic_factorizations_match_their_definitions():
    rng = random.Random(2020)
    for w in random_words(rng, 300, max_len=20):
        c = set(w)
        left = [p for p in range(len(w)) if w[p] not in w[:p] and set(w[:p]) | {w[p]} == c]
        right = [p for p in range(len(w)) if w[p] not in w[p + 1 :] and set(w[p + 1 :]) | {w[p]} == c]
        assert words.marker_positions(w) == (left[0], right[0]) and len(left) == len(right) == 1
        f, g = words.left_basic_factorization(w), words.right_basic_factorization(w)
        assert (f.prefix.letters, f.marker, f.remainder.letters) == (w[: left[0]], w[left[0]], w[left[0] + 1 :])
        assert (g.prefix.letters, g.marker, g.remainder.letters) == (w[: right[0]], w[right[0]], w[right[0] + 1 :])


def test_zero_one_functions():
    assert tuple(map(str, words.zero_funcs("acaba"))) == ("aca", "b")
    assert tuple(map(str, words.one_funcs("acaba"))) == ("aba", "c")
    # iterating 0 recovers the first-occurrence order of the letters
    order = []
    w = "acaba"
    while w:
        prefix, marker = words.zero_funcs(w)
        order.append(marker)
        w = str(prefix)
    assert order[::-1] == ["a", "c", "b"]


def test_greedy_subword():
    positions, rem = words.greedy_subword("aabb", "ab")
    assert positions == (1, 3) and str(rem) == "b"
    assert words.greedy_subword("aabb", "ba") is None
    positions, rem = words.greedy_subword("ab", "ab")
    assert positions == (1, 2) and str(rem) == ""
    with pytest.raises(EmptyWordError, match="greedy_subword needs a nonempty pattern"):
        words.greedy_subword("ab", "")


def test_is_subword():
    assert words.is_subword("ab", "axb")
    assert not words.is_subword("ba", "aab")
    assert words.is_subword("", "anything")


def chi_oracle(w):
    """Enumerate every interval, keep content size k-1, filter maximal."""
    k = len(set(w))
    intervals = [
        (i, j)
        for i in range(len(w))
        for j in range(i, len(w))
        if len(set(w[i : j + 1])) == k - 1
    ]
    maximal = [
        (i, j)
        for (i, j) in intervals
        if not any((i2 <= i and j <= j2 and (i2, j2) != (i, j)) for (i2, j2) in intervals)
    ]
    return [(w[i : j + 1], i + 1, j + 1) for (i, j) in sorted(maximal)]


def test_characteristic_sequence_examples():
    assert [(str(f), s, e) for f, s, e in words.characteristic_sequence("ab")] == [
        ("a", 1, 1),
        ("b", 2, 2),
    ]
    assert [(str(f), s, e) for f, s, e in words.characteristic_sequence("aabba")] == [
        ("aa", 1, 2),
        ("bb", 3, 4),
        ("a", 5, 5),
    ]
    assert [(str(f), s, e) for f, s, e in words.characteristic_sequence("abcab")] == [
        ("ab", 1, 2),
        ("bc", 2, 3),
        ("ca", 3, 4),
        ("ab", 4, 5),
    ]
    with pytest.raises(ContentTooSmallError):
        words.characteristic_sequence("aaa")


def test_characteristic_sequence_against_oracle():
    rng = random.Random(3)
    for _ in range(300):
        sigma = "abc"[: rng.randint(2, 3)]
        w = "".join(rng.choice(sigma) for _ in range(rng.randint(2, 12)))
        if len(set(w)) < 2:
            continue
        got = [(str(f), s, e) for f, s, e in words.characteristic_sequence(w)]
        assert got == chi_oracle(w)


def test_characteristic_sequence_matches_the_per_start_scan():
    rng = random.Random(2016)
    for w in random_words(rng, 1500, max_len=60):
        assert words.characteristic_sequence(w) == old_characteristic_sequence(w), w
        spans = words.characteristic_spans(w, len(set(w)))
        assert [(s + 1, e) for s, e in spans] == [(s, e) for _, s, e in old_characteristic_sequence(w)]


def test_characteristic_sequence_invariants():
    rng = random.Random(4)
    for _ in range(200):
        w = "".join(rng.choice("abc") for _ in range(rng.randint(2, 12)))
        if len(set(w)) < 2:
            continue
        seq = words.characteristic_sequence(w)
        k = len(set(w))
        covered = set()
        for f, s, e in seq:
            assert len(words.content(f)) == k - 1
            covered.update(range(s, e + 1))
        assert covered == set(range(1, len(w) + 1))
        for (f1, s1, e1), (f2, s2, e2) in zip(seq, seq[1:]):
            assert s2 <= e1 + 1  # consecutive factors overlap or abut


def test_stretch_word_examples():
    assert str(words.stretch_word("b", [], "baa")) == "babab"
    assert str(words.stretch_word("b", ["bbabab"], "baa")) == "bababb"
    with pytest.raises(PreconditionViolatedError):
        words.stretch_word("b", [], "ba")
    with pytest.raises(PreconditionViolatedError):
        words.stretch_word("baa", [], "baa")
    with pytest.raises(AvoidSetTooLargeError):
        words.stretch_word("b", ["bbabab", "bbababb", "bbababbb"], "baa")


def test_stretch_word_postconditions_random():
    rng = random.Random(5)
    for _ in range(300):
        sigma = "ab"
        a = rng.choice(sigma)
        body = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 4)))
        s = body + a + a
        x = ""
        for _ in range(rng.randint(0, 6)):
            nxt = rng.choice(sigma)
            if s in x + nxt:
                break
            x += nxt
        avoid = ["".join(rng.choice(sigma) for _ in range(3)) for _ in range(rng.randint(0, 2))]
        r = str(words.stretch_word(x, avoid, s, alphabet=sigma))
        assert x + r not in avoid
        full = x + r + s
        hits = [i for i in range(len(full)) if full.startswith(s, i)]
        assert hits == [len(x + r)]


def test_connect_word_examples():
    assert str(words.connect_word("ab", "a", "b")) == "aaab"
    assert str(words.connect_word("", "a", "b")) == "a"
    assert str(words.connect_word("a", "a", "b")) == "a"


def test_connect_word_postconditions_random():
    rng = random.Random(6)
    for _ in range(300):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
        a, b = rng.sample(["a", "b"], 2)
        t = str(words.connect_word(w, a, b))
        wt = w + t
        aw, bw = a + w, b + w
        hits = [i for i in range(len(wt)) if wt.startswith(aw, i)]
        assert hits == [len(wt) - len(aw)]
        assert bw not in wt


def slice_find_factor(hay, needle, start=0):
    """words._find_factor as it was before str.find over the letter code: a
    slice compared at every offset."""
    m, k = len(hay), len(needle)
    for i in range(start, m - k + 1):
        if hay[i : i + k] == needle:
            return i
    return -1


def slice_occurrences(hay, needle):
    out = []
    i = slice_find_factor(hay, needle)
    while i >= 0:
        out.append(i)
        i = slice_find_factor(hay, needle, i + 1)
    return out


def test_factor_scans_match_the_slice_scans():
    rng = random.Random(44)
    # multi-character letters whose characters also occur as letters
    alphabets = [("a", "b"), ("a", "b", "c"), ("ab", "a", "b", "ba"), ("aa", "a", "xyz")]
    overlapping = 0
    for k in range(3000):
        sigma = alphabets[k % len(alphabets)]
        hay = tuple(rng.choice(sigma) for _ in range(rng.randint(0, 30)))
        if hay and rng.random() < 0.5:  # a factor of hay, so it occurs
            i = rng.randrange(len(hay))
            needle = hay[i : i + rng.randint(1, 4)]
        else:
            needle = tuple(rng.choice(sigma) for _ in range(rng.randint(1, 4)))
        occ = words._occurrences(hay, needle)
        assert occ == slice_occurrences(hay, needle), (hay, needle)
        assert str.find(*words._coded(hay, needle)) == slice_find_factor(hay, needle)
        overlapping += any(j - i < len(needle) for i, j in zip(occ, occ[1:]))
    assert overlapping > 100
