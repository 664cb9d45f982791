"""Finite-word combinatorics.

Words are tuples of letters; a letter is a nonempty string, usually one
character. The de Bruijn encoding produces words whose letters are
(n+1)-grams, so every operation here accepts composite letters. Positions
reported to callers are 1-based.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .core import record


class WordError(ValueError):
    pass


class EmptyWordError(WordError):
    pass


class ContentTooSmallError(WordError):
    pass


class PreconditionViolatedError(WordError):
    pass


class AvoidSetTooLargeError(WordError):
    pass


@record
class Word:
    letters: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, item) -> "Word":
        if isinstance(item, slice):
            return Word(self.letters[item])
        return Word((self.letters[item],))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + coerce(other).letters)

    def __str__(self) -> str:
        if all(len(a) == 1 for a in self.letters):
            return "".join(self.letters)
        return ".".join(self.letters)

    def reversed(self) -> "Word":
        return Word(self.letters[::-1])


WordLike = Union[Word, str, Iterable[str]]


def coerce(w: WordLike) -> Word:
    return w if isinstance(w, Word) else Word(letter_tuple(w))


def letter_tuple(w: WordLike) -> tuple[str, ...]:
    """The letters of a word, without building a Word: a string is read
    one character per letter."""
    return w.letters if isinstance(w, Word) else tuple(w)


def content(w: WordLike) -> frozenset[str]:
    return frozenset(coerce(w).letters)


def i_n(w: WordLike, n: int) -> Word:
    """Longest prefix of w of length at most n."""
    w = coerce(w)
    return Word(w.letters[: max(n, 0)])


def t_n(w: WordLike, n: int) -> Word:
    """Longest suffix of w of length at most n."""
    w = coerce(w)
    if n <= 0:
        return Word()
    return Word(w.letters[-n:]) if len(w) > n else w


def debruijn_encode(w: WordLike, n: int) -> Word:
    """The word of successive (n+1)-gram factors of w, read left to right.

    Output letters are the grams themselves (strings); words of length at
    most n map to the empty word, and n = 0 is the identity.
    """
    if n < 0:
        raise WordError("n must be >= 0")
    w = coerce(w)
    k = n + 1
    return Word(
        tuple("".join(w.letters[i : i + k]) for i in range(len(w) - k + 1))
    )


def valid_debruijn_encoding(w: WordLike, n: int) -> bool:
    """Do consecutive gram letters overlap correctly, i.e. (ax)(xb) shape?"""
    w = coerce(w)
    if any(len(a) != n + 1 for a in w.letters):
        return False
    return all(
        w.letters[i][1:] == w.letters[i + 1][:-1] for i in range(len(w) - 1)
    )


@record
class Factorization:
    prefix: Word
    marker: str
    remainder: Word

    def reassemble(self) -> Word:
        return self.prefix * Word((self.marker,)) * self.remainder


def marker_positions(letters: tuple[str, ...]) -> tuple[int, int]:
    """(i, j) for a nonempty word: letters[i] is the letter whose first
    occurrence comes last, letters[j] the one whose last occurrence comes
    first. dict.fromkeys keeps letters in order of first occurrence, so each
    marker is its last key; O(len(letters))."""
    rev = letters[::-1]
    first, last = next(reversed(dict.fromkeys(letters))), next(reversed(dict.fromkeys(rev)))
    return letters.index(first), len(letters) - 1 - rev.index(last)


def left_basic_factorization(w: WordLike) -> Factorization:
    """w = prefix . marker . remainder with content(w) = content(prefix) + {marker}.

    The marker is the letter whose first occurrence comes last.
    """
    w = coerce(w)
    if not w:
        raise EmptyWordError("left basic factorization needs a nonempty word")
    pos, _ = marker_positions(w.letters)
    return Factorization(w[:pos], w.letters[pos], w[pos + 1 :])


def right_basic_factorization(w: WordLike) -> Factorization:
    """Dual factorization: content(w) = content(remainder) + {marker}."""
    w = coerce(w)
    if not w:
        raise EmptyWordError("right basic factorization needs a nonempty word")
    _, pos = marker_positions(w.letters)
    return Factorization(w[:pos], w.letters[pos], w[pos + 1 :])


def zero_funcs(w: WordLike) -> tuple[Word, str]:
    """(0(w), 0bar(w)): prefix before, and letter at, the last first-occurrence."""
    f = left_basic_factorization(w)
    return f.prefix, f.marker


def one_funcs(w: WordLike) -> tuple[Word, str]:
    """(1(w), 1bar(w)), the right-hand dual of zero_funcs."""
    f = right_basic_factorization(w)
    return f.remainder, f.marker


def is_subword(u: WordLike, w: WordLike) -> bool:
    """Scattered subword test; the empty word is a subword of everything."""
    u, w = coerce(u), coerce(w)
    it = iter(w.letters)
    return all(a in it for a in u.letters)


def greedy_subword(w: WordLike, u: WordLike) -> Optional[tuple[tuple[int, ...], Word]]:
    """Leftmost embedding of u in w as a scattered subword.

    Returns (positions, remainder) with 1-based positions, or None when u is
    not a subword of w. The remainder is the suffix after the last matched
    position.
    """
    w, u = coerce(w), coerce(u)
    if not u:
        raise EmptyWordError("greedy_subword needs a nonempty pattern")
    positions = []
    start = 0
    for a in u.letters:
        try:
            start = w.letters.index(a, start) + 1
        except ValueError:
            return None
        positions.append(start)
    return tuple(positions), w[start:]


def characteristic_sequence(w: WordLike) -> list[tuple[Word, int, int]]:
    """Maximal factors of w whose content misses exactly one letter of c(w).

    Entries are (factor, start, end) with 1-based inclusive bounds, ordered
    by start position; maximality is under interval inclusion.
    """
    w = coerce(w)
    k = len(content(w))
    if k < 2:
        raise ContentTooSmallError("characteristic sequence needs content of size >= 2")
    return [(w[i:j], i + 1, j) for i, j in characteristic_spans(w.letters, k)]


def characteristic_spans(letters: tuple[str, ...], k: int) -> list[tuple[int, int]]:
    """The characteristic sequence of a word with k >= 2 letters, as slices
    letters[i:j] in order of i.

    One sliding window with letter counts: the longest factor starting at i
    with at most k - 1 letters ends no earlier than the one starting at
    i - 1, so each is kept when it has exactly k - 1 letters and ends later
    than the last one kept. O(len(letters)).
    """
    counts: dict[str, int] = {}
    spans: list[tuple[int, int]] = []
    m, j = len(letters), 0
    for i, a in enumerate(letters):
        while j < m and (letters[j] in counts or len(counts) < k - 1):
            counts[letters[j]] = counts.get(letters[j], 0) + 1
            j += 1
        if len(counts) == k - 1 and (not spans or j > spans[-1][1]):
            spans.append((i, j))
        if j == m:  # every later window ends here too, so none is kept
            break
        if counts[a] == 1:
            del counts[a]
        else:
            counts[a] -= 1
    return spans


def _coded(*words: tuple[str, ...]) -> list[str]:
    """The words as strings of one character per distinct letter (a letter
    can be several characters long), so factors are substrings at the same
    positions."""
    code: dict[str, str] = {}
    return ["".join([code.setdefault(a, chr(len(code))) for a in w]) for w in words]


def _occurrences(hay: tuple[str, ...], needle: tuple[str, ...]) -> list[int]:
    """Every position of needle in hay as a factor, overlapping ones included."""
    h, n = _coded(hay, needle)
    out = []
    i = h.find(n)
    while i >= 0:
        out.append(i)
        i = h.find(n, i + 1)
    return out


def stretch_word(
    x: WordLike, avoid: Iterable[WordLike], s: WordLike, alphabet: Optional[Iterable[str]] = None
) -> Word:
    """A word r with x*r avoiding the given words and s occurring in x*r*s
    only as a suffix.

    Requires t_2(s) to be a square a^2, s not a factor of x, and a second
    letter b != a available in the ambient alphabet (derived from the inputs
    unless given). Candidates are b(ab)^k, b(ab)^k b, b(ab)^k b^2 with
    k = ceil(|s|/2); the postcondition is re-verified by an occurrence scan
    before returning.
    """
    x, s = coerce(x), coerce(s)
    avoid_set = {coerce(v).letters for v in avoid}
    if len(s) < 2 or s.letters[-1] != s.letters[-2]:
        raise PreconditionViolatedError("t_2(s) must be the square of a letter")
    a = s.letters[-1]
    if str.find(*_coded(x.letters, s.letters)) >= 0:
        raise PreconditionViolatedError("s must not be a factor of x")
    if alphabet is None:
        sigma = sorted(content(x) | content(s) | {c for v in avoid_set for c in v})
    else:
        sigma = sorted(set(alphabet))
    b = next((c for c in sigma if c != a), None)
    if b is None:
        raise PreconditionViolatedError("need a letter different from the tail of s")
    k = (len(s) + 1) // 2
    core = (b,) + (a, b) * k
    for candidate in (core, core + (b,), core + (b, b)):
        xr = x.letters + candidate
        if xr in avoid_set:
            continue
        occ = _occurrences(xr + s.letters, s.letters)
        if occ != [len(xr)]:
            raise RuntimeError("stretch candidate failed its occurrence scan")
        return Word(candidate)
    raise AvoidSetTooLargeError("avoid set blocks all three stretch candidates")


def connect_word(w: WordLike, a: str, b: str) -> Word:
    """The continuation t making w*t end with its only occurrence of a*w,
    while avoiding b*w altogether.

    t comes from the shortest prefix of w a^|w| w that admits a*w as a
    factor; for the empty w the answer is the single letter a. Both
    postconditions are re-verified by scans.
    """
    w = coerce(w)
    if a == b:
        raise WordError("letters a and b must differ")
    if not w:
        t = Word((a,))
    else:
        big = w.letters + (a,) * len(w) + w.letters
        aw = (a,) + w.letters
        i = str.find(*_coded(big, aw))  # found, at 2|w|-1 at the latest
        t = Word(big[len(w) : i + len(aw)])
    wt = (w * t).letters
    if _occurrences(wt, (a,) + w.letters) != [len(wt) - len(w) - 1]:
        raise RuntimeError("w*t must end with its only occurrence of a*w")
    if _occurrences(wt, (b,) + w.letters):
        raise RuntimeError("w*t must avoid b*w")
    return t
