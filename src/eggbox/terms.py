"""Omega-terms: parsing, evaluation, identity checking, and word problems.

An omega-term is built from letters, concatenation, integer powers (>= 1)
and powers of the form w+k with k >= -1. Evaluation sends x^w to the unique
idempotent power and x^(w-1) to the group inverse of x x^w.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections import Counter
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .core import FiniteSemigroup, omega_tables, record
from .words import (
    Word,
    EmptyWordError,
    characteristic_spans,
    coerce,
    content,
    i_n,
    marker_positions,
    t_n,
)


class TermSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


class UnassignedLetterError(ValueError):
    pass


class UnknownPseudovarietyError(ValueError):
    pass


class TermTooShortError(ValueError):
    pass


@record
class OmegaExp:
    """Exponent w+k; k = 0 is the omega power itself, k = -1 its inverse."""

    k: int = 0

    def __post_init__(self):
        if self.k < -1:
            raise ValueError("omega exponents below w-1 are not supported")


@record
class Letter:
    ch: str


@record
class Concat:
    parts: tuple  # length >= 2, no nested Concat

    def __post_init__(self):
        if len(self.parts) < 2 or any(isinstance(p, Concat) for p in self.parts):
            raise ValueError("Concat needs >= 2 parts with no nesting; use concat()")


@record
class Power:
    base: "Term"
    exp: Union[int, OmegaExp]

    def __post_init__(self):
        if isinstance(self.exp, int) and self.exp < 1:
            raise ValueError("integer powers must be >= 1")


Term = Union[Letter, Concat, Power]


def concat(parts: Sequence[Term]) -> Term:
    flat: list[Term] = []
    for p in parts:
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        raise ValueError("cannot concatenate zero terms")
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def letters_of(term: Term) -> frozenset[str]:
    if isinstance(term, Letter):
        return frozenset((term.ch,))
    if isinstance(term, Power):
        return letters_of(term.base)
    return frozenset().union(*map(letters_of, term.parts))


# --- parsing and printing ----------------------------------------------------

# Bound on both the open parentheses and the height of a parsed term (each
# concatenation and each power suffix adds one), so that every recursion over
# a term (parser, evaluator, printer, encoder) stays shallow. A printed term
# has no more parentheses than height, so it parses again.
_MAX_NESTING = 100

# Bound on the length of a term unfolded with omega exponents n+2, the
# unfolding that term_i_t and debruijn_encode_term work through; checked
# arithmetically before anything is unfolded, since the length grows
# exponentially with nesting.
_MAX_UNFOLDED = 10**5


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.parens = 0  # parentheses open at self.pos

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise TermSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def nested(self, level: int) -> int:
        if level > _MAX_NESTING:
            raise TermSyntaxError(f"term nested deeper than {_MAX_NESTING} levels", self.pos)
        return level

    def parse(self) -> Term:
        t, _ = self.parse_concat()
        self.skip_ws()
        if self.pos != len(self.text):
            raise TermSyntaxError("unexpected trailing input", self.pos)
        return t

    # parse_concat, parse_factor and parse_atom return (term, height)
    def parse_concat(self) -> tuple[Term, int]:
        factors, height = [], 0
        while (c := self.peek()) in ("(", "[") or (c.isalpha() and c.islower()):
            t, h = self.parse_factor()
            factors.append(t)
            height = max(height, h)
        if not factors:
            raise TermSyntaxError("expected a term", self.pos)
        return concat(factors), height if len(factors) == 1 else self.nested(height + 1)

    def parse_factor(self) -> tuple[Term, int]:
        t, height = self.parse_atom()
        while self.peek() == "^":
            height = self.nested(height + 1)
            self.pos += 1
            t = Power(t, self.parse_exponent())
        return t, height

    def parse_atom(self) -> tuple[Term, int]:
        c = self.peek()
        if c == "(":
            self.parens = self.nested(self.parens + 1)
            self.pos += 1
            t, height = self.parse_concat()
            self.expect(")")
            self.parens -= 1
            return t, height
        if c == "[":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] != "]":
                self.pos += 1
            if self.pos == len(self.text) or self.pos == start:
                raise TermSyntaxError("unterminated composite letter", start)
            ch = self.text[start : self.pos]
            self.pos += 1
            return Letter(ch), 0
        if c.isalpha() and c.islower():
            self.pos += 1
            return Letter(c), 0
        raise TermSyntaxError("expected a letter or parenthesis", self.pos)

    def parse_exponent(self) -> Union[int, OmegaExp]:
        c = self.peek()
        if c == "w":
            self.pos += 1
            return OmegaExp(0)
        if c == "(":
            self.pos += 1
            if self.peek() != "w":
                raise TermSyntaxError("expected 'w' in omega exponent", self.pos)
            self.pos += 1
            sign = self.peek()
            if sign not in "+-":
                raise TermSyntaxError("expected '+' or '-' after 'w'", self.pos)
            self.pos += 1
            k = self.parse_int()
            self.expect(")")
            k = k if sign == "+" else -k
            if k < -1:
                raise TermSyntaxError("exponents below w-1 are not supported", self.pos)
            return OmegaExp(k)
        if c.isdigit():
            k = self.parse_int()
            if k < 1:
                raise TermSyntaxError("integer powers must be >= 1", self.pos)
            return k
        raise TermSyntaxError("expected an exponent", self.pos)

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise TermSyntaxError("expected an integer", start)
        return int(self.text[start : self.pos])


def parse_term(text: str) -> Term:
    """Parse a term: letters a-z, juxtaposition, parentheses, suffixes
    ^w, ^(w-1), ^(w+k), ^k. Composite letters go in brackets: [ab]."""
    return _Parser(text).parse()


def _as_term(t: Union[str, Term]) -> Term:
    return parse_term(t) if isinstance(t, str) else t


def term_to_text(t: Term) -> str:
    if isinstance(t, Letter):
        return t.ch if len(t.ch) == 1 else f"[{t.ch}]"
    if isinstance(t, Power):
        e = t.exp
        if isinstance(e, OmegaExp):
            etxt = "w" if e.k == 0 else f"(w{e.k:+d})"
        else:
            etxt = str(e)
        base = term_to_text(t.base)
        if not isinstance(t.base, Letter):
            base = f"({base})"
        return f"{base}^{etxt}"
    return " ".join(term_to_text(p) for p in t.parts)  # parts are letters or powers


# --- evaluation and satisfaction ----------------------------------------------

def _compile(term: Term, S: FiniteSemigroup, index: Mapping[str, int]):
    """`term` as a function of a value tuple v, letter ch being v[index[ch]].

    Concatenation reads S.table. Each power reads a table of x^e for all x,
    built here once by repeated squaring (omega powers start from the cached
    omega tables).
    """
    table = S.table
    if isinstance(term, Letter):
        if term.ch not in index:
            raise UnassignedLetterError(f"letter {term.ch!r} is unassigned")
        return operator.itemgetter(index[term.ch])
    if isinstance(term, Concat):
        first, *rest = [_compile(p, S, index) for p in term.parts]

        def product(v):
            acc = first(v)
            for f in rest:
                acc = table[acc][f(v)]
            return acc

        return product
    base = _compile(term.base, S, index)
    e = term.exp
    if isinstance(e, int):
        powers, k = range(len(S)), e - 1
    else:
        omega, minus_one = omega_tables(S)
        powers, k = (minus_one, 0) if e.k == -1 else (omega, e.k)
    square = range(len(S))  # x^(2^i) at step i, so powers[x] ends as powers[x] x^k
    while k:
        if k & 1:
            powers = [table[p][s] for p, s in zip(powers, square)]
        square = [table[s][s] for s in square]
        k >>= 1
    return lambda v: powers[base(v)]


def evaluate(term: Term, S: FiniteSemigroup, assignment: Mapping[str, int]) -> int:
    """The value of `term` in S; UnassignedLetterError if a letter has no value."""
    index = {ch: i for i, ch in enumerate(assignment)}
    return _compile(term, S, index)(tuple(assignment.values()))


def _hoist(term: Term, z: str, slots: dict) -> Term:
    """`term` with every maximal z-free subterm replaced by a slot letter.

    Consecutive z-free factors of a product form one subterm. `slots` maps
    each distinct subterm to its slot, an int (so never equal to z), and
    structurally equal subterms share one.
    """
    if z not in letters_of(term):
        return Letter(slots.setdefault(term, len(slots)))
    if isinstance(term, Letter):
        return term
    if isinstance(term, Power):
        return Power(_hoist(term.base, z, slots), term.exp)
    parts = []
    for free, run in itertools.groupby(term.parts, lambda p: z not in letters_of(p)):
        run = list(run)
        parts += [_hoist(concat(run), z, slots)] if free else [_hoist(p, z, slots) for p in run]
    return concat(parts)


# Bound on the set of passing keys of one scan; when full it is emptied and
# refilled, which costs time but never changes the answer.
_MAX_SCAN_KEYS = 1 << 16


def _first_failure(S: FiniteSemigroup, lhs: Term, rhs: Term, related):
    """The lexicographically first assignment (letters sorted, values in
    index order) with related(lhs, rhs) false, or None.

    With z the last letter, both sides depend on the other letters only
    through the values of their maximal z-free subterms (the key). The scan
    walks the other letters in order and tries every z once per distinct
    key, remembering the keys for which every z passes.
    """
    lhs, rhs = _as_term(lhs), _as_term(rhs)
    variables = sorted(letters_of(lhs) | letters_of(rhs))
    *outer, z = variables
    slots: dict = {}
    sides = [_hoist(t, z, slots) for t in (lhs, rhs)]
    outer_index = {ch: i for i, ch in enumerate(outer)}
    keyed = [_compile(t, S, outer_index) for t in slots]
    inner_index = {i: i for i in range(len(slots))}
    inner_index[z] = len(slots)
    f, g = (_compile(t, S, inner_index) for t in sides)
    zs = range(len(S))
    passed: set = set()
    for values in itertools.product(zs, repeat=len(outer)):
        key = tuple([slot(values) for slot in keyed])
        if key in passed:
            continue
        x = next((x for x in zs if not related(f(v := key + (x,)), g(v))), None)
        if x is not None:
            return dict(zip(variables, values + (x,)))
        if len(passed) >= _MAX_SCAN_KEYS:
            passed.clear()
        passed.add(key)
    return None


def satisfies_identity(
    S: FiniteSemigroup, lhs: Term, rhs: Term
) -> tuple[bool, Optional[dict[str, int]]]:
    """Check lhs = rhs under every assignment of letters to elements of S.

    On failure returns the lexicographically first witness assignment.
    """
    witness = _first_failure(S, lhs, rhs, operator.eq)
    return witness is None, witness


def satisfies_inequality(
    ordered_semigroup, lhs: Term, rhs: Term
) -> tuple[bool, Optional[dict[str, int]]]:
    """Check lhs <= rhs for every assignment, over a stable partial order."""
    leq = ordered_semigroup.leq
    witness = _first_failure(ordered_semigroup.semigroup, lhs, rhs, lambda a, b: (a, b) in leq)
    return witness is None, witness


# --- the identity registry ----------------------------------------------------

# Bases are stored 1-free: G, Ab_n and N are rewritten so satisfaction
# quantifies over S rather than S^1.
_FIXED_BASES: dict[str, list[tuple[str, str]]] = {
    "S": [("x", "x")],
    "I": [("x", "y")],
    "Sl": [("x^2", "x"), ("xy", "yx")],
    "N": [("x^w y", "x^w"), ("y x^w", "x^w"), ("x^w", "y^w")],
    "D": [("x y^w", "y^w")],
    "K": [("x^w y", "x^w")],
    "LI": [("x^w y x^w", "x^w")],
    "LSl": [
        ("x^w y x^w y x^w", "x^w y x^w"),
        ("x^w y x^w z x^w", "x^w z x^w y x^w"),
    ],
    "LZ": [("xy", "x")],
    "RZ": [("xy", "y")],
    "RB": [("x^2", "x"), ("xyx", "x")],
    "B": [("x^2", "x")],
    "A": [("x^(w+1)", "x^w")],
    "G": [("x^w y", "y"), ("y x^w", "y")],
    "ReG": [("x y^w x^w", "x")],
    "CS": [("x(yx)^w", "x")],
    "CR": [("x^(w+1)", "x")],
    "J": [("(xy)^w", "(xy)^w x"), ("(xy)^w", "(yx)^w")],
    "DA": [("((xy)^w x)^2", "(xy)^w x")],
    "DO": [("(xy)^w (yx)^w (xy)^w", "(xy)^w")],
    "DS": [("((xy)^w x)^(w+1)", "(xy)^w x")],
}

_VAR_POOL = "abcdefghijklmnopqrstuv"


def pseudovariety_names() -> list[str]:
    return sorted(_FIXED_BASES)


def pseudovariety_basis(name: str) -> list[tuple[Term, Term]]:
    """The stored identity basis for a registry name.

    Fixed names as in pseudovariety_names(); parametrized families are
    D<n>, K<n>, Ab<n>.
    """
    if name in _FIXED_BASES:
        pairs = _FIXED_BASES[name]
        return [(parse_term(l), parse_term(r)) for l, r in pairs]
    m = re.fullmatch(r"D(\d+)", name)
    if m:
        ns = int(m.group(1))
        if not 1 <= ns <= len(_VAR_POOL):
            raise UnknownPseudovarietyError(f"unsupported degree in {name!r}")
        ys = _VAR_POOL[:ns]
        return [(parse_term("x" + ys), parse_term(ys))]
    m = re.fullmatch(r"K(\d+)", name)
    if m:
        ns = int(m.group(1))
        if not 1 <= ns <= len(_VAR_POOL):
            raise UnknownPseudovarietyError(f"unsupported degree in {name!r}")
        xs = _VAR_POOL[:ns]
        return [(parse_term(xs + "y"), parse_term(xs))]
    m = re.fullmatch(r"Ab(\d+)", name)
    if m:
        ns = int(m.group(1))
        if ns < 1:
            raise UnknownPseudovarietyError(f"unsupported exponent in {name!r}")
        return [
            (parse_term(f"x^{ns} y" if ns > 1 else "x y"), parse_term("y")),
            (parse_term("xy"), parse_term("yx")),
        ]
    raise UnknownPseudovarietyError(f"unknown pseudovariety {name!r}")


def pseudovariety_membership(S: FiniteSemigroup, name: str):
    """Does S satisfy every identity in the named basis?

    Returns (bool, failing) where failing is None or a dict with the failing
    identity and the witness assignment.
    """
    for lhs, rhs in pseudovariety_basis(name):
        holds, witness = satisfies_identity(S, lhs, rhs)
        if not holds:
            return False, {
                "lhs": term_to_text(lhs),
                "rhs": term_to_text(rhs),
                "witness": witness,
            }
    return True, None


# --- i_n / t_n and the de Bruijn encoding on terms -----------------------------

def unfold(term: Term, omega_reps: int) -> Word:
    """Finite unfolding with every w+k exponent replaced by omega_reps+k."""
    if isinstance(term, Letter):
        return Word((term.ch,))
    if isinstance(term, Concat):
        out: tuple[str, ...] = ()
        for p in term.parts:
            out += unfold(p, omega_reps).letters
        return Word(out)
    base = unfold(term.base, omega_reps).letters
    e = term.exp
    reps = e if isinstance(e, int) else omega_reps + e.k
    return Word(base * reps)


def _unfolded_length(term: Term, omega_reps: int) -> int:
    """len(unfold(term, omega_reps)) for omega_reps >= 2, without unfolding.
    With omega_reps = 1 it is the shortest unfolding's length (each omega
    power taken at least once)."""
    if isinstance(term, Letter):
        return 1
    if isinstance(term, Concat):
        return sum(_unfolded_length(p, omega_reps) for p in term.parts)
    e = term.exp
    reps = e if isinstance(e, int) else max(1, omega_reps + e.k)
    return reps * _unfolded_length(term.base, omega_reps)


def _check_unfoldable(term: Term, n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if (length := _unfolded_length(term, n + 2)) > _MAX_UNFOLDED:
        raise ValueError(f"term unfolds to {length} letters with w = {n + 2}, over the bound {_MAX_UNFOLDED}")


def term_i_t(term: Term, n: int) -> tuple[Word, Word]:
    """(i_n, t_n) of the term, via a sufficiently deep unfolding."""
    term = _as_term(term)
    _check_unfoldable(term, n)
    w = unfold(term, n + 2)
    return i_n(w, n), t_n(w, n)


def _gram(letters: tuple[str, ...]) -> Letter:
    return Letter("".join(letters))


def _encode(ctx: tuple[str, ...], term: Term, n: int):
    """Phi_n(ctx . term) as (term-over-grams or None, new length-n tail)."""
    if isinstance(term, Letter):
        w = ctx + (term.ch,)
        tail = w[-n:] if len(w) > n else w
        if len(w) == n + 1:
            return _gram(w), tail
        return None, tail
    if isinstance(term, Concat):
        pieces = []
        for p in term.parts:
            ph, ctx = _encode(ctx, p, n)
            if ph is not None:
                pieces.append(ph)
        return (concat(pieces) if pieces else None), ctx
    e = term.exp
    if isinstance(e, int):
        pieces = []
        for _ in range(e):
            ph, ctx = _encode(ctx, term.base, n)
            if ph is not None:
                pieces.append(ph)
        return (concat(pieces) if pieces else None), ctx
    # omega power: raise the base so its unfolded length is at least n,
    # then use Phi_n(c u^w) = Phi_n(c u) Phi_n(t_n(u) u)^(w-1) and its shifts.
    k = e.k
    base = term.base
    j = max(1, -(-n // _unfolded_length(base, 1)))
    U = base if j == 1 else Power(base, j)
    head, tail_u = _encode(ctx, U, n)
    block, tail_check = _encode(tail_u, U, n)
    if block is None or tail_check != tail_u:
        raise RuntimeError("omega block must encode to a nonempty term with a stable tail")
    pieces = [head] if head is not None else []
    if j == 1 and k >= 0:
        pieces.append(Power(block, OmegaExp(k - 1)))
        return concat(pieces), tail_u
    if k >= 0:
        # base^(w+k) = U^w base^k
        pieces.append(Power(block, OmegaExp(-1)))
        trailing = k
    else:
        # base^(w-1) = U^(w-1) base^(j-1); the block exponent w-2 is
        # realized as (BB)^(w-1), an equality valid in every finite semigroup
        pieces.append(Power(concat([block, block]), OmegaExp(-1)))
        trailing = j - 1
    ctx2 = tail_u
    for _ in range(trailing):
        ph, ctx2 = _encode(ctx2, base, n)
        if ph is not None:
            pieces.append(ph)
    return concat(pieces), ctx2


def _encode_visits(term: Term, n: int) -> int:
    """The letters _encode(ctx, term, n) visits, for any ctx, without
    encoding: an omega power encodes its raised base U twice (head and
    block), then the trailing copies of the base."""
    if isinstance(term, Letter):
        return 1
    if isinstance(term, Concat):
        return sum(_encode_visits(p, n) for p in term.parts)
    e = term.exp
    base = _encode_visits(term.base, n)
    if isinstance(e, int):
        return e * base
    j = max(1, -(-n // _unfolded_length(term.base, 1)))
    trailing = 0 if j == 1 and e.k >= 0 else e.k if e.k >= 0 else j - 1
    return (2 * j + trailing) * base


def debruijn_encode_term(term: Term, n: int) -> Term:
    """Phi_n of a term, as a term over (n+1)-gram letters.

    For plain words this agrees with words.debruijn_encode; terms whose
    unfolding is no longer than n have an empty encoding and raise
    TermTooShortError.
    """
    term = _as_term(term)
    _check_unfoldable(term, n)
    if (visits := _encode_visits(term, n)) > _MAX_UNFOLDED:
        raise ValueError(f"encoding the term visits {visits} letters at n = {n}, over the bound {_MAX_UNFOLDED}")
    phi, _ = _encode((), term, n)
    if phi is None:
        raise TermTooShortError("term unfolds to length <= n")
    return phi


class VdnResult(NamedTuple):
    i_t_equal: bool
    encoded_identity_holds: bool


def check_vdn(u: Term, v: Term, n: int, T: FiniteSemigroup) -> VdnResult:
    """The two finite conditions of the V*D_n word-problem criterion.

    i_t_equal: i_n and t_n of the two terms agree. encoded_identity_holds:
    T satisfies Phi_n(u) = Phi_n(v) over the occurring gram letters. A False
    second slot witnesses u != v over V*D_n for every V containing T.
    """
    u, v = _as_term(u), _as_term(v)
    iu, tu = term_i_t(u, n)
    iv, tv = term_i_t(v, n)
    pu = debruijn_encode_term(u, n)
    pv = debruijn_encode_term(v, n)
    holds, _ = satisfies_identity(T, pu, pv)
    return VdnResult(iu.letters == iv.letters and tu.letters == tv.letters, holds)


# --- the recursive CR meet H-bar word problem -----------------------------------

@record
class GroupSpec:
    """The group parameter of the completely regular word problem."""

    kind: str  # "trivial" | "abelian" | "groups"
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("trivial", "abelian", "groups"):
            raise ValueError(f"unknown group spec kind {self.kind!r}")
        if self.kind == "abelian" and (self.n is None or self.n < 2):
            raise ValueError("abelian group spec needs modulus n >= 2")
        if self.kind != "abelian" and self.n is not None:
            raise ValueError("modulus only applies to the abelian kind")

    @classmethod
    def trivial(cls) -> "GroupSpec":
        return cls("trivial")

    @classmethod
    def abelian(cls, n: int) -> "GroupSpec":
        return cls("abelian", n)

    @classmethod
    def all_groups(cls) -> "GroupSpec":
        return cls("groups")

    @classmethod
    def from_text(cls, text: str) -> "GroupSpec":
        if text == "trivial":
            return cls.trivial()
        if text == "groups":
            return cls.all_groups()
        m = re.fullmatch(r"ab:(\d+)", text)
        if m:
            return cls.abelian(int(m.group(1)))
        raise ValueError(f"cannot parse group spec {text!r}")


def _crh_key(letters: tuple[str, ...], h: GroupSpec, memo: dict):
    """Canonical class key: two words are equal over CR meet H-bar exactly
    when their keys coincide. `memo` maps letters to keys for one GroupSpec."""
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
            i, j = marker_positions(letters)
            zero_key = _crh_key(letters[:i], h, memo)
            one_key = _crh_key(letters[j + 1 :], h, memo)
            chi_part = None  # in bands the key is content, 0 and 1 alone
            if h.kind != "trivial":
                spans = characteristic_spans(letters, len(c))
                ids = tuple(_crh_key(letters[s:e], h, memo) for s, e in spans)
                if h.kind == "abelian":
                    counts = Counter(ids)
                    chi_part = frozenset((i, k % h.n) for i, k in counts.items() if k % h.n)
                else:
                    chi_part = ids
            result = ("word", c, zero_key, one_key, chi_part)
    memo[letters] = result
    return result


def equal_in_crh(u, v, h: GroupSpec) -> tuple[bool, Optional[str]]:
    """Recursive equality of two finite words over the completely regular
    semigroups whose subgroups lie in h.

    Returns (equal, first failing condition), the condition being one of
    "content", "zero", "one", "h".
    """
    u, v = coerce(u), coerce(v)
    if not u or not v:
        raise EmptyWordError("the word problem needs nonempty words")
    if content(u) != content(v):
        return False, "content"
    memo: dict = {}
    u, v = u.letters, v.letters
    (iu, ju), (iv, jv) = marker_positions(u), marker_positions(v)
    if _crh_key(u[:iu], h, memo) != _crh_key(v[:iv], h, memo):
        return False, "zero"
    if _crh_key(u[ju + 1 :], h, memo) != _crh_key(v[jv + 1 :], h, memo):
        return False, "one"
    if _crh_key(u, h, memo) != _crh_key(v, h, memo):
        return False, "h"
    return True, None


def crh_class_key(u, h: GroupSpec):
    """The canonical key of a word; equal keys mean equal over CR meet H-bar."""
    return _crh_key(coerce(u).letters, h, {})
