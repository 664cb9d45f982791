"""The 15 eggbox record types as they were written with `dataclasses`.

Each class body is a verbatim copy of the `@dataclass` class it replaced
(the module it lived in is named above it), kept as the oracle for
tests/test_records.py. Methods that call other module functions (such as
`Word.__mul__`) are copied but not exercised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Union


# eggbox.core
@dataclass(frozen=True, eq=False)
class FiniteSemigroup:
    """A finite semigroup given by its multiplication table.

    Construct untrusted data through :func:`validate`; the raw constructor
    trusts its arguments (used by the construction helpers, whose tables are
    associative by design).
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    generators: Optional[dict[str, int]] = None
    identity: Optional[int] = None
    # Created at construction so the instance layout never changes afterwards
    # (a key added to __dict__ later slows every attribute read in hot loops).
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def _derive(self, name: str, compute: Callable[["FiniteSemigroup"], object]):
        """compute(self), evaluated once and kept under `name`."""
        derived = self._derived
        if name not in derived:
            derived[name] = compute(self)
        return derived[name]

    def __len__(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def prod(self, indices: Iterable[int]) -> int:
        it = iter(indices)
        acc = next(it)
        for x in it:
            acc = self.table[acc][x]
        return acc

    def power(self, i: int, k: int) -> int:
        if k < 1:
            raise ValueError("power exponent must be >= 1")
        acc = i
        for _ in range(k - 1):
            acc = self.table[acc][i]
        return acc

    def index_of(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise SemigroupError(f"no element labeled {label!r}") from None

    def is_idempotent(self, i: int) -> bool:
        return self.table[i][i] == i

    def idempotents(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self)) if self.table[i][i] == i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteSemigroup):
            return NotImplemented
        return self.elements == other.elements and self.table == other.table

    def __hash__(self) -> int:
        return hash((self.elements, self.table))

    def __repr__(self) -> str:
        return f"FiniteSemigroup(n={len(self)})"


# eggbox.green
@dataclass(frozen=True)
class GreenStructure:
    r_class: tuple[int, ...]
    l_class: tuple[int, ...]
    j_class: tuple[int, ...]
    h_class: tuple[int, ...]
    j_order: frozenset[tuple[int, int]]  # (lower, higher) pairs of J-class ids
    kernel_class: int
    regular: tuple[bool, ...]  # indexed by J-class id

    def classes(self, kind: str) -> list[list[int]]:
        assign = {"R": self.r_class, "L": self.l_class, "J": self.j_class, "H": self.h_class}[kind]
        out: dict[int, list[int]] = {}
        for x, c in enumerate(assign):
            out.setdefault(c, []).append(x)
        return [out[c] for c in sorted(out)]


# eggbox.green
@dataclass(frozen=True)
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


# eggbox.constructions
@dataclass(frozen=True)
class SynthesisSemigroup:
    """M(S, T, f) = S + S^1 x T^1 x S^1 with multiplication threaded via f."""

    s_part: FiniteSemigroup
    t_part: FiniteSemigroup
    f: tuple[int, ...]  # S^1 index -> T^1 index
    carrier: FiniteSemigroup
    s1: FiniteSemigroup
    t1: FiniteSemigroup

    def s_index(self, s: int) -> int:
        return s

    def triple_index(self, s1: int, t: int, s2: int) -> int:
        n1 = len(self.s1)
        nt = len(self.t1)
        return len(self.s_part) + (s1 * nt + t) * n1 + s2


# eggbox.hull
@dataclass(frozen=True, order=True)
class Bitranslation:
    lam: tuple[int, ...]
    rho: tuple[int, ...]


# eggbox.hull
@dataclass(frozen=True)
class KernelRepresentation:
    """Left and right action of every element on the minimum ideal."""

    kernel: tuple[int, ...]
    lambda_of: tuple[tuple[int, ...], ...]  # element -> self-map of kernel positions
    rho_of: tuple[tuple[int, ...], ...]


# eggbox.order
@dataclass(frozen=True, eq=False)
class OrderedSemigroup:
    semigroup: FiniteSemigroup
    leq: frozenset[tuple[int, int]]

    def __eq__(self, other):
        if not isinstance(other, OrderedSemigroup):
            return NotImplemented
        return self.semigroup == other.semigroup and self.leq == other.leq

    def __hash__(self):
        return hash((self.semigroup, self.leq))

    def is_trivial(self) -> bool:
        return all(a == b for a, b in self.leq)


# eggbox.order
@dataclass(frozen=True)
class Dfa:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transition: Mapping[tuple[str, str], str]
    initial: str
    accepting: frozenset[str]


# eggbox.words
@dataclass(frozen=True)
class Word:
    letters: tuple[str, ...] = ()

    @classmethod
    def from_text(cls, text: str) -> "Word":
        return cls(tuple(text))

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


# eggbox.words
@dataclass(frozen=True)
class Factorization:
    prefix: Word
    marker: str
    remainder: Word

    def reassemble(self) -> Word:
        return self.prefix * Word((self.marker,)) * self.remainder


# eggbox.terms
@dataclass(frozen=True)
class OmegaExp:
    """Exponent w+k; k = 0 is the omega power itself, k = -1 its inverse."""

    k: int = 0

    def __post_init__(self):
        if self.k < -1:
            raise ValueError("omega exponents below w-1 are not supported")


# eggbox.terms
@dataclass(frozen=True)
class Letter:
    ch: str


# eggbox.terms
@dataclass(frozen=True)
class Concat:
    parts: tuple  # length >= 2, no nested Concat

    def __post_init__(self):
        if len(self.parts) < 2 or any(isinstance(p, Concat) for p in self.parts):
            raise ValueError("Concat needs >= 2 parts with no nesting; use concat()")


# eggbox.terms
@dataclass(frozen=True)
class Power:
    base: "Term"
    exp: Union[int, OmegaExp]

    def __post_init__(self):
        if isinstance(self.exp, int) and self.exp < 1:
            raise ValueError("integer powers must be >= 1")


# eggbox.terms
@dataclass(frozen=True)
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
