"""Finite semigroups as Cayley tables.

Elements are referenced by index into a fixed ordering; labels are for I/O
only, so all algebra stays integer-only. Instances are immutable after
construction and safe to share. Data derived from the table (identity,
columns, omega tables, Green structure, generating set) is computed on first
use and kept on the instance, so each object is derived once per semigroup.
"""

from __future__ import annotations

import itertools
import operator
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Mapping, Optional


class SemigroupError(ValueError):
    """Malformed semigroup data."""


class NonAssociativeError(SemigroupError):
    def __init__(self, i: int, j: int, k: int):
        self.witness = (i, j, k)
        super().__init__(f"not associative at ({i},{j},{k}): (i*j)*k != i*(j*k)")


class OutOfRangeError(SemigroupError):
    pass


class GeneratorsDoNotGenerateError(SemigroupError):
    pass


class UnknownLetterError(SemigroupError):
    pass


class SizeMismatchError(SemigroupError):
    pass


class BoundExceededError(SemigroupError):
    pass


class NotClosedError(SemigroupError):
    pass


def record(cls=None, *, order: bool = False):
    """Class decorator for an immutable record: the fields are the names
    annotated in the class body, in order, and a value there is a default.

    Like `dataclasses.dataclass(frozen=True, order=order)`, but built from
    closures, not generated source, so a CLI start-up imports no `dataclasses`
    (nor `inspect`): __init__ (then __post_init__), a `Name(field=value, ...)`
    __repr__, field-wise __eq__ and __hash__ (and comparisons with `order`),
    and __setattr__/__delattr__ raising AttributeError; a method the class
    defines itself is kept.
    """
    if cls is None:
        return lambda cls: record(cls, order=order)
    name, fields = cls.__name__, tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    get = attrgetter(*fields)
    key = get if len(fields) > 1 else lambda self: (get(self),)
    post_init, setter = getattr(cls, "__post_init__", None), object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(fields):
            given = {**dict(zip(fields, args)), **kwargs}  # loses extra or repeated ones
            values = {**defaults, **given}
            if len(given) < len(args) + len(kwargs) or values.keys() != set(fields):
                raise TypeError(f"{name}({', '.join(fields)}) called with {len(args)} "
                                f"positional arguments and the keywords {list(kwargs)}")
            args = [values[f] for f in fields]
        for f, value in zip(fields, args):
            setter(self, f, value)  # unlike a write to __dict__, keeps attribute reads fast
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, key(self)))
        return f"{type(self).__qualname__}({shown})"

    def frozen(self, attr, *value):
        raise AttributeError(f"cannot assign to or delete field {attr!r} of a {name}")

    def compare(op):
        def method(self, other):
            if other.__class__ is self.__class__:
                return op(key(self), key(other))
            return NotImplemented
        return method

    methods = dict(__init__=__init__, __repr__=__repr__, __setattr__=frozen, __delattr__=frozen,
                   __match_args__=fields, __eq__=compare(operator.eq),
                   __hash__=lambda self: hash(key(self)))
    if order:
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            methods[f"__{op.__name__}__"] = compare(op)
    for attr, value in methods.items():
        if attr not in cls.__dict__:
            setattr(cls, attr, value)
    return cls


@record
class FiniteSemigroup:
    """A finite semigroup given by its multiplication table.

    Construct untrusted data through :func:`validate`; the raw constructor
    trusts its arguments (used by the construction helpers, whose tables are
    associative by design). The identity is read from the table, not given.
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    generators: Optional[dict[str, int]] = None

    def __post_init__(self):
        # made here so the layout never changes (a later key slows attribute reads)
        object.__setattr__(self, "_derived", {})

    def _derive(self, name: str, compute: Callable[["FiniteSemigroup"], object]):
        """compute(self), evaluated once and kept under `name`."""
        derived = self._derived
        if name not in derived:
            derived[name] = compute(self)
        return derived[name]

    @property
    def identity(self) -> Optional[int]:
        """The neutral element, or None; found once per semigroup."""
        return self._derive("identity", lambda S: _find_identity(S.table))

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The transposed table: columns[j] is the right action of j, (x*j)
        for every x. Built once per semigroup and kept, one more n x n table."""
        return self._derive("columns", lambda S: tuple(zip(*S.table)))

    def __len__(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def power(self, i: int, k: int) -> int:
        if k < 1:
            raise ValueError("power exponent must be >= 1")
        if k == 1:
            return i
        half = self.power(self.table[i][i], k // 2)  # i^k = (i^2)^(k // 2) i^(k mod 2)
        return self.table[half][i] if k & 1 else half

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


def _find_identity(table: tuple[tuple[int, ...], ...]) -> Optional[int]:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            return e
    return None


def validate(
    elements: Iterable[str],
    table: Iterable[Iterable[int]],
    generators: Optional[Mapping[str, int]] = None,
) -> FiniteSemigroup:
    """Check a raw table and build a FiniteSemigroup.

    Associativity is verified by Light's test over a small generating set A,
    O(|A|·n^2); only a failing table gets the full O(n^3) scan, which reports
    the lexicographically first failing triple (i,j,k). If generators are
    given, their closure must be the whole carrier.
    """
    elems = tuple(str(e) for e in elements)
    n = len(elems)
    if n == 0:
        raise SemigroupError("empty carrier")
    if len(set(elems)) != n:
        raise SemigroupError("duplicate element labels")
    tab = tuple(map(tuple, table))
    if set(map(type, itertools.chain.from_iterable(tab))) != {int}:
        tab = tuple(tuple(map(int, row)) for row in tab)  # bool, float: as int() reads them
    if len(tab) != n or set(map(len, tab)) != {n}:
        raise SemigroupError(f"table must be {n}x{n}")
    if min(map(min, tab)) < 0 or max(map(max, tab)) >= n:
        i, j = next((i, j) for i, row in enumerate(tab) for j, v in enumerate(row)
                    if not 0 <= v < n)
        raise OutOfRangeError(f"table[{i}][{j}] = {tab[i][j]} not in 0..{n - 1}")
    gens = dict(generators) if generators is not None else None
    semi = FiniteSemigroup(elems, tab, gens)
    _check_associative(tab, generating_set(semi))
    if gens is not None:
        for name, idx in gens.items():
            if not 0 <= idx < n:
                raise OutOfRangeError(f"generator {name!r} -> {idx} out of range")
        if generated_subsemigroup(semi, gens.values()) != frozenset(range(n)):
            raise GeneratorsDoNotGenerateError("generators do not generate the semigroup")
    return semi


def _check_associative(tab: tuple[tuple[int, ...], ...], gens: list[int]) -> None:
    """Raise NonAssociativeError at the first triple with (ij)k != i(jk).

    Light's test: the set of a with (xa)y = x(ay) for all x, y is closed
    under products, since for two such a, b
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
    So it is the whole carrier as soon as it contains `gens`, a set that
    generates the table as a magma, and only a in `gens` is checked, one row
    (xa)S = x(aS) at a time. On a failure the full scan, also one row at a
    time, names the lexicographically first triple.
    """
    n = len(tab)
    if n == 1:
        return  # the one in-range 1x1 table is associative
    for a in gens:
        times_a = itemgetter(*tab[a])  # times_a(row_x) = x(aS)
        if any(tab[row_x[a]] != times_a(row_x) for row_x in tab):
            break
    else:
        return
    times = [itemgetter(*row) for row in tab]  # times[j](row_i) = i(jS)
    for i, row_i in enumerate(tab):
        for j, ij in enumerate(row_i):
            if tab[ij] != times[j](row_i):
                row_ij, row_j = tab[ij], tab[j]
                k = next(k for k in range(n) if row_ij[k] != row_i[row_j[k]])
                raise NonAssociativeError(i, j, k)


def _closure(table, candidates: Iterable[int]) -> tuple[list[int], set[int]]:
    """Greedy generators among `candidates`, and the set they generate.

    A candidate not yet generated becomes a generator. The generated set
    grows along the right Cayley graph: each element is multiplied on the
    right by each generator once, so the work is O(n·|gens|). Every element
    reached is a left-bracketed product (..((g1 g2) g3)..) gk of generators,
    so the generators generate it as a magma whether or not the table is
    associative; for a semigroup the set is the generated subsemigroup.
    """
    gens: list[int] = []
    found: list[int] = []
    closed: set[int] = set()
    for c in candidates:
        if c in closed:
            continue
        gens.append(c)
        new = {c, *(table[x][c] for x in found)} - closed
        while new:
            closed |= new
            found.extend(new)
            new = {y for x in new for y in map(table[x].__getitem__, gens)} - closed
    return gens, closed


def _generating_set(S: FiniteSemigroup) -> list[int]:
    """A magma generating set of S's table, associative or not: the greedy
    closure over candidates in order of descending |xS| (ties by index), read
    off the rows, so elements that reach much of the table come first."""
    reach = [len(set(row)) for row in S.table]
    order = sorted(range(len(S)), key=lambda x: -reach[x])
    return _closure(S.table, order)[0]


def generating_set(S: FiniteSemigroup) -> list[int]:
    """The greedy generating set of S (`_generating_set`), computed once per S;
    `validate`'s associativity test is its first use."""
    return S._derive("gens", _generating_set)


def _extend_on_generators(table, gens, values, target, right) -> Optional[tuple[int, ...]]:
    """The map f with f(gens[k]) = values[k] and f(x gens[k]) = f(x) right[k]
    in `target`, or None as soon as two edges of the right Cayley graph of
    `table` into one element disagree. `gens` must generate the semigroup.

    Two laws are checked this way, each on the edges (x, g) only:
    - left translation, target = table and right = gens: f(xg) = f(x)g;
    - homomorphism, right = values: f(xg) = f(x)f(g).
    That suffices, because the set of y for which the law holds for every x
    is closed under products: if it holds for y and z, then
    f(x(yz)) = f((xy)z) = f(xy)z = f(x)(yz) for a left translation, and
    f(x(yz)) = f(xy)f(z) = f(x)f(y)f(z) = f(x)f(yz) for a homomorphism.
    The set contains `gens`, so it is the whole semigroup.
    """
    f = [-1] * len(table)
    for g, v in zip(gens, values):
        f[g] = v
    reached = list(gens)
    for x in reached:  # grows along the graph; every element is reached
        row, target_fx = table[x], target[f[x]]
        for g, r in zip(gens, right):
            y, v = row[g], target_fx[r]
            if f[y] < 0:
                f[y] = v
                reached.append(y)
            elif f[y] != v:
                return None
    return tuple(f)


def generated_subsemigroup(S: FiniteSemigroup, subset: Iterable[int]) -> frozenset[int]:
    """Least subset of S closed under the table and containing `subset`."""
    seeds = list(subset)
    if not seeds:
        raise SemigroupError("subset must be nonempty")
    return frozenset(_closure(S.table, seeds)[1])


def subsemigroup(S: FiniteSemigroup, indices: Iterable[int]) -> FiniteSemigroup:
    """Restrict S to a subset that must already be closed under the table."""
    keep = sorted(set(indices))
    return from_function(keep, S.mul, [S.elements[x] for x in keep])


def _cycle_of(S: FiniteSemigroup, s: int) -> tuple[dict[int, int], int]:
    """Powers of s up to the first repeat.

    Returns (seen, rep) where seen maps s^e -> e for e = 1..L (all distinct)
    and rep = s^(L+1), the first repeated power.
    """
    seen: dict[int, int] = {}
    x, e = s, 1
    while x not in seen:
        seen[x] = e
        x = S.table[x][s]
        e += 1
    return seen, x


def cycle_index_period(S: FiniteSemigroup, s: int) -> tuple[int, int]:
    """Index (tail length) and period of the power sequence of s."""
    seen, rep = _cycle_of(S, s)
    tail = seen[rep]
    period = len(seen) + 1 - tail
    return tail, period


def _omega_tables(S: FiniteSemigroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """x^w and x^(w-1) for every x, from one walk of the powers of each s no
    earlier walk reached: s^tail .. s^L form a cyclic group of order `period`
    whose identity s^m is the multiple of the period in that range. Every
    power x = s^e has x^w = s^m, and x^(w-1), the inverse of x*x^w = s^(m+e)
    there, is s^(m + ((m - e) mod period)) reduced into the cycle.
    """
    omega, minus_one = [-1] * len(S), [-1] * len(S)
    for s in range(len(S)):
        if omega[s] >= 0:
            continue
        seen, rep = _cycle_of(S, s)
        powers = list(seen)  # powers[e - 1] = s^e
        tail = seen[rep]
        period = len(powers) + 1 - tail
        m = period * ((tail + period - 1) // period)
        for e, x in enumerate(powers, 1):
            q = m + (m - e) % period
            if q > len(powers):
                q -= period
            omega[x], minus_one[x] = powers[m - 1], powers[q - 1]
    return tuple(omega), tuple(minus_one)


def omega_tables(S: FiniteSemigroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The tables of x^w and x^(w-1), computed once per S."""
    return S._derive("omega", _omega_tables)


def omega_power(S: FiniteSemigroup, s: int) -> int:
    """The unique idempotent in the cyclic subsemigroup generated by s."""
    return omega_tables(S)[0][s]


def omega_minus_one(S: FiniteSemigroup, s: int) -> int:
    """Inverse of s*s^w in the maximal subgroup containing s^w."""
    return omega_tables(S)[1][s]


def adjoin_identity(S: FiniteSemigroup) -> FiniteSemigroup:
    """S^1: S itself when S is a monoid, else S with a fresh neutral element."""
    if S.identity is not None:
        return S
    return adjoin_new_identity(S)


def adjoin_new_identity(S: FiniteSemigroup) -> FiniteSemigroup:
    """S^I: always adds a fresh neutral element, even if S has one."""
    n = len(S)
    label = "1"
    while label in S.elements:
        label += "'"
    tab = tuple(tuple(S.table[i]) + (i,) for i in range(n)) + (tuple(range(n + 1)),)
    return FiniteSemigroup(S.elements + (label,), tab)


def direct_product(S: FiniteSemigroup, T: FiniteSemigroup) -> FiniteSemigroup:
    pairs = [(i, j) for i in range(len(S)) for j in range(len(T))]
    s_tab, t_tab = S.table, T.table
    labels = [f"({S.elements[i]},{T.elements[j]})" for (i, j) in pairs]
    return from_function(pairs, lambda p, q: (s_tab[p[0]][q[0]], t_tab[p[1]][q[1]]), labels)


def evaluate_word(S: FiniteSemigroup, gen_map: Mapping[str, int], word) -> int:
    """Left-to-right product of the generator images of `word`.

    `word` is a string (one letter per character) or an iterable of letter
    strings.
    """
    letters = list(word)
    if not letters:
        raise SemigroupError("cannot evaluate the empty word")
    acc = None
    for a in letters:
        if a not in gen_map:
            raise UnknownLetterError(f"letter {a!r} has no image")
        img = gen_map[a]
        acc = img if acc is None else S.table[acc][img]
    return acc


# --- isomorphism search -----------------------------------------------------

def _wl_classes(S: FiniteSemigroup) -> list[int]:
    """Stable element partition refined by table interaction (1-dim WL style).

    Each round refines the last, since a signature starts with the old class;
    it stops when no class splits. The renumbering alone can cycle, so equal
    class counts, not equal numberings, end the loop.
    """
    n = len(S)
    sig = []
    for x in range(n):
        tail, period = cycle_index_period(S, x)
        sig.append((tail, period, S.is_idempotent(x)))
    ids = _compress(sig)
    while True:
        new_sig = []
        for x in range(n):
            row, col = S.table[x], S.columns[x]
            inter = sorted((ids[y], ids[row[y]], ids[col[y]]) for y in range(n))
            new_sig.append((ids[x], tuple(inter)))
        new_ids = _compress(new_sig)
        if max(new_ids) == max(ids):
            return ids
        ids = new_ids


def _compress(sig: list) -> list[int]:
    order = {}
    for s in sorted(set(sig), key=repr):
        order[s] = len(order)
    return [order[s] for s in sig]


def small_generating_set(S: FiniteSemigroup) -> list[int]:
    """A small generating set, deterministic for a given table: the greedy
    set that validation uses, less each generator the others make redundant."""
    n = len(S)
    gens = generating_set(S)
    for g in list(gens):
        rest = [h for h in gens if h != g]
        if rest and generated_subsemigroup(S, rest) == frozenset(range(n)):
            gens = rest
    return list(gens)


def is_isomorphic(
    S: FiniteSemigroup, T: FiniteSemigroup, bound: int = 16
) -> Optional[tuple[int, ...]]:
    """A table-preserving bijection S -> T (as an index tuple), or None.

    Best-effort test utility: invariant pruning first, then backtracking on a
    generating set. Raises SizeMismatchError / BoundExceededError rather than
    guessing.
    """
    if len(S) != len(T):
        raise SizeMismatchError(f"|S|={len(S)} but |T|={len(T)}")
    if len(S) > bound:
        raise BoundExceededError(f"|S|={len(S)} exceeds bound {bound}")
    cs, ct = _wl_classes(S), _wl_classes(T)
    if sorted(cs) != sorted(ct):
        return None
    gens = small_generating_set(S)
    candidates = [[t for t in range(len(T)) if ct[t] == cs[g]] for g in gens]
    for choice in itertools.product(*candidates):
        if len(set(choice)) != len(choice):
            continue
        phi = _extend_on_generators(S.table, gens, choice, T.table, choice)
        if phi is not None and len(set(phi)) == len(phi):
            return phi
    return None


# --- stock semigroups -------------------------------------------------------

def from_function(values, op, labels=None) -> FiniteSemigroup:
    """Build a semigroup from abstract values and a binary operation on them;
    NotClosedError names the first pair, row-major, whose product is not a value."""
    vals = list(values)
    pos = {v: i for i, v in enumerate(vals)}
    try:
        tab = tuple(tuple(pos[op(x, y)] for y in vals) for x in vals)
    except KeyError:
        # a second pass, only on failure, names the pair (a KeyError of op's own recurs here)
        escape = next((x, y, z) for x in vals for y in vals if (z := op(x, y)) not in pos)
        raise NotClosedError("not closed: {!r}*{!r} = {!r} is not among the values"
                             .format(*escape)) from None
    elems = tuple(labels) if labels is not None else tuple(str(v) for v in vals)
    return FiniteSemigroup(elems, tab)


def trivial() -> FiniteSemigroup:
    return FiniteSemigroup(("e",), ((0,),))


def u1() -> FiniteSemigroup:
    """The two-element semilattice {0,1} under min."""
    return from_function([0, 1], min)


def cyclic_group(n: int) -> FiniteSemigroup:
    if n < 1:
        raise SemigroupError("cyclic group order must be >= 1")
    return from_function(range(n), lambda a, b: (a + b) % n)


def left_zero(n: int) -> FiniteSemigroup:
    return from_function([f"l{i}" for i in range(n)], lambda a, b: a)


def right_zero(n: int) -> FiniteSemigroup:
    return from_function([f"r{i}" for i in range(n)], lambda a, b: b)


def rectangular_band(height: int, width: int) -> FiniteSemigroup:
    vals = [(i, j) for i in range(height) for j in range(width)]
    return from_function(vals, lambda p, q: (p[0], q[1]), [f"({i},{j})" for i, j in vals])


def null_semigroup(n: int = 2) -> FiniteSemigroup:
    """n elements a1..a_{n-1} and 0, with every product equal to 0."""
    if n < 1:
        raise SemigroupError("null semigroup order must be >= 1")
    return from_function([f"a{i}" for i in range(1, n)] + ["0"], lambda a, b: "0")


def full_transformation_monoid(n: int, act_on_right: bool = False) -> FiniteSemigroup:
    """All self-maps of {0..n-1}; composition f*g = f o g, or g o f when
    act_on_right is set (maps written on the right)."""
    maps = list(itertools.product(range(n), repeat=n))
    if act_on_right:
        op = lambda f, g: tuple(g[f[x]] for x in range(n))
    else:
        op = lambda f, g: tuple(f[g[x]] for x in range(n))
    return from_function(maps, op, ["".join(map(str, m)) for m in maps])


def opposite(S: FiniteSemigroup) -> FiniteSemigroup:
    return FiniteSemigroup(S.elements, S.columns, S.generators)


# --- JSON wire format --------------------------------------------------------

def to_dict(S: FiniteSemigroup, order=None) -> dict:
    """Semigroup JSON object; `order` optionally adds stable-order pairs."""
    obj: dict = {"elements": list(S.elements), "table": [list(r) for r in S.table]}
    if S.generators:
        obj["generators"] = dict(S.generators)
    if S.identity is not None:
        obj["identity"] = S.identity
    if order is not None:
        obj["order"] = sorted([list(p) for p in order])
    return obj


def _require_list(value, path: str, ok, kind: str) -> None:
    if not isinstance(value, list):
        raise SemigroupError(f"{path} must be a list")
    for i, v in enumerate(value):
        if not ok(v):
            raise SemigroupError(f"{path}[{i}] must be {kind}, got {v!r}")


def _is_int(v) -> bool:
    return type(v) is int  # not bool, not float


def from_dict(obj: Mapping) -> FiniteSemigroup:
    """Semigroup from its JSON object: 'elements' a list of strings, 'table'
    a list of lists of ints, 'generators' (optional) a dict from str to int,
    'identity' (optional) the int index of the neutral element or null.
    Errors name the offending path, e.g. table[1][0] or generators['x']."""
    if not isinstance(obj, Mapping) or "elements" not in obj or "table" not in obj:
        raise SemigroupError("semigroup JSON needs 'elements' and 'table'")
    elements, table, gens = obj["elements"], obj["table"], obj.get("generators")
    _require_list(elements, "elements", lambda e: isinstance(e, str), "a string")
    _require_list(table, "table", lambda row: isinstance(row, list), "a list of integers")
    for i, row in enumerate(table):
        if set(map(type, row)) != {int}:  # slow path only to name the entry
            _require_list(row, f"table[{i}]", _is_int, "an integer")
    if gens is not None:
        if not isinstance(gens, dict):
            raise SemigroupError("generators must be an object")
        for name, idx in gens.items():
            if not isinstance(name, str) or not _is_int(idx):
                raise SemigroupError(f"generators[{name!r}] must be an integer, got {idx!r}")
    identity = obj.get("identity")
    if identity is not None and not _is_int(identity):
        raise SemigroupError(f"identity must be an integer or null, got {identity!r}")
    S = validate(elements, table, gens)
    if identity is not None and S.identity != identity:
        raise SemigroupError(f"declared identity {identity} is not neutral")
    return S
