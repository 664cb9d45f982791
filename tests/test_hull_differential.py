"""The brute-force hull, linked by signature, against verbatim copies of the
code it replaced, which tested every (lam, rho) pair for linking.

`hull.linked_translations` groups the right translations by their signature
((s)rho g)_{g,s} and looks up each left translation's (s lam(g))_{g,s}; the
old `enumerate_hull` tested all |lam|·|rho| pairs with `_linked`. Both must
give the same bitranslations, and the summed bucket sizes (what `eggbox hull`
prints) must be their number.
"""

from __future__ import annotations

import random

import pytest

from eggbox import constructions, core, hull
from eggbox.core import BoundExceededError, FiniteSemigroup, generating_set
from eggbox.green import ReesMatrixSemigroup
from eggbox.hull import Bitranslation, enumerate_hull_rees, left_translations, right_translations
from conftest import random_transformation_semigroup, small_library


# --- verbatim copies of the all-pairs link test and the hull built from it ----

def _linked(S: FiniteSemigroup, lam: tuple[int, ...], rho: tuple[int, ...]) -> bool:
    """s lam(g) = (s)rho g for every s and every generator g. That suffices:
    since lam is a left translation, the t with s lam(t) = (s)rho t for all s
    are closed under products, s lam(tu) = s lam(t)u = (s)rho tu."""
    columns = S.columns
    return all(columns[lam[g]] == tuple(map(columns[g].__getitem__, rho)) for g in generating_set(S))


def old_enumerate_hull(S, bound: int = 8) -> frozenset[Bitranslation]:
    """All bitranslations of S, by brute force over translation candidates.

    A ReesMatrixSemigroup argument is routed to the parametrized
    enumeration, which has no size bound.
    """
    if isinstance(S, ReesMatrixSemigroup):
        return enumerate_hull_rees(S)
    if len(S) > bound:
        raise BoundExceededError(f"|S|={len(S)} exceeds brute-force bound {bound}")
    lams = left_translations(S)
    rhos = right_translations(S)
    return frozenset(
        Bitranslation(lam, rho) for lam in lams for rho in rhos if _linked(S, lam, rho)
    )


# --- cases --------------------------------------------------------------------

def cases() -> dict[str, FiniteSemigroup]:
    out = {name: S for name, S in small_library().items() if len(S) <= 8}
    rng = random.Random(2207)
    for i in range(40):
        out[f"random{i}"] = random_transformation_semigroup(rng, max_size=8, min_size=2)
    for n in range(1, 6):
        out[f"N{n}"] = core.null_semigroup(n)
    for m in range(1, 4):
        for n in range(1, 4):
            out[f"RB({m},{n})"] = core.rectangular_band(m, n)
    return out


CASES = cases()


@pytest.mark.parametrize("name", list(CASES))
def test_linked_translations_match_the_all_pairs_hull(name):
    S = CASES[name]
    new = hull.enumerate_hull(S, bound=9)  # RB(3, 3) has 9 elements
    assert new == old_enumerate_hull(S, bound=9)
    buckets = list(hull.linked_translations(S, bound=9))
    assert [lam for lam, _ in buckets] == left_translations(S)
    assert sum(len(rhos) for _, rhos in buckets) == len(new)


def test_the_differential_cases_are_varied():
    sizes = {len(S) for name, S in CASES.items() if name.startswith("random")}
    assert len(CASES) >= 60 and len(sizes) >= 4 and max(sizes) == 8


def test_rees_input_is_still_routed_to_the_parametrized_path():
    rm = constructions.kp_rees(3)  # 12 elements, over the brute-force bound
    assert hull.enumerate_hull(rm) == old_enumerate_hull(rm) == enumerate_hull_rees(rm)


def test_the_bound_and_its_message_are_unchanged():
    S = core.cyclic_group(6)  # cheap to enumerate, should the bound fail to hold
    for enumerate_ in (hull.enumerate_hull, old_enumerate_hull):
        with pytest.raises(BoundExceededError, match=r"^\|S\|=6 exceeds brute-force bound 5$"):
            enumerate_(S, bound=5)
    with pytest.raises(BoundExceededError, match=r"^\|S\|=9 exceeds brute-force bound 8$"):
        next(hull.linked_translations(core.null_semigroup(9)))


# --- known answers --------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_null_semigroup_has_n_to_the_n_minus_1_squared_bitranslations(n):
    # every map fixing 0 is a left and a right translation, and every pair is linked
    count = sum(len(rhos) for _, rhos in hull.linked_translations(core.null_semigroup(n)))
    assert count == (n ** (n - 1)) ** 2
    if n <= 4:
        assert len(hull.enumerate_hull(core.null_semigroup(n))) == count


@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 4) for n in range(1, 4)])
def test_rectangular_band_has_m_to_the_m_times_n_to_the_n_bitranslations(m, n):
    S = core.rectangular_band(m, n)
    assert len(hull.enumerate_hull(S, bound=9)) == m**m * n**n
    assert sum(len(rhos) for _, rhos in hull.linked_translations(S, bound=9)) == m**m * n**n
