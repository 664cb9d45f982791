"""Tour of the core layer: Cayley tables, Green's relations, Rees coordinates.

Run with: python3 demos/01_green_structure.py
"""

from eggbox import core, green, constructions

# A semigroup is a list of element labels plus a multiplication table of
# indices. validate() checks closure and associativity (Light's test over a
# small generating set: O(|A| n^2), not a scan of all n^3 triples) and finds
# an identity when one exists.
u1 = core.validate(["0", "1"], [[0, 0], [0, 1]])
print("U1 =", u1.elements, "identity:", u1.elements[u1.identity])

# Stock constructors cover the usual suspects.
z6 = core.cyclic_group(6)
rb = core.rectangular_band(2, 2)
k2 = constructions.k_p(2)

# omega powers: the unique idempotent power, and its group inverse companion
s = 2
print("\nin Z/6, 2^w =", z6.elements[core.omega_power(z6, s)])
t = k2.index_of("(0,1,0)")
print("in K_2, (0,1,0)^w =", k2.elements[core.omega_power(k2, t)])
print("in K_2, (0,1,0)^(w-1) =", k2.elements[core.omega_minus_one(k2, t)])

# Green's relations via principal ideals; on finite semigroups D = J.
for name, S in [("U1", u1), ("RB22", rb), ("K2", k2)]:
    gs = green.green_structure(S)
    print(
        f"\n{name}: {len(set(gs.j_class))} J-classes, "
        f"{len(set(gs.r_class))} R, {len(set(gs.l_class))} L, "
        f"{len(set(gs.h_class))} H; kernel size {len(green.kernel(S))}"
    )

# A completely simple semigroup is exactly one satisfying x(yx)^w = x;
# rees_coordinatize recovers the Rees matrix coordinates M(A, G, B; P).
print("\nK2 completely simple:", green.is_completely_simple(k2))
rm, coords = green.rees_coordinatize(k2)
print("coordinates: a =", rm.a_size, " b =", rm.b_size, " |G| =", len(rm.group))
print("sandwich:", rm.sandwich, "(row and column through the base idempotent are identity)")
rebuilt = constructions.realize(rm)
print("round trip isomorphic:", core.is_isomorphic(rebuilt, k2) is not None)

# equidivisibility and letter cancellation, checked exhaustively
print("\nU1 equidivisible:", green.is_equidivisible(u1)[0])
n2 = core.null_semigroup(2)
ok, witness = green.is_equidivisible(n2)
print("N2 equidivisible:", ok, " counterexample (s,t,u,v):", witness)
print("Z/2 letter-cancellative:", green.letter_cancelative(core.cyclic_group(2), {"a": 1}))
