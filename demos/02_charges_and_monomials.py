"""Monomials, torus charges, and the charge-matrix picture.

A diagonal phase rotation multiplies every potential monomial by a phase
that is an integer combination of the torus angles.  Those integer rows are
the whole story: the symmetry group of a potential is read off the Smith
form of its charge matrix.
"""

from nhdm import Monomial, build_x_matrix, charge_vector, enumerate_monomials, torus_basis
from nhdm.monomials import c_row, row_type

basis = torus_basis(3)
print("torus basis circles for three doublets (per-doublet weights):")
for i, w in enumerate(basis.weights, 1):
    print(f"  circle {i}: {tuple(str(x) for x in w)}")

monos = enumerate_monomials(3)
print(f"\n{len(monos)} monomials transform nontrivially (3 bilinears, 9 products):")
x = build_x_matrix(list(monos), basis)
# a c-row is the monomial's net exponents of doublets 2 and 3
for m, chg in zip(monos, x.entries):
    crow = c_row(m, 3)
    print(f"  {m.render(pretty=True):<16} charge {str(chg):<9} c-row {str(crow):<9} "
          f"type {row_type(crow)}")

print(f"\nfour doublets: {len(enumerate_monomials(4))} monomials")

# The charge matrix of a chosen term pair, rows in the order given:
v1 = Monomial(((1, 2), (1, 3)))
v2 = Monomial(((2, 1), (2, 3)))
print(f"\nX for {v1.render(True)} and {v2.render(True)}:",
      build_x_matrix([v1, v2], basis).entries)

# Conjugating a monomial flips its charge:
m = Monomial(((2, 1),))
print(f"\ncharge of {m.render(True)}: {charge_vector(m, basis)}")
print(f"charge of the conjugate:  {charge_vector(Monomial(m.conjugate_factors()), basis)}")
