"""The one abelian group that lives outside every torus: Z3 x Z3.

Its generators are a phase rotation and a cyclic doublet permutation, so it
is not diagonalizable as a whole.  The invariant potential turns out to be
symmetric under any exchange of two doublets as well, and the exchange does
not commute with the phase rotation: the full symmetry group is nonabelian,
so Z3 x Z3 itself is not realizable with three doublets.

The swap is found by the same forced-symmetry search that decides the
antiunitary verdicts of demo 05: the Z3 potential is restricted by the cyclic
permutation, and the search lists every generalized permutation the
restricted potential is forced to admit.
"""

from nhdm import check_z3z3

rep = check_z3z3()
print("phase generator a:", rep.phase_generator)
print("cyclic generator b:", rep.cyclic_generator)
print("invariant under a and b:", rep.invariant_under_generators)
print()
print("extra symmetry: the swap of the first two doublets", rep.swap)
print("potential invariant under the swap:", rep.invariant_under_swap)
print("swap commutes with a:", rep.swap_commutes)
print()
print("verdict:", rep.verdict)
