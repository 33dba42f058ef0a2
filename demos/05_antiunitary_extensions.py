"""Extending unitary groups by antiunitary (generalized-CP) transformations.

For each realizable torus subgroup the package searches for a commuting
antiunitary generator over generalized permutations, quantizes its square,
restricts the invariant terms, and then checks whether the restricted
potential secretly gained a bigger unitary symmetry.  For three doublets the
outcome is exact.
"""

from nhdm import AbelianBase, classify_cp, commutant_support, cp_extensions, cp_realizable
from nhdm.cpext import backbone_classes
from nhdm.monomials import term_table

res = classify_cp(3)
print("realizable groups with an antiunitary generator (three doublets):")
for sig in res.realizable:
    print("  ", sig.name())
print("\nrejected candidates and why:")
for sig, verdict in res.rejected:
    print(f"  {sig.name():<9} {verdict.kind}")
    print(f"      {verdict.detail}")

# Drill into the cyclic-four case: the commuting pattern swaps the first two
# doublets, and the two square classes give a split and a twisted extension.
base = AbelianBase.from_lattice(3, [(0, 1), (4, 2)])
print(f"\nbase group {base.group.signature.name()}, generator {base.group.finite_generators[0]}")
print("antiunitary support pattern:")
for row in commutant_support(base):
    print("   ", ["x" if v else "." for v in row])
terms = term_table(3).monomials  # a candidate lists its terms as indices into this table
for cand in cp_extensions(base):
    verdict = cp_realizable(cand)
    print(f"\ncandidate {cand.signature.name()}  (square = {cand.square})")
    print("  surviving terms:", " ".join(terms[t].render(True) for t in cand.surviving) or "none")
    print("  killed terms:   ", " ".join(terms[t].render(True) for t in cand.killed) or "none")
    print("  coefficient restrictions on the backbone:", backbone_classes(cand.sigma).equalities())
    print("  verdict:", verdict.kind)
    if verdict.witness:
        print("  witness:", verdict.witness)
