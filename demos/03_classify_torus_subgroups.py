"""The classification: every realizable torus subgroup for small N.

The scan walks all charge lattices spanned by monomial subsets, deduplicates
them by Hermite basis, and reads each group off the Smith form.  Adding
terms can only shrink the symmetry, so the walk is exhaustive.
"""

from nhdm import classify, symmetry_group_of_terms, torus_basis, verify_order_bound

for n in (2, 3):
    result = classify(n)
    print(f"\nN = {n}: {len(result.entries)} realizable torus subgroups")
    for e in result.entries:
        witness = " ".join(m.render(True) for m in e.witness) or "(backbone only)"
        print(f"  {e.signature.name():<10} witness: {witness}")
        for g in e.generators:
            print(f"      generator {g}")

result4 = classify(4)
finite4 = result4.finite_signatures()
print(f"\nN = 4 finite groups ({len(finite4)}):", ", ".join(s.name() for s in finite4))

# Every witness reproduces its group when fed back through the solver.
basis = torus_basis(4)
entry = result4.find(next(s for s in finite4 if s.name() == "Z7"))
group = symmetry_group_of_terms(entry.witness, basis)
print("\nZ7 witness terms:", " ".join(m.render(True) for m in entry.witness))
print("solved generator:", group.finite_generators[0])
print("its 7th power is central:", (7 * group.finite_generators[0]).is_identity_mod_center())

print("\norder bound 2^(N-1):")
for n in (2, 3, 4):
    rep = verify_order_bound(n)
    print(f"  N={n}: max finite order {rep.max_order} = bound {rep.bound}: {rep.bound_met}")
