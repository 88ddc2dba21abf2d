"""
Hodge-Laplacian spectra of closed surfaces
==========================================

Cotan-weighted DEC Laplacians on icospheres: convergence of the first
function eigenvalue to 2 with its 3-fold cluster, the equality of the exact
1-form family with the function spectrum, and harmonic 1-forms counting the
genus of a torus.
"""

import numpy as np

from hodgebench import (
    generate_icosphere,
    generate_torus,
    spectrum,
    sphere_hodge_oracle,
)

print("unit-sphere oracle: first exact p-eigenvalue and multiplicity")
for n, p in [(2, 1), (2, 2), (3, 2), (5, 3)]:
    lam, mult = sphere_hodge_oracle(n, p)
    print(f"  S^{n}, p={p}: {lam:g} (x{mult})")

print("\nfunction spectrum convergence on icospheres (target 2, cluster of 3):")
for s in (1, 2, 3, 4):
    rep = spectrum(generate_icosphere(s, 1.0), 0, k=5)
    lam1 = rep.first_positive()
    cluster = next(c for c in rep.clusters if abs(c[0] - lam1) < 0.2)
    print(
        f"  subdivision {s}: lambda_1 = {lam1:.6f}"
        f"   error {abs(lam1 - 2.0):.2e}   multiplicity {cluster[1]}"
    )

print("\n1-form spectrum of icosphere(3): exact vs coexact families")
mesh = generate_icosphere(3, 1.0)
rep1 = spectrum(mesh, 1, k=8)
for lam, fam in zip(rep1.eigenvalues, rep1.families):
    print(f"  {lam:10.6f}  {fam}")
print("  exact family repeats the function spectrum; the coexact family")
print("  duplicates it on the sphere (self-dual middle dimension)")

print("\ntorus: harmonic 1-forms count the first Betti number")
rep_t = spectrum(generate_torus(24, 12), 1, k=6)
print(f"  harmonic eigenvalues found: {rep_t.count('harmonic')} (genus 1 -> b1 = 2)")
print(f"  first positive eigenvalue: {rep_t.first_positive():.5f}")
