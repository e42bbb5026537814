"""Certified eigenvalues by exact inertia counting.

One leaf-to-root pass over A(T) - xI counts the eigenvalues below, at
and above a rational x.  Each eigenvalue is a bracket narrowed by
bisection on these counts; comparisons between eigenvalues are exact
decisions, not floating-point guesses, which is what lets the median
eigenvalue drive a genuine partial order.
"""

import math

from invtrees import (caterpillar_median_bound, char_poly, compare_medians,
                      elongated_caterpillar, inertia, median_eigenvalue,
                      path_tree, rooted_product_char_poly, rooted_product_k2,
                      spectrum)

p6 = path_tree(6)
t6 = elongated_caterpillar(3)

print(f"charpoly of P6 (ascending): {char_poly(p6)}")
print(f"eigenvalues of P6 below, at and above 1/2: {inertia(p6, 0.5)}")
spec = spectrum(p6)
print("eigenvalues of P6 with certified intervals:")
for r in spec.roots:
    r.refine(width=type(r.lo)(1, 10**9))
    print(f"  {float(r): .7f}  in ({r.lo}, {r.hi}] "
          f"multiplicity {r.multiplicity}")

print(f"\nmedian of P6 = {median_eigenvalue(p6):.7f} "
      f"(closed form 2cos(3pi/7) = {2 * math.cos(3 * math.pi / 7):.7f})")
print(f"median of T6 = {median_eigenvalue(t6):.7f} "
      f"(closed form (sqrt6 - sqrt2)/2 = "
      f"{(math.sqrt(6) - math.sqrt(2)) / 2:.7f})")
print(f"certified comparison P6 vs T6: {compare_medians(p6, t6):+d}")

# rooted products with an edge have a closed-form spectrum
base = path_tree(3)
assert rooted_product_char_poly(base) == char_poly(rooted_product_k2(base))
print("\nrooted-product polynomial identity holds exactly for P3 o K2.")

median, floor = caterpillar_median_bound(5)
print(f"long caterpillar on 10 vertices: median {median:.7f} "
      f">= sqrt(2) - 1 = {floor:.7f}")
