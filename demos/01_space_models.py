"""Tour of the two built-in space models.

The library works over W-hyperbolic spaces: a metric space together with a
convexity map W(x, y, lam) that plays the role of the point (1-lam) x + lam y.
Two models ship with the package:

* ``euclidean(dim)``   -- R^dim with the usual metric and straight segments,
* ``poincare_disk()``  -- the open unit disk with the hyperbolic metric and
                          geodesic segments.

Both are uniformly convex, with a modulus eta(r, eps) that is independent of
the radius r; the default is the quadratic modulus eps^2 / 8.
"""

import asymreg as ar


def describe(space, a, b):
    x = ar.make_point(space, a)
    y = ar.make_point(space, b)
    mid = ar.combine(space, x, y, 0.5)
    quarter = ar.combine(space, x, y, 0.25)
    print(f"  d(x, y)            = {ar.dist(space, x, y):.12f}")
    print(f"  midpoint           = {tuple(round(c, 12) for c in mid.coords)}")
    print(f"  d(x, W(x,y,1/4))   = {ar.dist(space, x, quarter):.12f}"
          f"   (should be d(x,y)/4)")
    print(f"  d(x, mid)          = {ar.dist(space, x, mid):.12f}"
          f"   (should be d(x,y)/2)")


print("Euclidean plane")
E2 = ar.euclidean(2)
describe(E2, (0.0, 0.0), (3.0, 4.0))

print("\nPoincare disk (hyperbolic metric)")
D = ar.poincare_disk()
describe(D, (0.0, 0.0), (0.5, 0.0))
print("  note: the hyperbolic midpoint of 0 and 0.5 is NOT 0.25 --")
print("  distances blow up toward the boundary, so the midpoint sits closer")
print("  to the origin in chart coordinates.")

print("\nSampling the axioms (triangle inequality, the four W axioms)")
for name, space in (("Euclidean(2)", E2), ("Euclidean(5)", ar.euclidean(5)),
                    ("PoincareDisk", D)):
    rep = ar.check_space_axioms(space, samples=2_000, seed=0)
    print(f"  {rep.summary_line()}   [{name}]")

print("\nUniform convexity: if d(x,a), d(y,a) <= r and d(x,y) >= eps r, the")
print("midpoint of x and y is pulled at least eta(r, eps) * r into the ball.")
for name, space in (("Euclidean(2)", E2), ("PoincareDisk", D)):
    rep = ar.check_uc_implication(space, samples=2_000, seed=0)
    print(f"  {rep.summary_line()}   [{name}, eta = eps^2/8]")

print("\nThe same checker rejects a modulus that claims too much:")
rep = ar.check_uc_implication(ar.euclidean(2, ar.eta_quadratic(2)), samples=2_000, seed=0)
print(f"  {rep.summary_line()}   [eta = eps^2/2 is not a valid modulus]")
if rep.failures:
    f = rep.failures[0]
    print(f"  first counterexample: claimed {f.rhs:.6f}, observed {f.lhs:.6f}")
