"""Running Ishikawa orbits and reading their residuals.

The iteration is

    y_n     = (1 - s_n) x_n  (+)  s_n T x_n
    x_{n+1} = (1 - lambda_n) x_n  (+)  lambda_n T y_n

where (+) is the geodesic convex combination of the space.  With s_n = 0 it
degenerates to the Krasnoselski-Mann scheme x_{n+1} = (1-lambda_n) x_n (+)
lambda_n T x_n.  The quantity the rate machinery controls is the residual
r_n = d(x_n, T x_n).
"""

import io
import math

import asymreg as ar

# ---------------------------------------------------------------------------
print("A rotation by pi/2 about the origin, started at (1, 0), lambda = 1/2.")
print("T has exactly one fixed point (the origin); averaging each iterate")
print("with its image spirals the orbit inward by cos(pi/4) per step:")
E2 = ar.euclidean(2)
T = ar.euclidean_rotation((0.0, 0.0), math.pi / 2)
sched = ar.Schedule(ar.seq_constant("1/2"), ar.seq_constant(0),
                    ar.theta_linear(4), 1, 0, ar.gamma_zero())
start = ar.make_point(E2, (1.0, 0.0))
traj = ar.run_trajectory(E2, T, start, sched, 12)
for n in (0, 1, 2, 3, 8, 12):
    x = traj.points[n]
    print(f"  n={n:2d}  x = ({x.coords[0]:+.6f}, {x.coords[1]:+.6f})"
          f"   residual = {traj.residuals[n]:.2e}")

# ---------------------------------------------------------------------------
print("\nGenuine Ishikawa: inner steps s_n = 2^-(n+1) on the same mapping.")
isched = ar.Schedule(ar.seq_constant("1/2"), ar.seq_geometric("1/2", "1/2"),
                     ar.theta_linear(4), 2, 0,
                     ar.gamma_geometric_tail("1/2", "1/2", "1/2"))
itraj = ar.run_trajectory(E2, T, start, isched, 12)
print("  n   KM residual     Ishikawa residual")
for n in (0, 2, 4, 8, 12):
    print(f"  {n:2d}  {traj.residuals[n]:.6e}  {itraj.residuals[n]:.6e}")

# ---------------------------------------------------------------------------
print("\nOn the Poincare disk the same schedule drives a hyperbolic rotation:")
D = ar.poincare_disk()
R = ar.poincare_rotation((0.0, 0.0), math.pi / 2)
dstart = ar.make_point(D, (0.46211715726000974, 0.0))   # hyperbolic dist 1 from 0
dtraj = ar.run_trajectory(D, R, dstart, sched, 10,
                          ref_point=ar.make_point(D, (0.0, 0.0)))
print("  n   residual      dist to fixed point")
for n in (0, 1, 2, 5, 10):
    print(f"  {n:2d}  {dtraj.residuals[n]:.6e}  {dtraj.ref_distances[n]:.6e}")
print("  (the distance to the fixed point never increases: the iteration is")
print("   Fejer monotone with respect to fixed points)")

# ---------------------------------------------------------------------------
print("\nTrajectories stream to CSV for plotting:")
buf = io.StringIO()
ar.trajectory_to_csv(dtraj, buf, report_every=2)
print("\n".join("  " + line for line in buf.getvalue().splitlines()[:5]))
print("  ...")
