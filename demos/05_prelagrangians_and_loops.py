"""Pre-Lagrangian submanifolds in the product and loop straightening.

A submanifold P of a (2N+1)-dimensional contact manifold is
pre-Lagrangian when dim P = N + 1 and some contact form has d(alpha)
vanishing on TP.  Two constructions live in V x T^2:

  * L x T^2 for a closed Legendrian L inside one page (after rescaling
    the product form by a nowhere-vanishing extension of Re f |_L);
  * P x T^2 for a pre-Lagrangian P of the binding (no rescaling needed:
    both components of f vanish along the binding).

Loops on P with positive contact integral can be straightened to loops
positively transverse to the Legendrian foliation by flowing along a
constant field Y with alpha(Y) = 1 for the time function
f(t) = C t/(2 pi) - int_0^t alpha(gamma').

Run:  python demos/05_prelagrangians_and_loops.py
"""

import numpy as np

from openbooks import (Loop, binding_torus_prelagrangian, legendrian_check,
                       quadric_open_book, real_circle_submanifold,
                       real_circle_torus_prelagrangian, sample,
                       straighten_loop, verify_prelagrangian)
from openbooks.prelagrangian import (desk_loop, loop_integral,
                                     restricted_form_values)

# --- the Legendrian x torus construction -------------------------------------
rep = quadric_open_book(2)
circle = real_circle_submanifold()
pts_l = sample(circle, 200, seed=3)
leg = legendrian_check(circle, rep, pts_l)
print(f"real circle in S^3: Legendrian inside the zero page  "
      f"(pass={leg.passed})")

pl = real_circle_torus_prelagrangian()
pts = sample(pl.submanifold, 400, seed=5)
flat = verify_prelagrangian(pl, pts)
print(f"L x T^2: d(alpha_hat)|TP = {flat.max_residual:.2e}  "
      f"(dim {pl.submanifold.dim} vs contact dim {pl.ambient_contact.dim})")

# after the rescaling the restriction of the form to P is exactly dphi1
bases, vals = restricted_form_values(pl, pts[:50])
print(f"restriction equals dphi1 to "
      f"{np.max(np.abs(vals - bases[:, :, 4])):.2e}")

# --- the binding x torus construction ----------------------------------------
plk = binding_torus_prelagrangian()
pts_k = sample(plk.submanifold, 400, seed=7)
print(f"K x T^2: d(alpha)|TP = "
      f"{verify_prelagrangian(plk, pts_k).max_residual:.2e} "
      f"(f vanishes exactly: "
      f"{np.max(np.abs(rep.f.value(pts_k[:, :4]))) == 0.0})")

# --- straightening a wobbling loop -------------------------------------------
# gamma winds once through phi1 with alpha_hat(gamma') = 1 + cos(t)/2;
# the straightened loop has constant speed C/(2 pi) = 1.  gamma takes the
# whole grid t (n + 1,) and returns the samples (n + 1, 6) in one call.
loop = Loop.from_function(desk_loop(0.5), 2048, pl.submanifold.periodic_mask)
c_in, g_in, _ = loop_integral(pl, loop)
print(f"input loop: C = {c_in:.6f}, speed range "
      f"[{g_in.min():.3f}, {g_in.max():.3f}]")

y = np.array([0, 0, 0, 0, 1, 0])          # d/d(phi1): alpha_hat(Y) = 1 on P
straight, report = straighten_loop(loop, pl, y)
c_out, g_out, _ = loop_integral(pl, straight)
print(f"straightened: C = {c_out:.6f}, speed range "
      f"[{g_out.min():.9f}, {g_out.max():.9f}]")
for d in report.details:
    print(f"  {d.name}: {d.max_residual:.2e}")
