"""Contact forms on V x T^2 from open books, and weak-filling positivity.

A representation (alpha, f) of a contact open book on V induces the
1-form

    alpha + f_x dphi1 - f_y dphi2

on V x T^2, which is again contact; its top power splits as
(n+1) Omega_V ^ dphi1 ^ dphi2 for the open-book volume form Omega_V.
This script demonstrates the two-route contact verification, the
eps-deformation family, the inverse-monodromy modification and its shear
isotopy, and the filling polynomial sweep.

Run:  python demos/02_product_contact_forms.py
"""

from openbooks import (bourgeois_form, extract_slice_representation,
                       filling_polynomial, find_inverse_constant,
                       isotopy_check, profiled_representation,
                       quadric_open_book, sample, verify_product_contact,
                       verify_inverse_form)

rep = quadric_open_book(2)
bf = bourgeois_form(rep)
print(f"product manifold: {bf.manifold.name}, dim {bf.manifold.dim}")

pts = sample(bf.manifold, 1500, seed=7)
report = verify_product_contact(bf, pts)
for d in report.details:
    print(f"  {d.name}: margin={d.min_margin} residual={d.max_residual}")

# The coefficients do not depend on the torus angles, so every V-slice of
# the product form is the pair (alpha_V, f), and it is a representation
# of the original open book (the converse direction of the
# characterization).
slice_report = extract_slice_representation(bf)
print(f"the V-slice is a representation: {slice_report.passed}")

# --- inverse monodromy -----------------------------------------------------
# Replacing |f| by a profile that is linear near the binding and constant
# outside makes alpha - C (f_x df_y - f_y df_x) a contact form with the
# opposite orientation for every large C; its open book has the same
# pages and the inverse monodromy.

prof = profiled_representation(rep)
v_pts = sample(prof.manifold, 800, seed=11)
c, margin, margin_2c = find_inverse_constant(prof, v_pts)
print(f"reversed-orientation constant: C = {c} "
      f"(margins {margin:.2f}, re-check at 2C {margin_2c:.2f})")
binding = sample(prof.binding, 100, seed=13)
inverse = verify_inverse_form(prof, c, v_pts[:200], binding)
print(f"restriction to pages/binding unchanged: "
      f"{inverse.details[1].max_residual:.2e}")

# The two product forms (for f and for its conjugate with the reversed
# torus orientation) are joined by an explicit family alpha_tau pulled
# back from tau = 0 by the angle shear
#   (p; phi1, phi2) -> (p; phi1 - tau C f_y, phi2 - tau C f_x).
iso = isotopy_check(prof, c, sample(bourgeois_form(prof).manifold, 300,
                                    seed=17))
for d in iso.details:
    print(f"  {d.name}: residual={d.max_residual} margin={d.min_margin}")

# --- filling positivity ----------------------------------------------------
# With the ball filling of S^3 (omega = d alpha_0) the polynomial
#   P_eps(T) = alpha_eps ^ (T d alpha_eps + omega + vol_T2)^(n+1)
# must stay positive for all T >= 0.  The sweep certifies the grid of
# bourgeois.FILLING_EPS_GRID x bourgeois.FILLING_T_GRID plus both
# leading coefficients, which control T -> infinity.

sweep = filling_polynomial(rep, sample(bf.manifold, 400, seed=19))
print(f"filling sweep: min margin {sweep.min_margin:.4f} over "
      f"{len(sweep.rows)} grid pairs  (pass={sweep.passed})")
by_eps = {}
for row in sweep.rows:
    by_eps.setdefault(row["eps"], []).append(row["min_margin"])
for eps, margins in by_eps.items():
    print(f"  eps={eps:<5}: min over T grid {min(margins):.4f}")
