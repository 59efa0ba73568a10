"""The two open books on the standard contact sphere.

The unit sphere S^(2n-1) in C^n carries the contact form
alpha_0 = 1/2 sum (x_j dy_j - y_j dx_j).  Two holomorphic functions cut
open books out of it:

  * f(z) = z_1          -- page a ball, trivial monodromy;
  * f(z) = sum z_j^2    -- page a disk cotangent bundle, monodromy a
                           Dehn twist.

This script walks through the basic verification pipeline for both.
Run:  python demos/01_sphere_open_books.py
"""

import numpy as np

from openbooks import (ContactForm, coordinate_open_book,
                       openbook_volume_form, quadric_open_book,
                       reeb_fields, sample, standard_contact_form,
                       standard_sphere, tangent_bases, verify_adapted,
                       verify_contact, verify_representation,
                       volume_form_cross_check)

# --- the contact condition -------------------------------------------------
# alpha ^ (d alpha)^n is evaluated on oriented orthonormal tangent bases,
# so the margin is comparable across points.  On S^3 the value is exactly
# one half everywhere.

sphere = standard_sphere(2)
cf = ContactForm(standard_contact_form(2), sphere)
pts = sample(sphere, 2000, seed=7)
report = verify_contact(cf, pts)
print(f"contact condition on S^3: margin {report.min_margin:.6f} "
      f"(pass={report.passed})")

# The Reeb field solves alpha(R) = 1, d(alpha)(R, .) = 0 pointwise: on a
# tangent frame it is the kernel of d(alpha), given by sub-Pfaffians and
# scaled so that alpha(R) = 1.  For alpha_0 it is twice the complex
# rotation field z -> i z (the factor two normalizes the pairing
# alpha_0(i z) = 1/2 on the unit sphere).
reeb, residual = reeb_fields(cf, pts[:5])
print("Reeb vectors at two samples (rows):")
print(np.round(reeb[:2], 6))
print(f"residual of alpha(R) = 1, d(alpha)(R, .) = 0: {residual.max():.2e}")

# --- adaptedness -----------------------------------------------------------
# A contact form is adapted to the open book of h when
#   (i)  alpha ^ (d alpha)^(n-1) ^ dh_x ^ dh_y > 0 along h = 0,
#   (ii) h_x dh_y(R) - h_y dh_x(R) > 0 away from it.
# For f = z_1 the Reeb flow rotates z_1 once, so (ii) equals 2 |z_1|^2;
# for the quadric it rotates f twice, giving 4 |f|^2.

for rep in (coordinate_open_book(2), quadric_open_book(2)):
    samples = sample(rep.manifold, 1500, seed=11)
    binding = sample(rep.binding, 150, seed=13)
    adapted = verify_adapted(rep.contact, rep.f, samples, binding)
    print(f"{rep.name}: adapted margin {adapted.min_margin:.3f} "
          f"(pass={adapted.passed})")

    # The open book induces a volume form that stays smooth across the
    # binding when written through the regularized identities
    #   rho^2 dtheta = f_x df_y - f_y df_x,
    #   rho drho ^ dtheta = df_x ^ df_y.
    omega = openbook_volume_form(rep)
    with_binding = np.vstack([samples[:300], binding])
    vals = omega.at_basis(with_binding,
                          tangent_bases(rep.manifold, with_binding))
    print(f"  volume form range incl. binding: "
          f"[{vals.min():.4f}, {vals.max():.4f}]")

    # Away from the binding the same form equals the raw quotient
    # expression |f|^(n+2) dtheta ^ (d(alpha/|f|))^n; the two evaluations
    # agree to ~1e-10 relative.
    cross = volume_form_cross_check(rep, samples[:400])
    print(f"  two-sided volume identity: rel residual "
          f"{cross.max_residual:.2e}")

    # The full representation check also certifies that 0 is a regular
    # value, the binding is non-empty, f/|f| is a submersion, and alpha
    # restricts to a positive contact form on the binding.
    rep_report = verify_representation(rep, samples[:400], binding)
    print(f"  representation conditions: "
          f"{[d.name for d in rep_report.details if d.passed]}")

# The same pipeline runs in dimension five:
rep5 = quadric_open_book(3)
samples5 = sample(rep5.manifold, 1000, seed=17)
binding5 = sample(rep5.binding, 100, seed=19)
print(f"{rep5.name}: representation pass = "
      f"{verify_representation(rep5, samples5, binding5).passed}")
