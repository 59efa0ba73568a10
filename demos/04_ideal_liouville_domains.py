"""Ideal Liouville completions, the trivial-monodromy hypersurface, and
the explicit subcritical filling coordinates.

A classical Liouville domain (F, lambda_c) is completed by a function
u >= 0 with u = 0 exactly on the boundary (regularly) and du(X) < u:
the rescaled form lambda_c / u is then an ideal Liouville structure with
the same boundary contact structure.

Run:  python demos/04_ideal_liouville_domains.py
"""

import numpy as np

from openbooks import (angle_spinning_field, completion_check,
                       complex_plane_weinstein, disk_bundle_domain, flow,
                       hypersurface_build, identification_check,
                       interior_identification, page_volume_identity,
                       quartic_disk_domain, rng_for, sample,
                       subcritical_check, subcritical_coordinates,
                       torus_cotangent_weinstein, verify_contact,
                       verify_representation, weinstein_check,
                       weinstein_disk_domain)
from openbooks.liouville import lyapunov_ratio

# --- two model completions ---------------------------------------------------
# the closed unit disk in C^2 with the quartic choice u = 1 - |z|^4 ...
disk = quartic_disk_domain(2)
pts = sample(disk.manifold, 500, seed=3)
rng = rng_for(5)
boundary = rng.normal(size=(100, 4))
boundary /= np.linalg.norm(boundary, axis=-1, keepdims=True)
print(f"quartic disk completion: "
      f"{completion_check(disk, pts, boundary).passed} "
      f"(du(X) at the boundary = {disk.du_along_field(boundary)[0]:.1f})")

# ... and the unit-disk cotangent bundle of the circle with u = 1 - |p|^2.
bundle = disk_bundle_domain(2)
pts_b = sample(bundle.manifold, 500, seed=7)
boundary_b = pts_b[:100].copy()
boundary_b[:, 2:] /= np.linalg.norm(boundary_b[:, 2:], axis=-1,
                                    keepdims=True)
print(f"disk bundle completion: "
      f"{completion_check(bundle, pts_b, boundary_b).passed}")

# The completed interiors are exact-symplectomorphic to the open models:
# z -> z / sqrt(1 - |z|^4) and (q, p) -> (q, p / (1 - |p|^2)).
print(f"disk interior identification: "
      f"{identification_check('disk', disk, pts[disk.u(pts) > 0.05]).max_residual:.2e}")
print(f"bundle interior identification: "
      f"{identification_check('disk_bundle', bundle, pts_b[bundle.u(pts_b) > 0.05]).max_residual:.2e}")
print(f"center maps to the origin: "
      f"{interior_identification('disk', np.zeros((1, 4)))[0][:2]}")

# --- the hypersurface with trivial monodromy ---------------------------------
# V = { |z|^2 = u(p) } in F x C carries the contact form
# lambda_c + (x dy - y dx)/2 and the open book of f(p, z) = z; the page
# is F itself and 2 pi d/d(theta) realizes the (identity) monodromy.

disk2 = weinstein_disk_domain()
hs = hypersurface_build(disk2)
pts_v = sample(hs.rep.manifold, 1000, seed=9)
print(f"hypersurface V (dim {hs.rep.manifold.dim}): contact pass = "
      f"{verify_contact(hs.rep.contact, pts_v).passed}, "
      f"transversality margin {hs.transversality_margin:.2f}")
binding = sample(hs.rep.binding, 100, seed=11)
print(f"representation suite on (alpha, z): "
      f"{verify_representation(hs.rep, pts_v[:400], binding).passed}")
off = pts_v[hs.rep.f.modulus(pts_v) > 1e-2][:50]
end = flow(angle_spinning_field(hs.rep), off, 1.0, 1e-3)
print(f"identity monodromy: {np.max(np.abs(end - off)):.2e}")

# the page-volume identity certifies the ideal structure on the page:
print(f"page volume identity: "
      f"{page_volume_identity(disk2, sample(disk2.manifold, 400, seed=13)).max_residual:.2e}")

# --- Weinstein factors and the subcritical coordinates -----------------------
w_c = complex_plane_weinstein()
w_t = torus_cotangent_weinstein()
pts_c = sample(w_c.manifold, 400, seed=15)
pts_t = sample(w_t.manifold, 400, seed=17)
print(f"Lyapunov ratios: C -> {lyapunov_ratio(w_c, pts_c)[0]:.4f} "
      f"(= 4/17), T*T^2 -> {lyapunov_ratio(w_t, pts_t)[0]:.4f} (= 2/5)")
print(f"weinstein checks: C at delta=0.2 -> "
      f"{weinstein_check(w_c, pts_c, 0.2).passed}, T*T^2 at delta=0.4 -> "
      f"{weinstein_check(w_t, pts_t, 0.4).passed}")

# The filling of the product with the torus is made explicit by
# (x, y; phi1, phi2) -> (-phi1 - y, phi2 + x; x, y): it matches the
# Liouville forms on the nose and pulls the Lyapunov sum back exactly.
sample_pts = np.concatenate([rng.normal(size=(500, 4)),
                             rng.uniform(0, 2 * np.pi, size=(500, 2))],
                            axis=-1)
coords = subcritical_check(sample_pts)
print(f"subcritical coordinates: {[d.name for d in coords.details]} all "
      f"pass = {coords.passed}")
print(f"example image of (0,0,0,0,1.2,0.7): "
      f"{subcritical_coordinates(np.array([0, 0, 0, 0, 1.2, 0.7]))}")
