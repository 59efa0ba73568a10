"""Monodromy flows of the sphere's open books and the Dehn twist.

The monodromy of an open book is the time-1 flow of a spinning vector
field: d(theta)(Y) = 2 pi, with the flow preserving the page structures.
For the z_1 book a rotation of the z_1 plane does the job and its time-1
flow is the identity.  For the quadric book the normalized field has a
closed-form flow whose time-1 map, conjugated to the disk cotangent
bundle by the page embedding, is a Dehn twist with angle profile
2 pi |p| / (1 + |p|^2) - pi.

Run:  python demos/03_monodromy_and_dehn_twist.py
"""

import numpy as np

from openbooks import (closed_form_quadric_flow, coordinate_open_book,
                       coordinate_spinning_field, dehn_twist_pullback_check,
                       flow, monodromy_vs_dehn_twist,
                       quadric_open_book, quadric_spinning_field, rng_for,
                       sample, spinning_field, standard_twist)
from openbooks.monodromy import real_to_complex

# --- trivial monodromy -----------------------------------------------------
rep1 = coordinate_open_book(2)
pts = sample(rep1.manifold, 400, seed=3)
pts = pts[rep1.f.modulus(pts) > 1e-2][:100]
end = flow(coordinate_spinning_field(rep1), pts, 1.0, 1e-3)
print(f"z_1 book: time-1 flow returns every start to "
      f"{np.max(np.abs(end - pts)):.2e}")

# --- the quadric book's spinning field --------------------------------------
rep2 = quadric_open_book(2)
off = sample(rep2.manifold, 400, seed=5)
off = off[rep2.f.modulus(off) > 1e-3][:200]
solved = spinning_field(rep2, off)              # kernel of the page form
analytic = quadric_spinning_field(rep2)(off)    # closed-form expression
print(f"quadric book: solve vs closed form {np.max(np.abs(solved - analytic)):.2e}")

# The trajectory is available in closed form: with g_0 = |f(z_0)| and
# c = sqrt(1 - g_0^2),
#     z(t) = A_+ e^{i pi (c+1) t} + A_- e^{-i pi (c-1) t}.
z0 = real_to_complex(off[:50])
end_rk = flow(quadric_spinning_field(rep2), off[:50], 1.0, 1e-4)
end_cf, flagged = closed_form_quadric_flow(z0, 1.0)
print(f"RK4 (step 1e-4) vs closed form: "
      f"{np.max(np.abs(real_to_complex(end_rk) - end_cf)):.2e} "
      f"(cancellation flags: {int(np.sum(flagged))})")
print(f"|f| conserved along the flow to "
      f"{np.max(np.abs(np.abs(np.sum(end_cf * end_cf, -1)) - rep2.f.modulus(off[:50]))):.2e}")

# binding points are fixed, real starts land on their antipodes
rng = rng_for(7)
q = rng.normal(size=(3, 2))
q /= np.linalg.norm(q, axis=-1, keepdims=True)
z_real = q.astype(complex)
z1, _ = closed_form_quadric_flow(z_real, 1.0)
print(f"real start -> antipode: {np.max(np.abs(z1 + z_real)):.2e}")

# --- the Dehn twist ---------------------------------------------------------
twist = standard_twist()
n = 2
qs = rng.normal(size=(100, n))
qs /= np.linalg.norm(qs, axis=-1, keepdims=True)
fiber = np.stack([-qs[:, 1], qs[:, 0]], axis=-1)
radii = rng.uniform(0.0, 0.99, size=(100, 1))
ps = radii * fiber

q_tw, p_tw = twist(qs, ps)
print(f"twist preserves |p| to "
      f"{np.max(np.abs(np.linalg.norm(p_tw, axis=-1) - np.linalg.norm(ps, axis=-1))):.2e}")
report = dehn_twist_pullback_check(twist, n, np.concatenate([qs, ps], -1))
print(f"pullback identity lambda_can - |p| d(rho): "
      f"{report.max_residual:.2e}")

# Conjugating the time-1 flow by the page embedding
#   (q, p) -> (q + i p) / sqrt(1 + |p|^2)
# reproduces the twist pointwise:
compare = monodromy_vs_dehn_twist(rep2, np.concatenate([qs, ps], -1))
for d in compare.details:
    print(f"  {d.name}: {d.max_residual:.2e}")
