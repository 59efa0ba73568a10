"""Numerical verification toolkit for contact open books.

Instantiates and checks, at machine precision on sampled points, the
explicit constructions around contact open books: the standard sphere's
two open books, product contact forms on V x T^2, inverse-monodromy
isotopies, spinning-field monodromy flows against closed-form solutions,
ideal Liouville completions, Dehn twists, filling positivity sweeps and
pre-Lagrangian loop straightening.
"""

from .forms import (KForm, Point, SmoothMap, VecField, constant_form,
                    coordinate_differential, ext_deriv, form_from_components,
                    interior, pullback, scale_form, wedge, wedge_all,
                    wedge_power)
from .manifolds import (Submanifold, disk_cotangent_bundle, flat_torus,
                        product_with_torus, project_to_constraints, rng_for,
                        sample, tangent_bases, tangent_pluecker,
                        unit_sphere)
from .contact import (ContactForm, DefiningFunction, Representation,
                      binding_manifold, coordinate_open_book,
                      openbook_volume_form, quadric_open_book, reeb_fields,
                      standard_contact_form, standard_sphere,
                      verify_adapted, verify_contact, verify_representation,
                      volume_form_cross_check)
from .bourgeois import (BourgeoisForm, bourgeois_form,
                        extract_slice_representation, filling_polynomial,
                        find_inverse_constant, inverse_form, isotopy_check,
                        profiled_representation, verify_product_contact,
                        verify_inverse_form)
from .monodromy import (DehnTwist, SpinningField, closed_form_quadric_flow,
                        contraction_identity_check, coordinate_spinning_field,
                        dehn_twist_pullback_check, flow,
                        monodromy_vs_dehn_twist, page_embedding,
                        page_embedding_inverse, quadric_spinning_field,
                        spinning_definition_check, spinning_field,
                        standard_twist)
from .liouville import (HypersurfaceData, LiouvilleDomain,
                        WeinsteinStructure, angle_spinning_field,
                        canonical_one_form, completion_check,
                        complex_plane_weinstein, disk_bundle_domain,
                        hypersurface_build, identification_check,
                        interior_identification, page_volume_identity,
                        quartic_disk_domain, subcritical_check,
                        subcritical_coordinates, torus_cotangent_weinstein,
                        weinstein_check, weinstein_disk_domain)
from .prelagrangian import (Loop, PreLagrangian,
                            binding_torus_prelagrangian, legendrian_check,
                            real_circle_submanifold,
                            real_circle_torus_prelagrangian,
                            straighten_loop, verify_prelagrangian)
from .report import CheckReport, make_report, merge_reports

__version__ = "0.1.0"
