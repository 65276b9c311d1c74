"""bundleqm: the harmonic oscillator and its antiparticle as U(1) gauge theory.

Classical flows with winding charges, prequantum line bundles with the
vacuum connection, polarizations selecting coordinate / momentum / Bargmann
representations, oscillator spectra and charge densities, and the orbifold
cone geometry of eigenstate graphs.
"""

from .classical import (ClassicalState, ComplexStructure, OscillatorParams,
                        PhasePoint, evolve_classical, hamiltonian_energy,
                        hamiltonian_vector_field, kahler_metric, moment_map,
                        symplectic_reduce, winding_number)
from .bundles import (DoubledSection, GaugeConnection, GridSection, LineSection,
                      canonical_operators, covariant_derivative, curvature_numeric,
                      decompose, gauge_transform, recompose, translate_operator,
                      vacuum_connection)
from .polarizations import (FockState, Polarization, bargmann_inverse,
                            bargmann_pairing, bargmann_transform,
                            dolbeault_residual, gauss_hermite, hermite_basis,
                            holomorphic_gauge, ladder_apply, ladder_coordinate,
                            polarization_limit_check)
from .oscillator import (EnergyLevel, charge_density, eigenstate, evolve_schrodinger,
                         hamiltonian_apply, husimi, husimi_levels, laplacian_consistency,
                         spectrum, winding_charges)
from .orbifold import (ConeGeometry, branched_cover, cone_metric, cover_inverse,
                       levi_civita_transport, loop_from_spec)

__version__ = "0.1.0"
