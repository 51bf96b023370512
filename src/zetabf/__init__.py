"""Twisted Ruelle zeta functions, combinatorial torsion and BV gauge fixing.

The package plays three independently computed quantities against each other
at desk scale: dynamical zeta values from periodic-orbit sums, analytic
torsion of twisted cochain complexes, and BF partition functions in metric
and contraction gauges.
"""

from .bv import (
    BFField,
    BFFieldSpace,
    Contraction,
    GaugeSubspace,
    build_bf_fields,
    contraction_gauge,
    gauge_polarization,
    hodge_contraction,
    homotopy_scan,
    is_lagrangian,
    metric_gauge,
    partition_function,
    random_contraction,
    suspension_contraction,
    unitary_contraction_family,
)
from .complexes import (
    CellComplex,
    TwistedComplex,
    UnitaryRep,
    analytic_torsion,
    build_twisted_complex,
    character_rep,
    circle_complex,
    det_relations_report,
    mapping_torus_complex,
    random_twisted_complex,
    read_complex_file,
    schwarz_partition,
    torsion_routes,
    torus_complex,
    write_complex_file,
)
from .graded import (
    FlatDetResult,
    flat_det,
)
from .observables import (
    DarbouxChart,
    PolyObservable,
    antibracket,
    bv_laplacian,
    gaussian_expectation,
)
from .orbits import (
    OrbitData,
    OrbitRecord,
    ToralAutomorphism,
    count_fixed_points,
    enumerate_primitive_orbits,
    load_orbit_spectrum,
    poincare_data,
    suspension_orbits,
    write_orbit_spectrum,
)
from .zeta import (
    BumpSpec,
    ZetaEvaluation,
    closed_form_suspension,
    cycle_zeta,
    decomposition_residual,
    flat_trace_pairing,
    fried_residual,
    log_zeta_full,
    log_zeta_k,
    mellin_log_zeta,
)

__version__ = "0.1.0"
