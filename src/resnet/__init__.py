"""resnet: discrete potential theory on weighted graphs via finite truncations.

Effective resistance metrics computed several independent ways, Green's
functions by inversion and by absorbed-walk series, harmonic measure exact
and sampled, and the orthogonal split of finite-energy functions — all on
conductance graphs given explicitly or drawn from built-in families.
"""

from .graphs import (
    ConductanceGraph,
    GraphError,
    TruncatedGraph,
    ValidationReport,
    generate,
    load_graph,
    truncate,
    validate,
    with_frontier,
)
from .laplacian import (
    assemble_laplacian,
    defect_recursion_comb,
    harmonic_extension,
    transition_operator,
)
from .energy import (
    DipoleVector,
    EnergyVector,
    SolverError,
    delta,
    energy_inner,
    gauged,
    pointwise_product,
    solve_dipole,
    solve_dipoles,
)
from .resistance import (
    resistance,
    resistance_matrix,
)
from .greens import (
    binomial_closed_form,
    greens_gram,
    greens_inversion_check,
    walk_greens,
)
from .markov import (
    cylinder_probability,
    harmonic_measure_exact,
    poisson_reproduce,
    sample_paths,
)
from .decomposition import (
    energy_split,
    interpolate,
    project_finite,
    royden_split,
)

__version__ = "0.1.0"

__all__ = [
    "ConductanceGraph",
    "GraphError",
    "TruncatedGraph",
    "ValidationReport",
    "generate",
    "load_graph",
    "truncate",
    "validate",
    "with_frontier",
    "assemble_laplacian",
    "defect_recursion_comb",
    "harmonic_extension",
    "transition_operator",
    "DipoleVector",
    "EnergyVector",
    "SolverError",
    "delta",
    "energy_inner",
    "gauged",
    "pointwise_product",
    "solve_dipole",
    "solve_dipoles",
    "resistance",
    "resistance_matrix",
    "binomial_closed_form",
    "greens_gram",
    "greens_inversion_check",
    "walk_greens",
    "cylinder_probability",
    "harmonic_measure_exact",
    "poisson_reproduce",
    "sample_paths",
    "energy_split",
    "interpolate",
    "project_finite",
    "royden_split",
    "__version__",
]
