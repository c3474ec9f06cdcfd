"""Generalized sampling and stable reconstruction in operator-orbit subspaces.

Subpackages by setting: ``hilbert`` for the ambient finite-dimensional
model, ``cyclic`` for finite orbit periods, ``spectral`` for the
shift-invariant desk model with filter banks, ``laurent`` for exact
polynomial arithmetic, ``lca`` for finite abelian group representations,
``duals`` for the dual family and frame constants the three models share,
and ``cli`` for the batch front end.
"""

from .hilbert import (
    CrossCorrelation,
    LinearOperator,
    cross_correlation,
)
from .cyclic import (
    CyclicSubspaceSpec,
    ReconstructionBasis,
    SampleMatrix,
    SamplingScheme,
    StructuredLeftInverse,
    build_sample_matrix,
    check_rank,
    filter_bank_coefficients,
    reconstruct,
    reconstruction_vectors,
    structurize_left_inverse,
    take_samples,
)
from .laurent import (
    DiscreteBSpline,
    LaurentPoly,
    bezout,
    bspline,
    eval_torus,
    polyphase_sample,
    positivity_certificate,
)
from .spectral import (
    DualField,
    FilterBank,
    FiniteSequence,
    SpectralField,
    analysis,
    bspline_filter_bank,
    build_spectral_field,
    dual_field,
    dual_field_from_sequences,
    frame_constants,
    perfect_reconstruction_check,
    polyphase,
    reconstruction_coefficients,
    synthesis,
)
from .lca import (
    DualGroup,
    FiniteAbelianGroup,
    GroupRepresentation,
    Subgroup,
    annihilator,
    build_group_G_matrix,
    group_duals,
    group_reconstruct,
    section_omega,
    take_group_samples,
)

__version__ = "0.1.0"
