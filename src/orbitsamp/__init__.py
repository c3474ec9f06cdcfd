"""Generalized sampling and stable reconstruction in operator-orbit subspaces.

Modules by setting: ``hilbert`` for the ambient finite-dimensional
model, ``cyclic`` for finite orbit periods, ``spectral`` for the
shift-invariant desk model with filter banks, ``laurent`` for exact
polynomial arithmetic, ``lca`` for finite abelian group representations,
``duals`` for the dual family and frame constants the three models share,
and ``cli`` for the batch front end.
"""

from .hilbert import LinearOperator
from .cyclic import (
    CyclicSubspaceSpec,
    SamplingScheme,
    build_sample_matrix,
    check_rank,
    filter_bank_coefficients,
    reconstruct,
    reconstruction_vectors,
    structurize_left_inverse,
    take_samples,
)
from .laurent import (
    LaurentPoly,
    bezout,
    bspline,
    eval_torus,
    polyphase_sample,
    positivity_certificate,
)
from .spectral import (
    FilterBank,
    FiniteSequence,
    analysis,
    bspline_filter_bank,
    build_spectral_field,
    dual_field,
    frame_constants,
    perfect_reconstruction_check,
    polyphase,
    reconstruction_coefficients,
    synthesis,
)
from .lca import (
    FiniteAbelianGroup,
    GroupRepresentation,
    Subgroup,
    build_group_G_matrix,
    group_duals,
    group_reconstruct,
    take_group_samples,
)

__version__ = "0.1.0"
