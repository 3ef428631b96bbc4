"""hochkit: exact Hochschild structure computations for finite-dimensional
algebras over cyclotomic fields.

The layers, bottom up:

* scalars   - exact arithmetic in Q and Q(zeta_n)
* linalg    - sparse rank / rref / nullspace / solving / cokernels over Q(zeta_n)
* algebra   - unital associative algebras with optional Frobenius data
* modules   - representations, bimodule kernels, convolution, Ext
* hochschild- bar complexes, HH_* and HH^* dims, cup and cap products
* mukai     - traces, the pairing on HH_0, Chern characters, and the
              identity verifiers (Riemann-Roch, Cardy, adjointness,
              functoriality, Morita invariance)
* tqft      - the closed-surface evaluator over group algebras
* cli       - the `hochkit` command
"""

from .algebra import (
    Algebra, SerreData, center_basis, commutator_subspace,
    enveloping, field_algebra, group_algebra, matrix_algebra, opposite,
    regular_trace, tensor, truncated_poly, validate,
)
from .hochschild import (
    ChainComplex, Chain, Cochain, HHResult, bar_chain_complex,
    bar_cochain_complex, cap_product, cup_product, hh_cohomology_dims,
    hh_homology_dims,
)
from .linalg import (
    SparseMatrix, cokernel_projector, kron, nullspace, rank, rref, solve,
)
from .modules import (
    Bimodule, HomBasis, ModuleRep, apply_kernel, convolve, dual_kernel,
    ext_dims, hom_space, outer_kernel, regular_bimodule, regular_module,
    simples_of,
)
from .mukai import (
    CheckReport, MukaiClass, adjoint_transfer,
    adjointness_check, cardy_check, chern, chern_additivity_check,
    cohomology_transport, functoriality_check, generalized_trace,
    hochschild_trace, hrr_check, iota_solve, morita_isometry_check,
    morita_kernel, mukai_pairing, pushforward, serre_trace,
    todd, todd_hrr_check, trace_triangle_check,
)
from .scalars import CycScalar, cyc, format_scalar, parse_scalar, zeta
from .tqft import CobordismWord, SurfaceInvariant, evaluate, orbit_count, parse_word

__all__ = [name for name in dir() if not name.startswith("_")]
