"""Transfer operators of piecewise expanding interval maps on atomic
function spaces over m-adic grids.

The package builds nested uniform grids on [0, 1), represents functions
by sparse atom expansions with level-weighted coefficient norms, realizes
the transfer operator of a configured map as a finite matrix on the atom
basis with a certified norm ledger, and derives spectral data: invariant
densities, peripheral spectrum, correlation decay and variances of
centered observables.
"""

from .atoms import (
    AtomicRep,
    BesovAtom,
    BesovParams,
    PiecewiseFn,
    besov_to_souza,
    canonical_rep,
    coefficient_norm,
    evaluate,
    multiplier_apply,
)
from .domains import RegularDecomp, StrongRegularityReport, decompose
from .dynamics import (
    Branch,
    BranchSystem,
    MapSpec,
    Potential,
    make_map,
    potential_regularity,
)
from .grid import AxiomReport, CellId, Grid, build_grid, validate_grid
from .spectral import (
    CLTReport,
    DecayReport,
    LYReport,
    SpectralReport,
    SupportReport,
    clt_variance,
    decay_rate,
    invariant_density,
    lasota_yorke_verify,
    peripheral_spectrum,
    support_structure,
    transitivity_check,
)
from .transfer import (
    BoundLedger,
    BoundReport,
    Constants,
    SlicedRep,
    TransferMatrix,
    apply_transfer,
    assemble_matrix,
    lebesgue_bound_check,
    slice_rep,
)

__version__ = "0.1.0"
