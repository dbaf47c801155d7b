"""Exact tools for cell association in linear interference networks.

Users sit on a line and hear their own base station plus the previous
one.  An association assigns each user a set of at most nc serving base
stations.  The package evaluates what a given association is worth (sum
degrees of freedom in the downlink under zero-forcing, in the uplink
under successive decode-and-forward), produces machine-checkable
witnesses for every claim, constructs reference schemes, computes
converse certificates, and searches small instances exhaustively.

All rates are exact rationals (fractions.Fraction); no floating point is
used anywhere in the evaluation path.
"""

from ._kernels import backend_name
from .bounds import (
    BoundCertificate,
    counting_bound,
    lemma2_chain_bound,
    ncone_bound,
    reconstruction_bound,
    verify_certificate,
)
from .downlink_zf import (
    DlEvaluation,
    ZfWitness,
    max_downlink_dof,
    strip_silent,
    verify_witness,
    zf_feasible,
    zf_feasible_majority,
)
from .errors import (
    BudgetExceededError,
    CellAssocError,
    EmptyCellError,
    GenericityWarning,
    InternalCheckError,
    SizeLimitError,
    ValidationError,
)
from .model import (
    DEFAULT_PRIME,
    DEFAULT_SEEDS,
    CellAssociation,
    ChannelRealization,
    association,
    average_per_user,
    connected_bs,
    draw_channels,
    frac_from_str,
    frac_to_str,
    validate_association,
)
from .schemes import SchemePlan, avg_optimal, downlink_optimal, pair_association
from .search import (
    PeriodicPattern,
    SearchResult,
    compare_with_theorem,
    count_associations,
    enumerate_associations,
    exhaustive_search,
    periodic_eval,
    soundness_sweep,
    tau,
    tau_downlink,
)
from .uplink_decode import (
    DecodingOrder,
    UlEvaluation,
    max_uplink_dof,
    uplink_feasible,
    verify_order,
)

__version__ = "1.0.0"

__all__ = [
    "BoundCertificate",
    "BudgetExceededError",
    "CellAssocError",
    "CellAssociation",
    "ChannelRealization",
    "DEFAULT_PRIME",
    "DEFAULT_SEEDS",
    "DecodingOrder",
    "DlEvaluation",
    "EmptyCellError",
    "GenericityWarning",
    "InternalCheckError",
    "PeriodicPattern",
    "SchemePlan",
    "SearchResult",
    "SizeLimitError",
    "UlEvaluation",
    "ValidationError",
    "ZfWitness",
    "association",
    "average_per_user",
    "avg_optimal",
    "backend_name",
    "compare_with_theorem",
    "connected_bs",
    "count_associations",
    "counting_bound",
    "downlink_optimal",
    "draw_channels",
    "enumerate_associations",
    "exhaustive_search",
    "frac_from_str",
    "frac_to_str",
    "lemma2_chain_bound",
    "max_downlink_dof",
    "max_uplink_dof",
    "ncone_bound",
    "pair_association",
    "periodic_eval",
    "reconstruction_bound",
    "soundness_sweep",
    "strip_silent",
    "tau",
    "tau_downlink",
    "uplink_feasible",
    "validate_association",
    "verify_certificate",
    "verify_order",
    "verify_witness",
    "zf_feasible",
    "zf_feasible_majority",
]
