"""t-product algebra for third-order tensors with a verification lab for
operator, norm, and eigenvalue inequalities."""

from .core import (
    ComplexTensor3,
    RngStream,
    Tensor3,
    frobenius_norm,
    gen_commuting_psd_pair,
    gen_loewner_pair,
    gen_random,
    gen_symmetric,
    gen_t_psd,
    identity,
    inner_product,
    spectral_norm,
    transpose,
)
from .fourier import (
    BlockCirculantMatrix,
    FourierSlices,
    bcirc,
    dft_matrix,
    fold,
    from_fourier,
    fourier_frobenius_norm,
    to_fourier,
    unfold,
)
from .eigensolvers import HermitianEigen, general_eig, hermitian_eig
from .algebra import (
    LoewnerVerdict,
    PredicateVerdict,
    is_f_diagonal,
    is_normal,
    is_orthogonal,
    is_symmetric,
    is_t_psd,
    loewner_ge,
    t_inverse,
    t_product,
)
from .spectral import (
    TEigenSpectrum,
    gen_orthogonal,
    multiset_distance,
    t_abs,
    t_eigenvalues,
    t_power,
    young_witness,
)
from .certificates import (
    FROBENIUS,
    NO_NORM,
    SPECTRAL,
    InequalityCertificate,
    loewner_certificate,
    norm_certificate,
)
from .inequalities import (
    check_am_gm,
    check_complex_norm_bounds,
    check_furuta,
    check_hansen_power,
    check_heinz_family,
    check_holder,
    check_holder_corollary,
    check_holder_pairs,
    check_loewner_heinz,
    check_minkowski,
    check_young_commuting,
    check_young_witness,
    power_order_counterexample,
)
from .localization import (
    ComponentCount,
    GershgorinDisc,
    MatchingReport,
    bauer_fike,
    diag_spectrum_bound,
    gershgorin_component_count,
    gershgorin_contains,
    gershgorin_discs,
    gershgorin_gaps,
    hoffman_wielandt,
    schur_bound,
    sorted_pairing_distance,
)
from .campaigns import THEOREM_IDS, CampaignResult, run_campaign
from .errors import (
    ConjugateSymmetryError,
    EigenConvergenceError,
    HypothesisViolationError,
    NotSymmetricError,
    NotTPSDError,
    ShapeMismatchError,
    SingularTensorError,
    TtensorError,
    UnknownTheoremError,
)

__version__ = "0.1.0"
