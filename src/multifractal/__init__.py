"""Multifractal analysis of self-similar measures under the open set condition.

Four layers: the weighted-system data model, spectrum machinery (tau, alpha,
f, f_bar), symbolic estimators and Moran constructions, and a rigorous 1D
ball-measure engine. A CLI front end is installed as `multifractal`.
"""

from .errors import (
    ArityError,
    BracketError,
    BudgetError,
    ConsistencyError,
    DomainError,
    EmptyAlphabetError,
    EmptyWordError,
    FormatError,
    IoError,
    MultifractalError,
    NeedLargerN,
    NoGeometryError,
    OverlapError,
    PrefixTooShort,
    RangeError,
    SizeCapError,
    UsageError,
    WeightSumError,
    WindowRangeError,
)
from .geometry1d import (
    DoublingRow,
    DoublingScan,
    MeasureBounds,
    WitnessPair,
    appended_gap_radius,
    assouad_scan,
    ball_measure,
    coding_of,
    cylinder_interval,
    doubling_scan,
    fixed_point,
    non_doubling_witness,
)
from .spectrum import (
    SpectrumRow,
    alpha_of_q,
    f_bar,
    f_of_alpha,
    legendre_numeric,
    q_of_alpha,
    solve_tau,
    spectrum_table,
    tilted_vector,
)
from .symbolic import (
    AbundanceReport,
    AssouadEstimate,
    BlockAlphabet,
    MoranSpec,
    TypeClassCount,
    TypeRow,
    abundance_report,
    assouad_estimate,
    block_alphabet,
    gamma_n_alpha,
    greedy_word,
    local_dim_prefixes,
    moran_construct,
    moran_dimension,
    subshift_dimension,
    type_class_log_count,
    window_sups,
)
from .system import (
    WeightedSystem,
    Word,
    WordStats,
    alpha_bounds,
    load_system,
    word_stats,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
