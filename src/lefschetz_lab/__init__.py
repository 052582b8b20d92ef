"""Exact decision procedures for the weak Lefschetz property of Artinian
monomial quotients of K[x,y,z], through triangular regions, signed lozenge
tilings, and integer determinants.

Everything in the public API is pure and immutable after construction; the
package is safe for concurrent use and parallel sweeps over ideals, degrees,
and primes.
"""

from .errors import (
    ExactnessError,
    HypothesisError,
    InternalCheckError,
    NotArtinianError,
    NotTypeTwoError,
    ParseError,
)
from .ideals import (
    HilbertFunction,
    Monomial,
    MonomialIdeal,
    Permutation,
    SocleProfile,
    hilbert_function,
    monomials_of_degree,
    parse_ideal,
    socle_profile,
    standard_monomials,
)
from .intlinalg import (
    IntMatrix,
    biadjacency,
    binom,
    determinant,
    determinantal_divisor,
    factorize,
    lattice_path_matrix,
    lattice_points,
    matching_counts,
    permanent,
    rank_mod_p,
    rank_q,
    smith_invariant_factors,
)
from .regions import (
    Balance,
    Puncture,
    TriangularRegion,
    balance,
    build_region,
    maximal_minors,
    merge_touching_punctures,
    monomial_subregion,
    puncture_analysis,
    region_determinant,
    restricted_maximal_minors,
    split_portions,
)
from .tilings import (
    EnumerationReport,
    HallViolator,
    PathFamily,
    Tiling,
    enumerate_tilings,
    first_tiling,
    is_tileable,
    lpsgn,
    msgn,
    signed_enumeration,
    tiling_from_path_family,
    to_path_family,
)
from .formulas import (
    SplitBinomParams,
    ci_enumeration,
    ci_nest_enumeration,
    hyperfactorial,
    macmahon,
    split_binom_det,
    two_mahonian_enumeration,
    type_one_odd_minor,
    type_one_odd_minor_simplified,
)
from .wlp import (
    DegreeReport,
    PosCharBound,
    Type2Form,
    TypeOneVerdict,
    WlpReport,
    analyze_wlp,
    bad_primes,
    classify_type2,
    conjecture_scan,
    peak_shortcut,
    type2_char0_verdict,
    type2_condition_range,
    type2_poschar_bound,
    type_one_verdict,
    wlp_full_scan,
)

__version__ = "0.1.0"
