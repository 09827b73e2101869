"""Exact homological algebra over artinian local rings with m^3 = 0.

The package represents graded local rings k + V1 + V2 over a prime field
by structure constants, computes minimal free resolutions, Ext modules,
duals and Matlis duals exactly, verifies finite windows of complexes of
free modules together with their dualized homology, splices doubly
infinite acyclic windows out of modules with vanishing Ext, checks the
structure theorems governing such windows on concrete instances, and
classifies the rank recursion a_i = e*a_{i+1} - r*a_{i+2}.

Quick start::

    from radcube import build_from_quadrics, k_presentation, resolve

    ring = build_from_quadrics(5, ["x", "y", "z"], ["x^2", "x*y", "y^2", "z^2"])
    betti, diffs = resolve(ring, k_presentation(ring), 6, "k")

See demos/ for narrative walkthroughs and the `radcube` CLI for the file
formats and theorem checks.
"""

from .complexes import (
    ChainWindow,
    CokernelsReport,
    CokernelSummary,
    ConstructionResult,
    HomologyReport,
    WindowReport,
    cokernels,
    construct_from_module,
    direct_sum_windows,
    homology_of_dual,
    periodic_window,
    verify_window,
)
from .errors import ConstructionRefused, InputError, ParseError, RadcubeError
from .fileio import parse_module, parse_ring, parse_window, render_module, render_window
from .linalg import Mat, PrimeField, RrefResult, nullspace_basis, rank, rref, solve
from .modules import (
    BettiTable,
    KModule,
    RModuleMap,
    coker_realize,
    cyclic_presentation,
    dual_map,
    ext_dims,
    ext_from_diffs,
    free_kmodule,
    has_k_summand,
    k_presentation,
    k_summand_multiplicity,
    matlis_dual,
    minimal_presentation,
    minimalize,
    prune_zero_columns,
    resolve,
    star,
    syzygy_step,
)
from .recursion import (
    ClassifyVerdict,
    PrefixReport,
    RecursionInstance,
    classify,
    search_sequences,
    verify_prefix,
)
from .rings import RingElement, RingInvariants, RingPresentation, build_from_quadrics
from .theorems import (
    CheckOutcome,
    ExceptionalityReport,
    LemmaChecksReport,
    ObservationReport,
    SeriesTruncation,
    TheoremAVerdict,
    TheoremBVerdict,
    TheoremCVerdict,
    check_observation,
    check_theorem_A,
    check_theorem_C,
    classify_theorem_B,
    exceptionality,
    expand_rational_series,
    lemma_checks,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
