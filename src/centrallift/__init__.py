"""Toolkit for lifting automorphisms of central quotients of finitely
presented groups, with an exhaustive oracle and a metacyclic showcase."""

from .words import FreeWord, parse_word, format_word
from .presentation import (
    CentralSubgroupSpec,
    Presentation,
    QuotientAutSpec,
    parse_presentation,
    parse_presentation_file,
    parse_quotient_aut,
)
from .engines import PermutationEngine, todd_coxeter
from .lifting import (
    Endomorphism,
    LiftContext,
    LiftProblem,
    LiftReport,
    solve_aut_lifts,
    solve_hom_lifts,
    squarefree_existence,
)
from .metacyclic import CaseStudyConfig, run_case_study

__version__ = "0.1.0"

__all__ = [
    "FreeWord",
    "parse_word",
    "format_word",
    "Presentation",
    "CentralSubgroupSpec",
    "QuotientAutSpec",
    "parse_presentation",
    "parse_presentation_file",
    "parse_quotient_aut",
    "PermutationEngine",
    "todd_coxeter",
    "Endomorphism",
    "LiftContext",
    "LiftProblem",
    "LiftReport",
    "solve_hom_lifts",
    "solve_aut_lifts",
    "squarefree_existence",
    "CaseStudyConfig",
    "run_case_study",
    "__version__",
]
