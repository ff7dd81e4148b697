"""proofkit: a sequent-calculus workbench.

Calculi are data (rule schemas with metavariables), proof search is
backward chaining over rule-instance matching, and the interpolation
extractors produce certificates the prover re-checks.
"""

from .core import (Formula, FMultiset, Sequent, SplitAnt, RestInterp,
                   Top, Bot, atom, conj, disj, imp, neg, box,
                   circle, atoms, degree, weight, subformulas, polarity_atoms,
                   apply_subst, interpret, multiset_less, sequent_less,
                   sequent)
from .syntax import (ParseError, SourceSpan, parse_formula, parse_sequent,
                     parse_calculus, render, render_formula, render_sequent)
from .calculus import (Calculus, MetaSequent, RuleSchema, RuleInstance,
                       UnknownCalculus, builtin, builtin_names, from_document,
                       match_conclusion, axiom_instance, is_instance_finite)
from .classify import (classify_rule, classify_calculus, is_focused_axiom,
                       check_terminating)
from .prover import (Derivation, SearchBudget, ProofSearchResult, ProverCache,
                     prove, prove_with_cut, decide, check_derivation,
                     min_depth, invert, split_disjunction, admissibility_probe,
                     shared_cache)
from .interpolation import (InterpolationProblem, InterpolantCertificate,
                            axiom_interpolant, craig_interpolate,
                            verify_certificate, formula_interpolant)
from .uniform import (UniformInterpolant, classical_uniform, ipc_uniform,
                      verify_uniform, p_partitions, fold_constants)
from .hilbert import HilbertProof, Step, check_hilbert, deduction_theorem, contraposition
from .nd import (Assume, Inf, check_nd, find_detours, reduce_detour,
                 normalize, last_rule_kind, open_assumptions, is_proof)

__version__ = "0.1.0"
