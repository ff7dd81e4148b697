"""Syntactic classification of rule schemas and the terminating-calculus check.

A left semi-analytic rule has one compound principal formula on the left of
its conclusion, context variables otherwise, and premises built from one
context variable plus formula patterns whose metavariables all occur in the
principal; symmetrically on the right.  The modal shapes cover the usual K
and D rules, allowing a plain context variable in the conclusion that
absorbs weakening.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import core
from .core import EMPTY, FMultiset, box, metavars, multiset_less
from .calculus import Calculus, MetaSequent, RuleSchema, instantiate, is_instance_finite
from .corpus import formulas

RIGHT = "RightSemiAnalytic"
LEFT = "LeftSemiAnalytic"
LEFT_CS = "LeftSemiAnalyticContextSharing"
MODAL_K = "ModalSemiAnalytic_K"
MODAL_D = "ModalSemiAnalytic_D"
NOT = "NotSemiAnalytic"


@dataclass(frozen=True)
class Classification:
    kind: str
    reason: str = ""

    def __bool__(self):
        return self.kind != NOT

    def __repr__(self):
        if self.kind == NOT and self.reason:
            return f"{self.kind}({self.reason})"
        return self.kind


def _is_boximage(pat, inner):
    return pat.kind == core.BOX and pat == box(inner)


def _classify_modal(rule: RuleSchema):
    """Match the K shape (G => A / [P,] []G => []A [, D]) or the D shape
    (G, phis => / [P,] []G, []phis => [D])."""
    conc = rule.conclusion
    if conc.ant.boxed is None or conc.suc.boxed is not None or len(rule.premises) != 1:
        return None
    prem = rule.premises[0]
    if prem.ant.boxed is not None or prem.ant.ctx != conc.ant.boxed:
        return None
    if prem.suc.ctx is not None or prem.suc.boxed is not None:
        return None
    c_pats, s_pats = conc.ant.pats, conc.suc.pats
    p_pats, ps_pats = prem.ant.pats, prem.suc.pats
    # K: premise G => A, conclusion ... []G ... => []A
    if len(ps_pats) == 1 and not p_pats:
        if len(s_pats) == 1 and _is_boximage(s_pats[0], ps_pats[0]) and not c_pats:
            return Classification(MODAL_K)
        return None
    # D: premise G, phis => , conclusion ... []G, []phis => D
    if not ps_pats:
        if len(c_pats) == len(p_pats) and not s_pats:
            boxed = sorted(box(p)._key for p in p_pats)
            have = sorted(p._key for p in c_pats)
            if boxed == have:
                return Classification(MODAL_D)
        return None
    return None


def classify_rule(rule: RuleSchema, mode="single") -> Classification:
    """Classify a rule schema per the semi-analytic shapes."""
    modal = _classify_modal(rule)
    if modal is not None:
        return modal
    for ms in (rule.conclusion, *rule.premises):
        if ms.ant.boxed is not None or ms.suc.boxed is not None:
            return Classification(NOT, "boxed context outside the K/D shapes")

    conc = rule.conclusion
    if len(conc.ant.pats) + len(conc.suc.pats) != 1:
        return Classification(NOT, "conclusion must have exactly one principal formula")
    right = bool(conc.suc.pats)
    principal = (conc.suc if right else conc.ant).pats[0]
    pvars = metavars(principal)

    if right and conc.suc.ctx is not None and mode == "single":
        return Classification(NOT, "succedent context beside a right principal")

    # every premise context is the conclusion's, so a left rule shares its
    # context when it has both a delta-premise and a chi-premise
    delta = chi = False
    for prem in rule.premises:
        if prem.ant.ctx is None or prem.ant.ctx != conc.ant.ctx:
            return Classification(NOT, f"premise {prem!r} lacks a single conclusion context")
        for p in prem.ant.pats:
            if not metavars(p) <= pvars:
                return Classification(
                    NOT, f"premise formula {p!r} uses variables outside the principal")
        s_pats, s_ctx = prem.suc.pats, prem.suc.ctx
        if s_ctx not in (None, conc.suc.ctx):
            return Classification(NOT, "premise succedent context differs from conclusion")
        if len(s_pats) > 1:
            return Classification(NOT, "premise succedent has several formulas")
        if s_pats and not metavars(s_pats[0]) <= pvars:
            return Classification(
                NOT, f"premise succedent {s_pats[0]!r} uses variables outside the principal")
        if right:
            if not s_pats:
                return Classification(NOT, "right rule premises need one succedent formula")
            continue
        if s_pats and s_ctx is not None and mode == "single":
            return Classification(NOT, "premise mixes succedent formula and context")
        if s_pats:
            chi = True
        else:
            delta = True

    if right:
        return Classification(RIGHT)
    if conc.suc.ctx is not None and not delta:
        return Classification(NOT, "no premise carries the conclusion succedent")
    return Classification(LEFT_CS if chi and delta else LEFT)


def classify_calculus(calc: Calculus):
    return [(r.name, classify_rule(r, calc.mode)) for r in calc.rules]


# ---------------------------------------------------------------------------
# focused axioms

def is_focused_axiom(ms: MetaSequent, mode="single") -> bool:
    """The five focused shapes: phi => phi / => phi / phis => /
    G, phis => D / G => phi, with all formula patterns sharing one variable
    set; in single-conclusion mode the succedent holds at most one item."""
    if ms.ant.boxed is not None or ms.suc.boxed is not None:
        return False
    if mode == "single" and len(ms.suc) > 1:
        return False
    pats = ms.ant.pats + ms.suc.pats
    if not pats:
        return False
    vs = metavars(pats[0])
    return all(metavars(p) == vs for p in pats[1:])


# ---------------------------------------------------------------------------
# terminating-calculus check

@dataclass
class TerminationReport:
    calculus: str
    measure: str
    instance_finite: bool
    instance_offenders: list
    well_ordered: bool
    witness: tuple | None        # (rule name, premise, conclusion)

    @property
    def terminating(self):
        return self.instance_finite and self.well_ordered

    def render(self):
        lines = [f"calculus {self.calculus} under {self.measure}:",
                 f"  instance-finite: {'pass' if self.instance_finite else 'fail'}"]
        for name, missing in self.instance_offenders:
            lines.append(f"    rule {name}: fresh premise variables {missing}")
        lines.append(f"  well-ordered: {'pass' if self.well_ordered else 'fail'}")
        if self.witness:
            name, prem, conc = self.witness
            lines.append(f"    witness: rule {name}, premise {prem!r} "
                         f"not below conclusion {conc!r}")
        lines.append(f"  terminating: {'pass' if self.terminating else 'fail'}")
        return "\n".join(lines)


# metavariables of a rule range over the formulas over p, q up to this weight
_POOL_WEIGHT = 3


def check_terminating(calc: Calculus, measure=None) -> TerminationReport:
    """Check the terminating-calculus conditions for calc (a calculus is
    finite data, so finiteness needs no check).

    Well-ordering is tested by instance search: metavariables range over a
    small formula pool, shared multiset variables cancel, a premise-side
    context variable that the conclusion boxes is probed with singleton and
    empty bindings.  The subsequent and box clauses of the well-order hold
    for both Dershowitz-Manna orders by construction and are exercised in
    the test suite.
    """
    measure = measure or calc.termination_measure or "weight"
    inst_ok, offenders = is_instance_finite(calc)
    pool = list(formulas(("p", "q"), _POOL_WEIGHT))
    atoms_pool = [f for f in pool if f.kind == core.ATOM]

    witness = None
    for rule in calc.rules:
        sides = [side for ms in (rule.conclusion, *rule.premises)
                 for side in (ms.ant, ms.suc)]
        fvars = sorted({v for side in sides for p in side.pats for v in metavars(p)})
        # variables bound to atoms keep Lp->-style side conditions honest
        avars = [v for v in fvars if v.islower()]
        cvars = [v for v in fvars if not v.islower()]
        boxed_ctx = sorted({side.boxed for side in sides if side.boxed is not None})
        # shared unboxed contexts cancel between premise and conclusion:
        # bound to the empty multiset unless a boxed probe binds them
        plain_ctx = dict.fromkeys((side.ctx for side in sides if side.ctx is not None), EMPTY)
        for combo in product(*([atoms_pool] * len(avars) + [pool] * len(cvars))):
            asg = dict(zip(avars + cvars, combo))
            for ctx_binding in _context_probes(boxed_ctx, atoms_pool):
                full = {**plain_ctx, **asg, **ctx_binding}
                bad = _violating_premise(rule, full, measure)
                if bad is not None:
                    witness = (rule.name, bad[0], bad[1])
                    break
            if witness:
                break
        if witness:
            break

    return TerminationReport(calc.name, measure, inst_ok, offenders,
                             witness is None, witness)


def _context_probes(boxed_vars, atoms_pool):
    if not boxed_vars:
        yield {}
        return
    # empty binding and one singleton binding expose the box decrease
    options = [FMultiset(), FMultiset([atoms_pool[0]])]
    for combo in product(options, repeat=len(boxed_vars)):
        yield dict(zip(boxed_vars, combo))


def _violating_premise(rule: RuleSchema, asg, measure):
    try:
        conc = instantiate(rule.conclusion, asg)
        for prem in rule.premises:
            p = instantiate(prem, asg)
            if not multiset_less(p.ant.union(p.suc), conc.ant.union(conc.suc), measure):
                return (p, conc)
    except KeyError:
        pass
    return None
