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
from .core import FMultiset, Sequent, box, metavars, multiset_less
from .calculus import Calculus, MetaSequent, RuleSchema, is_instance_finite, subst_pattern

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


def _split_items(items):
    pats = [it[1] for it in items if it[0] == "pat"]
    mvs = [it[1] for it in items if it[0] == "mv"]
    bmvs = [it[1] for it in items if it[0] == "bmv"]
    return pats, mvs, bmvs


def _is_boximage(pat, inner):
    return pat.kind == core.BOX and pat == box(inner)


def _classify_modal(rule: RuleSchema):
    """Match the K shape (G => A / [P,] []G => []A [, D]) or the D shape
    (G, phis => / [P,] []G, []phis => [D])."""
    c_pats, c_mvs, c_bmvs = _split_items(rule.conclusion.ant)
    s_pats, s_mvs, s_bmvs = _split_items(rule.conclusion.suc)
    if len(c_bmvs) != 1 or s_bmvs or len(c_mvs) > 1 or len(s_mvs) > 1:
        return None
    if len(rule.premises) != 1:
        return None
    prem = rule.premises[0]
    p_pats, p_mvs, p_bmvs = _split_items(prem.ant)
    if p_bmvs or p_mvs != c_bmvs:
        return None
    ps_pats, ps_mvs, ps_bmvs = _split_items(prem.suc)
    if ps_mvs or ps_bmvs:
        return None
    # K: premise G => A, conclusion ... []G ... => []A
    if len(ps_pats) == 1 and not p_pats:
        if len(s_pats) == 1 and _is_boximage(s_pats[0], ps_pats[0]) and not c_pats:
            return Classification(MODAL_K)
        return None
    # D: premise G, phis => , conclusion ... []G, []phis => D
    if not ps_pats:
        if len(c_pats) == len(p_pats) and not s_pats:
            boxed = sorted((box(p).sort_key() for p in p_pats))
            have = sorted((p.sort_key() for p in c_pats))
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
        if any(it[0] == "bmv" for it in ms.items()):
            return Classification(NOT, "boxed context outside the K/D shapes")

    c_ant_pats, c_ant_mvs, _ = _split_items(rule.conclusion.ant)
    c_suc_pats, c_suc_mvs, _ = _split_items(rule.conclusion.suc)

    if len(c_ant_pats) + len(c_suc_pats) != 1:
        return Classification(NOT, "conclusion must have exactly one principal formula")
    right = bool(c_suc_pats)
    principal = c_suc_pats[0] if right else c_ant_pats[0]
    pvars = metavars(principal)
    ctx_vars = set(c_ant_mvs)
    suc_ctx = set(c_suc_mvs)

    if right:
        if suc_ctx and mode == "single":
            return Classification(NOT, "succedent context beside a right principal")
    else:
        if mode == "single" and len(c_suc_mvs) > 1:
            return Classification(NOT, "left rule succedent must be one context")

    delta_ctx, chi_ctx = [], []
    for prem in rule.premises:
        p_pats, p_mvs, _ = _split_items(prem.ant)
        if len(p_mvs) != 1 or p_mvs[0] not in ctx_vars:
            return Classification(NOT, f"premise {prem!r} lacks a single conclusion context")
        for p in p_pats:
            if not metavars(p) <= pvars:
                return Classification(
                    NOT, f"premise formula {p!r} uses variables outside the principal")
        s_pats, s_mvs, _ = _split_items(prem.suc)
        if not set(s_mvs) <= suc_ctx:
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
        if s_pats and s_mvs and mode == "single":
            return Classification(NOT, "premise mixes succedent formula and context")
        if s_pats:
            chi_ctx.append(p_mvs[0])
        else:
            delta_ctx.append(p_mvs[0])

    if right:
        return Classification(RIGHT)
    if suc_ctx and not delta_ctx:
        return Classification(NOT, "no premise carries the conclusion succedent")
    if chi_ctx and set(delta_ctx) == set(chi_ctx):
        return Classification(LEFT_CS)
    return Classification(LEFT)


def classify_calculus(calc: Calculus):
    return [(r.name, classify_rule(r, calc.mode)) for r in calc.rules]


# ---------------------------------------------------------------------------
# focused axioms

def is_focused_axiom(ms: MetaSequent, mode="single") -> bool:
    """The five focused shapes: phi => phi / => phi / phis => /
    G, phis => D / G => phi, with all formula patterns sharing one variable
    set; in single-conclusion mode the succedent holds at most one item."""
    a_pats, a_mvs, a_bmvs = _split_items(ms.ant)
    s_pats, s_mvs, s_bmvs = _split_items(ms.suc)
    if a_bmvs or s_bmvs:
        return False
    if mode == "single" and len(ms.suc) > 1:
        return False
    pats = a_pats + s_pats
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


def _assignment_pool(max_weight=4):
    """Small deterministic formula pool for instance search."""
    from .corpus import formulas
    return list(formulas(("p", "q"), max_weight))


def check_terminating(calc: Calculus, measure=None, pool_weight=3) -> TerminationReport:
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
    pool = _assignment_pool(pool_weight)
    atoms_pool = [f for f in pool if f.kind == core.ATOM]

    witness = None
    for rule in calc.rules:
        fvars = sorted({v for ms in (rule.conclusion, *rule.premises)
                        for it in ms.items() if it[0] == "pat"
                        for v in metavars(it[1])})
        # variables bound to atoms keep Lp->-style side conditions honest
        avars = [v for v in fvars if v.islower()]
        cvars = [v for v in fvars if not v.islower()]
        boxed_ctx = _boxed_context_vars(rule)
        for combo in product(*([atoms_pool] * len(avars) + [pool] * len(cvars))):
            asg = dict(zip(avars + cvars, combo))
            for ctx_binding in _context_probes(boxed_ctx, atoms_pool):
                full = dict(asg)
                full.update(ctx_binding)
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


def _boxed_context_vars(rule: RuleSchema):
    """Context variables that appear boxed somewhere in the rule."""
    out = set()
    for ms in (rule.conclusion, *rule.premises):
        for it in ms.items():
            if it[0] == "bmv":
                out.add(it[1])
    return sorted(out)


def _context_probes(boxed_vars, atoms_pool):
    if not boxed_vars:
        yield {}
        return
    # empty binding and one singleton binding expose the box decrease
    options = [FMultiset(), FMultiset([atoms_pool[0]])]
    for combo in product(options, repeat=len(boxed_vars)):
        yield dict(zip(boxed_vars, combo))


def _ground_side(items, asg):
    out = []
    for it in items:
        tag = it[0]
        if tag == "pat":
            out.append(subst_pattern(it[1], asg))
        elif tag == "mv":
            if it[1] in asg:
                out.extend(asg[it[1]])
            # shared unboxed context variables cancel between premise and
            # conclusion; leave them out on both sides
        else:
            binding = asg.get(it[1], FMultiset())
            out.extend(box(f) for f in binding)
    return out


def _violating_premise(rule: RuleSchema, asg, measure):
    try:
        conc = _ground_items(rule.conclusion, asg)
    except KeyError:
        return None
    for prem in rule.premises:
        try:
            p = _ground_items(prem, asg)
        except KeyError:
            return None
        if not multiset_less(p, conc, measure):
            ps = Sequent(FMultiset(_ground_side(prem.ant, asg)),
                         FMultiset(_ground_side(prem.suc, asg)))
            cs = Sequent(FMultiset(_ground_side(rule.conclusion.ant, asg)),
                         FMultiset(_ground_side(rule.conclusion.suc, asg)))
            return (ps, cs)
    return None


def _ground_items(ms: MetaSequent, asg) -> FMultiset:
    return FMultiset(_ground_side(ms.ant, asg) + _ground_side(ms.suc, asg))
