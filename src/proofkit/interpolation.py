"""Craig-interpolant extraction from cut-free derivations.

The extractor walks a derivation bottom-up with an antecedent split
G ; P => D of the end-sequent, choosing for every rule application the
premise splits given in the corresponding interpolation lemma:

  - axioms: the constant/atom table (top when the witness sits on the P
    side, bot when bot sits on the G side, the shared atom otherwise);
  - the Lp-> shape G, p?, p? -> X => S <- G, p?, X => S, recognised under
    any rule and metavariable names: the two mixed cases produce beta & p
    and p -> beta;
  - right semi-analytic rules: the conjunction of the premise interpolants;
  - modal rules (K and D shapes): no case here, so UnsupportedRule;
  - left semi-analytic rules with the principal on the P side: again the
    conjunction; with the principal on the G side the chi-premises are
    interpolated with the split swapped and the result is
    (/\\ betas) -> (\\/ alphas).

Connective folds drop top/bot units.  Certificate derivations are found by
the prover rather than assembled by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .core import (Formula, FMultiset, Sequent, SplitAnt, Top, Bot, atoms,
                   fconj, fconj_all, fdisj_all, fimp, imp)
from .calculus import (Calculus, RuleSchema, Side, axiom_instance, builtin,
                       subst_pattern)
from .classify import classify_rule, MODAL_D, MODAL_K, RIGHT
from .prover import (Derivation, ProverCache, check_derivation, prove,
                     shared_cache, witness)


class NotAnAxiom(Exception):
    pass


class NotProvable(Exception):
    pass


class UnsupportedRule(Exception):
    pass


@dataclass
class InterpolationProblem:
    calculus: Calculus
    derivation: Derivation
    partition: SplitAnt

    def __post_init__(self):
        if self.partition.underlying() != self.derivation.conclusion:
            raise ValueError("partition does not cover the end-sequent")


@dataclass
class InterpolantCertificate:
    alpha: Formula
    left_derivation: Derivation      # proves  G => alpha
    right_derivation: Derivation     # proves  P, alpha => D


def axiom_interpolant(calc: Calculus, split: SplitAnt) -> Formula:
    """Interpolant for a partitioned axiom instance."""
    s = split.underlying()
    ax = axiom_instance(calc, s)
    if ax is None:
        raise NotAnAxiom(repr(s))
    return _axiom_table(split, ax.rule, ax.assignment)


def _axiom_table(split: SplitAnt, axiom: RuleSchema, asg) -> Formula:
    """The interpolant of the split conclusion of axiom under asg."""
    gamma, pi, delta = split.gamma, split.pi, split.delta
    if Bot in pi:
        return Top
    shared_pi = [f for f in pi.support() if f.kind == core.ATOM and f in delta]
    if shared_pi:
        return Top
    if Bot in gamma:
        return Bot
    shared_gamma = [f for f in gamma.support() if f.kind == core.ATOM and f in delta]
    if shared_gamma:
        return min(shared_gamma, key=Formula.sort_key)
    if Top in delta:
        return Top
    # generic focused axiom: the witness formulas share one variable set, so
    # the conjunction of those landing on the G side is in the common language
    ms = axiom.conclusion
    witnesses = (subst_pattern(p, asg) for p in ms.ant.pats + ms.suc.pats)
    return fconj_all(f for f in witnesses if f in gamma)


def _split_of(node: Derivation, gamma: FMultiset) -> SplitAnt:
    return SplitAnt(gamma, node.conclusion.ant.difference(gamma),
                    node.conclusion.suc)


def _lp_imp_vars(rule: RuleSchema):
    """(atom, formula) metavariable names when rule has the Lp-> shape
    G, p?, p? -> X => S <- G, p?, X => S, else None."""
    conc = rule.conclusion
    if len(rule.premises) != 1 or len(conc.ant.pats) != 2 or conc.ant.boxed:
        return None
    prem = rule.premises[0]
    for a, i in (conc.ant.pats, conc.ant.pats[::-1]):
        if (a.kind == core.AMETA and i.kind == core.IMP and i.a == a
                and i.b.kind == core.FMETA and prem.suc.same_items(conc.suc)
                and prem.ant.same_items(Side((a, i.b), conc.ant.ctx))):
            return a.a, i.b.a
    return None


class _Extractor:
    """One extraction; it reads the shape of only the rules the derivation
    uses, each once."""

    def __init__(self, calc: Calculus):
        self.calc = calc
        self.shapes = {}     # rule name -> (rule, Lp-> variables, classification)

    def _shape(self, name):
        shape = self.shapes.get(name)
        if shape is None:
            rule = self.calc.rule(name)
            lp = _lp_imp_vars(rule)
            kind = None if lp else classify_rule(rule, self.calc.mode)
            shape = self.shapes[name] = (rule, lp, kind)
        return shape

    def run(self, node: Derivation, gamma: FMultiset) -> Formula:
        if node.is_leaf:
            split = _split_of(node, gamma)
            if node.assignment is None:       # e.g. loaded from a .drv file
                return axiom_interpolant(self.calc, split)
            # the checked leaf already names its axiom and its witness
            axiom = next(a for a in self.calc.axioms if a.name == node.rule)
            return _axiom_table(split, axiom, node.assignment)
        rule, lp, kind = self._shape(node.rule)
        asg = node.assignment
        if asg is None:                       # e.g. loaded from a .drv file
            asg = witness(rule, node)
        if lp:
            return self._lp_imp(node, asg, gamma, *lp)
        if not kind:
            raise UnsupportedRule(f"cannot interpolate across rule {rule.name!r}")
        if kind.kind in (MODAL_K, MODAL_D):
            raise UnsupportedRule(f"no Craig interpolation case for the modal "
                                  f"rule {rule.name!r} ({kind.kind})")
        if kind.kind == RIGHT:
            # premise antecedents extend the context on the P side only
            return fconj_all(self.run(child, gamma) for child in node.children)
        if len(rule.conclusion.ant.pats) != 1:
            raise UnsupportedRule(f"{rule.name} has no single left principal")
        principal = subst_pattern(rule.conclusion.ant.pats[0], asg)
        if principal in node.conclusion.ant.difference(gamma):
            # part 1: everything the rule introduces stays on the P side
            return fconj_all(self.run(child, gamma) for child in node.children)
        if principal in gamma:
            return self._left_part2(rule, node, asg, gamma, principal)
        raise UnsupportedRule(f"principal of {rule.name} not found in the end-sequent")

    # -- helpers -------------------------------------------------------------

    def _left_part2(self, rule, node, asg, gamma, principal):
        """Principal on the G side: rule formulas join G, chi-premises are
        interpolated with the split swapped, and the combinator is
        (/\\ betas) -> (\\/ alphas)."""
        gamma_rest = gamma.remove(principal)
        pi_part = node.conclusion.ant.difference(gamma)
        alphas, betas = [], []
        for prem_ms, child in zip(rule.premises, node.children):
            if prem_ms.suc.pats:          # a chi-premise
                betas.append(self.run(child, pi_part))
            else:
                extra = [subst_pattern(p, asg) for p in prem_ms.ant.pats]
                alphas.append(self.run(child, gamma_rest.union(extra)))
        return fimp(fconj_all(betas), fdisj_all(alphas))

    def _lp_imp(self, node, asg, gamma, atom_var, formula_var):
        """The two nontrivial Lp-> cases give beta & p and p -> beta."""
        patom, phi = asg[atom_var], asg[formula_var]
        prin = imp(patom, phi)
        pi = node.conclusion.ant.difference(gamma)
        child = node.children[0]
        imp_on_pi = prin in pi
        p_on_pi = patom in (pi.remove(prin) if imp_on_pi else pi)
        if imp_on_pi:
            beta = self.run(child, gamma)
            if p_on_pi:
                return beta                       # both on the P side
            return fconj(beta, patom)             # p in G, p->phi in P
        beta = self.run(child, gamma.remove(prin).add(phi))
        if p_on_pi:
            return fimp(patom, beta)             # p in P, p->phi in G
        return beta                               # both on the G side


def craig_interpolate(problem: InterpolationProblem,
                      cache: ProverCache | None = None) -> InterpolantCertificate:
    """Extract an interpolant and prover-found certificate derivations.

    The input derivation is checked first (`check_derivation`); the check
    marks its nodes, so the other partitions of the same derivation do not
    walk it again.  Its leaves are then read as checked: a leaf with a
    stored assignment takes its interpolant from its own axiom and
    assignment, one without from `axiom_interpolant`; an inner node without
    one under `prover.witness`."""
    calc = problem.calculus
    cache = cache or shared_cache(calc)
    defects = check_derivation(calc, problem.derivation)
    if defects:
        raise ValueError(f"input derivation is invalid: {defects[:3]}")
    alpha = _Extractor(calc).run(problem.derivation, problem.partition.gamma)
    split = problem.partition
    left = Sequent(split.gamma, FMultiset([alpha]))
    right = Sequent(split.pi.add(alpha), split.delta)
    lr = prove(calc, left, cache=cache)
    rr = prove(calc, right, cache=cache)
    if not lr.provable or not rr.provable:
        raise NotProvable(f"certificate sequents not derivable: {left!r} / {right!r}")
    return InterpolantCertificate(alpha, lr.derivation, rr.derivation)


def verify_certificate(calc: Calculus, cert: InterpolantCertificate,
                       split: SplitAnt):
    """Re-check both certificate derivations and the common-language bound;
    returns a defect list, empty when the certificate is good."""
    defects = []
    want_left = Sequent(split.gamma, FMultiset([cert.alpha]))
    want_right = Sequent(split.pi.add(cert.alpha), split.delta)
    if cert.left_derivation.conclusion != want_left:
        defects.append(f"left derivation proves {cert.left_derivation.conclusion!r}, "
                       f"wanted {want_left!r}")
    if cert.right_derivation.conclusion != want_right:
        defects.append(f"right derivation proves {cert.right_derivation.conclusion!r}, "
                       f"wanted {want_right!r}")
    for side, d in (("left", cert.left_derivation), ("right", cert.right_derivation)):
        for path, msg in check_derivation(calc, d):
            defects.append(f"{side} derivation node {path}: {msg}")
    allowed = atoms(split.gamma) & (atoms(split.pi) | atoms(split.delta))
    extra = atoms(cert.alpha) - allowed
    if extra:
        defects.append(f"interpolant uses atoms outside the common language: {sorted(extra)}")
    return defects


def formula_interpolant(logic: str, f: Formula,
                        cache: ProverCache | None = None) -> Formula:
    """Interpolant for a provable implication a -> b.

    IPC: prove (a => b) in G4ip and extract with the split (a ; => b).
    CPC: eliminate the atoms private to b with the classical universal
    quantifier (substitute both constants), which lands in the common
    language by construction.
    """
    from .prover import decide
    if f.kind != core.IMP:
        raise ValueError(f"need an implication, got {f!r}")
    a, b = f.a, f.b
    logic = logic.upper()
    if logic == "IPC":
        calc = builtin("G4ip")
        cache = cache or shared_cache(calc)
        r = prove(calc, Sequent(FMultiset([a]), FMultiset([b])), cache=cache)
        if not r.provable:
            raise NotProvable(repr(f))
        problem = InterpolationProblem(calc, r.derivation,
                                       SplitAnt(FMultiset([a]), FMultiset(), FMultiset([b])))
        return craig_interpolate(problem, cache).alpha
    if logic == "CPC":
        if not decide("CPC", f):
            raise NotProvable(repr(f))
        from .uniform import classical_forall
        alpha = b
        for p in sorted(atoms(b) - atoms(a)):
            alpha = classical_forall(alpha, p)
        return alpha
    raise ValueError(f"formula_interpolant supports CPC and IPC, not {logic!r}")
