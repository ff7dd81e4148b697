import pytest

from proofkit.core import FMultiset, Sequent, box, atom, sequent_less
from proofkit.calculus import MetaSequent, builtin, from_document
from proofkit.classify import (classify_rule, classify_calculus,
                               is_focused_axiom, check_terminating,
                               RIGHT, LEFT, LEFT_CS, MODAL_K, MODAL_D, NOT)
from proofkit.syntax import parse_calculus, parse_metasequent, parse_sequent as ps


def ms(text):
    return MetaSequent(*parse_metasequent(text))


# every classification sentence about G3ip/G4ip rules, as stated
G3IP_TABLE = {
    "L&": LEFT, "R&": RIGHT, "L|": LEFT, "R|0": RIGHT, "R|1": RIGHT,
    "R->": RIGHT, "L->": LEFT_CS,
}
G4IP_TABLE = {
    "L&": LEFT, "R&": RIGHT, "L|": LEFT, "R|0": RIGHT, "R|1": RIGHT,
    "R->": RIGHT, "Lp->": NOT, "LT->": LEFT, "L&->": LEFT, "L|->": LEFT,
    "L->->": LEFT_CS,
}


class TestClassifier:
    def test_g3ip_table(self, g3ip):
        got = {name: kind.kind for name, kind in classify_calculus(g3ip)}
        assert got == G3IP_TABLE

    def test_g4ip_table(self, g4ip):
        got = {name: kind.kind for name, kind in classify_calculus(g4ip)}
        assert got == G4IP_TABLE

    def test_not_semi_analytic_carries_reason(self, g4ip):
        kind = classify_rule(g4ip.rule("Lp->"), "single")
        assert kind.kind == NOT and kind.reason

    def test_modal_k(self):
        g4ik = builtin("G4iK")
        assert classify_rule(g4ik.rule("R[]"), "single").kind == MODAL_K
        assert classify_rule(g4ik.rule("L[]->"), "single").kind == NOT

    def test_modal_d(self):
        g4ikd = builtin("G4iKD")
        assert classify_rule(g4ikd.rule("D[]"), "single").kind == MODAL_D

    def test_lax_rules(self):
        g4ll = builtin("G4LL")
        kinds = dict(classify_calculus(g4ll))
        assert kinds["RO"].kind == RIGHT
        assert kinds["RO->"].kind == LEFT_CS
        assert kinds["LO"].kind == NOT
        assert kinds["LO->"].kind == NOT

    def test_g3cp_multi(self, g3cp):
        kinds = {name: k.kind for name, k in classify_calculus(g3cp)}
        assert kinds["R&"] == RIGHT and kinds["L->"] == LEFT_CS

    def test_variable_condition(self):
        doc = parse_calculus("calculus X\nrule Bad : G, A => D <- G, B => D")
        rule = from_document(doc).rules[0]
        assert classify_rule(rule, "single").kind == NOT


class TestFocusedAxioms:
    def test_identity(self):
        assert is_focused_axiom(ms("A => A"), "single")

    def test_left_constant(self):
        assert is_focused_axiom(ms("G, false => D"), "single")

    def test_two_succedent_patterns_single_mode(self):
        assert not is_focused_axiom(ms("G => A, B, D"), "single")

    def test_classical_at(self):
        assert is_focused_axiom(ms("G, p? => p?, D"), "multi")
        assert not is_focused_axiom(ms("G, p? => p?, D"), "single")

    def test_shared_variable_condition(self):
        assert is_focused_axiom(ms("A, A => "), "single")
        assert not is_focused_axiom(ms("A, B => "), "single")

    def test_builtin_axioms_focused(self):
        for name in ("G3ip", "G4ip", "G4LL", "G4iK", "G4iKD"):
            calc = builtin(name)
            for axiom in calc.axioms:
                assert is_focused_axiom(axiom.conclusion, calc.mode), (name, axiom)
        g3cp = builtin("G3cp")
        for axiom in g3cp.axioms:
            assert is_focused_axiom(axiom.conclusion, "multi"), axiom


class TestTerminating:
    def test_g4ip_weight_passes(self, g4ip):
        report = check_terminating(g4ip, "weight")
        assert report.terminating, report.render()

    def test_g4ll_weight_passes(self):
        report = check_terminating(builtin("G4LL"), "weight")
        assert report.terminating, report.render()

    def test_g3cp_degree_passes(self, g3cp):
        report = check_terminating(g3cp, "degree")
        assert report.terminating, report.render()

    def test_modal_calculi_pass(self):
        for name in ("G4iK", "G4iKD"):
            report = check_terminating(builtin(name), "weight")
            assert report.terminating, report.render()

    def test_g3ip_fails_both_orders_with_witness(self, g3ip):
        for measure in ("degree", "weight"):
            report = check_terminating(g3ip, measure)
            assert not report.well_ordered
            name, prem, conc = report.witness
            assert name == "L->"
            # the violating premise repeats the principal implication
            assert any(f.kind == "imp" for f in prem.ant)
            assert not sequent_less(prem, conc, measure)

    def test_g4ip_fails_degree(self, g4ip):
        report = check_terminating(g4ip, "degree")
        assert not report.well_ordered

    def test_instance_finiteness_recorded(self):
        calc = from_document(parse_calculus(
            "calculus W\nrule Odd : G => A <- G => B"))
        report = check_terminating(calc, "weight")
        assert not report.instance_finite

    def test_subsequent_and_box_clauses(self):
        # proper subsequents and unboxed variants sit below in both orders
        cases = [(ps("p => q"), ps("p, r => q")),
                 (ps("=>"), ps("p =>")),
                 (ps("p, q => r"), Sequent(FMultiset([atom("p"), box(atom("q"))]),
                                           FMultiset([box(atom("r"))])))]
        for small, big in cases:
            for measure in ("degree", "weight"):
                assert sequent_less(small, big, measure)
