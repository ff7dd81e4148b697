import re

import pytest

from proofkit.core import atom, conj, imp
from proofkit.calculus import builtin
from proofkit.prover import prove, check_derivation
from proofkit.proofio import (FormatError, UnknownRuleName, emit_derivation,
                              load_derivation, emit_nd, load_nd, emit_hilbert,
                              load_hilbert)
from proofkit.nd import Assume, Inf
from proofkit.hilbert import HilbertProof
from proofkit.syntax import parse_sequent as ps, parse_formula as pf

p, q = atom("p"), atom("q")


class TestDerivations:
    def test_round_trips_over_prover_output(self, g3cp, g4ip, caches):
        for calc, text in ((g3cp, "=> p | ~p"),
                           (g4ip, "p & q => q | p"),
                           (g4ip, "=> ~~(p | ~p)")):
            r = prove(calc, ps(text), cache=caches(calc))
            out = emit_derivation(r.derivation, calc.name)
            again = load_derivation(out)
            assert again == r.derivation
            assert check_derivation(calc, again) == []

    def test_render_contains_rule_name(self, g4ip, caches):
        r = prove(g4ip, ps("=> p -> p"), cache=caches(g4ip))
        assert "R->" in emit_derivation(r.derivation)

    def test_unknown_rule_name(self, g4ip):
        text = "rule Zap :: => p\n  axiom At :: p => p\n"
        with pytest.raises(UnknownRuleName):
            load_derivation(text, calc=g4ip)

    def test_format_errors(self):
        with pytest.raises(FormatError):
            load_derivation("")
        with pytest.raises(FormatError):
            load_derivation("rule X => p\n")
        with pytest.raises(FormatError):
            load_derivation(" rule X :: => p\n")  # odd indent


class TestNd:
    def test_round_trip(self):
        d = Inf("I->", imp(p, p),
                (Inf("E&0", p, (Inf("I&", conj(p, p),
                                    (Assume(p, "a"), Assume(p, "a"))),)),),
                ("a",))
        assert load_nd(emit_nd(d, "ND")) == d

    def test_no_labels(self):
        d = Inf("I|0", pf("p | q"), (Assume(p, "x"),))
        assert load_nd(emit_nd(d)) == d

    def test_bad_input(self):
        with pytest.raises(FormatError):
            load_nd("nd I& p & q\n")
        with pytest.raises(FormatError):
            load_nd("assume p\n")


class TestHilbert:
    def test_round_trip(self):
        hp = HilbertProof([p])
        i0 = hp.add(p, "assumption", 0)
        i1 = hp.add(imp(p, imp(q, p)), "axiom", 1)
        hp.add(imp(q, p), "mp", i0, i1)
        system, again = load_hilbert(emit_hilbert(hp, "HJ"))
        assert system == "HJ"
        assert again.assumptions == hp.assumptions
        assert again.steps == hp.steps

    def test_dne_round_trip(self):
        hp = HilbertProof([])
        hp.add(pf("~~p -> p"), "dne")
        _, again = load_hilbert(emit_hilbert(hp))
        assert again.steps == hp.steps

    def test_bad_justification(self):
        with pytest.raises(FormatError):
            load_hilbert("1. p [zap]\n")
        with pytest.raises(FormatError):
            load_hilbert("1. p\n")


@pytest.mark.parametrize("load, line", [
    (load_hilbert, "1. p []"),
    (load_hilbert, "1. p [axiom]"),
    (load_hilbert, "1. p [mp 1]"),
    (load_hilbert, "1. p [assumption x]"),
    (load_hilbert, "1. p [mp a b]"),
    (load_nd, "nd :: p"),
])
def test_malformed_line_is_a_format_error(load, line):
    # a justification of the wrong arity or with a non-integer argument, or
    # an inference without a rule name, is rejected with the line named
    with pytest.raises(FormatError, match=re.escape(line)):
        load(line + "\n")
