"""Invertibility as rule data: the `!` premise marks, the probe that checks
every mark of every builtin, the search that stops at a refuted invertible
premise, and the G4 family's LT-> rule for `true -> A` on the left."""

from dataclasses import replace

import pytest

from proofkit import corpus
from proofkit.calculus import _SOURCES, builtin, builtin_names, from_document, match_conclusion
from proofkit.core import FMultiset, Sequent, Top, apply_subst
from proofkit.prover import ProverCache, decide, prove
from proofkit.syntax import ParseError, parse_calculus, parse_formula as pf, \
    parse_sequent as ps


def twin(name, old="", new=""):
    """The builtin's DSL text, renamed and with old replaced by new."""
    text = _SOURCES[name.lower()].replace(f"calculus {name}\n", "calculus Twin\n")
    assert old in text
    return from_document(parse_calculus(text.replace(old, new)))


def unmarked(calc):
    """calc with every invertibility mark dropped: a search that never
    prunes, so its answers do not rest on the marks under test."""
    return replace(calc, rules=[replace(r, invertible=frozenset()) for r in calc.rules])


def with_true(sequents, atom="q"):
    """Each sequent, then its image under atom := true."""
    for s in sequents:
        yield s
        yield Sequent(FMultiset(apply_subst({atom: Top}, f) for f in s.ant),
                      FMultiset(apply_subst({atom: Top}, f) for f in s.suc))


def invertibility_violations(calc, sequents):
    """(rule, conclusion, premise) for every marked premise of an instance
    whose conclusion is provable but the premise is not; provability is
    decided without the marks."""
    plain = unmarked(calc)
    cache = ProverCache(plain)
    out = []
    for s in sequents:
        insts = [i for i in match_conclusion(calc, s) if i.rule.invertible]
        if not insts or not prove(plain, s, cache=cache).provable:
            continue
        for inst in insts:
            for i in sorted(inst.rule.invertible):
                if not prove(plain, inst.premises[i], cache=cache).provable:
                    out.append((inst.rule.name, s, inst.premises[i]))
    return out


# builtin -> (corpus weight, modal operator in the corpus)
PROBE_CORPORA = {
    "G1cp": (3, None), "G1ip": (3, None),
    "G3cp": (5, None), "G3ip": (5, None), "G4ip": (6, None),
    "G4iK": (5, "box"), "G4iKD": (5, "box"), "G4LL": (5, "circle"),
}


class TestMarks:
    def test_marks_are_per_premise(self):
        g3ip, g4ip = builtin("G3ip"), builtin("G4ip")
        assert g3ip.rule("L->").invertible == {1}
        assert g4ip.rule("L->->").invertible == {1}
        assert g4ip.rule("L|").invertible == {0, 1}
        assert not g4ip.rule("R|0").invertible and not g4ip.rule("R|1").invertible
        assert all(r.invertible == set(range(len(r.premises))) for r in builtin("G3cp").rules)
        assert not any(r.invertible for r in builtin("G1cp").rules + builtin("G1ip").rules)

    def test_modal_and_lax_marks(self):
        g4ikd, g4ll = builtin("G4iKD"), builtin("G4LL")
        assert g4ikd.rule("L[]->").invertible == {1}
        assert not g4ikd.rule("R[]").invertible and not g4ikd.rule("D[]").invertible
        assert {n: g4ll.rule(n).invertible for n in ("RO", "LO", "RO->", "LO->")} == \
            {"RO": set(), "LO": {0}, "RO->": {1}, "LO->": {1}}

    def test_marks_take_part_in_equality(self):
        assert twin("G4ip") == builtin("G4ip")
        assert twin("G4ip", "<- G => A\n", "<- G => A !\n") != builtin("G4ip")

    def test_mark_is_not_a_formula(self):
        with pytest.raises(ParseError):
            parse_calculus("calculus X\naxiom Ax : G, p? => p? !")
        with pytest.raises(ParseError):
            parse_calculus("calculus X\nrule R : G => A ! <- G => A")


class TestProbe:
    @pytest.mark.parametrize("name", builtin_names())
    def test_every_mark_holds(self, name):
        calc = builtin(name)
        weight, modal = PROBE_CORPORA[name]
        sequents = corpus.sequents(("p", "q"), weight, calc.mode == "single", modal)
        assert invertibility_violations(calc, with_true(sequents)) == []

    def test_probe_catches_a_wrong_mark(self):
        wrong = twin("G4ip", "rule R|0 : G => A | B <- G => A\n",
                     "rule R|0 : G => A | B <- G => A !\n")
        bad = invertibility_violations(wrong, corpus.sequents(("p", "q"), 4, single=True))
        assert bad and {rule for rule, _, _ in bad} == {"R|0"}
        assert ("R|0", ps("q => p | q"), ps("q => p")) in bad


class TestPruning:
    @pytest.mark.parametrize("name, weight, modal", [
        ("G3cp", 5, None), ("G4ip", 6, None), ("G4iK", 5, "box"), ("G4LL", 5, "circle"),
    ])
    def test_same_answers_as_without_marks(self, name, weight, modal):
        calc = builtin(name)
        plain = unmarked(calc)
        cache, plain_cache = ProverCache(calc), ProverCache(plain)
        for s in with_true(corpus.sequents(("p", "q"), weight, calc.mode == "single", modal)):
            got, want = prove(calc, s, cache=cache), prove(plain, s, cache=plain_cache)
            assert (got.status, got.exhaustive, got.derivation) == \
                (want.status, want.exhaustive, want.derivation), s

    def test_refuted_invertible_premise_stops_the_search(self):
        # R-> comes first; its premise (p | q) -> r, p => q is refuted, so
        # L|-> is never tried
        g4ip = builtin("G4ip")
        s = ps("(p | q) -> r => p -> q")
        got = prove(g4ip, s)
        want = prove(unmarked(g4ip), s)
        assert got.status == want.status == "unprovable" and got.exhaustive
        assert got.stats.nodes < want.stats.nodes


class TestTrueAntecedent:
    @pytest.mark.parametrize("logic", ["IPC", "IK", "LL"])
    def test_constant_true_examples(self, logic):
        for text in ("~~true", "(true -> p) -> p", "(true -> p) -> true -> p"):
            assert decide(logic, pf(text)), (logic, text)
        assert not decide(logic, pf("(true -> p) -> q"))

    def test_g4_family_agrees_with_g3ip_on_true_instances(self):
        g3ip = builtin("G3ip")
        g4 = [builtin(n) for n in ("G4ip", "G4iK", "G4LL")]
        caches = {c.name: ProverCache(c) for c in [g3ip] + g4}
        bad = []
        for phi in corpus.formulas(("p", "q"), 7):
            s = Sequent(FMultiset(), FMultiset([apply_subst({"q": Top}, phi)]))
            want = prove(g3ip, s, cache=caches["G3ip"]).provable
            for calc in g4:
                if prove(calc, s, cache=caches[calc.name]).provable != want:
                    bad.append((calc.name, s))
        assert bad == []
