import pytest

from proofkit.core import (FMultiset, Sequent, SplitAnt, Top, Bot, atom,
                           atoms, conj, disj, imp)
from proofkit.calculus import _SOURCES, builtin, from_document
from proofkit.prover import Derivation, ProverCache, prove, decide
from proofkit.interpolation import (InterpolationProblem, InterpolantCertificate,
                                    NotAnAxiom, NotProvable, UnsupportedRule,
                                    axiom_interpolant, craig_interpolate,
                                    formula_interpolant, verify_certificate)
from proofkit.proofio import emit_derivation, load_derivation
from proofkit.syntax import parse_calculus, parse_formula as pf, parse_sequent as ps
from proofkit import corpus, interpolation, prover

p, q, r = atom("p"), atom("q"), atom("r")


def split(gamma, pi, delta):
    return SplitAnt(FMultiset(gamma), FMultiset(pi), FMultiset(delta))


def interpolate(calc, s, gamma, cache=None):
    res = prove(calc, s, cache=cache)
    assert res.provable, s
    sp = SplitAnt(FMultiset(gamma), s.ant.difference(FMultiset(gamma)), s.suc)
    cert = craig_interpolate(InterpolationProblem(calc, res.derivation, sp), cache)
    assert verify_certificate(calc, cert, sp) == []
    return cert.alpha


class TestAxiomInterpolant:
    def test_lemma_table(self, g4ip):
        assert axiom_interpolant(g4ip, split([p], [], [p])) is p
        assert axiom_interpolant(g4ip, split([], [p], [p])) is Top
        assert axiom_interpolant(g4ip, split([Bot], [], [])) is Bot
        assert axiom_interpolant(g4ip, split([], [Bot], [q])) is Top

    def test_context_does_not_matter(self, g4ip):
        assert axiom_interpolant(g4ip, split([q, p], [r], [p])) is p
        assert axiom_interpolant(g4ip, split([q], [p, r], [p])) is Top

    def test_top_axiom(self, g4ip):
        assert axiom_interpolant(g4ip, split([q], [], [Top])) is Top

    def test_not_an_axiom(self, g4ip):
        with pytest.raises(NotAnAxiom):
            axiom_interpolant(g4ip, split([q], [], [r]))


class TestCraig:
    def test_basic(self, g4ip, caches):
        alpha = interpolate(g4ip, ps("p & q => q | r"), [pf("p & q")],
                            caches(g4ip))
        assert atoms(alpha) <= {"q"}

    def test_empty_gamma_gives_top_like(self, g4ip, caches):
        alpha = interpolate(g4ip, ps("p & q => q | r"), [], caches(g4ip))
        assert atoms(alpha) == set()

    def test_l_imp_imp_gamma_case(self, g4ip, caches):
        # end sequent (p -> q) -> r, q => r with the nested implication on G
        s = ps("(p -> q) -> r, q => r")
        alpha = interpolate(g4ip, s, [pf("(p -> q) -> r")], caches(g4ip))
        assert atoms(alpha) <= {"q", "r"}

    def test_conjunction_combinator(self, g4ip, caches):
        # derivation ending in R&: interpolant is the children's conjunction
        cache = caches(g4ip)
        res = prove(g4ip, ps("p, q => p & q"), cache=cache)
        assert res.derivation.rule == "R&"
        sp = split([p, q], [], [pf("p & q")])
        cert = craig_interpolate(InterpolationProblem(g4ip, res.derivation, sp),
                                 cache)
        assert cert.alpha == conj(p, q)

    def test_deterministic(self, g4ip, caches):
        cache = caches(g4ip)
        res = prove(g4ip, ps("p, p -> q => q"), cache=cache)
        sp = SplitAnt(FMultiset([p]), FMultiset([pf("p -> q")]), FMultiset([q]))
        a1 = craig_interpolate(InterpolationProblem(g4ip, res.derivation, sp), cache)
        a2 = craig_interpolate(InterpolationProblem(g4ip, res.derivation, sp), cache)
        assert a1.alpha == a2.alpha

    def test_lp_imp_mixed_cases(self, g4ip, caches):
        cache = caches(g4ip)
        # p on G, p->q on P: interpolant shaped beta & p
        a = interpolate(g4ip, ps("p, p -> q => q"), [p], cache)
        assert "p" in atoms(a)
        # p on P, p->q on G: interpolant shaped p -> beta
        b = interpolate(g4ip, ps("p, p -> q => q"), [pf("p -> q")], cache)
        assert b.kind == "imp" and b.a is p

    @pytest.mark.parametrize("old,new", [
        ("rule Lp-> :", "rule Latom-> :"),
        ("Lp-> : G, p?, p? -> A => D <- G, p?, A => D",
         "Lp-> : G, q?, q? -> B => D <- G, q?, B => D"),
    ])
    def test_lp_imp_shape_under_any_names(self, g4ip, caches, old, new):
        text = _SOURCES["g4ip"]
        assert old in text
        twin = from_document(parse_calculus(text.replace(old, new)))
        s = ps("p, p -> q => q")
        for gamma in ([], [p], [pf("p -> q")], [p, pf("p -> q")]):
            assert interpolate(twin, s, gamma, ProverCache(twin)) == \
                interpolate(g4ip, s, gamma, caches(g4ip)), gamma

    def test_unsupported_rule(self, caches):
        g4ll = builtin("G4LL")
        res = prove(g4ll, ps("Op, O(p -> q) => Oq"))
        assert res.provable
        sp = SplitAnt(FMultiset([pf("Op")]), FMultiset([pf("O(p -> q)")]),
                      FMultiset([pf("Oq")]))
        with pytest.raises(UnsupportedRule):
            craig_interpolate(InterpolationProblem(g4ll, res.derivation, sp))

    @pytest.mark.parametrize("gamma", ["[]p", "[](p -> false)"])
    def test_modal_rule_fails_loudly(self, gamma):
        g4ikd = builtin("G4iKD")
        res = prove(g4ikd, ps("[]p, [](p -> false) =>"), cache=ProverCache(g4ikd))
        assert res.derivation.rule == "D[]"
        s = res.derivation.conclusion
        sp = SplitAnt(FMultiset([pf(gamma)]), s.ant.difference(FMultiset([pf(gamma)])),
                      s.suc)
        problem = InterpolationProblem(g4ikd, res.derivation, sp)
        with pytest.raises(UnsupportedRule, match=r"'D\[\]' \(ModalSemiAnalytic_D\)"):
            craig_interpolate(problem, ProverCache(g4ikd))

    def test_partition_mismatch_rejected(self, g4ip, caches):
        res = prove(g4ip, ps("p => p"), cache=caches(g4ip))
        with pytest.raises(ValueError):
            InterpolationProblem(g4ip, res.derivation,
                                 split([q], [], [p]))

    def test_corpus_sweep(self, g4ip, caches):
        cache = caches(g4ip)
        checked = 0
        for s in corpus.sequents(("p", "q"), 5, single=True):
            res = prove(g4ip, s, cache=cache)
            if not res.provable:
                continue
            for gamma in _gammas(s.ant):
                sp = SplitAnt(gamma, s.ant.difference(gamma), s.suc)
                cert = craig_interpolate(
                    InterpolationProblem(g4ip, res.derivation, sp), cache)
                assert verify_certificate(g4ip, cert, sp) == [], (s, gamma)
                checked += 1
        assert checked > 500


def _gammas(ant):
    groups = [(f, ant.count(f)) for f in ant.support()]

    def rec(i):
        if i == len(groups):
            yield ()
            return
        f, n = groups[i]
        for rest in rec(i + 1):
            for k in range(n + 1):
                yield (f,) * k + rest

    for items in rec(0):
        yield FMultiset(items)


def strip_leaves(d):
    """d rebuilt with every leaf's assignment dropped, as a loaded leaf has
    none."""
    if d.is_leaf:
        return Derivation(d.conclusion, d.rule)
    return Derivation(d.conclusion, d.rule, d.assignment,
                      [strip_leaves(c) for c in d.children])


class TestCheckedLeaves:
    def test_leaf_read_matches_axiom_lookup(self, g4ip, caches, monkeypatch):
        # a leaf with a stored assignment is read off its own axiom; one
        # without goes through axiom_interpolant and its axiom_instance
        cache = caches(g4ip)
        lookups = []
        real = interpolation.axiom_instance

        def counted(calc, s):
            lookups.append(s)
            return real(calc, s)

        monkeypatch.setattr(interpolation, "axiom_instance", counted)
        checked = 0
        for s in corpus.sequents(("p", "q"), 5, single=True):
            res = prove(g4ip, s, cache=cache)
            if not res.provable:
                continue
            stripped = strip_leaves(res.derivation)
            for gamma in _gammas(s.ant):
                sp = SplitAnt(gamma, s.ant.difference(gamma), s.suc)
                del lookups[:]
                read = craig_interpolate(InterpolationProblem(g4ip, res.derivation, sp),
                                         cache).alpha
                assert lookups == []
                looked_up = craig_interpolate(InterpolationProblem(g4ip, stripped, sp),
                                              cache).alpha
                assert lookups, (s, gamma)
                assert read == looked_up, (s, gamma)
                checked += 1
        assert checked > 500

    def test_input_derivation_checked_once(self, g4ip, monkeypatch):
        cache = ProverCache(g4ip)
        s = ps("p & q, p -> r, q -> r => r & (p | q)")
        d = prove(g4ip, s, cache=cache).derivation
        nodes = {id(n) for n in d.nodes()}
        seen = []
        real = prover._instance_ok

        def counted(rule, node):
            if id(node) in nodes:
                seen.append(id(node))
            return real(rule, node)

        monkeypatch.setattr(prover, "_instance_ok", counted)
        for gamma in _gammas(s.ant):
            sp = SplitAnt(gamma, s.ant.difference(gamma), s.suc)
            cert = craig_interpolate(InterpolationProblem(g4ip, d, sp), cache)
            assert verify_certificate(g4ip, cert, sp) == []
        assert sorted(seen) == sorted(nodes)


class TestLoadedDerivations:
    """A derivation read back from its .drv text stores no assignment; the
    extractor reads each inner node under the witness the checker derives."""

    def test_loaded_copy_gives_the_same_interpolants(self, g4ip, caches):
        cache = caches(g4ip)
        checked = 0
        for s in corpus.sequents(("p", "q"), 5, single=True):
            res = prove(g4ip, s, cache=cache)
            if not res.provable:
                continue
            loaded = load_derivation(emit_derivation(res.derivation))
            for node, copy in zip(res.derivation.nodes(), loaded.nodes()):
                if not node.is_leaf:
                    assert prover.witness(g4ip.rule(node.rule), copy) == node.assignment, s
            for gamma in _gammas(s.ant):
                sp = SplitAnt(gamma, s.ant.difference(gamma), s.suc)
                want = craig_interpolate(InterpolationProblem(g4ip, res.derivation, sp),
                                         cache).alpha
                cert = craig_interpolate(InterpolationProblem(g4ip, loaded, sp), cache)
                assert cert.alpha == want, (s, gamma)
                assert verify_certificate(g4ip, cert, sp) == [], (s, gamma)
                checked += 1
        assert checked > 500


class TestVerifyCertificate:
    def test_corrupted_alpha(self, g4ip, caches):
        cache = caches(g4ip)
        res = prove(g4ip, ps("p & q => q | r"), cache=cache)
        sp = split([pf("p & q")], [], [pf("q | r")])
        cert = craig_interpolate(InterpolationProblem(g4ip, res.derivation, sp),
                                 cache)
        foreign = InterpolantCertificate(pf("s1"), cert.left_derivation,
                                         cert.right_derivation)
        defects = verify_certificate(g4ip, foreign, sp)
        assert any("common language" in d for d in defects)

    def test_swapped_derivations(self, g4ip, caches):
        cache = caches(g4ip)
        res = prove(g4ip, ps("p & q => q | r"), cache=cache)
        sp = split([pf("p & q")], [], [pf("q | r")])
        cert = craig_interpolate(InterpolationProblem(g4ip, res.derivation, sp),
                                 cache)
        swapped = InterpolantCertificate(cert.alpha, cert.right_derivation,
                                         cert.left_derivation)
        assert verify_certificate(g4ip, swapped, sp)


class TestFormulaInterpolant:
    def test_ipc_example(self, caches):
        alpha = formula_interpolant("IPC", pf("(p & q) -> (q | r)"))
        assert atoms(alpha) <= {"q"}
        assert decide("IPC", imp(pf("p & q"), alpha))
        assert decide("IPC", imp(alpha, pf("q | r")))

    def test_cpc_inconsistent_antecedent(self):
        alpha = formula_interpolant("CPC", pf("(p & ~p) -> q"))
        assert atoms(alpha) == set()
        assert not decide("CPC", alpha)   # equivalent to bottom

    def test_identity(self):
        alpha = formula_interpolant("IPC", pf("p -> p"))
        assert atoms(alpha) <= {"p"}

    def test_unprovable_raises(self):
        with pytest.raises(NotProvable):
            formula_interpolant("IPC", pf("p -> q"))

    def test_cpc_common_language(self):
        alpha = formula_interpolant("CPC", pf("(p & q) -> (q | r)"))
        assert atoms(alpha) <= {"q"}
        assert decide("CPC", imp(pf("p & q"), alpha))
        assert decide("CPC", imp(alpha, pf("q | r")))
