from dataclasses import replace

import pytest

from proofkit.core import (FMultiset, Sequent, Top, Bot, atom, atoms, conj,
                           disj, imp, neg, box, seq_multiply)
from proofkit.calculus import _SOURCES, builtin, builtin_names, from_document
from proofkit.prover import ProverCache, decide, prove, shared_cache
from proofkit.uniform import (NonPropositional, UniformInterpolant, UniformReport,
                              _sub_uniform, classical_uniform, ipc_uniform,
                              verify_uniform, p_partitions, ipc_forall, ipc_exists,
                              exists_via_forall, fold_constants, fresh_atom)
from proofkit.syntax import parse_calculus, parse_formula as pf, parse_sequent as ps
from proofkit import corpus, uniform

p, q = atom("p"), atom("q")


def cpc_equiv(a, b):
    return decide("CPC", imp(a, b)) and decide("CPC", imp(b, a))


def ipc_equiv(a, b):
    return decide("IPC", imp(a, b)) and decide("IPC", imp(b, a))


class TestClassical:
    def test_example_table(self):
        u = classical_uniform(ps("p => q"), "p")
        assert cpc_equiv(u.forall_part, q)
        assert cpc_equiv(u.exists_part, neg(q))
        u2 = classical_uniform(ps("q => p"), "p")
        assert cpc_equiv(u2.forall_part, neg(q))
        assert cpc_equiv(u2.exists_part, q)

    def test_provable_case(self):
        u = classical_uniform(ps("p => p"), "p")
        assert cpc_equiv(u.forall_part, Top)
        assert cpc_equiv(u.exists_part, Bot)

    def test_formula_target(self):
        u = classical_uniform(pf("p -> q"), "p")
        assert cpc_equiv(u.forall_part, q)

    def test_nonpropositional_rejected(self):
        with pytest.raises(NonPropositional):
            classical_uniform(box(p), "p")

    def test_verified_on_table(self, g3cp):
        for text in ("p => q", "q => p", "p => p"):
            u = classical_uniform(ps(text), "p")
            rep = verify_uniform(g3cp, u, psi_bound=6)
            assert rep.ok, rep.render()


class TestIpc:
    def test_antecedent_only_exists(self):
        u = ipc_uniform(ps("p =>"), "p")
        assert ipc_equiv(u.exists_part, Top)

    def test_forall_of_bare_atom(self):
        u = ipc_uniform(ps("=> p"), "p")
        assert ipc_equiv(u.forall_part, Bot)

    def test_provable_case_forces_top(self):
        u = ipc_uniform(ps("=> p -> p"), "p")
        assert ipc_equiv(u.forall_part, Top)

    def test_pitts_examples(self):
        assert ipc_equiv(ipc_forall(pf("p | q"), "p"), q)
        assert ipc_equiv(ipc_exists(pf("p -> q"), "p"), Top)
        u = ipc_uniform(ps("~~p, p -> r =>"), "p")
        assert ipc_equiv(u.exists_part, pf("~~r"))

    def test_parts_avoid_the_atom(self):
        for text in ("p & q => q | p", "p -> q => p", "=> (p -> q) -> q"):
            u = ipc_uniform(ps(text), "p")
            assert "p" not in atoms(u.forall_part)
            assert "p" not in atoms(u.exists_part)

    def test_multi_conclusion_rejected(self):
        with pytest.raises(ValueError):
            ipc_uniform(ps("=> p, q"), "p")

    def test_corpus_verified(self, g4ip):
        cache = shared_cache(g4ip)
        for s in corpus.sequents(("p", "q"), 4, single=True):
            u = ipc_uniform(s, "p", cache)
            rep = verify_uniform(g4ip, u, psi_bound=5, cache=cache)
            assert rep.ok, rep.render()

    def test_wrong_interpolant_is_flagged(self, g4ip):
        s = ps("=> p -> p")
        bogus = UniformInterpolant(s, "p", Bot, Bot)
        rep = verify_uniform(g4ip, bogus, psi_bound=4)
        assert not rep.ok


class TestPPartitions:
    def test_count_with_p(self):
        parts = p_partitions(ps("p, q => r"), "p")
        assert len(parts) == 4
        for s_r, _ in parts:
            assert "p" not in atoms(s_r)

    def test_p_everywhere(self):
        parts = p_partitions(ps("p => p"), "p")
        assert len(parts) == 1 and parts[0][0] == ps("=>")

    def test_p_free_splits(self):
        parts = p_partitions(ps("q => r"), "p")
        assert len(parts) == 4

    def test_extremes_present(self):
        s = ps("q => r")
        parts = p_partitions(s, "p")
        assert (ps("=>"), s) in parts
        assert (s, ps("=>")) in parts


class TestDerivedProperties:
    def test_exists_via_forall(self):
        for text in ("p & q", "p -> q", "p | q", "q -> p"):
            f = pf(text)
            direct = ipc_exists(f, "p")
            encoded = exists_via_forall(f, "p")
            assert ipc_equiv(direct, encoded), text

    def test_idempotence(self):
        for text in ("p | q", "p -> q", "(p -> q) -> p"):
            f = pf(text)
            once = ipc_forall(f, "p")
            twice = ipc_forall(once, "p")
            assert ipc_equiv(once, twice), text

    def test_uip_implies_cip(self, g4ip):
        # interpolant for a -> b via the universal quantifier over b's
        # private atoms
        cache = shared_cache(g4ip)
        a, b = pf("p & q"), pf("q | r")
        alpha = b
        for x in sorted(atoms(b) - atoms(a)):
            alpha = ipc_forall(alpha, x, cache)
        assert atoms(alpha) <= atoms(a) & atoms(b)
        assert decide("IPC", imp(a, alpha)) and decide("IPC", imp(alpha, b))

    def test_uip_implies_cip_corpus(self, g4ip):
        cache = shared_cache(g4ip)
        from proofkit.prover import prove
        from proofkit.core import FMultiset, Sequent
        checked = 0
        ants = list(corpus.formulas(("p", "q"), 4))
        sucs = list(corpus.formulas(("q", "r"), 4))
        for a in ants:
            for b in sucs:
                s = Sequent(FMultiset([a]), FMultiset([b]))
                if not prove(g4ip, s, cache=cache).provable:
                    continue
                alpha = b
                for x in sorted(atoms(b) - atoms(a)):
                    alpha = ipc_forall(alpha, x, cache)
                assert atoms(alpha) <= atoms(a) & atoms(b), (a, b, alpha)
                assert decide("IPC", imp(a, alpha)), (a, b, alpha)
                assert decide("IPC", imp(alpha, b)), (a, b, alpha)
                checked += 1
        assert checked > 100


class TestHelpers:
    def test_fold_constants(self):
        assert fold_constants(pf("true & p")) is p
        assert fold_constants(pf("p | false")) is p
        assert fold_constants(pf("true -> p")) is p
        assert fold_constants(pf("p -> true")) is Top
        assert fold_constants(pf("false -> p")) is Top
        assert fold_constants(pf("(true & p) | (q & false)")) is p

    def test_fresh_atom(self):
        assert fresh_atom({"p", "q"}) == "a"
        assert fresh_atom({"a"}) == "b"
        assert fresh_atom(set("abcdefghijklmnopqrstuvwxyz")) == "aa"


def reference_verify(calc, u, psi_bound, cache, memo):
    """verify_uniform with the minimality clauses run over the whole psi
    corpus, as before the corpus was reduced to class representatives.
    memo keeps each answer across calls (planted variants of one target
    ask the same sequents again)."""
    p = u.atom
    multi = calc.mode == "multi"
    report = UniformReport(u.target, p)

    def holds(ant, suc):
        key = (tuple(ant), tuple(suc))
        if key not in memo:
            memo[key] = prove(calc, Sequent(FMultiset(ant), FMultiset(suc)),
                              cache=cache).provable
        return memo[key]

    fa, ex = u.forall_part, u.exists_part
    psis = list(corpus.formulas(tuple(sorted(atoms(u.target) - {p})), psi_bound))
    if isinstance(u.target, Sequent):
        s = u.target
        sa, ss = list(s.ant), list(s.suc)
        if not holds(sa + [fa], ss):
            report.violations.append("(forall-l) fails")
        report.checked.append("forall-l")
        if not holds(sa, [ex] + ss if multi else [ex]):
            report.violations.append("(exists-r) fails")
        report.checked.append("exists-r")
        for psi in psis:
            if holds(sa + [psi], ss) and not holds([psi], [fa]):
                report.violations.append(f"(forall) minimality fails at {psi!r}")
                break
        report.checked.append("forall-minimal")
        for psi in psis:
            premise = holds(sa, [psi] + ss) if multi else holds(sa, [psi])
            if premise and not holds([ex], [psi]):
                report.violations.append(f"(exists) minimality fails at {psi!r}")
                break
        report.checked.append("exists-minimal")
        if holds(sa, ss):
            for s_r, s_i in p_partitions(s, p):
                ui = _sub_uniform(calc, s_i, p, cache)
                fa_i, ex_i = ui.forall_part, ui.exists_part
                if multi:
                    goal = seq_multiply(s_r, Sequent(FMultiset([ex_i]), FMultiset([fa_i])))
                    ok = holds(list(goal.ant), list(goal.suc))
                elif s.suc and not s_r.suc:
                    ok = holds(list(s_r.ant) + [ex_i], [fa_i])
                else:
                    ok = holds(list(s_r.ant) + [ex_i], list(s_r.suc))
                if not ok:
                    report.violations.append(f"(forall-exists) fails at split {s_r!r} . {s_i!r}")
                    break
            report.checked.append("forall-exists")
    else:
        f = u.target
        if not holds([fa], [f]):
            report.violations.append("(forall) lower bound fails")
        if not holds([f], [ex]):
            report.violations.append("(exists) upper bound fails")
        for psi in psis:
            if holds([psi], [f]) and not holds([psi], [fa]):
                report.violations.append(f"(forall) minimality fails at {psi!r}")
                break
            if holds([f], [psi]) and not holds([ex], [psi]):
                report.violations.append(f"(exists) minimality fails at {psi!r}")
                break
        report.checked.extend(["forall", "exists", "minimality"])
    return report


def planted(u):
    """u and wrong interpolants planted into it: true, false, q and ~q as
    either part (where q is in the target's language), and fa & c, ex | c
    for each such c."""
    allowed = atoms(u.target) - {u.atom}
    out = [u]
    for c in (Top, Bot, q, neg(q)):
        if atoms(c) <= allowed:
            out.append(replace(u, forall_part=c))
            out.append(replace(u, exists_part=c))
            out.append(replace(u, forall_part=conj(u.forall_part, c)))
            out.append(replace(u, exists_part=disj(u.exists_part, c)))
    return out


class TestRepresentativeParity:
    """The reduced psi corpus gives the reports of the whole corpus."""

    QUANTIFIERS = {"G4ip": lambda t: ipc_uniform(t, "p", None),
                   "G3cp": lambda t: classical_uniform(t, "p")}

    def parity(self, name, targets, quantify):
        calc = builtin(name)
        cache, memo = ProverCache(calc), {}
        minimality = 0
        for t in targets:
            for u in planted(quantify(t)):
                got = verify_uniform(calc, u, 6, cache)
                want = reference_verify(calc, u, 6, cache, memo)
                assert (got.checked, got.violations) == (want.checked, want.violations), u
                minimality += any("minimality fails at" in v for v in got.violations)
        return minimality

    @pytest.mark.parametrize("name", ["G4ip", "G3cp"])
    def test_sequent_targets(self, name):
        targets = corpus.sequents(("p", "q"), 4, single=True)
        assert self.parity(name, targets, self.QUANTIFIERS[name]) > 100

    @pytest.mark.parametrize("name", ["G4ip", "G3cp"])
    def test_formula_targets(self, name):
        def quantify(f):
            if name == "G3cp":
                return classical_uniform(f, "p")
            return UniformInterpolant(f, "p", ipc_forall(f, "p"), ipc_exists(f, "p"))

        assert self.parity(name, corpus.formulas(("p", "q"), 4), quantify) > 10


class TestRepresentativeGuard:
    def corpus_size(self, calc, names=("q",), bound=6):
        cache = ProverCache(calc)
        verify_uniform(calc, ipc_uniform(ps("q => p -> q"), "p"), bound, cache)
        return len(cache.psi_representatives[names, bound])

    def test_renamed_builtin_is_reduced(self, g4ip, g3cp):
        text = _SOURCES["g4ip"].replace("calculus G4ip\n", "calculus Twin\n")
        twin = from_document(parse_calculus(text))
        assert twin.name == "Twin" and twin == g4ip
        assert self.corpus_size(twin) == self.corpus_size(g4ip) == 6
        assert self.corpus_size(g3cp) == 4

    def test_other_calculus_gets_whole_corpus(self, g4ip):
        dropped = replace(g4ip, rules=g4ip.rules[:-1])
        assert all(dropped != builtin(n) for n in builtin_names())
        assert self.corpus_size(dropped) == len(list(corpus.formulas(("q",), 6)))

    def test_second_check_builds_nothing(self, g4ip, monkeypatch):
        u = ipc_uniform(ps("q, q -> p => p"), "p")
        fresh = ProverCache(g4ip)
        built = []

        def holds(ant, suc):
            built.append(ant)
            return prove(g4ip, Sequent(FMultiset(ant), FMultiset(suc)), cache=fresh).provable

        uniform._psi_corpus(g4ip, ("q",), 6, fresh, holds)
        calls = []
        real = uniform.prove
        monkeypatch.setattr(uniform, "prove", lambda *a, **k: calls.append(a) or real(*a, **k))
        cache = ProverCache(g4ip)
        counts = []
        for _ in range(2):
            calls.clear()
            verify_uniform(g4ip, u, 6, cache)
            counts.append(len(calls))
        # the clauses make the same calls each time; building made the rest
        assert built and counts[0] - counts[1] == len(built)


class TestPsiBound:
    def test_bound_below_one_rejected(self, g4ip):
        s = ps("q, q -> p => p")
        u = UniformInterpolant(s, "p", Top, Top)
        assert verify_uniform(g4ip, u, 1).violations == ["(exists) minimality fails at q"]
        for bound in (0, -1):
            with pytest.raises(ValueError, match="psi_bound"):
                verify_uniform(g4ip, u, bound)
