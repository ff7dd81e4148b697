import gc
import random
import weakref
from dataclasses import replace
from operator import le

import pytest

from proofkit import calculus, core, corpus, prover
from proofkit.core import FMultiset, atom, conj, disj, imp, box
from proofkit.calculus import (BadRuleShape, MetaSequent, UnknownCalculus, builtin,
                               builtin_names, match_conclusion,
                               axiom_instance, instantiate, match_formula,
                               match_metasequent, is_instance_finite,
                               from_document, subst_pattern)
from proofkit.syntax import parse_calculus, parse_metasequent, parse_sequent as ps

p, q, r = atom("p"), atom("q"), atom("r")


class TestBuiltins:
    def test_names(self):
        assert set(builtin_names()) == {"G1cp", "G1ip", "G3cp", "G3ip",
                                        "G4ip", "G4iK", "G4iKD", "G4LL"}
        with pytest.raises(UnknownCalculus):
            builtin("G5")

    def test_box_aliases(self):
        assert builtin("G4iK[]") is builtin("g4ik")
        assert builtin("G4iKD□") is builtin("G4iKD")

    def test_g4ip_rules(self, g4ip):
        names = set(g4ip.rule_names())
        assert {"Lp->", "L&->", "L|->", "L->->"} <= names
        assert g4ip.termination_measure == "weight"

    def test_g3ip_single(self, g3ip):
        assert g3ip.mode == "single"
        for ax in g3ip.axioms:
            assert len(ax.conclusion.suc) <= 1

    def test_g4ll_rules(self):
        names = set(builtin("G4LL").rule_names())
        assert {"RO", "LO", "RO->", "LO->"} <= names

    def test_g1_structural_rules(self, g1cp, g1ip):
        assert {"LW", "RW", "LC", "RC"} <= set(g1cp.rule_names())
        assert {"LW", "RW", "LC"} <= set(g1ip.rule_names())
        assert "RC" not in g1ip.rule_names()

    def test_modal_rule_sets(self):
        assert {"R[]", "L[]->"} <= set(builtin("G4iK").rule_names())
        assert "D[]" in builtin("G4iKD").rule_names()
        assert "D[]" not in builtin("G4iK").rule_names()


class TestMatching:
    def test_single_match(self, g3cp):
        insts = match_conclusion(g3cp, ps("=> p | q"))
        assert [i.rule.name for i in insts] == ["R|"]
        assert insts[0].premises == (ps("=> p, q"),)

    def test_occurrence_enumeration(self, g3ip):
        insts = [i for i in match_conclusion(g3ip, ps("p -> q, p -> q => r"))
                 if i.rule.name == "L->"]
        assert len(insts) == 2
        assert insts[0].premises == insts[1].premises

    def test_lp_imp_instance(self, g4ip):
        insts = [i for i in match_conclusion(g4ip, ps("p, p -> q => q"))
                 if i.rule.name == "Lp->"]
        assert any(i.premises == (ps("p, q => q"),) for i in insts)

    def test_resubstitution_reproduces_instance(self, g4ip, g3cp):
        for calc, text in ((g4ip, "p, p -> q => q"), (g3cp, "p & q => p, r"),
                           (g4ip, "(p -> q) -> r => r")):
            for inst in match_conclusion(calc, ps(text)):
                assert instantiate(inst.rule.conclusion, inst.assignment) == inst.conclusion
                assert tuple(instantiate(ms, inst.assignment)
                             for ms in inst.rule.premises) == inst.premises

    def test_boxed_context_maximal(self):
        g4ik = builtin("G4iK")
        insts = [i for i in match_conclusion(g4ik, ps("[]p, q => []r"))
                 if i.rule.name == "R[]"]
        assert len(insts) == 1
        assert insts[0].premises == (ps("p => r"),)

    def test_axiom_instance(self, g3cp, g1cp):
        s = ps("q, p => p, r")
        ax = axiom_instance(g3cp, s)
        assert (ax.rule.name, ax.premises, ax.conclusion) == ("At", (), s)
        assert ax.assignment == {"p": p, "G": FMultiset([q]), "D": FMultiset([r])}
        assert axiom_instance(g3cp, ps("false, q => r")).rule.name == "Lbot"
        assert axiom_instance(g3cp, ps("q => true")).rule.name == "Rtop"
        assert axiom_instance(g3cp, ps("q => r")) is None
        # G1 axioms carry no context
        ax = axiom_instance(g1cp, ps("p => p"))
        assert (ax.rule.name, ax.premises, ax.assignment) == ("At", (), {"p": p})
        assert axiom_instance(g1cp, ps("q, p => p")) is None


def reference_match_side(side, ms, asg, i=0):
    """The plain enumerator matching replaced: every pattern, in written
    order, tried on every remaining occurrence, the remainder copied at each
    step, and the contexts bound at the end of each side."""
    if i < len(side.pats):
        pat, items = side.pats[i], ms
        for idx, f in enumerate(items):
            asg2 = match_formula(pat, f, asg)
            if asg2 is not None:
                rest = FMultiset._wrap(items[:idx] + items[idx + 1:])
                yield from reference_match_side(side, rest, asg2, i + 1)
        return
    if side.boxed is not None:
        bound = asg.get(side.boxed)
        if bound is None:
            asg = dict(asg)
            asg[side.boxed] = FMultiset(f.a for f in ms if f.kind == core.BOX)
            ms = FMultiset(f for f in ms if f.kind != core.BOX)
        else:
            image = FMultiset(box(f) for f in bound)
            if not ms.contains(image):
                return
            ms = ms.difference(image)
    if side.ctx is None:
        if not ms:
            yield asg
        return
    bound = asg.get(side.ctx)
    if bound is None:
        asg = dict(asg)
        asg[side.ctx] = ms
        yield asg
    elif ms == bound:
        yield asg


def reference_match(ms, s, asg=None):
    for asg1 in reference_match_side(ms.ant, s.ant, {} if asg is None else asg):
        yield from reference_match_side(ms.suc, s.suc, asg1)


def schemas(calc):
    return [r.conclusion for r in calc.axioms + calc.rules]


# (weight bound, corpus modality) of each builtin's two-atom parity corpus
PARITY_CORPORA = {"G1cp": (5, None), "G1ip": (5, None), "G3cp": (6, None),
                  "G3ip": (6, None), "G4ip": (6, None), "G4iK": (5, "box"),
                  "G4iKD": (5, "box"), "G4LL": (5, "circle")}

# a 3-pattern side, patterns shared within and across sides, a boxed
# context, a boxed pattern, a two-pattern succedent, and a side whose
# patterns are placed out of written order
PARITY_USER = """
calculus Parity
mode multi
axiom At : G, p? => p?, D
axiom Twice : G, A, A => A, D
rule Three : G, p?, p? -> A, A => D <- G, A => D
rule Shared : G, A, A -> B => B, D <- G, A => D
rule Boxed : P, []G, []A, p? => q?, D <- G, A => q? ; P, []G => D
rule Pair : G => A, A | B, D <- G => A, B, D
rule Mixed : G, A, p? => D <- G, A & p? => D
"""


class TestMatchParity:
    """Compiled matching yields the reference's assignments in the
    reference's order."""

    @pytest.mark.parametrize("name", sorted(PARITY_CORPORA))
    def test_builtin_corpus(self, name):
        calc = builtin(name)
        weight, modal = PARITY_CORPORA[name]
        seqs = corpus.sequents(("p", "q"), weight, calc.mode == "single", modal)
        matched = 0
        for s in seqs:
            for ms in schemas(calc):
                want = list(reference_match(ms, s))
                assert list(match_metasequent(ms, s)) == want, (ms, s)
                matched += bool(want)
        assert matched

    def test_user_calculus_with_prior_assignments(self):
        calc = from_document(parse_calculus(PARITY_USER))
        stray = {"A": q, "p": p, "G": FMultiset([box(p)])}
        matched, repeated = set(), set()
        for s in corpus.sequents(("p", "q"), 5, modal="box"):
            for ax in calc.axioms:
                ms = ax.conclusion
                assert list(match_metasequent(ms, s)) == list(reference_match(ms, s))
            for rule in calc.rules:
                conc = rule.conclusion
                found = list(reference_match(conc, s))
                assert list(match_metasequent(conc, s)) == found, (conc, s)
                if found:
                    matched.add(rule.name)
                if any(found.count(a) > 1 for a in found):
                    repeated.add(rule.name)
                for asg in found + [stray]:
                    # the check_derivation path: premises first, then the
                    # conclusion under what they bound
                    formulas_only = {k: v for k, v in asg.items()
                                     if isinstance(v, core.Formula)}
                    for prior in (formulas_only, asg):
                        assert list(match_metasequent(conc, s, prior)) == \
                            list(reference_match(conc, s, prior)), (conc, s, prior)
                        if asg is stray:
                            continue
                        for prem in rule.premises:
                            inst = instantiate(prem, asg)
                            assert list(match_metasequent(prem, inst, prior)) == \
                                list(reference_match(prem, inst, prior)), (prem, inst)
        assert matched == set(calc.rule_names())
        assert {"Three", "Boxed", "Pair"} <= repeated

    @pytest.mark.parametrize("name", sorted(PARITY_CORPORA) + ["Parity"])
    def test_wide_sequents(self, name):
        calc = (from_document(parse_calculus(PARITY_USER)) if name == "Parity"
                else builtin(name))
        modal = PARITY_CORPORA.get(name, (None, "box"))[1]
        matched = set()
        for seed in range(4):
            s = wide_sequent(seed, modal, calc.mode == "single")
            for rule in calc.axioms + calc.rules:
                want = list(reference_match(rule.conclusion, s))
                assert list(match_metasequent(rule.conclusion, s)) == want, (rule.name, seed)
                if want:
                    matched.add(rule.name)
        # every rule whose principal the sequents hold was tried on a match
        for rule in ("Lp->", "LT->", "L&->", "L|->", "L->->", "L[]->", "LO->", "Three",
                     "Shared", "Boxed", "L->"):
            assert rule not in calc.rule_names() or rule in matched, rule


# user text that would not survive being spliced into Python source:
# primed atom literals and atom metavariables, constants inside patterns
PRIMED_USER = """
calculus Primed
mode multi
axiom At : G, p'? => p'?, D
axiom Ax' : G, p' => p', D
axiom F'' : G, false -> A, p'' => p'', D
rule L' : G, p' & A => D <- G, A => D
rule R'' : G => (true -> p'') | false, D <- G => p'', D
rule Lp' : G, p'? -> (p'' & true), p'? => D <- G, p'?, p'' => D
rule Both' : G, p'? -> A => p'?, D <- G, A => p'?, D
"""


# context names repeated across the sides: plain on both, boxed then plain,
# plain and boxed on one side then plain, and a rule's formula pattern
# between two occurrences of the same context
REPEATED_CONTEXTS = """
calculus Repeated
mode multi
axiom Id : G => G
axiom BoxId : []G => G
axiom Both : G, []G => G
rule R : G, A => A, G <- G => A
rule S : P, []G => []G, P <- P =>
"""


class TestCompiledMatchers:
    """Each schema sequent compiles one matcher per set of caller-bound
    names; user names reach it as data only."""

    def test_primed_names_match_like_the_reference(self):
        calc = from_document(parse_calculus(PRIMED_USER))
        p1, p2 = atom("p'"), atom("p''")
        seqs = list(corpus.sequents(("p'", "p''"), 5))
        seqs += [ps(t) for t in ("p', p' -> p'' & true => p''", "p' & p'' => p'",
                                 "false -> p', p'' => p'', p'", "q => (true -> p'') | false",
                                 "p'', p'' -> p'' & true, p'' -> q => q, p''")]
        stray = {"p'": p2, "A": core.Top, "G": FMultiset([p1])}
        matched = set()
        for s in seqs:
            for rule in calc.axioms + calc.rules:
                conc = rule.conclusion
                found = list(reference_match(conc, s))
                assert list(match_metasequent(conc, s)) == found, (rule.name, s)
                matched.update([rule.name] * bool(found))
                for asg in found + [stray]:
                    formulas_only = {k: v for k, v in asg.items() if isinstance(v, core.Formula)}
                    for prior in (formulas_only, asg, {**asg, "Z": p1}):
                        assert list(match_metasequent(conc, s, prior)) == \
                            list(reference_match(conc, s, prior)), (rule.name, s, prior)
                        for prem in rule.premises if asg is not stray else ():
                            inst = instantiate(prem, asg)
                            assert list(match_metasequent(prem, inst, prior)) == \
                                list(reference_match(prem, inst, prior)), (prem, inst)
        assert matched == {r.name for r in calc.axioms + calc.rules}

    def test_one_matcher_per_bound_names(self, monkeypatch):
        calc = from_document(parse_calculus(PRIMED_USER))
        compiled = []

        def counting(ms, key):
            compiled.append(key)
            return compile_matcher(ms, key)

        compile_matcher = calculus._compile_matcher
        monkeypatch.setattr(calculus, "_compile_matcher", counting)
        conc = calc.rule("Lp'").conclusion
        s = ps("p', p' -> p'' & true => p''")
        for prior in (None, {}, {"p'": atom("p'")}, {"p'": p}, {"p'": p, "Z": q}, {"Z": q}):
            list(match_metasequent(conc, s, prior))
        assert compiled == [None, frozenset({"p'"}), frozenset()]
        assert conc.matchers.keys() == set(compiled)

    def test_context_named_on_both_sides(self):
        """A context the antecedent binds is checked, not rebound, where the
        succedent repeats its name, plain or boxed."""
        calc = from_document(parse_calculus(REPEATED_CONTEXTS))
        matched = set()
        for s in corpus.sequents(("p", "q"), 5, modal="box"):
            for rule in calc.axioms + calc.rules:
                conc = rule.conclusion
                found = list(reference_match(conc, s))
                assert list(match_metasequent(conc, s)) == found, (rule.name, s)
                matched.update([rule.name] * bool(found))
                for asg in found:
                    formulas_only = {k: v for k, v in asg.items() if isinstance(v, core.Formula)}
                    for prior in (formulas_only, asg):
                        assert list(match_metasequent(conc, s, prior)) == \
                            list(reference_match(conc, s, prior)), (rule.name, s, prior)
        assert matched == {r.name for r in calc.axioms + calc.rules}
        assert not prover.prove(calc, ps("p => q")).provable
        assert prover.prove(calc, ps("p, q => q, p")).provable

    @pytest.mark.parametrize("name", sorted(PARITY_CORPORA))
    def test_contexts_bound_by_call_only_when_boxed_or_bound(self, name, monkeypatch):
        """A matcher calls `_bind_contexts` only for a boxed context or a
        context its assignment already binds: a side without a context is
        settled by the length test, a plain unbound one inline."""
        calls = []

        def recording(side, ms, taken, asg):
            calls.append((side, asg))
            return bind(side, ms, taken, asg)

        bind = calculus._bind_contexts
        monkeypatch.setattr(calculus, "_bind_contexts", recording)
        # a copy, so that its matchers are compiled after the wrapper is in
        calc = from_document(parse_calculus(calculus._SOURCES[name.lower()]))
        modal = PARITY_CORPORA[name][1]
        for s in corpus.sequents(("p", "q"), 4, calc.mode == "single", modal):
            prover.prove(calc, s)
        bad = [side for side, asg in calls if side.boxed is None and side.ctx not in asg]
        assert not bad, (len(bad), bad[0])
        # the wrapper saw the matchers: the modal calculi bind boxed contexts
        boxed = [side for r in calc.axioms + calc.rules
                 for side in (r.conclusion.ant, r.conclusion.suc) if side.boxed]
        assert bool(calls) == bool(boxed)


def wide_sequent(seed, modal, single):
    """A seeded sequent with an antecedent of 30-80 formulas: small random
    formulas over p, q, r, the constants and the modality, plus
    implications whose antecedent is an atom absent (a0), present once
    (a1), present twice (a2) or absent but for the succedent (a3, the
    succedent of every multi-conclusion and even-seeded single-conclusion
    sequent), `true`, a conjunction, a disjunction or an implication, and,
    when modal, boxed or circled formulas."""
    rng = random.Random(seed)
    wrap = {"box": box, "circle": core.circle}.get(modal)
    makers = [conj, disj, imp] + ([lambda f, g: wrap(f)] if wrap else [])

    def formula(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice((p, q, r, core.Top, core.Bot))
        return rng.choice(makers)(formula(depth - 1), formula(depth - 1))

    a = [atom(f"a{i}") for i in range(4)]
    ant = [imp(x, formula(1)) for x in a + a] + [a[1], a[2], a[2], p, imp(a[1], p)]
    ant += [imp(core.Top, formula(1)), imp(conj(formula(1), formula(1)), formula(1)),
            imp(disj(formula(1), formula(1)), formula(1)),
            imp(imp(formula(1), formula(1)), formula(1))]
    if wrap:
        ant += [wrap(p), wrap(formula(1)), imp(wrap(formula(1)), formula(1))]
    ant += [formula(2) for _ in range(rng.randrange(30, 78) - len(ant))]
    ant += rng.sample(ant, 3)   # repeated occurrences
    if single:
        suc = [a[3] if seed % 2 == 0 else wrap(q) if wrap else p]
    else:
        suc = [a[3], p, formula(2), formula(2)] + ([wrap(q)] if wrap else [])
    return core.Sequent(FMultiset(ant), FMultiset(suc))


class TestMatchWork:
    def test_wide_chain_work_count(self, g4ip, monkeypatch):
        """Matching on the 200-formula chain `a0, a0 -> a1, ... => a199`
        looks a bound metavariable up (comparing occurrences) only for the
        few occurrences that can take its pattern: `Lp->` only for the
        implication whose atom is a member, not for every implication at
        every node.  50,106 formula comparisons, against 3,990,306 without
        the shared-member filter; about n * n of them are the At axiom's
        lookup of the succedent atom."""
        n = 200
        a = [atom(f"a{i}") for i in range(n)]
        s = core.sequent([a[0]] + [imp(x, y) for x, y in zip(a, a[1:])], [a[-1]])
        calls = 0

        def counting(f, g):
            nonlocal calls
            calls += 1
            return f is g

        monkeypatch.setattr(core.Formula, "__eq__", counting)
        res = prover.prove(g4ip, s, cache=prover.ProverCache(g4ip))
        assert res.provable and res.stats.nodes == n
        assert calls < n * n + 60 * n, calls


# nested patterns: shapes on both sides, one (A -> false) that needs only a
# kind, and plain patterns of the same kinds, so that admits must tell a
# shape from its kind
NESTED_USER = """
calculus Nested
mode single
axiom At : G, p? => p?
axiom Lbot : G, false => D
axiom Rtop : G => true
rule L&& : G, (A & B) & C => D <- G, A, B, C => D
rule L& : G, A & B => D <- G, A, B => D
rule L[]p-> : G, []p?, []p? -> A => D <- G, []p?, A => D
rule LT-> : G, true -> A => D <- G, A => D
rule L~ : G, A -> false => D <- G => A
rule R|& : G => (A & B) | C <- G => A ; G => B
rule R| : G => A | B <- G => A
"""


def top_admits(rule, s):
    """No side of rule's conclusion needs a top-level kind s lacks: `atom`
    for p?, none for A, the pattern's own kind otherwise."""
    c = rule.conclusion
    top = {core.FMETA: None, core.AMETA: core.ATOM}
    return all({top.get(p.kind, p.kind) for p in side.pats} - {None} <= {f.kind for f in ms}
               for side, ms in ((c.ant, s.ant), (c.suc, s.suc)))


def top_kinds_instances(schemas, s):
    """The instances of schemas at s, with schemas skipped only on a
    top-level kind that a side lacks, each as (rule, assignment, premises);
    contexts and patterns are matched by the plain enumerator."""
    for rule in schemas:
        if not top_admits(rule, s):
            continue
        for asg in reference_match(rule.conclusion, s):
            try:
                premises = tuple(instantiate(p, asg) for p in rule.premises)
            except KeyError:
                continue
            yield rule, asg, premises


def reachable(calc, roots, limit):
    """The roots and, breadth first, premises of their instances, at most
    limit sequents per root."""
    out = []
    for root in roots:
        seen, todo = {root}, [root]
        while todo and len(seen) < limit:
            s = todo.pop(0)
            for inst in match_conclusion(calc, s):
                for prem in inst.premises:
                    if prem not in seen and len(seen) < limit:
                        seen.add(prem)
                        todo.append(prem)
        out += seen
    return out


def wide_roots(n):
    """wide's chain, conj and absent sequents over n atoms."""
    a = [atom(f"a{i}") for i in range(n)]
    big = a[0]
    for x in a[1:]:
        big = conj(big, x)
    return [core.sequent([a[0]] + [imp(x, y) for x, y in zip(a, a[1:])], [a[-1]]),
            core.sequent([big], [a[0]]), core.sequent([big], [atom("b0")])]


class TestConclusionParity:
    """match_conclusion and axiom_instance, which skip schemas on kinds and
    shapes (`Side.kinds`), give the instances, in order, of a reference
    that skips on top-level kinds only."""

    @staticmethod
    def check(calc, seqs):
        used = set()
        for s in seqs:
            got = [(i.rule, i.assignment, i.premises) for i in match_conclusion(calc, s)]
            assert got == list(top_kinds_instances(calc.rules, s)), (calc.name, s)
            ax = axiom_instance(calc, s)
            want = next(top_kinds_instances(calc.axioms, s), None)
            assert (ax and (ax.rule, ax.assignment, ax.premises)) == want, (calc.name, s)
            used.update(i[0].name for i in got)
        return used

    @pytest.mark.parametrize("name", sorted(PARITY_CORPORA))
    def test_builtin_corpus(self, name):
        calc = builtin(name)
        weight, modal = PARITY_CORPORA[name]
        assert self.check(calc, corpus.sequents(("p", "q"), weight,
                                                calc.mode == "single", modal))

    @pytest.mark.parametrize("name", sorted(PARITY_CORPORA))
    def test_builtin_wide_families(self, name):
        calc = builtin(name)
        assert self.check(calc, reachable(calc, wide_roots(50), 25))

    def test_nested_patterns(self):
        calc = from_document(parse_calculus(NESTED_USER))
        seqs = list(corpus.sequents(("p", "q"), 6, True, "box"))
        seqs += reachable(calc, wide_roots(50), 25)
        seqs += [ps(t) for t in ("(p & q) & p => q", "(p | q) & p, p & q => p",
                                 "[]p, []p -> q, []q -> p => (p & q) | q",
                                 "[]p -> q, p -> q, true -> p => (p | q) | q",
                                 "q -> false, true & p => (p -> q) | p")]
        assert self.check(calc, seqs) == set(calc.rule_names())
        # exactly the schemas with a shape are skipped where their top-level
        # kinds are present
        skipped = {r.name for s in seqs for r in calc.rules
                   if top_admits(r, s)
                   and not r.conclusion.admits(calculus.sequent_kinds(s))}
        assert skipped == {"L&&", "L[]p->", "LT->", "R|&"}


def admitted_reference(schemas, s):
    """The schemas the table must admit at s, in declaration order."""
    kinds = calculus.sequent_kinds(s)
    return tuple(r for r in schemas if not r.fresh and r.conclusion.admits(kinds))


# (antecedent sets, succedent sets, masks) each builtin's schema table
# holds after its parity corpus, as measured: a key that stops collapsing
# sequents of equal shapes overflows them
TABLE_SIZES = {"G1cp": (30, 30, 20), "G1ip": (30, 13, 18), "G3cp": (50, 50, 32),
               "G3ip": (50, 17, 26), "G4ip": (50, 17, 28), "G4iK": (69, 22, 25),
               "G4iKD": (69, 22, 34), "G4LL": (69, 22, 27)}


class TestDispatch:
    """The schema table (`Calculus.dispatch`) admits exactly the schemas
    whose conclusion admits the sequent's shapes, in declaration order,
    and never a rule with fresh premise variables."""

    @staticmethod
    def check(calc, seqs):
        for s in seqs:
            got = calculus._admitted(calc, calculus.sequent_kinds(s))
            assert got == (admitted_reference(calc.axioms, s),
                           admitted_reference(calc.rules, s)), (calc.name, s)

    @pytest.mark.parametrize("name", sorted(PARITY_CORPORA))
    def test_builtin(self, name):
        # a copy, so that no other test has filled its table
        calc = from_document(parse_calculus(calculus._SOURCES[name.lower()]))
        weight, modal = PARITY_CORPORA[name]
        self.check(calc, corpus.sequents(("p", "q"), weight, calc.mode == "single", modal))
        sizes = tuple(map(len, calc.dispatch))
        assert all(map(le, sizes, TABLE_SIZES[name])), sizes
        self.check(calc, reachable(calc, wide_roots(50), 25))

    def test_user_calculi(self, monkeypatch):
        nested = from_document(parse_calculus(NESTED_USER))
        self.check(nested, list(corpus.sequents(("p", "q"), 6, True, "box"))
                   + reachable(nested, wide_roots(50), 25))
        # prove_with_cut searches calc plus one Cut per pool formula, each
        # with its cut formula fixed
        searched = []
        real = prover.prove
        monkeypatch.setattr(prover, "prove", lambda c, *a, **k: searched.append(c) or real(c, *a, **k))
        prover.prove_with_cut(builtin("G3cp"), ps("p -> q, p => q | r"))
        [cuts] = searched
        assert [r.fixed for r in cuts.rules if r.name == "Cut"] == [
            (("A", f),) for f in sorted({p, q, r, imp(p, q), disj(q, r)}, key=core.Formula.sort_key)]
        seqs = list(corpus.sequents(("p", "q"), 4))
        self.check(cuts, seqs + reachable(cuts, wide_roots(50), 25))
        # plain Cut and Odd have fresh premise variables
        for calc in (prover.with_cut(builtin("G3cp")), from_document(parse_calculus(
                "calculus W\naxiom Ax : p? => p?\nrule Odd : G => A <- G => B\n"
                "rule Fine : G => A & B <- G => A ; G => B"))):
            assert any(r.fresh for r in calc.rules)
            self.check(calc, seqs)

    def test_one_table_per_calculus_object(self):
        a, b = (from_document(parse_calculus(NESTED_USER)) for _ in range(2))
        assert a == b
        match_conclusion(a, ps("p & q => p"))
        assert a.dispatch is not b.dispatch and a.dispatch[2] and not b.dispatch[2]
        ref = weakref.ref(a.dispatch[0])
        del a
        gc.collect()
        assert ref() is None


class TestShapes:
    def test_every_interned_formula(self):
        # the builtins' pattern formulas and those below are interned
        ps("[]p -> q, O(p & q), (p -> q) | ~r, true -> p => [][]p")
        from_document(parse_calculus(NESTED_USER))
        compound = core.BINARY + core.UNARY
        for f in core._intern.values():
            want = core.SHAPES[f.kind, f.a.kind] if f.kind in compound else f.kind
            assert f.shape is want, f
        meta = parse_calculus("calculus X\nrule R : G, p? -> A, []A -> B => D <- G => D")
        pats = [f for _, f in meta.rules[0][2][0] if _ == "pat"]
        assert [f.shape for f in pats] == ["imp/ameta", "imp/box"]
        assert (core.imp(p, q).shape, core.conj(core.Top, p).shape) == ("imp/atom", "and/top")
        assert (p.shape, core.Bot.shape, core.fmeta("A").shape) == ("atom", "bot", "fmeta")

    def test_side_kinds_hold_kinds_and_shapes(self):
        def kinds(calc, name):
            c = calc.rule(name).conclusion
            return c.ant.kinds, c.suc.kinds

        g4ip = builtin("G4ip")
        assert kinds(g4ip, "Lp->") == ({"atom", "imp/atom"}, set())
        assert kinds(g4ip, "L->->") == ({"imp/imp"}, set())
        assert kinds(builtin("G3cp"), "L->") == ({"imp"}, set())
        # []p? in L[]p-> needs box/atom, and its []p? -> A imp/box
        nested = from_document(parse_calculus(NESTED_USER))
        assert kinds(nested, "L[]p->") == ({"box/atom", "imp/box"}, set())


def reference_instantiate(ms, asg):
    """Premise instantiation that sorts every side from scratch."""
    def fill(side):
        out = [subst_pattern(pat, asg) for pat in side.pats]
        if side.ctx is not None:
            out += asg[side.ctx]
        if side.boxed is not None:
            out += map(box, asg[side.boxed])
        return FMultiset(out)

    return fill(ms.ant), fill(ms.suc)


class TestMergedInstantiation:
    """instantiate merges the instantiated patterns into the sorted context
    binding; a mis-sorted side would break Sequent equality and context
    binding, so every premise must carry the canonical order."""

    @staticmethod
    def check(rule, inst):
        for ms, got in zip(rule.premises, inst.premises):
            assert (got.ant, got.suc) == \
                reference_instantiate(ms, inst.assignment), (rule.name, inst.conclusion)
            for side, items in ((ms.ant, got.ant), (ms.suc, got.suc)):
                if side.ctx is not None and not side.pats and side.boxed is None:
                    assert items is inst.assignment[side.ctx]

    @pytest.mark.parametrize("name", sorted(PARITY_CORPORA))
    def test_builtin_corpus(self, name):
        calc = builtin(name)
        weight, modal = PARITY_CORPORA[name]
        used = set()
        for s in corpus.sequents(("p", "q"), weight, calc.mode == "single", modal):
            for inst in match_conclusion(calc, s):
                self.check(inst.rule, inst)
                used.add(inst.rule.name)
        assert used

    def test_user_calculus(self):
        calc = from_document(parse_calculus(PARITY_USER))
        used = set()
        for s in corpus.sequents(("p", "q"), 5, modal="box"):
            for inst in match_conclusion(calc, s):
                self.check(inst.rule, inst)
                used.add(inst.rule.name)
        assert used == set(calc.rule_names())


class TestSchemaRendering:
    @pytest.mark.parametrize("name", builtin_names())
    def test_repr_reparses_to_an_equal_schema(self, name):
        calc = builtin(name)
        lines = [f"calculus {name}", f"mode {calc.mode}"]
        lines += [f"axiom {a!r}" for a in calc.axioms]
        lines += [f"rule {r!r}" for r in calc.rules]
        again = from_document(parse_calculus("\n".join(lines)))
        assert again.axioms == calc.axioms and again.rules == calc.rules


class TestInstanceFinite:
    def test_builtins(self):
        for name in builtin_names():
            ok, offenders = is_instance_finite(builtin(name))
            assert ok, (name, offenders)

    def test_fresh_premise_var(self):
        doc = parse_calculus("calculus W\nrule Odd : G => A <- G => B")
        ok, offenders = is_instance_finite(from_document(doc))
        assert not ok and offenders[0][0] == "Odd"

    def test_fresh_var_rule_yields_no_instances(self):
        calc = from_document(parse_calculus(
            "calculus W\naxiom Ax : p? => p?\nrule Odd : G => A <- G => B"))
        assert match_conclusion(calc, ps("=> p")) == []

    def test_fresh_is_decided_per_schema(self):
        calc = from_document(parse_calculus(
            "calculus W\nrule Odd : G => A <- G => A ; G, C => B\n"
            "rule Fine : G => A & B <- G => A ; G => B"))
        odd, fine = calc.rules
        assert odd.fresh == ("B", "C") and fine.fresh == ()
        assert is_instance_finite(calc) == (False, [("Odd", ["B", "C"])])
        # the conclusion matches, and the fresh rule still has no instance
        assert [i.rule.name for i in match_conclusion(calc, ps("=> p & q"))] == ["Fine"]


class TestPremisesOnDemand:
    """An instance's premises, instantiated when first read, are the ones
    instantiating every premise at match time gives."""

    @pytest.mark.parametrize("name", sorted(PARITY_CORPORA))
    def test_builtin_corpus(self, name):
        calc = builtin(name)
        weight, modal = PARITY_CORPORA[name]
        found = 0
        for s in corpus.sequents(("p", "q"), weight, calc.mode == "single", modal):
            for inst in match_conclusion(calc, s):
                eager = tuple(instantiate(ms, inst.assignment) for ms in inst.rule.premises)
                assert inst.premises == eager and inst.premises is inst.premises, inst
                found += 1
        assert found


class TestFixed:
    """A schema's fixed metavariables are bound before matching: Cut with
    its cut formula given has instances, plain Cut has none."""

    def test_fixed_names_count_as_bound(self):
        cut = prover.cut_rule("multi")
        fixed = replace(cut, fixed=(("A", p),))
        assert cut.fresh == ("A",) and fixed.fresh == ()
        calc = calculus.Calculus("Cuts", "multi", [], [cut, fixed])
        [inst] = match_conclusion(calc, ps("q => r"))
        assert inst.rule is fixed and inst.assignment == {"A": p, "G": FMultiset([q]),
                                                          "D": FMultiset([r])}
        assert inst.premises == (ps("q => p, r"), ps("q, p => r"))

    def test_fixed_binding_must_match(self):
        # a fixed metavariable in the conclusion takes only its own formula
        rule = calculus.RuleSchema("Drop", (MetaSequent(*parse_metasequent("G =>")),),
                                   MetaSequent(*parse_metasequent("G, A =>")),
                                   fixed=(("A", p),))
        calc = calculus.Calculus("Drops", "multi", [], [rule])
        assert [i.premises for i in match_conclusion(calc, ps("q, p, r =>"))] == [(ps("q, r =>"),)]
        assert match_conclusion(calc, ps("q, r =>")) == []


class TestRegistrationValidation:
    def test_multiplicative_split_rejected(self):
        with pytest.raises(BadRuleShape, match="rule Mul"):
            from_document(parse_calculus(
                "calculus X\nrule Mul : G, P => D <- G => D ; P => D"))

    def test_wide_succedent_rejected_in_single_mode(self):
        with pytest.raises(BadRuleShape):
            from_document(parse_calculus(
                "calculus Y\nmode single\naxiom Wide : G => A, B"))

    def test_wide_succedent_fine_in_multi_mode(self):
        calc = from_document(parse_calculus(
            "calculus Z\nmode multi\naxiom Wide : G => A, A, D"))
        assert calc.axioms
