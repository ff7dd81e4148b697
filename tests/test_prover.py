import itertools
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from proofkit.core import FMultiset, Sequent, SplitAnt, atom, conj, disj, imp, neg, Bot
from proofkit import calculus, corpus, prover
from proofkit.calculus import _SOURCES, builtin, from_document
from proofkit.proofio import emit_derivation, load_derivation
from proofkit.prover import (Derivation, ProverCache, SearchBudget, NotADisjunction,
                             ShapeMismatch, prove, prove_with_cut, decide,
                             check_derivation, min_depth, invert,
                             split_disjunction, admissibility_probe, with_cut)
from proofkit.syntax import parse_calculus, parse_formula as pf, parse_sequent as ps
from proofkit.interpolation import InterpolationProblem, craig_interpolate, formula_interpolant
from proofkit.uniform import classical_uniform, ipc_uniform, verify_uniform

from test_calculus import PARITY_CORPORA

p, q = atom("p"), atom("q")


def truth_table_valid(s, names):
    idx = {n: i for i, n in enumerate(names)}

    def ev(f, val):
        k = f.kind
        if k == "atom":
            return val[idx[f.a]]
        if k == "top":
            return True
        if k == "bot":
            return False
        if k == "and":
            return ev(f.a, val) and ev(f.b, val)
        if k == "or":
            return ev(f.a, val) or ev(f.b, val)
        return (not ev(f.a, val)) or ev(f.b, val)

    for val in itertools.product((False, True), repeat=len(names)):
        if all(ev(f, val) for f in s.ant) and not any(ev(f, val) for f in s.suc):
            return False
    return True


# the two G1cp derivations of section 5.3, with phi = p, psi = q
def lem_derivation():
    leaf = Derivation(ps("p => p"), "At")
    rw = Derivation(ps("p => p, false"), "RW", None, [leaf])
    rimp = Derivation(ps("=> p, ~p"), "R->", None, [rw])
    return Derivation(ps("=> p | ~p"), "R|", None, [rimp])


def peirce_derivation():
    leaf1 = Derivation(ps("p => p"), "At")
    rw = Derivation(ps("p => q, p"), "RW", None, [leaf1])
    rimp = Derivation(ps("=> p -> q, p"), "R->", None, [rw])
    leaf2 = Derivation(ps("p => p"), "At")
    limp = Derivation(ps("(p -> q) -> p => p"), "L->", None, [rimp, leaf2])
    return Derivation(ps("=> ((p -> q) -> p) -> p"), "R->", None, [limp])


class TestDerivationTraversal:
    def test_depth_and_nodes_beyond_the_recursion_limit(self):
        s = ps("p => p")
        d = Derivation(s, "At")
        for _ in range(4_999):
            d = Derivation(s, "R", None, [d])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            assert d.depth() == 5_000
            nodes = list(d.nodes())
        finally:
            sys.setrecursionlimit(limit)
        assert len(nodes) == 5_000 and nodes[0] is d and nodes[-1].rule == "At"

    def test_deep_equality_and_hash(self):
        # in a subprocess: C-level recursion this deep overflows the C stack
        # and kills the interpreter, which would end the whole test run
        code = """if True:
            from proofkit.prover import Derivation
            from proofkit.syntax import parse_sequent
            s = parse_sequent("p => p")
            def chain(top):
                d = Derivation(s, top)
                for _ in range(50_000):
                    d = Derivation(s, "R", None, [d])
                return d
            d, e, f = chain("At"), chain("At"), chain("Lbot")
            assert d == e and hash(d) == hash(e) and d != f
            """
        src = str(Path(prover.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_shared_subtrees_are_visited_once(self):
        # 2**200 root-to-leaf paths through 201 distinct nodes
        s = ps("p => p")
        d, e = Derivation(s, "At"), Derivation(s, "At")
        for _ in range(200):
            d, e = Derivation(s, "R", None, [d, d]), Derivation(s, "R", None, [e, e])
        assert d == e and hash(d) == hash(e)
        assert d != Derivation(s, "R", None, [d.children[0], Derivation(s, "Lbot")])

    def test_nodes_in_pre_order(self):
        d = peirce_derivation()
        assert [n.rule for n in d.nodes()] == ["R->", "L->", "R->", "RW", "At", "At"]
        assert d.depth() == 5 and lem_derivation().depth() == 4


class TestCheckDerivation:
    def test_lem_in_g1cp(self, g1cp):
        assert check_derivation(g1cp, lem_derivation()) == []

    def test_peirce_in_g1cp(self, g1cp):
        assert check_derivation(g1cp, peirce_derivation()) == []

    def test_lem_rejected_by_g3ip(self, g3ip):
        defects = check_derivation(g3ip, lem_derivation())
        assert any("multi-conclusion" in msg for _, msg in defects)
        assert any("unknown rule" in msg for _, msg in defects)

    def test_wrong_premise_located(self, g1cp):
        d = lem_derivation()
        broken = Derivation(d.conclusion, d.rule, None,
                            [Derivation(ps("=> q, ~p"), "R->", None,
                                        d.children[0].children)])
        defects = check_derivation(g1cp, broken)
        assert defects and any(path == (0,) or path == () for path, _ in defects)

    def test_unknown_axiom(self, g1cp):
        defects = check_derivation(g1cp, Derivation(ps("p => p"), "Ax"))
        assert defects == [((), "unknown axiom 'Ax'")]
        # a rule name does not close a leaf either
        assert check_derivation(g1cp, Derivation(ps("p => p"), "R->"))[0][1] == \
            "unknown axiom 'R->'"

    def test_leaf_not_an_axiom_instance(self, g1cp):
        s = ps("q, p => p")
        defects = check_derivation(g1cp, Derivation(s, "At"))
        assert defects == [((), f"not an instance of At: {s!r}")]

    def test_leaf_assignment_checked(self, g3cp):
        s = ps("q, p => p")
        good = prove(g3cp, s).derivation
        assert good.is_leaf and good.assignment is not None
        assert check_derivation(g3cp, good) == []
        # the sequent is an instance of At, but not under this assignment
        wrong = dict(good.assignment, G=FMultiset([p]))
        defects = check_derivation(g3cp, Derivation(s, "At", wrong))
        assert defects == [((), f"not an instance of At: {s!r}")]

    def test_prover_output_checks(self, g4ip, g3cp, caches):
        for calc, text in ((g4ip, "p & q => q | p"), (g3cp, "=> p | ~p"),
                           (g4ip, "=> ~~(p | ~p)")):
            r = prove(calc, ps(text), cache=caches(calc))
            assert r.provable
            assert check_derivation(calc, r.derivation) == []
            assert r.derivation.conclusion == ps(text)


def fresh_copy(d):
    """d rebuilt from new, unmarked nodes (assignments kept)."""
    return Derivation(d.conclusion, d.rule, d.assignment,
                      [fresh_copy(c) for c in d.children])


def counted_instance_checks(monkeypatch):
    calls = []
    real = prover._instance_ok

    def counted(rule, node):
        calls.append(node)
        return real(rule, node)

    monkeypatch.setattr(prover, "_instance_ok", counted)
    return calls


class TestCheckMemo:
    """check_derivation marks a subtree it walked without a defect and
    skips it the next time; the marks must never hide a defect."""

    @pytest.mark.parametrize("attr", ["conclusion", "rule", "assignment",
                                      "children", "checked"])
    def test_derivation_is_immutable(self, attr):
        d = Derivation(ps("p => p"), "At")
        with pytest.raises(AttributeError):
            setattr(d, attr, None)
        with pytest.raises(AttributeError):
            delattr(d, attr)
        assert d.conclusion == ps("p => p") and d.checked is None

    def test_clean_walk_marks_and_is_not_repeated(self, g4ip, monkeypatch):
        d = prove(g4ip, ps("p & q => q & p"), cache=ProverCache(g4ip)).derivation
        assert all(n.checked is None for n in d.nodes())
        calls = counted_instance_checks(monkeypatch)
        assert check_derivation(g4ip, d) == []
        assert len(calls) == len(list(d.nodes()))
        assert all(n.checked is g4ip for n in d.nodes())
        calls.clear()
        assert check_derivation(g4ip, d) == [] and calls == []

    def test_defect_above_a_checked_shared_subtree(self, g4ip, monkeypatch):
        # a cache that has already checked a correct sibling: the second
        # query's derivation shares the first's subtrees
        cache = ProverCache(g4ip)
        first = prove(g4ip, ps("p & q => q & p"), cache=cache).derivation
        second = prove(g4ip, ps("p & q => p & q"), cache=cache).derivation
        shared = {id(n) for n in first.nodes()} & {id(n) for n in second.nodes()}
        assert shared
        assert check_derivation(g4ip, first) == []
        inner = second.children[0]            # G, p, q => p & q by R&
        assert inner.children[0].checked is g4ip
        # the premises of R& swapped: only the planted node is wrong
        planted = Derivation(second.conclusion, second.rule, second.assignment,
                             [Derivation(inner.conclusion, inner.rule, None,
                                         inner.children[::-1])])
        fresh = fresh_copy(planted)
        expected = [((0,), f"not an instance of R&: {inner.conclusion!r}")]
        calls = counted_instance_checks(monkeypatch)
        assert check_derivation(g4ip, planted) == expected
        # the root and the planted node are checked; the marked premises not
        assert len(calls) == 2
        assert check_derivation(g4ip, fresh) == expected
        assert planted.checked is None and planted.children[0].checked is None
        assert check_derivation(g4ip, planted) == expected

    def test_broken_subtree_twice_reported_twice(self, g3cp):
        bad = Derivation(ps("q => p"), "At")
        root = Derivation(ps("q => p & p"), "R&", None, [bad, bad])
        msg = f"not an instance of At: {ps('q => p')!r}"
        assert check_derivation(g3cp, root) == [((0,), msg), ((1,), msg)]
        assert bad.checked is None and root.checked is None
        assert check_derivation(g3cp, root) == [((0,), msg), ((1,), msg)]

    def test_mark_is_per_calculus_object(self, g4ip):
        d = prove(g4ip, ps("p, q => q & p"), cache=ProverCache(g4ip)).derivation
        assert d.rule == "R&"
        assert check_derivation(g4ip, d) == [] and d.checked is g4ip
        text = _SOURCES["g4ip"]
        line = next(x for x in text.splitlines() if x.startswith("rule R& :"))
        twin = from_document(parse_calculus(text.replace(line + "\n", "")))
        assert twin != g4ip and "R&" not in twin.rule_names()
        assert check_derivation(twin, d) == [((), "unknown rule 'R&'")]
        assert d.checked is g4ip

    def test_loaded_derivation_is_checked_in_full(self, g4ip, monkeypatch):
        d = prove(g4ip, ps("p & (p -> q) => q | r"), cache=ProverCache(g4ip)).derivation
        assert check_derivation(g4ip, d) == []
        loaded = load_derivation(emit_derivation(d, g4ip.name), g4ip)
        assert loaded == d
        nodes = list(loaded.nodes())
        assert all(n.checked is None and n.assignment is None for n in nodes)
        calls = counted_instance_checks(monkeypatch)
        assert check_derivation(g4ip, loaded) == []
        assert len(calls) == len(nodes)
        assert all(n.checked is g4ip for n in nodes)

    def test_deep_derivation_checked_iteratively(self, g1cp):
        # p => p under 4,999 alternating weakenings and contractions
        single, double = ps("p => p"), ps("p, p => p")
        d = Derivation(single, "At")
        for i in range(4_999):
            d = (Derivation(double, "LW", None, [d]) if i % 2 == 0
                 else Derivation(single, "LC", None, [d]))
        broken = Derivation(single, "LW", None, [d])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            assert d.depth() == 5_000
            assert check_derivation(g1cp, d) == []
            assert check_derivation(g1cp, broken) == \
                [((), f"not an instance of LW: {single!r}")]
        finally:
            sys.setrecursionlimit(limit)
        assert d.checked is g1cp and broken.checked is None


class TestProve:
    def test_peirce_classical(self, g3cp, caches):
        assert prove(g3cp, ps("=> ((p -> q) -> p) -> p"), cache=caches(g3cp)).provable

    def test_lem_unprovable_g3ip(self, g3ip):
        r = prove(g3ip, ps("=> p | ~p"))
        assert r.status == "unprovable" and r.exhaustive

    def test_peirce_unprovable_g4ip(self, g4ip, caches):
        r = prove(g4ip, ps("=> ((p -> q) -> p) -> p"), cache=caches(g4ip))
        assert r.status == "unprovable" and r.exhaustive

    def test_double_negated_lem(self, g4ip, g3ip, caches):
        assert prove(g4ip, ps("=> ~~(p | ~p)"), cache=caches(g4ip)).provable
        assert prove(g3ip, ps("=> ~~(p | ~p)")).provable

    def test_modal_d_vs_k(self):
        assert prove(builtin("G4iKD"), ps("=> ~[]false")).provable
        r = prove(builtin("G4iK"), ps("=> ~[]false"))
        assert r.status == "unprovable" and r.exhaustive

    def test_multi_conclusion_input_rejected(self, g4ip):
        with pytest.raises(ValueError):
            prove(g4ip, ps("=> p, q"))

    def test_budget(self, g4ip):
        r = prove(g4ip, ps("=> ((p -> q) -> p) -> p"),
                  budget=SearchBudget(max_depth=4096, max_nodes=3))
        assert r.status == "budget"

    def test_stats(self, g4ip, caches):
        r = prove(g4ip, ps("p & q => q"), cache=None)
        assert r.stats.nodes >= 1

    @pytest.mark.parametrize("name", ["G4ip", "G3ip", "G3cp"])
    def test_warm_cache_rebuilds_without_matching(self, name, monkeypatch):
        # every proved sequent keeps its derivation, axiom leaves included,
        # so a warm query is answered from the cache alone
        calc = builtin(name)
        s = ps("p & (p -> q) => q | r")
        cache = ProverCache(calc)
        first = prove(calc, s, cache=cache)
        assert first.provable
        calls = []
        match = calculus.match_metasequent

        def counted(*args):
            calls.append(args)
            return match(*args)

        for module in (calculus, prover):
            monkeypatch.setattr(module, "match_metasequent", counted)
        again = prove(calc, s, cache=cache)
        assert again.derivation == first.derivation and again.stats.nodes == 0
        assert calls == []
        assert [n.assignment for n in again.derivation.nodes()] == \
            [n.assignment for n in first.derivation.nodes()]


    @pytest.mark.parametrize("name", ["G4ip", "G3ip", "G3cp"])
    def test_warm_cache_returns_the_stored_derivation(self, name):
        calc = builtin(name)
        s = ps("p & (p -> q) => q | r")
        cache = ProverCache(calc)
        first = prove(calc, s, cache=cache)
        again = prove(calc, s, cache=cache)
        assert again.derivation is cache.proved[s] is first.derivation
        # each child is the derivation stored for its premise (G3ip is
        # decided by saturation, G3cp and G4ip by recursive search)
        for node in first.derivation.nodes():
            for c in node.children:
                assert c is cache.proved[c.conclusion]
        assert check_derivation(calc, first.derivation) == []

    @pytest.mark.parametrize("name", ["G3cp", "G3ip"])
    def test_duplicates_are_padded_back(self, name):
        # the search runs on support sequents; the answer is padded back to
        # the multisets asked for, at the root and below a rule whose
        # premise repeats a formula
        calc = builtin(name)
        text = "p & p, p & p, q => p" if name == "G3ip" else "p & p, p & p, q => p, p"
        s = ps(text)
        cache = ProverCache(calc)
        for _ in range(2):
            d = prove(calc, s, cache=cache).derivation
            assert d.conclusion == s and check_derivation(calc, d) == []
            assert d is not cache.proved[Sequent(s.ant.support(), s.suc.support())]
            assert d.children[0].conclusion == ps(
                "p, p, p & p, q => p" + ("" if name == "G3ip" else ", p"))


class TestRootHit:
    """A root the cache holds is answered without a search: the first
    answer again, with no node visited."""

    @pytest.mark.parametrize("name", ["G4ip", "G3cp", "G1ip"])
    def test_second_prove_repeats_the_first(self, name):
        calc = builtin(name)
        cache = ProverCache(calc)
        single = calc.mode == "single"
        seqs = list(corpus.sequents(("p", "q"), 4, single))[::7]
        # duplicates on both sides, so that the answer is padded back
        seqs += [ps("p & p, p & p, q => p"), ps("p, p => q"), ps("p, p -> q, p => q")]
        if not single:
            seqs += [ps("p, p => p, q, q"), ps("q, q => p, p")]
        seen = {"provable": 0, "unprovable": 0}
        for s in seqs:
            first = prove(calc, s, cache=cache)
            again = prove(calc, s, cache=cache)
            assert again.stats.nodes == 0
            assert (again.status, again.exhaustive) == (first.status, first.exhaustive) \
                == (first.status, True)
            assert again.derivation == first.derivation
            if again.provable:
                assert again.derivation.conclusion == s
                assert check_derivation(calc, again.derivation) == []
            seen[again.status] += 1
        assert all(seen.values()), seen

    def test_checks_run_before_the_lookup(self, g4ip, g3cp, g3ip):
        s = ps("p => p")
        cache = ProverCache(g4ip)
        assert prove(g4ip, s, cache=cache).provable
        with pytest.raises(ValueError, match="belongs to G4ip"):
            prove(g3cp, s, cache=cache)
        # G3ip searches support forms: "p => p" is the root of "p => p, p"
        cache = ProverCache(g3ip)
        assert prove(g3ip, s, cache=cache).provable
        assert s in cache.proved
        with pytest.raises(ValueError, match="single-conclusion"):
            prove(g3ip, ps("p => p, p"), cache=cache)


class TestDerivationOnRead:
    """The cache keeps each proved sequent's proof record, and a derivation
    is built only when a caller reads one: yes/no callers build none."""

    @pytest.mark.parametrize("name", sorted(PARITY_CORPORA))
    def test_status_only_prove_builds_no_derivation(self, name, monkeypatch):
        calc = builtin(name)
        weight, modal = PARITY_CORPORA[name]
        built = []
        init = Derivation.__init__

        def counted(self, *args):
            built.append(args[0])
            init(self, *args)

        monkeypatch.setattr(Derivation, "__init__", counted)
        cache = ProverCache(calc)
        results = [prove(calc, s, cache=cache)
                   for s in corpus.sequents(("p", "q"), weight, calc.mode == "single", modal)]
        proved = [r for r in results if r.provable]
        assert proved and built == []
        assert check_derivation(calc, proved[-1].derivation) == [] and built

    @pytest.mark.parametrize("name, text", [
        ("G4ip", "p & (p -> q) => q | r"),
        ("G3cp", "p & p, p & p, q => p, p"),
        ("G1cp", "p & p, p & p, q => p, p"),
        ("G1ip", "p, p -> q, p => q"),
    ])
    def test_a_read_derivation_is_kept(self, name, text):
        calc = builtin(name)
        cache = ProverCache(calc)
        for res in (prove(calc, ps(text), cache=cache), prove(calc, ps(text), cache=cache)):
            d = res.derivation
            assert d is res.derivation
            assert d.conclusion == ps(text) and check_derivation(calc, d) == []

    @pytest.mark.parametrize("name", ["G4ip", "G3ip", "G3cp", "G1ip", "G1cp"])
    def test_sequents_proved_in_failed_searches_derive_as_roots(self, name):
        calc = builtin(name)
        single = calc.mode == "single"
        seqs = list(corpus.sequents(("p", "q"), 5, single))
        probe = ProverCache(calc)
        refuted = [s for s in seqs if not prove(calc, s, cache=probe).provable]
        cache = ProverCache(calc)
        assert not any(prove(calc, s, cache=cache).provable for s in refuted)
        # every sequent proved so far was proved inside a failed search
        found = list(cache.proved)
        assert any(not prove(calc, s, cache=ProverCache(calc)).derivation.is_leaf
                   for s in found)
        for s in found:
            res = prove(calc, s, cache=cache)
            assert res.provable and res.stats.nodes == 0
            assert res.derivation.conclusion == s
            assert check_derivation(calc, res.derivation) == [], s

    @pytest.mark.parametrize("name", ["G4ip", "G3ip"])
    def test_records_keep_the_cached_premises(self, name):
        # a premise proved earlier is held as the cached sequent, not as an
        # equal copy that only the record would keep alive
        calc = builtin(name)
        cache = ProverCache(calc)
        for s in corpus.sequents(("p", "q"), 5, True):
            prove(calc, s, cache=cache)
        held = [p for rec in cache.proved.values() for p in rec.premises if p in cache.proved]
        assert held and all(cache.proved[p].conclusion is p for p in held)

    def test_status_only_g1_query_makes_no_rewrite_match(self, g1cp, monkeypatch):
        # the G1 rewrite re-matches each structural step; a caller that
        # reads only the status makes the G3 form's matches and no more
        s = ps("p & p, p & p, q => p, p")
        calls = []
        match = calculus.match_metasequent

        def counted(*args):
            calls.append(args)
            return match(*args)

        for module in (calculus, prover):
            monkeypatch.setattr(module, "match_metasequent", counted)
        g3 = g1cp.searched
        assert prove(g3, s, cache=ProverCache(g3)).provable
        searched = len(calls)
        calls.clear()
        res = prove(g1cp, s, cache=ProverCache(g1cp))
        assert res.provable and len(calls) == searched
        assert check_derivation(g1cp, res.derivation) == []
        assert len(calls) > searched

    def test_deep_padded_derivation_reads_under_a_low_recursion_limit(self, g3ip):
        # 1,500 nested conjunctions, each taken apart by L&, under a root
        # padded back to its duplicate p
        n = 1_500
        conj_text = f"a{n}"
        for i in reversed(range(1, n)):
            conj_text = f"a{i} & ({conj_text})"
        s = ps(f"p, p, {conj_text} => a{n}")
        res = prove(g3ip, s, cache=ProverCache(g3ip))
        assert res.provable
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            d = res.derivation
        except RecursionError:
            # not re-raised: pytest would render a thousand frames of it
            d = None
        finally:
            sys.setrecursionlimit(limit)
        assert d is not None, "reading the derivation recursed"
        assert d.depth() > 1_000
        assert d.conclusion == s and check_derivation(g3ip, d) == []

    def test_one_read_builds_every_record(self, g4ip):
        # records of failed branches too, not only those below the root
        cache = ProverCache(g4ip)
        results = [prove(g4ip, s, cache=cache) for s in corpus.sequents(("p", "q"), 5, True)]
        assert any(not r.provable for r in results)
        next(r for r in results if r.provable).derivation
        assert all(v.__class__ is Derivation for v in cache.proved.values())
        assert cache.pending == []

    def test_each_record_is_built_once(self, g4ip, monkeypatch):
        built = []
        init = Derivation.__init__

        def counted(self, *args):
            built.append(args[0])
            init(self, *args)

        monkeypatch.setattr(Derivation, "__init__", counted)
        weight, modal = PARITY_CORPORA["G4ip"]
        cache = ProverCache(g4ip)
        results = [prove(g4ip, s, cache=cache) for s in corpus.sequents(("p", "q"), weight, True)]
        for r in results:
            r.derivation
        assert len(built) == len(cache.proved)

    def test_sequents_proved_in_a_budget_search_are_built_later(self, g4ip):
        cache = ProverCache(g4ip)
        s = ps("p & q, r & s => (q & p) & (s & r)")
        assert prove(g4ip, s, SearchBudget(max_nodes=8), cache=cache).status == "budget"
        stranded = list(cache.proved)
        assert stranded
        assert prove(g4ip, ps("p => p"), cache=cache).derivation.is_leaf
        for t in stranded:
            d = cache.proved[t]
            assert d.__class__ is Derivation and d.conclusion == t
            assert check_derivation(g4ip, d) == [], t
        assert not all(cache.proved[t].is_leaf for t in stranded)

    def test_an_interrupted_read_strands_no_record(self, g3ip, monkeypatch):
        derive = prover._derive
        calls = []

        def failing_once(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("interrupted")
            return derive(*args)

        monkeypatch.setattr(prover, "_derive", failing_once)
        s = ps("p, p, p & q, q -> r => r & (q & p)")
        res = prove(g3ip, s, cache=ProverCache(g3ip))
        with pytest.raises(RuntimeError):
            res.derivation
        d = res.derivation
        assert len(calls) > 3
        assert d.conclusion == s and check_derivation(g3ip, d) == []


class TestDecide:
    def test_named_formulas(self):
        assert decide("CPC", pf("((p -> q) -> p) -> p"))
        assert not decide("IPC", pf("((p -> q) -> p) -> p"))
        assert decide("LL", pf("OOp -> Op"))
        assert decide("LL", pf("p -> Op"))
        assert decide("LL", pf("Op & Oq -> O(p & q)"))

    def test_budget_is_never_unprovable(self, monkeypatch):
        # every yes/no reader of a search raises on a budget result
        monkeypatch.setattr(prover, "SearchBudget", partial(SearchBudget, max_nodes=3))
        g4ip, g3cp = builtin("G4ip"), builtin("G3cp")
        peirce = pf("((s -> r) -> s) -> s")
        # the certificate sequents of a derivation found with the full budget
        s = ps("p & q, (p -> r) & (q -> s) => r & s")
        proved = prove(g4ip, s, budget=SearchBudget())
        split = SplitAnt(FMultiset([s.ant[0]]), FMultiset([s.ant[1]]), s.suc)
        target = Sequent(FMultiset([peirce]), FMultiset([pf("r")]))
        for ask in (lambda: decide("IPC", peirce, ProverCache(g4ip)),
                    lambda: split_disjunction("IPC", pf("(((r -> s) -> r) -> r) | s")),
                    lambda: formula_interpolant("IPC", imp(peirce, pf("s | r")), ProverCache(g4ip)),
                    lambda: formula_interpolant("CPC", imp(peirce, pf("s & (r -> r)"))),
                    lambda: craig_interpolate(InterpolationProblem(g4ip, proved.derivation, split),
                                              ProverCache(g4ip)),
                    lambda: ipc_uniform(ps("(r -> s) -> r, s | r => r & s"), "s", ProverCache(g4ip)),
                    lambda: verify_uniform(g3cp, classical_uniform(target, "s"),
                                           cache=ProverCache(g3cp))):
            with pytest.raises(prover.BudgetExceeded):
                ask()

    def test_kreisel_putnam_instance(self):
        assert not decide("IPC", pf("(~p -> q | r) -> ((~p -> q) | (~p -> r))"))

    def test_truth_table_agreement_small(self, g3cp, caches):
        cache = caches(g3cp)
        for s in corpus.sequents(("p", "q"), 5):
            assert prove(g3cp, s, cache=cache).provable == \
                truth_table_valid(s, ("p", "q")), s

    def test_equivalence_small(self, g3ip, g4ip, g1ip, caches):
        for f in corpus.formulas(("p", "q"), 5):
            s = Sequent(FMultiset(), FMultiset([f]))
            a = prove(g3ip, s).provable
            b = prove(g4ip, s, cache=caches(g4ip)).provable
            c = prove(g1ip, s).provable
            assert a == b == c, s


class TestCut:
    def test_lemma_combination(self, g3ip):
        # lemmas q => psi and ~q => psi combine under L| and Cut
        psi = ps("p | ~p => (q -> p) | (p -> q)")
        pool = [f for f in (pf("p"), pf("~p"), pf("q -> p"), pf("p -> q"))]
        with_cut_result = prove_with_cut(g3ip, psi, cut_pool=pool)
        assert with_cut_result.provable
        assert prove(g3ip, psi).provable

    def test_empty_pool_same_as_prove(self, g4ip, caches):
        s = ps("=> p -> p")
        assert prove_with_cut(g4ip, s, cut_pool=[]).provable == \
            prove(g4ip, s, cache=caches(g4ip)).provable

    def test_cut_derivation_checks_in_extended_calculus(self, g3ip):
        s = ps("p & q => q & p")
        r = prove_with_cut(g3ip, s, cut_pool=[pf("q")])
        assert r.provable
        assert check_derivation(with_cut(g3ip), r.derivation) == []

    def test_cut_probe_small(self, g3cp):
        cs = list(itertools.islice(
            (s for s in corpus.sequents(("p", "q"), 4)), 200))
        report = admissibility_probe(g3cp, "Cut", cs)
        assert report.ok, report.render()

    def test_cut_probe_raises_on_a_budget_search(self, g4ip, monkeypatch):
        # a cut search out of budget has no answer: not a skipped case
        monkeypatch.setattr(prover, "CUT_BUDGET", SearchBudget(max_depth=64, max_nodes=100))
        with pytest.raises(prover.BudgetExceeded):
            admissibility_probe(g4ip, "Cut", [ps("=> ~p")])


class TestInversion:
    def test_left_and(self, g3cp):
        assert invert(g3cp, ps("r, p & q => s"), "left", pf("p & q")) == \
            [ps("r, p, q => s")]

    def test_right_imp_classical(self, g3cp):
        assert invert(g3cp, ps("=> p -> q, r"), "right", pf("p -> q")) == \
            [ps("p => q, r")]

    def test_left_imp_single_conclusion_caveat(self, g3ip):
        assert invert(g3ip, ps("p -> q => r"), "left", pf("p -> q")) == \
            [ps("q => r")]

    def test_left_imp_classical(self, g3cp):
        assert invert(g3cp, ps("p -> q => r"), "left", pf("p -> q")) == \
            [ps("=> p, r"), ps("q => r")]

    def test_shape_mismatch(self, g3cp):
        with pytest.raises(ShapeMismatch):
            invert(g3cp, ps("p => q"), "left", pf("p & q"))

    def test_depth_monotone_small(self, g3cp):
        memo = {}
        for s in corpus.sequents(("p", "q"), 5):
            n = min_depth(g3cp, s, memo)
            if n is None:
                continue
            for f in set(s.ant.support()):
                if f.kind in ("and", "or", "imp"):
                    for prem in invert(g3cp, s, "left", f):
                        m = min_depth(g3cp, prem, memo)
                        assert m is not None and m <= n, (s, prem)
            for f in set(s.suc.support()):
                if f.kind in ("and", "or", "imp"):
                    for prem in invert(g3cp, s, "right", f):
                        m = min_depth(g3cp, prem, memo)
                        assert m is not None and m <= n, (s, prem)


class TestDisjunctionProperty:
    def test_left_right_neither(self):
        assert split_disjunction("IPC", pf("(p -> p) | q")) == "Left"
        assert split_disjunction("IPC", pf("q | (p -> p)")) == "Right"
        assert split_disjunction("IPC", pf("p | ~p")) == "Neither"

    def test_not_a_disjunction(self):
        with pytest.raises(NotADisjunction):
            split_disjunction("IPC", pf("p -> p"))

    def test_corpus_disjunctions(self, caches, g4ip):
        cache = caches(g4ip)
        for f in corpus.formulas(("p", "q"), 6):
            if f.kind != "or":
                continue
            if prove(g4ip, Sequent(FMultiset(), FMultiset([f])), cache=cache).provable:
                assert split_disjunction("IPC", f) != "Neither", f


class TestStructuralProbes:
    def test_weakening_depth_preserving_small(self, g3cp):
        cs = [s for s in corpus.sequents(("p", "q"), 4)]
        extras = [p, q, Bot, disj(p, q)]
        for rule in ("LW", "RW"):
            report = admissibility_probe(g3cp, rule, cs, extras)
            assert report.ok, report.render()
            assert report.checked > 0

    def test_contraction_depth_preserving_small(self, g3cp):
        cs = [s for s in corpus.sequents(("p", "q"), 5)]
        for rule in ("LC", "RC"):
            report = admissibility_probe(g3cp, rule, cs)
            assert report.ok, report.render()
            assert report.checked > 0


class TestCrossProverOracles:
    def test_glivenko(self, caches, g3cp, g4ip):
        # classical provability of f matches intuitionistic provability of ~~f
        c3, c4 = caches(g3cp), caches(g4ip)
        for f in corpus.formulas(("p", "q"), 6):
            classical = prove(g3cp, Sequent(FMultiset(), FMultiset([f])),
                              cache=c3).provable
            nn = prove(g4ip, Sequent(FMultiset(), FMultiset([neg(neg(f))])),
                       cache=c4).provable
            assert classical == nn, f

    def test_modal_extension_monotone(self):
        from proofkit.calculus import builtin
        g4ik, g4ikd = builtin("G4iK"), builtin("G4iKD")
        from proofkit.prover import ProverCache
        ck, ckd = ProverCache(g4ik), ProverCache(g4ikd)
        for f in corpus.formulas(("p",), 6, modal="box"):
            s = Sequent(FMultiset(), FMultiset([f]))
            if prove(g4ik, s, cache=ck).provable:
                assert prove(g4ikd, s, cache=ckd).provable, f

    def test_conservative_over_modal_free(self, caches, g4ip):
        from proofkit.calculus import builtin
        from proofkit.prover import ProverCache
        g4ll = builtin("G4LL")
        cll = ProverCache(g4ll)
        c4 = caches(g4ip)
        for f in corpus.formulas(("p", "q"), 5):
            s = Sequent(FMultiset(), FMultiset([f]))
            assert prove(g4ll, s, cache=cll).provable == \
                prove(g4ip, s, cache=c4).provable, f


class TestMinDepth:
    def test_axiom_depth_one(self, g3cp):
        assert min_depth(g3cp, ps("p => p")) == 1

    def test_lem_depth(self, g3cp):
        assert min_depth(g3cp, ps("=> p | ~p")) == 3

    def test_unprovable_none(self, g3cp):
        assert min_depth(g3cp, ps("=> p")) is None
