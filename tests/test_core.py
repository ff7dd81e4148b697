import gc
import itertools
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from proofkit.core import (EMPTY, FMultiset, Formula, Sequent, Top, Bot,
                           atom, conj, disj, imp, neg, box, circle, atoms,
                           degree, weight, subformulas, polarity_atoms, apply_subst,
                           interpret, multiset_less, sequent_less, sequent,
                           SplitAnt, sub_multisets,
                           fconj, fdisj, fimp, fconj_all, fdisj_all, fmeta, ameta)
from proofkit.syntax import parse_formula as pf, parse_sequent as ps
from proofkit import corpus

p, q, r = atom("p"), atom("q"), atom("r")


def formula_strategy(names=("p", "q"), max_leaves=8):
    leaf = st.one_of(st.sampled_from([atom(n) for n in names]),
                     st.just(Bot), st.just(Top))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(conj, sub, sub),
            st.builds(disj, sub, sub),
            st.builds(imp, sub, sub),
            st.builds(box, sub),
            st.builds(circle, sub),
        ),
        max_leaves=max_leaves)


# reference definitions of the stored facts, recursive as in the notes
_RANK = {"bot": 0, "top": 1, "atom": 2, "ameta": 3, "fmeta": 4,
         "box": 5, "circle": 6, "and": 7, "or": 8, "imp": 9}


def ref_weight(f):
    if f.kind in ("box", "circle"):
        return ref_weight(f.a) + 1
    if f.kind in ("and", "or", "imp"):
        return ref_weight(f.a) + ref_weight(f.b) + (2 if f.kind == "and" else 1)
    return 1


def ref_degree(f):
    if f.kind in ("box", "circle"):
        return ref_degree(f.a) + 1
    if f.kind in ("and", "or", "imp"):
        return ref_degree(f.a) + ref_degree(f.b) + 1
    return 0 if f.kind in ("top", "bot") else 1


def ref_key(f):
    rank = _RANK[f.kind]
    if f.kind in ("top", "bot"):
        return (1, rank)
    if f.kind in ("box", "circle"):
        return (ref_weight(f), rank, ref_key(f.a))
    if f.kind in ("and", "or", "imp"):
        return (ref_weight(f), rank, ref_key(f.a), ref_key(f.b))
    return (1, rank, f.a)


class TestFormulas:
    def test_interning(self):
        assert conj(p, q) is conj(p, q)
        assert imp(p, Bot) is neg(p)
        # formula equality is identity: parsing, substitution and pattern
        # instantiation must all return the interned objects
        from proofkit.calculus import builtin, match_conclusion, subst_pattern
        from proofkit.syntax import render_formula
        swap = {"p": q, "q": imp(p, q)}
        for f in corpus.formulas(("p", "q"), 6):
            assert pf(render_formula(f)) is f
            g = apply_subst(swap, f)
            assert pf(render_formula(g)) is g
        g4ip = builtin("G4ip")
        for s in corpus.sequents(("p", "q"), 5, single=True):
            for inst in match_conclusion(g4ip, s):
                conc = inst.rule.conclusion
                for pat in conc.ant.pats:
                    f = subst_pattern(pat, inst.assignment)
                    assert any(f is x for x in s.ant), (s, pat)
                for pat in conc.suc.pats:
                    f = subst_pattern(pat, inst.assignment)
                    assert any(f is x for x in s.suc), (s, pat)

    def test_structural_equality(self):
        assert conj(p, q) != conj(q, p)
        assert box(p) != circle(p)

    def test_atoms(self):
        assert atoms(pf("p & (q -> false)")) == {"p", "q"}
        assert atoms(Top) == set()
        assert atoms(pf("[]p | p")) == {"p"}

    def test_subformulas(self):
        assert subformulas(imp(p, q)) == {imp(p, q), p, q}
        assert subformulas(box(p)) == {box(p), p}
        assert subformulas(Bot) == {Bot}

    def test_degree(self):
        assert degree(Bot) == 0 and degree(Top) == 0
        assert degree(conj(p, q)) == 3
        assert degree(box(imp(p, Bot))) == 3

    def test_weight(self):
        assert weight(disj(p, q)) == 3
        assert weight(conj(p, q)) == 4
        assert weight(circle(p)) == 2
        assert weight(box(p)) == 2
        assert weight(atom("x")) == weight(Bot) == weight(Top) == 1

    def test_polarity(self):
        assert polarity_atoms(imp(p, q)) == ({"q"}, {"p"})
        assert polarity_atoms(pf("(p -> q) -> r")) == ({"p", "r"}, {"q"})
        assert polarity_atoms(conj(p, neg(p))) == ({"p"}, {"p"})

    @given(formula_strategy())
    def test_polarity_union(self, f):
        pos, negs = polarity_atoms(f)
        assert pos | negs == atoms(f)

    @given(st.lists(formula_strategy(("p", "q", "r")), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_stored_facts_match_the_recursive_definitions(self, xs):
        pats = [fmeta("A"), ameta("p"), imp(ameta("p"), fmeta("B")), box(fmeta("A")),
                conj(fmeta("A"), Top), disj(circle(ameta("q")), neg(fmeta("A")))]
        for f in xs + pats:
            assert (weight(f), degree(f)) == (ref_weight(f), ref_degree(f))
            assert Formula.sort_key(f) == ref_key(f)
        assert sorted(xs, key=Formula.sort_key) == sorted(xs, key=ref_key)
        assert list(FMultiset(xs + pats)) == sorted(xs + pats, key=ref_key)

    def test_facts_beyond_the_recursion_limit(self):
        f = p
        for _ in range(20_000):
            f = imp(q, f)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        try:
            facts = (weight(f), degree(f), atoms(f), Formula.sort_key(f)[:2],
                     FMultiset([f, p]), polarity_atoms(f))
        finally:
            sys.setrecursionlimit(limit)
        assert facts == (40_001, 40_001, {"p", "q"}, (40_001, 9), (p, f), ({"p"}, {"q"}))


class TestSubstitution:
    def test_homomorphism(self):
        s = {"p": conj(q, r)}
        assert apply_subst(s, imp(p, p)) == imp(conj(q, r), conj(q, r))

    def test_identity(self):
        f = pf("(p -> q) & ~r")
        assert apply_subst({}, f) is f

    def test_negation_clause(self):
        assert apply_subst({"p": Bot}, neg(p)) == imp(Bot, Bot)

    @given(formula_strategy(("p", "q", "r")))
    def test_atoms_bound(self, f):
        s = {"p": disj(q, r), "q": Bot}
        image = atoms(apply_subst(s, f))
        allowed = set()
        for a in atoms(f):
            allowed |= atoms(s[a]) if a in s else {a}
        assert image <= allowed


class TestMultisets:
    def test_multiplicity(self):
        m = FMultiset([p, p, q])
        assert m.count(p) == 2 and len(m) == 3
        assert m == FMultiset([q, p, p])
        assert m != FMultiset([p, q])

    def test_union_difference_containment(self):
        a, b = FMultiset([p, q]), FMultiset([p])
        assert a.union(b).count(p) == 2
        assert a.difference(b) == FMultiset([q])
        assert a.contains(b) and not b.contains(a)
        assert FMultiset([p, p]).contains(FMultiset([p]))
        assert not FMultiset([p]).contains(FMultiset([p, p]))

    @given(st.lists(formula_strategy(max_leaves=3), max_size=8),
           st.lists(formula_strategy(max_leaves=3), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_difference_and_contains_match_a_counter(self, xs, ys):
        # multiplicities on both sides, members of ys absent from xs
        a, b = FMultiset(xs), FMultiset(ys)
        want = Counter(xs) - Counter(ys)
        got = a.difference(b)
        assert Counter(got) == want
        assert got == FMultiset(want.elements())
        assert a.difference(ys) == got
        assert a.contains(b) == (not Counter(ys) - Counter(xs))
        assert a.contains(ys) == a.contains(b)
        assert a.contains(got) and a.contains(FMultiset())
        # every result is a multiset in canonical order with the Counter's members
        results = [(got, want), (a.add(*ys), Counter(xs) + Counter(ys)),
                   (a.union(b), Counter(xs) + Counter(ys)),
                   (a.union(ys), Counter(xs) + Counter(ys)),
                   (a.support(), Counter(set(xs)))]
        if xs:
            results.append((a.remove(xs[-1]), Counter(xs) - Counter(xs[-1:])))
        for res, counts in results:
            assert type(res) is FMultiset and Counter(res) == counts
            assert list(res) == sorted(res, key=Formula.sort_key)

    def test_a_multiset_is_its_canonical_tuple(self):
        m = FMultiset([p, q, q])
        # one object: its only references are its members (and its class)
        refs = [x for x in gc.get_referents(m) if x is not FMultiset]
        assert len(refs) == 3 and all(isinstance(x, Formula) for x in refs)
        one = FMultiset([p])
        assert FMultiset() is EMPTY and FMultiset([]) is EMPTY
        for empty in (one.remove(p), one.difference([p]), EMPTY.add(), EMPTY.union(()),
                      EMPTY.support(), one.difference(one), FMultiset._wrap([])):
            assert empty is EMPTY
        with pytest.raises(AttributeError):
            m.extra = 1
        assert FMultiset([q, p]) == (p, q) and FMultiset([q, p]) != (q, p)

    def test_sequent_keys_found_from_rendered_text(self):
        # formulas hash by identity; re-parsing yields the interned objects,
        # so a sequent rebuilt from its text finds the original key
        from proofkit.syntax import render_sequent
        seqs = list(corpus.sequents(("p", "q"), 5))
        table = {s: i for i, s in enumerate(seqs)}
        assert len(table) == len(seqs)
        for i, s in enumerate(seqs):
            again = ps(render_sequent(s))
            assert again is not s and hash(again) == hash(s)
            assert table[again] == i

    def test_sub_multisets(self):
        m = FMultiset([p, p, q])
        splits = sub_multisets(m)
        assert len(splits) == 6 and len(set(splits)) == 6
        assert all(part.union(rest) == m for part, rest in splits)
        assert splits[0] == (FMultiset(), m) and splits[-1] == (m, FMultiset())
        # the first distinct member's share varies fastest
        assert [part for part, _ in splits[:3]] == \
            [FMultiset(), FMultiset([p]), FMultiset([p, p])]
        assert sub_multisets(FMultiset()) == [(FMultiset(), FMultiset())]

    def test_sub_multisets_movable(self):
        m = FMultiset([p, q, q])
        splits = sub_multisets(m, lambda f: f != p)
        assert len(splits) == 3
        assert all(p not in part and part.union(rest) == m for part, rest in splits)


class TestOrders:
    def test_degree_example(self):
        assert multiset_less(FMultiset([p, q]), FMultiset([conj(p, q)]), "degree")

    def test_irreflexive(self):
        m = FMultiset([conj(p, q)])
        assert not multiset_less(m, m, "degree")
        assert not multiset_less(m, m, "weight")

    def test_replacement_with_duplicates(self):
        # {p,p,p} from {p|p}: every new member has weight 1 < 3 = w(p|p)
        assert multiset_less(FMultiset([p, p, p]), FMultiset([disj(p, p)]), "weight")
        assert not multiset_less(FMultiset([disj(p, p)]), FMultiset([p, p, p]), "weight")

    def test_removal_only(self):
        assert multiset_less(FMultiset([p]), FMultiset([p, q]), "weight")

    def test_sequent_less(self):
        assert sequent_less(ps("p => q"), ps("p & p => q"), "degree")
        s = ps("p => q")
        assert not sequent_less(s, s, "degree")
        assert sequent_less(ps("p, q =>"), ps("=> p & q"), "degree")

    def test_strict_partial_order_small(self):
        bags = [FMultiset(items) for items in
                itertools.chain.from_iterable(
                    itertools.combinations_with_replacement(
                        list(corpus.formulas(("p", "q"), 3)), k)
                    for k in range(3))]
        rel = {}
        for a in bags:
            for b in bags:
                rel[(a, b)] = multiset_less(a, b, "weight")
        for a in bags:
            assert not rel[(a, a)]
        for (a, b), ab in rel.items():
            if not ab:
                continue
            assert not rel[(b, a)], "antisymmetry"
            for c in bags:
                if rel[(b, c)]:
                    assert rel[(a, c)], "transitivity"

    def test_well_founded_small(self):
        # no cycles over all bags of total weight <= 8 over {p}
        pool = list(corpus.formulas(("p",), 6))
        bags = set()

        def grow(prefix, budget, start):
            bags.add(FMultiset(prefix))
            for i in range(start, len(pool)):
                w = weight(pool[i])
                if w <= budget:
                    grow(prefix + (pool[i],), budget - w, i)

        grow((), 8, 0)
        order = sorted(bags, key=lambda m: sum(weight(f) for f in m))
        seen = set()
        for b in order:
            for a in seen:
                if multiset_less(b, a, "weight") and multiset_less(a, b, "weight"):
                    pytest.fail(f"cycle between {a} and {b}")
            seen.add(b)

    @given(formula_strategy(("p", "q")), st.sampled_from(["degree", "weight"]))
    @settings(max_examples=60)
    def test_measure_monotone_under_smaller_part(self, f, measure):
        # replacing a proper subformula by a strictly smaller one shrinks the whole
        from proofkit.core import _measure_fn, _mk, BINARY, UNARY
        m = _measure_fn(measure)
        if f.kind in BINARY:
            smaller = Bot if m(Bot) < m(f.a) else None
            if smaller is not None:
                g = _mk(f.kind, smaller, f.b)
                assert m(g) < m(f)
        elif f.kind in UNARY:
            if m(Bot) < m(f.a):
                g = _mk(f.kind, Bot)
                assert m(g) < m(f)


class TestFolds:
    def test_units(self):
        assert fconj(Top, p) is p and fconj(p, Bot) is Bot
        assert fdisj(Bot, p) is p and fdisj(p, Top) is Top
        assert fimp(Top, p) is p and fimp(p, Top) is Top and fimp(Bot, p) is Top
        assert fimp(imp(p, q), imp(p, q)) is Top
        assert fimp(p, q) is imp(p, q)

    def test_canonical_order(self):
        assert fconj(q, p) is fconj(p, q) is conj(p, q)
        assert fdisj(q, p) is disj(p, q)
        assert fconj_all([]) is Top and fdisj_all([]) is Bot
        assert fconj_all([Top, p]) is p and fdisj_all([Bot, q, Bot]) is q


class TestSequents:
    def test_single_conclusion(self):
        assert ps("p =>").is_single_conclusion()
        assert ps("p => q").is_single_conclusion()
        assert not ps("=> p, q").is_single_conclusion()

    def test_interpret(self):
        assert interpret(ps("=> p")) == imp(Top, p)
        assert interpret(ps("p, q =>")) == imp(conj(p, q), Bot)
        assert interpret(ps("=>")) == imp(Top, Bot)

    def test_interpret_canonical_fold(self):
        # members folded in canonical (weight, structural) order
        s = sequent([conj(p, q), r], [])
        assert interpret(s) == imp(conj(r, conj(p, q)), Bot)


class TestPartitions:
    def test_split_ant_underlying(self):
        sp = SplitAnt([p], [q], [r])
        assert sp.underlying() == ps("p, q => r")


class TestCorpus:
    @pytest.mark.parametrize("names", [("p",), ("p", "q")])
    @pytest.mark.parametrize("single", [False, True])
    @pytest.mark.parametrize("modal", [None, "box"])
    def test_count_sequents_matches_the_enumeration(self, names, single, modal):
        for w in range(7):
            counted = corpus.count_sequents(names, w, single, modal)
            assert counted == sum(1 for _ in corpus.sequents(names, w, single, modal)), w
