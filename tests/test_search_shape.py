"""The calculus, not its name, picks the search: `structural wc-admissible`
is declared, saturation and the G3 form of a calculus with weakening and
contraction rules follow from the rules, and caches answer for their own
calculus only."""

import gc
import re
import weakref

import pytest

from proofkit import corpus
from proofkit.calculus import (BadRuleShape, _SOURCES, builtin, builtin_names,
                               from_document)
from proofkit.prover import (ProverCache, SearchBudget, ShapeMismatch,
                             check_derivation, invert, prove, prove_with_cut,
                             _support, shared_cache, with_cut)
from proofkit.syntax import ParseError, parse_calculus, parse_formula as pf, \
    parse_sequent as ps
from proofkit.uniform import ipc_uniform, verify_uniform


def renamed(name, new_name="Renamed"):
    """The builtin's DSL text parsed under another calculus name."""
    text = _SOURCES[name.lower()].replace(f"calculus {name}\n", f"calculus {new_name}\n")
    calc = from_document(parse_calculus(text))
    assert calc.name == new_name
    return calc


def user(text):
    return from_document(parse_calculus(text))


def test_declared_and_derived_shapes():
    for name in builtin_names():
        calc = builtin(name)
        assert calc.wc_admissible == (name in ("G3cp", "G3ip")), name

    def shapes(calc):
        return {r.name: (kind, side, a) for (kind, side), (r, a) in calc.structural.items()}

    assert shapes(builtin("G1cp")) == {"LW": ("W", 0, "A"), "RW": ("W", 1, "A"),
                                       "LC": ("C", 0, "A"), "RC": ("C", 1, "A")}
    assert shapes(builtin("G1ip")) == {"LW": ("W", 0, "A"), "RW": ("W", 1, "A"),
                                       "LC": ("C", 0, "A")}
    for name in ("G1cp", "G1ip"):
        g3 = builtin(name).searched
        assert g3.wc_admissible and g3.termination_measure is None, name
        assert not {"LW", "RW", "LC", "RC"} & set(g3.rule_names()), name
    for name in ("G3cp", "G3ip", "G4ip", "G4iK", "G4iKD", "G4LL"):
        calc = builtin(name)
        assert calc.structural == {} and calc.searched is calc, name


@pytest.mark.parametrize("name", builtin_names())
def test_renamed_builtin_searches_identically(name):
    calc, twin = builtin(name), renamed(name)
    assert twin == calc and twin.name != calc.name
    seqs = list(corpus.sequents(("p", "q"), 5, single=calc.mode == "single"))
    if name in ("G4iK", "G4iKD"):
        seqs += [ps("=> ~[]false"), ps("[]p, [](p -> q) => []q")]
    if name == "G4LL":
        seqs += [ps("=> p -> Op"), ps("OOp => Op")]
    for s in seqs:
        a = prove(calc, s, cache=ProverCache(calc))
        b = prove(twin, s, cache=ProverCache(twin))
        assert (a.status, a.exhaustive, a.stats.nodes) == \
            (b.status, b.exhaustive, b.stats.nodes), s
        assert a.derivation == b.derivation, s
        if b.provable:
            assert check_derivation(twin, b.derivation) == [], s


@pytest.mark.parametrize("name", ["G3cp", "G3ip"])
def test_renamed_builtin_cut_search_identical(name):
    calc, twin = builtin(name), renamed(name)
    single = calc.mode == "single"
    for s in list(corpus.sequents(("p", "q"), 4, single=single))[:150]:
        a, b = prove_with_cut(calc, s), prove_with_cut(twin, s)
        assert (a.status, a.exhaustive, a.stats.nodes) == \
            (b.status, b.exhaustive, b.stats.nodes), s
        assert a.derivation == b.derivation, s


def context_renamed(name):
    """The builtin's DSL text with its contexts named P and S, not G and D."""
    text = re.sub(r"\bG\b", "P", re.sub(r"\bD\b", "S", _SOURCES[name.lower()]))
    calc = from_document(parse_calculus(text))
    assert calc != builtin(name) and calc.name == name
    return calc


@pytest.mark.parametrize("name", ["G3cp", "G3ip"])
def test_padding_follows_the_schema_contexts(name):
    # padded nodes keep a witness whatever the contexts are called
    calc, twin = builtin(name), context_renamed(name)
    single = calc.mode == "single"
    padded = 0
    for s in corpus.sequents(("p", "q"), 5, single=single):
        a, b = prove(calc, s), prove(twin, s)
        assert (a.status, a.exhaustive, a.stats.nodes, a.derivation) == \
            (b.status, b.exhaustive, b.stats.nodes, b.derivation), s
        if b.provable:
            assert all(n.assignment is not None for n in b.derivation.nodes()), s
            padded += _support(s) is not s
    assert padded
    for s in list(corpus.sequents(("p", "q"), 4, single=single))[:150]:
        b = prove_with_cut(twin, s)
        assert b.derivation == prove_with_cut(calc, s).derivation, s
        if b.provable:
            assert all(n.assignment is not None for n in b.derivation.nodes()), s


G1IP_WITH_MEASURE = _SOURCES["g1ip"].replace("mode single\n", "mode single\nmeasure weight\n")


def test_g1_with_a_measure_is_still_saturated():
    # the G3 form keeps each principal, so its premises need not shrink:
    # the declared measure must not turn on memoised recursion
    calc = user(G1IP_WITH_MEASURE)
    assert calc.termination_measure == "weight"
    for text in ("=> p | ~p", "p & q, p, q => r"):
        res = prove(calc, ps(text))
        assert res.status == "unprovable" and res.exhaustive, text
    res = prove(calc, ps("=> ~~(p | ~p)"))
    assert res.provable and check_derivation(calc, res.derivation) == []


@pytest.mark.parametrize("name", ["G1cp", "G1ip"])
def test_g1_cut_search_saturates(name):
    calc = builtin(name)
    for s in list(corpus.sequents(("p", "q"), 4, single=calc.mode == "single"))[:150]:
        a, b = prove_with_cut(calc, s), prove(calc, s)
        assert (a.status, a.exhaustive) == (b.status, True), s
        if a.provable:
            assert check_derivation(with_cut(calc), a.derivation) == [], s


def test_contraction_without_weakening_searches_plainly():
    # LC alone is no G1 calculus: no G3 form, loop-checked search, no cap
    calc = user("""
calculus LConly
mode single
axiom At : p? => p?
rule LC : G, A => D <- G, A, A => D
rule L& : G, A & B => D <- G, A, B => D
""")
    assert calc.searched is calc and list(calc.structural) == [("C", 0)]
    for text in ("p & q => q", "p => q", "p & q, p & q => p"):
        res = prove(calc, ps(text), SearchBudget(max_depth=30, max_nodes=20_000))
        assert res.status == "budget" or (res.status == "unprovable"
                                          and not res.exhaustive), text


def test_g3_form_needs_principals_that_ride_in_contexts():
    # R[] has no plain antecedent context, so in a G3 form it could not
    # match p, []q => []q, which LW reduces to []q => []q
    calc = user(_SOURCES["g1ip"] + "rule R[] : []G => []A <- G => A\n")
    assert calc.searched is calc
    res = prove(calc, ps("p, []q => []q"), SearchBudget(max_depth=8, max_nodes=20_000))
    assert res.provable and check_derivation(calc, res.derivation) == []


def test_misnamed_calculus_gets_no_support_reduction():
    # context-free axioms: weakening and contraction are not admissible
    calc = user("""
calculus G3cp
mode multi
measure degree
axiom At : p? => p?
axiom Lbot : false =>
rule L& : G, A & B => D <- G, A, B => D
rule R| : G => A | B, D <- G => A, B, D
""")
    res = prove(calc, ps("p, p => p"))
    assert res.status == "unprovable" and res.exhaustive
    res = prove(calc, ps("p & p => p | q"))
    assert not res.provable
    res = prove(calc, ps("p => p | false"))
    assert not res.provable
    res = prove(calc, ps("p => p"))
    assert res.provable and check_derivation(calc, res.derivation) == []


@pytest.mark.parametrize("axiom, mode", [
    ("At : p? => p?", "multi"),             # no contexts at all
    ("At : G, p? => p?", "multi"),          # no succedent context
    ("At : p? => p?", "single"),            # no antecedent context
    ("K : P, []G => []A", "single"),        # boxed context
])
def test_wc_admissible_needs_plain_contexts(axiom, mode):
    text = f"calculus X\nmode {mode}\nstructural wc-admissible\naxiom {axiom}\n"
    with pytest.raises(BadRuleShape):
        user(text)
    user(text.replace("structural wc-admissible\n", ""))


def test_wc_admissible_checks_rule_premises():
    with pytest.raises(BadRuleShape):
        user("calculus X\nmode single\nstructural wc-admissible\n"
             "axiom At : G, p? => p?\nrule R-> : G => A -> B <- A => B\n")


def test_structural_declaration_parsed():
    doc = parse_calculus("calculus X\nstructural wc-admissible\naxiom At : G, p? => p?, D\n")
    assert doc.wc_admissible
    assert not parse_calculus("calculus X\naxiom At : p? => p?\n").wc_admissible
    with pytest.raises(ParseError):
        parse_calculus("calculus X\nstructural weakening\n")


def test_mismatched_cache_rejected(g3cp, g4ip):
    foreign = ProverCache(g3cp)
    assert prove(g3cp, ps("=> p | ~p"), cache=foreign).provable
    with pytest.raises(ValueError):
        prove(g4ip, ps("=> p | ~p"), cache=foreign)
    with pytest.raises(ValueError):
        prove(renamed("G3cp", "G3cp"), ps("=> p | ~p"), cache=foreign)
    res = prove(g4ip, ps("=> p | ~p"), cache=ProverCache(g4ip))
    assert res.status == "unprovable" and res.exhaustive


def test_verify_uniform_keeps_a_foreign_cache_away_from_pitts(g3ip):
    u = ipc_uniform(ps("p, p -> q => q"), "p")
    rep = verify_uniform(g3ip, u, psi_bound=3, cache=ProverCache(g3ip))
    assert rep.ok, rep.render()


def test_shared_cache_lives_on_the_calculus():
    calc = renamed("G4ip", "Mine")
    cache = shared_cache(calc)
    assert shared_cache(calc) is cache and cache.calc is calc
    assert prove(calc, ps("p => p"), cache=cache).provable
    ref = weakref.ref(calc)
    del calc, cache
    gc.collect()
    assert ref() is None


def test_invert_follows_content_not_name():
    # G3cp's R| is declared invertible, G4ip's R|0 and R|1 are not
    twin = renamed("G3cp", "Classical")
    assert invert(twin, ps("=> p | q"), "right", pf("p | q")) == [ps("=> p, q")]
    g4ip_named_g3cp = renamed("G4ip", "G3cp")
    with pytest.raises(ShapeMismatch):
        invert(g4ip_named_g3cp, ps("=> p | q"), "right", pf("p | q"))
