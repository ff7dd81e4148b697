"""The calculus, not its name, picks the search: `structural wc-admissible`
is declared, saturation and contraction caps follow from the rules, and
caches answer for their own calculus only."""

import gc
import weakref

import pytest

from proofkit import corpus
from proofkit.calculus import (BadRuleShape, _SOURCES, builtin, builtin_names,
                               from_document)
from proofkit.prover import (ProverCache, ShapeMismatch, check_derivation,
                             invert, prove, prove_with_cut, shared_cache)
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
    assert sorted(builtin("G1cp").contractions) == ["LC", "RC"]
    assert sorted(builtin("G1ip").contractions) == ["LC"]
    for name in ("G3cp", "G3ip", "G4ip", "G4iK", "G4iKD", "G4LL"):
        assert builtin(name).contractions == {}, name


@pytest.mark.parametrize("name", builtin_names())
def test_renamed_builtin_searches_identically(name):
    calc, twin = builtin(name), renamed(name)
    assert twin == calc and twin.name != calc.name
    weight = 3 if name.startswith("G1") else 5   # the G1 search is slow
    seqs = list(corpus.sequents(("p", "q"), weight, single=calc.mode == "single"))
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


def test_invert_follows_content_not_name(g4ip):
    twin = renamed("G3cp", "Classical")
    assert invert(twin, ps("r, p & q => s"), "left", pf("p & q")) == [ps("r, p, q => s")]
    with pytest.raises(ShapeMismatch):
        invert(g4ip, ps("r, p & q => s"), "left", pf("p & q"))
    g3cp_named_g4ip = renamed("G4ip", "G3cp")
    with pytest.raises(ShapeMismatch):
        invert(g3cp_named_g4ip, ps("r, p & q => s"), "left", pf("p & q"))
