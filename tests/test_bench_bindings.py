"""The benchmark's tracer (bench/tracing.py) wraps proofkit's cross-module
bindings by name.  A dropped or renamed binding, or a rule classification
cached beyond one extraction, would otherwise show only in a traced
benchmark run: here one traced prove, Craig interpolation and uniform check
must leave every binding restored and every traced layer counted."""

from pathlib import Path

from proofkit import calculus, core, interpolation, prover, syntax, uniform
from proofkit.calculus import builtin
from proofkit.core import FMultiset, SplitAnt

BENCH = Path(__file__).resolve().parents[1] / "bench"

BINDINGS = {
    prover: ("prove", "match_conclusion", "axiom_instance", "match_metasequent",
             "check_derivation"),
    prover._Search: ("build",),
    calculus: ("axiom_instance", "match_metasequent"),
    interpolation: ("prove", "axiom_instance", "check_derivation", "classify_rule",
                    "craig_interpolate", "verify_certificate"),
    uniform: ("prove", "ipc_uniform", "classical_uniform", "verify_uniform"),
    syntax: ("parse_sequent",),
    core.FMultiset: ("__init__", "_wrap", "difference", "contains", "remove",
                     "union", "add"),
}


def test_traced_queries_restore_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    before = {owner: dict(vars(owner)) for owner in BINDINGS}
    for owner, attrs in BINDINGS.items():
        assert set(attrs) <= set(before[owner]), owner
    g4 = builtin("G4ip")
    tracer = Tracer()
    tracer.install()
    try:
        s = syntax.parse_sequent("p & q => q & p")
        res = prover.prove(g4, s, cache=prover.ProverCache(g4))
        gamma = FMultiset([s.ant.items[0]])
        split = SplitAnt(gamma, s.ant.difference(gamma), s.suc)
        problem = interpolation.InterpolationProblem(g4, res.derivation, split)
        interpolation.craig_interpolate(problem, prover.ProverCache(g4))
        u = uniform.ipc_uniform(syntax.parse_sequent("p, p -> q => q"), "p")
        assert uniform.verify_uniform(g4, u, 2).ok
    finally:
        tracer.uninstall()
    assert {owner: dict(vars(owner)) for owner in BINDINGS} == before
    metrics = tracer.layer_metrics()
    for name in ("classify.classify_rule_calls", "calculus.match_metasequent_calls",
                 "prover.build_calls", "calculus.axiom_instance_calls"):
        assert metrics[name] > 0, name
    # the tracer counts a hit for every result that is not None
    assert 0 < metrics["calculus.axiom_hit_ratio"] < 1


def test_traced_wide_prove_counts_matching(monkeypatch):
    """A G4ip prove of a wide chain, where the shared-child filter skips
    most left implications, still matches through the module bindings the
    tracer wraps."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    g4 = builtin("G4ip")
    names = [f"a{i}" for i in range(60)]
    text = ", ".join([names[0]] + [f"{x} -> {y}" for x, y in zip(names, names[1:])])
    tracer = Tracer()
    tracer.install()
    try:
        res = prover.prove(g4, syntax.parse_sequent(f"{text} => {names[-1]}"),
                           cache=prover.ProverCache(g4))
    finally:
        tracer.uninstall()
    assert res.provable
    metrics = tracer.layer_metrics()
    assert metrics["calculus.match_conclusion_calls"] >= len(names) - 1
    assert metrics["calculus.match_metasequent_calls"] >= metrics["calculus.match_conclusion_calls"]
