"""Tests of the benchmark itself: oracles, inputs, failure counting and the
traced bindings.  Run from the repository root with

    python -m pytest bench/tests -q
"""

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import oracle
import run
import speed
import worker
from tracing import Tracer

from proofkit import corpus, interpolation, prover, syntax, uniform
from proofkit.core import FMultiset, Top, atom
from proofkit.syntax import parse_formula, render_formula, render_sequent

BENCH = Path(run.__file__).resolve().parent


# -- oracles ------------------------------------------------------------------

def test_oracle_parser_reads_proofkit_text():
    for f in corpus.formulas(("p", "q"), 6):
        text = render_formula(f)
        assert parse_formula(oracle.render(oracle.parse_formula(text))) is f


def test_truth_tables():
    assert oracle.tautology(oracle.parse_formula("p | ~p"))
    assert not oracle.tautology(oracle.parse_formula("p -> q"))
    assert oracle.entails(*oracle.parse_sequent("p, p -> q => q"))
    assert oracle.entails(*oracle.parse_sequent("=> p, ~p"))
    assert not oracle.entails(*oracle.parse_sequent("p | q => p"))
    assert oracle.entails(*oracle.parse_sequent("false =>"))
    assert not oracle.entails(*oracle.parse_sequent("=>"))


def test_glivenko_oracle_agrees_with_g4ip():
    g4 = worker.open_calculi(["G4ip"])[0]["G4ip"]
    cache = prover.ProverCache(g4)
    from proofkit.syntax import parse_sequent
    for f in corpus.formulas(("p", "q"), 5):
        phi = oracle.parse_formula(render_formula(f))
        text = "=> " + oracle.render(oracle.double_negation(phi))
        assert prover.prove(g4, parse_sequent(text), cache=cache).provable == oracle.tautology(phi)


def test_interpolant_checks_reject_bad_answers():
    P = oracle.parse_formula
    assert oracle.craig_problems([P("p & q")], [P("p -> r")], [P("r")], P("p")) == []
    assert oracle.craig_problems([P("p & q")], [P("p -> r")], [P("r")], P("q"))
    assert oracle.craig_problems([P("p & q")], [P("p -> r")], [P("r")], P("p & r"))
    # the classical table: forall p (p => q) is q, exists p is ~q
    assert oracle.classical_uniform_problems([P("p")], [P("q")], "p", P("q"), P("~q")) == []
    assert oracle.classical_uniform_problems([P("p")], [P("q")], "p", P("true"), P("~q"))
    assert oracle.classical_uniform_problems([P("p")], [P("q")], "p", P("q"), P("false"))
    assert oracle.ipc_uniform_problems([P("p")], [P("q")], "p", P("q"), P("true")) == []
    assert oracle.ipc_uniform_problems([P("p")], [P("q")], "p", P("true"), P("true"))


def test_wide_verdicts_by_construction():
    names = ["a3", "a1", "a2"]
    assert oracle.wide_sequent("conj", names, "a3") == ("a3 & a1 & a2 => a3", True)
    assert oracle.wide_sequent("absent", names, "b0")[1] is False
    assert oracle.wide_sequent("chain", names, None) == ("a3, a3 -> a1, a1 -> a2 => a2", True)


# -- inputs -------------------------------------------------------------------

@pytest.mark.parametrize("names,weight,single", [
    (("p", "q"), 5, True), (("p", "q"), 5, False), (("p", "q", "r"), 4, False)])
def test_population_rank_matches_corpus_order(names, weight, single):
    pop = inputs.Population(names, weight, single)
    every = list(corpus.sequents(names, weight, single=single))
    assert pop.size == len(every)
    assert [pop.sequent(k) for k in range(pop.size)] == every


def test_population_sizes():
    assert inputs.population(("p", "q", "r"), 7, False).size == 140_195
    assert inputs.population(("p", "q", "r"), 7, True).size == 77_122
    assert inputs.population(("p", "q"), 5, True).size == 1_268


def test_jobs_are_seeded():
    assert inputs.decide_job(3, 5) == inputs.decide_job(3, 5)
    assert inputs.decide_job(3, 5) != inputs.decide_job(4, 5)
    assert inputs.uniform_job(3, 20) == inputs.uniform_job(3, 20)
    assert inputs.wide_job(3, 1, sizes=(4,)) != inputs.wide_job(4, 1, sizes=(4,))


# -- failures are counted -----------------------------------------------------

def _job(workload, queries, **extra):
    job = {"workload": workload, "queries": queries, "seconds": 60.0,
           "max_queries": len(queries), "granule": 1, "rss_after": 1}
    job.update(extra)
    return job


def test_correct_answers_pass():
    job = inputs.decide_job(5, 3)
    res = worker.run_job(dict(job, workload="decide", seconds=60.0,
                              max_queries=len(job["queries"]), granule=10, rss_after=1))
    assert res["attempted"] == 30 and res["failed"] == 0


def test_planted_wrong_verdict_is_a_failure(monkeypatch):
    queries = [("g3cp_corpus", "G3cp", "p => p", True),
               ("g3cp_corpus", "G3cp", "p => q", False)]
    real = prover.prove

    def flipped(calc, s, budget=None, cache=None):
        r = real(calc, s, budget, cache)
        r.status = "unprovable" if r.status == "provable" else "provable"
        return r

    monkeypatch.setattr(prover, "prove", flipped)
    res = worker.run_job(_job("decide", queries, calculi=["G3cp"]))
    assert (res["attempted"], res["failed"]) == (2, 2)


def test_planted_wrong_interpolant_is_a_failure(monkeypatch):
    # a certificate whose interpolant is replaced, with a checker that
    # reports no defects: only the benchmark's own oracle can catch it
    real = interpolation.craig_interpolate

    def wrong(problem, cache=None):
        cert = real(problem, cache)
        cert.alpha = atom("zz")
        return cert

    monkeypatch.setattr(interpolation, "craig_interpolate", wrong)
    monkeypatch.setattr(interpolation, "verify_certificate", lambda calc, cert, split: [])
    res = worker.run_job(_job("interp", ["p, q => p & q", "p => p"], calculi=["G4ip"]))
    assert (res["attempted"], res["failed"]) == (2, 2)


def test_planted_wrong_uniform_interpolant_is_a_failure(monkeypatch):
    real = uniform.ipc_uniform

    def wrong(s, p, cache=None):
        u = real(s, p, cache)
        u.forall_part = Top
        return u

    monkeypatch.setattr(uniform, "ipc_uniform", wrong)
    monkeypatch.setattr(uniform, "verify_uniform",
                        lambda calc, u, psi_bound=6, cache=None: uniform.UniformReport(u.target, u.atom))
    res = worker.run_job(_job("uniform", [("ipc", "p => q")], calculi=["G4ip", "G3cp"],
                              atom="p", psi_bound=6))
    assert (res["attempted"], res["failed"]) == (1, 1)


def test_failure_rate_counts_exceptions_and_wrong_verdicts(monkeypatch):
    queries = [("g3cp_corpus", "G3cp", t, v) for t, v in
               (("p => p", True), ("p => q", False), ("=> p | ~p", True), ("q =>", False))]
    real = prover.prove

    def planted(calc, s, budget=None, cache=None):
        text = render_sequent(s)
        if text == "=> p | ~p":
            raise RuntimeError("planted")
        r = real(calc, s, budget, cache)
        if text == "p => q":
            r.status = "provable"
        return r

    monkeypatch.setattr(prover, "prove", planted)
    res = worker.run_job(_job("decide", queries, calculi=["G3cp"]))
    assert res["failed"] == 2
    _, extra = run.end_to_end("decide", res, 0.1, 0.1)
    assert extra["failure_rate"] == (0.5, "ratio")


# -- tracing ------------------------------------------------------------------

# which per-layer metrics each workload must exercise (the interaction table)
EXERCISED = {
    "decide": ["calculus.match_conclusion_calls", "calculus.instances_per_call",
               "calculus.axiom_instance_calls", "calculus.axiom_hit_ratio",
               "core.multiset_ops_calls", "prover.prove_calls", "prover.prove_self_s",
               "prover.prove_s.g3cp", "prover.prove_s.g4ip", "prover.prove_s.g3ip",
               "prover.nodes", "prover.nodes_per_prove", "prover.build_calls",
               "prover.build_share", "syntax.parse_calls", "syntax.parse_s"],
    "interp": ["calculus.match_metasequent_calls", "calculus.match_metasequent_s",
               "prover.check_derivation_calls", "prover.check_derivation_s",
               "classify.classify_rule_calls", "classify.classify_rule_s",
               "interpolation.craig_calls", "interpolation.craig_s",
               "interpolation.extract_self_s", "interpolation.verify_certificate_s",
               "prover.build_calls", "prover.root_hit_ratio"],
    "uniform": ["uniform.ipc_uniform_s", "uniform.pitts_self_s", "uniform.classical_uniform_s",
                "uniform.verify_uniform_s", "uniform.verify_self_s",
                "uniform.prove_calls_per_verify", "prover.root_hit_ratio",
                "calculus.match_conclusion_calls", "calculus.axiom_instance_calls",
                "prover.prove_s.g3cp", "prover.prove_s.g4ip"],
    "wide": ["calculus.match_conclusion_calls", "calculus.match_conclusion_s",
             "calculus.instances_per_call", "core.multiset_ops_calls", "core.multiset_ops_s",
             "prover.nodes_per_prove"],
}


def _small_job(workload):
    if workload == "decide":
        job = inputs.decide_job(7, 20)
    elif workload == "interp":
        job = inputs.interp_job(7, 15)
    elif workload == "uniform":
        job = inputs.uniform_job(7, 10)
    else:
        job = inputs.wide_job(7, 1, sizes=(6, 12))
    return dict(job, workload=workload, seconds=60.0, max_queries=len(job["queries"]),
                granule=1, rss_after=1)


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_run_exercises_its_layers(workload):
    tracer = Tracer()
    res = worker.run_job(_small_job(workload), tracer)
    assert res["failed"] == 0, res["failures"]
    layers = tracer.layer_metrics()
    zero = [m for m in EXERCISED[workload] if not layers[m] > 0]
    assert not zero, zero
    assert tracer.spans and all(span[2] >= span[1] for span in tracer.spans)


def test_self_time_excludes_children():
    tracer = Tracer()
    res = worker.run_job(_small_job("interp"), tracer)
    assert res["failed"] == 0
    calls, total, self_s = tracer.stat("interpolation.craig")
    assert calls > 0 and 0 < self_s < total


def test_nested_spans_of_one_name_count_once():
    # difference builds its result through the wrapped _wrap
    a, b = (syntax.parse_sequent(t).ant for t in ("p, q, r =>", "q =>"))
    tracer = Tracer()
    tracer.install()
    try:
        a.difference(b)
    finally:
        tracer.uninstall()
    calls, total, self_s = tracer.stat("core.multiset_ops")
    assert calls == 1
    assert 0 < self_s <= total


def test_gc_watch_counts_collections():
    watch = worker.GCWatch()
    gc.callbacks.append(watch)
    try:
        gc.collect()
    finally:
        gc.callbacks.remove(watch)
    assert watch.gen2_collections == 1 and watch.pause_s > 0
    res = worker.run_job(dict(_small_job("decide"), gc_watch=True))
    assert res["failed"] == 0 and "gc_pause_s" in res
    assert not any(isinstance(cb, worker.GCWatch) for cb in gc.callbacks)


def test_bindings_are_restored():
    from proofkit import calculus, core, syntax
    owners = (prover, interpolation, uniform, calculus, syntax, core.FMultiset, prover._Search)
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer()
    worker.run_job(_small_job("uniform"), tracer)
    assert [dict(vars(o)) for o in owners] == before
    assert FMultiset._wrap(()) == FMultiset()


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    names = set(tracer.layer_metrics()) | set(run.RUN_LAYER_METRICS)
    assert names == {m["name"] for m in spec["per_layer"]}
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}


# -- statistics and the command line -----------------------------------------

def test_times_are_scaled_by_the_bracketing_slices():
    ref = speed.REFERENCE_S
    # the machine ran at reference speed, then twice as slow
    scaled = speed.normalise([1.0, 1.0, 1.0], [0, 1, 2], [ref, ref, 2 * ref, 2 * ref])
    assert scaled == pytest.approx([1.0, 1 / 1.5, 0.5])
    assert speed.speed_factor([ref, 2 * ref, 3 * ref]) == 2.0


def test_tail_is_a_fixed_nearest_rank_percentile():
    assert run.percentile(list(range(10_000)), 990) == (9899, 100)
    assert run.percentile(list(range(100)), 900) == (89, 10)
    assert run.percentile([1.0, 2.0, 3.0], 990) == (3.0, 0)
    # the percentile does not depend on the run's length
    assert run.tail("uniform", list(range(100)))[0] == run.tail("uniform", [1.0])[0] == 90.0


def test_wide_tail_is_the_median_round_maximum():
    # three rounds, one slow outlier round does not move the tail
    lat = [1.0, 2.0, 3.0] * 2 + [1.0, 2.0, 30.0]
    assert run.round_max_tail(lat, 3) == 3.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
