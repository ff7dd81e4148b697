"""The measured process: runs one workload's queries against proofkit.

Started fresh for every measurement, so prover caches and the formula
intern table start cold.  Reads a job (JSON) on stdin and writes its
result (JSON) as the last line of stdout.  Each query is timed from its
text to its verdict; the oracle check that follows is outside the timed
region.  Times are returned scaled to the reference speed (speed.py) and
unscaled.  Calls go through module attributes (``prover.prove``,
``syntax.parse_sequent``, ...) so that the traced run sees them.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import traceback
from time import perf_counter

from proofkit import calculus, core, interpolation, prover, syntax, uniform
from proofkit.core import FMultiset, SplitAnt

import oracle
import speed


# reference slices a set-up probe times after it is ready
SETUP_SLICES = 5


def open_calculi(names):
    """The workload's calculi with one fresh ProverCache each.  Caches are
    never shared between calculi (a cache answers for its own calculus
    only)."""
    calcs = {n: calculus.builtin(n) for n in names}
    caches = {n: prover.ProverCache(c) for n, c in calcs.items()}
    return calcs, caches


def _sub_multisets(ms):
    """Every sub-multiset of ms (each antecedent partition's left part)."""
    groups = [(f, ms.count(f)) for f in ms.support()]
    out = [()]
    for f, n in groups:
        out = [rest + (f,) * k for rest in out for k in range(n + 1)]
    return [FMultiset(items) for items in out]


def _otext(f):
    """A proofkit formula as the oracle's tuple."""
    return oracle.parse_formula(syntax.render_formula(f))


# ---------------------------------------------------------------------------
# per-workload query runners: run(query) does the timed work and returns an
# answer; check(query, answer) returns a list of problems (empty = correct)
# and the output weights produced

class Runner:
    """Holds the workload's calculi and caches; ``reset`` starts a new pass
    over the query pool with cold caches."""

    def __init__(self, job):
        self.names = job["calculi"]
        self.reset()

    def reset(self):
        self.calcs, self.caches = open_calculi(self.names)


class Decide(Runner):
    def run(self, q):
        _, calc, text, _ = q
        s = syntax.parse_sequent(text)
        return prover.prove(self.calcs[calc], s, cache=self.caches[calc]).status

    def check(self, q, status):
        leg, calc, text, expected = q
        if status == "budget":
            return [f"{calc} ran out of budget on {text}"], ()
        got = status == "provable"
        problems = []
        if got != expected:
            problems.append(f"{calc} says {status} for {text}, oracle says "
                            f"{'provable' if expected else 'unprovable'}")
        if got and leg == "g3ip_corpus" and not oracle.entails(*oracle.parse_sequent(text)):
            problems.append(f"G3ip proves the classically invalid {text}")
        return problems, ()

    def class_of(self, q):
        return q[0]


class Interp(Runner):
    def run(self, text):
        g4, cache = self.calcs["G4ip"], self.caches["G4ip"]
        s = syntax.parse_sequent(text)
        r = prover.prove(g4, s, cache=cache)
        if not r.provable:
            return None
        out = []
        for gamma in _sub_multisets(s.ant):
            split = SplitAnt(gamma, s.ant.difference(gamma), s.suc)
            problem = interpolation.InterpolationProblem(g4, r.derivation, split)
            cert = interpolation.craig_interpolate(problem, cache)
            out.append((split, cert.alpha, interpolation.verify_certificate(g4, cert, split)))
        return out

    def check(self, text, answer):
        if answer is None:
            return [f"G4ip does not prove {text}"], ()
        problems, weights = [], []
        for split, alpha, defects in answer:
            problems.extend(f"defect at {split!r}: {d}" for d in defects)
            a = _otext(alpha)
            weights.append(oracle.weight(a))
            problems.extend(oracle.craig_problems([_otext(f) for f in split.gamma],
                                                  [_otext(f) for f in split.pi],
                                                  [_otext(f) for f in split.delta], a))
        return problems, weights

    def class_of(self, q):
        return "interp"


class Uniform(Runner):
    def __init__(self, job):
        super().__init__(job)
        self.atom, self.psi_bound = job["atom"], job["psi_bound"]

    def run(self, q):
        logic, text = q
        s = syntax.parse_sequent(text)
        if logic == "ipc":
            u = uniform.ipc_uniform(s, self.atom, self.caches["G4ip"])
            calc = "G4ip"
        else:
            u = uniform.classical_uniform(s, self.atom)
            calc = "G3cp"
        rep = uniform.verify_uniform(self.calcs[calc], u, psi_bound=self.psi_bound,
                                     cache=self.caches[calc])
        return u, rep

    def check(self, q, answer):
        logic, text = q
        u, rep = answer
        problems = [f"verify_uniform on {text}: {v}" for v in rep.violations]
        ant, suc = oracle.parse_sequent(text)
        fa, ex = _otext(u.forall_part), _otext(u.exists_part)
        checker = (oracle.ipc_uniform_problems if logic == "ipc"
                   else oracle.classical_uniform_problems)
        problems.extend(f"{text}: {p}" for p in checker(ant, suc, self.atom, fa, ex))
        return problems, (oracle.weight(fa), oracle.weight(ex))

    def class_of(self, q):
        return q[0]


class Wide(Runner):
    def run(self, q):
        g4 = self.calcs["G4ip"]
        s = syntax.parse_sequent(q[2])
        # a fresh cache per query: caching cannot help a single wide search
        return prover.prove(g4, s, cache=prover.ProverCache(g4)).status

    def check(self, q, status):
        fam, n, _, verdict = q
        if status == "budget":
            return [f"{fam} n={n} ran out of budget"], ()
        if (status == "provable") != verdict:
            return [f"{fam} n={n}: G4ip says {status}"], ()
        return [], ()

    def class_of(self, q):
        return f"{q[0]}/{q[1]}"


RUNNERS = {"decide": Decide, "interp": Interp, "uniform": Uniform, "wide": Wide}


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GCWatch:
    """Generation-2 collections and collector pause time, counted by a
    ``gc.callbacks`` hook (one call at the start and end of a collection)."""

    def __init__(self):
        self.gen2_collections = 0
        self.pause_s = 0.0
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = perf_counter()
            return
        if self._start is not None:
            self.pause_s += perf_counter() - self._start
            self._start = None
        if info.get("generation") == 2:
            self.gen2_collections += 1


def run_job(job, tracer=None):
    """Run the job's query stream and return the raw results.

    The loop stops at the first granule boundary after ``seconds`` of
    measured time, or after ``max_queries`` queries when that is set.  When
    the pool runs out the stream starts over with cold caches, so every
    pass is a sweep like the first.  With ``gc_watch`` set the result also
    holds the collector's generation-2 count and pause time.
    """
    runner = RUNNERS[job["workload"]](job)
    queries = [tuple(q) if isinstance(q, list) else q for q in job["queries"]]
    granule = job.get("granule", 1)
    limit = job.get("max_queries")
    deadline = job["seconds"]
    interned0 = len(core._intern)
    latencies, classes, weights, failures = [], [], [], []
    intervals, slices = [], [speed.slice_time()]
    since_slice = 0.0
    failed = 0
    rss_at = None
    busy = 0.0
    i = 0
    watch = GCWatch() if job.get("gc_watch") else None
    if tracer is not None:
        tracer.install()
        qid = tracer.name_id("bench.query")
    if watch is not None:
        gc.callbacks.append(watch)
    try:
        while True:
            if i and i % len(queries) == 0:
                runner.reset()
            q = queries[i % len(queries)]
            if tracer is not None:
                tracer.query = i
                tracer.enter(qid)
            t0 = perf_counter()
            try:
                answer = runner.run(q)
                error = None
            except Exception:  # a query that raises is a failed query
                answer, error = None, traceback.format_exc(limit=3)
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.exit()
            busy += dt
            latencies.append(dt)
            intervals.append(len(slices) - 1)
            classes.append(runner.class_of(q))
            if error is None:
                problems, w = runner.check(q, answer)
                weights.extend(w)
            else:
                problems = [error]
            if problems:
                failed += 1
                if len(failures) < 5:
                    failures.append(problems[:3])
            since_slice += dt
            if since_slice >= speed.SLICE_EVERY:
                slices.append(speed.slice_time())
                since_slice = 0.0
            i += 1
            if i == job["rss_after"]:
                rss_at = _rss_mb()
            if limit is not None:
                if i >= limit:
                    break
            elif busy >= deadline and i % granule == 0:
                break
    finally:
        if watch is not None:
            gc.callbacks.remove(watch)
        if tracer is not None:
            tracer.uninstall()
    slices.append(speed.slice_time())
    scaled = speed.normalise(latencies, intervals, slices)
    result = {
        "attempted": i,
        "failed": failed,
        "failures": failures,
        "latencies": scaled,
        "raw_latencies": latencies,
        "speed_factor": speed.speed_factor(slices),
        "classes": classes,
        "weights": weights,
        "busy_s": sum(scaled),
        "raw_busy_s": busy,
        "peak_rss_mb": rss_at if rss_at is not None else _rss_mb(),
        "rss_at_query": job["rss_after"] if rss_at is not None else i,
        "cache_entries": sum(len(c.proved) + len(c.refuted) for c in runner.caches.values()),
        "formulas_interned": len(core._intern) - interned0,
    }
    if watch is not None:
        result["gc_gen2_collections"] = watch.gen2_collections
        result["gc_pause_s"] = watch.pause_s
    return result


def main():
    job = json.load(sys.stdin)
    if job.get("setup_only"):
        # set-up probe: import proofkit, resolve the calculi, create the
        # caches, then report ready, followed by reference slices timed in
        # this process, which the set-up time is scaled by
        open_calculi(job["calculi"])
        print("ready", flush=True)
        print(json.dumps([speed.slice_time() for _ in range(SETUP_SLICES)]), flush=True)
        return 0
    tracer = None
    if job.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
    result = run_job(job, tracer)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if job.get("span_file"):
            os.makedirs(os.path.dirname(job["span_file"]), exist_ok=True)
            tracer.dump_spans(job["span_file"])
            result["spans_written"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
