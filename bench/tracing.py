"""Spans and counters at proofkit's module boundaries, from outside.

proofkit modules import their collaborators by name (``from .calculus
import match_conclusion``), so a call from one module into another goes
through a binding in the *importing* module.  ``Tracer.install`` replaces
each such binding with a wrapper and ``Tracer.uninstall`` puts the
originals back.

Each wrapped call is a span: name, start, end, parent span and query id.
Self time (a span's duration minus the time its child spans cover) is
aggregated online for every span.  Calls and total time are counted only
for the outermost span of a name, so a wrapped method that calls another
method wrapped under the same name (``FMultiset.difference`` building its
result through ``FMultiset._wrap``) counts once.  The spans themselves are
kept in memory up to ``span_cap`` and written out at the end.
``match_metasequent`` is a generator, so each resumption is one span and
the generator counts as one call.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    def __init__(self, span_cap=100_000):
        self.span_cap = span_cap
        self.ids = {}
        self.names = []
        self.calls = []
        self.total = []
        self.self_time = []
        self.active = []          # open spans per name (nesting depth)
        self.stack = []           # [name id, start, child time, span index]
        self.spans = []           # [name id, start, end, parent index, query]
        self.counters = {}
        self.query = -1
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name):
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.active.append(0)
        return nid

    def enter(self, nid):
        parent = self.stack[-1][3] if self.stack else -1
        idx = -1
        if len(self.spans) < self.span_cap:
            idx = len(self.spans)
            self.spans.append([nid, 0.0, 0.0, parent, self.query])
        self.active[nid] += 1
        start = perf_counter()
        self.stack.append([nid, start, 0.0, idx])

    def exit(self, count_call=True):
        end = perf_counter()
        nid, start, child, idx = self.stack.pop()
        dur = end - start
        self.self_time[nid] += dur - child
        self.active[nid] -= 1
        if not self.active[nid]:
            if count_call:
                self.calls[nid] += 1
            self.total[nid] += dur
        if self.stack:
            self.stack[-1][2] += dur
        if idx >= 0:
            span = self.spans[idx]
            span[1] = start
            span[2] = end
        return dur

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = exit_()
            if after is not None:
                after(result, args, dur)
            return result

        return wrapper

    def wrap_gen(self, name, fn):
        nid = self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active[nid]:
                tracer.calls[nid] += 1
            gen = fn(*args, **kwargs)
            while True:
                tracer.enter(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.exit(count_call=False)
                yield item

        return wrapper

    def patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- the proofkit bindings -----------------------------------------------

    def install(self):
        from proofkit import calculus, core, interpolation, prover, syntax, uniform

        verify_id = self.name_id("uniform.verify_uniform")

        def after_prove(result, args, dur):
            calc = args[0]
            self.count("prove_s." + calc.name.lower(), dur)
            self.count("nodes", result.stats.nodes)
            if result.stats.nodes == 0:
                self.count("root_hits")
            if self.active[verify_id]:
                self.count("prove_in_verify")

        def after_match(result, args, dur):
            self.count("instances", len(result))

        def after_axiom(result, args, dur):
            if result is not None:
                self.count("axiom_hits")

        prove = self.wrap("prover.prove", prover.prove, after_prove)
        match_conclusion = self.wrap("calculus.match_conclusion",
                                     prover.match_conclusion, after_match)
        axiom_instance = self.wrap("calculus.axiom_instance",
                                   calculus.axiom_instance, after_axiom)
        match_metasequent = self.wrap_gen("calculus.match_metasequent",
                                          calculus.match_metasequent)
        check_derivation = self.wrap("prover.check_derivation", prover.check_derivation)
        for owner in (prover, interpolation, uniform):
            self.patch(owner, "prove", prove)
        self.patch(prover, "match_conclusion", match_conclusion)
        for owner in (prover, interpolation):
            self.patch(owner, "axiom_instance", axiom_instance)
        # calculus.match_metasequent is also what axiom_interpolant imports
        # lazily, and what match_conclusion / axiom_instance call inside
        for owner in (prover, calculus):
            self.patch(owner, "match_metasequent", match_metasequent)
        self.patch(interpolation, "check_derivation", check_derivation)
        self.patch(interpolation, "classify_rule",
                   self.wrap("classify.classify_rule", interpolation.classify_rule))
        self.patch(prover._Search, "build", self.wrap("prover.build", prover._Search.build))
        # multiset construction is where wide sequents spend their core time
        ms = core.FMultiset
        for meth in ("__init__", "difference", "contains", "remove", "union", "add"):
            self.patch(ms, meth, self.wrap("core.multiset_ops", ms.__dict__[meth]))
        self.patch(ms, "_wrap",
                   staticmethod(self.wrap("core.multiset_ops", ms.__dict__["_wrap"].__func__)))
        # the entry points the benchmark itself calls, looked up at call time
        self.patch(syntax, "parse_sequent", self.wrap("syntax.parse", syntax.parse_sequent))
        for name in ("craig_interpolate", "verify_certificate"):
            label = "interpolation.craig" if name == "craig_interpolate" else "interpolation." + name
            self.patch(interpolation, name, self.wrap(label, getattr(interpolation, name)))
        for name in ("ipc_uniform", "classical_uniform", "verify_uniform"):
            self.patch(uniform, name, self.wrap("uniform." + name, getattr(uniform, name)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def stat(self, name):
        nid = self.ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def layer_metrics(self):
        """The per-layer metrics this trace yields (all names, zero where
        the workload did not exercise the layer)."""
        c = self.counters.get
        out = {}

        def calls_and_time(prefix, span):
            n, total, _ = self.stat(span)
            out[prefix + "_calls"] = n
            out[prefix + "_s"] = total
            return n, total

        n_mc, _ = calls_and_time("calculus.match_conclusion", "calculus.match_conclusion")
        out["calculus.instances_per_call"] = c("instances", 0) / n_mc if n_mc else 0.0
        n_ax, _ = calls_and_time("calculus.axiom_instance", "calculus.axiom_instance")
        out["calculus.axiom_hit_ratio"] = c("axiom_hits", 0) / n_ax if n_ax else 0.0
        calls_and_time("calculus.match_metasequent", "calculus.match_metasequent")
        calls_and_time("core.multiset_ops", "core.multiset_ops")

        n_prove, prove_s, prove_self = self.stat("prover.prove")
        out["prover.prove_calls"] = n_prove
        out["prover.prove_s"] = prove_s
        out["prover.prove_self_s"] = prove_self
        for calc in ("g3cp", "g4ip", "g3ip"):
            out["prover.prove_s." + calc] = c("prove_s." + calc, 0.0)
        out["prover.nodes"] = c("nodes", 0)
        out["prover.nodes_per_prove"] = c("nodes", 0) / n_prove if n_prove else 0.0
        out["prover.root_hit_ratio"] = c("root_hits", 0) / n_prove if n_prove else 0.0
        _, build_s = calls_and_time("prover.build", "prover.build")
        out["prover.build_share"] = build_s / prove_s if prove_s else 0.0
        calls_and_time("prover.check_derivation", "prover.check_derivation")
        calls_and_time("classify.classify_rule", "classify.classify_rule")

        n, total, self_s = self.stat("interpolation.craig")
        out["interpolation.craig_calls"] = n
        out["interpolation.craig_s"] = total
        out["interpolation.extract_self_s"] = self_s
        out["interpolation.verify_certificate_s"] = self.stat("interpolation.verify_certificate")[1]

        _, total, self_s = self.stat("uniform.ipc_uniform")
        out["uniform.ipc_uniform_s"] = total
        out["uniform.pitts_self_s"] = self_s
        out["uniform.classical_uniform_s"] = self.stat("uniform.classical_uniform")[1]
        n, total, self_s = self.stat("uniform.verify_uniform")
        out["uniform.verify_uniform_s"] = total
        out["uniform.verify_self_s"] = self_s
        out["uniform.prove_calls_per_verify"] = c("prove_in_verify", 0) / n if n else 0.0

        calls_and_time("syntax.parse", "syntax.parse")
        return out

    def dump_spans(self, path):
        """Write the recorded spans as JSON lines: name, start, end, parent
        span index (-1 for a root), query id."""
        with open(path, "w", encoding="utf-8") as fh:
            for nid, start, end, parent, query in self.spans:
                fh.write(json.dumps([self.names[nid], start, end, parent, query]) + "\n")
