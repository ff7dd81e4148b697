"""Uniform interpolants (forall p / exists p) for CPC and IPC, and the
calculus-generic verification harness.

Classically both quantifiers are substitution instances:

    exists p f = f[true/p] | f[false/p]      forall p f = f[true/p] & f[false/p]

For IPC the computation follows Pitts: a mutual recursion over backward
G4ip decomposition along the terminating weight order.  `forall` of a
sequent is the weakest p-free formula that closes it on the left; `exists`
of an antecedent is the strongest p-free consequence.  Invertible rules are
applied eagerly; at an irreducible sequent the candidates are the right
atom, the disjunction splits, the L->-> premise pairs, atoms that unblock a
stuck implication, and an implication from the antecedent's own exists
interpolant.  The construction is validated by `verify_uniform`, never
asserted as ground truth.

`verify_uniform` tests minimality against the p-free formulas up to a
weight bound, one per class of mutually derivable formulas: the first
member of the class in corpus order.  Each clause is invariant under
equivalence when Cut is admissible, so the first failing formula of the
whole corpus is on that list and the report is unchanged; calculi without
a builtin's content, for which Cut admissibility is not known, keep the
whole corpus.

All produced formulas are constant-folded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import core
from .core import (Formula, FMultiset, Sequent, Top, Bot, atom, atoms,
                   apply_subst, imp, conj_all, disj_all, fconj,
                   fconj_all, fdisj, fdisj_all, fimp, interpret, seq_multiply,
                   sub_multisets)
from .calculus import builtin, builtin_names
from .corpus import formulas as corpus_formulas
from .prover import ProverCache, prove, shared_cache


class NonPropositional(Exception):
    pass


@dataclass
class UniformInterpolant:
    target: object                 # Sequent or Formula
    atom: str
    forall_part: Formula
    exists_part: Formula

    def __post_init__(self):
        allowed = atoms(self.target) - {self.atom}
        for part in (self.forall_part, self.exists_part):
            bad = atoms(part) - allowed
            if bad:
                raise ValueError(f"interpolant atoms {sorted(bad)} escape the target")


def _check_propositional(x):
    fs = list(x.ant) + list(x.suc) if isinstance(x, Sequent) else [x]
    for f in fs:
        for g in core.subformulas(f):
            if g.kind in core.UNARY:
                raise NonPropositional(repr(f))


# ---------------------------------------------------------------------------
# constant folding

def fold_constants(f: Formula) -> Formula:
    k = f.kind
    if k in (core.ATOM, core.TOP, core.BOT):
        return f
    if k in core.UNARY:
        return core._mk(k, fold_constants(f.a))
    fold = {core.AND: fconj, core.OR: fdisj, core.IMP: fimp}[k]
    return fold(fold_constants(f.a), fold_constants(f.b))


# ---------------------------------------------------------------------------
# classical quantifiers

def classical_forall(f: Formula, p: str) -> Formula:
    top_sub = apply_subst({p: Top}, f)
    bot_sub = apply_subst({p: Bot}, f)
    return fconj(fold_constants(top_sub), fold_constants(bot_sub))


def classical_exists(f: Formula, p: str) -> Formula:
    top_sub = apply_subst({p: Top}, f)
    bot_sub = apply_subst({p: Bot}, f)
    return fdisj(fold_constants(top_sub), fold_constants(bot_sub))


def classical_uniform(target, p: str) -> UniformInterpolant:
    """Uniform interpolants in CPC.  For a sequent S, forall quantifies its
    implication reading and exists the formula stating that S fails."""
    _check_propositional(target)
    if isinstance(target, Sequent):
        fa = classical_forall(fold_constants(interpret(target)), p)
        refute = fconj(conj_all(target.ant),
                       fold_constants(core.neg(disj_all(target.suc))))
        ex = classical_exists(refute, p)
    else:
        fa = classical_forall(target, p)
        ex = classical_exists(target, p)
    return UniformInterpolant(target, p, fa, ex)


# ---------------------------------------------------------------------------
# IPC quantifiers via G4ip decomposition

class _PittsContext:
    def __init__(self, p: str, cache: ProverCache | None = None):
        self.p = p
        self.calc = builtin("G4ip")
        self.cache = cache or shared_cache(self.calc)
        self.memo_a = {}
        self.memo_e = {}

    def provable(self, ant: FMultiset, suc: FMultiset) -> bool:
        return prove(self.calc, Sequent(ant, suc), cache=self.cache).provable


def _rewrite_ant(ant: FMultiset):
    """One invertible antecedent step: returns ('bot',), ('step', ant'),
    ('branch', ant_a, ant_b), or None when irreducible."""
    for f in ant:
        k = f.kind
        if k == core.BOT:
            return ("bot",)
        if k == core.TOP:
            return ("step", ant.remove(f))
        if k == core.AND:
            return ("step", ant.remove(f).add(f.a, f.b))
        if k == core.OR:
            return ("branch", ant.remove(f).add(f.a), ant.remove(f).add(f.b))
        if k == core.IMP:
            a = f.a
            if a.kind == core.TOP:
                return ("step", ant.remove(f).add(f.b))
            if a.kind == core.BOT:
                return ("step", ant.remove(f))
            if a.kind == core.AND:
                return ("step", ant.remove(f).add(imp(a.a, imp(a.b, f.b))))
            if a.kind == core.OR:
                return ("step", ant.remove(f).add(imp(a.a, f.b), imp(a.b, f.b)))
            if a.kind == core.ATOM and a in ant:
                return ("step", ant.remove(f).add(f.b))
    return None


def _forall(ctx: _PittsContext, ant: FMultiset, suc: FMultiset) -> Formula:
    key = (ant, suc)
    hit = ctx.memo_a.get(key)
    if hit is not None:
        return hit
    out = _forall_raw(ctx, ant, suc)
    ctx.memo_a[key] = out
    return out


def _forall_raw(ctx, ant, suc):
    p = ctx.p
    if p not in atoms(Sequent(ant, suc)):
        return fold_constants(imp(conj_all(ant), disj_all(suc)))
    step = _rewrite_ant(ant)
    if step is not None:
        if step[0] == "bot":
            return Top
        if step[0] == "step":
            return _forall(ctx, step[1], suc)
        return fconj(_forall(ctx, step[1], suc), _forall(ctx, step[2], suc))
    d = suc.items[0] if suc else None
    if d is not None:
        if d.kind == core.TOP:
            return Top
        if d.kind == core.AND:
            return fconj(_forall(ctx, ant, FMultiset([d.a])),
                         _forall(ctx, ant, FMultiset([d.b])))
        if d.kind == core.IMP:
            return _forall(ctx, ant.add(d.a), FMultiset([d.b]))
    if ctx.provable(ant, suc):
        return Top
    parts = []
    if d is not None and d.kind == core.ATOM and d.a != p:
        parts.append(d)
    if d is not None and d.kind == core.OR:
        parts.append(_forall(ctx, ant, FMultiset([d.a])))
        parts.append(_forall(ctx, ant, FMultiset([d.b])))
    for f in ant:
        if f.kind != core.IMP:
            continue
        a = f.a
        if a.kind == core.IMP:
            left = _forall(ctx, ant.remove(f).add(imp(a.b, f.b)), FMultiset([a]))
            right = _forall(ctx, ant.remove(f).add(f.b), suc)
            parts.append(fconj(left, right))
        elif a.kind == core.ATOM and a.a != p:
            # supply the blocked atom ourselves
            parts.append(fconj(a, _forall(ctx, ant.remove(f).add(a, f.b), suc)))
    if p not in atoms(suc):
        delta = fold_constants(disj_all(suc))
    else:
        delta = Bot
    parts.append(fimp(_exists(ctx, ant), delta))
    return fdisj_all(parts)


def _exists(ctx: _PittsContext, ant: FMultiset) -> Formula:
    hit = ctx.memo_e.get(ant)
    if hit is not None:
        return hit
    out = _exists_raw(ctx, ant)
    ctx.memo_e[ant] = out
    return out


def _exists_raw(ctx, ant):
    p = ctx.p
    if p not in atoms(ant):
        return fold_constants(conj_all(ant))
    step = _rewrite_ant(ant)
    if step is not None:
        if step[0] == "bot":
            return Bot
        if step[0] == "step":
            return _exists(ctx, step[1])
        return fdisj(_exists(ctx, step[1]), _exists(ctx, step[2]))
    if ctx.provable(ant, FMultiset()):
        return Bot
    parts = []
    for f in ant:
        if p not in atoms(f):
            parts.append(f)
            continue
        if f.kind != core.IMP:
            continue            # the atom p itself contributes nothing
        a = f.a
        if a.kind == core.IMP:
            guard = _forall(ctx, ant.remove(f).add(imp(a.b, f.b)), FMultiset([a]))
            parts.append(fimp(guard, _exists(ctx, ant.remove(f).add(f.b))))
        elif a.kind == core.ATOM and a.a != p:
            parts.append(fimp(a, _exists(ctx, ant.remove(f).add(a, f.b))))
    return fconj_all(parts)


def ipc_uniform(s: Sequent, p: str, cache: ProverCache | None = None) -> UniformInterpolant:
    """Pitts-style uniform interpolants of a single-conclusion sequent.

    The forall part closes the whole sequent from the left; the exists part
    is the strongest p-free consequence of the antecedent (the succedent
    plays no role in it, matching the one-sided reading exists p (G => )).
    """
    _check_propositional(s)
    if not s.is_single_conclusion():
        raise ValueError(f"ipc_uniform needs a single-conclusion sequent, got {s!r}")
    ctx = _PittsContext(p, cache)
    fa = _forall(ctx, s.ant, s.suc)
    ex = _exists(ctx, s.ant)
    return UniformInterpolant(s, p, fa, ex)


def ipc_forall(f: Formula, p: str, cache=None) -> Formula:
    return ipc_uniform(Sequent(FMultiset(), FMultiset([f])), p, cache).forall_part


def ipc_exists(f: Formula, p: str, cache=None) -> Formula:
    return ipc_uniform(Sequent(FMultiset([f]), FMultiset()), p, cache).exists_part


def fresh_atom(used) -> str:
    """Lexicographically smallest identifier not in `used`."""
    import itertools, string
    for size in itertools.count(1):
        for letters in itertools.product(string.ascii_lowercase, repeat=size):
            name = "".join(letters)
            if name not in used:
                return name


def exists_via_forall(f: Formula, p: str, cache=None) -> Formula:
    """exists p f as forall q (forall p (f -> q) -> q) for a fresh q."""
    q = fresh_atom(atoms(f) | {p})
    inner = ipc_forall(imp(f, atom(q)), p, cache)
    return ipc_forall(imp(inner, atom(q)), q, cache)


# ---------------------------------------------------------------------------
# p-partitions and the verification harness

def p_partitions(s: Sequent, p: str):
    """All componentwise splits (S^r, S^i) with p absent from S^r."""
    def p_free(f):
        return p not in atoms(f)

    return [(Sequent(ant_r, suc_r), Sequent(ant_i, suc_i))
            for ant_r, ant_i in sub_multisets(s.ant, p_free)
            for suc_r, suc_i in sub_multisets(s.suc, p_free)]


@dataclass
class UniformReport:
    target: object
    atom: str
    checked: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def render(self):
        head = f"uniform interpolant report for {self.target!r} / atom {self.atom}: "
        if self.ok:
            return head + f"all clauses pass ({', '.join(self.checked)})"
        return head + "; ".join(self.violations)


def _sub_uniform(calc, target, p, cache):
    """Classical quantifiers for a multi-conclusion calculus, Pitts' over
    G4ip otherwise; the cache is reused only when it is G4ip's."""
    if calc.mode == "multi":
        return classical_uniform(target, p)
    return ipc_uniform(target, p, cache if cache.calc is builtin("G4ip") else None)


def _psi_corpus(calc, names: tuple, psi_bound: int, cache: ProverCache, holds) -> list:
    """The p-free formulas the minimality clauses range over: the corpus
    over names up to psi_bound, reduced to its class representatives, the
    first member (in corpus order) of each class of formulas that calc
    proves mutually derivable.  Built once per (names, psi_bound) and kept
    on the cache.

    With Cut admissible every clause holds of psi exactly when it holds of
    any formula equivalent to psi.  So the first formula of the corpus at
    which a clause fails is the first of its class, and it is on the list
    after no other failing formula: the report is the one the whole corpus
    gives.  An answer other than "provable" never merges two classes, so
    it can only lengthen the list.  Cut admissibility is known for the
    builtins alone, so a calculus without a builtin's content (its name
    does not count) keeps the whole corpus."""
    key = (names, psi_bound)
    reps = cache.psi_representatives.get(key)
    if reps is None:
        psis = list(corpus_formulas(names, psi_bound))
        if any(calc == builtin(n) for n in builtin_names()):
            # formulas calc proves equivalent are classically equivalent
            # (the corpus is modal-free): compare within a truth table
            valuations = [dict(zip(names, v)) for v in product((Top, Bot), repeat=len(names))]
            reps, by_table = [], {}
            for psi in psis:
                table = tuple(fold_constants(apply_subst(v, psi)) for v in valuations)
                group = by_table.setdefault(table, [])
                if not any(holds([psi], [r]) and holds([r], [psi]) for r in group):
                    group.append(psi)
                    reps.append(psi)
        else:
            reps = psis
        cache.psi_representatives[key] = reps
    return reps


def verify_uniform(calc, u: UniformInterpolant, psi_bound: int = 6,
                   cache: ProverCache | None = None) -> UniformReport:
    """Check the independent clauses, the dependent clause over all
    p-partitions, and both quantifier characterizations against every
    p-free formula up to the given weight (at least 1).  The minimality
    clauses visit only the first formula of each class of equivalent
    ones: with Cut admissible, the first formula at which a clause fails
    is such a first member, so the report is the one the whole corpus
    gives (see _psi_corpus; calculi without a builtin's content get the
    whole corpus)."""
    if psi_bound < 1:
        raise ValueError(f"psi_bound must be at least 1, got {psi_bound}")
    cache = cache or shared_cache(calc)
    p = u.atom
    multi = calc.mode == "multi"
    report = UniformReport(u.target, p)

    def holds(ant, suc):
        return prove(calc, Sequent(FMultiset(ant), FMultiset(suc)), cache=cache).provable

    names = tuple(sorted(atoms(u.target) - {p}))
    fa, ex = u.forall_part, u.exists_part
    if isinstance(u.target, Sequent):
        s = u.target
        sa, ss = list(s.ant), list(s.suc)
        if not holds(sa + [fa], ss):
            report.violations.append("(forall-l) fails")
        report.checked.append("forall-l")
        if multi:
            ok_er = holds(sa, [ex] + ss)
        else:
            ok_er = holds(sa, [ex])
        if not ok_er:
            report.violations.append("(exists-r) fails")
        report.checked.append("exists-r")

        psis = _psi_corpus(calc, names, psi_bound, cache, holds)
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
        for psi in _psi_corpus(calc, names, psi_bound, cache, holds):
            if holds([psi], [f]) and not holds([psi], [fa]):
                report.violations.append(f"(forall) minimality fails at {psi!r}")
                break
            if holds([f], [psi]) and not holds([ex], [psi]):
                report.violations.append(f"(exists) minimality fails at {psi!r}")
                break
        report.checked.extend(["forall", "exists", "minimality"])
    return report
