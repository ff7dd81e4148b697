"""Rule schemas as data, the built-in calculi, and rule-instance matching.

The parser hands each meta-sequent side over as tagged items; `MetaSequent`
decodes them once, at construction, into a `Side`: the formula patterns in
written order, at most one plain multiset variable (the context) and at most
one boxed multiset variable ([]G).  Everything downstream reads those fields.

A rule is a schema `S1 ... Sn / S` (`RuleSchema`), and an axiom is the case
n = 0: `Calculus.axioms` holds premise-free schemas, so one instance type
(`RuleInstance`: schema, assignment, conclusion, premises instantiated on
first read) records how an axiom or a rule closes a sequent.  Matching starts
from a schema's fixed bindings (`RuleSchema.fixed`); a rule with a premise
metavariable neither they nor its conclusion bind (`RuleSchema.fresh`) has none.

Matching (`match_metasequent`) finds every instance of a schema sequent in
a sequent.  What an occurrence needs to take a pattern is decided once
(`_need`): its kind (an atom for p?, nothing for A), or its shape
(`core.Formula.shape`) when the first child needs a kind (`imp/atom` for
p? -> A).  `match_conclusion` and `axiom_instance` share one loop
(`_instances`), which first skips any schema with a side that needs what
no member of the sequent side is (`Side.kinds`; a search reads the
sequent's kinds and shapes once per node, `sequent_kinds`).  Within a
schema the formula patterns of both sides are placed first, most specific
first (`MetaSequent.plan`: p? -> A before p?, a metavariable already bound
found by its occurrences), and the remainder, the boxed binding and the
context binding are built once per complete placement.  The instance
order is nevertheless the one of trying the patterns in written order,
antecedent first, each on every remaining occurrence in canonical position
order: placements are re-sorted into that order when the plan differs from
it.  So `match_conclusion` lists instances in rule order, then
principal-occurrence order, with the same assignments.

All built-in rules are additive: contexts are repeated verbatim across
premises, so matching a conclusion never splits a context between two plain
multiset variables.  When a side carries both a plain and a boxed multiset
variable (the modal rules), backward matching binds the boxed variable
maximally; smaller bindings are subsumed because weakening is admissible in
those calculi.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter, itemgetter

from . import core
from .core import Formula, FMultiset, Sequent, box, metavars
from .syntax import parse_calculus, render_formula


class UnknownCalculus(Exception):
    pass


class BadRuleShape(Exception):
    pass


@dataclass(frozen=True)
class Side:
    """One meta-sequent side: formula patterns (in written order, which
    fixes the instance order), the plain context variable and the boxed
    context variable, each None when absent."""

    pats: tuple
    ctx: str | None = None
    boxed: str | None = None

    def __len__(self):
        return len(self.pats) + (self.ctx is not None) + (self.boxed is not None)

    def same_items(self, other) -> bool:
        """Equal as multisets of items, whatever the pattern order."""
        return ((self.ctx, self.boxed) == (other.ctx, other.boxed)
                and Counter(self.pats) == Counter(other.pats))

    def metavars(self):
        names = {v for p in self.pats for v in metavars(p)}
        return names | {v for v in (self.ctx, self.boxed) if v is not None}

    @cached_property
    def kinds(self) -> frozenset:
        """The kinds and shapes a matched side must contain (`_need`)."""
        return frozenset(map(_need, self.pats)) - {None}


_META_NEED = {core.FMETA: None, core.AMETA: core.ATOM}


def _need(pat):
    """The kind or shape an occurrence matching pat has (None: any): `atom`
    for p?, the pattern's own kind for a connective or constant, and
    instead its shape (`core.Formula.shape`) when the first child needs a
    kind too: p? -> A needs `imp/atom`, (A & B) & C `and/and`, A -> B
    only `imp`."""
    k = pat.kind
    inner = k in core.BINARY + core.UNARY and _META_NEED.get(pat.a.kind, pat.a.kind)
    return core.SHAPES[k, inner] if inner else _META_NEED.get(k, k)


def _decode(items, where) -> Side:
    if isinstance(items, Side):
        return items
    pats, ctx, boxed = [], [], []
    for tag, x in items:
        {"pat": pats, "mv": ctx, "bmv": boxed}[tag].append(x)
    if len(ctx) > 1 or len(boxed) > 1:
        raise BadRuleShape(f"{where} splits its context between several "
                           f"multiset variables (contexts are additive)")
    return Side(tuple(pats), ctx[0] if ctx else None, boxed[0] if boxed else None)


@dataclass(frozen=True, init=False)
class MetaSequent:
    """A schema sequent, built from the parser's (antecedent items,
    succedent items) or from two Sides; raises BadRuleShape for a side with
    two plain or two boxed contexts."""

    ant: Side
    suc: Side

    def __init__(self, ant_items, suc_items):
        object.__setattr__(self, "ant", _decode(ant_items, "antecedent"))
        object.__setattr__(self, "suc", _decode(suc_items, "succedent"))

    @cached_property
    def plan(self):
        """The order in which matching places the formula patterns, and
        whether it differs from written order.  One entry per pattern:
        (slot, side, pattern, its name if a bare metavariable, its `_need`,
        whether its first child is a metavariable that a bare pattern on the
        same side also takes, earlier slots on the same side); slots number
        the antecedent patterns, then the succedent ones, in written order.
        Most specific first: patterns with a connective or constant at the
        top (which bind the bare metavariables placed after them), then p?,
        then A; ties go to the succedent (one formula wide in
        single-conclusion calculi), then to written order."""
        na = len(self.ant.pats)
        pats = [(i, 0, p) for i, p in enumerate(self.ant.pats)]
        pats += [(na + i, 1, p) for i, p in enumerate(self.suc.pats)]
        pats.sort(key=lambda e: ({core.AMETA: 1, core.FMETA: 2}.get(e[2].kind, 0),
                                 -e[1], e[0]))
        plan = []
        for slot, side, p in pats:
            var = p.a if p.kind in (core.AMETA, core.FMETA) else None
            shared = (p.kind in core.BINARY + core.UNARY
                      and p.a.kind in (core.AMETA, core.FMETA)
                      and p.a in (self.ant, self.suc)[side].pats)
            others = tuple(e[0] for e in plan if e[1] == side)
            plan.append((slot, side, p, var, _need(p), shared, others))
        order = [e[0] for e in plan]
        return tuple(plan), order != sorted(order)

    def admits(self, kinds) -> bool:
        """False when a side needs a kind or shape that the sequent, whose
        (antecedent, succedent) `sequent_kinds` are given, lacks: then no
        placement exists and `_place` need not scan the side."""
        return self.ant.kinds <= kinds[0] and self.suc.kinds <= kinds[1]

    def __repr__(self):
        # contexts first in the antecedent, last in the succedent
        a, s = self.ant, self.suc
        left = [v for v in (a.ctx, a.boxed and "[]" + a.boxed) if v]
        left += map(render_formula, a.pats)
        right = [render_formula(p) for p in s.pats]
        right += [v for v in (s.boxed and "[]" + s.boxed, s.ctx) if v]
        return " ".join(x for x in (", ".join(left), "=>", ", ".join(right)) if x)


@dataclass(frozen=True)
class RuleSchema:
    """A rule S1 ... Sn / S; an axiom has no premises.  invertible holds the
    indexes of the premises declared invertible (`!` after the premise):
    each is provable whenever the conclusion is.  fixed holds (metavariable,
    formula) pairs bound before matching, such as Cut's cut formula."""

    name: str
    premises: tuple        # tuple[MetaSequent]
    conclusion: MetaSequent
    invertible: frozenset = frozenset()
    fixed: tuple = ()

    @cached_property
    def fresh(self) -> tuple:
        """The metavariables of the first premise that has any neither the
        conclusion nor `fixed` binds, sorted, else ().  No instance then."""
        conc = self.conclusion.ant.metavars() | self.conclusion.suc.metavars()
        conc |= {v for v, _ in self.fixed}
        for prem in self.premises:
            missing = (prem.ant.metavars() | prem.suc.metavars()) - conc
            if missing:
                return tuple(sorted(missing))
        return ()

    def __repr__(self):
        prem = " ; ".join(repr(p) + " !" * (i in self.invertible)
                          for i, p in enumerate(self.premises))
        return f"{self.name}: {self.conclusion!r}" + (f" <- {prem}" if prem else "")


class RuleInstance:
    """rule under assignment, closing the sequent conclusion.  Its premises
    are instantiated when first read, then kept, so an instance the search
    never tries costs no premise."""

    __slots__ = ("rule", "assignment", "conclusion", "_premises")

    def __init__(self, rule, assignment, conclusion):
        self.rule = rule
        self.assignment = assignment
        self.conclusion = conclusion
        self._premises = None

    @property
    def premises(self) -> tuple:
        if self._premises is None:
            self._premises = tuple(instantiate(p, self.assignment) for p in self.rule.premises)
        return self._premises

    def __repr__(self):
        return f"<{self.rule.name} instance at {self.conclusion!r}>"


@dataclass
class Calculus:
    """A calculus as data.  Equality compares content, never the name, and
    search behaviour follows from content alone: `wc_admissible` is the
    declared `structural wc-admissible`, `structural` and `searched` derived."""

    name: str = field(compare=False)
    mode: str                       # "single" | "multi"
    axioms: list                    # [RuleSchema], each without premises
    rules: list                     # [RuleSchema]
    termination_measure: str | None = None
    # weakening and contraction are depth-preserving admissible: search may
    # run on support sequents and pad the derivation back
    wc_admissible: bool = False
    # the prover's cache shared between queries (see prover.shared_cache)
    shared: object = field(default=None, init=False, compare=False, repr=False)

    @cached_property
    def structural(self):
        """{(kind, side): (rule, A)} for the weakening ("W") and contraction
        ("C") rules on side 0 (antecedent) or 1 (succedent) of any sequent,
        A the formula metavariable they add or contract."""
        out = {}
        for r in self.rules:
            shape = _structural_shape(r, self.mode == "single")
            if shape is not None:
                out.setdefault(shape[:2], (r, shape[2]))
        return out

    @cached_property
    def searched(self) -> Calculus:
        """The calculus the prover searches: itself, or, with weakening on
        both sides and contraction on the antecedent (on the succedent too
        when multi-conclusion), its G3 form (Troelstra & Schwichtenberg,
        *Basic Proof Theory*, G1 and G3): the structural rules dropped,
        every axiom side given a plain context, each rule's conclusion
        patterns kept in its premises (the succedent ones when
        multi-conclusion), wc-admissible and without a measure."""
        multi = self.mode == "multi"
        need = {("W", 0), ("W", 1), ("C", 0)} | ({("C", 1)} if multi else set())
        rules = [r for r in self.rules if _structural_shape(r, not multi) is None]
        if not (need <= self.structural.keys()
                and all(_keeps_principal(r, multi) for r in self.axioms + rules)):
            return self
        axioms = [replace(a, conclusion=_with_contexts(a.conclusion)) for a in self.axioms]
        rules = [replace(r, premises=tuple(_kept(p, r.conclusion, multi) for p in r.premises))
                 for r in rules]
        return Calculus(self.name, self.mode, axioms, rules, None, True)

    @cached_property
    def contexts(self):
        """{(is an axiom, name): (antecedent, succedent) context variables}
        of each schema, None for a side without one."""
        return {(not r.premises, r.name): (r.conclusion.ant.ctx, r.conclusion.suc.ctx)
                for r in self.axioms + self.rules}

    def rule(self, name) -> RuleSchema:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)

    def rule_names(self):
        return [r.name for r in self.rules]

    def __repr__(self):
        return f"<calculus {self.name}: {len(self.axioms)} axioms, {len(self.rules)} rules>"


def _structural_shape(rule: RuleSchema, single: bool):
    """(kind, side, A) when rule weakens ("W") or contracts ("C") any
    formula A on side 0 or 1 of any sequent, else None: one premise, the
    other side the same bare context in both, and this side one context
    (none needed on a single-conclusion succedent) that the conclusion
    extends by A and the premise by nothing (W) or by A, A (C)."""
    if len(rule.premises) != 1:
        return None
    pairs = ((rule.premises[0].ant, rule.conclusion.ant),
             (rule.premises[0].suc, rule.conclusion.suc))
    for side in (0, 1):
        (p, c), (p_other, c_other) = pairs[side], pairs[1 - side]
        if (p_other != c_other or p_other.pats or p_other.boxed
                or p_other.ctx is None or p.boxed or c.boxed or p.ctx != c.ctx
                or c.ctx is None and not (single and side)
                or len(c.pats) != 1 or c.pats[0].kind != core.FMETA):
            continue
        a = c.pats[0]
        kind = {(): "W", (a, a): "C"}.get(p.pats)
        if kind is not None:
            return kind, side, a.a
    return None


def _keeps_principal(rule: RuleSchema, multi: bool) -> bool:
    """True when the G3 form may keep rule's principal in its premises and
    match it on support sequents: at most one formula pattern on each
    conclusion side (a support sequent holds one copy of each formula), no
    boxed context, and for a rule with premises a conclusion that matches
    every larger sequent and whose plain contexts every premise carries."""
    c = rule.conclusion
    if len(c.ant.pats) > 1 or len(c.suc.pats) > 1 or c.ant.boxed or c.suc.boxed:
        return False
    return not rule.premises or len(c.suc) > 0 and all(
        _plain(ms, multi) and ms.ant.ctx == c.ant.ctx and (not multi or ms.suc.ctx == c.suc.ctx)
        for ms in (c,) + rule.premises)


def _plain(ms: MetaSequent, multi: bool) -> bool:
    """ms has a plain antecedent context, a plain succedent one when
    multi-conclusion, and no boxed one."""
    return not (ms.ant.boxed or ms.suc.boxed or ms.ant.ctx is None
                or multi and ms.suc.ctx is None)


def _with_contexts(ms: MetaSequent) -> MetaSequent:
    """ms with a plain context on each side that has none, named apart
    from every DSL variable."""
    return MetaSequent(replace(ms.ant, ctx=ms.ant.ctx or "G'"),
                       replace(ms.suc, ctx=ms.suc.ctx or "D'"))


def _kept(prem: MetaSequent, conc: MetaSequent, multi: bool) -> MetaSequent:
    """prem with conc's antecedent patterns added, and its succedent ones
    when multi-conclusion."""
    suc = replace(prem.suc, pats=prem.suc.pats + conc.suc.pats) if multi else prem.suc
    return MetaSequent(replace(prem.ant, pats=prem.ant.pats + conc.ant.pats), suc)


# ---------------------------------------------------------------------------
# pattern matching

def match_formula(pat: Formula, f: Formula, asg):
    """Extend assignment so that pat instantiates to f, or return None."""
    k = pat.kind
    if k == core.FMETA or k == core.AMETA:
        if k == core.AMETA and f.kind != core.ATOM:
            return None
        bound = asg.get(pat.a)
        if bound is None:
            asg = dict(asg)
            asg[pat.a] = f
            return asg
        return asg if bound is f else None
    if k != f.kind:
        return None
    if k == core.ATOM:
        return asg if pat.a == f.a else None
    if k in (core.TOP, core.BOT):
        return asg
    if k in core.UNARY:
        return match_formula(pat.a, f.a, asg)
    asg = match_formula(pat.a, f.a, asg)
    if asg is None:
        return None
    return match_formula(pat.b, f.b, asg)


def subst_pattern(pat: Formula, asg) -> Formula:
    k = pat.kind
    if k in (core.FMETA, core.AMETA):
        try:
            return asg[pat.a]
        except KeyError:
            raise KeyError(f"unbound metavariable {pat.a}")
    if k in (core.ATOM, core.TOP, core.BOT):
        return pat
    if k in core.UNARY:
        return core._mk(k, subst_pattern(pat.a, asg))
    return core._mk(k, subst_pattern(pat.a, asg), subst_pattern(pat.b, asg))


def _place(plan, rows, j, asg, pos, out, members):
    """Append to out every placement of the patterns plan[j:] on distinct
    occurrences, as (positions in slot order, assignment), in plan order.
    pos holds the positions placed so far, members per side the ids of its
    members once a shared child (`MetaSequent.plan`) needs them.  An
    occurrence is skipped before `match_formula` when neither its kind nor
    its shape is the pattern's need (exact: kinds and shapes are disjoint
    strings and a leaf's shape is its kind), or when its shared child is
    not a member.  A bound metavariable finds its occurrences by `in` and
    `index` on the row, which compare by identity first.  A module function
    rather than a closure that calls itself: such a closure is a reference
    cycle per call, and collecting those made search on small sequents a
    quarter slower."""
    if j == len(plan):
        out.append((tuple(pos), asg))
        return
    slot, side, pat, var, need, shared, others = plan[j]
    row = rows[side]
    f = asg.get(var) if var is not None else None
    if f is not None:
        # a bound metavariable takes its own occurrences, nothing else;
        # equal members are adjacent in the canonical order
        if f in row:
            i = row.index(f)
            while i < len(row) and row[i] is f:
                if not (others and any(pos[t] == i for t in others)):
                    pos[slot] = i
                    _place(plan, rows, j + 1, asg, pos, out, members)
                i += 1
        return
    if shared:
        ids = members[side]
        if ids is None:
            ids = members[side] = set(map(id, row))
    for i, g in enumerate(row):
        if need is not None and g.kind != need and g.shape != need:
            continue
        if shared and id(g.a) not in ids:
            continue
        if others and any(pos[t] == i for t in others):
            continue
        asg2 = match_formula(pat, g, asg)
        if asg2 is not None:
            pos[slot] = i
            _place(plan, rows, j + 1, asg2, pos, out, members)


def _bind_contexts(side: Side, ms: FMultiset, taken, asg):
    """Bind, or check against a prior binding, the side's boxed and plain
    contexts on what the patterns leave of ms; None on a mismatch."""
    if side.ctx is None and side.boxed is None:
        return asg if len(ms) == len(taken) else None
    if len(taken) == 1:
        i = taken[0]
        ms = FMultiset._wrap(ms.items[:i] + ms.items[i + 1:])
    elif taken:
        items, kept, start = ms.items, (), 0
        for i in sorted(taken):
            kept += items[start:i]
            start = i + 1
        ms = FMultiset._wrap(kept + items[start:])
    if side.boxed is not None:
        # the boxed context first: bind maximally, or check a prior binding
        bound = asg.get(side.boxed)
        if bound is None:
            asg = dict(asg)
            asg[side.boxed] = FMultiset(f.a for f in ms if f.kind == core.BOX)
            ms = FMultiset(f for f in ms if f.kind != core.BOX)
        else:
            image = FMultiset(box(f) for f in bound)
            if not ms.contains(image):
                return None
            ms = ms.difference(image)
    if side.ctx is None:
        return None if ms else asg
    bound = asg.get(side.ctx)
    if bound is None:
        asg = dict(asg)
        asg[side.ctx] = ms
        return asg
    return asg if ms == bound else None


def match_metasequent(ms: MetaSequent, s: Sequent, asg=None):
    """Yield every assignment under which ms instantiates to s, in the order
    of the occurrences the patterns take: antecedent patterns in written
    order, then succedent ones, each choice tried in canonical position
    order.  Patterns are placed first (`MetaSequent.plan`), contexts bound
    once per complete placement."""
    plan, resort = ms.plan
    placed = []
    _place(plan, (s.ant.items, s.suc.items), 0, {} if asg is None else asg,
           [None] * len(plan), placed, [None, None])
    if resort and len(placed) > 1:
        placed.sort(key=itemgetter(0))
    na = len(ms.ant.pats)
    for pos, asg1 in placed:
        asg1 = _bind_contexts(ms.ant, s.ant, pos[:na], asg1)
        if asg1 is not None:
            asg1 = _bind_contexts(ms.suc, s.suc, pos[na:], asg1)
            if asg1 is not None:
                yield asg1


def instantiate(ms: MetaSequent, asg) -> Sequent:
    """The sequent ms denotes under asg.  A context binding is already in
    canonical order, so the few instantiated patterns are merged into it;
    a side that adds nothing to its context is the bound multiset itself."""
    def fill(side):
        out = [subst_pattern(p, asg) for p in side.pats]
        if side.boxed is not None:
            out += map(box, asg[side.boxed])
        if side.ctx is None:
            return FMultiset(out)
        ctx = asg[side.ctx]
        if not out:
            return ctx
        xs = list(ctx.items)
        for f in out:
            insort(xs, f, key=Formula.sort_key)
        return FMultiset._wrap(xs)

    return Sequent(fill(ms.ant), fill(ms.suc))


def _instances(schemas, s: Sequent, kinds):
    """Yield the instances of schemas whose conclusion is s: schema order,
    then principal-occurrence order."""
    for rule in schemas:
        if rule.fresh or not rule.conclusion.admits(kinds):
            continue
        for asg in match_metasequent(rule.conclusion, s, dict(rule.fixed) if rule.fixed else None):
            yield RuleInstance(rule, asg, s)


def match_conclusion(calc: Calculus, s: Sequent, kinds=None):
    """All rule instances of calc whose conclusion is s, in deterministic
    order: rule order, then principal-occurrence order.  kinds, when
    given, is `sequent_kinds(s)`."""
    return list(_instances(calc.rules, s, kinds or sequent_kinds(s)))


def axiom_instance(calc: Calculus, s: Sequent, kinds=None):
    """The first axiom instance whose conclusion is s, else None.  kinds,
    when given, is `sequent_kinds(s)`."""
    return next(_instances(calc.axioms, s, kinds or sequent_kinds(s)), None)


def sequent_kinds(s: Sequent):
    """The kinds and shapes of the members on each side of s: what
    `MetaSequent.admits` reads.  A search computes them once per node."""
    return _side_kinds(s.ant.items), _side_kinds(s.suc.items)


def _side_kinds(items):
    """One pass reads the shapes; the kinds follow from the distinct ones."""
    shapes = set(map(_shape, items))
    return shapes.union(map(_SHAPE_KIND.get, shapes, shapes))


_shape = attrgetter("shape")
# a compound shape's kind; a leaf's shape is its kind
_SHAPE_KIND = {shape: k for (k, _), shape in core.SHAPES.items()}


def is_instance_finite(calc: Calculus):
    """True iff every rule's premise metavariables occur in its conclusion.

    Returns (ok, offenders), an offender (rule name, `RuleSchema.fresh` as
    a list); when ok, backward matching yields finitely many instances per
    sequent because every premise is determined by the conclusion match.
    """
    offenders = [(r.name, list(r.fresh)) for r in calc.rules if r.fresh]
    return (not offenders, offenders)


# ---------------------------------------------------------------------------
# built-in calculi
#
# The figures' axioms are the atom axiom and left-bot; a right-top axiom is
# added so that the constant `true`, which the formula language includes, is
# provable, and the G4 family gets LT-> for an implication with a `true`
# antecedent.  A `!` after a premise declares it invertible (the inversion
# lemmas: Troelstra & Schwichtenberg, *Basic Proof Theory*, for G3; Dyckhoff
# 1992 for G4ip); the G1 figures carry no marks.

_G1CP = """
calculus G1cp
mode multi
axiom At : p? => p?
axiom Lbot : false =>
axiom Rtop : => true
rule LW : G, A => D <- G => D
rule RW : G => A, D <- G => D
rule LC : G, A => D <- G, A, A => D
rule RC : G => A, D <- G => A, A, D
rule L& : G, A & B => D <- G, A, B => D
rule R& : G => A & B, D <- G => A, D ; G => B, D
rule L| : G, A | B => D <- G, A => D ; G, B => D
rule R| : G => A | B, D <- G => A, B, D
rule L-> : G, A -> B => D <- G => A, D ; G, B => D
rule R-> : G => A -> B, D <- G, A => B, D
"""

_G1IP = """
calculus G1ip
mode single
axiom At : p? => p?
axiom Lbot : false =>
axiom Rtop : => true
rule LW : G, A => D <- G => D
rule RW : G => A <- G =>
rule LC : G, A => D <- G, A, A => D
rule L& : G, A & B => D <- G, A, B => D
rule R& : G => A & B <- G => A ; G => B
rule L| : G, A | B => D <- G, A => D ; G, B => D
rule R|0 : G => A | B <- G => A
rule R|1 : G => A | B <- G => B
rule L-> : G, A -> B => D <- G => A ; G, B => D
rule R-> : G => A -> B <- G, A => B
"""

_G3CP = """
calculus G3cp
mode multi
measure degree
structural wc-admissible
axiom At : G, p? => p?, D
axiom Lbot : G, false => D
axiom Rtop : G => true, D
rule L& : G, A & B => D <- G, A, B => D !
rule R& : G => A & B, D <- G => A, D ! ; G => B, D !
rule L| : G, A | B => D <- G, A => D ! ; G, B => D !
rule R| : G => A | B, D <- G => A, B, D !
rule L-> : G, A -> B => D <- G => A, D ! ; G, B => D !
rule R-> : G => A -> B, D <- G, A => B, D !
"""

_G3IP = """
calculus G3ip
mode single
structural wc-admissible
axiom At : G, p? => p?
axiom Lbot : G, false => D
axiom Rtop : G => true
rule L& : G, A & B => D <- G, A, B => D !
rule R& : G => A & B <- G => A ! ; G => B !
rule L| : G, A | B => D <- G, A => D ! ; G, B => D !
rule R|0 : G => A | B <- G => A
rule R|1 : G => A | B <- G => B
rule L-> : G, A -> B => D <- G, A -> B => A ; G, B => D !
rule R-> : G => A -> B <- G, A => B !
"""

_G4IP_RULES = """
rule L& : G, A & B => D <- G, A, B => D !
rule R& : G => A & B <- G => A ! ; G => B !
rule L| : G, A | B => D <- G, A => D ! ; G, B => D !
rule R|0 : G => A | B <- G => A
rule R|1 : G => A | B <- G => B
rule Lp-> : G, p?, p? -> A => D <- G, p?, A => D !
rule LT-> : G, true -> A => D <- G, A => D !
rule R-> : G => A -> B <- G, A => B !
rule L&-> : G, (A & B) -> C => D <- G, A -> (B -> C) => D !
rule L|-> : G, (A | B) -> C => D <- G, A -> C, B -> C => D !
rule L->-> : G, (A -> B) -> C => D <- G, B -> C => A -> B ; G, C => D !
"""

_G4_HEADER = """
calculus {name}
mode single
measure weight
axiom At : G, p? => p?
axiom Lbot : G, false => D
axiom Rtop : G => true
"""

_G4IK_EXTRA = """
rule R[] : P, []G => []A <- G => A
rule L[]-> : P, []G, []A -> B => D <- G => A ; P, []G, B => D !
"""

_G4IKD_EXTRA = """
rule D[] : P, []G, []A => D <- G, A =>
"""

_G4LL_EXTRA = """
rule RO : G => OA <- G => A
rule LO : G, OA => OB <- G, A => OB !
rule RO-> : G, OA -> B => D <- G => A ; G, B => D !
rule LO-> : G, OC, OA -> B => D <- G, C => OA ; G, OC, B => D !
"""


def _schema(owner, items, doc) -> MetaSequent:
    """Decode one axiom or rule sequent, checking the additive context
    discipline, the single-conclusion width bound, and the contexts a
    `structural wc-admissible` declaration needs (a plain antecedent one, a
    succedent one when multi-conclusion, no boxed one)."""
    try:
        ms = MetaSequent(*items)
    except BadRuleShape as e:
        raise BadRuleShape(f"{owner}: {e}") from None
    if doc.sequent_mode == "single" and len(ms.suc.pats) > 1:
        raise BadRuleShape(f"{owner}: succedent too wide for a "
                           f"single-conclusion calculus")
    if doc.wc_admissible and not _plain(ms, doc.sequent_mode == "multi"):
        raise BadRuleShape(f"{owner}: {ms!r} lacks the plain contexts that "
                           f"'structural wc-admissible' needs")
    return ms


def from_document(doc) -> Calculus:
    """Build a calculus from a parsed CalculusDoc; BadRuleShape names the
    axiom or rule whose sequent breaks a shape condition (`_schema`)."""
    axioms = [RuleSchema(n, (), _schema(f"axiom {n}", ms, doc))
              for n, ms in doc.axioms]
    rules = [RuleSchema(n, tuple(_schema(f"rule {n}", p, doc) for p in prems),
                        _schema(f"rule {n}", conc, doc),
                        doc.invertible.get(n, frozenset()))
             for n, prems, conc in doc.rules]
    return Calculus(doc.name, doc.sequent_mode, axioms, rules, doc.measure,
                    doc.wc_admissible)


_BUILTINS: dict = {}
_SOURCES: dict = {}      # builtin key -> DSL text


def _register(text):
    calc = from_document(parse_calculus(text))
    ok, offenders = is_instance_finite(calc)
    assert ok, f"builtin {calc.name} with fresh premise variables: {offenders}"
    _BUILTINS[calc.name.lower()] = calc
    _SOURCES[calc.name.lower()] = text
    return calc


_register(_G1CP)
_register(_G1IP)
_register(_G3CP)
_register(_G3IP)
_register(_G4_HEADER.format(name="G4ip") + _G4IP_RULES)
_register(_G4_HEADER.format(name="G4iK") + _G4IP_RULES + _G4IK_EXTRA)
_register(_G4_HEADER.format(name="G4iKD") + _G4IP_RULES + _G4IK_EXTRA + _G4IKD_EXTRA)
_register(_G4_HEADER.format(name="G4LL") + _G4IP_RULES + _G4LL_EXTRA)

_ALIASES = {
    "g4ik[]": "g4ik", "g4ikbox": "g4ik",
    "g4ikd[]": "g4ikd", "g4ikdbox": "g4ikd",
}


def builtin(name: str) -> Calculus:
    key = name.lower().replace("□", "[]")
    key = _ALIASES.get(key, key)
    calc = _BUILTINS.get(key)
    if calc is None:
        raise UnknownCalculus(f"no builtin calculus named {name!r} "
                              f"(have {', '.join(sorted(_BUILTINS))})")
    return calc


def builtin_names():
    return sorted(c.name for c in _BUILTINS.values())
