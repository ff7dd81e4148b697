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
p? -> A).  A schema whose side needs what no member of the sequent side
is (`Side.kinds`) has no instance there, and which schemas remain
depends only on the set of member shapes on each side (`sequent_kinds`,
read once per search node).  So each calculus keeps a schema table
(`Calculus.dispatch`), filled as lookups miss: per side, a map from a
shape set to the bitmask of the schemas whose side it admits, and a map
from the two masks' intersection to the admitted axioms and rules in
declaration order, a rule with fresh premise variables never among them.
`match_conclusion` and `axiom_instance` pick their candidates by three
dictionary lookups and match only those (`_instances`).  Within a
schema the formula patterns of both sides are placed first, most specific
first (`MetaSequent.plan`: p? -> A before p?, a metavariable already bound
found by its occurrences), and the contexts are bound once per complete
placement.  The instance order is nevertheless the one of trying the
patterns in written order, antecedent first, each on every remaining
occurrence in canonical position order: placements are re-sorted into that
order when the plan differs from it.  So `match_conclusion` lists instances
in rule order, then principal-occurrence order, with the same assignments.

The matching is compiled: one generated Python function per (schema
sequent, names the caller bound before matching), built on first use and
kept on the `MetaSequent` (`_compile_matcher`), walks the plan as nested
loops with every test and pattern destructuring inline.  It reads the
sequent's sides directly, as the canonical tuples they are (`FMultiset`),
and binds a context to the slices the patterns leave, made a multiset by
`FMultiset._wrap` with no re-sorting.  `instantiate` calls one generated
filler per schema sequent.  Names from a `.cal` file reach
the generated source only as `repr` literals or namespace constants.

All built-in rules are additive: contexts are repeated verbatim across
premises, so matching a conclusion never splits a context between two plain
multiset variables.  When a side carries both a plain and a boxed multiset
variable (the modal rules), backward matching binds the boxed variable
maximally; smaller bindings are subsumed because weakening is admissible in
those calculi.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import count
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

    def admits(self, shapes) -> bool:
        """False when the side needs a kind or shape that no member of a
        sequent side with these member shapes has."""
        return self.kinds <= shapes.union(map(_SHAPE_KIND.get, shapes, shapes))


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

    @cached_property
    def names(self) -> frozenset:
        """Every metavariable of both sides, contexts included."""
        return frozenset(self.ant.metavars() | self.suc.metavars())

    @cached_property
    def matchers(self) -> dict:
        """{the names among `names` bound before matching, None when
        nothing is: compiled matcher}, filled on first use."""
        return {}

    @cached_property
    def filler(self):
        """The compiled `instantiate` of this sequent."""
        return _compile_filler(self)

    def admits(self, kinds) -> bool:
        """False when a side needs a kind or shape that the sequent, whose
        (antecedent, succedent) `sequent_kinds` are given, lacks: then no
        placement exists and the matcher need not scan the side."""
        return self.ant.admits(kinds[0]) and self.suc.admits(kinds[1])

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
    def named(self):
        """{(is an axiom, name): the first schema of that name}; first, since
        a cut search's calculus has one Cut per cut formula."""
        out = {}
        for is_axiom, schemas in ((True, self.axioms), (False, self.rules)):
            for r in schemas:
                out.setdefault((is_axiom, r.name), r)
        return out

    @cached_property
    def dispatch(self):
        """The schema table, (antecedent map, succedent map, admitted map),
        filled as lookups miss.  A side map takes a side's `sequent_kinds`
        to the bitmask of the schemas (axioms, then rules) whose conclusion
        side admits it; the admitted map takes the two masks' intersection
        to (axioms, rules) in declaration order, without fresh rules."""
        schemas, n = self.axioms + self.rules, len(self.axioms)

        def side_map(side):
            return _Lookup(lambda shapes: sum(
                1 << i for i, r in enumerate(schemas) if side(r.conclusion).admits(shapes)))

        def admitted(mask):
            live = [i for i, r in enumerate(schemas) if mask >> i & 1 and not r.fresh]
            return (tuple(schemas[i] for i in live if i < n),
                    tuple(schemas[i] for i in live if i >= n))

        return side_map(attrgetter("ant")), side_map(attrgetter("suc")), _Lookup(admitted)

    def rule(self, name) -> RuleSchema:
        r = self.named.get((False, name))
        if r is None:
            raise KeyError(name)
        return r

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


def _rest(items, taken):
    """items without the positions in taken."""
    kept, start = (), 0
    for i in sorted(taken):
        kept += items[start:i]
        start = i + 1
    return kept + items[start:]


def _span(row, f):
    """The positions of f's occurrences in row, adjacent in canonical order
    (`index` compares by identity first)."""
    try:
        i = j = row.index(f)
    except ValueError:
        return ()
    while j < len(row) and row[j] is f:
        j += 1
    return range(i, j)


def _bind_contexts(side: Side, ms: FMultiset, taken, asg):
    """Bind, or check against a prior binding, the side's boxed and plain
    contexts on what the patterns leave of ms; None on a mismatch.  Compiled
    matchers call it for a boxed context or a context bound before matching."""
    if taken:
        ms = FMultiset._wrap(_rest(ms, taken))
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


def _compile(name, src, consts, **names):
    """exec src, which defines name, in a namespace of names and of the
    constants k0, k1, ...: user text never enters src but as repr literals."""
    ns = dict(names, FMultiset=FMultiset, **{f"k{n}": c for n, c in enumerate(consts)})
    exec(compile("\n".join(src), f"<proofkit {name}>", "exec"), ns)
    return ns[name]


def _compile_matcher(ms: MetaSequent, key):
    """The matcher of ms when the names in key are bound before matching
    (None: no prior assignment), (sequent, prior) -> the assignments
    `match_metasequent` yields.  One nested loop per `MetaSequent.plan`
    entry: the need, shared-member and occupied-slot tests, then the
    pattern destructured (a bound metavariable by identity, a subpattern
    without metavariables by identity with its interned formula)."""
    plan, resort = ms.plan
    sides, rows = (ms.ant, ms.suc), ("ant", "suc")
    bound, local, new, consts, temps = set(key or ()), {}, [], [], count()
    src = ["def match(s, asg):", " ant = s.ant", " suc = s.suc", " out = []"]

    def emit(line, depth):
        src.append(" " * depth + line)

    def destructure(pat, expr, known, depth):
        # known: 2 when the need fixed pat's kind and its first child's, 1 its kind
        k = pat.kind
        if k in (core.FMETA, core.AMETA):
            if k == core.AMETA and not known:
                emit(f"if {expr}.kind != 'atom': continue", depth)
            if pat.a in bound:
                emit(f"if {expr} is not {local[pat.a]}: continue", depth)
            else:
                bound.add(pat.a)
                new.append(pat.a)
                local[pat.a] = f"v{len(local)}"
                emit(f"{local[pat.a]} = {expr}", depth)
        elif not metavars(pat):
            emit(f"if {expr} is not k{len(consts)}: continue", depth)
            consts.append(pat)
        else:
            if not known:
                emit(f"if {expr}.kind != {k!r}: continue", depth)
            for n, child in enumerate((pat.a,) if k in core.UNARY else (pat.a, pat.b)):
                sub = f"{expr}.{'ab'[n]}"
                if child.kind in core.BINARY + core.UNARY:
                    temp = f"t{next(temps)}"
                    emit(f"{temp} = {sub}", depth)
                    sub = temp
                destructure(child, sub, known == 2 and n == 0, depth)

    pat_names = {v for p in ms.ant.pats + ms.suc.pats for v in metavars(p)}
    for name in sorted(bound & pat_names):
        local[name] = f"v{len(local)}"
        emit(f"{local[name]} = asg[{name!r}]", 1)
    for n, (side, row) in enumerate(zip(sides, rows)):
        if side.ctx is None and side.boxed is None:
            emit(f"if len({row}) != {len(side.pats)}: return out", 1)
        if any(e[5] and e[1] == n for e in plan):
            emit(f"m{row} = set({row})", 1)
    depth, at = 1, {}               # at: slot -> its position variable
    for j, (slot, side, pat, var, need, shared, others) in enumerate(plan):
        row, placed = rows[side], var in bound
        if placed:
            emit(f"for i{j} in _span({row}, {local[var]}):", depth)
        else:
            emit(f"for i{j}, g{j} in enumerate({row}):", depth)
            if need is not None:
                attr = "shape" if need in _SHAPE_KIND else "kind"
                emit(f"if g{j}.{attr} != {need!r}: continue", depth + 1)
            if shared:
                emit(f"if g{j}.a not in m{row}: continue", depth + 1)
        depth += 1
        if others:
            emit(f"if {' or '.join(f'i{j} == {at[t]}' for t in others)}: continue", depth)
        if not placed:
            destructure(pat, f"g{j}", 2 if need in _SHAPE_KIND else need is not None, depth)
        at[slot] = f"i{j}"
    # contexts: inline for a plain one nobody bound, _bind_contexts for a boxed
    # or bound one; a side with neither was taken whole by the length test
    entries, binds, na = [f"{n!r}: {local[n]}" for n in new], [], len(ms.ant.pats)
    for n, (side, row) in enumerate(zip(sides, rows)):
        taken = [at[t] for t in (range(na) if n == 0 else range(na, len(plan)))]
        if side.boxed is not None or side.ctx in bound:
            binds.append(f"d = _bind_contexts(side{n}, s.{row}, "
                         f"({''.join(t + ', ' for t in taken)}), d)")
        elif side.ctx is not None:
            rest = (f"s.{row}" if not taken else
                    f"FMultiset._wrap({row}[:{taken[0]}] + {row}[{taken[0]} + 1:])"
                    if len(taken) == 1 else f"FMultiset._wrap(_rest({row}, ({', '.join(taken)})))")
            if binds:
                binds.append(f"d[{side.ctx!r}] = {rest}")
            else:
                entries.append(f"{side.ctx!r}: {rest}")
        # a name the antecedent bound is checked, not rebound, in the succedent
        bound.update(v for v in (side.ctx, side.boxed) if v is not None)
    emit("d = {" + ", ".join(["**asg"] * (key is not None) + entries) + "}", depth)
    for line in binds:
        emit(line, depth)
        if line.startswith("d = "):
            emit("if d is not None:", depth)
            depth += 1
    pos = ", ".join(at[t] for t in range(len(plan)))
    emit(f"out.append((({pos}), d))" if resort else "out.append(d)", depth)
    if resort:
        emit("if len(out) > 1: out.sort(key=_first)", 1)
        emit("return [d for _, d in out]", 1)
    else:
        emit("return out", 1)
    return _compile("match", src, consts, _span=_span, _rest=_rest, _first=itemgetter(0),
                    _bind_contexts=_bind_contexts, side0=ms.ant, side1=ms.suc)


def match_metasequent(ms: MetaSequent, s: Sequent, asg=None):
    """Yield every assignment under which ms instantiates to s, in the order
    of the occurrences the patterns take: antecedent patterns in written
    order, then succedent ones, each choice tried in canonical position
    order.  The work is done by ms's compiled matcher for the names asg
    binds among ms's own (`_compile_matcher`), built on first use."""
    key = ms.names.intersection(asg) if asg else None
    fn = ms.matchers.get(key)
    if fn is None:
        fn = ms.matchers[key] = _compile_matcher(ms, key)
    yield from fn(s, asg)


def _compile_filler(ms: MetaSequent):
    """ms's instantiation, asg -> Sequent: the patterns substituted and
    merged into the context binding (`FMultiset.add`), which is already in
    canonical order; a side that adds nothing is the bound multiset itself."""
    consts = []

    def subst(pat):
        if pat.kind in (core.FMETA, core.AMETA):
            return f"asg[{pat.a!r}]"
        if not metavars(pat):
            consts.append(pat)
            return f"k{len(consts) - 1}"
        kids = (pat.a,) if pat.kind in core.UNARY else (pat.a, pat.b)
        return f"_mk({pat.kind!r}, {', '.join(map(subst, kids))})"

    def fill(side):
        out = [subst(p) for p in side.pats] + [f"*map(box, asg[{side.boxed!r}])"] * bool(side.boxed)
        if side.ctx is None:
            return f"FMultiset(({''.join(x + ', ' for x in out)}))"
        return f"asg[{side.ctx!r}].add({', '.join(out)})" if out else f"asg[{side.ctx!r}]"

    src = ["def fill(asg):", f" return Sequent({fill(ms.ant)}, {fill(ms.suc)})"]
    return _compile("fill", src, consts, _mk=core._mk, box=box, Sequent=Sequent)


def instantiate(ms: MetaSequent, asg) -> Sequent:
    """The sequent ms denotes under asg (KeyError for an unbound name)."""
    return ms.filler(asg)


class _Lookup(dict):
    """A dict that fills a missing key with fill(key) and keeps it."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _admitted(calc: Calculus, kinds):
    """(axioms, rules) of calc that may have an instance at a sequent
    whose `sequent_kinds` are kinds: three lookups in `Calculus.dispatch`."""
    ant, suc, admitted = calc.dispatch
    return admitted[ant[kinds[0]] & suc[kinds[1]]]


def _instances(schemas, s: Sequent):
    """Yield the instances of schemas whose conclusion is s: schema order,
    then principal-occurrence order."""
    for rule in schemas:
        for asg in match_metasequent(rule.conclusion, s, dict(rule.fixed) if rule.fixed else None):
            yield RuleInstance(rule, asg, s)


def match_conclusion(calc: Calculus, s: Sequent, kinds=None):
    """All rule instances of calc whose conclusion is s, in deterministic
    order: rule order, then principal-occurrence order.  kinds, when
    given, is `sequent_kinds(s)`."""
    return list(_instances(_admitted(calc, kinds or sequent_kinds(s))[1], s))


def axiom_instance(calc: Calculus, s: Sequent, kinds=None):
    """The first axiom instance whose conclusion is s, else None.  kinds,
    when given, is `sequent_kinds(s)`."""
    return next(_instances(_admitted(calc, kinds or sequent_kinds(s))[0], s), None)


def sequent_kinds(s: Sequent):
    """The sets of member shapes (`core.Formula.shape`) on each side of s:
    the key of a schema-table lookup, and what `MetaSequent.admits` reads.
    A search computes them once per node."""
    return frozenset(map(_shape, s.ant)), frozenset(map(_shape, s.suc))


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
