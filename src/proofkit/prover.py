"""Backward proof search, derivation checking, and admissibility probes.

The search is depth-first backward chaining over `match_conclusion`.  For
terminating calculi (a registered termination measure) plain memoized
recursion is a decision procedure.  For the rest the engine keeps the current
branch and fails on repeats; refutations computed below a repeat hit are not
cached, so cached refutations always come from exhaustive subsearches.
A proved sequent is cached with its proof record, the instance that closed
it; its derivation is built when a caller first reads one, from the records
below it, and then stored in their place, so a caller that reads only the
answer pays for no derivation.  A query whose root (the sequent searched:
its support form when set-reduced) is cached returns before any search is
set up, with 0 nodes; an instance's premises are built when first tried.
When a premise a rule declares invertible (`RuleSchema.invertible`) fails
exhaustively, the conclusion is refuted at once and its remaining instances
are not tried.  Instances are still tried in `match_conclusion` order, so a
provable sequent gets the derivation it would get without the pruning.

The search reads nothing but `Calculus.searched`, its budget and its cache,
and what that calculus declares or implies picks the rest:

  - `structural wc-admissible` (weakening and contraction depth-preserving
    admissible): search runs on support sequents (duplicates dropped on both
    sides) and found derivations are padded back to the original multisets.
    When such a search is not terminating (no measure) it decides by
    saturating the finite space of reachable support sequents.
  - weakening and contraction rules (`Calculus.structural`, the G1
    calculi): search runs in the G3 form, decided by saturation as above,
    and each derivation read is rewritten into the calculus's own rules
    (contractions before a rule, weakenings above an axiom or a padded
    premise).

Cut is data too: `prove_with_cut` searches the calculus given plus one Cut
rule per cut formula (`RuleSchema.fixed`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import lru_cache

from . import core
from .core import (Formula, FMultiset, Sequent, EMPTY, disj, subformulas)
from .calculus import (Calculus, RuleInstance, axiom_instance, builtin,
                       instantiate, match_conclusion, match_metasequent,
                       sequent_kinds, subst_pattern)

sys.setrecursionlimit(100_000)


class ShapeMismatch(Exception):
    pass


class NotADisjunction(Exception):
    pass


class Derivation:
    """Tree of sequents; leaves are axiom instances, inner nodes rule
    applications.  `rule` is the axiom or rule name, `assignment` the
    metavariable assignment that justifies the node (a witness, read-only:
    copy it to derive another node), None when the checker must find one.

    A node is immutable: assigning an attribute after `__init__` raises
    AttributeError.  Its conclusion, rule and children decide whether it is
    a correct inference, so a verdict on a node holds for good.
    `check_derivation` records one in `checked`: the calculus object it
    last checked the whole subtree against without a defect, None until
    then."""

    __slots__ = ("conclusion", "rule", "assignment", "children", "checked")

    def __init__(self, conclusion, rule, assignment=None, children=()):
        _set_conclusion(self, conclusion)
        _set_rule(self, rule)
        _set_assignment(self, assignment)
        _set_children(self, tuple(children))
        _set_checked(self, None)

    def __setattr__(self, name, value):
        raise AttributeError(f"Derivation is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Derivation is immutable; cannot delete {name!r}")

    @property
    def is_leaf(self):
        return not self.children

    def depth(self) -> int:
        """Iterative, as is nodes(): a derivation may outgrow the stack."""
        best, stack = 0, [(self, 1)]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            stack.extend((c, d + 1) for c in node.children)
        return best

    def nodes(self):
        """Every node, in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __eq__(self, other):
        """Iterative, as is __hash__: equal subtrees, and only they, get
        equal numbers."""
        if not isinstance(other, Derivation):
            return False
        numbers = {}

        def number(node, kids):
            return numbers.setdefault((node.conclusion, node.rule, tuple(kids)), len(numbers))
        return _fold(self, number) == _fold(other, number)

    def __hash__(self):
        return _fold(self, lambda node, hashes: hash((node.conclusion, node.rule, tuple(hashes))))

    def __repr__(self):
        return f"<{self.rule} derivation of {self.conclusion!r}, depth {self.depth()}>"


# each slot's own setter (Derivation.__setattr__ refuses): cheaper than
# object.__setattr__, which looks the slot up by name on every call
_set_conclusion, _set_rule, _set_assignment, _set_children, _set_checked = (
    Derivation.__dict__[name].__set__ for name in Derivation.__slots__)


def _fold(d: Derivation, f):
    """f(node, results for its children) at d, computed bottom-up without
    recursion; a subtree shared within d is visited once."""
    done, stack = {}, [d]
    while stack:
        node = stack[-1]
        todo = [c for c in node.children if id(c) not in done]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if id(node) not in done:
            done[id(node)] = f(node, [done[id(c)] for c in node.children])
    return done[id(d)]


@dataclass
class SearchBudget:
    max_depth: int = 4096
    max_nodes: int = 5_000_000

    def __post_init__(self):
        if self.max_depth <= 0 or self.max_nodes <= 0:
            raise ValueError("budget must be positive")


# prove_with_cut's default: a cut on a pool formula can always be tried
# again, so its branches are cut off at a shallow depth
CUT_BUDGET = SearchBudget(max_depth=64)


@dataclass
class SearchStats:
    nodes: int = 0


class ProofSearchResult:
    """The outcome of a search.  A provable result's derivation is built
    when `derivation` is first read, and kept.  Until then the result
    holds a handle (cache, root, s): root is the sequent searched and
    cached, s the sequent asked, and the derivation of s is root's padded
    back to s."""

    __slots__ = ("status", "_derivation", "exhaustive", "stats")

    def __init__(self, status, derivation=None, exhaustive=False, stats=None):
        self.status = status            # provable | unprovable | budget
        self._derivation = derivation
        self.exhaustive = exhaustive
        self.stats = SearchStats() if stats is None else stats

    @property
    def derivation(self) -> Derivation | None:
        d = self._derivation
        if d.__class__ is tuple:
            cache, root, s = d
            d = _built(cache, root)
            if root is not s:
                d = _pad(cache.calc, d, s)
            self._derivation = d
        return d

    @property
    def provable(self):
        return self.status == "provable"

    def answer(self) -> bool:
        """Whether the sequent is provable, for callers that read a yes or
        no: BudgetExceeded when the search ran out of budget, which is
        neither."""
        if self.status == "budget":
            raise BudgetExceeded(f"search budget exhausted after {self.stats.nodes} nodes")
        return self.status == "provable"

    def __repr__(self):
        if self.status == "provable":
            return f"Provable(depth {self.derivation.depth()})"
        if self.status == "unprovable":
            return f"Unprovable(exhaustive={self.exhaustive})"
        return f"BudgetExceeded(nodes={self.stats.nodes})"


class BudgetExceeded(Exception):
    """A search ran out of its budget, so the question has no answer."""


class ProverCache:
    """Per-calculus memo shared between queries on request; it answers for
    its own calculus object only.

    proved maps a proved sequent to its proof record, the axiom or rule
    instance of the searched calculus that closed it (its premises proved
    before it, so the records form no cycle), or to its derivation once
    one has been read: built then from the records below it, each stored
    back in its place, so a node is built at most once and derivations
    share their subtrees.  refuted holds the sequents whose searches
    failed exhaustively.  psi_representatives maps
    (atom names, weight bound) to the formulas `uniform.verify_uniform`
    tests minimality against: when calc has a builtin's content, and so
    admits Cut, the first formula in corpus order of each class of
    formulas calc proves equivalent (the first failing formula of the
    whole corpus is always one of them); every corpus formula otherwise.
    It is built by the first check that needs it and dies with the cache.
    """

    def __init__(self, calc: Calculus):
        self.calc = calc
        self.proved = {}
        self.refuted = set()
        self.psi_representatives = {}


def shared_cache(calc: Calculus) -> ProverCache:
    """The cache kept on calc itself, so it lives exactly as long as calc."""
    if calc.shared is None:
        calc.shared = ProverCache(calc)
    return calc.shared


def _support(s: Sequent) -> Sequent:
    """s with duplicates dropped on both sides; s itself when it has none."""
    ant, suc = s.ant.support(), s.suc.support()
    if ant is s.ant and suc is s.suc:
        return s
    return Sequent(ant, suc)


class _Search:
    def __init__(self, calc, budget=None, cache=None):
        self.searched = searched = calc.searched
        self.budget = budget or SearchBudget()
        self.cache = cache if cache is not None else ProverCache(calc)
        self.terminating = searched.termination_measure is not None
        self.set_reduce = searched.wc_admissible
        # loop-checked wc-admissible search: a subformula-closed space of
        # support sequents, decided by bottom-up saturation (a least
        # fixpoint, so refutations are exhaustive and cacheable)
        self.saturate = self.set_reduce and not self.terminating
        self.stats = SearchStats()
        self.branch = set()

    # -- search --------------------------------------------------------------

    def solve(self, root: Sequent):
        """Return (provable, absolute) for root, a support sequent when
        set-reduced; absolute means the subsearch was exhaustive."""
        if self.saturate:
            return self._saturate(root), True
        return self._solve(root, self.budget.max_depth)

    def _saturate(self, root: Sequent) -> bool:
        """Decide by saturating the finite space of reachable support
        sequents bottom-up; sound and refutation-complete because weakening
        and contraction are admissible in the calculi this runs for."""
        cache = self.cache
        entries = {}     # sequent -> list[(inst, support premises)]
        waiting = {}     # premise -> list[(conclusion, entry idx)]
        missing = {}     # (conclusion, entry idx) -> unproved premises
        newly = []
        stack = [root]
        seen = set()
        while stack:
            s = stack.pop()
            if s in seen or s in cache.proved or s in cache.refuted:
                continue
            seen.add(s)
            self.stats.nodes += 1
            if self.stats.nodes > self.budget.max_nodes:
                raise BudgetExceeded()
            kinds = sequent_kinds(s)
            ax = axiom_instance(self.searched, s, kinds)
            if ax is not None:
                cache.proved[s] = ax
                newly.append(s)
                continue
            rows = []
            dedupe = set()
            for inst in match_conclusion(self.searched, s, kinds):
                prems = tuple(_support(p) for p in inst.premises)
                if prems in dedupe:
                    continue
                dedupe.add(prems)
                rows.append((inst, prems))
                stack.extend(prems)
            entries[s] = rows
        for s, rows in entries.items():
            for i, (inst, prems) in enumerate(rows):
                todo = {x for x in prems if x not in cache.proved}
                if not todo:
                    if s not in cache.proved:
                        self._close(s, inst)
                        newly.append(s)
                    continue
                missing[(s, i)] = todo
                for x in todo:
                    waiting.setdefault(x, []).append((s, i))
        while newly:
            done = newly.pop()
            for (s, i) in waiting.get(done, ()):
                if s in cache.proved:
                    continue
                todo = missing[(s, i)]
                todo.discard(done)
                if not todo:
                    self._close(s, entries[s][i][0])
                    newly.append(s)
        for s in entries:
            if s not in cache.proved:
                cache.refuted.add(s)
        return root in cache.proved

    def _solve(self, s, depth_left):
        cache = self.cache
        if s in cache.proved:
            return True, True
        if s in cache.refuted:
            return False, True
        self.stats.nodes += 1
        if self.stats.nodes > self.budget.max_nodes:
            raise BudgetExceeded()

        kinds = sequent_kinds(s)
        ax = axiom_instance(self.searched, s, kinds)
        if ax is not None:
            cache.proved[s] = ax
            return True, True

        if depth_left <= 1:
            return False, False
        if not self.terminating:
            if s in self.branch:
                return False, False
            self.branch.add(s)

        absolute = True
        seen_premises = set()
        try:
            for inst in match_conclusion(self.searched, s, kinds):
                premises = inst.premises
                if premises in seen_premises:
                    continue
                seen_premises.add(premises)
                ok_all = True
                abs_all = True
                for i, p in enumerate(premises):
                    if self.set_reduce:
                        p = _support(p)
                    ok, ab = self._solve(p, depth_left - 1)
                    abs_all = abs_all and ab
                    if not ok:
                        # an invertible premise is unprovable, so is s
                        if ab and i in inst.rule.invertible:
                            cache.refuted.add(s)
                            return False, True
                        ok_all = False
                        absolute = absolute and ab
                        break
                if ok_all:
                    self._close(s, inst)
                    return True, abs_all
        finally:
            if not self.terminating:
                self.branch.discard(s)
        if absolute:
            cache.refuted.add(s)
        return False, absolute

    def _close(self, s: Sequent, inst: RuleInstance):
        """Cache inst, whose premises are all proved, as the proof record of
        s.  A premise equal to a cached sequent is replaced by the cached
        one, so the record keeps no second copy of it alive."""
        proved = self.cache.proved
        inst._premises = tuple([p if (rec := proved.get(p)) is None else rec.conclusion
                                for p in inst._premises])
        proved[s] = inst

    def build(self, s: Sequent, root: Sequent) -> tuple:
        """The handle of the proved root of s (see ProofSearchResult), whose
        derivation is built when first read."""
        return self.cache, root, s


# ---------------------------------------------------------------------------
# derivations, built when first read

def _built(cache: ProverCache, root: Sequent) -> Derivation:
    """The derivation of root, a sequent cache.proved holds: each proof
    record below it is replaced by its derivation, children first, on an
    explicit stack (records form no cycle, and a derivation may outgrow the
    C stack)."""
    calc, proved = cache.calc, cache.proved
    d = proved[root]
    if d.__class__ is Derivation:
        return d
    reduce = calc.searched.wc_admissible
    stack = [root]
    while stack:
        t = stack[-1]
        inst = proved[t]
        if inst.__class__ is Derivation:
            stack.pop()
            continue
        # the premises as searched: their support forms when set-reduced
        prems = [_support(p) for p in inst.premises] if reduce else inst.premises
        n = len(stack)
        for p in prems:
            if proved[p].__class__ is not Derivation:
                stack.append(p)
        if len(stack) == n:
            stack.pop()
            # the last node built is root, at the bottom of the stack
            d = proved[t] = _derive(calc, inst, prems, proved)
    return d


def _derive(calc: Calculus, inst: RuleInstance, prems, proved) -> Derivation:
    """The derivation of inst.conclusion by the axiom or rule instance inst
    of calc.searched, whose premises were searched as prems, each already
    derived in proved: those derivations, padded back to the premises."""
    children = []
    for p, p2 in zip(inst.premises, prems):
        child = proved[p2]
        if p2 is not p:
            child = _pad(calc, child, p)
        children.append(child)
    s = inst.conclusion
    if calc.searched is calc:
        return Derivation(s, inst.rule.name, inst.assignment, children)
    # inst is an instance of calc's G3 form: an axiom leaf becomes the
    # bare axiom (its contexts bound to nothing) under weakenings, a rule
    # node the rule of calc applied to a copy of its principal kept in
    # the context binding (none for Cut), under contractions
    rule, asg = inst.rule, dict(inst.assignment)
    conc = rule.conclusion
    for side, half in enumerate((conc.ant, conc.suc)):
        if not rule.premises:
            asg[half.ctx] = EMPTY
        elif side == 0 or calc.mode == "multi":
            kept = FMultiset(subst_pattern(pat, asg) for pat in half.pats)
            asg[half.ctx] = asg[half.ctx].union(kept)
    return _reshaped(calc, Derivation(instantiate(conc, asg), rule.name, asg, children), s)


def _pad(calc: Calculus, d: Derivation, s: Sequent) -> Derivation:
    """d, found for the support form of s, padded back to s: woven into
    each node, or under calc's structural rules when searched as G3."""
    return _padded(calc, d, s) if calc.searched is calc else _reshaped(calc, d, s)


def _reshaped(calc: Calculus, d: Derivation, s: Sequent) -> Derivation:
    """d under calc's contractions and weakenings that turn its conclusion
    into s, which holds each formula of it at least once."""
    t = d.conclusion
    for side, (have, want) in enumerate(((t.ant, s.ant), (t.suc, s.suc))):
        for f in have.difference(want):
            d = _step(calc, "C", side, f, d)
        for f in want.difference(have):
            d = _step(calc, "W", side, f, d)
    return d


def _step(calc: Calculus, kind, side, f: Formula, child: Derivation) -> Derivation:
    """child under calc's weakening or contraction rule on side, with
    principal f."""
    rule, var = calc.structural[kind, side]
    asg = next(match_metasequent(rule.premises[0], child.conclusion, {var: f}))
    return Derivation(instantiate(rule.conclusion, asg), rule.name, asg, (child,))


@lru_cache(maxsize=4)
def cut_rule(mode):
    """The additive Cut rule as a checkable schema."""
    from .calculus import MetaSequent, RuleSchema
    from .syntax import parse_metasequent
    left = "G => A" if mode == "single" else "G => A, D"
    return RuleSchema("Cut",
                      (MetaSequent(*parse_metasequent(left)),
                       MetaSequent(*parse_metasequent("G, A => D"))),
                      MetaSequent(*parse_metasequent("G => D")))


def with_cut(calc: Calculus) -> Calculus:
    """calc plus the Cut rule (for checking cut-bearing derivations)."""
    return Calculus(calc.name + "+Cut", calc.mode, calc.axioms,
                    calc.rules + [cut_rule(calc.mode)], None)


def pad_derivation(calc, d: Derivation, extra_ant: FMultiset, extra_suc=EMPTY) -> Derivation:
    """Weave extra context into every node of d, a derivation in calc.

    Valid for `structural wc-admissible` calculi, whose schemas all carry a
    plain antecedent context (and a succedent context when multi-conclusion),
    so the surplus rides along in the context bindings that each node's own
    schema names; a node whose schema has none drops its stored assignment.
    Built bottom-up without recursion; a subtree shared within d is padded
    once, and the copy is shared in turn.
    """
    if not extra_ant and not extra_suc:
        return d

    def padded(node, children):
        asg = node.assignment
        if asg is not None:
            asg = dict(asg)
            for ctx, extra in zip(calc.contexts[not node.children, node.rule],
                                  (extra_ant, extra_suc)):
                if extra:
                    if ctx is None:
                        asg = None
                        break
                    asg[ctx] = asg[ctx].union(extra)
        c = node.conclusion
        return Derivation(Sequent(c.ant.union(extra_ant), c.suc.union(extra_suc)),
                          node.rule, asg, children)
    return _fold(d, padded)


def _padded(calc: Calculus, d: Derivation, s: Sequent) -> Derivation:
    """d, a derivation of the support form of s, padded back to s."""
    return pad_derivation(calc, d, s.ant.difference(d.conclusion.ant),
                          s.suc.difference(d.conclusion.suc))


# ---------------------------------------------------------------------------
# public entry points

def prove(calc: Calculus, s: Sequent, budget: SearchBudget | None = None,
          cache: ProverCache | None = None) -> ProofSearchResult:
    """Backward proof search; sound, and complete for terminating calculi.
    A cache must belong to calc (ValueError otherwise).  A root the cache
    holds is answered with no search (0 nodes, exhaustive)."""
    if cache is not None and cache.calc is not calc:
        raise ValueError(f"the cache belongs to {cache.calc.name}, not {calc.name}")
    if calc.mode == "single" and not s.is_single_conclusion():
        raise ValueError(f"{calc.name} is single-conclusion; got {s!r}")
    # the sequent searched and cached: s, or its support form
    root = _support(s) if calc.searched.wc_admissible else s
    if cache is not None:
        d = cache.proved.get(root)
        if d is not None:
            if d.__class__ is not Derivation or root is not s:
                d = cache, root, s
            return ProofSearchResult("provable", d, True)
        if root in cache.refuted:
            return ProofSearchResult("unprovable", None, True)
    search = _Search(calc, budget, cache)
    try:
        ok, absolute = search.solve(root)
    except BudgetExceeded:
        return ProofSearchResult("budget", stats=search.stats)
    if ok:
        return ProofSearchResult("provable", search.build(s, root), True, search.stats)
    return ProofSearchResult("unprovable", None, absolute, search.stats)


def prove_with_cut(calc: Calculus, s: Sequent, cut_pool=None,
                   budget: SearchBudget | None = None) -> ProofSearchResult:
    """Search in calc plus the (additive) Cut rule, cutformulas drawn from
    the pool; the default pool is the subformulas of s.  The calculus searched
    has calc's axioms, its rules unmarked (marks presume Cut admissible), one
    Cut per distinct pool formula, A fixed to it, and no measure."""
    if cut_pool is None:
        pool = set()
        for f in s.ant + s.suc:
            pool |= subformulas(f)
        cut_pool = sorted(pool, key=Formula.sort_key)
    if not cut_pool:
        return prove(calc, s, budget)
    rules = [replace(r, invertible=frozenset()) for r in calc.rules]
    rules += [replace(cut_rule(calc.mode), fixed=(("A", f),)) for f in dict.fromkeys(cut_pool)]
    derived = Calculus(calc.name + "+Cut", calc.mode, calc.axioms, rules, None, calc.wc_admissible)
    return prove(derived, s, budget or CUT_BUDGET)


_LOGIC_CALCULI = {"CPC": "G3cp", "IPC": "G4ip", "IK": "G4iK", "IKD": "G4iKD", "LL": "G4LL"}


def calculus_for_logic(logic: str) -> Calculus:
    key = logic.upper().replace("□", "").replace("[]", "").replace("BOX", "")
    if key not in _LOGIC_CALCULI:
        raise KeyError(f"unknown logic {logic!r}; know {sorted(_LOGIC_CALCULI)}")
    return builtin(_LOGIC_CALCULI[key])


def decide(logic: str, f: Formula, cache: ProverCache | None = None) -> bool:
    """Total decision procedure: proves (=> f) in the logic's terminating
    calculus; BudgetExceeded if the search runs out of budget."""
    calc = calculus_for_logic(logic)
    if cache is None:
        cache = shared_cache(calc)
    return prove(calc, Sequent(EMPTY, FMultiset([f])), cache=cache).answer()


def split_disjunction(logic: str, f: Formula):
    """Which disjunct of a provable disjunction is provable (Left preferred);
    Neither when the disjunction itself is unprovable."""
    if f.kind != core.OR:
        raise NotADisjunction(repr(f))
    if decide(logic, f.a):
        return "Left"
    if decide(logic, f.b):
        return "Right"
    return "Neither"


# ---------------------------------------------------------------------------
# derivation checking

def check_derivation(calc: Calculus, d: Derivation):
    """Validate every node of d against calc; returns a list of
    (path, message) defects in pre-order, empty when the derivation is
    correct.

    A subtree whose root is marked checked against calc (`Derivation.checked`
    is calc itself) is skipped: it was walked before and had no defect.
    After a walk of a subtree adds no defect its root is marked, so a node
    shared between derivations is checked once per calculus object, and a
    node is never marked while any node of its subtree is faulty.
    Nodes made by `pad_derivation` or loaded from a `.drv` file are new and
    unmarked, so they are checked in full.  The walk is iterative, so depth
    is bounded by memory, not by the recursion limit."""
    defects = []
    single = calc.mode == "single"
    # entries (node, path, None) to check; (node, None, n) to mark node
    # when its subtree has left the defect count at n
    stack = [(d, (), None)]
    while stack:
        node, path, seen = stack.pop()
        if seen is not None:
            if len(defects) == seen:
                _set_checked(node, calc)
            continue
        if node.checked is calc:
            continue
        stack.append((node, None, len(defects)))
        if single and not node.conclusion.is_single_conclusion():
            defects.append((path, f"multi-conclusion sequent {node.conclusion!r}"))
        # a leaf closes by an axiom, an inner node by a rule
        kind, schemas = ("axiom", calc.axioms) if node.is_leaf else ("rule", calc.rules)
        rule = next((r for r in schemas if r.name == node.rule), None)
        if rule is None:
            defects.append((path, f"unknown {kind} {node.rule!r}"))
        elif len(rule.premises) != len(node.children):
            defects.append((path, f"{node.rule} expects {len(rule.premises)} "
                                  f"premises, got {len(node.children)}"))
        elif not _instance_ok(rule, node):
            defects.append((path, f"not an instance of {node.rule}: "
                                  f"{node.conclusion!r}"))
        for i in reversed(range(len(node.children))):
            stack.append((node.children[i], path + (i,), None))
    return defects


def _instance_ok(rule, node) -> bool:
    asg = node.assignment
    if asg is None:
        return witness(rule, node) is not None
    try:
        if instantiate(rule.conclusion, asg) != node.conclusion:
            return False
        return all(instantiate(p, asg) == c.conclusion
                   for p, c in zip(rule.premises, node.children))
    except KeyError:
        return False


def witness(rule, node):
    """An assignment under which node is an instance of rule, derived from
    its children's conclusions first, then its own (this also covers
    non-maximal boxed-context splits); None when there is none."""
    def chain(i, asg):
        if i == len(rule.premises):
            yield from match_metasequent(rule.conclusion, node.conclusion, asg)
            return
        for asg1 in match_metasequent(rule.premises[i], node.children[i].conclusion, asg):
            yield from chain(i + 1, asg1)

    return next(chain(0, {}), None)


# ---------------------------------------------------------------------------
# minimal proof depth (terminating calculi)

def min_depth(calc: Calculus, s: Sequent, memo=None):
    """Least derivation depth of s in a terminating calculus, None if
    unprovable.  Axioms have depth 1."""
    if calc.termination_measure is None:
        raise ValueError(f"{calc.name} is not registered terminating")
    if memo is None:
        memo = {}
    if s in memo:
        return memo[s]
    if axiom_instance(calc, s) is not None:
        memo[s] = 1
        return 1
    best = None
    for inst in match_conclusion(calc, s):
        worst = 0
        for p in inst.premises:
            dp = min_depth(calc, p, memo)
            if dp is None:
                worst = None
                break
            worst = max(worst, dp)
        if worst is not None:
            cand = 1 + worst
            if best is None or cand < best:
                best = cand
    memo[s] = best
    return best


# ---------------------------------------------------------------------------
# inversion

def invert(calc: Calculus, s: Sequent, side: str, principal: Formula):
    """The premises marked invertible of the first instance, in
    `match_conclusion` order, of a rule with marks whose conclusion places
    principal on side ("left" or "right") of s: each is provable whenever s
    is.  ShapeMismatch when there is no such instance."""
    if side not in ("left", "right"):
        raise ShapeMismatch(f"side must be 'left' or 'right', got {side!r}")
    for inst in match_conclusion(calc, s):
        rule = inst.rule
        pats = (rule.conclusion.ant if side == "left" else rule.conclusion.suc).pats
        if rule.invertible and any(subst_pattern(p, inst.assignment) is principal
                                   for p in pats):
            return [inst.premises[i] for i in sorted(rule.invertible)]
    raise ShapeMismatch(f"no invertible rule of {calc.name} has {principal!r} "
                        f"as a {side} principal of {s!r}")


# ---------------------------------------------------------------------------
# admissibility probes

@dataclass
class ProbeReport:
    calculus: str
    rule: str
    checked: int
    violations: list

    @property
    def ok(self):
        return not self.violations

    def render(self):
        head = f"{self.rule} on {self.calculus}: {self.checked} cases, "
        if self.ok:
            return head + "no violations"
        lines = [head + f"{len(self.violations)} violations"]
        for item in self.violations[:10]:
            lines.append(f"  {item}")
        return "\n".join(lines)


def admissibility_probe(calc: Calculus, rule: str, corpus, extras=None,
                        cache=None) -> ProbeReport:
    """Empirical depth-preserving admissibility check.

    For LW/RW/LC/RC: every provable corpus sequent of minimal depth n must
    keep a proof of depth <= n after the structural change (weakening by
    each formula in extras, contraction of each duplicate).  For Cut: every
    corpus sequent provable with Cut over its subformula pool must be
    provable without it.
    """
    violations = []
    checked = 0
    if rule == "Cut":
        for s in corpus:
            with_cut = prove_with_cut(calc, s)
            if not with_cut.provable:
                continue
            checked += 1
            if not prove(calc, s, cache=cache).answer():
                violations.append(s)
        return ProbeReport(calc.name, rule, checked, violations)

    memo = {}
    extras = list(extras or [])
    for s in corpus:
        n = min_depth(calc, s, memo)
        if n is None:
            continue
        variants = []
        if rule == "LW":
            variants = [Sequent(s.ant.add(x), s.suc) for x in extras]
        elif rule == "RW":
            variants = [Sequent(s.ant, s.suc.add(x)) for x in extras]
        elif rule == "LC":
            variants = [Sequent(s.ant.remove(f), s.suc)
                        for f in s.ant.support() if s.ant.count(f) >= 2]
        elif rule == "RC":
            variants = [Sequent(s.ant, s.suc.remove(f))
                        for f in s.suc.support() if s.suc.count(f) >= 2]
        else:
            raise ValueError(f"unknown structural rule {rule!r}")
        for v in variants:
            if calc.mode == "single" and not v.is_single_conclusion():
                continue
            checked += 1
            m = min_depth(calc, v, memo)
            if m is None or m > n:
                violations.append((s, v, n, m))
    return ProbeReport(calc.name, rule, checked, violations)
