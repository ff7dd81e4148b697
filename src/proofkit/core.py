"""Formulas, multisets, sequents, substitutions, and complexity orders.

All values here are immutable.  Formulas are interned: only `_mk` constructs
them, so constructing the same formula twice yields the same object, and
equal formulas are identical.  `Formula` therefore keeps the default identity
equality and hash; `_intern` keeps every formula alive, so no identity is
ever reused.  Interning a formula also stores its shape, weight, degree
and sort key, each from its children's, so reading them never recurses;
only its atom set is computed on first use, to spare memory.  A multiset
(`FMultiset`) is the tuple of its members in canonical order, so it equals
a plain tuple with the same members in that order.  Nothing in this module
depends on any calculus.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Iterable

# ---------------------------------------------------------------------------
# formulas

ATOM = "atom"
TOP = "top"
BOT = "bot"
AND = "and"
OR = "or"
IMP = "imp"
BOX = "box"
CIRCLE = "circle"
# pattern-only leaves (used by the rule DSL; never produced by parse_formula)
FMETA = "fmeta"   # formula metavariable A, B, C
AMETA = "ameta"   # atom-restricted metavariable p?

BINARY = (AND, OR, IMP)
UNARY = (BOX, CIRCLE)

_KIND_RANK = {BOT: 0, TOP: 1, ATOM: 2, AMETA: 3, FMETA: 4,
              BOX: 5, CIRCLE: 6, AND: 7, OR: 8, IMP: 9}

# (kind, first child's kind) -> the shape of a unary or binary formula
SHAPES = {(k, c): f"{k}/{c}" for k in BINARY + UNARY for c in _KIND_RANK}


class Formula:
    """One node of a formula tree.

    `kind` is one of the module-level tags; `a` holds the atom name or the
    left/inner child, `b` the right child (binary kinds only).  `shape` is
    the kind for a leaf and `SHAPES[kind, a.kind]` otherwise, so a rule
    pattern such as p? -> A can be ruled out by a set of member shapes.

    `shape`, `_weight`, `_degree` and `_key` are set here, each in O(1) from
    the children's stored values (`_mk` interns the children first), so
    `weight`, `degree` and `sort_key` are reads that never recurse, however
    deep the formula.  `_atoms` alone is filled on first use, by the
    iterative `_scan`: a frozenset per formula built eagerly measured about
    +1.4 MB peak RSS on the `decide` benchmark and +1 MB on `wide`.
    """

    __slots__ = ("kind", "a", "b", "shape", "_weight", "_degree", "_atoms", "_key")

    def __init__(self, kind, a=None, b=None):
        self.kind = kind
        self.a = a
        self.b = b
        self._atoms = None
        rank = _KIND_RANK[kind]
        if b is not None:
            self.shape = SHAPES[kind, a.kind]
            self._weight = w = a._weight + b._weight + (2 if kind == AND else 1)
            self._degree = a._degree + b._degree + 1
            self._key = (w, rank, a._key, b._key)
        elif isinstance(a, Formula):
            self.shape = SHAPES[kind, a.kind]
            self._weight = w = a._weight + 1
            self._degree = a._degree + 1
            self._key = (w, rank, a._key)
        else:
            # a leaf: a is its name, or None for top and bot
            self.shape = kind
            self._weight = 1
            self._degree = 0 if a is None else 1
            self._key = (1, rank) if a is None else (1, rank, a)

    # the canonical order: (weight, kind rank, children's keys), or
    # (1, kind rank[, name]) for a leaf; a C-level key function
    sort_key = attrgetter("_key")

    def __repr__(self):
        from .syntax import render_formula
        return render_formula(self)

    def _scan(self):
        names = set()
        stack = [self]
        while stack:
            f = stack.pop()
            k = f.kind
            if k == ATOM:
                names.add(f.a)
            elif k in BINARY:
                stack.append(f.a)
                stack.append(f.b)
            elif k in UNARY:
                stack.append(f.a)
        self._atoms = frozenset(names)


_intern: dict = {}


def _mk(kind, a=None, b=None) -> Formula:
    key = (kind, a, b)
    f = _intern.get(key)
    if f is None:
        f = Formula(kind, a, b)
        _intern[key] = f
    return f


Top = _mk(TOP)
Bot = _mk(BOT)


def atom(name: str) -> Formula:
    return _mk(ATOM, name)


def conj(a: Formula, b: Formula) -> Formula:
    return _mk(AND, a, b)


def disj(a: Formula, b: Formula) -> Formula:
    return _mk(OR, a, b)


def imp(a: Formula, b: Formula) -> Formula:
    return _mk(IMP, a, b)


# constant-folding constructors: drop top/bot units, keep conjuncts and
# disjuncts in canonical order, and fold a -> a to true

def fconj(a: Formula, b: Formula) -> Formula:
    if a is Top:
        return b
    if b is Top:
        return a
    if a is Bot or b is Bot:
        return Bot
    return conj(*sorted((a, b), key=Formula.sort_key))


def fdisj(a: Formula, b: Formula) -> Formula:
    if a is Bot:
        return b
    if b is Bot:
        return a
    if a is Top or b is Top:
        return Top
    return disj(*sorted((a, b), key=Formula.sort_key))


def fimp(a: Formula, b: Formula) -> Formula:
    if a is Top:
        return b
    if b is Top or a is Bot or a == b:
        return Top
    return imp(a, b)


def fconj_all(xs) -> Formula:
    out = Top
    for x in xs:
        out = fconj(out, x)
    return out


def fdisj_all(xs) -> Formula:
    out = Bot
    for x in xs:
        out = fdisj(out, x)
    return out


def neg(a: Formula) -> Formula:
    """Negation is not a constructor: ~a abbreviates a -> false."""
    return _mk(IMP, a, Bot)


def box(a: Formula) -> Formula:
    return _mk(BOX, a)


def circle(a: Formula) -> Formula:
    return _mk(CIRCLE, a)


def fmeta(name: str) -> Formula:
    return _mk(FMETA, name)


def ameta(name: str) -> Formula:
    return _mk(AMETA, name)


def atoms(x) -> frozenset:
    """Atom names occurring in a formula or sequent."""
    if isinstance(x, Formula):
        if x._atoms is None:
            x._scan()
        return x._atoms
    if isinstance(x, Sequent):
        out = frozenset()
        for f in x.ant:
            out |= atoms(f)
        for f in x.suc:
            out |= atoms(f)
        return out
    out = frozenset()
    for f in x:
        out |= atoms(f)
    return out


def metavars(f: Formula) -> frozenset:
    """Names of fmeta/ameta leaves in a pattern formula."""
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind in (FMETA, AMETA):
            out.add(g.a)
        elif g.kind in BINARY:
            stack.append(g.a)
            stack.append(g.b)
        elif g.kind in UNARY:
            stack.append(g.a)
    return frozenset(out)


def weight(f: Formula) -> int:
    """Dyckhoff's weight: atoms and constants 1, modalities +1,
    | and -> add 1, & adds 2."""
    return f._weight


def degree(f: Formula) -> int:
    """d(bot)=d(top)=0, d(p)=1, modalities +1, binary d(a)+d(b)+1."""
    return f._degree


def subformulas(f: Formula) -> frozenset:
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if g.kind in BINARY:
            stack.append(g.a)
            stack.append(g.b)
        elif g.kind in UNARY:
            stack.append(g.a)
    return frozenset(out)


def polarity_atoms(f: Formula):
    """(positive, negative) atom sets; -> flips its antecedent."""
    pos, negs = set(), set()
    stack = [(f, True)]
    while stack:
        g, sign = stack.pop()
        k = g.kind
        if k == ATOM:
            (pos if sign else negs).add(g.a)
        elif k in BINARY:
            stack.append((g.a, sign if k != IMP else not sign))
            stack.append((g.b, sign))
        elif k in UNARY:
            stack.append((g.a, sign))
    return frozenset(pos), frozenset(negs)


# ---------------------------------------------------------------------------
# substitutions

def apply_subst(m: dict, x):
    """Replace atoms by formulas, {name: formula}, in a formula or sequent."""
    if isinstance(x, Sequent):
        return Sequent(FMultiset(apply_subst(m, f) for f in x.ant),
                       FMultiset(apply_subst(m, f) for f in x.suc))

    def go(f):
        k = f.kind
        if k == ATOM:
            return m.get(f.a, f)
        if k in (TOP, BOT, FMETA, AMETA):
            return f
        if k in UNARY:
            return _mk(k, go(f.a))
        return _mk(k, go(f.a), go(f.b))

    return go(x)


# ---------------------------------------------------------------------------
# multisets and sequents

class FMultiset(tuple):
    """An immutable finite multiset of formulas: the tuple of its members in
    canonical `Formula.sort_key` order, so one object per multiset.
    Equality, hashing, `len`, iteration, `in` and `count` are the tuple's,
    and a multiset equals the plain tuple of the same members in that order.
    Every empty result is the shared `EMPTY`."""

    __slots__ = ()

    def __new__(cls, items: Iterable[Formula] = ()):
        xs = sorted(items, key=Formula.sort_key)
        return tuple.__new__(cls, xs) if xs else EMPTY

    def __init__(self, items: Iterable[Formula] = ()):
        """Nothing to do: `__new__` builds the multiset.  Kept as the name
        bench/tracing.py wraps to count and time multiset construction."""

    @staticmethod
    def _wrap(sorted_items) -> "FMultiset":
        return tuple.__new__(FMultiset, sorted_items) if sorted_items else EMPTY

    def add(self, *fs) -> "FMultiset":
        """self plus fs, each merged into the canonical order."""
        xs = list(self)
        for f in fs:
            insort(xs, f, key=Formula.sort_key)
        return FMultiset._wrap(xs)

    def union(self, other) -> "FMultiset":
        return FMultiset([*self, *other])

    def remove(self, f) -> "FMultiset":
        """Drop one occurrence of f (which must be present)."""
        xs = list(self)
        xs.remove(f)
        return FMultiset._wrap(xs)

    def difference(self, other) -> "FMultiset":
        """Drop one occurrence per member of other; absent members are
        ignored."""
        drop = _counts(other)
        xs = []
        for f in self:
            if drop.get(f):
                drop[f] -= 1
            else:
                xs.append(f)
        return FMultiset._wrap(xs)

    def contains(self, other) -> bool:
        """Multiset inclusion, multiplicities respected."""
        have = _counts(self)
        for f in other:
            n = have.get(f)
            if not n:
                return False
            have[f] = n - 1
        return True

    def support(self) -> "FMultiset":
        """Each distinct member once (self when there are no duplicates)."""
        xs = dict.fromkeys(self)
        if len(xs) == len(self):
            return self
        return FMultiset._wrap(xs)

    def __repr__(self):
        return "{" + ", ".join(map(repr, self)) + "}"


EMPTY = tuple.__new__(FMultiset)


def _counts(xs) -> dict:
    """Multiplicity of each member; a plain dict, which beats `Counter` on
    the few-formula multisets of a sequent."""
    counts = {}
    for f in xs:
        counts[f] = counts.get(f, 0) + 1
    return counts


class Sequent:
    """A pair of finite multisets: antecedent => succedent."""

    __slots__ = ("ant", "suc", "_hash")

    def __init__(self, ant, suc):
        self.ant = ant if isinstance(ant, FMultiset) else FMultiset(ant)
        self.suc = suc if isinstance(suc, FMultiset) else FMultiset(suc)
        self._hash = hash((self.ant, self.suc))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Sequent):
            return NotImplemented
        # the prover caches compare sequents on every hit
        return self.ant == other.ant and self.suc == other.suc

    def is_single_conclusion(self) -> bool:
        return len(self.suc) <= 1

    def __repr__(self):
        from .syntax import render_sequent
        return render_sequent(self)


def sub_multisets(ms: FMultiset, movable=None):
    """Every split of ms into (part, rest) with part + rest = ms.  Only
    members f with movable(f) (all, by default) may go into part.  The first
    distinct member's share varies fastest."""
    out = [((), ())]
    for f in reversed(ms.support()):
        n = ms.count(f)
        ks = range(n + 1) if movable is None or movable(f) else (0,)
        out = [((f,) * k + part, (f,) * (n - k) + rest)
               for part, rest in out for k in ks]
    return [(FMultiset(part), FMultiset(rest)) for part, rest in out]


def sequent(ant=(), suc=()) -> Sequent:
    return Sequent(FMultiset(ant), FMultiset(suc))


def conj_all(fs) -> Formula:
    """Fold a conjunction left-to-right over the canonical order; empty = top."""
    xs = sorted(fs, key=Formula.sort_key)
    if not xs:
        return Top
    out = xs[0]
    for f in xs[1:]:
        out = conj(out, f)
    return out


def disj_all(fs) -> Formula:
    xs = sorted(fs, key=Formula.sort_key)
    if not xs:
        return Bot
    out = xs[0]
    for f in xs[1:]:
        out = disj(out, f)
    return out


def interpret(s: Sequent) -> Formula:
    """I(G => D) = /\\G -> \\/D with the empty conventions top and bot."""
    return imp(conj_all(s.ant), disj_all(s.suc))


# ---------------------------------------------------------------------------
# partitioned sequents

class SplitAnt:
    """G ; P => D - an antecedent two-way split used by Craig interpolation."""

    __slots__ = ("gamma", "pi", "delta")

    def __init__(self, gamma, pi, delta):
        self.gamma = gamma if isinstance(gamma, FMultiset) else FMultiset(gamma)
        self.pi = pi if isinstance(pi, FMultiset) else FMultiset(pi)
        self.delta = delta if isinstance(delta, FMultiset) else FMultiset(delta)

    def underlying(self) -> Sequent:
        return Sequent(self.gamma.union(self.pi), self.delta)

    def __eq__(self, other):
        return (isinstance(other, SplitAnt) and self.gamma == other.gamma
                and self.pi == other.pi and self.delta == other.delta)

    def __hash__(self):
        return hash((self.gamma, self.pi, self.delta))

    def __repr__(self):
        g = ", ".join(repr(f) for f in self.gamma)
        p = ", ".join(repr(f) for f in self.pi)
        d = ", ".join(repr(f) for f in self.delta)
        return f"{g} ; {p} => {d}"


# ---------------------------------------------------------------------------
# Dershowitz-Manna orders

def _measure_fn(measure):
    if measure == "degree":
        return degree
    if measure == "weight":
        return weight
    raise ValueError(f"unknown measure {measure!r}")


def multiset_less(a: FMultiset, b: FMultiset, measure="weight") -> bool:
    """a < b iff a arises from b by replacing one or more members with
    finitely many members of strictly smaller measure."""
    m = _measure_fn(measure)
    extra_a = a.difference(b)   # members only in a (the replacements)
    extra_b = b.difference(a)   # members removed from b
    if not extra_b:
        return False
    top = max(m(x) for x in extra_b)
    return all(m(y) < top for y in extra_a)


def sequent_less(s1: Sequent, s2: Sequent, measure="weight") -> bool:
    return multiset_less(s1.ant.union(s1.suc), s2.ant.union(s2.suc), measure)
