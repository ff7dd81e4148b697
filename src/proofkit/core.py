"""Formulas, multisets, sequents, substitutions, and complexity orders.

All values here are immutable.  Formulas are interned: only `_mk` constructs
them, so constructing the same formula twice yields the same object, and
equal formulas are identical.  `Formula` therefore keeps the default identity
equality and hash; `_intern` keeps every formula alive, so no identity is
ever reused.  Nothing in this module depends on any calculus.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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
    """

    __slots__ = ("kind", "a", "b", "shape", "_weight", "_degree", "_atoms", "_key")

    def __init__(self, kind, a=None, b=None):
        self.kind = kind
        self.a = a
        self.b = b
        # a leaf's a is a name or None
        self.shape = SHAPES[kind, a.kind] if isinstance(a, Formula) else kind
        self._weight = None
        self._degree = None
        self._atoms = None
        self._key = None

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

    def sort_key(self):
        if self._key is None:
            k = self.kind
            if k in (TOP, BOT):
                self._key = (1, _KIND_RANK[k])
            elif k in (ATOM, FMETA, AMETA):
                self._key = (1, _KIND_RANK[k], self.a)
            elif k in UNARY:
                ak = self.a.sort_key()
                self._key = (weight(self), _KIND_RANK[k], ak)
            else:
                self._key = (weight(self), _KIND_RANK[k],
                             self.a.sort_key(), self.b.sort_key())
        return self._key


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
    w = f._weight
    if w is not None:
        return w
    k = f.kind
    if k in (ATOM, TOP, BOT, FMETA, AMETA):
        w = 1
    elif k in UNARY:
        w = weight(f.a) + 1
    elif k == AND:
        w = weight(f.a) + weight(f.b) + 2
    else:
        w = weight(f.a) + weight(f.b) + 1
    f._weight = w
    return w


def degree(f: Formula) -> int:
    """d(bot)=d(top)=0, d(p)=1, modalities +1, binary d(a)+d(b)+1."""
    d = f._degree
    if d is not None:
        return d
    k = f.kind
    if k in (TOP, BOT):
        d = 0
    elif k in (ATOM, FMETA, AMETA):
        d = 1
    elif k in UNARY:
        d = degree(f.a) + 1
    else:
        d = degree(f.a) + degree(f.b) + 1
    f._degree = d
    return d


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

    def walk(g, sign):
        k = g.kind
        if k == ATOM:
            (pos if sign else negs).add(g.a)
        elif k in BINARY:
            if k == IMP:
                walk(g.a, not sign)
            else:
                walk(g.a, sign)
            walk(g.b, sign)
        elif k in UNARY:
            walk(g.a, sign)

    walk(f, True)
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

class FMultiset:
    """Immutable multiset of formulas kept as a canonically sorted tuple."""

    __slots__ = ("items", "_hash")

    def __init__(self, items: Iterable[Formula] = ()):
        xs = list(items)
        xs.sort(key=Formula.sort_key)
        self.items = tuple(xs)
        self._hash = None

    @staticmethod
    def _wrap(sorted_items) -> "FMultiset":
        m = object.__new__(FMultiset)
        m.items = tuple(sorted_items)
        m._hash = None
        return m

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __bool__(self):
        return bool(self.items)

    def __hash__(self):
        # computed on first use: most multisets that rule matching builds
        # (the remainders bound to contexts) are never hashed
        if self._hash is None:
            self._hash = hash(self.items)
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, FMultiset):
            return NotImplemented
        return self.items == other.items

    def __contains__(self, f):
        return f in self.items

    def count(self, f) -> int:
        return self.items.count(f)

    def add(self, *fs) -> "FMultiset":
        return FMultiset(self.items + fs)

    def union(self, other) -> "FMultiset":
        other_items = other.items if isinstance(other, FMultiset) else tuple(other)
        return FMultiset(self.items + other_items)

    def remove(self, f) -> "FMultiset":
        """Drop one occurrence of f (which must be present)."""
        xs = list(self.items)
        xs.remove(f)
        return FMultiset._wrap(xs)

    def difference(self, other) -> "FMultiset":
        """Drop one occurrence per member of other; absent members are
        ignored."""
        drop = _counts(other)
        xs = []
        for f in self.items:
            if drop.get(f):
                drop[f] -= 1
            else:
                xs.append(f)
        return FMultiset._wrap(xs)

    def contains(self, other) -> bool:
        """Multiset inclusion, multiplicities respected."""
        have = _counts(self.items)
        for f in other:
            n = have.get(f)
            if not n:
                return False
            have[f] = n - 1
        return True

    def support(self) -> "FMultiset":
        """Each distinct member once (self when there are no duplicates)."""
        xs = dict.fromkeys(self.items)
        if len(xs) == len(self.items):
            return self
        return FMultiset._wrap(xs)

    def __repr__(self):
        return "{" + ", ".join(repr(f) for f in self.items) + "}"


EMPTY = FMultiset()


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
        return self.ant.items == other.ant.items and self.suc.items == other.suc.items

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
    for f in reversed(ms.support().items):
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


class RestInterp:
    """A componentwise split S = S^r . S^i used by uniform interpolation."""

    __slots__ = ("rest", "interp")

    def __init__(self, rest: Sequent, interp: Sequent):
        self.rest = rest
        self.interp = interp

    def underlying(self) -> Sequent:
        return Sequent(self.rest.ant.union(self.interp.ant),
                       self.rest.suc.union(self.interp.suc))

    def __eq__(self, other):
        return (isinstance(other, RestInterp) and self.rest == other.rest
                and self.interp == other.interp)

    def __hash__(self):
        return hash((self.rest, self.interp))

    def __repr__(self):
        return f"({self.rest!r} . {self.interp!r})"


def seq_multiply(s1: Sequent, s2: Sequent) -> Sequent:
    """Componentwise multiset union of two sequents."""
    return Sequent(s1.ant.union(s2.ant), s1.suc.union(s2.suc))


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
    extra_a = list(a.difference(b))   # members only in a (the replacements)
    extra_b = list(b.difference(a))   # members removed from b
    if not extra_b:
        return False
    top = max(m(x) for x in extra_b)
    return all(m(y) < top for y in extra_a)


def sequent_less(s1: Sequent, s2: Sequent, measure="weight") -> bool:
    return multiset_less(s1.ant.union(s1.suc), s2.ant.union(s2.suc), measure)
