"""Answer checks that do not trust proofkit.

Nothing here imports proofkit: formulas are read from their text with a
parser of the benchmark's own and represented as nested tuples
``("atom", name)``, ``("top",)``, ``("bot",)``, ``(op, a, b)`` with
``op`` one of ``"and"``, ``"or"``, ``"imp"``.  Classical truth is
computed over all valuations at once: each formula evaluates to an integer
whose bit ``r`` is its value in valuation ``r``.

The checks are exact where logic allows and necessary conditions
elsewhere:

* CPC provability is exact (truth tables).
* ``=> ~~phi`` is IPC-provable exactly when ``phi`` is a classical
  tautology (Glivenko 1929), so the ``~~`` queries have an exact oracle.
* Craig and uniform interpolants are checked against the classical
  consequences of their defining clauses and against the atom bound.
* The wide families carry their verdict by construction.
"""

from __future__ import annotations

import re

TOP = ("top",)
BOT = ("bot",)

_TOKEN = re.compile(r"\s*(->|=>|[&|~(),]|[a-z][a-zA-Z0-9_']*)")


class OracleSyntaxError(ValueError):
    pass


def _tokens(text):
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise OracleSyntaxError(f"cannot read {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Reader:
    def __init__(self, text):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise OracleSyntaxError("unexpected end of input")
        self.pos += 1
        return tok

    def formula(self):
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return ("imp", left, self.formula())
        return left

    def disjunction(self):
        f = self.conjunction()
        while self.peek() == "|":
            self.take()
            f = ("or", f, self.conjunction())
        return f

    def conjunction(self):
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = ("and", f, self.unary())
        return f

    def unary(self):
        if self.peek() == "~":
            self.take()
            return ("imp", self.unary(), BOT)
        tok = self.take()
        if tok == "(":
            f = self.formula()
            if self.take() != ")":
                raise OracleSyntaxError("expected ')'")
            return f
        if tok == "true":
            return TOP
        if tok == "false":
            return BOT
        if tok[0].isalpha():
            return ("atom", tok)
        raise OracleSyntaxError(f"unexpected {tok!r}")

    def items(self, stop):
        out = []
        if self.peek() == stop:
            return out
        while True:
            out.append(self.formula())
            if self.peek() != ",":
                return out
            self.take()

    def done(self):
        if self.peek() is not None:
            raise OracleSyntaxError(f"trailing {self.peek()!r}")


def parse_formula(text):
    r = _Reader(text)
    f = r.formula()
    r.done()
    return f


def parse_sequent(text):
    """``(antecedent list, succedent list)``."""
    r = _Reader(text)
    ant = r.items("=>")
    if r.take() != "=>":
        raise OracleSyntaxError("expected '=>'")
    suc = r.items(None)
    r.done()
    return ant, suc


def render(f):
    """Fully parenthesised text that proofkit's parser reads back."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "top":
        return "true"
    if tag == "bot":
        return "false"
    op = {"and": " & ", "or": " | ", "imp": " -> "}[tag]
    return "(" + render(f[1]) + op + render(f[2]) + ")"


def atoms(f, acc=None):
    acc = set() if acc is None else acc
    stack = [f]
    while stack:
        g = stack.pop()
        if g[0] == "atom":
            acc.add(g[1])
        elif len(g) == 3:
            stack.append(g[1])
            stack.append(g[2])
    return acc


def atoms_of(fs):
    acc = set()
    for f in fs:
        atoms(f, acc)
    return acc


def weight(f):
    """Dyckhoff's weight: atoms and constants 1, | and -> add 1, & adds 2."""
    if len(f) < 3:
        return 1
    return weight(f[1]) + weight(f[2]) + (2 if f[0] == "and" else 1)


def big_and(fs):
    out = TOP
    for f in fs:
        out = f if out == TOP else ("and", out, f)
    return out


def big_or(fs):
    out = BOT
    for f in fs:
        out = f if out == BOT else ("or", out, f)
    return out


def substitute(f, name, value):
    if f[0] == "atom":
        return value if f[1] == name else f
    if len(f) < 3:
        return f
    return (f[0], substitute(f[1], name, value), substitute(f[2], name, value))


# ---------------------------------------------------------------------------
# truth tables

def _columns(names):
    """Bit columns for each atom over the 2**n valuations, plus the all-ones
    mask."""
    names = sorted(names)
    rows = 1 << len(names)
    full = (1 << rows) - 1
    cols = {}
    for i, n in enumerate(names):
        col = 0
        for r in range(rows):
            if (r >> i) & 1:
                col |= 1 << r
        cols[n] = col
    return cols, full


def _value(f, cols, full):
    tag = f[0]
    if tag == "atom":
        return cols[f[1]]
    if tag == "top":
        return full
    if tag == "bot":
        return 0
    a = _value(f[1], cols, full)
    b = _value(f[2], cols, full)
    if tag == "and":
        return a & b
    if tag == "or":
        return a | b
    return (full ^ a) | b


def entails(premises, conclusions):
    """Classical consequence: every valuation making all premises true makes
    some conclusion true."""
    cols, full = _columns(atoms_of(list(premises) + list(conclusions)))
    lhs = full
    for f in premises:
        lhs &= _value(f, cols, full)
    rhs = 0
    for f in conclusions:
        rhs |= _value(f, cols, full)
    return lhs & ~rhs & full == 0


def equivalent(a, b):
    cols, full = _columns(atoms(a) | atoms(b))
    return _value(a, cols, full) == _value(b, cols, full)


def tautology(f):
    return entails([], [f])


def double_negation(phi):
    """``~~phi``; by Glivenko's theorem ``=> ~~phi`` is IPC-provable exactly
    when ``phi`` is a classical tautology."""
    return ("imp", ("imp", phi, BOT), BOT)


# ---------------------------------------------------------------------------
# interpolant checks: each returns a list of problems, empty when fine

def craig_problems(gamma, pi, delta, alpha):
    """Classical necessary conditions for a Craig interpolant of the split
    ``gamma ; pi => delta``: gamma |= alpha, pi, alpha |= delta, and alpha
    speaks only the common language."""
    problems = []
    if not entails(gamma, [alpha]):
        problems.append("gamma does not classically entail the interpolant")
    if not entails(list(pi) + [alpha], delta):
        problems.append("pi plus the interpolant does not classically entail delta")
    extra = atoms(alpha) - (atoms_of(gamma) & (atoms_of(pi) | atoms_of(delta)))
    if extra:
        problems.append(f"interpolant atoms {sorted(extra)} outside the common language")
    return problems


def _atom_bound(ant, suc, p, parts):
    allowed = atoms_of(list(ant) + list(suc)) - {p}
    extra = set()
    for part in parts:
        extra |= atoms(part) - allowed
    return [f"uniform interpolant atoms {sorted(extra)} outside the target minus {p}"] if extra else []


def classical_uniform_problems(ant, suc, p, forall_part, exists_part):
    """Exact CPC check: forall p I(S) and exists p (/\\ant & ~\\/suc) by the
    substitution definition."""
    problems = _atom_bound(ant, suc, p, (forall_part, exists_part))
    reading = ("imp", big_and(ant), big_or(suc))
    want_fa = ("and", substitute(reading, p, TOP), substitute(reading, p, BOT))
    refute = ("and", big_and(ant), ("imp", big_or(suc), BOT))
    want_ex = ("or", substitute(refute, p, TOP), substitute(refute, p, BOT))
    if not equivalent(forall_part, want_fa):
        problems.append("forall part differs classically from the substitution definition")
    if not equivalent(exists_part, want_ex):
        problems.append("exists part differs classically from the substitution definition")
    return problems


def ipc_uniform_problems(ant, suc, p, forall_part, exists_part):
    """Classical shadows of (forall-l) ant, A => suc and (exists-r) ant => E,
    plus the atom bound."""
    problems = _atom_bound(ant, suc, p, (forall_part, exists_part))
    if not entails(list(ant) + [forall_part], suc):
        problems.append("(forall-l) fails classically")
    if not entails(ant, [exists_part]):
        problems.append("(exists-r) fails classically")
    return problems


# ---------------------------------------------------------------------------
# the wide families, verdicts by construction

def wide_sequent(family, names, goal):
    """Sequent text and verdict for one wide query.

    ``names`` is the ordered atom list; ``goal`` an atom name.
    conj:   names[0] & ... & names[n-1] => goal   (goal in names: provable)
    absent: the same conjunction => goal          (goal not in names: unprovable)
    chain:  names[0], names[0] -> names[1], ... => names[n-1]   (provable)
    """
    if family in ("conj", "absent"):
        text = " & ".join(names) + " => " + goal
        return text, goal in names
    if family == "chain":
        items = [names[0]] + [f"{a} -> {b}" for a, b in zip(names, names[1:])]
        return ", ".join(items) + " => " + names[-1], True
    raise ValueError(f"unknown wide family {family!r}")
