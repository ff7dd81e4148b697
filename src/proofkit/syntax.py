"""Text syntax for formulas, sequents, and the calculus DSL.

Surface syntax is plain ASCII:

    &  |  ->  ~        connectives (precedence ~/[]/O > & > | > ->)
    true  false        constants
    []a                box, Oa the lax circle
    p, q, r2, x_1      atoms: lowercase identifiers
    a, b => c          sequents; either side may be empty

The same grammar with ``meta=True`` additionally accepts rule-schema
metavariables: ``A B C E F`` for formulas, ``p? q? r?`` for atoms, and in
sequent item position ``G P D S L M`` for multiset variables, ``[]G`` for a
boxed multiset variable.

`->` is right-associative; `&` and `|` associate to the left; `~a` is sugar
for ``a -> false``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import core
from .core import (Formula, FMultiset, Sequent, atom, ameta, fmeta, conj,
                   disj, imp, box, circle, Top, Bot)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int

    def __post_init__(self):
        assert self.start <= self.end


class ParseError(Exception):
    def __init__(self, message, span: SourceSpan, text=""):
        self.message = message
        self.span = span
        self.text = text
        super().__init__(f"{message} at {span.start}..{span.end}"
                         + (f" in {text!r}" if text else ""))


class DuplicateName(Exception):
    pass


FORMULA_METAVARS = ("A", "B", "C", "E", "F")
MULTISET_VARS = ("G", "P", "D", "S", "L", "M")

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<seq>=>)
  | (?P<box>\[\])
  | (?P<amv>[a-z][a-zA-Z0-9_']*\?)
  | (?P<name>[a-z][a-zA-Z0-9_']*)
  | (?P<upper>[A-Z])
  | (?P<punct>[&|~(),;])
""", re.VERBOSE)


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        m = _TOKEN.match(text, i)
        if not m:
            raise ParseError("unexpected character", SourceSpan(i, i + 1), text)
        i = m.end()
        if m.lastgroup == "ws":
            continue
        toks.append((m.lastgroup, m.group(), SourceSpan(m.start(), m.end())))
    toks.append(("eof", "", SourceSpan(n, n)))
    return toks


class _Parser:
    def __init__(self, text, meta=False):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.meta = meta

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, value):
        kind, val, span = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}",
                             span, self.text)

    def error(self, msg):
        _, val, span = self.peek()
        raise ParseError(msg + (f", found {val!r}" if val else ", found end of input"),
                         span, self.text)

    # formula := imp
    def formula(self) -> Formula:
        return self._imp()

    def _imp(self):
        left = self._or()
        if self.peek()[1] == "->":
            self.next()
            return imp(left, self._imp())
        return left

    def _or(self):
        f = self._and()
        while self.peek()[1] == "|":
            self.next()
            f = disj(f, self._and())
        return f

    def _and(self):
        f = self._unary()
        while self.peek()[1] == "&":
            self.next()
            f = conj(f, self._unary())
        return f

    def _unary(self):
        kind, val, span = self.peek()
        if val == "~":
            self.next()
            return core.neg(self._unary())
        if val == "[]":
            self.next()
            return box(self._unary())
        if kind == "upper" and val == "O":
            self.next()
            return circle(self._unary())
        return self._primary()

    def _primary(self):
        kind, val, span = self.next()
        if val == "(":
            f = self._imp()
            self.expect(")")
            return f
        if kind == "name":
            if val == "true":
                return Top
            if val == "false":
                return Bot
            return atom(val)
        if kind == "amv":
            if not self.meta:
                raise ParseError("atom metavariable outside rule syntax", span, self.text)
            return ameta(val[:-1])
        if kind == "upper":
            if not self.meta:
                raise ParseError("metavariable outside rule syntax", span, self.text)
            if val in FORMULA_METAVARS:
                return fmeta(val)
            raise ParseError(f"{val!r} is a multiset variable, not a formula", span, self.text)
        raise ParseError("expected a formula", span, self.text)

    # sequent item lists; in meta mode items may be multiset variables
    def items(self, stop_values):
        out = []
        if self.peek()[1] in stop_values:
            return out
        while True:
            out.append(self.item())
            if self.peek()[1] == ",":
                self.next()
                continue
            return out

    def item(self):
        if self.meta:
            kind, val, span = self.peek()
            if kind == "upper" and val in MULTISET_VARS:
                self.next()
                return ("mv", val)
            if val == "[]":
                nkind, nval, _ = self.toks[self.pos + 1]
                if nkind == "upper" and nval in MULTISET_VARS:
                    self.next()
                    self.next()
                    return ("bmv", nval)
        return ("pat", self.formula())

    def done(self):
        if self.peek()[0] != "eof":
            self.error("trailing input")


def parse_formula(text: str, meta=False) -> Formula:
    p = _Parser(text, meta)
    f = p.formula()
    p.done()
    return f


def parse_sequent(text: str) -> Sequent:
    p = _Parser(text, meta=False)
    ant = p.items(("=>",))
    p.expect("=>")
    suc = p.items(("",))
    p.done()
    return Sequent(FMultiset(f for _, f in ant), FMultiset(f for _, f in suc))


def parse_metasequent(text: str):
    """A meta-sequent: tuple (ant_items, suc_items) of DSL items."""
    p = _Parser(text, meta=True)
    ant = p.items(("=>",))
    p.expect("=>")
    suc = p.items(("", ";"))
    p.done()
    return (tuple(ant), tuple(suc))


# ---------------------------------------------------------------------------
# rendering

_PREC = {core.IMP: 1, core.OR: 2, core.AND: 3}


def render_formula(f: Formula) -> str:
    def go(g, prec):
        k = g.kind
        if k == core.ATOM:
            return g.a
        if k == core.TOP:
            return "true"
        if k == core.BOT:
            return "false"
        if k == core.FMETA:
            return g.a
        if k == core.AMETA:
            return g.a + "?"
        if k == core.IMP and g.b.kind == core.BOT:
            return "~" + go(g.a, 4)
        if k == core.BOX:
            return "[]" + go(g.a, 4)
        if k == core.CIRCLE:
            return "O" + go(g.a, 4)
        mine = _PREC[k]
        op = {core.AND: " & ", core.OR: " | ", core.IMP: " -> "}[k]
        if k == core.IMP:  # right-associative
            s = go(g.a, mine + 1) + op + go(g.b, mine)
        else:              # left-associative
            s = go(g.a, mine) + op + go(g.b, mine + 1)
        if mine < prec:
            return "(" + s + ")"
        return s

    return go(f, 0)


def render_multiset(ms: FMultiset) -> str:
    return ", ".join(render_formula(f) for f in ms)


def render_sequent(s: Sequent) -> str:
    left = render_multiset(s.ant)
    right = render_multiset(s.suc)
    if left and right:
        return f"{left} => {right}"
    if left:
        return f"{left} =>"
    if right:
        return f"=> {right}"
    return "=>"


def render(x) -> str:
    if isinstance(x, Formula):
        return render_formula(x)
    if isinstance(x, Sequent):
        return render_sequent(x)
    from .prover import Derivation
    if isinstance(x, Derivation):
        from .proofio import emit_derivation
        return emit_derivation(x)
    raise TypeError(f"cannot render {type(x).__name__}")


# ---------------------------------------------------------------------------
# calculus documents

@dataclass
class CalculusDoc:
    name: str
    sequent_mode: str                 # "single" | "multi"
    measure: str | None               # optional termination measure
    axioms: list                      # [(name, metasequent)]
    rules: list                       # [(name, [premise ms], conclusion ms)]
    wc_admissible: bool = False       # `structural wc-admissible` declared
    # rule name -> indexes of the premises marked invertible (a trailing `!`)
    invertible: dict = field(default_factory=dict)


def parse_calculus(text: str) -> CalculusDoc:
    name = None
    mode = "multi"
    measure = None
    wc_admissible = False
    axioms = []
    rules = []
    invertible = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "calculus":
            name = rest
        elif head == "mode":
            if rest not in ("single", "multi"):
                raise ParseError(f"bad mode {rest!r} on line {lineno}",
                                 SourceSpan(0, len(raw)), raw)
            mode = rest
        elif head == "measure":
            if rest not in ("degree", "weight"):
                raise ParseError(f"bad measure {rest!r} on line {lineno}",
                                 SourceSpan(0, len(raw)), raw)
            measure = rest
        elif head == "structural":
            if rest != "wc-admissible":
                raise ParseError(f"bad structural declaration {rest!r} on line {lineno}",
                                 SourceSpan(0, len(raw)), raw)
            wc_admissible = True
        elif head in ("axiom", "rule"):
            rname, sep, body = rest.partition(":")
            rname = rname.strip()
            if not sep or not rname:
                raise ParseError(f"missing name on line {lineno}",
                                 SourceSpan(0, len(raw)), raw)
            if rname in seen:
                raise DuplicateName(f"{rname!r} declared twice")
            seen.add(rname)
            body = body.strip()
            if head == "axiom":
                axioms.append((rname, parse_metasequent(body)))
            else:
                conc_text, arrow, prem_text = body.partition("<-")
                if not arrow:
                    raise ParseError(f"rule {rname!r} lacks '<-' on line {lineno}",
                                     SourceSpan(0, len(raw)), raw)
                conclusion = parse_metasequent(conc_text.strip())
                texts = [t.strip() for t in prem_text.split(";") if t.strip()]
                if not texts:
                    raise ParseError(f"rule {rname!r} has no premises; use an axiom",
                                     SourceSpan(0, len(raw)), raw)
                invertible[rname] = frozenset(i for i, t in enumerate(texts) if t.endswith("!"))
                premises = [parse_metasequent(t.removesuffix("!")) for t in texts]
                rules.append((rname, premises, conclusion))
        else:
            raise ParseError(f"unknown directive {head!r} on line {lineno}",
                             SourceSpan(0, len(raw)), raw)
    if name is None:
        raise ParseError("missing 'calculus NAME' header", SourceSpan(0, 0), text[:40])
    return CalculusDoc(name, mode, measure, axioms, rules, wc_admissible, invertible)
