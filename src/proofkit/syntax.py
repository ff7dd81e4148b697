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

Text is tokenized by one ``findall`` of a regular expression: whitespace
only separates tokens, and each token's kind is read off its own string, so
the recursive descent compares token strings.  No offsets are kept while
parsing.  A `ParseError`'s `SourceSpan` (0-based, half-open character
offsets) is computed only when the error is raised, by scanning the failed
text again; a character that starts no token is reported first, before any
grammar error earlier in the text.
"""

from __future__ import annotations

import re
import string
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

_TOKENS = r"->|=>|\[\]|[a-z][a-zA-Z0-9_']*\??|[A-Z]|[&|~(),;]"
_VALID = re.compile(_TOKENS)
# one findall gives every token; whitespace matches nothing and is skipped,
# and `\S` makes each stray character a token of its own
_TOKEN = re.compile(_TOKENS + r"|\S")
_LOWER = frozenset(string.ascii_lowercase)
_UPPER = frozenset(string.ascii_uppercase)
_METAVARS_HINT = (f"formulas: {' '.join(FORMULA_METAVARS)}; "
                  f"multisets: {' '.join(MULTISET_VARS)}")


class _Parser:
    """Recursive descent over the token strings of `text`; "" ends the list."""

    def __init__(self, text, meta=False):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append("")
        self.pos = 0
        self.meta = meta

    def fail(self, message, k):
        """Raise ParseError at token k.  A stray character anywhere in the
        text is reported instead, as the first error; a stray token never
        parses, so every text holding one ends here."""
        text = self.text
        spans = []
        for m in _TOKEN.finditer(text):
            if not _VALID.fullmatch(m.group()):
                raise ParseError("unexpected character", SourceSpan(*m.span()), text)
            spans.append(m.span())
        spans.append((len(text), len(text)))
        raise ParseError(message, SourceSpan(*spans[k]), text)

    def expect(self, value):
        tok = self.toks[self.pos]
        if tok != value:
            self.fail(f"expected {value!r}, found {tok or 'end of input'!r}", self.pos)
        self.pos += 1

    # formula := or ('->' formula)?     (right-associative)
    def formula(self) -> Formula:
        left = self._or()
        if self.toks[self.pos] == "->":
            self.pos += 1
            return imp(left, self.formula())
        return left

    # or := and ('|' and)*,  and := unary ('&' unary)*     (left-associative)
    def _or(self):
        toks = self.toks
        f = None
        while True:
            g = self._unary()
            while toks[self.pos] == "&":
                self.pos += 1
                g = conj(g, self._unary())
            f = g if f is None else disj(f, g)
            if toks[self.pos] != "|":
                return f
            self.pos += 1

    # unary := ('~' | '[]' | 'O') unary | '(' formula ')' | atom | metavariable
    def _unary(self):
        k = self.pos
        tok = self.toks[k]
        self.pos = k + 1
        if tok == "~":
            return core.neg(self._unary())
        if tok == "[]":
            return box(self._unary())
        if tok == "O":
            return circle(self._unary())
        if tok == "(":
            f = self.formula()
            self.expect(")")
            return f
        if tok[:1] in _LOWER:
            if tok[-1] != "?":
                return Top if tok == "true" else Bot if tok == "false" else atom(tok)
            if self.meta:
                return ameta(tok[:-1])
            self.fail("atom metavariable outside rule syntax", k)
        if tok in _UPPER:
            if not self.meta:
                self.fail("metavariable outside rule syntax", k)
            if tok in FORMULA_METAVARS:
                return fmeta(tok)
            if tok in MULTISET_VARS:
                self.fail(f"{tok!r} is a multiset variable, not a formula", k)
            self.fail(f"{tok!r} is not a metavariable ({_METAVARS_HINT})", k)
        self.fail("expected a formula", k)

    # a comma-separated list, empty if it starts at a stop value: formulas,
    # or in meta mode DSL items that may be multiset variables
    def items(self, stop_values):
        out = []
        if self.toks[self.pos] in stop_values:
            return out
        item = self.item if self.meta else self.formula
        while True:
            out.append(item())
            if self.toks[self.pos] != ",":
                return out
            self.pos += 1

    def item(self):
        tok = self.toks[self.pos]
        if tok in MULTISET_VARS:
            self.pos += 1
            return ("mv", tok)
        if tok == "[]":
            var = self.toks[self.pos + 1]
            if var in MULTISET_VARS:
                self.pos += 2
                return ("bmv", var)
        return ("pat", self.formula())

    def done(self):
        tok = self.toks[self.pos]
        if tok:
            self.fail(f"trailing input, found {tok!r}", self.pos)


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
    return Sequent(FMultiset(ant), FMultiset(suc))


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
            at = raw.index(":")
            if head == "axiom":
                axioms.append((rname, _metasequent_at(raw, lineno, body, at)[0]))
            else:
                conc_text, arrow, prem_text = body.partition("<-")
                if not arrow:
                    raise ParseError(f"rule {rname!r} lacks '<-' on line {lineno}",
                                     SourceSpan(0, len(raw)), raw)
                conclusion, at = _metasequent_at(raw, lineno, conc_text.strip(), at)
                texts = [t.strip() for t in prem_text.split(";") if t.strip()]
                if not texts:
                    raise ParseError(f"rule {rname!r} has no premises; use an axiom",
                                     SourceSpan(0, len(raw)), raw)
                invertible[rname] = frozenset(i for i, t in enumerate(texts) if t.endswith("!"))
                premises = []
                for t in texts:
                    prem, at = _metasequent_at(raw, lineno, t.removesuffix("!"), at)
                    premises.append(prem)
                rules.append((rname, premises, conclusion))
        else:
            raise ParseError(f"unknown directive {head!r} on line {lineno}",
                             SourceSpan(0, len(raw)), raw)
    if name is None:
        raise ParseError("missing 'calculus NAME' header", SourceSpan(0, 0), text[:40])
    return CalculusDoc(name, mode, measure, axioms, rules, wc_admissible, invertible)


def _metasequent_at(raw, lineno, frag, start):
    """parse_metasequent(frag), and the offset in raw just past frag, the
    first occurrence of frag in raw from start on; a ParseError names the
    line and spans into it."""
    at = raw.index(frag, start)
    try:
        return parse_metasequent(frag), at + len(frag)
    except ParseError as e:
        raise ParseError(f"{e.message} on line {lineno}",
                         SourceSpan(at + e.span.start, at + e.span.end), raw) from None
