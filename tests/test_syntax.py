import random
import re
import sys

import pytest
from hypothesis import given, settings

from proofkit import calculus, core, corpus, prover  # noqa: F401 (prover sets the recursion limit)
from proofkit.core import (atom, conj, disj, imp, neg, box, circle, Bot, Top,
                           FMultiset, Sequent, ameta, fmeta, weight)
from proofkit.syntax import (FORMULA_METAVARS, MULTISET_VARS, ParseError,
                             DuplicateName, SourceSpan, parse_formula,
                             parse_sequent, parse_calculus, parse_metasequent,
                             render_formula, render_sequent)
from test_core import formula_strategy

p, q = atom("p"), atom("q")


class TestParseFormula:
    def test_right_assoc(self):
        assert parse_formula("p -> q -> p") == imp(p, imp(q, p))

    def test_negation_sugar(self):
        assert parse_formula("~(p & q)") == imp(conj(p, q), Bot)

    def test_modalities(self):
        assert parse_formula("[]p | Op") == disj(box(p), circle(p))

    def test_precedence(self):
        assert parse_formula("p & q | r -> p") == imp(disj(conj(p, q), atom("r")), p)
        assert parse_formula("~p & q") == conj(neg(p), q)

    def test_constants(self):
        assert parse_formula("true") is Top
        assert parse_formula("false") is Bot

    def test_error_has_span(self):
        with pytest.raises(ParseError) as e:
            parse_formula("p -> (q &")
        assert 0 <= e.value.span.start <= e.value.span.end <= len("p -> (q &") + 1

    def test_metavariables_rejected_outside_rules(self):
        with pytest.raises(ParseError):
            parse_formula("A -> B")
        with pytest.raises(ParseError):
            parse_formula("p? -> q")


class TestParseSequent:
    def test_multiplicity_kept(self):
        s = parse_sequent("p, p => q")
        assert s.ant.count(p) == 2 and s.suc == FMultiset([q])

    def test_empty(self):
        s = parse_sequent("=>")
        assert not s.ant and not s.suc

    def test_compound(self):
        s = parse_sequent("p & q => q | r")
        assert s.ant == FMultiset([conj(p, q)])
        assert s.suc == FMultiset([disj(q, atom("r"))])


class TestRender:
    def test_round_trip_simple(self):
        assert render_formula(parse_formula("p->q")) == "p -> q"

    def test_empty_sequent(self):
        assert render_sequent(parse_sequent("=>")) == "=>"

    @given(formula_strategy(("p", "q", "r"), max_leaves=12))
    @settings(max_examples=1000)
    def test_round_trip_random(self, f):
        if weight(f) > 25:
            return
        assert parse_formula(render_formula(f)) == f

    def test_sequent_round_trip(self):
        for text in ("p, p => q", "=> p | ~p", "p & q =>", "=>"):
            s = parse_sequent(text)
            assert parse_sequent(render_sequent(s)) == s


class TestCalculusDsl:
    DOC = """
calculus Toy
mode single
measure weight
axiom Ax : G, p? => p?
rule L& : G, A & B => D <- G, A, B => D
rule Two : G => A & B <- G => A ; G => B
"""

    def test_parse(self):
        doc = parse_calculus(self.DOC)
        assert doc.name == "Toy" and doc.sequent_mode == "single"
        assert doc.measure == "weight"
        assert len(doc.axioms) == 1 and len(doc.rules) == 2
        name, prems, conc = doc.rules[1]
        assert name == "Two" and len(prems) == 2

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            parse_calculus("calculus X\naxiom A : => p?\naxiom A : p? =>")

    def test_metasequent_items(self):
        ant, suc = parse_metasequent("G, p? => p?, D")
        assert ant[0] == ("mv", "G") and ant[1][0] == "pat"
        assert suc[1] == ("mv", "D")

    def test_boxed_multiset_variable(self):
        ant, suc = parse_metasequent("P, []G => []A")
        assert ("bmv", "G") in ant
        assert suc[0][0] == "pat"

    def test_fresh_premise_metavariable_accepted(self):
        doc = parse_calculus(
            "calculus W\nrule Odd : G => A <- G => B")
        assert doc.rules[0][0] == "Odd"

    def test_rule_without_premises_rejected(self):
        with pytest.raises(ParseError):
            parse_calculus("calculus X\nrule R : G => A <-")


# (entry point, text, message, span start, span end)
ERRORS = [
    ("formula", "p $ q", "unexpected character", 2, 3),
    ("formula", "p q", "trailing input, found 'q'", 2, 3),
    ("formula", "(p", "expected ')', found 'end of input'", 2, 2),
    ("formula", "p -> (q &", "expected a formula", 9, 9),
    ("formula", "", "expected a formula", 0, 0),
    ("formula", "A -> B", "metavariable outside rule syntax", 0, 1),
    ("formula", "p? -> q", "atom metavariable outside rule syntax", 0, 2),
    ("meta", "A & G", "'G' is a multiset variable, not a formula", 4, 5),
    ("meta", "G -> p", "'G' is a multiset variable, not a formula", 0, 1),
    # a stray character is reported before an earlier grammar error
    ("formula", "p q $", "unexpected character", 4, 5),
    ("formula", "p ) -", "unexpected character", 4, 5),
    ("formula", "p-q", "unexpected character", 1, 2),
    ("formula", "p => q", "trailing input, found '=>'", 2, 4),
    ("formula", "~", "expected a formula", 1, 1),
    ("sequent", "p", "expected '=>', found 'end of input'", 1, 1),
    ("sequent", "p q => r", "expected '=>', found 'q'", 2, 3),
    ("sequent", "p, => q", "expected a formula", 3, 5),
    ("sequent", "p => q =>", "trailing input, found '=>'", 7, 9),
    ("metasequent", "G, A => D ; x", "trailing input, found ';'", 10, 11),
    ("metasequent", "[]X => A",
     "'X' is not a metavariable (formulas: A B C E F; multisets: G P D S L M)", 2, 3),
    ("meta", "A & Q",
     "'Q' is not a metavariable (formulas: A B C E F; multisets: G P D S L M)", 4, 5),
    # a metasequent error in a calculus names the line and spans into it
    ("calculus", "rule R : G => A $ <- G => A", "unexpected character on line 2", 16, 17),
    ("calculus", "axiom Ax : []X => A", "'X' is not a metavariable (formulas: A B C E F; "
     "multisets: G P D S L M) on line 2", 13, 14),
    ("calculus", "rule R : G => A <- G => A ; G => A &", "expected a formula on line 2", 36, 36),
]


def _parse_with(entry, text):
    if entry == "formula":
        return parse_formula(text)
    if entry == "meta":
        return parse_formula(text, meta=True)
    if entry == "sequent":
        return parse_sequent(text)
    if entry == "calculus":
        # the text is line 2 of a calculus
        return parse_calculus(f"calculus X\n{text}")
    return parse_metasequent(text)


class TestParseErrors:
    @pytest.mark.parametrize("entry,text,message,start,end", ERRORS)
    def test_message_and_span(self, entry, text, message, start, end):
        with pytest.raises(ParseError) as e:
            _parse_with(entry, text)
        assert (e.value.message, e.value.span, e.value.text) == (
            message, SourceSpan(start, end), text)
        assert str(e.value) == f"{message} at {start}..{end}" + (f" in {text!r}" if text else "")


# ---------------------------------------------------------------------------
# reference parser: the tokenizer and descent the current parser replaced,
# kept to check that every input parses to the same result or error

_REF_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<seq>=>)
  | (?P<box>\[\])
  | (?P<amv>[a-z][a-zA-Z0-9_']*\?)
  | (?P<name>[a-z][a-zA-Z0-9_']*)
  | (?P<upper>[A-Z])
  | (?P<punct>[&|~(),;])
""", re.VERBOSE)


def _reference_tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        m = _REF_TOKEN.match(text, i)
        if not m:
            raise ParseError("unexpected character", SourceSpan(i, i + 1), text)
        i = m.end()
        if m.lastgroup == "ws":
            continue
        toks.append((m.lastgroup, m.group(), SourceSpan(m.start(), m.end())))
    toks.append(("eof", "", SourceSpan(n, n)))
    return toks


class _ReferenceParser:
    def __init__(self, text, meta=False):
        self.text = text
        self.toks = _reference_tokenize(text)
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

    def formula(self):
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
            if val in MULTISET_VARS:
                raise ParseError(f"{val!r} is a multiset variable, not a formula",
                                 span, self.text)
            raise ParseError(f"{val!r} is not a metavariable (formulas: A B C E F; "
                             f"multisets: G P D S L M)", span, self.text)
        raise ParseError("expected a formula", span, self.text)

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


def reference_parse(entry, text):
    """The replaced parser's result for one entry point (see _parse_with)."""
    p = _ReferenceParser(text, meta=entry in ("meta", "metasequent"))
    if entry in ("formula", "meta"):
        out = p.formula()
    else:
        ant = p.items(("=>",))
        p.expect("=>")
        suc = p.items(("",) if entry == "sequent" else ("", ";"))
        out = (tuple(ant), tuple(suc))
    p.done()
    if entry == "sequent":
        return Sequent(FMultiset(f for _, f in out[0]), FMultiset(f for _, f in out[1]))
    return out


def _outcome(parse, entry, text):
    try:
        return "ok", parse(entry, text)
    except ParseError as e:
        return "error", (e.message, e.span, e.text)


def assert_same_parse(entry, text):
    """Same interned formulas (compared with `is`) or the same error."""
    got, want = _outcome(_parse_with, entry, text), _outcome(reference_parse, entry, text)
    assert got[0] == want[0], (entry, text, got, want)
    if got[0] == "error":
        assert got == want, (entry, text)
    elif entry in ("formula", "meta"):
        assert got[1] is want[1], (entry, text)
    elif entry == "sequent":
        g, w = got[1], want[1]
        assert len(g.ant) == len(w.ant) and len(g.suc) == len(w.suc), text
        assert all(a is b for a, b in zip(g.ant + g.suc,
                                          w.ant + w.suc)), text
    else:
        g, w = got[1], want[1]
        assert [len(side) for side in g] == [len(side) for side in w], text
        for a, b in zip(g[0] + g[1], w[0] + w[1]):
            assert a[0] == b[0] and a[1] is b[1], text


_FUZZ_TOKENS = (["p", "q", "r2", "x_1", "a'", "true", "false", "p?", "q?",
                 "A", "B", "G", "D", "O", "->", "=>", "[]", "&", "|", "~",
                 "(", "(", ")", ")", ",", ";"] + [" "] * 6 + ["\t", "\n"])
_FUZZ_STRAYS = ("$", "-", "=", ">", "[", "]", "?", "'", "1", "_", "é", "É", "!")


def _fuzz_piece(rng):
    return rng.choice(_FUZZ_STRAYS if rng.random() < 0.03 else _FUZZ_TOKENS)


class TestReferenceParity:
    def test_error_table(self):
        for entry, text, *_ in ERRORS:
            if entry != "calculus":      # the reference parses no calculus
                assert_same_parse(entry, text)

    @pytest.mark.parametrize("names,bound,modal", [
        (("p", "q"), 6, None), (("p", "q", "r"), 5, None),
        (("p", "q"), 5, "box"), (("p", "q"), 5, "circle")])
    def test_corpus_round_trips(self, names, bound, modal):
        for f in corpus.formulas(names, bound, modal):
            assert_same_parse("formula", render_formula(f))
        for s in corpus.sequents(names, bound, modal=modal):
            assert_same_parse("sequent", render_sequent(s))

    def test_builtin_rule_lines(self):
        texts = []
        for source in calculus._SOURCES.values():
            for line in source.splitlines():
                head, _, rest = line.split("#", 1)[0].strip().partition(" ")
                if head not in ("axiom", "rule"):
                    continue
                body = rest.partition(":")[2]
                conclusion, _, premises = body.partition("<-")
                texts.append(conclusion.strip())
                texts.extend(t.strip().removesuffix("!") for t in premises.split(";") if t.strip())
        assert len(texts) > 100
        for text in texts:
            assert_same_parse("metasequent", text)

    def test_fuzz(self):
        rng = random.Random(1201)
        entries = ("formula", "meta", "sequent", "metasequent")
        sequents = [render_sequent(s) for s in corpus.sequents(("p", "q"), 5, modal="box")]
        formulas = [render_formula(f) for f in corpus.formulas(("p", "q"), 6, modal="circle")]
        for i in range(20_000):
            entry = entries[i // 2 % 4]
            if i % 2:
                text = "".join(_fuzz_piece(rng) for _ in range(rng.randrange(12)))
            else:
                # a rendered text with one piece inserted, deleted or replaced
                text = rng.choice(sequents if "sequent" in entry else formulas)
                at = rng.randrange(len(text) + 1)
                text = text[:at] + rng.choice(("", _fuzz_piece(rng))) + text[at + rng.randrange(2):]
            assert_same_parse(entry, text)


class TestDepth:
    """Deep inputs parse under the recursion limit prover sets at import."""

    def test_nested_parentheses(self):
        assert sys.getrecursionlimit() >= 100_000
        f = parse_formula("(" * 5_000 + "p -> q" + ")" * 5_000)
        assert f is imp(p, q)
        f = parse_formula("~(" * 5_000 + "p" + ")" * 5_000)
        for _ in range(5_000):
            assert f.kind == core.IMP and f.b is Bot
            f = f.a
        assert f is p

    def test_long_implication_chain(self):
        f = parse_formula(" -> ".join(["p"] * 19_999 + ["q"]))
        for _ in range(19_999):
            assert f.kind == core.IMP and f.a is p
            f = f.b
        assert f is q
