"""Structured text files for derivations (.drv), natural deduction proofs
(.ndp), and Hilbert proofs (.hlp).

All three are indentation-based trees or numbered step lists, one node per
line, designed to be readable in a diff.
"""

from __future__ import annotations

from .nd import Assume, Inf
from .hilbert import HilbertProof, Step
from .prover import Derivation
from .syntax import parse_formula, parse_sequent, render_formula, render_sequent


class FormatError(Exception):
    pass


class UnknownRuleName(Exception):
    pass


# ---------------------------------------------------------------------------
# derivations

def emit_derivation(d: Derivation, calculus_name: str | None = None) -> str:
    def line(node):
        tag = "axiom" if node.is_leaf else "rule"
        return f"{tag} {node.rule} :: {render_sequent(node.conclusion)}"

    return _write_tree(d, calculus_name and f"calculus {calculus_name}", line)


def _write_tree(root, header, line) -> str:
    """The indentation-based text of the tree at root, two spaces per
    level, after the header line if there is one; line renders a node."""
    lines = [header] if header else []

    def walk(node, depth):
        lines.append("  " * depth + line(node))
        for c in node.children:
            walk(c, depth + 1)

    walk(root, 0)
    return "\n".join(lines) + "\n"


def load_derivation(text: str, calc=None) -> Derivation:
    known = None
    if calc is not None:
        known = {r.name for r in calc.axioms + calc.rules} | {"Cut"}

    def parse(raw):
        head, sep, seq_text = raw.lstrip(" ").partition("::")
        if not sep:
            raise FormatError(f"missing '::' in {raw!r}")
        parts = head.split()
        if len(parts) != 2 or parts[0] not in ("rule", "axiom"):
            raise FormatError(f"expected 'rule NAME ::' or 'axiom NAME ::' in {raw!r}")
        name, seq = parts[1], parse_sequent(seq_text.strip())
        if known is not None and name not in known:
            raise UnknownRuleName(f"{name!r} is not part of {calc.name}")
        return (lambda children: Derivation(seq, name, None, children)), False

    return _read_tree(text, "calculus ", parse, "empty derivation file")


def _read_tree(text, header, parse, empty):
    """The tree an indentation-based file spells, two spaces per level.
    Blank lines, `#` comments and header lines are skipped; parse turns
    each node line into (build, leaf): build(children) makes the node, and
    a leaf takes no children."""
    rows = []
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#") or raw.startswith(header):
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % 2:
            raise FormatError(f"odd indentation in {raw!r}")
        rows.append((indent // 2, parse(raw)))
    if not rows:
        raise FormatError(empty)

    def build(i, depth):
        level, (make, leaf) = rows[i]
        if level != depth:
            raise FormatError(f"bad indentation at line {i + 1}")
        children = []
        j = i + 1
        while not leaf and j < len(rows) and rows[j][0] > depth:
            if rows[j][0] == depth + 1:
                child, j = build(j, depth + 1)
                children.append(child)
            else:
                raise FormatError(f"indentation jump at line {j + 1}")
        return make(children), j

    root, end = build(0, 0)
    if end != len(rows):
        raise FormatError("trailing nodes outside the root tree")
    return root


# ---------------------------------------------------------------------------
# natural deduction

def emit_nd(d, system: str | None = None) -> str:
    def line(node):
        if isinstance(node, Assume):
            return f"assume {render_formula(node.formula)} [{node.label}]"
        labels = ",".join(node.discharged)
        return f"nd {node.rule} [{labels}] :: {render_formula(node.formula)}"

    return _write_tree(d, system and f"system {system}", line)


def load_nd(text: str):
    def parse(raw):
        body = raw.lstrip(" ")
        if body.startswith("assume "):
            rest = body[len("assume "):]
            fml, sep, label = rest.rpartition("[")
            if not sep or not label.endswith("]"):
                raise FormatError(f"assumption needs a [label]: {body!r}")
            node = Assume(parse_formula(fml.strip()), label[:-1].strip())
            return (lambda _: node), True
        if body.startswith("nd "):
            head, sep, fml = body.partition("::")
            if not sep:
                raise FormatError(f"missing '::' in {body!r}")
            parts = head.split(None, 2)
            if len(parts) < 2 or parts[1].startswith("["):
                raise FormatError(f"missing rule name in {body!r}")
            rule = parts[1]
            labels = ()
            if len(parts) > 2:
                inside = parts[2].strip()
                if not (inside.startswith("[") and inside.endswith("]")):
                    raise FormatError(f"bad label list in {body!r}")
                inner = inside[1:-1].strip()
                labels = tuple(x.strip() for x in inner.split(",")) if inner else ()
            f = parse_formula(fml.strip())
            return (lambda children: Inf(rule, f, tuple(children), labels)), False
        raise FormatError(f"expected 'assume' or 'nd' in {body!r}")

    return _read_tree(text, "system ", parse, "empty deduction file")


# ---------------------------------------------------------------------------
# Hilbert proofs

def emit_hilbert(proof: HilbertProof, system: str | None = None) -> str:
    lines = []
    if system:
        lines.append(f"system {system}")
    for a in proof.assumptions:
        lines.append(f"assume {render_formula(a)}")
    for i, step in enumerate(proof.steps, 1):
        just = step.just
        if just[0] == "assumption":
            j = f"assumption {just[1] + 1}"
        elif just[0] == "axiom":
            j = f"axiom {just[1]}"
        elif just[0] == "dne":
            j = "dne"
        else:
            j = f"mp {just[1] + 1} {just[2] + 1}"
        lines.append(f"{i}. {render_formula(step.formula)} [{j}]")
    return "\n".join(lines) + "\n"


# justification -> number of integer arguments
_JUST_ARITY = {"assumption": 1, "axiom": 1, "dne": 0, "mp": 2}


def load_hilbert(text: str):
    """Returns (system or None, HilbertProof)."""
    system = None
    assumptions = []
    steps = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("system "):
            system = line.split(None, 1)[1].strip()
            continue
        if line.startswith("assume "):
            assumptions.append(parse_formula(line[len("assume "):].strip()))
            continue
        num, sep, rest = line.partition(".")
        if not sep or not num.strip().isdigit():
            raise FormatError(f"expected 'N. formula [just]': {line!r}")
        body, br, just_text = rest.rpartition("[")
        if not br or not just_text.endswith("]"):
            raise FormatError(f"missing [justification] in {line!r}")
        formula = parse_formula(body.strip())
        tag, *words = just_text[:-1].split() or [""]
        if tag not in _JUST_ARITY:
            raise FormatError(f"unknown justification {tag!r} in {line!r}")
        if len(words) != _JUST_ARITY[tag] or not all(w.isdigit() for w in words):
            raise FormatError(f"{tag} takes {_JUST_ARITY[tag]} integer argument(s): {line!r}")
        # axioms keep their number; step and assumption numbers count from 1
        nums = [int(w) - (tag != "axiom") for w in words]
        steps.append(Step(formula, (tag, *nums)))
    if not steps:
        raise FormatError("no steps in Hilbert proof")
    return system, HilbertProof(assumptions, steps)
