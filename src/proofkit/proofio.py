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
    lines = []
    if calculus_name:
        lines.append(f"calculus {calculus_name}")

    def walk(node, depth):
        tag = "axiom" if node.is_leaf else "rule"
        lines.append("  " * depth + f"{tag} {node.rule} :: {render_sequent(node.conclusion)}")
        for c in node.children:
            walk(c, depth + 1)

    walk(d, 0)
    return "\n".join(lines) + "\n"


def load_derivation(text: str, calc=None) -> Derivation:
    rows = []
    calculus_name = None
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        if raw.startswith("calculus "):
            calculus_name = raw.split(None, 1)[1].strip()
            continue
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        if indent % 2:
            raise FormatError(f"odd indentation in {raw!r}")
        head, sep, seq_text = stripped.partition("::")
        if not sep:
            raise FormatError(f"missing '::' in {raw!r}")
        parts = head.split()
        if len(parts) != 2 or parts[0] not in ("rule", "axiom"):
            raise FormatError(f"expected 'rule NAME ::' or 'axiom NAME ::' in {raw!r}")
        rows.append((indent // 2, parts[0], parts[1], parse_sequent(seq_text.strip())))
    if not rows:
        raise FormatError("empty derivation file")

    if calc is not None:
        known = {r.name for r in calc.axioms + calc.rules} | {"Cut"}
        for _, _, name, _ in rows:
            if name not in known:
                raise UnknownRuleName(f"{name!r} is not part of {calc.name}")

    def build(i, depth):
        level, tag, name, seq = rows[i]
        if level != depth:
            raise FormatError(f"bad indentation at line {i + 1}")
        children = []
        j = i + 1
        while j < len(rows) and rows[j][0] > depth:
            if rows[j][0] == depth + 1:
                child, j = build(j, depth + 1)
                children.append(child)
            else:
                raise FormatError(f"indentation jump at line {j + 1}")
        return Derivation(seq, name, None, children), j

    root, end = build(0, 0)
    if end != len(rows):
        raise FormatError("trailing nodes outside the root tree")
    return root


# ---------------------------------------------------------------------------
# natural deduction

def emit_nd(d, system: str | None = None) -> str:
    lines = []
    if system:
        lines.append(f"system {system}")

    def walk(node, depth):
        pad = "  " * depth
        if isinstance(node, Assume):
            lines.append(f"{pad}assume {render_formula(node.formula)} [{node.label}]")
            return
        labels = ",".join(node.discharged)
        lines.append(f"{pad}nd {node.rule} [{labels}] :: {render_formula(node.formula)}")
        for c in node.children:
            walk(c, depth + 1)

    walk(d, 0)
    return "\n".join(lines) + "\n"


def load_nd(text: str):
    rows = []
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#") or raw.startswith("system "):
            continue
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        if indent % 2:
            raise FormatError(f"odd indentation in {raw!r}")
        rows.append((indent // 2, stripped))
    if not rows:
        raise FormatError("empty deduction file")

    def parse_row(body):
        if body.startswith("assume "):
            rest = body[len("assume "):]
            fml, sep, label = rest.rpartition("[")
            if not sep or not label.endswith("]"):
                raise FormatError(f"assumption needs a [label]: {body!r}")
            return ("assume", parse_formula(fml.strip()), label[:-1].strip())
        if body.startswith("nd "):
            head, sep, fml = body.partition("::")
            if not sep:
                raise FormatError(f"missing '::' in {body!r}")
            parts = head.split(None, 2)
            rule = parts[1]
            labels = ()
            if len(parts) > 2:
                inside = parts[2].strip()
                if not (inside.startswith("[") and inside.endswith("]")):
                    raise FormatError(f"bad label list in {body!r}")
                inner = inside[1:-1].strip()
                labels = tuple(x.strip() for x in inner.split(",")) if inner else ()
            return ("nd", rule, labels, parse_formula(fml.strip()))
        raise FormatError(f"expected 'assume' or 'nd' in {body!r}")

    def build(i, depth):
        level, body = rows[i]
        if level != depth:
            raise FormatError(f"bad indentation at line {i + 1}")
        item = parse_row(body)
        if item[0] == "assume":
            return Assume(item[1], item[2]), i + 1
        _, rule, labels, fml = item
        children = []
        j = i + 1
        while j < len(rows) and rows[j][0] > depth:
            if rows[j][0] == depth + 1:
                child, j = build(j, depth + 1)
                children.append(child)
            else:
                raise FormatError(f"indentation jump at line {j + 1}")
        return Inf(rule, fml, tuple(children), labels), j

    root, end = build(0, 0)
    if end != len(rows):
        raise FormatError("trailing nodes outside the root tree")
    return root


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
        words = just_text[:-1].split()
        if words[0] == "assumption":
            just = ("assumption", int(words[1]) - 1)
        elif words[0] == "axiom":
            just = ("axiom", int(words[1]))
        elif words[0] == "dne":
            just = ("dne",)
        elif words[0] == "mp":
            just = ("mp", int(words[1]) - 1, int(words[2]) - 1)
        else:
            raise FormatError(f"unknown justification {words[0]!r}")
        steps.append(Step(formula, just))
    if not steps:
        raise FormatError("no steps in Hilbert proof")
    return system, HilbertProof(assumptions, steps)
