"""Preset files: a small sectioned text format for foliation presentations.

Format (``#`` starts a comment; blank lines separate nothing):

    name <identifier>
    tag <free text>                      (optional metadata)
    vars <v1> <v2> ...

    generators
      <gname> = <vector field expression>

    structure                            (optional)
      [<gi>, <gj>] = <combination of generators with polynomial coefficients>

    operators                            (optional)
      <opname> = <operator expression>

Variable, generator and operator names must all differ.  Structure lines
fix c_ij, each pair of distinct generators at most once (in either order);
unspecified pairs default to the zero bracket, and the whole array is
validated exactly against the generator brackets.
Builtin presets: debord_line, so3_r3, vanishing_origin_2, vanishing_origin_3,
order2_r2, r4_counterexample.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .expr import OperatorWord, ParseError, Polynomial, parse_operator, parse_vector_field
from .foliation import FoliationPresentation


class PresetError(ValueError):
    """Preset file problem, carrying line (1-based) and column (1-based); both
    are None when the problem is with the file as a whole."""

    def __init__(self, message: str, line: int | None = None, column: int = 1):
        super().__init__(message if line is None else f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column if line is not None else None


@dataclass
class Preset:
    presentation: FoliationPresentation
    operators: dict[str, list[OperatorWord]] = field(default_factory=dict)
    generator_names: tuple[str, ...] = ()
    tag: str = ""
    source: str = "<builtin>"


_STRUCT_RE = re.compile(r"^\[\s*(\w+)\s*,\s*(\w+)\s*\]\s*=\s*(.*)$")


def parse_preset_text(text: str, source: str = "<string>") -> Preset:
    name = ""
    tag = ""
    vars_: tuple[str, ...] | None = None
    generators: list[tuple[str, str, int]] = []  # (name, expr, line)
    structure_lines: list[tuple[str, str, str, int]] = []  # (gi, gj, expr, line)
    operator_lines: list[tuple[str, str, int]] = []
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)
        keyword = head[0]
        if keyword == "name":
            if len(head) != 2:
                raise PresetError("'name' needs a value", lineno)
            name = head[1].strip()
            continue
        if keyword == "tag":
            tag = head[1].strip() if len(head) == 2 else ""
            continue
        if keyword == "vars":
            if len(head) != 2:
                raise PresetError("'vars' needs at least one variable", lineno)
            vars_ = tuple(head[1].replace(",", " ").split())
            for i, v in enumerate(vars_):
                if v in vars_[:i]:
                    raise PresetError(f"duplicate variable name {v!r}", lineno)
            continue
        if line in ("generators", "structure", "operators"):
            section = line
            continue
        if section == "generators":
            if "=" not in line:
                raise PresetError("generator line must be '<name> = <field>'", lineno)
            gname, expr = (part.strip() for part in line.split("=", 1))
            generators.append((gname, expr, lineno))
            continue
        if section == "structure":
            m = _STRUCT_RE.match(line)
            if m is None:
                raise PresetError("structure line must be '[gi, gj] = <combination>'", lineno)
            structure_lines.append((m.group(1), m.group(2), m.group(3).strip(), lineno))
            continue
        if section == "operators":
            if "=" not in line:
                raise PresetError("operator line must be '<name> = <expression>'", lineno)
            oname, expr = (part.strip() for part in line.split("=", 1))
            operator_lines.append((oname, expr, lineno))
            continue
        raise PresetError(f"unexpected line {line!r} outside any section", lineno)

    if vars_ is None:
        raise PresetError("missing 'vars' declaration")
    if not generators:
        raise PresetError("missing 'generators' section")

    gen_names = tuple(g for g, _, _ in generators)
    for i, (gname, _, lineno) in enumerate(generators):
        if gname in vars_:
            raise PresetError(f"generator {gname!r} has the name of a variable", lineno)
        if gname in gen_names[:i]:
            raise PresetError(f"duplicate generator name {gname!r}", lineno)
    fields = []
    for gname, expr, lineno in generators:
        try:
            fields.append(parse_vector_field(expr, vars_))
        except ParseError as exc:
            raise PresetError(f"in generator {gname}: {exc.message}", lineno, exc.pos + 1) from exc

    structure = None
    if structure_lines:
        n = len(gen_names)
        zero = Polynomial.zero(vars_)
        zero_vec = tuple(zero for _ in range(n))
        c = [[zero_vec for _ in range(n)] for _ in range(n)]
        index = {g: i for i, g in enumerate(gen_names)}
        given: dict[frozenset[str], int] = {}  # pair -> line
        for gi, gj, expr, lineno in structure_lines:
            if gi not in index or gj not in index:
                raise PresetError(f"unknown generator in bracket [{gi},{gj}]", lineno)
            if gi == gj:
                raise PresetError(f"self-bracket [{gi},{gj}] is always zero and cannot be set", lineno)
            pair = frozenset((gi, gj))
            if pair in given:
                raise PresetError(f"bracket [{gi},{gj}] repeats the pair of line {given[pair]}", lineno)
            given[pair] = lineno
            try:
                words = parse_operator(expr, gen_names, vars_)
            except ParseError as exc:
                raise PresetError(f"in bracket [{gi},{gj}]: {exc.message}", lineno, exc.pos + 1) from exc
            vec = list(zero_vec)
            for w in words:
                if len(w.letters) != 1:
                    raise PresetError(
                        f"bracket [{gi},{gj}] must be a combination of single generators", lineno
                    )
                vec[w.letters[0]] = vec[w.letters[0]] + w.coefficient
            i, j = index[gi], index[gj]
            c[i][j] = tuple(vec)
            c[j][i] = tuple(-q for q in vec)
        structure = tuple(tuple(row) for row in c)

    try:
        presentation = FoliationPresentation(vars_, tuple(fields), structure, name=name)
    except ValueError as exc:
        raise PresetError(f"invalid presentation: {exc}") from exc

    operators: dict[str, list[OperatorWord]] = {}
    for oname, expr, lineno in operator_lines:
        if oname in gen_names:
            raise PresetError(f"operator {oname!r} has the name of a generator", lineno)
        if oname in vars_:
            raise PresetError(f"operator {oname!r} has the name of a variable", lineno)
        if oname in operators:
            raise PresetError(f"duplicate operator name {oname!r}", lineno)
        try:
            operators[oname] = parse_operator(expr, gen_names, vars_)
        except ParseError as exc:
            raise PresetError(f"in operator {oname}: {exc.message}", lineno, exc.pos + 1) from exc

    return Preset(presentation, operators, gen_names, tag, source)


BUILTIN_NAMES = (
    "debord_line",
    "so3_r3",
    "vanishing_origin_2",
    "vanishing_origin_3",
    "order2_r2",
    "r4_counterexample",
)

_CACHE: dict[str, Preset] = {}


def load_preset(name_or_path: str) -> Preset:
    """Load a builtin preset by name, or a preset file by path."""
    if name_or_path in BUILTIN_NAMES:
        if name_or_path not in _CACHE:
            text = (
                resources.files("folcone").joinpath(f"data/{name_or_path}.preset").read_text()
            )
            _CACHE[name_or_path] = parse_preset_text(text, source=f"<builtin:{name_or_path}>")
        return _CACHE[name_or_path]
    path = Path(name_or_path)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise PresetError(f"cannot read preset file {name_or_path!r}: {exc}") from None
        return parse_preset_text(text, source=str(path))
    raise PresetError(f"unknown preset {name_or_path!r}; builtins: {', '.join(BUILTIN_NAMES)}")
