"""Exact polynomials, polynomial vector fields, operator words, and their parsers.

Everything is exact: coefficients are ``fractions.Fraction`` and no float ever
enters a parsed value.  The concrete grammar, shared by preset files and CLI
flags:

* polynomial      -- sums over ``+``/``-``, products with ``*``, integer powers
                     with ``^``, rational literals written ``p/q``, parentheses.
                     Example: ``(x+y)^2 - 3/2*x*y``.
* vector field    -- a sum of terms ``<poly>*d/d<var>``; each additive term
                     carries exactly one derivative factor.
                     Example: ``z*d/dy - y*d/dz``.
* operator        -- a sum of terms ``<poly>*<gen>.<gen>...`` where ``.``
                     composes declared generator names left to right.  A term
                     without generator letters is a degree-0 word.
                     Example: ``g1.g1 + g2.g2 - x*g3``.

Multiplication is strict about non-commutativity in operator expressions:
polynomial coefficients must stand to the left of a generator word, and two
words can only be combined with ``.``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence


class ParseError(ValueError):
    """Syntax or name error, carrying the 0-based position in the input text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

Exponent = tuple[int, ...]


def _grlex_key(exp: Exponent) -> tuple[int, Exponent]:
    return (sum(exp), exp)


class Polynomial:
    """Sparse multivariate polynomial over Q with a fixed ordered variable tuple.

    ``terms`` maps exponent tuples to nonzero Fractions; the zero polynomial
    has an empty map.  Equal polynomials have identical ``(vars, terms)``.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponent, Fraction] | None = None):
        self.vars = tuple(vars)
        clean: dict[Exponent, Fraction] = {}
        if terms:
            n = len(self.vars)
            for exp, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                exp = tuple(int(e) for e in exp)
                if len(exp) != n or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent {exp} for variables {self.vars}")
                clean[exp] = clean.get(exp, Fraction(0)) + c
                if clean[exp] == 0:
                    del clean[exp]
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Polynomial":
        return cls(vars)

    @classmethod
    def const(cls, value, vars: Sequence[str]) -> "Polynomial":
        c = Fraction(value)
        if c == 0:
            return cls(vars)
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def one(cls, vars: Sequence[str]) -> "Polynomial":
        return cls.const(1, vars)

    @classmethod
    def var(cls, name: str, vars: Sequence[str]) -> "Polynomial":
        vars = tuple(vars)
        i = vars.index(name)
        exp = [0] * len(vars)
        exp[i] = 1
        return cls(vars, {tuple(exp): Fraction(1)})

    @classmethod
    def monomial(cls, exp: Exponent, coeff, vars: Sequence[str]) -> "Polynomial":
        return cls(vars, {tuple(exp): Fraction(coeff)})

    # -- predicates / views --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def coefficient(self, exp: Exponent) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable-set mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other, self.vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, Fraction(0)) + c
            if s == 0:
                terms.pop(exp, None)
            else:
                terms[exp] = s
        out = Polynomial.__new__(Polynomial)
        out.vars, out.terms, out._hash = self.vars, terms, None
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.vars = self.vars
        out.terms = {e: -c for e, c in self.terms.items()}
        out._hash = None
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other, self.vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Polynomial.zero(self.vars)
            out = Polynomial.__new__(Polynomial)
            out.vars = self.vars
            out.terms = {e: v * c for e, v in self.terms.items()}
            out._hash = None
            return out
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        out = Polynomial.__new__(Polynomial)
        out.vars, out.terms, out._hash = self.vars, terms, None
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other, self.vars)
        return isinstance(other, Polynomial) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    # -- calculus / evaluation ------------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        i = self.vars.index(name)
        terms: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            e = list(exp)
            e[i] -= 1
            terms[tuple(e)] = c * exp[i]
        return Polynomial(self.vars, terms)

    def eval(self, point: Sequence) -> Fraction:
        if len(point) != len(self.vars):
            raise ValueError("point dimension mismatch")
        if len(self.terms) <= 1 and not any(map(any, self.terms)):
            return self.constant_term()
        vals = [Fraction(v) for v in point]
        total = Fraction(0)
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(vals, exp):
                if e:
                    term *= v ** e
            total += term
        return total

    def eval_float(self, point: Sequence[float]) -> float:
        total = 0.0
        for exp, c in self.terms.items():
            term = float(c)
            for v, e in zip(point, exp):
                if e:
                    term *= v ** e
            total += term
        return total

    def float_expr(self, args: Sequence[str]) -> str:
        """Python source of the float value at the point named by ``args``,
        one name per variable: ``repr(float(c))*a*a*b...`` for each term in
        term order, joined by ``+`` ("0.0" for zero), so that it runs in the
        same operation order wherever it is written."""
        parts = []
        for exp, c in self.terms.items():
            factors = [repr(float(c))]
            for name, e in zip(args, exp, strict=True):
                factors.extend([name] * e)
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0.0"

    def as_float_fn(self):
        """Compile a fast ``f(values_sequence) -> float`` evaluator."""
        body = self.float_expr([f"v[{i}]" for i in range(len(self.vars))])
        return eval(f"lambda v: {body}")  # noqa: S307 - source generated above

    def subs(self, mapping: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute a polynomial for every variable (total substitution)."""
        missing = [v for v in self.vars if v not in mapping]
        if missing:
            raise ValueError(f"substitution misses variables {missing}")
        images = [mapping[v] for v in self.vars]
        target = images[0].vars if images else ()
        for im in images:
            if im.vars != target:
                raise ValueError("substitution images live over different variables")
        out = Polynomial.zero(target)
        pow_cache: dict[tuple[int, int], Polynomial] = {}

        def power(i: int, e: int) -> Polynomial:
            key = (i, e)
            if key not in pow_cache:
                pow_cache[key] = images[i] ** e
            return pow_cache[key]

        for exp, c in self.terms.items():
            term = Polynomial.const(c, target)
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            out = out + term
        return out

    def shift(self, point: Sequence) -> "Polynomial":
        """Recentre at ``point``: returns q with q(y) = self(y + point).

        Each monomial expands binomially, prod_i sum_k C(e_i, k) a_i^(e_i-k) y_i^k,
        straight into the coefficient map; at the origin q is ``self``.
        """
        if len(point) != len(self.vars):
            raise ValueError("point dimension mismatch")
        a = [Fraction(v) for v in point]
        if not any(a):
            return self
        terms: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            partial: list[tuple[Exponent, Fraction]] = [((), c)]
            for ai, e in zip(a, exp):
                if e == 0 or ai == 0:
                    partial = [(mono + (e,), coeff) for mono, coeff in partial]
                    continue
                factor = [(k, comb(e, k) * ai ** (e - k)) for k in range(e + 1)]
                partial = [(mono + (k,), coeff * f) for mono, coeff in partial for k, f in factor]
            for mono, coeff in partial:
                terms[mono] = terms.get(mono, 0) + coeff
        out = Polynomial.__new__(Polynomial)
        out.vars, out.terms, out._hash = self.vars, {e: c for e, c in terms.items() if c}, None
        return out

    def lift(self, vars: Sequence[str]) -> "Polynomial":
        """The same polynomial over ``vars``, a tuple that extends ``self.vars``."""
        vars = tuple(vars)
        if vars[: len(self.vars)] != self.vars:
            raise ValueError(f"{vars} does not extend {self.vars}")
        pad = (0,) * (len(vars) - len(self.vars))
        out = Polynomial.__new__(Polynomial)
        out.vars, out.terms, out._hash = vars, {e + pad: c for e, c in self.terms.items()}, None
        return out

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact polynomial division; raises ValueError when not divisible.

        Used by fraction-free elimination, where divisibility is guaranteed.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Polynomial.zero(self.vars)
        div_terms = sorted(divisor.terms, key=_grlex_key, reverse=True)
        lead_d = div_terms[0]
        cd = divisor.terms[lead_d]
        rem = dict(self.terms)
        quo: dict[Exponent, Fraction] = {}
        while rem:
            lead_r = max(rem, key=_grlex_key)
            exp = tuple(a - b for a, b in zip(lead_r, lead_d))
            if any(e < 0 for e in exp):
                raise ValueError("inexact polynomial division")
            c = rem[lead_r] / cd
            quo[exp] = c
            for e2, c2 in divisor.terms.items():
                e = tuple(a + b for a, b in zip(exp, e2))
                s = rem.get(e, Fraction(0)) - c * c2
                if s == 0:
                    rem.pop(e, None)
                else:
                    rem[e] = s
        return Polynomial(self.vars, quo)

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        return poly_to_string(self)

    def __repr__(self) -> str:
        return f"Polynomial({poly_to_string(self)!r}, vars={self.vars})"


def with_fiber(vars: Sequence[str], prefix: str, count: int) -> tuple[str, ...]:
    """``vars`` followed by the fiber coordinates ``prefix1 ... prefix<count>``.

    The prefix takes a trailing ``_`` until no fiber name is a base variable:
    over the base variables ``xi1 y`` the fiber names are ``xi_1, xi_2, ...``.
    """
    vars = tuple(vars)
    while any(f"{prefix}{i+1}" in vars for i in range(count)):
        prefix += "_"
    return vars + tuple(f"{prefix}{i+1}" for i in range(count))


def _term_str(exp: Exponent, c: Fraction, vars: Sequence[str]) -> str:
    mono = []
    for name, e in zip(vars, exp):
        if e == 1:
            mono.append(name)
        elif e > 1:
            mono.append(f"{name}^{e}")
    if not mono:
        return str(c)
    if c == 1:
        return "*".join(mono)
    if c == -1:
        return "-" + "*".join(mono)
    return str(c) + "*" + "*".join(mono)


def poly_to_string(p: Polynomial) -> str:
    """Canonical text form; graded-lex descending, parseable by parse_polynomial."""
    if p.is_zero():
        return "0"
    parts = []
    for exp in sorted(p.terms, key=_grlex_key, reverse=True):
        s = _term_str(exp, p.terms[exp], p.vars)
        if not parts:
            parts.append(s)
        elif s.startswith("-"):
            parts.append(" - " + s[1:])
        else:
            parts.append(" + " + s)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Polynomial vector fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyVectorField:
    """A vector field with one polynomial component per base variable."""

    vars: tuple[str, ...]
    components: tuple[Polynomial, ...]

    def __post_init__(self):
        if len(self.components) != len(self.vars):
            raise ValueError("component count must equal the number of variables")
        for c in self.components:
            if c.vars != self.vars:
                raise ValueError("component over wrong variable set")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def apply_to(self, f: Polynomial) -> Polynomial:
        """Directional derivative X[f] = sum_i X_i * df/dx_i."""
        out = Polynomial.zero(self.vars)
        for name, comp in zip(self.vars, self.components):
            if not comp.is_zero():
                out = out + comp * f.diff(name)
        return out

    def eval(self, point: Sequence) -> tuple[Fraction, ...]:
        return tuple(c.eval(point) for c in self.components)

    def max_degree(self) -> int:
        return max((c.total_degree() for c in self.components), default=-1)

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        if self.vars != other.vars:
            raise ValueError("variable-set mismatch")
        return PolyVectorField(self.vars, tuple(a + b for a, b in zip(self.components, other.components)))

    def __rmul__(self, scalar) -> "PolyVectorField":
        return PolyVectorField(self.vars, tuple(scalar * c for c in self.components))

    def __str__(self) -> str:
        return field_to_string(self)


def field_to_string(X: PolyVectorField) -> str:
    parts = []
    for name, comp in zip(X.vars, X.components):
        if comp.is_zero():
            continue
        if len(comp.terms) == 1:
            body = poly_to_string(comp)
            if body == "1":
                term = f"d/d{name}"
            elif body == "-1":
                term = f"-d/d{name}"
            else:
                term = f"{body}*d/d{name}"
        else:
            term = f"({poly_to_string(comp)})*d/d{name}"
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(" - " + term[1:])
        else:
            parts.append(" + " + term)
    return "".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Operator words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorWord:
    """A polynomial coefficient times a composition of generator letters."""

    coefficient: Polynomial
    letters: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.letters)


def merge_words(words: Iterable[OperatorWord], vars: Sequence[str]) -> list[OperatorWord]:
    """Combine like words (identical letters), drop zero coefficients, sort."""
    acc: dict[tuple[int, ...], Polynomial] = {}
    for w in words:
        if w.letters in acc:
            acc[w.letters] = acc[w.letters] + w.coefficient
        else:
            acc[w.letters] = w.coefficient
    out = [OperatorWord(c, l) for l, c in acc.items() if not c.is_zero()]
    out.sort(key=lambda w: (len(w.letters), w.letters))
    return out


def words_to_string(words: Sequence[OperatorWord], generator_names: Sequence[str]) -> str:
    if not words:
        return "0"
    parts = []
    for w in words:
        chain = ".".join(generator_names[i] for i in w.letters)
        coeff = w.coefficient
        if not chain:
            term = poly_to_string(coeff) if len(coeff.terms) <= 1 else f"({poly_to_string(coeff)})"
        elif coeff == Polynomial.one(coeff.vars):
            term = chain
        elif coeff == -Polynomial.one(coeff.vars):
            term = "-" + chain
        elif len(coeff.terms) == 1:
            term = f"{poly_to_string(coeff)}*{chain}"
        else:
            term = f"({poly_to_string(coeff)})*{chain}"
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(" - " + term[1:])
        else:
            parts.append(" + " + term)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<ddx>d/d(?P<dvar>[A-Za-z_]\w*))
      | (?P<num>\d+)
      | (?P<name>[A-Za-z_]\w*)
      | (?P<op>[-+*^()./])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | ddx | op | eof
    text: str
    pos: int
    dvar: str = ""


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "ddx":
                tokens.append(_Token("ddx", m.group(), i, m.group("dvar")))
            else:
                tokens.append(_Token(kind, m.group(), i))
        i = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Stream:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect_op(self, text: str) -> _Token:
        t = self.next()
        if t.kind != "op" or t.text != text:
            raise ParseError(f"expected {text!r}", t.pos)
        return t


# ---------------------------------------------------------------------------
# Value algebras: one per grammar
# ---------------------------------------------------------------------------


class _PolyAlg:
    """Values are Polynomial."""

    def __init__(self, vars: Sequence[str]):
        self.vars = tuple(vars)

    def number(self, c: Fraction, pos: int):
        return Polynomial.const(c, self.vars)

    def name(self, name: str, pos: int):
        if name not in self.vars:
            raise ParseError(f"unknown variable {name!r}", pos)
        return Polynomial.var(name, self.vars)

    def ddx(self, var: str, pos: int):
        raise ParseError("derivative factor not allowed in a polynomial", pos)

    def dot(self, value, tok: _Token):
        raise ParseError("unexpected '.'", tok.pos)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b, pos: int):
        return a * b

    def pow(self, a, n: int, pos: int):
        return a ** n

    def finish(self, value, text: str):
        return value


class _FieldAlg:
    """Values are component maps {dvar_or_None: Polynomial}."""

    def __init__(self, vars: Sequence[str]):
        self.vars = tuple(vars)
        self.poly = _PolyAlg(vars)

    def number(self, c, pos):
        return {None: Polynomial.const(c, self.vars)}

    def name(self, name, pos):
        return {None: self.poly.name(name, pos)}

    def ddx(self, var, pos):
        if var not in self.vars:
            raise ParseError(f"derivative with respect to undeclared variable {var!r}", pos)
        return {var: Polynomial.one(self.vars)}

    def dot(self, value, tok):
        raise ParseError("unexpected '.'", tok.pos)

    def add(self, a, b):
        out = dict(a)
        for k, p in b.items():
            out[k] = out[k] + p if k in out else p
        return out

    def neg(self, a):
        return {k: -p for k, p in a.items()}

    def mul(self, a, b, pos):
        out: dict = {}
        for ka, pa in a.items():
            for kb, pb in b.items():
                if ka is not None and kb is not None:
                    raise ParseError("more than one derivative factor in a term", pos)
                k = ka if ka is not None else kb
                prod = pa * pb
                out[k] = out[k] + prod if k in out else prod
        return out

    def pow(self, a, n, pos):
        if any(k is not None and not p.is_zero() for k, p in a.items()):
            raise ParseError("cannot raise a derivative factor to a power", pos)
        return {None: a.get(None, Polynomial.zero(self.vars)) ** n}

    def finish(self, value, text: str):
        residue = value.get(None)
        if residue is not None and not residue.is_zero():
            raise ParseError(
                f"vector field term without a derivative factor: {poly_to_string(residue)!r}", 0
            )
        comps = []
        for v in self.vars:
            p = value.get(v, Polynomial.zero(self.vars))
            comps.append(p)
        return PolyVectorField(self.vars, tuple(comps))


class _OperatorAlg:
    """Values are word maps {letters_tuple: Polynomial coefficient}."""

    def __init__(self, generator_names: Sequence[str], vars: Sequence[str]):
        self.gens = {g: i for i, g in enumerate(generator_names)}
        self.vars = tuple(vars)
        self.poly = _PolyAlg(vars)

    def number(self, c, pos):
        return {(): Polynomial.const(c, self.vars)}

    def name(self, name, pos):
        if name in self.gens:
            return {(self.gens[name],): Polynomial.one(self.vars)}
        if name in self.vars:
            return {(): Polynomial.var(name, self.vars)}
        raise ParseError(f"unknown generator or variable {name!r}", pos)

    def ddx(self, var, pos):
        raise ParseError("derivative factor not allowed in an operator expression", pos)

    def dot(self, value, tok):
        if tok.kind != "name" or tok.text not in self.gens:
            raise ParseError("'.' must be followed by a generator name", tok.pos)
        j = self.gens[tok.text]
        return {letters + (j,): c for letters, c in value.items()}

    def add(self, a, b):
        out = dict(a)
        for k, p in b.items():
            out[k] = out[k] + p if k in out else p
        return out

    def neg(self, a):
        return {k: -p for k, p in a.items()}

    @staticmethod
    def _pure(a) -> bool:
        return all(k == () for k in a)

    def mul(self, a, b, pos):
        if not self._pure(a):
            if self._pure(b):
                raise ParseError(
                    "polynomial coefficients must stand to the left of generator words", pos
                )
            raise ParseError("use '.' to compose generator words", pos)
        coeff = a.get((), Polynomial.zero(self.vars))
        return {k: coeff * p for k, p in b.items()}

    def pow(self, a, n, pos):
        if not self._pure(a):
            raise ParseError("cannot raise a generator word to a power; use '.'", pos)
        return {(): a.get((), Polynomial.zero(self.vars)) ** n}

    def finish(self, value, text: str):
        words = [OperatorWord(c, letters) for letters, c in value.items()]
        return merge_words(words, self.vars)


# ---------------------------------------------------------------------------
# Recursive-descent engine
# ---------------------------------------------------------------------------


def _parse_sum(ts: _Stream, alg):
    value = _parse_factor_chain(ts, alg)
    while True:
        t = ts.peek()
        if t.kind == "op" and t.text in "+-":
            ts.next()
            rhs = _parse_factor_chain(ts, alg)
            if t.text == "-":
                rhs = alg.neg(rhs)
            value = alg.add(value, rhs)
        else:
            return value


def _parse_factor_chain(ts: _Stream, alg):
    value = _parse_factor(ts, alg)
    while True:
        t = ts.peek()
        if t.kind == "op" and t.text == "*":
            ts.next()
            rhs = _parse_factor(ts, alg)
            value = alg.mul(value, rhs, t.pos)
        else:
            return value


def _parse_factor(ts: _Stream, alg):
    t = ts.peek()
    if t.kind == "op" and t.text in "+-":
        ts.next()
        value = _parse_factor(ts, alg)
        return alg.neg(value) if t.text == "-" else value
    base = _parse_atom(ts, alg)
    t = ts.peek()
    if t.kind == "op" and t.text == "^":
        ts.next()
        et = ts.next()
        if et.kind != "num":
            raise ParseError("exponent must be a non-negative integer literal", et.pos)
        base = alg.pow(base, int(et.text), t.pos)
    return base


def _parse_atom(ts: _Stream, alg):
    t = ts.next()
    if t.kind == "num":
        value = Fraction(int(t.text))
        if ts.peek().kind == "op" and ts.peek().text == "/" and ts.peek(1).kind == "num":
            ts.next()
            dt = ts.next()
            if int(dt.text) == 0:
                raise ParseError("zero denominator in rational literal", dt.pos)
            value = Fraction(int(t.text), int(dt.text))
        return alg.number(value, t.pos)
    if t.kind == "ddx":
        return alg.ddx(t.dvar, t.pos)
    if t.kind == "name":
        value = alg.name(t.text, t.pos)
        while ts.peek().kind == "op" and ts.peek().text == ".":
            ts.next()
            nt = ts.next()
            value = alg.dot(value, nt)
        return value
    if t.kind == "op" and t.text == "(":
        value = _parse_sum(ts, alg)
        ts.expect_op(")")
        return value
    if t.kind == "eof":
        raise ParseError("unexpected end of input", t.pos)
    raise ParseError(f"unexpected token {t.text!r}", t.pos)


def _run_parser(text: str, alg):
    ts = _Stream(text)
    value = _parse_sum(ts, alg)
    t = ts.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
    return alg.finish(value, text)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_polynomial(text: str, vars: Sequence[str]) -> Polynomial:
    """Parse an arithmetic expression over ``vars`` into canonical expanded form.

    Raises ParseError (with position) on syntax errors, unknown variables,
    and negative or non-integer exponents.
    """
    return _run_parser(text, _PolyAlg(vars))


def parse_vector_field(text: str, vars: Sequence[str]) -> PolyVectorField:
    """Parse a sum of ``<poly>*d/d<var>`` terms into a PolyVectorField."""
    return _run_parser(text, _FieldAlg(vars))


def parse_operator(text: str, generator_names: Sequence[str], vars: Sequence[str]) -> list[OperatorWord]:
    """Parse a sum of ``<poly>*g_i.g_j...`` terms into merged operator words."""
    return _run_parser(text, _OperatorAlg(generator_names, vars))
