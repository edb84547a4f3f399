"""Multivariate rational functions F = G/H with the normalization F(0) = 1.

Polynomials are sparse maps from exponent tuples to complex coefficients.
Everything here is immutable and pure: parsing, arithmetic, evaluation and
printing.  Evaluation sums terms in a fixed sorted order so results are
reproducible bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

Exponent = tuple[int, ...]

__all__ = [
    "MultiPoly",
    "MeroFunction",
    "ParseError",
    "NormalizationError",
    "parse_poly",
    "parse_function",
    "poly_to_text",
    "function_to_text",
    "linear_form",
    "load_function",
]


class ParseError(ValueError):
    """Syntax error in an expression; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class NormalizationError(ValueError):
    """G(0) = 0 or H(0) = 0, so the normalization F(0) = 1 is impossible."""


def _finite(c: complex) -> complex:
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError(f"non-finite coefficient {c!r}")
    return c


class MultiPoly:
    """Sparse polynomial in n complex variables.

    ``terms`` maps length-n exponent tuples to nonzero complex coefficients;
    the zero polynomial stores no terms.  Instances are immutable.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Exponent, complex] | None = None):
        if int(n) < 1:
            raise ValueError("variable count must be a positive integer")
        object.__setattr__(self, "n", int(n))
        clean: dict[Exponent, complex] = {}
        if terms:
            for exp, c in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != self.n:
                    raise ValueError(f"exponent tuple {exp} has length != n={self.n}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = _finite(complex(c))
                if c != 0:
                    clean[exp] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("MultiPoly is immutable")

    # -- basic queries ---------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, complex]:
        return dict(self._terms)

    def ordered_terms(self) -> list[tuple[Exponent, complex]]:
        """Terms sorted by (total degree, exponent tuple) — the canonical order."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Max total degree of stored terms; 0 for a constant (incl. zero)."""
        if not self._terms:
            return 0
        return max(sum(e) for e in self._terms)

    def constant_term(self) -> complex:
        return self._terms.get((0,) * self.n, 0j)

    def coefficient(self, exp: Exponent) -> complex:
        return self._terms.get(tuple(exp), 0j)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c: complex) -> "MultiPoly":
        return cls(n, {(0,) * n: complex(c)})

    @classmethod
    def variable(cls, n: int, index: int) -> "MultiPoly":
        """The monomial z_index (1-based index)."""
        if not 1 <= index <= n:
            raise ValueError(f"variable index {index} out of range 1..{n}")
        exp = tuple(1 if i == index - 1 else 0 for i in range(n))
        return cls(n, {exp: 1 + 0j})

    # -- arithmetic ------------------------------------------------------

    def _require_same_n(self, other: "MultiPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._require_same_n(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            out[exp] = out.get(exp, 0j) + c
        return MultiPoly(self.n, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + -other  # a + (-b) rounds exactly as a - b

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.n, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._require_same_n(other)
        out: dict[Exponent, complex] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, 0j) + c1 * c2
        return MultiPoly(self.n, out)

    def scale(self, c: complex) -> "MultiPoly":
        c = _finite(complex(c))
        return MultiPoly(self.n, {e: v * c for e, v in self._terms.items()})

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- evaluation ------------------------------------------------------

    def eval(self, Z: Sequence[complex]) -> complex:
        if len(Z) != self.n:
            raise ValueError(f"point has length {len(Z)}, expected {self.n}")
        total = 0j
        for exp, c in self.ordered_terms():
            term = c
            for z, e in zip(Z, exp):
                if e:
                    term *= complex(z) ** e
            total += term
        return total

    # -- equality / printing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"MultiPoly({self.n}, {poly_to_text(self)!r})"

    def __str__(self) -> str:
        return poly_to_text(self)


def linear_form(eta: Sequence[complex], n: int | None = None) -> MultiPoly:
    """The degree-1 polynomial Σ_j eta_j · z_j."""
    if n is None:
        n = len(eta)
    if len(eta) != n:
        raise ValueError("eta has wrong length")
    return MultiPoly(n, {tuple(int(i == j) for i in range(n)): c for j, c in enumerate(eta)})


@dataclass(frozen=True)
class MeroFunction:
    """Rational F = G/H in n variables, normalized so G(0) = H(0) = 1."""

    numerator: MultiPoly
    denominator: MultiPoly
    n: int

    def __post_init__(self):
        if self.numerator.n != self.n or self.denominator.n != self.n:
            raise ValueError("numerator/denominator variable count mismatch")
        if self.numerator.constant_term() != 1 or self.denominator.constant_term() != 1:
            raise ValueError("MeroFunction requires G(0) = H(0) = 1; use from_polys")

    @classmethod
    def from_polys(cls, G: MultiPoly, H: MultiPoly) -> "MeroFunction":
        """Normalize G/H so both constant terms become exactly 1."""
        if G.n != H.n:
            raise ValueError("G and H must share the variable count")
        g0, h0 = G.constant_term(), H.constant_term()
        if g0 == 0 or h0 == 0:
            raise NormalizationError(
                "constant term of numerator or denominator is zero; F(0)=1 impossible"
            )
        gt = {e: (c / g0 if sum(e) else 1 + 0j) for e, c in G._terms.items()}
        ht = {e: (c / h0 if sum(e) else 1 + 0j) for e, c in H._terms.items()}
        return cls(MultiPoly(G.n, gt), MultiPoly(H.n, ht), G.n)

    @classmethod
    def one(cls, n: int) -> "MeroFunction":
        return cls(MultiPoly.constant(n, 1), MultiPoly.constant(n, 1), n)

    def eval(self, Z: Sequence[complex]) -> complex:
        """F(Z) = G(Z)/H(Z); raises ZeroDivisionError on exact poles."""
        return self.numerator.eval(Z) / self.denominator.eval(Z)

    def __str__(self) -> str:
        return function_to_text(self)


# ---------------------------------------------------------------------------
# canonical printing


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _fmt_coeff(c: complex) -> tuple[str, bool]:
    """Render a coefficient; second item says the string begins with '-'."""
    re, im = c.real, c.imag
    if im == 0:
        s = _fmt_real(re)
        return s, s.startswith("-")
    if re == 0:
        if im == 1:
            return "i", False
        if im == -1:
            return "-i", True
        s = _fmt_real(im)
        return f"{s}*i", s.startswith("-")
    sign = "+" if im > 0 else "-"
    im_abs = abs(im)
    im_part = "i" if im_abs == 1 else f"{_fmt_real(im_abs)}*i"
    return f"({_fmt_real(re)} {sign} {im_part})", False


def _fmt_monomial(exp: Exponent) -> str:
    pieces = []
    for i, e in enumerate(exp):
        if e == 1:
            pieces.append(f"z{i + 1}")
        elif e > 1:
            pieces.append(f"z{i + 1}^{e}")
    return "*".join(pieces)


def poly_to_text(p: MultiPoly) -> str:
    """Canonical text form; ``parse_poly`` inverts it exactly."""
    if p.is_zero:
        return "0"
    out: list[str] = []
    for exp, c in p.ordered_terms():
        mono = _fmt_monomial(exp)
        coeff, negative = _fmt_coeff(c)
        if mono:
            if c == 1:
                body, negative = mono, False
            elif c == -1:
                body, negative = mono, True
            else:
                body = f"{coeff.lstrip('-') if negative else coeff}*{mono}"
        else:
            body = coeff.lstrip("-") if negative else coeff
        if not out:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out)


def function_to_text(f: MeroFunction) -> str:
    num = poly_to_text(f.numerator)
    if f.denominator == MultiPoly.constant(f.n, 1):
        return num
    return f"({num})/({poly_to_text(f.denominator)})"


# ---------------------------------------------------------------------------
# parsing
#
# expr   := term { ("+"|"-") term }
# term   := factor { "*" factor }
# factor := base [ "^" uint ]
# base   := "(" expr ")" | var | number | "i" | "-" base
# var    := "z" uint
#
# Numbers are decimal literals, optionally with "." and an exponent suffix
# (the exponent form appears in canonically printed floats like 1e-17).


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str | int | float, int]] = []
        self._scan()
        self.index = 0

    def _scan(self) -> None:
        text, i, n = self.text, 0, len(self.text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch == "z":
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                if j == i + 1:
                    raise ParseError("variable name needs an index, e.g. z1", i)
                self.tokens.append(("var", int(text[i + 1 : j]), i))
                i = j
                continue
            if ch == "i":
                self.tokens.append(("imag", "i", i))
                i += 1
                continue
            if ch.isdigit() or ch == ".":
                j = i
                while j < n and (text[j].isdigit() or text[j] == "."):
                    j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        while k < n and text[k].isdigit():
                            k += 1
                        j = k
                lit = text[i:j]
                try:
                    value = float(lit)
                except ValueError:
                    raise ParseError(f"bad number literal {lit!r}", i) from None
                self.tokens.append(("num", value, i))
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", n))

    def peek(self) -> tuple[str, str | int | float, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str | int | float, int]:
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str, n: int):
        self.toks = _Tokenizer(text)
        self.n = n

    def parse(self) -> MultiPoly:
        p = self._expr()
        kind, _, pos = self.toks.peek()
        if kind != "end":
            raise ParseError("trailing input after expression", pos)
        return p

    # expr := term { ("+"|"-") term }
    def _expr(self) -> MultiPoly:
        p = self._term()
        while self.toks.peek()[0] in ("+", "-"):
            op, _, _ = self.toks.next()
            q = self._term()
            p = p + q if op == "+" else p - q
        return p

    # term := factor { "*" factor }
    def _term(self) -> MultiPoly:
        p = self._factor()
        while self.toks.peek()[0] == "*":
            self.toks.next()
            p = p * self._factor()
        return p

    # factor := base [ "^" uint ]
    def _factor(self) -> MultiPoly:
        p = self._base()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            kind, value, pos = self.toks.next()
            if kind != "num" or float(value) != int(value) or value < 0:
                raise ParseError("exponent must be a nonnegative integer", pos)
            p = p ** int(value)
        return p

    # base := "(" expr ")" | var | number | "i" | "-" base
    def _base(self) -> MultiPoly:
        kind, value, pos = self.toks.next()
        if kind == "(":
            p = self._expr()
            kind2, _, pos2 = self.toks.next()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            return p
        if kind == "var":
            idx = int(value)
            if not 1 <= idx <= self.n:
                raise ParseError(f"variable z{idx} exceeds n={self.n}", pos)
            return MultiPoly.variable(self.n, idx)
        if kind == "num":
            return MultiPoly.constant(self.n, float(value))
        if kind == "imag":
            return MultiPoly.constant(self.n, 1j)
        if kind == "-":
            return -self._base()
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_poly(text: str, n: int) -> MultiPoly:
    """Parse one polynomial expression in variables z1..zn."""
    return _Parser(text, n).parse()


def _split_top_level_slash(text: str) -> tuple[str, str | None]:
    depth = 0
    cut = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", i)
        elif ch == "/" and depth == 0:
            if cut is not None:
                raise ParseError("more than one top-level '/'", i)
            cut = i
    if cut is None:
        return text, None
    return text[:cut], text[cut + 1 :]


def parse_function(text: str, n: int) -> MeroFunction:
    """Parse "G" or "G/H" (one top-level slash) and normalize to F(0)=1."""
    num_text, den_text = _split_top_level_slash(text)
    G = parse_poly(num_text, n)
    H = parse_poly(den_text, n) if den_text is not None else MultiPoly.constant(n, 1)
    return MeroFunction.from_polys(G, H)


def load_json_object(source, what: str) -> Mapping:
    """source itself if it is a mapping, else the JSON object in the file
    at path source; ValueError names ``what`` for any other document."""
    if isinstance(source, Mapping):
        return source
    with open(source, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object")
    return data


def load_function(source) -> MeroFunction:
    """Read a function-definition mapping or JSON file.

    Accepts {"n": int, "numerator": str, "denominator": str} with
    "denominator" defaulting to "1"; ``source`` may be a path or a dict.
    """
    data = load_json_object(source, "a function definition")
    try:
        n, num = data["n"], data["numerator"]
    except KeyError as exc:
        raise ValueError(f"function definition missing key {exc}") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError('"n" must be an integer')
    den = data.get("denominator", "1")
    if not (isinstance(num, str) and isinstance(den, str)):
        raise ValueError("numerator and denominator must be strings")
    return MeroFunction.from_polys(parse_poly(num, n), parse_poly(den, n))
