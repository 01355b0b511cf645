"""Text front-end: polynomial expressions and structure documents.

Expressions are parsed by recursive descent over +, -, *, / (constant
divisors only), ^ with nonnegative integer exponents, parentheses, rational
literals and declared coordinate names.  Errors carry line and column; an
exponent, or a power or product of total degree, past ``scalars.MAX_DEGREE``
is one, and so are a literal of more than ``MAX_DIGITS`` digits,
parentheses nested deeper than ``MAX_NESTING``, and expansions of more than
``MAX_TERM_PRODUCTS`` term products, counted before they run.  A run of
unary signs is folded in a loop, so no input nests the descent deeper than
that bound.

A structure document declares a chart, the two frame blocks, and optional
blocks for the adapted split, a foliation, an affine submanifold, a sample
grid override, and named Hamiltonian pairs::

    chart x1 x2 y1 y2 z
    E:
      (1, 0, 0, 0, 0 | 0, 1, 1, 0, 0)
    E_prime:
      (1, 0, 0, 0, 0 | 0, 1, 1, 0, 0)
      ...
    adapted: x1 x2 | y1 y2 | z
    foliation: z
    submanifold: x4 = 0
    grid: -2..2 cap 24
    hamiltonian h1: f = x1 ; Xf = (0, 1, 0, 0)

The chart, adapted, foliation and grid lines may each appear once;
submanifold and hamiltonian lines may repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .calculus import BigSection, Chart, ChartError, PolyOneForm, PolyVectorField
from .scalars import MAX_DEGREE, Polynomial


class ParseError(ValueError):
    """Bad input; line and col locate it in a document, and are None for
    input that has no position (a command-line value, a missing block)."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message if line is None else f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_CHARS = {"+", "-", "*", "/", "^", "(", ")"}
# below 640, the least limit int() can be set to take from a string, so no
# interpreter setting refuses a literal the parser accepts
MAX_DIGITS = 600
MAX_NESTING = 100  # parenthesis levels; each takes five frames of the descent
MAX_TERM_PRODUCTS = 10**6  # per expression, about a second; no bundled document nears it


def _power_products(t: int, n: int) -> int:
    """The term products ``Polynomial.__pow__`` forms squaring up a t-term
    base to the n-th power: its k-th power has at most C(t + k - 1, k)
    terms, one per multiset of k base terms.  Stops once past the limit."""
    total, result, base = 0, 0, 1  # the exponents of the running result and square
    while t and n and total <= MAX_TERM_PRODUCTS:
        if n & 1:
            total, result = total + comb(t + result - 1, result) * comb(t + base - 1, base), result + base
        n >>= 1
        if n:
            total, base = total + comb(t + base - 1, base) ** 2, 2 * base
    return total


def _tokenize(text: str, line_no: int, col_offset: int = 0):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        col = i + 1 + col_offset
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, line_no, col))
            i += 1
            continue
        if ch.isdecimal():  # the digits int() reads; isdigit() also takes superscripts
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("number", text[i:j], line_no, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line_no, col))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line_no, col)
    tokens.append(("end", "", line_no, len(text) + 1 + col_offset))
    return tokens


class ExpressionParser:
    def __init__(self, chart: Chart, text: str, line_no: int = 1, col_offset: int = 0):
        self.chart = chart
        self.tokens = _tokenize(text, line_no, col_offset)
        self.pos = 0
        self.depth = 0  # parentheses open around the current position
        self.products = 0  # term products of the expansions so far, at most

    def spend(self, products: int, line: int, col: int):
        """Refuse, at its operator, an expansion past the expression's limit."""
        self.products += products
        if self.products > MAX_TERM_PRODUCTS:
            raise ParseError(f"expanding the expression needs more than {MAX_TERM_PRODUCTS} term products", line, col)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse(self) -> Polynomial:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2], tok[3])
        return value

    def expr(self) -> Polynomial:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, line, col = self.advance()
            rhs = self.factor()
            if op == "*":
                self.spend(len(value.nums) * len(rhs.nums), line, col)
                try:
                    value = value * rhs
                except OverflowError as exc:  # a degree past the representable limit
                    raise ParseError(str(exc), line, col)
            else:
                if not rhs.is_constant():
                    raise ParseError(f"non-constant divisor: {rhs}", line, col)
                c = rhs.constant_value()
                if c == 0:
                    raise ParseError("division by zero", line, col)
                value = value / c
        return value

    def factor(self) -> Polynomial:
        negate = False
        while self.peek()[0] in ("+", "-"):
            negate ^= self.advance()[0] == "-"
        value = self.power()
        return -value if negate else value

    def power(self) -> Polynomial:
        base = self.atom()
        if self.peek()[0] == "^":
            _, _, line, col = self.advance()
            tok = self.advance()
            if tok[0] != "number":
                raise ParseError("exponent must be a nonnegative integer", tok[2], tok[3])
            # the length test first: int() refuses strings of thousands of digits
            digits = tok[1].lstrip("0") or "0"
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                raise ParseError(f"exponent exceeds the limit {MAX_DEGREE}", tok[2], tok[3])
            self.spend(_power_products(len(base.nums), int(digits)), line, col)
            try:
                return base ** int(digits)
            except OverflowError as exc:
                raise ParseError(str(exc), tok[2], tok[3])
        return base

    def atom(self) -> Polynomial:
        tok = self.advance()
        kind, text, line, col = tok
        if kind == "number":
            digits = text.lstrip("0") or "0"
            if len(digits) > MAX_DIGITS:
                raise ParseError(f"number literal has more than {MAX_DIGITS} digits", line, col)
            return self.chart.constant(Fraction(int(digits)))
        if kind == "name":
            if text not in self.chart.names:
                raise ParseError(f"unknown coordinate {text!r}", line, col)
            return self.chart.coordinate(text)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels", line, col)
            self.depth += 1
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {text!r}", line, col)


def parse_expression(chart: Chart, text: str, line_no: int = 1, col_offset: int = 0) -> Polynomial:
    return ExpressionParser(chart, text, line_no, col_offset).parse()


# --------------------------------------------------------------------------
# structure documents
# --------------------------------------------------------------------------

@dataclass
class HamiltonianPair:
    name: str
    f: Polynomial
    field_comps: tuple


@dataclass
class StructureDocument:
    chart: Chart
    e_sections: tuple
    e_prime_sections: tuple
    adapted_split: tuple | None = None  # (leaf names, middle names, transverse names)
    foliation_names: tuple | None = None
    submanifold_equations: tuple | None = None
    grid_range: tuple | None = None  # (lo, hi, cap)
    hamiltonian_pairs: tuple = ()
    restricted_e_lines: tuple = ()  # raw section lines, parsed on the sub chart
    restricted_e_prime_lines: tuple = ()

    def sections_for(self, chart: Chart, lines: Sequence) -> list:
        return [_parse_section(chart, text, ln) for text, ln in lines]


def _split_top_level(text: str, line_no: int, col_offset: int, separators):
    parts = []
    depth = 0
    current = []
    start_col = col_offset
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", line_no, col_offset + i + 1)
        if depth == 0 and ch in separators:
            parts.append(("".join(current), start_col))
            current = []
            start_col = col_offset + i + 1
            continue
        current.append(ch)
    if depth != 0:
        raise ParseError("unbalanced '('", line_no, col_offset + len(text))
    parts.append(("".join(current), start_col))
    return parts


def _parse_section(chart: Chart, text: str, line_no: int) -> BigSection:
    stripped = text.strip()
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise ParseError("section must be parenthesized: (vf comps | form comps)", line_no, 1)
    inner = stripped[1:-1]
    offset = text.index("(") + 1
    halves = _split_top_level(inner, line_no, offset, separators=("|",))
    if len(halves) != 2:
        raise ParseError("section needs exactly one '|' separating vf and form parts", line_no, offset)
    comps = []
    for half_text, half_col in halves:
        items = _split_top_level(half_text, line_no, half_col, separators=(",",))
        exprs = [parse_expression(chart, item, line_no, col) for item, col in items]
        if len(exprs) != chart.dim:
            raise ParseError(
                f"expected {chart.dim} components, found {len(exprs)}", line_no, half_col
            )
        comps.append(exprs)
    return BigSection(PolyVectorField(chart, comps[0]), PolyOneForm(chart, comps[1]))


def _strip_comment(line: str) -> str:
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def parse_document(text: str) -> StructureDocument:
    lines = text.splitlines()
    chart = None
    blocks = {"E": [], "E_prime": [], "restricted_E": [], "restricted_E_prime": []}
    current_block = None
    adapted = None
    foliation = None
    submanifold_lines = []
    grid_range = None
    hamiltonian = []

    for ln, raw in enumerate(lines, start=1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        lowered = stripped.lower()
        keyword = lowered.split(None, 1)[0]  # chart and hamiltonian are whole words
        if keyword == "chart":
            names = stripped[len("chart") :].split()
            if not names:
                raise ParseError("chart needs at least one coordinate name", ln, 1)
            if chart is not None:
                raise ParseError("duplicate chart declaration", ln, 1)
            try:
                chart = Chart(tuple(names))
            except ChartError as exc:
                raise ParseError(str(exc), ln, 1)
            current_block = None
            continue
        matched_block = None
        for key in blocks:
            if stripped == f"{key}:":
                matched_block = key
                break
        if matched_block:
            current_block = matched_block
            continue
        if stripped.startswith("("):
            if current_block is None:
                raise ParseError("section outside a frame block", ln, 1)
            blocks[current_block].append((line, ln))
            continue
        if lowered.startswith("adapted:"):
            if adapted is not None:
                raise ParseError("duplicate adapted line", ln, 1)
            body = stripped[len("adapted:") :]
            parts = _split_top_level(body, ln, len("adapted:") + 1, separators=("|",))
            if len(parts) != 3:
                raise ParseError("adapted needs leaf | middle | transverse name groups", ln, 1)
            adapted = tuple(tuple(p.split()) for p, _ in parts)
            current_block = None
            continue
        if lowered.startswith("foliation:"):
            if foliation is not None:
                raise ParseError("duplicate foliation line", ln, 1)
            foliation = tuple(stripped[len("foliation:") :].split())
            current_block = None
            continue
        if lowered.startswith("submanifold:"):
            body = stripped[len("submanifold:") :]
            submanifold_lines.append((body, ln))
            current_block = None
            continue
        if lowered.startswith("grid:"):
            if grid_range is not None:
                raise ParseError("duplicate grid line", ln, 1)
            grid_range = _parse_grid_spec(stripped[len("grid:") :], ln)
            current_block = None
            continue
        if keyword == "hamiltonian":
            hamiltonian.append((stripped, ln))
            current_block = None
            continue
        raise ParseError(f"unrecognized line: {stripped!r}", ln, 1)

    if chart is None:
        raise ParseError("missing chart declaration", 1, 1)
    if not blocks["E"] and not blocks["E_prime"]:
        raise ParseError("missing frame blocks E/E_prime", len(lines), 1)

    e_sections = tuple(_parse_section(chart, text, ln) for text, ln in blocks["E"])
    ep_sections = tuple(_parse_section(chart, text, ln) for text, ln in blocks["E_prime"])

    sub_eqs = None
    if submanifold_lines:
        eqs = []
        for body, ln in submanifold_lines:
            for piece, col in _split_top_level(body, ln, 1, separators=(";",)):
                if not piece.strip():
                    continue
                eqs.append(_parse_equation(chart, piece, ln, col))
        sub_eqs = tuple(eqs)

    ham_pairs = tuple(_parse_hamiltonian(chart, text, ln) for text, ln in hamiltonian)

    return StructureDocument(
        chart=chart,
        e_sections=e_sections,
        e_prime_sections=ep_sections,
        adapted_split=adapted,
        foliation_names=foliation,
        submanifold_equations=sub_eqs,
        grid_range=grid_range,
        hamiltonian_pairs=ham_pairs,
        restricted_e_lines=tuple(blocks["restricted_E"]),
        restricted_e_prime_lines=tuple(blocks["restricted_E_prime"]),
    )


def _parse_equation(chart: Chart, text: str, line_no: int, col: int) -> Polynomial:
    if "=" in text:
        lhs, rhs = text.split("=", 1)
        left = parse_expression(chart, lhs, line_no, col)
        right = parse_expression(chart, rhs, line_no, col + len(lhs) + 1)
        return left - right
    return parse_expression(chart, text, line_no, col)


def _parse_grid_spec(text: str, line_no: int):
    parts = text.split()
    if not parts or ".." not in parts[0]:
        raise ParseError("grid needs the form lo..hi [cap N]", line_no, 1)
    lo_text, hi_text = parts[0].split("..", 1)
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ParseError("grid bounds must be integers", line_no, 1)
    if lo > hi:
        raise ParseError("grid bounds out of order", line_no, 1)
    cap = 24
    if len(parts) >= 2:
        if parts[1] != "cap" or len(parts) != 3:
            raise ParseError("grid cap must be written as 'cap N'", line_no, 1)
        cap_text = (parts[2].lstrip("0") or "0") if parts[2].isdecimal() else "0"
        if len(cap_text) > MAX_DIGITS:
            raise ParseError(f"grid cap has more than {MAX_DIGITS} digits", line_no, 1)
        cap = int(cap_text)
    if cap < 1:
        raise ParseError("grid cap must be a positive integer", line_no, 1)
    return (lo, hi, cap)


def _parse_hamiltonian(chart: Chart, text: str, line_no: int) -> HamiltonianPair:
    # hamiltonian NAME: f = EXPR ; Xf = (EXPR, ...)
    body = text[len("hamiltonian") :].strip()
    if ":" not in body:
        raise ParseError("hamiltonian needs 'hamiltonian NAME: f = ... ; Xf = (...)'", line_no, 1)
    name, rest = body.split(":", 1)
    pieces = _split_top_level(rest, line_no, 1, separators=(";",))
    f_poly = None
    comps = None
    for piece, col in pieces:
        piece = piece.strip()
        if "=" not in piece:
            raise ParseError(f"hamiltonian field needs '=': {piece!r}", line_no, col)
        key, expr = piece.split("=", 1)
        key = key.strip().lower()
        if key == "f":
            f_poly = parse_expression(chart, expr, line_no, col)
        elif key == "xf":
            expr = expr.strip()
            if not (expr.startswith("(") and expr.endswith(")")):
                raise ParseError("Xf must be a parenthesized component list", line_no, col)
            items = _split_top_level(expr[1:-1], line_no, col, separators=(",",))
            comps = tuple(parse_expression(chart, item, line_no, c) for item, c in items)
            if len(comps) != chart.dim:
                raise ParseError(f"Xf needs {chart.dim} components", line_no, col)
        else:
            raise ParseError(f"unknown hamiltonian field {key!r}", line_no, col)
    if f_poly is None or comps is None:
        raise ParseError("hamiltonian needs both f and Xf", line_no, 1)
    return HamiltonianPair(name.strip(), f_poly, comps)
