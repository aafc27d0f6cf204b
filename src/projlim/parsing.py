"""Text grammar for scalars, matrices, sequences, signatures and diagrams.

The grammar is deliberately small and round-trips with the renderers used by
the CLI:

* scalars: ``3/2*t^-1 + t^2``
* points: ``[1, 0, -2/3, 0, 1]``
* explicit matrices: ``[[1, t], [0, 1]]``
* factored sequences: ``diag(1, t^-1, t^-2)``, ``perm((0)(1 2 3 4))``,
  ``compose(A, B, ...)`` and constant explicit ``[[...]]`` factors
* block signatures: ``(4,1)``, ``(3)``, ``((1),(3,1))``
* Young diagrams: ``[3,1]``, ``[]``; diagram pairs: ``([3,1],[])``
* permutations: cycle notation ``(0)(1 2 3 4)`` or ``id``
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import ParseError
from .laurent import LaurentScalar


class _Tokens:
    SYMBOLS = "()[],^*+-/"

    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []  # (kind, value, pos)
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.items.append(("int", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.items.append(("name", text[i:j], i))
                i = j
                continue
            if ch in self.SYMBOLS:
                self.items.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        if self.pos >= len(self.items):
            return ("end", "", len(self.text))
        return self.items[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def accept(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        if tok[0] == kind and (value is None or tok[1] == value):
            self.pos += 1
            return True
        return False

    def done(self) -> None:
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])


# -- scalars ----------------------------------------------------------------


def _parse_int(tk: _Tokens) -> int:
    sign = 1
    while True:
        if tk.accept("-"):
            sign = -sign
        elif tk.accept("+"):
            pass
        else:
            break
    tok = tk.expect("int")
    return sign * int(tok[1])


def _parse_atom(tk: _Tokens) -> LaurentScalar:
    if tk.accept("-"):
        return -_parse_atom(tk)
    if tk.accept("+"):
        return _parse_atom(tk)
    kind, value, pos = tk.peek()
    if kind == "int":
        tk.next()
        num = int(value)
        if tk.accept("/"):
            den = int(tk.expect("int")[1])
            if den == 0:
                raise ParseError("division by zero", pos)
            return LaurentScalar._of({0: Fraction(num, den)})
        return LaurentScalar._of({0: Fraction(num)})
    if kind == "name" and value == "t":
        tk.next()
        if tk.accept("^"):
            if tk.accept("("):
                e = _parse_int(tk)
                tk.expect(")")
            else:
                e = _parse_int(tk)
            return LaurentScalar.t(e)
        return LaurentScalar.t()
    if kind == "(":
        tk.next()
        s = _parse_scalar_expr(tk)
        tk.expect(")")
        return s
    raise ParseError(f"expected a scalar, found {value or 'end of input'!r}", pos)


def _parse_term(tk: _Tokens) -> LaurentScalar:
    s = _parse_atom(tk)
    while tk.accept("*"):
        s = s * _parse_atom(tk)
    return s


def _parse_scalar_expr(tk: _Tokens) -> LaurentScalar:
    s = _parse_term(tk)
    while True:
        if tk.accept("+"):
            s = s + _parse_term(tk)
        elif tk.accept("-"):
            s = s - _parse_term(tk)
        else:
            return s


def parse_scalar(text: str) -> LaurentScalar:
    tk = _Tokens(text)
    s = _parse_scalar_expr(tk)
    tk.done()
    return s


# -- points and matrices ------------------------------------------------------


def _parse_scalar_list(tk: _Tokens) -> list[LaurentScalar]:
    tk.expect("[")
    items: list[LaurentScalar] = []
    if not tk.accept("]"):
        items.append(_parse_scalar_expr(tk))
        while tk.accept(","):
            items.append(_parse_scalar_expr(tk))
        tk.expect("]")
    return items


def parse_point(text: str) -> list[LaurentScalar]:
    """The coordinates of a point.  A list of plain integers, the common case,
    is read directly; any other text goes through the scalar grammar, which
    gives the same values and raises the same errors."""
    coords = _plain_integers(text)
    if coords is None:
        tk = _Tokens(text)
        coords = _parse_scalar_list(tk)
        tk.done()
        if not coords:
            raise ParseError("empty point")
    return coords


def _plain_integers(text: str) -> list[LaurentScalar] | None:
    """The constants of ``[a, b, ...]`` when every entry is an optional minus
    and ASCII digits (whitespace around entries and brackets allowed), else None."""
    body = text.strip()
    if body[:1] != "[" or body[-1:] != "]":
        return None
    entries = [entry.strip() for entry in body[1:-1].split(",")]
    digits = [entry[1:] if entry[:1] == "-" else entry for entry in entries]
    if not all(d.isascii() and d.isdigit() for d in digits):
        return None
    return [LaurentScalar._of({0: Fraction(int(entry))}) for entry in entries]


def _parse_matrix_rows(tk: _Tokens) -> list[list[LaurentScalar]]:
    tok = tk.expect("[")
    rows: list[list[LaurentScalar]] = []
    rows.append(_parse_scalar_list(tk))
    while tk.accept(","):
        rows.append(_parse_scalar_list(tk))
    tk.expect("]")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged matrix", tok[2])
    return rows


def parse_matrix(text: str) -> list[list[LaurentScalar]]:
    tk = _Tokens(text)
    rows = _parse_matrix_rows(tk)
    tk.done()
    return rows


# -- permutations -------------------------------------------------------------


def _parse_cycles(tk: _Tokens, n: int) -> tuple[int, ...]:
    perm = list(range(n))
    seen: set[int] = set()
    saw_any = False
    while tk.peek()[0] == "(":
        saw_any = True
        tk.expect("(")
        cycle: list[int] = []
        while not tk.accept(")"):
            tok = tk.expect("int")
            v = int(tok[1])
            if v >= n:
                raise ParseError(f"index {v} out of range for dimension {n}", tok[2])
            if v in seen:
                raise ParseError(f"index {v} repeated in cycles", tok[2])
            seen.add(v)
            cycle.append(v)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
    if not saw_any:
        tok = tk.peek()
        raise ParseError("expected cycle notation or 'id'", tok[2])
    return tuple(perm)


def parse_permutation(text: str, n: int = 5) -> tuple[int, ...]:
    tk = _Tokens(text)
    if tk.accept("name", "id"):
        tk.done()
        return tuple(range(n))
    perm = _parse_cycles(tk, n)
    tk.done()
    return perm


# -- factored sequences --------------------------------------------------------


def _parse_sequence(tk: _Tokens, n: int):
    from .projective import FactoredSequence

    kind, value, pos = tk.peek()
    if kind == "name" and value == "diag":
        tk.next()
        tk.expect("(")
        entries = [_parse_scalar_expr(tk)]
        while tk.accept(","):
            entries.append(_parse_scalar_expr(tk))
        tk.expect(")")
        if not all(e.is_monomial() for e in entries):  # the zero scalar has no term
            raise ParseError("diag entries must be nonzero monomials c*t^k", pos)
        # Sparse factors; the right one is the identity of ``diagonal``.
        eye = FactoredSequence.diagonal([e.min_exponent() for e in entries])
        left = tuple(((i, e.coefficient(k)),) for i, (e, k) in enumerate(zip(entries, eye.weights)))
        return FactoredSequence._of(left, eye.weights, eye.right, right_inv=eye.right_inv)
    if kind == "name" and value == "perm":
        tk.next()
        tk.expect("(")
        perm = _parse_cycles(tk, n)
        tk.expect(")")
        eye = FactoredSequence.diagonal([0] * n)  # row i of P(perm) is row perm(i) of the identity
        return FactoredSequence._of(tuple(eye.right[j] for j in perm), eye.weights, eye.right, right_inv=eye.right_inv)
    if kind == "name" and value == "compose":
        tk.next()
        tk.expect("(")
        seqs = [_parse_sequence(tk, n)]
        while tk.accept(","):
            seqs.append(_parse_sequence(tk, n))
        tk.expect(")")
        out = seqs[0]
        for s in seqs[1:]:
            out = out.compose(s)
        return out
    if kind == "[":
        rows = _parse_matrix_rows(tk)
        if not all(e.is_constant() for row in rows for e in row):
            raise ParseError("explicit sequence factors must be constant matrices", pos)
        return FactoredSequence.constant([[e.coefficient(0) for e in row] for row in rows])
    raise ParseError(f"expected a sequence (diag/perm/compose/[[...]]), found {value!r}", pos)


@functools.lru_cache(maxsize=128)
def parse_sequence(text: str, n: int = 5):
    """Parse a factored sequence; ``perm(...)`` factors are n x n.

    Each (text, n) is parsed once per process: a bounded cache returns the
    same ``FactoredSequence``, which is frozen, so sharing it is safe.  A text
    that does not parse raises on every call, since nothing is cached for it.
    """
    tk = _Tokens(text)
    seq = _parse_sequence(tk, n)
    tk.done()
    return seq


# -- signatures and algebras ----------------------------------------------------


def _parse_block(tk: _Tokens) -> tuple[int, int]:
    tk.expect("(")
    tok = tk.expect("int")
    p = int(tok[1])
    q = 0
    if tk.accept(","):
        q = int(tk.expect("int")[1])
    tk.expect(")")
    return (p, q)


def parse_signature(text: str) -> tuple[tuple[int, int], ...]:
    tk = _Tokens(text)
    tk.expect("(")
    if tk.peek()[0] == "(":
        blocks = [_parse_block(tk)]
        while tk.accept(","):
            blocks.append(_parse_block(tk))
        tk.expect(")")
        tk.done()
        return tuple(blocks)
    p = int(tk.expect("int")[1])
    q = 0
    if tk.accept(","):
        q = int(tk.expect("int")[1])
    tk.expect(")")
    tk.done()
    return ((p, q),)


def parse_algebra(text: str) -> tuple[tuple[int, int], ...]:
    """Parse ``po(SIGNATURE)`` into the signature tuple."""
    stripped = text.strip()
    if not stripped.startswith("po"):
        raise ParseError("algebra must be of the form po(signature)", 0)
    return parse_signature(stripped[2:])


# -- Young diagrams ---------------------------------------------------------------


def parse_diagram(text: str) -> tuple[int, ...]:
    tk = _Tokens(text)
    rows = _parse_diagram_body(tk)
    tk.done()
    return rows


def _parse_diagram_body(tk: _Tokens) -> tuple[int, ...]:
    tk.expect("[")
    rows: list[int] = []
    if not tk.accept("]"):
        rows.append(int(tk.expect("int")[1]))
        while tk.accept(","):
            rows.append(int(tk.expect("int")[1]))
        tk.expect("]")
    return tuple(rows)


def parse_pair(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    tk = _Tokens(text)
    tk.expect("(")
    lam = _parse_diagram_body(tk)
    tk.expect(",")
    lam_bar = _parse_diagram_body(tk)
    tk.expect(")")
    tk.done()
    return lam, lam_bar


# -- dispatcher -------------------------------------------------------------------


def parse_expression(text: str, kind: str):
    """Parse ``text`` as one of the grammar kinds.

    kind is one of scalar, point, matrix, sequence, permutation, signature,
    algebra, diagram, pair.
    """
    parsers = {
        "scalar": parse_scalar,
        "point": parse_point,
        "matrix": parse_matrix,
        "sequence": parse_sequence,
        "permutation": parse_permutation,
        "signature": parse_signature,
        "algebra": parse_algebra,
        "diagram": parse_diagram,
        "pair": parse_pair,
    }
    if kind not in parsers:
        raise ParseError(f"unknown expression kind {kind!r}")
    return parsers[kind](text)
