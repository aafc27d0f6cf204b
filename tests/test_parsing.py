"""Fixed tests for the branches of the text grammar: grouped scalars and
exponents, signs, refusals with their positions, and the ``parse_expression``
dispatcher for every kind."""

import random
from fractions import Fraction

import pytest

from projlim import parsing
from projlim.errors import ParseError
from projlim.laurent import LaurentScalar
from projlim.parsing import (
    parse_algebra,
    parse_diagram,
    parse_expression,
    parse_matrix,
    parse_pair,
    parse_permutation,
    parse_point,
    parse_scalar,
    parse_sequence,
    parse_signature,
)

T = LaurentScalar.t()


class TestScalars:
    def test_parenthesized_scalars(self):
        assert parse_scalar("(1 + t)*(1 - t)") == LaurentScalar.one() - T * T
        assert parse_scalar("2*(t^-1 - 1/2)") == LaurentScalar({-1: 2, 0: -1})

    def test_parenthesized_exponents(self):
        assert parse_scalar("t^(-2)") == LaurentScalar.t(-2)
        assert parse_scalar("3*t^(--1)") == LaurentScalar({1: 3})

    def test_unary_plus(self):
        assert parse_scalar("+3") == LaurentScalar.constant(3)
        assert parse_scalar("-+t") == -T
        assert parse_scalar("t^+2") == LaurentScalar.t(2)

    def test_trailing_input_is_refused(self):
        with pytest.raises(ParseError, match=r"^trailing input '2' \(at position 2\)$"):
            parse_scalar("1 2")
        with pytest.raises(ParseError, match=r"^trailing input '\]' \(at position 15\)$"):
            parse_sequence("diag(t,1,1,1,t)]")


class TestPointsAndMatrices:
    def test_an_empty_point_is_refused(self):
        with pytest.raises(ParseError, match="^empty point$"):
            parse_point("[]")

    def test_a_ragged_matrix_is_refused(self):
        with pytest.raises(ParseError, match=r"^ragged matrix \(at position 0\)$"):
            parse_matrix("[[1, 2], [3]]")


def _point_texts(seed=20261147, count=600):
    """Seeded point texts: mostly plain integers, with whitespace of every
    kind around entries and brackets, signs, fractions, t-terms and malformed
    entries and brackets mixed in."""
    rng = random.Random(seed)
    plain = ["0", "7", "-3", "12", "-0", "007", "123456789012345678901234567890"]
    other = ["1/2", "-3/4", "t", "t^-1", "2*t", "-t^2", "+5", "--2", "- 4", "(1)", "1/0", "1_0", "1.5", "x", "",
             "\u0663", "3 4", "-", "2 ^ 3"]
    spaces = ["", " ", "  ", "\t", "\n", "\u00a0"]
    for _ in range(count):
        entries = [rng.choice(other if rng.random() < 0.15 else plain) for _ in range(rng.randint(0, 6))]
        body = ",".join(rng.choice(spaces) + e + rng.choice(spaces) for e in entries)
        start, end = ("[", "]") if rng.random() < 0.9 else rng.choice([("", "]"), ("[", ""), ("[[", "]]"), ("(", ")"), ("[", "],")])
        yield rng.choice(spaces) + start + body + end + rng.choice(spaces)


def _outcome(text):
    """The coordinates of ``parse_point``, as (type, terms) pairs, or the
    type, message and position of the error it raises."""
    try:
        return [(type(c), c._terms) for c in parse_point(text)]
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


class TestPlainIntegerPoints:
    """``parse_point`` reads a list of plain integers directly; every other
    text goes through the scalar grammar."""

    def test_against_the_grammar_on_a_seeded_grid(self, monkeypatch):
        texts = list(_point_texts())
        direct = [parsing._plain_integers(text) is not None for text in texts]
        fast = [_outcome(text) for text in texts]
        monkeypatch.setattr(parsing, "_plain_integers", lambda text: None)
        assert fast == [_outcome(text) for text in texts]
        errors = sum(isinstance(outcome, tuple) for outcome in fast)
        # Read directly, raised by the grammar, and read by the grammar.
        assert (sum(direct), errors, len(texts) - sum(direct) - errors) == (277, 226, 97)

    def test_plain_integers_call_no_scalar_grammar(self, monkeypatch):
        monkeypatch.setattr(parsing, "_parse_scalar_expr", lambda tk: pytest.fail("grammar used"))
        assert parse_point(" [ 1, -0,\t20 ,-3 ] ") == [1, 0, 20, -3]


class TestSequenceCache:
    """Each (text, n) is parsed once per process; a text that does not parse
    raises on every call."""

    def test_a_text_is_parsed_once_per_dimension(self, monkeypatch):
        parse_sequence.cache_clear()
        parses = []
        original = parsing._parse_sequence
        monkeypatch.setattr(parsing, "_parse_sequence", lambda tk, n: parses.append(n) or original(tk, n))
        text = "compose(perm((0 3 1 2)),diag(t,1,1,t^-1))"
        first = parse_sequence(text, 4)
        assert parse_sequence(text, 4) is first and len(parses) == 3
        assert parse_sequence("perm((0 3 1 2))", 5).dim == 5 and len(parses) == 4
        for _ in range(2):
            with pytest.raises(ParseError, match=r"^index 5 out of range for dimension 4"):
                parse_sequence("perm((0 5))", 4)
        assert len(parses) == 6


class TestPermutations:
    def test_id_is_the_identity_of_the_given_dimension(self):
        assert parse_permutation("id") == (0, 1, 2, 3, 4)
        assert parse_permutation(" id ", 3) == (0, 1, 2)

    def test_a_repeated_cycle_index_is_refused(self):
        with pytest.raises(ParseError, match=r"^index 1 repeated in cycles \(at position 6\)$"):
            parse_permutation("(0 1)(1 2)")

    def test_an_index_out_of_range_is_refused(self):
        with pytest.raises(ParseError, match=r"^index 5 out of range for dimension 5 \(at position 3\)$"):
            parse_permutation("(0 5)")

    def test_a_missing_cycle_is_refused(self):
        with pytest.raises(ParseError, match=r"^expected cycle notation or 'id' \(at position 0\)$"):
            parse_permutation("")
        with pytest.raises(ParseError, match=r"^expected cycle notation or 'id' \(at position 5\)$"):
            parse_sequence("perm()")


class TestSequences:
    def test_a_zero_diag_entry_is_refused(self):
        with pytest.raises(ParseError, match=r"^diag entries must be nonzero monomials c\*t\^k \(at position 0\)$"):
            parse_sequence("diag(1, 0, t)", 3)

    def test_a_factor_that_depends_on_t_is_refused(self):
        with pytest.raises(ParseError, match=r"^explicit sequence factors must be constant matrices \(at position 0\)$"):
            parse_sequence("[[t]]", 1)


class TestParseExpression:
    @pytest.mark.parametrize(
        "kind, text, parser",
        [
            ("scalar", "3/2*t^-1 + t^2", parse_scalar),
            ("point", "[1, 0, -2/3, 0, 1]", parse_point),
            ("matrix", "[[1, t], [0, 1]]", parse_matrix),
            ("sequence", "compose(perm((0 4 1 2 3)), diag(t,1,1,1,t))", parse_sequence),
            ("permutation", "(0)(1 2 3 4)", parse_permutation),
            ("signature", "((1),(3,1))", parse_signature),
            ("algebra", "po(4,1)", parse_algebra),
            ("diagram", "[3,1]", parse_diagram),
            ("pair", "([3,1],[])", parse_pair),
        ],
    )
    def test_every_kind_dispatches_to_its_parser(self, kind, text, parser):
        assert parse_expression(text, kind) == parser(text)

    def test_the_dispatched_values(self):
        assert parse_expression("[1, 1/2]", "point") == [LaurentScalar.one(), LaurentScalar.constant(Fraction(1, 2))]
        assert parse_expression("(0 1)", "permutation") == (1, 0, 2, 3, 4)
        assert parse_expression("po((1),(3,1))", "algebra") == ((1, 0), (3, 1))

    def test_an_unknown_kind_is_refused(self):
        with pytest.raises(ParseError, match="^unknown expression kind 'vector'$"):
            parse_expression("[1, 0]", "vector")
