import json
import random
import re
from fractions import Fraction

import pytest

from bigiso import fixtures
from bigiso.calculus import Chart
from bigiso.cli import main
from bigiso.parser import MAX_DIGITS, MAX_NESTING, MAX_TERM_PRODUCTS, ParseError, parse_document, parse_expression
from bigiso.scalars import MAX_DEGREE, Polynomial


class TestExpressionParser:
    def setup_method(self):
        self.chart = Chart(("x1", "x2"))

    def test_basic_polynomial(self):
        p = parse_expression(self.chart, "x1*x2 + 3/2")
        assert p == (
            Polynomial.variable(("x1", "x2"), "x1") * Polynomial.variable(("x1", "x2"), "x2")
            + Polynomial.constant(("x1", "x2"), Fraction(3, 2))
        )

    def test_cancellation_to_zero(self):
        assert parse_expression(self.chart, "x1^2 - x1^2").is_zero()

    def test_non_constant_divisor_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_expression(self.chart, "x2/x1")
        assert "non-constant divisor" in str(err.value)

    def test_unknown_coordinate(self):
        with pytest.raises(ParseError) as err:
            parse_expression(self.chart, "x1 + y")
        assert "unknown coordinate" in str(err.value)
        assert err.value.col == 6

    def test_precedence_and_unary(self):
        p = parse_expression(self.chart, "-x1 + 2*x2^2")
        q = -Polynomial.variable(("x1", "x2"), "x1") + 2 * Polynomial.variable(("x1", "x2"), "x2") ** 2
        assert p == q

    def test_parentheses(self):
        p = parse_expression(self.chart, "(x1 + x2)^2")
        q = (Polynomial.variable(("x1", "x2"), "x1") + Polynomial.variable(("x1", "x2"), "x2")) ** 2
        assert p == q

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression(self.chart, "x1 + @")
        assert err.value.col == 6

    def test_numbers_are_decimal_digits(self):
        # str.isdigit() accepts superscripts, which int() refuses
        for text, col in (("x1^\u00b2", 4), ("\u00b2", 1), ("x1 + \u00b3", 6)):
            with pytest.raises(ParseError, match="unexpected character") as err:
                parse_expression(self.chart, text)
            assert err.value.col == col
        assert parse_expression(self.chart, "x1^\u0663") == parse_expression(self.chart, "x1^3")  # Arabic-Indic 3

    def test_degree_limit(self):
        x1 = Polynomial.variable(("x1", "x2"), "x1")
        assert parse_expression(self.chart, f"x1^{MAX_DEGREE}") == x1**MAX_DEGREE
        assert parse_expression(self.chart, f"x1^{MAX_DEGREE - 2} * x1^2").total_degree() == MAX_DEGREE
        assert parse_expression(self.chart, "x1^000000000002") == x1 * x1
        past = (
            (f"x1^{MAX_DEGREE + 1}", 4),  # at the exponent
            (f"x1^{MAX_DEGREE - 1} * x2^2", 10),  # at the product's '*'
            (f"(x1*x2)^{MAX_DEGREE // 2 + 1}", 9),  # an allowed exponent, a degree past the limit
            (f"(x1 + x2)^{2**40}", 11),
            (f"2^{MAX_DEGREE + 1}", 3),  # every exponent, on a constant too
            ("x1^" + "9" * 5000, 4),  # past the digits int() converts
        )
        for text, col in past:
            with pytest.raises(ParseError, match=f"exceeds the limit {MAX_DEGREE}") as err:
                parse_expression(self.chart, text)
            assert (err.value.line, err.value.col) == (1, col)

    def test_literal_digit_limit(self):
        # the bound is the parser's own, below any limit int() can be set to
        assert MAX_DIGITS < 640
        assert parse_expression(self.chart, "9" * MAX_DIGITS).constant_value() == 10**MAX_DIGITS - 1
        assert parse_expression(self.chart, "0" * 5000 + "7 * x1") == 7 * Polynomial.variable(("x1", "x2"), "x1")
        assert parse_expression(self.chart, "x1^" + "0" * 5000 + "2") == parse_expression(self.chart, "x1^2")
        for text, col in (("1" * (MAX_DIGITS + 1), 1), ("x1 + 2*" + "5" * 5000, 8)):
            with pytest.raises(ParseError, match=f"number literal has more than {MAX_DIGITS} digits") as err:
                parse_expression(self.chart, text)
            assert (err.value.line, err.value.col) == (1, col)

    def test_nesting_limit(self):
        assert MAX_NESTING >= 100
        deepest = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
        assert parse_expression(self.chart, f"{deepest} + {deepest}") == 2 * Polynomial.variable(("x1", "x2"), "x1")
        for levels in (MAX_NESTING + 1, 200, 5000):
            with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels") as err:
                parse_expression(self.chart, "(" * levels + "x1" + ")" * levels)
            assert (err.value.line, err.value.col) == (1, MAX_NESTING + 1)

    def test_term_product_limit(self):
        # counted on term counts before any expansion: a product of t_a and
        # t_b terms forms t_a * t_b term products, and a k-th power of a
        # t-term base has at most C(t + k - 1, k) terms to multiply
        x1, x2 = (Polynomial.variable(("x1", "x2"), name) for name in ("x1", "x2"))
        trinomial = "(x1 + x2 + 1)"
        expected = Polynomial.one(("x1", "x2"))
        for _ in range(40):
            expected = expected * (x1 + x2 + 1)
        assert parse_expression(self.chart, f"{trinomial}^40") == expected
        # 861 * 861 products and both powers: within the limit
        assert parse_expression(self.chart, f"{trinomial}^40 * {trinomial}^40") == expected * expected
        past = (
            (f"{trinomial}^100", 14),  # at the '^': C(38, 36) * C(66, 64) products in its last step alone
            (f"{trinomial}^{MAX_DEGREE}", 14),
            (f"{trinomial}^50 * {trinomial}^50", 18),  # at the '*': 1326 * 1326 products
            # each product alone is within the limit, the expression is not
            (f"{trinomial}^40 * {trinomial}^40 + {trinomial}^40 * {trinomial}^40", 56),
        )
        for text, col in past:
            with pytest.raises(ParseError, match=f"needs more than {MAX_TERM_PRODUCTS} term products") as err:
                parse_expression(self.chart, text)
            assert (err.value.line, err.value.col) == (1, col)

    def test_unary_sign_runs(self):
        x1 = Polynomial.variable(("x1", "x2"), "x1")
        for count in (1, 2, 999, 1000, 20000):
            assert parse_expression(self.chart, "-" * count + "x1") == (-1) ** count * x1
        assert parse_expression(self.chart, "+-" * 700 + "x1^2") == x1**2
        assert parse_expression(self.chart, "x2 - -+-x1") == Polynomial.variable(("x1", "x2"), "x2") - x1

    def test_print_parse_round_trip(self):
        import random

        rng = random.Random(17)
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                exps = (rng.randint(0, 3), rng.randint(0, 3))
                terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            p = Polynomial(("x1", "x2"), terms)
            assert parse_expression(self.chart, str(p)) == p


ROUND_TRIP_CHART = Chart(("x", "y1", "z_2"))


def random_printed_polynomial(rng):
    """Up to six terms of degree <= 4 with rational, negative, integer and
    zero coefficients; repeated monomials overwrite each other."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, 2) for _ in ROUND_TRIP_CHART.names)
        terms[exps] = Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 7, 10]))
    return Polynomial(ROUND_TRIP_CHART.names, terms)


def check_round_trip(rng):
    p = random_printed_polynomial(rng)
    text = str(p)
    q = parse_expression(ROUND_TRIP_CHART, text)
    assert q == p and str(q) == text and hash(q) == hash(p), text


# Short strings over the expression alphabet plus a few foreign characters.
FUZZ_PIECES = ("x", "y1", "z_2", "w", "0", "1", "2", "3", "+", "-", "*", "/", "^", "(", ")", " ", ".", "@", "_")
HUGE_EXPONENT = re.compile(r"\^\s*\d\d")  # a nested power like ((x+y)^99)^99 is not a parsing question


def check_fuzzed(text):
    if HUGE_EXPONENT.search(text):
        return
    try:
        parse_expression(ROUND_TRIP_CHART, text)
    except ParseError:
        pass


class TestRoundTripAndFuzz:
    def test_print_parse_round_trip_seeded(self):
        for seed in range(2000):
            check_round_trip(random.Random(seed))

    def test_print_parse_round_trip_hypothesis(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(st.integers(min_value=0, max_value=2**32 - 1))
        def check(seed):
            check_round_trip(random.Random(seed))

        check()

    def test_malformed_expressions_raise_only_parse_errors_seeded(self):
        rng = random.Random(23)
        for _ in range(5000):
            check_fuzzed("".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(0, 12))))

    def test_malformed_expressions_raise_only_parse_errors_hypothesis(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(st.lists(st.sampled_from(FUZZ_PIECES), max_size=12).map("".join))
        def check(text):
            check_fuzzed(text)

        check()


# frame blocks of E = span{d_x} on the plane (x, y), for documents built here
PLANE_BLOCKS = "E:\n  (1, 0 | 0, 0)\nE_prime:\n  (1, 0 | 0, 0)\n  (0, 1 | 0, 0)\n  (0, 0 | 0, 1)\n"


class TestDocumentParser:
    def test_full_document(self):
        doc = parse_document(fixtures.fixture_text("example_r5"))
        assert doc.chart.names == ("x1", "x2", "y1", "y2", "z")
        assert len(doc.e_sections) == 3
        assert len(doc.e_prime_sections) == 7
        assert doc.adapted_split == (("x1", "x2"), ("y1", "y2"), ("z",))

    def test_reduction_document(self):
        doc = parse_document(fixtures.fixture_text("example_reduction"))
        assert doc.submanifold_equations is not None
        assert doc.foliation_names == ("x3",)

    def test_hamiltonian_pairs(self):
        doc = parse_document(fixtures.fixture_text("example_symplectic"))
        assert [p.name for p in doc.hamiltonian_pairs] == ["p1", "q1", "mixed"]

    def test_missing_chart(self):
        with pytest.raises(ParseError):
            parse_document("E:\n  (1 | 0)\n")

    def test_component_count_mismatch(self):
        text = "chart x y\nE:\n  (1, 0 | 0)\n"
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert "components" in str(err.value)

    def test_duplicate_coordinate_names(self):
        with pytest.raises(ParseError) as err:
            parse_document("# two names alike\n\nchart x y x\nE:\n  (1, 0, 0 | 0, 0, 0)\n")
        assert str(err.value) == "line 3, column 1: coordinate names must be distinct"
        assert err.value.line == 3

    def test_unknown_line(self):
        with pytest.raises(ParseError):
            parse_document("chart x\nnonsense here\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("chartx y\n" + PLANE_BLOCKS, "chartx y"),
            ("chart x y\n" + PLANE_BLOCKS + "hamiltonianized p: f = x ; Xf = (0, 1)\n",
             "hamiltonianized p: f = x ; Xf = (0, 1)"),
        ],
        ids=["chart", "hamiltonian"],
    )
    def test_keywords_are_whole_words(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        number = text.splitlines().index(line) + 1
        assert str(err.value) == f"line {number}, column 1: unrecognized line: {line!r}"

    def test_keywords_may_be_followed_by_any_space(self):
        doc = parse_document("chart\tx  y\n" + PLANE_BLOCKS + "hamiltonian\tp: f = x ; Xf = (0, 1)\n")
        assert doc.chart.names == ("x", "y")
        assert [p.name for p in doc.hamiltonian_pairs] == ["p"]


    @pytest.mark.parametrize("spec", ["-1..1 cap 0", "-1..1 cap x", "2..1", "a..b", "-2..2 cap 5 junk"])
    def test_bad_grid_line(self, spec):
        with pytest.raises(ParseError):
            parse_document(fixtures.fixture_text("example_r3") + f"grid: {spec}\n")

    def test_grid_line(self):
        doc = parse_document(fixtures.fixture_text("example_r3") + "grid: -1..1 cap 5\n")
        assert doc.grid_range == (-1, 1, 5)


class TestCli:
    def run(self, *argv, tmp_path=None):
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        return code, buf.getvalue()

    def test_integrability_pass(self):
        code, out = self.run("integrability", "--fixture", "example_r3")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["ok"] is True
        names = [c["name"] for c in payload["checks"]]
        assert "integrability" in names

    def test_integrability_fail_with_certificate(self):
        code, out = self.run("integrability", "--fixture", "example_theta_nonintegrable")
        assert code == 1
        payload = json.loads(out)
        fail = [c for c in payload["checks"] if c["name"] == "integrability"][0]
        assert fail["verdict"] == "fail"
        assert fail["certificate"]["failures"]
        assert "minor" in fail["certificate"]["failures"][0]["detail"]

    def test_decomposable_both_charts(self):
        code_orig, _ = self.run("decomposable", "--fixture", "example_r5")
        code_tilde, _ = self.run("decomposable", "--fixture", "example_r5_tilde")
        assert code_orig == 1
        assert code_tilde == 0

    def test_canonical_r3(self):
        code, out = self.run("canonical", "--fixture", "example_r3")
        assert code == 0
        payload = json.loads(out)
        frame = [c for c in payload["checks"] if c["name"] == "canonical normalization"][0]
        assert frame["certificate"]["frame"]["X"] == [["1", "0", "0", "0", "0", "0"]]

    def test_transversal_r5(self):
        code, out = self.run("transversal", "--fixture", "example_r5")
        assert code == 0
        payload = json.loads(out)
        tr = [c for c in payload["checks"] if c["name"] == "transversal structure"][0]
        assert tr["certificate"]["chart"] == ["y1", "y2", "z"]
        assert tr["certificate"]["frame_E"] == [["0", "0", "0", "0", "0", "1"]]

    def test_reduce_fixture(self):
        code, out = self.run("reduce", "--fixture", "example_reduction")
        assert code == 0
        payload = json.loads(out)
        red = [c for c in payload["checks"] if c["name"] == "reduction pipeline"][0]
        assert red["certificate"]["quotient_chart"] == ["x1", "x2"]
        assert red["certificate"]["poisson_condition"] is True

    def test_reduce_to_a_point(self, tmp_path):
        # fibres along every coordinate: the quotient chart is empty
        doc = tmp_path / "point.bis"
        doc.write_text(
            "chart x y\n\nE:\n  (1, 0 | 0, 0)\n  (0, 1 | 0, 0)\n\n"
            "E_prime:\n  (1, 0 | 0, 0)\n  (0, 1 | 0, 0)\n\n"
            "submanifold: x = x\nfoliation: x y\n"
        )
        code, out = self.run("reduce", str(doc))
        assert code == 0
        red = [c for c in json.loads(out)["checks"] if c["name"] == "reduction pipeline"][0]
        assert red["verdict"] == "pass" and red["certificate"]["quotient_chart"] == []

    # the frames the default path pulls back to the slice x4 = 0
    RESTRICTED_ROWS = ("(0, 1, 0 | 1, 0, 0)", "(-1, 0, 0 | 0, 1, 0)", "(0, 0, -1 | 0, 0, 0)")

    def restricted_document(self, tmp_path, e_rows=RESTRICTED_ROWS, prime_rows=RESTRICTED_ROWS):
        text = fixtures.fixture_text("example_reduction")
        for block, rows in (("restricted_E", e_rows), ("restricted_E_prime", prime_rows)):
            text += f"\n{block}:\n" + "".join(f"  {row}\n" for row in rows)
        doc = tmp_path / "restricted.bis"
        doc.write_text(text)
        return str(doc)

    def test_reduce_with_supplied_restricted_frames(self, tmp_path, monkeypatch):
        import bigiso.cli as cli

        passed = []
        original = cli.reduce_structure

        def recording(structure, N, F, restricted_frame=None, **kwargs):
            passed.append((restricted_frame, kwargs["restricted_prime_frame"]))
            return original(structure, N, F, restricted_frame, **kwargs)

        monkeypatch.setattr(cli, "reduce_structure", recording)
        code, out = self.run("reduce", self.restricted_document(tmp_path))
        assert code == 0
        ((frame, prime),) = passed
        assert len(frame) == len(prime) == 3
        assert all(sec.vf.chart.names == ("x1", "x2", "x3") for sec in frame + prime)
        _, expected = self.run("reduce", "--fixture", "example_reduction")
        got, expected = json.loads(out), json.loads(expected)
        assert got.pop("document") != expected.pop("document")
        assert got == expected

    def test_too_small_restricted_frame_fails_the_reduction(self, tmp_path):
        code, out = self.run("reduce", self.restricted_document(tmp_path, e_rows=self.RESTRICTED_ROWS[:2]))
        assert code == 1
        red = [c for c in json.loads(out)["checks"] if c["name"] == "reduction pipeline"][0]
        assert red["verdict"] == "fail"
        assert [f["message"] for f in red["certificate"]["failures"]] == [
            "no verified projectable frame for the restriction; supply one (2 candidate sections for rank 3)"
        ]

    def test_wrong_span_of_the_restricted_orthogonal_frame_fails_the_reduction(self, tmp_path):
        # three sections as 2n - k asks, but d x3 in place of -d_x3, which
        # pairs with the E section (0, 0, -1 | 0, 0, 0): validation refuses it
        prime_rows = self.RESTRICTED_ROWS[:2] + ("(0, 0, 0 | 0, 0, 1)",)
        code, out = self.run("reduce", self.restricted_document(tmp_path, prime_rows=prime_rows))
        assert code == 1
        red = [c for c in json.loads(out)["checks"] if c["name"] == "reduction pipeline"][0]
        assert red["verdict"] == "fail"
        assert [f["message"] for f in red["certificate"]["failures"]] == ["E frame not orthogonal to E' frame: g = -1/2"]

    def test_failed_reduction_lists_plain_messages(self, tmp_path):
        # the slanted hyperplane x4 = x3 with fibres along u1: reducibility fails
        text = fixtures.fixture_text("example_reduction").replace("submanifold: x4 = 0", "submanifold: x4 = x3")
        doc = tmp_path / "slanted.bis"
        doc.write_text(text.replace("foliation: x3", "foliation: u1"))
        code, out = self.run("reduce", str(doc))
        assert code == 1
        red = [c for c in json.loads(out)["checks"] if c["name"] == "reduction pipeline"][0]
        (failure,) = red["certificate"]["failures"]
        lines = failure["message"].split("\n")
        assert lines[0] == "reducibility condition: FAIL"
        assert lines[1].startswith("  - fibre direction u1 not in the pullback at (0,")
        assert "('" not in failure["message"] and ", None)" not in failure["message"]

    def test_properness_failure_for_E_prime(self, tmp_path):
        # E' = span((-y, 1 | 0, 0), dx, dy) keeps d_y over {x = 0} only at y = 0
        doc = tmp_path / "window.bis"
        doc.write_text(
            "chart x y\nE:\n  (0, 0 | 1, y)\n"
            "E_prime:\n  (-y, 1 | 0, 0)\n  (0, 0 | 1, 0)\n  (0, 0 | 0, 1)\n"
            "submanifold: x = 0\nfoliation:\n"
        )
        code, out = self.run("reduce", str(doc))
        assert code == 1
        red = [c for c in json.loads(out)["checks"] if c["name"] == "reduction pipeline"][0]
        assert [f["message"] for f in red["certificate"]["failures"]] == [
            "properness fails for E': window dimension 3 at (0) but 2 at (1)"
        ]

    @pytest.mark.parametrize("block", ["E", "E_prime"])
    def test_restricted_block_takes_only_slice_coordinates(self, tmp_path, block):
        rows = self.RESTRICTED_ROWS[:2] + ("(0, 0, -x4 | 0, 0, 0)",)
        e_rows, prime_rows = (rows, self.RESTRICTED_ROWS) if block == "E" else (self.RESTRICTED_ROWS, rows)
        code, out = self.run("reduce", self.restricted_document(tmp_path, e_rows, prime_rows))
        assert code == 2
        (error,) = json.loads(out)["errors"]
        assert error.endswith("unknown coordinate 'x4'")

    def test_input_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.bis"
        bad.write_text("chart x\nE:\n  (y | 0)\n")
        code, out = self.run("validate", str(bad))
        assert code == 2
        payload = json.loads(out)
        assert payload["errors"]

    @pytest.mark.parametrize(
        "text",
        ["chartx y\n" + PLANE_BLOCKS, "chart x y\n" + PLANE_BLOCKS + "hamiltonianized p: f = x ; Xf = (0, 1)\n"],
        ids=["chart", "hamiltonian"],
    )
    def test_keyword_prefix_is_an_input_error(self, tmp_path, text):
        bad = tmp_path / "prefix.bis"
        bad.write_text(text)
        code, out = self.run("validate", str(bad))
        assert code == 2
        [error] = json.loads(out)["errors"]
        assert "unrecognized line" in error

    @pytest.mark.parametrize(
        "component", [f"x^{MAX_DEGREE + 1}", f"x^{MAX_DEGREE} * y", f"(x + y)^{2**40}", "x^" + "1" * 5000]
    )
    def test_degree_past_the_limit_is_an_input_error(self, tmp_path, component):
        bad = tmp_path / "degree.bis"
        bad.write_text(f"chart x y\nE:\n  (1, 0 | 0, {component})\n" + PLANE_BLOCKS.split("\n", 2)[2])
        code, out = self.run("validate", str(bad))
        assert code == 2
        [error] = json.loads(out)["errors"]
        assert error.startswith("line 3, column ") and error.endswith(f"exceeds the limit {MAX_DEGREE}")

    # documents past the parser's bounds, which would otherwise stop with
    # RecursionError or int()'s digit limit
    DEEP_DOCUMENTS = {
        "literal": ("5" * 5000, 14, f"number literal has more than {MAX_DIGITS} digits"),
        "parentheses": ("(" * 200 + "x" + ")" * 200, 14 + MAX_NESTING, f"parentheses nested deeper than {MAX_NESTING} levels"),
        "unary": ("-" * 1000 + "x", None, None),
        "grid cap": ("0", 1, f"grid cap has more than {MAX_DIGITS} digits"),
        # would expand for minutes; refused from the term counts at the operator
        "power": ("(x + y + 1)^100", 25, f"expanding the expression needs more than {MAX_TERM_PRODUCTS} term products"),
        "product": (
            "(x + y + 1)^50 * (x + y + 1)^50", 29, f"expanding the expression needs more than {MAX_TERM_PRODUCTS} term products"
        ),
    }

    @staticmethod
    def deep_document(tmp_path, name):
        component = TestCli.DEEP_DOCUMENTS[name][0]
        text = f"chart x y\nE:\n  (1, 0 | 0, {component})\n" + PLANE_BLOCKS.split("\n", 2)[2]
        if name == "grid cap":
            text += "grid: -1..1 cap " + "9" * 5000 + "\n"
        doc = tmp_path / "deep.bis"
        doc.write_text(text)
        return doc

    @pytest.mark.parametrize("name", sorted(DEEP_DOCUMENTS))
    def test_deep_or_long_input_is_an_input_error(self, tmp_path, name):
        _, col, message = self.DEEP_DOCUMENTS[name]
        code, out = self.run("validate", str(self.deep_document(tmp_path, name)))
        payload = json.loads(out)
        if message is None:  # a run of unary signs folds, so the document is read
            assert code == 1 and payload["errors"] == []
            return
        assert code == 2
        line = 8 if name == "grid cap" else 3
        assert payload["errors"] == [f"line {line}, column {col}: {message}"]

    def validate_in_a_fresh_process(self, tmp_path, name):
        """The one error of validating a deep document in its own process."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": ""}
        if "PYTHONDONTWRITEBYTECODE" in os.environ:  # a run that writes no bytecode cache keeps it so
            env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
        doc = self.deep_document(tmp_path, name)
        done = subprocess.run(
            [sys.executable, "-m", "bigiso.cli", "validate", str(doc)], env=env, capture_output=True, text=True
        )
        assert done.returncode == 2 and done.stderr == ""
        [error] = json.loads(done.stdout)["errors"]
        return error

    def test_deep_input_in_a_fresh_process(self, tmp_path):
        error = self.validate_in_a_fresh_process(tmp_path, "parentheses")
        assert error == f"line 3, column {14 + MAX_NESTING}: parentheses nested deeper than {MAX_NESTING} levels"

    def test_large_power_in_a_fresh_process(self, tmp_path):
        # refused from the term counts at once, where expanding took minutes
        error = self.validate_in_a_fresh_process(tmp_path, "power")
        assert error == f"line 3, column 25: expanding the expression needs more than {MAX_TERM_PRODUCTS} term products"

    def test_missing_file(self):
        code, out = self.run("validate", "/nonexistent/path.bis")
        assert code == 2

    def test_report_all_deterministic(self):
        _, out1 = self.run("report-all", "--fixture", "example_r3", "--seed", "7")
        _, out2 = self.run("report-all", "--fixture", "example_r3", "--seed", "7")
        assert out1 == out2

    def test_report_all_every_fixture(self, monkeypatch):
        import bigiso.cli

        calls = []
        normalize = bigiso.cli.normalize_frame
        monkeypatch.setattr(
            bigiso.cli, "normalize_frame", lambda *a: calls.append(a) or normalize(*a)
        )
        expectations = {
            "example_theta_nonintegrable": 1,  # integrability fails
            "example_r5": 1,  # decomposability fails in these coordinates
        }
        for name in fixtures.list_fixtures():
            calls.clear()
            code, out = self.run("report-all", "--fixture", name)
            expected = expectations.get(name, 0)
            assert code == expected, f"{name}: exit {code}, expected {expected}\n{out}"
            # each stage runs once: no check repeats, one normalization at most
            names = [c["name"] for c in json.loads(out)["checks"]]
            assert len(names) == len(set(names)) and len(calls) <= 1, name
            # determinism across runs
            _, out2 = self.run("report-all", "--fixture", name)
            assert out == out2, name

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out = self.run(
            "integrability", "--fixture", "example_r3", "--output", str(target)
        )
        assert code == 0
        assert json.loads(target.read_text())["summary"]["ok"] is True

    def test_unwritable_output_is_an_input_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.json"
        code, out = self.run("validate", "--fixture", "example_r3", "--output", str(target))
        assert (code, out) == (2, "")
        [line] = capsys.readouterr().err.splitlines()
        assert str(target) in line and "Traceback" not in line
        assert not target.parent.exists()

    def test_document_not_utf8_is_an_input_error(self, tmp_path):
        bad = tmp_path / "latin.bis"
        bad.write_bytes(b"\xff\xfe")
        code, out = self.run("validate", str(bad))
        assert code == 2
        [error] = json.loads(out)["errors"]
        assert str(bad) in error and "UTF-8" in error and "internal error" not in error

    def test_validate_hamiltonian_pairs(self):
        code, out = self.run("validate", "--fixture", "example_symplectic")
        assert code == 0
        payload = json.loads(out)
        ham = [c for c in payload["checks"] if c["name"].startswith("hamiltonian")]
        assert len(ham) == 3
        assert all(c["certificate"]["hamiltonian"] for c in ham)

    def test_grid_flag(self):
        code, _ = self.run("integrability", "--fixture", "example_r3", "--grid=-1..1:8")
        assert code == 0

    @pytest.mark.parametrize(
        "grid", ["abc", "3..1:24", "1..1:0", "-1..1:-4", "1..2..3", "-1..1:x", "..2", ""]
    )
    def test_grid_flag_input_errors(self, grid):
        code, out = self.run("integrability", "--fixture", "example_r3", f"--grid={grid}")
        assert code == 2
        payload = json.loads(out)
        assert payload["checks"] == []
        assert len(payload["errors"]) == 1 and payload["errors"][0].startswith("--grid")

    @pytest.mark.parametrize(
        "command, error",
        [
            ("canonical", "document has no adapted block"),
            ("reduce", "reduce needs submanifold and foliation blocks"),
        ],
    )
    def test_missing_block_is_an_input_error(self, command, error):
        code, out = self.run(command, "--fixture", "example_symplectic")
        assert code == 2
        payload = json.loads(out)
        assert payload["errors"] == [error]
        assert [c["name"] for c in payload["checks"]][0] == "structure invariants"

    def test_duplicate_chart_names_are_an_input_error(self, tmp_path):
        bad = tmp_path / "dup.bis"
        bad.write_text("chart x x\nE:\n  (1, 0 | 0, 0)\nE_prime:\n  (1, 0 | 0, 0)\n")
        code, out = self.run("validate", str(bad))
        assert code == 2
        payload = json.loads(out)
        assert payload["errors"] == ["line 1, column 1: coordinate names must be distinct"]

    @pytest.mark.parametrize(
        "equations, error",
        [
            ("x1*x4 = 0", "equation is not affine: x1*x4"),
            ("x4 = 0; x4 = 1", "equations are inconsistent"),
            ("x1 = 0; x2 = 0; x3 = 0; x4 = 0", "submanifold is a single point"),
        ],
    )
    @pytest.mark.parametrize("command", ["reduce", "report-all"])
    def test_bad_submanifold_is_an_input_error(self, tmp_path, command, equations, error):
        text = fixtures.fixture_text("example_reduction").replace("x4 = 0", equations)
        bad = tmp_path / "sub.bis"
        bad.write_text(text)
        code, out = self.run(command, str(bad))
        assert code == 2
        payload = json.loads(out)
        assert payload["errors"] == [f"submanifold equations: {error}"]

    @pytest.mark.parametrize("command", ["single", "report-all"])
    @pytest.mark.parametrize(
        "fixture, old, new, single, error",
        [
            ("example_r3", "adapted: x | y | z", "adapted: x | x | z", "canonical",
             "adapted block: leaf/middle/transverse must partition the chart"),
            ("example_reduction", "foliation: x3", "foliation: x3 x3", "reduce",
             "foliation: fibre indices must be distinct chart indices"),
        ],
    )
    def test_repeated_block_names_are_an_input_error(
        self, tmp_path, command, fixture, old, new, single, error
    ):
        text = fixtures.fixture_text(fixture)
        assert old in text
        bad = tmp_path / "repeat.bis"
        bad.write_text(text.replace(old, new))
        code, out = self.run(single if command == "single" else command, str(bad))
        assert code == 2
        assert json.loads(out)["errors"] == [error]

    @pytest.mark.parametrize(
        "fixture, repeat, command",
        [
            ("example_r5", "adapted: x1 x2 | y2 y1 | z", "canonical"),
            ("example_reduction", "foliation: x4", "reduce"),
            ("example_r3", "grid: -1..1 cap 5\ngrid: -2..2", "validate"),
        ],
        ids=["adapted", "foliation", "grid"],
    )
    def test_repeated_keyword_line_is_an_input_error(self, tmp_path, fixture, repeat, command):
        text = fixtures.fixture_text(fixture).rstrip("\n") + "\n" + repeat + "\n"
        bad = tmp_path / "repeat.bis"
        bad.write_text(text)
        code, out = self.run(command, str(bad))
        assert code == 2
        line = len(text.splitlines())
        keyword = repeat.split(":")[0]
        assert json.loads(out)["errors"] == [f"line {line}, column 1: duplicate {keyword} line"]

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("1..2:3", None),
            ("-1..1:5", "(0, 0): frame ranks 0/2, expected 1/3"),
            ("-2..-1:4", None),
        ],
    )
    def test_rank_drop_under_the_grid_flag(self, tmp_path, grid, message):
        doc = tmp_path / "drop.bis"
        doc.write_text(
            "chart x y\nE:\n  (x, 0 | 0, 0)\n"
            "E_prime:\n  (x, 0 | 0, 0)\n  (0, 1 | 0, 0)\n  (0, 0 | 0, 1)\n"
        )
        code, out = self.run("validate", str(doc), f"--grid={grid}")
        check = json.loads(out)["checks"][0]
        if message is None:
            assert code == 0 and check["verdict"] == "pass"
        else:
            assert code == 1 and check["verdict"] == "fail"
            failure = check["certificate"]["failures"][0]["message"]
            assert failure == "degenerate point " + message

    def test_grid_cap_past_sys_maxsize_means_every_point(self, tmp_path):
        huge = "99999999999999999999"
        every = self.run("report-all", "--fixture", "example_r3", "--grid=-1..1:27")
        assert every[0] == 0
        assert self.run("report-all", "--fixture", "example_r3", f"--grid=-1..1:{huge}") == every
        reports = []
        for cap in ("27", huge):
            doc = tmp_path / f"cap_{cap}.bigiso"
            doc.write_text(fixtures.fixture_text("example_r3") + f"grid: -1..1 cap {cap}\n")
            code, out = self.run("report-all", str(doc))
            assert code == 0
            reports.append(out.replace(str(doc), "DOC"))
        assert reports[0] == reports[1]

    def test_grid_flag_single_point(self):
        code, _ = self.run("integrability", "--fixture", "example_r3", "--grid=0..0:1")
        assert code == 0

    def test_grid_walks_only_the_values_its_cap_reaches(self, monkeypatch):
        # oracle: the walk of every value in the range; the CLI walks at most
        # the value of least magnitude and cap values each side of it
        import argparse
        from types import SimpleNamespace

        import bigiso.cli
        from bigiso.grid import default_grid

        walked = []

        def recording(m, cap, values):
            walked.append(len(values))
            return default_grid(m, cap=cap, values=values)

        monkeypatch.setattr(bigiso.cli, "default_grid", recording)
        rng = random.Random(43)
        for _ in range(200):
            lo = rng.randint(-40, 40)
            hi, cap, m = lo + rng.randint(0, 60), rng.randint(1, 30), rng.randint(0, 3)
            doc = SimpleNamespace(chart=Chart(tuple(f"x{i}" for i in range(m))), grid_range=None)
            got = bigiso.cli._grid_for(doc, argparse.Namespace(grid=f"{lo}..{hi}:{cap}"))
            values = tuple(Fraction(v) for v in range(lo, hi + 1))
            assert got == default_grid(m, cap=cap, values=values), (lo, hi, cap, m)
            assert walked[-1] <= min(hi - lo + 1, 2 * cap + 1), (lo, hi, cap, m)
        walked.clear()
        wide = self.run("validate", "--fixture", "example_r3", "--grid=-300000..300000:1")
        assert walked == [3]
        assert wide == self.run("validate", "--fixture", "example_r3", "--grid=-1..1:1")

    def test_leaf_pullback_error_is_a_failed_check(self, monkeypatch):
        import bigiso.cli
        from bigiso.canonical import NormalizationError

        def blow_up(cf):
            raise NormalizationError("canonical coefficients blow up on the leaf")

        monkeypatch.setattr(bigiso.cli, "leaf_pullback", blow_up)
        code, out = self.run("transversal", "--fixture", "example_r5")
        assert code == 1
        payload = json.loads(out)
        assert payload["errors"] == []
        leaf = [c for c in payload["checks"] if c["name"] == "leaf presymplectic form"]
        assert leaf[0]["verdict"] == "fail"
        assert "blow up" in leaf[0]["certificate"]["failures"][0]["message"]

    # E = span((1 - y) d_x + y d_y): on the slice {x = 0}, E meets the slice
    # tangents plus covectors only at y = 1, off the validity locus 1 - y != 0
    WINDOW_JUMP_DOC = (
        "chart x y\n"
        "E:\n  (1 - y, y | 0, 0)\n"
        "E_prime:\n  (1, 0 | 0, 0)\n  (0, 1 | 0, 0)\n  (0, 0 | y, y - 1)\n"
        "adapted: x | y |\n"
    )

    def test_slice_window_jump_is_a_failed_check(self, tmp_path):
        doc = tmp_path / "jump.bis"
        doc.write_text(self.WINDOW_JUMP_DOC)
        code, out = self.run("transversal", str(doc))
        assert code == 1
        payload = json.loads(out)
        assert payload["errors"] == []
        checks = {c["name"]: c for c in payload["checks"]}
        assert checks["canonical normalization"]["verdict"] == "pass"
        assert checks["transversal structure"]["verdict"] == "fail"
        message = checks["transversal structure"]["certificate"]["failures"][0]["message"]
        assert message.startswith("properness fails for E: window dimension 0 at")
        assert "transversal integrability" not in checks

    EMPTY_SAMPLE_DOC = (
        "chart x y z\n"
        "E:\n  (x, 1, 0 | 0, 0, 0)\n  (0, 0, 0 | 0, 0, 1)\n"
        "E_prime:\n  (1, 0, 0 | 0, 0, 0)\n  (0, 1, 0 | 0, 0, 0)\n"
        "  (0, 0, 0 | 0, 0, 1)\n  (0, 0, 0 | 1, -x, 0)\n"
        "adapted: x | y | z\n"
    )

    def test_empty_sample_fails_instead_of_passing(self, tmp_path):
        # the canonical frame divides by x, and every sampled point has x = 0
        doc = tmp_path / "empty.bis"
        doc.write_text(self.EMPTY_SAMPLE_DOC)
        code, out = self.run("report-all", str(doc), "--grid", "0..0:1")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        locus = "lies on the validity locus (x) * (x) != 0"
        for name, points in (("coupling equivalences", 1), ("transversal structure", 12)):
            assert checks[name]["verdict"] == "fail", name
            message = checks[name]["certificate"]["failures"][0]["message"]
            assert message == f"empty sample: no point of the {points}-point grid {locus}"
        assert "transversal integrability" not in checks
        # one point on the locus is a sample again
        _, out = self.run("decomposable", str(doc), "--grid", "1..1:1")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["coupling equivalences"]["verdict"] == "pass"

    def test_unexpected_exception_is_a_json_error_record(self, monkeypatch, capsys):
        import bigiso.cli

        def broken(structure):
            raise RuntimeError("stage fell over")

        monkeypatch.setattr(bigiso.cli, "check_integrability", broken)
        code = main(["integrability", "--fixture", "example_r3"])
        captured = capsys.readouterr()
        assert code == bigiso.cli.EXIT_INTERNAL_ERROR == 3
        assert captured.err == "" and "Traceback" not in captured.out
        payload = json.loads(captured.out)
        assert payload["errors"] == ["internal error: RuntimeError: stage fell over"]
        assert payload["checks"][-1] == {
            "name": "integrability",
            "verdict": "error",
            "certificate": {"error": "RuntimeError: stage fell over"},
            "timing_ms": None,
        }
        assert payload["summary"] == {"passed": 1, "failed": 1, "ok": False}

    def test_timer_records_an_error_only_when_the_body_raises_first(self):
        from bigiso.report import Report

        report = Report(command="validate", document="", seed=0)
        with pytest.raises(KeyError):
            with report.start("raises") as timer:
                raise KeyError("k")
        with pytest.raises(ValueError):
            with report.start("done first") as timer:
                timer.done(True)
                raise ValueError("after the verdict")
        with report.start("quiet") as timer:
            timer.done(False)
        assert [(c.name, c.verdict) for c in report.checks] == [
            ("raises", "error"), ("done first", "pass"), ("quiet", "fail")
        ]
        assert report.checks[0].certificate == {"error": "KeyError: 'k'"}
