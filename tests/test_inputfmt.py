import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2lab.catalog import catalog, catalog_names
from g2lab.exterior import KForm
from g2lab.inputfmt import (InputDocument, ParseError, format_document, format_form,
                            parse_document)


class TestParse:
    def test_n2_structure_equations(self):
        doc = parse_document("algebra { dim 7 d e5 = e12 d e6 = e13 }")
        assert doc.algebra.dim == 7
        assert doc.algebra.dual_differential[4] == KForm.basis(7, (1, 2))
        assert doc.algebra.dual_differential[5] == KForm.basis(7, (1, 3))
        assert doc.algebra.dual_differential[0].is_zero()

    def test_form_block(self):
        doc = parse_document(
            "algebra { dim 7 }\n"
            "form phi { e147 + e267 + e357 + e123 + e156 + e245 - e346 }")
        assert doc.forms["phi"].allclose(catalog("n2").forms["phi"], tol=0)

    def test_sqrt_coefficient(self):
        doc = parse_document("algebra { dim 7 d e4 = sqrt(3)/6 e12 }")
        got = doc.algebra.dual_differential[3].coefficient((1, 2))
        assert got == math.sqrt(3) / 6.0

    def test_coefficient_products(self):
        doc = parse_document("algebra { dim 7 } form f { 2 * sqrt(3) e12 - 1/2 * 3 e13 }")
        assert doc.forms["f"].coefficient((1, 2)) == 2.0 * math.sqrt(3)
        assert doc.forms["f"].coefficient((1, 3)) == -1.5

    def test_unsorted_monomial_sign(self):
        doc = parse_document("algebra { dim 7 } form f { e21 }")
        assert doc.forms["f"].coefficient((1, 2)) == -1.0

    def test_explicit_zero_differential(self):
        doc = parse_document("algebra { dim 7 d e5 = 0 }")
        assert doc.algebra.dual_differential[4].is_zero()

    def test_leading_sign(self):
        doc = parse_document("algebra { dim 7 } form f { - e12 + e13 }")
        assert doc.forms["f"].coefficient((1, 2)) == -1.0


class TestParseErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("algebra { dim 7 d e5 = e11 }", "repeated index"),
        ("algebra { dim 6 d e5 = e17 }", "out of range"),
        ("algebra { dim 7 d e5 = e12", "expected"),
        ("algebra { dim 0 }", "range"),
        ("algebra { dim 12 }", "range"),
        ("algebra { dim 7 } form f { e12 + e345 }", "mixed degrees"),
        ("algebra { dim 7 d e5 = e12 d e5 = e13 }", "duplicate"),
        ("algebra { dim 7 } form f { e12 } form f { e13 }", "duplicate"),
        ("algebra { dim 7 } form form { e12 }", "reserved"),
        ("algebra { dim 7 } garbage", "unexpected"),
        ("algebra { dim 7 d e5 = 1/0 e12 }", "division by zero"),
        ("algebra { dim 7 % }", "unexpected character"),
    ])
    def test_messages(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert fragment in str(err.value)

    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_document("algebra {\n  dim 7\n  d e5 = e11\n}")
        assert err.value.line == 3
        assert err.value.column == 10


# a decimal past the largest double, which float() reads as inf
HUGE = "1" + "0" * 400
# a decimal a little above half the largest double: two of them sum past it
HALF_MAX = "1" + "0" * 308


class TestNonFinite:
    @pytest.mark.parametrize("before,term", [
        ("", f"{HUGE} e123"),
        ("- ", f"{HUGE} e123"),
        ("e124 + ", f"{HUGE} e123 - {HUGE} e123"),
        ("", f"{HALF_MAX[:200]} * {HALF_MAX[:200]} e12"),
        ("", f"{HALF_MAX} / 0.001 e12"),
        ("", f"{HUGE} * 0 e12"),
        ("", f"sqrt({HUGE}) e12"),
        ("", f"sqrt(1{'0' * 5000}) e12"),
        (f"{HALF_MAX} e12 + ", f"{HALF_MAX} e12"),
    ], ids=["coefficient", "negated", "later_term", "product", "quotient", "times_zero",
            "sqrt", "sqrt_past_int_digit_limit", "running_sum"])
    def test_parse_error_at_the_term(self, before, term):
        with pytest.raises(ParseError) as err:
            parse_document(f"algebra {{ dim 7 }} form f {{ {before}{term} }}")
        monomial = term.split()[-1]
        assert str(err.value).endswith(f"coefficient of {monomial} is not a finite double")
        assert (err.value.line, err.value.column) == (1, 28 + len(before))

    def test_sum_of_one_monomial_in_two_index_orders(self):
        # finite per written monomial, infinite once e21 is sorted to -e12
        with pytest.raises(ParseError, match="not a finite double once monomials are sorted"):
            parse_document(f"algebra {{ dim 7 }} form f {{ {HALF_MAX} e12 - {HALF_MAX} e21 }}")

    def test_finite_extremes_parse(self):
        doc = parse_document(f"algebra {{ dim 7 }} form f {{ {HALF_MAX} e12 - {HALF_MAX} e12 }}")
        assert doc.forms["f"].is_zero()
        doc = parse_document(f"algebra {{ dim 7 }} form f {{ sqrt({HALF_MAX}) e12 }}")
        assert doc.forms["f"].coefficient((1, 2)) == math.sqrt(1e308)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_format_rejects_non_finite(self, value):
        form = KForm(7, 3, {(1, 2, 4): 1.0, (1, 2, 3): value})
        with pytest.raises(ValueError, match=f"e123 has the non-finite coefficient {value}"):
            format_form(form)
        with pytest.raises(ValueError, match="non-finite"):
            format_document(InputDocument(catalog("n2").algebra, {"f": form}))


class TestRoundTrip:
    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_round_trip_bit_identical(self, name):
        doc = catalog(name).document
        text = format_document(doc)
        reparsed = parse_document(text)
        assert format_document(reparsed) == text
        for fname, form in doc.forms.items():
            assert reparsed.forms[fname].allclose(form, tol=0)
        for got, want in zip(reparsed.algebra.dual_differential,
                             doc.algebra.dual_differential):
            assert got.allclose(want, tol=0)

    def test_format_form_zero(self):
        assert format_form(KForm.zero(7, 2)) == "0 e12"

    def test_zero_forms_round_trip(self):
        # the zero forms come back zero, and a 3e-17 coefficient as itself
        forms = {"z": KForm.zero(7, 2), "tiny": KForm(7, 2, {(1, 2): 3e-17}),
                 "z3": KForm.zero(7, 3)}
        text = format_document(InputDocument(catalog("n2").algebra, forms))
        reparsed = parse_document(text)
        assert format_document(reparsed) == text
        for name, form in forms.items():
            assert reparsed.forms[name].degree == form.degree
            assert reparsed.forms[name].to_vector().tobytes() == form.to_vector().tobytes()
        assert reparsed.forms["tiny"].coefficient((1, 2)) == 3e-17

    @pytest.mark.parametrize("value", [1.8895965452204654e-10, 7.000000000000001e-12,
                                       1.2345678901234567e22])
    def test_extreme_magnitudes_round_trip(self, value):
        form = KForm(7, 2, {(1, 2): value, (3, 4): -value})
        text = format_document(InputDocument(catalog("n2").algebra, {"f": form}))
        assert parse_document(text).forms["f"].allclose(form, tol=0)

    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda t: t[0] < t[1]),
        st.floats(min_value=-10, max_value=10, allow_nan=False,
                  allow_infinity=False).filter(lambda x: abs(x) > 1e-10),
        min_size=1, max_size=8))
    def test_random_forms_round_trip(self, coeffs):
        form = KForm(7, 2, coeffs)
        doc = InputDocument(catalog("n2").algebra, {"f": form})
        text = format_document(doc)
        reparsed = parse_document(text)
        assert reparsed.forms["f"].allclose(form, tol=0)
        assert format_document(reparsed) == text
