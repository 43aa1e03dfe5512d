"""W3C XPath 1.0 conformance corpus.

A curated table of (document, query, expected value) cases taken from
the recommendation's own examples and its trickier normative sentences.
Unlike the differential tests (which check that engines agree with each
other), these pin the *absolute* semantics.  Every case runs on the
algebraic engine and the naive interpreter.
"""

import math

import pytest

from repro import EvalOptions, evaluate, parse_document

PARA = parse_document(
    "<doc>"
    "<para type='warning'>w1</para>"
    "<para type='warning'>w2</para>"
    "<para type='warning'>w3</para>"
    "<para type='error'>e1</para>"
    "<chapter><title>Introduction</title></chapter>"
    "<chapter><title>Details</title><section><title>S1</title></section>"
    "</chapter>"
    "</doc>"
)

LANG = parse_document(
    '<doc xml:lang="en"><para>a</para>'
    '<div xml:lang="en-us"><para>b</para></div>'
    '<div xml:lang="de"><para>c</para></div></doc>'
)

NUMS = parse_document(
    "<doc><n>1</n><n>2</n><n>3</n><n>4</n><n>5</n></doc>"
)


def _strings(value):
    return sorted(n.string_value() for n in value)


def check(doc, query, expected, **kwargs):
    for engine in ("natix", "naive"):
        result = evaluate(query, doc, EvalOptions(engine=engine, **kwargs))
        if isinstance(expected, list):
            assert _strings(result) == sorted(expected), (engine, query)
        elif isinstance(expected, float) and math.isnan(expected):
            assert isinstance(result, float) and math.isnan(result), (
                engine, query,
            )
        else:
            assert result == expected, (engine, query)


class TestSpecSection2Examples:
    """Abbreviation examples from spec section 2.5."""

    def test_para_selects_child_elements(self):
        check(PARA, "count(/doc/para)", 4.0)

    def test_star_selects_all_element_children(self):
        check(PARA, "count(/doc/*)", 6.0)

    def test_text_selects_text_children(self):
        check(PARA, "string(/doc/para[1]/text())", "w1")

    def test_attribute_abbreviation(self):
        check(PARA, "count(/doc/para[@type])", 4.0)

    def test_para_one(self):
        check(PARA, "/doc/para[1]", ["w1"])

    def test_para_last(self):
        check(PARA, "/doc/para[last()]", ["e1"])

    def test_star_para(self):
        # */para: para grandchildren of the context node — none here.
        check(PARA, "count(/doc/*/para)", 0.0)

    def test_descendant_abbreviation(self):
        check(PARA, "count(//title)", 3.0)

    def test_dot_slash_slash(self):
        check(PARA, "count(/doc/chapter[2]//title)", 2.0)

    def test_dotdot(self):
        check(PARA, "name(/doc/para[1]/..)", "doc")

    def test_attribute_value_predicate(self):
        check(PARA, '/doc/para[@type="warning"]', ["w1", "w2", "w3"])

    def test_attribute_value_predicate_position(self):
        check(PARA, '/doc/para[@type="warning"][2]', ["w2"])

    def test_position_then_type(self):
        # [2][@type="warning"]: second para, if it is a warning.
        check(PARA, '/doc/para[2][@type="warning"]', ["w2"])
        check(PARA, '/doc/para[4][@type="warning"]', [])

    def test_chapter_with_title_text(self):
        check(PARA, "count(/doc/chapter[title='Introduction'])", 1.0)

    def test_chapter_with_title_at_all(self):
        check(PARA, "count(/doc/chapter[title])", 2.0)


class TestBooleanFunctionSemantics:
    def test_not_of_empty(self):
        check(PARA, "not(//nonexistent)", True)

    def test_or_across_types(self):
        check(PARA, "//para or 0", True)
        check(PARA, "0 or ''", False)

    def test_equality_existential_both_directions(self):
        check(NUMS, "//n = 3", True)
        check(NUMS, "3 = //n", True)
        check(NUMS, "//n = 9", False)

    def test_inequality_not_negation(self):
        # Both are true: some n equals 3 and some n differs from 3.
        check(NUMS, "//n = 3", True)
        check(NUMS, "//n != 3", True)

    def test_empty_nodeset_comparisons_all_false(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            check(NUMS, f"//zzz {op} 1", False)
            check(NUMS, f"//zzz {op} //n", False)

    def test_boolean_of_nan_is_false(self):
        check(NUMS, "boolean(number('abc'))", False)

    def test_lang_examples(self):
        # Spec: lang("en") is true for xml:lang="en" and xml:lang="en-us".
        check(LANG, "count(//para[lang('en')])", 2.0)
        check(LANG, "count(//para[lang('de')])", 1.0)
        check(LANG, "count(//div[lang('en-us')])", 1.0)
        check(LANG, "count(//para[lang('fr')])", 0.0)


class TestNumberSemantics:
    def test_div_and_mod_examples(self):
        # The spec's own mod examples.
        check(NUMS, "5 mod 2", 1.0)
        check(NUMS, "5 mod -2", 1.0)
        check(NUMS, "-5 mod 2", -1.0)
        check(NUMS, "-5 mod -2", -1.0)

    def test_infinity_arithmetic(self):
        check(NUMS, "1 div 0", float("inf"))
        check(NUMS, "-1 div 0", float("-inf"))
        check(NUMS, "0 div 0", float("nan"))

    def test_round_examples(self):
        check(NUMS, "round(1.5)", 2.0)
        check(NUMS, "round(-1.5)", -1.0)
        check(NUMS, "round(2.4)", 2.0)

    def test_number_of_whitespace_string(self):
        check(NUMS, "number(' 42 ')", 42.0)
        check(NUMS, "number('')", float("nan"))

    def test_sum_example(self):
        check(NUMS, "sum(//n)", 15.0)

    def test_nan_string_form(self):
        check(NUMS, "string(number('x'))", "NaN")
        check(NUMS, "string(1 div 0)", "Infinity")


class TestStringSemantics:
    def test_concat_and_contains(self):
        check(NUMS, "concat('foo', 'bar')", "foobar")
        check(NUMS, "contains('foobar', 'oba')", True)

    def test_starts_with_empty(self):
        check(NUMS, "starts-with('abc', '')", True)

    def test_substring_before_after_examples(self):
        check(NUMS, 'substring-before("1999/04/01","/")', "1999")
        check(NUMS, 'substring-after("1999/04/01","/")', "04/01")
        check(NUMS, 'substring-after("1999/04/01","19")', "99/04/01")

    def test_substring_examples(self):
        check(NUMS, 'substring("12345", 2, 3)', "234")
        check(NUMS, 'substring("12345", 2)', "2345")

    def test_normalize_space_strips_and_collapses(self):
        check(NUMS, "normalize-space('\t a  \n b ')", "a b")

    def test_translate_examples(self):
        check(NUMS, 'translate("bar","abc","ABC")', "BAr")
        check(NUMS, 'translate("--aaa--","abc-","ABC")', "AAA")

    def test_string_length_of_context(self):
        check(NUMS, "string-length(string(//n[1]))", 1.0)

    def test_string_of_nodeset_is_first_node(self):
        check(NUMS, "string(//n)", "1")


class TestPositionSemantics:
    def test_reverse_axis_proximity_position(self):
        # preceding-sibling::n[1] is the *nearest* preceding sibling.
        check(NUMS, "string(//n[3]/preceding-sibling::n[1])", "2")
        check(NUMS, "string(//n[3]/following-sibling::n[1])", "4")

    def test_ancestor_proximity(self):
        doc = parse_document("<a><b><c><d/></c></b></a>")
        check(doc, "name(//d/ancestor::*[1])", "c")
        check(doc, "name(//d/ancestor::*[last()])", "a")

    def test_position_in_filter_counts_document_order(self):
        # The union is unordered; the filter counts in document order.
        check(NUMS, "string((//n[4] | //n[2])[1])", "2")

    def test_numeric_predicate_equivalent_to_position_test(self):
        check(NUMS, "count(//n[3]) = count(//n[position() = 3])", True)

    def test_float_position_never_matches(self):
        check(NUMS, "count(//n[1.5])", 0.0)

    def test_last_minus(self):
        check(NUMS, "string(//n[last() - 1])", "4")


class TestNodeKindsAndUnions:
    DOC = parse_document(
        "<a>t1<!--c1--><?p1 d?><b/>t2<!--c2--></a>"
    )

    def test_node_test_counts(self):
        check(self.DOC, "count(/a/node())", 6.0)
        check(self.DOC, "count(/a/text())", 2.0)
        check(self.DOC, "count(/a/comment())", 2.0)
        check(self.DOC, "count(/a/processing-instruction())", 1.0)
        check(self.DOC, "count(/a/processing-instruction('p1'))", 1.0)
        check(self.DOC, "count(/a/processing-instruction('zz'))", 0.0)

    def test_union_is_set_union(self):
        check(self.DOC, "count(/a/node() | /a/text())", 6.0)

    def test_comment_string_value(self):
        check(self.DOC, "string(/a/comment()[2])", "c2")

    def test_pi_name(self):
        check(self.DOC, "name(/a/processing-instruction())", "p1")

    def test_root_of_everything(self):
        check(self.DOC, "count(//b/ancestor-or-self::node())", 3.0)
