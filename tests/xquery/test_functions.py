"""Built-in function library tests, organised by Problem 5 class
where relevant."""

import math

import pytest

from repro.errors import XQueryDynamicError
from repro.xquery.xdm import UntypedAtomic

from tests.xquery.helpers import run, run1

DOC = '<r><a id="a1">x</a><b idref="a1">y</b><c>z</c></r>'


class TestSequences:
    def test_count_empty_exists(self):
        assert run1("count((1, 2, 3))") == 3
        assert run1("empty(())") is True
        assert run1("exists((1))") is True

    def test_distinct_values(self):
        assert run('distinct-values((1, 2, 1, "x", "x"))') == [1, 2, "x"]

    def test_reverse(self):
        assert run("reverse((1, 2, 3))") == [3, 2, 1]

    def test_subsequence(self):
        assert run("subsequence((1, 2, 3, 4), 2)") == [2, 3, 4]
        assert run("subsequence((1, 2, 3, 4), 2, 2)") == [2, 3]

    @pytest.mark.parametrize("call, positions", [
        ("subsequence($s, 2.5)", [3, 4, 5]),        # round half up
        ("subsequence($s, 1.5, 2.5)", [2, 3, 4]),
        ("subsequence($s, 0)", [1, 2, 3, 4, 5]),
        ("subsequence($s, -1, 3)", [1]),
        ('subsequence($s, number("x"))', []),       # NaN selects nothing
        ('subsequence($s, 1, number("x"))', []),
    ])
    def test_subsequence_positions_follow_the_spec(self, call, positions):
        """F&O 15.1.10: positions p with round(start) <= p < round(start)
        + round(length), where Python's ``round`` rounded half to even
        and raised on NaN."""
        assert run(f"let $s := (1, 2, 3, 4, 5) return {call}") == positions

    def test_index_of(self):
        assert run("index-of((10, 20, 10), 10)") == [1, 3]

    def test_insert_before_remove(self):
        assert run("insert-before((1, 3), 2, 2)") == [1, 2, 3]
        assert run("remove((1, 2, 3), 2)") == [1, 3]

    def test_cardinality_checks(self):
        assert run1("exactly-one((5))") == 5
        with pytest.raises(XQueryDynamicError):
            run("exactly-one((1, 2))")
        with pytest.raises(XQueryDynamicError):
            run("zero-or-one((1, 2))")
        with pytest.raises(XQueryDynamicError):
            run("one-or-more(())")


class TestStrings:
    def test_concat_and_join(self):
        assert run1('concat("a", "b", "c")') == "abc"
        assert run1('string-join(("a", "b"), "-")') == "a-b"

    def test_contains_family(self):
        assert run1('contains("hello", "ell")') is True
        assert run1('starts-with("hello", "he")') is True
        assert run1('ends-with("hello", "lo")') is True

    def test_substring(self):
        assert run1('substring("hello", 2, 3)') == "ell"
        assert run1('substring-before("a=b", "=")') == "a"
        assert run1('substring-after("a=b", "=")') == "b"

    @pytest.mark.parametrize("call, answer", [
        ('substring("12345", 1.5, 2.6)', "234"),     # F&O 7.4.3's examples
        ('substring("12345", 0, 3)', "12"),
        ('substring("12345", 5, -3)', ""),
        ('substring("12345", -3, 5)', "1"),
        ('substring("12345", number("x"), 3)', ""),
        ('substring-after("abc", "")', "abc"),       # "" is found at 0
        ('substring-before("abc", "")', ""),
        ('translate("abc", "aa", "xy")', "xbc"),     # the first mapping wins
    ])
    def test_string_functions_follow_the_spec(self, call, answer):
        assert run1(call) == answer

    def test_normalize_case(self):
        assert run1('normalize-space("  a   b ")') == "a b"
        assert run1('upper-case("ab")') == "AB"
        assert run1('lower-case("AB")') == "ab"

    def test_string_of_node(self):
        assert run1('string(doc("d")/r/a)', {"d": DOC}) == "x"

    def test_string_length_translate(self):
        assert run1('string-length("abc")') == 3
        assert run1('translate("abc", "ab", "BA")') == "BAc"

    def test_data_atomizes(self):
        result = run('data(doc("d")/r/a)', {"d": DOC})
        assert result == [UntypedAtomic("x")]


class TestNumbers:
    def test_aggregates(self):
        assert run1("sum((1, 2, 3))") == 6
        assert run1("avg((2, 4))") == 3
        assert run1("max((1, 5, 3))") == 5
        assert run1("min((4, 2))") == 2
        assert run1("sum(())") == 0
        assert run("avg(())") == []

    def test_rounding(self):
        assert run1("floor(2.7)") == 2
        assert run1("ceiling(2.1)") == 3
        assert run1("round(2.5)") == 3
        assert run1("abs(-4)") == 4

    def test_number_of_garbage_is_nan(self):
        assert math.isnan(run1('number("zz")'))

    @pytest.mark.parametrize("name", ["floor", "ceiling", "round"])
    def test_rounding_keeps_nan_and_infinity(self, name):
        """F&O 6.4.3-6.4.5: NaN and the infinities come back unchanged
        (``math.floor`` raised a bare ValueError on NaN)."""
        assert math.isnan(run1(f'{name}(number("zz"))'))
        assert run1(f'{name}(-number("INF"))') == -math.inf


class TestBooleans:
    def test_not_boolean(self):
        assert run1("not(())") is True
        assert run1("boolean((0))") is False
        assert run1("fn:true()") is True

    def test_deep_equal(self):
        assert run1("deep-equal(<a><b/></a>, <a><b/></a>)") is True
        assert run1("deep-equal(<a/>, <b/>)") is False
        assert run1("deep-equal((1, 2), (1, 2))") is True


class TestNames:
    def test_name_functions(self):
        assert run1('name(doc("d")/r/a)', {"d": DOC}) == "a"
        assert run1('local-name(doc("d")/r/a)', {"d": DOC}) == "a"


class TestProblem5Class1:
    """Static-context functions (shipped in the message envelope)."""

    def test_static_base_uri(self):
        assert run1("static-base-uri()") == "http://localhost/"

    def test_default_collation(self):
        assert "collation" in run1("default-collation()")

    def test_current_datetime_fixed(self):
        assert run1("current-dateTime()") == "2009-03-29T12:00:00Z"


class TestProblem5Class2:
    """Dynamic node-context functions."""

    def test_base_uri(self):
        assert run1('base-uri(doc("d")/r)', {"d": DOC}) == "d"

    def test_document_uri_on_document_node(self):
        assert run1('document-uri(doc("d"))', {"d": DOC}) == "d"

    def test_document_uri_on_element_empty(self):
        assert run('document-uri(doc("d")/r)', {"d": DOC}) == []

    def test_xrpc_wrappers_alias(self):
        assert run1('xrpc:base-uri(doc("d")/r)', {"d": DOC}) == "d"


class TestProblem5Classes34:
    """Non-descendant functions: root / id / idref (condition iv)."""

    def test_root(self):
        assert run1('root(doc("d")/r/a) is doc("d")', {"d": DOC}) is True

    def test_root_of_constructed(self):
        assert run1("let $a := <a><b/></a> return root($a/b) is $a") is True

    def test_id(self):
        result = run1('id("a1", doc("d"))', {"d": DOC})
        assert result.name == "a"

    def test_idref(self):
        result = run('idref("a1", doc("d"))', {"d": DOC})
        assert [n.name for n in result] == ["b"]
