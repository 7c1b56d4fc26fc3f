"""Unit tests for the vectorized columnar kernels."""

from repro.data import Schema, Table
from repro.data.expressions import compile_expression
from repro.data.kernels import (
    AndPredicate,
    ComparePredicate,
    ContainsPredicate,
    MembershipPredicate,
    RangePredicate,
    argsort,
    compile_expression_predicate,
    group_indices,
    top_n_indices,
)


def make(**columns):
    names = list(columns)
    return Table(Schema.of(*names), columns)


class TestComparePredicate:
    def test_ordering(self):
        table = make(v=[5, 1, 3, None, 2])
        assert ComparePredicate("v", ">=", 2).indices(table) == [0, 2, 4]

    def test_equality_is_plain_equality(self):
        table = make(v=["2", 2, 2.0, None])
        assert ComparePredicate("v", "==", 2).indices(table) == [1, 2]
        assert ComparePredicate("v", "!=", 2).indices(table) == [0, 3]

    def test_mixed_types_fall_back_to_compare_semantics(self):
        # "5" < 3 is a TypeError for the fast loop; _compare retries
        # numerically, so the string "1" still orders below 3.
        table = make(v=[5, "1", 2, "x"])
        assert ComparePredicate("v", "<", 3).indices(table) == [1, 2]

    def test_none_operand_matches_nothing(self):
        table = make(v=[1, None, 2])
        assert ComparePredicate("v", ">", None).indices(table) == []

    def test_row_callable_agrees(self):
        table = make(v=[5, 1, 3, None, 2])
        predicate = ComparePredicate("v", ">=", 2)
        slow = [i for i, row in enumerate(table.rows()) if predicate(row)]
        assert predicate.indices(table) == slow


class TestOtherPredicates:
    def test_membership(self):
        table = make(k=["a", "b", None, "a"])
        assert MembershipPredicate("k", ["a"]).indices(table) == [0, 3]

    def test_membership_unhashable_values(self):
        table = make(k=[["x"], "x", ["y"]])
        predicate = MembershipPredicate("k", [["x"]])
        assert predicate.indices(table) == [0]

    def test_range_none_never_matches(self):
        table = make(v=[1, None, 5, 10])
        assert RangePredicate("v", 2, 9).indices(table) == [2]

    def test_range_string_fallback(self):
        table = make(v=["b", 1, "d"])
        assert RangePredicate("v", "a", "c").indices(table) == [0]

    def test_contains_skips_non_strings(self):
        table = make(s=["spark", 7, "pig", None, "parquet"])
        assert ContainsPredicate("s", "pa").indices(table) == [0, 4]

    def test_and_short_circuits_on_survivors(self):
        table = make(a=[1, 2, 3, 4], b=["x", "y", "x", "y"])
        predicate = AndPredicate(
            [ComparePredicate("a", ">", 1), MembershipPredicate("b", ["x"])]
        )
        assert predicate.indices(table) == [2]

    def test_table_filter_rows_takes_fast_path(self):
        table = make(v=[3, 1, 2])
        out = table.filter_rows(ComparePredicate("v", ">", 1))
        assert out.column("v") == [3, 2]


class TestCompileExpressionPredicate:
    def run(self, text, table):
        expression = compile_expression(text)
        predicate = compile_expression_predicate(expression)
        assert predicate is not None
        fast = table.filter_rows(predicate)
        slow = table.filter_rows(lambda row: bool(expression(row)))
        assert fast == slow
        return predicate

    def test_simple_comparison(self):
        self.run("v > 2", make(v=[1, 2, 3, 4]))

    def test_flipped_literal_first(self):
        predicate = self.run("3 >= v", make(v=[1, 2, 3, 4]))
        assert isinstance(predicate, ComparePredicate)
        assert predicate.op == "<="

    def test_membership_list(self):
        self.run("k in ['a', 'b']", make(k=["a", "c", "b"]))

    def test_conjunction(self):
        self.run(
            "v > 1 and k == 'a'",
            make(v=[1, 2, 3], k=["a", "a", "b"]),
        )

    def test_rich_expression_not_compiled(self):
        expression = compile_expression("v * 2 > 4")
        assert compile_expression_predicate(expression) is None

    def test_disjunction_not_compiled(self):
        expression = compile_expression("v > 4 or v < 1")
        assert compile_expression_predicate(expression) is None


class TestArgsort:
    def test_stable_multi_key(self):
        a = [2, 1, 2, 1]
        b = ["x", "y", "w", "z"]
        order = argsort(4, [a, b], [False, False])
        assert order == [1, 3, 2, 0]

    def test_none_first_ascending_last_descending(self):
        values = [3, None, 1]
        assert argsort(3, [values], [False]) == [1, 2, 0]
        assert argsort(3, [values], [True]) == [0, 2, 1]

    def test_bool_sorts_with_ints(self):
        # False keys equal to 0 and True equal to 1; ties keep row order.
        values = [2, True, 0, False]
        order = argsort(4, [values], [False])
        assert [values[i] for i in order] == [0, False, True, 2]

    def test_mixed_types_follow_the_order_table(self):
        # Numbers before strings, each in its own order: a string in
        # the column no longer turns 10 vs 2 into "10" vs "2".
        values = [10, "b", 2]
        order = argsort(3, [values], [False])
        assert [values[i] for i in order] == [2, 10, "b"]
        values = [9, 10, 8, "1"]
        order = argsort(4, [values], [True])
        assert [values[i] for i in order] == ["1", 10, 9, 8]


class TestTopN:
    def test_matches_full_sort_prefix(self):
        values = [5, 1, 3, 1, 2]
        for descending in (False, True):
            for n in range(7):
                assert top_n_indices(values, descending, n) == argsort(
                    5, [values], [descending]
                )[:n]

    def test_ties_keep_row_order(self):
        assert top_n_indices([1, 1, 1], False, 2) == [0, 1]

    def test_mixed_types_fall_back(self):
        values = [3, "a", 1]
        assert top_n_indices(values, False, 2) == argsort(
            3, [values], [False]
        )[:2]


class TestGroupIndices:
    def test_single_column_bare_keys(self):
        keys, buckets = group_indices([["x", "y", "x"]])
        assert keys == ["x", "y"]
        assert buckets == [[0, 2], [1]]

    def test_multi_column_tuple_keys(self):
        keys, buckets = group_indices(
            [["x", "x", "y"], [1, 2, 1]]
        )
        assert keys == [("x", 1), ("x", 2), ("y", 1)]
        assert buckets == [[0], [1], [2]]

    def test_none_is_a_key(self):
        keys, buckets = group_indices([[None, "a", None]])
        assert keys == [None, "a"]
        assert buckets == [[0, 2], [1]]
