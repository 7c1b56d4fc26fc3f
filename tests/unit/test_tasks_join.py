"""Unit tests for join tasks."""

import pytest

from repro.data import Schema, Table
from repro.data.encodings import DictColumn
from repro.errors import TaskConfigError, TaskExecutionError
from repro.tasks.base import TaskContext
from repro.tasks.join import JoinTask


@pytest.fixture
def players():
    return Table.from_rows(
        Schema.of("date", "player", "count"),
        [
            ("d1", "Dhoni", 10),
            ("d1", "Kohli", 7),
            ("d2", "Unknown", 3),
        ],
    )


@pytest.fixture
def team_players():
    return Table.from_rows(
        Schema.of("player", "team", "player_id"),
        [("Dhoni", "CSK", 1), ("Kohli", "RCB", 2), ("Raina", "CSK", 3)],
    )


def make(condition="inner", project=None):
    config = {
        "left": "players_tweets by player",
        "right": "team_players by player",
        "join_condition": condition,
    }
    if project is not None:
        config["project"] = project
    return JoinTask("join_player_team", config)


def ctx(names=("players_tweets", "team_players")):
    context = TaskContext()
    context.input_names = list(names)
    return context


class TestJoinSemantics:
    def test_inner_join_drops_unmatched(self, players, team_players):
        out = make("inner").apply([players, team_players], ctx())
        assert out.num_rows == 2

    def test_left_outer_keeps_left_nulls_right(self, players, team_players):
        out = make("left outer").apply([players, team_players], ctx())
        rows = {r["player"]: r for r in out.rows()}
        assert rows["Unknown"]["team"] is None
        assert rows["Dhoni"]["team"] == "CSK"

    def test_right_outer(self, players, team_players):
        out = make("right outer").apply([players, team_players], ctx())
        # Raina has no tweets: appears last, under her own key, with
        # None in the other left columns.
        assert out.column("player") == ["Dhoni", "Kohli", "Raina"]
        assert out.column("date") == ["d1", "d1", None]

    def test_full_outer(self, players, team_players):
        out = make("full outer").apply([players, team_players], ctx())
        assert out.num_rows == 4  # 2 matches + Unknown + Raina

    def test_case_insensitive_condition(self, players, team_players):
        """Appendix A.1 uses 'LEFT OUTER' uppercase."""
        out = make("LEFT OUTER").apply([players, team_players], ctx())
        assert out.num_rows == 3

    def test_duplicate_right_keys_multiply(self, players):
        right = Table.from_rows(
            Schema.of("player", "team"),
            [("Dhoni", "CSK"), ("Dhoni", "India")],
        )
        out = make("inner").apply([players, right], ctx())
        assert out.num_rows == 2

    def test_none_keys_never_match(self):
        left = Table.from_rows(
            Schema.of("player", "v"), [(None, 1), ("a", 2)]
        )
        right = Table.from_rows(
            Schema.of("player", "w"), [(None, 9), ("a", 8)]
        )
        out = make("left outer").apply([left, right], ctx())
        rows = {r["v"]: r for r in out.rows()}
        assert rows[1]["w"] is None  # None key unmatched
        assert rows[2]["w"] == 8

    def test_composite_keys(self):
        task = JoinTask(
            "j",
            {
                "left": "a by k1, k2",
                "right": "b by k1, k2",
                "join_condition": "inner",
            },
        )
        left = Table.from_rows(
            Schema.of("k1", "k2", "v"), [(1, 1, "x"), (1, 2, "y")]
        )
        right = Table.from_rows(
            Schema.of("k1", "k2", "w"), [(1, 2, "z")]
        )
        context = TaskContext()
        context.input_names = ["a", "b"]
        out = task.apply([left, right], context)
        assert out.to_records() == [{"k1": 1, "k2": 2, "v": "y", "w": "z"}]

    def test_mismatched_key_names(self):
        """join_dim_teams joins team against team_fullName (App. A.1)."""
        task = JoinTask(
            "j",
            {
                "left": "tweets by team",
                "right": "dims by team_fullName",
                "join_condition": "inner",
            },
        )
        left = Table.from_rows(
            Schema.of("team", "n"), [("Chennai Super Kings", 5)]
        )
        right = Table.from_rows(
            Schema.of("team_fullName", "color"),
            [("Chennai Super Kings", "#fc0")],
        )
        context = TaskContext()
        context.input_names = ["tweets", "dims"]
        out = task.apply([left, right], context)
        assert out.row(0)["color"] == "#fc0"

    def test_inputs_reordered_by_name(self, players, team_players):
        """Inputs arriving (right, left) are swapped via input names."""
        out = make("inner").apply(
            [team_players, players],
            ctx(names=("team_players", "players_tweets")),
        )
        assert "date" in out.schema  # left columns present
        assert out.num_rows == 2


class TestOuterJoinKeepsRightKeys:
    """An unmatched right row must not lose its join key: the default
    projection drops the right key columns, so the key travels in the
    left ones."""

    @pytest.mark.parametrize("condition", ["right outer", "full outer"])
    def test_unmatched_right_row_carries_its_key(self, condition):
        task = JoinTask(
            "j",
            {"left": "l by k", "right": "r by k", "join_condition": condition},
        )
        left = Table.from_rows(Schema.of("k", "v"), [(1, "a"), (2, "b")])
        right = Table.from_rows(Schema.of("k", "w"), [(1, "p"), (3, "q")])
        out = task.apply([left, right], ctx(("l", "r")))
        assert list(out.row_tuples())[-1] == (3, None, "q")

    def test_composite_and_renamed_keys_coalesce(self, team_players):
        task = JoinTask(
            "j",
            {
                "left": "l by name, club",
                "right": "team_players by player, team",
                "join_condition": "right outer",
            },
        )
        left = Table.from_rows(
            Schema.of("name", "club", "n"), [("Dhoni", "CSK", 5)]
        )
        out = task.apply([left, team_players], ctx(("l", "team_players")))
        assert out.schema.names == ["name", "club", "n", "player_id"]
        assert list(out.row_tuples()) == [
            ("Dhoni", "CSK", 5, 1),
            ("Kohli", "RCB", None, 2),
            ("Raina", "CSK", None, 3),
        ]

    def test_project_does_not_coalesce(self, players, team_players):
        project = {"players_tweets_player": "p", "team_players_player": "q"}
        out = make("right outer", project).apply(
            [players, team_players], ctx()
        )
        assert list(out.row_tuples())[-1] == (None, "Raina")


class TestTypedColumnsSurvive:
    def test_join_output_keeps_encodings_and_order(self):
        left = Table.from_columns(
            Schema.of("k", "city", "n"),
            {"k": [2, 1, 2, 9], "city": ["x", "y", "x", None],
             "n": [1.5, None, 2.5, 3.5]},
        )
        right = Table.from_columns(
            Schema.of("k", "team"), {"k": [1, 2, 2], "team": ["a", "b", "c"]}
        )
        task = JoinTask("j", {"left": "l by k", "right": "r by k"})
        context = ctx(("l", "r"))
        out = task.apply([left, right], context)
        assert list(out.row_tuples()) == [
            (2, "x", 1.5, "b"), (2, "x", 1.5, "c"), (1, "y", None, "a"),
            (2, "x", 2.5, "b"), (2, "x", 2.5, "c"),
        ]
        assert context.counters["task.j.pairs"] == 5
        for name in out.schema.names:
            encoded = out.encoded_column(name)
            assert encoded is not None, name
            assert encoded.tolist() == out.column(name)
        assert isinstance(out.encoded_column("team"), DictColumn)
        # downstream kernels may now run on codes: same rows either way
        boxed = Table(out.schema, {n: out.column(n) for n in out.schema.names})
        assert out.sorted_by(["team", "n"]) == boxed.sorted_by(["team", "n"])


class TestStructuredErrors:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_unhashable_key_names_task_side_and_column(self, side):
        good = Table.from_rows(Schema.of("k", "v"), [(1, "a")])
        bad = Table.from_rows(Schema.of("k", "v"), [(1, "a"), ([1], "b")])
        inputs = [bad, good] if side == "left" else [good, bad]
        task = JoinTask("j", {"left": "l by k", "right": "r by k"})
        with pytest.raises(TaskExecutionError) as raised:
            task.apply(inputs, ctx(("l", "r")))
        message = str(raised.value)
        assert "'j'" in message and f"{side} column 'k'" in message
        assert "[1]" in message and "unhashable" in message

    def test_duplicate_project_output_fails_validation(self):
        with pytest.raises(TaskConfigError, match="twice"):
            make("inner", {
                "players_tweets_player": "name",
                "team_players_team": "name",
            })


class TestInputNames:
    def test_declared_empty_and_pickled_with_the_context(self):
        import pickle

        assert TaskContext().input_names == []
        shipped = pickle.loads(pickle.dumps(ctx(("b", "a"))))
        assert shipped.input_names == ["b", "a"]


class TestProjection:
    def test_explicit_project_renames(self, players, team_players):
        """Appendix A.1's project maps prefixed columns to outputs."""
        project = {
            "players_tweets_date": "date",
            "players_tweets_player": "player",
            "players_tweets_count": "noOfTweets",
            "team_players_team": "team",
        }
        out = make("left outer", project).apply(
            [players, team_players], ctx()
        )
        assert out.schema.names == ["date", "player", "noOfTweets", "team"]
        assert out.row(0) == {
            "date": "d1", "player": "Dhoni", "noOfTweets": 10,
            "team": "CSK",
        }

    def test_project_prefix_match_case_insensitive(self, players, team_players):
        """The paper mixes `dim_teams_Team` capitalizations."""
        project = {"Players_Tweets_player": "p"}
        out = make("inner", project).apply([players, team_players], ctx())
        assert out.schema.names == ["p"]

    def test_project_unknown_prefix_raises(self):
        with pytest.raises(TaskConfigError, match="does not start with"):
            make("inner", {"mystery_col": "x"})._projection()

    def test_default_projection_suffixes_collisions(self):
        task = JoinTask(
            "j", {"left": "a by k", "right": "b by k"},
        )
        left = Table.from_rows(Schema.of("k", "v"), [(1, "L")])
        right = Table.from_rows(Schema.of("k", "v"), [(1, "R")])
        context = TaskContext()
        context.input_names = ["a", "b"]
        out = task.apply([left, right], context)
        assert out.schema.names == ["k", "v", "v_right"]
        assert out.row(0) == {"k": 1, "v": "L", "v_right": "R"}


class TestConfigValidation:
    def test_missing_sides_raise(self):
        with pytest.raises(TaskConfigError):
            JoinTask("j", {"left": "a by k"})

    def test_bad_side_syntax(self):
        with pytest.raises(TaskConfigError, match="by"):
            JoinTask("j", {"left": "a", "right": "b by k"})

    def test_key_arity_mismatch(self):
        with pytest.raises(TaskConfigError, match="arity"):
            JoinTask("j", {"left": "a by k1, k2", "right": "b by k"})

    def test_unknown_condition(self):
        with pytest.raises(TaskConfigError, match="join_condition"):
            JoinTask(
                "j",
                {"left": "a by k", "right": "b by k",
                 "join_condition": "sideways"},
            )

    def test_output_schema_with_project(self):
        task = make("inner", {"players_tweets_date": "d"})
        schema = task.output_schema(
            [Schema.of("date", "player", "count"),
             Schema.of("player", "team")]
        )
        assert schema.names == ["d"]

    def test_output_schema_requires_keys(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            make().output_schema(
                [Schema.of("nope"), Schema.of("player")]
            )

    def test_d_prefix_stripped_in_side_names(self):
        task = JoinTask(
            "j", {"left": "D.a by k", "right": "D.b by k"}
        )
        assert task.left_name == "a"
        assert task.right_name == "b"
