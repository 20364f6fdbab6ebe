"""Driver, scripting, truncation, and run_case loop tests."""

import json
import random

import pytest

from conftest import make_case, make_param, make_query, make_tool, random_tool, scripted_return
from paramfuzz.classify import ObservedInvocation
from paramfuzz.corpus import tool_to_json
from paramfuzz.driver import (
    AgentContext,
    AgentStep,
    ReplayDriver,
    ScriptedBehavior,
    Trajectory,
    TruncationEvent,
    render_function_declarations,
    run_case,
    truncate_observation,
)
from paramfuzz.errors import SchemaViolation


def invocation_step(tool_name, arguments, thought="step"):
    return AgentStep(thought=thought, invocation=ObservedInvocation.of(tool_name, arguments))


class TestTruncateObservation:
    def test_within_budget_untouched(self):
        assert truncate_observation("short", 1024) == ("short", None)

    def test_exact_budget_untouched(self):
        text = "x" * 1024
        assert truncate_observation(text, 1024) == (text, None)

    def test_long_text_cut_to_budget(self):
        text = "y" * 5000
        cut_text, cut = truncate_observation(text, 1024)
        assert cut == 1024
        assert cut_text == "y" * 1024

    def test_never_splits_combining_marks(self):
        # Position 4 holds a combining acute accent; the cut backs off past
        # its base character instead of orphaning the mark.
        text = "abcéxyz"
        cut_text, cut = truncate_observation(text, 4)
        assert cut == 3
        assert cut_text == "abc"

    def test_backs_off_through_stacked_marks(self):
        text = "ab" + "e" + "́̈" + "tail"
        cut_text, cut = truncate_observation(text, 4)
        assert (cut_text, cut) == ("ab", 2)


class TestAgentStep:
    def test_exactly_one_of_invocation_or_answer(self):
        with pytest.raises(SchemaViolation):
            AgentStep(thought="t")
        with pytest.raises(SchemaViolation):
            AgentStep(
                invocation=ObservedInvocation.of("t", {}),
                final_answer="done",
            )

    def test_is_final(self):
        assert AgentStep(final_answer="ok").is_final
        assert not invocation_step("t", {}).is_final


class TestScriptedBehavior:
    def test_last_step_must_be_final(self):
        with pytest.raises(SchemaViolation):
            ScriptedBehavior(steps=(invocation_step("t", {}),))

    def test_final_only_at_the_end(self):
        with pytest.raises(SchemaViolation):
            ScriptedBehavior(
                steps=(
                    AgentStep(final_answer="early"),
                    AgentStep(final_answer="late"),
                )
            )

    def test_needs_at_least_one_step(self):
        with pytest.raises(SchemaViolation):
            ScriptedBehavior(steps=())

    def test_from_json(self):
        behavior = ScriptedBehavior.from_json(
            [
                {"thought": "look", "action": {"tool_name": "searcher", "arguments": {"query": "x"}}},
                {"thought": "done", "final_answer": "Found it."},
            ]
        )
        assert len(behavior.steps) == 2
        first = behavior.steps[0]
        assert first.invocation.tool_name == "searcher"
        assert first.invocation.arguments == {"query": "x"}
        assert behavior.steps[1].final_answer == "Found it."

    def test_from_json_rejects_non_object_action(self):
        with pytest.raises(SchemaViolation):
            ScriptedBehavior.from_json([{"action": "searcher"}])

    def test_from_json_rejects_action_and_answer_in_one_step(self):
        action = {"tool_name": "searcher", "arguments": {"query": "x"}}
        with pytest.raises(SchemaViolation) as err:
            ScriptedBehavior.from_json([{"action": action, "final_answer": "Found it."}])
        assert err.value.field == "script[0]"

    def test_replaying_mirrors_the_oracle(self):
        case = make_case()
        behavior = ScriptedBehavior.replaying(case)
        assert len(behavior.steps) == len(case.oracle) + 1
        assert behavior.steps[0].invocation.arguments == dict(case.oracle[0].arguments)
        assert behavior.steps[-1].is_final


class TestReplayDriver:
    def test_statelessly_indexed_by_history_length(self):
        behavior = ScriptedBehavior(
            steps=(
                invocation_step("a", {"n": 1}),
                invocation_step("a", {"n": 2}),
                AgentStep(final_answer="done"),
            )
        )
        driver = ReplayDriver(behavior)
        tools = (make_tool("a", parameters=()),)
        empty = AgentContext(query="q", tools=tools)
        assert driver.next_step(empty).invocation.arguments == {"n": 1}
        one = AgentContext(
            query="q",
            tools=tools,
            history=((("t"), ObservedInvocation.of("a", {"n": 1}), "obs"),),
        )
        assert driver.next_step(one).invocation.arguments == {"n": 2}

    def test_history_overflow_clamps_to_last_step(self):
        behavior = ScriptedBehavior(steps=(AgentStep(final_answer="only"),))
        driver = ReplayDriver(behavior)
        history = tuple(
            ("t", ObservedInvocation.of("a", {"i": i}), "obs") for i in range(5)
        )
        ctx = AgentContext(query="q", tools=(), history=history)
        assert driver.next_step(ctx).final_answer == "only"


class TestFunctionDeclarations:
    def test_round_trip_exact(self):
        rng = random.Random(99)
        tools = [random_tool(rng, name=f"tool_{i}") for i in range(4)]
        text = render_function_declarations(tools)
        assert json.loads(text) == [tool_to_json(t) for t in tools]

    def test_corrupted_fields_pass_through_verbatim(self):
        tool = make_tool(
            parameters=(make_param("query", "integer", "", True),),
        )
        assert '"ptype": "integer"' in render_function_declarations([tool])
        assert '"description": ""' in render_function_declarations([tool])


class TestRunCase:
    def test_replay_of_oracle_answers(self):
        case = make_case(
            scripted=(
                scripted_return("searcher", {"query": "books about whales"}, payload={"hits": 3}),
            ),
        )
        trajectory = run_case(case, "RD", ReplayDriver(ScriptedBehavior.replaying(case)), seed=5)
        assert trajectory.outcome == "answered"
        assert trajectory.perturbation_applied
        assert trajectory.case_id == "c1" and trajectory.operator == "RD"
        assert trajectory.seed == 5 and trajectory.driver_id == "replay"
        assert len(trajectory.invocations) == 1
        assert trajectory.steps[0].observation == '{"hits": 3}'
        assert trajectory.steps[-1].final_answer is not None

    def test_step_limit_exceeded(self):
        case = make_case(
            scripted=(
                scripted_return("searcher", {"query": "loop"}, payload={}),
            ),
        )
        behavior = ScriptedBehavior(
            steps=(
                invocation_step("searcher", {"query": "loop"}),
                AgentStep(final_answer="never reached"),
            )
        )

        class StuckDriver:
            driver_id = "stuck"

            def next_step(self, ctx):
                return behavior.steps[0]

        trajectory = run_case(case, "RD", StuckDriver(), step_limit=3)
        assert trajectory.outcome == "step_limit_exceeded"
        assert len(trajectory.steps) == 3
        assert all(s.invocation is not None for s in trajectory.steps)

    def test_document_operator_perturbs_each_tool(self):
        case = make_case(
            tools=(
                make_tool("first"),
                make_tool("second", parameters=(make_param("mode", "string", "The mode.", True),)),
            ),
        )
        seen: list[tuple[str, ...]] = []

        class ProbeDriver:
            driver_id = "probe"

            def next_step(self, ctx):
                seen.append(tuple(t.tool_name for t in ctx.tools))
                seen.append(tuple(p.description for t in ctx.tools for p in t.parameters))
                return AgentStep(final_answer="done")

        trajectory = run_case(case, "RD", ProbeDriver(), seed=1)
        assert trajectory.perturbation_applied
        assert len(trajectory.perturbations) == 2
        assert seen[0] == ("first", "second")
        # RD blanks required descriptions; the optional one survives.
        assert "" in seen[1]

    def test_document_skip_recorded_per_tool(self):
        case = make_case(
            tools=(
                make_tool("first"),
                make_tool("empty_tool", parameters=()),
            ),
        )
        trajectory = run_case(
            case, "RD", ReplayDriver(ScriptedBehavior.replaying(case)), seed=0
        )
        assert trajectory.perturbation_applied
        assert [s.target for s in trajectory.skips] == ["empty_tool"]
        assert trajectory.skips[0].reason == "NoRequiredParams"

    def test_query_operator_rewrites_the_prompt(self):
        case = make_case()
        seen = []

        class ProbeDriver:
            driver_id = "probe"

            def next_step(self, ctx):
                seen.append(ctx.query)
                return AgentStep(final_answer="done")

        trajectory = run_case(case, "RPF", ProbeDriver())
        assert trajectory.perturbation_applied
        assert seen[0] != case.query.text
        assert "books about whales" not in seen[0]

    def test_query_skip_keeps_original_text(self):
        case = make_case(query=make_query("Nothing annotated here.", spans=[]))
        seen = []

        class ProbeDriver:
            driver_id = "probe"

            def next_step(self, ctx):
                seen.append(ctx.query)
                return AgentStep(final_answer="done")

        trajectory = run_case(case, "RPF", ProbeDriver())
        assert not trajectory.perturbation_applied
        assert seen[0] == "Nothing annotated here."
        assert trajectory.skips[0].reason == "NoMentions"

    def test_return_operator_applies_to_every_observation(self):
        case = make_case(
            scripted=(
                scripted_return("searcher", {"query": "a"}, payload={"result_id": 1}),
                scripted_return("searcher", {"query": "b"}, payload={"result_id": 2}),
            ),
        )
        behavior = ScriptedBehavior(
            steps=(
                invocation_step("searcher", {"query": "a"}),
                invocation_step("searcher", {"query": "b"}),
                AgentStep(final_answer="done"),
            )
        )
        trajectory = run_case(case, "AP", ReplayDriver(behavior))
        assert trajectory.perturbation_applied
        assert len(trajectory.perturbations) == 2
        assert trajectory.steps[0].observation == '{"result_id": "ID_1"}'
        assert trajectory.steps[1].observation == '{"result_id": "ID_2"}'

    def test_unscripted_call_gets_error_payload(self):
        case = make_case(scripted=())
        behavior = ScriptedBehavior(
            steps=(
                invocation_step("searcher", {"query": "unplanned"}),
                AgentStep(final_answer="done"),
            )
        )
        trajectory = run_case(case, "RD", ReplayDriver(behavior))
        observation = trajectory.steps[0].observation
        assert "no scripted return for searcher" in observation
        assert "unplanned" in observation

    def test_truncation_event_logged(self):
        case = make_case(
            scripted=(
                scripted_return(
                    "searcher", {"query": "books about whales"},
                    raw_text="z" * 5000,
                ),
            ),
        )
        trajectory = run_case(
            case, "RD", ReplayDriver(ScriptedBehavior.replaying(case)),
            max_observation_length=1024,
        )
        assert len(trajectory.steps[0].observation) == 1024
        assert trajectory.truncations == (
            TruncationEvent(step_index=0, original_length=5000, truncated_length=1024),
        )

    def test_unknown_operator_rejected(self):
        with pytest.raises(SchemaViolation):
            run_case(make_case(), "XX", ReplayDriver(ScriptedBehavior.replaying(make_case())))

    def test_trajectory_json_round_trip(self):
        case = make_case(
            scripted=(
                scripted_return("searcher", {"query": "books about whales"}, payload={"k": 1}),
            ),
        )
        trajectory = run_case(case, "CK", ReplayDriver(ScriptedBehavior.replaying(case)), seed=3)
        assert Trajectory.from_json(trajectory.to_json()) == trajectory
