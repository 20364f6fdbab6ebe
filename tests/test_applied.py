"""One rule decides "applied": an operator whose result the agent would see
unchanged is a NoEffect skip, for every operator on every shipped case."""

import importlib
import importlib.resources
from pathlib import Path

import pytest

from paramfuzz.campaign import derived_seed
from paramfuzz.corpus import ToolReturn, all_tools, load_corpus
from paramfuzz.driver import ReplayDriver, ScriptedBehavior, render_function_declarations, run_case
from paramfuzz.errors import NoEffect, PerturbSkip
from paramfuzz.perturb import (
    ALL_OPERATORS,
    SOURCE_OF_OPERATOR,
    append_noise,
    apply_operator,
    camel_case_keys,
    complicate_mentions,
    corrupt_format,
    corrupt_types,
    donor_pool,
    fuzz_keys,
    prefix_id_values,
    remove_examples,
    remove_first_mention,
    remove_last_mention,
    remove_required_descriptions,
    shuffle_descriptions,
    snake_case_keys,
    substitute_foreign_descriptions,
    swap_descriptions,
)

# Each operator's own function, before the rule: (value, seed, donors) -> result.
RAW = {
    "RD": lambda doc, seed, donors: remove_required_descriptions(doc),
    "RE": lambda doc, seed, donors: remove_examples(doc),
    "WD": lambda doc, seed, donors: substitute_foreign_descriptions(doc, donors, seed),
    "SD": lambda doc, seed, donors: swap_descriptions(doc),
    "CO": lambda doc, seed, donors: shuffle_descriptions(doc, seed),
    "WT": lambda doc, seed, donors: corrupt_types(doc),
    "RPF": lambda query, seed, donors: remove_first_mention(query),
    "RPL": lambda query, seed, donors: remove_last_mention(query),
    "CP": lambda query, seed, donors: complicate_mentions(query),
    "AN": lambda query, seed, donors: append_noise(query),
    "FK": lambda ret, seed, donors: fuzz_keys(ret),
    "AP": lambda ret, seed, donors: prefix_id_values(ret),
    "CK": lambda ret, seed, donors: camel_case_keys(ret),
    "UK": lambda ret, seed, donors: snake_case_keys(ret),
    "CF": lambda ret, seed, donors: corrupt_format(ret),
}

# What the agent sees of a value of each source.
SEEN = {
    "document": lambda tool: render_function_declarations((tool,)),
    "query": lambda query: query.text,
    "return": ToolReturn.rendered,
}


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Every case of the two shipped corpora and of the benchmark's depth
    corpus at seed 3, each corpus with its WD donor pool."""
    data = importlib.resources.files("paramfuzz").joinpath("data")
    found = {}
    for name in ("mock_campaign", "demo"):
        with importlib.resources.as_file(data.joinpath(name, "corpus.json")) as path:
            found[name] = load_corpus(str(path))
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        depth = importlib.import_module("workloads").generate_depth(3, str(tmp_path_factory.mktemp("depth")))
    found["depth"] = load_corpus(depth.files[0])
    return {name: (cases, donor_pool(all_tools(cases))) for name, cases in found.items()}


def inputs(case, source):
    if source == "document":
        return list(case.tools)
    if source == "query":
        return [case.query]
    return [scripted.value for scripted in case.scripted_returns]


def operators_of(source):
    return [operator for operator in ALL_OPERATORS if SOURCE_OF_OPERATOR[operator] == source]


def own_result(operator, value, before, seed, donors):
    """The result of the operator's own function, and whether the agent
    sees it otherwise than before, what it sees of value; (None, None) when
    the operator cannot run there (a skip of its own)."""
    try:
        result = RAW[operator](value, seed, donors)
    except PerturbSkip:
        return None, None
    return result, SEEN[SOURCE_OF_OPERATOR[operator]](result[0]) != before


@pytest.mark.parametrize("name", ["mock_campaign", "demo", "depth"])
def test_no_effect_exactly_when_the_rendering_is_unchanged(corpora, name):
    cases, donors = corpora[name]
    outcomes = {True: 0, False: 0, None: 0}
    for case in cases:
        for source, seen in SEEN.items():
            for value in inputs(case, source):
                before = seen(value)
                for operator in operators_of(source):
                    seed = derived_seed(3, operator, case.case_id)
                    result, changed = own_result(operator, value, before, seed, donors)
                    outcomes[changed] += 1
                    if changed:
                        assert apply_operator(operator, value, seed=seed, donors=donors) == result
                        continue
                    with pytest.raises(PerturbSkip) as skip:
                        apply_operator(operator, value, seed=seed, donors=donors)
                    assert (type(skip.value) is NoEffect) == (changed is False), (case.case_id, operator)
    assert outcomes[True] and outcomes[False], outcomes


@pytest.mark.parametrize("name", ["mock_campaign", "demo", "depth"])
def test_replay_applies_exactly_when_some_rendering_changed(corpora, name):
    """Under oracle replay, every input the agent is shown counts: each tool
    for a document operator, the query, or the return of each call."""
    cases, donors = corpora[name]
    applied = {True: 0, False: 0}
    for case in cases:
        for source, seen in SEEN.items():
            if source == "return":
                shown = [case.scripted_lookup(call.tool_name, call.arguments) for call in case.oracle]
                assert None not in shown, "every oracle call of a shipped case is scripted"
            else:
                shown = inputs(case, source)
            before = [seen(value) for value in shown]
            for operator in operators_of(source):
                seed = derived_seed(3, operator, case.case_id)
                trajectory = run_case(
                    case, operator, ReplayDriver(ScriptedBehavior.replaying(case)), seed=seed, donors=donors
                )
                assert len(trajectory.steps) == len(case.oracle) + 1
                changed = [own_result(operator, *pair, seed, donors)[1] for pair in zip(shown, before)]
                assert trajectory.perturbation_applied == any(changed), (case.case_id, operator)
                assert len(trajectory.perturbations) == sum(bool(c) for c in changed)
                applied[trajectory.perturbation_applied] += 1
    assert applied[True], applied
