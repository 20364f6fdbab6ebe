"""Shared builders for the test suite.

Tests that need randomness construct their own random.Random with a
fixed seed so every run exercises the same inputs.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import random
from pathlib import Path

import pytest

from paramfuzz.corpus import (
    AnnotatedQuery,
    Mention,
    OracleInvocation,
    ParameterSpec,
    PARAM_TYPES,
    ScriptedReturn,
    TestCase,
    ToolDocument,
    ToolReturn,
)

WORDS = (
    "amber", "basalt", "cedar", "delta", "ember", "fjord", "garnet",
    "harbor", "indigo", "juniper", "krill", "lagoon", "marble", "nectar",
    "onyx", "pepper", "quartz", "russet", "saffron", "tundra", "umber",
    "velvet", "walnut", "yarrow", "zephyr",
)


def make_param(name="query", ptype="string", description="What to search for.",
               required=True, **extra) -> ParameterSpec:
    defaults = dict(
        name=name,
        ptype=ptype,
        description=description,
        required=required,
        enum_values=None,
        format=None,
        range=None,
        example=None,
    )
    defaults.update(extra)
    return ParameterSpec(**defaults)


def make_tool(tool_name="searcher", parameters=None, description="Find things.",
              usage_examples=('searcher(query="x")',)) -> ToolDocument:
    if parameters is None:
        parameters = (
            make_param("query", "string", "What to search for.", True,
                       example="books"),
            make_param("limit", "integer", "Maximum results.", False, range=(1, 50)),
        )
    return ToolDocument(
        tool_name=tool_name,
        description=description,
        parameters=tuple(parameters),
        usage_examples=tuple(usage_examples),
    )


def make_query(text="Search for books about whales.", spans=None) -> AnnotatedQuery:
    """spans: list of (needle, param_name, tool_name) resolved by str.find."""
    if spans is None:
        spans = [("books about whales", "query", "searcher")]
    mentions = []
    for needle, param_name, tool_name in spans:
        start = text.index(needle)
        mentions.append(
            Mention(
                span=(start, start + len(needle)),
                param_name=param_name,
                tool_name=tool_name,
                value_text=needle,
            )
        )
    mentions.sort(key=lambda m: m.start)
    return AnnotatedQuery(text=text, mentions=tuple(mentions))


def make_case(case_id="c1", tools=None, query=None, oracle=None,
              scripted=(), solvable=True) -> TestCase:
    if tools is None:
        tools = (make_tool(),)
    if query is None:
        query = make_query()
    if oracle is None:
        oracle = (
            OracleInvocation(
                tool_name=tools[0].tool_name,
                arguments={"query": "books about whales"},
                needed_params=frozenset({"query"}),
            ),
        )
    return TestCase(
        case_id=case_id,
        solvable=solvable,
        tools=tuple(tools),
        query=query,
        oracle=tuple(oracle),
        scripted_returns=tuple(scripted),
    )


def scripted_return(tool_name, arguments, payload=None, raw_text=None) -> ScriptedReturn:
    value = ToolReturn(payload=payload) if raw_text is None else ToolReturn(raw_text=raw_text)
    return ScriptedReturn(tool_name=tool_name, arguments=arguments, value=value)


def swap_pair(doc: ToolDocument, i: int, j: int) -> ToolDocument:
    """The tool with the descriptions of parameters i and j exchanged: the
    inverse of an SD application that recorded the pair (i, j)."""
    params = list(doc.parameters)
    params[i], params[j] = (
        dataclasses.replace(params[i], description=params[j].description),
        dataclasses.replace(params[j], description=params[i].description),
    )
    return dataclasses.replace(doc, parameters=tuple(params))


# sha256 of each output of `run --report` on the packaged mock_campaign at
# seed 0. They change only with a deliberate change to the log or reports.
MOCK_CAMPAIGN_SHA256 = {
    "campaign.jsonl": "32fd21223ca4bc2cb19b99bd22a070826b3a9899bc7c8afb8a8fae06d1ca70f8",
    "report.json": "20eab7c721b5d9590409b88d3f72ef30b8e58d48ace3e34e162c325406099bdb",
    "report.md": "19bba7a56621e39cb736b4d0d41d02db7995255b7ce3f5f5f5b487fb66c36df3",
    "report_table.csv": "2618532b6b7c4c8765382a9bf799a4bdbb845508a51a8e665cce0d1bd9004d4a",
}


DEPTH_SLICE_CASES = 12


@pytest.fixture
def depth_workload(tmp_path, monkeypatch):
    """The benchmark's depth workload at seed 3; its files[0] is the corpus
    and files[1] the script book."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return importlib.import_module("workloads").generate_depth(3, str(tmp_path / "depth"))


@pytest.fixture
def depth_slice(depth_workload) -> tuple[dict, dict]:
    """The first DEPTH_SLICE_CASES cases of the benchmark's depth workload
    at seed 3, as a corpus document, and the script book of those cases."""
    generated = depth_workload
    corpus = json.loads(Path(generated.files[0]).read_text(encoding="utf-8"))
    corpus["cases"] = corpus["cases"][:DEPTH_SLICE_CASES]
    kept = {case["case_id"] for case in corpus["cases"]}
    book = json.loads(Path(generated.files[1]).read_text(encoding="utf-8"))
    book["scripts"] = {key: steps for key, steps in book["scripts"].items() if key.partition(":")[2] in kept}
    return corpus, book


def log_events(path) -> list[dict]:
    """The raw JSON events of a campaign log, one per non-blank line."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------- random builders

def random_tool(rng: random.Random, name: str | None = None,
                min_params: int = 0, distinct_descriptions: bool = False) -> ToolDocument:
    count = rng.randint(min_params, 6)
    names = rng.sample(WORDS, count) if count else []
    params = []
    descriptions = rng.sample(WORDS, count) if distinct_descriptions else None
    for i, pname in enumerate(names):
        if distinct_descriptions:
            description = f"The {descriptions[i]} knob."
        else:
            description = rng.choice(
                ["", f"The {rng.choice(WORDS)} knob.", f"Controls {rng.choice(WORDS)}."]
            )
        ptype = rng.choice(PARAM_TYPES)
        extra: dict = {}
        if ptype in ("integer", "number") and rng.random() < 0.3:
            low = rng.randint(0, 10)
            extra["range"] = (low, low + rng.randint(1, 100))
        if ptype == "string" and rng.random() < 0.2:
            extra["enum_values"] = tuple(rng.sample(WORDS, 3))
        if rng.random() < 0.4:
            if "enum_values" in extra:
                extra["example"] = extra["enum_values"][0]
            elif ptype == "string":
                extra["example"] = rng.choice(WORDS)
            elif ptype == "integer":
                extra["example"] = rng.randint(0, 99)
            else:
                extra["example"] = None
        params.append(
            make_param(pname, ptype, description, rng.random() < 0.5, **extra)
        )
    usage = tuple(
        f"{name or 'tool'}({rng.choice(WORDS)}=1)" for _ in range(rng.randint(0, 2))
    )
    return make_tool(
        tool_name=name or f"tool_{rng.randrange(10_000)}",
        parameters=params,
        description=f"Does {rng.choice(WORDS)} work.",
        usage_examples=usage,
    )


def random_query(rng: random.Random, min_mentions: int = 0) -> AnnotatedQuery:
    """Build a query of space-joined words with mention spans on some words."""
    n_words = rng.randint(3, 12)
    words = [rng.choice(WORDS) for _ in range(n_words)]
    n_mentions = rng.randint(min_mentions, min(3, n_words))
    mention_slots = sorted(rng.sample(range(n_words), n_mentions))
    # Mentioned words get unique markers so value_text stays unambiguous.
    for ordinal, slot in enumerate(mention_slots):
        words[slot] = f"{words[slot]}{ordinal}{rng.randrange(100)}"
    tail = rng.choice(["", ".", "?", "!"])
    text = " ".join(words) + tail
    mentions = []
    offset = 0
    param_names = rng.sample(WORDS, max(n_mentions, 1))
    for i, word in enumerate(words):
        if i in mention_slots:
            ordinal = mention_slots.index(i)
            mentions.append(
                Mention(
                    span=(offset, offset + len(word)),
                    param_name=param_names[ordinal],
                    tool_name="tool_under_test",
                    value_text=word,
                )
            )
        offset += len(word) + 1
    return AnnotatedQuery(text=text, mentions=tuple(mentions))


def random_payload(rng: random.Random, depth: int = 0) -> object:
    """Random JSON value; keys are unique word tuples so key respelling
    never collides."""
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        return rng.choice(
            [
                rng.randint(-5, 99),
                rng.random() * 10,
                rng.choice(WORDS),
                True,
                False,
                None,
            ]
        )
    if roll < 0.7:
        return [random_payload(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    pairs = rng.sample(WORDS, rng.randint(1, 5))
    style = rng.choice(["snake", "camel", "plain"])
    out = {}
    for i, word in enumerate(pairs):
        second = WORDS[(WORDS.index(word) + 7) % len(WORDS)]
        if style == "snake":
            key = f"{word}_{second}"
        elif style == "camel":
            key = f"{word}{second.capitalize()}"
        else:
            key = word
        out[key] = random_payload(rng, depth + 1)
    return out


def random_tokens(rng: random.Random, max_len: int = 64) -> list[str]:
    vocabulary = ["alpha", "beta", "gamma", "delta", "42", "x"]
    return [rng.choice(vocabulary) for _ in range(rng.randint(1, max_len))]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
