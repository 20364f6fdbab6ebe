"""Query operator tests: excision offsets, CP and AN rewrites, property sweeps."""

import random

import pytest

from conftest import make_query, random_query
from paramfuzz.errors import NoEffect, NoMentions, SchemaViolation
from paramfuzz.perturb import apply_query_operator
from paramfuzz.perturb.query import (
    _complicate,
    _distract,
    append_noise,
    complicate_mentions,
    remove_first_mention,
    remove_last_mention,
)


def two_mention_query():
    return make_query(
        "Top queries for Bitcoin in Australia",
        spans=[("Bitcoin", "query", "trend_search"), ("Australia", "region", "trend_search")],
    )


class TestExcision:
    def test_remove_first_worked_example(self):
        out, record = remove_first_mention(two_mention_query())
        assert out.text == "Top queries for in Australia"
        assert len(out.mentions) == 1
        survivor = out.mentions[0]
        assert survivor.value_text == "Australia"
        assert out.text[survivor.start:survivor.end] == "Australia"
        assert record.details["removed"]["value_text"] == "Bitcoin"

    def test_remove_last_worked_example(self):
        out, _ = remove_last_mention(two_mention_query())
        assert out.text == "Top queries for Bitcoin in"
        assert len(out.mentions) == 1
        assert out.mentions[0].value_text == "Bitcoin"

    def test_no_dangling_space_before_punctuation(self):
        query = make_query(
            "Search for whales, please.",
            spans=[("whales", "query", "searcher")],
        )
        out, _ = remove_first_mention(query)
        assert out.text == "Search for, please."

    def test_mention_at_string_start(self):
        query = make_query("Bitcoin is the topic.", spans=[("Bitcoin", "q", "t")])
        out, _ = remove_first_mention(query)
        assert out.text == "is the topic."

    def test_mention_at_string_end(self):
        query = make_query("The topic is Bitcoin", spans=[("Bitcoin", "q", "t")])
        out, _ = remove_first_mention(query)
        assert out.text == "The topic is"

    def test_whole_text_mention(self):
        query = make_query("Bitcoin", spans=[("Bitcoin", "q", "t")])
        out, _ = remove_first_mention(query)
        assert out.text == ""
        assert out.mentions == ()

    def test_adjacent_mentions_keep_boundary(self):
        # "a b" with both words annotated: removing the first must not eat
        # into the second mention's span.
        query = make_query("alpha beta", spans=[("alpha", "p", "t"), ("beta", "q", "t")])
        out, _ = remove_first_mention(query)
        assert out.text == "beta"
        assert out.mentions[0].start == 0

    def test_empty_mentions_skip(self):
        with pytest.raises(NoMentions):
            remove_first_mention(make_query("No annotations here.", spans=[]))
        with pytest.raises(NoMentions):
            remove_last_mention(make_query("No annotations here.", spans=[]))

    def test_single_mention_first_equals_last(self):
        query = make_query("Find Bitcoin now.", spans=[("Bitcoin", "q", "t")])
        first, _ = remove_first_mention(query)
        last, _ = remove_last_mention(query)
        assert first == last


class TestRewriters:
    def test_complicator_phrase(self):
        assert _complicate("Bitcoin") == (
            "the value that would be written as 'Bitcoin'"
        )

    def test_noiser_case_flip_worked_example(self):
        assert _distract("Bitcoin") == "bitCoin"

    def test_noiser_integer_off_by_one(self):
        assert _distract("41") == "42"
        assert _distract("-3") == "-2"

    def test_noiser_decimal_off_by_one(self):
        assert _distract("2.5") == "3.5"

    def test_noiser_never_returns_input(self):
        rng = random.Random(55)
        alphabet = "aA1. -"
        for _ in range(500):
            value = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            assert _distract(value) != value


class TestComplicate:
    def test_mentions_become_phrases(self):
        out, record = complicate_mentions(two_mention_query())
        assert out.text == (
            "Top queries for the value that would be written as 'Bitcoin' "
            "in the value that would be written as 'Australia'"
        )
        assert [m.value_text for m in out.mentions] == [
            "the value that would be written as 'Bitcoin'",
            "the value that would be written as 'Australia'",
        ]
        assert record.details["replacements"][0]["original"] == "Bitcoin"
        assert record.details["rewriter"] == "descriptive-phrase"

    def test_skip_without_mentions(self):
        query = make_query("Nothing marked.", spans=[])
        assert complicate_mentions(query)[0].text == query.text
        with pytest.raises(NoEffect):
            apply_query_operator("CP", query)


class TestAppendNoise:
    def test_appends_one_sentence_per_mention(self):
        query = two_mention_query()
        out, record = append_noise(query)
        assert out.text == (
            "Top queries for Bitcoin in Australia"
            " Unrelated note: bitCoin."
            " Unrelated note: austRalia."
        )
        assert out.mentions == query.mentions
        assert [d["distractor"] for d in record.details["distractors"]] == [
            "bitCoin", "austRalia",
        ]
        assert record.details["rewriter"] == "near-miss"

    def test_skip_without_mentions(self):
        query = make_query("Nothing marked.", spans=[])
        assert append_noise(query)[0].text == query.text
        with pytest.raises(NoEffect):
            apply_query_operator("AN", query)


class TestDispatcher:
    def test_routes_all_four(self):
        query = two_mention_query()
        for operator in ("RPF", "RPL", "CP", "AN"):
            out, record = apply_query_operator(operator, query)
            assert record.operator == operator
            assert isinstance(out.text, str)

    def test_unknown_id_rejected(self):
        with pytest.raises(SchemaViolation):
            apply_query_operator("RD", two_mention_query())


class TestQueryProperties:
    """Seeded random sweeps. Span integrity is enforced by the
    AnnotatedQuery constructor, so surviving construction is itself the
    text[span] == value_text check."""

    def test_excision_properties(self):
        rng = random.Random(201)
        for _ in range(500):
            query = random_query(rng, min_mentions=1)
            for excise in (remove_first_mention, remove_last_mention):
                out, record = excise(query)
                assert len(out.mentions) == len(query.mentions) - 1
                assert len(out.text) < len(query.text)
                removed = record.details["removed"]
                survivors_values = [m.value_text for m in out.mentions]
                expected = [m.value_text for m in query.mentions]
                expected.remove(removed["value_text"])
                assert survivors_values == expected

    def test_complicate_properties(self):
        rng = random.Random(202)
        for _ in range(500):
            query = random_query(rng, min_mentions=1)
            out, _ = complicate_mentions(query)
            assert len(out.mentions) == len(query.mentions)
            for before, after in zip(query.mentions, out.mentions):
                assert after.value_text == (
                    f"the value that would be written as '{before.value_text}'"
                )
                assert after.param_name == before.param_name

    def test_append_noise_prefix_property(self):
        rng = random.Random(203)
        for _ in range(500):
            query = random_query(rng, min_mentions=1)
            out, _ = append_noise(query)
            assert out.text.startswith(query.text)
            assert out.text != query.text
            assert out.mentions == query.mentions
