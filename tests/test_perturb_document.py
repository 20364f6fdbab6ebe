"""Tool-document operator tests: worked examples plus seeded property runs."""

import dataclasses
import random
import sys
import threading

import pytest

from conftest import make_param, make_tool, random_tool, swap_pair
from paramfuzz.errors import NoDonor, NoEffect, PerturbSkip, SchemaViolation, TooFewParams
from paramfuzz.perturb import PerturbationRecord, apply_document_operator, apply_operator
from paramfuzz.perturb import document
from paramfuzz.perturb.document import (
    TYPE_SUBSTITUTION,
    corrupt_types,
    donor_pool,
    remove_examples,
    remove_required_descriptions,
    shuffle_descriptions,
    substitute_foreign_descriptions,
    swap_descriptions,
)


def three_param_tool():
    return make_tool(
        "trend_search",
        parameters=(
            make_param("query", "string", "Topic to search interest for.", True),
            make_param("region", "string", "Two-letter country code.", True),
            make_param("limit", "integer", "How many rows to return.", False),
        ),
    )


class TestRemoveRequiredDescriptions:
    def test_blanks_exactly_required(self):
        doc, record = remove_required_descriptions(three_param_tool())
        assert [p.description for p in doc.parameters] == ["", "", "How many rows to return."]
        assert record.details["blanked"] == ["query", "region"]

    def test_leaves_everything_else(self):
        original = three_param_tool()
        doc, _ = remove_required_descriptions(original)
        assert doc.tool_name == original.tool_name
        assert [p.name for p in doc.parameters] == [p.name for p in original.parameters]
        assert [p.ptype for p in doc.parameters] == [p.ptype for p in original.parameters]

    def test_raises_without_required_params(self):
        doc = make_tool(parameters=(make_param("a", required=False),))
        assert remove_required_descriptions(doc)[0] == doc
        with pytest.raises(NoEffect):
            apply_operator("RD", doc)


class TestRemoveExamples:
    def test_clears_usage_and_param_examples(self):
        doc, record = remove_examples(make_tool())
        assert doc.usage_examples == ()
        assert all(not p.has_example and p.example is None for p in doc.parameters)
        assert record.details["erased_usage_examples"] == 1
        assert record.details["erased_param_examples"] == ["query"]

    def test_raises_when_nothing_to_erase(self):
        doc = make_tool(
            parameters=(make_param("a"),),
            usage_examples=(),
        )
        assert remove_examples(doc)[0] == doc
        with pytest.raises(NoEffect):
            apply_operator("RE", doc)


class TestSubstituteForeignDescriptions:
    def test_every_description_becomes_foreign(self):
        target = three_param_tool()
        donor = make_tool(
            "other_tool",
            parameters=(
                make_param("a", "string", "Alpha donor text."),
                make_param("b", "string", "Beta donor text."),
                make_param("c", "string", "Gamma donor text."),
            ),
        )
        doc, record = substitute_foreign_descriptions(target, donor_pool([target, donor]), seed=5)
        donor_texts = {"Alpha donor text.", "Beta donor text.", "Gamma donor text."}
        assert all(p.description in donor_texts for p in doc.parameters)
        assert record.details["collisions"] == []
        assert len(record.details["assignments"]) == 3
        assert all(a["donor_tool"] == "other_tool" for a in record.details["assignments"])

    def test_same_seed_same_assignment(self):
        target = three_param_tool()
        donor = random_tool(random.Random(3), name="donor_tool", min_params=4)
        a, _ = substitute_foreign_descriptions(target, donor_pool([donor]), seed=11)
        b, _ = substitute_foreign_descriptions(target, donor_pool([donor]), seed=11)
        assert a == b

    def test_raises_without_donor_pool(self):
        target = three_param_tool()
        with pytest.raises(NoDonor):
            substitute_foreign_descriptions(target, donor_pool([target]), seed=0)

    def test_collision_recorded_when_pool_forces_identity(self):
        target = make_tool(parameters=(make_param("a", "string", "Same text."),))
        donor = make_tool("donor", parameters=(make_param("z", "string", "Same text."),))
        doc, record = substitute_foreign_descriptions(target, donor_pool([donor]), seed=0)
        assert doc.parameters[0].description == "Same text."
        assert record.details["collisions"] == ["a"]


def per_tool_shuffle(doc, donors, seed):
    """WD as a reference: filter the pool, random.Random(seed).shuffle that
    very list, then assign from it."""
    shuffled = [donor for donor in donors if donor[0] != doc.tool_name]
    if not shuffled:
        raise NoDonor(doc.tool_name)
    random.Random(seed).shuffle(shuffled)
    assignments, collisions, parameters = [], [], []
    for index, param in enumerate(doc.parameters):
        differing = [
            shuffled[(index + probe) % len(shuffled)]
            for probe in range(len(shuffled))
            if shuffled[(index + probe) % len(shuffled)][2] != param.description
        ]
        if differing:
            chosen = differing[0]
        else:
            chosen = shuffled[index % len(shuffled)]
            collisions.append(param.name)
        assignments.append({"param": param.name, "donor_tool": chosen[0], "donor_param": chosen[1]})
        parameters.append(dataclasses.replace(param, description=chosen[2]))
    details = {"assignments": assignments, "collisions": collisions}
    return dataclasses.replace(doc, parameters=tuple(parameters)), PerturbationRecord("WD", seed, details)


def test_wd_draws_what_a_per_tool_shuffle_draws():
    """Every tool of a random case under two pairs' seeds, the two pairs'
    applications merged in a random order as concurrent workers merge
    them, against the reference. The sweep covers pools of one length and
    of differing lengths within a case, one-donor pools, collisions and
    tools with no parameters."""
    rng = random.Random(118)
    document._shuffled_order.cache_clear()
    seen = {"no_params": 0, "one_donor": 0, "collision": 0, "no_donor": 0}
    for _ in range(300):
        tools = [random_tool(rng, name=f"t{index}") for index in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            # Every tool describes as many parameters: the pools are as long.
            tools = [make_tool(f"t{index}", parameters=tools[0].parameters) for index in range(len(tools))]
        donors = donor_pool(tools)
        pairs = [[(tool, seed) for tool in tools] for seed in (rng.randrange(1 << 64), rng.randrange(1 << 64))]
        while pairs:
            pair = rng.choice(pairs)
            tool, seed = pair.pop(0)
            if not pair:
                pairs.remove(pair)
            try:
                expected = per_tool_shuffle(tool, donors, seed)
            except NoDonor:
                seen["no_donor"] += 1
                with pytest.raises(NoDonor):
                    substitute_foreign_descriptions(tool, donors, seed)
                continue
            assert substitute_foreign_descriptions(tool, donors, seed) == expected
            seen["no_params"] += not tool.parameters
            seen["one_donor"] += sum(donor[0] != tool.tool_name for donor in donors) == 1
            seen["collision"] += bool(expected[1].details["collisions"])
    assert min(seen.values()) >= 10, seen
    memo = document._shuffled_order.cache_info()
    assert memo.hits >= 100 and memo.misses >= 100, memo


def test_wd_threads_sharing_the_memo_each_get_their_own_draw():
    """Eight threads, more than the cores, apply WD to the tools of their
    own pairs under a short switch interval; every result must be the
    reference's, so no thread reads another pair's draw."""
    rng = random.Random(119)
    tools = [random_tool(rng, name=f"t{index}", min_params=1) for index in range(6)]
    tools += [make_tool(f"u{index}", parameters=tools[0].parameters) for index in range(6)]
    donors = donor_pool(tools)
    # Each thread runs two pairs: every tool under one seed, then another.
    work = [[(tool, seed) for seed in (rng.randrange(1 << 64), rng.randrange(1 << 64)) for tool in tools]
            for _ in range(8)]
    results: dict[int, list] = {}

    def apply(index):
        results[index] = [substitute_foreign_descriptions(tool, donors, seed) for tool, seed in work[index]]

    threads = [threading.Thread(target=apply, args=(index,)) for index in range(len(work))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index, pairs in enumerate(work):
        assert results[index] == [per_tool_shuffle(tool, donors, seed) for tool, seed in pairs]


class TestSwapDescriptions:
    def test_default_pair_is_first_differing(self):
        doc, record = swap_descriptions(three_param_tool())
        assert record.details["pair"] == [0, 1]
        assert doc.parameters[0].description == "Two-letter country code."
        assert doc.parameters[1].description == "Topic to search interest for."
        assert doc.parameters[2].description == "How many rows to return."

    def test_involution_with_same_pair(self):
        original = three_param_tool()
        once, record = swap_descriptions(original)
        twice, again = swap_descriptions(once)
        assert again.details["pair"] == record.details["pair"]
        assert twice == original

    def test_all_same_description_skips(self):
        doc = make_tool(
            parameters=(
                make_param("a", "string", "Same."),
                make_param("b", "string", "Same."),
            )
        )
        assert swap_descriptions(doc)[0] == doc
        with pytest.raises(NoEffect):
            apply_operator("SD", doc)

    def test_single_param_skips(self):
        doc = make_tool(parameters=(make_param("a"),))
        assert swap_descriptions(doc)[0] == doc
        with pytest.raises(NoEffect):
            apply_operator("SD", doc)


class TestShuffleDescriptions:
    def test_seeded_permutation_never_identity(self):
        doc = three_param_tool()
        for seed in range(30):
            out, record = shuffle_descriptions(doc, seed=seed)
            permutation = record.details["permutation"]
            assert permutation != list(range(3))
            assert sorted(permutation) == [0, 1, 2]
            for i, k in enumerate(permutation):
                assert out.parameters[i].description == doc.parameters[k].description

    def test_too_few_params(self):
        with pytest.raises(TooFewParams):
            shuffle_descriptions(make_tool(parameters=(make_param("a"),)), seed=0)


class TestCorruptTypes:
    def test_substitution_table_applied(self):
        doc = make_tool(
            parameters=(
                make_param("s", "string", "S."),
                make_param("i", "integer", "I."),
                make_param("n", "number", "N."),
                make_param("b", "boolean", "B."),
                make_param("a", "array", "A."),
                make_param("o", "object", "O."),
            )
        )
        out, record = corrupt_types(doc)
        assert [p.ptype for p in out.parameters] == [
            "integer", "boolean", "string", "array", "object", "string",
        ]
        assert record.details["retyped"][0] == {
            "param": "s", "from": "string", "to": "integer",
        }

    def test_table_has_no_fixed_point_and_covers_all_types(self):
        from paramfuzz.corpus import PARAM_TYPES

        assert sorted(TYPE_SUBSTITUTION) == sorted(PARAM_TYPES)
        assert all(src != dst for src, dst in TYPE_SUBSTITUTION.items())
        assert set(TYPE_SUBSTITUTION.values()) <= set(PARAM_TYPES)

    def test_zero_param_doc_passes_through(self):
        doc = make_tool(parameters=())
        out, record = corrupt_types(doc)
        assert out == doc
        assert record.details["retyped"] == []


class TestDispatcher:
    def test_routes_by_operator_id(self):
        doc = three_param_tool()
        out, record = apply_document_operator("WT", doc)
        assert record.operator == "WT"
        assert out.parameters[0].ptype == "integer"

    def test_unknown_id_rejected(self):
        with pytest.raises(SchemaViolation):
            apply_document_operator("XX", three_param_tool())

    def test_seed_forwarded(self):
        doc = three_param_tool()
        a, _ = apply_document_operator("CO", doc, seed=4)
        b, _ = apply_document_operator("CO", doc, seed=4)
        assert a == b


class TestDocumentProperties:
    """Seeded random sweeps across all six document operators."""

    def test_rd_property(self):
        rng = random.Random(101)
        for _ in range(500):
            doc = random_tool(rng)
            try:
                out, _ = apply_operator("RD", doc)
            except NoEffect:
                assert all(p.description == "" for p in doc.parameters if p.required)
                continue
            for before, after in zip(doc.parameters, out.parameters):
                if before.required:
                    assert after.description == ""
                else:
                    assert after.description == before.description

    def test_re_property(self):
        rng = random.Random(102)
        for _ in range(500):
            doc = random_tool(rng)
            try:
                out, _ = apply_operator("RE", doc)
            except NoEffect:
                assert not doc.usage_examples
                assert not any(p.has_example for p in doc.parameters)
                continue
            assert out.usage_examples == ()
            assert not any(p.has_example or p.example is not None for p in out.parameters)

    def test_wd_property(self):
        rng = random.Random(103)
        for _ in range(500):
            doc = random_tool(rng)
            donor = random_tool(rng, name="donor_pool_tool", min_params=1)
            pool_texts = {p.description for p in donor.parameters if p.description}
            try:
                out, record = substitute_foreign_descriptions(doc, donor_pool([donor]), seed=rng.randrange(999))
            except PerturbSkip:
                assert not pool_texts
                continue
            if not doc.parameters:
                assert out == doc
                continue
            collisions = set(record.details["collisions"])
            for before, after in zip(doc.parameters, out.parameters):
                assert after.description in pool_texts
                if before.name not in collisions:
                    assert after.description != before.description

    def test_sd_property(self):
        rng = random.Random(104)
        for _ in range(500):
            doc = random_tool(rng)
            try:
                out, record = apply_operator("SD", doc)
            except NoEffect:
                descriptions = {p.description for p in doc.parameters}
                assert len(doc.parameters) < 2 or len(descriptions) == 1
                continue
            changed = [
                i for i, (b, a) in enumerate(zip(doc.parameters, out.parameters))
                if b.description != a.description
            ]
            assert changed == record.details["pair"]
            assert len(changed) == 2
            i, j = record.details["pair"]
            assert swap_pair(out, i, j) == doc

    def test_co_property(self):
        rng = random.Random(105)
        for _ in range(500):
            doc = random_tool(rng)
            try:
                out, record = shuffle_descriptions(doc, seed=rng.randrange(999))
            except PerturbSkip:
                assert len(doc.parameters) < 2
                continue
            before = sorted(p.description for p in doc.parameters)
            after = sorted(p.description for p in out.parameters)
            assert before == after
            permutation = record.details["permutation"]
            assert permutation != sorted(permutation)

    def test_wt_property(self):
        rng = random.Random(106)
        for _ in range(500):
            doc = random_tool(rng)
            out, _ = corrupt_types(doc)
            for before, after in zip(doc.parameters, out.parameters):
                assert after.ptype != before.ptype
                assert after.ptype == TYPE_SUBSTITUTION[before.ptype]
