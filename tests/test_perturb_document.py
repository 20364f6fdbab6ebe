"""Tool-document operator tests: worked examples plus seeded property runs."""

import random

import pytest

from conftest import make_param, make_tool, random_tool, swap_pair
from paramfuzz.errors import (
    NoDistinctPair,
    NoDonor,
    NoExamples,
    NoRequiredParams,
    PerturbSkip,
    SchemaViolation,
    TooFewParams,
)
from paramfuzz.perturb import apply_document_operator
from paramfuzz.perturb.document import (
    TYPE_SUBSTITUTION,
    corrupt_types,
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
        with pytest.raises(NoRequiredParams):
            remove_required_descriptions(doc)


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
        with pytest.raises(NoExamples):
            remove_examples(doc)


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
        doc, record = substitute_foreign_descriptions(target, [target, donor], seed=5)
        donor_texts = {"Alpha donor text.", "Beta donor text.", "Gamma donor text."}
        assert all(p.description in donor_texts for p in doc.parameters)
        assert record.details["collisions"] == []
        assert len(record.details["assignments"]) == 3
        assert all(a["donor_tool"] == "other_tool" for a in record.details["assignments"])

    def test_same_seed_same_assignment(self):
        target = three_param_tool()
        donor = random_tool(random.Random(3), name="donor_tool", min_params=4)
        a, _ = substitute_foreign_descriptions(target, [donor], seed=11)
        b, _ = substitute_foreign_descriptions(target, [donor], seed=11)
        assert a == b

    def test_raises_without_donor_pool(self):
        target = three_param_tool()
        with pytest.raises(NoDonor):
            substitute_foreign_descriptions(target, [target], seed=0)

    def test_collision_recorded_when_pool_forces_identity(self):
        target = make_tool(parameters=(make_param("a", "string", "Same text."),))
        donor = make_tool("donor", parameters=(make_param("z", "string", "Same text."),))
        doc, record = substitute_foreign_descriptions(target, [donor], seed=0)
        assert doc.parameters[0].description == "Same text."
        assert record.details["collisions"] == ["a"]


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
        with pytest.raises(NoDistinctPair):
            swap_descriptions(doc)

    def test_single_param_skips(self):
        with pytest.raises(TooFewParams):
            swap_descriptions(make_tool(parameters=(make_param("a"),)))


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
                out, _ = remove_required_descriptions(doc)
            except PerturbSkip:
                assert not any(p.required for p in doc.parameters)
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
                out, _ = remove_examples(doc)
            except PerturbSkip:
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
                out, record = substitute_foreign_descriptions(doc, [donor], seed=rng.randrange(999))
            except PerturbSkip:
                assert not pool_texts
                assert doc.parameters
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
                out, record = swap_descriptions(doc)
            except PerturbSkip:
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
