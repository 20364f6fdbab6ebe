"""Tool-return operator tests: key renames, ID prefixing, format breaking."""

import json
import random

import pytest

from conftest import random_payload
from paramfuzz.corpus import ToolReturn
from paramfuzz.errors import NoEffect, NotJson, SchemaViolation
from paramfuzz.perturb import apply_return_operator
from paramfuzz.perturb.toolreturn import (
    camel_case_keys,
    corrupt_format,
    fuzz_keys,
    prefix_id_values,
    snake_case_keys,
    split_key_tokens,
    to_camel_case,
    to_snake_case,
)


def leaves(value):
    """Multiset of leaf values reachable in a JSON tree."""
    if isinstance(value, dict):
        out = []
        for item in value.values():
            out.extend(leaves(item))
        return out
    if isinstance(value, list):
        out = []
        for item in value:
            out.extend(leaves(item))
        return out
    return [value]


class TestKeyTokens:
    @pytest.mark.parametrize(
        "key, tokens",
        [
            ("user_id", ["user", "id"]),
            ("userId", ["user", "id"]),
            ("UserID", ["user", "id"]),
            ("HTTPResponse", ["http", "response"]),
            ("page2count", ["page", "2", "count"]),
            ("with-dash and space", ["with", "dash", "and", "space"]),
            ("", []),
            ("__", []),
        ],
    )
    def test_split(self, key, tokens):
        assert split_key_tokens(key) == tokens

    def test_camel(self):
        assert to_camel_case("user_id") == "userId"
        assert to_camel_case("HTTP_response_code") == "httpResponseCode"
        assert to_camel_case("") == ""

    def test_snake(self):
        assert to_snake_case("userId") == "user_id"
        assert to_snake_case("HTTPResponseCode") == "http_response_code"
        assert to_snake_case("already_snake") == "already_snake"


class TestFuzzKeys:
    def test_worked_example(self):
        ret = ToolReturn(payload={"name": "Alex", "count": 1665200})
        out, record = fuzz_keys(ret)
        assert out.payload == {"Object_1": "Alex", "Object_2": 1665200}
        assert record.details["renames"] == [
            {"path": [], "from": "name", "to": "Object_1"},
            {"path": [], "from": "count", "to": "Object_2"},
        ]

    def test_numbering_restarts_per_object(self):
        ret = ToolReturn(payload={"a": {"x": 1, "y": 2}, "b": {"z": 3}})
        out, _ = fuzz_keys(ret)
        assert out.payload == {
            "Object_1": {"Object_1": 1, "Object_2": 2},
            "Object_2": {"Object_1": 3},
        }

    def test_objects_inside_lists_reached(self):
        ret = ToolReturn(payload=[{"k": 1}, 2, [{"m": 3}]])
        out, _ = fuzz_keys(ret)
        assert out.payload == [{"Object_1": 1}, 2, [{"Object_1": 3}]]

    def test_one_objects_renames_share_one_path_list(self):
        ret = ToolReturn(payload={"a": {"x": 1, "y": 2}, "b": [{"z": 3}]})
        _, record = fuzz_keys(ret)
        renames = record.details["renames"]
        assert [r["path"] for r in renames] == [[], ["a"], ["a"], [], ["b", 0]]
        assert renames[1]["path"] is renames[2]["path"]
        assert renames[0]["path"] is renames[3]["path"]
        assert renames[0]["to"] is renames[1]["to"]
        assert json.loads(json.dumps(record.to_json())) == record.to_json()

    def test_no_objects_skips(self):
        ret = ToolReturn(payload=[1, 2, 3])
        assert fuzz_keys(ret)[0] == ret
        with pytest.raises(NoEffect):
            apply_return_operator("FK", ret)

    def test_raw_text_skips(self):
        with pytest.raises(NotJson):
            fuzz_keys(ToolReturn(raw_text="plain"))


class TestPrefixIdValues:
    def test_worked_example(self):
        ret = ToolReturn(
            payload={"user_id": 123, "items": [{"item_id": "a7"}], "no": 1}
        )
        out, record = prefix_id_values(ret)
        assert out.payload == {
            "user_id": "ID_123",
            "items": [{"item_id": "ID_a7"}],
            "no": 1,
        }
        assert record.details["modified_paths"] == [
            ["user_id"], ["items", 0, "item_id"],
        ]

    def test_key_shapes(self):
        ret = ToolReturn(payload={
            "id": 1, "ID": 2, "Id": 3, "threadId": 4, "thread_id": 5,
            "threadID": 6, "identity": 7, "idol": 8, "valid": 9,
        })
        out, _ = prefix_id_values(ret)
        prefixed = {k for k, v in out.payload.items()
                    if isinstance(v, str) and v.startswith("ID_")}
        assert prefixed == {"id", "ID", "Id", "threadId", "thread_id", "threadID"}

    def test_non_string_values_canonicalized(self):
        ret = ToolReturn(payload={"id": {"a": 1.0}})
        out, _ = prefix_id_values(ret)
        assert out.payload["id"] == 'ID_{"a":1}'

    def test_no_id_fields_skips(self):
        ret = ToolReturn(payload={"name": "x"})
        assert prefix_id_values(ret)[0] == ret
        with pytest.raises(NoEffect):
            apply_return_operator("AP", ret)

    def test_raw_text_skips(self):
        with pytest.raises(NotJson):
            prefix_id_values(ToolReturn(raw_text="plain"))


class TestRespell:
    def test_camel_worked_example(self):
        ret = ToolReturn(payload={"result_id": 7, "page_count": 1})
        out, record = camel_case_keys(ret)
        assert out.payload == {"resultId": 7, "pageCount": 1}
        assert len(record.details["renames"]) == 2

    def test_snake_worked_example(self):
        ret = ToolReturn(payload={"resultId": 7, "pageCount": 1})
        out, _ = snake_case_keys(ret)
        assert out.payload == {"result_id": 7, "page_count": 1}

    def test_identity_when_already_styled(self):
        ret = ToolReturn(payload={"result_id": 7})
        out, record = snake_case_keys(ret)
        assert out.payload == ret.payload
        assert record.details["renames"] == []
        with pytest.raises(NoEffect):
            apply_return_operator("UK", ret)

    def test_collision_later_key_wins(self):
        ret = ToolReturn(payload={"user_id": 1, "userId": 2})
        out, record = camel_case_keys(ret)
        assert out.payload == {"userId": 2}
        assert record.details["collisions"] == [{"path": [], "key": "userId"}]

    def test_raw_text_skips(self):
        with pytest.raises(NotJson):
            camel_case_keys(ToolReturn(raw_text="x"))
        with pytest.raises(NotJson):
            snake_case_keys(ToolReturn(raw_text="x"))


class TestCorruptFormat:
    def test_object_worked_example(self):
        ret = ToolReturn(payload={"a": 1})
        out, record = corrupt_format(ret)
        assert out.raw_text == '{"a":1...'
        assert out.payload is None
        assert record.details["serialized_length"] == len('{"a":1}')

    def test_output_never_parses_for_containers(self):
        for payload in ({"a": 1}, [], {}, [1, [2]], {"deep": {"x": [True]}}):
            out, _ = corrupt_format(ToolReturn(payload=payload))
            with pytest.raises(json.JSONDecodeError):
                json.loads(out.raw_text)

    def test_raw_text_skips(self):
        with pytest.raises(NotJson):
            corrupt_format(ToolReturn(raw_text="already text"))


class TestDispatcher:
    def test_routes_all_five(self):
        # A key that every operator changes: CK and UK both respell it.
        ret = ToolReturn(payload={"Result_ID": 1})
        for operator in ("FK", "AP", "CK", "UK", "CF"):
            out, record = apply_return_operator(operator, ret)
            assert record.operator == operator

    def test_unknown_id_rejected(self):
        with pytest.raises(SchemaViolation):
            apply_return_operator("ZZ", ToolReturn(payload={}))


class TestReturnProperties:
    def test_fk_preserves_leaf_multiset(self):
        rng = random.Random(301)
        done = 0
        while done < 500:
            payload = random_payload(rng)
            try:
                out, _ = apply_return_operator("FK", ToolReturn(payload=payload))
            except NoEffect:
                continue
            assert sorted(map(repr, leaves(out.payload))) == sorted(map(repr, leaves(payload)))
            assert json.dumps(out.payload)  # still serializable JSON
            done += 1

    @pytest.mark.parametrize("respell", [camel_case_keys, snake_case_keys])
    def test_respell_preserves_leaves_and_idempotent(self, respell):
        rng = random.Random(302)
        done = 0
        while done < 500:
            payload = random_payload(rng)
            if not isinstance(payload, (dict, list)):
                continue
            once, record = respell(ToolReturn(payload=payload))
            assert "collisions" not in record.details, "generator must avoid collisions"
            assert sorted(map(repr, leaves(once.payload))) == sorted(map(repr, leaves(payload)))
            twice, second = respell(once)
            assert twice.payload == once.payload
            assert second.details["renames"] == []
            done += 1

    def test_cf_breaks_parseability(self):
        rng = random.Random(303)
        done = 0
        while done < 500:
            payload = random_payload(rng)
            if not isinstance(payload, (dict, list)):
                continue
            out, _ = corrupt_format(ToolReturn(payload=payload))
            with pytest.raises(json.JSONDecodeError):
                json.loads(out.raw_text)
            done += 1

    def test_ap_prefixes_every_id_key(self):
        rng = random.Random(304)
        done = 0
        while done < 300:
            payload = random_payload(rng)
            # Decorate some dict keys into ID spellings first.
            def idify(value, depth=0):
                if isinstance(value, dict):
                    out = {}
                    for i, (k, v) in enumerate(value.items()):
                        key = f"{k}_id" if i % 2 == 0 else k
                        out[key] = idify(v, depth + 1)
                    return out
                if isinstance(value, list):
                    return [idify(v, depth + 1) for v in value]
                return value

            payload = idify(payload)
            try:
                out, record = apply_return_operator("AP", ToolReturn(payload=payload))
            except NoEffect:
                assert not any(k.endswith("_id") for k in map(repr, leaves(payload)))
                continue

            def check(value, expect_prefixed):
                if isinstance(value, dict):
                    for k, v in value.items():
                        check(v, k == "id" or k.lower().endswith("_id")
                              or k.endswith("Id") or k.endswith("ID"))
                elif isinstance(value, list):
                    for v in value:
                        check(v, False)
                else:
                    if expect_prefixed:
                        assert isinstance(value, str) and value.startswith("ID_")

            check(out.payload, False)
            done += 1
