from typing import Mapping

import pytest

from eventframes.fileio import read_records, typed, write_records


class TestTyped:
    @pytest.mark.parametrize(
        "annotation, value, expected",
        [
            (float, 3, 3.0),
            (float, 0.25, 0.25),
            (int, 3, 3),
            (bool, False, False),
            (str, "x", "x"),
            (float | None, None, None),
            (float | None, 0, 0.0),
            (str | int, 7, 7),
            (tuple[float, ...], [1, 2.5], (1.0, 2.5)),
            (tuple[str, ...], [], ()),
            (Mapping, {"kind": "lexical"}, {"kind": "lexical"}),
            (tuple[Mapping, ...], [{"kind": "lexical"}], ({"kind": "lexical"},)),
        ],
    )
    def test_value_in_the_form_the_field_holds(self, annotation, value, expected):
        converted = typed("x", annotation, value)
        assert converted == expected
        assert type(converted) is type(expected)

    @pytest.mark.parametrize(
        "annotation, value, message",
        [
            (float, True, "x must be a number, got True"),
            (float, "0.3", "x must be a number, got '0.3'"),
            (int, 3.0, "x must be an integer, got 3.0"),
            (int, False, "x must be an integer, got False"),
            (bool, 1, "x must be true or false, got 1"),
            (str, None, "x must be a string, got None"),
            (str | int, 1.5, "x must be a string or an integer, got 1.5"),
            (float | None, "a", "x must be a number or null, got 'a'"),
            (tuple[str, ...], "abc", "x must be a list (each item a string), got 'abc'"),
            (tuple[float, ...], [1, "2"], "x must be a list (each item a number), got [1, '2']"),
            (Mapping, [], "x must be an object, got []"),
        ],
    )
    def test_another_json_type_raises_naming_the_field(self, annotation, value, message):
        with pytest.raises(TypeError) as info:
            typed("x", annotation, value)
        assert str(info.value) == message


class TestReadRecords:
    def test_records_with_their_line_numbers(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": 1}\n\n  {"a": 2}  \n', encoding="utf-8")
        assert list(read_records(path, "thing", lambda r: r["a"])) == [(1, 1), (3, 2)]

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("[1]", "the line must be an object, got [1]"),
            ("{}", "no 'a' field"),
            ('{"a": "1"}', "a must be an integer, got '1'"),
            ('{"a": 1', "Expecting ',' delimiter: line 1 column 8 (char 7)"),
        ],
    )
    def test_a_bad_line_is_named(self, tmp_path, line, reason):
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            list(read_records(path, "thing", lambda r: typed("a", int, r["a"])))
        assert str(info.value) == f"{path}:2: bad thing: {reason}"


class TestWriteRecords:
    def test_lines_have_sorted_keys_and_raw_text(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(path, [{"b": "caf\u00e9", "a": 1}, {"a": "x\ny\u2028z\u0085"}])
        assert path.read_bytes() == (
            '{"a": 1, "b": "caf\u00e9"}\n{"a": "x\\ny\u2028z\u0085"}\n'.encode("utf-8")
        )
        records = [r for _, r in read_records(path, "thing", lambda r: r)]
        assert records == [{"a": 1, "b": "caf\u00e9"}, {"a": "x\ny\u2028z\u0085"}]
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]
