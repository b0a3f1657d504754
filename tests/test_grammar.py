import pytest

from mrsim.errors import ParseError
from mrsim.grammar import boolean, numbers, parse_number, read_blocks
from mrsim.phantom import parse_object_file
from mrsim.sequence import parse_sequence_file
from mrsim.system import parse_system_file

# each grammar's parser, one of its blocks and a valid parameter line of it
GRAMMARS = {
    "sequence": (parse_sequence_file, "elementary", "duration_s = 0.01"),
    "object": (parse_object_file, "shepp_logan", "scale_m = 0.1"),
    "system": (parse_system_file, "static_field", "b0_T = 1.5"),
}

# a file breaking one lexical rule, and the line the error names (None: accepted)
RULES = {
    "malformed_header": ("# header\n[{kind}\n{kv}\n", 2),
    "unknown_block": ("[{kind}]\n{kv}\n\n[bananas]\n", 4),
    "key_outside_block": ("\n{kv}\n[{kind}]\n{kv}\n", 2),
    "line_without_equals": ("[{kind}]\n{kv}\nbananas\n", 3),
    "unknown_key": ("[{kind}]\n{kv}\nbananas = 3\n", 3),
    "repeated_key": ("[{kind}]  # first\n{kv}\n# again\n{kv}\n", 4),
    "inner_spaces": ("[ {kind} ]\n{kv}\n", None),
}


@pytest.mark.parametrize("grammar", GRAMMARS)
@pytest.mark.parametrize("rule", RULES)
def test_lexical_rules_hold_in_every_grammar(rule, grammar):
    parse, kind, kv = GRAMMARS[grammar]
    template, line = RULES[rule]
    text = template.format(kind=kind, kv=kv)
    if line is None:
        parse(text)
        return
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line


def test_read_blocks_yields_values_with_their_lines():
    grammar = {"a": {"x": float, "v": numbers(3)}, "b": {"flag": boolean}}
    text = "[a]\nx = 2\nv = 1, 2 3\n[b]\nflag = TRUE\n[a]\nx = 3\n"
    assert list(read_blocks(text, grammar)) == [
        ("a", 1, {"x": (2.0, 2), "v": ((1.0, 2.0, 3.0), 3)}),
        ("b", 4, {"flag": (True, 5)}),
        ("a", 6, {"x": (3.0, 7)}),
    ]
    with pytest.raises(ParseError, match="already set at line 2") as err:
        list(read_blocks(text, grammar, file_wide=("a",)))
    assert err.value.line == 7


@pytest.mark.parametrize(
    "reader, value",
    [(numbers(3), "1 2"), (numbers(2, 3), "1,2,3,4"), (numbers(), ""), (numbers(), "1,x")],
)
def test_numbers_rejects_wrong_count_or_text(reader, value):
    with pytest.raises(ParseError, match="key") as err:
        parse_number(value, "key", 4, reader)
    assert err.value.line == 4


def test_boolean_rejects_other_words():
    assert [boolean(v) for v in ("true", "False", "1", "0")] == [True, False, True, False]
    with pytest.raises(ParseError, match="malformed value for flag: 'yes'"):
        parse_number("yes", "flag", None, boolean)
