"""The contract of the shape-expression parser, beyond the cases in test_shapecheck.py."""

import json
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harxlab import shapecheck
from harxlab.errors import ParseError

GOLDEN = Path(__file__).parent / "golden"

# every token kind, pairs that meet at a token boundary, and characters no token starts with
FRAGMENTS = [
    "a", "Psi_1", "x2", "0", "2.5", "3e2", "1.5E-3", "+", "-", "*", ".*", "'", "^.", "(", ")", "|", " ",
    ".", "^", "é", "\t", "1.", "e",
]


@given(st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join))
@settings(max_examples=500, deadline=None)
def test_any_text_parses_or_fails_at_a_position_inside_it(text):
    try:
        node = shapecheck.parse_expr(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
        assert str(exc) == f"parse error at position {exc.position}: expected {exc.expected}"
    else:
        assert isinstance(node, shapecheck.Expr)


def test_the_audited_texts_parse_to_their_golden_trees(monkeypatch):
    # every text the audit parses, in order, with the repr of its tree
    parsed = []

    def recording(text):
        node = parse(text)
        parsed.append([text, repr(node)])
        return node

    parse = shapecheck.parse_expr
    monkeypatch.setattr(shapecheck, "parse_expr", recording)
    shapecheck.audit_corpus()
    assert parsed == json.loads((GOLDEN / "corpus_asts.json").read_text(encoding="utf-8"))
    assert len(parsed) == 9  # the eq8 summand, eq23, eq24, both sides of eq25, eq27 and three positions of F


# nesting past the recursion limit: 3,000 brackets of either kind, 400 bracketed exponents, 5,000 signs
@pytest.mark.parametrize("text", [
    "(" * 3000 + "a" + ")" * 3000,
    "|" * 3000 + "a" + "|" * 3000,
    "a^.(" * 400 + "a" + ")" * 400,
    "-" * 5000 + "a",
], ids=["brackets", "bars", "exponents", "signs"])
def test_nesting_past_the_recursion_limit_is_a_parse_error(text):
    with pytest.raises(ParseError, match="recursion limit") as exc:
        shapecheck.parse_expr(text)
    assert 0 <= exc.value.position <= len(text)


def parse_on_a_fresh_stack(text):
    # a new thread's stack starts empty, as a script's does, so pytest's own frames do not count
    trees = []
    thread = threading.Thread(target=lambda: trees.append(shapecheck.parse_expr(text)))
    thread.start()
    thread.join()
    return trees[0]


def test_247_nested_brackets_still_parse():
    assert parse_on_a_fresh_stack("(" * 247 + "a" + ")" * 247) == shapecheck.Sym("a")
    tree = shapecheck.Sym("a")
    for _ in range(247):
        tree = shapecheck.ElemAbs(tree)
    assert parse_on_a_fresh_stack("|" * 247 + "a" + "|" * 247) == tree


def nested_bars(depth, name="a"):
    """The tree of ``"|-" * depth + name + "|" * depth``, built without the parser."""
    tree = shapecheck.Sym(name)
    for _ in range(depth):
        tree = shapecheck.ElemAbs(shapecheck.Mul(shapecheck.ScalarLit(-1.0), tree))
    return tree


@pytest.mark.parametrize("depth", [170, 2000])
def test_deep_trees_print_compare_and_hash(depth):
    tree = nested_bars(depth)
    if depth == 170:
        assert parse_on_a_fresh_stack("|-" * depth + "a" + "|" * depth) == tree
    assert repr(tree) == "ElemAbs(a=Mul(a=ScalarLit(value=-1.0), b=" * depth + "Sym(name='a')" + "))" * depth
    assert tree == nested_bars(depth) and hash(tree) == hash(nested_bars(depth))
    assert tree != nested_bars(depth, "b") and tree != nested_bars(depth - 1)
