import pytest

from praline import (
    Atom,
    ConflictError,
    ParseError,
    ProbabilityRangeError,
    infer_correlation_classes,
    parse,
)
from praline.frontend import format_bits, parse_bits

from conftest import layered_source


def test_parse_marginal():
    prog = parse("0.7::edge(5,7).")
    assert len(prog.input_probs) == 1
    d = prog.input_probs[0]
    assert d.is_marginal
    assert d.prob == 0.7
    assert d.head == Atom("edge", (5, 7))


def test_parse_rule_with_prob_one():
    prog = parse("1::path(X,Y) :- edge(X,Y).")
    assert len(prog.rules) == 1
    r = prog.rules[0]
    assert r.prob == 1.0
    assert r.head.functor == "path"
    assert len(r.body) == 1 and not r.body[0].negated


def test_parse_rule_prob_omitted():
    prog = parse("path(X,Y) :- edge(X,Y).")
    assert prog.rules[0].prob == 1.0


def test_prob_out_of_range():
    with pytest.raises(ProbabilityRangeError):
        parse("1.5::a.")


def test_parse_conditional_and_negation():
    prog = parse("0.8::a|b, \\+c.")
    d = prog.input_probs[0]
    assert not d.is_marginal
    assert [l.negated for l in d.givens] == [False, True]


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("0.5::a")  # missing period
    with pytest.raises(ParseError):
        parse("0.5::f(X).")  # declarations must be ground
    with pytest.raises(ParseError):
        parse("@@@")


@pytest.mark.parametrize("src, error, message", [
    ("0.5::a.\n  % note\n   @b.", ParseError,
     "parse error at 3:4: unexpected character '@'"),
    ("0.5::a.%c\n%d\n  0.3::b!", ParseError,
     "parse error at 3:9: unexpected character '!'"),
    ("0.5::a", ParseError,
     "parse error at 1:7: expected '.', '|' or ':-', got ''"),
    ("query(a", ParseError, "parse error at 1:8: expected ')', got ''"),
    ("0.5::a.\nX(1) :- a.", ParseError,
     "parse error at 2:1: unexpected token 'X'"),
    ("corr(a, X(1)).", ParseError,
     "parse error at 1:9: atom cannot start with a variable: 'X'"),
    ("0.5::f(1.5).", ParseError,
     "parse error at 1:8: float terms are not supported"),
    ("2 :: Class(a). 1.5::Class(b).", ParseError,
     "parse error at 1:16: class id must be a nonnegative integer, got 1.5"),
    ("1.5::a.", ProbabilityRangeError,
     "probability 1.5 out of [0,1] at line 1"),
    ("0.5::a.\n\n  2::b.", ProbabilityRangeError,
     "probability 2 out of [0,1] at line 3"),
    (":- a.", ParseError, "parse error at 1:1: unexpected token ':-'"),
    ("0.5::a.\n\n  q(X) :- .", ParseError,
     "parse error at 3:11: expected an atom, got '.'"),
    ("a(1,).", ParseError, "parse error at 1:5: expected a term, got ')'"),
], ids=["bad_char_after_comment", "bad_char_after_comments", "missing_period",
        "unclosed_query", "variable_functor", "variable_functor_in_corr",
        "float_term", "bad_class_id", "probability_range",
        "probability_range_line", "leading_neck", "empty_body",
        "missing_term"])
def test_parse_error_messages(src, error, message):
    with pytest.raises(error) as exc:
        parse(src)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_atoms_are_shared():
    # one Atom per distinct atom: a rule's body atom is the head of the
    # rule, or the input declaration, that defines it
    prog = parse(layered_source())
    defined = {r.head: r.head for r in prog.rules}
    defined.update((d.head, d.head) for d in prog.input_probs)
    body = [l.atom for r in prog.rules for l in r.body]
    assert len(body) == 2 * len(prog.rules)
    assert all(a is defined[a] for a in body)
    assert len({id(a) for a in body}) == len(set(body))


def test_comments_and_whitespace():
    prog = parse("% a comment\n0.5::a.  % trailing\n\n0.4::b.\n")
    assert len(prog.input_probs) == 2


def test_classes_roads(roads):
    members = [c.members for c in roads.classes]
    assert members[0] == (Atom("edge", (5, 7)),)
    assert members[1] == (Atom("edge", (1, 2)),)
    assert members[2] == (Atom("edge", (6, 7)),)
    assert members[3] == (
        Atom("edge", (2, 5)),
        Atom("edge", (1, 4)),
        Atom("edge", (2, 6)),
    )
    assert [c.ordinal for c in roads.classes] == [1, 2, 3, 4]
    assert all(c.class_id == -1 for c in roads.classes)


def test_marginals_only_all_singletons():
    prog = parse("0.5::a. 0.4::b. 0.3::c.")
    assert len(prog.classes) == 3
    assert all(len(c) == 1 for c in prog.classes)


def test_conditional_chain_single_class():
    prog = parse("0.5::a. 0.5::b. 0.5::c. 0.5::a|b. 0.5::b|c.")
    assert len(prog.classes) == 1
    assert prog.classes[0].members == (Atom("a"), Atom("b"), Atom("c"))


def test_corr_declaration_merges():
    prog = parse("0.5::a. 0.5::b. corr(a, b).")
    assert len(prog.classes) == 1


def test_explicit_class_ids():
    prog = parse("0.5::a. 0.5::b. 1::Class(a). 1::Class(b).")
    assert len(prog.classes) == 1
    assert prog.classes[0].class_id == 1


def test_conflicting_class_placement():
    with pytest.raises(ConflictError):
        parse("0.5::a. 1::Class(a). 2::Class(a).")
    with pytest.raises(ConflictError):
        # a and b are linked by a conditional but declared into different classes
        parse("0.5::a. 0.5::b. 0.5::a|b. 1::Class(a). 2::Class(b).")


def test_inference_idempotent(roads):
    before = [c.members for c in roads.classes]
    again = infer_correlation_classes(roads)
    assert [c.members for c in again.classes] == before


def test_classes_partition_input_facts(roads):
    covered = [m for c in roads.classes for m in c.members]
    assert sorted(map(str, covered)) == sorted(map(str, roads.input_facts))
    assert len(covered) == len(set(covered))


def test_queries(roads):
    assert Atom("path", (1, 7)) in roads.queries


def test_bits_roundtrip():
    assert format_bits(3, 3) == "110"
    assert format_bits(0, 2) == "00"
    assert parse_bits("110") == 3
    for v in range(16):
        assert parse_bits(format_bits(v, 4)) == v
