import sys

import pytest
from hypothesis import given, settings, strategies as st

from motifswarm import cli, seqio
from motifswarm.errors import LinkError, ParseError, ValidationError
from motifswarm.seqio import (
    AMINO_ACIDS,
    Sequence,
    load_corpus,
    load_sample_corpus,
    map_ss8_to_ss3,
    parse_sequences,
    parse_structures,
)

from helpers import first_bad_residue_oracle, ss3_oracle

TWO_RECORD_FIXTURE = """\
>alpha some description
ACDEFGHIKL
MN
>beta
acdefghik
"""


def test_parse_single_minimal_record():
    seqs = parse_sequences(">s1\nACDEF\n")
    assert seqs == [Sequence(id="s1", residues="ACDEF")]


def test_parse_empty_text_gives_empty_list():
    assert parse_sequences("") == []


def test_parse_two_records_lengths_and_order():
    seqs = parse_sequences(TWO_RECORD_FIXTURE)
    assert [s.id for s in seqs] == ["alpha", "beta"]
    assert [len(s) for s in seqs] == [12, 9]


def test_parse_uppercases_and_joins_body_lines():
    seqs = parse_sequences(">x\nac d\n ef\n")
    assert seqs[0].residues == "ACDEF"


def test_body_before_header_is_parse_error_with_line():
    with pytest.raises(ParseError) as err:
        parse_sequences("ACDEF\n>s1\nACDEF\n")
    assert err.value.line == 1


def test_illegal_residue_names_id_and_position():
    with pytest.raises(ValidationError, match=r"'s1'.*'J'.*position 3"):
        parse_sequences(">s1\nACJDE\n")


@pytest.mark.parametrize("body,bad,pos", [
    ("AAAAAAAAA\u00df\u0131", "\u00df", 10),  # 'ß'.upper() == 'SS'
    ("ACD\u0131EF", "\u0131", 4),  # 'ı'.upper() == 'I'
    ("AC\u017fD", "\u017f", 3),  # 'ſ'.upper() == 'S'
    ("ACJ\u00dfD", "J", 3),  # the first illegal character is named
])
def test_non_ascii_rejected_before_uppercasing(body, bad, pos):
    with pytest.raises(ValidationError, match=f"'s1'.*{bad!r}.*position {pos}$"):
        parse_sequences(f">s1\n{body}\n")


def test_sequence_refuses_a_letter_outside_the_alphabet():
    with pytest.raises(ValidationError) as err:
        Sequence("b", "CCJCCCCCCC")
    assert str(err.value) == "sequence 'b': illegal residue 'J' at position 3"


def test_sequence_names_a_non_ascii_residue_as_it_is():
    with pytest.raises(ValidationError) as err:
        Sequence("s", "AAAAAAAAA\u00dfA")
    assert str(err.value) == "sequence 's': illegal residue '\u00df' at position 10"


def test_sequence_uppercases_and_equals_the_parsed_record():
    seq = Sequence("x", "acDEf")
    assert seq.residues == "ACDEF"
    assert parse_sequences(">x\nac DE\nf\n") == [seq]


# Characters that parse_sequences keeps inside one record line: no line
# breaks, no whitespace.
_BODY_CHARS = st.characters(
    blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")).filter(
    lambda c: not c.isspace())


@settings(max_examples=200, deadline=None)
@given(legal=st.text(alphabet=AMINO_ACIDS + AMINO_ACIDS.lower(), min_size=1,
                     max_size=40),
       inserts=st.lists(st.tuples(st.integers(0, 40), _BODY_CHARS), max_size=3))
def test_illegal_residue_message_matches_oracle(legal, inserts):
    body = legal
    for at, c in inserts:
        body = body[:at] + c + body[at:]
    text = f">s1\nA{body}\n"
    expected = first_bad_residue_oracle("A" + body)
    if expected is None:
        seqs = parse_sequences(text)
        assert len(seqs[0]) == len(body) + 1
    else:
        c, pos = expected
        with pytest.raises(ValidationError) as err:
            parse_sequences(text)
        assert str(err.value) == f"sequence 's1': illegal residue {c!r} at position {pos}"


def test_ambiguity_codes_rejected_by_default():
    for code in "BZXU":
        with pytest.raises(ValidationError, match=f"illegal residue '{code}' at position 5"):
            parse_sequences(f">s1\nACDE{code}\n")


def test_record_without_body_rejected():
    with pytest.raises(ValidationError):
        parse_sequences(">s1\n>s2\nACDEF\n")


@pytest.mark.parametrize(
    "code,expected",
    [("H", "H"), ("G", "H"), ("I", "H"), ("B", "E"), ("E", "E"),
     ("T", "C"), ("S", "C"), (" ", "C"), ("-", "C"), ("?", "C"), ("g", "H")],
)
def test_ss8_to_ss3_mapping(code, expected):
    assert map_ss8_to_ss3(code) == expected


def test_ss3_mapping_idempotent_on_own_output():
    for c in "HEC":
        assert map_ss8_to_ss3(c) == c


def test_parse_structures_characterwise_mapping():
    seqs = parse_sequences(">s1\nACDEF\n")
    structs = parse_structures(">s1\nHGIBE\n", seqs)
    assert structs == {"s1": "HHHEE"}


def test_parse_structures_blank_is_coil():
    seqs = parse_sequences(">s1\nACDEF\n")
    structs = parse_structures(">s1\nTTSS \n", seqs)
    assert structs == {"s1": "CCCCC"}


def test_structure_table_matches_mapping_on_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert every.translate(seqio._SS8_TO_SS3) == ss3_oracle(every)


@settings(max_examples=100, deadline=None)
@given(ss8=st.text(
    alphabet=st.one_of(st.sampled_from("HGIBETSC -?hgibetsc\u0131"),
                       st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))),
    min_size=1, max_size=60).filter(lambda s: not s.lstrip().startswith(">")))
def test_parse_structures_matches_oracle(ss8):
    # A line whose first non-blank character is '>' is a record header.
    seqs = [Sequence("s1", "A" * len(ss8))]
    structs = parse_structures(f">s1\n{ss8}\n", seqs)
    assert structs == {"s1": ss3_oracle(ss8)}


def test_structure_length_mismatch_names_both_lengths():
    seqs = parse_sequences(">s1\nACDEFGHIK\n")
    with pytest.raises(ValidationError, match=r"length 8.*length 9"):
        parse_structures(">s1\nHHHHHHHH\n", seqs)


def test_structure_for_unknown_sequence_is_link_error():
    seqs = parse_sequences(">s1\nACDEF\n")
    with pytest.raises(LinkError):
        parse_structures(">ghost\nHHHHH\n", seqs)


def test_repeated_structure_id_is_validation_error():
    seqs = parse_sequences(">s1\nACDEFGHIK\n>s2\nACDEFGHIK\n")
    with pytest.raises(ValidationError,
                       match=r"structure 's2' \(line 6\) is a repeated id"):
        parse_structures(">s2\nHHHHHHHHH\n>s1\nHHHHHHHHH\n>s2\nEEEEEEEEE\n", seqs)


def test_load_corpus_rejects_a_repeated_sequence_id(tmp_path):
    fasta = tmp_path / "seqs.fasta"
    fasta.write_text(">a\nACDEFGHIK\n>b\nACDEFGHIK\n>a first of two\nACDEFGHIK\n")
    with pytest.raises(ValidationError, match="sequence 'a' is a repeated id"):
        load_corpus(fasta)


def test_load_corpus_requires_window_length(tmp_path):
    fasta = tmp_path / "seqs.fasta"
    fasta.write_text(">tiny\nACDEF\n")
    with pytest.raises(ValidationError, match="tiny"):
        load_corpus(fasta)


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_load_corpus_rejects_a_file_without_records(tmp_path, text):
    fasta = tmp_path / "seqs.fasta"
    fasta.write_text(text)
    with pytest.raises(ValidationError, match=f"{fasta} holds no sequence records"):
        load_corpus(fasta)


def test_load_corpus_requires_matching_id_sets(tmp_path):
    fasta = tmp_path / "seqs.fasta"
    fasta.write_text(">a\nACDEFGHIK\n>b\nACDEFGHIK\n")
    structs = tmp_path / "ss.txt"
    structs.write_text(">a\nHHHHHHHHH\n")
    with pytest.raises(ValidationError, match="b"):
        load_corpus(fasta, structs)


def test_sample_corpus_loads_and_pairs():
    corpus = load_sample_corpus()
    assert len(corpus.sequences) >= 20
    assert corpus.structures is not None
    ids = {s.id for s in corpus.sequences}
    assert set(corpus.structures) == ids
    for seq in corpus.sequences:
        assert len(seq) >= 9
        assert set(seq.residues) <= set(AMINO_ACIDS)
        assert len(corpus.structures[seq.id]) == len(seq)


def test_header_directly_after_a_header_exits_2(tmp_path, capsys):
    """A header is never read as a structure string."""
    fasta, ss = tmp_path / "seqs.fasta", tmp_path / "ss.txt"
    fasta.write_text(">a\nACDEFGHIK\n")
    ss.write_text(">a\n>bbbbbbbb\n")
    with pytest.raises(ParseError) as err:
        load_corpus(fasta, ss)
    assert err.value.line == 1
    code = cli.main(["prepare", "--sequences", str(fasta), "--structures", str(ss),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == ("motifswarm: line 1: structure record 'a' "
                                       "has no structure string\n")


def test_further_structure_line_is_parse_error_at_its_line():
    seqs = parse_sequences(">a\nACDEFGHIK\n")
    with pytest.raises(ParseError, match="structure string before any") as err:
        parse_structures(">a\n\nHHHHHHHHH\n  \nHHHHHHHHH\n", seqs)
    assert err.value.line == 5


@pytest.mark.parametrize("text,line", [
    ("\n>\nACDEFGHIK\n", 2),  # a header without an id
    (">a\nACDEFGHIK\n>  \t\nACDEFGHIK\n", 3),
    ("\n \nACDEFGHIK\n>a\nACDEFGHIK\n", 3),  # data before the first header
    ("\t  ACD\n>a\nACDEFGHIK\n", 1),
])
def test_both_parsers_report_a_bad_header_or_stray_data_at_one_line(text, line):
    seqs = [Sequence("a", "ACDEFGHIK")]
    for parse in (parse_sequences, lambda t: parse_structures(t, seqs)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line
