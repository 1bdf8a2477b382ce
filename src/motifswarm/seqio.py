"""Parsing of protein sequences and secondary-structure annotations.

Both files hold '>' records: a header line whose first non-blank character
is ``>`` (the id is the first whitespace-delimited token), then body lines.
A sequence record's body lines are concatenated. A structure record's body
is one 8-class structure string of the same length as the sequence; the 8
classes are collapsed to the 3-class H/E/C alphabet on load.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from pathlib import Path

import numpy as np

from .errors import ContractError, InputError, LinkError, ParseError, ValidationError

#: Canonical one-letter amino-acid alphabet. This ordering is used for the
#: columns of every frequency matrix produced by the package.
AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"
_RESIDUE_BYTES = AMINO_ACIDS.encode("ascii")

#: Three-class secondary structure alphabet: helix, sheet, coil.
SS3_CLASSES = "HEC"

#: Minimum sequence length accepted by corpus loading; shorter sequences
#: produce no complete window and are rejected.
MIN_SEQUENCE_LENGTH = 9


@dataclass(frozen=True)
class Sequence:
    """A protein sequence: id plus residues over the 20-letter alphabet,
    uppercased on construction; any other character is a ValidationError."""

    id: str
    residues: str

    def __post_init__(self):
        # str.upper turns some non-ASCII letters into legal ones ('ß' -> 'SS',
        # 'ı' -> 'I'), so they become '?' first, which keeps every position; the
        # check then deletes the 20 letters from the bytes in one C pass. A str
        # of upper-case letters alone leaves nothing and is kept as it is.
        residues = self.residues.encode("ascii", "replace")
        if type(self.residues) is str and not residues.translate(None, _RESIDUE_BYTES):
            return
        residues = residues.upper()
        illegal = residues.translate(None, _RESIDUE_BYTES)
        if illegal:
            pos = residues.index(illegal[0])
            c = chr(illegal[0]) if self.residues[pos].isascii() else self.residues[pos]
            raise ValidationError(
                f"sequence '{self.id}': illegal residue {c!r} at position {pos + 1}")
        object.__setattr__(self, "residues", residues.decode("ascii"))

    def __len__(self) -> int:
        return len(self.residues)


class _CoilByDefault(dict):
    """str.translate table: every code point it does not hold maps to C."""

    def __missing__(self, code_point: int) -> str:
        return "C"


#: The 8-to-3 class collapse, in either case: H, G and I (helices) map to H,
#: B and E (sheets) to E, and every other character (coils, blanks, unknown
#: codes) to C. Dotless i maps to H too, since 'ı'.upper() == 'I'.
_SS8_TO_SS3 = _CoilByDefault({ord(c): "H" for c in "GHIghi\u0131"}
                             | {ord(c): "E" for c in "BEbe"})


def _sequence(seq_id: str, header_line: int, body: list[str]) -> Sequence:
    """The Sequence of one record: its body lines joined with all whitespace
    removed; an empty body is a ValidationError naming the header line."""
    body = "".join("".join(body).split())
    if not body:
        raise ValidationError(
            f"sequence '{seq_id}' (header at line {header_line}) has no residues")
    return Sequence(seq_id, body)


def _byte_codes(alphabet: str) -> bytes:
    """bytes.translate table from an ASCII byte to its index in alphabet;
    every other byte maps to len(alphabet)."""
    table = bytearray([len(alphabet)]) * 256
    for code, byte in enumerate(alphabet.encode("ascii")):
        table[byte] = code
    return bytes(table)


_CODE_TABLES = {AMINO_ACIDS: _byte_codes(AMINO_ACIDS),
                SS3_CLASSES: _byte_codes(SS3_CLASSES)}


def _codes(text: str, alphabet: str) -> np.ndarray:
    """The uint8 index of each character of text in alphabet (AMINO_ACIDS or
    SS3_CLASSES), len(alphabet) for any other character, by one translate
    of the ASCII bytes of text. The array is read-only."""
    return np.frombuffer(text.encode("ascii", "replace").translate(_CODE_TABLES[alphabet]),
                         dtype=np.uint8)


def encode(text: str, alphabet: str = AMINO_ACIDS) -> np.ndarray:
    """_codes of text in alphabet (AMINO_ACIDS or SS3_CLASSES).

    Raises ContractError naming the first character outside the alphabet.
    """
    codes = _codes(text, alphabet)
    if codes.size and codes.max() == len(alphabet):
        pos = int(np.argmax(codes == len(alphabet)))
        raise ContractError(
            f"character {text[pos]!r} at position {pos + 1} is not in {alphabet!r}")
    return codes


def _records(text: str, stray: str):
    """Yield (id, header line number, body lines) for each '>' record of text.

    A header is a line whose first non-blank character is '>', and its first
    token is the id. The body is the raw lines up to the next header. A
    header without an id is a ParseError, and so is a non-blank line before
    the first header, with stray.format(its first 20 characters) as message.
    """
    lines = text.splitlines()
    starts = list(compress(count(), map(str.startswith, map(str.lstrip, lines), repeat(">"))))
    lead = lines[:starts[0]] if starts else lines
    bad = next(filter(str.strip, lead), None)
    if bad is not None:
        raise ParseError(stray.format(bad.strip()[:20]), line=lead.index(bad) + 1)
    for start, end in zip(starts, starts[1:] + [len(lines)]):
        tokens = lines[start].lstrip()[1:].split(None, 1)
        if not tokens:
            raise ParseError("record header '>' carries no id", line=start + 1)
        yield tokens[0], start + 1, lines[start + 1:end]


def parse_sequences(text: str) -> list[Sequence]:
    """Parse FASTA-style record text into Sequence objects, in record order.

    The first character outside the 20 letters (in either case) is a
    ValidationError naming it and its 1-based position.
    """
    stray = "residue data {!r} before any record header"
    return [_sequence(*record) for record in _records(text, stray)]


def parse_structures(text: str, sequences: list[Sequence]) -> dict[str, str]:
    """Parse id + 8-class structure-string records into a dict from each id
    to its H/E/C string, in record order.

    A record's structure string is its first non-empty body line, taken raw
    (blank is a legal 8-class code); a record without one, or with a further
    non-blank line, is a ParseError. Each id must match a parsed sequence
    (LinkError) and occur once, and the string must have the sequence's
    length (ValidationError naming the id, and both lengths).
    """
    stray = "structure string before any record header"
    length = {s.id: len(s.residues) for s in sequences}
    structures: dict[str, str] = {}
    for struct_id, header_line, body in _records(text, stray):
        strings = list(filter(None, body))
        if not strings:
            raise ParseError(f"structure record '{struct_id}' has no structure string",
                             line=header_line)
        ss8 = strings[0]
        if struct_id not in length or struct_id in structures:
            at = f"structure '{struct_id}' (line {header_line + 1 + body.index(ss8)})"
            if struct_id in structures:
                raise ValidationError(f"{at} is a repeated id")
            raise LinkError(f"{at} has no matching sequence")
        if len(ss8) != length[struct_id]:
            raise ValidationError(f"structure '{struct_id}': length {len(ss8)} does not "
                                  f"match sequence length {length[struct_id]}")
        structures[struct_id] = ss8.translate(_SS8_TO_SS3)
        extra = next(filter(str.strip, strings[1:]), None)
        if extra is not None:
            after = body.index(ss8) + 1
            raise ParseError(stray, line=header_line + 1 + body.index(extra, after))
    return structures


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, less a leading byte-order mark; a file that
    does not decode is an InputError naming it. OSError passes through."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


@dataclass
class Corpus:
    """Parsed sequences plus (optionally) the H/E/C string of each, by id."""

    sequences: list[Sequence]
    structures: dict[str, str] | None = None


def load_corpus(sequence_path: str | Path, structure_path: str | Path | None) -> Corpus:
    """Load and cross-validate a sequence file and optional structure file.

    A file without records is rejected, and so are a repeated sequence id and
    a sequence shorter than MIN_SEQUENCE_LENGTH: it yields no complete
    window. When structures are supplied, the set of structure ids must equal
    the set of sequence ids.
    """
    sequences = parse_sequences(read_text(sequence_path))
    if not sequences:
        raise ValidationError(f"{sequence_path} holds no sequence records")
    seen: set[str] = set()
    for seq in sequences:
        if seq.id in seen:
            raise ValidationError(f"sequence '{seq.id}' is a repeated id")
        seen.add(seq.id)
        if len(seq) < MIN_SEQUENCE_LENGTH:
            raise ValidationError(
                f"sequence '{seq.id}' has length {len(seq)} < minimum "
                f"{MIN_SEQUENCE_LENGTH}"
            )
    structures = None
    if structure_path is not None:
        structures = parse_structures(read_text(structure_path), sequences)
        missing = [s.id for s in sequences if s.id not in structures]
        if missing:
            raise ValidationError(
                f"no structure annotation for sequence(s): {', '.join(missing[:5])}"
            )
    return Corpus(sequences=sequences, structures=structures)


def sample_corpus_paths() -> tuple[Path, Path]:
    """Paths of the bundled sample corpus (sequences, structures)."""
    root = Path(__file__).parent / "data" / "sample_corpus"
    return root / "sequences.fasta", root / "structures.txt"


def load_sample_corpus() -> Corpus:
    """Load the small corpus that ships with the package."""
    seq_path, struct_path = sample_corpus_paths()
    return load_corpus(seq_path, struct_path)
