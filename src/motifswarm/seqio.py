"""Parsing of protein sequences and secondary-structure annotations.

Sequence files are FASTA-style: a header line starting with ``>`` (the id is
the first whitespace-delimited token), followed by residue lines that are
concatenated. Structure files pair each id with an 8-class structure string
of the same length as the sequence; the 8 classes are collapsed to the
3-class H/E/C alphabet on load.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, InputError, LinkError, ParseError, ValidationError

#: Canonical one-letter amino-acid alphabet. This ordering is used for the
#: columns of every frequency matrix produced by the package.
AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"

#: Three-class secondary structure alphabet: helix, sheet, coil.
SS3_CLASSES = "HEC"

#: Minimum sequence length accepted by corpus loading; shorter sequences
#: produce no complete window and are rejected.
MIN_SEQUENCE_LENGTH = 9


@dataclass(frozen=True)
class Sequence:
    """A validated protein sequence: id plus residues over the 20-letter alphabet."""

    id: str
    residues: str

    def __len__(self) -> int:
        return len(self.residues)


def map_ss8_to_ss3(code: str) -> str:
    """Collapse an 8-class structure character to H, E or C.

    H, G and I map to H (helices); B and E map to E (sheets); every other
    character, including blanks and unknown codes, maps to C (coils).
    """
    c = code.upper()
    if c in "HGI":
        return "H"
    if c in "BE":
        return "E"
    return "C"


class _CoilByDefault(dict):
    """str.translate table: every code point it does not hold maps to C."""

    def __missing__(self, code_point: int) -> str:
        return "C"


#: The code points map_ss8_to_ss3 sends to H or E: the five letters in both
#: cases, plus dotless i, since 'ı'.upper() == 'I'.
_SS8_TO_SS3 = _CoilByDefault(
    {ord(c): map_ss8_to_ss3(c) for c in "BEGHIbeghi\u0131"})

_DELETE_RESIDUES = dict.fromkeys(map(ord, AMINO_ACIDS))


def _validate_residues(seq_id: str, body: str) -> str:
    """Uppercase body and check it against the 20-letter alphabet."""
    # str.upper turns some non-ASCII letters into legal ones ('ß' -> 'SS',
    # 'ı' -> 'I'), so they become '?' first, which keeps every position.
    residues = body.encode("ascii", "replace").decode("ascii").upper()
    illegal = residues.translate(_DELETE_RESIDUES)
    if illegal:
        pos = residues.index(illegal[0])
        c = illegal[0] if body[pos].isascii() else body[pos]
        raise ValidationError(
            f"sequence '{seq_id}': illegal residue {c!r} at position {pos + 1}"
        )
    return residues


def _byte_codes(alphabet: str) -> np.ndarray:
    """256-entry lookup from an ASCII byte to its index in alphabet; every
    other byte maps to len(alphabet)."""
    table = np.full(256, len(alphabet), dtype=np.intp)
    table[list(alphabet.encode("ascii"))] = np.arange(len(alphabet))
    return table


_CODE_TABLES = {AMINO_ACIDS: _byte_codes(AMINO_ACIDS),
                SS3_CLASSES: _byte_codes(SS3_CLASSES)}


def encode(text: str, alphabet: str = AMINO_ACIDS) -> np.ndarray:
    """Index of each character of text in alphabet (AMINO_ACIDS or
    SS3_CLASSES), by one table lookup on the ASCII bytes of text.

    Raises ContractError naming the first character outside the alphabet.
    """
    codes = _CODE_TABLES[alphabet][
        np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)]
    if codes.size and codes.max() == len(alphabet):
        pos = int(np.argmax(codes == len(alphabet)))
        raise ContractError(
            f"character {text[pos]!r} at position {pos + 1} is not in {alphabet!r}")
    return codes


def parse_sequences(text: str) -> list[Sequence]:
    """Parse FASTA-style record text into a list of Sequence objects.

    Residues are whitespace-stripped and uppercased; the first character
    outside the 20 letters (in either case) is a ValidationError naming it
    and its 1-based position. Record order is preserved.
    """
    sequences: list[Sequence] = []
    current_id: str | None = None
    current_body: list[str] = []
    header_line = 0

    def flush() -> None:
        if current_id is None:
            return
        body = "".join(current_body)
        if not body:
            raise ValidationError(
                f"sequence '{current_id}' (header at line {header_line}) has no residues"
            )
        residues = _validate_residues(current_id, body)
        sequences.append(Sequence(id=current_id, residues=residues))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            tokens = line[1:].split()
            if not tokens:
                raise ParseError("record header '>' carries no id", line=lineno)
            current_id = tokens[0]
            current_body = []
            header_line = lineno
        else:
            if current_id is None:
                raise ParseError(
                    f"residue data {line[:20]!r} before any record header", line=lineno
                )
            current_body.append("".join(line.split()))
    flush()
    return sequences


def parse_structures(text: str, sequences: list[Sequence]) -> dict[str, str]:
    """Parse id + 8-class structure-string records into a dict from each id
    to its H/E/C string, in record order.

    Every structure id must match a parsed sequence (LinkError otherwise),
    occur once (ValidationError naming it), and the string length must equal
    the sequence length (ValidationError naming the id and both lengths).
    """
    by_id = {s.id: s for s in sequences}
    structures: dict[str, str] = {}
    current_id: str | None = None
    header_line = 0

    def add(struct_id: str, ss8: str, lineno: int) -> None:
        if struct_id not in by_id:
            raise LinkError(
                f"structure '{struct_id}' (line {lineno}) has no matching sequence"
            )
        if struct_id in structures:
            raise ValidationError(
                f"structure '{struct_id}' (line {lineno}) is a repeated id")
        seq = by_id[struct_id]
        if len(ss8) != len(seq):
            raise ValidationError(
                f"structure '{struct_id}': length {len(ss8)} does not match "
                f"sequence length {len(seq)}"
            )
        structures[struct_id] = ss8.translate(_SS8_TO_SS3)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if current_id is None:
            if not line.strip():
                continue
            if not line.lstrip().startswith(">"):
                raise ParseError(
                    "structure string before any record header", line=lineno
                )
            tokens = line.lstrip()[1:].split()
            if not tokens:
                raise ParseError("record header '>' carries no id", line=lineno)
            current_id = tokens[0]
            header_line = lineno
        else:
            # Blank (space) is a legal 8-class code, so the structure string
            # is taken raw; only fully empty lines are skipped.
            if not line:
                continue
            add(current_id, line, lineno)
            current_id = None
    if current_id is not None:
        raise ParseError(
            f"structure record '{current_id}' has no structure string",
            line=header_line,
        )
    return structures


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; a file that does not decode is an
    InputError naming it. OSError passes through."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


@dataclass
class Corpus:
    """Parsed sequences plus (optionally) the H/E/C string of each, by id."""

    sequences: list[Sequence]
    structures: dict[str, str] | None = None


def load_corpus(
    sequence_path: str | Path, structure_path: str | Path | None = None
) -> Corpus:
    """Load and cross-validate a sequence file and optional structure file.

    A file without records is rejected, and so are a repeated sequence id and
    a sequence shorter than MIN_SEQUENCE_LENGTH: it yields no complete
    window. When structures are supplied, the set of structure ids must equal
    the set of sequence ids.
    """
    seq_text = read_text(sequence_path)
    sequences = parse_sequences(seq_text)
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
