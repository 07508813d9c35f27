"""Reading and writing systems, witnesses and form data as structured text.

Grammar (one construct per line, order of blocks is free):

    # comment                      -- ignored, as are blank lines
    name: free text                -- optional metadata
    description: free text
    E: 3x2                         -- matrix header, ROWSxCOLS
    1 -2
    1/2 0
    0 7/3
    alpha: 1 2                     -- integer list (may be empty)
    r: 3                           -- single integer
    i_star: 1                      -- single integer

Each key may appear only once per document, whatever its kind.  Keys are
ASCII letters, digits and underscores.  Lines end at LF, CR LF or CR.  In
matrix headers, data lines and integer lists, tokens are separated by ASCII
spaces and tabs only; any other whitespace character is a parse error at
its line.  Comment lines and the free text of name and description are not
checked.
A matrix header is followed by exactly ROWS data lines of COLS entries each;
matrices with zero rows or zero columns have no data lines at all.  Neither
ROWS nor COLS may exceed the length of the document in characters, so a
header alone cannot ask for work out of proportion to its input.  Entries
are exact rationals written as an optional minus sign, digits, and an
optional /denominator with positive denominator ("7", "-2", "5/3").  Floats
are rejected, as is any denominator of zero.  Digits are the ASCII digits
0-9 only, and a number may have no more digits than the interpreter
converts to an int (sys.get_int_max_str_digits); anything else is a parse
error at its line.

Systems use the keys E, A, B.  Witnesses use S, T, V, F_P and, for the PD
kind, F_D.  Form data files use alpha/beta/gamma/delta/kappa, A_cbar, r, and
the size triples l_sizes/n_sizes/m_sizes for the quasi forms.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from .linalg import Mat
from .pfeedback import PffData, PTransform, QpffBlockSizes
from .pdfeedback import PdffData, PDTransform, QpdffBlockSizes
from .wong import FieldError, SystemTriple


class ParseError(ValueError):
    """Input text is not a valid document; carries the offending line number,
    or None when no single line is at fault (a missing key)."""

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


_MATRIX_HEADER = re.compile(r"^([A-Za-z0-9_]+):[ \t]*([0-9]+)x([0-9]+)$")
_KEY_LINE = re.compile(r"^([A-Za-z0-9_]+):(.*)$")
_FOREIGN_SPACE = re.compile(r"[^\S \t]")  # whitespace other than ASCII space and tab
_NUMBER = r"-?[0-9]+(?:/[0-9]+)?"  # an exact rational, as the entries are written
_RATIONAL = re.compile(_NUMBER)
_DATA_LINE = re.compile(rf"{_NUMBER}(?:[ \t]+{_NUMBER})*")
_INTEGER = re.compile(r"^-?[0-9]+$")

_TEXT_KEYS = ("name", "description")


def _int(digits: str, lineno: int) -> int:
    """int(digits) for ASCII digits with an optional minus sign, or a
    ParseError at ``lineno`` when there are more digits than the interpreter
    converts."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(lineno, f"number with {len(digits.lstrip('-'))} digits "
                                 f"is too long") from None


def _ascii_spaced(line: str, lineno: int) -> str:
    """``line``, or a ParseError at ``lineno`` when it holds whitespace other
    than ASCII spaces and tabs (so that str.split() splits on those only)."""
    foreign = _FOREIGN_SPACE.search(line)
    if foreign:
        raise ParseError(lineno, f"U+{ord(foreign.group()):04X} is not an ASCII space or tab")
    return line


def _parse_rational(token: str, lineno: int) -> tuple[int, int]:
    """(numerator, denominator) of ``token``, not necessarily reduced."""
    if not _RATIONAL.fullmatch(token):
        raise ParseError(lineno, f"not an exact rational: {token!r}")
    if "/" in token:
        num, den = token.split("/")
        den = _int(den, lineno)
        if den == 0:
            raise ParseError(lineno, f"zero denominator in {token!r}")
        return _int(num, lineno), den
    return _int(token, lineno), 1


def _parse_row(line: str, lineno: int, key: str, cols: int) -> tuple[list[int], int]:
    """(ints, den) with the data line ``line`` of matrix ``key`` equal to
    ints / den.  A line of well-formed tokens is converted with int() alone,
    and needs an lcm only when it holds a fraction; any other line is
    checked token by token for its first error."""
    well_formed = _DATA_LINE.fullmatch(line) is not None
    tokens = (line if well_formed else _ascii_spaced(line, lineno)).split()
    if len(tokens) != cols:
        raise ParseError(lineno, f"expected {cols} entries for {key!r}, got {len(tokens)}")
    if well_formed and "/" not in line:
        try:
            return list(map(int, tokens)), 1
        except ValueError:
            pass  # a number too long to convert, located below
    pairs = [_parse_rational(t, lineno) for t in tokens]
    den = lcm(*[d for _, d in pairs])
    return [x * (den // d) for x, d in pairs], den


class Document:
    """Parsed key/value document: matrices, integer lists and metadata."""

    def __init__(self):
        self.matrices: dict[str, Mat] = {}
        self.int_lists: dict[str, tuple[int, ...]] = {}
        self.meta: dict[str, str] = {}
        self.first_seen: dict[str, int] = {}  # key -> line it is given on

    def error(self, key: str, message: str) -> ParseError:
        """A ParseError located at the line of ``key``."""
        return ParseError(self.first_seen.get(key), message)

    def build(self, cls, *args, **kwargs):
        """cls(*args, **kwargs), with a FieldError raised as a ParseError at
        the line of the field's key."""
        try:
            return cls(*args, **kwargs)
        except FieldError as exc:
            raise self.error(exc.field, str(exc)) from exc

    def require_matrix(self, key: str) -> Mat:
        if key not in self.matrices:
            raise ParseError(None, f"missing required matrix {key!r}")
        return self.matrices[key]

    def require_ints(self, key: str) -> tuple[int, ...]:
        if key not in self.int_lists:
            raise ParseError(None, f"missing required list {key!r}")
        return self.int_lists[key]

    def require_int(self, key: str) -> int:
        vals = self.require_ints(key)
        if len(vals) != 1:
            raise self.error(key, f"{key!r} must hold exactly one integer")
        return vals[0]


def parse_document(text: str) -> Document:
    doc = Document()
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    first_seen = doc.first_seen

    def claim(key: str, lineno: int):
        if key in first_seen:
            raise ParseError(lineno, f"duplicate key {key!r} (first given on line "
                                     f"{first_seen[key]})")
        first_seen[key] = lineno

    # (line number, text) of every line that is neither blank nor a comment
    content = iter([(lineno, stripped) for lineno, raw in enumerate(lines, 1)
                    if (stripped := raw.strip(" \t")) and not stripped.startswith("#")])
    for lineno, stripped in content:
        keyed = _KEY_LINE.match(stripped)
        if keyed and keyed.group(1) in _TEXT_KEYS:
            claim(keyed.group(1), lineno)
            doc.meta[keyed.group(1)] = keyed.group(2).strip()
            continue
        header = _MATRIX_HEADER.match(_ascii_spaced(stripped, lineno))
        if header:
            key = header.group(1)
            rows, cols = _int(header.group(2), lineno), _int(header.group(3), lineno)
            if max(rows, cols) > len(text):
                raise ParseError(lineno, f"matrix {key!r} has more rows or columns than "
                                         f"the document has characters")
            claim(key, lineno)
            ints, dens = [], []
            for _ in range(rows if cols else 0):
                data_no, data_line = next(content, (None, None))
                if data_no is None:
                    raise ParseError(lineno, f"matrix {key!r} is missing data rows")
                row, den = _parse_row(data_line, data_no, key, cols)
                ints.append(row)
                dens.append(den)
            doc.matrices[key] = (Mat._reduced(rows, cols, ints, dens) if ints
                                 else Mat.zeros(rows, cols))
            continue
        if keyed:
            key = keyed.group(1)
            claim(key, lineno)
            values = []
            for tok in keyed.group(2).split():
                if not _INTEGER.match(tok):
                    raise ParseError(lineno, f"expected integers after {key!r}, got {tok!r}")
                values.append(_int(tok, lineno))
            doc.int_lists[key] = tuple(values)
            continue
        raise ParseError(lineno, f"unrecognized line: {stripped!r}")
    return doc


def parse_system(text: str) -> tuple[SystemTriple, dict[str, str]]:
    doc = parse_document(text)
    e, a, b = (doc.require_matrix(key) for key in ("E", "A", "B"))
    return doc.build(SystemTriple, e, a, b), doc.meta


def parse_witness(text: str) -> PTransform | PDTransform:
    return witness_from_document(parse_document(text))


def witness_from_document(doc: Document) -> PTransform | PDTransform:
    s, t, v, f_p = (doc.require_matrix(key) for key in ("S", "T", "V", "F_P"))
    if "F_D" in doc.matrices:
        return doc.build(PDTransform, s, t, v, f_p, doc.matrices["F_D"])
    return doc.build(PTransform, s, t, v, f_p)


def parse_pff_data(doc: Document) -> PffData:
    return doc.build(
        PffData,
        alpha=doc.require_ints("alpha"),
        beta=doc.require_ints("beta"),
        gamma=doc.require_ints("gamma"),
        delta=doc.require_ints("delta"),
        kappa=doc.require_ints("kappa"),
        a_cbar=doc.require_matrix("A_cbar"),
    )


def parse_pdff_data(doc: Document) -> PdffData:
    return doc.build(
        PdffData,
        alpha=doc.require_ints("alpha"),
        a_cbar=doc.require_matrix("A_cbar"),
        beta=doc.require_ints("beta"),
        gamma=doc.require_ints("gamma"),
        r=doc.require_int("r"),
    )


def _size_lists(doc: Document, lengths: tuple[int, ...], message: str) -> list[int]:
    """l_sizes, n_sizes and m_sizes, concatenated, after checking their
    lengths and signs."""
    lists = [(key, doc.require_ints(key)) for key in ("l_sizes", "n_sizes", "m_sizes")]
    for (key, vals), length in zip(lists, lengths):
        if len(vals) != length:
            raise doc.error(key, message)
        if any(v < 0 for v in vals):
            raise doc.error(key, "block sizes must be non-negative")
    return [v for _, vals in lists for v in vals]


def parse_qpff_sizes(doc: Document) -> QpffBlockSizes:
    return QpffBlockSizes(*_size_lists(doc, (3, 3, 3),
                                       "QPFF sizes need three entries per dimension"))


def parse_qpdff_sizes(doc: Document) -> QpdffBlockSizes:
    return QpdffBlockSizes(*_size_lists(doc, (3, 3, 2), "QPDFF sizes need 3+3+2 entries"))


# -- writing -----------------------------------------------------------------

def format_rows(m: Mat) -> list[str]:
    """Each row of m as its entries in lowest terms ("7", "-2", "5/3"),
    separated by single spaces; read off the integer rows."""
    lines = []
    for row, den in zip(m.ints, m.dens):
        if den == 1:
            lines.append(" ".join(map(str, row)))
        else:
            lines.append(" ".join(str(x // g) if (g := gcd(x, den)) == den
                                  else f"{x // g}/{den // g}" for x in row))
    return lines


def format_matrix(key: str, m: Mat) -> str:
    lines = [f"{key}: {m.rows}x{m.cols}"]
    if m.rows and m.cols:
        lines.extend(format_rows(m))
    return "\n".join(lines)


def format_system(sys: SystemTriple) -> str:
    return "\n".join([format_matrix("E", sys.E), format_matrix("A", sys.A),
                      format_matrix("B", sys.B)]) + "\n"


def format_witness(w: PTransform | PDTransform) -> str:
    parts = [format_matrix("S", w.S), format_matrix("T", w.T), format_matrix("V", w.V),
             format_matrix("F_P", w.F_P)]
    if isinstance(w, PDTransform):
        parts.append(format_matrix("F_D", w.F_D))
    return "\n".join(parts) + "\n"


def format_int_list(key: str, values) -> str:
    return f"{key}: " + " ".join(str(v) for v in values)
