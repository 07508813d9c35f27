"""File format round trips and the command line interface."""

import dataclasses
import io
import os
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from daeforms import (Mat, PDTransform, PTransform, SystemTriple, pdfeedback, pfeedback,
                      sysio, wong)
from daeforms.cli import main
from daeforms.sysio import ParseError, parse_document, parse_system, parse_witness
from byte_gate import FORMS, GOLDEN_CALLS, verdict_record, verdict_triples
from golden import (PDFF_A, PDFF_B, PDFF_E, PFF_WITNESS, QPDFF_A, QPDFF_B, QPDFF_E,
                    QPDFF_SIZES, SYS763)
from oracles import reference_parse_row

DATA = os.path.join(os.path.dirname(__file__), "data")


def path(name: str) -> str:
    return os.path.join(DATA, name)


class TestParsing:
    def test_round_trip_is_bit_identical(self):
        text = sysio.format_system(SYS763)
        sys2, meta = parse_system("name: x\n" + text)
        assert sys2 == SYS763
        assert meta["name"] == "x"
        assert sysio.format_system(sys2) == text

    def test_fractions_round_trip(self):
        from fractions import Fraction as F
        m = Mat.from_rows([[F(-7, 2), F(5, 3)], [0, F(1, 6)]])
        text = sysio.format_matrix("E", m)
        doc = parse_document(text)
        assert doc.matrices["E"] == m

    def test_zero_denominator_is_located(self):
        text = "E: 1x1\n1/0\nA: 1x1\n0\nB: 1x0\n"
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert err.value.line == 2

    def test_float_rejected(self):
        with pytest.raises(ParseError):
            parse_document("E: 1x1\n1.5\n")

    def test_wrong_entry_count(self):
        with pytest.raises(ParseError) as err:
            parse_document("E: 1x3\n1 2\n")
        assert err.value.line == 2

    def test_zero_dimension_matrices(self):
        doc = parse_document("E: 0x3\nA: 3x0\n")
        assert doc.matrices["E"].shape == (0, 3)
        assert doc.matrices["A"].shape == (3, 0)

    def test_comments_and_blanks_between_rows(self):
        doc = parse_document("E: 2x1\n1\n# interlude\n\n2\n")
        assert doc.matrices["E"] == Mat.from_rows([[1], [2]])

    def test_rows_that_run_out_are_located_at_the_header(self):
        # the comment and the blank line count as no data row
        with pytest.raises(ParseError) as err:
            parse_document("A: 1x1\n0\nE: 3x1\n1\n# interlude\n\n2\n")
        assert err.value.line == 3
        assert "is missing data rows" in str(err.value)

    def test_witness_kind_detection(self):
        from daeforms import PTransform
        from daeforms.pdfeedback import PDTransform
        base = ("S: 1x1\n1\nT: 1x1\n1\nV: 1x1\n1\nF_P: 1x1\n0\n")
        assert isinstance(parse_witness(base), PTransform)
        assert isinstance(parse_witness(base + "F_D: 1x1\n0\n"), PDTransform)

    def test_p_witness_is_written_without_f_d(self):
        assert "F_D" not in sysio.format_witness(PTransform.identity(2, 2, 1))
        assert "F_D: 1x2" in sysio.format_witness(PDTransform.identity(2, 2, 1))

    def test_missing_key(self):
        with pytest.raises(ParseError):
            parse_system("E: 1x1\n1\nA: 1x1\n1\n")

    @pytest.mark.parametrize("text,line", [
        ("E: 1x1\n1\nA: 1x1\n0\nE: 1x1\n2\nB: 1x0\n", 5),
        ("alpha: 1\n# again\nalpha: 2\n", 3),
        ("name: a\nname: b\n", 2),
        ("r: 1\nr: 1x1\n1\n", 2),
    ])
    def test_duplicate_key_is_located(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert err.value.line == line
        assert "duplicate key" in str(err.value)


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_property_round_trip(self, data):
        l, n, m = (data.draw(st.integers(0, 4)) for _ in range(3))
        entry = st.one_of(st.integers(-9, 9), st.fractions(max_denominator=10 ** 12),
                          st.integers(-10 ** 30, 10 ** 30))

        def mat(rows, cols):
            return Mat(rows, cols, data.draw(st.lists(
                st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
        sys = SystemTriple(mat(l, n), mat(l, n), mat(l, m))
        assert parse_system(sysio.format_system(sys))[0] == sys


class TestSemanticErrorLines:
    """Errors about one key name that key's line; errors with no line, such
    as a missing key, carry no line prefix."""

    @pytest.mark.parametrize("text,line", [
        ("E: 1x1\n1\nA: 1x2\n0 0\nB: 1x0\n", 3),
        ("E: 1x1\n1\n# inputs\nB: 2x0\nA: 1x1\n0\n", 4),
    ])
    def test_system_shape_mismatch_names_its_key(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: ")

    @pytest.mark.parametrize("text,line", [
        ("S: 1x1\n0\nT: 1x1\n1\nV: 1x1\n1\nF_P: 1x1\n0\n", 1),
        ("S: 1x1\n1\nT: 1x1\n1\nV: 1x1\n1\nF_P: 1x2\n0 0\n", 7),
        ("S: 1x1\n1\nT: 1x1\n1\nV: 1x1\n1\nF_P: 1x1\n0\nF_D: 2x1\n0\n0\n", 9),
    ])
    def test_witness_error_names_its_key(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_witness(text)
        assert err.value.line == line

    @pytest.mark.parametrize("parse,text,line", [
        (sysio.parse_pff_data, "alpha: 1\nbeta: 0\ngamma:\ndelta:\nkappa:\nA_cbar: 0x0\n", 2),
        (sysio.parse_pff_data, "alpha:\nbeta:\ngamma:\ndelta:\nkappa:\nA_cbar: 1x2\n0 0\n", 6),
        (sysio.parse_pdff_data, "alpha:\nbeta:\ngamma:\nA_cbar: 0x0\nr: -1\n", 5),
    ])
    def test_form_data_error_names_its_key(self, parse, text, line):
        with pytest.raises(ParseError) as err:
            parse(parse_document(text))
        assert err.value.line == line

    def test_single_integer_names_its_key(self):
        with pytest.raises(ParseError) as err:
            parse_document("alpha: 1\n\nr: 1 2\n").require_int("r")
        assert err.value.line == 3

    def test_missing_key_has_no_line(self):
        with pytest.raises(ParseError) as err:
            parse_system("E: 1x1\n1\nA: 1x1\n1\n")
        assert err.value.line is None
        assert str(err.value) == "missing required matrix 'B'"

    def test_cli_missing_key(self, tmp_path, capsys):
        f = tmp_path / "nob.system"
        f.write_text("E: 1x1\n1\nA: 1x1\n1\n")
        code, _ = run_cli("wong", str(f))
        assert code == 2
        assert capsys.readouterr().err == "error: missing required matrix 'B'\n"

    def test_cli_sizes_of_wrong_length(self, tmp_path, capsys):
        data = tmp_path / "sizes.data"
        data.write_text("# sizes\nl_sizes: 2 1 4\nn_sizes: 3 1\nm_sizes: 1 0 2\n")
        code, _ = run_cli("verify", path("sigma763.system"),
                          "--witness", path("sigma763_pff.witness"),
                          "--form", "qpff", "--data", str(data))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 3: QPFF sizes need three entries per dimension\n")

    @pytest.mark.parametrize("form,text", [
        ("qpff", "# sizes\nl_sizes: -1 4 4\nn_sizes: 3 1 2\nm_sizes: 1 0 2\n"),
        ("qpdff", "# sizes\nl_sizes: -1 3 2\nn_sizes: 3 1 2\nm_sizes: 0 3\n"),
    ], ids=["qpff", "qpdff"])
    def test_cli_negative_block_size(self, form, text, tmp_path, capsys):
        data = tmp_path / "sizes.data"
        data.write_text(text)
        code, _ = run_cli("verify", path("sigma763.system"),
                          "--witness", path("sigma763_pff.witness"),
                          "--form", form, "--data", str(data))
        assert code == 2
        assert capsys.readouterr().err == "error: line 2: block sizes must be non-negative\n"

    def test_cli_pd_witness_for_p_form(self, capsys):
        with open(path("sigma763_pdff.witness"), encoding="utf-8") as fh:
            f_d_line = 1 + [ln.startswith("F_D:") for ln in fh].index(True)
        code, _ = run_cli("verify", path("sigma763.system"),
                          "--witness", path("sigma763_pdff.witness"),
                          "--form", "pff", "--data", path("sigma763_pff.data"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: line {f_d_line}: P-feedback forms need a witness without F_D\n")


LONG = "7" * 5000  # more digits than the interpreter converts to an int by default


class TestNumberTokens:
    """Numbers are ASCII digits only, and a number too long to convert is a
    parse error at its line."""

    @pytest.mark.parametrize("text,err", [
        ("E: 1x1\n\u0663\nA: 1x1\n0\nB: 1x0\n",
         "line 2: not an exact rational: '\u0663'"),
        ("E: 1x1\n\uff12/3\nA: 1x1\n0\nB: 1x0\n",
         "line 2: not an exact rational: '\uff12/3'"),
        ("E: 1x1\n1/\u0663\nA: 1x1\n0\nB: 1x0\n",
         "line 2: not an exact rational: '1/\u0663'"),
        ("E: 1x1\n1\nA: 1x1\n0\nB: 1x\u0661\n0\n",
         "line 5: expected integers after 'B', got '1x\u0661'"),
        ("E: 1x1\n1\nA: \u0661x1\n0\nB: 1x0\n",
         "line 3: expected integers after 'A', got '\u0661x1'"),
        (f"E: 1x1\n{LONG}\nA: 1x1\n0\nB: 1x0\n",
         "line 2: number with 5000 digits is too long"),
        (f"E: 1x1\n-1/{LONG}\nA: 1x1\n0\nB: 1x0\n",
         "line 2: number with 5000 digits is too long"),
        (f"E: 1x1\n1\nA: 1x1\n0\nB: 1x{LONG}\n",
         "line 5: number with 5000 digits is too long"),
    ], ids=["arabic-indic", "fullwidth", "denominator", "header-cols", "header-rows",
            "long-entry", "long-denominator", "long-header"])
    def test_system_file(self, text, err, tmp_path, capsys):
        f = tmp_path / "bad.system"
        f.write_text(text, encoding="utf-8")
        code, out = run_cli("wong", str(f))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("token,err", [
        ("\u0662", "expected integers after 'n_sizes', got '\u0662'"),
        (f"-{LONG}", "number with 5000 digits is too long"),
    ], ids=["arabic-indic", "long"])
    def test_integer_list(self, token, err, tmp_path, capsys):
        data = tmp_path / "sizes.data"
        data.write_text(f"l_sizes: 2 1 4\nn_sizes: 3 {token} 2\nm_sizes: 1 0 2\n",
                        encoding="utf-8")
        code, _ = run_cli("verify", path("sigma763.system"),
                          "--witness", path("sigma763_pff.witness"),
                          "--form", "qpff", "--data", str(data))
        assert code == 2
        assert capsys.readouterr().err == f"error: line 2: {err}\n"


class TestSeparators:
    """Tokens of headers, data lines and integer lists are separated by ASCII
    spaces and tabs only, and keys are ASCII; comments and free text are not
    checked."""

    @pytest.mark.parametrize("sep", ["\u00a0", "\u2003", "\x1c"],
                             ids=["no-break-space", "em-space", "file-separator"])
    @pytest.mark.parametrize("text,line", [
        ("E: 1x2\n1{sep}2\nA: 1x2\n0 0\nB: 1x0\n", 2),
        ("E: 2x1\n1{sep}2\nA: 2x1\n0\n0\nB: 2x0\n", 2),
        ("E: 1x1\n1\nA: 1x1\n0\nB:{sep}1x0\n", 5),
    ], ids=["row", "row-as-two-lines", "header"])
    def test_system_file(self, sep, text, line, tmp_path, capsys):
        f = tmp_path / "bad.system"
        f.write_text(text.format(sep=sep), encoding="utf-8")
        code, out = run_cli("wong", str(f))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"error: line {line}: U+{ord(sep):04X} is not an ASCII space or tab\n")

    def test_integer_list(self):
        with pytest.raises(ParseError) as err:
            parse_document("alpha: 1\nbeta: 2\u00a03\n")
        assert str(err.value) == "line 2: U+00A0 is not an ASCII space or tab"

    def test_non_ascii_key(self):
        with pytest.raises(ParseError) as err:
            parse_document("E: 1x1\n1\n\u00c9: 1x1\n0\n")
        assert str(err.value) == "line 3: unrecognized line: '\u00c9: 1x1'"

    def test_tabs_crlf_comments_and_free_text(self):
        text = ("# a\u00a0comment\r\nname: x\u2003y\r\nE:\t1x2\r\n1\t 2\r"
                "A: 1x2\n0 0\nB: 1x0\n")
        sys, meta = parse_system(text)
        assert sys.E == Mat.from_rows([[1, 2]])
        assert meta["name"] == "x\u2003y"


class TestHeaderBound:
    def test_zero_width_header_beyond_the_document_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_document("E: 3000000x0\n")
        assert time.perf_counter() - start < 1.0
        assert err.value.line == 1

    def test_small_zero_width_header_parses(self):
        assert parse_document("B: 2x0\n").matrices["B"].shape == (2, 0)


class TestIntegerRowParsing:
    """Data lines become integer rows over their smallest denominator; the
    values, their formatting and every error match the token-by-token
    reading."""

    def test_mixed_integers_and_fractions(self):
        from fractions import Fraction as F
        doc = parse_document("E: 3x3\n1 -2/4 3\n0/5 7 -6/3\n4/6 -1/9 2\n")
        m = doc.matrices["E"]
        assert m == Mat.from_rows([[1, F(-1, 2), 3], [0, 7, -2], [F(2, 3), F(-1, 9), 2]])
        assert m.ints == ((2, -1, 6), (0, 7, -2), (6, -1, 18)) and m.dens == (2, 1, 9)
        assert sysio.format_matrix("E", m) == "E: 3x3\n1 -1/2 3\n0 7 -2\n2/3 -1/9 2"

    @pytest.mark.parametrize("token,formatted", [
        ("-0", "0"), ("0/3", "0"), ("-0/7", "0"), ("000", "0"), ("6/4", "3/2"),
        ("-6/4", "-3/2"), ("10/5", "2"), ("-10/5", "-2"), ("007", "7"), ("-007/014", "-1/2"),
        ("12345678901234567890/10", "1234567890123456789"), ("3/1", "3"), ("-1/1", "-1"),
    ])
    def test_tokens_are_normalised(self, token, formatted):
        from fractions import Fraction as F
        m = parse_document(f"E: 1x2\n{token} 1\n").matrices["E"]
        assert m.data == ((F(token), F(1)),)
        assert sysio.format_matrix("E", m) == f"E: 1x2\n{formatted} 1"
        m = parse_document(f"E: 1x2\n1/2 {token}\n").matrices["E"]
        assert sysio.format_matrix("E", m) == f"E: 1x2\n1/2 {formatted}"

    @pytest.mark.parametrize("row,err", [
        ("1 2/0 3", "zero denominator in '2/0'"),
        ("1/0 2 3", "zero denominator in '1/0'"),
        ("1 1.5 3", "not an exact rational: '1.5'"),
        ("1 2 1e3", "not an exact rational: '1e3'"),
        ("1 \u0663 2/0", "not an exact rational: '\u0663'"),
        ("1 2/0 \u0663", "zero denominator in '2/0'"),
        ("1/2 x 3", "not an exact rational: 'x'"),
        ("1 --2 3", "not an exact rational: '--2'"),
        ("1 2/3/4 3", "not an exact rational: '2/3/4'"),
        ("1 +2 3", "not an exact rational: '+2'"),
        ("1 1_000 3", "not an exact rational: '1_000'"),
        ("1 2\u00a03", "U+00A0 is not an ASCII space or tab"),
        ("1.5 2\u2003x", "U+2003 is not an ASCII space or tab"),
        (f"1 {LONG} 3", "number with 5000 digits is too long"),
        (f"1 2/{LONG} 3", "number with 5000 digits is too long"),
        (f"1 {LONG}/2 3", "number with 5000 digits is too long"),
        (f"1/2 2/0 {LONG}", "zero denominator in '2/0'"),
        (f"{LONG}/0 1 2", "zero denominator in '{LONG}/0'"),
        ("1 2", "expected 3 entries for 'E', got 2"),
        ("1 2 3 4/5", "expected 3 entries for 'E', got 4"),
        ("1 x", "expected 3 entries for 'E', got 2"),
        ("1.5", "expected 3 entries for 'E', got 1"),
    ], ids=lambda v: v[:12] if isinstance(v, str) else v)
    def test_errors_keep_message_and_line(self, row, err):
        with pytest.raises(ParseError) as exc:
            parse_document(f"E: 2x3\n# a comment\n\n1 2 3\n{row}\n")
        assert str(exc.value) == "line 5: " + err.replace("{LONG}", LONG)
        assert exc.value.line == 5

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_the_regex_reference(self, data):
        # tokens of signs and digits, some with '+', '_' or a non-ASCII digit
        # that int() would take, joined by ASCII and non-ASCII spaces; each
        # line gives the reference's (ints, den) or its error message
        chars = "0123456789-/+_. \t\u00a0\u0663"
        number = st.builds(lambda sign, digits, den: sign + digits + den,
                           st.sampled_from(["", "-", "+", "_", "--"]),
                           st.text("0123456789_\u0663", min_size=0, max_size=4),
                           st.sampled_from(["", "", "/", "/0", "/7", "/-2", "/1_0", "/+3"]))
        token = st.one_of(number, st.text(chars, min_size=1, max_size=5))
        gaps = st.sampled_from([" ", "\t", " \t ", "\u00a0"])
        parts = data.draw(st.lists(st.tuples(token, gaps), min_size=0, max_size=5))
        line = "".join(t + g for t, g in parts)[:-1] if parts else ""
        cols = data.draw(st.sampled_from([len(line.split()), len(line.split()) + 1]))
        try:
            want = reference_parse_row(line, 7, "E", cols)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                sysio._parse_row(line, 7, "E", cols)
            assert (str(got.value), got.value.line) == (str(exc), exc.line)
        else:
            assert sysio._parse_row(line, 7, "E", cols) == want


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestWongCommand:
    def test_golden_report(self):
        code, text = run_cli("wong", path("sigma763.system"))
        assert code == 0
        assert "i_star: 1" in text
        assert "j_star: 2" in text
        assert "V^1: dim 4" in text
        assert "W^2: dim 5" in text

    def test_identities_flag(self):
        code, text = run_cli("wong", path("sigma763.system"), "--check-identities")
        assert code == 0
        assert "limit identities: ok" in text
        assert "augmented projection: ok" in text

    def test_zero_system(self, tmp_path):
        f = tmp_path / "zero.system"
        f.write_text("E: 2x2\n0 0\n0 0\nA: 2x2\n0 0\n0 0\nB: 2x0\n")
        code, text = run_cli("wong", str(f), "--check-identities")
        assert code == 0
        assert "dim V_star: 2" in text

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.system"
        bad.write_text("E: 1x1\n1/0\nA: 1x1\n0\nB: 1x0\n")
        code, _ = run_cli("wong", str(bad))
        assert code == 2

    def test_duplicate_matrix_exit_code(self, tmp_path, capsys):
        dup = tmp_path / "dup.system"
        dup.write_text("E: 1x1\n1\nA: 1x1\n0\nB: 1x0\nE: 1x1\n2\n")
        code, _ = run_cli("wong", str(dup))
        assert code == 2
        assert "line 6: duplicate key 'E'" in capsys.readouterr().err

    def test_missing_file_exit_code(self):
        code, _ = run_cli("wong", "no-such-file.system")
        assert code == 2

    def test_deterministic_output(self):
        _, first = run_cli("wong", path("sigma763.system"))
        _, second = run_cli("wong", path("sigma763.system"))
        assert first == second


class TestQpffCommand:
    def test_golden_signature(self):
        code, text = run_cli("qpff", path("sigma763.system"))
        assert code == 0
        assert "l_sizes: 2 1 4" in text
        assert "n_sizes: 3 1 2" in text
        assert "m_sizes: 1 0 2" in text
        assert "verified: ok" in text

    def test_classify(self):
        code, text = run_cli("qpff", path("sigma763.system"), "--classify")
        assert code == 0
        assert "Sigma_{2,3,1}: completely controllable" in text
        assert "Sigma_{1,1,0}: uncontrollable ODE" in text
        assert "Sigma_{4,2,2}: trivial solution only" in text

    def test_decouple_output_file(self, tmp_path):
        out = tmp_path / "qpff.out"
        code, text = run_cli("qpff", path("sigma763.system"), "--decouple",
                             "--output", str(out))
        assert code == 0
        assert "decoupled: ok" in text
        doc = parse_document(out.read_text())
        e_dec = doc.matrices["E_dec"]
        l1, l2 = 2, 1
        n1, n2 = 3, 1
        assert e_dec.sub(0, l1, n1, SYS763.n).is_zero()
        assert e_dec.sub(l1, l1 + l2, n1 + n2, SYS763.n).is_zero()
        assert doc.matrices["A_dec"].sub(0, l1, n1, SYS763.n).is_zero()
        # sizes in the output file parse back as verification data
        assert doc.int_lists["l_sizes"] == (2, 1, 4)

    def test_output_round_trips(self, tmp_path):
        out = tmp_path / "qpff.out"
        run_cli("qpff", path("sigma763.system"), "--output", str(out))
        doc = parse_document(out.read_text())
        regenerated = sysio.format_matrix("E", doc.matrices["E"])
        assert parse_document(regenerated).matrices["E"] == doc.matrices["E"]

    def test_controllable_ode(self, tmp_path):
        f = tmp_path / "ode.system"
        f.write_text("E: 2x2\n1 0\n0 1\nA: 2x2\n0 0\n1 0\nB: 2x1\n1\n0\n")
        code, text = run_cli("qpff", str(f), "--classify")
        assert code == 0
        assert "l_sizes: 2 0 0" in text


class TestQpdffCommand:
    def test_golden_signature(self):
        code, text = run_cli("qpdff", path("sigma763.system"))
        assert code == 0
        assert "l_sizes: 1 1 2" in text
        assert "input row block: 3" in text
        assert "n_sizes: 3 1 2" in text

    def test_zero_input_matrix(self, tmp_path):
        f = tmp_path / "noinput.system"
        f.write_text("E: 2x2\n1 0\n0 1\nA: 2x2\n0 1\n0 0\nB: 2x0\n")
        code, text = run_cli("qpdff", str(f))
        assert code == 0
        assert "m_sizes: 0 0" in text

    def test_decouple_rechecks_limits(self, tmp_path):
        out = tmp_path / "qpdff.out"
        code, text = run_cli("qpdff", path("sigma763.system"), "--decouple",
                             "--output", str(out))
        assert code == 0
        assert "decoupled: ok" in text


class TestVerifyCommand:
    def test_pff_witness_passes(self):
        code, text = run_cli("verify", path("sigma763.system"),
                             "--witness", path("sigma763_pff.witness"),
                             "--form", "pff", "--data", path("sigma763_pff.data"))
        assert code == 0
        assert "verify pff: pass" in text

    def test_pdff_witness_passes(self):
        code, text = run_cli("verify", path("sigma763.system"),
                             "--witness", path("sigma763_pdff.witness"),
                             "--form", "pdff", "--data", path("sigma763_pdff.data"))
        assert code == 0
        assert "verify pdff: pass" in text

    def test_wrong_kappa_order_fails(self, tmp_path):
        bad = tmp_path / "bad.data"
        bad.write_text("alpha: 1\nbeta: 2\ngamma: 1\ndelta:\nkappa: 1 2\nA_cbar: 1x1\n1\n")
        code, text = run_cli("verify", path("sigma763.system"),
                             "--witness", path("sigma763_pff.witness"),
                             "--form", "pff", "--data", str(bad))
        assert code == 1
        assert "FAIL" in text

    def test_qpff_self_verification(self, tmp_path):
        out = tmp_path / "qpff.out"
        run_cli("qpff", path("sigma763.system"), "--output", str(out))
        code, text = run_cli("verify", path("sigma763.system"),
                             "--witness", str(out), "--form", "qpff",
                             "--data", str(out))
        assert code == 0
        assert "verify qpff: pass" in text

    def test_qpdff_self_verification(self, tmp_path):
        out = tmp_path / "qpdff.out"
        run_cli("qpdff", path("sigma763.system"), "--output", str(out))
        code, text = run_cli("verify", path("sigma763.system"),
                             "--witness", str(out), "--form", "qpdff",
                             "--data", str(out))
        assert code == 0
        assert "verify qpdff: pass" in text

    @pytest.mark.parametrize("form", ["qpff", "qpdff"])
    def test_witness_singular_modulo_the_rank_prime_passes(self, form, tmp_path):
        # the last row of S times 32749, the prime of Mat.rank's modular
        # count: S stays invertible and the triple stays in the quasi form,
        # but S is singular modulo that prime, so only the exact rank sees it
        out, witness = tmp_path / "dec.out", tmp_path / "scaled.witness"
        run_cli(form, path("sigma763.system"), "--output", str(out))
        w = sysio.parse_witness(out.read_text())
        last = w.S.rows - 1
        scaled = Mat.vstack(w.S.sub(0, last, 0, w.S.cols), w.S.sub(last, last + 1, 0, w.S.cols)
                            * 32749)
        witness.write_text(sysio.format_witness(dataclasses.replace(w, S=scaled)))
        code, text = run_cli("verify", path("sigma763.system"), "--witness", str(witness),
                             "--form", form, "--data", str(out))
        assert (code, text) == (0, f"verify {form}: pass\n")

    @pytest.mark.parametrize("form,m_sizes", [("qpff", "0 0 0"), ("qpdff", "0 0")])
    def test_wide_trailing_block_fails_its_check(self, form, m_sizes, tmp_path):
        # one state and no equations: the trailing block is 0 x 1, wider than
        # it is tall, so it cannot have full column rank
        sys_file, w_file, data = (tmp_path / name for name in ("s", "w", "d"))
        sys_file.write_text("E: 0x1\nA: 0x1\nB: 0x0\n")
        w_file.write_text("S: 0x0\nT: 1x1\n1\nV: 0x0\nF_P: 0x1\n")
        data.write_text(f"l_sizes: 0 0 0\nn_sizes: 0 0 1\nm_sizes: {m_sizes}\n")
        code, text = run_cli("verify", str(sys_file), "--witness", str(w_file),
                             "--form", form, "--data", str(data))
        assert (code, text) == (1, f"verify {form}: FAIL\n"
                                   "first failing condition: block3_trivial\n")

    @pytest.mark.parametrize("system,m", [
        ("E: 1x1\n0\nA: 1x1\n1\nB: 1x1\n1\n", 1),     # E11 without full row rank
        ("E: 1x1\n1\nA: 1x1\n0\nB: 1x2\n1 1\n", 2),   # B11 without full column rank
        ("E: 1x1\n1\nA: 1x1\n0\nB: 1x0\n", 0),         # l1 = n1 + m1: rank drop at 0
    ])
    def test_one_by_one_leading_block_fails_its_check(self, system, m, tmp_path):
        sys_file, w_file, data = (tmp_path / name for name in ("s", "w", "d"))
        sys_file.write_text(system)
        w_file.write_text(sysio.format_witness(PTransform.identity(1, 1, m)))
        data.write_text(f"l_sizes: 1 0 0\nn_sizes: 1 0 0\nm_sizes: {m} 0 0\n")
        code, text = run_cli("verify", str(sys_file), "--witness", str(w_file),
                             "--form", "qpff", "--data", str(data))
        assert (code, text) == (1, "verify qpff: FAIL\n"
                                   "first failing condition: block1_controllable\n")


QUASI_CHECKS = {
    "qpff": {"zero_pattern", "block1_controllable", "block2_ode", "block3_trivial"},
    "qpdff": {"zero_pattern", "block1_underdetermined", "block2_ode", "block3_trivial",
              "input_block_invertible"},
}


def split(data, total: int, parts: int) -> list[int]:
    """Any split of ``total`` into ``parts`` non-negative sizes."""
    cuts = sorted(data.draw(st.integers(0, total)) for _ in range(parts - 1))
    return [hi - lo for lo, hi in zip([0, *cuts], [*cuts, total])]


class TestVerifyQuasiFormProperty:
    """verify --form qpff|qpdff on random small systems with the identity
    witness and block sizes that fit: the sizes are valid input, so every
    call is a mathematical check that passes (0) or names a failing
    condition of that form (1)."""

    @pytest.mark.parametrize("form", ["qpff", "qpdff"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_condition(self, form, data):
        l, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        m = data.draw(st.integers(0, 2))
        entry = st.sampled_from([0, 0, 0, 1, -1, 2])

        def mat(rows, cols):
            return Mat(rows, cols, data.draw(st.lists(
                st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
        system = SystemTriple(mat(l, n), mat(l, n), mat(l, m))
        if form == "qpff":
            l_sizes, m_sizes = split(data, l, 3), split(data, m, 3)
        else:
            m2 = data.draw(st.integers(0, min(l, m)))
            l_sizes, m_sizes = split(data, l - m2, 3), [m - m2, m2]
        sizes = "".join(sysio.format_int_list(key, vals) + "\n" for key, vals in (
            ("l_sizes", l_sizes), ("n_sizes", split(data, n, 3)), ("m_sizes", m_sizes)))
        with tempfile.TemporaryDirectory() as tmp:
            files = {"system": sysio.format_system(system), "sizes": sizes,
                     "witness": sysio.format_witness(PTransform.identity(l, n, m))}
            for name, content in files.items():
                with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                    fh.write(content)
            code, text = run_cli("verify", os.path.join(tmp, "system"),
                                 "--witness", os.path.join(tmp, "witness"),
                                 "--form", form, "--data", os.path.join(tmp, "sizes"))
        assert code in (0, 1)
        if code == 1:
            verdict, detail = text.splitlines()
            assert verdict == f"verify {form}: FAIL"
            assert detail.removeprefix("first failing condition: ") in QUASI_CHECKS[form]


class TestPWitnessForPdForms:
    """A P witness checks a PD form exactly as the same witness with an
    explicit zero F_D does."""

    @pytest.mark.parametrize("form,system,witness,data,code", [
        ("pdff", SystemTriple(PDFF_E, PDFF_A, PDFF_B), None, "sigma763_pdff.data", 0),
        ("pdff", SYS763, PFF_WITNESS, "sigma763_pdff.data", 1),
        ("qpdff", SystemTriple(QPDFF_E, QPDFF_A, QPDFF_B), None, None, 0),
        ("qpdff", SYS763, PFF_WITNESS, None, 1),
    ], ids=["pdff-pass", "pdff-fail", "qpdff-pass", "qpdff-fail"])
    def test_same_stdout_as_explicit_zero_f_d(self, form, system, witness, data, code,
                                              tmp_path):
        if witness is None:
            witness = PTransform.identity(system.l, system.n, system.m)
        if data is None:
            data = tmp_path / "sizes.data"
            data.write_text("\n".join(sysio.format_int_list(key, vals) for key, vals in (
                ("l_sizes", QPDFF_SIZES[:3]), ("n_sizes", QPDFF_SIZES[3:6]),
                ("m_sizes", QPDFF_SIZES[6:]))) + "\n")
        else:
            data = path(data)
        sys_file = tmp_path / "x.system"
        sys_file.write_text(sysio.format_system(system))
        results = []
        for w in (witness, PDTransform(witness.S, witness.T, witness.V, witness.F_P,
                                       Mat.zeros(system.m, system.n))):
            w_file = tmp_path / "x.witness"
            w_file.write_text(sysio.format_witness(w))
            results.append(run_cli("verify", str(sys_file), "--witness", str(w_file),
                                   "--form", form, "--data", str(data)))
        assert results[0] == results[1]
        assert results[0][0] == code

    @pytest.mark.parametrize("form,data", [("pff", "sigma763_pff.data"),
                                           ("pdff", "sigma763_pdff.data")])
    def test_misfit_p_witness_gives_one_message(self, form, data, tmp_path, capsys):
        w_file = tmp_path / "small.witness"
        w_file.write_text(sysio.format_witness(PTransform.identity(1, 1, 1)))
        code, _ = run_cli("verify", path("sigma763.system"), "--witness", str(w_file),
                          "--form", form, "--data", path(data))
        assert code == 2
        assert capsys.readouterr().err == "error: witness dimensions do not fit the system\n"


class TestInternalError:
    def test_assertion_maps_to_exit_code_3(self, monkeypatch, capsys):
        def broken(system):
            raise AssertionError("constructed QPFF failed verification")
        monkeypatch.setattr(pfeedback, "compute_qpff", broken)
        code, text = run_cli("qpff", path("sigma763.system"))
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        assert err == "internal error: constructed QPFF failed verification\n"


class TestFailedDecoupling:
    """A wrong coupling solution breaks the exact postcondition of both
    decouplings: the library raises, and the CLI exits 3 without writing
    its --output file."""

    @staticmethod
    def perturb_first_coupling(monkeypatch):
        """Add 1 to entry (0, 0) of Z in the first coupling solution."""
        original = pfeedback.solve_two_equations
        calls = []

        def perturbed(inst):
            y, z = original(inst)
            if not calls:
                z = z + Mat(z.rows, z.cols, [[int(i == j == 0) for j in range(z.cols)]
                                             for i in range(z.rows)])
            calls.append(inst)
            return y, z
        monkeypatch.setattr(pfeedback, "solve_two_equations", perturbed)

    @pytest.mark.parametrize("compute,decouple", [
        (pfeedback.compute_qpff, pfeedback.decouple_qpff),
        (pdfeedback.compute_qpdff, pdfeedback.decouple_qpdff)])
    def test_library_raises(self, compute, decouple, monkeypatch):
        dec = compute(SYS763)
        self.perturb_first_coupling(monkeypatch)
        with pytest.raises(AssertionError, match="block diagonal"):
            decouple(dec.transformed, dec.block_sizes, dec.report)

    @pytest.mark.parametrize("form", ["qpff", "qpdff"])
    def test_cli_exits_3_and_writes_nothing(self, form, tmp_path, monkeypatch, capsys):
        self.perturb_first_coupling(monkeypatch)
        out = tmp_path / "form.out"
        code, text = run_cli(form, path("sigma763.system"), "--decouple", "--output", str(out))
        assert code == 3
        assert "decoupled" not in text
        assert not out.exists()
        assert capsys.readouterr().err == (
            "internal error: decoupling did not produce the block diagonal of its input\n")


def count_calls(monkeypatch, module, name: str, *more) -> list[int]:
    """Rebind module.name, and name in each module of ``more``, to wrappers
    counting all their calls together in counter[0]."""
    counter = [0]

    def counted(original):
        def wrapper(*args, **kwargs):
            counter[0] += 1
            return original(*args, **kwargs)
        return wrapper
    for mod in (module, *more):
        monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    return counter


class TestWorkDoneOnce:
    def test_qpff_classify_decomposes_and_verifies_once(self, monkeypatch):
        computed = count_calls(monkeypatch, pfeedback, "compute_qpff")
        verified = count_calls(monkeypatch, pfeedback, "verify_qpff")
        code, text = run_cli("qpff", path("sigma763.system"), "--classify")
        assert code == 0 and "verified: ok" in text
        assert (computed[0], verified[0]) == (1, 1)

    def test_qpdff_decomposes_and_verifies_once(self, monkeypatch):
        computed = count_calls(monkeypatch, pdfeedback, "compute_qpdff")
        verified = count_calls(monkeypatch, pdfeedback, "verify_qpdff")
        code, _ = run_cli("qpdff", path("sigma763.system"))
        assert code == 0
        assert (computed[0], verified[0]) == (1, 1)

    def test_qpff_decouple_verifies_input_once(self, monkeypatch):
        # inside compute_qpff; the decoupling's postcondition needs no check
        verified = count_calls(monkeypatch, pfeedback, "verify_qpff")
        code, text = run_cli("qpff", path("sigma763.system"), "--decouple")
        assert code == 0 and "decoupled: ok" in text
        assert verified[0] == 1

    def test_qpdff_decouple_verifies_input_once(self, monkeypatch):
        verified = count_calls(monkeypatch, pdfeedback, "verify_qpdff")
        code, text = run_cli("qpdff", path("sigma763.system"), "--decouple")
        assert code == 0 and "decoupled: ok" in text
        assert verified[0] == 1

    def test_qpdff_decouple_computes_limits_once(self, monkeypatch):
        # for the decomposition only: the decoupling's postcondition implies
        # the Wong limit pattern of its output; compute_qpdff reaches them
        # through pfeedback's limit spaces
        limits = count_calls(monkeypatch, pdfeedback, "wong_limits", pfeedback)
        code, text = run_cli("qpdff", path("sigma763.system"), "--decouple")
        assert code == 0 and "decoupled: ok" in text
        assert limits[0] == 1

    def test_wong_identities_compute_limits_twice(self, monkeypatch):
        # once for the system, once for its augmented system
        limits = count_calls(monkeypatch, wong, "wong_limits")
        code, _ = run_cli("wong", path("sigma763.system"), "--check-identities")
        assert code == 0
        assert limits[0] == 2

    def test_qpff_takes_only_the_systems_w_steps(self, monkeypatch):
        # the system's own W chain, j* = 2 steps: restricting its live rows
        # to W^2 drops none, so no step confirms the limit; each all-lambda
        # rank condition runs a V chain only
        steps = count_calls(monkeypatch, wong, "_w_step")
        code, _ = run_cli("qpff", path("sigma763.system"))
        assert code == 0
        assert steps[0] == 2

    @pytest.mark.parametrize("form, name", [("qpff", "qpff_classify_decouple.out"),
                                            ("qpdff", "qpdff_decouple.out")])
    def test_verify_quasi_form_takes_no_w_step(self, monkeypatch, form, name):
        # the --output file holds both the witness and the block sizes
        steps = count_calls(monkeypatch, wong, "_w_step")
        out = os.path.join(GOLDEN, name)
        code, text = run_cli("verify", path("sigma763.system"), "--witness", out,
                             "--form", form, "--data", out)
        assert code == 0 and text == f"verify {form}: pass\n"
        assert steps[0] == 0

    @pytest.mark.parametrize("form", ["qpff", "qpdff"])
    def test_decouple_without_output_formats_nothing(self, monkeypatch, form):
        # the --output document is built only when it is written
        counters = [count_calls(monkeypatch, sysio, name) for name in
                    ("format_matrix", "format_system", "format_witness", "format_int_list")]
        code, text = run_cli(form, path("sigma763.system"), "--decouple")
        assert code == 0 and "decoupled: ok" in text
        assert [c[0] for c in counters] == [0, 0, 0, 0]

    def test_wong_limits_eliminates_b_once(self, monkeypatch):
        # one forward elimination of B's columns serves both chains
        eliminations = count_calls(monkeypatch, wong, "_chain_rows")
        rep = wong.wong_limits(SYS763)
        assert (rep.i_star, rep.j_star) == (1, 2)
        assert eliminations[0] == 1

    def test_coupled_solve_runs_no_kernel_or_solve(self, monkeypatch):
        # one forward elimination of [S | I] gives the left kernel and Y
        from daeforms import TwoEqInstance, linalg, solve_two_equations, sylvester
        counters = []
        for name in ("kernel_basis", "solve_right"):
            counters.append(count_calls(monkeypatch, linalg, name))
            # also where sylvester would bind them by name
            monkeypatch.setattr(sylvester, name, getattr(linalg, name), raising=False)
        a, c = Mat.from_rows([[1, 2], [2, 4]]), Mat.from_rows([[0, 1], [0, 2]])  # S of rank 2
        b, d = Mat.identity(2), Mat.from_rows([[1, 1], [0, 1]])
        y0, z0 = Mat.from_rows([[1, 0], [2, 1]]), Mat.from_rows([[0, 1], [3, 0]])
        inst = TwoEqInstance(A=a, B=b, C=c, D=d, E=-(a @ y0 + z0 @ d), F=-(c @ y0 + z0 @ b))
        assert solve_two_equations(inst) is not None
        assert [c[0] for c in counters] == [0, 0]

    def test_qpff_solves_for_its_feedback_once(self, monkeypatch):
        # F_1 and F_2 together, from the bottom block row of S B
        solves = count_calls(monkeypatch, pfeedback, "solve_right")
        pfeedback.compute_qpff(SYS763)
        assert solves[0] == 1

    def test_decompositions_apply_no_witness(self, monkeypatch):
        # the transformed triple comes from the products that gave the feedback
        applied = count_calls(monkeypatch, pfeedback, "apply_p_transform")
        applied_pd = count_calls(monkeypatch, pdfeedback, "apply_pd_transform")
        pfeedback.compute_qpff(SYS763)
        pdfeedback.compute_qpdff(SYS763)
        assert (applied[0], applied_pd[0]) == (0, 0)


GOLDEN = os.path.join(DATA, "golden")

# The expected files of byte_gate.GOLDEN_CALLS are a frozen reference: a
# change that alters them changes what users see, so regenerate them only
# for an intended change.


def golden_bytes(name: str) -> bytes:
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CALLS))
    def test_output_is_byte_identical(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(DATA)
        out = tmp_path / "form.out"
        argv = [str(out) if a == "OUT" else a for a in GOLDEN_CALLS[name]]
        code, text = run_cli(*argv)
        assert code == 0
        assert text.encode("utf-8") == golden_bytes(name + ".stdout")
        if "OUT" in GOLDEN_CALLS[name]:
            assert out.read_bytes() == golden_bytes(name + ".out")


class TestVerdictCorpus:
    @pytest.mark.parametrize("form", FORMS)
    def test_every_block_condition_passes_and_fails(self, form):
        # the byte gate's verdict digests see both outcomes of every
        # condition that the zero pattern does not decide
        seen = {}
        for checks in verdict_record(form, verdict_triples(form)):
            for name, passed in checks:
                seen.setdefault(name, set()).add(passed)
        assert seen.pop("zero_pattern") == {True}
        assert len(seen) >= 3 and all(outcomes == {True, False} for outcomes in seen.values())
