import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from racah import representation as rep
from racah.cli import main
from racah.freealg import Gen


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "params.cfg"
    path.write_text("c1 = 1/3\nc2 = 1/5\nc3 = 2/7\nc4 = 1/2\nN = 4\nwindow = 5\n")
    return str(path)


def test_reduce_command(capsys):
    assert main(["reduce", "[P12,P23] - 2*D123"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_reduce_normal_form(capsys):
    assert main(["reduce", "C23*C12", "--rank", "3"]) == 0
    out = capsys.readouterr().out
    assert "D123" in out


def test_symmetry_closure(capsys):
    assert main(["symmetry", "closure"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "pentagon action alone: order 10",
        "index relabeling alone: order 24",
        "combined closure: order 120",
        "generators: one rotation, one reflection, and the three adjacent"
        " index swaps"]


# sha256 of `symmetry orbit X --group G` for every subset letter X, in
# letter order within d5, p4 and both, and of `symmetry closure`: pinned
# before the pentagon became permutations of five points
SUBSET_LETTERS = ("C1 C2 C3 C4 C12 C13 C14 C23 C24 C34 C123 C124 C134 C234"
                  " C1234").split()


def test_symmetry_orbits_golden(capsys):
    for group in ("d5", "p4", "both"):
        for letter in SUBSET_LETTERS:
            assert main(["symmetry", "orbit", letter, "--group", group]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == \
        "76ae9e7aa0a698f6be1141e84d230fe0d2e476d4fcc0a53ed44f0c42b43e742d"


def test_symmetry_closure_golden(capsys):
    assert main(["symmetry", "closure"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == \
        "8f6d351d02d41cee020bcbaf8c214f27c67f076cf84bbaf58a7b242f7d9338ac"


def test_symmetry_orbit(capsys):
    assert main(["symmetry", "orbit", "C12", "--group", "d5"]) == 0
    lines = capsys.readouterr().out.split()
    assert lines == ["C12", "C123", "C23", "C234", "C34"]


# shift and half-commutator letters are not subset generators: P12 is
# C12 - C1 - C2, so reading its indices as a subset gave C12's orbit
@pytest.mark.parametrize("symbol", ["P12", "P1", "D123"])
def test_symmetry_orbit_rejects_shift_and_half_letters(capsys, symbol):
    assert main(["symmetry", "orbit", symbol, "--group", "d5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert symbol in captured.err


# orbit and rep dump take one bare generator: no sum, no zero, no
# coefficient to drop; Ga0 names 1/2[C123, C234], a sum of two words.
# rep dump then needs a contiguous letter.
_NON_LETTERS = ["0", "C12+C13", "2*C12", "Ga0"]


@pytest.mark.parametrize("argv, message", [
    *(pytest.param(["symmetry", "orbit", expr, "--group", "d5"],
                   "single generator", id=expr) for expr in _NON_LETTERS),
    *(pytest.param(["rep", "dump", "--gen", expr], "single generator",
                   id=f"rep-dump-{expr}") for expr in _NON_LETTERS),
    *(pytest.param(["rep", "dump", "--gen", expr],
                   "not a contiguous-basis generator", id=f"rep-dump-{expr}")
      for expr in ("P12", "D123", "C13")),
])
def test_symmetry_orbit_rejects_non_generator(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv", [
    ["reduce", "--rank", "4", "1/0*C12"],
    ["rep", "apply", "--expr", "1/0*C23", "--state", "3,0"],
])
def test_zero_denominator_in_expression(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "zero denominator" in captured.err


# non-dyadic coefficients, whose denominators no rule body has, come back
# exact and printed exactly as before the engine computed over integers
def test_reduce_non_dyadic_exact(capsys):
    assert main(["reduce", "--rank", "5",
                 "1/3*[C12,C13] + 2/7*C123*C45 - 5/11*{D123,P45}"]) == 0
    assert capsys.readouterr().out == (
        "-2/3*D123 + 2/7*P12*P45 - 2/7*P12*P4 - 2/7*P12*P5 + 2/7*P13*P45"
        " - 2/7*P13*P4 - 2/7*P13*P5 - 10/11*P14*D235 + 2/7*P23*P45"
        " - 2/7*P23*P4 - 2/7*P23*P5 + 10/11*P24*D135 - 10/11*P34*D125"
        " - 2/7*P45*P1 - 2/7*P45*P2 - 2/7*P45*P3 + 2/7*P1*P4 + 2/7*P1*P5"
        " + 2/7*P2*P4 + 2/7*P2*P5 + 2/7*P3*P4 + 2/7*P3*P5\n")


def test_list_relations(capsys):
    assert main(["list-relations", "--rank", "3"]) == 0
    out = capsys.readouterr().out
    assert "central" in out and "pres_rank1" in out


# ranks outside 3..9 are refused before any instance is enumerated
@pytest.mark.parametrize("rank", ["2", "0", "10"])
def test_list_relations_rank_out_of_range(capsys, rank):
    assert main(["list-relations", "--rank", rank]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "3..9" in captured.err


# a generator glued to extra digits was read as a smaller generator times a
# number (P123 as 3*P12); it is a parse error now
@pytest.mark.parametrize("text", ["P123", "D1234", "Om12"])
def test_reduce_rejects_generator_with_trailing_digit(capsys, text):
    assert main(["reduce", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unexpected character" in captured.err


# an operator token where an atom belongs was read as a generator and
# ended in an IndexError traceback with exit 1, the code of a FAILED record
@pytest.mark.parametrize("argv", [
    *(["reduce", text] for text in ("+C12", "*", ",", ")", "C12*]", "^2")),
    ["rep", "apply", "--expr", "[C12,]", "--state", "0,0"],
    ["symmetry", "orbit", "]"],
])
def test_operator_where_an_atom_belongs(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unexpected token" in captured.err


# about 300 nested brackets ended in a RecursionError traceback with exit 1,
# the code of a FAILED record
_DEEP = "(" * 300 + "C12" + ")" * 300


@pytest.mark.parametrize("argv", [
    ["reduce", _DEEP],
    ["rep", "apply", "--expr", "[C12," * 300 + "C23" + "]" * 300,
     "--state", "0,0"],
    ["symmetry", "orbit", _DEEP],
], ids=["reduce", "rep-apply", "symmetry-orbit"])
def test_expression_nested_too_deeply(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "nested too deeply" in captured.err


# these expanded until memory ran out: a nested commutator more than doubles
# its terms per level, and a power multiplies its base out
@pytest.mark.parametrize("text, message", [
    ("[C12,[C23," * 10 + "C34" + "]]" * 10, "terms in one product"),
    ("(C12+C23)^30", "terms in one product"),
    ("C1^100000", "exponent 100000 is above the limit"),
], ids=["nested", "power-of-sum", "power-of-letter"])
def test_reduce_rejects_runaway_expansion(capsys, text, message):
    assert main(["reduce", "--rank", "4", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


# digits are ASCII only: int() alone also reads other scripts' digits and
# underscores, so these read as C12, rank 3, rank 1000 and window 2
def test_reduce_rejects_non_ascii_digits(capsys):
    assert main(["reduce", "C\u0661\u0662"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unexpected character" in captured.err


@pytest.mark.parametrize("argv", [
    ["list-relations", "--rank", "\u0663"],
    ["list-relations", "--rank", "1_000"],
    ["rep", "dump", "--gen", "C12", "--window", "\u0662"],
])
def test_integer_flags_take_ascii_digits_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not an integer" in captured.err


# orbit needs its generator, and closure takes none
@pytest.mark.parametrize("argv", [["symmetry", "orbit"],
                                  ["symmetry", "closure", "C12"]])
def test_symmetry_checks_its_generator_argument(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "generator" in captured.err


def test_rep_dump_format(capsys, params_file):
    assert main(["rep", "dump", "--gen", "C123", "--window", "3",
                 "--params", params_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # one line per nonzero entry: "t s -> t' s'  p/q", diagonal here
    assert all("->" in line for line in lines)
    first = lines[0].split()
    assert first[:5] == ["0", "0", "->", "0", "0"]
    assert "/" in first[5] or first[5].lstrip("-").isdigit()


def test_rep_dump_reads_any_symbol_of_its_letter(capsys):
    # Om0 is the pentagon label of C23
    assert main(["rep", "dump", "--gen", "C23"]) == 0
    c23 = capsys.readouterr().out
    assert main(["rep", "dump", "--gen", "Om0"]) == 0
    assert capsys.readouterr().out == c23


def test_rep_apply(capsys, params_file):
    assert main(["rep", "apply", "--expr", "[C12,C34]", "--state", "1,0",
                 "--params", params_file]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_rep_apply_unreliable_state(capsys, params_file):
    # a configuration error, like a state past the window; 1 means FAILED
    code = main(["rep", "apply", "--expr", "C23", "--state", "5,0",
                 "--params", params_file])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unreliable" in captured.err


def test_rep_apply_rejects_non_lattice_state(capsys, params_file):
    # s > t names no state of the triangular lattice
    assert main(["rep", "apply", "--expr", "C12", "--state", "2,5",
                 "--params", params_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not a lattice state" in captured.err


def test_rep_apply_rejects_state_outside_window(capsys, params_file):
    assert main(["rep", "apply", "--expr", "C12", "--state", "99,0",
                 "--params", params_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "outside window 5" in captured.err


# a state's parts are ASCII integers too: int() alone read these as |1,0>
# and |1,0> again, and printed that state's image
@pytest.mark.parametrize("state", ["\u0661,\u0660", "0_1,0"])
def test_rep_apply_state_takes_ascii_digits_only(capsys, params_file, state):
    assert main(["rep", "apply", "--expr", "C23", "--state", state,
                 "--params", params_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "is not two integers" in captured.err


def _dumped_states(capsys):
    return {tuple(line.split()[:2])
            for line in capsys.readouterr().out.strip().splitlines()}


def test_window_zero_flag_is_honoured(capsys, params_file):
    assert main(["rep", "dump", "--gen", "C12", "--window", "0",
                 "--params", params_file]) == 0
    assert _dumped_states(capsys) == {("0", "0")}


def test_window_zero_in_config_is_honoured(capsys, tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("c1 = 1/3\nc2 = 1/5\nc3 = 2/7\nc4 = 1/2\nN = 4\nwindow = 0\n")
    assert main(["rep", "dump", "--gen", "C12", "--params", str(cfg)]) == 0
    assert _dumped_states(capsys) == {("0", "0")}


def test_negative_window_rejected(capsys, tmp_path, params_file):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("c1 = 1/3\nc2 = 1/5\nc3 = 2/7\nc4 = 1/2\nN = 4\nwindow = -1\n")
    assert main(["verify", "--rank", "4", "--params", str(cfg),
                 "--suites", "casimirs"]) == 2
    assert "window must be >= 0" in capsys.readouterr().err
    # these passed a digit test and then made int() raise: a traceback
    for text in ("--5", "\u00b2"):
        cfg.write_text("c1 = 1/3\nc2 = 1/5\nc3 = 2/7\nc4 = 1/2\nN = 4\n"
                       f"window = {text}\n", encoding="utf-8")
        assert main(["verify", "--rank", "3", "--params", str(cfg)]) == 2
        assert "window must be an integer" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["rep", "dump", "--gen", "C12", "--window", "-1",
              "--params", params_file])
    assert exc.value.code == 2
    assert "window must be >= 0" in capsys.readouterr().err


def test_verify_exit_codes(capsys, params_file):
    assert main(["verify", "--rank", "3", "--suites", "definitions",
                 "--params", params_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["FAILED"] == 0
    assert doc["instances"]


def test_verify_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("c1 = 0.5\n")
    assert main(["verify", "--rank", "4", "--params", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_verify_invalid_window(capsys, tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("c1=1\nc2=1\nc3=1\nc4=1\nN=3\nwindow = 12\n")
    assert main(["verify", "--rank", "4", "--params", str(cfg),
                 "--suites", "definitions"]) == 2


def test_jacobi_command(capsys):
    assert main(["jacobi", "--rank", "3", "--format", "human"]) == 0
    out = capsys.readouterr().out
    assert "proved-zero" in out


def test_jacobi_rank_out_of_range(capsys):
    assert main(["jacobi", "--rank", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "3..9" in captured.err


# a suite named in --suites that has no instance at this rank ran nothing,
# which is not a pass
@pytest.mark.parametrize("rank,suites,empty", [
    ("5", "symmetry,pentagon", "symmetry, pentagon"),
    ("3", "pentagon", "pentagon"),
    ("4", "theorem_rn", "theorem_rn"),
    ("3", "jacobi,symmetry", "symmetry"),
])
def test_verify_named_empty_suite(capsys, rank, suites, empty):
    assert main(["verify", "--rank", rank, "--suites", suites]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"rank {rank} of suite {empty}" in captured.err


def test_verify_rejects_repeated_suite(capsys):
    # naming a suite twice would run it twice and double every count
    assert main(["verify", "--rank", "3",
                 "--suites", "definitions,definitions"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "named twice" in captured.err


def test_rep_probe(capsys, params_file):
    assert main(["rep", "probe", "--params", params_file]) == 0
    assert capsys.readouterr().out.strip()


# without --params the rep commands inspect the integer set, at the
# --window given (4 when none is)

def test_rep_dump_window_without_params(capsys):
    assert main(["rep", "dump", "--gen", "C23", "--window", "2"]) == 0
    assert max(int(t) for t, _ in _dumped_states(capsys)) == 2


def test_rep_dump_marks_columns_cut_by_the_window(capsys):
    # C23 raises |2,0> to |3,0> with coefficient 1, past window 2
    assert main(["rep", "dump", "--gen", "C23", "--window", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line for line in lines if line.startswith("2 0 ")] == [
        "2 0 -> 2 0  6", "2 0 -> beyond window 2"]
    beyond = [line.split()[:2] for line in lines if "beyond" in line]
    assert beyond == [["2", "0"], ["2", "1"], ["2", "2"]]


def test_rep_dump_leak_free_is_unchanged(capsys):
    assert main(["rep", "dump", "--gen", "C123", "--window", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 0 -> 0 0  30", "1 0 -> 1 0  30", "1 1 -> 1 1  20",
        "2 0 -> 2 0  30", "2 1 -> 2 1  20", "2 2 -> 2 2  12",
        "3 0 -> 3 0  30", "3 1 -> 3 1  20", "3 2 -> 3 2  12",
        "3 3 -> 3 3  6"]


def test_rep_dump_zero_operator_prints_zero(capsys):
    # the integer set has c1 = 1, so C1 = c1(c1 - 1) acts as 0
    assert main(["rep", "dump", "--gen", "C1"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["rep", "apply", "--expr", "C1", "--state", "1,0"]) == 0
    assert capsys.readouterr().out == "0\n"
    # a nonzero scalar letter still prints its diagonal
    assert main(["rep", "dump", "--gen", "C1234", "--window", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 0 -> 0 0  42", "1 0 -> 1 0  42", "1 1 -> 1 1  42"]


def test_rep_apply_window_without_params(capsys):
    assert main(["rep", "apply", "--expr", "C23", "--state", "3,0",
                 "--window", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "outside window 2" in captured.err


def test_rep_probe_window_without_params(capsys):
    # the integer set's west factor N + 1 - t vanishes at t = 4
    assert main(["rep", "probe"]) == 0
    assert "t=4" in capsys.readouterr().out
    assert main(["rep", "probe", "--window", "2"]) == 0
    assert capsys.readouterr().out.strip() == "no factor zeros in this window"


@pytest.mark.parametrize("argv", [
    ["rep", "dump", "--gen", "C12"],
    ["rep", "apply", "--expr", "C12", "--state", "0,0"],
    ["rep", "probe"],
])
def test_rep_integer_set_invalid_window(capsys, argv):
    assert main(argv + ["--window", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n123-s vanishes at s=6" in captured.err


# sha256 of `list-relations --rank r`: the catalog's text must not change
# when the way its families are declared does
LIST_RELATIONS_SHA256 = {
    3: "18e8b0b85d067a34facdb6fee707c37c2a3a28e8cd812f77979788877d043dc3",
    4: "f58ab4114da51b06a09761042f94408acf836b0c0fa9ef9a63e7cf174d6043b0",
    5: "ebdf0e1f11f9be2fc94d435ebcd46372512b03c8a5e46a9d5eea4f1342ded15e",
    6: "947b5f976b79a1c100ef0bea5fd4cd8fe933ff4a2cf77dfa0621228c3e279629",
    7: "026f19f0728612ea3a485cf5a256d863255d627e4562c91566c99ec67d72be7a",
}


@pytest.mark.parametrize("rank", sorted(LIST_RELATIONS_SHA256))
def test_list_relations_golden(capsys, rank):
    assert main(["list-relations", "--rank", str(rank)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == LIST_RELATIONS_SHA256[rank]


# suites come from --suites alone; a file's suites key (even an empty one)
# exits 2 at every rank rather than choosing, or silently skipping, suites
@pytest.mark.parametrize("rank, line", [("3", "suites = rank1"),
                                        ("3", "suites ="),
                                        ("5", "suites = rank1")])
def test_verify_rejects_suites_in_params_file(capsys, tmp_path, params_file,
                                              rank, line):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(Path(params_file).read_text() + line + "\n")
    assert main(["verify", "--rank", rank, "--params", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--suites" in captured.err


# a params file that is not UTF-8 ended in a UnicodeDecodeError traceback
# with exit 1, the code of a FAILED record
@pytest.mark.parametrize("argv", [
    ["verify", "--rank", "4", "--suites", "casimirs"],
    ["rep", "dump", "--gen", "C12"],
    ["rep", "apply", "--expr", "C12", "--state", "0,0"],
    ["rep", "probe"],
], ids=["verify", "rep-dump", "rep-apply", "rep-probe"])
def test_params_file_not_utf8(capsys, tmp_path, params_file, argv):
    cfg = tmp_path / "p.cfg"
    cfg.write_bytes(Path(params_file).read_bytes() + b"# \xff\n")
    assert main(argv + ["--params", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(cfg) in captured.err and "UTF-8" in captured.err


# a params file that starts with a UTF-8 byte-order mark, as some editors
# save one, was read with the mark in its first key: "unknown key '\ufeffc1'"
@pytest.mark.parametrize("argv", [
    ["verify", "--rank", "3", "--suites", "definitions"],
    ["rep", "apply", "--expr", "C12", "--state", "0,0"],
], ids=["verify", "rep-apply"])
def test_params_file_with_byte_order_mark(capsys, tmp_path, params_file,
                                          argv):
    assert main(argv + ["--params", params_file]) == 0
    want = capsys.readouterr().out
    cfg = tmp_path / "p.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + Path(params_file).read_bytes())
    assert main(argv + ["--params", str(cfg)]) == 0
    assert capsys.readouterr().out == want


# after a byte-order mark, the offset of a bad byte counted from the end of
# the mark: this file reported byte 9
def test_params_file_bad_byte_offset_counts_the_byte_order_mark(capsys,
                                                                tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfc1 = 1\n# \xff\n")
    assert main(["verify", "--rank", "3", "--params", str(cfg)]) == 2
    assert "not UTF-8 text (byte 12)" in capsys.readouterr().err


def test_verify_rejects_seed_in_params_file(capsys, tmp_path, params_file):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(Path(params_file).read_text() + "seed = 1\n")
    assert main(["verify", "--rank", "3", "--params", str(cfg),
                 "--suites", "rank1"]) == 2
    assert "seed" in capsys.readouterr().err


# whole reports, pinned before the suites were routed through the runner's
# record emitters; any change in a verdict, witness, anchor or order shows.
# The Jacobi orbit reports were pinned with orbits found by trying all rank!
# relabelings, the rank-6 one from ``verify --rank 6 --suites jacobi``.
REPORT_SHA256 = {
    ("verify", "--rank", "3", "--format", "json"):
        "9c12343728df7d24204c7574e926458c70e2d67f9cb0708f069062610e42ca54",
    ("jacobi", "--rank", "4", "--format", "json"):
        "1a096d5f095840ef3ab97881c6edf6f57faeaaeabd433406bdff56232d87ce02",
    ("verify", "--rank", "4", "--suites", "rank1,casimirs,symmetry",
     "--format", "json"):
        "130c5897f62b134439752a9b2ac21800aae9524aff0473d7039ae56fd72a596f",
    ("verify", "--rank", "4", "--window", "0", "--suites", "definitions,rank1",
     "--format", "json"):
        "d86127500cd9bd1abb917475db0e4df3707781201aa6ec1ba9fe212778d5e503",
    ("jacobi", "--rank", "5", "--format", "json"):
        "fff90b057766939ebe6246b6a6c8613a70c8f7c9fc90212d4baa4cebae8037a1",
    ("jacobi", "--rank", "6", "--format", "json"):
        "6f17368acfadcd1ec7709faedabf40d8f4243c3a1d8ce72db50bbf5ea9bf32cf",
    ("verify", "--rank", "6", "--suites", "theorem_rn", "--format", "json"):
        "b00c4a3e9368fb96c923448f57d2a514e6a99403e3fa114bf8bcc246c0b9fd55",
    ("verify", "--rank", "4", "--suites", "pentagon", "--format", "json"):
        "93142a18d899997eb69d8ccb27b225b63c10baf8e029df32b82a18b97cba7632",
    ("verify", "--rank", "5", "--suites", "casimirs", "--format", "json"):
        "04af504a03a0eb64cfc9a62f37102966b65d24d358e30b8879e8110c85ec49a7",
    ("verify", "--rank", "6", "--suites", "casimirs", "--format", "json"):
        "57acef337f4d7101456df87dc030e99784ad31d8637725aabf626e4cdb1311be",
    ("verify", "--rank", "4", "--suites", "all", "--format", "json"):
        "b0ccb103e2c5bde72160b0b6777803947a3755ddf5ae3c79e8ff55e8537f3d0c",
    ("verify", "--rank", "5", "--suites", "all", "--format", "json"):
        "61c2b953afe5cab9174fb2f8c5689b6e5d23409f0d685fea1137a97ed7267a14",
    ("verify", "--rank", "6", "--suites", "all", "--format", "json"):
        "6a8b889bba59d6725f7cc67bc07e1dab9d79bba64c2c4e60f494b4a33387ed7f",
}
# about 6 s and 0.3 GB: run with -m slow
SLOW_REPORTS = {("verify", "--rank", "6", "--suites", "all", "--format", "json")}


@pytest.mark.parametrize("argv", [
    pytest.param(argv, marks=pytest.mark.slow) if argv in SLOW_REPORTS else argv
    for argv in sorted(REPORT_SHA256)], ids=" ".join)
def test_report_golden(capsysbinary, argv):
    assert main(list(argv)) == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == REPORT_SHA256[argv]


def _perturb_c23_raising(monkeypatch):
    """Adds (t+1)/7 to C23's raising entry on every state |t,s>."""
    c23 = Gen("C", (2, 3))
    stencil = rep._STENCILS[c23]

    def entries(p, t, s, trow, srow):
        out = stencil.entries(p, t, s, trow, srow)
        out[1, 0] += Fraction(t + 1, 7)
        return out

    monkeypatch.setitem(rep._STENCILS, c23,
                        rep.Stencil(stencil.t_row, stencil.s_row, entries))


# a failing rank1 report: its FAILED records and their witnesses pinned
FAILING_RANK1_SHA256 = {
    2: "313baaeef547b68cce1f3b1ff29f2db69629846db6477e1711c50522f6aba6e3",
    6: "ab45a8e6a009781b61db925cb7295fa7537f7b19884b0e066dff92f603610a67",
}


@pytest.mark.parametrize("window", sorted(FAILING_RANK1_SHA256))
def test_failing_rank1_report_golden(monkeypatch, capsysbinary, window):
    _perturb_c23_raising(monkeypatch)
    assert main(["verify", "--rank", "4", "--window", str(window),
                 "--suites", "rank1", "--format", "json"]) == 1
    out = capsysbinary.readouterr().out
    assert b'"status": "FAILED"' in out and b'"witness": "state |' in out
    assert hashlib.sha256(out).hexdigest() == FAILING_RANK1_SHA256[window]
