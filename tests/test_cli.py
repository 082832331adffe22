import contextlib
import errno
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from u3plus import AnickComplex, FieldSpec, GradedMatrix, Window, Word, \
    parse_poly
from u3plus import cli
from u3plus.cli import main

from conftest import complex_for, drop_window_rule, system_for, \
    system_from_polynomials


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNf:
    def test_square_vanishes(self, capsys):
        code, out, _ = run(capsys, "nf", "--p", "2", "--m", "1", "a0*a0")
        assert code == 0
        assert out.strip() == "0"

    def test_braid(self, capsys):
        code, out, _ = run(capsys, "nf", "--p", "2", "--m", "1",
                           "b0*a0*b0*a0")
        assert code == 0
        assert out.strip() == "a0*b0*a0*b0"

    def test_divided_straightening(self, capsys):
        code, out, _ = run(capsys, "nf", "--p", "3", "--m", "1",
                           "eb(1)*ea(1)")
        assert code == 0
        assert out.strip() == "ea(1)*eb(1) - eab(1)"

    def test_char0_divided(self, capsys):
        code, out, _ = run(capsys, "nf", "--p", "3", "--m", "1", "--char0",
                           "--bound", "4", "eb(2)*ea(1)")
        assert code == 0
        assert out.strip() == "ea(1)*eb(2) - eab(1)*eb(1)"

    def test_mixed_alphabets_rejected(self, capsys):
        code, _, err = run(capsys, "nf", "--p", "2", "--m", "1", "a0*ea(1)")
        assert code == 2
        assert "mixes" in err

    def test_parse_error_reported(self, capsys):
        code, _, err = run(capsys, "nf", "--p", "2", "--m", "1", "a0 +")
        assert code == 2
        assert "error" in err

    def test_bad_window_rejected(self, capsys):
        code, _, err = run(capsys, "nf", "--p", "2", "--m", "1", "--j", "1",
                           "a0")
        assert code == 2

    @pytest.mark.parametrize("p,fraction,integer", [
        ("3", "1/2*a0", "2*a0"),
        ("5", "3/2*a0", "4*a0"),
    ])
    def test_fraction_coefficient_mod_p(self, capsys, p, fraction, integer):
        code, out, _ = run(capsys, "nf", "--p", p, "--m", "1", fraction)
        assert code == 0
        _, expected, _ = run(capsys, "nf", "--p", p, "--m", "1", integer)
        assert out == expected
        assert out.strip() not in ("0", "a0")

    def test_denominator_divisible_by_p(self, capsys):
        code, out, err = run(capsys, "nf", "--p", "3", "--m", "1", "1/3*a0")
        assert code == 2
        assert err.startswith("error: 1/3 has no residue mod 3")
        assert not out

    def test_zero_denominator(self, capsys):
        code, _, err = run(capsys, "nf", "--p", "3", "--m", "1", "--char0",
                           "1/0*ea(1)")
        assert code == 2
        assert err.startswith("error: zero denominator")

    @pytest.mark.parametrize("expression,need", [
        ("ea(2)*ea(1)", 3),
        ("eb(1)*ea(5)", 5),
        ("ea(1)*eb(2)*ea(2)", 3),
    ])
    def test_char0_weight_above_bound_rejected(self, capsys, expression,
                                               need):
        code, out, err = run(capsys, "nf", "--p", "3", "--m", "1", "--char0",
                             expression)
        assert code == 2
        assert not out
        assert f"need --bound {need}" in err

    @pytest.mark.parametrize("expression,expected", [
        ("ea(2)*eab(1)", "ea(2)*eab(1)"),
        ("eab(1)*ea(2)", "ea(2)*eab(1)"),
        ("ea(5)", "ea(5)"),
    ])
    def test_char0_pbw_normal_form_within_default_bound(self, capsys,
                                                        expression, expected):
        """A weight above the bound is fine when no merge past it is
        needed: the normal form is already in PBW order."""
        code, out, _ = run(capsys, "nf", "--p", "3", "--m", "1", "--char0",
                           expression)
        assert code == 0
        assert out.strip() == expected

    def test_char0_bound_large_enough(self, capsys):
        code, out, _ = run(capsys, "nf", "--p", "3", "--m", "1", "--char0",
                           "--bound", "3", "ea(2)*ea(1)")
        assert code == 0
        assert out.strip() == "3*ea(3)"

    def test_truncated_letter_above_bound_rejected(self, capsys):
        code, out, err = run(capsys, "nf", "--p", "3", "--m", "1", "eab(9)")
        assert code == 2
        assert not out
        assert "eab(9)" in err and "<= 2" in err

    @pytest.mark.parametrize("argv,letter,window", [
        (("--m", "1"), "a1", "0..0 (--j 0, --m 1)"),
        (("--m", "2"), "b2", "0..1 (--j 0, --m 2)"),
        (("--j", "1", "--m", "2"), "a0", "1..1 (--j 1, --m 2)"),
    ])
    def test_letter_outside_window_rejected(self, capsys, argv, letter,
                                            window):
        code, out, err = run(capsys, "nf", "--p", "2", *argv,
                             f"{letter}*b1 + b0")
        assert code == 2
        assert out == ""
        assert err == (f"error: letter {letter} is outside the window of "
                       f"indices {window}\n")

    def test_truncated_merge_past_bound_vanishes(self, capsys):
        code, out, _ = run(capsys, "nf", "--p", "3", "--m", "1",
                           "ea(1)*ea(1)*ea(1)")
        assert code == 0
        assert out.strip() == "0"

    @pytest.mark.parametrize("expression,message", [
        ("a0 b0", "expected '+' or '-', got 'b0' (at position 3)"),
        ("ea(1) eb(2)", "expected '+' or '-', got 'eb(2)' (at position 6)"),
    ])
    def test_parse_error_quotes_the_whole_generator(self, capsys, expression,
                                                    message):
        code, out, err = run(capsys, "nf", "--p", "3", "--m", "1",
                             expression)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


# expression text: generator tokens (some out of range), integers,
# operators, parentheses, spaces and junk characters, or well-formed sums
# of words in one alphabet
_NF_PIECES = st.sampled_from([
    "a0", "b0", "a1", "b1", "a2", "b01", "ea(1)", "eab(1)", "eb(2)", "ea(3)",
    "eab(4)", "eb(0)", "0", "1", "2", "3", "10", "/", "*", "+", "-", "(", ")",
    " ", "\t", "e", "ab", "x", "$", "\u00e9", "\u0663"]) | st.text(max_size=1)


def _nf_sums(letters):
    term = st.builds(lambda coeff, w: coeff + "*".join(w),
                     st.sampled_from(["", "2*", "1/2*", "10*"]),
                     st.lists(st.sampled_from(letters), min_size=1,
                              max_size=4))
    return st.lists(term, min_size=1, max_size=3).map(" - ".join)


_NF_EXPRESSIONS = (st.lists(_NF_PIECES, max_size=10).map("".join)
                   | st.sampled_from([("a0", "b0", "a1", "b1"),
                                      ("ea(1)", "eab(1)", "eb(2)", "ea(3)")])
                   .flatmap(_nf_sums))


@settings(max_examples=150, deadline=None)
@given(expression=_NF_EXPRESSIONS,
       p=st.sampled_from(["2", "3"]), m=st.sampled_from(["1", "2"]),
       char0=st.booleans(), bound=st.none() | st.sampled_from(["1", "2", "3"]))
def test_nf_fails_only_with_one_error_line(expression, p, m, char0, bound):
    """Any expression text gives a normal form (exit 0) or exactly one
    error line (exit 2), never a traceback."""
    argv = ["nf", "--p", p, "--m", m]
    if char0:
        argv.append("--char0")
    if bound is not None:
        argv += ["--bound", bound]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--", expression])
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    if code == 0:
        assert err == "" and out.count("\n") == 1
    else:
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestGb:
    def test_small_window(self, capsys):
        code, out, _ = run(capsys, "gb", "--p", "2", "--m", "2")
        assert code == 0
        assert "rules: 10  complete: True  pairs: 22  reduced: True" in out

    def test_p3(self, capsys):
        code, out, _ = run(capsys, "gb", "--p", "3", "--m", "1")
        assert code == 0
        assert "rules: 5" in out

    def test_big_truncated(self, capsys):
        code, out, _ = run(capsys, "gb", "--p", "2", "--m", "1", "--big",
                           "--bound", "1")
        assert code == 0
        assert "complete: True" in out

    def test_shifted_window(self, capsys):
        code, out, _ = run(capsys, "gb", "--p", "2", "--m", "2", "--j", "1")
        assert code == 0
        assert "rules: 3  complete: True" in out
        assert "a1*a1 -> 0" in out

    def test_json_round_trip(self, capsys, tmp_path):
        target = tmp_path / "basis.json"
        code, _, _ = run(capsys, "gb", "--p", "2", "--m", "2",
                         "--json", str(target))
        assert code == 0
        payload = json.loads(target.read_text())
        reference = system_for(2, 2)
        polys = []
        field = FieldSpec(2)
        for entry in payload["rules"]:
            lhs = parse_poly(entry["lhs"], field)
            rhs = parse_poly(entry["rhs"], field) if entry["rhs"] != "0" \
                else None
            polys.append(lhs - rhs if rhs is not None else lhs)
        rebuilt = system_from_polynomials(
            polys, reference.order, field, reference.alphabet)
        cert = rebuilt.is_complete()
        assert cert.to_json() == reference.is_complete().to_json()
        assert {str(r) for r in rebuilt.rules} == {str(r)
                                                   for r in reference.rules}


class TestVerify:
    @pytest.mark.parametrize("p,m", [(2, 2), (3, 1)])
    def test_passes(self, capsys, p, m):
        code, out, _ = run(capsys, "verify", "--p", str(p), "--m", str(m))
        assert code == 0
        assert "all checks pass" in out
        assert "FAIL" not in out

    def test_generation_over_full_window(self, capsys):
        # p^m = 25: every e_kind(n) with n <= 24 gets a generation check
        code, out, _ = run(capsys, "verify", "--p", "5", "--m", "2")
        assert code == 0
        assert "all checks pass" in out
        assert out.count("pass  generates:") == 3 * 24

    def test_json_payload(self, capsys, tmp_path):
        target = tmp_path / "verify.json"
        code, _, _ = run(capsys, "verify", "--p", "2", "--m", "1",
                         "--json", str(target))
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["ok"] is True
        assert payload["dimension"]["expected"] == 8
        statuses = {c["status"] for c in payload["relations"]}
        assert statuses == {"pass"}


class TestAnickCommand:
    def test_smoke_and_schema(self, capsys, tmp_path):
        target = tmp_path / "anick.json"
        code, out, _ = run(capsys, "anick", "--p", "2", "--m", "1",
                           "--max-deg", "8", "--json", str(target))
        assert code == 0
        payload = json.loads(target.read_text())
        assert sorted(payload["t1"]) == [["a0", "a0"],
                                         ["b0", "a0", "b0", "a0"],
                                         ["b0", "b0"]]
        assert len(payload["t2"]) == 5
        assert payload["complex_check"]["ok"] is True
        assert all(r["exact_at_P0"] and r["exact_at_P1"]
                   for r in payload["exactness"])
        assert payload["d1"] and payload["d2"]
        assert payload["ok"] is True


class TestMinimalCommand:
    def test_smoke_and_schema(self, capsys, tmp_path):
        target = tmp_path / "minimal.json"
        code, out, _ = run(capsys, "minimal", "--p", "2", "--m", "1",
                           "--max-deg", "8", "--json", str(target))
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["ok"] is True
        assert sorted(payload["t1_prime"]) == [["a0", "a0"], ["b0", "b0"]]
        assert payload["smallness"] == {"d0": True, "d1": True, "d2": True}
        assert payload["ext_dims"]["1"] == {"0,1": 1, "1,0": 1}
        assert all(r["exact"] for r in payload["exactness_at_P1_prime"])

    def test_restriction_mismatch_exits_2(self, capsys, monkeypatch):
        drop_window_rule(monkeypatch, Window(2, 0, 1))
        code, out, err = run(capsys, "minimal", "--p", "2", "--m", "1",
                             "--max-deg", "8")
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "does not restrict" in line


class TestInputValidation:
    @pytest.mark.parametrize("argv", [
        ("anick", "--p", "2", "--m", "1", "--max-deg", "-3"),
        ("minimal", "--p", "2", "--m", "1", "--max-deg", "-1"),
        ("gb", "--p", "3", "--m", "1", "--big", "--bound", "-2"),
        ("gb", "--p", "3", "--m", "1", "--big", "--bound", "0"),
        ("nf", "--p", "3", "--m", "1", "--bound", "0", "ea(1)"),
        ("nf", "--p", "3", "--m", "1", "--j", "-1", "a0"),
        ("anick", "--p", "2", "--m", "1", "--j", "-1"),
    ])
    def test_out_of_range_flag_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "error: argument --" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("gb", "--p", "3", "--m", "1", "--big", "--bound", "5"),
        ("nf", "--p", "3", "--m", "1", "--bound", "5", "ea(1)"),
    ])
    def test_bound_not_p_power_minus_one(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: --bound: truncated bound")

    @pytest.mark.parametrize("argv,applies_to", [
        (("gb", "--p", "2", "--m", "1", "--bound", "2"), "--big"),
        (("nf", "--p", "3", "--m", "1", "--bound", "5", "b0*a0"),
         "divided alphabet"),
    ])
    def test_bound_without_big_system_rejected(self, capsys, argv,
                                               applies_to):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --bound applies only to ")
        assert applies_to in err
        assert err.count("\n") == 1

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        # an oversized prime runs out of memory building the window basis;
        # the failure is simulated, so no large word is allocated
        def exhausted(win):
            raise MemoryError

        monkeypatch.setattr(cli, "small_groebner_basis", exhausted)
        code, out, err = run(capsys, "nf", "--p", "2", "--m", "1", "a0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_out_of_memory_line_written_after_the_command_is_freed(
            self, monkeypatch):
        # near the memory limit the line itself needs memory, so the failed
        # command's frames, and what they hold, must be gone by then
        class Held:
            pass

        refs = []

        def exhausted(args):
            held = Held()
            refs.append(weakref.ref(held))
            raise MemoryError

        freed = []

        class Recorder(io.StringIO):
            def write(self, text):
                freed.append(refs[0]() is None)
                return super().write(text)

        monkeypatch.setattr(cli, "cmd_nf", exhausted)
        monkeypatch.setattr(sys, "stderr", Recorder())
        assert main(["nf", "--p", "2", "--m", "1", "a0"]) == 2
        assert sys.stderr.getvalue().startswith("error: out of memory")
        assert freed and all(freed)


@pytest.mark.parametrize("argv", [
    ("anick", "--p", "2", "--m", "1", "--max-deg", "8"),
    ("minimal", "--p", "2", "--m", "1", "--max-deg", "8"),
    ("minimal", "--p", "2", "--m", "3", "--j", "1", "--max-deg", "12"),
])
def test_each_matrix_built_once(capsys, monkeypatch, argv):
    """No graded matrix is built twice, and the report prints the very
    matrices the exactness certificates ranked."""
    built, ranked, payloads = [], [], []
    matrix, rank = AnickComplex.matrix, GradedMatrix.rank

    def counted(self, n, degree, source_chains=None, target_chains=None,
                dmap=None):
        built.append((id(self), n, degree,
                      None if source_chains is None else tuple(source_chains),
                      None if target_chains is None else tuple(target_chains),
                      dmap))
        return matrix(self, n, degree, source_chains, target_chains, dmap)

    def recorded(self, field):
        ranked.append(self)
        return rank(self, field)

    monkeypatch.setattr(AnickComplex, "matrix", counted)
    monkeypatch.setattr(GradedMatrix, "rank", recorded)
    monkeypatch.setattr(cli, "_emit",
                        lambda payload, text, args: payloads.append(payload))
    assert run(capsys, *argv)[0] == 0
    assert built and len(built) == len(set(built))
    (payload,) = payloads
    ranked_ids = {id(m) for m in ranked}
    for key in {"anick": ("d1", "d2"), "minimal": ("d2_prime",)}[argv[0]]:
        assert payload[key]
        assert all(id(m) in ranked_ids for m in payload[key])


WORKLOADS = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                        / "workloads.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_workload_report_digest(capsys, tmp_path, name):
    """The shrunken benchmark commands reproduce their recorded reports
    byte for byte."""
    spec = WORKLOADS[name]["small"]
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, *spec["argv"], "--json", str(target))
    assert code == spec["status"]
    assert hashlib.sha256(target.read_bytes()).hexdigest() == spec["sha256"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stdout_report_equals_file_report(capsys, tmp_path, name):
    spec = WORKLOADS[name]["small"]
    target = tmp_path / "report.json"
    run(capsys, *spec["argv"], "--json", str(target))
    code, out, _ = run(capsys, *spec["argv"], "--json", "-")
    assert code == spec["status"]
    assert out.encode("utf-8") == target.read_bytes()


@pytest.mark.parametrize("argv,keys", [
    (("anick", "--p", "2", "--m", "1", "--max-deg", "8"), ("d1", "d2")),
    (("minimal", "--p", "2", "--m", "1", "--max-deg", "8"), ("d2_prime",)),
])
def test_reports_hand_over_matrices_unencoded(capsys, monkeypatch, argv,
                                              keys):
    payloads = []
    monkeypatch.setattr(cli, "_emit",
                        lambda payload, text, args: payloads.append(payload))
    assert run(capsys, *argv)[0] == 0
    (payload,) = payloads
    for key in keys:
        assert payload[key]
        assert all(type(m) is GradedMatrix for m in payload[key])


def test_matrices_encoded_one_at_a_time(monkeypatch, cx21):
    """Each matrix is encoded only after everything before it was written."""
    matrices = [cx21.matrix(2, d) for d in cx21.relevant_degrees(8)]
    expected = json.dumps({"m": [m.to_json() for m in matrices]}, indent=2,
                          sort_keys=True) + "\n"

    class Recorder:
        def __init__(self):
            self.chunks = []

        def write(self, chunk):
            self.chunks.append(chunk)

    fh = Recorder()
    encoded = []
    written_at_encode = []
    matrix_text = cli._matrix_text

    def recording(mat, *args):
        encoded.append(mat)
        written_at_encode.append(len("".join(fh.chunks)))
        return matrix_text(mat, *args)

    monkeypatch.setattr(cli, "_matrix_text", recording)
    cli._dump({"m": matrices}, fh)
    assert "".join(fh.chunks) == expected
    assert len(matrices) > 1
    assert [id(m) for m in encoded] == [id(m) for m in matrices]
    assert written_at_encode == sorted(set(written_at_encode))


def test_dump_rejects_foreign_objects(cx21):
    mat = cx21.matrix(2, cx21.relevant_degrees(8)[-1])
    for payload in ({"x": object()}, {"x": {"y": {1, 2}}},
                    {"x": [mat, object()]}, {"x": [object(), mat]},
                    {"x": {"y": [mat]}}):
        with pytest.raises(TypeError):
            cli._dump(payload, io.StringIO())


@functools.cache
def _report_matrices():
    """Real matrices of the (2,1) and (3,1) complexes, many without entries,
    plus one with labels but no entries and one with char-0 coefficients."""
    out = []
    for p, bound in ((2, 8), (3, 12)):
        cx = complex_for(p, 1)
        out += [cx.matrix(n, d) for n in (1, 2)
                for d in cx.relevant_degrees(bound)]
    wide = next(m for m in out if m.row_labels and len(m.col_labels) > 1)
    blank = [[] for _ in wide.row_labels]
    out.append(GradedMatrix(wide.degree, wide.row_labels, wide.col_labels,
                            blank))
    out.append(GradedMatrix(wide.degree, wide.row_labels, wide.col_labels,
                            [[(0, Fraction(-3, 4)), (1, -2)]] + blank[1:]))
    return out


_TRICKY = st.sampled_from(["", '"', "\\", "\n", 'a"b\\c\nd', "\u00e9",
                           "\u2124/p", "\U0001d53d\t\x00"])
_KEYS = st.text(max_size=6) | _TRICKY
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8) | _TRICKY,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_KEYS, inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=4)),
    max_leaves=12)


def _reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=GradedMatrix.to_json) + "\n"


def _dumped(payload) -> str:
    fh = io.StringIO()
    cli._dump(payload, fh)
    return fh.getvalue()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_dump_equals_indented_json(data):
    """_dump writes the bytes of json.dumps(indent=2, sort_keys=True) with
    every matrix of a top-level list replaced by its to_json()."""
    matrices = _report_matrices()
    item = st.sampled_from(matrices) | _JSON_VALUES
    value = _JSON_VALUES | st.lists(item, min_size=1, max_size=4)
    payload = data.draw(st.dictionaries(_KEYS, value, max_size=5))
    assert _dumped(payload) == _reference(payload)


def test_dump_writes_every_matrix_like_json():
    payload = {"d": _report_matrices(), "empty": [], "ok": True}
    assert _dumped(payload) == _reference(payload)
    assert _dumped({}) == "{}\n"


def test_dump_shares_texts_between_matrices(cx21):
    """The word, chain and coefficient texts one dump shares between its
    matrices: a word labelling rows under two chains, char-0 Fractions
    equal to the int entries of another matrix, and two reports dumped one
    after the other."""
    m, e = cx21.t0[0], Word("").chars
    t1, t2 = cx21.t1[:2]
    degree = Word(m + t1).degree
    ints = GradedMatrix(degree, [(m, t1), (e, t2)], [(m, t2), (e, t1)],
                        [[(0, 1), (1, 2)], [(1, 1)]])
    fracs = GradedMatrix(degree, [(m, t2), (m, t1)], [(e, t2)],
                         [[(0, Fraction(2))], [(0, Fraction(-1, 2))]])
    assert ints.entries[0][1][1] == fracs.entries[0][0][1]
    real = _report_matrices()
    for payload in ({"a": [ints, fracs], "b": [fracs, ints, *real[:3]]},
                    {"a": [fracs, *real, ints]}, {"z": [ints]}):
        assert _dumped(payload) == _reference(payload)


@pytest.mark.parametrize("name", ["minimal-p3m1-d24", "anick-p3m2-d20"])
def test_full_workload_report_digest(capsys, tmp_path, name):
    """The full benchmark reports, whose matrices are large, are unchanged
    byte for byte."""
    spec = WORKLOADS[name]
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, *spec["argv"], "--json", str(target))
    assert code == spec["status"]
    assert hashlib.sha256(target.read_bytes()).hexdigest() == spec["sha256"]


class TestReportOutput:
    def test_missing_directory_rejected_before_computing(self, capsys,
                                                         monkeypatch,
                                                         tmp_path):
        def computed(args):
            raise AssertionError("computed before checking --json")

        monkeypatch.setattr(cli, "cmd_gb", computed)
        target = tmp_path / "missing" / "x.json"
        code, _, err = run(capsys, "gb", "--p", "2", "--m", "1", "--big",
                           "--bound", "3", "--json", str(target))
        assert code == 2
        assert err.startswith("error: --json: directory")
        assert not target.parent.exists()

    def test_open_failure_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "gb", "--p", "2", "--m", "1",
                           "--json", str(tmp_path))
        assert code == 2
        assert err.startswith(f"error: cannot write report {tmp_path}: ")

    def test_write_failure_is_a_usage_error(self, capsys, monkeypatch,
                                            tmp_path):
        def full(payload, fh):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "_dump", full)
        target = tmp_path / "x.json"
        code, _, err = run(capsys, "gb", "--p", "2", "--m", "1",
                           "--json", str(target))
        assert code == 2
        assert err == (f"error: cannot write report {target}: "
                       f"{os.strerror(errno.ENOSPC)}\n")

    def test_failed_run_leaves_existing_report(self, capsys, tmp_path):
        target = tmp_path / "x.json"
        target.write_text("old", encoding="utf-8")
        code, _, _ = run(capsys, "gb", "--p", "3", "--m", "1", "--big",
                         "--bound", "5", "--json", str(target))
        assert code == 2
        assert target.read_text(encoding="utf-8") == "old"


@pytest.mark.parametrize("name", ["anick-p3m2-d20", "minimal-p3m1-d24"])
def test_small_run_does_not_import_numpy(tmp_path, name):
    argv = WORKLOADS[name]["small"]["argv"] + ["--json",
                                              str(tmp_path / "r.json")]
    script = ("import sys\n"
              "from u3plus.cli import main\n"
              f"code = main({argv!r})\n"
              "print(code, 'numpy' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split()[-2:] == ["0", "False"]
