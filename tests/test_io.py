import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pingpong import io
from pingpong.cartan import SLMatrix, identity
from pingpong.cli import EXIT_INPUT, run
from pingpong.errors import CertificationError, InputError
from pingpong.fields import COMPLEX, REAL, padic


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_real_matrix_roundtrip(tmp_path):
    g = SLMatrix(REAL, [[2.0, 1.0], [1.0, 1.0]])
    path = write(tmp_path, "g.json", {"field": {"kind": "real"},
                                      "matrix": io.encode_matrix(g)})
    back = io.load_matrix(path)
    assert [list(r) for r in back.entries] == [[2.0, 1.0], [1.0, 1.0]]


def test_complex_scalar_forms(tmp_path):
    doc = {"field": {"kind": "complex"},
           "matrix": [[[0.0, 1.0], 0.0], [0.0, [0.0, -1.0]]]}
    g = io.load_matrix(write(tmp_path, "g.json", doc))
    assert g.entries[0][0] == 1j
    assert g.entries[1][1] == -1j
    assert io.encode_matrix(g)[0][0] == [0.0, 1.0]


def test_padic_scalar_encodings(tmp_path):
    doc = {"field": {"kind": "padic", "prime": 5, "precision": 30},
           "matrix": [[{"rat": "1/25"}, 0], [{"val": 1, "unit_digits": [2, 3]}, 25]]}
    g = io.load_matrix(write(tmp_path, "g.json", doc))
    assert g.entries[0][0].value == Fraction(1, 25)
    # little-endian digits: 5 * (2 + 3*5) = 85
    assert g.entries[1][0].value == 85
    assert io.encode_matrix(g)[0][0] == {"rat": "1/25"}


def test_padic_rejects_floats(tmp_path):
    doc = {"field": {"kind": "padic", "prime": 5},
           "matrix": [[0.2, 0], [0, 5]]}
    with pytest.raises(InputError) as err:
        io.load_matrix(write(tmp_path, "g.json", doc))
    assert err.value.path == "matrix[0][0]"


def test_real_rejects_complex_pair(tmp_path):
    doc = {"field": {"kind": "real"}, "matrix": [[[1.0, 0.0], 0.0], [0.0, 1.0]]}
    with pytest.raises(InputError) as err:
        io.load_matrix(write(tmp_path, "g.json", doc))
    assert err.value.path == "matrix[0][0]"


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_entry_points_at_entry(tmp_path, kind, text):
    # json reads all four as non-finite floats
    entry = text if kind == "real" else f"[0.5, {text}]"
    path = tmp_path / "g.json"
    path.write_text(f'{{"field": {{"kind": "{kind}"}}, '
                    f'"matrix": [[1.0, 0.0], [{entry}, 1.0]]}}')
    with pytest.raises(InputError) as err:
        io.load_matrix(path)
    assert err.value.path == "matrix[1][0]"


def test_ragged_matrix_points_at_row(tmp_path):
    doc = {"field": {"kind": "real"}, "matrix": [[1.0, 0.0], [0.0]]}
    with pytest.raises(InputError) as err:
        io.load_matrix(write(tmp_path, "g.json", doc))
    assert err.value.path == "matrix[1]"


def test_determinant_violation_is_input_error(tmp_path):
    doc = {"field": {"kind": "real"}, "matrix": [[2.0, 0.0], [0.0, 1.0]]}
    with pytest.raises(InputError):
        io.load_matrix(write(tmp_path, "g.json", doc))


@pytest.mark.parametrize("precision", [True, 2.0, "40", 0])
def test_bad_padic_precision_points_at_it(tmp_path, capsys, precision):
    # true is not precision 1, though bool is an int subclass
    doc = {"field": {"kind": "padic", "prime": 5, "precision": precision},
           "matrix": [[1, 0], [0, 1]]}
    assert run(["cartan", "--in", str(write(tmp_path, "g.json", doc))]) == EXIT_INPUT
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["path"] == "field.precision"
    assert report["payload"]["error"] == (
        f"field.precision: p-adic precision must be a positive integer, got {precision!r}")


def test_unknown_field_kind(tmp_path):
    doc = {"field": {"kind": "quaternion"}, "matrix": [[1, 0], [0, 1]]}
    with pytest.raises(InputError) as err:
        io.load_matrix(write(tmp_path, "g.json", doc))
    assert err.value.path == "field.kind"


def test_malformed_json(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        io.load_document(path)


def test_separating_set_document(tmp_path):
    doc = {"field": {"kind": "real"},
           "elements": [io.encode_matrix(identity(REAL, 2))],
           "m": 2, "r": 0.05}
    F = io.load_separating_set(write(tmp_path, "F.json", doc))
    assert F.m == 2 and F.r == 0.05 and F.C == 1.0


def test_separating_set_requires_m(tmp_path):
    doc = {"field": {"kind": "real"},
           "elements": [io.encode_matrix(identity(REAL, 2))], "r": 0.05}
    with pytest.raises(InputError) as err:
        io.load_separating_set(write(tmp_path, "F.json", doc))
    assert err.value.path == "m"


def test_generators_document(tmp_path):
    doc = {"field": {"kind": "real"},
           "generators": [io.encode_matrix(identity(REAL, 2))] * 2}
    gens = io.load_generators(write(tmp_path, "gens.json", doc))
    assert len(gens) == 2


@pytest.mark.parametrize("key, load", [("generators", io.load_generators),
                                       ("elements", io.load_separating_set)])
def test_matrix_lists_share_one_size(tmp_path, key, load):
    doc = {"field": {"kind": "real"}, "m": 2, "r": 0.05,
           key: [io.encode_matrix(identity(REAL, 2))] * 2 + [io.encode_matrix(identity(REAL, 3))]}
    with pytest.raises(InputError) as err:
        load(write(tmp_path, "doc.json", doc))
    assert err.value.path == f"{key}[2]"


def test_tagged_rejects_unknown_provenance():
    with pytest.raises(CertificationError):
        io.tagged(1.0, "measured")
    assert io.tagged(2.0, "exact") == {"value": 2.0, "provenance": "exact"}


def test_measured_provenance_by_field():
    assert io.measured(REAL) == "tolerance"
    assert io.measured(padic(5)) == "exact"


def test_input_digest_matches_sha256(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{}")
    # sha256 of the two-byte string "{}"
    assert io.input_digest(path) == (
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a")


def test_point_and_form_encodings():
    g = SLMatrix(REAL, [[math.cos(0.3), -math.sin(0.3)],
                        [math.sin(0.3), math.cos(0.3)]])
    t = g.cartan()
    point = io.encode_point(t.attracting_point())
    form = io.encode_form(t.repulsive_hyperplane())
    assert set(point) == {"point"} and len(point["point"]) == 2
    assert set(form) == {"form"} and len(form["form"]) == 2


REAL_SPEC = {"kind": "real"}
IDENTITY = [[1, 0], [0, 1]]


def padic_entry(entry):
    return {"field": {"kind": "padic", "prime": 5}, "matrix": [[entry, 0], [0, 1]]}


# (command, document, path); a document of None is a file that is not there,
# and its path is the file's own
@pytest.mark.parametrize("command, doc, path", [
    ("cartan", None, None),
    ("cartan", [1, 2], ""),
    ("cartan", {"matrix": IDENTITY}, "field"),
    ("cartan", {"field": {"kind": "padic", "prime": "5"}, "matrix": IDENTITY}, "field.prime"),
    ("cartan", {"field": {"kind": "padic", "prime": 4}, "matrix": IDENTITY}, "field.prime"),
    ("cartan", padic_entry({"rat": "1/0"}), "matrix[0][0]"),
    ("cartan", padic_entry({"val": 1.5, "unit_digits": [1]}), "matrix[0][0].val"),
    ("cartan", padic_entry({"val": 0, "unit_digits": []}), "matrix[0][0].unit_digits"),
    ("cartan", padic_entry({"val": 0, "unit_digits": [10, 1]}), "matrix[0][0]"),
    ("cartan", padic_entry({"val": 0, "unit_digits": [7]}), "matrix[0][0].unit_digits"),
    ("cartan", padic_entry({"val": 0, "unit_digits": [1, -1]}), "matrix[0][0].unit_digits"),
    ("cartan", {"field": REAL_SPEC, "matrix": 5}, "matrix"),
    ("cartan", {"field": REAL_SPEC}, "matrix"),
    ("falsify", {"field": REAL_SPEC, "generators": []}, "generators"),
    ("separate", {"field": REAL_SPEC, "elements": [], "m": 1, "r": 0.1}, "elements"),
    ("separate", {"field": REAL_SPEC, "elements": [IDENTITY], "m": 1, "r": "0.1"}, "r"),
], ids=["unreadable", "root-list", "no-field", "prime-str", "prime-4", "rat-1/0", "val-float",
        "digits-empty", "digits-p-multiple", "digit-7", "digit-minus-1", "matrix-int",
        "no-matrix", "no-generators", "no-elements", "r-str"])
def test_bad_document_is_exit_2_with_its_path(tmp_path, capsys, command, doc, path):
    file = tmp_path / "doc.json"
    if doc is not None:
        file.write_text(json.dumps(doc))
    want = str(file) if path is None else path
    flag, extra = {"cartan": ("--in", []), "falsify": ("--gens", ["--max-len", "2"]),
                   "separate": ("--set", ["--seed", "0"])}[command]
    assert run([command, flag, str(file), *extra]) == EXIT_INPUT
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["path"] == want
    # the root's empty path prefixes nothing
    assert payload["error"].startswith(f"{want}: " if want else f"{file}: ")


# the stacked decode: each list is read as one stack and gated by one det call

SHEAR = [[1.0, 2.0], [0.0, 1.0]]
NOT_SL = [[2.0, 0.0], [0.0, 1.0]]
# at entry scale 1e8 the float gate admits it; its stored entries give det 2
WIDE_NOT_SL = [[1e8, 1e8], [0.0, 2e-8]]
WIDE_SL = [[1e8, 1e8 + 1], [1e8 - 1, 1e8]]  # det exactly 1


def elements_doc(elements, kind="real"):
    return {"field": {"kind": kind}, "elements": elements, "m": 1, "r": 0.1}


def load_error(tmp_path, doc, load=io.load_separating_set) -> InputError:
    with pytest.raises(InputError) as err:
        load(write(tmp_path, "doc.json", doc))
    return err.value


@pytest.mark.parametrize("bad_entry", ["x", True, math.nan, None])
def test_a_bad_determinant_before_a_bad_entry_is_reported_first(tmp_path, bad_entry):
    later = [[1.0, bad_entry], [0.0, 1.0]]
    for doc in (elements_doc([SHEAR, NOT_SL, later]),
                elements_doc([SHEAR, WIDE_NOT_SL, later])):
        err = load_error(tmp_path, doc)
        assert err.path == "elements[1]"
        assert "determinant" in str(err)
    # alone, the bad entry is what is reported
    err = load_error(tmp_path, elements_doc([SHEAR, SHEAR, later]))
    assert err.path == "elements[2][0][1]"


def test_a_bad_entry_before_a_bad_determinant_is_reported_first(tmp_path):
    err = load_error(tmp_path, elements_doc([SHEAR, [[1.0, "x"], [0.0, 1.0]], NOT_SL]))
    assert err.path == "elements[1][0][1]"


def test_a_size_mismatch_with_a_bad_determinant_reports_the_determinant(tmp_path):
    three = [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    err = load_error(tmp_path, elements_doc([SHEAR, SHEAR, three]))
    assert (err.path, str(err)) == ("elements[2]", "elements[2]: determinant is 2+0j, not 1")
    three[0][0] = 1.0
    err = load_error(tmp_path, elements_doc([SHEAR, SHEAR, three]))
    assert str(err) == "elements[2]: a 3x3 matrix, but elements[0] is 2x2"
    err = load_error(tmp_path, elements_doc([SHEAR, [[1.0]]]))
    assert str(err) == "elements[1]: matrix must be square of size at least 2"


def test_wide_gate_matrices_in_a_list(tmp_path, capsys):
    path = write(tmp_path, "F.json", elements_doc([SHEAR, WIDE_NOT_SL]))
    assert run(["separate", "--set", str(path), "--seed", "0"]) == EXIT_INPUT
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload == {"error": "elements[1]: determinant of the stored entries is 2, not 1",
                       "path": "elements[1]"}
    F = io.load_separating_set(write(tmp_path, "F.json", elements_doc([SHEAR, WIDE_SL, SHEAR])))
    assert [g.entries.tolist() for g in F.elements] == [SHEAR, WIDE_SL, SHEAR]


BIG = 10 ** 400
# an int just past the float range rounds to the largest float, but is refused
PAST_MAX = int(sys.float_info.max) + 1


@pytest.mark.parametrize("kind, entry, message", [
    ("real", True, "expected a finite real number, got True"),
    ("real", "1.5", "expected a finite real number, got '1.5'"),
    ("real", math.nan, "expected a finite real number, got nan"),
    ("real", math.inf, "expected a finite real number, got inf"),
    ("real", BIG, f"expected a finite real number, got {BIG!r}"),
    ("real", PAST_MAX, f"expected a finite real number, got {PAST_MAX!r}"),
    ("real", [1.0, 0.0], "expected a finite real number, got [1.0, 0.0]"),
    ("complex", False, "expected a finite number or [re, im], got False"),
    ("complex", "1", "expected a finite number or [re, im], got '1'"),
    ("complex", [0.5, math.nan], "expected a finite number or [re, im], got [0.5, nan]"),
    ("complex", math.nan, "expected a finite number or [re, im], got nan"),
    ("complex", [BIG, 0.0], f"expected a finite number or [re, im], got [{BIG!r}, 0.0]"),
    ("complex", [1.0, 0.0, 0.0], "expected a finite number or [re, im], got [1.0, 0.0, 0.0]"),
    ("complex", [True, 0.0], "expected a finite number or [re, im], got [True, 0.0]"),
], ids=lambda v: repr(v)[:20])
def test_a_bad_entry_in_a_list_keeps_its_message(tmp_path, kind, entry, message):
    ident = [[1.0, 0.0], [0.0, 1.0]]
    doc = {"field": {"kind": kind}, "generators": [ident, [[1.0, 0.0], [entry, 1.0]], ident]}
    err = load_error(tmp_path, doc, io.load_generators)
    assert (err.path, str(err)) == ("generators[1][1][0]", f"generators[1][1][0]: {message}")


def so3_elements(count=24, seed=3) -> list:
    """count Haar-random rotations of R^3 as lists of floats."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(count):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        mats.append(q.tolist())
    return mats


def so3_text(kind, index, entry, bad_det=False) -> str:
    """A 24-matrix SO(3) separating set over R or C (as [re, im] pairs), with
    entry [1][2] of matrix index written as the JSON text entry, and with
    matrix 5's determinant 2 if bad_det."""
    mats = so3_elements()
    if bad_det:
        mats[5][0] = [2 * x for x in mats[5][0]]
    if kind == "complex":
        mats = [[[[x, 0.0] for x in row] for row in g] for g in mats]
    mats[index][1][2] = "BAD"
    return json.dumps(elements_doc(mats, kind)).replace('"BAD"', entry)


# json reads NaN, Infinity and 1e400 as the floats nan, inf and inf
@pytest.mark.parametrize("text, value", [("NaN", "nan"), ("Infinity", "inf"), ("1e400", "inf")])
@pytest.mark.parametrize("kind, form", [("real", "plain"), ("complex", "plain"),
                                        ("complex", "pair")])
@pytest.mark.parametrize("index", [0, 23])
def test_a_non_finite_entry_of_a_long_list_keeps_its_message(tmp_path, text, value, kind, form,
                                                              index):
    entry, got = (text, value) if form == "plain" else (f"[0.5, {text}]", f"[0.5, {value}]")
    path = tmp_path / "F.json"
    path.write_text(so3_text(kind, index, entry))
    with pytest.raises(InputError) as err:
        io.load_separating_set(path)
    want = ("expected a finite real number" if kind == "real"
            else "expected a finite number or [re, im]") + f", got {got}"
    where = f"elements[{index}][1][2]"
    assert (err.value.path, str(err.value)) == (where, f"{where}: {want}")
    if index:
        # a bad determinant before it is reported first
        path.write_text(so3_text(kind, index, entry, bad_det=True))
        with pytest.raises(InputError) as err:
            io.load_separating_set(path)
        assert err.value.path == "elements[5]"
        assert str(err.value).startswith("elements[5]: determinant")


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=["R", "C"])
def test_the_stack_holds_what_decode_scalar_reads(field):
    # ints past 2^53, -0.0, the largest float, and over C bare numbers beside pairs
    big = 2 ** 53 + 1
    rows = [[big, -0.0, 0.0], [0, 1, 0.0], [0.0, 0, 1.0 / big]]
    if field is COMPLEX:
        rows = [[big, [-0.0, -0.0], 0.0], [[0, 3], 1, 0.0], [0.0, 0, [1.0 / big, 0]]]
    got = io._decode_matrices(field, [rows, rows], ["m[0]", "m[1]"])
    want = np.array([[io.decode_scalar(field, x, "") for x in row] for row in rows])
    for g in got:
        assert g.entries.dtype == (np.complex128 if field is COMPLEX else np.float64)
        assert g.entries.tobytes() == want.tobytes()
        assert not g.entries.flags.writeable


@pytest.mark.parametrize("field", [REAL, COMPLEX, padic(5)], ids=str)
def test_each_decoded_matrix_is_a_view_of_one_read_only_stack(field):
    rows = [[2, 3], [1, 2]]
    got = io._decode_matrices(field, [rows] * 3, ["m[0]", "m[1]", "m[2]"])
    stack = got[0].entries.base
    assert stack is not None and all(g.entries.base is stack for g in got)
    assert not stack.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        got[1].entries[0, 0] = got[1].entries[0, 1]


def test_one_determinant_call_per_list(tmp_path, monkeypatch):
    calls = []
    det = np.linalg.det

    def spy(a):
        calls.append(a.shape)
        return det(a)

    monkeypatch.setattr(np.linalg, "det", spy)
    for kind, mats in (("real", [SHEAR] * 5 + [WIDE_SL]),
                       ("complex", [[[[x, 0.0] for x in row] for row in SHEAR]] * 4)):
        calls.clear()
        gens = io.load_generators(write(tmp_path, "gens.json",
                                        {"field": {"kind": kind}, "generators": mats}))
        assert calls == [(len(mats), 2, 2)]
        assert len(gens) == len(mats)


def test_decode_matrix_is_a_list_of_one(monkeypatch):
    seen = []
    decode = io._decode_matrices
    monkeypatch.setattr(io, "_decode_matrices",
                        lambda *args: seen.append(args) or decode(*args))
    g = io.decode_matrix(REAL, SHEAR, "matrix")
    assert seen == [(REAL, [SHEAR], ["matrix"])]
    assert g.entries.tolist() == SHEAR


def test_padic_lists_decode_every_entry(tmp_path):
    doc = {"field": {"kind": "padic", "prime": 5},
           "generators": [[[1, {"rat": "1/5"}], [0, 1]], [[5, 0], [0, {"rat": "1/5"}]],
                          [[1, 0], [0, 2]]]}
    err = load_error(tmp_path, doc, io.load_generators)
    assert str(err) == "generators[2]: determinant is 2, not 1"
    doc["generators"][2] = [[1, 0.5], [0, 1]]
    err = load_error(tmp_path, doc, io.load_generators)
    assert err.path == "generators[2][0][1]"
    doc["generators"].pop()
    gens = io.load_generators(write(tmp_path, "gens.json", doc))
    assert [[x.value for x in row] for row in gens[1].entries] == [[5, 0], [0, Fraction(1, 5)]]


# {"rat": ...}: Fraction's grammar is the definition of a valid rational

@pytest.mark.parametrize("text", ["-12", "+7", "007", " 7 ", "7/1", "1_000", "٧", "-0",
                                  "1e3", "7.0", "-3/15", "\xa07", 7])
def test_a_rat_string_decodes_to_the_value_fraction_gives(text):
    field = padic(5)
    x = io.decode_scalar(field, {"rat": text}, "x")
    want = io.PadicScalar(field, Fraction(text))
    assert (x.value, x.digits, x.valuation) == (want.value, want.digits, want.valuation)
    assert type(x.value) is Fraction


@pytest.mark.parametrize("text", ["--7", "-", "", "1__0", "_1", "7_", "0x10", "1/0", "7 7",
                                  "٧/0", "²", "-²", None,
                                  # past int's default limit on digit strings
                                  pytest.param("7" * 5000, id="5000-digits"),
                                  pytest.param("-" + "7" * 5000, id="minus-5000-digits")])
def test_a_bad_rat_string_keeps_its_message_and_path(text):
    with pytest.raises((ValueError, ZeroDivisionError, TypeError)) as want:
        Fraction(text)
    with pytest.raises(InputError) as err:
        io.decode_scalar(padic(5), {"rat": text}, "m[0][1]")
    assert (err.value.path, str(err.value)) == (
        "m[0][1]", f"m[0][1]: bad rational {text!r}: {want.value}")


# json reads these as 0.1, True and inf: only a string or an int is a rational
@pytest.mark.parametrize("text, value", [("0.1", 0.1), ("true", True), ("1e400", math.inf)])
def test_a_rat_float_or_bool_is_exit_2_with_its_path(tmp_path, capsys, text, value):
    path = tmp_path / "g.json"
    path.write_text('{"field": {"kind": "padic", "prime": 5}, '
                    f'"matrix": [[1, {{"rat": {text}}}], [0, 1]]}}')
    assert run(["cartan", "--in", str(path)]) == EXIT_INPUT
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload == {"error": f"matrix[0][1]: bad rational {value!r}: expected a string or "
                                f"an integer, got a {type(value).__name__}",
                       "path": "matrix[0][1]"}


@pytest.mark.parametrize("val", [-442, 463, 10 ** 6, -10 ** 6])
def test_a_valuation_whose_absolute_value_has_no_float_is_refused_at_val(val):
    # refused before 5^val is built: 10^6 used to take minutes to decode
    with pytest.raises(InputError) as err:
        io.decode_scalar(padic(5), {"val": val, "unit_digits": [1]}, "m[0][1]")
    assert (err.value.path, str(err.value)) == (
        "m[0][1].val", f"m[0][1].val: p-adic absolute value 5^{-val} is outside the float range")


@pytest.mark.parametrize("entry, v", [(5 ** 463, 463), ({"rat": str(5 ** 463)}, 463),
                                      ({"rat": f"1/{5 ** 442}"}, -442)])
def test_an_entry_whose_absolute_value_has_no_float_is_refused(entry, v):
    with pytest.raises(InputError) as err:
        io.decode_scalar(padic(5), entry, "m[0][1]")
    assert (err.value.path, str(err.value)) == (
        "m[0][1]", f"m[0][1]: p-adic absolute value 5^{-v} is outside the float range")


@pytest.mark.parametrize("v", [-441, 462])
def test_the_ends_of_the_float_range_decode(v):
    x = io.decode_scalar(padic(5), {"val": v, "unit_digits": [1]}, "m[0][1]")
    assert x.valuation == v
    assert io.decode_scalar(padic(5), io.encode_scalar(padic(5), x), "m[0][1]") == x


@pytest.mark.parametrize("command", [["cartan", "--in"], ["falsify", "--max-len", "2", "--gens"]])
def test_a_matrix_past_the_float_range_is_exit_2(tmp_path, capsys, command):
    # cartan ended in an OverflowError (exit 1); falsify, which forms no
    # absolute value, accepted the matrix
    matrix = [[{"rat": f"1/{5 ** 450}"}, 0], [0, {"rat": str(5 ** 450)}]]
    key = "matrix" if command[0] == "cartan" else "generators"
    path = write(tmp_path, "g.json", {"field": {"kind": "padic", "prime": 5},
                                      key: matrix if key == "matrix" else [matrix]})
    assert run(command + [str(path)]) == EXIT_INPUT
    where = "matrix[0][0]" if key == "matrix" else "generators[0][0][0]"
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload == {"error": f"{where}: p-adic absolute value 5^450 is outside the float range",
                       "path": where}


def test_a_unit_digit_outside_0_to_p_minus_1_keeps_its_message():
    for digits in ([1, 5], [2, 0, 10]):
        with pytest.raises(InputError) as err:
            io.decode_scalar(padic(5), {"val": 0, "unit_digits": digits}, "m[0][1]")
        assert (err.value.path, str(err.value)) == (
            "m[0][1].unit_digits",
            f"m[0][1].unit_digits: unit_digits must be base-5 digits 0..4, got {digits!r}")


# the report writer: json.dumps(obj, indent=2), written directly

_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-10 ** 40, max_value=10 ** 40) | st.sampled_from([10 ** 400, -2 ** 64]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf]),
    st.text() | st.sampled_from(["é中", "\x00\x1f\x7f", "\ud800", "a\udfffb", "\"\\/"]))
_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_documents)
def test_report_text_is_json_dumps_indent_2(obj):
    assert io.report_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": []}, [{}], {1: 2, 1.5: None, True: False, None: "x", False: 0.0},
    {"nan": math.nan, "inf": [math.inf, -math.inf], "z": -0.0}, "top", 3, None,
])
def test_report_text_edge_cases(obj):
    assert io.report_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    {1, 2}, b"bytes", {"a": [1, {2}]}, [b"x"], {(1, 2): 3}, {"a": {b"k": 1}},
    np.float32(1.0), [np.int64(3)],
])
def test_report_text_raises_where_json_does(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        io.report_text(obj)
    assert str(got.value) == str(want.value)
