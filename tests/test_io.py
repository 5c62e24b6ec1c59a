import json
import math
from fractions import Fraction

import pytest

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
