import json
import math
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import pingpong
from pingpong import cartan, cli, io, separation
from pingpong.cartan import SLMatrix, identity
from pingpong.cli import run
from pingpong.fields import REAL, padic, relative_tolerance
from pingpong.liegen import LieElement, matrix_exp
from pingpong.sampling import CHUNK_SIZE


ROOT = Path(__file__).resolve().parents[1]
REPORT_INPUTS = Path(__file__).parent / "data" / "reports" / "inputs"


def rotation(theta):
    return SLMatrix(REAL, [[math.cos(theta), -math.sin(theta)],
                           [math.sin(theta), math.cos(theta)]])


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def matrix_doc(g):
    return {"field": io.encode_field(g.field), "matrix": io.encode_matrix(g)}


def gens_doc(gens):
    return {"field": io.encode_field(gens[0].field),
            "generators": [io.encode_matrix(g) for g in gens]}


def sep_doc(elements, m, r):
    return {"field": io.encode_field(elements[0].field),
            "elements": [io.encode_matrix(g) for g in elements], "m": m, "r": r}


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cartan_diagonal(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json",
                     matrix_doc(SLMatrix(REAL, [[4.0, 0.0], [0.0, 0.25]])))
    code, report = run_json(capsys, ["cartan", "--in", path])
    assert code == 0
    assert report["pass"] is True
    assert report["payload"]["a_abs"][0]["value"] == pytest.approx(4.0)
    assert report["payload"]["a_abs"][1]["value"] == pytest.approx(0.25)
    assert report["payload"]["ratios"][0]["value"] == pytest.approx(16.0)


def test_report_envelope_fields(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json", matrix_doc(identity(REAL, 2)))
    code, report = run_json(capsys, ["cartan", "--in", path])
    assert code == 0
    assert report["schema"] == 1
    assert report["tool"] == f"pingpong {pingpong.__version__}"
    assert report["command"] == "cartan"
    assert len(report["inputs"]["in"]["sha256"]) == 64
    assert report["seed"] is None
    assert "timestamp" in report


def test_falsify_commuting_pair(tmp_path, capsys):
    a = SLMatrix(REAL, [[2.0, 0.0], [0.0, 0.5]])
    b = SLMatrix(REAL, [[3.0, 0.0], [0.0, 1.0 / 3.0]])
    path = write_doc(tmp_path, "gens.json", gens_doc([a, b]))
    code, report = run_json(capsys, ["falsify", "--gens", path, "--max-len", "4"])
    assert code == 1
    assert report["pass"] is False
    assert report["payload"]["letters"] == [[0, 1], [1, 1], [0, -1], [1, -1]]
    assert report["payload"]["word"] == "g0 g1 g0^-1 g1^-1"
    assert report["payload"]["decided_len"] == 3


def test_falsify_free_pair_passes(tmp_path, capsys):
    a = SLMatrix(REAL, [[1.0, 10.0], [0.0, 1.0]])
    b = SLMatrix(REAL, [[1.0, 0.0], [10.0, 1.0]])
    path = write_doc(tmp_path, "gens.json", gens_doc([a, b]))
    code, report = run_json(capsys, ["falsify", "--gens", path, "--max-len", "5"])
    assert code == 0
    assert report["payload"]["word"] is None
    assert report["payload"]["decided_len"] == 5


def test_falsify_stops_at_the_word_budget(tmp_path, capsys, monkeypatch):
    # the Sanov pair is decided to length 12; length 13 would hold 2 125 764
    # words, and no layer over the budget is ever requested
    grown = []
    grow = separation._grow

    def checked_grow(layer, letters, magnitudes):
        assert len(layer.products) * (len(letters) - 1) <= separation._WORD_BUDGET
        grown.append(layer.length + 1)
        return grow(layer, letters, magnitudes)

    monkeypatch.setattr(separation, "_grow", checked_grow)
    S = SLMatrix(REAL, [[1.0, 2.0], [0.0, 1.0]])
    T = SLMatrix(REAL, [[1.0, 0.0], [2.0, 1.0]])
    path = write_doc(tmp_path, "gens.json", gens_doc([S, T]))
    code, report = run_json(capsys, ["falsify", "--gens", path, "--max-len", "40"])
    assert code == 3
    assert report["payload"]["decided_len"] == 12
    assert report["payload"]["word"] is None
    assert grown == list(range(2, 13))


def test_malformed_json_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    code, report = run_json(capsys, ["cartan", "--in", str(path)])
    assert code == 2
    assert report["pass"] is False
    assert "error" in report["payload"]


def test_schema_violation_points_at_path(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json",
                     {"field": {"kind": "real"}, "matrix": [[1.0, 0.0], [0.0]]})
    code, report = run_json(capsys, ["cartan", "--in", path])
    assert code == 2
    assert report["payload"]["path"] == "matrix[1]"


def test_non_finite_generator_is_exit_2_with_path(tmp_path, capsys):
    path = tmp_path / "gens.json"
    path.write_text('{"field": {"kind": "real"}, '
                    '"generators": [[[NaN, 0.0], [0.0, 1.0]], [[1.0, Infinity], [0.0, 1.0]]]}')
    code, report = run_json(capsys, ["dense-check", "--gens", str(path)])
    assert code == 2
    assert report["payload"]["path"] == "generators[0][0][0]"


def test_stored_determinant_far_from_one_is_exit_2_with_path(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json",
                     {"field": {"kind": "real"}, "matrix": [[1e8, 1e8], [0.0, 2e-8]]})
    code, report = run_json(capsys, ["cartan", "--in", path])
    assert code == 2
    assert report["payload"]["path"] == "matrix"
    assert "determinant of the stored entries is 2, not 1" in report["payload"]["error"]


@pytest.mark.parametrize("mode", ["--build", "--verify-only"])
def test_certify_free_mixed_documents_are_exit_2_with_path(tmp_path, capsys, mode):
    gens = write_doc(tmp_path, "gens.json", gens_doc([rotation(0.3), rotation(0.5)]))
    sep = write_doc(tmp_path, "sep.json", sep_doc([identity(REAL, 2)], 2, 0.05))
    sep3 = write_doc(tmp_path, "sep3.json", sep_doc([identity(REAL, 3)], 2, 0.05))
    gamma5 = write_doc(tmp_path, "gamma.json", matrix_doc(identity(padic(5), 2)))
    for sep_path, gamma_path, where, flag in ((sep3, gamma5, "elements[0]", "--sep"),
                                              (sep, gamma5, "field", "--gamma")):
        code, report = run_json(capsys, ["certify-free", "--gens", gens, "--sep", sep_path,
                                         "--gamma", gamma_path, mode, "--seed", "0"])
        assert code == 2
        assert report["payload"]["path"] == where
        assert "--gens" in report["payload"]["error"] and flag in report["payload"]["error"]


@pytest.mark.parametrize("command, doc, flag, value", [
    ("contract-analyze", "--in", "--samples", "-1"),
    ("separate", "--set", "--m", "0"),
    ("separate", "--set", "--trials", "0"),
    ("falsify", "--gens", "--max-len", "0"),
    ("separate", "--set", "--seed", "-1"),
    ("contract-analyze", "--in", "--seed", "-1"),
])
def test_bad_flag_is_exit_2_without_a_document_path(tmp_path, capsys, command, doc, flag, value):
    ident = identity(REAL, 2)
    content = {"--in": matrix_doc(ident), "--set": sep_doc([ident], 1, 0.1),
               "--gens": gens_doc([ident])}[doc]
    argv = [command, doc, write_doc(tmp_path, "doc.json", content)]
    # a valid seed first, so that the flag under test, given last, is the one read
    argv += [] if command == "falsify" else ["--seed", "0"]
    code, report = run_json(capsys, argv + [flag, value])
    assert code == 2
    # the path is the flag, which no document holds, and prefixes the message once
    assert report["payload"]["path"] == flag
    assert report["payload"]["error"].startswith(f"{flag}: must be ")
    assert report["payload"]["error"].count(flag) == 1


@pytest.mark.parametrize("argv", [
    ["separate", "--set", "sep_q5.json", "--trials", "2"],
    ["contract-analyze", "--in", "g_q5_contracting.json"],
    ["certify-free", "--gens", "built_q5.json", "--sep", "sep_q5.json",
     "--gamma", "gamma_q5.json"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_exit_2_over_q5(capsys, argv):
    # random.Random(-1) would silently replay the stream of seed 1
    argv = [str(REPORT_INPUTS / a) if a.endswith(".json") else a for a in argv]
    code, report = run_json(capsys, argv + ["--seed", "-1"])
    assert code == 2
    assert report["payload"] == {"error": "--seed: must be nonnegative, got -1", "path": "--seed"}


def test_noncontracting_input_is_exit_3(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json", matrix_doc(rotation(0.7)))
    code, report = run_json(capsys,
                            ["contract-analyze", "--in", path, "--seed", "7"])
    assert code == 3
    assert "error" in report["payload"]


def test_contract_analyze_certifies(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json",
                     matrix_doc(SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]])))
    code, report = run_json(capsys, ["contract-analyze", "--in", path,
                                     "--samples", "2000", "--seed", "7"])
    assert code == 0
    payload = report["payload"]
    assert payload["epsilon"]["value"] == pytest.approx(0.01)
    assert payload["epsilon"]["provenance"] == "tolerance"
    assert payload["empirical_pass"] is True
    assert report["seed"] == 7


def test_separate_reports_estimate_and_stats(tmp_path, capsys):
    elements = [rotation(k * math.pi / 8) for k in range(8)]
    path = write_doc(tmp_path, "F.json", sep_doc(elements, 2, 0.05))
    code, report = run_json(capsys, ["separate", "--set", path,
                                     "--trials", "200", "--seed", "7"])
    assert code == 0
    payload = report["payload"]
    assert payload["r_estimate"]["provenance"] == "estimate"
    assert payload["r_estimate"]["value"] > 0.0
    assert payload["C"]["value"] == pytest.approx(1.0)
    assert sum(e["wins"] for e in payload["elements"]) == 200


def test_separate_scores_each_configuration_once(tmp_path, capsys, monkeypatch):
    elements = [rotation(k * math.pi / 8) for k in range(8)]
    path = write_doc(tmp_path, "F.json", sep_doc(elements, 2, 0.05))
    trials = CHUNK_SIZE + 3
    scored = []
    original = separation.hyperplane_distances

    def counting(field, points, forms, matrices):
        scored.append(np.broadcast_shapes(points.shape[:-2], matrices.shape[:-2]))
        return original(field, points, forms, matrices)

    # one kernel call per chunk of trials scores every element and its inverse
    monkeypatch.setattr(separation, "hyperplane_distances", counting)
    code, _ = run_json(capsys, ["separate", "--set", path, "--trials", str(trials),
                                "--seed", "7"])
    assert code == 0
    assert [shape[1:] for shape in scored] == [(len(elements), 2)] * len(scored)
    assert sum(shape[0] for shape in scored) == trials
    assert max(shape[0] for shape in scored) <= CHUNK_SIZE


def test_padic_separate_runs_no_smith_form(capsys, monkeypatch):
    # C = max |a_1/a_n|^2 comes from each element and its inverse, which the
    # separation scores anyway: no Cartan decomposition is made
    decomposed = []
    original = cartan._cartan_padic

    def spy(g):
        decomposed.append(g)
        return original(g)

    monkeypatch.setattr(cartan, "_cartan_padic", spy)
    code, doc = run_json(capsys, ["separate", "--set",
                                  str(Path(__file__).parent / "data" / "sep_f_q5.json"),
                                  "--trials", "4", "--seed", "1"])
    assert code in (0, 1)
    assert len(doc["payload"]["elements"]) == 16
    assert decomposed == []


def test_separate_takes_each_bilip_constant_once(capsys, monkeypatch):
    # the payload's constants and C come from one bilip_constants call on all
    # of the SeparatingSet built at load, and --m does not rebuild it
    calls = []
    original = cartan.bilip_constants

    def spy(matrices):
        calls.append(tuple(matrices))
        return original(calls[-1])

    for name, module in list(sys.modules.items()):
        if name.startswith("pingpong") and getattr(module, "bilip_constants", None) is original:
            monkeypatch.setattr(module, "bilip_constants", spy)
    code, doc = run_json(capsys, ["separate", "--set",
                                  str(Path(__file__).parent / "data" / "sep_f_q5.json"),
                                  "--m", "2", "--trials", "4", "--seed", "1"])
    assert code in (0, 1)
    assert doc["payload"]["m"] == doc["parameters"]["m"] == 2
    bilips = [e["bilip"]["value"] for e in doc["payload"]["elements"]]
    assert len(calls) == 1
    assert len(calls[0]) == len(bilips) == 16
    assert bilips == [cartan.bilip_constant(g) for g in calls[0]]
    assert doc["payload"]["C"]["value"] == max(bilips)


def test_parser_is_built_once_and_survives_a_usage_error(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", matrix_doc(SLMatrix(REAL, [[4.0, 0.0], [0.0, 0.25]])))
    sep = write_doc(tmp_path, "F.json",
                    sep_doc([rotation(k * math.pi / 8) for k in range(8)], 2, 0.05))
    gens = write_doc(tmp_path, "gens.json", gens_doc([SLMatrix(REAL, [[1.0, 2.0], [0.0, 1.0]]),
                                                      SLMatrix(REAL, [[1.0, 0.0], [2.0, 1.0]])]))
    runs = [["cartan", "--in", g], ["separate", "--set", sep, "--trials", "20", "--seed", "3"],
            ["falsify", "--gens", gens, "--max-len", "3"], ["cartan", "--in", g, "--out", g + ".out"],
            ["dense-check", "--gens", gens]]

    def report(argv):
        code = run(argv)
        text = Path(argv[-1]).read_text() if "--out" in argv else capsys.readouterr().out
        doc = json.loads(text)
        doc.pop("timestamp")
        return code, doc

    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(report(argv))
    parser = cli._parser()
    with pytest.raises(SystemExit):
        run(["separate", "--set", sep])  # no --seed: argparse exits with a usage error
    capsys.readouterr()
    assert [report(argv) for argv in runs] == fresh
    assert cli._parser() is parser


def test_separate_is_deterministic_modulo_timestamp(tmp_path, capsys):
    elements = [rotation(k * math.pi / 8) for k in range(8)]
    path = write_doc(tmp_path, "F.json", sep_doc(elements, 2, 0.05))
    argv = ["separate", "--set", path, "--trials", "50", "--seed", "3"]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    first.pop("timestamp"), second.pop("timestamp")
    assert first == second


def test_certify_free_build_real_pipeline(tmp_path, capsys):
    ident = identity(REAL, 2)
    gens = write_doc(tmp_path, "gens.json", gens_doc([ident, ident]))
    sep = write_doc(tmp_path, "F.json",
                    sep_doc([rotation(k * math.pi / 8) for k in range(8)], 2, 0.05))
    r = rotation(0.3)
    gamma0 = r @ SLMatrix(REAL, [[1e6, 0.0], [0.0, 1e-6]]) @ r.inverse()
    gamma = write_doc(tmp_path, "gamma.json", matrix_doc(gamma0))
    code, report = run_json(capsys, ["certify-free", "--gens", gens, "--sep", sep,
                                     "--gamma", gamma, "--build", "--seed", "7"])
    assert code == 0
    payload = report["payload"]
    assert payload["verified"] is True
    assert payload["m"] == 2
    assert len(payload["certificates"]) == 2
    assert all("backward" in c for c in payload["certificates"])
    assert any("bi-Lipschitz" in note for note in payload["notes"])
    assert report["parameters"]["mode"] == "build"


def test_certify_free_verify_only_rejects_repeated_generator(tmp_path, capsys):
    g = SLMatrix(REAL, [[100.0, 0.0], [0.0, 0.01]])
    gens = write_doc(tmp_path, "gens.json", gens_doc([g, g]))
    sep = write_doc(tmp_path, "F.json", sep_doc([identity(REAL, 2)], 2, 0.3))
    gamma = write_doc(tmp_path, "gamma.json", matrix_doc(identity(REAL, 2)))
    code, report = run_json(capsys, ["certify-free", "--gens", gens, "--sep", sep,
                                     "--gamma", gamma, "--verify-only",
                                     "--seed", "7"])
    assert code == 1
    assert report["payload"]["verified"] is False
    assert report["parameters"]["mode"] == "verify-only"


def test_certify_free_verify_only_refutes_noncontracting_generator(tmp_path, capsys):
    gens = write_doc(tmp_path, "gens.json", gens_doc([rotation(0.4), rotation(1.1)]))
    sep = write_doc(tmp_path, "F.json", sep_doc([identity(REAL, 2)], 2, 0.3))
    gamma = write_doc(tmp_path, "gamma.json", matrix_doc(identity(REAL, 2)))
    code, report = run_json(capsys, ["certify-free", "--gens", gens, "--sep", sep,
                                     "--gamma", gamma, "--verify-only",
                                     "--seed", "7"])
    assert code == 1
    assert report["payload"] == {
        "verified": False,
        "reason": "contraction coefficient 1.0 is not below 1/4; no certificate"}
    assert report["parameters"]["mode"] == "verify-only"


def test_certify_free_verify_only_precision_loss_is_exit_3(tmp_path, capsys):
    # a generator with too few known digits is a precision failure, not a
    # refutation of the claim
    worn = json.loads((REPORT_INPUTS / "g_q5_short_digits.json").read_text())
    gens = write_doc(tmp_path, "gens.json",
                     {"field": worn["field"], "generators": [worn["matrix"]]})
    sep = str(REPORT_INPUTS / "sep_q5.json")
    gamma = str(REPORT_INPUTS / "gamma_q5.json")
    code, report = run_json(capsys, ["certify-free", "--gens", gens, "--sep", sep,
                                     "--gamma", gamma, "--verify-only",
                                     "--seed", "7"])
    assert code == 3
    assert "digits" in report["payload"]["error"]


def test_dense_check_passes_on_transverse_unipotents(tmp_path, capsys):
    e = LieElement(REAL, [[0.0, 0.1], [0.0, 0.0]])
    f = LieElement(REAL, [[0.0, 0.0], [0.1, 0.0]])
    path = write_doc(tmp_path, "gens.json",
                     gens_doc([matrix_exp(e), matrix_exp(f)]))
    code, report = run_json(capsys, ["dense-check", "--gens", path])
    assert code == 0
    assert report["payload"] == {"generates_full": True, "dimension": 3,
                                 "warnings": []}


def test_dense_check_fails_on_common_diagonal(tmp_path, capsys):
    h1 = LieElement(REAL, [[0.1, 0.0], [0.0, -0.1]])
    h2 = LieElement(REAL, [[0.2, 0.0], [0.0, -0.2]])
    path = write_doc(tmp_path, "gens.json",
                     gens_doc([matrix_exp(h1), matrix_exp(h2)]))
    code, report = run_json(capsys, ["dense-check", "--gens", path])
    assert code == 1
    assert report["payload"]["generates_full"] is False
    assert report["payload"]["dimension"] == 1


def test_out_flag_writes_file(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json", matrix_doc(identity(REAL, 2)))
    out = tmp_path / "report.json"
    code = run(["cartan", "--in", path, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["command"] == "cartan"


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    # PINGPONG_TOL is not read: a malformed value is no input error
    monkeypatch.setenv("PINGPONG_TOL", "not-a-number")
    path = write_doc(tmp_path, "g.json", matrix_doc(identity(REAL, 2)))
    code, report = run_json(capsys, ["cartan", "--in", path])
    assert code == 0
    assert report["command"] == "cartan"


def test_tolerance_env_holds_for_one_run(tmp_path, capsys, monkeypatch):
    # the archimedean tolerance is a constant: det 1.2 is refused whatever the environment says
    skewed = SLMatrix(REAL, [[1.2, 0.0], [0.0, 1.0]], check=False)
    path = write_doc(tmp_path, "g.json", matrix_doc(skewed))
    argv = ["cartan", "--in", path]
    code, recorded = run_json(capsys, argv)
    assert code == 2
    assert recorded["payload"]["path"] == "matrix"
    monkeypatch.setenv("PINGPONG_TOL", "0.5")
    code, again = run_json(capsys, argv)
    assert code == 2
    assert relative_tolerance() == 1e-9
    recorded.pop("timestamp"), again.pop("timestamp")
    assert again == recorded


def test_threads_flag_rejected(tmp_path):
    path = write_doc(tmp_path, "g.json", matrix_doc(identity(REAL, 2)))
    with pytest.raises(SystemExit) as exc:
        run(["cartan", "--in", path, "--threads", "4"])
    assert exc.value.code == 2


def _source_env():
    """The environment with src first on PYTHONPATH, for a fresh interpreter."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def test_module_entry_point(tmp_path):
    path = write_doc(tmp_path, "g.json",
                     matrix_doc(SLMatrix(REAL, [[4.0, 0.0], [0.0, 0.25]])))
    done = subprocess.run([sys.executable, "-m", "pingpong", "cartan", "--in", path],
                          capture_output=True, text=True, env=_source_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["command"] == "cartan"
    assert report["payload"]["a_abs"][0]["value"] == pytest.approx(4.0)


def test_cold_start_reads_no_package_metadata():
    # the tool version is pingpong.__version__; importlib.metadata and the
    # email modules it pulls in cost a cold start about a tenth of its time
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, pingpong.cli; print('importlib.metadata' in sys.modules)"],
        capture_output=True, text=True, env=_source_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_packaging_reads_the_package_version():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert (project["tool"]["setuptools"]["dynamic"]["version"]
            == {"attr": "pingpong.__version__"})


def test_padic_fixture_separates(capsys):
    code, report = run_json(capsys, ["separate", "--set", "tests/data/sep_f_q5.json",
                                     "--trials", "60", "--seed", "1"])
    assert code == 0
    assert report["payload"]["C"]["value"] == 1.0
    assert report["payload"]["C"]["provenance"] == "exact"
