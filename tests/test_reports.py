"""Golden reports: each CLI subcommand reproduces its recorded report.

Every case runs ``pingpong.cli.run`` on documents in
``tests/data/reports/inputs`` and compares the exit code and the whole
report, key order included, with ``tests/data/reports/expected/<case>.json``.
Only the timestamp and the input path strings are left out; the sha256
digests of the inputs and every parameter stay in.

Running this file as a script rewrites the expected reports from the code
on the import path.  That is for a deliberate change of output only, and
such a change belongs in CHANGES.md.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from pingpong.cli import run

DATA = Path(__file__).parent / "data" / "reports"
INPUTS = DATA / "inputs"
EXPECTED = DATA / "expected"

CASES = {
    "cartan-real3": ["cartan", "--in", "g_real3.json"],
    "cartan-complex": ["cartan", "--in", "g_complex.json"],
    "cartan-q5-3": ["cartan", "--in", "g_q5_3.json"],
    "cartan-q5-short-digits": ["cartan", "--in", "g_q5_short_digits.json"],
    # |5^(10^6)| has no float: refused at its val before 5^(10^6) is built
    "cartan-q5-valuation-range": ["cartan", "--in", "g_q5_valuation_range.json"],
    "cartan-bad-shape": ["cartan", "--in", "g_bad_shape.json"],
    "cartan-singular-real": ["cartan", "--in", "g_singular_real.json"],
    # det = 1e8 * 1e-8 i is i; the real 2n x 2n form saw only |det| = 1 (exit 0)
    "cartan-complex-phase": ["cartan", "--in", "g_complex_phase.json"],
    "contract-real": ["contract-analyze", "--in", "g_real_contracting.json",
                      "--samples", "2000", "--seed", "7"],
    "contract-real3": ["contract-analyze", "--in", "g_real3.json",
                       "--samples", "100", "--seed", "7"],
    "contract-complex": ["contract-analyze", "--in", "g_complex_contracting.json",
                         "--samples", "2000", "--seed", "7"],
    "contract-q5": ["contract-analyze", "--in", "g_q5_contracting.json",
                    "--samples", "400", "--seed", "7"],
    "separate-real": ["separate", "--set", "sep_real.json", "--trials", "200",
                      "--seed", "3"],
    "separate-real-m1": ["separate", "--set", "sep_real.json", "--m", "1",
                         "--trials", "40", "--seed", "3"],
    "separate-complex": ["separate", "--set", "sep_complex.json", "--trials", "40",
                         "--seed", "3"],
    # SL_3 with shears and diagonals among the rotations, so the constants are not all 1
    "separate-real3": ["separate", "--set", "sep_real3.json", "--trials", "40",
                       "--seed", "3"],
    "separate-complex3": ["separate", "--set", "sep_complex3.json", "--trials", "40",
                          "--seed", "3"],
    "separate-q5": ["separate", "--set", "sep_q5.json", "--trials", "8", "--seed", "1"],
    # sep_q5 with elements[3][1][1] = 26, so det = 1 + 5^2: the Q_p determinant gate
    "separate-q5-bad-det": ["separate", "--set", "sep_q5_bad_det.json", "--trials", "8",
                            "--seed", "1"],
    # numpy's object matmul turned this precision loss into a SystemError (exit 1)
    "separate-q5-low-precision": ["separate", "--set", "sep_q5_low_precision.json",
                                  "--trials", "6", "--seed", "0"],
    # bilip_constants' 5^920 has no float: exit 3, where it was an OverflowError (exit 1)
    "separate-q5-magnitude-range": ["separate", "--set", "sep_q5_magnitude_range.json",
                                    "--trials", "8", "--seed", "1"],
    "separate-defeated-real": ["separate", "--set", "sep_pm_identity_real.json",
                               "--m", "1", "--trials", "12", "--seed", "3"],
    "certify-build-real": ["certify-free", "--gens", "ident2_real.json",
                           "--sep", "sep_real.json", "--gamma", "gamma_real.json",
                           "--build", "--seed", "0"],
    "certify-build-complex": ["certify-free", "--gens", "ident2_complex.json",
                              "--sep", "sep_complex.json", "--gamma", "gamma_complex.json",
                              "--build", "--seed", "0"],
    "certify-build-q5": ["certify-free", "--gens", "ident2_q5.json",
                         "--sep", "sep_q5.json", "--gamma", "gamma_q5.json",
                         "--build", "--seed", "2"],
    "certify-verify-real": ["certify-free", "--gens", "built_real.json",
                            "--sep", "sep_real.json", "--gamma", "gamma_real.json",
                            "--verify-only", "--seed", "0"],
    "certify-verify-q5": ["certify-free", "--gens", "built_q5.json",
                          "--sep", "sep_q5.json", "--gamma", "gamma_q5.json",
                          "--verify-only", "--seed", "0"],
    "certify-verify-rotations": ["certify-free", "--gens", "rotations_real.json",
                                 "--sep", "sep_real.json", "--gamma", "gamma_real.json",
                                 "--verify-only", "--seed", "0"],
    "falsify-sanov-real": ["falsify", "--gens", "sanov_real.json", "--max-len", "7"],
    "falsify-commuting-real": ["falsify", "--gens", "commuting_real.json",
                               "--max-len", "4"],
    "falsify-sanov-complex": ["falsify", "--gens", "sanov_complex.json", "--max-len", "4"],
    "falsify-free-q5": ["falsify", "--gens", "free_q5.json", "--max-len", "4"],
    "falsify-planted-q5": ["falsify", "--gens", "planted_q5.json", "--max-len", "3"],
    # PadicScalar words ran out of digits at precision 3 here (exit 3)
    "falsify-lowprec-q5": ["falsify", "--gens", "lowprec_q5.json", "--max-len", "6"],
    "dense-real": ["dense-check", "--gens", "near_identity_real.json"],
    "dense-complex": ["dense-check", "--gens", "near_identity_complex.json"],
    "dense-diagonal-real": ["dense-check", "--gens", "diagonal_real.json"],
    "dense-q5": ["dense-check", "--gens", "free_q5.json"],
    "falsify-mixed-sizes": ["falsify", "--gens", "mixed_sizes_real.json", "--max-len", "3"],
    "dense-mixed-sizes": ["dense-check", "--gens", "mixed_sizes_real.json"],
    "separate-mixed-sizes": ["separate", "--set", "sep_mixed_sizes_real.json",
                             "--trials", "8", "--seed", "1"],
    "certify-mixed-sep-field": ["certify-free", "--gens", "ident2_real.json",
                                "--sep", "sep_q5.json", "--gamma", "gamma_real.json",
                                "--build", "--seed", "0"],
    "certify-mixed-gamma-field": ["certify-free", "--gens", "ident2_real.json",
                                  "--sep", "sep_real.json", "--gamma", "gamma_q5.json",
                                  "--build", "--seed", "0"],
    "certify-mixed-gamma-size": ["certify-free", "--gens", "ident2_real.json",
                                 "--sep", "sep_real.json", "--gamma", "g_real3.json",
                                 "--verify-only", "--seed", "0"],
    "separate-bad-m": ["separate", "--set", "sep_bad_m_real.json", "--trials", "8",
                       "--seed", "1"],
    "separate-bad-r": ["separate", "--set", "sep_bad_r_real.json", "--trials", "8",
                       "--seed", "1"],
    "falsify-undecided-rotation": ["falsify", "--gens", "rotation_eighth_real.json",
                                   "--max-len", "5"],
    "falsify-singular-real": ["falsify", "--gens", "singular_real.json", "--max-len", "3"],
}


def _argv(name):
    return [str(INPUTS / arg) if arg.endswith(".json") else arg for arg in CASES[name]]


def _run_case_text(name):
    """(exit code, report text) of one case, the text read back from --out."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        code = run(_argv(name) + ["--out", str(out)])
        return code, out.read_text()


def _run_case(name):
    """(exit code, report) of one case, the report read back from --out."""
    code, text = _run_case_text(name)
    return code, json.loads(text)


def _comparable(report) -> str:
    report = dict(report)
    del report["timestamp"]
    report["inputs"] = {name: {k: v for k, v in entry.items() if k != "path"}
                        for name, entry in report["inputs"].items()}
    return json.dumps(report, indent=2)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_recording(name):
    expected = json.loads((EXPECTED / f"{name}.json").read_text())
    code, report = _run_case(name)
    assert code == expected["exit"]
    assert _comparable(report) == _comparable(expected["report"])


def _written_by_json(text) -> str:
    # the text json.dumps(..., indent=2) gives for the same report, with the
    # one newline every report ends with
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_text_is_json_indent_2(name):
    # _comparable reads both sides back, so this is what pins the bytes written
    _, text = _run_case_text(name)
    assert text == _written_by_json(text)


def test_a_report_to_stdout_is_json_indent_2(capsys):
    code = run(_argv("separate-real3"))
    text = capsys.readouterr().out
    assert code == json.loads((EXPECTED / "separate-real3.json").read_text())["exit"]
    assert text == _written_by_json(text)


def test_an_installed_distribution_leaves_the_reports_alone(tmp_path):
    # the tool line is pingpong.__version__, whatever distribution metadata
    # comes first on the path
    info = tmp_path / "site" / "pingpong-9.9.dist-info"
    info.mkdir(parents=True)
    (info / "METADATA").write_text("Metadata-Version: 2.1\nName: pingpong\nVersion: 9.9\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(info.parent), str(src), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "report.json"
    done = subprocess.run([sys.executable, "-m", "pingpong", *_argv("cartan-real3"),
                           "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    expected = json.loads((EXPECTED / "cartan-real3.json").read_text())
    assert done.returncode == expected["exit"], done.stderr
    assert _comparable(json.loads(out.read_text())) == _comparable(expected["report"])


def test_every_recording_has_a_case():
    assert sorted(p.stem for p in EXPECTED.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    for name in sys.argv[1:] or sorted(CASES):
        code, report = _run_case(name)
        for entry in report["inputs"].values():
            entry["path"] = Path(entry["path"]).name
        text = json.dumps({"exit": code, "report": report}, indent=2)
        (EXPECTED / f"{name}.json").write_text(text + "\n")
        print(name, code)
