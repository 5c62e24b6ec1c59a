"""Self-test of the benchmark: the oracle must flag planted wrong reports.

    python3 -m pytest perfbench/test_oracle.py
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


def report(payload):
    return {"schema": 1, "payload": payload}


def falsify_report(word, letters):
    return report({"max_len": 4, "word": word, "letters": letters})


POWER = {"kind": "falsify", "pair": "power", "power": 3, "scale": 1e3}
COMMUTING = {"kind": "falsify", "pair": "commuting", "scale": 1e3}
FREE = {"kind": "falsify", "pair": "free"}
G3H = [[0, 1], [0, 1], [0, 1], [1, -1]]
COMMUTATOR = [[0, 1], [1, 1], [0, -1], [1, -1]]


def test_free_answer_on_planted_pair_is_the_known_defect():
    for expect in (POWER, COMMUTING):
        status, _ = oracle.judge(expect, 0, falsify_report(None, None))
        assert status == oracle.KNOWN_DEFECT


def test_planted_relations_are_accepted():
    assert oracle.judge(POWER, 1, falsify_report("g0 g0 g0 g1^-1", G3H))[0] == oracle.OK
    assert oracle.judge(COMMUTING, 1, falsify_report("c", COMMUTATOR))[0] == oracle.OK
    # the commutator is a relation of (g, g^3) as well: 0 + 3 * 0 = 0
    assert oracle.judge(POWER, 1, falsify_report("c", COMMUTATOR))[0] == oracle.OK


def test_cannot_decide_is_not_a_failure_on_planted_pairs_only():
    assert oracle.judge(POWER, 3, report({"error": "precision"}))[0] == oracle.OK
    assert oracle.judge(FREE, 3, report({"error": "precision"}))[0] == oracle.FAILED


def test_false_relations_are_flagged():
    assert oracle.judge(COMMUTING, 1, falsify_report("w", G3H))[0] == oracle.FAILED
    assert oracle.judge(POWER, 1, falsify_report("w", [[0, 1], [1, -1]]))[0] == oracle.FAILED
    assert oracle.judge(FREE, 1, falsify_report("c", COMMUTATOR))[0] == oracle.FAILED
    assert oracle.judge(FREE, 0, falsify_report(None, None))[0] == oracle.OK


def separate_report(r, wins):
    return report({"r_estimate": {"value": r, "provenance": "estimate"},
                   "elements": [{"index": i, "wins": w} for i, w in enumerate(wins)]})


def test_separate_checks():
    expect = {"kind": "separate", "trials": 10, "recorded_r": 0.125}
    assert oracle.judge(expect, 0, separate_report(0.125, [4, 6]))[0] == oracle.OK
    assert oracle.judge(expect, 0, separate_report(0.125 * (1 + 1e-8), [4, 6]))[0] == oracle.FAILED
    assert oracle.judge(expect, 0, separate_report(0.125, [4, 5]))[0] == oracle.FAILED
    assert oracle.judge(expect, 1, separate_report(0.125, [4, 6]))[0] == oracle.FAILED
    unrecorded = {"kind": "separate", "trials": 10}
    assert oracle.judge(unrecorded, 0, separate_report(0.3, [10]))[0] == oracle.OK
    assert oracle.judge(unrecorded, 0, separate_report(0.0, [10]))[0] == oracle.FAILED


def test_cartan_reconstruction_checks():
    g = [[2.0, 1.0], [1.0, 1.0]]
    expect = {"kind": "cartan", "field": "real", "matrix": g}
    exact = report({"k": [[1.0, 0.0], [0.0, 1.0]], "a": [1.0, 1.0], "k_prime": g})
    assert oracle.judge(expect, 0, exact)[0] == oracle.OK
    off = copy.deepcopy(exact)
    off["payload"]["a"][0] = 1.0 + 1e-6
    assert oracle.judge(expect, 0, off)[0] == oracle.FAILED

    rat = [[{"rat": "5"}, {"rat": "1/5"}], [{"rat": "0"}, {"rat": "1/5"}]]
    one = [[{"rat": "1"}, {"rat": "0"}], [{"rat": "0"}, {"rat": "1"}]]
    expect5 = {"kind": "cartan", "field": "padic", "matrix": rat}
    exact5 = report({"k": one, "a": [{"rat": "1"}, {"rat": "1"}], "k_prime": rat})
    assert oracle.judge(expect5, 0, exact5)[0] == oracle.OK
    off5 = copy.deepcopy(exact5)
    off5["payload"]["a"][1] = {"rat": "1/1000000000001"}
    assert oracle.judge(expect5, 0, off5)[0] == oracle.FAILED


def test_certify_contract_and_dense_checks():
    build = {"kind": "certify", "mode": "build"}
    assert oracle.judge(build, 0, report({"verified": True}))[0] == oracle.OK
    assert oracle.judge(build, 1, report({"verified": False}))[0] == oracle.FAILED
    contract = {"kind": "contract", "samples": 10, "epsilon": {"value": 0.008, "rel": 0.0}}
    good = report({"empirical_pass": True, "samples": 10,
                   "epsilon": {"value": 0.008, "provenance": "exact"}})
    assert oracle.judge(contract, 0, good)[0] == oracle.OK
    bad = copy.deepcopy(good)
    bad["payload"]["epsilon"]["value"] = 0.04
    assert oracle.judge(contract, 0, bad)[0] == oracle.FAILED
    dense = {"kind": "dense", "full": False}
    assert oracle.judge(dense, 1, report({"generates_full": False}))[0] == oracle.OK
    assert oracle.judge(dense, 0, report({"generates_full": True}))[0] == oracle.FAILED


def test_missing_or_malformed_report_fails():
    assert oracle.judge(FREE, 2, None)[0] == oracle.FAILED
    assert oracle.judge(FREE, 0, {"payload": {}})[0] == oracle.FAILED
    assert oracle.judge(POWER, 1, report({}))[0] == oracle.FAILED


def test_inputs_are_a_function_of_the_seed():
    for make in jobs.WORKLOADS.values():
        a, b, c = make(5, 2), make(5, 2), make(6, 2)
        assert [(j.argv, j.docs) for j in a] == [(j.argv, j.docs) for j in b]
        assert [(j.argv, j.docs) for j in a] != [(j.argv, j.docs) for j in c]


@pytest.fixture(scope="module")
def cli():
    return run.import_pingpong()


def test_real_run_passes_and_a_tampered_report_fails(cli):
    runner = run.Runner(cli, "separate-arch", 0)
    job = runner.cycle(0)[0]  # a recorded seed
    argv, out = runner.prepare(job)
    try:
        code = cli.run(argv)
        doc = json.loads(out.read_text())
    finally:
        run.remove_work()
    assert oracle.judge(job.expect, code, doc)[0] == oracle.OK
    doc["payload"]["r_estimate"]["value"] *= 1 + 1e-6
    assert oracle.judge(job.expect, code, doc)[0] == oracle.FAILED


def test_a_job_run_twice_counts_once_with_its_worst_verdict():
    answers = iter([(0, True), (1, False)])  # right, then wrong

    class FakeCli:
        @staticmethod
        def run(argv):
            code, full = next(answers)
            out = Path(argv[argv.index("--out") + 1])
            out.write_text(json.dumps(report({"generates_full": full})))
            return code

    runner = run.Runner(FakeCli, "certify", 0)
    job = next(j for j in runner.cycle(1) if j.expect == {"kind": "dense", "full": True})
    try:
        runner.run(job, (1, 0))
        assert runner.tally()[:2] == (1, 0)
        runner.run(job, (1, 0))
    finally:
        run.remove_work()
    attempted, failed, defects, unexpected = runner.tally()
    assert (attempted, failed, defects, len(unexpected)) == (1, 1, 0, 1)


def test_tracer_rebinds_from_import_sites_and_restores_them(cli):
    import pingpong.cli as pcli
    import pingpong.pingpong as ppp
    import pingpong.separation as psep
    from tracer import Recorder
    originals = (pcli.estimate_radius, ppp.dist_to_hyperplane, psep.SLMatrix.__matmul__)
    rec = Recorder()
    rec.install()
    try:
        assert pcli.estimate_radius is not originals[0]
        assert pcli.estimate_radius is psep.estimate_radius
        assert ppp.dist_to_hyperplane is not originals[1]
        assert psep.SLMatrix.__matmul__ is not originals[2]
    finally:
        rec.uninstall()
    assert (pcli.estimate_radius, ppp.dist_to_hyperplane, psep.SLMatrix.__matmul__) == originals
