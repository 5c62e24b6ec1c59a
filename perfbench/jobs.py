"""Workload definitions: seeded CLI jobs for the four benchmark workloads.

A workload is a cycle of jobs, regenerated from ``(seed, cycle)`` for every
cycle, so a run covers many inputs and the same seed always yields the same
inputs.  A job is one ``pingpong`` CLI invocation: its argument list, the
JSON documents it reads, and what the oracle expects of its report.  Input
documents are built here with numpy and fractions only; the program under
test sees nothing but these documents and the ``--seed`` values in them.
"""

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
REAL = {"kind": "real"}
COMPLEX = {"kind": "complex"}
Q5 = {"kind": "padic", "prime": 5, "precision": 40}

# job sizes, fixed per workload so figures compare across commits
SEPARATE_ARCH_TRIALS = 40
SEPARATE_Q5_TRIALS = 2
FALSIFY_SANOV_REAL_LEN = 8
FALSIFY_SANOV_Q5_LEN = 5
FALSIFY_PLANTED_LEN = 4
CONTRACT_REAL_SAMPLES = 10_000
CONTRACT_Q5_SAMPLES = 100
# decades of the planted scale s, 10 .. 1e6, with pairs per decade per cycle.
# The falsifier misses most (g, g^3) pairs and finds most commuting ones, and
# a found relation costs a third of a full search; two power pairs per decade
# put the median job well inside the missed class instead of on the boundary.
PLANTED_DECADES = (1, 2, 3, 4, 5)
POWER_PAIRS_PER_DECADE = 2
COMMUTING_PAIRS_PER_DECADE = 1

# seeds whose separation radius was recorded at the seed commit
RECORDED = json.loads((DATA / "recorded.json").read_text())
RECORDED_SEED = RECORDED["seed"]


@dataclass
class Job:
    """One CLI invocation.

    ``argv`` names documents as ``@name``; the runner writes ``docs[name]``
    (a dict, or a Path to copy) and substitutes its file path.  ``derive``
    builds further documents from the previous job's report, for jobs that
    check what an earlier job produced.
    """

    argv: list
    expect: dict
    docs: dict = field(default_factory=dict)
    derive: object = None


def _rng(seed, cycle, salt):
    return np.random.default_rng([seed, cycle, salt])


def _job_seed(seed, cycle, index):
    return int(_rng(seed, cycle, 1000 + index).integers(0, 2**31))


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return [[c, -s], [s, c]]


def rotations_doc(kind):
    """The README's 8 rotations k*pi/8 in SL_2(R), or the same over C."""
    mats = [rotation(k * math.pi / 8) for k in range(8)]
    if kind == COMPLEX:
        mats = [[[[x, 0.0] for x in row] for row in g] for g in mats]
    return {"field": kind, "elements": mats, "m": 2, "r": 0.05}


def so3_doc(seed, count=24):
    """Haar-random rotations of R^3, a separating set in SL_3(R) for m = 2."""
    rng = _rng(seed, 0, 3)
    mats = []
    for _ in range(count):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        mats.append(q.tolist())
    return {"field": REAL, "elements": mats, "m": 2, "r": 0.01}


def conjugated_diagonal(theta, s):
    """q diag(s, 1/s) q^-1 with q the rotation by theta."""
    q = np.array(rotation(theta))
    return q @ np.diag([s, 1.0 / s]) @ q.T


def float_rel(s):
    """Relative accuracy of epsilon = sqrt(a_2/a_1) = 1/s computed from the
    float matrix q diag(s, 1/s) q^-1: its entries are known to ~s * 2^-52,
    which moves the small singular value 1/s by ~s^2 * 2^-52 relative."""
    return 1e-9 + 4.0 * s * s * 2.0 ** -52


def random_sl_real(rng, n):
    while True:
        m = rng.normal(size=(n, n))
        det = np.linalg.det(m)
        if abs(det) < 1e-6:
            continue
        if det < 0:
            m[0] = -m[0]
            det = -det
        return m / det ** (1.0 / n)


def random_sl_q5(prng, n, ops=8, val_range=2):
    """Exact SL_n(Q) matrix: shears around a 5-power diagonal."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def shear():
        i, j = prng.sample(range(n), 2)
        lam = Fraction(prng.randint(-9, 9)) * Fraction(5) ** prng.randint(-1, 1)
        for c in range(n):
            rows[j][c] += lam * rows[i][c]

    for _ in range(ops // 2):
        shear()
    exps = [prng.randint(-val_range, val_range) for _ in range(n - 1)]
    exps.append(-sum(exps))
    for i in range(n):
        rows[i] = [x * Fraction(5) ** exps[i] for x in rows[i]]
    for _ in range(ops - ops // 2):
        shear()
    return rows


def encode_q5(rows):
    return [[{"rat": str(x)} for x in row] for row in rows]


def near_identity_pair(rng):
    """exp of two random traceless 2x2 matrices of size ~0.1 (criterion 9)."""
    pair = []
    for _ in range(2):
        m = 0.1 * rng.normal(size=(2, 2))
        m -= (np.trace(m) / 2) * np.eye(2)
        w, v = np.linalg.eig(m)
        pair.append((v @ np.diag(np.exp(w)) @ np.linalg.inv(v)).real.tolist())
    return pair


def _separate(set_name, trials, job_seed, recorded=None):
    expect = {"kind": "separate", "trials": trials}
    if recorded is not None:
        expect["recorded_r"] = recorded
    return Job(["separate", "--set", f"@{set_name}", "--m", "2",
                            "--trials", str(trials), "--seed", str(job_seed)], expect)


def _recorded_r(set_name, trials):
    for entry in RECORDED["separate"]:
        if entry["set"] == set_name and entry["trials"] == trials:
            return entry["r"]
    return None


def separate_arch(seed, cycle):
    jobs = []
    for index, name in enumerate(("rot8_real", "so3", "rot8_complex")):
        if cycle == 0 and name != "so3":
            job_seed = RECORDED_SEED
            recorded = _recorded_r(name, SEPARATE_ARCH_TRIALS)
        else:
            job_seed, recorded = _job_seed(seed, cycle, index), None
        jobs.append(_separate(name, SEPARATE_ARCH_TRIALS, job_seed, recorded))
    return jobs


def separate_q5(seed, cycle):
    if cycle == 0:
        return [_separate("sep_q5", SEPARATE_Q5_TRIALS, RECORDED_SEED,
                          _recorded_r("sep_q5", SEPARATE_Q5_TRIALS))]
    return [_separate("sep_q5", SEPARATE_Q5_TRIALS, _job_seed(seed, cycle, 0))]


def _falsify(gens_doc, max_len, expect):
    return Job(["falsify", "--gens", "@gens", "--max-len", str(max_len)],
               expect, {"gens": gens_doc})


def falsify(seed, cycle):
    rng = _rng(seed, cycle, 2)
    jobs = [
        _falsify({"field": REAL, "generators": [[[1.0, 2.0], [0.0, 1.0]],
                                                [[1.0, 0.0], [2.0, 1.0]]]},
                 FALSIFY_SANOV_REAL_LEN, {"kind": "falsify", "pair": "free"}),
        _falsify({"field": Q5, "generators": [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]},
                 FALSIFY_SANOV_Q5_LEN, {"kind": "falsify", "pair": "free"}),
    ]
    for decade in PLANTED_DECADES * POWER_PAIRS_PER_DECADE:
        s = 10.0 ** rng.uniform(decade, decade + 1)
        g = conjugated_diagonal(rng.uniform(0, math.pi), s)
        jobs.append(_falsify({"field": REAL, "generators": [g.tolist(), (g @ g @ g).tolist()]},
                             FALSIFY_PLANTED_LEN,
                             {"kind": "falsify", "pair": "power", "power": 3, "scale": s}))
    for decade in PLANTED_DECADES * COMMUTING_PAIRS_PER_DECADE:
        theta = rng.uniform(0, math.pi)
        s, t = 10.0 ** rng.uniform(decade, decade + 1, size=2)
        gens = [conjugated_diagonal(theta, s).tolist(), conjugated_diagonal(theta, t).tolist()]
        jobs.append(_falsify({"field": REAL, "generators": gens}, FALSIFY_PLANTED_LEN,
                             {"kind": "falsify", "pair": "commuting", "scale": s}))
    return jobs


def _certify_pair(field_doc, sep, gamma_doc, job_seed, epsilon):
    """certify-free --build, then --verify-only on the generators it built,
    then contract-analyze on the same gamma_0."""
    identity = [[1, 0], [0, 1]] if field_doc == Q5 else [[1.0, 0.0], [0.0, 1.0]]
    samples = CONTRACT_Q5_SAMPLES if field_doc == Q5 else CONTRACT_REAL_SAMPLES
    common = ["--sep", f"@{sep}", "--gamma", "@gamma", "--seed", str(job_seed)]
    docs = {"gamma": gamma_doc}
    return [
        Job(["certify-free", "--gens", "@gens", *common, "--build"],
            {"kind": "certify", "mode": "build"},
            {**docs, "gens": {"field": field_doc, "generators": [identity, identity]}}),
        Job(["certify-free", "--gens", "@gens", *common, "--verify-only"],
            {"kind": "certify", "mode": "verify-only"}, docs,
            derive=lambda report: {"gens": {"field": field_doc,
                                            "generators": report["payload"]["generators"]}}),
        Job(["contract-analyze", "--in", "@gamma", "--samples", str(samples),
             "--seed", str(job_seed)],
            {"kind": "contract", "samples": samples, "epsilon": epsilon}, docs),
    ]


def certify(seed, cycle):
    rng = _rng(seed, cycle, 4)
    prng = random.Random(int(rng.integers(0, 2**31)))
    s = 10.0 ** rng.uniform(3, 6)
    gamma = conjugated_diagonal(rng.uniform(0, math.pi), s)
    k = int(rng.integers(3, 5))
    gamma5 = [[{"rat": f"1/{5 ** k}"}, 0], [0, 5 ** k]]
    jobs = _certify_pair(REAL, "rot8_real", {"field": REAL, "matrix": gamma.tolist()},
                         _job_seed(seed, cycle, 0), {"value": 1.0 / s, "rel": float_rel(s)})
    jobs += _certify_pair(Q5, "sep_q5", {"field": Q5, "matrix": gamma5},
                          _job_seed(seed, cycle, 1), {"value": 5.0 ** -k, "rel": 0.0})
    for n in range(2, 7):
        g = random_sl_real(rng, n)
        jobs.append(Job(["cartan", "--in", "@g"],
                        {"kind": "cartan", "field": "real", "matrix": g.tolist()},
                        {"g": {"field": REAL, "matrix": g.tolist()}}))
        rows = encode_q5(random_sl_q5(prng, n))
        jobs.append(Job(["cartan", "--in", "@g"],
                        {"kind": "cartan", "field": "padic", "matrix": rows},
                        {"g": {"field": Q5, "matrix": rows}}))
    e = [[1.0, 0.1], [0.0, 1.0]]
    f = [[1.0, 0.0], [0.1, 1.0]]
    h1 = [[math.exp(0.1), 0.0], [0.0, math.exp(-0.1)]]
    h2 = [[math.exp(0.2), 0.0], [0.0, math.exp(-0.2)]]
    for gens, full in ((near_identity_pair(rng), True), ([e, f], True), ([h1, h2], False)):
        jobs.append(Job(["dense-check", "--gens", "@gens"],
                        {"kind": "dense", "full": full},
                        {"gens": {"field": REAL, "generators": gens}}))
    return jobs


def shared_docs(seed):
    """Documents every cycle of a workload reads: the separating sets."""
    return {
        "rot8_real": rotations_doc(REAL),
        "rot8_complex": rotations_doc(COMPLEX),
        "so3": so3_doc(seed),
        "sep_q5": DATA / "sep_f_q5.json",
    }


WORKLOADS = {
    "separate-arch": separate_arch,
    "separate-q5": separate_q5,
    "falsify": falsify,
    "certify": certify,
}
