"""Judges each job's report from first principles, using no pingpong code.

``judge`` returns ``(status, reason)``.  ``status`` is ``"ok"``,
``"failed"`` (a wrong or missing answer), or ``"known-defect"``: the float
falsifier answering "no relation" on a pair with a planted relation, which
is the open defect of ROADMAP item 2(b).  Both kinds of failure count in
``fail_share``; only ``"failed"`` makes a run incorrect.
"""

from fractions import Fraction

import numpy as np

OK = "ok"
FAILED = "failed"
KNOWN_DEFECT = "known-defect"

EXIT_TRUE, EXIT_FALSE, EXIT_PRECONDITION = 0, 1, 3


def _value(tagged):
    return tagged["value"]


def _separate(expect, code, payload):
    if code != EXIT_TRUE:
        return FAILED, f"separate exited {code}"
    r = _value(payload["r_estimate"])
    if not 0.0 < r <= 1.0:
        return FAILED, f"r = {r} outside (0, 1]"
    wins = sum(e["wins"] for e in payload["elements"])
    if wins != expect["trials"]:
        return FAILED, f"wins sum to {wins}, not the {expect['trials']} trials"
    recorded = expect.get("recorded_r")
    if recorded is not None and abs(r - recorded) > 1e-9 * abs(recorded):
        return FAILED, f"r = {r!r} differs from the recorded {recorded!r}"
    return OK, None


def exponent_sums(letters):
    sums = [0, 0]
    for generator, exponent in letters:
        sums[generator] += exponent
    return sums


def _falsify(expect, code, payload):
    pair = expect["pair"]
    if pair == "free":
        if code == EXIT_TRUE and payload["word"] is None:
            return OK, None
        return FAILED, f"free pair answered exit {code}, word {payload.get('word')}"
    if code == EXIT_PRECONDITION:
        return OK, None  # "cannot decide" is an honest answer
    if code == EXIT_TRUE:
        return KNOWN_DEFECT, f"planted {pair} pair at scale {expect['scale']:.4g} called free"
    if code != EXIT_FALSE:
        return FAILED, f"falsify exited {code}"
    e0, e1 = exponent_sums(payload["letters"])
    if pair == "power":
        is_relation = e0 + expect["power"] * e1 == 0
    else:
        is_relation = e0 == 0 and e1 == 0
    if not is_relation:
        return FAILED, f"word {payload['word']} is not a relation of the {pair} pair"
    return OK, None


def _certify(expect, code, payload):
    if code == EXIT_TRUE and payload.get("verified") is True:
        return OK, None
    return FAILED, f"certify-free {expect['mode']} exited {code}: {payload.get('error')}"


def _contract(expect, code, payload):
    if code != EXIT_TRUE or payload["empirical_pass"] is not True:
        return FAILED, f"contract-analyze exited {code}"
    if payload["samples"] != expect["samples"]:
        return FAILED, f"{payload['samples']} samples reported, {expect['samples']} asked"
    eps, want = _value(payload["epsilon"]), expect["epsilon"]
    if abs(eps - want["value"]) > want["rel"] * want["value"]:
        return FAILED, f"epsilon {eps!r}, expected {want['value']!r}"
    return OK, None


def _rational(obj):
    return Fraction(obj["rat"])


def _cartan(expect, code, payload):
    if code != EXIT_TRUE:
        return FAILED, f"cartan exited {code}"
    if expect["field"] == "real":
        g = np.array(expect["matrix"])
        rebuilt = np.array(payload["k"]) @ np.diag(payload["a"]) @ np.array(payload["k_prime"])
        err = np.linalg.norm(rebuilt - g) / np.linalg.norm(g)
        if err > 1e-9:
            return FAILED, f"k diag(a) k' misses g by {err:.3g} relative"
        return OK, None
    g = [[_rational(x) for x in row] for row in expect["matrix"]]
    k = [[_rational(x) for x in row] for row in payload["k"]]
    a = [_rational(x) for x in payload["a"]]
    k2 = [[_rational(x) for x in row] for row in payload["k_prime"]]
    n = len(g)
    rebuilt = [[sum(k[i][t] * a[t] * k2[t][j] for t in range(n)) for j in range(n)]
               for i in range(n)]
    if rebuilt != g:
        return FAILED, "k diag(a) k' is not exactly g"
    return OK, None


def _dense(expect, code, payload):
    want_code = EXIT_TRUE if expect["full"] else EXIT_FALSE
    if code == want_code and payload["generates_full"] is expect["full"]:
        return OK, None
    return FAILED, f"dense-check exited {code}, expected generates_full={expect['full']}"


_JUDGES = {
    "separate": _separate,
    "falsify": _falsify,
    "certify": _certify,
    "contract": _contract,
    "cartan": _cartan,
    "dense": _dense,
}


def judge(expect, code, report):
    """Verdict on one job from its exit code and its JSON report."""
    if report is None:
        return FAILED, f"no report (exit {code})"
    if report.get("schema") != 1 or "payload" not in report:
        return FAILED, "report lacks the schema-1 envelope"
    try:
        return _JUDGES[expect["kind"]](expect, code, report["payload"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return FAILED, f"malformed report: {exc!r}"
