"""Command-line driver: decompose, analyze, separate, certify, falsify.

Every run writes one JSON report (stdout or --out) with a fixed envelope:
schema version, tool version, command, sha256 digest of each input file,
parameters, seed, result payload and a pass flag.  Reports are
deterministic for fixed inputs, flags and seed, except the timestamp.

Exit codes: 0 certified or true, 1 refuted or false, 2 malformed input,
3 precondition or precision failure, or a falsifier that cannot decide
past its reported decided_len.
"""

import argparse
import datetime
import functools
import sys
import warnings

from . import __version__, io
from .contraction import ProximalCert, contraction_data, verify_contracting
from .errors import (CertificationError, ConstructionError, InputError, NotContractingError,
                     UndecidedError)
from .liegen import generated_subalgebra, matrix_log
from .pingpong import (PingPongCert, certify_free_generators, freeness_falsifier,
                       separation_table, verify_pingpong)
from .separation import NotSeparatingWarning, SeparatingSet, estimate_radius

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


# built on the first run and kept: every in-process run parses with one tree
@functools.cache
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pingpong",
        description="quantitative freeness certificates over local fields")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("cartan", help="KAK decomposition and singular value ratios")
    p.add_argument("--in", dest="infile", required=True, metavar="G.JSON")
    common(p)

    p = sub.add_parser("contract-analyze",
                       help="contraction certificate plus empirical check")
    p.add_argument("--in", dest="infile", required=True, metavar="G.JSON")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    common(p)

    p = sub.add_parser("separate", help="estimate the separation radius of a set")
    p.add_argument("--set", dest="setfile", required=True, metavar="F.JSON")
    p.add_argument("--m", type=int, default=None,
                   help="override the document's tuple size")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    common(p)

    p = sub.add_parser("certify-free",
                       help="build or check a ping-pong freeness certificate")
    p.add_argument("--gens", required=True, metavar="GENS.JSON")
    p.add_argument("--sep", required=True, metavar="F.JSON")
    p.add_argument("--gamma", required=True, metavar="G.JSON")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--build", action="store_true", default=True,
                      help="run the construction pipeline (default)")
    mode.add_argument("--verify-only", dest="verify_only", action="store_true",
                      help="check the generators as a claimed tuple, no construction")
    p.add_argument("--seed", type=int, required=True)
    common(p)

    p = sub.add_parser("falsify", help="search reduced words for a relation")
    p.add_argument("--gens", required=True, metavar="GENS.JSON")
    p.add_argument("--max-len", dest="max_len", type=int, required=True)
    common(p)

    p = sub.add_parser("dense-check",
                       help="do the generators' logarithms span sl_n?")
    p.add_argument("--gens", required=True, metavar="GENS.JSON")
    common(p)

    return top


def _report(args, inputs: dict, parameters: dict, payload: dict, passed: bool) -> dict:
    return {
        "schema": 1,
        "tool": f"pingpong {__version__}",
        "command": args.command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "inputs": {name: {"path": path, "sha256": io.input_digest(path)}
                   for name, path in inputs.items()},
        "parameters": parameters,
        "seed": getattr(args, "seed", None),
        "payload": payload,
        "pass": passed,
    }


def _emit(args, report: dict) -> None:
    text = io.report_text(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _run_cartan(args):
    g = io.load_matrix(args.infile)
    t = g.cartan()
    prov = io.measured(g.field)
    a_abs = t.a_abs
    payload = {
        "n": g.n,
        "k": io.encode_matrix(t.k),
        "a": [io.encode_scalar(g.field, x) for x in t.a],
        "k_prime": io.encode_matrix(t.k_prime),
        "a_abs": [io.tagged(x, prov) for x in a_abs],
        "ratios": [io.tagged(a_abs[i] / a_abs[i + 1], prov)
                   for i in range(len(a_abs) - 1)],
    }
    return payload, True, {"in": args.infile}, {}


def _run_contract_analyze(args):
    g = io.load_matrix(args.infile)
    if args.samples < 0:
        raise InputError(f"must be nonnegative, got {args.samples}", path="--samples")
    cert = contraction_data(g)
    ok = verify_contracting(cert, g, samples=args.samples, seed=args.seed)
    payload = io.encode_contraction_cert(cert)
    payload["flag_distance"] = io.tagged(cert.flag_distance(), io.measured(g.field))
    payload["empirical_pass"] = ok
    payload["samples"] = args.samples
    return (payload, ok, {"in": args.infile},
            {"samples": args.samples})


def _run_separate(args):
    F = io.load_separating_set(args.setfile)
    m = F.m if args.m is None else args.m
    if m < 1:
        raise InputError(f"must be positive, got {m}", path="--m")
    if args.trials < 1:
        raise InputError(f"must be positive, got {args.trials}", path="--trials")
    notes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NotSeparatingWarning)
        estimate = estimate_radius(F.elements, m, args.trials, args.seed)
        notes.extend(str(w.message) for w in caught
                     if issubclass(w.category, NotSeparatingWarning))
    prov = io.measured(F.elements[0].field)
    payload = {
        "m": m,
        "declared_r": io.tagged(F.r, "exact"),
        "r_estimate": io.tagged(estimate.r, "estimate"),
        "C": io.tagged(F.C, prov),
        "elements": [{"index": i,
                      "bilip": io.tagged(bilip, prov),
                      "wins": estimate.wins[i]}
                     for i, bilip in enumerate(F.bilips)],
        "notes": notes,
    }
    return (payload, estimate.r > 0.0, {"set": args.setfile},
            {"m": m, "trials": args.trials})


def _claimed_tuple_cert(gens, F: SeparatingSet) -> PingPongCert:
    """Two-sided certificates from each element's own Cartan data, at the
    set's declared radius; raises if an element does not contract."""
    certs = []
    for g in gens:
        forward = contraction_data(g)
        backward = contraction_data(g.inverse())
        eps = max(forward.epsilon, backward.epsilon)
        certs.append(ProximalCert(F.r, eps, forward, backward))
    eps_bar = max(c.epsilon for c in certs)
    return PingPongCert(tuple(gens), tuple(certs), F.r, eps_bar,
                        separation_table(certs))


def _run_certify_free(args):
    gens = io.load_generators(args.gens)
    F = io.load_separating_set(args.sep)
    gamma0 = io.load_matrix(args.gamma)
    # a mix of fields or sizes is bad input (exit 2, with a path), not a failed precondition
    g = gens[0]
    for flag, other, where in (("--sep", F.elements[0], "elements[0]"),
                               ("--gamma", gamma0, "matrix")):
        if other.field != g.field:
            raise InputError(f"--gens is over {g.field} but {flag} is over {other.field}",
                             path="field")
        if other.n != g.n:
            raise InputError(f"--gens holds {g.n}x{g.n} matrices but {flag} holds "
                             f"{other.n}x{other.n}", path=where)
    inputs = {"gens": args.gens, "sep": args.sep, "gamma": args.gamma}
    parameters = {"mode": "verify-only" if args.verify_only else "build"}
    notes = []
    if args.verify_only:
        try:
            cert = _claimed_tuple_cert(gens, F)
        except (ConstructionError, NotContractingError) as exc:
            # a non-contracting generator or data that cannot be assembled
            # into a certificate refutes the claim rather than aborting the run
            payload = {"verified": False, "reason": str(exc)}
            return payload, False, inputs, parameters
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            cert = certify_free_generators(gens, F, gamma0, seed=args.seed)
            notes.extend(str(w.message) for w in caught)
    ok = verify_pingpong(cert)
    payload = io.encode_pingpong_cert(cert)
    payload["verified"] = ok
    payload["notes"] = notes
    return payload, ok, inputs, parameters


def _run_falsify(args):
    if args.max_len < 1:
        raise InputError(f"must be at least 1, got {args.max_len}", path="--max-len")
    gens = io.load_generators(args.gens)
    word = freeness_falsifier(gens, args.max_len)
    payload = {
        "max_len": args.max_len,
        "word": None if word is None else str(word),
        "letters": None if word is None else [[i, e] for i, e in word.letters],
        "decided_len": args.max_len if word is None else len(word) - 1,
    }
    return (payload, word is None, {"gens": args.gens},
            {"max_len": args.max_len})


def _run_dense_check(args):
    gens = io.load_generators(args.gens)
    algebra = generated_subalgebra([matrix_log(g) for g in gens])
    n = gens[0].n
    full = algebra.dimension == n * n - 1
    payload = {
        "generates_full": full,
        "dimension": algebra.dimension,
        "warnings": list(algebra.warnings),
    }
    return (payload, full, {"gens": args.gens}, {})


_RUNNERS = {
    "cartan": _run_cartan,
    "contract-analyze": _run_contract_analyze,
    "separate": _run_separate,
    "certify-free": _run_certify_free,
    "falsify": _run_falsify,
    "dense-check": _run_dense_check,
}


def run(argv) -> int:
    args = _parser().parse_args(argv)
    try:
        # bad input over every field, refused before the streams raise ValueError
        if getattr(args, "seed", 0) < 0:
            raise InputError(f"must be nonnegative, got {args.seed}", path="--seed")
        payload, passed, inputs, parameters = _RUNNERS[args.command](args)
    except InputError as exc:
        failure = {"error": str(exc)}
        if exc.path is not None:
            failure["path"] = exc.path
        _emit(args, _report(args, {}, {}, failure, False))
        return EXIT_INPUT
    except CertificationError as exc:
        failure = {"error": str(exc)}
        if isinstance(exc, UndecidedError):
            failure["decided_len"] = exc.decided_len
            failure["word"] = None if exc.word is None else str(exc.word)
        _emit(args, _report(args, {}, {}, failure, False))
        return EXIT_PRECONDITION
    _emit(args, _report(args, inputs, parameters, payload, passed))
    return EXIT_TRUE if passed else EXIT_FALSE


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)
