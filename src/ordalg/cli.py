"""Command-line front end over JSON documents.

Every command prints a handful of plain-text summary lines followed by a
single JSON object with sorted keys, so output is byte-identical across
runs with the same inputs and seed.  Exit status 0 means every check
passed, 1 means a mathematical check failed (the JSON then carries a
counterexample block sufficient to replay the case), 2 means the input
was unusable.

Document formats, all UTF-8 JSON:

    order     {"elements": ["p", "q"], "leq": [["p", "q"]]}
    function  {"carrier": ["p", "q"], "values": {"p": "-3", "q": "1/2"}}
    skeleton  {"quasiorder": <order>}  or  {"generators": [<function>, ...]}
    algebra   {"carrier": [...], "blocks": [["p", "q"], ...]}

Rationals are canonical strings "n" or "n/d".  Orders are closed
reflexively and transitively on load; generator skeletons induce the
quasi-order x below y iff g(x) <= g(y) for every generator g.  A document
listing more than CARRIER_CAP labels is refused with exit 2 before it is
read further, and a generator skeleton whose generators x labels^2
exceeds GENERATOR_WORK_CAP before any label pair is compared.
"""

from __future__ import annotations

import argparse
import json
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .approx import DIEUDONNE_STEP_CAP, dieudonne_sequence, sw_approximate
from .errors import (CarrierMismatch, EmptyCarrier, NonPositiveEpsilon,
                     OrdalgError, TooLargeToEnumerate, UnknownElement)
from .fnalg import RationalFn, SubalgebraPartition, check_carrier
from .order import FinitePoset, QuasiOrder, is_monotone, monotone_envelope
from .proximity import (DEVRIES_AXIOMS, ProximityOracle, check_axioms,
                        is_nachbin, prox_decide, separation_point)
from .rng import DEFAULT_SEED
from .sbal import SbalSkeleton, check_skeleton_axioms
from .sbal_plus import roundtrip_pq
from .spectrum import (enumerate_adjunction, eta, induced_order,
                       phi_respects_proximity, spectrum)

# Errors that mean the invocation itself is unusable, not that a checked
# mathematical statement is false.
INPUT_ERRORS = (UnknownElement, EmptyCarrier, CarrierMismatch,
                TooLargeToEnumerate, NonPositiveEpsilon)

# A 10,000-sample axiom suite takes seconds, so larger counts are refused
# rather than left to run for hours.
SAMPLES_CAP = 100_000

# An axiom run costs about samples x labels^1.8: 15 samples with --devries
# on a 256-label chain skeleton (3,840) take about 6.5 s, so a larger
# product is refused before any suite runs.
AXIOMS_WORK_CAP = 4_000

# Closing a chain of 256 labels takes about 0.07 s, and closure time grows
# about as n^2.3 (0.19 s at 512), so larger documents are refused before
# any order or function is built.
CARRIER_CAP = 256

# A generator skeleton compares every label pair under every generator.
# On 256 constant labels, where no comparison stops early, 152 generators
# (9.96 million comparisons, at the cap) took 6.0 to 7.9 s end to end and
# 200 generators 10 to 13.3 s, so a larger generators x labels^2 product
# is refused before any pair is compared.
GENERATOR_WORK_CAP = 10_000_000


class _InputError(Exception):
    """Unusable input: missing file, bad JSON, malformed document."""

    def __init__(self, message: str, details: Optional[dict] = None):
        super().__init__(message)
        self.details = details or {}


def _emit(lines: Sequence[str], payload: dict) -> None:
    for line in lines:
        print(line)
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))


def _pass_fail(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _verdict(name: str, ok: bool, note: str, payload: dict, lines: Sequence[str] = ()) -> int:
    """Print the summary lines, "name: PASS|FAIL (note)" and the JSON; 0 on PASS, else 1."""
    _emit([*lines, f"{name}: {_pass_fail(ok)}" + (f" ({note})" if note else "")], payload)
    return 0 if ok else 1


def _antisymmetry_verdict(name: str, order: QuasiOrder, expect_quasi: bool, payload: dict,
                          size: str, expected: str, failure: str, **extra) -> int:
    """PASS on a partial order; a two-way pair passes only under --expect-quasi."""
    pair = order.two_way_pair()
    if pair is None:
        return _verdict(name, True, f"{size}, partial order", payload)
    x, y = pair
    payload["counterexample"] = {"pair": [x, y], **extra}
    if expect_quasi:
        return _verdict(name, True, f"{expected}{x} and {y} are order-equivalent", payload)
    return _verdict(name, False, f"{failure} on {x}, {y}", payload)


# -- document loading --------------------------------------------------

def _load_doc(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        # Also undecodable bytes and integer literals too long to convert.
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise _InputError(f"{path} nests JSON too deeply to read") from exc
    if not isinstance(doc, dict):
        raise _InputError(f"{path} must hold a JSON object")
    return doc


def _cap_labels(doc) -> None:
    """Refuse a document whose elements or carrier list exceeds CARRIER_CAP labels."""
    labels = doc.get("elements", doc.get("carrier")) if isinstance(doc, dict) else None
    if isinstance(labels, list) and len(labels) > CARRIER_CAP:
        raise TooLargeToEnumerate(f"documents are capped at {CARRIER_CAP} labels",
                                  {"labels": len(labels), "cap": CARRIER_CAP})


def _labels(items, what: str) -> tuple:
    if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
        raise _InputError(f"{what} must be a list of strings, got {items!r}")
    return tuple(items)


def _order_from_doc(doc: dict, *, antisymmetric: bool) -> QuasiOrder:
    _cap_labels(doc)
    if not (isinstance(doc, dict) and isinstance(doc.get("elements"), list)
            and isinstance(doc.get("leq"), list)):
        raise _InputError('an order document needs "elements" and "leq" lists')
    elements = _labels(doc["elements"], "the order elements")
    pairs = []
    for item in doc["leq"]:
        if not isinstance(item, list) or len(item) != 2:
            raise _InputError(f'"leq" entries must be pairs, got {item!r}')
        pairs.append(_labels(item, "each order pair"))
    try:
        if antisymmetric:
            return FinitePoset(elements, pairs)
        return QuasiOrder(elements, pairs)
    except OrdalgError as exc:
        raise _InputError(str(exc), exc.details) from exc


def _load_poset(path: str) -> FinitePoset:
    return _order_from_doc(_load_doc(path), antisymmetric=True)


def _load_function(path: str, carrier: tuple) -> RationalFn:
    """Load a function document, read in the label order of ``carrier``."""
    doc = _load_doc(path)
    _cap_labels(doc)
    try:
        f = RationalFn.from_dict(doc)
    except (OrdalgError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"{path} is not a valid function document: {exc}") from exc
    return f.on(carrier)


def _load_skeleton(path: str) -> SbalSkeleton:
    doc = _load_doc(path)
    if "quasiorder" in doc:
        return SbalSkeleton(_order_from_doc(doc["quasiorder"], antisymmetric=False))
    if "generators" in doc:
        if isinstance(doc["generators"], list):
            for gen in doc["generators"]:
                _cap_labels(gen)
        try:
            gens = [RationalFn.from_dict(d) for d in doc["generators"]]
        except (OrdalgError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise _InputError(f"bad generator in {path}: {exc}") from exc
        if not gens:
            raise _InputError("a generator skeleton needs at least one function")
        carrier = gens[0].carrier
        for g in gens:
            check_carrier(g.carrier, carrier)
        work = len(gens) * len(carrier) ** 2
        if work > GENERATOR_WORK_CAP:
            raise TooLargeToEnumerate(
                f"generator skeletons are capped at {GENERATOR_WORK_CAP} generators x labels^2",
                {"generators": len(gens), "labels": len(carrier), "product": work,
                 "cap": GENERATOR_WORK_CAP})
        pairs = [(x, y) for x in carrier for y in carrier
                 if all(g.values[x] <= g.values[y] for g in gens)]
        return SbalSkeleton(QuasiOrder(carrier, pairs))
    raise _InputError(f'{path} must hold "quasiorder" or "generators"')


def _oracle_from(args) -> ProximityOracle:
    if args.oracle is not None:
        return ProximityOracle.r2()
    return ProximityOracle.from_skeleton(_load_skeleton(args.skeleton))


def _skeleton_from(args) -> SbalSkeleton:
    if args.poset is not None:
        return SbalSkeleton(_load_poset(args.poset))
    return _load_skeleton(args.skeleton)


def _algebra_from(args, carrier: tuple) -> SubalgebraPartition:
    if args.algebra is None:
        return SubalgebraPartition.discrete(carrier)
    doc = _load_doc(args.algebra)
    _cap_labels(doc)
    if not isinstance(doc.get("carrier"), list) or not isinstance(doc.get("blocks"), list):
        raise _InputError('an algebra document needs "carrier" and "blocks" lists')
    blocks = tuple(_labels(b, "each algebra block") for b in doc["blocks"])
    try:
        algebra = SubalgebraPartition(_labels(doc["carrier"], "the algebra carrier"), blocks)
    except OrdalgError as exc:
        raise _InputError(str(exc), exc.details) from exc
    check_carrier(algebra.carrier, carrier)
    return SubalgebraPartition(carrier, algebra.blocks)


def _samples(args) -> int:
    if args.samples <= 0:
        raise _InputError("--samples must be a positive count", {"samples": args.samples})
    if args.samples > SAMPLES_CAP:
        raise TooLargeToEnumerate(f"--samples is capped at {SAMPLES_CAP}",
                                  {"samples": args.samples, "cap": SAMPLES_CAP})
    return args.samples


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"{flag} needs a rational like 3 or 1/8, got {text!r}") from exc


# -- flags -------------------------------------------------------------

def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--oracle", choices=("r2",),
                       help="built-in oracle (the two-point plane analog)")
    group.add_argument("--skeleton", metavar="FILE", help="skeleton document")


def _add_order_source(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--poset", metavar="FILE", help="order document")
    group.add_argument("--skeleton", metavar="FILE", help="skeleton document")


def _required_files(*flags: str) -> Callable[[argparse.ArgumentParser], None]:
    def add(p: argparse.ArgumentParser) -> None:
        for flag in flags:
            p.add_argument(flag, required=True, metavar="FILE")
    return add


def _add_algebra(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algebra", metavar="FILE",
                   help="algebra document (default: the full algebra)")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="root seed for all sampling (default %(default)s)")


def _add_samples(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=1000,
                   help=f"sample count for randomized checks, 1 to {SAMPLES_CAP} "
                        "(default %(default)s)")


def _add_expect_quasi(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expect-quasi", dest="expect_quasi", action="store_true",
                   help="treat an antisymmetry failure as the expected outcome")


_COMMANDS = []


def _command(name: str, summary: str, *flags: Callable[[argparse.ArgumentParser], None]):
    """Register the decorated handler as command ``name``, listed in --help in this order."""
    def register(handler):
        _COMMANDS.append((name, summary, flags, handler))
        return handler
    return register


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordalg",
        description="Exact duality toolkit for finite ordered spaces and "
                    "their function algebras.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, summary, flags, handler in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for add in flags:
            add(p)
        p.set_defaults(handler=handler)
    return parser


# -- commands ----------------------------------------------------------

@_command("validate", "close an order document and check antisymmetry", _required_files("--poset"),
          _add_expect_quasi)
def cmd_validate(args) -> int:
    order = _order_from_doc(_load_doc(args.poset), antisymmetric=False)
    payload = {"order": order.to_dict(), "antisymmetric": order.is_antisymmetric}
    return _antisymmetry_verdict("validate", order, args.expect_quasi, payload,
                                 f"{len(order.elements)} elements", "quasi-order; ",
                                 "antisymmetry fails")


@_command("envelope", "least/greatest cone member above/below a function", _add_order_source,
          _required_files("--function"),
          lambda p: p.add_argument("--direction", choices=("upper", "lower"), required=True))
def cmd_envelope(args) -> int:
    skeleton = _skeleton_from(args)
    f = _load_function(args.function, skeleton.carrier)
    env = monotone_envelope(f, skeleton.order, args.direction)
    payload = {"direction": args.direction, "function": f.to_dict(),
               "envelope": env.to_dict(),
               "already_member": is_monotone(f, skeleton.order)}
    return _verdict("envelope", True, f"{args.direction} envelope computed", payload)


@_command("prox", "decide the proximity relation on two functions", _add_oracle_flags,
          _required_files("--left", "--right"))
def cmd_prox(args) -> int:
    oracle = _oracle_from(args)
    a = _load_function(args.left, oracle.carrier)
    b = _load_function(args.right, oracle.carrier)
    related, witness = prox_decide(oracle, a, b)
    payload = {"related": related, "left": a.to_dict(), "right": b.to_dict()}
    if related:
        payload["witness"] = witness.to_dict()
        return _verdict("prox", True, "related; interpolating member reported", payload)
    payload["counterexample"] = separation_point(oracle, a, b)
    point = payload["counterexample"]["point"]
    return _verdict("prox", False, f"not related; envelope exceeds bound at {point}", payload)


@_command("axioms", "run the proximity and skeleton axiom suites", _add_oracle_flags,
          lambda p: p.add_argument("--devries", action="store_true",
                                   help="also probe the compingent axioms P11 and P12"),
          _add_seed, _add_samples)
def cmd_axioms(args) -> int:
    samples = _samples(args)
    oracle = _oracle_from(args)
    work = samples * len(oracle.carrier)
    if work > AXIOMS_WORK_CAP:
        raise TooLargeToEnumerate(f"axioms is capped at {AXIOMS_WORK_CAP} samples x labels",
                                  {"samples": samples, "labels": len(oracle.carrier),
                                   "product": work, "cap": AXIOMS_WORK_CAP})
    prox_report = check_axioms(oracle, samples=samples, seed=args.seed,
                               include_devries=args.devries)
    skel_report = check_skeleton_axioms(oracle.skeleton, samples=samples,
                                        seed=args.seed)
    lines = []
    failed = []
    for report in (prox_report, skel_report):
        for res in report.results:
            if res.name in DEVRIES_AXIOMS:
                verdict = "holds" if res.passed else "counterexample found"
            elif res.premise_hits == 0:
                # A gated axiom whose premise never held was not checked.
                verdict = "VACUOUS"
                failed.append(res.name)
            else:
                verdict = _pass_fail(res.passed)
                if not res.passed:
                    failed.append(res.name)
            lines.append(f"{res.name}: {verdict} "
                         f"({res.premise_hits}/{res.checked} premise hits)")
    payload = {"proximity": prox_report.to_dict(), "skeleton": skel_report.to_dict(),
               "failed": failed}
    return _verdict("axioms", not failed, ", ".join(failed), payload, lines)


@_command("spectrum", "maximal ideals of a subalgebra", _add_oracle_flags, _add_algebra)
def cmd_spectrum(args) -> int:
    oracle = _oracle_from(args)
    algebra = _algebra_from(args, oracle.carrier)
    points = spectrum(algebra)
    payload = {"algebra": algebra.to_dict(),
               "points": [{"label": p.label, "block": list(p.block)} for p in points],
               "separates_points": algebra.separates_points}
    return _verdict("spectrum", True, f"{len(points)} maximal ideals", payload)


@_command("induced-order", "order the spectrum through the proximity", _add_oracle_flags,
          _add_algebra, _add_expect_quasi)
def cmd_induced_order(args) -> int:
    oracle = _oracle_from(args)
    algebra = _algebra_from(args, oracle.carrier)
    spec = induced_order(algebra, oracle)
    payload = {"spectrum": spec.to_dict(),
               "nachbin": is_nachbin(algebra, oracle),
               "certificates": [{"pair": [x, y], "witness": w.to_dict()["values"]}
                                for (x, y), w in sorted(spec.certificates.items())]}
    return _antisymmetry_verdict("induced-order", spec.order, args.expect_quasi, payload,
                                 f"{len(spec.points)} points",
                                 "order fails antisymmetry as expected: ",
                                 "order fails antisymmetry", note="order fails antisymmetry")


@_command("roundtrip", "verify the unit and evaluation maps on a space", _required_files("--poset"),
          _add_seed, _add_samples)
def cmd_roundtrip(args) -> int:
    samples = _samples(args)
    space = _load_poset(args.poset)
    eta_report = eta(space)
    phi_report = phi_respects_proximity(space, samples=samples, seed=args.seed,
                                        spec=eta_report.spectrum)
    payload = {"eta": eta_report.to_dict(), "phi": phi_report.to_dict()}
    lines = [
        "eta order isomorphism: " + _pass_fail(eta_report.is_order_isomorphism),
        f"phi preserves/reflects relation on {phi_report.checked} pairs: "
        + _pass_fail(phi_report.ok),
    ]
    return _verdict("roundtrip", eta_report.is_order_isomorphism and phi_report.ok, "",
                    payload, lines)


@_command("sw-approx", "approximate a cone member from a separating family", _add_order_source,
          _required_files("--function"),
          lambda p: p.add_argument("--eps", required=True, metavar="Q",
                                   help="tolerance, a positive rational"))
def cmd_sw_approx(args) -> int:
    skeleton = _skeleton_from(args)
    f = _load_function(args.function, skeleton.carrier)
    epsilon = _parse_fraction(args.eps, "--eps")
    certificate = sw_approximate(f, skeleton, epsilon)
    error = (f - certificate.approximant).sup_norm()
    payload = {"certificate": certificate.to_dict(), "error": str(error)}
    if error <= epsilon:
        return _verdict("sw-approx", True, f"sup-norm error {error} <= {epsilon}, "
                        f"family size {certificate.family_size}", payload)
    payload["counterexample"] = {"error": str(error), "epsilon": str(epsilon)}
    return _verdict("sw-approx", False, f"sup-norm error {error} > {epsilon}", payload)


@_command("dieudonne", "interpolation sequence between a proximal pair", _add_oracle_flags,
          _required_files("--left", "--right"),
          lambda p: p.add_argument("--steps", type=int, default=8, metavar="N",
                                   help=f"trace length, 1 to {DIEUDONNE_STEP_CAP} "
                                        "(default %(default)s)"))
def cmd_dieudonne(args) -> int:
    oracle = _oracle_from(args)
    f = _load_function(args.left, oracle.carrier)
    g = _load_function(args.right, oracle.carrier)
    trace = dieudonne_sequence(f, g, oracle, args.steps)
    violations = trace.bound_violations()
    payload = {"trace": trace.to_dict()}
    if violations:
        payload["counterexample"] = violations[0]
        return _verdict("dieudonne", False, f"{len(violations)} bound violations", payload)
    return _verdict("dieudonne", True, f"{trace.steps} steps, bounds hold", payload)


@_command("adjunction", "match monotone maps with algebra morphisms", _required_files("--poset"),
          lambda p: p.add_argument("--skeleton", metavar="FILE",
                                   help="target skeleton (default: the poset's own cone)"),
          _add_seed)
def cmd_adjunction(args) -> int:
    space = _load_poset(args.poset)
    if args.skeleton is not None:
        skeleton = _load_skeleton(args.skeleton)
    else:
        skeleton = SbalSkeleton(space)
    report = enumerate_adjunction(space, skeleton, seed=args.seed)
    payload = report.to_dict()
    payload["count"] = report.count
    lines = [
        f"hom-sets: {len(report.monotone_maps)} monotone maps, "
        f"{len(report.morphism_maps)} morphisms",
        "theta bijective: " + _pass_fail(report.bijective),
        "naturality: " + _pass_fail(report.naturality_ok),
    ]
    return _verdict("adjunction", report.bijective and report.naturality_ok, "",
                    payload, lines)


@_command("pq-roundtrip", "positive-cone functor roundtrip on a value grid", _add_order_source)
def cmd_pq_roundtrip(args) -> int:
    skeleton = _skeleton_from(args)
    report = roundtrip_pq(skeleton)
    note = (f"{report.checked} grid functions, memberships identical" if report.identical
            else "membership mismatch")
    return _verdict("pq-roundtrip", report.identical, note, report.to_dict())


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (_InputError, *INPUT_ERRORS) as exc:
        _emit([f"error: {exc}"], {"error": str(exc), "details": exc.details})
        return 2
    except OrdalgError as exc:
        _emit([f"FAIL: {exc}"], {"error": str(exc), "counterexample": exc.details})
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
