"""The in-process workloads: inputs, ops and the checks that verify them.

A workload is driven in rounds.  A round is a fixed list of op specs whose
composition is the same in every round, so a run that stops on a round
boundary measures the same mix whatever the seed.  Every input comes from
the workload seed; the library receives only the generated objects.

``run`` is the timed part of an op: the library calls a user would make.
``prepare`` builds per-op inputs before the clock starts and ``check``
re-derives the verdict after it stops, from raw definitions where that is
cheap (relations as sets of pairs, values as Fractions), never from a
report's pass flag alone.  A check returns an :class:`Outcome` whose
digest hashes the op's canonical result.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction


def derive(seed: int, *tags) -> int:
    """A 64-bit seed for one op, from the workload seed and its position."""
    h = hashlib.sha256(str(seed).encode())
    for tag in tags:
        h.update(b"/" + str(tag).encode())
    return int.from_bytes(h.digest()[:8], "big")


def digest_of(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Outcome:
    ok: bool
    digest: str
    counts: dict = field(default_factory=dict)
    note: str = ""


@dataclass(frozen=True)
class Op:
    kind: str
    key: tuple          # identifies the whole input; equal keys repeat an input
    args: tuple


def closed_pairs(order) -> frozenset:
    """The relation of an order as a set of pairs, read off its document."""
    return frozenset(tuple(p) for p in order.to_dict()["leq"])


def has_strict_pair(pairs: frozenset) -> bool:
    return any(x != y and (y, x) not in pairs for x, y in pairs)


def raw_monotone(values: dict, pairs: frozenset) -> bool:
    return all(values[x] <= values[y] for x, y in pairs)


def sup_dist(u: dict, v: dict) -> Fraction:
    return max(abs(u[x] - v[x]) for x in u)


class SampledSuites:
    """Seeded suite calls on small orders built in setup.

    One op is one suite call on one oracle with a fresh seed: the proximity
    axioms with the de Vries probes, the skeleton axioms, a batch of
    envelope-pair operations compared with the evaluated difference, or
    the phi preserve/reflect check.  Sampled inputs never repeat.  Four
    fixed orders (r2, the 2-chain, the vee, the two-point complete
    quasi-order) recur in every round; the random 4- and 5-point posets
    rotate through a pool of eight each.  All orders are built in setup.
    """

    name = "sampled-suites"
    TAIL_PERCENTILE = 98
    PROX_SAMPLES = 48
    SKEL_SAMPLES = 48
    PAIRS = 24
    PHI_SAMPLES = 96
    POOL = 8

    def setup(self, oa, seed: int) -> None:
        self.oa = oa
        self.seed = seed
        rng = random.Random(derive(seed, "orders"))
        self.fixed = [("r2", oa.ProximityOracle.r2()),
                      ("chain2", oa.ProximityOracle.from_order(oa.chain("pq"))),
                      ("vee", oa.ProximityOracle.from_order(
                          oa.FinitePoset("abc", [("a", "c"), ("b", "c")]))),
                      ("uv", oa.ProximityOracle.from_order(oa.complete_quasi_order("uv")))]
        self.pool = {n: [oa.ProximityOracle.from_order(oa.random_poset(rng, n))
                         for _ in range(self.POOL)] for n in (4, 5)}
        self.pairs = {}
        for oracle in [o for _, o in self.fixed] + self.pool[4] + self.pool[5]:
            self.pairs[id(oracle)] = closed_pairs(oracle.skeleton.order)

    def round(self, r: int) -> list:
        k = r % self.POOL
        oracles = self.fixed + [(f"rand4.{k}", self.pool[4][k]), (f"rand5.{k}", self.pool[5][k])]
        ops = []
        for j, (label, oracle) in enumerate(oracles):
            kinds = ["prox", "skel", "pairs"]
            if label not in ("r2", "uv"):
                kinds.append("phi")
            for kind in kinds:
                s = derive(self.seed, r, j, kind)
                ops.append(Op(kind, (kind, label, s), (oracle, s)))
        return ops

    def prepare(self, op: Op):
        return op.args

    def run(self, op: Op, inputs):
        oa = self.oa
        oracle, s = inputs
        if op.kind == "prox":
            return oa.check_axioms(oracle, samples=self.PROX_SAMPLES, seed=s,
                                   include_devries=True)
        if op.kind == "skel":
            return oa.check_skeleton_axioms(oracle.skeleton, samples=self.SKEL_SAMPLES, seed=s)
        if op.kind == "phi":
            return oa.phi_respects_proximity(oracle.skeleton.order,
                                             samples=self.PHI_SAMPLES, seed=s)
        return self._pair_batch(oracle.skeleton, s)

    def _pair_batch(self, skeleton, s: int):
        """Pair operations against the evaluated difference, as in c7."""
        oa = self.oa
        rng = oa.rng.rng_for(s, "bench-pairs")

        def alpha(f):
            return f

        def ev(p):
            return oa.envelope_umt(alpha, p, verify=False)

        unit_ok = oa.envelope_umt(alpha, oa.EnvelopePair.one(skeleton), seed=s,
                                  samples=8) == skeleton.one()
        mismatches, rows = 0, []
        for _ in range(self.PAIRS):
            p = oa.EnvelopePair(skeleton, skeleton.sample_member(rng), skeleton.sample_member(rng))
            q = oa.EnvelopePair(skeleton, skeleton.sample_member(rng), skeleton.sample_member(rng))
            r = oa.rng.sample_scalar(rng)
            evp, evq = ev(p), ev(q)
            product, join, meet = ev(p * q), ev(p.join(q)), ev(p.meet(q))
            agree = (evp == p.pos - p.neg and ev(p + q) == evp + evq
                     and ev(p - q) == evp - evq and ev(-p) == -evp
                     and product == evp * evq and join == evp.join(evq)
                     and meet == evp.meet(evq) and ev(p.scale(r)) == evp.scale(r)
                     and p.le(q) == evp.le(evq) and (p == q) == (evp == evq))
            mismatches += not agree
            rows.append([str(v) for f in (product, join, meet) for v in f.values.values()])
        return unit_ok, mismatches, rows

    def check(self, op: Op, inputs, result) -> Outcome:
        oracle, _ = inputs
        if op.kind == "pairs":
            unit_ok, mismatches, rows = result
            return Outcome(unit_ok and mismatches == 0, digest_of(rows),
                           {"pairs": self.PAIRS})
        doc = result.to_dict()
        if op.kind == "phi":
            ok = (result.checked == self.PHI_SAMPLES and result.related_hits > 0
                  and not result.mismatches)
            return Outcome(ok, digest_of(doc), {"phi_pairs": result.checked})
        if op.kind == "skel":
            gated, samples = [f"S{k}" for k in range(1, 10)], self.SKEL_SAMPLES
            counts = {"skel_rounds": samples}
        else:
            gated, samples = list(self.oa.proximity.PROX_AXIOMS), self.PROX_SAMPLES
            counts = {"prox_rounds": samples}
        by_name = {r["name"]: r for r in doc["results"]}
        bad = [n for n in gated
               if not (by_name[n]["passed"] and by_name[n]["counterexample"] is None
                       and by_name[n]["premise_hits"] > 0 and by_name[n]["checked"] == samples)]
        if op.kind == "prox":
            bad += self._p11_problems(oracle, by_name["P11"])
        return Outcome(not bad, digest_of(doc), counts, ",".join(bad))

    def _p11_problems(self, oracle, p11: dict) -> list:
        """P11 must fail, with a replayable counterexample, iff a strict pair exists."""
        if not has_strict_pair(self.pairs[id(oracle)]):
            return [] if p11["passed"] else ["P11-spurious"]
        doc = p11["counterexample"]
        if p11["passed"] or doc is None:
            return ["P11-missed"]
        fn = self.oa.RationalFn
        carrier = oracle.carrier
        a = fn(carrier, {x: Fraction(doc["a"][x]) for x in carrier})
        b = fn(carrier, {x: Fraction(doc["b"][x]) for x in carrier})
        if oracle.decide(a, b) and not oracle.decide(-b, -a):
            return []
        return ["P11-replay"]


POSET_COUNTS = (1, 2, 5, 16, 63)
LABEL_POOL = tuple("abcdefghijkmnpqrstuvwz")


class ExhaustiveDuality:
    """Structural instances over every small poset, built once in setup.

    One op is one instance: ``enumerate_posets(n)`` for n <= 5; eta,
    induced_order and is_nachbin on one poset of up to 4 points, or the r2
    collapse; ``enumerate_adjunction`` on one pair of posets of up to 3
    points; or ``roundtrip_pq`` on one poset of up to 3 points.  The seed
    picks the labels and the order of each round; the instances recur in
    every round.
    """

    name = "exhaustive-duality"
    TAIL_PERCENTILE = 97.5

    def setup(self, oa, seed: int) -> None:
        self.oa = oa
        self.seed = seed
        rng = random.Random(derive(seed, "labels"))
        self.enum_labels = {n: tuple(rng.sample(LABEL_POOL, n)) for n in range(1, 6)}
        self.spaces = []
        for base in oa.posets_up_to(4):
            labels = dict(zip(base.elements, rng.sample(LABEL_POOL, len(base.elements))))
            pairs = [(labels[x], labels[y]) for x, y in base.sorted_pairs()]
            self.spaces.append(oa.FinitePoset(tuple(labels[x] for x in base.elements), pairs))
        self.raw = [closed_pairs(s) for s in self.spaces]
        self.small = [i for i, s in enumerate(self.spaces) if len(s.elements) <= 3]
        self.skeletons = {i: oa.SbalSkeleton(self.spaces[i]) for i in self.small}
        self.instances = ([Op("enum", ("enum", n), (n,)) for n in range(1, 6)]
                          + [Op("eta", ("eta", i), (i,)) for i in range(len(self.spaces))]
                          + [Op("r2", ("r2",), ())]
                          + [Op("adj", ("adj", i, j), (i, j))
                             for i in self.small for j in self.small]
                          + [Op("pq", ("pq", i), (i,)) for i in self.small])

    def round(self, r: int) -> list:
        ops = list(self.instances)
        random.Random(derive(self.seed, "round", r)).shuffle(ops)
        return ops

    def prepare(self, op: Op):
        return op.args

    def run(self, op: Op, inputs):
        oa = self.oa
        if op.kind == "enum":
            (n,) = inputs
            return oa.enumerate_posets(n, self.enum_labels[n])
        if op.kind == "eta":
            space = self.spaces[inputs[0]]
            report = oa.eta(space)
            algebra = oa.SubalgebraPartition.discrete(space.elements)
            oracle = oa.ProximityOracle.from_order(space)
            return report, oa.induced_order(algebra, oracle), oa.is_nachbin(algebra, oracle)
        if op.kind == "r2":
            oracle = oa.ProximityOracle.r2()
            algebra = oa.SubalgebraPartition.discrete(oracle.carrier)
            return oa.induced_order(algebra, oracle), oa.is_nachbin(algebra, oracle)
        if op.kind == "adj":
            i, j = inputs
            return oa.enumerate_adjunction(self.spaces[i], self.skeletons[j],
                                           seed=derive(self.seed, "adj", i, j))
        return oa.roundtrip_pq(self.skeletons[inputs[0]])

    def check(self, op: Op, inputs, result) -> Outcome:
        return getattr(self, "_check_" + op.kind)(inputs, result)

    def _check_enum(self, inputs, posets) -> Outcome:
        (n,) = inputs
        docs = [p.to_dict() for p in posets]
        ok = len(posets) == POSET_COUNTS[n - 1]
        for doc in docs:
            pairs = {tuple(p) for p in doc["leq"]}
            ok = ok and all((y, x) not in pairs for x, y in pairs if x != y)
        return Outcome(ok, digest_of(docs), {"posets": len(posets)})

    def _check_eta(self, inputs, result) -> Outcome:
        report, spec, nachbin = result
        space, raw = self.spaces[inputs[0]], self.raw[inputs[0]]
        labels = {x: report.mapping[x].label for x in space.elements}
        order = closed_pairs(spec.order)
        points = {p.label for p in spec.points}
        ok = (report.is_bijective and report.is_order_isomorphism and nachbin is True
              and sorted(labels.values()) == sorted(points)
              and len(set(labels.values())) == len(labels)
              and all(((x, y) in raw) == ((labels[x], labels[y]) in order)
                      for x in space.elements for y in space.elements)
              and spec.to_dict() == report.spectrum.to_dict())
        return Outcome(ok, digest_of([report.to_dict(), spec.to_dict(), nachbin]))

    def _check_r2(self, inputs, result) -> Outcome:
        spec, nachbin = result
        mx, my = (p.label for p in spec.points)
        order = closed_pairs(spec.order)
        try:
            spec.as_poset()
            collapses = False
        except self.oa.AntisymmetryViolation:
            collapses = True
        ok = ((mx, my) in order and (my, mx) in order and collapses
              and not spec.is_partial_order and nachbin is False)
        return Outcome(ok, digest_of([spec.to_dict(), nachbin]))

    def _check_adj(self, inputs, report) -> Outcome:
        i, j = inputs
        space, target = self.spaces[i], self.raw[j]
        # The spectrum of a poset's full algebra is the poset itself, so
        # the monotone maps are counted by brute force on the raw relation.
        codomain = self.spaces[j].elements
        expected = sum(
            all((h[a], h[b]) in target for a, b in self.raw[i])
            for h in (dict(zip(space.elements, img))
                      for img in itertools.product(codomain, repeat=len(space.elements))))
        images = [tuple(sorted(t.items())) for _, t in report.theta]
        monotone = {tuple(sorted(h.items())) for h in report.monotone_maps}
        ok = (report.bijective and report.naturality_ok
              and len(report.morphism_maps) == len(report.monotone_maps) == report.count
              and report.count == expected and len(set(images)) == len(images)
              and set(images) == monotone)
        if i == j and len(space.elements) == 2 and has_strict_pair(target):
            ok = ok and report.count == 3
        candidates = len(report.spectrum.points) ** len(space.elements)
        return Outcome(ok, digest_of([report.to_dict(), report.count, sorted(images)]),
                       {"morphisms": len(report.morphism_maps), "candidates": candidates})

    def _check_pq(self, inputs, report) -> Outcome:
        n = len(self.spaces[inputs[0]].elements)
        ok = (report.checked == 17 ** n and report.identical and not report.qp_mismatches
              and not report.pq_mismatches and not report.recompose_failures)
        return Outcome(ok, digest_of(report.to_dict()), {"grid_fns": report.checked})


class FineCertificates:
    """Approximation certificates with wide denominators.

    One op is one certificate bundle on one 4-point poset: ``sw_approximate``
    at every rung of the eps ladder 1/8 .. 1/1024, then a
    ``dieudonne_sequence`` of 20 to 40 steps, whose terms carry 2^-n
    denominators.  Each round covers all sixteen 4-point poset shapes once,
    with labels from the seed and fresh seeded values, so every round has
    the same composition whatever the seed and inputs never repeat.
    Targets span [-2, 2] exactly, so a rung's grid size depends on eps
    alone.
    """

    name = "fine-certificates"
    TAIL_PERCENTILE = 80
    LADDER = tuple(Fraction(1, 2 ** k) for k in range(3, 11))

    def setup(self, oa, seed: int) -> None:
        self.oa = oa
        self.seed = seed
        rng = random.Random(derive(seed, "labels"))
        self.spaces = []
        for base in oa.enumerate_posets(4):
            labels = dict(zip(base.elements, rng.sample(LABEL_POOL, 4)))
            pairs = [(labels[x], labels[y]) for x, y in base.sorted_pairs()]
            self.spaces.append(oa.FinitePoset(tuple(labels[x] for x in base.elements), pairs))
        self.raw = [closed_pairs(s) for s in self.spaces]

    def round(self, r: int) -> list:
        ops = [Op("cert", ("cert", r, i), (i, derive(self.seed, r, i), 20 + 2 * ((i + r) % 11)))
               for i in range(len(self.spaces))]
        random.Random(derive(self.seed, "round", r)).shuffle(ops)
        return ops

    def prepare(self, op: Op):
        oa = self.oa
        i, s, steps = op.args
        space, pairs = self.spaces[i], self.raw[i]
        carrier = space.elements
        rng = random.Random(s)
        values = {x: Fraction(rng.randint(-16, 16), 8) for x in carrier}
        top = next(x for x in carrier if all(y == x for z, y in pairs if z == x))
        bottom = next(x for x in carrier if x != top and all(z == x for z, y in pairs if y == x))
        values[bottom], values[top] = Fraction(-2), Fraction(2)
        f = oa.monotone_envelope(oa.RationalFn(carrier, values), space)
        oracle = oa.ProximityOracle.from_order(space)
        g = oracle.witness(f) + oa.RationalFn(
            carrier, {x: Fraction(rng.randint(0, 16), 8) for x in carrier})
        return space, pairs, oa.SbalSkeleton(space), oracle, f, g, steps

    def run(self, op: Op, inputs):
        _, _, skeleton, oracle, f, g, steps = inputs
        certs = [self.oa.sw_approximate(f, skeleton, eps) for eps in self.LADDER]
        return certs, self.oa.dieudonne_sequence(f, g, oracle, steps)

    def check(self, op: Op, inputs, result) -> Outcome:
        space, pairs, _, _, f, g, steps = inputs
        certs, trace = result
        ok = all(self._check_sw(space, pairs, f, eps, cert)
                 for eps, cert in zip(self.LADDER, certs))
        ok = ok and self._check_dieudonne(pairs, f, g, steps, trace)
        counts = {"grid_entries": sum(len(c.grid) for c in certs),
                  "family": sum(c.family_size for c in certs), "steps": trace.steps}
        return Outcome(ok, digest_of([[c.to_dict() for c in certs], trace.to_dict()]), counts)

    @staticmethod
    def _check_sw(space, pairs, f, eps, cert) -> bool:
        """The c5 invariants, on raw values."""
        fv, av = dict(f.values), dict(cert.approximant.values)
        top = max(fv.values())
        ok = (raw_monotone(av, pairs) and all(fv[x] <= av[x] for x in fv)
              and sup_dist(fv, av) <= eps)
        for piece in cert.family:
            pv = piece.fn.values
            level = tuple(x for x in space.elements if fv[x] >= piece.r)
            ok = (ok and all(piece.r <= pv[x] <= top for x in fv) and pv[piece.y] == piece.r
                  and piece.upset == level and all(pv[x] == top for x in level)
                  and all(fv[x] <= pv[x] for x in fv) and raw_monotone(dict(pv), pairs))
        if cert.family:
            rebuilt = {x: min(cert.family[j].fn.values[x] for _, j in cert.cover) for x in fv}
            ok = ok and rebuilt == av and sorted(x for x, _ in cert.cover) == sorted(fv)
        return ok

    @staticmethod
    def _check_dieudonne(pairs, f, g, steps, trace) -> bool:
        """The c6 invariants, on raw values."""
        fv, gv = dict(f.values), dict(g.values)
        terms = [dict(t.values) for t in trace.terms]
        ok = trace.steps == steps == len(terms) - 1 and trace.bound_violations() == []
        for n in range(1, len(terms)):
            a_n, prev = terms[n], terms[n - 1]
            ok = (ok and raw_monotone(a_n, pairs)
                  and all(fv[x] - Fraction(1, 2 ** n) <= a_n[x] <= gv[x] for x in fv)
                  and sup_dist(a_n, prev) <= Fraction(1, 2 ** (n - 1)))
        w = trace.limit_witness
        ok = ok and w is not None and raw_monotone(dict(w.values), pairs) and all(
            fv[x] <= w.values[x] <= gv[x] for x in fv)
        return ok
