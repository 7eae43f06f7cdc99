"""The cli-corpus workload: one ``python -m ordalg.cli`` process per op.

The corpus is generated from the seed and covers all eleven commands,
including expected exit-1 verdicts and one exit-2 input error.  Before the
timed phase every entry is run once in-process through ``ordalg.cli.main``
with stdout captured; that output is the reference each subprocess must
reproduce byte for byte.  The verdict line of the reference must also
agree with a decision the benchmark takes from the library directly,
without the CLI.

Document paths are relative to the checkout root, which is the working
directory of every child, so the reports do not depend on where the
checkout lives.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import threading
from fractions import Fraction

from workloads import Op, Outcome, derive, digest_of, raw_monotone

CHILD_TIMEOUT_S = 120


def child_env(root: str) -> dict:
    """The environment of every CLI child: the checkout's src first on the path."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, cwd: str, env: dict) -> tuple:
    """Run a child to completion; returns (exit code, stdout bytes).

    The wait is a blocking ``waitpid``.  ``subprocess.run`` with a timeout
    would poll instead, sleeping up to 50 ms between polls, and that slack
    would show up in every latency.  A timer kills a child that overruns.
    """
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
    return proc.returncode, stdout


def _close(elements, edges) -> set:
    """Reflexive-transitive closure of a generating relation."""
    rel = {(x, x) for x in elements} | set(edges)
    for k in elements:
        for i in elements:
            for j in elements:
                if (i, k) in rel and (k, j) in rel:
                    rel.add((i, j))
    return rel


def _rat(k: int) -> str:
    return str(Fraction(k, 8))


class CorpusGen:
    """Seeded documents for one corpus."""

    def __init__(self, seed: int):
        self.rng = random.Random(derive(seed, "corpus"))

    def poset(self, labels):
        labels = list(labels)
        order = labels[:]
        self.rng.shuffle(order)
        edges = [(order[i], order[j]) for i in range(len(order))
                 for j in range(i + 1, len(order)) if self.rng.random() < 0.5]
        return {"elements": labels, "leq": [list(e) for e in edges]}

    def values(self, labels):
        return {x: self.rng.randint(-16, 16) for x in labels}


def _fn_doc(labels, ks: dict) -> dict:
    return {"carrier": list(labels), "values": {x: _rat(ks[x]) for x in labels}}


def _upper(ks: dict, rel: set) -> dict:
    return {y: max(ks[x] for x in ks if (x, y) in rel) for y in ks}


class CliCorpus:
    """Corpus entries run as CLI subprocesses, or in-process when traced."""

    name = "cli-corpus"
    TAIL_PERCENTILE = 90
    SAMPLES = "40"

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.in_process = False

    def setup(self, oa, seed: int) -> None:
        self.oa = oa
        self.seed = seed
        os.makedirs(self.workdir, exist_ok=True)
        gen = CorpusGen(seed)
        lab3, lab2 = ("p", "q", "r"), ("p", "q")
        p3 = gen.poset(lab3)
        rel3 = _close(lab3, [tuple(e) for e in p3["leq"]])
        p2 = {"elements": list(lab2), "leq": [["p", "q"]] if gen.rng.random() < 0.5 else []}
        loop = {"elements": list(lab3), "leq": [["p", "q"], ["q", "r"], ["r", "p"]]}
        bad = {"elements": list(lab2), "leq": [["p", "z"]]}
        f_ks = gen.values(lab3)
        g_ks = {x: v + gen.rng.randint(0, 16) for x, v in _upper(f_ks, rel3).items()}
        m_ks = _upper(gen.values(lab3), rel3)
        gen_ks = gen.values(lab3)
        gen_rel = {(x, y) for x in lab3 for y in lab3 if gen_ks[x] <= gen_ks[y]}
        a2 = {"x": gen.rng.randint(1, 16), "y": gen.rng.randint(-16, 16)}
        b2 = {"x": gen.rng.randint(-16, a2["x"] - 1), "y": gen.rng.randint(-16, 16)}
        docs = {
            "p3": p3, "p2": p2, "loop": loop, "bad": bad,
            "sk3": {"quasiorder": p3},
            "gens3": {"generators": [_fn_doc(lab3, gen_ks)]},
            "alg3": {"carrier": list(lab3), "blocks": [["p"], ["q"], ["r"]]},
            "f3": _fn_doc(lab3, f_ks), "g3": _fn_doc(lab3, g_ks), "m3": _fn_doc(lab3, m_ks),
            "a2": _fn_doc(("x", "y"), a2), "b2": _fn_doc(("x", "y"), b2),
        }
        path = {}
        for name, doc in docs.items():
            full = os.path.join(self.workdir, name + ".json")
            with open(full, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            path[name] = os.path.relpath(full, self.root)
        self.docs = docs
        self.outputs = {}
        s = str(derive(seed, "cli-seed") % 10_000)
        eps = f"1/{2 ** gen.rng.randint(4, 8)}"
        steps = str(gen.rng.randint(8, 16))
        # (argv, expected exit code, library decision or None for an input error)
        self.entries = [
            (["validate", "--poset", path["p3"]], 0, self._antisymmetric("p3", False)),
            (["validate", "--poset", path["loop"]], 1, self._antisymmetric("loop", False)),
            (["validate", "--poset", path["loop"], "--expect-quasi"], 0,
             self._antisymmetric("loop", True)),
            (["envelope", "--poset", path["p3"], "--function", path["f3"],
              "--direction", "upper"], 0, self._envelope(rel3, "f3", "upper")),
            (["envelope", "--skeleton", path["gens3"], "--function", path["f3"],
              "--direction", "lower"], 0, self._envelope(gen_rel, "f3", "lower")),
            (["prox", "--skeleton", path["sk3"], "--left", path["f3"], "--right", path["g3"]],
             0, self._prox("sk3", "f3", "g3")),
            (["prox", "--oracle", "r2", "--left", path["a2"], "--right", path["b2"]],
             1, self._prox(None, "a2", "b2")),
            (["axioms", "--oracle", "r2", "--samples", self.SAMPLES, "--seed", s],
             0, self._axioms(None, int(s), False)),
            (["axioms", "--skeleton", path["sk3"], "--devries", "--samples", self.SAMPLES,
              "--seed", s], 0, self._axioms("sk3", int(s), True)),
            (["spectrum", "--skeleton", path["sk3"], "--algebra", path["alg3"]], 0,
             self._spectrum("alg3")),
            (["induced-order", "--oracle", "r2"], 1, self._induced(None, False)),
            (["induced-order", "--oracle", "r2", "--expect-quasi"], 0, self._induced(None, True)),
            (["induced-order", "--skeleton", path["sk3"], "--algebra", path["alg3"]], 0,
             self._induced("sk3", False)),
            (["roundtrip", "--poset", path["p3"], "--samples", self.SAMPLES, "--seed", s], 0,
             self._roundtrip("p3", int(s))),
            (["sw-approx", "--poset", path["p3"], "--function", path["m3"], "--eps", eps], 0,
             self._sw("p3", "m3", eps)),
            (["dieudonne", "--skeleton", path["sk3"], "--left", path["f3"], "--right", path["g3"],
              "--steps", steps], 0, self._dieudonne("sk3", "f3", "g3", int(steps))),
            (["adjunction", "--poset", path["p3"]], 0, self._adjunction("p3")),
            (["pq-roundtrip", "--poset", path["p2"]], 0, self._pq("p2")),
            (["validate", "--poset", path["bad"]], 2, None),
        ]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- library decisions, taken without the CLI -----------------------

    def _order(self, name, antisymmetric=True):
        doc = self.docs[name]
        doc = doc.get("quasiorder", doc)
        cls = self.oa.FinitePoset if antisymmetric else self.oa.QuasiOrder
        return cls(doc["elements"], [tuple(p) for p in doc["leq"]])

    def _fn(self, name):
        return self.oa.RationalFn.from_dict(self.docs[name])

    def _oracle(self, name):
        if name is None:
            return self.oa.ProximityOracle.r2()
        return self.oa.ProximityOracle.from_order(self._order(name, antisymmetric=False))

    def _antisymmetric(self, name, expect_quasi):
        return lambda: expect_quasi or self._order(name, antisymmetric=False).is_antisymmetric

    def _envelope(self, rel, fn, direction):
        """The library's envelope must be the extremum over each down- or upset."""
        def decide():
            f = self._fn(fn)
            order = self.oa.QuasiOrder(f.carrier, sorted(rel))
            env = dict(self.oa.monotone_envelope(f, order, direction).values)
            if direction == "upper":
                expected = {y: max(f.values[x] for x in env if (x, y) in rel) for y in env}
            else:
                expected = {y: min(f.values[x] for x in env if (y, x) in rel) for y in env}
            return env == expected and raw_monotone(env, rel)
        return decide

    def _spectrum(self, name):
        """One maximal ideal per block of the algebra, in block order."""
        def decide():
            doc = self.docs[name]
            algebra = self.oa.SubalgebraPartition(tuple(doc["carrier"]),
                                                  tuple(tuple(b) for b in doc["blocks"]))
            return [list(p.block) for p in self.oa.spectrum(algebra)] == doc["blocks"]
        return decide

    def _prox(self, name, left, right):
        return lambda: self._oracle(name).decide(self._fn(left), self._fn(right))

    def _axioms(self, name, seed, devries):
        def decide():
            oracle = self._oracle(name)
            prox = self.oa.check_axioms(oracle, samples=int(self.SAMPLES), seed=seed,
                                        include_devries=devries)
            skel = self.oa.check_skeleton_axioms(oracle.skeleton, samples=int(self.SAMPLES),
                                                 seed=seed)
            return (prox.all_passed(self.oa.proximity.PROX_AXIOMS) and skel.all_passed())
        return decide

    def _induced(self, name, expect_quasi):
        def decide():
            oracle = self._oracle(name)
            algebra = self.oa.SubalgebraPartition.discrete(oracle.carrier)
            return expect_quasi or self.oa.induced_order(algebra, oracle).is_partial_order
        return decide

    def _roundtrip(self, name, seed):
        def decide():
            space = self._order(name)
            return (self.oa.eta(space).is_order_isomorphism and self.oa.phi_respects_proximity(
                space, samples=int(self.SAMPLES), seed=seed).ok)
        return decide

    def _sw(self, name, fn, eps):
        def decide():
            f = self._fn(fn)
            cert = self.oa.sw_approximate(f, self.oa.SbalSkeleton(self._order(name)), eps)
            return (f - cert.approximant).sup_norm() <= Fraction(eps)
        return decide

    def _dieudonne(self, name, left, right, steps):
        def decide():
            trace = self.oa.dieudonne_sequence(self._fn(left), self._fn(right),
                                               self._oracle(name), steps)
            return not trace.bound_violations()
        return decide

    def _adjunction(self, name):
        def decide():
            space = self._order(name)
            report = self.oa.enumerate_adjunction(space, self.oa.SbalSkeleton(space))
            return report.bijective and report.naturality_ok
        return decide

    def _pq(self, name):
        return lambda: self.oa.roundtrip_pq(self.oa.SbalSkeleton(self._order(name))).identical

    # -- reference outputs ----------------------------------------------

    def main_in_process(self, argv) -> tuple:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.oa.cli.main(list(argv))
        return code, out.getvalue().encode("utf-8")

    def capture_references(self) -> list:
        """Run every entry in-process once; returns the problems found."""
        self.reference = []
        problems = []
        for k, (argv, expected, decide) in enumerate(self.entries):
            code, stdout = self.main_in_process(argv)
            self.reference.append((code, stdout))
            lines = stdout.decode("utf-8").splitlines()
            verdict = lines[lines.index("{") - 1] if "{" in lines else ""
            if code != expected:
                problems.append(f"entry {k} ({argv[0]}): in-process exit {code}, "
                                f"expected {expected}")
            if decide is None:
                agrees = verdict.startswith("error:")
            else:
                agrees = ("PASS" in verdict) == bool(decide()) and (
                    ("FAIL" in verdict) != ("PASS" in verdict))
            if not agrees:
                problems.append(f"entry {k} ({argv[0]}): verdict {verdict!r} disagrees "
                                "with the library decision")
        return problems

    def dump(self, directory: str) -> None:
        """Write the stdout of each entry's first run, for ``cmp`` across commits."""
        os.makedirs(directory, exist_ok=True)
        for k, stdout in sorted(self.outputs.items()):
            with open(os.path.join(directory, f"{k:02d}-{self.entries[k][0][0]}.out"), "wb") as fh:
                fh.write(stdout)

    # -- the workload interface -----------------------------------------

    def round(self, r: int) -> list:
        return [Op(argv[0], ("cli", k), (k,))
                for k, (argv, _, _) in enumerate(self.entries)]

    def prepare(self, op: Op):
        return op.args

    def run(self, op: Op, inputs):
        argv = self.entries[inputs[0]][0]
        if self.in_process:
            return self.main_in_process(argv)
        return run_child([sys.executable, "-m", "ordalg.cli", *argv], self.root, self.env)

    def check(self, op: Op, inputs, result) -> Outcome:
        k = inputs[0]
        code, stdout = result
        self.outputs.setdefault(k, stdout)
        expected_code, expected_out = self.reference[k]
        ok = code == expected_code == self.entries[k][1] and stdout == expected_out
        return Outcome(ok, digest_of([code, stdout.decode("utf-8", "replace")]),
                       {"stdout_bytes": len(stdout)})
