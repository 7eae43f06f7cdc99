"""End-to-end CLI checks through subprocesses.

Exit status contract: 0 all checks passed, 1 a mathematical check failed
(with a counterexample in the JSON), 2 unusable input.  Output must be
byte-identical across runs with the same inputs and seed.
"""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordalg.approx import DIEUDONNE_STEP_CAP
from ordalg import QuasiOrder, RationalFn, SubalgebraPartition
from ordalg.cli import (AXIOMS_WORK_CAP, CARRIER_CAP, GENERATOR_WORK_CAP, SAMPLES_CAP,
                        _samples, build_parser, main)

CHAIN2 = {"elements": ["p", "q"], "leq": [["p", "q"]]}
LOOP = {"elements": ["p", "q"], "leq": [["p", "q"], ["q", "p"]]}
F01 = {"carrier": ["p", "q"], "values": {"p": "0", "q": "1"}}
F10 = {"carrier": ["p", "q"], "values": {"p": "1", "q": "0"}}
SKEL = {"quasiorder": CHAIN2}
GENS = {"generators": [F01]}
R2_ZERO = {"carrier": ["x", "y"], "values": {"x": "0", "y": "0"}}
R2_ONE = {"carrier": ["x", "y"], "values": {"x": "1", "y": "1"}}
R2_UP = {"carrier": ["x", "y"], "values": {"x": "0", "y": "1"}}
R2_DOWN = {"carrier": ["x", "y"], "values": {"x": "1", "y": "0"}}


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# The child process imports ordalg from this checkout, installed or not.
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run(*args):
    return subprocess.run([sys.executable, "-m", "ordalg.cli", *args],
                          capture_output=True, text=True, env=ENV)


def payload(stdout: str) -> dict:
    lines = stdout.splitlines()
    return json.loads("\n".join(lines[lines.index("{"):]))


@pytest.fixture
def docs(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)
    return write


def test_validate_poset(docs):
    res = run("validate", "--poset", docs("chain2.json", CHAIN2))
    assert res.returncode == 0
    assert "validate: PASS" in res.stdout
    assert payload(res.stdout)["antisymmetric"] is True


def test_validate_quasi_order(docs):
    path = docs("loop.json", LOOP)
    res = run("validate", "--poset", path)
    assert res.returncode == 1
    assert "FAIL" in res.stdout
    assert payload(res.stdout)["counterexample"]["pair"] == ["p", "q"]
    res = run("validate", "--poset", path, "--expect-quasi")
    assert res.returncode == 0
    assert "order-equivalent" in res.stdout


def test_axioms_r2_all_listed():
    res = run("axioms", "--oracle", "r2", "--samples", "500", "--seed", "42")
    assert res.returncode == 0
    for name in ("P1", "P2", "P3", "P4", "P5", "RP5", "P6", "P7", "P8", "P9"):
        assert f"{name}: PASS" in res.stdout
    for k in range(1, 10):
        assert f"S{k}: PASS" in res.stdout
    assert res.stdout.rstrip().splitlines()[-1] == "}"
    assert "axioms: PASS" in res.stdout


def test_devries_counterexamples_do_not_gate(docs):
    res = run("axioms", "--skeleton", docs("skel.json", SKEL), "--devries")
    assert res.returncode == 0
    assert "P11: counterexample found" in res.stdout
    assert "P12: counterexample found" in res.stdout
    assert "axioms: PASS" in res.stdout


def test_devries_on_r2():
    # max(a) <= min(b) is negation-symmetric, so P11 holds; P12 fails
    # (nothing positive sits totally below the peak (1, 0)).
    res = run("axioms", "--oracle", "r2", "--devries", "--samples", "300")
    assert res.returncode == 0
    assert "P11: holds" in res.stdout
    assert "P12: counterexample found" in res.stdout


def test_spectrum_rejects_poset_flag(docs):
    res = run("spectrum", "--poset", docs("chain2.json", CHAIN2))
    assert res.returncode == 2


def test_spectrum_r2():
    res = run("spectrum", "--oracle", "r2")
    assert res.returncode == 0
    assert len(payload(res.stdout)["points"]) == 2


def test_induced_order_r2_collapses():
    res = run("induced-order", "--oracle", "r2")
    assert res.returncode == 1
    assert "order fails antisymmetry" in res.stdout
    res = run("induced-order", "--oracle", "r2", "--expect-quasi")
    assert res.returncode == 0
    body = payload(res.stdout)
    assert body["counterexample"]["note"] == "order fails antisymmetry"
    assert body["nachbin"] is False


def test_byte_identical_reruns(docs):
    args = ("axioms", "--oracle", "r2", "--samples", "200", "--seed", "7",
            "--devries")
    assert run(*args).stdout == run(*args).stdout
    path = docs("chain2.json", CHAIN2)
    args = ("roundtrip", "--poset", path, "--samples", "150", "--seed", "3")
    assert run(*args).stdout == run(*args).stdout


def test_prox_related_reports_witness(docs):
    res = run("prox", "--oracle", "r2",
              "--left", docs("a.json", R2_ZERO), "--right", docs("b.json", R2_ONE))
    assert res.returncode == 0
    w = payload(res.stdout)["witness"]["values"]
    assert w == {"x": "0", "y": "0"}


def test_prox_unrelated_reports_point(docs):
    res = run("prox", "--oracle", "r2",
              "--left", docs("a.json", R2_UP), "--right", docs("b.json", R2_DOWN))
    assert res.returncode == 1
    ce = payload(res.stdout)["counterexample"]
    assert ce["point"] in ("x", "y")
    assert ce["envelope"] == "1" and ce["bound"] in ("0", "1")


def test_missing_file_is_input_error():
    res = run("validate", "--poset", "/nonexistent/order.json")
    assert res.returncode == 2
    assert "error:" in res.stdout


def test_malformed_json_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json", encoding="utf-8")
    assert run("validate", "--poset", str(path)).returncode == 2


@pytest.mark.parametrize("content, error", [
    (b'{"elements": ["p\xff"], "leq": []}', "is not valid JSON: 'utf-8' codec can't decode"),
    (b"[" * 200_000 + b"]" * 200_000, "nests JSON too deeply to read"),
    (b'{"elements": ["p"], "leq": [], "n": ' + b"9" * 5000 + b"}",
     "is not valid JSON: Exceeds the limit (4300 digits)"),
], ids=["non-utf8", "deep", "long-integer"])
def test_unreadable_documents_are_input_errors(tmp_path, capsys, content, error):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main(["validate", "--poset", str(path)]) == 2
    assert error in capsys.readouterr().out.splitlines()[0]


@pytest.mark.parametrize("argv, doc", [
    (["validate", "--poset"], {"elements": [["p"], "q"], "leq": []}),
    (["spectrum", "--oracle", "r2", "--algebra"],
     {"carrier": [["x"], "y"], "blocks": [[["x"]], ["y"]]}),
])
def test_unhashable_labels_are_input_errors(docs, argv, doc):
    res = run(*argv, docs("doc.json", doc))
    assert res.returncode == 2
    assert "must be a list of strings" in payload(res.stdout)["error"]
    assert "Traceback" not in res.stderr


SKELETON_COMMANDS = {
    "envelope": ["--function", "f01", "--direction", "upper"],
    "prox": ["--left", "f01", "--right", "f10"],
    "axioms": [],
    "spectrum": [],
    "induced-order": [],
    "sw-approx": ["--function", "f01", "--eps", "1/4"],
    "dieudonne": ["--left", "f01", "--right", "f01"],
    "adjunction": ["--poset", "chain2"],
    "pq-roundtrip": [],
}


@pytest.mark.parametrize("command", sorted(SKELETON_COMMANDS))
def test_a_skeleton_quasiorder_that_is_not_an_object_is_an_input_error(docs, capsys, command):
    files = {"f01": docs("f01.json", F01), "f10": docs("f10.json", F10),
             "chain2": docs("chain2.json", CHAIN2)}
    extra = [files.get(arg, arg) for arg in SKELETON_COMMANDS[command]]
    for bad in (["p", "q"], "p<q", None, 3):
        skeleton = docs("skel.json", {"quasiorder": bad})
        assert main([command, "--skeleton", skeleton, *extra]) == 2
        out = capsys.readouterr().out
        assert out.startswith('error: an order document needs "elements" and "leq" lists')


def test_roundtrip_rejects_quasi_order(docs):
    res = run("roundtrip", "--poset", docs("loop.json", LOOP))
    assert res.returncode == 2


def test_roundtrip_chain(docs):
    res = run("roundtrip", "--poset", docs("chain2.json", CHAIN2),
              "--samples", "200")
    assert res.returncode == 0
    assert "eta order isomorphism: PASS" in res.stdout
    assert "roundtrip: PASS" in res.stdout


def test_roundtrip_builds_the_spectrum_once(docs, monkeypatch, capsys):
    # ``ordalg.spectrum`` is the exported function, so reach the module by name.
    module = importlib.import_module("ordalg.spectrum")
    original, calls = module.induced_order, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, "induced_order", counted)
    assert main(["roundtrip", "--poset", docs("chain2.json", CHAIN2), "--samples", "5"]) == 0
    assert "roundtrip: PASS" in capsys.readouterr().out
    assert len(calls) == 1


def test_envelope_from_quasiorder_skeleton(docs):
    res = run("envelope", "--skeleton", docs("skel.json", SKEL),
              "--function", docs("f.json", F10), "--direction", "upper")
    assert res.returncode == 0
    body = payload(res.stdout)
    assert body["envelope"]["values"] == {"p": "1", "q": "1"}
    assert body["already_member"] is False


def test_envelope_from_generators(docs):
    # One generator p -> 0, q -> 1 induces exactly the two-point chain.
    res = run("envelope", "--skeleton", docs("gens.json", GENS),
              "--function", docs("f.json", F10), "--direction", "upper")
    assert res.returncode == 0
    assert payload(res.stdout)["envelope"]["values"] == {"p": "1", "q": "1"}


def test_sw_approx_pinned(docs):
    res = run("sw-approx", "--poset", docs("chain2.json", CHAIN2),
              "--function", docs("f.json", F01), "--eps", "1/4")
    assert res.returncode == 0
    body = payload(res.stdout)
    assert body["certificate"]["approximant"]["values"] == {"p": "1/8", "q": "1"}
    assert body["error"] == "1/8"


def test_sw_approx_reports_a_grid_larger_than_maxsize(docs, capsys):
    """len() cannot return more than sys.maxsize; the report reads the grid's exact size."""
    huge = {"carrier": ["p", "q"], "values": {"p": "0", "q": "99999999999999999999/7"}}
    argv = ["sw-approx", "--poset", docs("chain2.json", CHAIN2),
            "--function", docs("huge.json", huge), "--eps", "1/4"]
    assert main(argv) == 0
    size = payload(capsys.readouterr().out)["certificate"]["grid_size"]
    # Ladder k/8 for 1 <= k <= 8q, plus q itself, which is off the ladder.
    assert size == 8 * 99999999999999999999 // 7 + 1 > sys.maxsize


def test_sw_approx_rejects_zero_eps(docs):
    res = run("sw-approx", "--poset", docs("chain2.json", CHAIN2),
              "--function", docs("f.json", F01), "--eps", "0")
    assert res.returncode == 2
    res = run("sw-approx", "--poset", docs("chain2.json", CHAIN2),
              "--function", docs("f.json", F01), "--eps", "junk")
    assert res.returncode == 2


def test_sw_approx_work_does_not_grow_with_range_over_eps(docs):
    f = {"carrier": ["p", "q"], "values": {"p": "-2", "q": "2"}}
    res = run("sw-approx", "--poset", docs("chain2.json", CHAIN2),
              "--function", docs("f.json", f), "--eps", "1/100000")
    assert res.returncode == 0
    assert payload(res.stdout)["certificate"]["grid_size"] == 800000


@pytest.mark.parametrize("count", ["0", "-5"])
def test_nonpositive_samples_is_input_error(docs, count):
    for args in (("axioms", "--oracle", "r2"),
                 ("roundtrip", "--poset", docs("chain2.json", CHAIN2))):
        res = run(*args, "--samples", count)
        assert res.returncode == 2
        assert res.stdout.startswith("error: --samples must be a positive count")
        assert "PASS" not in res.stdout


def test_samples_above_cap_is_input_error(docs):
    for args in (("axioms", "--oracle", "r2"),
                 ("roundtrip", "--poset", docs("chain2.json", CHAIN2))):
        res = run(*args, "--samples", str(SAMPLES_CAP + 1))
        assert res.returncode == 2
        assert payload(res.stdout)["details"] == {"samples": SAMPLES_CAP + 1,
                                                  "cap": SAMPLES_CAP}
        assert "PASS" not in res.stdout


def test_documents_above_the_carrier_cap_are_refused_unbuilt(docs, monkeypatch, capsys):
    n = CARRIER_CAP + 1
    labels = [f"e{i}" for i in range(n)]
    big_order = {"elements": labels, "leq": [[x, y] for x, y in zip(labels, labels[1:])]}
    big_fn = {"carrier": labels, "values": {x: "0" for x in labels}}
    built = []
    for cls in (QuasiOrder, RationalFn, SubalgebraPartition):
        def record(self, carrier, *args, real=cls.__init__, **kwargs):
            built.append(len(carrier))
            real(self, carrier, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", record)
    small = docs("f.json", F01)
    cases = [
        ["validate", "--poset", docs("order.json", big_order)],
        ["envelope", "--skeleton", docs("skel.json", {"quasiorder": big_order}),
         "--function", small, "--direction", "upper"],
        ["envelope", "--skeleton", docs("gens.json", {"generators": [F01, big_fn]}),
         "--function", small, "--direction", "upper"],
        ["sw-approx", "--poset", docs("chain2.json", CHAIN2),
         "--function", docs("big.json", big_fn), "--eps", "1/4"],
        ["spectrum", "--oracle", "r2",
         "--algebra", docs("alg.json", {"carrier": labels, "blocks": [labels]})],
    ]
    for argv in cases:
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"error: documents are capped at {CARRIER_CAP} labels")
        assert payload(out)["details"] == {"labels": n, "cap": CARRIER_CAP}
    assert built and max(built) <= 2


def test_documents_at_the_carrier_cap_are_accepted(docs, capsys):
    labels = [f"e{i}" for i in range(CARRIER_CAP)]
    doc = {"elements": labels, "leq": [[x, y] for x, y in zip(labels, labels[1:])]}
    assert main(["validate", "--poset", docs("order.json", doc)]) == 0
    assert f"validate: PASS ({CARRIER_CAP} elements" in capsys.readouterr().out


def test_samples_at_cap_is_accepted():
    for argv in (["axioms", "--oracle", "r2"], ["roundtrip", "--poset", "p.json"]):
        args = build_parser().parse_args(argv + ["--samples", str(SAMPLES_CAP)])
        assert _samples(args) == SAMPLES_CAP


def test_axioms_above_the_work_cap_is_refused_before_any_suite(docs, monkeypatch, capsys):
    """samples x labels is capped: above it exit 2 unrun, at it the suites start."""
    cli = importlib.import_module("ordalg.cli")
    started = []

    def suite(oracle, *, samples, **kwargs):
        started.append(samples)
        raise RuntimeError("suite started")

    monkeypatch.setattr(cli, "check_axioms", suite)
    skel3 = docs("sk3.json", {"quasiorder": {"elements": ["p", "q", "r"], "leq": [["p", "q"]]}})
    samples = AXIOMS_WORK_CAP // 3 + 1
    assert main(["axioms", "--skeleton", skel3, "--samples", str(samples)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"error: axioms is capped at {AXIOMS_WORK_CAP} samples x labels")
    assert payload(out)["details"] == {"samples": samples, "labels": 3,
                                       "product": 3 * samples, "cap": AXIOMS_WORK_CAP}
    assert started == []
    with pytest.raises(RuntimeError, match="suite started"):
        main(["axioms", "--oracle", "r2", "--samples", str(AXIOMS_WORK_CAP // 2)])
    assert started == [AXIOMS_WORK_CAP // 2]


def test_generator_skeletons_above_the_work_cap_are_refused_before_any_pair(docs, monkeypatch,
                                                                           capsys):
    """generators x labels^2 is capped: above it exit 2 before any pair is compared."""
    cli = importlib.import_module("ordalg.cli")
    ordered = []

    def record(elements, pairs):
        ordered.append(len(elements))
        return QuasiOrder(elements, pairs)

    monkeypatch.setattr(cli, "QuasiOrder", record)
    labels = [f"e{i}" for i in range(CARRIER_CAP)]
    flat = {"carrier": labels, "values": {x: "0" for x in labels}}
    count = GENERATOR_WORK_CAP // CARRIER_CAP ** 2 + 1
    big = docs("big.json", {"generators": [flat] * count})
    assert main(["spectrum", "--skeleton", big]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"error: generator skeletons are capped at {GENERATOR_WORK_CAP} "
                          "generators x labels^2")
    assert payload(out)["details"] == {"generators": count, "labels": CARRIER_CAP,
                                       "product": count * CARRIER_CAP ** 2,
                                       "cap": GENERATOR_WORK_CAP}
    assert ordered == []
    # At the cap the order is built; one generator more is refused.
    monkeypatch.setattr(cli, "GENERATOR_WORK_CAP", 2 * 2 ** 2)
    assert main(["spectrum", "--skeleton", docs("two.json", {"generators": [F01, F10]})]) == 0
    assert ordered == [2]
    capsys.readouterr()
    three = docs("three.json", {"generators": [F01, F10, F01]})
    assert main(["spectrum", "--skeleton", three]) == 2
    assert payload(capsys.readouterr().out)["details"] == {
        "generators": 3, "labels": 2, "product": 12, "cap": 8}
    assert ordered == [2]


def test_flags_belong_to_the_commands_that_read_them(docs):
    chain2 = docs("chain2.json", CHAIN2)
    for args in (("spectrum", "--oracle", "r2", "--samples", "7"),
                 ("spectrum", "--oracle", "r2", "--seed", "3"),
                 ("validate", "--poset", chain2, "--samples", "1"),
                 ("adjunction", "--poset", chain2, "--samples", "5"),
                 ("prox", "--oracle", "r2", "--left", docs("f.json", R2_ZERO),
                  "--right", docs("g.json", R2_ONE), "--expect-quasi")):
        res = run(*args)
        assert res.returncode == 2
        assert "unrecognized arguments" in res.stderr
        assert res.stdout == ""
    assert run("adjunction", "--poset", chain2, "--seed", "5").returncode == 0
    assert run("roundtrip", "--poset", chain2, "--samples", "20", "--seed", "5").returncode == 0


def test_vacuous_gated_axioms_fail():
    res = run("axioms", "--oracle", "r2", "--samples", "1")
    assert res.returncode == 1
    lines = res.stdout.splitlines()
    for name in ("P2", "P6", "P7"):
        assert f"{name}: VACUOUS (0/1 premise hits)" in lines
    assert "axioms: FAIL (P2, P6, P7)" in lines
    body = payload(res.stdout)
    assert body["failed"] == ["P2", "P6", "P7"]
    assert set(body) == {"proximity", "skeleton", "failed"}


def test_vacuous_devries_probes_do_not_gate():
    res = run("axioms", "--oracle", "r2", "--samples", "1", "--seed", "3", "--devries")
    assert res.returncode == 1
    assert payload(res.stdout)["failed"] == ["P3", "P4"]
    assert "P11: holds (0/1 premise hits)" in res.stdout.splitlines()


def test_dieudonne_steps_above_cap_is_input_error(docs):
    res = run("dieudonne", "--oracle", "r2", "--steps", str(DIEUDONNE_STEP_CAP + 1),
              "--left", docs("f.json", R2_ZERO), "--right", docs("g.json", R2_ONE))
    assert res.returncode == 2
    assert payload(res.stdout)["details"] == {"steps": DIEUDONNE_STEP_CAP + 1,
                                              "cap": DIEUDONNE_STEP_CAP}


def test_dieudonne_bounds_hold(docs):
    res = run("dieudonne", "--oracle", "r2", "--steps", "4",
              "--left", docs("f.json", R2_ZERO), "--right", docs("g.json", R2_ONE))
    assert res.returncode == 0
    assert "bounds hold" in res.stdout


def test_adjunction_chain_count(docs):
    res = run("adjunction", "--poset", docs("chain2.json", CHAIN2))
    assert res.returncode == 0
    assert payload(res.stdout)["count"] == 3
    assert "theta bijective: PASS" in res.stdout
    assert "naturality: PASS" in res.stdout


def test_pq_roundtrip_grid(docs):
    res = run("pq-roundtrip", "--skeleton", docs("skel.json", SKEL))
    assert res.returncode == 0
    assert "289 grid functions" in res.stdout


def test_main_is_directly_callable(docs):
    assert main(["spectrum", "--oracle", "r2"]) == 0


def test_verdict_lines_in_process(docs, capsys):
    """Exit code and exact verdict line of every reachable PASS and FAIL path."""
    chain2, loop, skel = docs("chain2.json", CHAIN2), docs("loop.json", LOOP), docs("s.json", SKEL)
    f01, f10 = docs("f01.json", F01), docs("f10.json", F10)
    zero, one = docs("zero.json", R2_ZERO), docs("one.json", R2_ONE)
    cases = [
        (["validate", "--poset", chain2], 0, "validate: PASS (2 elements, partial order)"),
        (["validate", "--poset", chain2, "--expect-quasi"], 0,
         "validate: PASS (2 elements, partial order)"),
        (["validate", "--poset", loop], 1, "validate: FAIL (antisymmetry fails on p, q)"),
        (["validate", "--poset", loop, "--expect-quasi"], 0,
         "validate: PASS (quasi-order; p and q are order-equivalent)"),
        (["envelope", "--poset", chain2, "--function", f10, "--direction", "upper"], 0,
         "envelope: PASS (upper envelope computed)"),
        (["prox", "--skeleton", skel, "--left", f01, "--right", f01], 0,
         "prox: PASS (related; interpolating member reported)"),
        (["prox", "--skeleton", skel, "--left", f10, "--right", f10], 1,
         "prox: FAIL (not related; envelope exceeds bound at q)"),
        (["axioms", "--oracle", "r2", "--samples", "3"], 0, "axioms: PASS"),
        (["axioms", "--oracle", "r2", "--samples", "1"], 1, "axioms: FAIL (P2, P6, P7)"),
        (["spectrum", "--oracle", "r2"], 0, "spectrum: PASS (2 maximal ideals)"),
        (["induced-order", "--skeleton", skel], 0,
         "induced-order: PASS (2 points, partial order)"),
        (["induced-order", "--skeleton", skel, "--expect-quasi"], 0,
         "induced-order: PASS (2 points, partial order)"),
        (["induced-order", "--oracle", "r2"], 1,
         "induced-order: FAIL (order fails antisymmetry on M(x), M(y))"),
        (["induced-order", "--oracle", "r2", "--expect-quasi"], 0,
         "induced-order: PASS (order fails antisymmetry as expected: "
         "M(x) and M(y) are order-equivalent)"),
        (["roundtrip", "--poset", chain2, "--samples", "5"], 0, "roundtrip: PASS"),
        (["sw-approx", "--poset", chain2, "--function", f01, "--eps", "1/4"], 0,
         "sw-approx: PASS (sup-norm error 1/8 <= 1/4, family size 2)"),
        (["sw-approx", "--poset", chain2, "--function", f10, "--eps", "1/4"], 1,
         "FAIL: f('p') > f('q') although 'p' <= 'q'"),
        (["dieudonne", "--oracle", "r2", "--left", zero, "--right", one, "--steps", "2"], 0,
         "dieudonne: PASS (2 steps, bounds hold)"),
        (["dieudonne", "--oracle", "r2", "--left", one, "--right", zero, "--steps", "2"], 1,
         "FAIL: f is not totally below g"),
        (["adjunction", "--poset", chain2], 0, "adjunction: PASS"),
        (["pq-roundtrip", "--poset", chain2], 0,
         "pq-roundtrip: PASS (289 grid functions, memberships identical)"),
    ]
    for argv, code, verdict in cases:
        assert main(argv) == code, argv
        lines = capsys.readouterr().out.splitlines()
        summary = lines[:lines.index("{")]
        assert summary[-1] == verdict, argv
        if argv[:1] == ["roundtrip"]:
            assert summary[:-1] == ["eta order isomorphism: PASS",
                                    "phi preserves/reflects relation on 5 pairs: PASS"]
        if argv[:1] == ["adjunction"]:
            assert summary[-3:-1] == ["theta bijective: PASS", "naturality: PASS"]
        if argv == ["axioms", "--oracle", "r2", "--samples", "1"]:
            assert [x for x in summary if "VACUOUS" in x] == [
                f"{name}: VACUOUS (0/1 premise hits)" for name in ("P2", "P6", "P7")]


def test_carrier_mismatch_is_input_error(docs):
    res = run("prox", "--oracle", "r2",
              "--left", docs("f.json", F01), "--right", docs("g.json", R2_ONE))
    assert res.returncode == 2


F01_PERMUTED = {"carrier": ["q", "p"], "values": {"q": "1", "p": "0"}}
F12 = {"carrier": ["p", "q"], "values": {"p": "1", "q": "2"}}
FM10 = {"carrier": ["p", "q"], "values": {"p": "-1", "q": "0"}}


@pytest.mark.parametrize("side", ["left", "right"])
def test_prox_accepts_a_permuted_carrier_on_either_side(docs, side):
    skel = docs("skel.json", SKEL)
    permuted = docs("perm.json", F01_PERMUTED)
    if side == "left":
        pair, plain = (permuted, docs("g.json", F12)), (docs("f.json", F01), docs("g.json", F12))
    else:
        pair, plain = (docs("f.json", FM10), permuted), (docs("f.json", FM10), docs("g.json", F01))
    res = run("prox", "--skeleton", skel, "--left", pair[0], "--right", pair[1])
    assert res.returncode == 0
    assert res.stdout == run("prox", "--skeleton", skel, "--left", plain[0],
                             "--right", plain[1]).stdout


def test_sw_approx_accepts_a_permuted_carrier(docs):
    poset = docs("chain2.json", CHAIN2)
    res = run("sw-approx", "--poset", poset, "--function", docs("perm.json", F01_PERMUTED),
              "--eps", "1/4")
    assert res.returncode == 0
    assert res.stdout == run("sw-approx", "--poset", poset, "--function",
                             docs("f.json", F01), "--eps", "1/4").stdout


@pytest.mark.parametrize("direction", ["upper", "lower"])
def test_envelope_accepts_a_permuted_carrier(docs, direction):
    poset = docs("chain2.json", CHAIN2)
    res = run("envelope", "--poset", poset, "--function", docs("perm.json", F01_PERMUTED),
              "--direction", direction)
    assert res.returncode == 0
    assert res.stdout == run("envelope", "--poset", poset, "--function",
                             docs("f.json", F01), "--direction", direction).stdout


@pytest.mark.parametrize("side", ["left", "right"])
def test_dieudonne_accepts_a_permuted_carrier_on_either_side(docs, side):
    skel = docs("skel.json", SKEL)
    left, right = docs("f.json", FM10), docs("g.json", F12)
    plain = run("dieudonne", "--skeleton", skel, "--left", left, "--right", right,
                "--steps", "4")
    assert plain.returncode == 0
    if side == "left":
        left = docs("perm.json", {"carrier": ["q", "p"], "values": FM10["values"]})
    else:
        right = docs("perm.json", {"carrier": ["q", "p"], "values": F12["values"]})
    res = run("dieudonne", "--skeleton", skel, "--left", left, "--right", right,
              "--steps", "4")
    assert res.stdout == plain.stdout


def test_algebra_and_generators_accept_permuted_carriers(docs):
    algebra = docs("alg.json", {"carrier": ["y", "x"], "blocks": [["y", "x"]]})
    plain = docs("plain.json", {"carrier": ["x", "y"], "blocks": [["x", "y"]]})
    body = {}
    for command in ("induced-order", "spectrum"):
        res = run(command, "--oracle", "r2", "--algebra", algebra)
        assert res.returncode == 0
        assert res.stdout == run(command, "--oracle", "r2", "--algebra", plain).stdout
        body[command] = payload(res.stdout)
    assert body["spectrum"]["points"] == [{"label": "M(x|y)", "block": ["x", "y"]}]
    assert body["induced-order"]["nachbin"] is True
    gens = docs("gens.json", {"generators": [F01, F01_PERMUTED]})
    res = run("envelope", "--skeleton", gens, "--function", docs("f.json", F10),
              "--direction", "upper")
    assert res.returncode == 0
    assert payload(res.stdout)["envelope"]["values"] == {"p": "1", "q": "1"}


# -- document fuzzing -----------------------------------------------------

ALGEBRA = {"carrier": ["p", "q"], "blocks": [["p"], ["q"]]}
# Keep every command small: a valid document must run its check in milliseconds.
SMALL = {"axioms": ["--samples", "2"], "roundtrip": ["--samples", "2"],
         "dieudonne": ["--steps", "2"]}
# Each kind of document, valid, and every command that reads it; "DOC" is the
# mutated document, the other files stay valid.
FUZZ_KINDS = {
    "order": (CHAIN2, [
        ["validate", "--poset", "DOC"],
        ["envelope", "--poset", "DOC", "--function", "f01", "--direction", "upper"],
        ["roundtrip", "--poset", "DOC"],
        ["sw-approx", "--poset", "DOC", "--function", "f01", "--eps", "1/4"],
        ["adjunction", "--poset", "DOC"],
        ["pq-roundtrip", "--poset", "DOC"]]),
    "function": (F01, [
        ["envelope", "--poset", "chain2", "--function", "DOC", "--direction", "lower"],
        ["prox", "--skeleton", "skel", "--left", "DOC", "--right", "f01"],
        ["sw-approx", "--poset", "chain2", "--function", "DOC", "--eps", "1/4"],
        ["dieudonne", "--skeleton", "skel", "--left", "DOC", "--right", "f01"]]),
    "quasiorder": (SKEL, [[c, "--skeleton", "DOC", *extra]
                          for c, extra in SKELETON_COMMANDS.items()]),
    "generators": (GENS, [[c, "--skeleton", "DOC", *extra]
                          for c, extra in SKELETON_COMMANDS.items()]),
    "algebra": (ALGEBRA, [["spectrum", "--skeleton", "skel", "--algebra", "DOC"],
                          ["induced-order", "--skeleton", "skel", "--algebra", "DOC"]]),
}

# Values a document may hold, by mistake or not: rationals that are huge, have a
# zero denominator or are not canonical, labels and label lists, and any JSON
# scalar.  The labels and lists keep some mutants valid, or failing a check.
NEAR_MISSES = ["0", "-3", "1/2", "1/0", "0/0", "2/-4", " 1", "1.5", "1e3", "p", "q", "x", "",
               "9" * 4000, "1/" + "7" * 4000, "9" * 5000, ["q", "p"], [["q", "p"]], [["p"]],
               {"p": "1", "q": "0"}]
JSON_VALUES = st.sampled_from(NEAR_MISSES) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(NEAR_MISSES),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["elements", "leq", "carrier", "values", "blocks", "quasiorder",
                         "generators", "p", "q"]) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def json_paths(node, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from json_paths(child, path + (key,))


def replaced(node, path, value):
    """A copy of ``node`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = replaced(node[path[0]], path[1:], value)
    return copy


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {}
    for name, doc in {"chain2": CHAIN2, "f01": F01, "f10": F10, "skel": SKEL}.items():
        files[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    files["DOC"] = str(root / "doc.json")
    return files


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_no_document_escapes_as_a_traceback(fuzz_files, data):
    """One JSON node of a valid document replaced by any JSON value.

    Every command that reads that kind of document runs in-process: no
    exception escapes, the exit code is 0, 1 or 2, and exit 1 prints a FAIL
    line.  The 120 examples run about 750 commands.
    """
    kind = data.draw(st.sampled_from(sorted(FUZZ_KINDS)))
    doc, commands = FUZZ_KINDS[kind]
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    mutated = replaced(doc, path, data.draw(JSON_VALUES))
    with open(fuzz_files["DOC"], "w", encoding="utf-8") as fh:
        json.dump(mutated, fh)
    for command in commands:
        argv = [fuzz_files.get(arg, arg) for arg in command] + SMALL.get(command[0], [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 1:
            assert any(line.startswith(("FAIL: ", f"{command[0]}: FAIL"))
                       for line in out.getvalue().splitlines()), argv
