"""End-to-end CLI checks through subprocesses.

Exit status contract: 0 all checks passed, 1 a mathematical check failed
(with a counterexample in the JSON), 2 unusable input.  Output must be
byte-identical across runs with the same inputs and seed.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

from ordalg.approx import DIEUDONNE_STEP_CAP
from ordalg.cli import SAMPLES_CAP, _samples, build_parser, main

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


def test_samples_at_cap_is_accepted():
    for argv in (["axioms", "--oracle", "r2"], ["roundtrip", "--poset", "p.json"]):
        args = build_parser().parse_args(argv + ["--samples", str(SAMPLES_CAP)])
        assert _samples(args) == SAMPLES_CAP


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
