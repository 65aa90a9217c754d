"""Tests of the benchmark itself: seeds, gates, tracing, comparison.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# seeds


def test_same_seed_same_states_other_seed_other_states():
    assert workloads.draw_states(7) == workloads.draw_states(7)
    assert workloads.draw_states(7) != workloads.draw_states(8)


def test_states_cover_every_total_equally():
    per = 6
    states = workloads.draw_states(3, per_total=per)
    for eq, width, top in workloads.EQUATION_BOUNDS:
        mine = [s for e, s in states if e == eq]
        assert all(len(s) == width and min(s) >= 0 for s in mine)
        for total in range(top + 1):
            assert sum(sum(s) == total for s in mine) == per


def test_fixed_workloads_record_that_they_ignore_the_seed(capsys):
    assert workloads.USES_SEED == {"tables": False, "selftest": False,
                                   "equations": True}
    rec = {"workload": "tables", "seed": 5, "seed_used": False,
           "traced": False, "meta": run.metadata(), "metrics": {},
           "detail": {}, "failed": 0, "attempted": 1, "witness": None}
    run.print_run(rec)
    assert "seed 5 (seed ignored)" in capsys.readouterr().out


_TRACED_EQUATIONS = """
import json, sys
import worker
from tracer import Tracer
t = Tracer()
t.install()
worker.run_equations(t, int(sys.argv[1]), per_total=3)
print(json.dumps(t.metrics()))
"""


def _traced_counts(seed):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", _TRACED_EQUATIONS,
                           str(seed)], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_same_seed_same_traced_counts():
    a, b = _traced_counts(4), _traced_counts(4)
    counts = {k for k, v in a.items() if isinstance(v, int)}
    for key in ("qfield.gcd_calls", "intertwiner.block_calls",
                "intertwiner.solve_calls", "fock.apply_op_calls"):
        assert key in counts and a[key] > 0
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    named = {m["name"] for m in run.load_spec()["per_layer"]}
    assert named - {"trace.overhead_ratio"} == set(a)


# ---------------------------------------------------------------------------
# gates, each with a mutation it must catch


def _sweep(alg, kind, height):
    from qpbw import cli
    checked = cli.compute_records(alg, kind, max_height=height)
    gamma = cli.compute_records(alg, "gamma", max_height=height)
    return [alg, kind, height, checked, gamma,
            [cli.record_to_json(r) for r in checked],
            [cli.record_to_json(r) for r in gamma]]


@pytest.fixture(scope="module")
def a2_sweep():
    """The A2 sweep of the `tables` workload and the pinned hashes."""
    alg, kind, height = workloads.SWEEPS[0]
    assert alg == "A2"
    return _sweep(alg, kind, height), workloads.load_pins()


def _golden():
    from qpbw import verify
    return verify.GOLDEN_COLUMNS


def test_tables_gate_passes_real_output(a2_sweep):
    sweep, pins = a2_sweep
    gate = workloads.tables_gate([sweep], _golden(), pins)
    assert gate.failed == 0 and gate.witness is None
    assert gate.attempted == len(sweep[3]) + len(sweep[4]) + 5 + 2


def test_tables_gate_catches_flipped_coefficient(a2_sweep):
    sweep, pins = a2_sweep
    from qpbw import cli
    mutated = list(sweep)
    checked = list(sweep[3])
    r = checked[10]
    flipped = "-(" + r.coeff + ")" if not r.coeff.startswith("-") \
        else r.coeff[1:]
    checked[10] = r._replace(coeff=flipped)
    mutated[3] = checked
    mutated[5] = [cli.record_to_json(x) for x in checked]
    gate = workloads.tables_gate([mutated], _golden(), pins)
    assert gate.failed >= 2          # the record, its mate and the hash
    assert "no equal" in gate.witness


def test_tables_gate_catches_golden_mismatch(a2_sweep):
    sweep, pins = a2_sweep
    golden = dict(_golden())
    inp, expect = golden["A2"]
    out = sorted(expect)[0]
    golden["A2"] = (inp, {**expect, out: expect[out] + " + q^99"})
    gate = workloads.tables_gate([sweep], golden, pins)
    assert gate.failed == 1 and "golden column" in gate.witness


def test_tables_gate_catches_changed_bytes(a2_sweep):
    sweep, pins = a2_sweep
    mutated = list(sweep)
    mutated[6] = sweep[6][:-1] + [sweep[6][-1].replace(", ", ",", 1)]
    gate = workloads.tables_gate([mutated], _golden(), pins)
    assert gate.failed == 1 and "sha256" in gate.witness


def test_pinned_hashes_are_of_the_cli_bytes(a2_sweep):
    sweep, pins = a2_sweep
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-m", "qpbw.cli", "compute", "--algebra", "A2",
         "--kind", "R", "--max-height", "12"], env=env, capture_output=True,
        check=True, timeout=300).stdout
    key = workloads.sweep_key("A2", "R", 12)
    assert hashlib.sha256(out).hexdigest() == pins["tables"][key]
    assert workloads.jsonl_sha256(sweep[5]) == pins["tables"][key]


def test_selftest_gate_catches_altered_witness():
    pinned = workloads.load_pins()["selftest"]
    assert workloads.selftest_gate(list(pinned), pinned).failed == 0
    lines = list(pinned)
    i = next(k for k, ln in enumerate(lines) if "[" in ln)
    lines[i] = lines[i].replace("[", "[1", 1)
    gate = workloads.selftest_gate(lines, pinned)
    assert (gate.attempted, gate.failed) == (len(pinned), 1)


def test_selftest_gate_catches_fail_and_missing_line():
    pinned = workloads.load_pins()["selftest"]
    failing = ["FAIL" + ln[4:] for ln in pinned]
    assert workloads.selftest_gate(failing, failing).failed == len(pinned)
    gate = workloads.selftest_gate(pinned[:-1], pinned)
    assert gate.failed == 1 and "None" in gate.witness


def test_equations_gate_catches_perturbed_image():
    from qpbw import verify
    from qpbw.presets import ONE
    ops = {"R": verify.KetOperator("A2")}
    state = (1, 0, 1, 1, 0, 1)
    images = []
    for side in verify.TETRAHEDRON["sides"]:
        vec = {state: ONE}
        for kind, slots in side:
            vec = ops[kind].apply(vec, slots)
        images.append(vec)
    lhs, rhs = images
    assert workloads.state_witness("tetrahedron", state, lhs, rhs) is None
    key = sorted(rhs)[0]
    rhs = {**rhs, key: rhs[key] + ONE}
    w = workloads.state_witness("tetrahedron", state, lhs, rhs)
    gate = workloads.equations_gate([None, w, None], [])
    assert (gate.attempted, gate.failed) == (3, 1) and gate.witness == w


@pytest.mark.parametrize("alg, inp", [("A2", (1, 0, 1)),
                                      ("A2", (3, 1, 4)),
                                      ("C2", (0, 1, 1, 0))])
def test_equations_gate_catches_rescaled_column(monkeypatch, alg, inp):
    """A column rescaled by q leaves both sides of every state equal."""
    import worker
    from qpbw import verify
    from qpbw.qfield import parse
    ops = {"R": verify.KetOperator("A2"), "K": verify.KetOperator("C2")}
    assert workloads.equations_gate(
        [], worker.operator_columns(ops)).failed == 0
    q, column = parse("q"), verify.KetOperator.column

    def scaled(self, i):
        col = column(self, i)
        return {c: v * q for c, v in col.items()} if i == inp else col

    monkeypatch.setattr(verify.KetOperator, "column", scaled)
    ops = {"R": verify.KetOperator("A2"), "K": verify.KetOperator("C2")}
    gate = workloads.equations_gate([None], worker.operator_columns(ops))
    assert gate.failed >= 1
    assert gate.witness.startswith(f"{alg} ") and str(inp) in gate.witness


# ---------------------------------------------------------------------------
# tracing, comparison, and running without the package


def test_self_times_subtract_child_spans():
    spans = [["a", 0.0, 10.0, None, 1],
             ["b", 1.0, 4.0, 0, 1],
             ["c", 2.0, 3.0, 1, 1],
             ["b", 5.0, 6.0, 0, 1]]
    assert tracer.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_verdicts():
    base = {s: [10.0 + 0.1 * s] for s in range(10)}

    def scaled(f):
        return {s: [v * f for v in vs] for s, vs in base.items()}

    assert run.verdict(base, dict(base), 0.1, True) == "unchanged"
    assert run.verdict(base, scaled(1.5), 0.1, True) == "worse"
    assert run.verdict(base, scaled(0.5), 0.1, True) == "improved"
    assert run.verdict(base, scaled(0.5), 0.1, False) == "worse"
    noisy = {s: [10.0 * (1 + (s % 2))] for s in range(10)}
    assert run.verdict(base, noisy, 0.1, True) == "unresolved"


def test_compare_flags_other_machine(tmp_path, capsys):
    meta = run.metadata()

    def rec(seed, wall, nproc):
        return {"workload": "tables", "seed": seed, "traced": False,
                "meta": {**meta, "nproc": nproc},
                "metrics": {m["name"]: {"value": wall, "unit": m["unit"]}
                            for m in run.load_spec()["end_to_end"]}}

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("".join(json.dumps(rec(s, 1.0 + s / 100, 2)) + "\n"
                         for s in range(5)))
    b.write_text("".join(json.dumps(rec(s, 1.0 + s / 100, 8)) + "\n"
                         for s in range(5)))
    assert run.compare(run.load_spec(), str(a), str(b)) == 0
    out = capsys.readouterr().out
    assert "WARNING" in out and "nproc=8" in out
    assert out.count("unchanged") == len(run.load_spec()["end_to_end"])


def test_compare_keeps_every_run_of_a_seed(tmp_path, capsys):
    """Runs that share a seed (the default --out holds such) all count."""
    meta = run.metadata()

    def rec(wall):
        return {"workload": "tables", "seed": 1, "traced": False,
                "meta": meta,
                "metrics": {m["name"]: {"value": wall, "unit": m["unit"]}
                            for m in run.load_spec()["end_to_end"]}}

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("".join(json.dumps(rec(w)) + "\n"
                         for w in (1.0, 2.0, 3.0, 4.0)))
    b.write_text("".join(json.dumps(rec(w)) + "\n"
                         for w in (1.0, 2.0, 3.0, 4.0)))
    assert run.compare(run.load_spec(), str(a), str(b)) == 0
    out = capsys.readouterr().out
    assert "2.5 [1.25, 3.75] 4" in out
    assert out.count("unresolved") == len(run.load_spec()["end_to_end"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
