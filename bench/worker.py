"""One cold iteration of one workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED T0 [SPANS_PATH]

T0 is the parent's time.perf_counter() just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so setup_s covers interpreter start, `import qpbw` and preset() for the
three algebras.  WORKLOAD "setup" stops there.  With SPANS_PATH the
iteration is traced (see tracer.py) and the spans are written there.
Prints one JSON object on stdout.
"""

import sys
import time

import qpbw
from qpbw.presets import preset

for _algebra in ("A2", "C2", "G2"):
    preset(_algebra)
_SETUP_DONE = time.perf_counter()

import itertools  # noqa: E402  (after the timed setup on purpose)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

_SUITE_METRIC = {"theorem": "verify.theorem_s",
                 "properties": "verify.properties_s",
                 "tetrahedron": "verify.tetrahedron_s",
                 "3d-reflection": "verify.reflection_s",
                 "t-intertwining": "verify.intertwining_s"}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_tables(tracer, seed):
    from qpbw import cli, verify
    sweeps = []
    t0 = time.perf_counter()
    for alg, kind, height in workloads.SWEEPS:
        if tracer:
            tracer.request = f"sweep:{alg}"
        checked = cli.compute_records(alg, kind, max_height=height)
        checked_lines = [cli.record_to_json(r) for r in checked]
        gamma = cli.compute_records(alg, "gamma", max_height=height)
        gamma_lines = [cli.record_to_json(r) for r in gamma]
        sweeps.append((alg, kind, height, checked, gamma, checked_lines,
                       gamma_lines))
    wall = time.perf_counter() - t0
    rss = _peak_rss_mb()

    def check():
        return workloads.tables_gate(sweeps, verify.GOLDEN_COLUMNS,
                                     workloads.load_pins())

    records = sum(len(s[3]) + len(s[4]) for s in sweeps)
    return wall, rss, check, {"records": records}


def run_selftest(tracer, seed):
    from qpbw import verify
    t0 = time.perf_counter()
    reports = verify.selftest()
    wall = time.perf_counter() - t0
    rss = _peak_rss_mb()
    lines = [ln for r in reports for ln in r.lines()]

    def check():
        return workloads.selftest_gate(lines,
                                       workloads.load_pins()["selftest"])

    durations = {_SUITE_METRIC[r.suite]: r.duration for r in reports}
    return wall, rss, check, {"checks": len(lines), "suites": durations}


def run_equations(tracer, seed, per_total=workloads.STATES_PER_TOTAL):
    from qpbw import verify
    from qpbw.presets import ONE
    states = workloads.draw_states(seed, per_total)
    equations = {"tetrahedron": verify.TETRAHEDRON,
                 "reflection": verify.REFLECTION_3D}
    latencies, witnesses = [], []
    t0 = time.perf_counter()
    ops = {"R": verify.KetOperator("A2"), "K": verify.KetOperator("C2")}
    for i, (eq, state) in enumerate(states):
        if tracer:
            tracer.request = f"state:{i}"
        s = time.perf_counter()
        images = []
        for side in equations[eq]["sides"]:
            vec = {state: ONE}
            for kind, slots in side:
                vec = ops[kind].apply(vec, slots)
            images.append(vec)
        witnesses.append(workloads.state_witness(eq, state, *images))
        latencies.append((time.perf_counter() - s) * 1e3)
    wall = time.perf_counter() - t0
    rss = _peak_rss_mb()

    def check():
        return workloads.equations_gate(witnesses, operator_columns(ops))

    return wall, rss, check, {"states": len(states),
                              "latencies_ms": latencies}


def operator_columns(ops):
    """[(what, got, want)]: the columns workloads.CHECKED_COLUMNS names.

    got is the column as the workload's KetOperator gives it, want the
    same entries by the PBW route (pbw.transition_block); the golden
    columns are compared with verify.GOLDEN_COLUMNS as well.
    """
    from qpbw import pbw, verify
    from qpbw.presets import reverse
    from qpbw.qfield import canonical_string

    def canonical(col):
        return {c: canonical_string(v) for c, v in col.items()
                if not v.num.is_zero()}

    by_algebra = {op.table.name: op for op in ops.values()}
    out = []
    for alg, top in workloads.CHECKED_COLUMNS:
        op = by_algebra[alg]
        for inp in itertools.product(range(top + 1), repeat=op.arity):
            if sum(inp) > top:
                continue
            tb = pbw.transition_block(alg, preset(alg).conserved2(inp))
            want = canonical({c: tb.gamma(reverse(c), inp)
                              for c in op.table.block_outputs(inp)})
            out.append((f"{alg} column {inp}", canonical(op.column(inp)),
                        want))
        golden_inp, golden = verify.GOLDEN_COLUMNS[alg]
        out.append((f"{alg} golden column {golden_inp}",
                    canonical(op.column(golden_inp)), golden))
    return out


RUNNERS = {"tables": run_tables, "selftest": run_selftest,
           "equations": run_equations}


def main(argv):
    workload, seed, t0 = argv[0], int(argv[1]), float(argv[2])
    spans_path = argv[3] if len(argv) > 3 else None
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.abspath(qpbw.__file__).startswith(src + os.sep):
        print(f"qpbw imported from {qpbw.__file__}, not {src}",
              file=sys.stderr)
        return 3
    out = {"workload": workload, "setup_s": _SETUP_DONE - t0}
    if workload != "setup":
        tracer = None
        if spans_path:
            tracer = Tracer()
            tracer.install()
        origin = time.perf_counter()
        wall, rss, check, detail = RUNNERS[workload](tracer, seed)
        if tracer:
            out["layers"] = tracer.metrics()
            tracer.write(spans_path, origin,
                         {"workload": workload, "seed": seed})
        gate = check()           # after the trace: its calls are not counted
        out.update(wall_s=wall, peak_rss_mb=rss, attempted=gate.attempted,
                   failed=gate.failed, witness=gate.witness, detail=detail)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
