"""The qpbw benchmark.

Run one workload (the form in BENCHMARK.json), from the repository root:

    python3 bench/run.py --workload tables --seed 1 --seconds 60 --trace 0

Run every workload and print every end-to-end metric by name and unit:

    python3 bench/run.py --all --seed 1 --seconds 60

Compare two sets of results (files written with --out):

    python3 bench/run.py --compare base.jsonl new.jsonl

Every iteration runs in a fresh interpreter (worker.py), because the
package's caches are process-wide and every `qpbw` command starts cold.
An untraced run repeats iterations while the next one still fits in
--seconds, then spends the rest of the time on extra set-ups, and reports
medians.  A traced run (--trace 1) makes one untraced and one traced
iteration and reports the per-layer metrics and the tracing overhead; its
spans go to bench/results/.  The last line of stdout is one JSON object;
each run is also appended to --out (default bench/results/runs.jsonl).
See bench/DESIGN.md for the workloads and what each metric predicts.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")

MIN_SETUPS = 5
RUN_LIMIT_S = 170        # a run must end within 180 s


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# metadata


def metadata():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "cpu": _cpu_model(),
            "git_sha": _git_sha(),
            "src_sha256": _src_sha256()}


# A comparison flags results whose values for these keys differ.
MACHINE_KEYS = ("python", "implementation", "nproc", "machine", "cpu")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    """HEAD of the repository rooted here; None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_sha256():
    """Content hash of the package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qpbw")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# iterations


def spawn(workload, seed, deadline, spans=None):
    """One worker process; returns its JSON result."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    argv = [sys.executable, WORKER, workload, str(seed), repr(t0)]
    if spans:
        argv.append(spans)
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} iteration exceeded the run limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload, seed, seconds):
    """Untraced iterations for about `seconds`; medians of each metric."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    spawn("setup", seed, deadline)        # byte-compiles, warms file cache
    its = []
    while True:
        t = time.perf_counter()
        its.append(spawn(workload, seed, deadline))
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            break
    setups = [r["setup_s"] for r in its]
    while len(setups) < MIN_SETUPS or time.perf_counter() - start < seconds:
        setups.append(spawn("setup", seed, deadline)["setup_s"])
    walls = [r["wall_s"] for r in its]
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": statistics.median(walls),
               "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                for r in its)}
    attempted = sum(r["attempted"] for r in its)
    failed = sum(r["failed"] for r in its)
    detail = {"iteration_walls_s": walls, "setup_samples": len(setups),
              "failed_ratio": failed / attempted}
    first = its[0]["detail"]
    if workload == "tables":
        detail["records_per_s"] = first["records"] / metrics["wall_s"]
    if workload == "equations":
        lat = [x for r in its for x in r["detail"]["latencies_ms"]]
        detail["state_p50_ms"] = statistics.median(lat)
        detail["state_p99_ms"] = statistics.quantiles(lat, n=100)[98]
        detail["state_samples"] = len(lat)
    witness = next((r["witness"] for r in its if r["witness"]), None)
    return metrics, detail, attempted, failed, witness


def measure_traced(workload, seed):
    """One untraced and one traced iteration; per-layer metrics."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(RESULTS, f"spans-{workload}-seed{seed}.json")
    spawn("setup", seed, deadline)
    plain = spawn(workload, seed, deadline)
    traced = spawn(workload, seed, deadline, spans)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    detail = {"spans_file": os.path.relpath(spans, ROOT),
              "untraced_wall_s": plain["wall_s"],
              "traced_wall_s": traced["wall_s"]}
    if "suites" in traced["detail"]:      # selftest: each suite's duration
        detail["suite_s"] = traced["detail"]["suites"]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    witness = plain["witness"] or traced["witness"]
    return layers, detail, attempted, failed, witness


def run_one(spec, workload, seed, seconds, trace):
    if trace:
        values, detail, attempted, failed, witness = \
            measure_traced(workload, seed)
        wanted = spec["per_layer"]
    else:
        values, detail, attempted, failed, witness = \
            measure(workload, seed, seconds)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload} produced no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "traced": bool(trace), "seed_used": workloads.USES_SEED[workload],
            "meta": metadata(), "correct": failed == 0,
            "attempted": attempted, "failed": failed, "witness": witness,
            "metrics": metrics, "detail": detail}


# ---------------------------------------------------------------------------
# reporting

# Every end-to-end metric the benchmark reports, with its unit; the ones not in
# BENCHMARK.json are defined on one workload only (see DESIGN.md).
ALL_END_TO_END = (("setup_s", "s"), ("wall_s", "s"),
                  ("records_per_s", "1/s"), ("state_p50_ms", "ms"),
                  ("state_p99_ms", "ms"), ("peak_rss_mb", "MB"),
                  ("failed_ratio", "ratio"))


def _value(rec, name):
    if name in rec["metrics"]:
        return rec["metrics"][name]["value"]
    return rec["detail"].get(name)


def print_run(rec):
    m = rec["meta"]
    print(f"workload {rec['workload']} seed {rec['seed']} "
          f"(seed {'used' if rec['seed_used'] else 'ignored'}) "
          f"traced {int(rec['traced'])} python {m['python']} "
          f"nproc {m['nproc']} git {m['git_sha'] or '-'} "
          f"src {m['src_sha256'][:12]}")
    rows = rec["metrics"].items() if rec["traced"] else (
        (name, {"value": _value(rec, name), "unit": unit})
        for name, unit in ALL_END_TO_END if _value(rec, name) is not None)
    for name, mv in rows:
        print(f"  {name:34s} {mv['value']:<14.6g} {mv['unit']}")
    d = rec["detail"]
    for name, value in d.get("suite_s", {}).items():
        print(f"  {name:34s} {value:<14.6g} s")
    if "state_samples" in d:
        print(f"  (state percentiles over {d['state_samples']} states)")
    print(f"  {rec['failed']} of {rec['attempted']} operations failed"
          + (f": {rec['witness']}" if rec["witness"] else ""))


def print_table(recs):
    names = [r["workload"] for r in recs]
    print(f"{'metric':16s} {'unit':6s} " + " ".join(f"{n:>12s}"
                                                    for n in names))
    for name, unit in ALL_END_TO_END:
        cells = []
        for r in recs:
            v = _value(r, name)
            cells.append(f"{v:12.6g}" if v is not None else f"{'n/a':>12s}")
        print(f"{name:16s} {unit:6s} " + " ".join(cells))


def append(path, rec):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(rec) + "\n")


def result_line(rec):
    return json.dumps({"correct": rec["correct"],
                       "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": rec["metrics"]})


# ---------------------------------------------------------------------------
# comparison


def _stats(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def verdict(base, new, bound, lower_is_better):
    """improved / unchanged / worse / unresolved, by the rules in DESIGN.md.

    base and new map seed -> [value of every run with that seed].
    """
    sign = 1 if lower_is_better else -1
    base_all, new_all = _values(base), _values(new)
    bq1, bmed, bq3 = _stats(base_all)
    nq1, nmed, nq3 = _stats(new_all)
    better = lambda x, y: sign * (x - y) < 0          # noqa: E731
    spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
    worse_by = sign * (nmed - bmed) / bmed
    if spread > bound:
        if all(better(x, y) for x in new_all for y in base_all):
            return "improved"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    seeds = sorted(set(base) & set(new))
    pairs = [(x, y) for s in seeds for x in new[s] for y in base[s]] or \
        [(x, y) for x in new_all for y in base_all]
    wins = sum(better(x, y) for x, y in pairs)
    if wins >= 0.9 * len(pairs) and -worse_by * bmed > bq3 - bq1:
        return "improved"
    return "unchanged"


def _values(by_seed):
    return [v for vs in by_seed.values() for v in vs]


def _by_seed(recs, workload, metric):
    """seed -> values of `metric`, every run kept, for one workload."""
    out = {}
    for r in recs:
        if r["workload"] == workload:
            out.setdefault(r["seed"], []).append(
                r["metrics"][metric]["value"])
    return out


def _load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(spec, base_path, new_path):
    base = [r for r in _load(base_path) if not r["traced"]]
    new = [r for r in _load(new_path) if not r["traced"]]
    if not base or not new:
        raise BenchError("each side needs at least one untraced run")
    machines = {tuple((k, r["meta"].get(k)) for k in MACHINE_KEYS)
                for r in base + new}
    if len(machines) > 1:
        print("WARNING: the results come from different machines or "
              "interpreters; the comparison is not valid:")
        for m in sorted(machines, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in m))
    worse = 0
    print(f"{'workload':10s} {'metric':12s} {'unit':5s} "
          f"{'base median [q1, q3] n':>32s} {'new median [q1, q3] n':>32s} "
          f"{'new/base':>8s} {'bound':>5s}  verdict")
    for wl in workloads.WORKLOADS:
        for m in spec["end_to_end"]:
            a = _by_seed(base, wl, m["name"])
            b = _by_seed(new, wl, m["name"])
            if not a or not b:
                continue
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            worse += v == "worse"
            cells, medians = [], []
            for values in (_values(a), _values(b)):
                q1, med, q3 = _stats(values)
                medians.append(med)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}")
            ratio = medians[1] / medians[0]
            print(f"{wl:10s} {m['name']:12s} {m['unit']:5s} {cells[0]:>32s} "
                  f"{cells[1]:>32s} {ratio:8.3f} {m['bound']:5.2f}  {v}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads.WORKLOADS)
    mode.add_argument("--all", action="store_true",
                      help="run every workload, print a table")
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(RESULTS, "runs.jsonl"),
                    help="append each run's full record here")
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare(spec, *args.compare)
        if not os.path.isfile(os.path.join(SRC, "qpbw", "__init__.py")):
            raise BenchError(f"no package sources under {SRC}")
        if args.seconds < 1:
            raise BenchError("--seconds must be at least 1")
        names = workloads.WORKLOADS if args.all else (args.workload,)
        recs = []
        for wl in names:
            rec = run_one(spec, wl, args.seed, args.seconds, args.trace)
            append(args.out, rec)
            print_run(rec)
            recs.append(rec)
        if args.all:
            print_table(recs)
        print(result_line(recs[-1]) if len(recs) == 1 else json.dumps(
            {"correct": all(r["correct"] for r in recs),
             "attempted": sum(r["attempted"] for r in recs),
             "failed": sum(r["failed"] for r in recs),
             "metrics": {f"{r['workload']}.{k}": v for r in recs
                         for k, v in r["metrics"].items()}}))
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
