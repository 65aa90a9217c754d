"""Command-line surface: compute coefficient tables, run the verifiers.

Subcommands
-----------
compute   emit one table column (or a whole height range) as JSON lines
          or CSV, sorted lexicographically by output then input tuple.
verify    run one verification suite and print PASS/FAIL lines.
selftest  a fast pass over every suite.

A compute sweep walks the blocks up the heights and keeps only a window
of heights alive; a single --in input reads its block from the
process-wide caches (intertwiner.shared_phi, pbw.transition_block).

Output on stdout (or --out) is deterministic byte for byte; timings and
other diagnostics go to stderr.  Exit status: 0 all checks pass, 1 a
check failed or an exact computation broke down (a failed solve, a pole),
2 usage error.
"""

import argparse
import csv
import io
import json
import re
import sys
from collections import namedtuple

from . import pbw, verify
from .intertwiner import phi_blocks, shared_phi
from .presets import (
    ALGEBRAS, DEFAULT_HEIGHTS, KIND_ALGEBRA, preset, reverse,
    tuples_with_weight,
)
from .qfield import canonical_string

KINDS = ("gamma", "phi", "R", "K", "F")
# the options each suite reads; setting any other one is a usage error
SUITE_OPTIONS = {
    "tetra": ("max_occ",),
    "reflect3d": ("max_occ",),
    "theorem": ("algebra", "max_height"),
    "props": ("algebra", "max_height"),
    "intertwine": ("algebra", "max_height", "max_occ"),
}
SUITES = tuple(SUITE_OPTIONS)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# wire format

TableRecord = namedtuple("TableRecord", ["algebra", "kind", "inp", "out",
                                         "coeff"])


def record_to_json(rec):
    return json.dumps({"algebra": rec.algebra, "kind": rec.kind,
                       "in": list(rec.inp), "out": list(rec.out),
                       "coeff": rec.coeff}, separators=(", ", ": "))


def records_to_csv(records):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["algebra", "kind", "in", "out", "coeff"])
    for r in records:
        w.writerow([r.algebra, r.kind, ",".join(map(str, r.inp)),
                    ",".join(map(str, r.out)), r.coeff])
    return buf.getvalue().splitlines()


def _parse_tuple(text):
    try:
        t = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise UsageError(f"not a comma-separated integer tuple: {text!r}")
    if any(x < 0 for x in t):
        raise UsageError(f"negative exponent in {text!r}")
    return t


# ---------------------------------------------------------------------------
# compute

def _records(name, kind, block, inputs):
    """The records above each input I of one block, read from one dict of
    it: for kind phi, Phi's column of the word-1 ket I itself; for a
    checked kind, Phi's column of reverse(I); for kind gamma, gamma's row
    reverse(I), each word-2 column C of it read as the word-1 output
    reverse(C), which is a row key of the block: the records share that
    key rather than each holding a copy."""
    out = {reverse(A): A for A in block} if kind == "gamma" else {}
    for I in inputs:
        for C, v in block[I if kind == "phi" else reverse(I)].items():
            yield TableRecord(name, kind, I, out.get(C, C),
                              canonical_string(v))


def compute_records(algebra, kind, inp=None, max_height=None):
    """TableRecords for one input tuple, or every input up to max_height.

    One input reads its block from the process-wide caches
    (pbw.transition_block, intertwiner.shared_phi); a sweep walks the
    heights (pbw.transition_blocks, intertwiner.phi_blocks), so it keeps
    only a window of heights alive and leaves those caches as they were.
    """
    if algebra not in ALGEBRAS:
        raise UsageError(f"unknown algebra {algebra!r}")
    if kind not in KINDS:
        raise UsageError(f"unknown kind {kind!r}")
    want = KIND_ALGEBRA.get(kind)
    if want is not None and want != algebra:
        raise UsageError(f"kind {kind} belongs to {want}, not {algebra}")
    p = preset(algebra)
    bound = DEFAULT_HEIGHTS[algebra] if max_height is None else max_height
    label = 1 if kind == "phi" else 2
    if inp is not None:
        if len(inp) != p.length:
            raise UsageError(f"{algebra} tuples have {p.length} entries, "
                             f"got {inp}")
        if sum(inp) > bound:
            raise UsageError(f"input sum {sum(inp)} beyond height bound "
                             f"{bound}")
        inp = tuple(inp)
        weight = p.conserved1(inp) if label == 1 else p.conserved2(inp)
        block = pbw.transition_block(algebra, weight) if kind == "gamma" \
            else shared_phi(algebra).block(weight)
        blocks = [(block, [inp])]
    else:
        walk = pbw.transition_blocks if kind == "gamma" else phi_blocks
        blocks = ((block, tuples_with_weight(algebra, label, weight))
                  for weight, block in walk(algebra, bound))
    records = [rec for block, inputs in blocks
               for rec in _records(algebra, kind, block, inputs)]
    records.sort(key=lambda r: (r.out, r.inp))
    return records


# ---------------------------------------------------------------------------
# verify dispatch

def run_suite(suite, algebras=None, max_height=None, max_occ=None):
    """One verification suite as a single VerifyReport.

    An option left at None takes the suite's default; setting one that the
    suite does not read raises UsageError.
    """
    if suite not in SUITE_OPTIONS:
        raise UsageError(f"unknown suite {suite!r}")
    given = {"algebra": algebras, "max_height": max_height,
             "max_occ": max_occ}
    for key, val in given.items():
        if val is not None and key not in SUITE_OPTIONS[suite]:
            raise UsageError(f"verify {suite} does not read "
                             f"--{key.replace('_', '-')}")
    if suite == "tetra":
        return verify.verify_tetrahedron(**_given(max_occ=max_occ))
    if suite == "reflect3d":
        return verify.verify_3d_reflection(**_given(max_occ=max_occ))
    algebras = algebras or ALGEBRAS
    heights = None if max_height is None \
        else {a: max_height for a in algebras}
    if suite == "theorem":
        return verify.verify_theorem(heights=heights, algebras=algebras)
    if suite == "props":
        return verify.verify_properties(heights=heights, algebras=algebras)
    bounds = None if max_occ is None else {a: max_occ for a in algebras}
    return verify.verify_t_intertwining(
        bounds=bounds, heights=heights, algebras=algebras)


def _given(**kw):
    """The keyword arguments that are not None."""
    return {k: v for k, v in kw.items() if v is not None}


# ---------------------------------------------------------------------------
# plumbing

def _config_flags(path):
    """Each key = value line of the config file as the flag --key=value."""
    try:
        fh = open(path)
    except OSError as e:
        raise UsageError(f"cannot read config: {e}")
    flags = []
    with fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            key = key.strip().replace("_", "-")
            if not eq or not key:
                raise UsageError(f"bad config line (want key=value): "
                                 f"{line!r}")
            if "config".startswith(key):  # every prefix of it means --config
                raise UsageError(f"a config file cannot set --config: "
                                 f"{line!r}")
            flags.append(f"--{key}={val.strip()}")
    return flags


def _emit(lines, out_path):
    text = "\n".join(lines) + ("\n" if lines else "")
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write {out_path}: {e.strerror}")
    else:
        sys.stdout.write(text)


def _report_exit(reports, out_path):
    lines = [ln for r in reports for ln in r.lines()]
    _emit(lines, out_path)
    for r in reports:
        print(f"{r.suite}: {len(r.checks)} checks in {r.duration:.2f}s",
              file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="file of key = value lines, each read as the "
                             "flag --key=value before the command line's "
                             "own flags, which win")
    common.add_argument("--out", metavar="PATH",
                        help="write output here instead of stdout")
    ap = argparse.ArgumentParser(
        prog="qpbw",
        description="Exact PBW transition / intertwiner tables and their "
                    "verification suites (types A2, C2, G2).")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", parents=[common],
                        help="emit coefficient records")
    pc.add_argument("--algebra", choices=ALGEBRAS)
    pc.add_argument("--kind", choices=KINDS)
    pc.add_argument("--in", dest="inp", metavar="TUPLE",
                    help="comma-separated exponent tuple, e.g. 3,1,4")
    # argparse reads a token that starts with a minus as a flag unless it
    # is a plain negative number; read any minus-digit token as a value, so
    # that --in -1,0,0 reaches _parse_tuple as --in=-1,0,0 does
    pc._negative_number_matcher = re.compile(r"-\d")
    pc.add_argument("--max-height", dest="max_height", type=int,
                    help="a sweep's bound on the weight height m2 + m1; "
                         "with --in, a cap on the input's index sum")
    pc.add_argument("--format", dest="fmt", choices=("json", "csv"))

    pv = sub.add_parser("verify", parents=[common],
                        help="run one verification suite")
    pv.add_argument("suite", choices=SUITES)
    pv.add_argument("--algebra", choices=ALGEBRAS)
    pv.add_argument("--max-height", dest="max_height", type=int)
    pv.add_argument("--max-occ", dest="max_occ", type=int,
                    help="tetra, reflect3d: total occupation; intertwine: "
                         "ket index-sum bound")

    sub.add_parser("selftest", parents=[common],
                   help="fast pass over every suite")
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:     # before the command line's flags, which win
            args = ap.parse_args(argv[:1] + _config_flags(args.config)
                                 + argv[1:])
        for key in ("max_height", "max_occ"):
            val = getattr(args, key, None)
            if val is not None and val < 0:
                raise UsageError(f"--{key.replace('_', '-')} must be "
                                 f"nonnegative, got {val}")
        if args.out:
            _emit([], args.out)     # an unwritable path fails before any work
        if args.command == "compute":
            if args.algebra is None or args.kind is None:
                raise UsageError("compute needs --algebra and --kind")
            inp = _parse_tuple(args.inp) if args.inp is not None else None
            records = compute_records(args.algebra, args.kind, inp,
                                      args.max_height)
            fmt = args.fmt or "json"
            lines = records_to_csv(records) if fmt == "csv" \
                else [record_to_json(r) for r in records]
            _emit(lines, args.out)
            print(f"{len(records)} records", file=sys.stderr)
            return 0
        if args.command == "verify":
            algebras = (args.algebra,) if args.algebra else None
            report = run_suite(args.suite, algebras, args.max_height,
                               args.max_occ)
            return _report_exit([report], args.out)
        return _report_exit(verify.selftest(), args.out)
    except (UsageError, ValueError) as e:
        print(f"qpbw: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"qpbw: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
