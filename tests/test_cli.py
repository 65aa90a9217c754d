"""The command-line surface: records, formats, exit codes, determinism."""

import csv
import json

import pytest

from qpbw import cli, intertwiner, pbw, verify
from qpbw.cli import (
    TableRecord, compute_records, main, record_to_json, records_to_csv,
)
from qpbw.presets import (
    ALGEBRA_KIND, preset, reverse, tuples_with_weight, weights_up_to,
)
from qpbw.qfield import LaurentPoly, RationalFunction, canonical_string, parse


def run(argv, capsys):
    """main's exit code, reading an argparse SystemExit as one, and its
    stdout and stderr."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def from_json(line):
    """The record a JSON line holds; its coefficient must parse back."""
    d = json.loads(line)
    parse(d["coeff"])
    return TableRecord(d["algebra"], d["kind"], tuple(d["in"]),
                       tuple(d["out"]), d["coeff"])


# ---------------------------------------------------------------------------
# compute: the three pinned columns


def test_compute_a2_r_column(capsys):
    rc, out, _ = run(["compute", "--algebra", "A2", "--kind", "R",
                      "--in", "3,1,4"], capsys)
    assert rc == 0
    recs = [from_json(ln) for ln in out.splitlines()]
    assert len(recs) == 5
    assert all(r.inp == (3, 1, 4) and r.kind == "R" for r in recs)
    assert recs[-1] == TableRecord("A2", "R", (3, 1, 4), (4, 0, 5), "q^12")


def test_compute_c2_k_column(capsys):
    rc, out, _ = run(["compute", "--algebra", "C2", "--kind", "K",
                      "--in", "2,1,1,0"], capsys)
    assert rc == 0
    assert len(out.splitlines()) == 6


def test_compute_g2_f_column(capsys):
    rc, out, _ = run(["compute", "--algebra", "G2", "--kind", "F",
                      "--in", "0,1,0,1,0,1"], capsys)
    assert rc == 0
    assert len(out.splitlines()) == 9


def test_compute_gamma_zero_tuple(capsys):
    rc, out, _ = run(["compute", "--algebra", "A2", "--kind", "gamma",
                      "--in", "0,0,0"], capsys)
    assert rc == 0
    (rec,) = [from_json(ln) for ln in out.splitlines()]
    assert rec == TableRecord("A2", "gamma", (0, 0, 0), (0, 0, 0), "1")


# ---------------------------------------------------------------------------
# record semantics


def test_sweep_max_height_bounds_the_weight_height(capsys):
    """A sweep's --max-height bounds the weight height m2 + m1, not the
    index sum: (0, 1, 0), of index sum 1, has weight (1, 1), height 2."""
    rc, out, _ = run(["compute", "--algebra", "A2", "--kind", "gamma",
                      "--max-height", "1"], capsys)
    assert rc == 0
    assert [from_json(ln).inp for ln in out.splitlines()] \
        == [(0, 0, 0), (1, 0, 0), (0, 0, 1)]


def test_records_sorted_by_output_then_input():
    recs = compute_records("A2", "gamma", max_height=3)
    keys = [(r.out, r.inp) for r in recs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_no_zero_coefficients_emitted():
    for rec in compute_records("C2", "K", (2, 1, 1, 0)):
        assert not parse(rec.coeff).num.is_zero()


def test_phi_records_match_gamma_records():
    # the theorem, through the CLI surface: phi columns over word-1 inputs
    # carry the same coefficients as gamma columns over word-2 inputs
    gam = {(r.inp, r.out): r.coeff
           for r in compute_records("A2", "gamma", max_height=4)}
    phi = {(r.out, r.inp): r.coeff
           for r in compute_records("A2", "phi", max_height=4)}
    shared = set(gam) & set(phi)
    assert shared
    assert all(gam[k] == phi[k] for k in shared)


def test_json_round_trip():
    recs = compute_records("A2", "R", (3, 1, 4))
    assert [from_json(record_to_json(r)) for r in recs] == recs


def test_csv_round_trip():
    recs = compute_records("C2", "K", (2, 1, 1, 0))
    header, *rows = csv.reader(records_to_csv(recs))
    assert header == ["algebra", "kind", "in", "out", "coeff"]
    for row in rows:
        parse(row[4])
    assert [TableRecord(alg, kind, tuple(map(int, inp.split(","))),
                        tuple(map(int, out.split(","))), coeff)
            for alg, kind, inp, out, coeff in rows] == recs


def test_csv_header_and_quoting(capsys):
    rc, out, _ = run(["compute", "--algebra", "A2", "--kind", "gamma",
                      "--in", "0,0,0", "--format", "csv"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "algebra,kind,in,out,coeff"
    assert lines[1] == 'A2,gamma,"0,0,0","0,0,0",1'


def test_json_key_order_fixed(capsys):
    rc, out, _ = run(["compute", "--algebra", "A2", "--kind", "gamma",
                      "--in", "0,0,0"], capsys)
    assert list(json.loads(out).keys()) == ["algebra", "kind", "in", "out",
                                            "coeff"]


# ---------------------------------------------------------------------------
# determinism


def test_byte_identical_runs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for path in (a, b):
        rc, _, _ = run(["compute", "--algebra", "C2", "--kind", "gamma",
                        "--max-height", "3", "--out", str(path)], capsys)
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_out_file_matches_stdout(tmp_path, capsys):
    rc, out, _ = run(["compute", "--algebra", "G2", "--kind", "F",
                      "--in", "0,1,0,1,0,1"], capsys)
    path = tmp_path / "f.json"
    rc2, _, _ = run(["compute", "--algebra", "G2", "--kind", "F",
                     "--in", "0,1,0,1,0,1", "--out", str(path)], capsys)
    assert rc == rc2 == 0
    assert path.read_text() == out


def test_out_path_that_cannot_be_written_exits_two(tmp_path, capsys):
    path = tmp_path / "missing" / "x"
    rc, out, err = run(["compute", "--algebra", "A2", "--kind", "R",
                        "--in", "1,0,0", "--out", str(path)], capsys)
    assert rc == 2 and out == ""
    assert err.startswith(f"qpbw: cannot write {path}: ")


@pytest.mark.parametrize("argv,attr", [
    (["compute", "--algebra", "C2", "--kind", "gamma"],
     (cli, "compute_records")),
    (["verify", "theorem", "--algebra", "C2", "--max-height", "14"],
     (cli, "run_suite")),
    (["selftest"], (verify, "selftest")),
], ids=["compute", "verify", "selftest"])
def test_out_path_is_checked_before_any_work(argv, attr, tmp_path,
                                             monkeypatch, capsys):
    def work(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(*attr, work)
    path = tmp_path / "missing" / "x"
    rc, out, err = run(argv + ["--out", str(path)], capsys)
    assert rc == 2 and out == ""
    assert err.startswith(f"qpbw: cannot write {path}: ")


# ---------------------------------------------------------------------------
# usage errors (exit 2) and check failures (exit 1)


USAGE_ERRORS = [
    (["compute", "--algebra", "A2", "--kind", "K", "--in", "1,1,1"],
     "kind K belongs to C2, not A2"),
    (["compute", "--algebra", "G2", "--kind", "R", "--in", "0,0,0,0,0,0"],
     "kind R belongs to A2, not G2"),
    (["compute", "--kind", "gamma", "--in", "0,0,0"],
     "compute needs --algebra and --kind"),
    (["compute", "--algebra", "A2", "--kind", "gamma", "--in", "1,2"],
     "A2 tuples have 3 entries, got (1, 2)"),
    (["compute", "--algebra", "A2", "--kind", "gamma", "--in", "1,x,2"],
     "not a comma-separated integer tuple: '1,x,2'"),
    (["compute", "--algebra", "A2", "--kind", "gamma", "--in", "1,-2,1"],
     "negative exponent in '1,-2,1'"),
    (["compute", "--algebra", "A2", "--kind", "gamma", "--in", "9,9,9"],
     "input sum 27 beyond height bound 8"),
    # a leading minus: argparse must hand the tuple to --in, not read a flag
    (["compute", "--algebra", "A2", "--kind", "gamma", "--in", "-1,0,0"],
     "negative exponent in '-1,0,0'"),
    (["compute", "--algebra", "A2", "--kind", "gamma", "--in=-1,0,0"],
     "negative exponent in '-1,0,0'"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
def test_usage_errors(argv, message, capsys):
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err == f"qpbw: {message}\n"


@pytest.mark.parametrize("argv, flag", [
    (["compute", "--algebra", "A2", "--kind", "R", "--max-height", "-1"],
     "--max-height"),
    (["verify", "theorem", "--max-height", "-1"], "--max-height"),
    (["verify", "tetra", "--max-occ", "-1"], "--max-occ"),
    (["verify", "intertwine", "--max-occ", "-1"], "--max-occ"),
])
def test_negative_bounds_exit_two(argv, flag, capsys):
    rc, out, err = run(argv, capsys)
    assert rc == 2 and out == ""
    assert err.startswith("qpbw: ") and flag in err


def test_failing_suite_exits_one(monkeypatch, capsys):
    bad = verify.VerifyReport(
        "tetrahedron", [verify.Check("occ1-exact", False, "state (1,)")], 0.1)
    monkeypatch.setattr(verify, "verify_tetrahedron", lambda **kw: bad)
    rc, out, _ = run(["verify", "tetra"], capsys)
    assert rc == 1
    assert out == "FAIL tetrahedron:occ1-exact  [state (1,)]\n"


@pytest.mark.parametrize("exc", [
    ArithmeticError("C2 block (3, 2): inconsistent system at row 7"),
    ZeroDivisionError("pole at q = 1/3"),
])
def test_arithmetic_error_exits_one(monkeypatch, capsys, exc):
    def broken(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "compute_records", broken)
    rc, out, err = run(["compute", "--algebra", "C2", "--kind", "K",
                        "--in", "2,1,1,0"], capsys)
    assert rc == 1
    assert out == ""
    assert err == f"qpbw: {exc}\n"


@pytest.fixture
def fresh_pbw_caches():
    caches = (pbw._rule_terms, pbw._word1_divided,
              pbw.transition_block)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


# 1 + q divides no q-integer in an even power of q, so dividing by it
# makes the next exact division on the gamma path inexact
_ONE_PLUS_Q = RationalFunction(LaurentPoly({0: 1, 1: 1}))


def _off_root_vector(monkeypatch):
    p = preset("C2")
    monkeypatch.setattr(p, "root_vectors1", tuple(
        (wp, den * _ONE_PLUS_Q) for wp, den in p.root_vectors1))


@pytest.mark.parametrize("patch,message", [
    (_off_root_vector, "inexact division in gamma of C2 at weight (1, 1), "
                       "row (0, 0, 1, 0), column (0, 1, 0, 0)\n"),
])
def test_inexact_division_exits_one(monkeypatch, capsys, fresh_pbw_caches,
                                    patch, message):
    patch(monkeypatch)
    rc, out, err = run(["compute", "--algebra", "C2", "--kind", "gamma",
                        "--in", "0,1,0,0"], capsys)
    assert rc == 1
    assert out == ""
    assert err == f"qpbw: {message}"


def test_inexact_division_in_a_sweep_exits_one(monkeypatch, capsys,
                                               fresh_pbw_caches):
    _off_root_vector(monkeypatch)
    rc, out, err = run(["compute", "--algebra", "C2", "--kind", "gamma",
                        "--max-height", "2"], capsys)
    assert rc == 1
    assert out == ""
    assert err == ("qpbw: inexact division in gamma of C2 at weight (0, 1), "
                   "row (1, 0, 0, 0), column (0, 0, 0, 1)\n")


# ---------------------------------------------------------------------------
# sweeps stream: the same records as one input at a time, and no cache grows

SWEEPS = [(name, kind, height)
          for name, height in (("A2", 6), ("C2", 5), ("G2", 4))
          for kind in ("gamma", "phi", ALGEBRA_KIND[name])]


@pytest.mark.parametrize("name,kind,height", SWEEPS)
def test_sweep_matches_one_input_at_a_time(name, kind, height):
    """A sweep walks the heights; each --in input reads its block from
    the process-wide caches (intertwiner.shared_phi, transition_block)."""
    label = 1 if kind == "phi" else 2
    inputs = [t for w in weights_up_to(name, height)
              for t in tuples_with_weight(name, label, w)]
    one_by_one = [r for t in inputs
                  for r in compute_records(name, kind, t, height)]
    one_by_one.sort(key=lambda r: (r.out, r.inp))
    assert one_by_one
    assert compute_records(name, kind, max_height=height) == one_by_one


def _gamma_records_by_probe(name, inputs):
    """gamma records built the way the row-dict emitter replaced: for each
    word-2 input A, every word-1 output B of its block read through
    TransitionBlock.gamma(reverse(A), reverse(B)), zeros skipped."""
    p = preset(name)
    records = []
    for A in inputs:
        weight = p.conserved2(A)
        tb = pbw.transition_block(name, weight)
        for B in tuples_with_weight(name, 1, weight):
            c = tb.gamma(reverse(A), reverse(B))
            if not c.is_zero():
                records.append(TableRecord(name, "gamma", A, B,
                                           canonical_string(c)))
    return sorted(records, key=lambda r: (r.out, r.inp))


@pytest.mark.parametrize("name,height", [("A2", 6), ("C2", 5), ("G2", 4)])
def test_gamma_records_match_entry_probes(name, height):
    """The gamma emitter iterates each row dict; probing every entry of
    the block gives the same records, for a sweep and for each --in."""
    inputs = [A for w in weights_up_to(name, height)
              for A in tuples_with_weight(name, 2, w)]
    want = _gamma_records_by_probe(name, inputs)
    assert want
    assert compute_records(name, "gamma", max_height=height) == want
    for A in inputs:
        assert compute_records(name, "gamma", A, height) \
            == _gamma_records_by_probe(name, [A]), A


def test_sweep_leaves_the_process_caches_alone(fresh_pbw_caches):
    shared_phi = intertwiner.shared_phi
    shared_phi.cache_clear()
    shared_phi("C2").block((1, 1))
    pbw.transition_block("C2", (1, 1))
    tables = shared_phi.cache_info().currsize
    before = set(shared_phi("C2")._blocks)
    rows = pbw._word1_divided.cache_info().currsize
    blocks = pbw.transition_block.cache_info().currsize
    for name, kind, height in SWEEPS:
        compute_records(name, kind, max_height=height)
    assert shared_phi.cache_info().currsize == tables
    assert set(shared_phi("C2")._blocks) == before
    assert pbw._word1_divided.cache_info().currsize == rows
    assert pbw.transition_block.cache_info().currsize == blocks


# ---------------------------------------------------------------------------
# verify dispatch and config


def test_verify_theorem_scoped(capsys):
    rc, out, _ = run(["verify", "theorem", "--algebra", "A2",
                      "--max-height", "3"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert "PASS theorem:A2-blocks-h3" in lines[0]
    assert all(ln.startswith("PASS theorem:A2") for ln in lines)


def test_verify_intertwine_scoped(capsys):
    rc, out, _ = run(["verify", "intertwine", "--algebra", "C2",
                      "--max-occ", "1"], capsys)
    assert rc == 0
    assert any("C2-generators-occ1" in ln for ln in out.splitlines())


def test_verify_fanout_merges_all_algebras(capsys):
    rc, out, _ = run(["verify", "theorem", "--max-height", "2"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 6      # blocks + golden column, three algebras
    for name in ("A2", "C2", "G2"):
        assert sum(name in ln for ln in lines) == 2


@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("suite, flag, value", [
    ("tetra", "--max-height", "50"),
    ("tetra", "--algebra", "A2"),
    ("reflect3d", "--max-height", "1"),
    ("reflect3d", "--algebra", "C2"),
    ("theorem", "--max-occ", "99"),
    ("props", "--max-occ", "1"),
])
def test_unread_option_exits_two(suite, flag, value, by_config, tmp_path,
                                 capsys):
    # a bound the suite does not read would otherwise pass at the defaults
    argv = ["verify", suite, flag, value]
    if by_config:
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{flag[2:]} = {value}\n")
        argv = ["verify", suite, "--config", str(cfg)]
    rc, out, err = run(argv, capsys)
    assert rc == 2 and out == ""
    assert err.startswith("qpbw: ") and flag in err and suite in err


def test_mode_option_is_gone(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("mode = exact\n")
    for argv in (["verify", "tetra", "--mode", "exact"],
                 ["verify", "tetra", "--config", str(cfg)]):
        rc, out, err = run(argv, capsys)
        assert rc == 2 and out == "" and "--mode" in err


def test_config_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("algebra = A2\nkind = R\nin = 3,1,4\nformat = csv\n"
                   "# comment\n\n")
    rc, out, _ = run(["compute", "--config", str(cfg)], capsys)
    assert rc == 0
    assert out.splitlines()[0] == "algebra,kind,in,out,coeff"
    rc, out, _ = run(["compute", "--config", str(cfg), "--format", "json"],
                     capsys)
    assert rc == 0
    assert out.lstrip().startswith("{")


@pytest.mark.parametrize("argv, config, rc, err", [
    (["selftest"], "max_occ = 3\n", 2,
     "qpbw: error: unrecognized arguments: --max-occ=3\n"),
    (["verify", "tetra"], "kind = R\n", 2,
     "qpbw: error: unrecognized arguments: --kind=R\n"),
    (["compute"], "algebra = A2\nkind = R\nin = 1,0,0\nmax-height = 2\n", 0,
     "1 records\n"),
], ids=["selftest-max_occ", "tetra-kind", "compute"])
def test_config_key_the_command_does_not_read(argv, config, rc, err,
                                              tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text(config)
    got_rc, out, got_err = run(argv + ["--config", str(cfg)], capsys)
    # argparse prints its usage line before the error line
    assert got_rc == rc
    assert got_err == err if rc == 0 else got_err.endswith(err)
    assert (out == "") == (rc == 2)


@pytest.mark.parametrize("argv, key, value", [
    (["verify", "theorem"], "algebra", "X3"),
    (["compute", "--algebra", "A2", "--kind", "R", "--in", "1,0,0"],
     "format", "xml"),
    (["compute", "--algebra", "A2", "--in", "1,0,0"], "kind", "Z"),
    (["verify", "reflect3d"], "max-occ", "-1"),
    (["verify", "tetra"], "max-height", "3"),
    (["compute", "--algebra", "A2", "--kind", "R"], "speed", "11"),
], ids=["theorem-algebra", "compute-format", "compute-kind",
        "reflect3d-max-occ", "tetra-max-height", "compute-speed"])
def test_config_line_fails_as_its_flag(argv, key, value, tmp_path, capsys):
    # a config line is read as its flag, so it fails the flag's way
    cfg = tmp_path / "cfg"
    cfg.write_text(f"{key} = {value}\n")
    by_flag = run(argv + [f"--{key}", value], capsys)
    by_config = run(argv + ["--config", str(cfg)], capsys)
    for rc, out, err in (by_flag, by_config):
        assert rc == 2 and out == "" and f"--{key}" in err


def test_config_bad_key_and_missing_file(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    for line in ("config = other\n", "conf = other\n"):
        cfg.write_text(line)
        rc, out, err = run(["compute", "--config", str(cfg)], capsys)
        assert rc == 2 and out == "" and "cannot set --config" in err
    cfg.write_text("speed\n")
    rc, _, err = run(["compute", "--config", str(cfg)], capsys)
    assert rc == 2 and "bad config line" in err
    rc, _, err = run(["compute", "--config", str(tmp_path / "nope")], capsys)
    assert rc == 2 and "cannot read config" in err


def test_selftest_command(capsys):
    rc, out, _ = run(["selftest"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert all(ln.startswith("PASS ") for ln in lines)
    suites = {ln.split()[1].split(":")[0] for ln in lines}
    assert suites == {"theorem", "properties", "tetrahedron",
                      "3d-reflection", "t-intertwining"}
