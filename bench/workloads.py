"""Workload inputs and correctness gates; imports nothing from qpbw.

Each gate takes a workload's outputs and returns a `Gate`: operations
attempted, operations failed, and the first failure as a witness.  An
operation is one record (tables), one check line (selftest) or one state
(equations).
"""

import hashlib
import json
import os
import random
from collections import namedtuple

WORKLOADS = ("tables", "selftest", "equations")

# Which workloads draw their inputs from --seed; the others are fixed.
USES_SEED = {"tables": False, "selftest": False, "equations": True}

# (algebra, checked kind, max height) of the three `tables` sweeps.
SWEEPS = (("A2", "R", 12), ("C2", "K", 10), ("G2", "F", 7))

# (equation, slots, largest total occupation) for the `equations` draw.
EQUATION_BOUNDS = (("tetrahedron", 6, 8), ("reflection", 9, 3))
STATES_PER_TOTAL = 400

# (algebra, largest input total) of the operator columns the `equations`
# gate checks against the PBW route.  The states use every R column of
# total at most 8, and K columns up to total 6; checking K beyond total 3
# would cost ~3 s an iteration.
CHECKED_COLUMNS = (("A2", 8), ("C2", 3))

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")

Gate = namedtuple("Gate", ["attempted", "failed", "witness"])


def load_pins():
    with open(PINS_PATH) as fh:
        return json.load(fh)


def sweep_key(algebra, kind, height):
    return f"{algebra}/{kind}/h{height}"


def jsonl_sha256(lines):
    """sha256 of the bytes `qpbw compute` writes for these lines."""
    text = "\n".join(lines) + ("\n" if lines else "")
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# equations: seeded occupation states


def composition(rng, total, width):
    """A uniform weak composition of `total` into `width` parts."""
    cuts = sorted(rng.sample(range(total + width - 1), width - 1))
    parts, prev = [], -1
    for c in cuts + [total + width - 1]:
        parts.append(c - prev - 1)
        prev = c
    return tuple(parts)


def draw_states(seed, per_total=STATES_PER_TOTAL):
    """[(equation, state)]: per_total draws for every total up to a bound."""
    rng = random.Random(seed)
    out = [(eq, composition(rng, total, width))
           for eq, width, top in EQUATION_BOUNDS
           for total in range(top + 1)
           for _ in range(per_total)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# gates


def _merge(gates):
    witness = next((g.witness for g in gates if g.witness), None)
    return Gate(sum(g.attempted for g in gates),
                sum(g.failed for g in gates), witness)


def tables_gate(sweeps, golden, pins):
    """Gate the `tables` output.

    sweeps: [(algebra, kind, height, checked records, gamma records,
    checked json lines, gamma json lines)], records being objects with
    inp, out and coeff.  Every checked record (in=I, out=C) must equal
    the gamma record (in=C, out=reverse(I)) and the other way round; the
    golden column must appear exactly; each kind's json lines must hash
    to the pinned sha256.
    """
    gates = []
    for alg, kind, height, checked, gamma, checked_lines, gamma_lines \
            in sweeps:
        gates.append(_pairing_gate(alg, checked, gamma))
        gates.append(_golden_gate(alg, checked, golden[alg]))
        for k, lines in ((kind, checked_lines), ("gamma", gamma_lines)):
            key = sweep_key(alg, k, height)
            ok = jsonl_sha256(lines) == pins["tables"].get(key)
            gates.append(Gate(1, 0 if ok else 1,
                              None if ok else f"{key}: sha256 differs"))
    return _merge(gates)


def _pairing_gate(alg, checked, gamma):
    by_key = {(r.inp, r.out): r.coeff for r in gamma}
    mates = {(r.out, tuple(reversed(r.inp))): r.coeff for r in checked}
    failed, witness = 0, None
    for r in checked:
        if by_key.get((r.out, tuple(reversed(r.inp)))) != r.coeff:
            failed += 1
            witness = witness or (f"{alg} checked in={r.inp} out={r.out}: "
                                  f"no equal gamma record")
    for key, coeff in by_key.items():
        if mates.get(key) != coeff:
            failed += 1
            witness = witness or f"{alg} gamma in={key[0]} out={key[1]}: " \
                                 f"no equal checked record"
    return Gate(len(checked) + len(gamma), failed, witness)


def _golden_gate(alg, checked, golden):
    inp, expect = golden
    got = {r.out: r.coeff for r in checked if r.inp == inp}
    return column_gate(f"{alg} golden column {inp}", got, expect)


def column_gate(what, got, want):
    """got, want: {output: canonical coefficient}; one check per output."""
    keys = sorted(set(got) | set(want))
    bad = [k for k in keys if got.get(k) != want.get(k)]
    return Gate(len(keys), len(bad),
                f"{what} differs at {bad[0]}" if bad else None)


def selftest_gate(lines, pinned):
    """Every line must PASS and equal the pinned line at its position."""
    n = max(len(lines), len(pinned))
    failed, witness = 0, None
    for i in range(n):
        got = lines[i] if i < len(lines) else None
        want = pinned[i] if i < len(pinned) else None
        if got is None or got != want or not got.startswith("PASS "):
            failed += 1
            witness = witness or f"line {i + 1}: {got!r} != {want!r}"
    return Gate(n, failed, witness)


def state_witness(eq, state, lhs, rhs):
    """None if both sides of the equation map `state` to the same image."""
    return None if lhs == rhs else f"{eq} state {state}: sides differ"


def equations_gate(witnesses, columns):
    """Gate the `equations` output.

    witnesses: one state_witness result per drawn state.  columns:
    [(what, got, want)] for column_gate, one per operator column that
    CHECKED_COLUMNS names, and the golden columns.  Both sides of an
    equation use the same columns, so the states alone would pass a
    column rescaled by a constant or a per-slot gauge; the columns are
    checked on their own.
    """
    bad = [w for w in witnesses if w is not None]
    states = Gate(len(witnesses), len(bad), bad[0] if bad else None)
    return _merge([states] + [column_gate(*c) for c in columns])
