"""Verification suites with named checks and failure witnesses.

Each suite returns a VerifyReport listing (check id, passed, witness)
triples.  Every check is exact: it compares reduced rational functions
in Q(q), never values at chosen points.  A check is a stream of cases,
each None when it holds and its witness when it fails, run by one scan
(_scan): the scan stops at the first witness, and a pass reports how many
cases it ran.  The operator equations
(tetrahedron, 3D reflection) are run by applying the checked tables to
every occupation state of a multi-slot product space up to a total
occupation, with per-slot oscillator bases derived mechanically from the
operators' type signatures.  The properties of the xi operators are
instead proved for every occupation, with no bound: the q-Serre relations
as identities between canonical Fock operators, and the key property
rho(e_i) = pi(xi_i) at one ket whose entries are symbolic occupations.

The theorem's block check walks Phi and gamma up the heights side by
side (intertwiner.phi_blocks, pbw.transition_blocks), so a sweep keeps
only a window of heights of each alive.  Every other check reads blocks
by random access, from the process-wide caches intertwiner.shared_phi
and pbw.transition_block, which keep every block for the life of the
process and let the suites share them.
"""

import time
from collections import namedtuple
from functools import lru_cache
from itertools import combinations_with_replacement, product
from operator import add

from . import fock, pbw
from .intertwiner import CheckedTable, phi_blocks, shared_phi
from .presets import (
    ALGEBRAS, DEFAULT_HEIGHTS, KIND_ALGEBRA, preset, reverse,
    serre_relations, tuples_with_weight, weights_up_to, zero_tuple,
)
from .qfield import (
    ONE, ZERO, apply_on_slots, canonical_string, is_integer_polynomial,
    poch_run, qpow, rf, sum_products, vec_add,
)

Check = namedtuple("Check", ["check_id", "passed", "witness"])


class VerifyReport:
    """Outcome of one suite."""

    def __init__(self, suite, checks, duration):
        self.suite = suite
        self.checks = list(checks)
        self.duration = duration

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"{mark} {self.suite}:{c.check_id}"
            if c.witness:
                line += f"  [{c.witness}]"
            out.append(line)
        return out


def _scan(check_id, cases, summary):
    """Run one check: `cases` yields None for each case that holds and the
    witness string of a case that fails.  The scan stops at the first
    witness and fails the check with it; a pass has the witness summary(n),
    n the number of cases it ran."""
    n = 0
    for witness in cases:
        if witness is not None:
            return Check(check_id, False, witness)
        n += 1
    return Check(check_id, True, summary(n))


def _vec_string(vec):
    """A sparse vector as {key: canonical string}, in its own key order."""
    return "{" + ", ".join(f"{key}: {canonical_string(v)}"
                           for key, v in vec.items()) + "}"


def _difference(where, lhs, rhs):
    """None if two sparse vectors agree, else `where` followed by the first
    key, in sorted order, at which they differ and both values there."""
    if lhs != rhs:
        for key in sorted(lhs.keys() | rhs.keys()):
            a, b = lhs.get(key, ZERO), rhs.get(key, ZERO)
            if a != b:
                return (f"{where} {key}: "
                        f"{canonical_string(a)} != {canonical_string(b)}")
    return None


T_BOUNDS = {"A2": 4, "C2": 3, "G2": 2}

# Reference columns in canonical form: input tuple -> {output: coefficient}.
# The unit tests hold the same data as factored source expressions; here it
# is stored the way `compute` prints it.
GOLDEN_COLUMNS = {
    "A2": ((3, 1, 4), {
        (0, 4, 1): "-q^2 + q^6 + q^8 + q^10 - q^12 - q^14 - q^16 + q^20",
        (1, 3, 2): "1 - q^4 - 2q^6 - 2q^8 + 2q^12 + 3q^14 + 2q^16 - q^20 - q^22 - q^24",
        (2, 2, 3): "q^2 + q^4 + q^6 - q^8 - 2q^10 - 3q^12 - 2q^14 + q^18 + 2q^20 + q^22 + q^24",
        (3, 1, 4): "q^6 + q^8 + q^10 - q^14 - q^16 - q^18 - q^20",
        (4, 0, 5): "q^12",
    }),
    "C2": ((2, 1, 1, 0), {
        (1, 3, 0, 0): "q^8 - q^16",
        (2, 1, 1, 0): "-q^4 + q^12 - q^18",
        (2, 2, 0, 1): "-q^6 + q^14 + q^16 + q^18",
        (3, 0, 1, 1): "1 - q^8 + q^14",
        (3, 1, 0, 2): "-q^10 - q^12 - q^14",
        (4, 0, 0, 3): "q^4",
    }),
    "G2": ((0, 1, 0, 1, 0, 1), {
        (0, 0, 0, 2, 0, 0): "q^4 - 2q^6 + q^12",
        (0, 0, 1, 0, 0, 1): "-q + 2q^3 - q^7 - q^9 + q^13",
        (0, 1, 0, 0, 1, 0): "-q + 2q^3 - q^7 - q^9 + q^13",
        (0, 1, 0, 1, 0, 1): "1 - 2q^2 + 2q^6 + 3q^8 - 2q^12 - 2q^14 - q^16",
        (0, 2, 0, 0, 0, 2): "-2q^4 + 2q^10 + q^12 + q^14",
        (1, 0, 0, 0, 1, 1): "-q^3 + q^5 + q^9 - q^13",
        (1, 0, 0, 1, 0, 2): "q - q^3 - q^5 - q^7 + q^11 + q^13 + q^15",
        (1, 1, 0, 0, 0, 3): "q - q^7 - q^9 - q^11 - q^13",
        (2, 0, 0, 0, 0, 4): "q^4",
    }),
}


def shared_table(name):
    return CheckedTable(shared_phi(name))


# ---------------------------------------------------------------------------
# checked tables as operators on occupation states

class KetOperator:
    """A checked table acting on chosen slots of occupation states.

    apply(vec, slots) maps {state: coefficient} to its image under the
    table acting on the 1-based `slots` of every state, each other slot
    kept, in one pass of the slot kernel qfield.apply_on_slots.  Every
    column it reads comes through `column`, which returns the table's own
    column; the kernel reads that very dict, held here per input tuple,
    so an image may hold the very value objects of a column.
    """

    def __init__(self, name):
        self.table = shared_table(name)
        self.arity = preset(name).length
        self._columns = {}

    def column(self, inp):
        return self.table.column(inp)

    def _held_column(self, inp):
        col = self._columns.get(inp)
        if col is None:
            col = self._columns[inp] = self.column(inp)
        return col

    def apply(self, vec, slots):
        """Raises ValueError unless `slots` are `arity` distinct slots in
        1..len(state) and every state has the width of the first."""
        width = len(next(iter(vec))) if vec else None
        pos = _slot_positions(self.table.kind, self.arity, tuple(slots), width)
        return apply_on_slots(vec, pos, self._held_column)


@lru_cache(maxsize=None)
def _slot_positions(kind, arity, slots, width):
    """0-based positions of `slots`, checked against the states' width."""
    if (len(slots) != arity or len(set(slots)) != arity or min(slots) < 1
            or (width is not None and max(slots) > width)):
        within = f" in 1..{width}" if width is not None else ""
        raise ValueError(f"{kind} acts on {arity} distinct slots{within}, "
                         f"got {slots}")
    return tuple(s - 1 for s in slots)


# Sides are stored in application order (rightmost factor first).
TETRAHEDRON = {
    "slots": 6,
    "sides": (
        (("R", (1, 2, 3)), ("R", (1, 4, 5)), ("R", (2, 4, 6)), ("R", (3, 5, 6))),
        (("R", (3, 5, 6)), ("R", (2, 4, 6)), ("R", (1, 4, 5)), ("R", (1, 2, 3))),
    ),
}

REFLECTION_3D = {
    "slots": 9,
    "sides": (
        (("K", (1, 2, 3, 4)), ("K", (1, 6, 7, 8)), ("R", (2, 5, 8)),
         ("R", (2, 6, 9)), ("K", (3, 5, 7, 9)), ("R", (4, 8, 9)),
         ("R", (4, 5, 6))),
        (("R", (4, 5, 6)), ("R", (4, 8, 9)), ("K", (3, 5, 7, 9)),
         ("R", (2, 6, 9)), ("R", (2, 5, 8)), ("K", (1, 6, 7, 8)),
         ("K", (1, 2, 3, 4))),
    ),
}


def infer_slot_bases(n_slots, factors):
    """Per-slot oscillator base exponents forced by the factors' types.

    Returns every consistent full assignment {slot: d exponent}; raises
    ValueError if some slot is required with two different bases.
    """
    forced = {}
    for kind, slots in factors:
        p = preset(KIND_ALGEBRA[kind])
        profile = p.bases(2)
        if len(slots) != len(profile):
            raise ValueError(f"{kind} acts on {len(profile)} slots, got {slots}")
        for s, dexp in zip(slots, profile):
            if not 1 <= s <= n_slots:
                raise ValueError(f"slot {s} outside 1..{n_slots}")
            if forced.setdefault(s, dexp) != dexp:
                raise ValueError(
                    f"slot {s} would need oscillator bases q^{forced[s]} "
                    f"and q^{dexp}")
    free = [s for s in range(1, n_slots + 1) if s not in forced]
    choices = sorted(set(forced.values())) or [1]
    assigns = [forced]
    for s in free:
        assigns = [{**a, s: d} for a in assigns for d in choices]
    return [dict(sorted(a.items())) for a in assigns]


def _slot_base_check(eq):
    assigns = infer_slot_bases(eq["slots"], eq["sides"][0] + eq["sides"][1])
    groups = {}
    for s, d in assigns[0].items():
        groups.setdefault(d, []).append(s)
    witness = "; ".join(
        f"q^{d} slots {tuple(sorted(ss))}" if d > 1 else
        f"q slots {tuple(sorted(ss))}"
        for d, ss in sorted(groups.items()))
    if len(assigns) > 1:
        witness += f"; {len(assigns)} consistent assignments"
    return Check("slot-bases", len(assigns) == 1, witness)


def _states_with_total(width, max_total):
    """Every state of `width` slots with total occupation <= max_total, in
    ascending lexicographic order."""
    if width == 0:
        return [()]
    return [(v,) + rest for v in range(max_total + 1)
            for rest in _states_with_total(width - 1, max_total - v)]


def _equation_suite(suite, eq, max_occ, *singles):
    """The slot bases, then both sides of `eq` on the vacuum, on each
    (check id, [state]) of `singles`, and on every state with total
    occupation <= max_occ; each check stops at its first mismatch."""
    t0 = time.perf_counter()
    kinds = {kind for side in eq["sides"] for kind, _ in side}
    ops = {kind: KetOperator(KIND_ALGEBRA[kind]) for kind in kinds}

    def mismatch(state):
        done = []
        for side in eq["sides"]:
            vec = {state: ONE}
            for kind, slots in side:
                vec = ops[kind].apply(vec, slots)
            done.append(vec)
        return _difference(f"state {state} ->", *done)

    width = eq["slots"]
    checks = [_slot_base_check(eq)]
    occ = (f"occ{max_occ}-exact", _states_with_total(width, max_occ))
    for check_id, states in (("vacuum-exact", [(0,) * width]), *singles, occ):
        checks.append(_scan(check_id, map(mismatch, states), lambda n: None))
    return VerifyReport(suite, checks, time.perf_counter() - t0)


def verify_tetrahedron(max_occ=6):
    """Both products of four R factors agree on every 6-slot state with
    total occupation <= max_occ."""
    return _equation_suite("tetrahedron", TETRAHEDRON, max_occ)


def verify_3d_reflection(max_occ=3):
    """Both products of four K and three R factors agree on every 9-slot
    state with total occupation <= max_occ."""
    e5 = tuple(int(s == 5) for s in range(1, 10))
    return _equation_suite("3d-reflection", REFLECTION_3D, max_occ,
                           ("slot5-excitation-exact", [e5]))


# ---------------------------------------------------------------------------
# main theorem


def verify_theorem(heights=None, algebras=ALGEBRAS):
    """The PBW transition matrices equal the intertwiner matrices."""
    t0 = time.perf_counter()
    heights = {**DEFAULT_HEIGHTS, **(heights or {})}
    checks = []
    for name in algebras:
        h = heights[name]
        checks.append(_scan(f"{name}-blocks-h{h}", _block_cases(name, h),
                            "{} entries".format))
        expect = GOLDEN_COLUMNS[name][1]
        checks.append(_scan(
            f"{name}-golden-column", _golden_cases(name),
            lambda n: f"{len(expect)} entries via both routes"))
    return VerifyReport("theorem", checks, time.perf_counter() - t0)


def _block_cases(name, h):
    """Phi against gamma, entry by entry, on every block up to height h.

    Both sides are height walks, so only a window of heights of each is
    alive at a time, and neither process-wide cache grows."""
    for (wgt, columns), (_, tb) in zip(phi_blocks(name, h),
                                       pbw.transition_blocks(name, h)):
        for c_out, b_in in product(tuples_with_weight(name, 2, wgt),
                                   tuples_with_weight(name, 1, wgt)):
            a = columns[b_in].get(c_out, ZERO)
            b = tb.gamma(reverse(c_out), reverse(b_in))
            yield None if a == b else (
                f"weight {wgt} out {c_out} in {b_in}: "
                f"{canonical_string(a)} != {canonical_string(b)}")


def _golden_cases(name):
    """The golden column, read from the table (support, then entries) and
    through gamma (every output of its block)."""
    inp, expect = GOLDEN_COLUMNS[name]
    tab = shared_table(name)
    tb = pbw.transition_block(name, preset(name).conserved2(inp))
    got = {c: canonical_string(v) for c, v in tab.column(inp).items()}
    off = sorted(set(expect) ^ set(got))
    yield f"support differs at {off}" if off else None
    for c in sorted(expect):
        yield None if got[c] == expect[c] else f"{c}: {got[c]} != {expect[c]}"
    for c_out in tab.block_outputs(inp):
        g = canonical_string(tb.gamma(reverse(c_out), inp))
        yield None if g == expect.get(c_out, "0") else (
            f"transition route differs at {c_out}" if c_out in expect else
            f"transition route nonzero off-support at {c_out}")


# ---------------------------------------------------------------------------
# property suite


def _poch_product(p, tup):
    out = ONE
    for m, d in zip(tup, p.bases(2)):
        out = out * poch_run(0, m, d)
    return out


def _involution_cases(name, tab, wset):
    """Each column of the table, squared, is the unit column."""
    for wgt in wset:
        block = tuples_with_weight(name, 2, wgt)
        for inp in block:
            acc = sum_products((out, v2, v1)
                               for mid, v1 in tab.column(inp).items()
                               for out, v2 in tab.column(mid).items())
            bad = next((out for out in block if acc.get(out, ZERO)
                        != (ONE if out == inp else ZERO)), None)
            yield None if bad is None else (
                f"weight {wgt} square[{bad},{inp}] = "
                f"{canonical_string(acc.get(bad, ZERO))}")


def _reversal_cases(name, tab, wset):
    for wgt in wset:
        for inp in tuples_with_weight(name, 2, wgt):
            for out, v in tab.column(inp).items():
                yield None if v == tab.entry(reverse(out), reverse(inp)) \
                    else f"({out},{inp}) vs reversed pair"


def _transpose_ratio_cases(name, tab, wset, p):
    for wgt in wset:
        block = tuples_with_weight(name, 2, wgt)
        poch = {t: _poch_product(p, t) for t in block}
        for out, inp in combinations_with_replacement(block, 2):
            yield None if (tab.entry(out, inp) * poch[out]
                           == tab.entry(inp, out) * poch[inp]) \
                else f"weight {wgt} pair ({out},{inp})"


def _conservation_cases(name, tab, wset):
    for wgt in wset:
        block = set(tuples_with_weight(name, 2, wgt))
        for inp in sorted(block):
            for out in tab.column(inp):
                yield None if out in block \
                    else f"nonzero entry ({out},{inp}) crosses blocks"


def _integrality_cases(name, wset):
    for wgt in wset:
        tb = pbw.transition_block(name, wgt)
        for a_row, b_col in product(tuples_with_weight(name, 1, wgt),
                                    tuples_with_weight(name, 2, wgt)):
            v = tb.gamma(a_row, b_col)
            yield None if is_integer_polynomial(v) \
                else f"gamma[{a_row},{b_col}] = {canonical_string(v)}"


def _r0_input(out):
    a, b, c = out
    return (b + max(a - c, 0), min(a, c), b + max(c - a, 0))


def _k0_input(out):
    a, b, c, d = out
    x = max(c - a + max(d - b, 0), 0)
    return (x + a + b - d,
            c + d - x - min(a, c + x),
            min(a, c + x),
            b + max(c - a + x, 0))


_Q0_INPUT = {"A2": _r0_input, "C2": _k0_input}


def _q0_cases(name, tab, wset):
    """Each entry lies in Z[q], and its value at q = 0 is 1 where inp is
    _Q0_INPUT's image of out and 0 elsewhere."""
    for wgt in wset:
        block = tuples_with_weight(name, 2, wgt)
        for out, inp in product(block, block):
            v = tab.entry(out, inp)
            if not is_integer_polynomial(v):
                yield (f"weight {wgt} [{out},{inp}] = {canonical_string(v)}, "
                       f"not in Z[q]")
                continue
            v = v.constant_term()
            want = int(inp == _Q0_INPUT[name](out))
            yield None if v == want \
                else f"weight {wgt} [{out},{inp}] -> {v}, expected {want}"


class _Occ(namedtuple("_Occ", ["c", "k"])):
    """A symbolic occupation sum_s c[s] t_s + k.  It is >= 0, so
    presets._emit keeps every term: where t + delta is negative at some
    ket, the key-prop check's lowering run vanishes."""

    def __add__(self, o):
        if type(o) is _Occ:
            return _Occ(tuple(map(add, self.c, o.c)), self.k + o.k)
        return _Occ(self.c, self.k + o)

    def __mul__(self, n):
        return _Occ(tuple(n * x for x in self.c), n * self.k)

    def __neg__(self):
        return self * -1

    def __sub__(self, o):
        return self + -o

    __radd__, __rmul__ = __add__, __mul__

    def __ge__(self, n):
        return True

    def power_of_q(self):
        return _KPoly({_vsum(self.c, ()): qpow(self.k)})


def _vsum(a, b):
    v = tuple(map(add, a, b)) if a and b else a or b
    return v if any(v) else ()


class _KPoly(dict):
    """A Laurent polynomial in the X_s = q^(t_s) over Q(q): {exponent
    vector, () for the zero vector: nonzero element of Q(q)}.  An int or
    an element of Q(q) as an operand stands for a constant."""

    @staticmethod
    def of(x):
        return x if type(x) is _KPoly else _KPoly({(): rf(x)} if x else {})

    def __add__(self, o):
        return _KPoly(vec_add(self, _KPoly.of(o)))

    def __mul__(self, o):
        return _KPoly(sum_products((_vsum(a, b), x, y) for a, x in self.items()
                                   for b, y in _KPoly.of(o).items()))

    def __neg__(self):
        return self * -1

    def __sub__(self, o):
        return self + -_KPoly.of(o)

    def __rsub__(self, o):
        return -self + o

    __radd__, __rmul__ = __add__, __mul__


def _symbolic_ket(length):
    return tuple(_Occ(tuple(int(r == s) for r in range(length)), 0)
                 for s in range(length))


def _key_prop_check(name):
    return _scan(f"{name}-key-prop", _key_prop_cases(name),
                 "{} shift identities, all occupations".format)


def _key_prop_cases(name):
    """rho(e_i) = pi(xi_i) at a symbolic ket, so for every occupation.

    Both sides are read in the one normalisation: pbw.rho_column on
    divided monomials B^(A), fock.xi_bar_op = xi_i / lambda_i on bare kets
    |A>.  The scaled ket |m>> is [m]! / (p^2; p^2)_m times |m>, so B^(A)
    corresponds to |A> / P(A), with P(t) = prod_k (p_k^2; p_k^2)_{t_k} in
    the word's slot bases, and each entry b of xi_bar_op and the matching
    rho coefficient c must satisfy b P(u) = (1 - q_i^2) c P(A).  This is an
    invertible diagonal change of basis, so the check is as strong as
    comparing scaled kets with plain powers.  The two sides are
    cross-multiplied slot by slot, each by the Pochhammer run of the slots
    where its P is the larger.

    A is the ket t of symbolic occupations t_s, read through the rules and
    fock.apply_op as they stand: each output is t + delta for a constant
    delta, each side a Laurent polynomial in the q^(t_s), and equal
    polynomials agree at every ket.  One case per word, letter and delta.
    """
    p = preset(name)
    ket = _symbolic_ket(p.length)
    for label, i in product((1, 2), (1, 2)):
        bases = p.bases(label)
        bar = fock.xi_bar_op(name, label, i)
        scale = ONE - qpow(2 * p.d[i])
        sides = (fock.apply_op(name, label, bar, {ket: ONE}),
                 pbw.rho_column(name, label, i, ket))
        right, left = ({tuple(x.k for x in u): _KPoly.of(v)
                        for u, v in vec.items()} for vec in sides)
        for delta in sorted(left.keys() | right.keys()):
            b = right.get(delta, _KPoly())
            c = left.get(delta, _KPoly()) * scale
            for x, dx, d in zip(ket, delta, bases):
                if dx > 0:
                    b = b * poch_run(x, dx, d)
                elif dx < 0:
                    c = c * poch_run(x + dx, -dx, d)
            yield None if b == c else f"word {label} e_{i} shift {delta}"


def _serre_pbw_check(name):
    return _scan(f"{name}-serre-pbw", (
        f"pair {pair}: residual at {min(r)} -> {canonical_string(r[min(r)])}"
        if r else None for pair, r in pbw.serre_residuals(name)),
        lambda n: "all sums normal-order to zero")


def _serre_fock_check(name):
    return _scan(f"{name}-serre-fock", _serre_fock_cases(name),
                 "{} operator sums vanish, all occupations".format)


def _serre_fock_cases(name):
    """The q-Serre relations of the xi operators, as operator identities.

    For each word and ordered pair (i, j), the sum of presets.serre_relations
    that serre-pbw normal-orders, sum_r (-1)^r [1 - a_ij choose r]_i
    e_i^r e_j e_i^(1-a_ij-r), is evaluated by fock.op_polynomial in fock's
    canonical operator form, each letter i read as the Laurent operator
    xi_i/lambda_i of fock.xi_bar_op: this is the divided-power Serre sum
    cleared by the nonzero constant [1 - a_ij]_i! lambda_i^(1-a_ij)
    lambda_j.  The canonical form reduces by a-a+ = 1 - p^2 k^2 and
    a+a- = 1 - k^2, which hold on every bare ket, so a sum that comes out
    exactly {} kills every occupation.
    """
    for label, ((i, j), wp) in product((1, 2), serre_relations(name)):
        total = fock.op_polynomial(
            name, label, ((c, w) for w, c in wp.items()),
            lambda x: fock.xi_bar_op(name, label, x))
        first = min(total, default=None)
        yield None if first is None else (
            f"word {label} pair ({i},{j}): {len(total)} canonical terms, "
            f"first {first} -> {canonical_string(total[first])}")


def verify_properties(heights=None, algebras=ALGEBRAS):
    """Structural identities of the tables and representations."""
    t0 = time.perf_counter()
    heights = {**DEFAULT_HEIGHTS, **(heights or {})}
    checks = []
    for name in algebras:
        p = preset(name)
        tab = shared_table(name)
        wset = list(weights_up_to(name, heights[name]))
        gold = p.conserved2(GOLDEN_COLUMNS[name][0])
        if gold not in wset:
            wset.append(gold)
        checks.append(_scan(f"{name}-involution",
                            _involution_cases(name, tab, wset),
                            lambda n: f"{n} columns over {len(wset)} blocks"))
        if name == "A2":
            checks.append(_scan(f"{name}-reversal",
                                _reversal_cases(name, tab, wset),
                                "{} entries".format))
        checks.append(_scan(f"{name}-transpose-ratio",
                            _transpose_ratio_cases(name, tab, wset, p),
                            "{} pairs".format))
        checks.append(_scan(f"{name}-conservation",
                            _conservation_cases(name, tab, wset),
                            "{} nonzero entries".format))
        checks.append(_scan(f"{name}-gamma-integrality",
                            _integrality_cases(name, wset),
                            "{} entries".format))
        if name in _Q0_INPUT:
            checks.append(_scan(f"{name}-q0-delta",
                                _q0_cases(name, tab, wset),
                                "{} entries".format))
        checks.append(_key_prop_check(name))
        checks.append(_serre_pbw_check(name))
        checks.append(_serre_fock_check(name))
    return VerifyReport("properties", checks, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# intertwining of the full generator matrix


def verify_t_intertwining(bounds=None, heights=None, algebras=ALGEBRAS):
    """Phi pi_1(t_jk) == pi_2(t_jk) Phi for every generator t_jk.

    Kets are enumerated by index sum up to ``bounds``.  A (generator, ket)
    pair is only checked when every image ket stays inside a weight block
    within ``heights`` — blocks beyond the computed range are skipped and
    counted in the witness.  At the default bounds and heights A2 skips 5
    pairs, C2 29 and G2 528; G2 needs every height at 16 to skip none.
    """
    t0 = time.perf_counter()
    bounds = {**T_BOUNDS, **(bounds or {})}
    heights = {**DEFAULT_HEIGHTS, **(heights or {})}
    checks = []
    for name in algebras:
        p = preset(name)
        # t_11 starts with a lowering factor and kills the vacuum; the
        # anti-diagonal entry t_{1,n} is the all-k path and fixes it up to
        # a sign.
        vac = zero_tuple(name)
        killed = fock.apply_op(name, 1, fock.pi_generator(name, 1, 1, 1),
                               {vac: ONE})
        fixed = fock.apply_op(
            name, 1, fock.pi_generator(name, 1, 1, p.n_gen), {vac: ONE})
        ok = (killed == {} and set(fixed) == {vac}
              and fixed[vac] * fixed[vac] == ONE)
        checks.append(Check(
            f"{name}-t-vacuum", ok, None if ok else
            f"t_11|0> = {_vec_string(killed)}, "
            f"t_1{p.n_gen}|0> = {_vec_string(fixed)}"))
        skipped = []
        checks.append(_scan(
            f"{name}-generators-occ{bounds[name]}",
            _generator_cases(name, bounds[name], heights[name], skipped),
            lambda n: f"{n} (generator, ket) pairs" + (
                f", {len(skipped)} beyond block range" if skipped else "")))
    return VerifyReport("t-intertwining", checks, time.perf_counter() - t0)


def _generator_cases(name, bound, height, skipped):
    """Phi pi_1(t_jk)|ket> against pi_2(t_jk) Phi|ket>, for every generator
    and every ket of index sum <= bound whose image under pi_1(t_jk) stays
    in the blocks up to `height`; each other ket is appended to `skipped`."""
    p = preset(name)
    phi = shared_phi(name)
    allowed = set(weights_up_to(name, height))
    kets = _states_with_total(p.length, bound)

    def phi_column(ket):
        return phi.block(p.conserved1(ket))[ket]

    for j, k in product(range(1, p.n_gen + 1), repeat=2):
        op1, op2 = (fock.pi_generator(name, word, j, k) for word in (1, 2))
        for ket in kets:
            moved = fock.apply_op(name, 1, op1, {ket: ONE})
            if any(p.conserved1(b2) not in allowed for b2 in moved):
                skipped.append(ket)
                continue
            lhs = sum_products((out, v, c) for b2, c in moved.items()
                               for out, v in phi_column(b2).items())
            rhs = fock.apply_op(name, 2, op2, phi_column(ket))
            yield _difference(f"t_{j}{k} ket {ket} out", lhs, rhs)


def selftest():
    """A fast subset of every suite."""
    return [
        verify_theorem(heights={"A2": 4, "C2": 4, "G2": 3}),
        verify_properties(heights={"A2": 3, "C2": 3, "G2": 2}),
        verify_tetrahedron(max_occ=1),
        verify_3d_reflection(max_occ=1),
        verify_t_intertwining(bounds={"A2": 2, "C2": 1, "G2": 0}),
    ]
