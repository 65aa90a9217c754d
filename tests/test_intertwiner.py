"""Blockwise intertwiner recursion, checked tables, golden columns."""

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from qpbw import intertwiner
from qpbw.fock import apply_op, xi_bar_op
from qpbw.intertwiner import (
    CheckedTable, PhiTable, solve_exact,
)
from qpbw.pbw import transition_block
from qpbw.presets import (
    ONE, ZERO, preset, qpow, reverse, rf, tuples_with_weight, weights_up_to,
    zero_tuple,
)
from qpbw.qfield import (
    LaurentPoly, RationalFunction, canonical_string, d_norm, exact_quotient,
    q_factorial, sum_products, vec_add, vec_scale,
)

Q = qpow(1)


def val(s):
    """Evaluate a coefficient written in source form, e.g. "q^2*(1-q^4)"."""
    return eval(s.replace("^", "**"), {"q": Q})


def _d(name, label, t):
    """D(t) = prod_k d_norm(t_k, d_k): the scaled ket is |t>> = D(t)|t>."""
    p = preset(name)
    out = ONE
    for m, node in zip(t, p.word(label)):
        out = out * d_norm(m, p.d[node])
    return out


def _to_scaled(name, C, B, v):
    """A bare-ket entry of Phi on scaled kets: v * D(B) / D(C)."""
    return v * _d(name, 1, B) / _d(name, 2, C)


def _columns_to_scaled(name, columns):
    """A bare-ket block's columns, each entry moved to scaled kets."""
    return {B: {C: _to_scaled(name, C, B, v) for C, v in col.items()}
            for B, col in columns.items()}


def _canonical(columns):
    return {B: {C: canonical_string(v) for C, v in col.items()}
            for B, col in columns.items()}


def _entry(phi, C, B):
    """Phi^C_B, read through the block of the input B."""
    return phi.block(phi.preset.conserved1(B))[B].get(C, ZERO)


def _factorials(name, label, t):
    """prod_k [t_k]! in the base of the word's k-th letter."""
    p = preset(name)
    out = ONE
    for x, node in zip(t, p.word(label)):
        out = out * rf(q_factorial(x, p.d[node]))
    return out


GOLDEN = {
    "A2": ((3, 1, 4), {
        (0, 4, 1): "-q^2*(1-q^4)*(1-q^6)*(1-q^8)",
        (1, 3, 2): "(1-q^6)*(1-q^8)*(1-q^4-q^6-q^8-q^10)",
        (2, 2, 3): "q^2*(1+q^2)*(1+q^4)*(1-q^6)*(1-q^6-q^10)",
        (3, 1, 4): "q^6*(1+q^2+q^4-q^8-q^10-q^12-q^14)",
        (4, 0, 5): "q^12",
    }),
    "C2": ((2, 1, 1, 0), {
        (1, 3, 0, 0): "q^8*(1-q^8)",
        (2, 1, 1, 0): "-q^4*(1-q^8+q^14)",
        (2, 2, 0, 1): "-q^6*(1+q^2)*(1-q^2+q^4-q^6-q^10)",
        (3, 0, 1, 1): "1-q^8+q^14",
        (3, 1, 0, 2): "-q^10*(1-q+q^2)*(1+q+q^2)",
        (4, 0, 0, 3): "q^4",
    }),
    "G2": ((0, 1, 0, 1, 0, 1), {
        (0, 0, 0, 2, 0, 0): "q^4*(1-q^2)*(1-q^2-q^4-q^6)",
        (0, 0, 1, 0, 0, 1): "-q*(1-q^2)*(1-q^2-q^4+q^8+q^10)",
        (0, 1, 0, 0, 1, 0): "-q*(1-q^2)*(1-q^2-q^4+q^8+q^10)",
        (0, 1, 0, 1, 0, 1): "1-2*q^2+2*q^6+3*q^8-2*q^12-2*q^14-q^16",
        (0, 2, 0, 0, 0, 2): "q^4*(-2+2*q^6+q^8+q^10)",
        (1, 0, 0, 0, 1, 1): "-q^3*(1-q^2)*(1-q^6-q^8)",
        (1, 0, 0, 1, 0, 2): "q*(1-q^2-q^4-q^6+q^10+q^12+q^14)",
        (1, 1, 0, 0, 0, 3): "q*(1-q+q^2)*(1+q+q^2)*(1-q^2-q^8)",
        (2, 0, 0, 0, 0, 4): "q^4",
    }),
}


# ---------------------------------------------------------------------------
# the exact solver


def test_solve_exact_unique():
    P = [{"x": ONE, "y": Q}, {"y": ONE}]
    Qm = [{"a": Q * Q}, {"a": rf(3)}]
    Y = solve_exact(P, Qm, ("x", "y"))
    assert Y == {"x": {"a": Q * Q - rf(3) * Q}, "y": {"a": rf(3)}}
    assert list(Y) == ["x", "y"]


def test_solve_exact_overdetermined_consistent():
    # third row is the sum of the first two; the pivot 1 - q divides
    P = [{0: ONE}, {1: ONE - Q}, {0: ONE, 1: ONE - Q}]
    Qm = [{0: Q}, {0: Q ** 3 - Q ** 4}, {0: Q + Q ** 3 - Q ** 4}]
    assert solve_exact(P, Qm, (0, 1)) == {0: {0: Q}, 1: {0: Q ** 3}}


def test_solve_exact_non_laurent_solution():
    # the unique solution y = q^3 / (1 - q) is not a Laurent polynomial
    with pytest.raises(ArithmeticError,
                       match=r"^inexact division in Y\[1\]\[0\]$"):
        solve_exact([{0: ONE}, {1: ONE - Q}], [{0: Q}, {0: Q ** 3}], (0, 1))


def test_solve_exact_rank_deficient():
    with pytest.raises(ArithmeticError,
                       match="^no row has a single unknown left$"):
        solve_exact([{0: ONE, 1: Q}, {0: Q, 1: Q * Q}], [{0: ONE}, {0: Q}],
                    (0, 1))


def test_solve_exact_inconsistent():
    with pytest.raises(ArithmeticError, match="^inconsistent system: "
                       "nonzero residual at row 0$"):
        solve_exact([{0: ONE}, {1: ONE}, {0: ONE, 1: ONE}],
                    [{0: ONE}, {0: ONE}, {0: Q}], (0, 1))


def test_solve_exact_underdetermined():
    with pytest.raises(ArithmeticError, match=r"^underdetermined system "
                       r"\(1 rows, 2 unknowns\)$"):
        solve_exact([{0: ONE, 1: Q}], [{0: ONE}], (0, 1))


def test_solve_exact_unknown_in_no_row():
    # as many rows as unknowns, but no row names "y"
    with pytest.raises(ArithmeticError,
                       match="^no row has a single unknown left$"):
        solve_exact([{"x": ONE}, {"x": Q}], [{0: ONE}, {0: Q}], ("x", "y"))


def test_solve_exact_row_names_no_unknown():
    # a row that names "z", which is not among the unknowns, is rejected
    # before substitution, not read as a missing index
    with pytest.raises(ArithmeticError,
                       match="^row 0 names 'z', not an unknown$"):
        solve_exact([{"z": ONE}], [{0: ONE}], ("x",))


def test_solve_exact_drops_zero_entries():
    # y's column-0 entry is Q - Q, which cancels in the substitution
    P = [{"x": ONE}, {"x": ONE, "y": ONE}]
    Qm = [{0: Q, 1: ONE}, {0: Q, 1: Q}]
    Y = solve_exact(P, Qm, ("x", "y"))
    assert Y == {"x": {0: Q, 1: ONE}, "y": {1: Q - ONE}}
    assert all(v for col in Y.values() for v in col.values())


# ---------------------------------------------------------------------------
# the recursion


def test_zero_block_is_one():
    for name in ("A2", "C2", "G2"):
        z = zero_tuple(name)
        assert PhiTable(name).block((0, 0)) == {z: {z: ONE}}


def test_a2_block_11_values():
    bare = PhiTable("A2").block((1, 1))
    assert list(bare) == [(0, 1, 0), (1, 0, 1)]
    scaled = _columns_to_scaled("A2", bare)
    assert scaled[(0, 1, 0)][(0, 1, 0)] == -Q
    assert scaled[(1, 0, 1)][(0, 1, 0)] == ONE
    assert scaled[(0, 1, 0)][(1, 0, 1)] == ONE - Q * Q
    assert scaled[(1, 0, 1)][(1, 0, 1)] == Q


def test_transpose_of_pbw_tilde():
    # Phi on scaled kets is the transpose of the plain-power transition
    # matrix gamma-tilde^B_C = gamma^B_C * F1(B) / F2(C)
    for name, hmax in (("A2", 4), ("C2", 4), ("G2", 3)):
        phi = PhiTable(name)
        for w in weights_up_to(name, hmax):
            tb = transition_block(name, w)
            for C in tuples_with_weight(name, 2, w):
                for B in tuples_with_weight(name, 1, w):
                    phi_tilde = _to_scaled(name, C, B,
                                           phi.block(w)[B].get(C, ZERO))
                    tilde = (tb.gamma(B, C) * _factorials(name, 1, B)
                             / _factorials(name, 2, C))
                    assert phi_tilde == tilde, (name, w, C, B)


def test_divided_power_conversion():
    phi = PhiTable("A2")
    p = preset("A2")
    div = phi.block((1, 1))
    scaled = _scaled_blocks("A2", 2)[(1, 1)]
    for C in tuples_with_weight("A2", 2, (1, 1)):
        for B in tuples_with_weight("A2", 1, (1, 1)):
            num = den = ONE
            for m, node in zip(C, p.word2):
                num = num * d_norm(m, p.d[node])
            for m, node in zip(B, p.word1):
                den = den * d_norm(m, p.d[node])
            want = scaled[B].get(C, ZERO) * num / den
            assert div[B].get(C, ZERO) == want


def test_phi_conservation_short_circuit():
    phi = PhiTable("A2")
    # (1,0,0) on word 1 reverses to (0,0,1): conserved pair (0,1) vs (1,0)
    assert _entry(phi, (1, 0, 0), (1, 0, 0)) == ZERO
    assert _entry(phi, (0, 1, 0), (0, 0, 0)) == ZERO
    # matching conservation across different slot patterns is a 1x1 block
    assert _entry(phi, (1, 0, 0), (0, 0, 1)) == ONE


def test_main_theorem_low_blocks():
    for name, hmax in (("A2", 4), ("C2", 4), ("G2", 3)):
        phi = PhiTable(name)
        for w in weights_up_to(name, hmax):
            columns = phi.block(w)
            tb = transition_block(name, w)
            for C in tuples_with_weight(name, 2, w):
                for B in tuples_with_weight(name, 1, w):
                    assert columns[B].get(C, ZERO) \
                        == tb.gamma(reverse(C), reverse(B)), (name, w, C, B)


def _filled(name, max_height):
    """A PhiTable holding every block up to max_height."""
    phi = PhiTable(name)
    for w in weights_up_to(name, max_height):
        phi.block(w)
    return phi


def test_phi_table_fills_and_validates():
    phi = _filled("A2", 3)
    assert set(weights_up_to("A2", 3)) <= set(phi._blocks)
    with pytest.raises(ValueError):
        PhiTable("C2").block((-1, 0))


@pytest.mark.parametrize("name,hmax", (("A2", 6), ("C2", 5), ("G2", 4)))
def test_block_layout_is_column_major(name, hmax):
    # one column per input, nonzero entries only, outputs in row order
    phi = PhiTable(name)
    for w in weights_up_to(name, hmax):
        columns = phi.block(w)
        rows = tuples_with_weight(name, 2, w)
        assert list(columns) == list(tuples_with_weight(name, 1, w)), (name, w)
        for B, col in columns.items():
            assert list(col) == [C for C in rows if C in col], (name, w, B)
            assert all(v for v in col.values()), (name, w, B)


@pytest.mark.parametrize("name,height", (("A2", 6), ("C2", 5), ("G2", 4)))
def test_phi_walk_matches_the_table_and_holds_two_heights(monkeypatch, name,
                                                          height):
    """The walk's table never holds blocks of more than two heights, and
    at most h + 2 blocks while it builds height h: each block goes once
    the last block that reads it is built."""
    full = _filled(name, height)
    block = PhiTable.block
    held, sizes = [], []

    def watched(self, weight):
        got = block(self, weight)
        if self is not full:
            held.append({sum(w) for w in self._blocks})
            sizes.append(len(self._blocks))
        return got

    monkeypatch.setattr(PhiTable, "block", watched)
    weights = []
    for w, got in intertwiner.phi_blocks(name, height):
        assert got == full.block(w), (name, w)
        weights.append(w)
    assert weights == weights_up_to(name, height)
    for heights, size in zip(held, sizes):
        assert heights <= {max(heights) - 1, max(heights)}, (name, heights)
        assert size <= max(heights) + 2, (name, heights)
    assert held[-1] == {height - 1, height}


def test_block_drops_zero_entries(monkeypatch):
    # Phi blocks are dense at every tested height, so plant a zero in the
    # solution of (1, 1), above blocks solved unpatched: the system is
    # solved again against the right-hand side of the solution with its
    # first entry zeroed, and the block keeps no entry there
    phi = _filled("A2", 1)
    solve = intertwiner.solve_exact

    def zero_first(prows, qrows, unknowns):
        Y = solve(prows, qrows, unknowns)
        first = Y[unknowns[0]]
        Y[unknowns[0]] = {**first, min(first): ZERO}
        qrows = [intertwiner._row_products(prow, Y) for prow in prows]
        return solve(prows, qrows, unknowns)

    monkeypatch.setattr(intertwiner, "solve_exact", zero_first)
    columns = phi.block((1, 1))
    rows = tuples_with_weight("A2", 2, (1, 1))
    cols = tuples_with_weight("A2", 1, (1, 1))
    assert list(columns) == list(cols)
    assert list(columns[cols[0]]) == list(rows[1:])
    assert list(columns[cols[1]]) == list(rows)


# ---------------------------------------------------------------------------
# checked tables


def test_golden_columns_exact():
    for name, (I, want_strs) in GOLDEN.items():
        tab = CheckedTable(PhiTable(name))
        want = {out: val(s) for out, s in want_strs.items()}
        col = tab.column(I)
        assert col == want, name
        # every other tuple in the block is an exact zero
        for out in tab.block_outputs(I):
            if out not in want:
                assert tab.entry(out, I) == ZERO


def test_checked_column_is_the_block_column():
    # column hands out the stored column itself, never a copy
    for name, hmax in (("A2", 4), ("C2", 4), ("G2", 3)):
        tab = CheckedTable(PhiTable(name))
        p = tab.phi.preset
        for w in weights_up_to(name, hmax):
            for I in tuples_with_weight(name, 2, w):
                col = tab.column(I)
                assert col is tab.column(I)
                assert col is tab.phi.block(p.conserved2(I))[reverse(I)]
                assert col == {C: tab.entry(C, I) for C in tab.block_outputs(I)
                               if tab.entry(C, I)}


@pytest.mark.parametrize("call", [
    pytest.param(lambda: CheckedTable(PhiTable("A2")).column((1, 0)),
                 id="column"),
    pytest.param(lambda: CheckedTable(PhiTable("A2")).entry(
        (0, 1, 0), (1, 0, 0, 0)), id="entry"),
    pytest.param(lambda: CheckedTable(PhiTable("A2")).entry(
        (0, 1), (1, 0, 0)), id="entry-output"),
    pytest.param(lambda: CheckedTable(PhiTable("C2")).block_outputs(
        (1, 0, 1)), id="block_outputs"),
])
def test_wrong_length_tuple_rejected(call):
    # the 2-tuple was once read as its truncation: column gave a KeyError
    with pytest.raises(ValueError, match="tuples have"):
        call()


@pytest.mark.parametrize("bad", [(1, -1, 1), (0, -1, 0)])
@pytest.mark.parametrize("call", [
    pytest.param(lambda t: CheckedTable(PhiTable("A2")).column(t),
                 id="column"),
    pytest.param(lambda t: CheckedTable(PhiTable("A2")).entry((0, 0, 0), t),
                 id="entry"),
    pytest.param(lambda t: CheckedTable(PhiTable("A2")).entry(t, (0, 0, 0)),
                 id="entry-output"),
])
def test_negative_entry_rejected(call, bad):
    # (1, -1, 1) has the valid weight (0, 0), so no weight check can
    # catch it; (0, -1, 0) has a negative weight
    with pytest.raises(ValueError,
                       match=re.escape(f"{bad} has a negative entry")):
        call(bad)


def test_checked_table_kinds_and_entry():
    tab = CheckedTable(PhiTable("C2"))
    assert (tab.name, tab.kind) == ("C2", "K")
    assert tab.entry((4, 0, 0, 3), (2, 1, 1, 0)) == val("q^4")
    assert tab.entry((4, 0, 0, 3), (2, 1, 1, 1)) == ZERO  # conservation


def test_checked_is_phi_with_reversed_input():
    tab = CheckedTable(PhiTable("A2"))
    assert tab.entry((1, 0, 1), (0, 1, 0)) == _entry(tab.phi, (1, 0, 1),
                                                     (0, 1, 0))
    assert tab.entry((1, 0, 1), (1, 0, 1)) == _entry(tab.phi, (1, 0, 1),
                                                     (1, 0, 1))
    # asymmetric probe where reversal matters
    tabc = CheckedTable(PhiTable("C2"))
    I = (1, 0, 0, 2)
    assert tabc.entry((1, 0, 0, 2), I) == _entry(tabc.phi, (1, 0, 0, 2),
                                                 reverse(I))


# ---------------------------------------------------------------------------
# the bare-ket block against the scaled-ket recursion it replaces

DIFF_HEIGHTS = (("A2", 6), ("C2", 5), ("G2", 3))


@pytest.mark.parametrize("name,hmax", DIFF_HEIGHTS)
def test_block_matches_two_step_rescale(name, hmax):
    # the bare block, rescaled entry by entry to scaled kets, is the
    # scaled-ket recursion's block
    phi = PhiTable(name)
    scaled = _scaled_blocks(name, hmax)
    for w, want in scaled.items():
        columns = phi.block(w)
        assert phi.block(w) is columns
        assert list(columns) == list(tuples_with_weight(name, 1, w))
        got = _columns_to_scaled(name, columns)
        assert got == want, (name, w)
        assert _canonical(got) == _canonical(want)
    # blocks requested in the opposite order come out the same
    fresh = PhiTable(name)
    for w in reversed(list(scaled)):
        assert fresh.block(w) == phi.block(w), (name, w)


def _scaled_xi(name, label, i, weight):
    """xi_i (with its lambda_i) on the scaled kets |A>> = D(A)|A> of one
    weight, column by column from the bare-ket xi_bar_op:
    {col tuple: {row tuple: coefficient}}."""
    lam = ONE / (ONE - qpow(2 * preset(name).d[i]))
    bar = xi_bar_op(name, label, i)
    return {A: {B: c * lam * _d(name, label, A) / _d(name, label, B)
                for B, c in apply_op(name, label, bar, {A: ONE}).items()}
            for A in tuples_with_weight(name, label, weight)}


def _scaled_blocks(name, hmax):
    """Phi on scaled kets |m>> by the recursion the bare-ket solve
    replaces: xi_i with its lambda_i, on scaled kets, block by block."""
    p = preset(name)
    blocks = {}
    for w in weights_up_to(name, hmax):
        cols = tuples_with_weight(name, 1, w)
        if w == (0, 0):
            blocks[w] = {cols[0]: {cols[0]: ONE}}
            continue
        prows, qrows = [], []
        for i in (1, 2):
            inc = p.letter_increment(i)
            below = (w[0] - inc[0], w[1] - inc[1])
            if min(below) < 0:
                continue
            m_cols = _scaled_xi(name, 1, i, below)
            mp_cols = _scaled_xi(name, 2, i, below)
            prev = blocks[below]
            for A in tuples_with_weight(name, 1, below):
                prows.append(m_cols[A])
                qrows.append(sum_products((C, c, v) for D, v in prev[A].items()
                                          for C, c in mp_cols[D].items()))
        blocks[w] = _solve_over_q(prows, qrows, cols)
    return blocks


def _solve_over_q(prows, qrows, unknowns):
    """solve_exact's substitution over Q(q), with field division in place
    of its exact one: the scaled-ket systems have non-Laurent solutions."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intertwiner, "exact_quotient",
                   lambda num, den, *where: num / den)
        return solve_exact(prows, qrows, unknowns)


@pytest.mark.parametrize("name,hmax", (("A2", 8), ("C2", 6), ("G2", 5)))
def test_bare_block_matches_scaled_recursion(name, hmax):
    phi = PhiTable(name)
    p = preset(name)
    for w, scaled in _scaled_blocks(name, hmax).items():
        bare = phi.block(w)
        want = {}
        for B, col in scaled.items():
            want[B] = {}
            for C, v in col.items():
                for m, node in zip(C, p.word2):
                    v = v * d_norm(m, p.d[node])
                for m, node in zip(B, p.word1):
                    v = v / d_norm(m, p.d[node])
                want[B][C] = v
        assert bare == want, (name, w)
        assert _canonical(bare) == _canonical(want)
        assert all(v.den.is_one() for col in bare.values()
                   for v in col.values())


@pytest.mark.parametrize("name,hmax", (("A2", 8), ("C2", 6), ("G2", 5)))
def test_bare_solve_divides_exactly(name, hmax):
    # every quotient of the bare-ket solve is an exact Laurent division,
    # which the solve enforces
    phi = _filled(name, hmax)
    assert set(weights_up_to(name, hmax)) <= set(phi._blocks)


def test_inexact_pivot_names_the_block(monkeypatch):
    # xi_2 on the word-1 vacuum, times (1 + q), leaves the block at (1, 0)
    # the solution 1/(1 + q), which is not Laurent: the solve refuses it
    xi_matrix = intertwiner.xi_matrix

    def mutated(name, label, i, below):
        cols = xi_matrix(name, label, i, below)
        if (name, label, i, below) == ("A2", 1, 2, (0, 0)):
            cols = {A: {u: v * (ONE + Q) for u, v in col.items()}
                    for A, col in cols.items()}
        return cols

    monkeypatch.setattr(intertwiner, "xi_matrix", mutated)
    with pytest.raises(ArithmeticError, match=r"^A2 block \(1, 0\): "
                       r"inexact division in Y\[\(0, 0, 1\)\]"
                       r"\[\(1, 0, 0\)\]$"):
        PhiTable("A2").block((1, 0))


def test_bare_block_matches_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def poly(p):
        return sum((sympy.Rational(v.numerator, v.denominator) * q ** e
                    for e, v in p.c.items()), sympy.Integer(0))

    def to_sympy(x):
        return poly(x.num) / poly(x.den)

    # C2 (2, 2): the scaled-ket entries carry denominators
    p = preset("C2")
    scaled = _scaled_blocks("C2", 4)[(2, 2)]
    assert any(not v.den.is_one() for col in scaled.values()
               for v in col.values())
    bare = PhiTable("C2").block((2, 2))
    assert {B: set(col) for B, col in bare.items()} \
        == {B: set(col) for B, col in scaled.items()}
    for B, col in scaled.items():
        for C, v in col.items():
            want = to_sympy(v)
            for m, node in zip(C, p.word2):
                want = want * to_sympy(d_norm(m, p.d[node]))
            for m, node in zip(B, p.word1):
                want = want / to_sympy(d_norm(m, p.d[node]))
            assert sympy.cancel(to_sympy(bare[B][C])
                                - sympy.cancel(want)) == 0


# ---------------------------------------------------------------------------
# substitution against the solution a system was built from, and sympy

small_coeffs = st.integers(min_value=-3, max_value=3)
DENS = (LaurentPoly({0: 1}), LaurentPoly({0: 1, 2: -1}),
        LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 2, 3: -1}))


@st.composite
def entries(draw, nonzero=False, dens=DENS):
    """A RationalFunction with small support, its denominator one of
    dens."""
    c = draw(st.dictionaries(st.integers(min_value=-2, max_value=3),
                             small_coeffs, max_size=3))
    num = LaurentPoly(c)
    if nonzero and num.is_zero():
        num = LaurentPoly({draw(st.integers(0, 2)): 1})
    return RationalFunction(num, draw(st.sampled_from(dens)))


def _sparse(rows):
    """Dense rows as the sparse rows solve_exact reads: {index: entry},
    zeros dropped."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def _mat_mul(A, B):
    return [[sum((a * B[c][j] for c, a in enumerate(row)), ZERO)
             for j in range(len(B[0]))] for row in A]


@st.composite
def triangular_systems(draw):
    """(P, Q, Y): a lower-triangular system with extra consistent rows,
    rows and columns shuffled, and the Laurent Y it was built from."""
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=3))
    P = [[draw(entries(nonzero=True)) if c == r
          else draw(entries()) if c < r and draw(st.booleans()) else ZERO
          for c in range(n)] for r in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        a, b = draw(entries()), draw(entries())
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        P.append([a * x + b * y for x, y in zip(P[i], P[j])])
    Y = [[draw(entries(dens=DENS[:1])) for _ in range(k)]
         for _ in range(n)]
    rows = draw(st.permutations(range(len(P))))
    cols = draw(st.permutations(range(n)))
    P = [[P[r][c] for c in cols] for r in rows]
    Y = [Y[c] for c in cols]
    return P, _mat_mul(P, Y), Y


@given(triangular_systems())
@settings(max_examples=60, deadline=None)
def test_substitution_matches_bareiss(system):
    """Substitution recovers the Y that the system was built from."""
    P, Qm, Y = system
    unknowns = tuple(range(len(P[0])))
    prows, qrows = _sparse(P), _sparse(Qm)
    want = dict(enumerate(_sparse(Y)))
    got = solve_exact(prows, qrows, unknowns)
    assert got == want
    assert list(got) == list(unknowns)
    assert ({u: {j: canonical_string(v) for j, v in col.items()}
             for u, col in got.items()}
            == {u: {j: canonical_string(v) for j, v in col.items()}
                for u, col in want.items()})


def test_solve_exact_matches_sympy():
    sympy = pytest.importorskip("sympy")
    # triangular after swapping rows 0 and 2 and columns 0 and 1, with a
    # Laurent solution
    P = [[ONE + Q, Q * Q, ZERO],
         [(ONE - Q) / (ONE + Q * Q), ZERO, Q],
         [ZERO, ONE - Q * Q, ZERO]]
    Y = [[ONE, Q], [Q ** 3, ONE - Q], [ONE / Q, rf(2)]]
    Qm = _mat_mul(P, Y)
    q = sympy.Symbol("q")

    def poly(p):
        return sum((sympy.Rational(v.numerator, v.denominator) * q ** e
                    for e, v in p.c.items()), sympy.Integer(0))

    def to_sympy(x):
        return poly(x.num) / poly(x.den)

    want = sympy.Matrix([[to_sympy(x) for x in row] for row in P]).solve(
        sympy.Matrix([[to_sympy(x) for x in row] for row in Qm]))
    got = solve_exact(_sparse(P), _sparse(Qm), range(3))
    assert got == dict(enumerate(_sparse(Y)))
    for i in range(3):
        for j in range(2):
            assert sympy.cancel(to_sympy(got[i].get(j, ZERO))
                                - want[i, j]) == 0


def test_dense_system_raises(monkeypatch):
    # no row of [[1, q], [q, 1]] has a single unknown, though it is regular
    with pytest.raises(ArithmeticError,
                       match="^no row has a single unknown left$"):
        solve_exact([{0: ONE, 1: Q}, {0: Q, 1: ONE}], [{0: ONE}, {1: ONE}],
                    (0, 1))
    # a Phi block that stalls names its algebra and weight: block (1, 1)
    # goes to the solver with every row naming every unknown
    phi = _filled("A2", 1)
    solve = intertwiner.solve_exact
    cols = list(tuples_with_weight("A2", 1, (1, 1)))

    def dense(prows, qrows, unknowns):
        if list(unknowns) == cols:
            prows = [{c: prow.get(c, ONE) for c in cols} for prow in prows]
        return solve(prows, qrows, unknowns)

    monkeypatch.setattr(intertwiner, "solve_exact", dense)
    with pytest.raises(ArithmeticError, match=r"^A2 block \(1, 1\): no row "
                       "has a single unknown left$"):
        phi.block((1, 1))


# ---------------------------------------------------------------------------
# the one-pass solve against the two-pass solve it replaced


def _times_y(prow, Y):
    """P[r] Y for one sparse row: {column: entry}, zeros dropped."""
    return sum_products((j, x, y) for c, x in prow.items()
                        for j, y in Y[c].items())


def _two_pass_solve(prows, qrows, unknowns):
    """The reference for solve_exact: the same substitution, with each
    pivot row's remainder formed as Q[r] plus -1 times its known
    products, and then the residual checked on every row, pivot rows
    included."""
    if len(prows) < len(unknowns):
        raise ArithmeticError(f"underdetermined system ({len(prows)} rows, "
                              f"{len(unknowns)} unknowns)")
    rows_of = {u: [] for u in unknowns}
    for r, prow in enumerate(prows):
        for c in prow:
            if c not in rows_of:
                raise ArithmeticError(f"row {r} names {c!r}, not an unknown")
            rows_of[c].append(r)
    left = [len(prow) for prow in prows]
    ready = [r for r, u in enumerate(left) if u == 1]
    Y = {}
    while ready:
        r = ready.pop()
        if left[r] != 1:
            continue
        prow = prows[r]
        u = next(c for c in prow if c not in Y)
        known = {c: x for c, x in prow.items() if c != u}
        rest = vec_add(qrows[r], vec_scale(_times_y(known, Y), -1))
        piv = prow[u]
        Y[u] = {j: exact_quotient(a.num * piv.den, a.den * piv.num,
                                  "Y[{!r}][{!r}]", u, j)
                for j, a in rest.items()}
        for r2 in rows_of[u]:
            left[r2] -= 1
            if left[r2] == 1:
                ready.append(r2)
    if len(Y) < len(unknowns):
        raise ArithmeticError("no row has a single unknown left")
    Y = {u: Y[u] for u in unknowns}
    for r, (prow, qrow) in enumerate(zip(prows, qrows)):
        if _times_y(prow, Y) != qrow:
            raise ArithmeticError(
                f"inconsistent system: nonzero residual at row {r}")
    return Y


def _outcome(solve, prows, qrows, unknowns):
    """("solved", [(unknown, column), ...]) in Y's order, or ("raises",
    the ArithmeticError's text)."""
    try:
        Y = solve(prows, qrows, unknowns)
    except ArithmeticError as exc:
        return "raises", str(exc)
    return "solved", list(Y.items())


@pytest.mark.parametrize("name,hmax", (("A2", 8), ("C2", 6), ("G2", 5)))
def test_one_pass_solve_matches_two_pass_on_phi_blocks(monkeypatch, name,
                                                       hmax):
    systems = []
    solve = intertwiner.solve_exact

    def capture(prows, qrows, unknowns):
        systems.append((prows, qrows, unknowns))
        return solve(prows, qrows, unknowns)

    monkeypatch.setattr(intertwiner, "solve_exact", capture)
    _filled(name, hmax)
    assert len(systems) == len(weights_up_to(name, hmax)) - 1
    for prows, qrows, unknowns in systems:
        got = _outcome(solve, prows, qrows, unknowns)
        assert got[0] == "solved"
        assert got == _outcome(_two_pass_solve, prows, qrows, unknowns)
        # every row holds, the pivot rows proved by division included
        Y = dict(got[1])
        assert [_times_y(prow, Y) for prow in prows] == qrows


def _laurent(rng):
    """A nonzero Laurent polynomial of one or two terms."""
    return LaurentPoly({rng.randint(-1, 2): rng.choice((-2, -1, 1, 2))
                        for _ in range(rng.randint(1, 2))})


def _random_system(rng):
    """(P, Q, unknowns): up to four unknowns in shuffled order, up to three
    rows more than unknowns, each entry of P nonzero with probability one
    half.  Q is random in a quarter of the systems; otherwise it is P Y
    for a random Laurent Y, with one entry changed in about a third."""
    n = rng.randint(1, 4)
    unknowns = rng.sample(range(n), n)
    prows = [{c: _laurent(rng) for c in range(n) if rng.random() < 0.5}
             for _ in range(n + rng.randint(0, 3))]
    k = rng.randint(1, 2)
    if rng.random() < 0.25:
        return prows, [{j: _laurent(rng) for j in range(k)
                        if rng.random() < 0.7} for _ in prows], unknowns
    Y = {c: {j: _laurent(rng) for j in range(k) if rng.random() < 0.8}
         for c in range(n)}
    qrows = [_times_y(prow, Y) for prow in prows]
    if rng.random() < 0.3:
        r = rng.randrange(len(qrows))
        qrows[r] = vec_add(qrows[r], {rng.randrange(k): _laurent(rng)})
    return prows, qrows, unknowns


def test_one_pass_solve_matches_two_pass_on_random_systems():
    rng = random.Random(0)
    outcomes = Counter()
    for _ in range(2000):
        system = _random_system(rng)
        got = _outcome(solve_exact, *system)
        assert got == _outcome(_two_pass_solve, *system), system
        outcomes[got[0] if got[0] == "solved" else re.match(
            "inexact division|no row|inconsistent", got[1]).group()] += 1
    assert set(outcomes) == {"solved", "inexact division", "no row",
                             "inconsistent"}, outcomes


@pytest.mark.parametrize("name,hmax", (("A2", 8), ("C2", 6), ("G2", 4)))
def test_phi_blocks_need_no_fallback(name, hmax):
    # solve_exact raises on a block that substitution cannot solve
    phi = _filled(name, hmax)
    assert set(weights_up_to(name, hmax)) <= set(phi._blocks)
