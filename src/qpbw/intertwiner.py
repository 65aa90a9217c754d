"""Transition tables computed from the function-algebra side.

Phi is the vacuum-normalized isomorphism between the irreducible
representations attached to the two longest words (source word 1, target
word 2).  Blocks are produced inductively: the intertwining relations with
xi_1 and xi_2 turn each block into an exact overdetermined linear system
in terms of the block one step below.  The system is set up on bare kets
|m>, where it has Laurent coefficients, and its solution lies in Z[q], so
every quotient of the solve is an exact division.  Only Fock-side
operators appear here, so agreement with the PBW-side transition matrices
downstream is a genuine cross-check between independent pipelines.

The checked table composes Phi with full reversal of the input slots;
depending on the algebra it is the R, K or F family of coefficients.

A PhiTable keeps every block it has built for as long as it lives, so
random access to one block costs the blocks below it once.  A sweep over
a height range (phi_blocks) owns its table and drops each block once the
last block that reads it is built, so at most two heights of blocks, and
about one height's worth, are alive.
"""

from .qfield import ONE, ZERO, ratio, rf, sum_products
from .presets import (
    ALGEBRA_KIND, preset, reverse, tuples_with_weight, weights_up_to,
)
from .fock import xi_matrix


def solve_exact(prows, qrows):
    """Solve P Y = Q over the rational-function field, P of full column rank.

    P is m x n with m >= n, Q is m x k; both are given as lists of rows of
    RationalFunctions.  Each row keeps only its nonzero entries, and the
    unknowns are found by substitution: while some row has exactly one
    unknown column u left, Y[u] = (Q[r] - sum of P[r][c] Y[c] over its
    known columns c) / P[r][u].  When every unknown is reached this way,
    the rows used form a triangular n x n subsystem with nonzero diagonal,
    so P has full column rank.  The residual P Y - Q is then checked to
    vanish on every row, so every equation holds and Y is the unique
    solution.  Raises ArithmeticError when substitution stalls (no row
    has a single unknown left), which every rank-deficient system does,
    or when the system is inconsistent.  No Phi block stalls.
    """
    prows = [[rf(x) for x in row] for row in prows]
    qrows = [[rf(x) for x in row] for row in qrows]
    m = len(prows)
    n = len(prows[0]) if m else 0
    k = len(qrows[0]) if qrows and qrows[0] else 0
    if m < n:
        raise ArithmeticError(f"underdetermined system ({m} rows, {n} unknowns)")
    sparse = [{c: x for c, x in enumerate(row) if x} for row in prows]
    Y = _substitute(sparse, qrows, n, k)
    if Y is None:
        raise ArithmeticError("no row has a single unknown left")
    for r, (prow, qrow) in enumerate(zip(sparse, qrows)):
        sums = _row_products(prow, Y, k)
        if any(sums.get(j, ZERO) != qrow[j] for j in range(k)):
            raise ArithmeticError(
                f"inconsistent system: nonzero residual at row {r}")
    return Y


def _row_products(prow, Y, k):
    """{j: sum over c of prow[c] * Y[c][j]} for one sparse row, zeros dropped."""
    return sum_products((j, x, Y[c][j]) for c, x in prow.items()
                        for j in range(k))


def _substitute(sparse, qrows, n, k):
    """Y by substitution through rows with one unknown left, or None."""
    rows_of = [[] for _ in range(n)]
    for r, prow in enumerate(sparse):
        for c in prow:
            rows_of[c].append(r)
    left = [len(prow) for prow in sparse]
    ready = [r for r, u in enumerate(left) if u == 1]
    Y = [None] * n
    solved = 0
    while ready:
        r = ready.pop()
        if left[r] != 1:
            continue                    # its last unknown is already solved
        prow = sparse[r]
        u = next(c for c in prow if Y[c] is None)
        known = {c: x for c, x in prow.items() if c != u}
        sums = _row_products(known, Y, k)
        piv = prow[u]
        Y[u] = []
        for j in range(k):
            a = qrows[r][j] - sums.get(j, ZERO)
            Y[u].append(ratio(a.num * piv.den, a.den * piv.num))
        solved += 1
        for r2 in rows_of[u]:
            left[r2] -= 1
            if left[r2] == 1:
                ready.append(r2)
    return Y if solved == n else None


class PhiTable:
    """Blockwise coefficients of the intertwiner, filled on demand.

    Block rows are word-2 tuples (outputs), columns word-1 tuples (inputs),
    both in ascending lexicographic order; blocks are keyed by the
    conserved pair.  block holds Phi on bare kets |m>, which is the
    divided-power normalisation: every entry lies in Z[q].  Each block is
    stored column by column, the layout solve_exact returns it in: one
    {output: entry} dict per input, nonzero entries only, outputs in row
    order.  It is solved once per weight from the Laurent operators
    xi_i / lambda_i on bare kets (fock.xi_matrix) and shared by every later
    call, so callers must not mutate it.  PhiTable(name, h) builds every
    block with conserved height up to h at once.
    """

    def __init__(self, name, max_height=0):
        self.name = name
        self.preset = preset(name)
        self._blocks = {}
        if max_height < 0:
            raise ValueError("max_height must be nonnegative")
        for w in weights_up_to(name, max_height):
            self.block(w)

    def block(self, weight):
        """Phi on bare kets: (rows, cols, {B: {C: entry}}), built once."""
        got = self._blocks.get(weight)
        if got is None:
            got = self._compute_block(weight)
            self._blocks[weight] = got
        return got

    def _compute_block(self, weight):
        m2, m1 = weight
        if m2 < 0 or m1 < 0:
            raise ValueError(f"bad weight {weight}")
        rows = tuples_with_weight(self.name, 2, weight)
        cols = tuples_with_weight(self.name, 1, weight)
        if m2 == 0 and m1 == 0:
            return rows, cols, {cols[0]: {rows[0]: ONE}}
        # X . M^i = M'^i . Phi(below), transposed and stacked over i.  The
        # scalar lambda_i of xi_i stands on both sides and cancels, so M and
        # M' are the Laurent xi_i / lambda_i on bare kets, P and Q are
        # Laurent, and every quotient of the solve is an exact division.
        prows, qrows = [], []
        for i in (1, 2):
            inc = self.preset.letter_increment(i)
            below = (m2 - inc[0], m1 - inc[1])
            if below[0] < 0 or below[1] < 0:
                continue
            _, src_cols, m_cols = xi_matrix(self.name, 1, i, below)
            _, _, prev = self.block(below)
            _, _, mp_cols = xi_matrix(self.name, 2, i, below)
            for A in src_cols:
                prows.append([m_cols[A].get(B, ZERO) for B in cols])
                sums = sum_products((C, c, v) for D, v in prev[A].items()
                                    for C, c in mp_cols[D].items())
                qrows.append([sums.get(C, ZERO) for C in rows])
        try:
            Y = solve_exact(prows, qrows)
        except ArithmeticError as exc:
            raise ArithmeticError(
                f"{self.name} block {weight}: {exc}") from None
        return rows, cols, {B: {C: v for C, v in zip(rows, y) if v}
                            for B, y in zip(cols, Y)}

    def phi(self, C, B):
        C, B = tuple(C), tuple(B)
        if self.preset.conserved2(C) != self.preset.conserved1(B):
            return ZERO
        _, _, columns = self.block(self.preset.conserved2(C))
        return columns[B].get(C, ZERO)


def phi_blocks(name, max_height):
    """Yield (weight, block) for every weight up to max_height, in
    weights_up_to order, from a PhiTable of the walk's own.

    The block at (m2, m1) is solved from the blocks at (m2 - 1, m1) and
    (m2, m1 - 1), so in this order the block at (m2 - 1, m1) has been read
    for the last time once (m2, m1) is built, and is dropped then: the
    table holds at most two heights, the one being built and the rest of
    the one below it.
    """
    table = PhiTable(name)
    for m2, m1 in weights_up_to(name, max_height):
        yield (m2, m1), table.block((m2, m1))
        table._blocks.pop((m2 - 1, m1), None)


class CheckedTable:
    """Phi composed with full reversal of the input slots.

    Entries are keyed by plain occupation tuples on both sides; the slot
    bases of both indices follow word 2.  For A2 this is the R family
    solving the tetrahedron equation, for C2 the K family of the 3D
    reflection equation, for G2 the F family.
    """

    def __init__(self, name, phi):
        if phi.name != name:
            raise ValueError(f"table for {phi.name} used as {name}")
        self.name = name
        self.kind = ALGEBRA_KIND[name]
        self.phi = phi

    def entry(self, out_t, in_t):
        return self.phi.phi(tuple(out_t), reverse(tuple(in_t)))

    def block_outputs(self, in_t):
        """All output tuples sharing the conserved pair of the input."""
        w = self.phi.preset.conserved2(tuple(in_t))
        return tuples_with_weight(self.name, 2, w)

    def column(self, in_t):
        """Nonzero entries {output tuple: coefficient} above one input.

        This is the block's own column of Phi, shared by every caller, so
        callers must not mutate it.
        """
        I = tuple(in_t)
        _, _, columns = self.phi.block(self.phi.preset.conserved2(I))
        return columns[reverse(I)]
