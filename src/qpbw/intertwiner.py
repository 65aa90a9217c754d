"""Transition tables computed from the function-algebra side.

Phi is the vacuum-normalized isomorphism between the irreducible
representations attached to the two longest words (source word 1, target
word 2).  Blocks are produced inductively: the intertwining relations with
xi_1 and xi_2 turn each block into an exact overdetermined linear system
in terms of the block one step below.  The system is set up on bare kets
|m>, where it has Laurent coefficients, and its solution lies in Z[q], so
every quotient of the solve is an exact division.  The solve proves each
equation once: a pivot row by the exact division that solves it, every
other row by its residual.  The system stays in one sparse layout
throughout: its rows are the columns of xi_matrix and of xi applied to
the block below, as they are built, and solve_exact returns the block in
the layout it is stored in, one {output: entry} column per input,
nonzero entries only.  Only Fock-side operators appear here, so
agreement with the PBW-side transition matrices downstream is a genuine
cross-check between independent pipelines.

The checked table composes Phi with full reversal of the input slots;
depending on the algebra it is the R, K or F family of coefficients.

Phi is read only through its blocks.  A PhiTable keeps every block it
builds, so random access to a block costs the blocks below it once;
shared_phi keeps one table per algebra for the life of the process.  A
sweep over a height range (phi_blocks) owns its table and drops each
block after its last reader: at most two heights of blocks are alive.
"""

from functools import lru_cache

from .qfield import ONE, ZERO, exact_quotient, sum_products
from .presets import (
    ALGEBRA_KIND, preset, reverse, tuples_with_weight, weights_up_to,
)
from .fock import xi_matrix


def solve_exact(prows, qrows, unknowns):
    """Solve P Y = Q over Z[q, q^-1], P of full column rank.

    P is m x n with m >= n, n the number of unknowns, and Q is m x k.  Both
    are given as lists of sparse rows, {unknown: entry} for P and
    {column: entry} for Q, entries in Q(q), nonzero ones only.  The
    unknowns are found by substitution: while some row r has exactly one
    unknown u left, r is a pivot, and Y[u] = (Q[r] - sum of P[r][c] Y[c]
    over its known unknowns c) / P[r][u], each entry one
    qfield.exact_quotient, an exact division of Laurent polynomials.  When
    every unknown is reached this way, the pivots form a triangular n x n
    subsystem with nonzero diagonal, so P has full column rank.  Each
    equation is proved once: a pivot row by its exact division, every
    other row by its residual P[r] Y - Q[r], which must vanish.  So Y is
    the unique solution.  Returns Y as {unknown: {column: entry}},
    unknowns in the given order, nonzero LaurentPoly entries only.  Raises
    ArithmeticError when a row of P names a key that is not an unknown,
    when a division is inexact (the solution is not Laurent), when
    substitution stalls (no row has a single unknown left), which every
    rank-deficient system does and so does an unknown that no row names,
    or when the system is inconsistent.  No Phi block stalls.
    """
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
    Y, pivots = {}, set()
    while ready:
        r = ready.pop()
        if left[r] != 1:
            continue                    # its last unknown is already solved
        prow = prows[r]
        u = next(c for c in prow if c not in Y)
        parts = [(ONE, qrows[r])]
        parts += [(-x, Y[c]) for c, x in prow.items() if c != u]
        rest = sum_products((j, x, y) for x, col in parts
                            for j, y in col.items())
        piv = prow[u]
        Y[u] = {j: exact_quotient(a, piv, "Y[{!r}][{!r}]", u, j)
                for j, a in rest.items()}
        pivots.add(r)
        for r2 in rows_of[u]:
            left[r2] -= 1
            if left[r2] == 1:
                ready.append(r2)
    if len(Y) < len(unknowns):
        raise ArithmeticError("no row has a single unknown left")
    for r, (prow, qrow) in enumerate(zip(prows, qrows)):
        if r not in pivots and _row_products(prow, Y) != qrow:
            raise ArithmeticError(
                f"inconsistent system: nonzero residual at row {r}")
    return {u: Y[u] for u in unknowns}


def _row_products(prow, Y):
    """{j: sum over c of prow[c] * Y[c][j]} for one sparse row, zeros dropped."""
    return sum_products((j, x, y) for c, x in prow.items()
                        for j, y in Y[c].items())


class PhiTable:
    """Blockwise coefficients of the intertwiner, filled on demand.

    A block holds the entries between the word-1 tuples (inputs) and the
    word-2 tuples (outputs) of one conserved pair, its weight; both index
    sets are presets.tuples_with_weight.  block holds Phi on bare kets |m>,
    which is the divided-power normalisation: every entry lies in Z[q].
    Each block is stored column by column, as solve_exact returns it:
    {input: {output: entry}}, one column per input, nonzero entries only,
    inputs and the outputs of each column in ascending lexicographic
    order, which is tuples_with_weight's.  It is solved once per weight
    from the Laurent operators xi_i / lambda_i on bare kets
    (fock.xi_matrix) and shared by every later call, so callers must not
    mutate it.  One entry of Phi is block(w)[B].get(C, ZERO).
    """

    def __init__(self, name):
        self.name = name
        self.preset = preset(name)
        self._blocks = {}

    def block(self, weight):
        """Phi on bare kets: {B: {C: entry}}, built once."""
        got = self._blocks.get(weight)
        if got is None:
            got = self._compute_block(weight)
            self._blocks[weight] = got
        return got

    def _compute_block(self, weight):
        m2, m1 = weight
        if m2 < 0 or m1 < 0:
            raise ValueError(f"bad weight {weight}")
        cols = tuples_with_weight(self.name, 1, weight)
        if m2 == 0 and m1 == 0:
            return {cols[0]: {cols[0]: ONE}}
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
            m_cols = xi_matrix(self.name, 1, i, below)
            prev = self.block(below)
            mp_cols = xi_matrix(self.name, 2, i, below)
            for A, prow in m_cols.items():
                prows.append(prow)
                qrows.append(sum_products((C, c, v) for D, v in prev[A].items()
                                          for C, c in mp_cols[D].items()))
        try:
            Y = solve_exact(prows, qrows, cols)
        except ArithmeticError as exc:
            raise ArithmeticError(
                f"{self.name} block {weight}: {exc}") from None
        return {B: dict(sorted(col.items())) for B, col in Y.items()}


# shared_phi(name): the process-wide PhiTable of an algebra, shared by
# every random-access reader, as pbw.transition_block shares gamma blocks
shared_phi = lru_cache(maxsize=None)(PhiTable)


def phi_blocks(name, max_height):
    """Yield (weight, block) for every weight up to max_height, in
    weights_up_to order, from a PhiTable of the walk's own; each block is
    PhiTable.block's {input: {output: entry}}.

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

    def __init__(self, phi):
        self.name = phi.name
        self.kind = ALGEBRA_KIND[phi.name]
        self.phi = phi

    def entry(self, out_t, in_t):
        """One entry, read from the block, not through column; ZERO off it."""
        I, C = tuple(in_t), tuple(out_t)
        col = self.phi.block(self.phi.preset.conserved2(I))[reverse(I)]
        if C not in col:
            self.phi.preset.conserved2(C)   # a malformed output raises
        return col.get(C, ZERO)

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
        return self.phi.block(self.phi.preset.conserved2(I))[reverse(I)]
