"""Normal-form arithmetic in the positive half of the quantized algebra.

Elements are kept in the divided word-2 monomial basis: a PBW vector is a
dict {exponent tuple -> RationalFunction} representing sum c_A B^(A), with
B^(A) = B[A] / F2(A), B[A] = b_1^{a_1} ... b_l^{a_l} and F2(A) = prod_k
[a_k]! in the base of the word's k-th letter.  This is the only basis the
module works in, and the one the preset rules are written in: multiplying
by a generator on either side reads the rule's terms as they stand.

The divided monomials of either word span Lusztig's Z[q, q^-1]-form, so
every rule coefficient is a Laurent polynomial, and so is every
coefficient of a divided word-1 monomial E_1^(A) over the divided word-2
basis: these coefficients are the entries gamma^A_B.  E_1^(A) is built one
root vector at a time, each step one exact division by [a_r] times that
root vector's [2]/[3] denominator, so normal ordering multiplies Laurent
polynomials only and runs no gcd.  An inexact division raises
ArithmeticError.
"""

from functools import lru_cache

from .qfield import LaurentPoly, poly_divexact, q_int, sum_products
from .presets import (
    preset, rf, ONE, ZERO, reverse, serre_relations, tuples_with_weight,
    zero_tuple,
)


# ---------------------------------------------------------------------------
# the multiplication primitive


def _exact(num, den, where, *args):
    """num / den as a RationalFunction; ArithmeticError if inexact.

    The error names the place, where.format(*args), formatted only then.
    """
    try:
        return rf(poly_divexact(num, den))
    except ValueError:
        raise ArithmeticError(
            "inexact division in " + where.format(*args)) from None


@lru_cache(maxsize=None)
def _rule_terms(name, side, letter, t):
    """The preset's side rule for the letter on B^(t): ((coeff, u), ...).

    Normal ordering meets the same tuple many times, so the terms are
    cached.
    """
    p = preset(name)
    rules = p.right_rules if side == "right" else p.left_rules
    return tuple(rules[letter](t))


def mul_letter(name, v, letter, side="right"):
    """Multiply a divided PBW vector by one generator on the given side."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return sum_products((u, coeff, c) for t, c in v.items()
                        for coeff, u in _rule_terms(name, side, letter, t))


def mul_word_expr(name, v, wp, side="right"):
    """v . wp (side right) or wp . v (side left) for a word expression wp."""
    def terms():
        for w, c in wp.items():
            cur = v
            for i in (w if side == "right" else reverse(w)):
                cur = mul_letter(name, cur, i, side)
            for t, x in cur.items():
                yield t, x, c

    return sum_products(terms())


def normal_order(name, wp):
    """Expand a word expression in the divided word-2 basis B^(A).

    Right-folds the right-multiplication rules, building each word
    left-to-right from the empty monomial.
    """
    unit = {zero_tuple(name): ONE}
    return mul_word_expr(name, unit, wp, side="right")


# ---------------------------------------------------------------------------
# divided word-1 monomials


@lru_cache(maxsize=None)
def _root_vector(name, r):
    """The r-th word-1 root vector as (Laurent word expression, denominator).

    The denominator is the coefficients' largest [2]/[3] denominator,
    which every other one divides.
    """
    wp = preset(name).root_vectors1[r]
    den = max((c.den for c in wp.values()), key=LaurentPoly.degree)
    return {w: _exact(c.num * den, c.den, "root vector {} of {}", r, name)
            for w, c in wp.items()}, den


@lru_cache(maxsize=None)
def _word1_divided(name, A):
    """E_1^(A) over the divided word-2 basis: {B: gamma^A_B}.

    With r the last nonzero slot, E_1^(A) = E_1^(A - e_r) . c_r / [a_r].
    """
    p = preset(name)
    r = max((k for k in range(p.length) if A[k]), default=-1)
    if r < 0:
        return {zero_tuple(name): ONE}
    prev = _word1_divided(name, A[:r] + (A[r] - 1,) + A[r + 1:])
    wp, den = _root_vector(name, r)
    den = den * q_int(A[r], p.d[p.word1[r]])
    v = mul_word_expr(name, prev, wp, side="right")
    return {B: _exact(c.num, c.den * den,
                      "gamma of {} at weight {}, row {}, column {}",
                      name, p.conserved1(A), A, B)
            for B, c in v.items()}


# ---------------------------------------------------------------------------
# left-multiplication matrices


def rho_column(name, label, letter, A):
    """Left multiplication by e_letter on one divided monomial: {tuple: coeff}.

    Word 2 reads the left rules directly; word 1 conjugates the word-2
    right rules by the reversing anti-involution, since
    e_i . E_1^(A) = chi(B^(rev A) . e_i).
    """
    if label == 2:
        terms = _rule_terms(name, "left", letter, A)
    else:
        terms = [(c, reverse(t)) for c, t in
                 _rule_terms(name, "right", letter, reverse(A))]
    return sum_products((t, coeff, ONE) for coeff, t in terms)


# ---------------------------------------------------------------------------
# transition matrices


class TransitionBlock:
    """gamma on one weight block.

    rows: word-1 exponent tuples (lexicographic); cols: word-2 tuples.
    Entry (A, B) is gamma^A_B, the coefficient of B^(B) in the divided
    word-1 monomial E_1^(A); each row is the cached _word1_divided dict,
    held without a copy.
    """

    def __init__(self, name, weight, rows, cols):
        self.name = name
        self.weight = weight
        self.rows = rows
        self.cols = cols
        self._rows = {A: _word1_divided(name, A) for A in rows}

    def gamma(self, A, B):
        row = self._rows.get(tuple(A))
        return ZERO if row is None else row.get(tuple(B), ZERO)


@lru_cache(maxsize=None)
def transition_block(name, weight):
    rows = tuples_with_weight(name, 1, weight)
    cols = tuples_with_weight(name, 2, weight)
    if not rows or not cols:
        raise ValueError(f"no tuples of weight {weight} for {name}")
    return TransitionBlock(name, weight, rows, cols)


def serre_residuals(name):
    """Normal-ordered q-Serre sums; all must be empty dicts."""
    return [(pair, normal_order(name, wp))
            for pair, wp in serre_relations(name)]
