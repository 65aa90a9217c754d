"""Normal-form arithmetic in the positive half of the quantized algebra.

Elements are kept in the word-2 monomial basis: a PBW vector is a dict
{exponent tuple -> RationalFunction} representing sum c_A B[A] with
B[A] = b_1^{a_1} ... b_l^{a_l} (plain powers, no factorial normalization).
Multiplying by a generator on either side is a table lookup in the preset
rules; everything else (the other word's monomials, transition matrices)
is built from that single primitive.

Word-1 monomials are products of the chi-reversed root vectors, so their
normal-ordered form materializes the change of basis: the coefficient of
B[B] in build_pbw(1, A) is gamma-tilde^A_B.  Dividing the rows and columns
by the appropriate q-factorials turns this into the divided-power matrix
gamma, whose entries are integer polynomials in q; each is formed by one
exact division of Laurent polynomials, with no gcd normalisation.
"""

from functools import lru_cache

from .qfield import LaurentPoly, q_factorial, ratio, sum_products
from .presets import (
    preset, rf, ONE, reverse, serre_relations,
    tuples_with_weight, weights_up_to, zero_tuple,
)


# ---------------------------------------------------------------------------
# the multiplication primitive


@lru_cache(maxsize=None)
def _rule_terms(name, side, letter, t):
    """The preset's side rule for the letter on t, as a tuple of terms.

    Normal ordering meets the same tuple many times, and a rule rebuilds
    its coefficients (with their q-integer quotients) on every call.
    """
    p = preset(name)
    rules = p.right_rules if side == "right" else p.left_rules
    return tuple(rules[letter](t))


def mul_letter(name, v, letter, side="right"):
    """Multiply a PBW vector by one generator on the given side."""
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
    """Expand a word expression in the word-2 monomial basis.

    Right-folds the right-multiplication rules, building each word
    left-to-right from the empty monomial.
    """
    unit = {zero_tuple(name): ONE}
    return mul_word_expr(name, unit, wp, side="right")


# ---------------------------------------------------------------------------
# PBW monomials of either word


@lru_cache(maxsize=None)
def _word1_monomial(name, A):
    p = preset(name)
    r = max((k for k in range(p.length) if A[k]), default=-1)
    if r < 0:
        return {zero_tuple(name): ONE}
    prev = _word1_monomial(name, A[:r] + (A[r] - 1,) + A[r + 1:])
    return mul_word_expr(name, prev, p.root_vectors1[r], side="right")


def build_pbw(name, label, A):
    """The monomial c_1^{a_1}...c_l^{a_l} of the given word, normal-ordered.

    For word 2 this is already a basis monomial; for word 1 the result's
    coefficients are the gamma-tilde^A_B row.
    """
    p = preset(name)
    A = tuple(A)
    if len(A) != p.length or min(A) < 0:
        raise ValueError(f"exponent tuple {A} invalid for {name}")
    if label == 2:
        return {A: ONE}
    if label != 1:
        raise ValueError(f"word label must be 1 or 2, got {label!r}")
    return dict(_word1_monomial(name, A))


# ---------------------------------------------------------------------------
# left-multiplication matrices


def rho_column(name, label, letter, A):
    """Left multiplication by e_letter on one tilde monomial: {tuple: coeff}.

    Word 2 reads the left rules directly; word 1 conjugates the word-2
    right rules by the reversing anti-involution, since
    e_i . E^A_1 = chi(E^{rev A}_2 . e_i).
    """
    if label == 2:
        terms = _rule_terms(name, "left", letter, A)
    else:
        terms = [(c, reverse(t))
                 for c, t in _rule_terms(name, "right", letter, reverse(A))]
    return sum_products((t, coeff, ONE) for coeff, t in terms)


def rho_matrix(name, label, letter, weight):
    """Matrix of left multiplication by e_letter on tilde monomials.

    Returns (rows, cols, entries): cols are the word-`label` tuples of the
    source weight, rows those of the weight incremented by the letter's
    root, entries a dict {(row tuple, col tuple) -> coefficient} holding
    the rho_column of every col.
    """
    p = preset(name)
    cols = tuples_with_weight(name, label, weight)
    inc = p.letter_increment(letter)
    target = (weight[0] + inc[0], weight[1] + inc[1])
    rows = tuples_with_weight(name, label, target)
    entries = {(t, A): v for A in cols
               for t, v in rho_column(name, label, letter, A).items()}
    return rows, cols, entries


# ---------------------------------------------------------------------------
# transition matrices


def _factorial_laurent(name, label, t):
    """prod_k [t_k]! in the base attached to the word's k-th letter."""
    p = preset(name)
    word = p.word(label)
    out = LaurentPoly.one()
    for x, i in zip(t, word):
        out = out * q_factorial(x, p.d[i])
    return out


def factorial_product(name, label, t):
    """prod_k [t_k]! as a RationalFunction."""
    return rf(_factorial_laurent(name, label, t))


class TransitionBlock:
    """gamma-tilde and gamma on one weight block.

    rows: word-1 exponent tuples (lexicographic); cols: word-2 tuples.
    Entry (A, B) expands the word-1 monomial of A over word-2 monomials.
    """

    def __init__(self, name, weight, rows, cols, tilde, gamma):
        self.name = name
        self.weight = weight
        self.rows = rows
        self.cols = cols
        self._tilde = tilde
        self._gamma = gamma

    def tilde(self, A, B):
        return self._tilde.get((tuple(A), tuple(B)), rf(0))

    def gamma(self, A, B):
        return self._gamma.get((tuple(A), tuple(B)), rf(0))


@lru_cache(maxsize=None)
def transition_block(name, weight):
    rows = tuples_with_weight(name, 1, weight)
    cols = tuples_with_weight(name, 2, weight)
    if not rows or not cols:
        raise ValueError(f"no tuples of weight {weight} for {name}")
    tilde = {}
    gamma = {}
    col_fact = {B: _factorial_laurent(name, 2, B) for B in cols}
    for A in rows:
        row_fact = _factorial_laurent(name, 1, A)
        v = _word1_monomial(name, A)
        for B, c in v.items():
            tilde[(A, B)] = c
            gamma[(A, B)] = ratio(c.num * col_fact[B], c.den * row_fact)
    return TransitionBlock(name, weight, rows, cols, tilde, gamma)


def serre_residuals(name):
    """Normal-ordered q-Serre sums; all must be empty dicts."""
    return [(pair, normal_order(name, wp))
            for pair, wp in serre_relations(name)]
