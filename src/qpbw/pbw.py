"""Normal-form arithmetic in the positive half of the quantized algebra.

Elements are kept in the divided word-2 monomial basis: a PBW vector is a
dict {exponent tuple -> coefficient} representing sum c_A B^(A), with
B^(A) = B[A] / F2(A), B[A] = b_1^{a_1} ... b_l^{a_l} and F2(A) = prod_k
[a_k]! in the base of the word's k-th letter.  This is the only basis the
module works in, and the one the preset rules are written in: multiplying
by a generator on either side reads the rule's terms as they stand.

The divided monomials of either word span Lusztig's Z[q, q^-1]-form, so
every rule coefficient is a LaurentPoly, and so is every coefficient of
a divided word-1 monomial E_1^(A) over the divided word-2 basis: these
coefficients are the entries gamma^A_B.  E_1^(A) is built one
root vector at a time, each step one exact division by [a_r] times the
divisor the presets state with that root vector, so normal ordering
multiplies Laurent polynomials only and runs no gcd.  An inexact division
raises ArithmeticError.

gamma is held by weight block, as a TransitionBlock: the dict
{A: {B: gamma^A_B}} of the block's word-1 rows, nonzero entries only,
which is the layout of a Phi block.  It is read two ways.  Random access
(transition_block) keeps every block and every row it has built for the
life of the process, in lru_caches.  A sweep over a height range
(transition_blocks) caches nothing and keeps a row only until the last
row built from it: never more than word 1's highest root height above its
own (A2 2, C2 3, G2 5).
"""

from collections import defaultdict
from functools import lru_cache
from itertools import groupby

from .qfield import exact_quotient, qint, sum_products
from .presets import (
    preset, ONE, ZERO, reverse, serre_relations, tuples_with_weight,
    weights_up_to, zero_tuple,
)


# ---------------------------------------------------------------------------
# the multiplication primitive


@lru_cache(maxsize=None)
def _rule_terms(name, side, letter, t):
    """The preset's side rule for the letter on B^(t): ((coeff, u), ...).

    Normal ordering meets the same tuple many times, so the terms are
    cached.
    """
    p = preset(name)
    rules = p.right_rules if side == "right" else p.left_rules
    return tuple(rules[letter](t))


def mul_letter(name, v, letter):
    """Multiply a divided PBW vector by one generator on the right.

    Left multiplication has one path, rho_column.
    """
    return sum_products((u, coeff, c) for t, c in v.items()
                        for coeff, u in _rule_terms(name, "right", letter, t))


def mul_word_expr(name, v, wp):
    """v . wp for a word expression wp."""
    def terms():
        for w, c in wp.items():
            cur = v
            for i in w:
                cur = mul_letter(name, cur, i)
            for t, x in cur.items():
                yield t, x, c

    return sum_products(terms())


def normal_order(name, wp):
    """Expand a word expression in the divided word-2 basis B^(A).

    Right-folds the right-multiplication rules, building each word
    left-to-right from the empty monomial.
    """
    unit = {zero_tuple(name): ONE}
    return mul_word_expr(name, unit, wp)


# ---------------------------------------------------------------------------
# divided word-1 monomials


def _last_slot(A):
    """The last nonzero slot of A, -1 for the zero tuple."""
    return max((k for k, a in enumerate(A) if a), default=-1)


def _divided_row(name, A, row_below):
    """E_1^(A) over the divided word-2 basis: {B: gamma^A_B}.

    With r the last nonzero slot, E_1^(A) = E_1^(A - e_r) . c_r / [a_r];
    row_below(A - e_r) supplies the row E_1^(A - e_r).
    """
    p = preset(name)
    r = _last_slot(A)
    if r < 0:
        return {zero_tuple(name): ONE}
    prev = row_below(A[:r] + (A[r] - 1,) + A[r + 1:])
    wp, den = p.root_vectors1[r]
    den = den * qint(A[r], p.d[p.word1[r]])
    weight = p.conserved1(A)
    return {B: exact_quotient(c, den,
                              "gamma of {} at weight {}, row {}, column {}",
                              name, weight, A, B)
            for B, c in mul_word_expr(name, prev, wp).items()}


@lru_cache(maxsize=None)
def _word1_divided(name, A):
    """E_1^(A) over the divided word-2 basis, cached for the process."""
    return _divided_row(name, A, lambda below: _word1_divided(name, below))


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
        preset(name).word(label)    # a label other than 1 or 2 raises
        terms = [(c, reverse(t)) for c, t in
                 _rule_terms(name, "right", letter, reverse(A))]
    return sum_products((t, coeff, ONE) for coeff, t in terms)


# ---------------------------------------------------------------------------
# transition matrices


class TransitionBlock(dict):
    """gamma on one weight block: {A: {B: gamma^A_B}}.

    The keys are the block's word-1 tuples A, in tuples_with_weight
    order; the value of A is the divided word-1 monomial E_1^(A) over the
    divided word-2 basis, {B: gamma^A_B}, nonzero entries only, held
    without a copy, so callers must not mutate it.  The word-2 tuples B of
    the block are tuples_with_weight(name, 2, weight).
    """

    def gamma(self, A, B):
        """gamma^A_B; ZERO off the block's support, ValueError unless A
        and B have the block's tuple length and no negative entry."""
        A, B = tuple(A), tuple(B)
        width = len(next(iter(self)))
        for t in (A, B):
            if len(t) != width:
                raise ValueError(f"exponent tuples of this block have "
                                 f"{width} entries, got {len(t)}")
            if min(t) < 0:
                raise ValueError(f"exponent tuple {t} has a negative entry")
        return self.get(A, {}).get(B, ZERO)


@lru_cache(maxsize=None)
def transition_block(name, weight):
    """gamma on one weight block, its rows from the process-wide cache."""
    rows = tuples_with_weight(name, 1, weight)
    if not rows:
        raise ValueError(f"no tuples of weight {weight} for {name}")
    return TransitionBlock((A, _word1_divided(name, A)) for A in rows)


def transition_blocks(name, max_height):
    """Yield (weight, TransitionBlock) for every weight up to max_height,
    in weights_up_to order, holding only the rows still to be read.

    The row of A, with last nonzero slot r, is read by the rows A + e_s,
    s >= r, each higher by the height of the s-th root; it is dropped once
    the highest of those heights is built.  So no row outlives the
    `max root height` heights above its own (A2 2, C2 3, G2 5), and
    nothing enters _word1_divided's cache.
    """
    p = preset(name)
    lift = [sum(root) for root in p.word1_roots]
    last_read = [max(lift[r:]) for r in range(p.length)]
    live, expiring = {}, defaultdict(list)
    for height, weights in groupby(weights_up_to(name, max_height), key=sum):
        for weight in weights:
            block = TransitionBlock(
                (A, _divided_row(name, A, live.__getitem__))
                for A in tuples_with_weight(name, 1, weight))
            live.update(block)
            for A in block:
                expiring[height + last_read[max(_last_slot(A), 0)]].append(A)
            yield weight, block
        for A in expiring.pop(height, ()):
            del live[A]


def serre_residuals(name):
    """Normal-ordered q-Serre sums; all must be empty dicts."""
    return [(pair, normal_order(name, wp))
            for pair, wp in serre_relations(name)]
