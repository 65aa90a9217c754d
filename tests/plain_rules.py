"""The one-letter rules over plain powers: the reference for the presets.

These are the products B[A] . e_i and e_i . B[A] over the plain word-2
monomials B[A] = b_1^{a_1} ... b_l^{a_l}, transcribed term by term; the
C2 and G2 rules carry 1/[2] and 1/[3].  The presets state the same rules
over the divided monomials B^(A) = B[A] / F2(A), so each divided term is
the plain term times F2(u) / F2(t).  Terms with vanishing q-int factors
are dropped before the exponent shift, so no tuple ever goes negative.
A coefficient may be an element of Q(q) or, at verify's symbolic ket, a
polynomial in the q^(t_s); either is false exactly when it is zero.

root_vector reads a presets root vector, a (word expression, divisor)
pair, as the plain word expression it stands for, 1/[2] and 1/[3] in
its coefficients.
"""

from qpbw.qfield import vec_scale
from qpbw.presets import ONE, qbracket, qint, qpow


def root_vector(pair):
    """The word expression over its divisor, divided out."""
    wp, den = pair
    return vec_scale(wp, ONE / den)


def _emit(terms):
    out = []
    for coeff, tup in terms:
        if not coeff:
            continue
        assert min(tup) >= 0, f"negative exponent with nonzero coefficient: {tup}"
        out.append((coeff, tup))
    return out


# -- A2 ---------------------------------------------------------------------

def _a2_right_1(t):
    a, b, c = t
    return [(ONE, (a, b, c + 1))]


def _a2_right_2(t):
    a, b, c = t
    return _emit([
        (qpow(c - b), (a + 1, b, c)),
        (qint(c), (a, b + 1, c - 1)),
    ])


def _a2_left_1(t):
    a, b, c = t
    return _emit([
        (qpow(a - b), (a, b, c + 1)),
        (qint(a), (a - 1, b + 1, c)),
    ])


def _a2_left_2(t):
    a, b, c = t
    return [(ONE, (a + 1, b, c))]


# -- C2 ---------------------------------------------------------------------

def _c2_right_1(t):
    a, b, c, d = t
    return [(ONE, (a, b, c, d + 1))]


def _c2_right_2(t):
    a, b, c, d = t
    inv2 = ONE / qint(2)
    return _emit([
        (qint(d) * qpow(d - 2 * c - 1), (a, b + 1, c, d - 1)),
        (qpow(2 * (d - b)), (a + 1, b, c, d)),
        (-qbracket(1) * qpow(2 * d - 2 * c + 1) * qint(c, 2) * inv2,
         (a, b + 2, c - 1, d)),
        (qint(d - 1) * qint(d), (a, b, c + 1, d - 2)),
    ])


def _c2_left_1(t):
    a, b, c, d = t
    return _emit([
        (qint(2) * qint(b) * qpow(2 * a - b + 1), (a, b - 1, c + 1, d)),
        (qpow(2 * a - 2 * c), (a, b, c, d + 1)),
        (qint(a, 2), (a - 1, b + 1, c, d)),
    ])


def _c2_left_2(t):
    a, b, c, d = t
    return [(ONE, (a + 1, b, c, d))]


# -- G2 ---------------------------------------------------------------------

def _g2_right_1(t):
    a, b, c, d, e, f = t
    return [(ONE, (a, b, c, d, e, f + 1))]


def _g2_right_2(t):
    a, b, c, d, e, f = t
    inv3 = ONE / qint(3)
    return _emit([
        (-qbracket(1) * qint(e, 3) * qpow(-3 * c - d + 3 * f - 1),
         (a, b + 1, c, d + 1, e - 1, f)),
        (qbracket(1) ** 2 * qint(e - 1, 3) * qint(e, 3) * inv3
         * qpow(-3 * e + 3 * f + 3), (a, b, c, d + 3, e - 2, f)),
        (-qbracket(3) * qint(d - 1) * qint(d)
         * qpow(-3 * c - 2 * d + 3 * e + 3 * f + 1),
         (a, b + 1, c + 1, d - 2, e, f)),
        (-qbracket(1) * qint(d) * qpow(-6 * c - d + 3 * (e + f)),
         (a, b + 2, c, d - 1, e, f)),
        (qint(f - 1) * qint(f) * qpow(-3 * e + f - 2),
         (a, b, c, d + 1, e, f - 2)),
        (qint(3) * qint(d) * qint(f) * qpow(2 * f - 2 * d),
         (a, b, c + 1, d - 1, e, f - 1)),
        (qint(f) * qpow(-3 * c - d + 2 * f - 2), (a, b + 1, c, d, e, f - 1)),
        (qpow(-3 * (b + c - e - f)), (a + 1, b, c, d, e, f)),
        (qbracket(1) ** 2 * qint(c, 3) * inv3 * qpow(3 * (-2 * c + e + f + 1)),
         (a, b + 3, c - 1, d, e, f)),
        (-qbracket(3) * qint(d - 2) * qint(d - 1) * qint(d)
         * qpow(3 * (-d + e + f + 2)), (a, b, c + 2, d - 3, e, f)),
        (-qbracket(1) * qint(e, 3) * qint(f) * qpow(-3 * e + 2 * f),
         (a, b, c, d + 2, e - 1, f - 1)),
        (-qint(e, 3) * qpow(-3 * d + 3 * f)
         * (qpow(2 * d + 1) * qint(3) - qint(2, 3)),
         (a, b, c + 1, d, e - 1, f)),
        (qint(f - 2) * qint(f - 1) * qint(f), (a, b, c, d, e + 1, f - 3)),
    ])


def _g2_left_1(t):
    a, b, c, d, e, f = t
    return _emit([
        (-qbracket(1) * qint(c, 3) * qpow(3 * a + b - 3 * c + 2),
         (a, b, c - 1, d + 2, e, f)),
        (qint(3) * qint(b - 1) * qint(b) * qpow(3 * a - b + 2),
         (a, b - 2, c + 1, d, e, f)),
        (qint(3) * qint(d) * qpow(3 * a + b - 2 * d + 2),
         (a, b, c, d - 1, e + 1, f)),
        (qpow(3 * a + b - d - 3 * e), (a, b, c, d, e, f + 1)),
        (qint(2) * qint(b) * qpow(3 * (a - c)), (a, b - 1, c, d + 1, e, f)),
        (qint(a, 3), (a - 1, b + 1, c, d, e, f)),
    ])


def _g2_left_2(t):
    a, b, c, d, e, f = t
    return [(ONE, (a + 1, b, c, d, e, f))]


RULES = {
    ("A2", "right"): {1: _a2_right_1, 2: _a2_right_2},
    ("A2", "left"): {1: _a2_left_1, 2: _a2_left_2},
    ("C2", "right"): {1: _c2_right_1, 2: _c2_right_2},
    ("C2", "left"): {1: _c2_left_1, 2: _c2_left_2},
    ("G2", "right"): {1: _g2_right_1, 2: _g2_right_2},
    ("G2", "left"): {1: _g2_left_1, 2: _g2_left_2},
}


def plain_rule(name, side, letter):
    """The plain-power rule for e_letter on the given side."""
    return RULES[name, side][letter]
