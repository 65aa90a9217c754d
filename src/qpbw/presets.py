"""Exact structure constants for the rank-2 cases A2, C2, G2.

Each algebra comes with the two reduced words of the longest Weyl element,
written word 1 and word 2 (word 1 starts with node 1).  All low-level data
is attached to word 2: the positive-root sequence, the root vectors
b_1..b_l as flat expansions in the letters e_1, e_2 over a divisor, and
the one-letter multiplication rules for the divided monomials
B^(A) = B[A] / F2(A), where B[A] = b_1^{a_1} ... b_l^{a_l} and F2(A) =
prod_k [a_k]! in the base of the word's k-th letter.  The word-1 root
vectors are the images under the coefficient-fixing anti-involution chi
(chi(e_i) = e_i), which reverses every word; downstream code obtains all
word-1 statements from word-2 ones by tuple reversal.

The function-algebra side is driven by the generator matrices pi_i(T)
(one q_i-oscillator per Dynkin node, parameters set to 1) together with
the t-polynomials giving sigma_i and sigma_i e_i.

Every q-number here (qpow, qint, qbracket, qbinom) is qfield's, the one
home of the q-numbers; this module defines none of its own.

Conventions:
  * every coefficient is a LaurentPoly, qfield's type for Z[q, q^-1];
  * a "word expression" is a dict {letters tuple -> coefficient},
    e.g. b_2 for A2 is {(1, 2): 1, (2, 1): -q};
  * a root vector is a pair (word expression, divisor), the expression
    over the divisor, both Laurent, e.g. b_3 for C2 is ({(1, 1, 2): 1,
    (1, 2, 1): -1 - q^2, (2, 1, 1): q^2}, [2]); the divisor is ONE for A2
    and for the simple roots;
  * a "mode-op sum" is a tuple of (coeff, atoms) pairs where atoms is a
    tuple over {"a+", "a-", "k"} read left to right as an operator product;
  * multiplication rules map an exponent tuple to a list of
    (coeff, exponent tuple) pairs.
"""

from functools import lru_cache

from .qfield import (
    ONE,
    ZERO,
    qbinom,
    qbracket,
    qint,
    qpow,
    rf,
    sum_products,
    vec_add,
    vec_scale,
)

ALGEBRAS = ("A2", "C2", "G2")
# Kind of each algebra's checked table: R (tetrahedron), K (3D reflection), F.
KIND_ALGEBRA = {"R": "A2", "K": "C2", "F": "G2"}
ALGEBRA_KIND = {a: k for k, a in KIND_ALGEBRA.items()}
DEFAULT_HEIGHTS = {"A2": 8, "C2": 8, "G2": 5}  # when no height is given


def reverse(t):
    return tuple(reversed(t))


# ---------------------------------------------------------------------------
# word expressions (finite sums of words in the letters 1, 2)

def wp_mul(x, y):
    return sum_products((wx + wy, vx, vy) for wx, vx in x.items()
                        for wy, vy in y.items())


def wp_chi(wp):
    """The anti-involution fixing the letters: reverse every word."""
    return {reverse(w): v for w, v in wp.items()}


def _letter(i):
    return {(i,): ONE}


# ---------------------------------------------------------------------------
# preset container


class AlgebraPreset:
    """All exact data for one rank-2 algebra; build once via preset()."""

    def __init__(self, name, d2, word1, word2, cartan, word2_roots,
                 root_vectors2, right_rules, left_rules,
                 sigma_polys, pi_matrix, n_gen):
        self.name = name
        self.length = len(word1)
        self.word1 = word1
        self.word2 = word2
        self.d = {1: 1, 2: d2}
        self.cartan = cartan
        self.word2_roots = word2_roots          # (alpha1-coeff, alpha2-coeff) pairs
        self.word1_roots = reverse(word2_roots)
        self.root_vectors2 = root_vectors2      # (wp, divisor) for b_1..b_l
        # chi sends the word-2 basis monomial for A to the word-1 monomial
        # for reversed A, so the r-th word-1 root vector is chi(b_{l+1-r}),
        # with b_{l+1-r}'s divisor
        self.root_vectors1 = tuple((wp_chi(w), den)
                                   for w, den in reverse(root_vectors2))
        self.right_rules = right_rules          # {letter: rule}, B^(A).e_i, word 2
        self.left_rules = left_rules            # {letter: rule}, e_i.B^(A)
        self.sigma_polys = sigma_polys          # {(node, tag): t-polynomial}
        self.pi_matrix = pi_matrix              # {node: NxN mode-op sums}
        self.n_gen = n_gen

    def bases(self, word):
        """The oscillator base exponent d of each letter of a word: its
        slot bases are q^d."""
        return tuple(self.d[i] for i in word)

    def word(self, label):
        if label == 1:
            return self.word1
        if label == 2:
            return self.word2
        raise ValueError(f"word label must be 1 or 2, got {label!r}")

    def conserved2(self, t):
        """The pair of conserved functionals of a word-2 exponent tuple.

        Returns (total alpha_2 content, total alpha_1 content) of the
        associated product of root vectors; both bases of the transition
        problem preserve the pair blockwise.  Every library entry point
        that takes an exponent tuple comes through here, so a tuple of
        the wrong length, or with a negative entry, raises ValueError here.
        """
        if len(t) != self.length:
            raise ValueError(f"{self.name} exponent tuples have "
                             f"{self.length} entries, got {len(t)}")
        if min(t) < 0:
            raise ValueError(f"exponent tuple {t} has a negative entry")
        m1 = sum(x * r[0] for x, r in zip(t, self.word2_roots))
        m2 = sum(x * r[1] for x, r in zip(t, self.word2_roots))
        return (m2, m1)

    def conserved1(self, t):
        """Same pair for a word-1 exponent tuple."""
        return self.conserved2(reverse(t))

    def letter_increment(self, i):
        """How the conserved pair moves under multiplication by e_i."""
        return (1, 0) if i == 2 else (0, 1)

    def __repr__(self):
        return f"AlgebraPreset({self.name})"


# ---------------------------------------------------------------------------
# multiplication rules: the one-letter products in the divided word-2
# basis.  A term's coefficient is the plain-power one times F2(u) / F2(t),
# written out as q-integers, q-binomials and q-powers, so it is a Laurent
# polynomial (Lusztig's integral form).  A term whose shifted tuple would
# go negative is absent from the product, although its coefficient is not
# zero there, so it is dropped by its tuple.  A symbolic entry keeps it.


def _emit(terms):
    return [(coeff, u) for coeff, u in terms if min(u) >= 0]


# -- A2 ---------------------------------------------------------------------

def _a2_right_1(t):
    a, b, c = t
    return [(qint(c + 1), (a, b, c + 1))]


def _a2_right_2(t):
    a, b, c = t
    return _emit([
        (qpow(c - b) * qint(a + 1), (a + 1, b, c)),
        (qint(b + 1), (a, b + 1, c - 1)),
    ])


def _a2_left_1(t):
    a, b, c = t
    return _emit([
        (qpow(a - b) * qint(c + 1), (a, b, c + 1)),
        (qint(b + 1), (a - 1, b + 1, c)),
    ])


def _a2_left_2(t):
    a, b, c = t
    return [(qint(a + 1), (a + 1, b, c))]


# -- C2 ---------------------------------------------------------------------

def _c2_right_1(t):
    a, b, c, d = t
    return [(qint(d + 1), (a, b, c, d + 1))]


def _c2_right_2(t):
    a, b, c, d = t
    return _emit([
        (qint(b + 1) * qpow(d - 2 * c - 1), (a, b + 1, c, d - 1)),
        (qint(a + 1, 2) * qpow(2 * (d - b)), (a + 1, b, c, d)),
        (-qbracket(1) * qpow(2 * d - 2 * c + 1) * qbinom(b + 2, 2),
         (a, b + 2, c - 1, d)),
        (qint(c + 1, 2), (a, b, c + 1, d - 2)),
    ])


def _c2_left_1(t):
    a, b, c, d = t
    return _emit([
        (qint(2) * qint(c + 1, 2) * qpow(2 * a - b + 1), (a, b - 1, c + 1, d)),
        (qint(d + 1) * qpow(2 * a - 2 * c), (a, b, c, d + 1)),
        (qint(b + 1), (a - 1, b + 1, c, d)),
    ])


def _c2_left_2(t):
    a, b, c, d = t
    return [(qint(a + 1, 2), (a + 1, b, c, d))]


# -- G2 ---------------------------------------------------------------------

def _g2_right_1(t):
    a, b, c, d, e, f = t
    return [(qint(f + 1), (a, b, c, d, e, f + 1))]


def _g2_right_2(t):
    a, b, c, d, e, f = t
    return _emit([
        (-qbracket(1) * qint(b + 1) * qint(d + 1)
         * qpow(-3 * c - d + 3 * f - 1),
         (a, b + 1, c, d + 1, e - 1, f)),
        (qbracket(1) ** 2 * qint(2) * qbinom(d + 3, 3)
         * qpow(-3 * e + 3 * f + 3), (a, b, c, d + 3, e - 2, f)),
        (-qbracket(3) * qint(b + 1) * qint(c + 1, 3)
         * qpow(-3 * c - 2 * d + 3 * e + 3 * f + 1),
         (a, b + 1, c + 1, d - 2, e, f)),
        (-qbracket(1) * qint(b + 1) * qint(b + 2)
         * qpow(-6 * c - d + 3 * (e + f)), (a, b + 2, c, d - 1, e, f)),
        (qint(d + 1) * qpow(-3 * e + f - 2), (a, b, c, d + 1, e, f - 2)),
        (qint(3) * qint(c + 1, 3) * qpow(2 * f - 2 * d),
         (a, b, c + 1, d - 1, e, f - 1)),
        (qint(b + 1) * qpow(-3 * c - d + 2 * f - 2),
         (a, b + 1, c, d, e, f - 1)),
        (qint(a + 1, 3) * qpow(-3 * (b + c - e - f)), (a + 1, b, c, d, e, f)),
        (qbracket(1) ** 2 * qint(2) * qbinom(b + 3, 3)
         * qpow(3 * (-2 * c + e + f + 1)), (a, b + 3, c - 1, d, e, f)),
        (-qbracket(3) * qint(c + 1, 3) * qint(c + 2, 3)
         * qpow(3 * (-d + e + f + 2)), (a, b, c + 2, d - 3, e, f)),
        (-qbracket(1) * qint(d + 1) * qint(d + 2) * qpow(-3 * e + 2 * f),
         (a, b, c, d + 2, e - 1, f - 1)),
        (-qint(c + 1, 3) * qpow(-3 * d + 3 * f)
         * (qpow(2 * d + 1) * qint(3) - qint(2, 3)),
         (a, b, c + 1, d, e - 1, f)),
        (qint(e + 1, 3), (a, b, c, d, e + 1, f - 3)),
    ])


def _g2_left_1(t):
    a, b, c, d, e, f = t
    return _emit([
        (-qbracket(1) * qint(d + 1) * qint(d + 2)
         * qpow(3 * a + b - 3 * c + 2), (a, b, c - 1, d + 2, e, f)),
        (qint(3) * qint(c + 1, 3) * qpow(3 * a - b + 2),
         (a, b - 2, c + 1, d, e, f)),
        (qint(3) * qint(e + 1, 3) * qpow(3 * a + b - 2 * d + 2),
         (a, b, c, d - 1, e + 1, f)),
        (qint(f + 1) * qpow(3 * a + b - d - 3 * e), (a, b, c, d, e, f + 1)),
        (qint(2) * qint(d + 1) * qpow(3 * (a - c)),
         (a, b - 1, c, d + 1, e, f)),
        (qint(b + 1), (a - 1, b + 1, c, d, e, f)),
    ])


def _g2_left_2(t):
    a, b, c, d, e, f = t
    return [(qint(a + 1, 3), (a + 1, b, c, d, e, f))]


# ---------------------------------------------------------------------------
# root vectors ((word expression, divisor) pairs, word-2 ordering)


def _qcomm(x, y, c):
    """The q-commutator x y - c y x of two word expressions."""
    return vec_add(wp_mul(x, y), vec_scale(wp_mul(y, x), -c))


def _roots_a2():
    b1 = _letter(2)
    b3 = _letter(1)
    b2 = _qcomm(b3, b1, qpow(1))
    return ((b1, ONE), (b2, ONE), (b3, ONE))


def _roots_c2():
    e1, e2 = _letter(1), _letter(2)
    b2 = _qcomm(e1, e2, qpow(2))
    b3 = _qcomm(e1, b2, 1)
    return ((e2, ONE), (b2, ONE), (b3, qint(2)), (e1, ONE))


def _roots_g2():
    e1, e2 = _letter(1), _letter(2)
    b2 = _qcomm(e1, e2, qpow(3))
    x4 = _qcomm(e1, b2, qpow(1))            # b_4 = x4 / [2]
    # b_5 and b_3 are q-commutators with b_4 over [3], so over [2][3];
    # normalization pinned by b_6 b_4 = [3] b_5 + q^-1 b_4 b_6
    x5 = _qcomm(e1, x4, qpow(-1))
    x3 = _qcomm(x4, b2, qpow(-1))
    den = qint(2) * qint(3)
    return ((e2, ONE), (b2, ONE), (x3, den), (x4, qint(2)), (x5, den),
            (e1, ONE))


# ---------------------------------------------------------------------------
# representation data


def _op(*terms):
    """Mode-op sum from (coeff, atoms) pairs."""
    return tuple((rf(c), atoms) for c, atoms in terms)


_ID = _op((1, ()))
_AP = _op((1, ("a+",)))
_AM = _op((1, ("a-",)))
_KK = _op((1, ("k",)))
_Z = ()


def _pi_a2():
    q = qpow(1)
    mqk = _op((-q, ("k",)))
    pi1 = [[_AM, _KK, _Z],
           [mqk, _AP, _Z],
           [_Z, _Z, _ID]]
    pi2 = [[_ID, _Z, _Z],
           [_Z, _AM, _KK],
           [_Z, mqk, _AP]]
    return {1: pi1, 2: pi2}


def _pi_c2():
    q = qpow(1)
    q2 = qpow(2)
    mqk = _op((-q, ("k",)))
    mk = _op((-1, ("k",)))
    qk = _op((q, ("k",)))
    mq2k = _op((-q2, ("k",)))
    pi1 = [[_AM, _KK, _Z, _Z],
           [mqk, _AP, _Z, _Z],
           [_Z, _Z, _AM, mk],
           [_Z, _Z, qk, _AP]]
    pi2 = [[_ID, _Z, _Z, _Z],
           [_Z, _AM, _KK, _Z],
           [_Z, mq2k, _AP, _Z],
           [_Z, _Z, _Z, _ID]]
    return {1: pi1, 2: pi2}


def _pi_g2():
    q = qpow(1)
    q2 = qpow(2)
    q3 = qpow(3)
    two1 = qint(2)
    mqk = _op((-q, ("k",)))
    mq3k = _op((-q3, ("k",)))
    pi1 = [
        [_AM, _KK, _Z, _Z, _Z, _Z, _Z],
        [mqk, _AP, _Z, _Z, _Z, _Z, _Z],
        [_Z, _Z, _op((1, ("a-", "a-"))), _op((two1, ("k", "a-"))),
         _op((1, ("k", "k"))), _Z, _Z],
        [_Z, _Z, _op((-q, ("a-", "k"))),
         _op((1, ("a-", "a+")), (-1, ("k", "k"))),
         _op((1, ("k", "a+"))), _Z, _Z],
        [_Z, _Z, _op((q2, ("k", "k"))), _op((-two1, ("k", "a+"))),
         _op((1, ("a+", "a+"))), _Z, _Z],
        [_Z, _Z, _Z, _Z, _Z, _AM, _KK],
        [_Z, _Z, _Z, _Z, _Z, mqk, _AP],
    ]
    pi2 = [
        [_ID, _Z, _Z, _Z, _Z, _Z, _Z],
        [_Z, _AM, _KK, _Z, _Z, _Z, _Z],
        [_Z, mq3k, _AP, _Z, _Z, _Z, _Z],
        [_Z, _Z, _Z, _ID, _Z, _Z, _Z],
        [_Z, _Z, _Z, _Z, _AM, _KK, _Z],
        [_Z, _Z, _Z, _Z, mq3k, _AP, _Z],
        [_Z, _Z, _Z, _Z, _Z, _Z, _ID],
    ]
    return {1: pi1, 2: pi2}


def _tpoly(*terms):
    """t-polynomial: sum of coeff * t_{j1 k1} t_{j2 k2} ... products."""
    return tuple((rf(c), tuple(idx)) for c, idx in terms)


def _sigma_a2():
    q = qpow(1)
    return {
        (1, "sigma"): _tpoly((1, [(1, 3)])),
        (1, "sigma_e"): _tpoly((1, [(2, 3)])),
        (2, "sigma"): _tpoly((1, [(1, 2), (2, 3)]), (-q, [(2, 2), (1, 3)])),
        (2, "sigma_e"): _tpoly((1, [(1, 2), (3, 3)]), (-q, [(3, 2), (1, 3)])),
    }


def _sigma_c2():
    q = qpow(1)
    return {
        (1, "sigma"): _tpoly((1, [(1, 4)])),
        (1, "sigma_e"): _tpoly((1, [(2, 4)])),
        (2, "sigma"): _tpoly((1, [(1, 3), (2, 4)]), (-q, [(2, 3), (1, 4)])),
        (2, "sigma_e"): _tpoly((1, [(1, 3), (3, 4)]), (-q, [(3, 3), (1, 4)])),
    }


def _sigma_g2():
    q = qpow(1)
    return {
        (1, "sigma"): _tpoly((1, [(1, 7)])),
        (1, "sigma_e"): _tpoly((1, [(2, 7)])),
        (2, "sigma"): _tpoly((1, [(2, 6), (1, 7)]), (-q, [(2, 7), (1, 6)])),
        (2, "sigma_e"): _tpoly((1, [(3, 6), (1, 7)]), (-q, [(3, 7), (1, 6)])),
    }


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def preset(name):
    if name == "A2":
        return AlgebraPreset(
            name="A2", d2=1,
            word1=(1, 2, 1), word2=(2, 1, 2),
            cartan={(1, 2): -1, (2, 1): -1},
            word2_roots=((0, 1), (1, 1), (1, 0)),
            root_vectors2=_roots_a2(),
            right_rules={1: _a2_right_1, 2: _a2_right_2},
            left_rules={1: _a2_left_1, 2: _a2_left_2},
            sigma_polys=_sigma_a2(),
            pi_matrix=_pi_a2(),
            n_gen=3,
        )
    if name == "C2":
        return AlgebraPreset(
            name="C2", d2=2,
            word1=(1, 2, 1, 2), word2=(2, 1, 2, 1),
            cartan={(1, 2): -2, (2, 1): -1},
            word2_roots=((0, 1), (1, 1), (2, 1), (1, 0)),
            root_vectors2=_roots_c2(),
            right_rules={1: _c2_right_1, 2: _c2_right_2},
            left_rules={1: _c2_left_1, 2: _c2_left_2},
            sigma_polys=_sigma_c2(),
            pi_matrix=_pi_c2(),
            n_gen=4,
        )
    if name == "G2":
        return AlgebraPreset(
            name="G2", d2=3,
            word1=(1, 2, 1, 2, 1, 2), word2=(2, 1, 2, 1, 2, 1),
            cartan={(1, 2): -3, (2, 1): -1},
            word2_roots=((0, 1), (1, 1), (3, 2), (2, 1), (3, 1), (1, 0)),
            root_vectors2=_roots_g2(),
            right_rules={1: _g2_right_1, 2: _g2_right_2},
            left_rules={1: _g2_left_1, 2: _g2_left_2},
            sigma_polys=_sigma_g2(),
            pi_matrix=_pi_g2(),
            n_gen=7,
        )
    raise ValueError(f"unknown algebra {name!r}; expected one of {ALGEBRAS}")


def zero_tuple(name):
    return (0,) * preset(name).length


@lru_cache(maxsize=None)
def tuples_with_weight(name, label, weight):
    """All exponent tuples of the word with the given conserved pair.

    Returned in ascending lexicographic order (the DFS below increments
    the leftmost position slowest).
    """
    p = preset(name)
    p.word(label)                   # a label other than 1 or 2 raises
    roots = p.word2_roots if label == 2 else p.word1_roots
    out = []
    acc = [0] * p.length

    def rec(pos, m2, m1):
        if pos == p.length:
            if m2 == 0 and m1 == 0:
                out.append(tuple(acc))
            return
        r1, r2 = roots[pos]
        top = min(m2 // r2 if r2 else m2 + m1,
                  m1 // r1 if r1 else m2 + m1)
        for x in range(top + 1):
            acc[pos] = x
            rec(pos + 1, m2 - x * r2, m1 - x * r1)
        acc[pos] = 0

    rec(0, weight[0], weight[1])
    return tuple(out)


def weights_up_to(name, max_height):
    """All realizable conserved pairs (m2, m1) with m2 + m1 <= max_height.

    Every such pair is realizable in both words (take the two pure
    simple-root slots), so no emptiness filter is needed.
    """
    return [(m2, h - m2) for h in range(max_height + 1)
            for m2 in range(h + 1)]


def serre_relations(name):
    """The q-Serre sums as word expressions (each must normal-order to zero).

    For each ordered pair (i, j), i != j, returns
    sum_r (-1)^r [n choose r]_{q_i} e_i^r e_j e_i^{n-r} with n = 1 - a_ij
    (the divided-power relation cleared of its factorial denominator).
    """
    p = preset(name)
    out = []
    for (i, j), a in p.cartan.items():
        n = 1 - a
        # the r-th word has r leading letters i, so no two words coincide
        wp = {(i,) * r + (j,) + (i,) * (n - r):
              -qbinom(n, r, p.d[i]) if r % 2 else qbinom(n, r, p.d[i])
              for r in range(n + 1)}
        out.append(((i, j), wp))
    return out
