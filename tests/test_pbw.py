"""Normal-ordering engine checks: rules vs root vectors, divided basis.

The engine works in the divided word-2 basis B^(A) = B[A] / F2(A) only.
Plain-power references (coefficients of B[A]) are formed in this file
from the plain rules of tests/plain_rules.py, and rescaled by F2 where
they meet the engine.
"""

import random
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qpbw import pbw
from qpbw.qfield import (
    LaurentPoly, canonical_string, is_integer_polynomial, q_factorial,
    sum_products,
)
from qpbw.presets import (
    ALGEBRAS, ZERO, preset, rf, qpow, qint, qbracket, wp_mul,
    tuples_with_weight, weights_up_to, zero_tuple,
)
from qpbw.pbw import (
    mul_letter,
    normal_order,
    rho_column,
    serre_residuals,
    transition_block,
    transition_blocks,
)
from qpbw.pbw import _rule_terms, _word1_divided

from plain_rules import plain_rule, root_vector
from rule_mutants import _drop_second_term, _first_times_q


def lp(d):
    return rf(LaurentPoly(d))


def _factorials(name, label, t):
    """prod_k [t_k]! in the base of the word's k-th letter."""
    p = preset(name)
    out = rf(1)
    for x, node in zip(t, p.word(label)):
        out = out * rf(q_factorial(x, p.d[node]))
    return out


def _divided(name, plain, t=None):
    """Plain word-2 coefficients {u: c} of a product with B[t] (the unit
    when t is None), rescaled to the divided basis: c * F2(u) / F2(t)."""
    ft = rf(1) if t is None else _factorials(name, 2, t)
    return {u: c * _factorials(name, 2, u) / ft for u, c in plain.items()}


def _plain_mul(name, v, wp):
    """v . wp over plain monomials B[A], read straight off the plain right
    rules."""
    def terms():
        for w, c in wp.items():
            cur = v
            for i in w:
                rule = plain_rule(name, "right", i)
                cur = sum_products((u, coeff, x) for t, x in cur.items()
                                   for coeff, u in rule(t))
            for t, x in cur.items():
                yield t, x, c

    return sum_products(terms())


# ---------------------------------------------------------------------------
# the quadratic relations among root vectors, transcribed independently of
# the one-letter rules; r > s throughout, monomials written as exponent
# tuples in the word-2 ordering


A2_COMM = {
    (2, 1): {(1, 1, 0): qpow(-1)},
    (3, 1): {(0, 1, 0): rf(1), (1, 0, 1): qpow(1)},
    (3, 2): {(0, 1, 1): qpow(-1)},
}

C2_COMM = {
    (2, 1): {(1, 1, 0, 0): qpow(-2)},
    (3, 1): {(0, 2, 0, 0): -qpow(-1) * qbracket(1) / qint(2),
             (1, 0, 1, 0): rf(1)},
    (4, 1): {(0, 1, 0, 0): rf(1), (1, 0, 0, 1): qpow(2)},
    (3, 2): {(0, 1, 1, 0): qpow(-2)},
    (4, 2): {(0, 0, 1, 0): qint(2), (0, 1, 0, 1): rf(1)},
    (4, 3): {(0, 0, 1, 1): qpow(-2)},
}

G2_COMM = {
    (2, 1): {(1, 1, 0, 0, 0, 0): qpow(-3)},
    (3, 1): {(0, 3, 0, 0, 0, 0): qbracket(1) ** 2 * qpow(-3) / qint(3),
             (1, 0, 1, 0, 0, 0): qpow(-3)},
    (4, 1): {(1, 0, 0, 1, 0, 0): rf(1),
             (0, 2, 0, 0, 0, 0): -qbracket(1) * qpow(-1)},
    (5, 1): {(1, 0, 0, 0, 1, 0): qpow(3),
             (0, 1, 0, 1, 0, 0): -qbracket(1) * qpow(-1),
             (0, 0, 1, 0, 0, 0): -lp({4: 1, 2: 1, 0: -1}) * qpow(-3)},
    (6, 1): {(1, 0, 0, 0, 0, 1): qpow(3), (0, 1, 0, 0, 0, 0): rf(1)},
    (3, 2): {(0, 1, 1, 0, 0, 0): qpow(-3)},
    (4, 2): {(0, 1, 0, 1, 0, 0): qpow(-1), (0, 0, 1, 0, 0, 0): qint(3)},
    (5, 2): {(0, 1, 0, 0, 1, 0): rf(1),
             (0, 0, 0, 2, 0, 0): -qbracket(1) * qpow(-1)},
    (6, 2): {(0, 1, 0, 0, 0, 1): qpow(1), (0, 0, 0, 1, 0, 0): qint(2)},
    (4, 3): {(0, 0, 1, 1, 0, 0): qpow(-3)},
    (5, 3): {(0, 0, 0, 3, 0, 0): qbracket(1) ** 2 * qpow(-3) / qint(3),
             (0, 0, 1, 0, 1, 0): qpow(-3)},
    (6, 3): {(0, 0, 1, 0, 0, 1): rf(1),
             (0, 0, 0, 2, 0, 0): -qbracket(1) * qpow(-1)},
    (5, 4): {(0, 0, 0, 1, 1, 0): qpow(-3)},
    (6, 4): {(0, 0, 0, 0, 1, 0): qint(3), (0, 0, 0, 1, 0, 1): qpow(-1)},
    (6, 5): {(0, 0, 0, 0, 1, 1): qpow(-3)},
}


@pytest.mark.parametrize("name,table", [
    ("A2", A2_COMM), ("C2", C2_COMM), ("G2", G2_COMM),
])
def test_root_vector_commutation(name, table):
    p = preset(name)
    for (r, s), rhs in table.items():
        lhs = normal_order(
            name, wp_mul(root_vector(p.root_vectors2[r - 1]),
                         root_vector(p.root_vectors2[s - 1])))
        assert lhs == _divided(name, rhs), (name, r, s)


def test_rules_reproduce_root_vectors():
    """Normal-ordering the flat expansion of b_r must give the unit B[e_r]."""
    for name in ALGEBRAS:
        p = preset(name)
        for r, pair in enumerate(p.root_vectors2):
            unit = tuple(1 if k == r else 0 for k in range(p.length))
            assert (normal_order(name, root_vector(pair))
                    == {unit: rf(1)}), (name, r)


def test_serre_sums_vanish():
    for name in ALGEBRAS:
        for pair, residual in serre_residuals(name):
            assert residual == {}, (name, pair)


def test_normal_order_examples():
    assert normal_order("A2", {(1, 2): rf(1)}) == _divided("A2", {
        (1, 0, 1): qpow(1), (0, 1, 0): rf(1)})
    assert normal_order("A2", {(2, 1): rf(1)}) == _divided(
        "A2", {(1, 0, 1): rf(1)})


def _left_mul(name, v, letter):
    """e_letter . v for a divided word-2 vector v, through rho_column."""
    return sum_products((u, x, c) for t, c in v.items()
                        for u, x in rho_column(name, 2, letter, t).items())


def test_mul_letter_examples():
    assert mul_letter("A2", {(0, 0, 0): rf(1)}, 1) == _divided(
        "A2", {(0, 0, 1): rf(1)}, (0, 0, 0))
    assert mul_letter("A2", {(0, 0, 1): rf(1)}, 2) == _divided(
        "A2", {(1, 0, 1): qpow(1), (0, 1, 0): rf(1)}, (0, 0, 1))
    # e_2 . B[2,0,1,1] = B[3,0,1,1]; divided, the coefficient is [3]_{q^2}
    got = rho_column("C2", 2, 2, (2, 0, 1, 1))
    assert got == _divided("C2", {(3, 0, 1, 1): rf(1)}, (2, 0, 1, 1))
    assert got == {(3, 0, 1, 1): qint(3, 2)}


def test_fold_direction_independence():
    """Right-folding the right rules agrees with left-folding the left rules."""
    rng = random.Random(20240817)
    for name in ALGEBRAS:
        for _ in range(50):
            n1 = rng.randint(0, 4)
            n2 = rng.randint(0, 4)
            w1 = tuple(rng.choice((1, 2)) for _ in range(n1))
            w2 = tuple(rng.choice((1, 2)) for _ in range(n2))
            whole = normal_order(name, {w1 + w2: rf(1)})
            left = normal_order(name, {w2: rf(1)})
            for i in reversed(w1):
                left = _left_mul(name, left, i)
            assert whole == left


def _commutation_failures(name, bound):
    """[(t, i, j)] where L_i(R_j(B^(t))) != R_j(L_i(B^(t))), over every
    word-2 tuple t with entries <= bound and i, j in {1, 2}: L_i is the
    left rule rho_column(name, 2, i, .) extended linearly, R_j the right
    rule mul_letter(name, ., j)."""
    bad = []
    for t in product(range(bound + 1), repeat=preset(name).length):
        v = {t: rf(1)}
        for i, j in product((1, 2), repeat=2):
            if (_left_mul(name, mul_letter(name, v, j), i)
                    != mul_letter(name, _left_mul(name, v, i), j)):
                bad.append((t, i, j))
    return bad


@pytest.mark.parametrize("name,bound", [("A2", 3), ("C2", 3), ("G2", 2)])
def test_left_rules_commute_with_right_rules(name, bound):
    """Left and right multiplication commute (associativity), and both
    send the unit to the same generator."""
    one = {zero_tuple(name): rf(1)}
    for i in (1, 2):
        assert _left_mul(name, one, i) == mul_letter(name, one, i)
    assert _commutation_failures(name, bound) == []


@pytest.mark.parametrize("change", [_drop_second_term, _first_times_q])
@pytest.mark.parametrize("name", ["A2", "C2", "G2"])
def test_commutation_catches_mutated_left_rules(monkeypatch, change, name):
    rule_terms = pbw._rule_terms

    def terms(alg, side, letter, t):
        got = rule_terms(alg, side, letter, t)
        return change(got) if side == "left" else got

    monkeypatch.setattr(pbw, "_rule_terms", terms)
    assert _commutation_failures(name, 1 if name == "G2" else 2)


@st.composite
def word1_tuple(draw):
    name = draw(st.sampled_from(ALGEBRAS))
    p = preset(name)
    budget = 5 if name == "G2" else 6
    t = []
    for _ in range(p.length):
        x = draw(st.integers(min_value=0, max_value=budget))
        budget -= x
        t.append(x)
    return name, tuple(t)


@settings(max_examples=60, deadline=None)
@given(word1_tuple())
def test_build_pbw_weight_conservation(name_tuple):
    name, A = name_tuple
    p = preset(name)
    w = p.conserved1(A)
    for B in _word1_divided(name, A):
        assert p.conserved2(B) == w


def test_tuples_with_weight():
    assert tuples_with_weight("A2", 2, (1, 1)) == ((0, 1, 0), (1, 0, 1))
    assert tuples_with_weight("A2", 1, (1, 1)) == ((0, 1, 0), (1, 0, 1))
    assert tuples_with_weight("A2", 2, (0, 0)) == ((0, 0, 0),)
    # lexicographic, and counts agree between the two words
    for name in ALGEBRAS:
        for w in weights_up_to(name, 5):
            t1 = tuples_with_weight(name, 1, w)
            t2 = tuples_with_weight(name, 2, w)
            assert len(t1) == len(t2)
            assert list(t1) == sorted(t1) and list(t2) == sorted(t2)


@pytest.mark.parametrize("call", [
    lambda: tuples_with_weight("C2", 3, (1, 2)),
    lambda: rho_column("C2", 3, 1, (0, 0, 0, 0)),
    lambda: rho_column("C2", 0, 1, (0, 0, 0, 0)),
], ids=["tuples_with_weight", "rho_column-3", "rho_column-0"])
def test_bad_word_label_raises(call):
    with pytest.raises(ValueError, match="word label must be 1 or 2"):
        call()


def test_rho_matrix_examples():
    col = rho_column("A2", 1, 1, (0, 0, 0))
    assert col == {(1, 0, 0): rf(1)}
    assert set(col) <= set(tuples_with_weight("A2", 1, (0, 1)))
    col = rho_column("A2", 1, 2, (1, 0, 0))
    assert col == {(0, 1, 0): rf(1), (1, 0, 1): qpow(1)}
    assert set(col) <= set(tuples_with_weight("A2", 1, (1, 1)))


def test_rho_matrix_word1_left_consistency():
    """rho columns reproduce genuine left multiplication on divided word-1
    monomials, expanded over the divided word-2 basis."""
    cases = [
        ("A2", (1, 1, 0)), ("A2", (0, 2, 1)),
        ("C2", (1, 0, 1, 0)), ("C2", (0, 1, 1, 1)),
        ("G2", (0, 1, 0, 0, 1, 0)), ("G2", (1, 0, 0, 1, 0, 0)),
    ]
    for name, A in cases:
        for i in (1, 2):
            direct = _left_mul(name, _word1_divided(name, A), i)
            recombined = sum_products(
                (B, c, x) for C, c in rho_column(name, 1, i, A).items()
                for B, x in _word1_divided(name, C).items())
            assert direct == recombined, (name, A, i)


def test_rho_matrix_word1_e1_is_first_slot_raiser():
    """e_1 acts on word-1 monomials by raising the first exponent."""
    for name in ALGEBRAS:
        p = preset(name)
        # e_1 = chi(b_l) is the first word-1 root vector, and left
        # multiplication by it just prepends, so on divided monomials
        # e_1 . E_1^(A) = [a_1 + 1] E_1^(A + e_1): check on a sample block
        w = p.conserved1((1, 1) + (0,) * (p.length - 2))
        for A in tuples_with_weight(name, 1, w):
            col = rho_column(name, 1, 1, A)
            assert col == {(A[0] + 1,) + A[1:]: qint(A[0] + 1)}, (name, A)


def test_transition_block_a2_weight_11():
    t = transition_block("A2", (1, 1))
    assert tuple(t) == ((0, 1, 0), (1, 0, 1))
    assert tuples_with_weight("A2", 2, (1, 1)) == ((0, 1, 0), (1, 0, 1))
    assert t.gamma((0, 1, 0), (1, 0, 1)) == lp({0: 1, 2: -1})
    assert t.gamma((0, 1, 0), (0, 1, 0)) == -qpow(1)
    assert t.gamma((0, 0, 0), (0, 1, 0)) == rf(0)
    z = transition_block("A2", (0, 0))
    assert z.gamma((0, 0, 0), (0, 0, 0)) == rf(1)
    with pytest.raises(ValueError):
        transition_block("A2", (-1, 0))


@pytest.mark.parametrize("A,B", [((1, 0), (0, 1, 0)),
                                 ((0, 1, 0), (1, 0, 1, 0))])
def test_gamma_rejects_a_tuple_of_the_wrong_length(A, B):
    """As CheckedTable.column does; a tuple of the right length off the
    block still reads ZERO."""
    t = transition_block("A2", (1, 1))
    with pytest.raises(ValueError,
                       match="tuples of this block have 3 entries, got"):
        t.gamma(A, B)
    assert t.gamma((2, 0, 0), (0, 1, 0)) == rf(0)


@pytest.mark.parametrize("A,B,bad", [((1, -1, 1), (0, 0, 0), (1, -1, 1)),
                                     ((0, 0, 0), (2, -1, 0), (2, -1, 0))])
def test_gamma_rejects_a_negative_entry(A, B, bad):
    """As CheckedTable.column does: a negative entry is rejected, not
    read as 0 off the block."""
    t = transition_block("A2", (0, 0))
    with pytest.raises(ValueError,
                       match=re.escape(f"{bad} has a negative entry")):
        t.gamma(A, B)


def test_transition_block_golden_spots():
    """Single table entries from the worked examples, via index reversal."""
    r = transition_block("A2", (4, 5)).gamma((1, 4, 0), (3, 1, 4))
    assert r == -qpow(2) * lp({0: 1, 4: -1}) * lp({0: 1, 6: -1}) \
        * lp({0: 1, 8: -1})
    k = transition_block("C2", (4, 3)).gamma((3, 0, 0, 4), (2, 1, 1, 0))
    assert k == qpow(4)
    f = transition_block("G2", (2, 4)).gamma(
        (4, 0, 0, 0, 0, 2), (0, 1, 0, 1, 0, 1))
    assert f == qpow(4)


def test_gamma_integrality_small_blocks():
    bounds = {"A2": 6, "C2": 6, "G2": 4}
    for name, h in bounds.items():
        for w in weights_up_to(name, h):
            t = transition_block(name, w)
            for A in t:
                for B in tuples_with_weight(name, 2, w):
                    g = t.gamma(A, B)
                    assert is_integer_polynomial(g), (name, w, A, B)


def test_zero_tuple():
    assert zero_tuple("G2") == (0, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# gamma in the divided basis against plain-power normal ordering and a
# factorial rescale, both formed here; the cached rule terms


_plain_rows = {}


def _plain_tilde_row(name, A):
    """gamma-tilde^A by the plain-power route: c_1^{a_1}...c_l^{a_l}
    normal-ordered over plain word-2 monomials, one root vector at a time."""
    key = (name, A)
    if key not in _plain_rows:
        p = preset(name)
        r = max((k for k in range(p.length) if A[k]), default=-1)
        if r < 0:
            row = {zero_tuple(name): rf(1)}
        else:
            prev = _plain_tilde_row(name, A[:r] + (A[r] - 1,) + A[r + 1:])
            row = _plain_mul(name, prev, root_vector(p.root_vectors1[r]))
        _plain_rows[key] = row
    return _plain_rows[key]


def _rescaled_gamma(name, A, B, tilde):
    return tilde * _factorials(name, 2, B) / _factorials(name, 1, A)


@pytest.mark.parametrize("name,height", [("A2", 8), ("C2", 6), ("G2", 5)])
def test_gamma_matches_factorial_rescale(name, height):
    for w in weights_up_to(name, height):
        t = transition_block(name, w)
        for A in t:
            want = {B: _rescaled_gamma(name, A, B, c)
                    for B, c in _plain_tilde_row(name, A).items()}
            row = _word1_divided(name, A)
            assert row == want, (name, A)
            assert ({B: canonical_string(v) for B, v in row.items()}
                    == {B: canonical_string(v) for B, v in want.items()})
            for B in tuples_with_weight(name, 2, w):
                assert t.gamma(A, B) == want.get(B, ZERO), (name, A, B)


@pytest.mark.parametrize("name,height,layers",
                         [("A2", 6, 2), ("C2", 5, 3), ("G2", 7, 5)])
def test_gamma_walk_rows_match_the_cache_and_expire(name, height, layers):
    """Every row of the walk is _word1_divided's row.  Below the current
    height the walk holds only rows that a row still to be built reads
    (the row of A is read by A + e_s for s >= its last nonzero slot), so
    none of them lies more than `layers` heights down."""
    p = preset(name)
    lift = [sum(root) for root in p.word1_roots]
    walk = transition_blocks(name, height)
    weights = []
    for w, tb in walk:
        assert tuple(tb) == tuples_with_weight(name, 1, w)
        for A in tb:
            assert tb[A] == _word1_divided(name, A), (name, A)
        h = sum(w)
        for A in walk.gi_frame.f_locals["live"]:
            own = sum(p.conserved1(A))
            last = max((k for k, a in enumerate(A) if a), default=0)
            assert h - layers <= own <= h, (name, w, A)
            assert own == h or own + max(lift[last:]) >= h, (name, w, A)
        weights.append(w)
    assert weights == weights_up_to(name, height)
    assert max(lift) == layers


def test_gamma_entry_matches_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def poly(p):
        return sum((sympy.Rational(v.numerator, v.denominator) * q ** e
                    for e, v in p.c.items()), sympy.Integer(0))

    def to_sympy(x):
        return poly(x.num) / poly(x.den)

    # the smallest block whose plain-power row carries a denominator
    t = transition_block("C2", (2, 2))
    rows = {A: _plain_tilde_row("C2", A) for A in t}
    assert any(not c.den.is_one() for row in rows.values()
               for c in row.values())
    for A, row in rows.items():
        for B in tuples_with_weight("C2", 2, (2, 2)):
            want = sympy.cancel(to_sympy(row.get(B, rf(0)))
                                * to_sympy(_factorials("C2", 2, B))
                                / to_sympy(_factorials("C2", 1, A)))
            assert sympy.cancel(to_sympy(t.gamma(A, B)) - want) == 0


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALGEBRAS), st.data(), st.sampled_from([1, 2]),
       st.sampled_from(["right", "left"]))
def test_divided_rule_terms_are_laurent(name, data, letter, side):
    p = preset(name)
    t = tuple(data.draw(st.integers(min_value=0, max_value=6))
              for _ in range(p.length))
    for c, u in _rule_terms(name, side, letter, t):
        assert c.den.is_one(), (name, side, letter, t, u)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALGEBRAS), st.data(), st.sampled_from([1, 2]),
       st.sampled_from(["right", "left"]))
def test_rule_terms_match_rules(name, data, letter, side):
    """The cached rule terms are the preset rule as it stands, built once."""
    p = preset(name)
    t = tuple(data.draw(st.integers(min_value=0, max_value=6))
              for _ in range(p.length))
    got = _rule_terms(name, side, letter, t)
    rule = (p.right_rules if side == "right" else p.left_rules)[letter]
    assert got == tuple(rule(t))
    assert _rule_terms(name, side, letter, t) is got
