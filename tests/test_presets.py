"""Structure-constant sanity checks for the three preset algebras."""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from qpbw import verify
from qpbw.qfield import LaurentPoly, q_factorial, vec_add, vec_scale
from qpbw.presets import (
    ALGEBRAS,
    preset,
    serre_relations,
    rf,
    qpow,
    qint,
    qbinom,
    wp_mul,
    wp_chi,
    reverse,
)

from plain_rules import plain_rule, root_vector


def lp(d):
    return rf(LaurentPoly(d))


def test_words_and_bases():
    a2, c2, g2 = preset("A2"), preset("C2"), preset("G2")
    assert a2.word1 == (1, 2, 1) and a2.word2 == (2, 1, 2)
    assert c2.word1 == (1, 2, 1, 2) and c2.word2 == (2, 1, 2, 1)
    assert g2.word1 == (1, 2, 1, 2, 1, 2) and g2.word2 == (2, 1, 2, 1, 2, 1)
    assert (a2.d, c2.d, g2.d) == ({1: 1, 2: 1}, {1: 1, 2: 2}, {1: 1, 2: 3})
    assert a2.cartan == {(1, 2): -1, (2, 1): -1}
    assert c2.cartan == {(1, 2): -2, (2, 1): -1}
    assert g2.cartan == {(1, 2): -3, (2, 1): -1}
    for p in (a2, c2, g2):
        assert p.length == len(p.word2) == len(p.word2_roots)
        # the slot bases of each word, named by its label
        assert p.bases(1) == tuple(p.d[i] for i in p.word1)
        assert p.bases(2) == tuple(p.d[i] for i in p.word2)
    assert c2.bases(1) == (1, 2, 1, 2) and g2.bases(2) == (3, 1, 3, 1, 3, 1)
    # the two reduced words are mutual reversals when the length is even
    for p in (c2, g2):
        assert p.word1 == reverse(p.word2)


def test_unknown_algebra():
    with pytest.raises(ValueError):
        preset("B2")


def test_conserved_functionals():
    a2, c2, g2 = preset("A2"), preset("C2"), preset("G2")
    assert a2.conserved2((1, 2, 3)) == (3, 5)
    assert c2.conserved2((1, 1, 1, 1)) == (3, 4)
    assert g2.conserved2((1, 1, 1, 1, 1, 1)) == (6, 10)
    # word-1 functional is the reversal of the word-2 one
    assert a2.conserved1((3, 2, 1)) == a2.conserved2((1, 2, 3))
    assert c2.conserved1((0, 1, 1, 2)) == c2.conserved2((2, 1, 1, 0))


def test_root_vector_homogeneity():
    """Every word in b_r's expansion has letter content = the r-th root."""
    for name in ALGEBRAS:
        p = preset(name)
        for r, (wp, _) in enumerate(p.root_vectors2):
            n1, n2 = p.word2_roots[r]
            for w in wp:
                assert w.count(1) == n1 and w.count(2) == n2, (name, r, w)
        for r, (wp, _) in enumerate(p.root_vectors1):
            n1, n2 = p.word1_roots[r]
            for w in wp:
                assert w.count(1) == n1 and w.count(2) == n2, (name, r, w)


def test_root_vector_values_a2():
    p = preset("A2")
    assert root_vector(p.root_vectors2[0]) == {(2,): rf(1)}
    assert root_vector(p.root_vectors2[2]) == {(1,): rf(1)}
    assert root_vector(p.root_vectors2[1]) == {(1, 2): rf(1), (2, 1): -qpow(1)}
    # chi reverses: first word-1 root vector is e_1, middle is e_2 e_1 - q e_1 e_2
    assert root_vector(p.root_vectors1[0]) == {(1,): rf(1)}
    assert root_vector(p.root_vectors1[1]) == {(2, 1): rf(1), (1, 2): -qpow(1)}
    assert root_vector(p.root_vectors1[2]) == {(2,): rf(1)}


def test_root_vector_values_c2():
    p = preset("C2")
    inv2 = rf(1) / qint(2)
    assert root_vector(p.root_vectors2[1]) == {(1, 2): rf(1), (2, 1): -qpow(2)}
    assert root_vector(p.root_vectors2[2]) == {
        (1, 1, 2): inv2,
        (1, 2, 1): -qpow(1),
        (2, 1, 1): qpow(2) * inv2,
    }


def test_root_vector_values_g2():
    p = preset("G2")
    inv2 = rf(1) / qint(2)
    inv3 = rf(1) / qint(3)
    assert root_vector(p.root_vectors2[1]) == {(1, 2): rf(1), (2, 1): -qpow(3)}
    assert root_vector(p.root_vectors2[3]) == {
        (1, 1, 2): inv2,
        (1, 2, 1): -qpow(2),
        (2, 1, 1): qpow(4) * inv2,
    }
    assert root_vector(p.root_vectors2[4]) == {
        (1, 1, 1, 2): inv2 * inv3,
        (1, 1, 2, 1): -qpow(1) * inv2,
        (1, 2, 1, 1): qpow(2) * inv2,
        (2, 1, 1, 1): -qpow(3) * inv2 * inv3,
    }
    assert root_vector(p.root_vectors2[2]) == {
        (1, 1, 2, 1, 2): inv2 * inv3,
        (1, 1, 2, 2, 1): -qpow(3) * inv2 * inv3,
        (1, 2, 1, 1, 2): -qpow(1) * inv2,
        (1, 2, 1, 2, 1): qpow(1) * lp({4: 1, 0: 1}) * inv3,
        (1, 2, 2, 1, 1): -qpow(3) * inv2 * inv3,
        (2, 1, 1, 1, 2): qpow(3) * inv3,
        (2, 1, 1, 2, 1): -qpow(5) * inv2,
        (2, 1, 2, 1, 1): qpow(6) * inv2 * inv3,
    }


def test_chi_is_an_involution():
    for name in ALGEBRAS:
        p = preset(name)
        for wp, _ in p.root_vectors2:
            assert wp_chi(wp_chi(wp)) == wp


def test_word_expression_algebra():
    x = {(1,): rf(1), (2,): qpow(1)}
    y = {(2,): rf(1)}
    assert wp_mul(x, y) == {(1, 2): rf(1), (2, 2): qpow(1)}
    assert vec_add(x, vec_scale(x, -1)) == {}
    assert vec_scale(x, 0) == {}
    inv2 = rf(1) / qint(2)
    assert vec_scale(x, inv2) == {(1,): inv2, (2,): qpow(1) * inv2}


@st.composite
def algebra_and_tuple(draw):
    name = draw(st.sampled_from(ALGEBRAS))
    p = preset(name)
    t = tuple(draw(st.integers(min_value=0, max_value=4))
              for _ in range(p.length))
    return name, t


@settings(max_examples=120, deadline=None)
@given(algebra_and_tuple(), st.sampled_from([1, 2]),
       st.sampled_from(["right", "left"]))
def test_rules_preserve_conservation(name_tuple, letter, side):
    name, t = name_tuple
    p = preset(name)
    rule = (p.right_rules if side == "right" else p.left_rules)[letter]
    base = p.conserved2(t)
    inc = p.letter_increment(letter)
    for coeff, out in rule(t):
        assert not coeff.num.is_zero()
        assert min(out) >= 0
        assert p.conserved2(out) == (base[0] + inc[0], base[1] + inc[1])


@lru_cache(maxsize=None)
def _run(lo, hi, d):
    """[lo+1] ... [hi] = [hi]! / [lo]! in base q^d."""
    out = LaurentPoly({0: 1})
    for m in range(lo + 1, hi + 1):
        out = out * qint(m, d).num
    return out


@pytest.mark.parametrize("letter", [1, 2])
@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("name", ALGEBRAS)
def test_divided_rule_matches_plain_reference(name, side, letter):
    """Each preset rule is the plain-power rule times F2(u) / F2(t), term
    by term and in the same order, on every tuple with entries <= 4.

    F2(u) / F2(t) is the product over the slots of [u_k]! / [t_k]!, a
    run of q-integers up or down, so with c0 the plain coefficient the
    divided one c is Laurent and c * (runs down) = c0 * (runs up).
    """
    p = preset(name)
    rule = (p.right_rules if side == "right" else p.left_rules)[letter]
    plain = plain_rule(name, side, letter)
    bases = [p.d[node] for node in p.word2]
    for t in itertools.product(range(5), repeat=p.length):
        got, want = rule(t), plain(t)
        assert [u for _, u in got] == [u for _, u in want], t
        for (c, u), (c0, _) in zip(got, want):
            assert c.den.is_one(), (t, u)
            up, down = c0.num, c.num * c0.den
            for x, y, d in zip(t, u, bases):
                if y > x:
                    up = up * _run(x, y, d)
                elif x > y:
                    down = down * _run(y, x, d)
            assert down == up, (t, u)


@pytest.mark.parametrize("letter", [1, 2])
@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("name", ALGEBRAS)
def test_divided_rule_matches_plain_reference_symbolically(name, side,
                                                           letter):
    """The identity of test_divided_rule_matches_plain_reference at the
    symbolic ket of verify._symbolic_ket, so for every occupation: the
    same shifts in the same order, and c * (runs down) = c0 * (runs up)
    term by term, the runs symbolic q-integers [x + j] in the slot's base.

    At the symbolic ket both files keep every term.  At a tuple, the
    presets drop a term whose shifted tuple goes negative, where a run
    down holds [0], so that c0 = 0 there and the plain rules drop it too.
    The sweep above also sees a kept term whose coefficient vanishes at a
    tuple, which this identity does not.
    """
    p = preset(name)
    rule = (p.right_rules if side == "right" else p.left_rules)[letter]
    plain = plain_rule(name, side, letter)
    bases = [p.d[node] for node in p.word2]
    t = verify._symbolic_ket(p.length)
    got, want = rule(t), plain(t)
    assert [u for _, u in got] == [u for _, u in want]
    for (c, u), (c0, _) in zip(got, want):
        up, down = verify._KPoly.of(c0), verify._KPoly.of(c)
        for x, y, d in zip(t, u, bases):
            assert y.c == x.c, u
            for j in range(1, y.k + 1):
                up = up * qint(x + j, d)
            for j in range(1, 1 - y.k):
                down = down * qint(y + j, d)
        assert down == up, u


def test_rules_on_trivial_monomials():
    """One-letter products with the empty monomial just create b_1 / b_l."""
    for name in ALGEBRAS:
        p = preset(name)
        zero = (0,) * p.length
        e_last = tuple(0 if i < p.length - 1 else 1 for i in range(p.length))
        e_first = tuple(1 if i == 0 else 0 for i in range(p.length))
        assert p.right_rules[1](zero) == [(rf(1), e_last)]
        assert p.right_rules[2](zero) == [(rf(1), e_first)]
        assert p.left_rules[2](zero) == [(rf(1), e_first)]
        assert p.left_rules[1](zero) == [(rf(1), e_last)]


def test_a2_left_rule_spot():
    p = preset("A2")
    # e_1 . b_1 = q b_1 b_3 + b_2
    out = dict((t, c) for c, t in p.left_rules[1]((1, 0, 0)))
    assert out == {(1, 0, 1): qpow(1), (0, 1, 0): rf(1)}


def test_serre_relation_shapes():
    rels = dict(serre_relations("A2"))
    assert rels[(1, 2)] == {
        (2, 1, 1): rf(1),
        (1, 2, 1): -qint(2),
        (1, 1, 2): rf(1),
    }
    rels = dict(serre_relations("C2"))
    assert rels[(1, 2)][(1, 1, 2, 1)] == qint(3)
    assert rels[(1, 2)][(2, 1, 1, 1)] == rf(1)
    assert rels[(2, 1)] == {
        (1, 2, 2): rf(1),
        (2, 1, 2): -qint(2, 2),
        (2, 2, 1): rf(1),
    }
    rels = dict(serre_relations("G2"))
    assert rels[(1, 2)][(1, 1, 2, 1, 1)] == qbinom(4, 2, 1)
    assert rels[(1, 2)][(1, 2, 1, 1, 1)] == -qint(4)
    assert rels[(2, 1)][(2, 1, 2)] == -qint(2, 3)
    assert all(len(w) == 5 for w in rels[(1, 2)])


def test_qbinom_values():
    assert qbinom(4, 2, 1) == qint(4) * qint(3) / qint(2)
    assert qbinom(5, 3, 1) == qint(5) * qint(4) * qint(3) / (qint(2) * qint(3))
    assert qbinom(6, 3, 3) == rf(q_factorial(6, 3)) / rf(q_factorial(3, 3)) ** 2
    for d in (1, 2, 3):
        for n in range(7):
            assert all(qbinom(n, r, d) == qbinom(n - 1, r - 1, d)
                       * qpow(d * (n - r)) + qbinom(n - 1, r, d)
                       * qpow(-d * r) for r in range(1, n))
    assert qbinom(3, 1, 2) == qint(3, 2)
    assert qbinom(5, 0, 1) == rf(1)
    assert qbinom(2, 3, 1) == rf(0)


def test_sigma_polynomials():
    a2 = preset("A2").sigma_polys
    assert a2[(1, "sigma")] == ((rf(1), ((1, 3),)),)
    assert a2[(1, "sigma_e")] == ((rf(1), ((2, 3),)),)
    assert a2[(2, "sigma")] == ((rf(1), ((1, 2), (2, 3))),
                                (-qpow(1), ((2, 2), (1, 3))))
    c2 = preset("C2").sigma_polys
    assert c2[(1, "sigma")] == ((rf(1), ((1, 4),)),)
    assert c2[(2, "sigma_e")] == ((rf(1), ((1, 3), (3, 4))),
                                  (-qpow(1), ((3, 3), (1, 4))))
    g2 = preset("G2").sigma_polys
    assert g2[(2, "sigma")] == ((rf(1), ((2, 6), (1, 7))),
                                (-qpow(1), ((2, 7), (1, 6))))


def test_pi_matrix_shapes_and_entries():
    for name in ALGEBRAS:
        p = preset(name)
        for i in (1, 2):
            m = p.pi_matrix[i]
            assert len(m) == p.n_gen
            assert all(len(row) == p.n_gen for row in m)
    a2 = preset("A2")
    assert a2.pi_matrix[1][0][0] == ((rf(1), ("a-",)),)
    assert a2.pi_matrix[1][1][0] == ((-qpow(1), ("k",)),)
    assert a2.pi_matrix[1][2][2] == ((rf(1), ()),)
    assert a2.pi_matrix[2][0][0] == ((rf(1), ()),)
    c2 = preset("C2")
    assert c2.pi_matrix[1][2][3] == ((rf(-1), ("k",)),)
    assert c2.pi_matrix[1][3][2] == ((qpow(1), ("k",)),)
    assert c2.pi_matrix[2][2][1] == ((-qpow(2), ("k",)),)
    g2 = preset("G2")
    assert g2.pi_matrix[1][3][3] == ((rf(1), ("a-", "a+")),
                                     (rf(-1), ("k", "k")))
    assert g2.pi_matrix[1][4][2] == ((qpow(2), ("k", "k")),)
    assert g2.pi_matrix[1][2][3] == ((qint(2), ("k", "a-")),)
    assert g2.pi_matrix[1][6][5] == ((-qpow(1), ("k",)),)
    assert g2.pi_matrix[2][2][1] == ((-qpow(3), ("k",)),)
    # zero pattern: node-2 matrices are identity off the oscillator blocks
    assert g2.pi_matrix[2][0][1] == () and g2.pi_matrix[2][3][4] == ()


def test_wp_roundtrip_through_rules_is_exercised_by_cache():
    # preset() is cached: two calls hand back the same object
    assert preset("A2") is preset("A2")
