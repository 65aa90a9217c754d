"""Oscillator algebra, representation path sums, and the xi operators.

Display formulas are transcribed as whitespace-separated tokens read in the
printed order ("a-1 a-1 k1" for (a-_1)^2 k_1); a trailing apostrophe marks
an inverse k.  The transcriber multiplies the atoms mechanically, so the
non-canonical orderings in the sources are handled by the algebra itself.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from qpbw import fock
from qpbw.fock import apply_op, op_mul, pi_generator, xi_matrix
from qpbw.fock import (
    _entry_terms, _mono_apply, _mono_mul_word, _sigma_op, _slotwise,
)
from qpbw.qfield import d_norm, q_factorial, sum_products, vec_scale
from qpbw.presets import (
    ONE, preset, qint, qpow, reverse, rf, tuples_with_weight,
)

from plain_rules import plain_rule

_TOKEN = re.compile(r"([aA][+-]|[kK])(\d)(')?$")


def op_from_terms(name, word, terms):
    """Build an operator from (coeff, ((slot, atom), ...)) product terms.

    Slots are 1-based; atoms within one slot multiply in the order listed.
    """
    w = preset(name).word(word)
    profile = preset(name).bases(word)

    def products():
        for coeff, factors in terms:
            slot_atoms = [[] for _ in w]
            for slot, atom in factors:
                slot_atoms[slot - 1].append(atom)
            coeff = rf(coeff)
            for monos, c in _slotwise(_mono_mul_word((0, 0, 0), atoms, d)
                                      for atoms, d in zip(slot_atoms, profile)):
                yield monos, coeff, c

    return sum_products(products())


def term(name, word, spec, coeff=1):
    """One displayed product -> (coeff, ((slot, atom), ...))."""
    p = preset(name)
    w = p.word(word)
    factors = []
    for tok in spec.split():
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad token {tok!r}")
        sym, slot, inv = m.group(1), int(m.group(2)), m.group(3)
        # capitalization in the sources tracks the oscillator base
        assert sym[0].isupper() == (p.d[w[slot - 1]] > 1), tok
        if sym[0] in "aA":
            assert not inv
            factors.append((slot, sym.lower()))
        else:
            factors.append((slot, "k-" if inv else "k"))
    return rf(coeff), tuple(factors)


def disp(name, word, *specs):
    """Operator from displayed terms; each spec is "tokens" or (tokens, c)."""
    terms = []
    for s in specs:
        if isinstance(s, str):
            terms.append(term(name, word, s))
        else:
            terms.append(term(name, word, s[0], s[1]))
    return op_from_terms(name, word, terms)


def sigma(name, word, i, kind="sigma"):
    """pi_word(sigma_i), or pi_word(sigma_i e_i) for kind "sigma_e"."""
    return _sigma_op(name, word, i, kind)


# ---------------------------------------------------------------------------
# scaled kets and lambda, formed here: the package works on bare kets only


def _lam(name, i):
    """lambda_i = 1 / (1 - q_i^2)."""
    return ONE / (ONE - qpow(2 * preset(name).d[i]))


def _D(name, word, t):
    """D(t) = prod_k d_norm(t_k, d_k): the scaled ket is |t>> = D(t)|t>."""
    p = preset(name)
    out = ONE
    for m, node in zip(t, p.word(word)):
        out = out * d_norm(m, p.d[node])
    return out


def _apply_scaled(name, word, op, vec):
    """op on a vector over scaled kets, through the bare-ket apply_op."""
    out = apply_op(name, word, op,
                   {A: c * _D(name, word, A) for A, c in vec.items()})
    return {B: c / _D(name, word, B) for B, c in out.items()}


def _xi(name, word, i):
    """pi_word(xi_i) = lambda_i xi_bar_op."""
    return vec_scale(fock.xi_bar_op(name, word, i), _lam(name, i))


def _xi_scaled(name, word, i, vec):
    """xi_i on a vector over scaled kets."""
    return _apply_scaled(name, word, _xi(name, word, i), vec)


# ---------------------------------------------------------------------------
# the single-mode algebra


@pytest.mark.parametrize("d", [1, 2, 3])
def test_oscillator_relations(d):
    def mono(atoms):
        return _mono_mul_word((0, 0, 0), atoms, d)

    # k a+ = q^d a+ k,  k a- = q^-d a- k
    assert mono(("k", "a+")) == {m: c * qpow(d) for m, c in mono(("a+", "k")).items()}
    assert mono(("k", "a-")) == {m: c * qpow(-d) for m, c in mono(("a-", "k")).items()}
    # a- a+ = 1 - q^2d k^2,  a+ a- = 1 - k^2
    assert mono(("a-", "a+")) == {(0, 0, 0): ONE, (0, 2, 0): -qpow(2 * d)}
    assert mono(("a+", "a-")) == {(0, 0, 0): ONE, (0, 2, 0): -ONE}


@given(st.integers(1, 3),
       st.lists(st.sampled_from(["a+", "a-", "k", "k-"]), max_size=7),
       st.integers(0, 8))
@settings(max_examples=120, deadline=None)
def test_mono_words_act_consistently(d, atoms, m):
    """Multiplying atom words then applying == applying atom by atom."""
    op = _mono_mul_word((0, 0, 0), atoms, d)
    total = {}
    for mono, c in op.items():
        r = _mono_apply(mono, m, d)
        if r is None:
            continue
        coeff, n = r
        s = total.get(n, rf(0)) + c * coeff
        if s.num.is_zero():
            total.pop(n, None)
        else:
            total[n] = s
    direct = {m: ONE}
    for atom in reversed(atoms):
        nxt = {}
        for occ, c in direct.items():
            r = _mono_apply(_mono_mul_word((0, 0, 0), (atom,), d).popitem()[0], occ, d)
            if r is None:
                continue
            # single atoms have coefficient 1 in canonical form except k-
            coeff, n = r
            base = _mono_mul_word((0, 0, 0), (atom,), d).popitem()[1]
            s = nxt.get(n, rf(0)) + c * coeff * base
            if s.num.is_zero():
                nxt.pop(n, None)
            else:
                nxt[n] = s
        direct = nxt
    assert total == direct


def test_ket_actions():
    for d in (1, 2, 3):
        for m in range(9):
            assert _mono_apply((1, 0, 0), m, d) == (ONE, m + 1)
            assert _mono_apply((0, 1, 0), m, d) == (qpow(d * m), m)
            assert _mono_apply((0, -1, 0), m, d) == (qpow(-d * m), m)
            low = _mono_apply((0, 0, 1), m, d)
            if m == 0:
                assert low is None
            else:
                assert low == (ONE - qpow(2 * d * m), m - 1)


def test_scaled_ket_actions():
    # raise |m>> = lambda^-1 q_i^m |m+1>>, lower |m>> = [m]_i |m-1>>
    cases = [("A2", 1, 1, 1), ("C2", 1, 2, 2), ("G2", 1, 2, 3)]
    for name, word, slot, d in cases:
        p = preset(name)
        w = p.word(word)
        up = disp(name, word, ("a+%d" % slot).replace("a+", "A+" if d > 1 else "a+"))
        down = disp(name, word, ("a-%d" % slot).replace("a-", "A-" if d > 1 else "a-"))
        diag = disp(name, word, ("k%d" % slot) if d == 1 else ("K%d" % slot))
        for m in range(5):
            ket = {tuple(m if s == slot - 1 else 0 for s in range(len(w))): ONE}
            (up_t,) = [t for t in ket][:1]
            raised = _apply_scaled(name, word, up, ket)
            lowered = _apply_scaled(name, word, down, ket)
            diagged = _apply_scaled(name, word, diag, ket)
            lam = _lam(name, 2 if d > 1 else 1)
            tgt = tuple(m + 1 if s == slot - 1 else 0 for s in range(len(w)))
            assert raised == {tgt: qpow(d * m) / lam}
            assert diagged == {up_t: qpow(d * m)}
            if m == 0:
                assert lowered == {}
            else:
                tgt = tuple(m - 1 if s == slot - 1 else 0 for s in range(len(w)))
                assert lowered == {tgt: qint(m, d)}


def test_op_from_terms_respects_display_order():
    # (a-)^2 k reorders to q^2 k (a-)^2 in canonical form
    op = op_from_terms("A2", 1, [(ONE, ((1, "a-"), (1, "a-"), (1, "k")))])
    assert op == {((0, 1, 2), (0, 0, 0), (0, 0, 0)): qpow(2)}


@given(st.lists(st.sampled_from(["a+", "a-", "k"]), min_size=1, max_size=4),
       st.lists(st.sampled_from(["a+", "a-", "k"]), min_size=1, max_size=4),
       st.lists(st.sampled_from(["a+", "a-", "k"]), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_op_mul_associative_and_represents(w1, w2, w3):
    name, word = "C2", 1
    x = op_from_terms(name, word, [(ONE, tuple((1, a) for a in w1))])
    y = op_from_terms(name, word, [(ONE, tuple((2, a) for a in w2))])
    z = op_from_terms(name, word, [(ONE, tuple((1, a) for a in w3) + tuple((2, a) for a in w2))])
    assert op_mul(name, word, op_mul(name, word, x, y), z) \
        == op_mul(name, word, x, op_mul(name, word, y, z))
    ket = {(1, 2, 0, 1): ONE}
    via_product = apply_op(name, word, op_mul(name, word, x, z), ket)
    stepwise = apply_op(name, word, x, apply_op(name, word, z, ket))
    assert via_product == stepwise


# ---------------------------------------------------------------------------
# representation path sums


def test_pi_generator_examples():
    # the fundamental entry of node 2 is a single k
    assert _entry_terms("C2", 2, 2, 3) == (((0, 1, 0), ONE),)
    assert pi_generator("A2", 1, 1, 3) \
        == {((0, 1, 0), (0, 1, 0), (0, 0, 0)): ONE}
    op = pi_generator("A2", 1, 1, 3)
    assert apply_op("A2", 1, op, {(0, 0, 0): ONE}) == {(0, 0, 0): ONE}
    with pytest.raises(ValueError):
        pi_generator("A2", 1, 0, 3)
    with pytest.raises(ValueError):
        pi_generator("C2", 1, 1, 5)


def test_word_is_a_label():
    # a word is named by its label 1 or 2 only: another label, or the
    # word's own letter tuple, raises ValueError at every entry point
    op = pi_generator("A2", 1, 1, 3)
    ket = {(0, 0, 0): ONE}
    calls = (
        lambda w: op_mul("A2", w, op, op),
        lambda w: apply_op("A2", w, op, ket),
        lambda w: pi_generator("A2", w, 1, 3),
        lambda w: _sigma_op("A2", w, 1, "sigma"),
        lambda w: fock.xi_bar_op("A2", w, 1),
        lambda w: xi_matrix("A2", w, 1, (1, 1)),
        lambda w: preset("A2").bases(w),
    )
    for call in calls:
        call(1)
        for bad in (3, (1, 2, 1)):
            with pytest.raises(ValueError):
                call(bad)


# ---------------------------------------------------------------------------
# sigma, sigma e and xi against the displayed formulas


def test_sigma_displays_a2():
    assert sigma("A2", 1, 1) == disp("A2", 1, "k1 k2")
    assert sigma("A2", 1, 1, "sigma_e") == disp("A2", 1, "a+1 k2")
    assert sigma("A2", 1, 2) == disp("A2", 1, "k2 k3")
    assert sigma("A2", 1, 2, "sigma_e") \
        == disp("A2", 1, "a-1 a+2 k3", "k1 a+3")
    # the second word just swaps the roles of the two nodes here
    for i in (1, 2):
        assert sigma("A2", 2, i) == sigma("A2", 1, 3 - i)
        assert sigma("A2", 2, i, "sigma_e") \
            == sigma("A2", 1, 3 - i, "sigma_e")


def test_sigma_displays_c2():
    two1 = qint(2, 1)
    assert sigma("C2", 1, 1) == disp("C2", 1, ("k1 K2 k3", -1))
    assert sigma("C2", 1, 1, "sigma_e") == disp("C2", 1, ("a+1 K2 k3", -1))
    assert sigma("C2", 1, 2) == disp("C2", 1, ("K2 k3 k3 K4", -1))
    assert sigma("C2", 1, 2, "sigma_e") == disp(
        "C2", 1,
        ("a-1 a-1 A+2 k3 k3 K4", -1),
        ("a-1 k1 a+3 k3 K4", -two1),
        ("k1 k1 A-2 a+3 a+3 K4", -1),
        ("k1 k1 K2 A+4", -1))
    assert sigma("C2", 2, 1) == disp("C2", 2, ("k2 K3 k4", -1))
    assert sigma("C2", 2, 1, "sigma_e") == disp(
        "C2", 2, ("K1 k2 a+4", -1), ("K1 a-2 A+3 k4", -1), ("A-1 a+2 K3 k4", -1))
    assert sigma("C2", 2, 2) == disp("C2", 2, ("K1 k2 k2 K3", -1))
    assert sigma("C2", 2, 2, "sigma_e") \
        == disp("C2", 2, ("A+1 k2 k2 K3", -1))


def test_sigma_displays_g2():
    # node 2 evaluates to -q times the printed operator on both words; the
    # factor is shared by sigma_2 and sigma_2 e_2, so it drops out of xi_2
    mq = -qpow(1)
    two2, three1 = qint(2, 3), qint(3, 1)
    assert sigma("G2", 1, 1) == disp("G2", 1, "k1 K2 k3 k3 K4 k5")
    assert sigma("G2", 1, 1, "sigma_e") \
        == disp("G2", 1, "a+1 K2 k3 k3 K4 k5")
    assert sigma("G2", 1, 2) == vec_scale(
        disp("G2", 1, "K2 k3 k3 k3 K4 K4 k5 k5 k5 K6"), mq)
    assert sigma("G2", 1, 2, "sigma_e") == vec_scale(disp(
        "G2", 1,
        "k1 k1 k1 K2 K2 k3 k3 k3 K4 A+6",
        ("k1 k1 k1 A-2 K2 A+4 K4 k5 k5 k5 K6", two2),
        "a-1 a-1 a-1 A+2 k3 k3 k3 K4 K4 k5 k5 k5 K6",
        ("a-1 a-1 k1 a+3 k3 k3 K4 K4 k5 k5 k5 K6", three1),
        ("a-1 k1 k1 K2 k3 k3 K4 a+5 k5 k5 K6", three1),
        ("k1 k1 k1 A-2 K2 k3 k3 A+4 K4 k5 k5 k5 K6", -qpow(1) * three1),
        ("k1 k1 k1 K2 K2 a-3 k3 k3 a+5 a+5 k5 K6", three1),
        "k1 k1 k1 K2 K2 k3 k3 k3 A-4 a+5 a+5 a+5 K6",
        ("a-1 k1 k1 A-2 a+3 a+3 k3 K4 K4 k5 k5 k5 K6", three1),
        ("a-1 k1 k1 K2 a-3 k3 A+4 K4 k5 k5 k5 K6", three1),
        "k1 k1 k1 A-2 A-2 a+3 a+3 a+3 K4 K4 k5 k5 k5 K6",
        ("k1 k1 k1 A-2 K2 a+3 k3 K4 a+5 k5 k5 K6", three1),
        "k1 k1 k1 K2 K2 a-3 a-3 a-3 A+4 A+4 k5 k5 k5 K6",
        ("k1 k1 k1 K2 K2 a-3 a-3 k3 A+4 a+5 k5 k5 K6", three1)), mq)
    assert sigma("G2", 2, 1) == disp("G2", 2, "k2 K3 k4 k4 K5 k6")
    assert sigma("G2", 2, 2) == vec_scale(
        disp("G2", 2, "K1 k2 k2 k2 K3 K3 k4 k4 k4 K5"), mq)
    two1 = qint(2, 1)
    assert sigma("G2", 2, 1, "sigma_e") == disp(
        "G2", 2,
        "K1 k2 k2 K3 k4 a+6",
        "A-1 a+2 K3 k4 k4 K5 k6",
        "K1 k2 k2 K3 a-4 A+5 k6",
        "K1 a-2 a-2 A+3 k4 k4 K5 k6",
        ("K1 a-2 k2 a+4 k4 K5 k6", two1),
        "K1 k2 k2 A-3 a+4 a+4 K5 k6")
    assert sigma("G2", 2, 2, "sigma_e") == vec_scale(
        disp("G2", 2, "A+1 k2 k2 k2 K3 K3 k4 k4 k4 K5"), mq)


def test_sigma_commutation():
    for name in ("A2", "C2", "G2"):
        p = preset(name)
        for word in (1, 2):
            s = {i: sigma(name, word, i) for i in (1, 2)}
            t = {i: sigma(name, word, i, "sigma_e") for i in (1, 2)}
            mul = lambda a, b: op_mul(name, word, a, b)
            assert mul(s[1], s[2]) == mul(s[2], s[1])
            for i in (1, 2):
                for j in (1, 2):
                    if i == j:
                        # sigma_i tau_i = q_i tau_i sigma_i
                        assert mul(s[i], t[i]) \
                            == vec_scale(mul(t[i], s[i]), qpow(p.d[i]))
                    else:
                        assert mul(s[i], t[j]) == mul(t[j], s[i])


def test_xi_displays():
    lam = {(n, i): _lam(n, i) for n in ("A2", "C2", "G2") for i in (1, 2)}
    assert _xi("A2", 1, 1) == vec_scale(disp("A2", 1, "a+1 k1'"), lam["A2", 1])
    assert _xi("A2", 1, 2) == vec_scale(
        disp("A2", 1, "a-1 a+2 k2'", "k1 k2' a+3 k3'"), lam["A2", 2])
    for i in (1, 2):
        assert _xi("A2", 2, i) == _xi("A2", 1, 3 - i)

    two1 = qint(2, 1)
    assert _xi("C2", 1, 1) == vec_scale(disp("C2", 1, "a+1 k1'"), lam["C2", 1])
    assert _xi("C2", 1, 2) == vec_scale(disp(
        "C2", 1,
        "a-1 a-1 A+2 K2'",
        "k1 k1 A-2 K2' a+3 a+3 k3' k3'",
        ("a-1 k1 K2' a+3 k3'", two1),
        "k1 k1 k3' k3' A+4 K4'"), lam["C2", 2])
    assert _xi("C2", 2, 1) == vec_scale(disp(
        "C2", 2,
        "A-1 a+2 k2'",
        "K1 a-2 k2' A+3 K3'",
        "K1 K3' a+4 k4'"), lam["C2", 1])
    assert _xi("C2", 2, 2) == vec_scale(disp("C2", 2, "A+1 K1'"), lam["C2", 2])

    two2, three1 = qint(2, 3), qint(3, 1)
    assert _xi("G2", 1, 1) == vec_scale(disp("G2", 1, "a+1 k1'"), lam["G2", 1])
    assert _xi("G2", 1, 2) == vec_scale(disp(
        "G2", 1,
        "a-1 a-1 a-1 A+2 K2'",
        ("k1 k1 k1 A-2 k3' k3' k3' A+4 K4'", two2),
        ("k1 k1 k1 A-2 k3' A+4 K4'", -qpow(1) * three1),
        ("a-1 a-1 k1 K2' a+3 k3'", three1),
        ("a-1 k1 k1 a-3 k3' k3' A+4 K4'", three1),
        ("a-1 k1 k1 k3' K4' a+5 k5'", three1),
        "k1 k1 k1 K2 K4' k5' k5' k5' A+6 K6'",
        ("a-1 k1 k1 A-2 K2' a+3 a+3 k3' k3'", three1),
        ("k1 k1 k1 A-2 a+3 k3' k3' K4' a+5 k5'", three1),
        "k1 k1 k1 A-2 A-2 K2' a+3 a+3 a+3 k3' k3' k3'",
        ("k1 k1 k1 K2 a-3 k3' K4' K4' a+5 a+5 k5' k5'", three1),
        "k1 k1 k1 K2 A-4 K4' K4' a+5 a+5 a+5 k5' k5' k5'",
        "k1 k1 k1 K2 a-3 a-3 a-3 k3' k3' k3' A+4 A+4 K4' K4'",
        ("k1 k1 k1 K2 a-3 a-3 k3' k3' A+4 K4' K4' a+5 k5'", three1)),
        lam["G2", 2])
    two1 = qint(2, 1)
    assert _xi("G2", 2, 1) == vec_scale(disp(
        "G2", 2,
        "A-1 a+2 k2'",
        ("K1 a-2 K3' a+4 k4'", two1),
        "K1 a-2 a-2 k2' A+3 K3'",
        "K1 k2 a-4 k4' k4' A+5 K5'",
        "K1 k2 k4' K5' a+6 k6'",
        "K1 k2 A-3 K3' a+4 a+4 k4' k4'"), lam["G2", 1])
    assert _xi("G2", 2, 2) == vec_scale(disp("G2", 2, "A+1 K1'"), lam["G2", 2])


def test_xi_ket_action_a2():
    for a in range(4):
        for b in range(4):
            for c in range(3):
                ket = {(a, b, c): ONE}
                assert _xi_scaled("A2", 1, 1, ket) == {(a + 1, b, c): ONE}
                expect = {(a, b, c + 1): qpow(a - b)}
                if a:
                    expect[(a - 1, b + 1, c)] = qint(a, 1)
                assert _xi_scaled("A2", 1, 2, ket) == expect


def _xi_divided(name, word, i, vec, r):
    """xi_i^(r) = xi_i^r / [r]_{q_i}! on a vector over scaled kets."""
    for _ in range(r):
        vec = _xi_scaled(name, word, i, vec)
    fact = rf(q_factorial(r, preset(name).d[i]))
    return {A: c / fact for A, c in vec.items()}


def test_xi_divided_powers():
    vac = {(0, 0, 0): ONE}
    assert _xi_divided("A2", 1, 1, vac, 3) \
        == {(3, 0, 0): ONE / rf(q_factorial(3, 1))}
    # q-binomial spreading: xi_2^(2) on a mixed ket stays exact
    assert _xi_divided("A2", 1, 2, {(2, 0, 0): ONE}, 2) == {
        (2, 0, 2): qpow(4) / qint(2), (1, 1, 1): ONE + qpow(2),
        (0, 2, 0): ONE}


def _scaled_xi_matrix(name, label, i, weight):
    """xi_i on scaled kets, column by column:
    (rows, cols, {col tuple: {row tuple: coefficient}})."""
    inc = preset(name).letter_increment(i)
    cols = tuples_with_weight(name, label, weight)
    rows = tuples_with_weight(name, label,
                              (weight[0] + inc[0], weight[1] + inc[1]))
    return rows, cols, {A: _xi_scaled(name, label, i, {A: ONE})
                        for A in cols}


def _plain_rho(name, label, i, A):
    """e_i times the plain monomial B[A] of word label, off the plain
    rules; word 1 conjugates the word-2 right rules by reversal."""
    if label == 2:
        terms = plain_rule(name, "left", i)(A)
    else:
        terms = [(c, reverse(t))
                 for c, t in plain_rule(name, "right", i)(reverse(A))]
    return sum_products((t, c, ONE) for c, t in terms)


def test_key_property_spot():
    # rho(e_i) on plain monomials is xi_i on scaled kets
    cases = [("A2", 1, (1, 1)), ("A2", 2, (1, 1)), ("C2", 1, (2, 1)),
             ("C2", 2, (1, 2)), ("G2", 1, (1, 1)), ("G2", 2, (1, 2))]
    for name, label, w in cases:
        for i in (1, 2):
            rows, cols, xi = _scaled_xi_matrix(name, label, i, w)
            rho = {A: _plain_rho(name, label, i, A) for A in cols}
            assert all(set(col) <= set(rows) for col in rho.values())
            assert rho == xi, (name, label, i, w)


def test_bare_xi_matrix_matches_scaled():
    # xi_bar = xi / lambda on bare kets |m>, with |m>> = D(m)|m>: each entry
    # is the scaled-ket entry times D(row) / (D(col) lambda).  The scaled
    # entries are those of plain rho, by the key property, so the
    # reference shares no code with xi_matrix
    for name in ("A2", "C2", "G2"):
        for label in (1, 2):
            for i in (1, 2):
                for w in ((0, 0), (1, 1), (2, 1), (1, 3)):
                    bare = xi_matrix(name, label, i, w)
                    rows, cols, _ = _scaled_xi_matrix(name, label, i, w)
                    assert list(bare) == list(cols)
                    assert all(set(col) <= set(rows) for col in bare.values())
                    want = {A: {B: c * _D(name, label, B)
                                / (_D(name, label, A) * _lam(name, i))
                                for B, c in _plain_rho(name, label, i,
                                                       A).items()}
                            for A in cols}
                    assert bare == want, (name, label, i, w)
                    assert all(c.den.is_one() for col in bare.values()
                               for c in col.values())


def test_xi_matrix_columns_are_apply_op_images():
    # one column per source ket, the apply_op image of {A: ONE}, which is
    # the reference; outputs lie in the raised weight's kets, none zero
    for name in ("A2", "C2", "G2"):
        for label in (1, 2):
            for i in (1, 2):
                bar = fock.xi_bar_op(name, label, i)
                inc = preset(name).letter_increment(i)
                for w in ((0, 0), (1, 1), (2, 1), (1, 3), (3, 2)):
                    columns = xi_matrix(name, label, i, w)
                    rows = tuples_with_weight(name, label, (w[0] + inc[0],
                                                            w[1] + inc[1]))
                    assert list(columns) == list(tuples_with_weight(
                        name, label, w))
                    for A, col in columns.items():
                        assert col == apply_op(name, label, bar, {A: ONE})
                        assert set(col) <= set(rows)
                        assert all(c for c in col.values())


def test_sigma_is_invertible_monomial():
    for name in ("A2", "C2", "G2"):
        for word in (1, 2):
            for i in (1, 2):
                op = sigma(name, word, i)
                assert len(op) == 1
                (monos, coeff), = op.items()
                assert all(x == 0 and y == 0 for x, _, y in monos)
                assert coeff.den.is_one() and coeff.num.is_monomial()


# ---------------------------------------------------------------------------
# xi without lambda


def test_xi_bar_op_is_laurent():
    for name in ("A2", "C2", "G2"):
        for word in (1, 2):
            for i in (1, 2):
                bar = fock.xi_bar_op(name, word, i)
                assert all(c.den.is_one() for c in bar.values())


def test_xi_apply_matches_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def poly(p):
        return sum((sympy.Rational(v.numerator, v.denominator) * q ** e
                    for e, v in p.c.items()), sympy.Integer(0))

    def to_sympy(x):
        return poly(x.num) / poly(x.den)

    # G2 word 1, xi_2 on scaled kets: base q^3, so lambda_2 = 1/(1 - q^6);
    # the input coefficient 1/[2] leaves a denominator in every output.
    # sympy forms each entry from the bare-ket entry and the D ratio
    ket = (1, 1, 0, 1, 0, 1)
    start = ONE / qint(2)
    got = _xi_scaled("G2", 1, 2, {ket: start})
    bar = apply_op("G2", 1, fock.xi_bar_op("G2", 1, 2), {ket: ONE})
    assert set(got) == set(bar) and len(got) > 1
    for A, c in got.items():
        want = sympy.cancel(
            to_sympy(bar[A]) * to_sympy(start) * to_sympy(_D("G2", 1, ket))
            / (to_sympy(_D("G2", 1, A)) * (1 - q ** 6)))
        assert sympy.cancel(to_sympy(c) - want) == 0
