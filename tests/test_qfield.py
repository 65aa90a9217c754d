"""Exact-arithmetic core: frozen values first, then algebraic laws."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qpbw.qfield import (
    ONE,
    ZERO,
    LaurentPoly,
    RationalFunction,
    apply_on_slots,
    canonical_string,
    d_norm,
    exact_quotient,
    parse,
    parse_laurent,
    poly_divexact,
    poly_gcd,
    poch_run,
    q_factorial,
    qbracket,
    qint,
    rf,
    sum_products,
)


# ---------------------------------------------------------------------------
# canonical string grammar (frozen examples)
# ---------------------------------------------------------------------------

def test_string_ascending_and_signs():
    p = LaurentPoly({2: -1, 6: 1, 8: 1, 10: -1})
    assert canonical_string(p) == "-q^2 + q^6 + q^8 - q^10"


def test_string_unit_coeff_and_exponent_one():
    assert canonical_string(LaurentPoly({1: 1})) == "q"
    assert canonical_string(LaurentPoly({1: -1})) == "-q"
    assert canonical_string(LaurentPoly({-1: 1, 1: 1})) == "q^-1 + q"
    assert canonical_string(LaurentPoly({0: 3, 2: -2})) == "3 - 2q^2"
    assert canonical_string(LaurentPoly({0: 1})) == "1"
    assert canonical_string(LaurentPoly()) == "0"


@pytest.mark.parametrize("x,text", [(0, "0"), (-3, "-3"), (1.5, None),
                                    ("q", None), (None, None)])
def test_canonical_string_takes_ints_and_rejects_other_values(x, text):
    if text is None:
        with pytest.raises(TypeError, match="^not an element of Q"):
            canonical_string(x)
    else:
        assert canonical_string(x) == text


def test_string_rational_function():
    r = RationalFunction(LaurentPoly({0: 1}), LaurentPoly({0: 1, 2: -1}))
    assert canonical_string(r) == "(1)/(1 - q^2)"
    assert canonical_string(RationalFunction(LaurentPoly({2: 1}))) == "q^2"


def test_parse_roundtrip_examples():
    for s in ["0", "1", "-q", "q^-2 + q^2", "-q^2 + q^6 + q^8 - q^10",
              "(q)/(1 - q^2)", "(-1 + q^4)/(2 - q^2 + q^6)",
              "(1)/(2 + 4q)"]:
        assert canonical_string(parse(s)) == s
    # coefficients are integers; a scalar denominator is written as one
    with pytest.raises(ValueError):
        parse("3/2 - q")


# ---------------------------------------------------------------------------
# q-constants against small hand values
# ---------------------------------------------------------------------------

def test_q_int_small():
    assert qint(0) == LaurentPoly()
    assert qint(1) == LaurentPoly({0: 1})
    assert qint(2) == LaurentPoly({1: 1, -1: 1})
    assert qint(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert qint(2, d=2) == LaurentPoly({2: 1, -2: 1})
    assert qint(2, d=3) == LaurentPoly({3: 1, -3: 1})
    assert qint(-2) == -qint(2)


def test_q_int_is_ratio_of_qmq():
    # [m] = (q^m - q^-m)/(q - q^-1), checked by clearing denominators
    for d in (1, 2, 3):
        for m in range(8):
            assert qint(m, d) * qbracket(d) == qbracket(d * m)


def test_q_factorial():
    assert q_factorial(0) == LaurentPoly({0: 1})
    assert q_factorial(3) == qint(2) * qint(3)
    assert q_factorial(4, d=2) == qint(2, 2) * qint(3, 2) * qint(4, 2)


def test_pochhammer_times_dnorm_is_factorial():
    # (p^2; p^2)_m * p^{-m(m-1)/2}(1-p^2)^{-m} = [m]!  for p = q^d
    for d in (1, 2, 3):
        for m in range(9):
            lhs = poch_run(0, m, d) * d_norm(m, d)
            assert type(lhs) is LaurentPoly
            assert lhs == q_factorial(m, d)


def test_pochhammer_ratio_divides_exactly():
    quotient = poly_divexact(poch_run(0, 4, 1).num, poch_run(0, 1, 1).num)
    expected = LaurentPoly({0: 1})
    for t in (2, 3, 4):
        expected = expected * LaurentPoly({0: 1, 2 * t: -1})
    assert quotient == expected


# ---------------------------------------------------------------------------
# RationalFunction normalization invariants
# ---------------------------------------------------------------------------

def test_rf_shift_pushed_into_num():
    r = RationalFunction(LaurentPoly({3: 1, 1: 1}), LaurentPoly({5: 1}))
    assert r.den.is_one()
    assert r.num == LaurentPoly({-2: 1, -4: 1})


def test_rf_den_constant_term_positive_and_integer():
    r = RationalFunction(LaurentPoly({0: 1}), LaurentPoly({0: -2, 2: 1}))
    assert r.den == LaurentPoly({0: 2, 2: -1})
    assert r.num == LaurentPoly({0: -1})
    # a content shared by num and den cancels; one left in den stays there
    r2 = RationalFunction(LaurentPoly({0: 2}), LaurentPoly({0: -4, 2: 6}))
    assert r2.den == LaurentPoly({0: 2, 2: -3})
    assert r2.num == LaurentPoly({0: -1})


def test_rf_reduction():
    # (1-q^4)/(1-q^2) = 1+q^2
    r = RationalFunction(LaurentPoly({0: 1, 4: -1}), LaurentPoly({0: 1, 2: -1}))
    assert r.den.is_one()
    assert r.num == LaurentPoly({0: 1, 2: 1})


def test_rf_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(LaurentPoly({0: 1}), LaurentPoly())
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_specialize_q0():
    # the value at q = 0 is LaurentPoly.constant_term
    assert LaurentPoly({0: 3, 4: 5, 2: -1}).constant_term() == 3
    # only honest polynomials may be specialized at q = 0: a value with a
    # denominator has no constant_term, and a pole raises
    r = RationalFunction(LaurentPoly({0: 3, 1: 5}), LaurentPoly({0: 2, 2: -1}))
    assert not hasattr(r, "constant_term")
    with pytest.raises(ZeroDivisionError):
        LaurentPoly({-1: 1}).constant_term()


def test_poly_gcd_small():
    a = LaurentPoly({0: 1, 2: -1})          # 1 - q^2
    b = LaurentPoly({0: 1, 4: -1})          # 1 - q^4
    g = poly_gcd(a, b)
    assert g in (a, -a)


# ---------------------------------------------------------------------------
# algebraic laws on random data
# ---------------------------------------------------------------------------

coeffs = st.integers(min_value=-6, max_value=6)
exps = st.integers(min_value=-5, max_value=7)


@st.composite
def laurents(draw, allow_zero=True):
    n = draw(st.integers(min_value=0 if allow_zero else 1, max_value=5))
    c = {}
    for _ in range(n):
        c[draw(exps)] = draw(coeffs)
    p = LaurentPoly(c)
    if not allow_zero and p.is_zero():
        p = p + LaurentPoly({draw(exps): 1})
    return p


@st.composite
def rationals(draw):
    return RationalFunction(draw(laurents()), draw(laurents(allow_zero=False)))


@given(laurents())
def test_laurent_string_roundtrip(p):
    assert parse_laurent(canonical_string(p)) == p


@given(rationals())
def test_rational_string_roundtrip(r):
    assert parse(canonical_string(r)) == r


@given(rationals(), rationals(), rationals())
@settings(max_examples=60)
def test_field_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert (a - b) + b == a
    assert a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


@given(laurents(allow_zero=False), laurents(allow_zero=False))
@settings(max_examples=60)
def test_divexact_inverts_mul(a, b):
    assert poly_divexact(a * b, b) == a


# ---------------------------------------------------------------------------
# one normalisation of a product against the normalised factors, and sympy
# ---------------------------------------------------------------------------

def _to_sympy(p):
    import sympy
    q = sympy.Symbol("q")
    return sum((sympy.Integer(v) * q ** e for e, v in p.c.items()),
               sympy.Integer(0))


def _assert_reduced_like_sympy(r, num, den):
    """r is num/den in the normal form: no polynomial factor left between
    its parts, int coefficients with joint content 1, and den a polynomial
    with positive constant term."""
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    want = sympy.cancel(_to_sympy(num) / _to_sympy(den))
    assert sympy.cancel(_to_sympy(r.num) / _to_sympy(r.den) - want) == 0
    common = sympy.gcd(_to_sympy(r.num.shift(-r.num.valuation())),
                       _to_sympy(r.den))
    assert sympy.degree(common, q) == 0
    values = list(r.num.c.values()) + list(r.den.c.values())
    assert all(type(v) is int for v in values)
    assert gcd(*values) == 1
    assert r.den.valuation() == 0 and r.den.c[0] > 0


@given(laurents(), laurents(allow_zero=False),
       laurents(), laurents(allow_zero=False))
@settings(max_examples=60, deadline=None)
def test_single_normalisation_of_product(n1, d1, n2, d2):
    once = RationalFunction(n1 * n2, d1 * d2)
    assert once == RationalFunction(n1, d1) * RationalFunction(n2, d2)
    _assert_reduced_like_sympy(once, n1 * n2, d1 * d2)


@given(laurents(), laurents(allow_zero=False),
       st.integers(-12, 12).filter(bool))
@settings(max_examples=100, deadline=None)
def test_normal_form_ignores_a_common_scalar(n, d, k):
    # RationalFunction(1, 2 + 4q) is (1)/(2 + 4q): no rational coefficient
    scaled = RationalFunction(n * k, d * k)
    r = RationalFunction(n, d)
    assert canonical_string(scaled) == canonical_string(r)
    _assert_reduced_like_sympy(r, n, d)


@given(rationals(), rationals(), rationals())
@settings(max_examples=60, deadline=None)
def test_single_normalisation_of_rescale(v, r, c):
    # v * r / c, normalised after each operation, equals the quotient of
    # the products of numerators and denominators normalised once
    if c.is_zero():
        return
    once = RationalFunction(v.num * r.num * c.den, v.den * r.den * c.num)
    assert once == v * r / c


# ---------------------------------------------------------------------------
# one normal form per element of Q(q), in its smallest type
# ---------------------------------------------------------------------------

@st.composite
def elements(draw):
    """A LaurentPoly, or a RationalFunction as its constructor returns it
    (a LaurentPoly whenever the denominator divides)."""
    if draw(st.booleans()):
        return draw(laurents())
    return draw(rationals())


# each operation, and the same value built by another route
_ROUTES = {
    "add": (lambda a, b: a + b, lambda a, b: b + a),
    "sub": (lambda a, b: a - b, lambda a, b: -(b - a)),
    "mul": (lambda a, b: a * b, lambda a, b: b * a),
    "div": (lambda a, b: a / b, lambda a, b: a * (ONE / b)),
}


def _sympy_value(x):
    return _to_sympy(x.num) / _to_sympy(x.den)


def test_equal_values_of_both_types_are_one_element():
    ones = {ONE, LaurentPoly({0: 1}), RationalFunction(1), parse("1"),
            qint(1), RationalFunction(LaurentPoly({1: 2}),
                                      LaurentPoly({1: 2}))}
    assert len(ones) == 1
    assert all(type(x) is LaurentPoly for x in ones)
    assert len({ZERO, LaurentPoly(), RationalFunction(0, 5), ONE - ONE}) == 1


@given(elements(), elements(), st.sampled_from(sorted(_ROUTES)))
@settings(max_examples=200, deadline=None)
def test_every_operation_returns_the_normal_form(a, b, op):
    """The result is a LaurentPoly exactly when sympy's cancelled
    denominator over Z is +-q^k, has sympy's value, and equals, hashes as
    and has the type of the same value built another way."""
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    if op == "div" and not b:
        return
    first, second = _ROUTES[op]
    got = first(a, b)
    want = sympy.cancel(first(_sympy_value(a), _sympy_value(b)))
    # sympy writes an integer denominator into rational coefficients: the
    # denominator over Z is +-q^k exactly when some q^K times the value is
    # a polynomial with integer coefficients (|exponents| stay below 64)
    shifted = sympy.cancel(want * q ** 64)
    laurent = bool(shifted.is_polynomial(q)) and all(
        c.is_integer for c in sympy.Poly(shifted, q).coeffs())
    assert (type(got) is LaurentPoly) == laurent, (got, want)
    assert type(got) in (LaurentPoly, RationalFunction)
    assert sympy.cancel(_sympy_value(got) - want) == 0
    if laurent:
        assert got.num is got
        assert got.den == ONE
    else:
        _assert_reduced_like_sympy(got, got.num, got.den)
        assert not got.den.is_one()
    for twin in (second(a, b), parse(canonical_string(got)),
                 RationalFunction(got.num * 3, got.den * 3)):
        assert type(twin) is type(got)
        assert twin == got and hash(twin) == hash(got)
        assert len({twin, got}) == 1


# ---------------------------------------------------------------------------
# the Laurent product and the square-and-multiply power against sympy
# ---------------------------------------------------------------------------

@st.composite
def operands(draw):
    """An int, a monomial or a general Laurent polynomial."""
    kind = draw(st.sampled_from(("int", "monomial", "laurent")))
    if kind == "int":
        return draw(coeffs)
    if kind == "monomial":
        return LaurentPoly({draw(exps): draw(coeffs.filter(bool))})
    return draw(laurents())


def test_laurent_product_drops_zero_coefficients():
    one_plus, one_minus = LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 1, 1: -1})
    assert (one_plus * one_minus).c == {0: 1, 2: -1}
    assert (one_plus * 0).c == {}
    # a negative power lies in Q(q)
    inverse = one_plus ** -1
    assert type(inverse) is RationalFunction
    assert inverse == RationalFunction(ONE, one_plus)


@pytest.mark.parametrize("n,d,kind", [
    (LaurentPoly({0: 1}), LaurentPoly({0: 1}), LaurentPoly),
    (LaurentPoly({0: 1}), LaurentPoly({0: 1, 1: 1}), RationalFunction),
], ids=["ONE", "one-over-1+q"])
def test_laurent_poly_leaves_a_rational_operand_to_it(n, d, kind):
    """p op r, in both orders, is the normal form of the two fractions:
    a LaurentPoly when r is ONE, a RationalFunction when r has a
    denominator."""
    p, r = LaurentPoly({0: 1, 2: 3}), RationalFunction(n, d)
    for got, want in ((p + r, RationalFunction(p * d + n, d)),
                      (r + p, RationalFunction(p * d + n, d)),
                      (p - r, RationalFunction(p * d - n, d)),
                      (r - p, RationalFunction(n - p * d, d)),
                      (p * r, RationalFunction(p * n, d)),
                      (r * p, RationalFunction(p * n, d))):
        assert type(got) is kind
        assert got == want


@pytest.mark.parametrize("op", [
    lambda p: p * 1.5, lambda p: 1.5 * p, lambda p: p + 1.5,
    lambda p: 1.5 + p, lambda p: p - 1.5, lambda p: 1.5 - p,
], ids=["mul", "rmul", "add", "radd", "sub", "rsub"])
def test_laurent_poly_with_a_float_raises_type_error(op):
    with pytest.raises(TypeError):
        op(LaurentPoly({0: 1}))


@given(laurents(), operands(), st.integers(min_value=0, max_value=4))
@settings(max_examples=150, deadline=None)
def test_laurent_product_and_power_match_sympy(p, x, n):
    sympy = pytest.importorskip("sympy")
    xs = _to_sympy(x) if isinstance(x, LaurentPoly) else sympy.Integer(x)
    for got, want in ((p * x, _to_sympy(p) * xs), (x * p, xs * _to_sympy(p)),
                      (p ** n, _to_sympy(p) ** n)):
        assert isinstance(got, LaurentPoly)
        assert 0 not in got.c.values()
        assert sympy.expand(_to_sympy(got) - want) == 0


@given(rationals().filter(bool), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_rational_power_matches_sympy_and_inverts(r, n):
    sympy = pytest.importorskip("sympy")
    one = RationalFunction(1)
    assert r ** -n == one / r ** n
    assert r ** n * r ** -n == one
    _assert_reduced_like_sympy(r ** n, r.num ** n, r.den ** n)


@given(laurents(), laurents(allow_zero=False), st.booleans())
@settings(max_examples=80, deadline=None)
def test_exact_quotient_divides_or_names_the_place(a, b, divisible):
    num = a * b if divisible else a
    if divisible or RationalFunction(num, b).den.is_one():
        got = exact_quotient(num, b, "entry {}", 7)
        assert got == RationalFunction(num, b)
        assert got.den.is_one()
    else:
        with pytest.raises(ArithmeticError,
                           match=r"^inexact division in entry 7$"):
            exact_quotient(num, b, "entry {}", 7)


# ---------------------------------------------------------------------------
# sum_products against the get / add / pop loop it replaces, and sympy
# ---------------------------------------------------------------------------

def _get_add_pop(terms):
    """The accumulate loop sum_products replaced, one product at a time."""
    out = {}
    for key, x, y in terms:
        s = out.get(key, ZERO) + x * y
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    return out


@st.composite
def factors(draw):
    """Laurent polynomials (the fast path) with ONE, -ONE and single-term
    monomials among them (a lone product's shortcuts), and values with a
    denominator (the exact path)."""
    kind = draw(st.sampled_from(("laurent", "unit", "monomial", "rational")))
    if kind == "laurent":
        return RationalFunction(draw(laurents()))
    if kind == "unit":
        return draw(st.sampled_from((ONE, -ONE)))
    if kind == "monomial":
        return rf(LaurentPoly({draw(exps): draw(coeffs.filter(lambda v: v))}))
    return draw(rationals())


@st.composite
def product_terms(draw):
    """(key, x, y) triples; the keys drawn as `cancel` sum to exactly zero."""
    keys = st.sampled_from("abcde")
    terms = draw(st.lists(st.tuples(keys, factors(), factors()), max_size=12))
    cancel = draw(st.sets(keys))
    terms += [(k, -x, y) for k, x, y in terms if k in cancel]
    return draw(st.permutations(terms)), cancel


@given(product_terms())
@settings(max_examples=150, deadline=None)
def test_sum_products_matches_get_add_pop(drawn):
    terms, cancel = drawn
    got = sum_products(iter(terms))
    want = _get_add_pop(terms)
    assert got == want
    assert {k: canonical_string(v) for k, v in got.items()} \
        == {k: canonical_string(v) for k, v in want.items()}
    assert not cancel & set(got)
    assert all(not v.is_zero() for v in got.values())


@given(product_terms())
@settings(max_examples=40, deadline=None)
def test_sum_products_matches_sympy(drawn):
    sympy = pytest.importorskip("sympy")
    terms, _ = drawn
    got = sum_products(terms)
    for key in {k for k, _, _ in terms}:
        want = sympy.cancel(sum(
            (_to_sympy(x.num) * _to_sympy(y.num)
             / (_to_sympy(x.den) * _to_sympy(y.den))
             for k, x, y in terms if k == key), sympy.Integer(0)))
        if want == 0:
            assert key not in got
            continue
        v = got[key]
        _assert_reduced_like_sympy(v, v.num, v.den)
        assert sympy.cancel(_to_sympy(v.num) / _to_sympy(v.den) - want) == 0


@st.composite
def slot_operators(draw):
    """(vec, pos, columns): states of width 1-3, an operator on 1-3 of
    their slots as {input tuple: {output tuple: value}}, and a vector."""
    width = draw(st.integers(1, 3))
    pos = tuple(draw(st.permutations(range(width)))[
        :draw(st.integers(1, width))])
    occ = st.integers(0, 2)
    tuples = st.lists(occ, min_size=len(pos), max_size=len(pos)).map(tuple)
    columns = draw(st.dictionaries(
        tuples, st.dictionaries(tuples, factors(), max_size=3), max_size=6))
    states = st.lists(occ, min_size=width, max_size=width).map(tuple)
    vec = draw(st.dictionaries(states, factors(), max_size=4))
    return vec, pos, columns


@given(slot_operators())
@settings(max_examples=150, deadline=None)
def test_apply_on_slots_matches_get_add_pop(drawn):
    vec, pos, columns = drawn

    def column(inp):
        return columns.get(inp, {})

    def key(state, out):
        s = list(state)
        for p, a in zip(pos, out):
            s[p] = a
        return tuple(s)

    got = apply_on_slots(vec, pos, column)
    want = _get_add_pop([
        (key(state, out), v, c) for state, c in vec.items()
        for out, v in column(tuple(state[p] for p in pos)).items()])
    assert got == want
    assert {k: canonical_string(v) for k, v in got.items()} \
        == {k: canonical_string(v) for k, v in want.items()}
    assert all(not v.is_zero() for v in got.values())
