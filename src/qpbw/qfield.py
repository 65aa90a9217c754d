"""Exact arithmetic in Q(q): sparse Laurent polynomials and rational functions.

Representation choices
----------------------
Every element of Q(q) has one normal form, in the smallest of two types:

  * an element of Z[q, q^-1] is a LaurentPoly, a sparse map
    {exponent: coefficient} with int coefficients;
  * any other element is a RationalFunction, a reduced num/den pair whose
    den is never 1.

A RationalFunction is normalized so that

  * num lies in Z[q, q^-1] and den in Z[q] with valuation 0, i.e. every
    q-shift is pushed into num;
  * gcd(num, den) = 1 as polynomials;
  * the coefficients of num and den together have content 1, and den has
    positive constant term.

Under these rules the representation of a given element of Q(q) is unique,
so equality is structural and equal values hash equal, and no rational
coefficient is ever needed: a scalar denominator stays in den.  Building a
RationalFunction, by its constructor or by any operation that can leave
Z[q, q^-1], is the one normalising step, and it gives the LaurentPoly
whenever the reduced denominator is 1.  A LaurentPoly has the views num
(itself) and den (ONE), as an int has numerator and denominator, so code
that reads num and den takes either type.  Polynomial gcds are computed by
the primitive pseudo-remainder sequence over Z, which keeps every
intermediate exact, and exact division (poly_divexact) succeeds only when
the quotient has integer coefficients.

Each primitive has one copy, here: the product of Laurent coefficient
dicts (_product) that LaurentPoly.__mul__ and the sparse accumulators
share, the square-and-multiply loop (_power) of both ** operators, the
coercion rf with the constants ONE and ZERO (and _lp, its LaurentPoly
twin), vec_add / vec_scale, and the q-numbers of Lusztig's integral form:
the cached, LaurentPoly-valued qpow, qint, qbracket, qbinom and the
Pochhammer run poch_run, with q_factorial and d_norm built on them.

Sparse sums of products have two entry points that share one way of
accumulating and one finalisation: sum_products over (key, x, y) triples,
and apply_on_slots, which applies an operator acting on some slots of
occupation tuples (the checked tables on kets) in one fused pass over the
operator's own columns.  Both choose a term's path by the type of its
factors: products of two LaurentPolys are kept lazily, a key's lone
product as its two factors until the end, so a factor ONE costs nothing
and a monomial factor one shift; everything else takes the exact
RationalFunction path.

String form (used by the CLI and the golden tables): terms in ascending
exponent, coefficient 1 suppressed, "q^1" written "q", "q^0" omitted, terms
joined by " + " / " - ", e.g. "-q^2 + q^6 + q^8 - q^10".  A rational
function renders "(<num>)/(<den>)".
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd as _igcd
from operator import itemgetter


class LaurentPoly:
    """Sparse Laurent polynomial in q over Z."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs:
            self.c = {e: v for e, v in coeffs.items() if v}
        else:
            self.c = {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(v):
        if not v:
            return ZERO
        return LaurentPoly({0: v})

    # -- predicates / views -------------------------------------------

    @property
    def num(self):
        """Numerator view: the polynomial itself."""
        return self

    @property
    def den(self):
        """Denominator view: ONE."""
        return ONE

    def is_zero(self):
        return not self.c

    def is_one(self):
        return self.c == {0: 1}

    def valuation(self):
        """Lowest exponent (0 for the zero polynomial)."""
        return min(self.c) if self.c else 0

    def degree(self):
        return max(self.c) if self.c else 0

    def is_monomial(self):
        return len(self.c) == 1

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _lp(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.c:
            return other
        if not other.c:
            return self
        out = dict(self.c)
        for e, v in other.c.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            else:
                out.pop(e, None)
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = {e: -v for e, v in self.c.items()}
        return r

    def __sub__(self, other):
        other = _lp(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _lp(other)
        if other is NotImplemented:
            return NotImplemented
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = _product(self.c, other.c)
        return r

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self / other in Q(q): the LaurentPoly when other divides self."""
        other = rf(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero in Q(q)")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = rf(other)
        return NotImplemented if other is NotImplemented else other / self

    def __pow__(self, n):
        if n < 0:
            return ONE / self ** -n
        return _power(self, n, ONE)

    def shift(self, k):
        """Multiply by q^k."""
        if not k or not self.c:
            return self
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = {e + k: v for e, v in self.c.items()}
        return r

    def constant_term(self):
        if self.c and min(self.c) < 0:
            raise ZeroDivisionError("pole at q = 0")
        return self.c.get(0, 0)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        other = _lp(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self):
        return bool(self.c)

    def __str__(self):
        return lp_to_str(self)

    def __repr__(self):
        return f"LaurentPoly({lp_to_str(self)})"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


def _lp(x):
    """x as a LaurentPoly: an int is coerced, and any other type gives
    NotImplemented, so that a binary operator can leave the operation to
    its other operand (a RationalFunction takes a LaurentPoly in)."""
    if type(x) is LaurentPoly:
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    return NotImplemented


def _power(x, n, one):
    """x ** n for an int n >= 0, by square and multiply."""
    result = one
    while n:
        if n & 1:
            result = result * x
        x = x * x if n > 1 else x
        n >>= 1
    return result


# ---------------------------------------------------------------------------
# string form and parser
# ---------------------------------------------------------------------------

def lp_to_str(p):
    if not p.c:
        return "0"
    parts = []
    for idx, e in enumerate(sorted(p.c)):
        v = p.c[e]
        neg = v < 0
        mag = -v if neg else v
        if e == 0:
            body = str(mag)
        else:
            qs = "q" if e == 1 else f"q^{e}"
            body = qs if mag == 1 else f"{mag}{qs}"
        if idx == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


_TERM_RE = re.compile(
    r"^\s*(?P<coeff>\d+)?\s*"
    r"(?P<q>q(?:\^(?P<exp>-?\d+))?)?\s*$"
)


def parse_laurent(text):
    """Inverse of lp_to_str.  Accepts exactly the canonical grammar."""
    text = text.strip()
    if text == "0":
        return ZERO
    # split into signed terms on " + " / " - ", with an optional leading "-"
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:]
    chunks = re.split(r" ([+-]) ", text)
    coeffs = {}
    terms = [(sign, chunks[0])]
    for i in range(1, len(chunks), 2):
        terms.append((1 if chunks[i] == "+" else -1, chunks[i + 1]))
    for sgn, chunk in terms:
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("q") is None):
            raise ValueError(f"cannot parse term {chunk!r}")
        mag = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("q"):
            e = int(m.group("exp")) if m.group("exp") else 1
        else:
            e = 0
        coeffs[e] = coeffs.get(e, 0) + sgn * mag
    return LaurentPoly(coeffs)


# ---------------------------------------------------------------------------
# integer-polynomial helpers (gcd via primitive pseudo-remainder sequence)
# ---------------------------------------------------------------------------

def _to_int_list(p):
    """LaurentPoly with valuation >= 0 -> dense int list, lowest degree first."""
    if not p.c:
        return []
    lo, hi = min(p.c), max(p.c)
    assert lo >= 0
    out = [0] * (hi + 1)
    for e, v in p.c.items():
        out[e] = v
    return out


def _content(lst):
    g = 0
    for v in lst:
        g = _igcd(g, abs(v))
        if g == 1:
            return 1
    return g


def _primitive(lst):
    g = _content(lst)
    if g > 1:
        return [v // g for v in lst]
    return list(lst)


def _trim(lst):
    while lst and lst[-1] == 0:
        lst.pop()
    return lst


def _pseudo_rem(a, b):
    """Pseudo-remainder of dense int lists (lowest degree first)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        la = a[-1]
        # a = lb*a - la * q^(da-db) * b
        a = [lb * v for v in a]
        off = da - db
        for i, bv in enumerate(b):
            a[off + i] -= la * bv
        _trim(a)
    return a


def _int_poly_gcd(a, b):
    """Primitive gcd of two dense int lists (lowest degree first)."""
    a = _primitive(_trim(list(a)))
    b = _primitive(_trim(list(b)))
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        r = _primitive(r)
        a, b = b, r
    if a and a[-1] < 0:
        a = [-v for v in a]
    return a


def _list_to_lp(lst):
    return LaurentPoly({e: v for e, v in enumerate(lst) if v})


def poly_gcd(p, q):
    """Primitive gcd of two polynomial-valued LaurentPolys (valuation >= 0)."""
    return _list_to_lp(_int_poly_gcd(_to_int_list(p), _to_int_list(q)))


def _exact_scalar_div(a, b):
    """a / b for ints; ValueError unless b divides a."""
    f, r = divmod(a, b)
    if r:
        raise ValueError("inexact polynomial division")
    return f


def poly_divexact(a, b):
    """Exact division a / b of LaurentPolys; raises ValueError if inexact.

    Inexact means that b does not divide a in Z[q, q^-1]: either the
    quotient is not a Laurent polynomial or some coefficient of it is not
    an integer.  Runs from the low-exponent end, so b may be any Laurent
    polynomial; the quotient's lowest term is determined by the lowest
    terms of a and b.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return ZERO
    if b.is_monomial():
        (eb, vb), = b.c.items()
        return LaurentPoly({e - eb: _exact_scalar_div(v, vb) for e, v in a.c.items()})
    rem = dict(a.c)
    vb = b.valuation()
    b0 = b.c[vb]
    qmax = a.degree() - b.degree()
    out = {}
    while rem:
        e = min(rem)
        k = e - vb  # next quotient exponent
        if k > qmax:
            raise ValueError("inexact polynomial division")
        f = _exact_scalar_div(rem[e], b0)
        out[k] = f
        for eb2, vb2 in b.c.items():
            t = eb2 + k
            w = rem.get(t, 0) - vb2 * f
            if w:
                rem[t] = w
            else:
                rem.pop(t, None)
    return LaurentPoly(out)


# ---------------------------------------------------------------------------
# RationalFunction
# ---------------------------------------------------------------------------

class _Normal(type):
    """Calling RationalFunction normalises (its __init__) and then returns
    the LaurentPoly num when the reduced denominator is 1."""

    def __call__(cls, num, den=None):
        r = super().__call__(num, den)
        return r.num if r.den.is_one() else r


class RationalFunction(metaclass=_Normal):
    """Element of Q(q) outside Z[q, q^-1], stored as a reduced, normalized
    num/den pair; the constructor returns a LaurentPoly for any other."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentPoly.const(num)
        if den is None:
            den = ONE
        elif isinstance(den, int):
            den = LaurentPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        # push the denominator's q-shift into num
        v = den.valuation()
        if v:
            den = den.shift(-v)
            num = num.shift(-v)
        # cancel the polynomial gcd (a monomial is coprime to the other part)
        if not num.is_monomial() and not den.is_monomial():
            nv = num.valuation()
            g = poly_gcd(num.shift(-nv), den)
            if g.degree() > 0:
                num = poly_divexact(num.shift(-nv), g).shift(nv)
                den = poly_divexact(den, g)
        # divide out the joint content; den's constant term made positive
        g = _content(den.c.values())
        if g != 1:
            g = _igcd(g, _content(num.c.values()))
        if den.c[0] < 0:
            g = -g
        if g != 1:
            num = LaurentPoly({e: c // g for e, c in num.c.items()})
            den = LaurentPoly({e: c // g for e, c in den.c.items()})
        self.num = num
        self.den = den

    def is_zero(self):
        """Never: zero is the LaurentPoly ZERO."""
        return False

    # -- arithmetic: an operand may be an int or a LaurentPoly --------------

    def __add__(self, other):
        other = rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        r = RationalFunction.__new__(RationalFunction)
        r.num = -self.num
        r.den = self.den
        return r

    def __sub__(self, other):
        other = rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__
    __truediv__ = LaurentPoly.__truediv__
    __rtruediv__ = LaurentPoly.__rtruediv__
    __pow__ = LaurentPoly.__pow__

    # -- comparison / hashing ---------------------------------------------------

    def __eq__(self, other):
        other = rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def rf(x):
    """x as an element of Q(q): an int is coerced to a LaurentPoly, a
    LaurentPoly or RationalFunction is returned as it is, and any other
    type gives NotImplemented, so that a binary operator can leave the
    operation to its other operand."""
    t = type(x)
    if t is LaurentPoly or t is RationalFunction:
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# sparse sums of products
#
# sum_products and apply_on_slots accumulate the same way.  Per output key
# they keep the key's lone Laurent product as its two factors, not yet
# multiplied; from a second Laurent product on, a plain {exponent:
# coefficient} dict; and, apart, the exact sum of every other product.
# _finish turns all three into values once, at the end.
# ---------------------------------------------------------------------------

def _add_product(acc, xc, yc):
    """acc += xc * yc on {exponent: coefficient} dicts; returns acc."""
    if len(xc) > len(yc):
        xc, yc = yc, xc
    get = acc.get
    for ea, va in xc.items():
        for eb, vb in yc.items():
            e = ea + eb
            acc[e] = get(e, 0) + va * vb
    return acc


def _product(xc, yc):
    """xc * yc as a new dict with no zero coefficient (equality is
    structural); a monomial factor shifts and scales the other."""
    if len(xc) > len(yc):
        xc, yc = yc, xc
    if len(xc) == 1:
        (ea, va), = xc.items()
        return {e + ea: v * va for e, v in yc.items()}
    return {e: v for e, v in _add_product({}, xc, yc).items() if v}


def _grow(cur, x, y):
    """A key's lone pair or exponent dict, plus the Laurent product x * y."""
    if type(cur) is tuple:
        a, b = cur
        cur = _product(a.c, b.c)
    return _add_product(cur, x.c, y.c)


def _add_exact(rest, key, p):
    cur = rest.get(key)
    rest[key] = p if cur is None else cur + p


def _finish(laurent, rest):
    """{key: value} from the accumulators, zero sums dropped.

    A lone pair is multiplied only here, and a factor ONE gives the other
    factor itself, no copy.  Keys come out in order of first appearance,
    the Laurent ones first.
    """
    out = {}
    lp_new = LaurentPoly.__new__
    for key, cur in laurent.items():
        if type(cur) is tuple:
            x, y = cur
            xc, yc = x.c, y.c
            if len(xc) == 1 and xc.get(0) == 1:
                if yc:
                    out[key] = y
                continue
            if len(yc) == 1 and yc.get(0) == 1:
                if xc:
                    out[key] = x
                continue
            c = _product(xc, yc)
        else:
            c = {e: v for e, v in cur.items() if v}
        if c:
            p = lp_new(LaurentPoly)
            p.c = c
            out[key] = p
    for key, total in rest.items():
        p = out.get(key)
        if p is not None:
            total = total + p
        if total:
            out[key] = total
        elif p is not None:
            del out[key]
    return out


def sum_products(terms):
    """{key: sum of x * y} over an iterable of (key, x, y) triples.

    ``out[key] += x * y`` with zero sums dropped, the accumulate loop of
    the package (apply_on_slots is the same loop fused with building the
    keys).  When x and y are LaurentPolys, a key's first product is kept
    as its two factors and only later ones are added term by term into a
    plain {exponent: coefficient} dict, so no LaurentPoly is built per
    term.  Every other product and sum goes through the exact arithmetic
    of its operands.  Each key is converted once at the end; a key whose
    lone product has a factor ONE gets the other factor itself.  Keys come
    out in order of first appearance, the Laurent ones first.
    """
    laurent, rest = {}, {}
    get = laurent.get
    LP = LaurentPoly
    for key, x, y in terms:
        if type(x) is LP and type(y) is LP:
            cur = get(key)
            laurent[key] = (x, y) if cur is None else _grow(cur, x, y)
        else:
            _add_exact(rest, key, x * y)
    return _finish(laurent, rest)


def vec_scale(vec, c):
    """c times a sparse vector {key: value}; {} when c is zero."""
    c = rf(c)
    if not c:
        return {}
    return {k: v * c for k, v in vec.items()}


def vec_add(*vecs):
    """The sum of sparse vectors {key: value}, zero sums dropped."""
    return sum_products((k, v, ONE) for vec in vecs for k, v in vec.items())


def _tuple_getter(idx):
    """t -> (t[i] for i in idx) as a tuple, also for a single index."""
    if len(idx) == 1:
        i, = idx
        return lambda t: (t[i],)
    return itemgetter(*idx)


@lru_cache(maxsize=None)
def _slot_getters(width, pos):
    """(state + out -> output key, state -> input tuple) for these slots."""
    src = list(range(width))
    for j, p in enumerate(pos):
        src[p] = width + j
    return _tuple_getter(src), _tuple_getter(pos)


def apply_on_slots(vec, pos, column):
    """{state: coefficient} under an operator acting on the slots `pos`.

    pos holds distinct 0-based positions of the states; the operator maps
    the input tuple of a state at `pos` to outputs and keeps every other
    slot; every state has the width of the first one, or ValueError.
    column(inp) returns the operator's own column {out: value} at the
    input tuple inp.  The result is sum_products over the triples
    (state with `pos` set to out, value, coefficient), in one pass: each
    output key is one itemgetter over ``state + out``.  A coefficient's
    type is tested once per state, and a value's per term; products of two
    LaurentPolys are accumulated lazily as in sum_products, every other
    product takes the exact path.
    """
    if not vec:
        return {}
    width = len(next(iter(vec)))
    key_of, inp_of = _slot_getters(width, pos)
    LP = LaurentPoly
    laurent, rest = {}, {}
    get = laurent.get
    for state, c in vec.items():
        if len(state) != width:
            raise ValueError(f"state {state} has {len(state)} slots, "
                             f"the first state {width}")
        col = column(inp_of(state))
        if type(c) is LP:
            for out, v in col.items():
                key = key_of(state + out)
                if type(v) is LP:
                    cur = get(key)
                    laurent[key] = (v, c) if cur is None else _grow(cur, v, c)
                else:
                    _add_exact(rest, key, v * c)
        else:
            for out, v in col.items():
                _add_exact(rest, key_of(state + out), v * c)
    return _finish(laurent, rest)


def exact_quotient(num, den, where, *args):
    """num / den for elements of Q(q), as a LaurentPoly; ArithmeticError
    unless the quotient lies in Z[q, q^-1].

    The quotient is one exact division of Laurent polynomials, through the
    num and den views, so no gcd runs.  The error names the place,
    where.format(*args), formatted only then.
    """
    try:
        return poly_divexact(num.num * den.den, num.den * den.num)
    except ValueError:
        raise ArithmeticError(
            "inexact division in " + where.format(*args)) from None


def canonical_string(x):
    """Canonical text form of an element of Q(q) or an int; TypeError for
    any other value."""
    v = rf(x)
    if v is NotImplemented:
        raise TypeError(f"not an element of Q(q): {x!r}")
    return str(v)


def parse(text):
    """Parse a canonical string back to its element of Q(q)."""
    text = text.strip()
    m = re.fullmatch(r"\((?P<num>[^()]*)\)/\((?P<den>[^()]*)\)", text)
    if m:
        return RationalFunction(parse_laurent(m.group("num")), parse_laurent(m.group("den")))
    return parse_laurent(text)


# ---------------------------------------------------------------------------
# q-numbers, cached LaurentPolys.  `d` is the length exponent: the base is
# q_i = q^d.  A symbolic exponent or occupation (verify's key-prop check)
# reaches q through its own power_of_q(), and its q-numbers are built from
# that value.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def qpow(n):
    """q^n as a LaurentPoly; n.power_of_q() for a symbolic (non-int) n."""
    if not isinstance(n, int):
        return n.power_of_q()
    return LaurentPoly({n: 1})


@lru_cache(maxsize=None)
def qint(m, d=1):
    """[m] in base q^d:  (q^dm - q^-dm)/(q^d - q^-d), a Laurent polynomial
    for an int m, and that quotient for a symbolic m."""
    if not isinstance(m, int):
        return (qpow(d * m) - qpow(-d * m)) * (ONE / qbracket(d))
    if m < 0:
        return -qint(-m, d)
    return LaurentPoly({d * (m - 1 - 2 * t): 1 for t in range(m)})


@lru_cache(maxsize=None)
def qbracket(n):
    """<n> = q^n - q^-n  (zero when n = 0)."""
    return qpow(n) - qpow(-n)


@lru_cache(maxsize=None)
def qbinom(n, r, d=1):
    """Gaussian binomial [n choose r] in base q^d (a Laurent polynomial,
    by exact division); [n] / [r] [n - 1 choose r - 1] for a symbolic n."""
    if not isinstance(n, int):
        return (qint(n, d) * qbinom(n - 1, r - 1, d) * (ONE / qint(r, d))
                if r else ONE)
    if r < 0 or r > n:
        return ZERO
    return poly_divexact(q_factorial(n, d),
                         q_factorial(r, d) * q_factorial(n - r, d))


@lru_cache(maxsize=None)
def poch_run(x, m, d):
    """(p^2; p^2)_(x+m) / (p^2; p^2)_x = prod_{j=1..m} (1 - p^(2(x+j))),
    p = q^d; x may be symbolic.  poch_run(0, m, d) is (p^2; p^2)_m."""
    out = ONE
    for j in range(1, m + 1):
        out = out * (ONE - qpow(2 * d * (x + j)))
    return out


def q_factorial(m, d=1):
    """[m]! in base q^d, as a LaurentPoly."""
    out = ONE
    for t in range(2, m + 1):
        out = out * qint(t, d)
    return out


def d_norm(m, d=1):
    """Normalization factor  p^{-m(m-1)/2} (1-p^2)^{-m}  with p = q^d.

    Satisfies (p^2; p^2)_m * d_norm(m) = [m]!  in base p.
    """
    den = LaurentPoly({0: 1, 2 * d: -1}) ** m
    return RationalFunction(qpow(-d * (m * (m - 1) // 2)), den)


def is_integer_polynomial(x):
    """True when x lies in Z[q] (no denominator, no negative powers)."""
    return type(x) is LaurentPoly and x.valuation() >= 0
