"""q-oscillator Fock spaces and the function-algebra side of the story.

One oscillator per Dynkin node, base p = q^d: generators a+, a-, k with

    k a+ = p a+ k,   k a- = p^-1 a- k,
    a- a+ = 1 - p^2 k^2,   a+ a- = 1 - k^2,

acting on kets by a+|m> = |m+1>, a-|m> = (1-p^{2m})|m-1>, k|m> = p^m|m>.
These bare kets are the only normalisation the module works in.

Operators on a tensor product of modes are kept in a canonical form: each
term assigns every slot a monomial (a+)^x k^t (a-)^y (t may be negative; k
is invertible on kets) and carries one prefactor in Q(q).  All products
reduce mechanically to this form, so cancellations are exact.

A word is named by its label, 1 or 2, as AlgebraPreset.word reads it;
any other value raises ValueError.  The representation pi_word of the
function algebra is the slotwise tensor product of the fundamental pi_i
composed along coproduct paths.  sigma_i and sigma_i e_i come from their
t-polynomials through op_polynomial, the one evaluator of a polynomial in
operators (a sum of coefficient times product of operators), which also
evaluates verify's q-Serre sums in the xi operators.  sigma_i must land on
a single diagonal +-q^power monomial (anything else means a transcription
slipped, and we raise).
xi_i = lambda_i (sigma_i e_i) sigma_i^{-1} is then an honest operator
with finite-support columns.

xi_i is kept without its scalar lambda_i = 1/(1 - q_i^2): the operator
xi_bar_op = (sigma_i e_i) sigma_i^{-1} = xi_i / lambda_i has Laurent
coefficients, and so does every slot factor on bare kets, so xi_matrix,
its matrix on bare kets, has Laurent entries throughout.  The intertwiner
recursion reads it, since lambda_i cancels from both sides of its
relations; the property checks carry lambda_i as the scalar it is.
"""

from functools import lru_cache

from .qfield import (
    ONE, LaurentPoly, poch_run, qpow, sum_products, vec_add, vec_scale,
)
from .presets import preset, tuples_with_weight


# ---------------------------------------------------------------------------
# single-mode canonical monomials (x, t, y) <-> (a+)^x k^t (a-)^y


def _mono_mul_atom(mono, atom, d):
    """Right-multiply a canonical monomial by one generator; returns terms.

    Canonical monomials are one-sided (x == 0 or y == 0); both relations
    a-a+ = 1 - p^2 k^2 and a+a- = 1 - k^2 are used to keep them so, which
    makes the monomials a genuine linear basis.
    """
    x, t, y = mono
    if atom == "k":
        return ((qpow(d * y), (x, t + 1, y)),)
    if atom == "k-":
        return ((qpow(-d * y), (x, t - 1, y)),)
    if atom == "a-":
        if x == 0:
            return ((ONE, (0, t, y + 1)),)
        return ((qpow(-d * t), (x - 1, t, y)),
                (-qpow(-d * t), (x - 1, t + 2, y)))
    if atom == "a+":
        if y == 0:
            return ((qpow(d * t), (x + 1, t, 0)),)
        return ((ONE, (x, t, y - 1)),
                (-qpow(2 * d * y), (x, t + 2, y - 1)))
    raise ValueError(f"unknown oscillator atom {atom!r}")


def _mono_mul_word(start, atoms, d):
    """Right-multiply by a product of atoms; returns {mono: coeff}."""
    cur = {start: ONE}
    for atom in atoms:
        cur = sum_products((m2, c, c2) for mono, c in cur.items()
                           for c2, m2 in _mono_mul_atom(mono, atom, d))
    return cur


def _mono_mul(m1, m2, d):
    """m1 . m2 in canonical form (m2 applied first on kets)."""
    x, t, y = m2
    atoms = ("a+",) * x + (("k",) * t if t >= 0 else ("k-",) * (-t)) \
        + ("a-",) * y
    return _mono_mul_word(m1, atoms, d)


@lru_cache(maxsize=None)
def _mono_apply(mono, m, d):
    """Apply to a bare ket |m>; returns (coefficient, image occupation).

    Cached: operator application meets the same slot action many times.

    The lowering factor prod_{s<y} (1 - p^{2(m-s)}) vanishes exactly when
    the ket would drop below the vacuum, so we bail out there; a symbolic
    m keeps it.
    """
    x, t, y = mono
    n = m - y
    if isinstance(m, int) and n < 0:
        return None
    coeff = poch_run(n, y, d)
    if t:
        coeff = coeff * qpow(d * t * n)
    return coeff, n + x


# ---------------------------------------------------------------------------
# operators on tensor products: {tuple of slot monomials: coefficient}


def _slotwise(slot_sums):
    """Expand a product of one-slot sums {mono: coeff} into (monos, coeff)."""
    expanded = [((), ONE)]
    for prod in slot_sums:
        expanded = [(monos + (m2,), c * c2) for monos, c in expanded
                    for m2, c2 in prod.items()]
    return expanded


def op_identity(length):
    return {((0, 0, 0),) * length: ONE}


def op_mul(name, label, xop, yop):
    """Operator product x . y (y acts first)."""
    profile = preset(name).bases(label)

    def terms():
        for mx, cx in xop.items():
            for my, cy in yop.items():
                cxy = cx * cy
                for monos, c in _slotwise(_mono_mul(a, b, d) for a, b, d
                                          in zip(mx, my, profile)):
                    yield monos, cxy, c

    return sum_products(terms())


def apply_op(name, label, op, vec):
    """Apply an operator to a Fock vector {occupation tuple: coeff} of bare
    kets |A>."""
    profile = preset(name).bases(label)

    def terms():
        for A, cA in vec.items():
            for monos, c in op.items():
                coeff = cA
                occ = []
                for s, d in enumerate(profile):
                    r = _mono_apply(monos[s], A[s], d)
                    if r is None:
                        break
                    coeff = coeff * r[0]
                    occ.append(r[1])
                else:
                    yield tuple(occ), c, coeff

    return sum_products(terms())


# ---------------------------------------------------------------------------
# the representation of the function algebra


@lru_cache(maxsize=None)
def _entry_terms(name, node, j, k):
    """Canonical terms of the fundamental matrix entry pi_node(t_jk)."""
    p = preset(name)
    entry = p.pi_matrix[node][j - 1][k - 1]
    d = p.d[node]
    return tuple(sum_products(
        (mono, coeff, c) for coeff, atoms in entry
        for mono, c in _mono_mul_word((0, 0, 0), atoms, d).items()).items())


def pi_generator(name, label, j, k):
    """The operator pi_word(t_jk) via the coproduct path sum."""
    p = preset(name)
    n = p.n_gen
    if not (1 <= j <= n and 1 <= k <= n):
        raise ValueError(f"generator index ({j},{k}) outside 1..{n}")
    w = p.word(label)

    def paths():
        stack = [(0, j, ONE, ())]
        while stack:
            pos, cur, coeff, monos = stack.pop()
            if pos == len(w):
                if cur == k:
                    yield monos, coeff, ONE
                continue
            for nxt in range(1, n + 1):
                if not p.pi_matrix[w[pos]][cur - 1][nxt - 1]:
                    continue
                for mono, c in _entry_terms(name, w[pos], cur, nxt):
                    stack.append((pos + 1, nxt, coeff * c, monos + (mono,)))

    return sum_products(paths())


def op_polynomial(name, label, poly, factor):
    """Sum of coeff * factor(x_1) ... factor(x_n) over the terms
    (coeff, (x_1, ..., x_n)) of poly, each factor(x) an operator on the
    word's slots: for a t-polynomial x is a generator's index pair, for a
    q-Serre sum a letter."""
    identity = op_identity(len(preset(name).word(label)))
    out = {}
    for coeff, xs in poly:
        term = identity
        for x in xs:
            term = op_mul(name, label, term, factor(x))
        out = vec_add(out, vec_scale(term, coeff))
    return out


def _sigma_op(name, label, i, tag):
    """pi_word of sigma_i (tag "sigma") or sigma_i e_i (tag "sigma_e"),
    from its t-polynomial."""
    return op_polynomial(name, label, preset(name).sigma_polys[(i, tag)],
                         lambda jk: pi_generator(name, label, *jk))


def _sigma_inverse(name, label, i):
    """pi_word(sigma_i)^{-1}, checked to be a diagonal +-q^power monomial."""
    word = preset(name).word(label)
    op = _sigma_op(name, label, i, "sigma")
    if len(op) != 1:
        raise ArithmeticError(
            f"pi_{word}(sigma_{i}) of {name} is not a monomial: "
            f"{len(op)} canonical terms")
    (monos, coeff), = op.items()
    if any(x or y for x, _, y in monos):
        raise ArithmeticError(
            f"pi_{word}(sigma_{i}) of {name} is not diagonal")
    if not (type(coeff) is LaurentPoly and coeff.is_monomial()
            and abs(next(iter(coeff.c.values()))) == 1):
        raise ArithmeticError(
            f"pi_{word}(sigma_{i}) of {name} has a non-unit prefactor: "
            f"{coeff}")
    return {tuple((0, -t, 0) for _, t, _ in monos): ONE / coeff}


@lru_cache(maxsize=None)
def xi_bar_op(name, label, i):
    """pi_word(xi_i / lambda_i) = pi_word((sigma_i e_i) sigma_i^{-1})."""
    inverse = _sigma_inverse(name, label, i)
    return op_mul(name, label, _sigma_op(name, label, i, "sigma_e"), inverse)


def xi_matrix(name, label, i, weight):
    """Matrix of the Laurent xi_bar_op = xi_i / lambda_i on bare kets |m>.

    Returns its columns: {A: image} for each ket A of the source weight
    for the given word label, in tuples_with_weight order, the image being
    the apply_op result for {A: ONE}, {row tuple: coefficient} over the
    kets of the raised weight, nonzero Laurent polynomials only.
    """
    bar = xi_bar_op(name, label, i)
    return {A: apply_op(name, label, bar, {A: ONE})
            for A in tuples_with_weight(name, label, weight)}
