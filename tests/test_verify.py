"""Verification suites: smoke runs at small bounds plus the plumbing.

The heavyweight acceptance bounds live in test_acceptance.py; here every
suite is exercised at sizes that keep the whole file under a minute.
"""

import re
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qpbw import cli, intertwiner, pbw, verify
from qpbw.presets import ALGEBRAS, ONE, preset, qbinom, qpow, zero_tuple
from qpbw import fock
from qpbw.qfield import (
    LaurentPoly, RationalFunction, canonical_string, poch_run, sum_products,
)

from rule_mutants import _drop_second_term, _first_times_q


# ---------------------------------------------------------------------------
# report plumbing


def test_report_lines_shape():
    r = verify.verify_tetrahedron(max_occ=1)
    assert r.passed
    lines = r.lines()
    assert len(lines) == len(r.checks)
    for ln in lines:
        assert ln.startswith("PASS tetrahedron:")


def test_failing_check_line_carries_witness():
    bad = verify.VerifyReport(
        "demo", [verify.Check("one", False, "ket (1,2)")], 0.0)
    assert not bad.passed
    assert bad.lines() == ["FAIL demo:one  [ket (1,2)]"]


# ---------------------------------------------------------------------------
# slot-base inference


def test_equation_factor_shapes():
    for eq, nfac, arity in ((verify.TETRAHEDRON, 4, {3}),
                            (verify.REFLECTION_3D, 7, {3, 4})):
        lhs, rhs = eq["sides"]
        assert len(lhs) == len(rhs) == nfac
        assert lhs == tuple(reversed(rhs))
        assert {len(slots) for _, slots in lhs} == arity
        for _, slots in lhs:
            assert all(1 <= s <= eq["slots"] for s in slots)


def test_tetrahedron_slots_all_plain():
    assigns = verify.infer_slot_bases(
        6, verify.TETRAHEDRON["sides"][0])
    assert assigns == [{s: 1 for s in range(1, 7)}]


def test_reflection_slots_unique_and_split():
    assigns = verify.infer_slot_bases(
        9, verify.REFLECTION_3D["sides"][0])
    assert len(assigns) == 1
    a = assigns[0]
    assert {s for s, d in a.items() if d == 2} == {1, 3, 7}
    assert {s for s, d in a.items() if d == 1} == {2, 4, 5, 6, 8, 9}


def test_slot_base_contradiction():
    # slot 1 is forced to q^2 by the K profile and to q by the R profile
    with pytest.raises(ValueError):
        verify.infer_slot_bases(4, (("K", (1, 2, 3, 4)), ("R", (1, 2, 3))))


def test_free_slots_fan_out():
    # an R factor on a 4-slot space leaves slot 4 unconstrained
    assigns = verify.infer_slot_bases(4, (("R", (1, 2, 3)),))
    assert len(assigns) == 1          # only base q in play
    assert assigns[0][4] == 1


# ---------------------------------------------------------------------------
# the suites at smoke size


def test_tetrahedron_smoke():
    r = verify.verify_tetrahedron(max_occ=1)
    assert r.passed
    ids = [c.check_id for c in r.checks]
    assert "vacuum-exact" in ids and "slot-bases" in ids


def test_tetrahedron_exact_mode():
    # every check is exact: the bound is met by one check, nothing sampled
    r = verify.verify_tetrahedron(max_occ=1)
    assert r.passed
    assert [c.check_id for c in r.checks] == [
        "slot-bases", "vacuum-exact", "occ1-exact"]


@pytest.mark.parametrize("occ", [0, 1, 2])
def test_tetrahedron_exact_bound_met_once(occ):
    r = verify.verify_tetrahedron(max_occ=occ)
    assert r.passed
    ids = [c.check_id for c in r.checks]
    assert ids.count(f"occ{occ}-exact") == 1


@pytest.mark.parametrize("suite,max_occ", [
    ("tetra", 1), ("reflect3d", 1), ("theorem", None), ("props", None),
    ("intertwine", 0),
])
def test_check_ids_unique_in_exact_mode(suite, max_occ):
    height = 2 if "max_height" in cli.SUITE_OPTIONS[suite] else None
    r = cli.run_suite(suite, max_height=height, max_occ=max_occ)
    ids = [c.check_id for c in r.checks]
    assert len(ids) == len(set(ids)), ids


# ---------------------------------------------------------------------------
# each equation check fails when one entry of one table column is wrong


def _scale_entry(monkeypatch, name, inp, out):
    """KetOperator reads entry (out, inp) of the named table times q."""
    column = verify.KetOperator.column

    def mutated(self, i):
        col = column(self, i)
        if self.table.name == name and i == inp:
            col = {**col, out: col[out] * qpow(1)}
        return col

    monkeypatch.setattr(verify.KetOperator, "column", mutated)


@pytest.mark.parametrize("run,name,inp,out,failed", [
    pytest.param(verify.verify_tetrahedron, "A2", (1, 1, 1), (0, 2, 0),
                 "FAIL tetrahedron:occ6-exact  [state (0, 0, 0, 2, 1, 0) -> "
                 "(0, 2, 0, 0, 1, 2): -q^7 != -q^3 + q^4 - q^8]",
                 id="tetrahedron-R"),
    pytest.param(verify.verify_3d_reflection, "C2", (1, 0, 1, 0),
                 (1, 1, 0, 1),
                 "FAIL 3d-reflection:occ3-exact  [state (0, 0, 0, 0, 0, 0, 2, "
                 "0, 0) -> (1, 1, 0, 1, 0, 0, 0, 2, 2): -q^5 - 2q^7 - 3q^9 - "
                 "3q^11 - 2q^13 - q^15 != -q^5 - 2q^7 - 2q^9 - q^10 - 2q^11 - "
                 "q^12 - q^13 - q^14 - q^16]",
                 id="3d-reflection-K"),
])
def test_equation_check_catches_one_wrong_entry(monkeypatch, run, name, inp,
                                                out, failed):
    # the column's input lies inside the occupation bound; one entry, not
    # a whole slot, is rescaled (a slot rescaling is an automorphism of A2)
    _scale_entry(monkeypatch, name, inp, out)
    assert [ln for ln in run().lines() if ln.startswith("FAIL")] == [failed]


def test_reflection_smoke():
    r = verify.verify_3d_reflection(max_occ=1)
    assert r.passed
    assert any(c.check_id == "slot5-excitation-exact" for c in r.checks)


def test_theorem_smoke():
    r = verify.verify_theorem(heights={"A2": 3}, algebras=("A2",))
    assert r.passed
    assert any(c.check_id == "A2-golden-column" for c in r.checks)


def test_properties_smoke():
    r = verify.verify_properties(heights={"C2": 2}, algebras=("C2",))
    assert r.passed
    ids = {c.check_id for c in r.checks}
    assert "C2-involution" in ids
    assert "C2-q0-delta" in ids


# ---------------------------------------------------------------------------
# key-prop: the symbolic ket against the ket sweep it replaced


def _entry_bounded_tuples(length, bound):
    return list(product(range(bound + 1), repeat=length))


def _key_prop_sweep(name, bound):
    """The key property ket by ket: [(word, i, ket)] where it fails.

    Every ket A with entries <= bound goes through fock.apply_op of
    fock.xi_bar_op and through pbw.rho_column, and each output u must
    carry entries b and c with b P(u) = (1 - q_i^2) c P(A), P the
    Pochhammer product (p_k^2; p_k^2)_{t_k} over the word's slot bases.
    """
    p = preset(name)
    bad = []
    for label in (1, 2):
        bases = [p.d[node] for node in p.word(label)]

        def P(t, bases=bases):
            out = ONE
            for m, d in zip(t, bases):
                out = out * poch_run(0, m, d)
            return out

        for i in (1, 2):
            bar = fock.xi_bar_op(name, label, i)
            scale = ONE - qpow(2 * p.d[i])
            for ket in _entry_bounded_tuples(p.length, bound):
                left = pbw.rho_column(name, label, i, ket)
                right = fock.apply_op(name, label, bar, {ket: ONE})
                if left.keys() != right.keys() or any(
                        right[u] * P(u) != scale * c * P(ket)
                        for u, c in left.items()):
                    bad.append((label, i, ket))
    return bad


@pytest.mark.parametrize("name,shifts", [("A2", 6), ("C2", 9), ("G2", 21)])
def test_key_prop_proves_what_the_sweep_shows(name, shifts):
    assert verify._key_prop_check(name) == (
        f"{name}-key-prop", True,
        f"{shifts} shift identities, all occupations")
    assert _key_prop_sweep(name, 1) == []


def _at(u, t):
    """A tuple of _Occ forms read at the integer tuple t."""
    return tuple(x.k + sum(c * v for c, v in zip(x.c, t)) for x in u)


def _equals_at(x, t, want):
    """Whether a value at the symbolic ket (a _KPoly or a constant), read
    at the integer tuple t, is want.  Both sides are cross-multiplied by
    the denominators, so no gcd runs."""
    nums = {}
    for exps, v in verify._KPoly.of(x).items():
        shifted = v.num.shift(sum(e * m for e, m in zip(exps, t)))
        nums[v.den] = nums.get(v.den, LaurentPoly()) + shifted
    num, den = LaurentPoly(), LaurentPoly({0: 1})
    for d, n in nums.items():
        num, den = num * d + n * den, den * d
    return num * want.den == want.num * den


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("letter", [1, 2])
@pytest.mark.parametrize("name", ["A2", "C2", "G2"])
def test_symbolic_rule_terms_match_integer_ones(name, letter, side):
    """Each rule's terms at the symbolic ket, read at a tuple, are its terms
    at that tuple wherever the shifted tuple is nonnegative.  This pins the
    conventions the symbolic q-integers, q-binomials and q-powers must
    keep, such as [n choose r] = 0 for 0 <= n < r."""
    p = preset(name)
    rule = (p.left_rules if side == "left" else p.right_rules)[letter]
    generic = rule(verify._symbolic_ket(p.length))
    for t in _entry_bounded_tuples(p.length, 3):
        got = [(c, _at(u, t)) for c, u in generic]
        got = [(c, u) for c, u in got if min(u) >= 0]
        want = rule(t)
        assert [u for _, u in got] == [u for _, u in want], t
        assert all(_equals_at(c, t, w)
                   for (c, _), (w, _) in zip(got, want)), t


# ---------------------------------------------------------------------------
# key-prop fails on mutated rule terms (the mutation wraps the cache, so
# the cached terms stay the true ones)


@pytest.mark.parametrize("change,witness", [
    (_drop_second_term, {"A2": "word 1 e_2 shift (-1, 1, 0)",
                         "C2": "word 1 e_2 shift (0, 0, 0, 1)",
                         "G2": "word 1 e_2 shift (0, -2, 3, 0, 0, 0)"}),
    (_first_times_q, {"A2": "word 1 e_1 shift (1, 0, 0)",
                      "C2": "word 1 e_1 shift (1, 0, 0, 0)",
                      "G2": "word 1 e_1 shift (1, 0, 0, 0, 0, 0)"}),
])
@pytest.mark.parametrize("name", ["A2", "C2", "G2"])
def test_key_prop_catches_mutated_rule(monkeypatch, change, witness, name):
    rule_terms = pbw._rule_terms
    monkeypatch.setattr(pbw, "_rule_terms",
                        lambda *key: change(rule_terms(*key)))
    check = verify._key_prop_check(name)
    assert check == (f"{name}-key-prop", False, witness[name])


def _moved_g2_right_2(rule_terms):
    """A monomial change in one table entry: in G2 B^(t) . e_2, the term at
    t + (0, 1, 0, 0, 0, -1) lands on t + (1, 0, 0, 0, 0, 0) instead."""
    src, dst = (0, 1, 0, 0, 0, -1), (1, 0, 0, 0, 0, 0)

    def terms(name, side, letter, t):
        got = rule_terms(name, side, letter, t)
        if (name, side, letter) != ("G2", "right", 2):
            return got
        u_src = tuple(x + y for x, y in zip(t, src))
        u_dst = tuple(x + y for x, y in zip(t, dst))
        return tuple((c, u_dst if u == u_src else u) for c, u in got)
    return terms


def test_checks_catch_a_moved_rule_term(monkeypatch):
    monkeypatch.setattr(pbw, "_rule_terms",
                        _moved_g2_right_2(pbw._rule_terms))
    assert verify._key_prop_check("G2") == (
        "G2-key-prop", False, "word 1 e_2 shift (-1, 0, 0, 0, 1, 0)")
    check_id, passed, witness = verify._serre_pbw_check("G2")
    assert (check_id, passed) == ("G2-serre-pbw", False)
    assert witness.startswith("pair (1, 2): residual at (1, 0, 0, 0, 0, 4) "
                              "-> -q^-9 + q^-8 - 4q^-7"), witness


# ---------------------------------------------------------------------------
# serre-fock: the operator sums against the ket sweep they replaced


def _serre_sweep(name, bound):
    """The cleared Serre sums of fock.xi_bar_op applied ket by ket.

    Every ket with entries <= bound goes through the sum with
    fock.apply_op, and the parts are combined with the signed q-binomials.
    Returns {(word, (i, j), ket): residual} for each nonzero residual.
    """
    p = preset(name)
    out = {}
    for label in (1, 2):
        for (i, j), a in sorted(p.cartan.items()):
            top = 1 - a
            bar_i = fock.xi_bar_op(name, label, i)
            bar_j = fock.xi_bar_op(name, label, j)
            col_i, col_j = {}, {}

            def step(op, vec, cache, label=label):
                for ket in vec:
                    if ket not in cache:
                        cache[ket] = fock.apply_op(name, label, op, {ket: ONE})
                return sum_products((t, v, c) for ket, c in vec.items()
                                    for t, v in cache[ket].items())

            for ket in _entry_bounded_tuples(p.length, bound):
                chain = [{ket: ONE}]
                for _ in range(top):
                    chain.append(step(bar_i, chain[-1], col_i))
                parts = []
                for r in range(top + 1):
                    vec = step(bar_j, chain[top - r], col_j)
                    for _ in range(r):
                        vec = step(bar_i, vec, col_i)
                    c = qbinom(top, r, p.d[i])
                    parts.append((-c if r % 2 else c, vec))
                residual = sum_products((t, c, v) for c, vec in parts
                                        for t, v in vec.items())
                if residual:
                    out[(label, (i, j), ket)] = residual
    return out


@pytest.mark.parametrize("name", ["A2", "C2", "G2"])
def test_serre_fock_proves_what_the_sweep_shows(name):
    assert verify._serre_fock_check(name) == (
        f"{name}-serre-fock", True, "4 operator sums vanish, all occupations")
    assert _serre_sweep(name, 1) == {}


def _mutate_word1_xi2(monkeypatch, change):
    """fock.xi_bar_op with the first term of word 1's xi_2 changed."""
    xi_bar_op = fock.xi_bar_op

    def mutated(name, word, i):
        op = xi_bar_op(name, word, i)
        if (word, i) != (1, 2):
            return op
        first = next(iter(op))
        new_key, new_coeff = change(first, op[first])
        out = {m: c for m, c in op.items() if m != first}
        assert new_key not in out
        out[new_key] = new_coeff
        return out

    monkeypatch.setattr(fock, "xi_bar_op", mutated)


def _moved_slot1_k(monos, c):
    """A monomial change: slot 1's (x, t, y) becomes (x, t + 1, y)."""
    x, t, y = monos[0]
    return ((x, t + 1, y),) + monos[1:], c


@pytest.mark.parametrize("name", ["A2", "C2", "G2"])
def test_serre_fock_catches_a_moved_monomial(monkeypatch, name):
    _mutate_word1_xi2(monkeypatch, _moved_slot1_k)
    check_id, passed, witness = verify._serre_fock_check(name)
    assert (check_id, passed) == (f"{name}-serre-fock", False)
    assert re.fullmatch(r"word 1 pair \(1,2\): \d+ canonical terms, first "
                        r"\(\(.+\)\) -> .+", witness), witness
    bad = {(label, pair) for label, pair, _ in _serre_sweep(name, 1)}
    assert bad == {(1, (1, 2)), (1, (2, 1))}


@pytest.mark.parametrize("name,shift", [("A2", (0, 0, 1)),
                                        ("C2", (0, 0, 0, 1)),
                                        ("G2", (-1, 0, 0, 0, 1, 0))])
def test_key_prop_catches_a_moved_monomial(monkeypatch, name, shift):
    """The sweep runs to entries <= 2: in G2 the moved term lowers slot 1,
    so at entries <= 1 it reaches only kets where slot 1 ends at 0, and
    there the extra k acts as 1."""
    _mutate_word1_xi2(monkeypatch, _moved_slot1_k)
    assert verify._key_prop_check(name) == (
        f"{name}-key-prop", False, f"word 1 e_2 shift {shift}")
    assert {(label, i) for label, i, _ in _key_prop_sweep(name, 2)} \
        == {(1, 2)}


@pytest.mark.parametrize("name,passed", [("A2", True), ("C2", True),
                                         ("G2", False)])
def test_serre_fock_under_a_scaled_term(monkeypatch, name, passed):
    """A scalar change: the first term of word 1's xi_2 gains a factor q.

    In A2 and C2 that term is the only one of word 1's xi_1 and xi_2 that
    changes the last slot's occupation (it raises it by one), so the change
    is the rescaling a+ -> q a+, a- -> q^-1 a- of that oscillator: an
    automorphism, under which the Serre relations still hold.  In G2 that
    term leaves the last slot alone while another raises it, so the change
    is no automorphism, and the operator check must fail.
    """
    _mutate_word1_xi2(monkeypatch, lambda monos, c: (monos, c * qpow(1)))
    assert verify._serre_fock_check(name).passed is passed


# ---------------------------------------------------------------------------
# every table, theorem and generator check fails on one wrong value, with a
# pinned witness


def _times_q(v):
    return v * qpow(1)


def _mutate_column(monkeypatch, name, inp, out, change):
    """CheckedTable.column of the named algebra, with the entry at `out` of
    column `inp` passed through `change` (None where the column has none)."""
    column = intertwiner.CheckedTable.column

    def mutated(self, in_t):
        col = column(self, in_t)
        if self.name == name and tuple(in_t) == inp:
            col = {**col, out: change(col.get(out))}
        return col

    monkeypatch.setattr(intertwiner.CheckedTable, "column", mutated)


_LENGTH_ALGEBRA = {preset(name).length: name for name in ALGEBRAS}


def _mutate_value(monkeypatch, cls, method, name, key, change):
    """cls.method(self, a, b) of the named algebra, found by the length of
    its tuples, with the value at (a, b) == key passed through `change`."""
    read = getattr(cls, method)

    def mutated(self, a, b):
        v = read(self, a, b)
        if _LENGTH_ALGEBRA[len(a)] == name and (tuple(a), tuple(b)) == key:
            v = change(v)
        return v

    monkeypatch.setattr(cls, method, mutated)


def _mutate_generator(monkeypatch, change):
    """fock.pi_generator(name, word, j, k) read as change(...) of it."""
    pi_generator = fock.pi_generator
    monkeypatch.setattr(fock, "pi_generator",
                        lambda *key: change(pi_generator, *key))


def _word2_t12_times_q(pi_generator, name, word, j, k):
    op = pi_generator(name, word, j, k)
    if (name, word, j, k) == ("A2", 2, 1, 2):
        op = {m: _times_q(c) for m, c in op.items()}
    return op


def _word1_t11_as_t1n(pi_generator, name, word, j, k):
    if (word, j, k) == (1, 1, 1):
        k = preset(name).n_gen
    return pi_generator(name, word, j, k)


def _props(name, height):
    return partial(verify.verify_properties, heights={name: height},
                   algebras=(name,))


_A2_GOLD_132 = ("1 - q^4 - 2q^6 - 2q^8 + 2q^12 + 3q^14 + 2q^16 - q^20 - q^22 "
                "- q^24")


@pytest.mark.parametrize("mutate,run,failed", [
    pytest.param(
        lambda mp: _mutate_column(mp, "A2", (1, 1, 1), (0, 2, 0), _times_q),
        _props("A2", 4),
        ["FAIL properties:A2-involution  [weight (2, 2) square[(0, 2, 0),"
         "(0, 2, 0)] = 1 - q^2 + q^3 + q^6 - q^7]",
         "FAIL properties:A2-reversal  [((0, 2, 0),(1, 1, 1)) vs reversed "
         "pair]"],
        id="A2-column"),
    pytest.param(
        lambda mp: _mutate_column(mp, "C2", (1, 0, 1, 0), (1, 1, 0, 1),
                                  _times_q),
        _props("C2", 4),
        ["FAIL properties:C2-involution  [weight (2, 2) square[(1, 1, 0, 1),"
         "(0, 2, 0, 0)] = -q^7 + q^8 + q^11 - q^12]"],
        id="C2-column"),
    pytest.param(
        lambda mp: _mutate_value(mp, intertwiner.CheckedTable, "entry", "A2",
                                 ((0, 2, 0), (1, 1, 1)), _times_q),
        _props("A2", 4),
        ["FAIL properties:A2-reversal  [((0, 2, 0),(1, 1, 1)) vs reversed "
         "pair]",
         "FAIL properties:A2-transpose-ratio  [weight (2, 2) pair "
         "((0, 2, 0),(1, 1, 1))]"],
        id="A2-entry"),
    pytest.param(
        lambda mp: _mutate_value(mp, intertwiner.CheckedTable, "entry", "C2",
                                 ((0, 2, 0, 0), (1, 0, 1, 0)),
                                 lambda v: v + ONE),
        _props("C2", 4),
        ["FAIL properties:C2-transpose-ratio  [weight (2, 2) pair "
         "((0, 2, 0, 0),(1, 0, 1, 0))]",
         "FAIL properties:C2-q0-delta  [weight (2, 2) [(0, 2, 0, 0),"
         "(1, 0, 1, 0)] -> 1, expected 0]"],
        id="C2-entry"),
    pytest.param(
        lambda mp: _mutate_value(mp, pbw.TransitionBlock, "gamma", "G2",
                                 ((0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0)),
                                 lambda v: v * qpow(-1)),
        _props("G2", 1),
        ["FAIL properties:G2-gamma-integrality  [gamma[(0, 0, 0, 0, 0, 1),"
         "(1, 0, 0, 0, 0, 0)] = q^-1]"],
        id="G2-gamma"),
    pytest.param(
        lambda mp: _mutate_value(mp, pbw.TransitionBlock, "gamma", "C2",
                                 ((1, 0, 1, 0), (0, 1, 0, 1)), _times_q),
        partial(verify.verify_theorem, heights={"C2": 3}, algebras=("C2",)),
        ["FAIL theorem:C2-blocks-h3  [weight (1, 2) out (0, 1, 0, 1) in "
         "(1, 0, 1, 0): 1 - q^2 - q^4 != q - q^3 - q^5]"],
        id="C2-gamma"),
    pytest.param(
        lambda mp: _mutate_column(mp, "A2", (3, 1, 4), (1, 3, 2), _times_q),
        partial(verify.verify_theorem, heights={"A2": 1}, algebras=("A2",)),
        ["FAIL theorem:A2-golden-column  [(1, 3, 2): q - q^5 - 2q^7 - 2q^9 "
         "+ 2q^13 + 3q^15 + 2q^17 - q^21 - q^23 - q^25 != " + _A2_GOLD_132
         + "]"],
        id="A2-golden-column"),
    pytest.param(
        lambda mp: _mutate_generator(mp, _word2_t12_times_q),
        partial(verify.verify_t_intertwining, bounds={"A2": 1},
                algebras=("A2",)),
        ["FAIL t-intertwining:A2-generators-occ1  [t_12 ket (0, 1, 0) out "
         "(1, 0, 0): 1 - q^2 != q - q^3]"],
        id="A2-t12"),
    pytest.param(
        lambda mp: _mutate_generator(mp, _word1_t11_as_t1n),
        partial(verify.verify_t_intertwining, bounds={"A2": 0},
                algebras=("A2",)),
        ["FAIL t-intertwining:A2-t-vacuum  [t_11|0> = {(0, 0, 0): 1}, "
         "t_13|0> = {(0, 0, 0): 1}]",
         "FAIL t-intertwining:A2-generators-occ0  [t_11 ket (0, 0, 0) out "
         "(0, 0, 0): 1 != 0]"],
        id="A2-t-vacuum"),
])
def test_check_fails_with_a_pinned_witness(monkeypatch, mutate, run, failed):
    mutate(monkeypatch)
    assert [ln for ln in run().lines() if ln.startswith("FAIL")] == failed


def test_off_block_entry_fails_conservation(monkeypatch):
    """A column entry outside its block is reported, not raised: the
    involution reads the stray column, and conservation names the entry."""
    _mutate_column(monkeypatch, "A2", (1, 1, 1), (5, 0, 0), lambda v: ONE)
    lines = _props("A2", 4)().lines()
    assert [ln for ln in lines if ln.startswith("FAIL")] == [
        "FAIL properties:A2-reversal  [((5, 0, 0),(1, 1, 1)) vs reversed "
        "pair]",
        "FAIL properties:A2-conservation  [nonzero entry ((5, 0, 0),"
        "(1, 1, 1)) crosses blocks]"]


def test_t_intertwining_smoke():
    r = verify.verify_t_intertwining(bounds={"A2": 1}, algebras=("A2",))
    assert r.passed


def test_t_vacuum_convention():
    # t_11 lowers (kills the vacuum); t_1n fixes it with a unit coefficient
    for name in ("A2", "C2", "G2"):
        p = preset(name)
        vac = zero_tuple(name)
        img = fock.apply_op(name, 1, fock.pi_generator(name, 1, 1, 1),
                            {vac: ONE})
        assert {t: v for t, v in img.items() if not v.num.is_zero()} == {}
        img = fock.apply_op(name, 1,
                            fock.pi_generator(name, 1, 1, p.n_gen),
                            {vac: ONE})
        assert set(img) == {vac}
        assert img[vac] * img[vac] == ONE


def test_selftest_all_pass():
    reports = verify.selftest()
    assert [r.suite for r in reports] == [
        "theorem", "properties", "tetrahedron", "3d-reflection",
        "t-intertwining"]
    assert all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# KetOperator.apply against the per-term loop it replaced


def _per_term_apply(op, vec, slots):
    """KetOperator.apply as one product and one sum per column entry."""
    pos = tuple(s - 1 for s in slots)
    out = {}
    for state, c in vec.items():
        for tup, v in op.column(tuple(state[p] for p in pos)).items():
            ns = list(state)
            for p, a in zip(pos, tup):
                ns[p] = a
            key = tuple(ns)
            cur = out.get(key)
            out[key] = v * c if cur is None else cur + v * c
    return {s: v for s, v in out.items() if not v.num.is_zero()}


# (algebra, width of the state, slots of one factor in an equation)
_FACTORS = [("A2", 6, (1, 2, 3)), ("A2", 6, (2, 4, 6)), ("A2", 9, (4, 8, 9)),
            ("A2", 6, (5, 1, 3)), ("C2", 9, (1, 2, 3, 4)),
            ("C2", 9, (3, 5, 7, 9))]
_coeffs = st.sampled_from([
    ONE, -ONE, RationalFunction(LaurentPoly({-1: 2, 3: -1})),
    RationalFunction(LaurentPoly({0: 1}), LaurentPoly({0: 1, 2: -1})),
])


@st.composite
def ket_vectors(draw):
    name, width, slots = draw(st.sampled_from(_FACTORS))
    top = 3 if name == "A2" else 2
    states = st.lists(st.integers(0, top), min_size=width, max_size=width)
    vec = draw(st.dictionaries(states.map(tuple), _coeffs,
                               min_size=1, max_size=4))
    return name, slots, vec


# a column scaled by this value has a denominator, so its terms take the
# exact path of the kernel
_SKEW = RationalFunction(LaurentPoly({1: 1}), LaurentPoly({0: 1, 2: -1}))


def _column_strings(op, vec, slots):
    """Canonical strings of every column `vec` reads, read now."""
    inps = {tuple(state[s - 1] for s in slots) for state in vec}
    return {inp: {out: canonical_string(v) for out, v in op.column(inp).items()}
            for inp in inps}


@given(ket_vectors(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_ket_apply_matches_per_term_loop(drawn, skew):
    name, slots, vec = drawn
    op = verify.KetOperator(name)
    if skew:
        state = next(iter(vec))
        inp = tuple(state[s - 1] for s in slots)
        skewed = {out: v * _SKEW for out, v in op.column(inp).items()}
        column = op.column
        op.column = lambda i, inp=inp: skewed if i == inp else column(i)
    strings = _column_strings(op, vec, slots)
    image = op.apply(vec, slots)
    assert image == _per_term_apply(op, vec, slots)
    strings.update(_column_strings(op, image, slots))
    again = op.apply(image, slots)
    # an image may hold a column's own value objects: neither apply may
    # have changed one
    for inp, col in strings.items():
        assert {out: canonical_string(v)
                for out, v in op.column(inp).items()} == col
    if not skew:
        # each checked table squares to the identity, so applying it
        # twice must cancel every other state exactly
        assert again == vec


@pytest.mark.parametrize("slots", [(1, 2), (1, 2, 3, 4), (0, 1, 2),
                                   (1, 1, 2), (5, 6, 7), [2, 3]])
def test_ket_apply_rejects_bad_slots(slots):
    op = verify.KetOperator("A2")
    with pytest.raises(ValueError, match=re.escape(str(tuple(slots)))):
        op.apply({(1, 0, 2, 0, 1, 1): ONE}, slots)


@pytest.mark.parametrize("vec,witness", [
    ({(0, 1, 0): ONE, (1, 0, 0, 0): ONE},
     "state (1, 0, 0, 0) has 4 slots, the first state 3"),
    ({(1, 0, 0, 0): ONE, (0, 1, 0): ONE},
     "state (0, 1, 0) has 3 slots, the first state 4"),
], ids=["short-first", "long-first"])
def test_ket_apply_rejects_mixed_widths(vec, witness):
    with pytest.raises(ValueError, match=re.escape(witness)):
        verify.KetOperator("A2").apply(vec, (1, 2, 3))


def test_ket_apply_rejects_a_negative_entry():
    """A state whose acted-on slots read (1, -1, 1), a tuple of the valid
    weight (0, 0), is rejected with the tuple named."""
    with pytest.raises(ValueError, match=re.escape(
            "exponent tuple (1, -1, 1) has a negative entry")):
        verify.KetOperator("A2").apply({(1, -1, 1): ONE}, (1, 2, 3))


def test_ket_operator_holds_the_tables_own_column():
    """The kernel reads the table's column dict itself, not a copy."""
    op = verify.KetOperator("A2")
    op.apply({(1, 0, 2, 0, 1, 1): ONE, (0, 1, 1, 2, 0, 0): ONE}, (1, 2, 3))
    for inp in ((1, 0, 2), (0, 1, 1)):
        assert op._columns[inp] is op.table.column(inp)
