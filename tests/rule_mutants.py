"""Two wrong versions of the one-letter rules, for mutation tests.

Each takes a rule's terms ((coeff, u), ...) as pbw._rule_terms returns
them and gives the changed terms; tests wrap pbw._rule_terms with one, so
the cached terms stay the true ones.
"""

from qpbw.presets import qpow


def _drop_second_term(terms):
    """A monomial change: every rule with two or more terms loses one."""
    return terms[:1] + terms[2:]


def _first_times_q(terms):
    """A scalar change: every rule's first coefficient gains a factor q."""
    (c, u), *rest = terms
    return ((c * qpow(1), u), *rest)
