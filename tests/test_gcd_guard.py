"""The table path runs no polynomial gcd and makes no fraction.

The presets state each root vector as a Laurent word expression with its
divisor, Phi is solved on bare kets and gamma is normal-ordered in the
divided basis, with rules whose coefficients are Laurent polynomials, so
every quotient from building the presets through both paths is an exact
division of Laurent polynomials.  The count starts before preset() first
runs and covers both: poly_gcd calls, and RationalFunctions built with a
denominator other than 1.  It also records the type of every entry of
every block the sweeps emit and of one KetOperator image: each is a
LaurentPoly, the one normal form of an element of Z[q, q^-1].  It is
taken in a fresh interpreter, so no cache of this test session hides a
call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import qpbw

_COUNT = """
import json
import qpbw
from qpbw import cli, fock, intertwiner, pbw, presets, qfield, verify

assert presets.preset.cache_info().currsize == 0
calls, fractions = [0], [0]
gcd = qfield.poly_gcd
init = qfield.RationalFunction.__init__

def counted(a, b):
    calls[0] += 1
    return gcd(a, b)

def counted_init(self, num, den=None):
    init(self, num, den)
    if not self.den.is_one():
        fractions[0] += 1

for mod in (qfield, presets, pbw, fock, intertwiner, verify, cli):
    if mod.__dict__.get("poly_gcd") is gcd:
        mod.poly_gcd = counted
qfield.RationalFunction.__init__ = counted_init
records, entry_types = cli._records, {}

def typed_records(name, kind, block, inputs):
    for col in block.values():
        for v in col.values():
            entry_types.setdefault(kind, set()).add(type(v).__name__)
    return records(name, kind, block, inputs)

cli._records = typed_records
#RESTORE
for alg in presets.ALGEBRAS:
    presets.preset(alg)
for alg, kind, height in (("A2", "R", 8), ("C2", "K", 6), ("G2", "F", 5)):
    cli.compute_records(alg, kind, max_height=height)
    cli.compute_records(alg, "gamma", max_height=height)
image = verify.KetOperator("A2").apply(
    {(1, 2, 0, 1): qfield.qint(2), (0, 1, 1, 2): -qfield.ONE}, (2, 3, 4))
entry_types["image"] = {type(v).__name__ for v in image.values()}
print(json.dumps({"gcd_calls": calls[0], "fractions": fractions[0],
                  "entry_types": {k: sorted(v)
                                  for k, v in entry_types.items()},
                  "src": qpbw.__file__}))
"""

# C2's b_3 with its 1/[2] divided in, as the presets once stated it
_DIVIDED_C2_B3 = """
roots_c2 = presets._roots_c2

def divided_in():
    roots = list(roots_c2())
    wp, den = roots[2]
    roots[2] = (qfield.vec_scale(wp, qfield.ONE / den), qfield.ONE)
    return tuple(roots)

presets._roots_c2 = divided_in
"""


def _count(restore=""):
    src = str(Path(qpbw.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _COUNT.replace("#RESTORE", restore)],
        env=env, capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    assert Path(got["src"]).resolve() == Path(qpbw.__file__).resolve()
    return got


def test_table_path_gcd_calls_bounded():
    got = _count()
    assert got["gcd_calls"] == 0, got
    assert got["fractions"] == 0, got
    assert got["entry_types"] == {kind: ["LaurentPoly"] for kind in
                                  ("R", "K", "F", "gamma", "image")}, got


def test_guard_counts_a_divided_root_vector():
    got = _count(_DIVIDED_C2_B3)
    assert got["gcd_calls"] > 0, got
    assert got["fractions"] > 0, got
