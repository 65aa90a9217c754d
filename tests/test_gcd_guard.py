"""The table path runs no polynomial gcd.

Phi is solved on bare kets and gamma is normal-ordered in the divided
basis, with rules whose coefficients are Laurent polynomials, so every
quotient on both paths is an exact division of Laurent polynomials.  The
presets are built before the count starts: their root vectors carry 1/[2]
and 1/[3], whose normalisation runs gcds that are not the table path's.
The count is taken in a fresh interpreter, so no cache of this test
session hides a call.
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

calls = [0]
gcd = qfield.poly_gcd

def counted(a, b):
    calls[0] += 1
    return gcd(a, b)

for alg in presets.ALGEBRAS:
    presets.preset(alg)
for mod in (qfield, presets, pbw, fock, intertwiner, verify, cli):
    if mod.__dict__.get("poly_gcd") is gcd:
        mod.poly_gcd = counted
for alg, kind, height in (("A2", "R", 8), ("C2", "K", 6), ("G2", "F", 5)):
    cli.compute_records(alg, kind, max_height=height)
    cli.compute_records(alg, "gamma", max_height=height)
print(json.dumps({"gcd_calls": calls[0], "src": qpbw.__file__}))
"""


def test_table_path_gcd_calls_bounded():
    src = str(Path(qpbw.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _COUNT], env=env,
                          capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    assert Path(got["src"]).resolve() == Path(qpbw.__file__).resolve()
    assert got["gcd_calls"] == 0, got
