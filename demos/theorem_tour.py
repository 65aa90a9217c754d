"""One weight block, both matrices, entry-by-entry agreement.

The transition matrix gamma rewrites a PBW monomial of one reduced word in
the PBW basis of the other; the intertwiner Phi maps the q-oscillator Fock
representation attached to one word onto the other's.  Computed completely
independently, the two matrices coincide.  This walks a small C2 block.
"""

from qpbw.intertwiner import PhiTable
from qpbw.pbw import transition_block
from qpbw.presets import reverse, tuples_with_weight
from qpbw.qfield import canonical_string

name = "C2"
weight = (2, 2)          # conserved pair (m2, m1)

columns = PhiTable(name).block(weight)     # {input: {output: entry}}
rows = tuples_with_weight(name, 2, weight)  # outputs, word-2 tuples
cols = tuples_with_weight(name, 1, weight)  # inputs, word-1 tuples
tb = transition_block(name, weight)

print(f"{name} block at weight {weight}: "
      f"{len(rows)} outputs x {len(cols)} inputs\n")
print("output ket      input ket       Phi == gamma")
for C in rows:
    for B in cols:
        a = columns[B].get(C)
        if a is None:
            continue
        g = tb.gamma(reverse(C), reverse(B))
        s = canonical_string(a)
        assert canonical_string(g) == s
        print(f"{str(C):15} {str(B):15} {s}")

n = sum(len(col) for col in columns.values())
print(f"\n{n} nonzero entries; every one equals its PBW counterpart.")
print("Nothing here is numeric: each value is an exact polynomial in q.")
