"""The fractional-solution check as it ran before it read the bundle
layout: one pass over the entries of x in Python floats.  The reference
rounding.check_fractional is compared with, message by message.  Entries
are read through x.keys, so none lies outside the bundle LP or uses a
P-edge as a member, and neither is checked."""

from avalloc.errors import InfeasibleFractional
from avalloc.rounding import FRACTIONAL_TOL


def scalar_check_fractional(inst, x, item_cap, member_cap):
    x = {x.keys[c]: v for c, v in x.x.items()}
    mass = {i: 0.0 for i in inst.items}
    av = {}
    for (i, j, p), v in x.items():
        fv = float(v)
        if fv < -FRACTIONAL_TOL:
            raise InfeasibleFractional(f"negative value at {(i, j, p)}")
        excess = inst.excess(i, j)
        mass[i] += fv
        av[(j, p)] = av.get((j, p), 0.0) - fv * float(excess)
        if i != p:
            cap = float(x.get((p, j, p), 0)) * float(member_cap(i))
            if fv > cap + FRACTIONAL_TOL:
                raise InfeasibleFractional(f"x[{i},{j},{p}] exceeds its opener cap")
    for i, s in mass.items():
        if s > float(item_cap(i)) + FRACTIONAL_TOL:
            raise InfeasibleFractional(f"item {i!r} mass {s} exceeds its cap")
    for bp, s in av.items():
        if s > FRACTIONAL_TOL:
            raise InfeasibleFractional(f"bundle {bp} violates its value row by {s}")
