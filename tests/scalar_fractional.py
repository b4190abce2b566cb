"""The fractional-solution check as it ran before it read the bundle
layout: one pass over the entries of x in Python floats.  The reference
rounding.check_fractional is compared with, message by message."""

from avalloc.errors import InfeasibleFractional
from avalloc.rounding import FRACTIONAL_TOL


def scalar_check_fractional(inst, x, item_cap, member_cap):
    mass = {i: 0.0 for i in inst.items}
    av = {}
    for (i, j, p), v in x.x.items():
        fv = float(v)
        if fv < -FRACTIONAL_TOL:
            raise InfeasibleFractional(f"negative value at {(i, j, p)}")
        if (i, j) not in inst.values or (p, j) not in inst.values or not inst.is_p_edge(p, j):
            raise InfeasibleFractional(f"variable {(i, j, p)} outside the bundle LP")
        excess = inst.excess(i, j)
        if i != p and excess >= 0:
            raise InfeasibleFractional(f"P-edge ({i!r}, {j!r}) used as a member")
        mass[i] += fv
        av[(j, p)] = av.get((j, p), 0.0) - fv * float(excess)
        if i != p:
            cap = float(x.x.get((p, j, p), 0)) * float(member_cap(i))
            if fv > cap + FRACTIONAL_TOL:
                raise InfeasibleFractional(f"x[{i},{j},{p}] exceeds its opener cap")
    for i, s in mass.items():
        if s > float(item_cap(i)) + FRACTIONAL_TOL:
            raise InfeasibleFractional(f"item {i!r} mass {s} exceeds its cap")
    for bp, s in av.items():
        if s > FRACTIONAL_TOL:
            raise InfeasibleFractional(f"bundle {bp} violates its value row by {s}")
