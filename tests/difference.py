"""The difference list f - g, which the package itself no longer builds.

diag_dist finds where two maps differ by comparing them at their merged
breakpoints (knaster._support). pl_sub is the kernel function it used
before: the canonical breakpoint list of f - g. The tests keep it as a
source of lists that leave [0, 1] and change sign, and oracle_support is
the route _support replaced: the intervals between the zero segments of
that list.
"""

from knaster_lab._kernel_py import canonical, eval_sorted, merged_xs, rsub


def pl_sub(f, g):
    """Breakpoints of f - g on the common domain."""
    xs = merged_xs(f, g)
    fv = eval_sorted(f, xs)
    gv = eval_sorted(g, xs)
    out = []
    for k in range(len(xs)):
        d = rsub(fv[k], gv[k])
        out.append((xs[k][0], xs[k][1], d[0], d[1]))
    return canonical(out)


def oracle_support(A, B):
    """The closed intervals between the maximal zero segments of A - B, in order."""
    D = pl_sub(A, B)
    out = []
    a = D[0][:2]
    for p, q in zip(D, D[1:]):
        if p[2] == 0 == q[2]:
            if p[:2] != a:
                out.append((a, p[:2]))
            a = q[:2]
    if a != D[-1][:2]:
        out.append((a, D[-1][:2]))
    return out
