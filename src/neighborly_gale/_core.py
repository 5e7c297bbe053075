"""Depth-first diagram generation in diameter order.

A diagram with n diameters is a cyclic sequence of label pairs
d_t = (a_t, b_t) = (m_t, m_{t+n}).  In these coordinates the cofacet count
factors cleanly:

    cofacets = sum_t a_t b_t                    (complete diameters)
             + sum_{t1 < s < t2} a_t1 a_t2 b_s  (triangles, two front labels)
             + sum_{s1 < t < s2} b_s1 b_s2 a_t  (triangles, two back labels)

because an ascending position triple contains the center iff it consists of
two same-half labels with the opposite-half label strictly between their
diameter indices.  Assigning whole diameters therefore completes every
cofacet at its largest diameter index, which lets a branch-and-bound cut
reject heavy prefixes early.

The open semicircles also factor per diameter index: the semicircle clockwise
of position i sums a_{i+1..n-1} + b_{0..i-1}, and its antipodal mate sums
b_{i+1..n-1} + a_{0..i-1}.

The branch-and-bound cut gives every child (a, b) a floor on the gap
(cofacets - vertices) of the leaves below it, the gap floor.  A later front
label unit adds one vertex and closes at least xa triangles, xa being the
count right after the child, since that count only grows; a back unit
likewise closes at least xb.  A later front unit and a later back unit
close between them at least one more cofacet that neither count holds,
once the child's front and back masses SA and SB are >= 1: on one diameter
the complete pair; with the back unit first, SA triangles (a front unit of
the child, the back unit, the front unit); with the front unit first, SB
triangles (a back unit of the child, the front unit, the back unit).  The
semicircle deficits force some front and back mass, every later diameter
carries mass, and the sum cap bounds the total, so the cheapest
completion, each unit charged that least net effect, has a closed form.
With f and s the child's cofacets and vertices, dfr and dbr the front and
back mass its deficits force, rest its open diameters and fut the most mass
they may hold, F front and B back units give every leaf a gap of at least
f - s + F (xa - 1) + B (xb - 1) + F B, where F >= dfr, B >= dbr and
rest <= F + B <= fut.  Every child has SA >= 1 and SB >= 1: the search
starts below the first diameter, whose b_0 >= 1, and the adjacency floor
of every level gives a child's new front label a_{t-1} + a_t >= 1, t >= 1.
F B is at least dfr dbr, the pair term, and the least value of the linear
rest gives the gap floor: f - s + dfr (xa - 1) + dbr (xb - 1) + dfr dbr,
less fut - dfr - dbr when xa or xb is 0 (all free mass where a unit is
worth -1), and otherwise plus max(0, rest - dfr - dbr) (min(xa, xb) - 1),
on the cheaper side.  For a fixed front label a, when every child has
xa >= 1 and xb >= 1, the floor is h(b) + T(b).  h is convex and piecewise
linear with one kink: affine terms plus a maximum of affine terms with a
nonnegative weight; the pair term, dfr times the back deficit, is one of
each.  T is a product of two nonnegative factors that do not fall as b
grows, so T does not fall either.  ``front_floor`` computes the least
minimiser b_star of h in closed form once per a, and the search skips the
whole a when h(b_star) exceeds the best gap.  In the b loop, a cut at or
past b_star ends the loop: neither term falls from there on, and the best
gap never rises.  The range of b that ``front_floor`` minimises over starts
at the least b that any front label admits, so h(b_star) also floors every
later front label whose h does not fall as a grows.  It does not fall once
the front deficit is paid, or when sa <= 1; before the front label that
pays it, h is affine in a, so that label's floor bounds the rest.  When
both floors exceed the best gap, the front label loop ends.  These steps
skip only children the per-child test would cut.  When xa is 0 and
sa >= 1, the children with b >= 1 have the same form, and the child b = 0
is tested on its own.  When a unit on one side is worth -1 for every b
(the child's xb is 0, or xa and sa are both 0), the floor puts all free
mass there, and the search tests each child of that a on its own.
Before its floor, a child whose deficits force more mass than its open
diameters may hold is cut: its own deficit test would return at once.

At the ``minimal`` and ``extremal`` levels the search creates no node one
of whose labels can already be decremented: every semicircle holding it
sums to more than p = k+1 with the unassigned diameters read as 0.  Later
diameters only add semicircle mass, so the label stays decrementable in
every completion, and no leaf below the node is minimal.  With A_i and B_i
the front and back masses of diameters 0..i, let D_j = A_j - B_{j-1},
which mf maximises, and E_u = B_u - A_{u-1}, which mb maximises.  In a
prefix of t diameters with masses sa and sb, the semicircle clockwise of
front position j < t sums sa - D_j, and the one clockwise of back position
u < t sums sb - E_u; past the prefix, the one of back position u >= t
sums sa and the one of front position j >= t sums sb.  A front label a_i
lies in the semicircles of front positions j < i and back positions
u > i.  So with fa = sa - p and fb = sb - p, it can be decremented iff
a_i > 0, fa > 0, D_j < fa for every j < i and E_u < fb for every
i < u < t.  A back label b_i can iff b_i > 0, fb > 0, E_u < fb for every
u < i and D_j < fa for every i < j < t.  The maxima over j < i are the
mf and mb of depth i, mfs_i and mbs_i, which the search keeps per depth
(the maximum of no values, at i = 0, reads as minus infinity).

The parent decides this for each child (a, b) of its node at depth t
before it creates the child.  The child's prefix has masses sa + a and
sb + b and two more terms, D_t = sa + a - sb and E_t = sb + b - sa.  Its
new front label a can be decremented iff a > 0 and a > mf - fa, that is
a > max(d_front, 0) with d_front = p - sa + mf, the node's front deficit
(mf >= a_0 >= 0 for t >= 1); the back label b and d_back = p - sb + mb are
the mirror case.  So the front label loop ends at max(d_front, 0) and the
b range at max(d_back, 0).  At the last diameter the floors a >= d_front
and b >= d_back meet these ceilings.  An older front label a_i > 0, i < t,
needs E_t < sb + b - p, which reads sa > p: the node's own masses decide
it.  Given that, the child's fa + a > 0 goes without saying, D_j < fa + a
for every j < i reads a > mfs_i - fa, and E_u < fb + b for every
i < u < t reads b > max E_u - fb over those u.  So the label bars a
quadrant of children, a > x and b > y.  An older back label b_i > 0 with
sb > p bars the quadrant a > max D_j - fa over i < j < t, b > mbs_i - fb.
As i falls, mfs_i and mbs_i do not rise and the maxima over (i, t) do not
fall, so a front label's quadrant moves left and up, and a back label's
right and down.  One backward loop over i builds them all, and it ends
once the front quadrants' y reach the b ceiling and the back quadrants'
x the a ceiling, since no quadrant after that holds a child.  Their union
is a staircase: for a front label a the b range ends at the least y of
the quadrants with x < a.  That ceiling only falls as a grows, so the
ceiling at a bounds the b of every later front label too, as the front
label break and ``front_floor``'s range ask.  The quadrants and the two
ceilings are exact: a child avoids them all iff no label of its
zero-padded prefix can be decremented.  So every node the search creates
has a minimal padded prefix, and no node tests its own labels.  The leaf
reads the same: its whole cycle has no semicircle past the prefix, but the
terms fa > 0 and fb > 0 that those give follow from the others (from
sa > p for an older front label, from mf >= 0 for the new one).  So every
leaf is minimal, and the leaf runs no minimality test.

Symmetry breaking and emission keep one rule, ``diagram.least_image``: the
least of a cycle's rotations and of its reverse's, on two encodings.
Emission (``canonical_form``) applies it to the position-order label
cycle, and the emitted stream is pinned to that form.  The leaf
(``is_pair_canonical``) applies it to the code cycle C = (a_t K + b_t for
every t, then b_t K + a_t), K exceeding every label: turning the positions
by one shifts the diameters and flips the pair that wraps, so the rotations
of C and of C reversed are the 4n images of ``diagram.dihedral_orbit``
read in diameter order a_0, b_0, a_1, b_1, ...  The DFS assigns labels in that order, so its
lexicographic floors (tied rotations, pivoted reversals, a_0 <= b_0) prune
prefixes.  While every diameter so far is symmetric (a_s = b_s), the
pair-flipped image without rotation ties the identity, so the next
diameter needs a_t <= b_t.

The reversals of C are read from a pivot backwards: from c_s the view
reads c_s, ..., c_0, then f_{n-1}, f_{n-2}, ..., and from f_s it reads
f_s, ..., f_0, then c_{n-1}, c_{n-2}, ..., with c_t and f_t the codes
of (a_t, b_t) and (b_t, a_t).  Each node compares the views pivoted at its
own diameter over the prefix and cuts a child that loses there; a view
that reads the prefix back, c_s..c_0 = c_0..c_s or f_s..f_0 = c_0..c_s,
ties and is left for later.  At the last diameter, t = n - 1, such a view
next reads the last diameter where the identity reads c_{s+1}: the
c-pivot reads f_{n-1}, which floors the flipped pair (b, a) at c_{s+1},
and the f-pivot reads c_{n-1}, which floors the pair itself.  At
s = n - 2 the c-pivot's floor is f_{n-1} >= c_{n-1}, a_{n-1} <= b_{n-1},
and the f-pivot's is empty.  A child on its floor ties that view once
more, and the view goes on past the prefix, so a tie always reaches the
leaf, whose ``is_pair_canonical`` stays the definition: the floors drop
only children that lose at the code they read.  A view pivoted at s reads
c_s or f_s first, so it can lose or tie only where that code is c_0: the
search compares a reversal, as one list comparison, only where a child
reads c_0, and passes the child whether its two pivots read the prefix
back.  Their floors on the last diameter run down the DFS as two ints, q1
on the code and q2 on the flipped code, so a node keeps this state in
constant time.  (Sawada's bracelet generation keeps the same reversal
comparison running as the prefix grows: "Generating bracelets in constant
amortized time", SIAM J. Comput. 31(1), 2001.)
Likewise, when the last diameter's code is c_0, the rotation that starts
there reads f_0, f_1, ... where the identity reads c_1, c_2, ..., which
the search compares per depth (the first difference, or 0).  Only the
prefix can put it below, and then the pivot floors drop that diameter: up
to the first difference, at c_s, c_j alternates c_0, f_0, ..., so the
c-pivot (odd s) or f-pivot (even s) at s - 1 floors it above c_0.

Of the rotations still tied with the identity, the one that starts first
sets the largest floor, so a node keeps one int per family: p0, the least
j >= 1 whose rotation reads c_j..c_{t-1} = c_0..c_{t-1-j}, and p1, the
least j >= 1 whose rotation reads f_j..f_{t-1} = c_0..c_{t-1-j}, each 0
when there is none.  They floor the code and the flipped code at
c_{t-p0} and c_{t-p1}, and at c_0 when 0, for the rotation that starts
at t.  The pair-flipped image without rotation (j = 0), which ties while
every diameter so far is symmetric, is the flag sym.  Take tied rotations
j < j' of one family.  From its (j' - j)th code on, rotation j reads what
rotation j' reads from its start, and both read the identity, so
c_{j'-j}..c_{t-1-j} = c_0..c_{t-1-j'}: rotation j' - j of the code ties
through c_{t-1-j}, and the floor it set on c_{t-j}, which the search
applied there, gives c_{t-j} >= c_{t-j'}.  So a child above the least j's
floor reads above every tied rotation of that family: all of them end, and
none starts at t, since c_0 <= c_{t-j}.  A child on the floor keeps the
least j, or, when none is tied, starts one at t.  The argument needs the
floors of every earlier depth, so it holds on the prefixes the search
reaches from the root.  (The necklace generator of Ruskey, Savage and
Wang keeps the same one int, the prenecklace's least period p, and floors
the next symbol at a_{t-p}: "Generating necklaces", J. Algorithms 13,
1992.)

Conversely, a leaf whose last diameter ties no floor is canonical, so the
leaf runs ``is_pair_canonical`` only on a tied one.  Let r1 and r2 be the
final floors on the last pair's code and flipped code.  Every rotation
still tied with the identity, and every f-pivot that reads the prefix
back, floors the code at r1; every rotation tied after the pair flip, and
every c-pivot that reads the prefix back, floors the flipped code at r2.
Each of them reads the last diameter where the identity reads an earlier
code, so a child with code > r1 and flipped code > r2 reads above the
identity in each.  The rotation and the two pivots that start at the last
diameter read its code or flipped code first, where the identity reads
c_0 <= r1, r2: they read above it, or they start at c_0 and force
code == r1 or flipped code == r2.  The flip, which stays tied while every
diameter so far is symmetric, and the pivots at s = n - 2 read all n codes
of the identity when they tie at the last diameter, so a tie there is an
equality of whole cycles, not a win.  Every other view read above the
identity in the prefix, where the search cut each one that read below.  So
with code > r1 and flipped code > r2 every view of the cycle reads above
or equal to the identity.  (Necklace and bracelet generators likewise
decide a leaf from the state kept during generation: Cattell, Ruskey,
Sawada, Serra, Miers, "Fast algorithms to generate necklaces, unlabeled
necklaces, and irreducible polynomials over GF(2)", J. Algorithms 37(2),
2000, and Sawada's bracelets above.)

A child's room charges its r >= 1 open diameters their least mass, which
with a_0 = 0 exceeds one unit each in three ways.  Every diameter's code
and flipped code are at least c_0 = (0, b_0), since a smaller one would
start a smaller rotation, so with b_0 >= 2 each open diameter carries two
units.  P3 across the half boundary asks b_{n-1} >= 1.  With exactly one
unit each the open diameters alternate sides: two front units in a row
leave two adjacent back labels at 0, and two back units two adjacent
front labels.  After a child with a = 0 the first unit is on the front,
after one with b = 0 on the back, so the last unit lands on the back only
when r is even after a = 0 and odd after b = 0; otherwise they need
r + 1 units.  A child with both labels positive can start on either side.
And when the prefix through the child reads f_0, f_1, ... below
c_1, c_2, ..., the last diameter is not c_0, so its code exceeds c_0 and,
with b_{n-1} >= 1, it carries two units: r + 1 again.  A last diameter
(1, 1) pays both units at once, so the charges combine as a maximum: 2r
when b_0 >= 2, else r + 1 when either unit is due, else r.  None of them
falls as r grows, so the room at the node's least open count decides
every count, and the same least masses lower the root's largest count.
P3's unit is charged where adjacent positions need mass 1, not at
``extremal``; the code floors and b_{n-1} >= 1 hold at every level.

One shard searches a run of diameter counts n..n_last as one tree.  A
prefix of t diameters is one node for every count above t that can still
complete it, and the node carries the least and the largest such count, lo
and hi.  Each test that depends on the count narrows that range where the
single-count search would return, in the direction its monotonicity
allows.  For a child with r = n - t - 1 diameters after it, the gap floor
does not fall as r grows when the child's xa and xb are both >= 1, which
lowers the child's hi; otherwise it falls with the child's mass cap
min(room, 2 label_cap r), which does not fall as r grows, and so it raises
the child's lo (``floor_rests`` gives both ends).  A node whose lo is t + 1
drops that count when one of the two semicircles that avoid its diameter
t, which sum sa and sb, is below p; otherwise it first searches that count
alone, where this diameter is the last and has its own floors, then the
counts above it.  ``front_floor``'s h does not depend on the count, and a
front label's b range is widest at the least open count, so the per-a skip
and the front label break, taken there, hold at every open count.  A
child's counts come only from ``floor_rests``, lo and hi, so an empty
range means the floor cut every open count.  The b loop ends at such a cut
at or past b_star: from there, at a fixed count, h (its pair term
included) and T do not fall as b grows and fut only falls, so the floor
never falls and every later b is cut too.  A leaf of any count lowers the
bound for all of them.  The deficits never raise lo: under the search's
label caps they fit the open diameters at every count.  No deficit
exceeds p, the label cap of every tree of more than one count, at every
level.  The one-count stream shards at ``extremal`` have the smaller cap
c = k + 4 - n (odd n) or k + 5 - n (even n), which their deficits fit
too.  At depth t, the part of a semicircle inside the prefix is t - 1
positions in two runs, so the adjacency-pair count of the ``search``
module docstring leaves it at least t - 3, and t - 2 for even t.  With
r = n - t open diameters, a deficit is then at most c + r, and at most
c + r - 1 for odd r, while r diameters hold r c: enough, as every count
of ``extremal``'s range has c >= 2.  Nor does a node clip hi: a count
past its sum cap and least masses leaves no child room past its floors,
and ``floor_rests`` keeps every child's lo within them.

A shard can start below the root and stop early, which splits one tree
into pieces.  A piece carries its node's state: the path of its diameters,
and the running values that the search passes down to the node (cofacets,
vertices, masses, triangle counts, worst prefix differences, least tied
rotations, pivot floors and flags), worked out once, where the search
creates the child.  The search starts there with the counts the node had
open, and the path fills only the per-depth arrays.  The root starts each
first diameter (a_0, b_0) from its trivial state.  So a path and state
must be ones the search handed back: the floors above hold only on the
prefixes it reaches from the root.  The path's own nodes are not searched
again, so none of them is counted twice, and no leaf of a count that ends
on the path, which the self-call above evaluates, is evaluated twice.
With a node budget, once the shard has counted that many nodes, each
child it would recurse into is recorded, with its path, state, counts and
the bound it passed its cuts at, instead of searched; the leaves of the
loops already running are still evaluated.  The subtrees are
recorded in depth-first order, after every leaf the shard has evaluated, so
without a bound the shard and its subtrees, searched in that order, evaluate
the tree's leaves in the tree's own order.  Under a fixed bound the shard
and the recorded subtrees hold exactly the tree's nodes and leaves.  A
recorded subtree keeps its bound, which a leaf found later in another
piece does not tighten: it may search nodes that the whole tree would have
cut, and it keeps every leaf within the final bound.

The minimality ceilings and staircase do not depend on the count.  The
semicircles holding a positive label at front position i < t start at
front positions 0..i-1 and back positions i+1..n-1.  Those that start
inside the prefix sum sa - D_j and sb - E_u, which involve only assigned
labels.  Those that start at back positions u >= t, at least one for
every count n > t, all sum sa.  Padding the prefix to any n > t only
repeats sa (sb for a back label) among those sums, so the terms fa > 0
and fb > 0, and whether the label can be decremented, stay the same.
"""
from __future__ import annotations

from typing import NamedTuple

from .diagram import GaleDiagram, least_image
from .errors import CounterexampleError, ParameterError


def is_pair_canonical(cycle: list[int]) -> bool:
    """Is the code cycle C least among its rotations and those of its reverse?

    That is ``diagram.least_image``'s rule, read on the code cycle.
    """
    return least_image(cycle) == cycle


def floor_rests(
    f: int, s: int, xa: int, xb: int, dfr: int, dbr: int, fut: int, two_cap: int, bound: int
) -> tuple[int, int]:
    """Least and largest count r of open diameters at which the gap floor <= ``bound``.

    The state is that of the gap floor (module docstring), with the pair
    term dfr dbr in ``f`` and ``fut`` the most mass the child leaves room
    for: r open diameters need at least r and hold at most
    min(fut, two_cap r), so r runs over 0..fut and that cap is the most
    mass the floor lets them hold.  When xa and xb are both
    >= 1 the floor ignores the cap and does not fall as r grows, so the
    kept r run from 0 up.  Otherwise the floor falls by one per unit of the
    cap, which does not fall as r grows, so the kept r run up to fut.  An
    empty range (lo > hi) means no r is kept.
    """
    floor = f - s + dfr * (xa - 1) + dbr * (xb - 1)
    if xa == 0 or xb == 0:
        # floor - (min(fut, two_cap r) - dfr - dbr) <= bound
        q = floor + dfr + dbr - bound
        if q > fut:
            return 1, 0
        return (-(-q // two_cap) if q > 0 else 0), fut
    if floor > bound:
        return 1, 0
    m = (xa if xa < xb else xb) - 1  # the cheaper side's net charge per unit
    if m == 0:
        return 0, fut
    r = dfr + dbr + (bound - floor) // m
    return 0, r if r < fut else fut


def front_floor(
    f: int, s: int, sa: int, sb: int, xa: int, xb: int, mf: int, mb: int,
    p: int, a: int, lo: int, hi: int, bound: int,
) -> tuple[int, int, bool]:
    """Least convex part h of the gap floor over the children (a, b), lo <= b <= hi.

    The node's state is that of the gap floor (module docstring) before the
    child: ``f`` and ``s`` its cofacets and vertices, ``sa`` and ``sb`` its
    front and back masses, ``xa`` and ``xb`` its triangle counts, and
    p - sa + mf and p - sb + mb its worst front and back deficits, p being
    k+1.  Where the child's nxa = xa + sa b and nxb = xb + a sb are both
    >= 1, its floor is h(b) + T(b), with the child's deficits
    dfr = max(p - sa - a + mf, p - sb, 0) and dbr = e0 + max(0, kink - b),
    and w = nxb - 1 + dfr, what each unit of dbr costs with the pair term
    dfr dbr:

        h(b) = f + a xa - s - a + dfr (xa - 1) + e0 w + slope b
               + w max(0, kink - b),   slope = a + xb - 1 + dfr sa,
        T(b) = max(0, rest - dfr - dbr) min(nxa - 1, nxb - 1) >= 0.

    h is convex with its one kink at b = kink (slope - w left of it, slope
    right of it), and T does not fall as b grows: dbr does not rise and
    nxa does not fall.  So no child beats h(b_star) at the least minimiser
    b_star, and the floor does not fall past b_star.  The caller ensures
    nxb >= 1, so a >= 1 or xb >= 1 (also at a_paid > a below), and
    slope >= 0: h never falls right of the kink, and b_star is lo, the kink
    or hi.  It also gives sb >= 1, since xb is 0 when sb is.

    Returns (h(b_star), b_star, ends).  ``ends`` says that every child
    (a', b) with a' >= a and lo <= b <= hi has a floor above ``bound``.
    Such a child has nxa >= xa and nxb >= xb + a sb, so with xa >= 1 it has
    the h + T form, and it is enough that h_a'(b) > bound.  Each unit of a
    changes h(b) by
        (1 - delta)(xa - 1) + e0 (sb - delta) + b (1 - delta sa)
        + (sb - delta) max(0, kink - b),
    delta in {0, 1} being the fall of dfr, which w follows.  Once the front
    deficit is paid (from a_paid = p - sa + mf - max(p - sb, 0) on) delta is
    0 and the step is >= 0; so is it when sa <= 1, as sb >= 1.  Before
    a_paid, delta is 1 and the step does not depend on a, so h_a'(b) is
    affine in a' there and at least min(h_a(b), h_a_paid(b)).  Hence
    h_a(b_star) > bound ends the front label loop when sa <= 1 or
    a >= a_paid, and otherwise when h_a_paid, at its own least minimiser,
    also exceeds the bound.
    """
    e0 = p - sa if p > sa else 0
    kink = p - sb + mb - e0
    paid = p - sb if p > sb else 0
    dfr = p - sa - a + mf
    if dfr < paid:
        dfr = paid
    w = xb + a * sb - 1 + dfr
    slope = a + xb - 1 + dfr * sa
    if slope >= w or kink <= lo:
        b = lo
    elif kink < hi:
        b = kink
    else:
        b = hi
    d = kink - b
    h = f + a * xa - s - a + dfr * (xa - 1) + e0 * w + slope * b + (w * d if d > 0 else 0)
    if h <= bound or not xa:
        return h, b, False
    a_paid = p - sa + mf - paid
    if sa <= 1 or a >= a_paid:
        return h, b, True
    return h, b, front_floor(f, s, sa, sb, xa, xb, mf, mb, p, a_paid, lo, hi, bound)[2]


class ShardResult(NamedTuple):
    """Outcome of one shard: every leaf it evaluated, with the search effort.

    ``n`` is the least diameter count of the shard.  ``leaves`` holds
    (labels, cofacets, vertices) per evaluated leaf, labels being the front
    labels followed by the back labels, so a leaf has len(labels) // 2
    diameters; ``evaluated`` is their number.
    """

    n: int
    first_a: int
    leaves: list[tuple[tuple[int, ...], int, int]]
    nodes: int
    evaluated: int


def run_shard(
    k: int,
    n: int,
    first_a: int,
    level: str,
    sum_cap: int,
    label_cap: int,
    bound: int | None,
    n_last: int | None = None,
    path: tuple[int, ...] = (),
    state: tuple = (),
    budget: int | None = None,
    opened: list | None = None,
) -> ShardResult:
    """Search the branch where the first diameter's front label is ``first_a``.

    The branch holds every diameter count from ``n`` to ``n_last`` (default
    ``n``), searched as one tree: each node carries the counts still open.
    With ``bound`` None every leaf of the branch is evaluated.  An int bound
    turns on the branch-and-bound cut: subtrees whose every leaf has a gap
    (cofacets - vertices) above the bound are skipped, and an evaluated leaf
    with a smaller gap lowers the bound to it, for every count.  Leaves
    whose gap is at most the final bound are never cut.  Leaves are
    evaluated in the loop of the last diameter, which must follow diameter
    0, so ``n`` must be >= 2.

    ``path``, the labels of a prefix of diameters starting with ``first_a``
    (front labels, then back labels, as in a leaf), and ``state``, the 16
    running values of its node, search only the subtree of that node, with
    ``n`` and ``n_last`` the counts it has open; the path's own nodes are
    not searched again.  With a ``budget`` of nodes, every child that the
    search would recurse into once it has counted that many nodes is
    appended to ``opened`` instead, as the ``run_shard`` arguments of its
    subtree: its counts, the bound it passed its cuts at, its path and its
    state.  A path and state must be ones the search handed back, as every
    piece's are: the state is not checked against the path, and only on a
    prefix the search reaches from the root does the least tied rotation
    set the largest floor and the leaf skip exactly the canonicality checks
    that would pass.  See the module docstring.
    """
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if n_last is None:
        n_last = n
    elif n_last < n:
        raise ParameterError(f"n_last must be >= n = {n}, got {n_last}")
    depth = len(path) // 2
    if path and (len(path) % 2 or path[0] != first_a or n <= depth):
        raise ParameterError(f"path {path} must start at a0 = {first_a}, below count n = {n}")
    if len(state) != (16 if path else 0):
        raise ParameterError(f"a path needs its node's 16 running values, the root none: {state}")
    if budget is None:
        budget = 1 << 62  # never spent
    elif opened is None:
        raise ParameterError("a node budget needs an opened list")
    p = k + 1
    want_minimal = level in ("minimal", "extremal")
    adj = 2 if level == "extremal" else 1  # least mass of two adjacent positions

    # at depth t no read goes past diameter t, and diameter t is read only
    # once the b loop has set it, so the arrays keep stale entries from t on
    av = [0] * n_last  # front labels a_t
    bv = [0] * n_last  # back labels b_t
    codes = [0] * n_last  # (a, b) encoded as a * K + b for fast lexicographic compares
    fcodes = [0] * n_last  # the flipped pair (b, a) encoded as b * K + a
    K = label_cap + 1
    two_cap = 2 * label_cap  # the most mass one open diameter holds
    empty = -1 << 62  # the maximum of no values
    mfs = [empty] * n_last  # the mf and mb of each depth, for the minimality staircase
    mbs = [empty] * n_last

    best = bound
    leaves: list[tuple[tuple[int, ...], int, int]] = []
    nodes = 0

    def leaf(m: int, f_run: int, s_run: int, tied: bool) -> None:
        nonlocal nodes, best
        nodes += 1
        # the b loop of diameter m-1 calls this with every label of an
        # m-diameter cycle set; adjacency, semicircle mass and minimality
        # are already settled by its floors and ceilings, and canonicality
        # needs the whole cycle.  A leaf whose last diameter ties no floor
        # (not ``tied``) has every view of its cycle above or equal to the
        # identity (module docstring), so only a tied one is checked
        if tied and not is_pair_canonical(
            codes + fcodes if m == n_last else codes[:m] + fcodes[:m]
        ):
            return
        # a shorter count of the run: its diameters come first
        labels = tuple(av + bv) if m == n_last else tuple(av[:m] + bv[:m])
        gap = f_run - s_run
        if gap < 0:
            raise CounterexampleError(GaleDiagram(n=m, labels=labels), f_run, s_run)
        leaves.append((labels, f_run, s_run))
        if best is not None and gap < best:
            best = gap

    def dfs(
        t: int,
        lo: int,  # the least and the largest diameter count still open
        hi: int,
        s_run: int,
        f_run: int,
        sa: int,
        sb: int,
        xa: int,  # sum over assigned s of b_s * (front prefix before s)
        xb: int,  # sum over assigned s of a_s * (back prefix before s)
        mf: int,  # max over i < t of (front prefix through i) - (back prefix before i)
        mb: int,
        # the least j >= 1 whose rotation still ties the identity (p0), or
        # ties it after the pair flip (p1), or 0; the least tied j sets the
        # largest floor (module docstring)
        p0: int,
        p1: int,
        sym: bool,  # every diameter so far is symmetric, a_s = b_s
        # the first difference f_{s-1} - c_s over s < t, or 0: whether
        # f_0..f_{t-2} reads below, like or above c_1..c_{t-1}
        rot: int,
        # the most c_{s+1} over s <= t - 2 whose f-pivot (q1, a floor on the
        # last code) or c-pivot (q2, on its flipped code) reads the prefix back
        q1: int,
        q2: int,
        cp: bool,  # the c-pivot at t - 1 reads it back, c_{t-1}..c_0 = c_0..c_{t-1}
        fp: bool,  # the f-pivot at t - 1 does, f_{t-1}..f_0 = c_0..c_{t-1}
    ) -> None:
        nonlocal nodes
        if lo == t + 1 and (sa < p or sb < p):
            # count t + 1 would end with this diameter, but the two
            # semicircles that avoid it are settled below p
            lo += 1
        if hi > lo and lo == t + 1:
            # count t + 1 ends with this diameter, and its children are
            # leaves: search it on its own, which counts this node, then the
            # counts above it, which share every child
            dfs(t, lo, lo, s_run, f_run, sa, sb, xa, xb, mf, mb, p0, p1, sym, rot,
                q1, q2, cp, fp)
            lo += 1
        else:
            nodes += 1
        # worst semicircle deficits, which only later front (back) labels pay
        d_front = p - sa + mf
        d_back = p - sb + mb
        df = d_front if d_front > 0 else 0
        db = d_back if d_back > 0 else 0
        if df + db > sum_cap - s_run or lo > hi:
            return
        a_top = b_top = label_cap  # the largest front and back label of a child
        stair = ()  # no older label bars a child
        if want_minimal:
            # a new front label above max(d_front, 0) can already be
            # decremented in every completion; so can b above max(d_back, 0).
            # Never create such a child (module docstring)
            a_top = df if df < label_cap else label_cap
            b_top = db if db < label_cap else label_cap
            mfs[t] = mf
            mbs[t] = mb
            if sa > p or sb > p:
                # an older front label a_i > 0 can be decremented in child
                # (a, b) iff fa > 0 (the child's E_t < fb + b), a > mfs[i] - fa
                # and b > max E_u - fb over i < u < t; a back label b_i > 0
                # iff fb > 0, b > mbs[i] - fb and a > max D_j - fa over
                # i < j < t.  Each bars a quadrant (x, y) of children a > x,
                # b > y.  As i falls, the maxima over (i, t) only rise, so
                # once the front quadrants' y reach b_top and the back ones'
                # x reach a_top, no later one holds a child (module docstring)
                fa = sa - p  # the semicircles past the prefix sum sa and sb
                fb = sb - p
                me_top = fb + b_top if fa > 0 else empty
                md_top = fa + a_top if fb > 0 else empty
                stair = []
                md = me = empty  # the maxima of D_j and E_j over i < j < t
                x = sa - sb  # A_i - B_i
                for i in range(t - 1, -1, -1):
                    a = av[i]
                    b = bv[i]
                    if a and me < me_top:
                        stair.append((mfs[i] - fa, me - fb))
                    if b and md < md_top:
                        stair.append((md - fa, mbs[i] - fb))
                    d = x + b  # D_i = A_i - B_{i-1}
                    if d > md:
                        md = d
                    d = a - x  # E_i = B_i - A_{i-1}
                    if d > me:
                        me = d
                    if md >= md_top and me >= me_top:
                        break  # no label before i bars a child
                    x -= a - b

        d0c = codes[0]
        # a_t follows a_{t-1} and b_t follows b_{t-1} around the polygon
        a_lo = adj - av[t - 1] if av[t - 1] < adj else 0
        b_base = adj - bv[t - 1] if bv[t - 1] < adj else 0
        # every later diameter carries at least 1: child (a, b) leaves room
        # for the counts up to top - a - b; hi needs no clip (module docstring)
        top = sum_cap + t + 1 - s_run
        last = lo == t + 1  # then hi == lo: this diameter is the last
        if last:
            # the two semicircles that avoid the last diameter reach p (see
            # the top), and the rest get no mass after it: these floors bring them to p
            if d_front > a_lo:
                a_lo = d_front
            if d_back > b_base:
                b_base = d_back
            # a_{n-1} precedes b_0 across the half boundary; b_{n-1} precedes a_0
            # and the c-pivot at 0 floors it at a_1 >= adj - a_0 (n = 2: flip)
            if adj - bv[0] > a_lo:
                a_lo = adj - bv[0]

        # lexicographic floors from rotations still tied with the identity;
        # the rotation that starts here reads c_t against c_0
        r1 = codes[t - p0] if p0 else d0c
        r2 = codes[t - p1] if p1 else d0c
        # while every diameter so far is symmetric the pair-flipped image
        # ties the identity, and (a_t, b_t) <= (b_t, a_t) asks a_t <= b_t
        flip = sym
        # the units the diameters after a child need beyond one each: more
        # after every child, and one after child a = 0 (unit_a), b = 0
        # (unit_b) or a child whose code passes (pa, pb)
        more = unit_a = unit_b = 0
        pa = pb = K  # no label passes
        if last:
            # a reversal pivoted at s < t that reads the prefix back next reads
            # the last diameter where the identity reads c_{s+1}: f_t after
            # c_s..c_0, c_t after f_s..f_0 (module docstring).  q1 and q2 hold
            # those floors for s <= t - 2; at s = t - 1 the c-pivot asks
            # f_t >= c_t, a_t <= b_t, and the f-pivot nothing
            if q1 > r1:
                r1 = q1
            if q2 > r2:
                r2 = q2
            if cp:
                flip = True
        elif not av[0]:
            # the least mass of the r >= 1 diameters after a child, at the
            # least open count: it does not fall as r grows (module docstring)
            r = lo - t - 1
            if bv[0] > 1:
                more = r  # every code and flipped code >= c_0 = (0, b_0)
            elif rot < 0:
                more = 1  # the last diameter is not c_0, and b_{n-1} >= 1
            else:
                if not rot:
                    # a child with c_t > f_{t-1} decides that it is not
                    pa, pb = divmod(fcodes[t - 1], K)
                if adj == 1:
                    # b_{n-1} precedes a_0 = 0, so b_{n-1} >= 1.  With one
                    # unit each, the diameters after a child alternate
                    # sides from the one opposite the child's zero label,
                    # and end on the back only when r is even after a = 0
                    # and odd after b = 0
                    if r % 2:
                        unit_a = 1
                    else:
                        unit_b = 1

        ra1, rb1 = divmod(r1, K)
        ra2, rb2 = divmod(r2, K)
        c_lo = lo  # each child's open counts; the cut narrows them per child
        c_hi = hi
        if best is not None:
            # the back deficit left after child (a, b) is e0 + max(0, kink - b)
            e0 = p - sa if p > sa else 0
            kink = p - sb + mb - e0
            # every child has b >= b_base and, from the flipped pair floor
            # below, b >= ra2, whatever its front label
            lo_later = b_base if b_base > ra2 else ra2

        # a rotation tied with the identity floors a at ra1.  The b range is
        # widest at the least open count, so the per-a floor and the front
        # label break, taken there, hold for every open count.
        for a in range(a_lo if a_lo > ra1 else ra1, a_top + 1):
            room = top - a - lo - more
            edge = 0  # the child b = room needs one unit more
            if not more:
                if a > pa or a == 0 and unit_a:
                    room -= 1
                elif room == 0 and unit_b or a == pa and room > pb:
                    edge = 1
            if room < 0:
                break
            # r1 >= c_0, so a = 0 only with ra1 = 0 and b >= rb1 >= b_0 >= 1
            b_lo = b_base
            if a == ra1 and rb1 > b_lo:
                b_lo = rb1
            # flipped pair (b, a) must not drop below r2
            if a >= rb2:
                if ra2 > b_lo:
                    b_lo = ra2
            elif ra2 + 1 > b_lo:
                b_lo = ra2 + 1
            if flip and a > b_lo:
                b_lo = a
            b_cap = b_top if b_top < room - edge else room - edge
            if stair:
                # the older labels that bar this a; their least y only falls
                # as a grows, so b_cap stays a ceiling for every later a
                for x, y in stair:
                    if a > x and y < b_cap:
                        b_cap = y
            if b_lo > b_cap:
                continue
            f_a = f_run + a * xa  # a closes front-front-back triangles
            nxb = xb + a * sb
            if best is not None:
                if nxb and (xa or sa and b_cap):
                    # children with b >= 1, and with every b when xa >= 1,
                    # have nxa and nxb >= 1 and the floor h + T of
                    # front_floor; its range starts at lo_later so that the
                    # floor also serves the later front labels
                    h, b_star, ends = front_floor(
                        f_run, s_run, sa, sb, xa, xb, mf, mb, p, a,
                        lo_later if xa or lo_later else 1, b_cap, best,
                    )
                    if ends:
                        break  # every b of this and every later a is cut
                    if h > best:
                        if b_lo or xa:
                            continue  # every b is cut
                        b_cap = 0  # every b >= 1 is cut; b = 0 is tested alone
                    # b_star may lie below b_lo; the b loop still ends at
                    # its first cut, where the floor no longer falls
                else:
                    b_star = b_cap + 1  # some unit is worth -1: test every child
                # the front deficit left after the child does not depend on b
                dfr = p - sa - a + mf
                if dfr < p - sb:
                    dfr = p - sb
                if dfr < 0:
                    dfr = 0
            for b in range(b_lo, b_cap + 1):
                code = a * K + b
                fcode = b * K + a
                # the reversals pivoted at t read c_t (f_t) first, so only a
                # child whose code (flipped code) is c_0 can lose or tie
                # there, at the first difference of c_{t-1}..c_1 (f_{t-1}..f_0)
                # from c_1..c_{t-1} (c_1..c_t); rv0 (rv1) says they tie
                if code == d0c:
                    view = codes[t - 1 : 0 : -1]
                    ident = codes[1:t]
                    if view < ident:
                        continue
                    rv0 = view == ident
                if fcode == d0c:
                    view = fcodes[t - 1 :: -1]
                    ident = codes[1:t]
                    ident.append(code)
                    if view < ident:
                        continue
                    rv1 = view == ident
                f_child = f_a + a * b + b * xb
                s_child = s_run + a + b
                nxa = xa + b * sa
                if best is not None:
                    d = kink - b
                    dbr = e0 + d if d > 0 else e0
                    need = dfr + dbr
                    fut = sum_cap - s_child
                    if need > fut:
                        continue  # the child's deficit test returns at every count
                    # every later (front, back) unit pair closes one cofacet
                    # more: the pair term joins the child's cofacets
                    r_lo, r_hi = floor_rests(
                        f_child + dfr * dbr, s_child, nxa, nxb, dfr, dbr, fut, two_cap, best
                    )
                    c_lo = t + 1 + r_lo
                    if c_lo < lo:
                        c_lo = lo
                    c_hi = t + 1 + r_hi
                    if c_hi > hi:
                        c_hi = hi
                    if c_lo > c_hi:
                        # the floor cut every open count; past b_star it
                        # never falls with b at any count and best never
                        # rises, so every later b is cut too
                        if b >= b_star:
                            break
                        continue
                av[t] = a
                bv[t] = b
                codes[t] = code
                fcodes[t] = fcode
                if last:
                    leaf(lo, f_child, s_child, code == r1 or fcode == r2)
                    continue
                # the child's running values, for its subtree here or in a
                # piece.  A child on the floor r1 keeps the least tied
                # rotation, or starts one at t when none is tied; above it,
                # every tied rotation dies and none starts (so for r2).  The
                # pivots at t - 1 that read the prefix back floor the last
                # diameter at this child's code; the child's own pivots at t
                # read it back when they start at c_0 and tie (rv0, rv1)
                saa = sa + a
                sbb = sb + b
                nmf = mf if mf >= saa - sb else saa - sb
                nmb = mb if mb >= sbb - sa else sbb - sa
                np0 = (p0 or t) if code == r1 else 0
                np1 = (p1 or t) if fcode == r2 else 0
                nsym = sym and a == b
                nrot = rot or fcodes[t - 1] - code
                nq1 = code if fp and code > q1 else q1
                nq2 = code if cp and code > q2 else q2
                ncp = code == d0c and rv0
                nfp = fcode == d0c and rv1
                if nodes >= budget:
                    # spent: hand the child's subtree back with its counts and state
                    opened.append((
                        k, c_lo, first_a, level, sum_cap, label_cap, best, c_hi,
                        tuple(av[: t + 1] + bv[: t + 1]),
                        (s_child, f_child, saa, sbb, nxa, nxb, nmf, nmb,
                         np0, np1, nsym, nrot, nq1, nq2, ncp, nfp),
                    ))
                    continue
                dfs(t + 1, c_lo, c_hi, s_child, f_child, saa, sbb, nxa, nxb, nmf, nmb,
                    np0, np1, nsym, nrot, nq1, nq2, ncp, nfp)

    def enter(path: tuple[int, ...], lo: int, hi: int, state: tuple) -> None:
        # search the subtree of the node that the path leads to, from the
        # running values the search handed back with it; the path fills the
        # per-depth arrays of the diameters before it
        depth = len(path) // 2
        x = 0  # A_{t-1} - B_{t-1}
        for t in range(depth):
            a = av[t] = path[t]
            b = bv[t] = path[depth + t]
            codes[t] = a * K + b
            fcodes[t] = b * K + a
            mfs[t + 1] = max(mfs[t], x + a)  # D_t = A_t - B_{t-1}
            mbs[t + 1] = max(mbs[t], b - x)  # E_t = B_t - A_{t-1}
            x += a - b
        dfs(depth, lo, hi, *state)

    if path:
        enter(path, n, n_last, state)
    else:
        # at t = 0 the pair-flipped view forces a_0 <= b_0; the shard fixes a_0
        a0 = first_a
        for b0 in range(a0 if a0 > 0 else 1, label_cap + 1):
            # every later diameter carries mass
            hi = sum_cap - a0 - b0 + 1
            if not a0 and b0 > 1:
                hi = 1 + (sum_cap - b0) // 2  # two units each
            if hi < n:
                break
            if hi > n_last:
                hi = n_last
            # the depth-1 node: D_0 = a0, E_0 = b0, its c-pivot at 0 reads it
            # back, and its flip and f-pivot tie while a0 = b0
            sym = a0 == b0
            state = (a0 + b0, a0 * b0, a0, b0, 0, 0, a0, b0, 0, 0, sym, 0, 0, 0, True, sym)
            if nodes >= budget:
                opened.append((k, n, a0, level, sum_cap, label_cap, best, hi, (a0, b0), state))
                continue
            enter((a0, b0), n, hi, state)
    # dfs reaches itself through its closure: clearing that cell frees the
    # shard's arrays on return, not at the next cyclic garbage collection
    dfs = None
    return ShardResult(n, first_a, leaves, nodes, len(leaves))
