"""The covered subgroups that sdpcert reported when the benchmark was committed.

Coverage of ``(n, r)`` depends only on the cyclic subgroup ``<r>`` of
``(Z/nZ)*``: every generator of ``<r>`` fixes the same subring of ``S``. The
tables are keyed by ``(n, g)``, ``g`` the smallest generator of ``<r>``, and
hold one entry for every subgroup a workload can draw; every generator of
each subgroup gave the same covered subgroup. ``check_coverage_payload``
requires a reported subgroup to contain the recorded one, and the
``certificates`` workload takes its residues from here, so a residue the
program stops covering fails a check instead of leaving the workload.
"""

from __future__ import annotations

from math import gcd

# (n, g) whose covered subgroup was all of (Z/nZ)*.
FULL = frozenset({
    (2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 4), (6, 1), (6, 5), (7, 1), (7, 6),
    (8, 1), (8, 7), (9, 1), (9, 8), (10, 1), (10, 9), (13, 12), (16, 15), (20, 19), (21, 20),
    (25, 24), (29, 28), (33, 32),
})

# (n, g) -> the covered subgroup, where it was a proper subgroup.
PARTIAL = {
    (5, 2): (1, 4),
    (7, 2): (1, 6),
    (7, 3): (1, 6),
    (8, 3): (1, 7),
    (8, 5): (1, 7),
    (9, 2): (1, 8),
    (9, 4): (1, 8),
    (10, 3): (1, 9),
    (11, 2): (1, 10),
    (11, 3): (1, 10),
    (12, 5): (1, 11),
    (12, 7): (1, 11),
    (13, 2): (1, 12),
    (13, 3): (1, 5, 8, 12),
    (13, 4): (1, 12),
    (13, 5): (1, 3, 4, 9, 10, 12),
    (14, 3): (1, 13),
    (14, 9): (1, 13),
    (15, 2): (1, 14),
    (15, 4): (1, 4, 11, 14),
    (15, 7): (1, 14),
    (15, 11): (1, 4, 11, 14),
    (16, 3): (1, 15),
    (16, 5): (1, 15),
    (16, 7): (1, 7, 9, 15),
    (16, 9): (1, 7, 9, 15),
    (17, 2): (1, 16),
    (17, 3): (1, 16),
    (17, 4): (1, 4, 13, 16),
    (18, 5): (1, 17),
    (18, 7): (1, 17),
    (19, 2): (1, 18),
    (19, 4): (1, 18),
    (19, 7): (1, 7, 8, 11, 12, 18),
    (19, 8): (1, 7, 8, 11, 12, 18),
    (20, 3): (1, 19),
    (20, 9): (1, 9, 11, 19),
    (20, 11): (1, 9, 11, 19),
    (20, 13): (1, 19),
    (21, 2): (1, 20),
    (21, 4): (1, 8, 13, 20),
    (21, 5): (1, 20),
    (21, 8): (1, 4, 5, 16, 17, 20),
    (21, 10): (1, 20),
    (21, 13): (1, 4, 5, 16, 17, 20),
    (22, 3): (1, 21),
    (25, 6): (1, 7, 18, 24),
    (25, 7): (1, 4, 6, 9, 11, 14, 16, 19, 21, 24),
    (26, 3): (1, 5, 21, 25),
    (26, 5): (1, 3, 9, 17, 23, 25),
    (26, 17): (1, 25),
    (27, 8): (1, 8, 10, 17, 19, 26),
    (27, 10): (1, 8, 10, 17, 19, 26),
    (28, 3): (1, 27),
    (28, 5): (1, 27),
    (28, 9): (1, 13, 15, 27),
    (28, 11): (1, 27),
    (29, 12): (1, 4, 5, 6, 7, 9, 13, 16, 20, 22, 23, 24, 25, 28),
    (30, 7): (1, 29),
    (30, 17): (1, 29),
    (31, 2): (1, 5, 6, 25, 26, 30),
    (31, 5): (1, 2, 4, 8, 15, 16, 23, 27, 29, 30),
    (31, 6): (1, 2, 4, 8, 15, 16, 23, 27, 29, 30),
    (32, 7): (1, 15, 17, 31),
    (32, 9): (1, 15, 17, 31),
    (33, 4): (1, 10, 23, 32),
}


def cyclic_subgroup(n, r):
    """<r> in (Z/nZ)*, as a sorted tuple."""
    seen, x = {1 % n}, r % n
    while x not in seen:
        seen.add(x)
        x = (x * r) % n
    return tuple(sorted(seen))


def subgroup_key(n, r):
    """(n, g) with g the smallest generator of <r>."""
    group = cyclic_subgroup(n, r)
    return n, min(g for g in group if cyclic_subgroup(n, g) == group)


def covered(n, r):
    """The recorded covered subgroup of (n, r); KeyError if no workload draws it."""
    key = subgroup_key(n, r)
    if key in FULL:
        return tuple(x for x in range(1, n) if gcd(x, n) == 1) or (1,)
    return PARTIAL[key]
