"""Closed-form answers for flagnest verdicts, written without the engine.

A query D(I | J) -> D(I) on a classical diagram admits a section exactly when
I = {i} and J = {j} are single marks and one of these holds:

- A_n with n odd and {i, j} = {1, n};
- B_3 with i = 1 and j = 3;
- D_n with n >= 5 and {i, j} = {n - 1, n};
- D_4 with i and j two distinct nodes of {1, 3, 4}.

Every other query, and every query with more than two marks, is negative.

`enumerate` reports one representative per orbit of the diagram symmetries.
The symmetries and the orbit counts are rebuilt here from the diagram
shapes, so no code of the package under test takes part in an expected answer.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import FrozenSet, Iterator, List, Set, Tuple

# The diagrams `enumerate` scans: each family from its smallest rank on.
FAMILY_MIN_RANK = (("A", 2), ("B", 2), ("C", 3), ("D", 4))

Key = Tuple[str, Tuple[int, ...], Tuple[int, ...]]


def exists(family: str, rank: int, kept, forgotten) -> bool:
    """The closed-form verdict for keeping `kept` and forgetting `forgotten`."""
    kept, forgotten = frozenset(kept), frozenset(forgotten)
    if len(kept) != 1 or len(forgotten) != 1:
        return False
    (i,), (j,) = kept, forgotten
    if family == "A":
        return rank % 2 == 1 and {i, j} == {1, rank}
    if family == "B":
        return rank == 3 and (i, j) == (1, 3)
    if family == "D" and rank == 4:
        return i != j and {i, j} <= {1, 3, 4}
    if family == "D":
        return {i, j} == {rank - 1, rank}
    return False


def symmetries(family: str, rank: int) -> List[Tuple[int, ...]]:
    """Node permutations preserving the diagram; entry k - 1 is the image of k."""
    ident = tuple(range(1, rank + 1))
    if family == "A":
        return [ident, ident[::-1]]
    if family == "D" and rank == 4:
        return [(a, 2, b, c) for a, b, c in permutations((1, 3, 4))]
    if family == "D":
        return [ident, ident[: rank - 2] + (rank, rank - 1)]
    return [ident]


def orbit_key(family: str, rank: int, kept, forgotten) -> Key:
    """The least relabeling of a query under the diagram's symmetries."""
    best = min(
        (tuple(sorted(s[x - 1] for x in kept)), tuple(sorted(s[x - 1] for x in forgotten)))
        for s in symmetries(family, rank)
    )
    return (f"{family}{rank}",) + best


def mark_pairs(rank: int, mode: str) -> Iterator[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """Every (kept, forgotten) pair `enumerate` poses on a rank-`rank` diagram."""
    nodes = range(1, rank + 1)
    if mode == "singletons":
        for i in nodes:
            for j in nodes:
                if i != j:
                    yield frozenset([i]), frozenset([j])
        return
    for size in range(2, min(4, rank) + 1):
        for union in combinations(nodes, size):
            for k in range(1, size):
                for kept in combinations(union, k):
                    yield frozenset(kept), frozenset(union) - frozenset(kept)


@lru_cache(maxsize=None)
def expected_enumeration(max_rank: int, mode: str) -> Tuple[int, FrozenSet[Key]]:
    """Number of classes `enumerate` decides, and the orbit keys of the positives."""
    classes: Set[Key] = set()
    positive: Set[Key] = set()
    for family, low in FAMILY_MIN_RANK:
        for rank in range(low, max_rank + 1):
            for kept, forgotten in mark_pairs(rank, mode):
                key = orbit_key(family, rank, kept, forgotten)
                classes.add(key)
                if exists(family, rank, kept, forgotten):
                    positive.add(key)
    return len(classes), frozenset(positive)
