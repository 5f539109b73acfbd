"""Reference answers computed without topoglue.

A finite space is modelled here as a dict mapping each point to its minimal
open set.  Every expected answer the benchmark checks comes from these
functions, never from the function under test.  The facts they rest on:

* a set is open iff it contains the minimal open of each of its points, so
  the open sets are the down-sets of the specialization preorder;
* a map is continuous iff f(U(x)) lies inside U(f(x)) for every x (Stong,
  *Finite topological spaces*, Trans. AMS 1966), so continuous maps
  X -> Sierpinski are in bijection with the open sets of X, and continuous
  maps into a two-point discrete space are constant on components;
* a bijection is a homeomorphism iff it carries each minimal open onto the
  minimal open of the image point.
"""

from __future__ import annotations

from functools import lru_cache

PT = {"p": frozenset({"p"})}
SIERP = {"t": frozenset({"t"}), "b": frozenset({"t", "b"})}
DISC2 = {"a": frozenset({"a"}), "b": frozenset({"b"})}
ARC3 = {"l": frozenset({"l"}), "r": frozenset({"r"}), "m": frozenset({"l", "m", "r"})}
# pseudocircle: open points l, r and closed points ma, mb
C4 = {
    "l": frozenset({"l"}),
    "r": frozenset({"r"}),
    "ma": frozenset({"l", "ma", "r"}),
    "mb": frozenset({"l", "mb", "r"}),
}


def digital_circle(m: int) -> dict[str, frozenset[str]]:
    """DC_m: open points o_k and closed points c_k with U(c_k) = {o_k, c_k, o_k+1}."""
    out = {}
    for k in range(m):
        out[f"o{k}"] = frozenset({f"o{k}"})
        out[f"c{k}"] = frozenset({f"o{k}", f"c{k}", f"o{(k + 1) % m}"})
    return out


def product(a: dict, b: dict, sep: str = "|") -> dict[str, frozenset[str]]:
    """Product topology: U(x, y) = U(x) x U(y)."""
    return {
        f"{x}{sep}{y}": frozenset(f"{u}{sep}{v}" for u in a[x] for v in b[y])
        for x in a
        for y in b
    }


def model_of(space) -> dict[str, frozenset[str]]:
    """Read a topoglue FiniteSpace into the model used here."""
    return {x: frozenset(space.min_open[x]) for x in space.points}


def count_opens(space: dict) -> int:
    """Number of open sets, by splitting on whether a point is in the set.

    Open sets avoiding x are the open sets of X minus everything above x;
    open sets containing x contain U(x), and removing U(x) leaves an open set
    of the rest.
    """
    ups = {x: frozenset(z for z in space if x in space[z]) for x in space}

    @lru_cache(maxsize=None)
    def count(rest: frozenset) -> int:
        if not rest:
            return 1
        x = min(rest)
        return count(rest - ups[x]) + count(rest - space[x])

    return count(frozenset(space))


def components(space: dict) -> int:
    """Connected components: points are linked when one lies in the other's U."""
    parent = {x: x for x in space}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, u in space.items():
        for y in u:
            parent[find(y)] = find(x)
    return len({find(x) for x in space})


def count_continuous(a: dict, b: dict) -> int:
    """Number of continuous maps a -> b, by backtracking over points.

    Each new point is checked against the points already assigned, in both
    directions of the specialization preorder, so dead branches die early.
    """
    order = sorted(a)
    below = {x: [y for y in a[x] if y != x] for x in a}
    above = {x: [z for z in a if z != x and x in a[z]] for x in a}
    table: dict[str, str] = {}

    def extend(pos: int) -> int:
        if pos == len(order):
            return 1
        x = order[pos]
        total = 0
        for fx in b:
            if all(table[y] in b[fx] for y in below[x] if y in table) and all(
                fx in b[table[z]] for z in above[x] if z in table
            ):
                table[x] = fx
                total += extend(pos + 1)
                del table[x]
        return total

    return extend(0)


def cone_count(space: dict, apexes) -> int:
    """Cones over a gluing into each apex, summed: one per map out of the glued space.

    SIERP, DISC2 and PT are counted through open sets, components and the
    terminal object; any other apex by backtracking.
    """
    total = 0
    for apex in apexes:
        if apex is SIERP:
            total += count_opens(space)
        elif apex is DISC2:
            total += 2 ** components(space)
        elif apex is PT:
            total += 1
        else:
            total += count_continuous(space, apex)
    return total


def is_continuous(a: dict, b: dict, table) -> bool:
    return all(table[y] in b[table[x]] for x in a for y in a[x])


def is_homeomorphism(a: dict, b: dict, table) -> bool:
    if set(table) != set(a) or sorted(table.values()) != sorted(b):
        return False
    return all(frozenset(table[y] for y in a[x]) == b[table[x]] for x in a)


def min_open_sizes(space: dict) -> dict[int, int]:
    sizes: dict[int, int] = {}
    for u in space.values():
        sizes[len(u)] = sizes.get(len(u), 0) + 1
    return sizes
