"""Exact tree-depth and the fixed-k decision procedure.

Both run one bounded branch-and-bound over connected vertex masks:
depth(mask, budget) returns the exact tree-depth of a connected mask when
it is at most budget, and otherwise some value above budget.  The bounds
come from the lowest-id DFS tree of the mask: its height h is a witness
(rooted at the DFS root), and since it holds a path on h vertices,
ceil(log2(h + 1)) is a lower bound.  Roots are tried in descending degree;
a root can only improve on the best depth found so far if every component
left by it fits in two less, so that is the children's budget.  One memo
per mask holds either the exact value with an optimal root, from which the
witness forest is read, or the largest budget the mask is known to exceed.
The decision procedure first screens each component by its DFS height: a
height of 2^k or more refutes td <= k outright, because any DFS tree
height is sandwiched between td and 2^td - 1.
"""

from __future__ import annotations

from .core import Graph, neighbour_masks
from .errors import SizeLimitError
from .forests import RootedForest, make_forest

DEFAULT_EXACT_LIMIT = 20


def _mask_components(mask: int, adjm: list[int]) -> list[int]:
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                grow |= adjm[low.bit_length() - 1]
            grow &= rest & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        rest &= ~comp
    return comps


def _dfs_height(mask: int, adjm: list[int]) -> int:
    """Height of the DFS forest of the graph induced on mask (lowest-id order)."""
    best = 0
    rest = mask
    while rest:
        root = rest & -rest
        seen = root
        stack = [(root.bit_length(), adjm[root.bit_length() - 1] & mask, 1)]
        h = 1
        while stack:
            v, cand, depth = stack[-1]
            nxt = cand & ~seen
            if not nxt:
                stack.pop()
                continue
            low = nxt & -nxt
            stack[-1] = (v, cand & ~low, depth)
            seen |= low
            d = depth + 1
            if d > h:
                h = d
            stack.append((low.bit_length(), adjm[low.bit_length() - 1] & mask, d))
        if h > best:
            best = h
        rest &= ~seen
    return best


class _Solver:
    """Bounded tree-depth search over the connected vertex masks of one graph."""

    def __init__(self, G: Graph):
        self.adjm = neighbour_masks(G)
        # mask -> (td, root bit) once exact, or (b, 0) when only td > b is known
        self.memo: dict[int, tuple[int, int]] = {}

    def depth(self, mask: int, budget: int) -> int:
        """Tree-depth of the connected mask if it is at most budget, else
        some value above budget."""
        value, root = self.memo.get(mask, (0, 0))
        if root or budget <= value:
            return value if root else value + 1
        h = _dfs_height(mask, self.adjm)
        lb = h.bit_length()  # ceil(log2(h + 1)): the DFS tree holds a path on h vertices
        if lb > budget:
            self.memo[mask] = (lb - 1, 0)
            return lb
        # the DFS tree is a witness of height h, rooted at the lowest vertex
        best = min(h, budget + 1)
        best_root = mask & -mask if h == best else 0
        order = []
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            order.append(((self.adjm[low.bit_length() - 1] & mask).bit_count(), low))
        order.sort(reverse=True)
        for _, low in order:
            if best == lb:
                break
            cap = best - 2  # a root helps only if every child fits in best - 2
            worst = 0
            for c in _mask_components(mask ^ low, self.adjm):
                d = self.depth(c, cap)
                if d > cap:
                    break
                worst = max(worst, d)
            else:
                best, best_root = worst + 1, low
        self.memo[mask] = (best, best_root) if best_root else (budget, 0)
        return best

    def forest_parents(self, mask: int) -> dict[int, int]:
        """Parents of an optimal elimination forest, read from the exact memo."""
        out: dict[int, int] = {}
        stack = [(c, 0) for c in _mask_components(mask, self.adjm)]
        while stack:
            comp, par = stack.pop()
            self.depth(comp, comp.bit_count())
            root_bit = self.memo[comp][1]
            root = root_bit.bit_length()
            out[root] = par
            stack.extend((c, root) for c in _mask_components(comp ^ root_bit, self.adjm))
        return out


def treedepth_exact(G: Graph, *, limit: int = DEFAULT_EXACT_LIMIT) -> tuple[int, RootedForest]:
    """Minimum height of a rooted forest whose closure contains G, plus a witness.

    Runs the bounded search with budget |C| on each connected component C,
    which every component meets, so each value is exact; the witness roots
    come from the same memo.  Each component must have at most `limit`
    vertices.
    """
    solver = _Solver(G)
    full = (1 << G.n) - 1
    comps = _mask_components(full, solver.adjm)
    for comp in comps:
        if comp.bit_count() > limit:
            raise SizeLimitError(
                f"component with {comp.bit_count()} vertices exceeds the "
                f"exact tree-depth limit {limit}"
            )
    depth = max((solver.depth(c, c.bit_count()) for c in comps), default=0)
    parents = solver.forest_parents(full)
    forest = make_forest(G.n, {v: parents.get(v, 0) for v in range(1, G.n + 1)})
    return depth, forest


def treedepth_decide(G: Graph, k: int) -> bool:
    """Decide td(G) <= k.

    Each component is screened by its DFS height (>= 2^k means "no"
    immediately, <= k means "yes"); only the remaining window runs the
    bounded search with budget k.
    """
    if k < 1:
        return G.n == 0
    solver = _Solver(G)
    for comp in _mask_components((1 << G.n) - 1, solver.adjm):
        h = _dfs_height(comp, solver.adjm)
        if h >= (1 << k):
            return False
        if h > k and solver.depth(comp, k) > k:
            return False
    return True
