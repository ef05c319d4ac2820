"""Exact tree-depth and the fixed-k decision procedure.

treedepth_exact searches over root choices with memoization on connected
vertex subsets; the witness forest is reconstructed from the memo.  The
decision procedure first builds a DFS forest: a height of 2^k or more
refutes td <= k outright, because any DFS tree height is sandwiched
between td and 2^td - 1.  Below the cutoff it runs an exact search whose
subproblems are pruned with the same DFS bounds.
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
    """Shared engine for exact values and bounded decisions on one graph."""

    def __init__(self, G: Graph):
        self.adjm = neighbour_masks(G)
        self.exact_memo: dict[int, tuple[int, int]] = {}  # mask -> (td, best root bit)
        self.decide_memo: dict[tuple[int, int], bool] = {}

    def exact_connected(self, mask: int) -> int:
        """Tree-depth of the connected induced subgraph on mask."""
        hit = self.exact_memo.get(mask)
        if hit is not None:
            return hit[0]
        count = mask.bit_count()
        if count == 1:
            self.exact_memo[mask] = (1, mask)
            return 1
        best = count
        best_root = mask & -mask
        floor_lb = (count + 1).bit_length() - 1  # td >= ceil(log2(count+1))
        lb = floor_lb if (1 << floor_lb) == count + 1 else floor_lb + 1
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            sub = mask ^ low
            depth = 1 + max(
                (self.exact_connected(c) for c in _mask_components(sub, self.adjm)),
                default=0,
            )
            if depth < best:
                best = depth
                best_root = low
                if best == lb:
                    break
        self.exact_memo[mask] = (best, best_root)
        return best

    def decide_connected(self, mask: int, budget: int) -> bool:
        """Is the tree-depth of the connected subgraph on mask <= budget?"""
        if budget <= 0:
            return mask == 0
        count = mask.bit_count()
        if count <= budget:
            return True
        hit = self.decide_memo.get((mask, budget))
        if hit is not None:
            return hit
        h = _dfs_height(mask, self.adjm)
        if h <= budget:
            self.decide_memo[(mask, budget)] = True
            return True
        # the DFS tree contains a path on h vertices
        floor_lb = (h + 1).bit_length() - 1
        lb = floor_lb if (1 << floor_lb) == h + 1 else floor_lb + 1
        if lb > budget:
            self.decide_memo[(mask, budget)] = False
            return False
        # branch on the root, high-degree vertices first
        order = []
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            order.append(((self.adjm[low.bit_length() - 1] & mask).bit_count(), low))
        order.sort(reverse=True)
        ans = False
        for _, low in order:
            sub = mask ^ low
            if all(
                self.decide_connected(c, budget - 1)
                for c in _mask_components(sub, self.adjm)
            ):
                ans = True
                break
        self.decide_memo[(mask, budget)] = ans
        return ans

    def forest_parents(self, mask: int, parent_of_root: int, out: dict[int, int]) -> None:
        """Reconstruct an optimal elimination forest from the exact memo."""
        stack = [(c, parent_of_root) for c in _mask_components(mask, self.adjm)]
        while stack:
            comp, par = stack.pop()
            self.exact_connected(comp)
            root_bit = self.exact_memo[comp][1]
            root = root_bit.bit_length()
            out[root] = par
            for c in _mask_components(comp ^ root_bit, self.adjm):
                stack.append((c, root))


def treedepth_exact(G: Graph, *, limit: int = DEFAULT_EXACT_LIMIT) -> tuple[int, RootedForest]:
    """Minimum height of a rooted forest whose closure contains G, plus a witness.

    Exponential search, memoized per connected subset; each connected
    component must have at most `limit` vertices.
    """
    solver = _Solver(G)
    full = (1 << G.n) - 1
    comps = _mask_components(full, solver.adjm) if G.n else []
    for comp in comps:
        if comp.bit_count() > limit:
            raise SizeLimitError(
                f"component with {comp.bit_count()} vertices exceeds the "
                f"exact tree-depth limit {limit}"
            )
    depth = max((solver.exact_connected(c) for c in comps), default=0)
    parents: dict[int, int] = {}
    if G.n:
        solver.forest_parents(full, 0, parents)
    forest = make_forest(G.n, {v: parents.get(v, 0) for v in range(1, G.n + 1)})
    return depth, forest


def treedepth_decide(G: Graph, k: int) -> bool:
    """Decide td(G) <= k.

    Each component is screened by its DFS height (>= 2^k means "no"
    immediately, <= k means "yes"); only the remaining window runs the
    exact bounded search.
    """
    if k < 1:
        return G.n == 0
    solver = _Solver(G)
    full = (1 << G.n) - 1
    for comp in _mask_components(full, solver.adjm) if G.n else []:
        h = _dfs_height(comp, solver.adjm)
        if h >= (1 << k):
            return False
        if h <= k:
            continue
        if not solver.decide_connected(comp, k):
            return False
    return True
