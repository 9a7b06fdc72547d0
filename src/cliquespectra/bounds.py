"""Tower arithmetic and quantitative bounds.

Natural numbers are kept exact (arbitrary precision) while they fit in
BIT_CAP = 2^20 bits; past the cap they escalate to certified enclosures.
Each end of an enclosure is one shape, a pair (height, top) standing for the
power tower 2^2^...^top with `height` twos, so height 0 is the exact value
`top`.  The constructor puts both ends in canonical form, so an int past the
cap enters as an enclosure by every path (``from_int``, a sum, ``pow2``, a
literal), and whether a value is exact depends on the value alone.  Every
operation preserves ``lower <= true value <= upper``, and
comparisons are three-valued: they answer only when the enclosures certify an
order (otherwise ``None``).

The module also hosts the iterated-logarithm helpers (``iterated_log``, log2
applied i times as a float, and log-star) and the recursive upper bound on the
size of depth/degree-budgeted ordered trees, with its two published budget
variants.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

BIT_CAP = 1 << 20

# A bound is a pair (height, top) standing for 2^2^...^2^top with `height`
# twos; height 0 is the exact int top.  TowerInt keeps its ends canonical
# (``_canon``): height 0 exactly while the value fits in BIT_CAP bits, so a
# tower's top is at least BIT_CAP: 2^top would not fit.
Bound = Tuple[int, int]


def _canon(bound: Bound, upper: bool) -> Bound:
    """One end in canonical form: height 0 exactly while the value fits the cap.

    A tower collapses while its top is under the cap; an int past the cap rises
    to the power of two at or below it (a lower end) or at or above it (an upper end).
    """
    height, top = bound
    while height > 0 and top < BIT_CAP:
        top = 1 << top  # top+1 bits, still within the cap
        height -= 1
    if height == 0 and top.bit_length() > BIT_CAP:
        exp = top.bit_length() - 1  # >= BIT_CAP, so (1, exp) is canonical
        height, top = 1, exp + 1 if upper and top & (top - 1) else exp
    return (height, top)


def _tower_vs_int(height: int, top: int, m: int) -> int:
    """Sign of (2^^height applied to top) minus m, never materializing huge values."""
    w = top
    for _ in range(height):
        if w >= m.bit_length():
            # 2^w >= 2^bitlen(m) > m, and further exponentiation only grows.
            return 1
        w = 1 << w
    return (w > m) - (w < m)


def _bound_cmp(a: Bound, b: Bound) -> int:
    """Exact three-way comparison of two bounds, on their height difference."""
    (h1, t1), (h2, t2) = a, b
    if h1 < h2:
        return -_tower_vs_int(h2 - h1, t2, t1)
    return _tower_vs_int(h1 - h2, t1, t2)


_bound_key = functools.cmp_to_key(_bound_cmp)


def _bump(b: Bound) -> Bound:
    """A bound at least twice b: doubling an exact value, nudging a tower's top."""
    height, top = b
    return (height, top + 1) if height else (0, 2 * top)


_SPELLED_HEIGHT = 4  # towers with more twos than this print as 2^^height(top)


def _bound_str(b: Bound) -> str:
    """2^2^...^top up to _SPELLED_HEIGHT twos, else 2^^height(top).

    A top 2^e + r past 64 bits reads 2^e, 2^e+r while r fits 64 bits (in
    parentheses when spelled out), else ~2^e.
    """
    height, top = b
    e = max(top.bit_length() - 1, 0)
    r = top ^ (1 << e)
    digits = str(top) if e < 64 else f"~2^{e}" if r >> 64 else f"2^{e}+{r}" if r else f"2^{e}"
    if height > _SPELLED_HEIGHT:
        return f"2^^{height}({digits})"
    return "2^" * height + (f"({digits})" if "+" in digits else digits)


@dataclass(frozen=True)
class TowerInt:
    """Exact-or-enclosed natural number between two (height, top) bounds.

    ``lower == upper`` at height 0 means the value is exact.  Tower endpoints
    with ``lower == upper`` certify the value without materializing it.  The
    ends given are stored in canonical form, so callers build raw ends.
    """

    lower: Bound
    upper: Bound

    def __post_init__(self):
        if self.lower[1] < 0 or self.upper[1] < 0:
            raise ValueError("TowerInt values are nonnegative")
        object.__setattr__(self, "lower", _canon(self.lower, False))
        object.__setattr__(self, "upper", _canon(self.upper, True))
        if _bound_cmp(self.lower, self.upper) > 0:
            raise ValueError("enclosure lower bound exceeds upper bound")

    @classmethod
    def from_int(cls, value: int) -> "TowerInt":
        """The exact value while it fits the cap, else the powers of two around it."""
        if not isinstance(value, int) or value < 0:
            raise ValueError("expected a nonnegative integer")
        return cls((0, value), (0, value))

    @property
    def is_exact(self) -> bool:
        return self.lower[0] == 0 and self.lower == self.upper

    @property
    def is_point(self) -> bool:
        """True when the enclosure pins one value (even a non-materializable one)."""
        return self.lower == self.upper

    @property
    def height(self) -> int:
        """Tower height of the upper bound (0 for exact values)."""
        return self.upper[0]

    def to_int(self) -> int:
        if not self.is_exact:
            raise ValueError(f"not an exact value: {self.describe()}")
        return self.lower[1]

    def cmp(self, other: "TowerInt | int") -> Optional[int]:
        """-1/0/1 when certified, None when the enclosures overlap."""
        other = as_tower(other)
        if _bound_cmp(self.upper, other.lower) < 0:
            return -1
        if _bound_cmp(self.lower, other.upper) > 0:
            return 1
        if self.is_point and other.is_point and _bound_cmp(self.lower, other.lower) == 0:
            return 0
        return None

    def certainly_le(self, other: "TowerInt | int") -> bool:
        return _bound_cmp(self.upper, as_tower(other).lower) <= 0

    def certainly_ge(self, other: "TowerInt | int") -> bool:
        return _bound_cmp(self.lower, as_tower(other).upper) >= 0

    def certainly_lt(self, other: "TowerInt | int") -> bool:
        return self.cmp(other) == -1

    def certainly_gt(self, other: "TowerInt | int") -> bool:
        return self.cmp(other) == 1

    def add(self, other: "TowerInt | int") -> "TowerInt":
        other = as_tower(other)
        (h1, t1), (h2, t2) = self.lower, other.lower
        lo = (0, t1 + t2) if h1 == h2 == 0 else max(self.lower, other.lower, key=_bound_key)
        if self.is_exact and other.is_exact:
            return TowerInt(lo, lo)
        return TowerInt(lo, _bump(max(self.upper, other.upper, key=_bound_key)))

    def pow2(self) -> "TowerInt":
        """2 raised to this value, exact while it fits under the cap."""
        (h1, t1), (h2, t2) = self.lower, self.upper
        return TowerInt((h1 + 1, t1), (h2 + 1, t2))

    def describe(self) -> str:
        if self.is_point:
            return _bound_str(self.lower)
        return f"[{_bound_str(self.lower)}, {_bound_str(self.upper)}]"

    def __str__(self) -> str:
        return self.describe()


def as_tower(x: "TowerInt | int") -> TowerInt:
    return x if isinstance(x, TowerInt) else TowerInt.from_int(x)


def parse_tower_literal(text: str) -> TowerInt:
    """Parse "d" or a right-associated "2^2^...^d" power-tower literal."""
    parts = text.strip().split("^")
    try:
        top = int(parts[-1])
    except ValueError:
        raise ValueError(f"malformed tower literal: {text!r}") from None
    if top < 0:
        raise ValueError("tower literals denote nonnegative integers")
    if any(p != "2" for p in parts[:-1]):
        raise ValueError(f"tower literals must stack 2s: {text!r}")
    b = (len(parts) - 1, top)
    return TowerInt(b, b)


# ---------------------------------------------------------------------------
# Iterated logarithms
# ---------------------------------------------------------------------------

def _one_log(cur):
    """One base-2 log step: exact on integer powers of two, float otherwise.

    A float step from cur < 2^e stays strictly below e, although log2 may
    round up to e (log2(2^65536 - 1) rounds to 65536.0), so every iterate
    falls on the same side of each integer as the exact value does.
    """
    if isinstance(cur, int):
        if cur & (cur - 1) == 0:
            return cur.bit_length() - 1
        ceiling = cur.bit_length()
    else:
        ceiling = math.frexp(cur)[1]
    return min(math.log2(cur), math.nextafter(ceiling, -math.inf))


def _log_star_number(x) -> int:
    """Exact log_star of a real x >= 1, by integer steps cur -> floor(log2 cur).

    With 2^^0 = 1 and 2^^i = 2^(2^^(i-1)), log_star(x) is the least i >= 1 with
    x < 2^^i.  Every 2^^i is an integer, so x < 2^^i iff floor(x) < 2^^i, and
    for an integer m >= 1, m < 2^^i iff floor(log2 m) < 2^^(i-1).  No step
    rounds, so 2^65536 - 1 = 2^^5 - 1 gets its exact log_star, 5.
    """
    if x < 1:
        raise ValueError("log_star is defined for values >= 1")
    count = 1
    cur = math.floor(x)
    while cur >= 2:
        cur = cur.bit_length() - 1
        count += 1
    return count


def _log_star_bound(b: Bound) -> int:
    height, top = b
    # Every level of the tower is an exact power of two: peel them off exactly.
    return height + _log_star_number(top)


def log_star(x: "TowerInt | int") -> int:
    """Smallest i >= 1 with log2 applied i times to x falling below 1."""
    if isinstance(x, TowerInt):
        lo = _log_star_bound(x.lower)
        hi = _log_star_bound(x.upper)
        if lo != hi:
            raise ValueError(
                f"cannot certify log_star for enclosure {x.describe()} ({lo} vs {hi})"
            )
        return lo
    return _log_star_number(x)


def iterated_log(x: "TowerInt | int", iterations: int) -> float:
    """log2 applied `iterations` times, as a float; valid while the trajectory stays >= 1."""
    if iterations < 0:
        raise ValueError("iteration count must be nonnegative")
    if iterations > log_star(x):
        raise ValueError(f"iterated_log undefined: {iterations} exceeds log_star")
    if isinstance(x, TowerInt):
        if not x.is_point:
            raise ValueError("iterated_log needs an exact or point value")
        height, cur = x.lower
    else:
        height, cur = 0, x
    peeled = min(iterations, height)  # each tower level logs away exactly
    height -= peeled
    for _ in range(iterations - peeled):
        cur = _one_log(cur)
    if height > 0 or (isinstance(cur, int) and cur.bit_length() > 1020):
        raise ValueError("result too large for a real-valued representation")
    return float(cur)


# ---------------------------------------------------------------------------
# Size calculus for depth/degree-budgeted trees
# ---------------------------------------------------------------------------

def size_recurrence(offset: int, index: int) -> TowerInt:
    """Value s_index of the greedy fill recurrence s_0 = 1, s_i = 2^(s_{i-1}+offset) + s_{i-1}.

    s_i is the vertex count of a depth-2 budgeted tree after its i-th root
    child has been inserted and greedily saturated with leaves.  The index is
    capped at 2^offset, the root's own degree budget.
    """
    if offset < 0:
        raise ValueError("offset must be >= 0")
    if not 0 <= index <= (1 << offset):
        raise ValueError(f"index must lie in [0, 2^{offset}]")
    s = TowerInt.from_int(1)
    for _ in range(index):
        s = s.add(offset).pow2().add(s)
    return s


def slack_lower_bound(n: "TowerInt | int") -> float:
    """log2(log_star(n)) - 1: how many clique sizes must be missing at n vertices.

    This is the bound the greedy recurrence proves: min_slack_for(n) >= it for
    every n >= 1.  Let C = min_slack_for(n), so n <= s_{2^C} + C, and write
    a_i = s_i + C + 1.  Since s_{i-1} + C + 1 <= 2^(s_{i-1} + C),

        a_i = 2^(s_{i-1} + C) + s_{i-1} + C + 1 <= 2^(a_{i-1}),

    and a_0 = C + 2 <= 2^^(2^C).  Hence a_i <= 2^^(2^C + i), and
    n < a_{2^C} <= 2^^(2^(C+1)), that is log_star(n) <= 2^(C+1), which is
    C >= log2(log_star(n)) - 1.  The bound is tight at n = 3, where both are 0.

    With the textbook log* (least i >= 0 whose i-th iterate is <= 1) the same
    number reads log2(log*(n+1)) - 1 for every integer n >= 1.  n = 0 raises
    log_star's ValueError, as min_slack_for does.
    """
    return math.log2(log_star(n)) - 1


def min_slack_for(n: "TowerInt | int") -> int:
    """Smallest offset C >= 0 with n - C <= s_{2^C} in the greedy recurrence.

    Each offset tests s_{2^C} alone: lower ends only grow along the
    recurrence, so no earlier s_i certifies s_i + C >= n where s_{2^C} does
    not.  Terms past the cap are enclosures, never materialized.
    """
    target = as_tower(n)
    if _bound_cmp(target.lower, (0, 1)) < 0:
        raise ValueError("n must be >= 1")
    for offset in itertools.count():
        if size_recurrence(offset, 1 << offset).add(offset).certainly_ge(target):
            return offset


VARIANTS = ("claim23", "claim24")

MAX_ROUNDS = 1 << 20  # refinement rounds one recursion level may take


def tree_size_bound(depth: int, offset: "TowerInt | int", variant: str = "claim23") -> TowerInt:
    """Recursive upper bound on the vertex count of a (depth, offset)-budgeted tree.

    Depth 1 is the exact closed form 2^offset + 1.  Deeper levels peel the root:
    each of the (at most 2^offset) root children gets a degree budget, the tree
    minus its root is bounded at depth-1 with an enlarged offset, and that size
    bound feeds the next child's budget.  The `variant` picks how the enlarged
    offset is formed: "claim23" uses 2^offset + offset + sum(budgets);
    "claim24" exponentiates that same quantity once more.  Both are valid upper
    bounds by construction; neither is claimed minimal.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    offset_t = as_tower(offset)
    if depth == 1:
        return offset_t.pow2().add(1)
    # c < bit_length(MAX_ROUNDS) iff 2^c <= MAX_ROUNDS
    if not offset_t.is_exact or offset_t.to_int() >= MAX_ROUNDS.bit_length():
        need = offset_t.describe() if offset_t.is_exact else f"(a tower of height {offset_t.height})"
        raise ValueError(
            "size bound recursion is not materializable: it would need "
            f"2^{need} refinement rounds (cap {MAX_ROUNDS})"
        )
    c = offset_t.to_int()
    pow2c = 1 << c
    budget = TowerInt.from_int(2 * pow2c)  # first root child sits at position 1
    budget_sum = TowerInt.from_int(0)
    inner_bound = None
    for _ in range(pow2c):
        budget_sum = budget_sum.add(budget)
        inner_offset = budget_sum.add(pow2c + c)
        if variant == "claim24":
            inner_offset = inner_offset.pow2()
        inner_bound = tree_size_bound(depth - 1, inner_offset, variant)
        budget = inner_bound.add(pow2c + c).pow2()
    return inner_bound.add(pow2c)
