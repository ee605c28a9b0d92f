"""Partitions, strips, multiplicities, norms and truncated state spaces.

A partition is a plain tuple of weakly decreasing positive integers
(canonical form strips trailing zeros).  It doubles as a q-boson
configuration, parts being the occupied positions; its conjugate lists
the Toda particle positions.  Occupation vectors keep a fixed length N
because periodic chains need the site positions; partition algebra does
not, so the canonical form drops zeros.

Basis enumeration is deterministic (graded by weight, then
lexicographically descending) so matrix dumps are reproducible.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import _poch_ratio, as_scalar


def partition(parts) -> tuple:
    """Canonical form: tuple, weakly decreasing, trailing zeros stripped."""
    p = tuple(int(v) for v in parts)
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {p}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _trimmed(parts) -> tuple:
    """A weakly decreasing nonnegative sequence, built so by an enumerator,
    as a partition: trailing zeros dropped, nothing re-validated."""
    end = len(parts)
    while end and parts[end - 1] == 0:
        end -= 1
    return tuple(parts[:end])


def weight(lam) -> int:
    return sum(lam)


def conjugate(lam) -> tuple:
    """lam'_i = #{j : lam_j >= i}."""
    lam = partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part >= i) for i in range(1, lam[0] + 1))


def multiplicity(lam, j: int) -> int:
    """m_j(lam) = number of parts equal to j (j >= 1)."""
    if j < 1:
        raise ValueError("multiplicity is defined for part values j >= 1")
    return sum(1 for part in lam if part == j)


def contains(lam, mu) -> bool:
    """mu inside lam as Young diagrams."""
    lam, mu = partition(lam), partition(mu)
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


def is_horizontal_strip(lam, mu) -> bool:
    """mu ≺ lam: containment with interlacing lam_{i+1} <= mu_i <= lam_i."""
    lam, mu = partition(lam), partition(mu)
    if not contains(lam, mu):
        return False
    padded = mu + (0,) * (len(lam) - len(mu))
    return all(lam[i + 1] <= padded[i] for i in range(len(lam) - 1))


def is_vertical_strip(lam, mu) -> bool:
    """lam/mu has at most one box per row: lam_i - mu_i in {0, 1}."""
    lam, mu = partition(lam), partition(mu)
    if not contains(lam, mu):
        return False
    padded = mu + (0,) * (len(lam) - len(mu))
    return all(lam[i] - padded[i] <= 1 for i in range(len(lam)))


def strip_test(lam, mu, kind: str) -> bool:
    if kind == "horizontal":
        return is_horizontal_strip(lam, mu)
    if kind == "vertical":
        return is_vertical_strip(lam, mu)
    raise ValueError(f"unknown strip kind {kind!r}")


def state_norm(lam, t) -> Fraction:
    """<lam|lam> = prod_{k>=1} m_k(lam)!_t ; equals 1 for the empty partition."""
    t = as_scalar(t)
    lam = partition(lam)
    num = den = 1
    i = 0
    while i < len(lam):
        j = i
        while j < len(lam) and lam[j] == lam[i]:
            j += 1
        n, d = _poch_ratio(t, j - i, t)
        num *= n
        den *= d
        i = j
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# strip enumeration in row coordinates (the oracles of the Pieri-signature
# enumerators of `hall_littlewood`)

def horizontal_strips_above(mu, max_size: int, max_part=None):
    """All lam with mu ≺ lam and |lam/mu| <= max_size (optionally lam_1 <= max_part).

    A horizontal strip grows the length by at most one, so lam has
    len(mu)+1 slots: lam_1 in [mu_1, cap], lam_i in [mu_i, mu_{i-1}].
    """
    mu = partition(mu)
    n = len(mu)
    top = (mu[0] if mu else 0) + max_size
    if max_part is not None:
        top = min(top, max_part)
    results = []

    def rec(i, acc, budget):
        if i == n + 1:
            results.append(_trimmed(acc))
            return
        lo = mu[i] if i < n else 0
        hi = top if i == 0 else mu[i - 1]
        hi = min(hi, lo + budget)
        for v in range(hi, lo - 1, -1):
            rec(i + 1, acc + [v], budget - (v - lo))

    if top < (mu[0] if mu else 0):
        return []
    rec(0, [], max_size)
    return results


def vertical_strips_above(mu, max_size: int, max_length=None):
    """All lam ⊇ mu with lam/mu a vertical strip of size <= max_size.

    lam = mu + (0/1 per row), weakly decreasing, length capped.  A zero
    part ends the recursion, so every strip built has positive parts.
    """
    mu = partition(mu)
    limit = max_length if max_length is not None else len(mu) + max_size
    if limit < len(mu):
        return []
    results = []

    def rec(i, acc, budget):
        if i == limit:
            results.append(tuple(acc))
            return
        base = mu[i] if i < len(mu) else 0
        for delta in (1, 0):
            if delta > budget:
                continue
            v = base + delta
            if acc and v > acc[-1]:
                continue
            if v == 0:
                results.append(tuple(acc))
                continue
            rec(i + 1, acc + [v], budget - delta)

    rec(0, [], max_size)
    return results


# ---------------------------------------------------------------------------
# text formats

def format_partition(lam) -> str:
    return "[" + ",".join(str(v) for v in lam) + "]"


def parse_partition(text: str) -> tuple:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad partition literal {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    return partition(int(v) for v in inner.split(","))


def format_occupation(m) -> str:
    return "(" + ",".join(str(v) for v in m) + ")"


# ---------------------------------------------------------------------------
# bases

class Basis:
    """Ordered truncated state space with an exact inverse index.

    `states` are tuples; `kind` is "partition", "occupation" or "window";
    `shift` is the +K offset for window bases stored as shifted tuples.
    """

    def __init__(self, states, kind: str = "partition", shift: int = 0):
        self.states = list(states)
        self.index = {s: i for i, s in enumerate(self.states)}
        if len(self.index) != len(self.states):
            raise ValueError("duplicate states in basis")
        self.kind = kind
        self.shift = shift

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __contains__(self, state):
        return state in self.index

    def label(self, state) -> str:
        if self.kind == "occupation":
            return format_occupation(state)
        if self.kind == "window":
            return "(" + ",".join(str(v - self.shift) for v in state) + ")"
        return format_partition(state)

    def labels(self):
        return [self.label(s) for s in self.states]


def _partitions_of(d: int, max_part: int, max_length: int):
    if d == 0:
        yield ()
        return
    if max_length == 0:
        return
    for first in range(min(d, max_part), 0, -1):
        for rest in _partitions_of(d - first, first, max_length - 1):
            yield (first,) + rest


def partition_basis(max_weight: int, max_part=None, max_length=None) -> Basis:
    """All partitions with |lam| <= max_weight, lam_1 and length optionally capped."""
    if max_weight is None or max_weight < 0:
        raise ValueError("unbounded constraint")
    states = []
    for d in range(max_weight + 1):
        block = list(_partitions_of(d, max_part if max_part is not None else d,
                                    max_length if max_length is not None else d))
        block.sort(reverse=True)
        states.extend(block)
    return Basis(states, kind="partition")


def occupation_basis(N: int, n: int) -> Basis:
    """Occupation vectors (m_1..m_N) with sum n, lexicographically descending."""
    if N < 1 or n < 0:
        raise ValueError("need N >= 1, n >= 0")
    states = []

    def rec(prefix, rem):
        if len(prefix) == N - 1:
            states.append(tuple(prefix) + (rem,))
            return
        for v in range(rem, -1, -1):
            rec(prefix + [v], rem - v)

    rec([], n)
    states.sort(reverse=True)
    return Basis(states, kind="occupation")


def sector_sizes(basis: Basis) -> tuple:
    """(N, n) of the sector `occupation_basis(N, n)`; any other basis raises ValueError."""
    first = basis.states[0]
    if basis.kind != "occupation" or sum(first) != sum(basis.states[-1]):
        raise ValueError(f"not one occupation sector: a {basis.kind} basis from {first}")
    return len(first), sum(first)


def window_basis(K: int, M: int) -> Basis:
    """Decreasing integer sequences in [-K, K]^M, stored shifted by +K.

    States are length-M tuples with entries in [0, 2K]; subtract the
    recorded shift to recover raw window values.
    """
    if K < 0 or M < 1:
        raise ValueError("unbounded constraint")
    states = []

    def rec(prefix):
        if len(prefix) == M:
            states.append(tuple(prefix))
            return
        hi = prefix[-1] if prefix else 2 * K
        for v in range(hi, -1, -1):
            rec(prefix + [v])

    rec([])
    grouped = {}
    for s in states:
        grouped.setdefault(sum(s), []).append(s)
    ordered = []
    for d in sorted(grouped):
        ordered.extend(sorted(grouped[d], reverse=True))
    return Basis(ordered, kind="window", shift=K)


def occupation_to_partition(m) -> tuple:
    """(m_1..m_N) -> partition with part k repeated m_k times."""
    parts = []
    for site in range(len(m), 0, -1):
        parts.extend([site] * m[site - 1])
    return partition(parts)


def partition_to_occupation(lam, N: int) -> tuple:
    """Partition with lam_1 <= N -> occupation vector of length N."""
    lam = partition(lam)
    if lam and lam[0] > N:
        raise ValueError(f"part {lam[0]} exceeds chain length {N}")
    m = [0] * N
    for part in lam:
        m[part - 1] += 1
    return tuple(m)
