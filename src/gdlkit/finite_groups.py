"""Finite symmetry groups stored extensionally: composition tables built by
breadth-first closure from generators, permutation actions on index
domains, matrix representations, and group convolution (including the
transform+convolve factorisation over a translation-normalising subgroup).
Actions and representations are checked by :func:`_check_homomorphism`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph_nn import check_indices, check_permutation
from .grid_signals import cross_correlate

CLOSURE_CAP = 1024


@dataclass(frozen=True)
class FiniteGroup:
    """Composition table ``table[i, j] = index of g_i g_j``, identity first."""

    table: np.ndarray
    identity = 0  # a class constant, not a field

    @property
    def order(self):
        return self.table.shape[0]

    @cached_property
    def inverses(self):
        """``inverses[g]`` is the index of ``g^{-1}``, the first ``h`` with ``g h = e``."""
        return np.argmax(self.table == self.identity, axis=1)


@dataclass(frozen=True)
class GroupAction:
    """Permutation of a fixed index domain per group element: ``perms`` of
    shape ``(order, n)`` holds the image ``g.u`` at ``perms[g][u]``."""

    group: FiniteGroup
    perms: np.ndarray

    @property
    def domain_size(self):
        return self.perms.shape[1]

    def __post_init__(self):
        g, p = self.group, np.asarray(self.perms)
        if p.ndim != 2 or p.shape[0] != g.order:
            raise ValueError(f"perms of shape {p.shape}, expected (order={g.order}, n)")
        n = p.shape[1]
        p = check_indices(p, n, f"perms entries must be integers in range({n})")
        hit = np.zeros(p.shape, dtype=bool)
        hit[np.arange(g.order)[:, None], p] = True  # a row hits every index iff it permutes
        if not hit.all():
            raise ValueError(f"perms row {int(np.argmin(hit.all(axis=1)))} is not a "
                             f"permutation of range({n})")
        object.__setattr__(self, "perms", p)
        if not np.array_equal(p[g.identity], np.arange(self.domain_size)):
            raise ValueError("identity must act as the identity permutation")
        # row i: g_i . (g_j . u) against (g_i g_j) . u
        _check_homomorphism(g, p, lambda a, b: a[:, b], lambda a, b: np.all(a == b, axis=1),
                            "action not compatible with composition")


@dataclass(frozen=True)
class Representation:
    """Matrix per group element, ``(order, d, d)``, with ``rho(e) = I`` and
    ``rho(gh) = rho(g) rho(h)`` checked over a generating set of the table; no
    inverse is checked, so the matrices are invertible only on a group table."""

    group: FiniteGroup
    matrices: np.ndarray

    @property
    def dimension(self):
        return self.matrices.shape[1]

    def __post_init__(self):
        g, m = self.group, self.matrices
        if m.ndim != 3 or m.shape[0] != g.order or m.shape[1] != m.shape[2]:
            raise ValueError(f"matrices of shape {m.shape}, expected (order={g.order}, d, d)")
        if not np.allclose(m[g.identity], np.eye(self.dimension), atol=1e-10):
            raise ValueError("rho(identity) must be the identity matrix")
        _check_homomorphism(g, m, np.matmul,
                            lambda a, b: np.all(np.isclose(a, b, atol=1e-10), axis=(1, 2)),
                            "homomorphism fails")


def _check_homomorphism(group, images, compose, equal, reason):
    """Raise ``ValueError(f"{reason} at ({i}, {j})")`` at the first row ``i`` where
    ``compose(images, images[j])`` is not ``equal`` to ``images[table[:, j]]``,
    for ``j`` in a generating set S of the group table, with ``rho(e)`` the identity.
    By associativity the ``h`` with ``rho(g) rho(h) = rho(gh)`` for every ``g`` are
    closed under products (``rho(g) rho(ab) = rho(ga) rho(b) = rho(gab)``), so
    passing on S passes on every pair, in O(order |S|) compositions."""
    n = group.order
    if group.table.shape != (n, n):
        raise ValueError(f"table of shape {group.table.shape}, expected (order, order)")
    table = check_indices(group.table, n, f"table entries must be integers in range({n})")
    for j in _generating_set(table, group.identity):
        bad = ~equal(compose(images, images[j]), images[table[:, j]])
        if bad.any():
            raise ValueError(f"{reason} at ({int(np.argmax(bad))}, {j})")


def _generating_set(table, identity):
    """Indices picked in index order, each the first index not yet reached
    from the identity by products of the earlier picks.

    The reached set is closed by squaring it, so a cyclic group of order n
    takes about log2(n) steps of at most n^2 lookups.
    """
    reached = np.zeros(table.shape[0], dtype=bool)
    reached[identity] = True
    picks = []
    while not reached.all():
        picks.append(int(np.argmin(reached)))
        reached[picks[-1]] = True
        while not reached.all():
            r = np.flatnonzero(reached)
            reached[table[np.ix_(r, r)]] = True
            if np.count_nonzero(reached) == r.size:
                break
    return picks


def group_from_generators(domain_size, generators):
    """Close a generating set of permutations under composition.

    Elements are indexed in breadth-first discovery order with the identity
    first, which keeps indices deterministic for golden tests.  Raises if
    the closure exceeds ``CLOSURE_CAP`` elements.
    """
    gens = [check_permutation(p, domain_size) for p in generators]
    identity = np.arange(domain_size)
    elements = [identity]
    index = {identity.tobytes(): 0}
    parent, via = [0], [0]  # g_j = g_parent[j] s_via[j]
    right = []  # right[i][s] = index of g_i s
    for i, element in enumerate(elements):  # grows while it runs: breadth-first
        row = []
        for s, gen in enumerate(gens):
            candidate = element[gen]  # right multiplication: g . s
            key = candidate.tobytes()
            if key not in index:
                if len(elements) >= CLOSURE_CAP:
                    raise ValueError(f"closure exceeds cap of {CLOSURE_CAP} elements")
                index[key] = len(elements)
                elements.append(candidate)
                parent.append(i)
                via.append(s)
            row.append(index[key])
        right.append(row)
    order = len(elements)
    right = np.array(right, dtype=int).reshape(order, len(gens))
    table = np.empty((order, order), dtype=int)
    table[:, 0] = np.arange(order)
    for j in range(1, order):
        # g_i g_j = (g_i g_parent) s
        table[:, j] = right[table[:, parent[j]], via[j]]
    group = FiniteGroup(table=table)
    # The action check composes the distinct generated permutations against
    # the table, which is what makes the table a group.
    return group, GroupAction(group=group, perms=np.stack(elements))


@dataclass
class AxiomReport:
    """Pass/fail per group axiom; failures carry a witness tuple."""

    closure: bool = True
    associativity: bool = True
    identity: bool = True
    inverse: bool = True
    witness: tuple = None

    def all_pass(self):
        return self.closure and self.associativity and self.identity and self.inverse


def verify_group_axioms(group):
    """Exhaustive check of closure, associativity, identity and inverses.

    Associativity is Light's test over a generating set S of the table
    (Clifford & Preston 1961, section 1.2): compare ``(x s) y`` with
    ``x (s y)`` for every ``x``, ``y`` and ``s`` in S.  The elements ``a``
    with ``(x a) y = x (a y)`` for all ``x``, ``y`` are closed under
    products (``(x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y)``)
    and include the identity, which is checked first, so passing on S
    passes on every element: O(order^2 |S|) lookups instead of O(order^3).
    A failure's witness ``(x, s, y)`` is a genuine non-associative triple.
    """
    table = group.table
    n = table.shape[0]
    report = AxiomReport()
    if np.any(table < 0) or np.any(table >= n):
        bad = np.argwhere((table < 0) | (table >= n))[0]
        report.closure = False
        report.witness = (int(bad[0]), int(bad[1]))
        return report
    e = group.identity
    if not (np.array_equal(table[e], np.arange(n)) and np.array_equal(table[:, e], np.arange(n))):
        report.identity = False
        report.witness = (e,)
        return report
    for s in _generating_set(table, e):
        # (x s) y against x (s y), one row of y per x
        bad = table[table[:, s]] != table[:, table[s]]
        if bad.any():
            x, y = np.argwhere(bad)[0]
            report.associativity = False
            report.witness = (int(x), s, int(y))
            return report
    is_e = table == e
    first = np.argmax(is_e, axis=1)
    bad = (is_e.sum(axis=1) != 1) | (table[first, np.arange(n)] != e)
    if bad.any():
        report.inverse = False
        report.witness = (int(np.argmax(bad)),)
    return report


def regular_representation(group):
    """Permutation matrices of the group acting on itself by left translation."""
    n = group.order
    matrices = np.zeros((n, n, n))
    matrices[np.arange(n)[:, None], group.table, np.arange(n)] = 1.0
    return Representation(group=group, matrices=matrices)


def group_convolve(x, theta, action):
    """Group convolution ``(x * theta)(g) = sum_u x_u theta_{g^{-1}.u}``.

    ``x`` and ``theta`` are signals on the action's domain; the output is a
    signal on the group elements.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n = action.domain_size
    if x.shape != (n,) or theta.shape != (n,):
        raise ValueError("signal and filter must live on the action domain")
    return theta[action.perms[action.group.inverses]] @ x


def group_self_convolve(x, theta, group):
    """Convolution of signals on the group itself,
    ``(x * theta)(g) = sum_h x(h) theta(g^{-1} h)``: :func:`group_convolve`
    over the left-regular action ``g.h = gh``, which checks the table first."""
    return group_convolve(x, theta, GroupAction(group, group.table))


# ---------------------------------------------------------------------------
# grid actions used by transform+convolve


def translation_permutation(n, channels=1, step=1):
    """Shift-by-``step`` permutation of the flattened (position, channel)
    grid: position ``p`` maps to ``p + step``."""
    idx = np.arange(n * channels).reshape(n, channels)
    return idx[(np.arange(n) + step) % n].reshape(-1)


def dna_reverse_complement_permutation(n):
    """Reverse positions and swap complementary channels (A,C,G,T order)."""
    complement = np.array([3, 2, 1, 0])  # A<->T, C<->G
    idx = np.arange(n * 4).reshape(n, 4)
    return idx[::-1][:, complement].reshape(-1)


def _normalises_translations(perm, inv, n, channels):
    """True iff conjugating the unit shift by ``perm`` (inverse ``inv``) is
    again a shift."""
    conj = perm[translation_permutation(n, channels)[inv]]
    # a shift by ``step`` sends cell 0 to ``step * channels``
    return np.array_equal(conj, translation_permutation(n, channels, conj[0] // channels))


def transform_convolve(x, theta, h_perms):
    """Group convolution over (translations x H) via transform+convolve.

    ``x`` and ``theta`` are ``(n, c)`` signals; ``h_perms`` lists index
    permutations of the flattened grid (e.g. from
    :func:`dna_reverse_complement_permutation`), each of which must
    normalise translations.  Output row ``h`` is the translational
    cross-correlation of ``x`` with the transformed filter ``rho(h) theta``.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if theta.ndim == 1:
        theta = theta[:, None]
    if x.shape != theta.shape:
        raise ValueError("signal and filter shapes must match")
    n, c = x.shape
    out = np.empty((len(h_perms), n))
    for row, perm in enumerate(h_perms):
        perm = check_permutation(perm, n * c)
        inv = np.argsort(perm)
        if not _normalises_translations(perm, inv, n, c):
            raise ValueError(f"subgroup element {row} does not normalise translations")
        # (rho(h) theta)_u = theta_{h^{-1} u}
        theta_h = theta.reshape(-1)[inv].reshape(n, c)
        out[row] = sum(cross_correlate(x[:, ch], theta_h[:, ch]) for ch in range(c))
    return out


def cayley_table_json(group):
    """Cayley table as plain nested lists (array-of-arrays of indices)."""
    return group.table.tolist()
