import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdlkit import grid_signals as gs
from gdlkit.finite_groups import (
    cayley_table_json,
    dna_reverse_complement_permutation,
    group_convolve,
    group_from_generators,
    group_self_convolve,
    regular_representation,
    transform_convolve,
    translation_permutation,
    verify_group_axioms,
    FiniteGroup,
    GroupAction,
    Representation,
    _generating_set,
)

# one-hot DNA encoding in (A, C, G, T) order
_DNA = {"A": 0, "C": 1, "G": 2, "T": 3}


def dna_one_hot(sequence):
    x = np.zeros((len(sequence), 4))
    for i, letter in enumerate(sequence):
        x[i, _DNA[letter]] = 1.0
    return x


def cube_rotation_generators():
    coords = [(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)]
    index = {c: i for i, c in enumerate(coords)}
    rot_z = np.array([index[(-y, x, z)] for (x, y, z) in coords])
    rot_diag = np.array([index[(z, x, y)] for (x, y, z) in coords])
    return [rot_z, rot_diag]


class TestClosure:
    def test_d3_from_two_generators(self):
        group, action = group_from_generators(3, [np.array([1, 2, 0]), np.array([1, 0, 2])])
        assert group.order == 6
        assert verify_group_axioms(group).all_pass()
        assert action.perms.shape == (6, 3)

    def test_cyclic_group(self):
        for n in (1, 2, 5, 12):
            group, _ = group_from_generators(n, [(np.arange(n) + 1) % n])
            assert group.order == n

    def test_cube_rotations_order_24(self):
        group, _ = group_from_generators(27, cube_rotation_generators())
        assert group.order == 24

    def test_semidirect_product_of_shift_and_revcomp(self):
        n = 6
        gens = [translation_permutation(n, 4, 1), dna_reverse_complement_permutation(n)]
        group, _ = group_from_generators(n * 4, gens)
        assert group.order == 2 * n

    def test_invalid_generator_rejected(self):
        with pytest.raises(ValueError):
            group_from_generators(3, [np.array([0, 0, 1])])

    def test_non_integral_generator_rejected(self):
        # truncation would read [1.7, 2.2, 0.0] as the 3-cycle [1, 2, 0]
        with pytest.raises(ValueError, match="not a permutation"):
            group_from_generators(3, [[1.7, 2.2, 0.0]])
        group, _ = group_from_generators(3, [[1.0, 2.0, 0.0]])
        assert group.order == 3


# order-5 Latin square with identity 0: a loop, but not a group
LOOP5 = np.array([[0, 1, 2, 3, 4],
                  [1, 0, 3, 4, 2],
                  [2, 4, 0, 1, 3],
                  [3, 2, 4, 0, 1],
                  [4, 3, 1, 2, 0]])


class TestAxioms:
    def test_z4_passes(self):
        group, _ = group_from_generators(4, [(np.arange(4) + 1) % 4])
        assert verify_group_axioms(group).all_pass()

    def test_trivial_group_passes(self):
        group, _ = group_from_generators(1, [np.array([0])])
        assert group.order == 1
        assert verify_group_axioms(group).all_pass()

    def test_corrupted_table_caught_with_witness(self):
        group, _ = group_from_generators(4, [(np.arange(4) + 1) % 4])
        table = group.table.copy()
        table[1, 1] = 1  # 1*1 should be 2 in Z4
        bad = FiniteGroup(table=table)
        report = verify_group_axioms(bad)
        assert not report.all_pass()
        assert report.witness == (1, 1, 2)  # (1 1) 2 = 1 + 2 = 3, but 1 (1 2) = 1 + 3 = 0

    def test_non_associative_loop_fails_on_associativity(self):
        table = LOOP5
        report = verify_group_axioms(FiniteGroup(table=table))
        assert report.closure and report.identity and not report.associativity
        x, s, y = report.witness
        assert table[table[x, s], y] != table[x, table[s, y]]


def first_failing_axiom(table, e):
    """Exhaustive O(order^3) oracle: the first axiom, in the order
    ``verify_group_axioms`` checks them, that some element violates."""
    n = table.shape[0]
    idx = np.arange(n)
    if np.any((table < 0) | (table >= n)):
        return "closure"
    if not (np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx)):
        return "identity"
    # [x, y, z]: (x y) z against x (y z)
    if not np.array_equal(table[table], table[:, table]):
        return "associativity"
    if not np.all(np.any((table == e) & (table.T == e), axis=1)):
        return "inverse"
    return None


@st.composite
def small_group_tables(draw):
    """Closure of up to three permutations of at most five points, possibly
    crossed with ``LOOP5`` (a table whose group-side elements, which come
    first in index order, associate with everything), with one entry
    possibly overwritten (in or out of range)."""
    crossed = draw(st.booleans())
    d = draw(st.integers(1, 4 if crossed else 5))
    gens = draw(st.lists(st.permutations(range(d)), min_size=1, max_size=3))
    group, _ = group_from_generators(d, [np.array(g) for g in gens])
    table = group.table
    if crossed:  # index l * m + g for loop element l and group element g
        m = group.order
        table = (LOOP5[:, None, :, None] * m + table[None, :, None, :]).reshape(5 * m, 5 * m)
    table = table.copy()
    if draw(st.booleans()):
        n = table.shape[0]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i, j] = draw(st.integers(-1, n))
    return table


@given(small_group_tables())
@settings(max_examples=150, deadline=None)
def test_axiom_verdict_matches_exhaustive_oracle(table):
    report = verify_group_axioms(FiniteGroup(table=table))
    failing = first_failing_axiom(table, 0)
    assert report.all_pass() == (failing is None)
    if failing is None:
        return
    assert not getattr(report, failing)
    w = report.witness
    if failing == "closure":
        assert not 0 <= table[w] < table.shape[0]
    elif failing == "identity":
        assert w == (0,)
    elif failing == "associativity":
        x, s, y = w
        assert table[table[x, s], y] != table[x, table[s, y]]
    else:
        (x,) = w
        assert not np.any((table[x] == 0) & (table[:, x] == 0))


@pytest.mark.parametrize("make, reason", [
    (GroupAction, "action not compatible with composition"),
    (Representation, "homomorphism fails"),
])
def test_corrupted_at_a_non_generator_row_raises(make, reason):
    group, action = group_from_generators(27, cube_rotation_generators())
    # elements 1 and 2 are the two generators; element 5 is a product of them
    data = (action.perms if make is GroupAction else regular_representation(group).matrices).copy()
    data[5] = data[6]
    with pytest.raises(ValueError, match=reason):
        make(group, data)


def test_action_compatible_on_one_generator_only_raises():
    # Z2 x Z2 = <a> x <b> (elements e, a, b, ab) acting regularly on points
    # 0-3; elements outside <a> also turn points 4-6 by a 3-cycle, which
    # commutes with everything, so column a passes and column b fails
    a, b = [1, 0, 3, 2, 4, 5, 6], [2, 3, 0, 1, 4, 5, 6]
    group, action = group_from_generators(7, [a, b])
    turn = np.array([0, 1, 2, 3, 5, 6, 4])
    perms = action.perms.copy()
    perms[[2, 3]] = perms[[2, 3]][:, turn]
    with pytest.raises(ValueError, match=r"action not compatible with composition at \(2, 2\)"):
        GroupAction(group, perms)
    # its permutation representation, e_u -> e_{g.u}, fails at the same pair
    matrices = np.zeros((4, 7, 7))
    matrices[np.arange(4)[:, None], perms, np.arange(7)] = 1.0
    with pytest.raises(ValueError, match=r"homomorphism fails at \(2, 2\)"):
        Representation(group, matrices)


# Z4 with element 1 (its generator) given the action or matrix of element 3,
# or the zero matrix.  Both checks scan the generator column 1: element 1
# squares to element 2 correctly, so the first broken pair is (2, 1); the
# zero matrix squares to zero, not to rho(g_2), and breaks at (1, 1).
@pytest.mark.parametrize("make, row, source, reason", [
    (GroupAction, 1, 3, r"action not compatible with composition at \(2, 1\)"),
    (GroupAction, 0, 1, "identity must act as the identity permutation"),
    (Representation, 1, None, r"homomorphism fails at \(1, 1\)"),
    (Representation, 1, 3, r"homomorphism fails at \(2, 1\)"),
])
def test_caller_input_checks_name_the_first_failure(make, row, source, reason):
    group, action = group_from_generators(4, [(np.arange(4) + 1) % 4])
    data = (action.perms if make is GroupAction else regular_representation(group).matrices).copy()
    data[row] = 0 if source is None else data[source]
    with pytest.raises(ValueError, match=reason):
        make(group, data)


# Z4 again; element 1 is its generator, element 3 is not
@pytest.mark.parametrize("dtype, row, value", [
    (int, 1, 4),
    (int, 3, -1),
    (float, 1, 2.5),
    (float, 3, np.nan),
])
def test_action_entries_outside_the_domain_are_refused(dtype, row, value):
    group, action = group_from_generators(4, [(np.arange(4) + 1) % 4])
    perms = action.perms.astype(dtype)
    perms[row, 0] = value
    with pytest.raises(ValueError, match=r"^perms entries must be integers in range\(4\)$"):
        GroupAction(group, perms)


def test_an_action_row_that_is_no_permutation_is_refused():
    # the monoid's left-regular action: row 1 sends both points to 1, and
    # the composition check over the generator column passes it
    table = np.array([[0, 1], [1, 1]])
    with pytest.raises(ValueError, match=r"^perms row 1 is not a permutation of range\(2\)$"):
        GroupAction(FiniteGroup(table=table), table)


@pytest.mark.parametrize("make, data", [
    (GroupAction, np.array([[0, 1], [1, 0]])),
    (Representation, np.array([np.eye(2), np.eye(2)[::-1]])),
])
@pytest.mark.parametrize("entry", [5, -1])
def test_table_entries_outside_the_order_are_refused(make, data, entry):
    # the closure check of verify_group_axioms reports the same entry first
    group = FiniteGroup(table=np.array([[0, entry], [1, 0]]))
    assert not verify_group_axioms(group).closure
    with pytest.raises(ValueError, match=r"^table entries must be integers in range\(2\)$"):
        make(group, data)


@pytest.mark.parametrize("make, data", [
    (GroupAction, np.array([[0, 1], [1, 0]])),
    (Representation, np.array([np.eye(2), np.eye(2)[::-1]])),
])
def test_a_table_that_is_not_square_is_refused(make, data):
    group = FiniteGroup(table=np.array([[0, 1, 1], [1, 0, 0]]))
    with pytest.raises(ValueError, match=r"^table of shape \(2, 3\), expected \(order, order\)$"):
        make(group, data)


def test_action_accepts_integral_floats():
    group, action = group_from_generators(4, [(np.arange(4) + 1) % 4])
    accepted = GroupAction(group, action.perms.astype(float))
    assert accepted.perms.dtype.kind == "i"
    assert np.array_equal(accepted.perms, action.perms)


@pytest.mark.parametrize("make, data, shape", [
    (GroupAction, np.arange(4), r"\(order=4, n\)"),
    (Representation, np.zeros(4), r"\(order=4, d, d\)"),
    (Representation, np.zeros((4, 2, 3)), r"\(order=4, d, d\)"),
])
def test_wrong_shapes_name_the_expected_shape(make, data, shape):
    group, _ = group_from_generators(4, [(np.arange(4) + 1) % 4])
    with pytest.raises(ValueError, match=shape):
        make(group, data)


@st.composite
def corrupted_regular_representations(draw):
    """Regular representation of the closure of up to three permutations of
    at most four points, with possibly one matrix, a generator's or not,
    replaced by another element's or by zero, or with one entry moved."""
    d = draw(st.integers(1, 4))
    gens = draw(st.lists(st.permutations(range(d)), min_size=1, max_size=3))
    group, _ = group_from_generators(d, [np.array(g) for g in gens])
    matrices = regular_representation(group).matrices.copy()
    n = group.order
    kind = draw(st.sampled_from(["none", "element", "zero", "entry"]))
    g = draw(st.integers(0, n - 1))
    if kind == "element":
        matrices[g] = matrices[draw(st.integers(0, n - 1))]
    elif kind == "zero":
        matrices[g] = 0.0
    elif kind == "entry":
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        matrices[g, a, b] += draw(st.sampled_from([-1.0, 1.0, 1e-3, 1e-12]))
    return group, matrices


@given(corrupted_regular_representations())
@settings(max_examples=150, deadline=None)
def test_representation_check_matches_all_pairs_oracle(case):
    group, matrices = case
    # [i, j]: rho(g_i) rho(g_j) against rho(g_i g_j), every pair
    products = np.einsum("iab,jbc->ijac", matrices, matrices)
    broken = ~np.all(np.isclose(products, matrices[group.table], atol=1e-10), axis=(2, 3))
    unit = np.allclose(matrices[0], np.eye(group.order), atol=1e-10)
    if unit and not broken.any():
        Representation(group, matrices)
        return
    with pytest.raises(ValueError) as caught:
        Representation(group, matrices)
    if not unit:  # the zero map of the trivial group breaks no pair
        assert str(caught.value) == "rho(identity) must be the identity matrix"
        return
    witness = re.fullmatch(r"homomorphism fails at \((\d+), (\d+)\)", str(caught.value))
    i, j = int(witness[1]), int(witness[2])
    assert broken[i, j] and j in _generating_set(group.table, 0)


def test_a_table_alone_derives_its_inverses_for_convolution():
    closed, action = group_from_generators(4, [(np.arange(4) + 1) % 4])
    group = FiniteGroup(table=closed.table)
    x, theta = np.random.default_rng(12).standard_normal((2, 4))
    out = group_self_convolve(x, theta, group)
    assert out.shape == (4,) and np.array_equal(out, group_self_convolve(x, theta, closed))
    out = group_convolve(x, theta, GroupAction(group, action.perms))
    assert out.shape == (4,) and np.array_equal(out, group_convolve(x, theta, action))
    assert np.array_equal(group.inverses, [0, 3, 2, 1])

class TestRegularRepresentation:
    def test_trivial_group(self):
        group, _ = group_from_generators(1, [np.array([0])])
        rep = regular_representation(group)
        assert rep.matrices.shape == (1, 1, 1)
        assert rep.matrices[0, 0, 0] == 1.0

    def test_z2_swap(self):
        group, _ = group_from_generators(2, [np.array([1, 0])])
        rep = regular_representation(group)
        assert np.array_equal(rep.matrices[0], np.eye(2))
        assert np.array_equal(rep.matrices[1], np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_d3_products_match_table(self):
        group, _ = group_from_generators(3, [np.array([1, 2, 0]), np.array([1, 0, 2])])
        rep = regular_representation(group)
        for i in range(6):
            for j in range(6):
                prod = rep.matrices[i] @ rep.matrices[j]
                assert np.array_equal(prod, rep.matrices[group.table[i, j]])


class TestGroupConvolve:
    def test_cyclic_reduces_to_cross_correlation(self):
        n = 8
        rng = np.random.default_rng(3)
        x = rng.standard_normal(n)
        theta = rng.standard_normal(n)
        group, action = group_from_generators(n, [(np.arange(n) + 1) % n])
        out = group_convolve(x, theta, action)
        # element g_k acts by u -> u + k; match each element to its step
        expected = gs.cross_correlate(x, theta)
        for g in range(n):
            step = int(action.perms[g][0])  # image of position 0 gives the shift
            assert abs(out[g] - expected[step]) <= 1e-12

    def test_matched_filter_at_identity(self):
        n = 5
        x = np.random.default_rng(4).standard_normal(n)
        group, action = group_from_generators(n, [(np.arange(n) + 1) % n])
        out = group_convolve(x, x, action)
        assert abs(out[group.identity] - np.dot(x, x)) <= 1e-12

    def test_d3_against_brute_force(self):
        group, action = group_from_generators(3, [np.array([1, 2, 0]), np.array([1, 0, 2])])
        rng = np.random.default_rng(5)
        x = rng.standard_normal(3)
        theta = rng.standard_normal(3)
        out = group_convolve(x, theta, action)
        for g in range(group.order):
            ginv = group.inverses[g]
            brute = sum(x[u] * theta[action.perms[ginv][u]] for u in range(3))
            assert abs(out[g] - brute) <= 1e-12

    @pytest.mark.parametrize("generators,domain", [
        ([np.array([1, 2, 0]), np.array([1, 0, 2])], 3),
        (cube_rotation_generators(), 27),
    ])
    def test_equivariance_exhaustive(self, generators, domain):
        group, action = group_from_generators(domain, generators)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(domain)
        theta = rng.standard_normal(domain)
        base = group_convolve(x, theta, action)
        for h in range(group.order):
            hinv = group.inverses[h]
            translated = x[action.perms[hinv]]  # (rho(h) x)(u) = x(h^{-1} u)
            shifted = group_convolve(translated, theta, action)
            # (rho(h) x * theta)(g) = (x * theta)(h^{-1} g)
            expected = base[group.table[hinv]]
            assert np.max(np.abs(shifted - expected)) <= 1e-12


class TestGroupSelfConvolve:
    def test_identity_filter(self):
        group, _ = group_from_generators(4, [(np.arange(4) + 1) % 4])
        x = np.random.default_rng(7).standard_normal(4)
        delta = np.zeros(4)
        delta[group.identity] = 1.0
        assert np.allclose(group_self_convolve(x, delta, group), x)

    def test_trivial_group_scalar_product(self):
        group, _ = group_from_generators(1, [np.array([0])])
        out = group_self_convolve(np.array([3.0]), np.array([2.0]), group)
        assert np.array_equal(out, np.array([6.0]))

    def test_d3_brute_force(self):
        group, _ = group_from_generators(3, [np.array([1, 2, 0]), np.array([1, 0, 2])])
        rng = np.random.default_rng(8)
        x = rng.standard_normal(6)
        theta = rng.standard_normal(6)
        out = group_self_convolve(x, theta, group)
        for g in range(6):
            brute = sum(x[h] * theta[group.table[group.inverses[g], h]] for h in range(6))
            assert abs(out[g] - brute) <= 1e-12


    @pytest.mark.parametrize("generators,domain", [
        ([np.array([1, 2, 0]), np.array([1, 0, 2])], 3),
        (cube_rotation_generators(), 27),
        ([(np.arange(240) + 1) % 240], 240),
    ])
    def test_equals_the_table_gather(self, generators, domain):
        # oracle: the gather of the former separate implementation
        group, _ = group_from_generators(domain, generators)
        x, theta = np.random.default_rng(domain).standard_normal((2, group.order))
        expected = theta[group.table[group.inverses]] @ x
        assert np.array_equal(group_self_convolve(x, theta, group), expected)

    @pytest.mark.parametrize("table, reason", [
        # identity row but a non-associative product: (1 1) 2 = 0, 1 (1 2) = 1
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "action not compatible with composition"),
        ([[1, 0], [0, 1]], "identity must act as the identity permutation"),
        # a monoid: element 1 has no inverse, and its row is no permutation
        ([[0, 1], [1, 1]], r"perms row 1 is not a permutation of range\(2\)"),
    ])
    def test_a_table_that_is_no_group_is_refused(self, table, reason):
        group = FiniteGroup(table=np.array(table))
        x = np.ones(group.order)
        with pytest.raises(ValueError, match=reason):
            group_self_convolve(x, x, group)


class TestTransformConvolve:
    def test_trivial_subgroup_is_plain_correlation(self):
        n = 8
        rng = np.random.default_rng(9)
        x = rng.standard_normal((n, 1))
        theta = rng.standard_normal((n, 1))
        out = transform_convolve(x, theta, [np.arange(n)])
        expected = gs.cross_correlate(x[:, 0], theta[:, 0])
        assert np.allclose(out[0], expected, atol=1e-12)

    def test_reverse_complement_channel_swap(self):
        # outputs for a sequence and its reverse complement agree after
        # swapping orientation channels and reversing the position index
        x1 = dna_one_hot("ACCCTGG")
        x2 = dna_one_hot("CCAGGGT")
        n = x1.shape[0]
        rng = np.random.default_rng(10)
        theta = rng.integers(-4, 5, size=(n, 4)).astype(float)
        perms = [np.arange(n * 4), dna_reverse_complement_permutation(n)]
        out1 = transform_convolve(x1, theta, perms)
        out2 = transform_convolve(x2, theta, perms)
        assert np.array_equal(out2[0], out1[1][(-np.arange(n)) % n])
        assert np.array_equal(out2[1], out1[0][(-np.arange(n)) % n])

    def test_matches_group_convolution_bitwise(self):
        n = 6
        rng = np.random.default_rng(11)
        x = rng.integers(-3, 4, size=(n, 4)).astype(float)
        theta = rng.integers(-3, 4, size=(n, 4)).astype(float)
        h_perms = [np.arange(n * 4), dna_reverse_complement_permutation(n)]
        stack = transform_convolve(x, theta, h_perms)
        gens = [translation_permutation(n, 4, 1), dna_reverse_complement_permutation(n)]
        group, action = group_from_generators(n * 4, gens)
        direct = group_convolve(x.reshape(-1), theta.reshape(-1), action)
        # match each group element to (translation step k, subgroup row h)
        matched = 0
        for g in range(group.order):
            for row, h_perm in enumerate(h_perms):
                for k in range(n):
                    t = translation_permutation(n, 4, k)
                    if np.array_equal(action.perms[g], t[h_perm]):
                        assert direct[g] == stack[row, k]
                        matched += 1
        assert matched == group.order

    def test_non_normalising_permutation_rejected(self):
        n = 6
        bad = np.arange(n * 4)
        bad[[0, 5]] = bad[[5, 0]]  # arbitrary transposition: not in the normaliser
        with pytest.raises(ValueError, match="normalise"):
            transform_convolve(np.ones((n, 4)), np.ones((n, 4)), [bad])


def test_cayley_table_json_round_trip():
    group, _ = group_from_generators(3, [np.array([1, 2, 0]), np.array([1, 0, 2])])
    table = cayley_table_json(group)
    assert len(table) == 6 and all(len(row) == 6 for row in table)
    assert table == np.array(group.table).tolist()
