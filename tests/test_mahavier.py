import random
from fractions import Fraction
from itertools import product

import pytest

import oracles
from crspec import (
    BiEPSequence,
    EPSequence,
    FiniteMetricSpace,
    FiniteRelation,
    NoPreimageError,
    ShiftSpace,
    TransitionMatrix,
    mixing_index,
)
from crspec.randgen import random_finite_space

F = Fraction


class TestAdmissibleWords:
    def test_golden_mean_length_two(self, golden_space):
        assert golden_space.admissible_words(2) == [(0, 0), (0, 1), (1, 0)]

    def test_length_one_is_the_alphabet(self, golden_space):
        assert golden_space.admissible_words(1) == [(0,), (1,)]

    def test_full_shift_unconstrained(self, full_space):
        assert len(full_space.admissible_words(3)) == 8

    def test_counts_match_matrix_powers(self, golden_space, full_space):
        for space in (golden_space, full_space):
            expected = oracles.path_counts(space.relation.adjacency, 10)
            got = [len(space.admissible_words(k)) for k in range(1, 11)]
            assert got == expected

    def test_counts_on_random_relations(self):
        rng = random.Random(41)
        for _ in range(15):
            n = rng.randint(2, 5)
            space = FiniteMetricSpace.discrete(n)
            pairs = [
                (i, j) for i in range(n) for j in range(n) if rng.random() < 0.5
            ]
            if not pairs:
                pairs = [(0, 0)]
            relation = FiniteRelation.from_pairs(space, pairs)
            shift = ShiftSpace.of(relation)
            expected = oracles.path_counts(relation.adjacency, 6)
            got = [len(shift.admissible_words(k)) for k in range(1, 7)]
            assert got == expected


class TestEPSequence:
    def test_shift_consumes_preperiod(self):
        seq = EPSequence((0,), (1,))
        assert seq.shift() == EPSequence((), (1,))

    def test_shift_rotates_cycle(self):
        seq = EPSequence((), (0, 1))
        assert seq.shift() == EPSequence((), (1, 0))

    def test_periodicity_of_shifts(self, full_space):
        rng = random.Random(5)
        for _ in range(40):
            pre = tuple(rng.randrange(2) for _ in range(rng.randint(0, 4)))
            cyc = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
            seq = full_space.sequence(pre, cyc)
            p, c = len(seq.preperiod), len(seq.cycle)
            assert seq.shifted(p + c) == seq.shifted(p)

    def test_canonical_form_absorbs_tail(self):
        assert EPSequence((0, 1), (1,)) == EPSequence((0,), (1,))
        assert EPSequence((), (1, 0, 1, 0)) == EPSequence((), (1, 0))

    def test_symbols_read_through_cycle(self):
        seq = EPSequence((0,), (1, 0))
        assert [seq.symbol(m) for m in range(1, 6)] == [0, 1, 0, 1, 0]

    def test_inadmissible_rejected(self, golden_space):
        with pytest.raises(ValueError):
            golden_space.sequence((), (1, 1))
        with pytest.raises(ValueError):
            golden_space.sequence((1,), (1, 0))


class TestShiftStability:
    def test_shift_preserves_admissibility(self, golden_space):
        rng = random.Random(19)
        for _ in range(40):
            length = rng.randint(1, 3)
            cyc = rng.choice(
                [w for w in golden_space.admissible_words(length)
                 if golden_space.relation.adjacency[w[-1]][w[0]]]
            )
            prefixes = [
                w for w in golden_space.admissible_words(rng.randint(1, 3))
                if golden_space.relation.adjacency[w[-1]][cyc[0]]
            ]
            pre = rng.choice(prefixes) if prefixes else ()
            seq = golden_space.sequence(pre, cyc)
            for _ in range(6):
                seq = seq.shift()
                # revalidation through the checked constructor must succeed
                golden_space.sequence(seq.preperiod, seq.cycle)


class TestBiEPSequence:
    def test_constant_is_shift_invariant(self, full_space):
        seq = full_space.bisequence((0,), (), (0,))
        assert seq.shift("forward").same_sequence(seq)

    def test_forward_backward_identity(self, full_space):
        seq = full_space.bisequence((0,), (1, 0, 1), (1,))
        assert seq.shift("forward").shift("backward") == seq

    def test_marker_moves_one_position(self, full_space):
        seq = full_space.bisequence((0,), (1, 0, 1), (1,))
        moved = seq.shift("forward")
        for p in range(-5, 8):
            assert moved.symbol(p) == seq.symbol(p + 1)

    def test_inadmissible_junction_rejected(self, golden_space):
        with pytest.raises(ValueError):
            golden_space.bisequence((0,), (1, 1), (0,))


class TestSupMetric:
    def test_equal_sequences(self, full_space):
        seq = full_space.sequence((0, 1), (0,))
        assert full_space.sup_metric(seq, seq) == 0

    def test_constant_sequences_differ_at_first_position(self, full_space):
        zeros = full_space.sequence((), (0,))
        ones = full_space.sequence((), (1,))
        assert full_space.sup_metric(zeros, ones) == F(1, 2)

    def test_single_leading_difference(self, full_space):
        s = full_space.sequence((0,), (1,))
        ones = full_space.sequence((), (1,))
        assert full_space.sup_metric(s, ones) == F(1, 2)

    def test_late_difference_weighted_down(self, full_space):
        s = full_space.sequence((0, 0, 0, 1), (0,))
        zeros = full_space.sequence((), (0,))
        assert full_space.sup_metric(s, zeros) == F(1, 16)

    def test_metric_axioms_on_random_triples(self, full_space):
        rng = random.Random(9)
        seqs = [
            full_space.sequence(
                tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))),
                tuple(rng.randrange(2) for _ in range(rng.randint(1, 3))),
            )
            for _ in range(25)
        ]
        for _ in range(120):
            a, b, c = rng.choice(seqs), rng.choice(seqs), rng.choice(seqs)
            dab = full_space.sup_metric(a, b)
            assert dab <= 1
            assert dab == full_space.sup_metric(b, a)
            assert (dab == 0) == (a == b)
            assert full_space.sup_metric(a, c) <= dab + full_space.sup_metric(b, c)

    def test_metric_rescaled_to_unit_diameter(self):
        wide = FiniteMetricSpace(((F(0), F(3)), (F(3), F(0))))
        relation = FiniteRelation.from_pairs(wide, [(0, 1), (1, 0), (0, 0), (1, 1)])
        shift = ShiftSpace.of(relation)
        assert shift.scale == 3
        assert shift.metric.diameter() == 1


class TestMixing:
    def test_all_ones_is_immediately_positive(self, full_space):
        assert mixing_index(full_space.transition_matrix(), 5) == 1

    def test_permutation_never_mixes(self, two_points):
        swap = FiniteRelation.from_pairs(two_points, [(0, 1), (1, 0)])
        assert mixing_index(TransitionMatrix.of(swap), 12) is None
        assert mixing_index(TransitionMatrix.of(swap), 10**12) is None

    def test_golden_mean_mixes_at_two(self, golden_space):
        assert mixing_index(golden_space.transition_matrix(), 5) == 2
        assert not oracles.matrix_power_positive(golden_space.relation.adjacency, 1)
        assert oracles.matrix_power_positive(golden_space.relation.adjacency, 2)

    def test_wielandt_matrix_needs_the_full_bound(self):
        # i -> i+1, and the last point back to 0 and 1: exponent (n-1)^2 + 1
        n = 5
        pairs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0), (n - 1, 1)]
        relation = FiniteRelation.from_pairs(FiniteMetricSpace.discrete(n), pairs)
        assert oracles.matrix_power_positive(relation.adjacency, 17)
        assert not oracles.matrix_power_positive(relation.adjacency, 16)
        matrix = TransitionMatrix.of(relation)
        assert mixing_index(matrix, 16) is None
        assert mixing_index(matrix, 17) == mixing_index(matrix, 10**12) == 17

    def test_witness_words_exist_at_the_index(self, golden_space):
        matrix = golden_space.transition_matrix()
        t = mixing_index(matrix, 5)
        for a in range(2):
            for b in range(2):
                word = matrix.path_witness(a, b, t)
                assert len(word) == t + 1
                assert word[0] == a and word[-1] == b
                assert golden_space.is_admissible(word)

    def test_witness_raises_when_unreachable(self, two_points):
        swap = FiniteRelation.from_pairs(two_points, [(0, 1), (1, 0)])
        with pytest.raises(NoPreimageError):
            TransitionMatrix.of(swap).path_witness(0, 0, 1)


class TestTraceCheck:
    def test_base_traces_itself(self, golden_space):
        base = golden_space.sequence((), (0, 1))
        report = golden_space.trace_check(((base, 0, 3),), base, 0)
        assert report.passed
        assert all(e.distance == 0 for e in report.entries)

    def test_spliced_prefix_example(self, full_space):
        zeros = full_space.sequence((), (0,))
        ones = full_space.sequence((), (1,))
        y = full_space.sequence((0, 0, 0, 0, 0), (1,))
        spec = ((zeros, 0, 1), (ones, 5, 6))
        report = full_space.trace_check(spec, y, F(1, 4))
        assert report.passed
        assert report.entry(1, 0).distance == F(1, 64)
        assert report.entry(1, 1).distance == F(1, 32)
        assert report.entry(2, 5).distance == 0

    def test_wrong_head_fails_at_the_first_entry(self, full_space):
        zeros = full_space.sequence((), (0,))
        ones = full_space.sequence((), (1,))
        spec = ((zeros, 0, 1), (ones, 5, 6))
        report = full_space.trace_check(spec, ones, F(1, 4))
        assert not report.passed
        assert report.entry(1, 0).distance == F(1, 2)


class TestSpliceTracer:
    def test_matches_enumeration_on_the_full_shift(self, full_space):
        rng = random.Random(77)
        for _ in range(25):
            bases = []
            for _ in range(2):
                pre = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
                cyc = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
                bases.append(full_space.sequence(pre, cyc))
            k1 = rng.randint(0, 1)
            l1 = k1 + rng.randint(0, 1)
            k2 = l1 + 3
            l2 = k2 + rng.randint(0, 1)
            spec = ((bases[0], k1, l1), (bases[1], k2, l2))
            y = full_space.splice_tracer(spec, F(1, 4))
            assert full_space.trace_check(spec, y, F(1, 4)).passed
            found = oracles.find_ep_tracer(full_space, spec, F(1, 4), 12, 4)
            assert found is not None

    def test_golden_mean_connection_uses_admissible_words(self, golden_space):
        zeros = golden_space.sequence((), (0,))
        alt = golden_space.sequence((0,), (1, 0))
        spec = ((zeros, 0, 1), (alt, 5, 6))
        y = golden_space.splice_tracer(spec, F(1, 4))
        assert golden_space.trace_check(spec, y, F(1, 4)).passed
        horizon = len(y.preperiod) + 2 * len(y.cycle)
        word = tuple(y.symbol(m) for m in range(1, horizon + 1))
        assert golden_space.is_admissible(word)


class TestFunctionCollapse:
    def test_single_sequence_per_start_and_verdict_transfer(self, two_points):
        swap = FiniteRelation.from_pairs(two_points, [(0, 1), (1, 0)])
        assert swap.is_function()
        shift = ShiftSpace.of(swap)
        fmap = [row.index(True) for row in swap.adjacency]

        def embed(x):
            # the unique admissible sequence starting at x
            first = x
            second = fmap[x]
            return shift.sequence((), (first, second) if first != second else (first,))

        rng = random.Random(3)
        for _ in range(30):
            x, y = rng.randrange(2), rng.randrange(2)
            k = rng.randint(0, 2)
            l = k + rng.randint(0, 2)
            spec = ((embed(x), k, l),)
            eps = F(rng.randint(1, 4), 4)
            report = shift.trace_check(spec, embed(y), eps)
            for e in report.entries:
                fx, fy = x, y
                for _ in range(e.step):
                    fx, fy = fmap[fx], fmap[fy]
                classical = two_points.d(fy, fx)
                # the swap map is an isometry, so orbit distances are
                # constant and the weighted metric is exactly half of them
                assert e.distance == classical / 2
                if report.passed:
                    assert classical <= 2 * eps


def _seeded_shifts(seed, count=20):
    """Shift spaces of random relations on at most 6 points; some rows may be dead."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        space = random_finite_space(rng, n)
        pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.4]
        yield rng, ShiftSpace.of(FiniteRelation.from_pairs(space, pairs or [(0, 0)]))


def _random_sequence(rng, shift):
    """A random admissible eventually periodic sequence, or None."""
    adj = shift.relation.adjacency
    for _ in range(50):
        cyc = tuple(rng.randrange(shift.n) for _ in range(rng.randint(1, 3)))
        pre = tuple(rng.randrange(shift.n) for _ in range(rng.randint(0, 3)))
        word = pre + cyc + cyc[:1]
        if all(adj[a][b] for a, b in zip(word, word[1:])):
            return shift.sequence(pre, cyc)
    return None


class TestKernelsAgainstDefinitions:
    def test_admissible_words_are_the_filtered_product(self):
        for _, shift in _seeded_shifts(3):
            adj = shift.relation.adjacency
            for length in range(1, 5):
                want = [
                    w for w in product(range(shift.n), repeat=length)
                    if all(adj[a][b] for a, b in zip(w, w[1:]))
                ]
                assert shift.admissible_words(length) == want

    def test_mixing_index_is_the_first_positive_power(self):
        for _, shift in _seeded_shifts(4, count=40):
            adj = shift.relation.adjacency
            want = next(
                (t for t in range(1, 9) if oracles.matrix_power_positive(adj, t)), None
            )
            assert mixing_index(shift.transition_matrix(), 8) == want

    def test_shifted_is_repeated_shift(self):
        for rng, shift in _seeded_shifts(5):
            seq = _random_sequence(rng, shift)
            if seq is None:
                continue
            stepped = seq
            for j in range(len(seq.preperiod) + 3 * len(seq.cycle) + 1):
                assert seq.shifted(j) == stepped
                stepped = stepped.shift()

    def test_sup_metric_from_the_metric_matrix(self):
        checked = 0
        for rng, shift in _seeded_shifts(6, count=30):
            dist = shift.metric.dist
            for _ in range(6):
                s, t = _random_sequence(rng, shift), _random_sequence(rng, shift)
                if s is None or t is None:
                    continue
                # terms repeat with halving weights after one joint period,
                # so the maximum is attained within it
                horizon = max(len(s.preperiod), len(t.preperiod)) + len(s.cycle) * len(t.cycle)
                word_s = s.preperiod + s.cycle * horizon
                word_t = t.preperiod + t.cycle * horizon
                want = max(
                    dist[word_s[m - 1]][word_t[m - 1]] / 2**m for m in range(1, horizon + 1)
                )
                assert shift.sup_metric(s, t) == want
                checked += 1
        assert checked > 50

    def test_trace_check_builds_as_many_sequences_at_any_exponent(
        self, golden_space, monkeypatch
    ):
        built = []
        original = EPSequence.__post_init__

        def counting(seq):
            built.append(seq)
            original(seq)

        monkeypatch.setattr(EPSequence, "__post_init__", counting)
        base = golden_space.sequence((0, 1), (0, 0, 1))
        y = golden_space.sequence((1,), (0,))

        def sequences_built(first):
            built.clear()
            golden_space.trace_check(((base, first, first + 1),), y, F(1, 4))
            return len(built)

        assert sequences_built(10) == sequences_built(10**5)
