import random
from fractions import Fraction
from itertools import chain, product

import pytest

import oracles
import crspec.mahavier
import crspec.relations
from crspec import (
    BadRangeError,
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

    def test_one_join_per_word(self, monkeypatch, golden_space):
        # every word of two or more symbols is one call of the module's add, a
        # prefix joined to a suffix, and no call joins anything else
        joins = []

        def counting(prefix, suffix):
            joins.append(None)
            return prefix + suffix

        monkeypatch.setattr(crspec.mahavier, "add", counting)
        for shift in (golden_space, *_benchmark_scale_shifts(32, count=1)):
            for length in range(1, 8):
                joins.clear()
                words = shift.admissible_words(length)
                assert len(joins) == (len(words) if length >= 2 else 0)


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

    def test_symbols_outside_the_space_refused(self, full_space):
        calls = (
            lambda: full_space.sequence((-1,), (0,)),
            lambda: full_space.sequence((), (-3,)),
            lambda: full_space.sequence((), (5,)),
            lambda: full_space.is_admissible((-1, 0)),
            lambda: full_space.is_admissible((0, 2)),
            lambda: full_space.sup_metric(EPSequence((), (-1,)), EPSequence((), (1,))),
            lambda: full_space.sup_metric(EPSequence((), (0,)), EPSequence((1,), (2,))),
            lambda: full_space.trace_check(((EPSequence((), (0,)), 0, 1),), EPSequence((), (-1,)), 1),
            lambda: full_space.splice_tracer(
                ((EPSequence((), (0,)), 0, 1), (EPSequence((-1,), (0,)), 5, 6)), F(1, 4)
            ),
        )
        for call in calls:
            with pytest.raises(ValueError, match="out of range 0..1"):
                call()

    @pytest.mark.parametrize("symbol", [-1, 2], ids=["minus-one", "n"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda space, bad: space.sequence((), (0, bad)),
            lambda space, bad: space.sup_metric(EPSequence((), (0,)), EPSequence((0,), (bad,))),
            lambda space, bad: space.trace_check(((EPSequence((), (bad,)), 0, 1),), EPSequence((), (0,)), 1),
            lambda space, bad: space.splice_tracer(((EPSequence((bad,), (0,)), 0, 1),), F(1, 4)),
        ],
        ids=["sequence", "sup_metric", "trace_check", "splice_tracer"],
    )
    def test_each_check_refuses_the_symbols_just_outside(self, full_space, call, symbol):
        # the full 2-shift: -1 and n = 2 are the nearest symbols that are not points
        with pytest.raises(ValueError, match=f"symbol {symbol} out of range 0..1"):
            call(full_space, symbol)

    def test_an_empty_spec_is_refused(self, full_space):
        ones = full_space.sequence((), (1,))
        calls = (
            lambda: full_space.trace_check((), ones, F(1, 4)),
            lambda: full_space.splice_tracer((), F(1, 4)),
        )
        for call in calls:
            with pytest.raises(ValueError, match="^a specification needs at least one segment$"):
                call()

    @pytest.mark.parametrize(
        "first, last, message",
        [(-2, 0, "^segment exponent -2 is negative$"), (6, 5, r"^segment range \[6, 5\] is empty$")],
    )
    def test_a_bad_segment_range_is_refused(self, full_space, first, last, message):
        zeros = full_space.sequence((), (0,))
        ones = full_space.sequence((), (1,))
        for spec in (((zeros, first, last),), ((zeros, 0, 1), (ones, first, last))):
            with pytest.raises(BadRangeError, match=message):
                full_space.trace_check(spec, ones, F(1, 4))
            with pytest.raises(BadRangeError, match=message):
                full_space.splice_tracer(spec, F(1, 4))


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
        # the two constant sequences are 3 apart at every position: 3 / (3 * 2)
        assert shift.sup_metric(shift.sequence((), (0,)), shift.sequence((), (1,))) == F(1, 2)

    def test_words_build_no_metric_grid(self):
        """The scale is read on first use, so enumerating words never builds
        the ambient metric's grid."""
        space = FiniteMetricSpace(((F(0), F(3)), (F(3), F(0))))
        relation = FiniteRelation.from_pairs(space, [(0, 1), (1, 0), (0, 0)])
        assert len(ShiftSpace.of(relation).admissible_words(4)) == 8
        assert "grid" not in relation.space.__dict__

    @staticmethod
    def line_shift():
        """The full shift over the points 0, 1, 2, 4 of a line: scale 4, so the
        normalized distances from point 0 are 1/4, 1/2 and 1."""
        at = (0, 1, 2, 4)
        space = FiniteMetricSpace(tuple(tuple(F(abs(p - q)) for q in at) for p in at))
        return ShiftSpace.of(FiniteRelation.from_pairs(space, product(range(4), repeat=2)))

    def test_a_later_term_can_beat_a_first_term_of_one_eighth(self):
        shift = self.line_shift()
        zeros = shift.sequence((), (0,))
        # terms 1/4 / 2 = 1/8 at position 1, then 1 / 4 = 1/4 at position 2
        assert shift.sup_metric(zeros, shift.sequence((1,), (3,))) == F(1, 4)
        assert shift.sup_metric(shift.sequence((1,), (3,)), zeros) == F(1, 4)

    def test_the_scan_stops_once_the_tail_cannot_win(self, monkeypatch):
        shift = self.line_shift()
        zeros, twos = shift.sequence((), (0,)), shift.sequence((), (2,))
        read = []
        original = EPSequence.symbol

        def counting(seq, m):
            read.append(m)
            return original(seq, m)

        monkeypatch.setattr(EPSequence, "symbol", counting)
        # the first term is 1/2 / 2 = 1/4, and no later term exceeds 2^-2
        assert shift.sup_metric(zeros, twos) == F(1, 4)
        assert read == [1, 1]


class TestMixing:
    def test_all_ones_is_immediately_positive(self, full_space):
        assert mixing_index(full_space.relation, 5) == 1

    def test_permutation_never_mixes(self, two_points):
        swap = FiniteRelation.from_pairs(two_points, [(0, 1), (1, 0)])
        assert mixing_index(TransitionMatrix.of(swap), 12) is None
        assert mixing_index(TransitionMatrix.of(swap), 10**12) is None

    def test_golden_mean_mixes_at_two(self, golden_space):
        assert mixing_index(golden_space.relation, 5) == 2
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
        t = mixing_index(golden_space.relation, 5)
        ends = {(word[0], word[-1]) for word in golden_space.admissible_words(t + 1)}
        assert ends == set(product(range(2), repeat=2))


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

    def test_unreachable_connection_raises(self, two_points):
        swap = ShiftSpace.of(FiniteRelation.from_pairs(two_points, [(0, 1), (1, 0)]))
        # position 1 must hold 0, so position 3 holds 0; the final base puts 1 there
        spec = ((swap.sequence((), (0, 1)), 0, 0), (swap.sequence((), (1, 0)), 2, 2))
        with pytest.raises(NoPreimageError, match="no admissible connection into position 3"):
            swap.splice_tracer(spec, F(1, 4))

    def test_matches_the_position_by_position_reference(self):
        # 2,400 seeded instances: n = 2..6 with dead symbols, 1-3 segments, gaps 0-6
        rng = random.Random(2113)
        outcomes = set()
        for _ in range(2400):
            n = rng.randint(2, 6)
            dead = set(rng.sample(range(n), rng.randint(0, n - 1)))
            adjacency = [[i not in dead and rng.random() < 0.4 for _ in range(n)] for i in range(n)]
            shift = ShiftSpace.of(FiniteRelation(FiniteMetricSpace.discrete(n), adjacency))
            spec, first = [], rng.randint(0, 3)
            for _ in range(rng.randint(1, 3)):
                last = first + rng.randint(0, 2)
                pre = tuple(rng.randrange(n) for _ in range(rng.randint(0, 2)))
                cycle = tuple(rng.randrange(n) for _ in range(rng.randint(1, 3)))
                spec.append((EPSequence(pre, cycle), first, last))
                first = last + rng.randint(0, 6)
            eps = rng.choice([F(1, 2), F(1, 3), F(1, 4), F(1, 8)])
            got, want = _outcome(shift.splice_tracer, spec, eps), _outcome(_reference_splice, shift, spec, eps)
            assert got == want, (adjacency, spec, eps)
            outcomes.add(want[0] if want[0] == "witness" else want[1].split(" position")[0])
        # witnesses, connections that die or miss, conflicts and overruns all occur
        assert len(outcomes) == 4

    @staticmethod
    def _image_calls(monkeypatch, pairs, space, spec_of):
        """How many finite images a refused splice computes, and its error text.

        The relation is built from pairs once ``relations._finite_image``, which
        its sweep's step calls, is counted; ``spec_of`` makes the spec on its shift.
        """
        calls = []
        image = crspec.relations._finite_image
        with monkeypatch.context() as patch, pytest.raises(NoPreimageError) as refused:
            patch.setattr(crspec.relations, "_finite_image", lambda *args: calls.append(args[-1]) or image(*args))
            shift = ShiftSpace.of(FiniteRelation.from_pairs(space, pairs))
            shift.splice_tracer(spec_of(shift), F(1, 4))
        return len(calls), str(refused.value)

    def test_a_refutation_costs_the_same_at_any_gap(self, two_points, monkeypatch):
        counts = set()
        for k in (10**3, 10**9):
            calls, message = self._image_calls(
                monkeypatch,
                [(0, 1), (1, 0)],
                two_points,
                lambda swap: ((swap.sequence((), (0, 1)), 0, 0), (swap.sequence((), (1, 0)), k, k)),
            )
            assert message == f"no admissible connection into position {k + 1}"
            counts.add(calls)
        assert len(counts) == 1

    def test_a_connection_that_dies_names_its_death_step(self, monkeypatch):
        # 0 -> 1 -> 2 -> nothing, and 3 -> 0 or 3: the window at position a = k + 1
        # holds 0, so position a + 3 opens no symbol, however far off the final segment
        k = 10**9
        pairs = [(0, 1), (1, 2), (3, 0), (3, 3)]
        zeros = EPSequence((), (0,))
        calls, message = self._image_calls(
            monkeypatch, pairs, FiniteMetricSpace.discrete(4), lambda _: ((zeros, k, k), (zeros, 2 * k, 2 * k))
        )
        assert message == f"no admissible connection into position {k + 4}"
        # F(X) = X, then F({1}) and the empty F({2}); F(0) is read off the successor lists
        assert calls == 3


def _outcome(call, *args):
    """A splice's (preperiod, cycle), or the text of the NoPreimageError it raises."""
    try:
        y = call(*args)
    except NoPreimageError as refused:
        return "refused", str(refused)
    return "witness", y.preperiod, y.cycle


def _reference_splice(shift, spec, eps):
    """splice_tracer as it stood before it read the relation's orbits: one
    feasible symbol set per position, each the union of the successor lists
    of the last, then a min-lex backtrack."""
    w = 0
    while Fraction(1, 2 ** (w + 1)) > eps:
        w += 1
    final_base, final_first, _ = spec[-1]
    tail = final_base.shifted(final_first)
    prefix_len = final_first
    fixed = {}
    for base, first, last in spec[:-1]:
        for pos in range(first + 1, last + w + 1):
            sym = base.symbol(pos)
            if fixed.get(pos, sym) != sym:
                raise NoPreimageError(f"segment windows conflict at position {pos}")
            fixed[pos] = sym
    if any(pos > prefix_len for pos in fixed):
        raise NoPreimageError("segment windows overrun the final segment")
    if prefix_len == 0:
        return tail
    adj = shift.relation.adjacency
    succ = shift.relation.successors
    feasible = [set()] * (prefix_len + 2)
    feasible[1] = {fixed[1]} if 1 in fixed else set(range(shift.n))
    for p in range(2, prefix_len + 2):
        reach = set().union(*(succ[a] for a in feasible[p - 1]))
        if p == prefix_len + 1:
            reach &= {tail.symbol(1)}
        elif p in fixed:
            reach &= {fixed[p]}
        feasible[p] = reach
        if not feasible[p]:
            raise NoPreimageError(f"no admissible connection into position {p}")
    word = [tail.symbol(1)]
    for p in range(prefix_len, 0, -1):
        word.append(min(a for a in feasible[p] if adj[a][word[-1]]))
    prefix = tuple(reversed(word))[:-1]
    return EPSequence(prefix + tail.preperiod, tail.cycle)


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


def _benchmark_scale_shifts(seed, count):
    """Shift spaces of random relations on 20 points, each pair an edge with probability 0.2."""
    rng = random.Random(seed)
    for _ in range(count):
        space = random_finite_space(rng, 20)
        pairs = [(i, j) for i in range(20) for j in range(20) if rng.random() < 0.2]
        yield ShiftSpace.of(FiniteRelation.from_pairs(space, pairs))


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
        # lengths 1..9 join the halves at every split h = L // 2, odd and even;
        # the product filter is the oracle up to length 4, where it stays
        # cheap, and a one-symbol-at-a-time extension at every length.  At the
        # benchmark's scale, 20 points of density 0.2, each prefix joins a list
        # of up to hundreds of suffixes; there the lengths are 1..7 and the
        # product filter stops at 3
        small = ((shift, 9, 4) for _, shift in _seeded_shifts(3, count=40))
        large = ((shift, 7, 3) for shift in _benchmark_scale_shifts(31, count=3))
        for shift, longest, filtered in chain(small, large):
            adj = shift.relation.adjacency
            succ = [[b for b in range(shift.n) if adj[a][b]] for a in range(shift.n)]
            extended = [(a,) for a in range(shift.n)]
            for length in range(1, longest + 1):
                got = shift.admissible_words(length)
                assert type(got) is list and all(type(w) is tuple for w in got)
                assert all(u < v for u, v in zip(got, got[1:]))
                assert got == extended
                if length <= filtered:
                    assert got == [
                        w for w in product(range(shift.n), repeat=length)
                        if all(adj[a][b] for a, b in zip(w, w[1:]))
                    ]
                extended = [w + (b,) for w in extended for b in succ[w[-1]]]

    def test_mixing_index_is_the_first_positive_power(self):
        for _, shift in _seeded_shifts(4, count=40):
            adj = shift.relation.adjacency
            want = next(
                (t for t in range(1, 9) if oracles.matrix_power_positive(adj, t)), None
            )
            assert mixing_index(shift.relation, 8) == want
            assert mixing_index(TransitionMatrix.of(shift.relation), 8) == want

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
            dist = [[v / shift.scale for v in row] for row in shift.relation.space.dist]
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

    def test_sup_metric_scans_do_not_grow_with_the_segment(self, full_space, monkeypatch):
        scans = []
        original = ShiftSpace.sup_metric

        def counting(space, s, t):
            scans.append((s, t))
            return original(space, s, t)

        monkeypatch.setattr(ShiftSpace, "sup_metric", counting)
        base = full_space.sequence((), (0, 1))
        y = full_space.sequence((), (0, 1, 1))

        def scanned(length):
            scans.clear()
            report = full_space.trace_check(((base, 0, length),), y, F(1, 4))
            assert len(report.entries) == length + 1
            return len(scans)

        assert scanned(10**2) == scanned(10**4) == 6

    def test_phase_memo_keeps_every_entry(self, golden_space, full_space):
        """Each entry equals the one built from its own shifts, segment by segment."""
        rng = random.Random(91)

        def sequence(space, words):
            """An admissible sequence with a preperiod of 0-3 and a cycle of 1-4 symbols."""
            while True:
                pre = rng.choice(words)[: rng.randint(0, 3)]
                cycle = rng.choice(words)[: rng.randint(1, 4)]
                try:
                    return space.sequence(pre, cycle)
                except ValueError:
                    continue

        for space in (golden_space, full_space):
            words = space.admissible_words(4)
            for _ in range(40):
                spec = [
                    (sequence(space, words), first, first + rng.randint(0, 12))
                    for first in rng.sample(range(8), 2)
                ]
                y = sequence(space, words)
                report = space.trace_check(spec, y, F(1, 4))
                expected = [
                    (i, j, space.sup_metric(y.shifted(j), base.shifted(j)), y.shifted(j), base.shifted(j))
                    for i, (base, first, last) in enumerate(spec, start=1)
                    for j in range(first, last + 1)
                ]
                assert [
                    (e.segment, e.step, e.distance, e.tracer_set, e.target_set) for e in report.entries
                ] == expected
