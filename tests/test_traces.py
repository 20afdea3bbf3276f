import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ball, check_monitor_monotone, gen_traces
from ledgerlab.core import UtxoSet, apply_tx
from ledgerlab.gen import graph_universe, make_proposer, make_scenario
from ledgerlab.graphs import (
    PartialSieveHom,
    SimpleGraph,
    build_ledger_graph,
    enumerate_paths,
    project_ledger_graph,
)
from ledgerlab.traces import (
    TracePrefix,
    check_non_expanding,
    generate_valid_traces,
    has_truncated_lift,
    monitor_trace,
    ultra_distance,
    validate_trace_prefix,
)


def plain(*states) -> TracePrefix:
    return TracePrefix(tuple(states))


class TestTracePrefix:
    def test_needs_a_state(self):
        with pytest.raises(ValueError):
            TracePrefix(())

    def test_annotation_arity(self):
        with pytest.raises(ValueError):
            TracePrefix(("a", "b"), annotations=())

    def test_head(self):
        p = TracePrefix(("a", "b", "c"), annotations=((1, "t1"), (2, "t2")))
        h = p.head(2)
        assert h.states == ("a", "b")
        assert h.annotations == ((1, "t1"),)
        with pytest.raises(ValueError):
            p.head(0)
        with pytest.raises(ValueError):
            p.head(4)


class TestUltraDistance:
    def test_identity_is_exact_zero(self):
        p = plain("a", "b")
        d = ultra_distance(p, p)
        assert d.exact and d.value == 0

    def test_equal_contents_are_only_bounded(self):
        d = ultra_distance(plain("a", "b"), plain("a", "b"))
        assert not d.exact
        assert d.value == Fraction(1, 4)

    def test_first_difference_sets_the_distance(self):
        assert ultra_distance(plain("a"), plain("b")).value == 1
        d = ultra_distance(plain("a", "b", "c"), plain("a", "b", "z"))
        assert d.exact and d.value == Fraction(1, 4)

    def test_symmetry(self):
        a, b = plain("a", "x"), plain("a", "y")
        assert ultra_distance(a, b) == ultra_distance(b, a)

    def test_shorter_prefix_bounds(self):
        d = ultra_distance(plain("a"), plain("a", "b"))
        assert not d.exact and d.value == Fraction(1, 2)


def strong_triangle_holds(a, b, c):
    """The strong triangle inequality on a triple whose three distances are
    exact: for sorted values v0 <= v1 <= v2, v2 <= max(v0, v1) = v1.  None
    when a distance is only a bound."""
    ds = [ultra_distance(x, y) for x, y in ((a, b), (b, c), (a, c))]
    if not all(d.exact for d in ds):
        return None
    v0, v1, v2 = sorted(d.value for d in ds)
    return v2 <= v1


class TestAxioms:
    def test_equilateral_triple(self):
        assert strong_triangle_holds(plain("a"), plain("b"), plain("c"))

    def test_isosceles_with_small_base(self):
        a = plain("x", "p", "1")
        b = plain("x", "p", "2")
        c = plain("x", "q", "1")
        # d(a,b)=1/4, d(a,c)=d(b,c)=1/2: the two largest are equal
        assert strong_triangle_holds(a, b, c)

    def test_inexact_triples_are_skipped(self):
        a = plain("x")
        b = plain("x", "y")
        c = plain("z")
        assert strong_triangle_holds(a, b, c) is None

    def test_generated_traces_satisfy_axioms(self):
        sc = make_scenario(5)
        traces = gen_traces(sc, depth=5, count=12, seed=77)
        verdicts = [strong_triangle_holds(*t)
                    for t in itertools.combinations(traces, 3)]
        assert False not in verdicts
        assert True in verdicts


class TestBalls:
    def test_radius_one_contains_everything_observed(self):
        center = plain("a", "b")
        cands = [plain("x"), plain("y", "z")]
        assert ball(center, 0, cands) == set(cands)

    def test_nesting(self):
        rng = random.Random(12)
        sc = make_scenario(6)
        traces = gen_traces(sc, depth=5, count=10, seed=6)
        for _ in range(40):
            c1, c2 = rng.choice(traces), rng.choice(traces)
            m1 = ball(c1, rng.randint(0, 3), traces)
            m2 = ball(c2, rng.randint(0, 3), traces)
            if m1 & m2:
                assert m1 <= m2 or m2 <= m1


class TestNonExpansion:
    def make_hom(self):
        # merges b and c but keeps a distinct
        src = SimpleGraph(
            frozenset(["a", "b", "c"]),
            frozenset(),
            frozenset(["a"]),
        )
        tgt = SimpleGraph(
            frozenset(["x", "y"]), frozenset(), frozenset(["x"])
        )
        return PartialSieveHom(src, tgt, {"a": "x", "b": "y", "c": "y"})

    @staticmethod
    def images(hom, traces):
        """Each trace mapped pointwise, with None outside the domain."""
        return [plain(*(hom(s) if hom.defined_at(s) else None for s in t.states))
                for t in traces]

    def test_merge_only_shrinks(self):
        hom = self.make_hom()
        # ab/ba and ba/ac: images differ at index 0, both distances exact;
        # ab/ac: images agree everywhere, so only a bound is known
        traces = [plain("a", "b"), plain("b", "a"), plain("a", "c")]
        report = check_non_expanding(traces, self.images(hom, traces))
        assert report.pairs_checked == 2
        assert report.pairs_skipped == 1
        assert report.violations == ()

    def test_out_of_domain_pairs_are_skipped(self):
        hom = self.make_hom()
        traces = [plain("zz"), plain("a")]
        report = check_non_expanding(traces, self.images(hom, traces))
        assert report.pairs_checked == 0
        assert report.pairs_skipped == 1

    def test_unequal_images_of_equal_states_are_reported(self):
        traces = [plain("a", "b"), plain("a", "c"), plain("b")]
        images = [plain("x", "y"), plain("y", "y"), plain("x")]
        report = check_non_expanding(traces, images)
        # pair 0 (index 1 apart, images apart at 0) is the only violation
        assert report.violations == (0,)


class TestMonitors:
    @staticmethod
    def dup_state(p):
        return len(set(p.states)) < len(p.states)

    def test_clean_trace(self):
        assert monitor_trace(self.dup_state, plain("a", "b", "c")) is None

    def test_first_bad_head_index(self):
        assert monitor_trace(self.dup_state, plain("a", "b", "a", "c")) == 2

    @pytest.mark.parametrize("length", range(1, 10))
    def test_bisect_agrees_with_linear_scan(self, length):
        trace = plain(*range(length))
        for first_bad in range(length + 1):  # first_bad == length: clean
            calls = []

            def bad(p, first_bad=first_bad):
                calls.append(len(p))
                return len(p) > first_bad

            linear = next(
                (n for n in range(length) if bad(trace.head(n + 1))), None
            )
            calls.clear()
            assert monitor_trace(bad, trace) == linear
            assert len(calls) <= length.bit_length()

    def test_monotonicity_check(self):
        assert check_monitor_monotone(
            self.dup_state, [plain("a", "b", "a", "c")]
        )
        def flaky(p):
            return len(p) % 2 == 0

        assert not check_monitor_monotone(flaky, [plain("a", "b", "c")])


class TestValidation:
    def test_single_state_trace(self, scenario):
        p = TracePrefix((scenario.initial_utxo,), annotations=())
        verdict = validate_trace_prefix(p, [scenario.initial_slot])
        assert verdict

    def test_generated_traces_validate(self, scenario):
        for p in gen_traces(scenario, depth=5, count=8, seed=41):
            verdict = validate_trace_prefix(p, [scenario.initial_slot])
            assert verdict, verdict.reason

    def test_wrong_initial_slot(self, scenario):
        p = gen_traces(scenario, depth=4, count=1, seed=42)[0]
        verdict = validate_trace_prefix(p, [scenario.initial_slot + 999])
        assert verdict.reason == "not-initial-slot"

    def test_no_declared_initial_slot_admits_any(self, scenario):
        for p in gen_traces(scenario, depth=4, count=4, seed=45):
            first = p.annotations[0][0]
            assert validate_trace_prefix(p, [])
            verdict = validate_trace_prefix(p, [first + 1])
            assert verdict.reason == "not-initial-slot"

    def test_decreasing_slots_detected(self, scenario):
        p = gen_traces(scenario, depth=4, count=1, seed=43)[0]
        ann = list(p.annotations)
        assert len(ann) >= 2
        ann[-1] = (ann[0][0] - 1, ann[-1][1])
        verdict = validate_trace_prefix(
            TracePrefix(p.states, tuple(ann)),
            [scenario.initial_slot],
        )
        # the slot check runs before step_ledger sees the interval
        assert verdict.reason == "slots-decreasing"

    def test_state_corruption_detected(self, scenario):
        p = gen_traces(scenario, depth=4, count=1, seed=44)[0]
        states = list(p.states)
        states[-1] = states[0]
        verdict = validate_trace_prefix(
            TracePrefix(tuple(states), p.annotations),
            [scenario.initial_slot],
        )
        assert verdict.reason == "state-mismatch-at-%d" % (len(states) - 1,)

    def test_step_arity_mismatch(self, scenario):
        u = scenario.initial_utxo
        p = TracePrefix((u, u), annotations=None)
        with pytest.raises(ValueError):
            validate_trace_prefix(p, [0])


class TestGeneration:
    def test_deterministic(self, scenario):
        a = gen_traces(scenario, depth=5, count=6, seed=99)
        b = gen_traces(scenario, depth=5, count=6, seed=99)
        assert a == b

    def test_seed_changes_output(self, scenario):
        a = gen_traces(scenario, depth=5, count=6, seed=99)
        b = gen_traces(scenario, depth=5, count=6, seed=100)
        assert a != b

    def test_depth_must_be_positive(self, scenario):
        with pytest.raises(ValueError):
            gen_traces(scenario, depth=0, count=1, seed=1)

    def test_truncation_flag_when_no_proposal_fits(self, scenario):
        traces = generate_valid_traces(
            [scenario.initial_utxo],
            [scenario.initial_slot],
            lambda rng, slot, utxo: None,
            depth=3,
            count=2,
            seed=5,
        )
        assert all(t.truncated and len(t) == 1 for t in traces)

    def test_empty_state_has_no_proposal(self):
        propose = make_proposer()
        assert propose(random.Random(0), 0, UtxoSet({})) is None
        [trace] = generate_valid_traces(
            [UtxoSet({})], [0], propose, depth=3, count=1, seed=0)
        assert trace == TracePrefix((UtxoSet({}),), (), truncated=True)

    def test_proposer_inputs_are_the_states_own_entries(self):
        utxo = make_scenario(4, n_outputs=12).initial_utxo
        propose = make_proposer(max_spend=5)
        rng = random.Random(4)
        entries = {id(pair) for pair in utxo.items()}
        for _ in range(20):
            tx = propose(rng, 0, utxo)
            assert tx.inputs and {id(pair) for pair in tx.inputs} <= entries

    def test_first_step_uses_an_initial_slot(self, scenario):
        traces = gen_traces(scenario, depth=4, count=10, seed=3)
        for t in traces:
            if t.annotations:
                assert t.annotations[0][0] == scenario.initial_slot


@st.composite
def lift_problems(draw):
    """A small graph, a dict hom out of it, a target head and its n."""
    vertices = range(draw(st.integers(1, 5)))
    vertex = st.sampled_from(vertices)
    source = SimpleGraph(
        frozenset(vertices),
        draw(st.frozensets(st.tuples(vertex, vertex), max_size=12)),
        draw(st.frozensets(vertex, max_size=3)),
    )
    target = SimpleGraph(frozenset([0, 1]), frozenset())
    hom = PartialSieveHom(source, target, draw(st.dictionaries(vertex, st.sampled_from([0, 1]))))
    n = draw(st.integers(0, 4))
    head = draw(st.lists(st.sampled_from([0, 1]), min_size=n + 1, max_size=n + 3))
    return hom, plain(*head), n


class TestTruncatedLifts:
    def build(self):
        src = SimpleGraph(
            frozenset([("q", 0), ("q", 1), ("r", 1)]),
            frozenset([(("q", 0), ("q", 1)), (("q", 0), ("r", 1))]),
            frozenset([("q", 0)]),
        )
        tgt = SimpleGraph(
            frozenset([0, 1]), frozenset([(0, 1)]), frozenset([0])
        )
        hom = PartialSieveHom(src, tgt, {v: v[1] for v in src.vertices})
        return src, tgt, hom

    def test_lift_found(self):
        _, _, hom = self.build()
        ok, witness = has_truncated_lift(plain(0, 1), hom, 1)
        assert ok
        assert witness in ((("q", 0), ("q", 1)), (("q", 0), ("r", 1)))
        assert tuple(hom(v) for v in witness) == (0, 1)

    def test_no_lift_when_start_missing(self):
        _, _, hom = self.build()
        ok, witness = has_truncated_lift(plain(1, 0), hom, 1)
        assert not ok and witness is None

    def test_zero_length_lift_checks_initial_vertices(self):
        _, _, hom = self.build()
        assert has_truncated_lift(plain(0), hom, 0)[0]
        assert not has_truncated_lift(plain(1), hom, 0)[0]

    def test_prefix_too_short(self):
        _, _, hom = self.build()
        with pytest.raises(ValueError):
            has_truncated_lift(plain(0), hom, 3)

    def test_negative_n_refused(self):
        _, _, hom = self.build()
        with pytest.raises(ValueError):
            has_truncated_lift(plain(0), hom, -1)

    @given(lift_problems())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, problem):
        hom, head, n = problem
        goal = head.states[: n + 1]
        images = {tuple(map(hom.mapping.get, p))
                  for p in enumerate_paths(hom.source, n + 1)}
        ok, witness = has_truncated_lift(head, hom, n)
        assert ok == (goal in images)
        if ok:
            assert witness[0] in hom.source.initial
            assert all((a, b) in hom.source.edges for a, b in zip(witness, witness[1:]))
            assert tuple(hom(v) for v in witness) == goal
        else:
            assert witness is None

    def test_failing_search_is_bounded(self, monkeypatch):
        # Λ of `graph dump --seed 0 --depth 25`, and the run's first 16
        # states with the last replaced by the first: no path lifts them
        sc, txs, slots = graph_universe(0, 25)
        lam = build_ledger_graph([sc.initial_utxo], [sc.initial_slot], txs, slots)
        _, phi = project_ledger_graph(lam)
        states = [sc.initial_utxo]
        for tx in txs[:14]:
            states.append(apply_tx(states[-1], tx))
        bound = 16 * len(lam.vertices)
        calls = []
        successors = SimpleGraph.successors

        def counted(graph, v):
            calls.append(v)
            if len(calls) > bound:
                raise AssertionError("more than %d successors calls" % bound)
            return successors(graph, v)

        monkeypatch.setattr(SimpleGraph, "successors", counted)
        assert has_truncated_lift(plain(*states, states[0]), phi, 15) == (False, None)
