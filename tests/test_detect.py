"""Splitter cascades, click statistics, fidelity."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonchip import detect, evolve
from noonchip.circuit import ChipParams
from noonchip.detect import (
    DetectorModel,
    SplitterTree,
    _tree_stack,
    cascade_resolve_probability,
    click_array,
    click_distribution,
    fidelity,
    paper_6fold_topology,
    topology_from_json_dict,
    topology_to_json_dict,
)
from noonchip.fock import FockState, marginal_distribution, multinomial
from noonchip.herald import HeraldPattern, heralded_output


def uniform_tree(mode, k, prefix="D"):
    return SplitterTree(mode, tuple((f"{prefix}{i}", 1.0 / k) for i in range(k)))


def test_tree_validation():
    with pytest.raises(ValueError):
        SplitterTree(0, (("A", 0.5), ("A", 0.5)))  # duplicate ids
    with pytest.raises(ValueError):
        SplitterTree(0, (("A", 0.7), ("B", 0.6)))  # probabilities exceed one
    for bad in (-0.1, 1.5, math.nan, True, "0.5"):
        with pytest.raises(ValueError, match="leaf probability for A must lie in"):
            SplitterTree(0, (("A", bad),))
    # a fractional mode was accepted, and so were a bool or whole-float mode
    # and an id that is no string, which became the string of its value
    for bad in (1.5, -1, None, True, 2.0):
        with pytest.raises(ValueError, match="non-negative integers"):
            SplitterTree(bad, (("A", 0.5),))
    for bad in (None, 5, True):
        with pytest.raises(ValueError, match="detector ids must be strings"):
            SplitterTree(0, ((bad, 0.5),))
    assert SplitterTree(np.int64(2), (("A", 0.5),)).mode == 2
    tree = SplitterTree(0, (("A", 0.5), ("B", 0.25)))
    assert tree.loss == pytest.approx(0.25)
    assert tree.detector_ids() == ("A", "B")
    assert tree.leaf_probability("B") == 0.25


def test_cascade_resolution_uniform_four():
    tree = uniform_tree(1, 4)
    # two, three, and four photons on distinct leaves of the 1/4 fan-out
    assert cascade_resolve_probability(tree, ("D0", "D1")) == pytest.approx(
        1 / 8, abs=1e-12
    )
    assert cascade_resolve_probability(tree, ("D0", "D1", "D2")) == pytest.approx(
        3 / 32, abs=1e-12
    )
    assert cascade_resolve_probability(
        tree, ("D0", "D1", "D2", "D3")
    ) == pytest.approx(3 / 32, abs=1e-12)


def test_cascade_resolution_joint_split():
    # a (3, 1) split across two uniform fan-outs resolves with 3/32 * 1/4
    j, k = uniform_tree(1, 4, "J"), uniform_tree(2, 4, "K")
    p = cascade_resolve_probability(j, ("J0", "J1", "J2"))
    p *= cascade_resolve_probability(k, ("K0",))
    assert p == pytest.approx(3 / 128, abs=1e-12)


def test_cascade_resolution_against_enumeration():
    # oracle: enumerate every way n labeled photons route to leaves
    rng = np.random.default_rng(19)
    for k in (2, 3, 4):
        for n in range(1, min(k, 4) + 1):
            raw = rng.random(k)
            probs = raw / raw.sum() * rng.uniform(0.6, 1.0)  # leave some loss
            tree = SplitterTree(0, tuple((f"D{i}", float(p)) for i, p in enumerate(probs)))
            targets = [f"D{i}" for i in range(n)]
            want = 0.0
            for assign in itertools.product(range(k), repeat=n):
                if sorted(assign) == list(range(n)):
                    want += math.prod(probs[i] for i in assign)
            got = cascade_resolve_probability(tree, targets)
            assert got == pytest.approx(want, abs=1e-12)


def test_cascade_resolution_validation():
    tree = uniform_tree(0, 4)
    with pytest.raises(ValueError):
        cascade_resolve_probability(tree, ("D0", "D0"))
    with pytest.raises(ValueError):
        cascade_resolve_probability(tree, ("nope",))


def test_click_distribution_two_photons_two_leaves():
    dist = click_distribution(FockState.basis_state((2,)), [uniform_tree(0, 2)])
    assert dist[frozenset({"D0", "D1"})] == pytest.approx(0.5, abs=1e-12)
    assert dist[frozenset({"D0"})] == pytest.approx(0.25, abs=1e-12)
    assert dist[frozenset({"D1"})] == pytest.approx(0.25, abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_click_distribution_efficiency_and_loss():
    tree = SplitterTree(0, (("D", 0.75),))  # 25 percent routed to loss
    dist = click_distribution(
        FockState.basis_state((1,)), [tree], DetectorModel(efficiency=0.8)
    )
    assert dist[frozenset({"D"})] == pytest.approx(0.6, abs=1e-12)
    assert dist[frozenset()] == pytest.approx(0.4, abs=1e-12)


def test_click_distribution_dark_counts_on_vacuum():
    dist = click_distribution(
        FockState.basis_state((0,)),
        [uniform_tree(0, 2)],
        DetectorModel(dark_count_prob=0.1),
    )
    assert dist[frozenset()] == pytest.approx(0.81, abs=1e-12)
    assert dist[frozenset({"D0"})] == pytest.approx(0.09, abs=1e-12)
    assert dist[frozenset({"D0", "D1"})] == pytest.approx(0.01, abs=1e-12)


def test_click_distribution_brute_force_two_photons():
    # independent check: route each photon, then thin each detector
    p0, p1 = 0.5, 0.3  # loss 0.2
    eff = {"D0": 0.9, "D1": 0.7}
    tree = SplitterTree(0, (("D0", p0), ("D1", p1)))
    dist = click_distribution(
        FockState.basis_state((2,)), [tree], DetectorModel(efficiency=eff)
    )
    want: dict[frozenset, float] = {}
    for a, b in itertools.product(("D0", "D1", None), repeat=2):
        route = (p0 if a == "D0" else p1 if a == "D1" else 0.2) * (
            p0 if b == "D0" else p1 if b == "D1" else 0.2
        )
        hits = {"D0": (a, b).count("D0"), "D1": (a, b).count("D1")}
        for c0 in (0, 1):
            for c1 in (0, 1):
                pr = route
                for det, c in (("D0", c0), ("D1", c1)):
                    p_click = 1.0 - (1.0 - eff[det]) ** hits[det]
                    pr *= p_click if c else 1.0 - p_click
                if pr == 0.0:
                    continue
                key = frozenset(d for d, c in (("D0", c0), ("D1", c1)) if c)
                want[key] = want.get(key, 0.0) + pr
    assert set(dist) == set(want)
    for key, value in want.items():
        assert dist[key] == pytest.approx(value, abs=1e-12)


def _threshold_response(hits, all_ids, model):
    """Click-pattern distribution given photon counts per detector: a detector
    hit by c photons stays dark with probability (1 - dark)(1 - eff)^c and
    clicks with dark + (1 - dark) fired, fired = 1 - (1 - eff)^c taken
    without the cancelling difference from 1."""
    dark = model.dark_count_prob
    patterns = {frozenset(): 1.0}
    for det in all_ids:
        c, eff = hits.get(det, 0), model.eff(det)
        fired = 0.0 if c == 0 else 1.0 if eff == 1.0 else -math.expm1(c * math.log1p(-eff))
        p_click = dark + (1.0 - dark) * fired
        p_none = (1.0 - dark) * (1.0 - eff) ** c
        updated = {}
        for pattern, weight in patterns.items():
            key = pattern | {det}
            updated[key] = updated.get(key, 0.0) + weight * p_click
            updated[pattern] = updated.get(pattern, 0.0) + weight * p_none
        patterns = updated
    return patterns


def reference_click_distribution(state, trees, detectors):
    """The per-routing walk: every joint routing of the photons over all
    trees, then the threshold response of all detectors to it."""
    covered = sorted(t.mode for t in trees)
    tree_by_mode = {t.mode: t for t in trees}
    all_ids = [d for m in covered for d in tree_by_mode[m].detector_ids()]
    out = {}
    for occ, p_occ in marginal_distribution(state, covered).items():
        joint = [({}, 1.0)]
        for mode, n in zip(covered, occ):
            tree = tree_by_mode[mode]
            probs = [p for _, p in tree.leaves] + [tree.loss]
            extended = []
            for counts, p_route in multinomial(n, probs).items():
                hits = dict(zip(tree.detector_ids(), counts))
                for base, p_base in joint:
                    extended.append(({**base, **hits}, p_base * p_route))
            joint = extended
        for hits, p_route in joint:
            for pattern, p_click in _threshold_response(hits, all_ids, detectors).items():
                out[pattern] = out.get(pattern, 0.0) + p_occ * p_route * p_click
    return {pattern: p for pattern, p in out.items() if p != 0.0}  # as click_distribution


def reference_tree_table(tree, n, detectors):
    """Click table of one tree holding n photons by the per-routing row loop
    that the photon recursion replaced: one numpy row per multinomial routing,
    added in routing order, with _threshold_response's factors."""
    table = np.zeros(1 << len(tree.leaves))
    for counts, p_route in multinomial(n, [p for _, p in tree.leaves] + [tree.loss]).items():
        row = np.array([p_route])
        for det, c in zip(tree.detector_ids(), counts):  # zip drops the trailing loss count
            response = _threshold_response({det: c}, [det], detectors)
            row = np.multiply.outer(row, (response[frozenset()], response[frozenset({det})])).ravel()
        table += row
    return table


#: a leaf probability or amplitude part is 0 or at least 1e-6; an efficiency
#: or dark count is 0 or at least 1e-16, and so is a click or no-click factor,
#: (1 - dark)(1 - eff)^c or dark + (1 - dark) fired, since 1 - eff is too.  So
#: no product of at most 6 photons over 12 detectors reaches the subnormal
#: range, where a relative error says nothing
SIZE = st.just(0.0) | st.floats(1e-6, 1.0)
PROBABILITY = st.just(0.0) | st.floats(1e-16, 1.0)


@st.composite
def click_cases(draw):
    modes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    trees = []
    for mode in modes:
        weights = draw(st.lists(SIZE, min_size=1, max_size=4))
        scale = draw(st.floats(0.5, 1.0)) / max(1.0, sum(weights))  # lossy sums allowed
        trees.append(SplitterTree(
            mode, tuple((f"M{mode}D{i}", w * scale) for i, w in enumerate(weights))))
    ids = [d for t in trees for d in t.detector_ids()]
    if draw(st.booleans()):
        efficiency = draw(PROBABILITY)
    else:  # per id; an id left out counts as efficiency 1
        efficiency = {d: draw(PROBABILITY) for d in ids if draw(st.booleans())}
    dark = draw(st.just(0.0) | st.floats(1e-16, 0.2, exclude_max=True))
    photons = 6 if len(trees) == 1 else 4  # the walk's cost grows with trees x photons
    terms = draw(st.lists(
        st.tuples(st.lists(st.integers(0, 3), max_size=photons), SIZE, SIZE), min_size=1, max_size=4))
    amplitudes = {}
    for photon_modes, re, im in terms:
        occ = tuple(photon_modes.count(m) for m in range(4))
        amplitudes[occ] = complex(re, im) / math.sqrt(2 * len(terms))  # norm^2 <= 1
    return FockState(4, amplitudes), trees, DetectorModel(efficiency, dark)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(click_cases())
def test_click_distribution_matches_per_routing_walk(case):
    state, trees, detectors = case
    got = click_distribution(state, trees, detectors)
    want = reference_click_distribution(state, trees, detectors)
    assert set(got) == set(want)
    for pattern, p in want.items():
        assert got[pattern] == pytest.approx(p, rel=1e-12, abs=0.0)
    norm = sum(marginal_distribution(state, [t.mode for t in trees]).values())
    assert sum(got.values()) == pytest.approx(norm, rel=1e-12, abs=1e-300)
    # the photon recursion gives the row loop's tables, up to 6 photons per tree
    for tree in trees:
        for n, table in enumerate(_tree_stack(tree, detectors, 6)):
            assert table == pytest.approx(reference_tree_table(tree, n, detectors), rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(click_cases())
def test_click_array_holds_every_pattern(case):
    state, trees, detectors = case
    ordered, (total,) = click_array([state], trees, detectors)
    assert [t.mode for t in ordered] == sorted(t.mode for t in trees)
    assert total.shape == tuple(1 << len(t.leaves) for t in ordered)
    # every tree table sums to 1, photons routed to loss included
    assert total.sum() == pytest.approx(state.norm_squared(), rel=1e-12, abs=1e-300)
    want = {}
    for index in np.ndindex(total.shape):  # the first leaf of a tree is the highest bit
        ids = [d for t, b in zip(ordered, index) for i, d in enumerate(t.detector_ids())
               if b >> (len(t.leaves) - 1 - i) & 1]
        if total[index] > 0.0:
            want[frozenset(ids)] = float(total[index])
    assert list(click_distribution(state, trees, detectors).items()) == list(want.items())


def test_dark_counts_alone_are_exact_products():
    # each entry is a product of d and 1 - d; taking d as 1 - (1 - d) loses digits
    d = 1e-5
    tree = uniform_tree(0, 4)
    _, (total,) = click_array([FockState.basis_state((0,))], [tree], DetectorModel(0.7, d))
    for b, p in enumerate(total):
        k = b.bit_count()
        want = float(Fraction(d) ** k * (1 - Fraction(d)) ** (4 - k))
        assert p == pytest.approx(want, rel=1e-14, abs=0.0)


def test_ideal_detectors_keep_exact_zeros():
    # no loss, unit efficiency and no dark counts: n photons click at most n
    # leaves and, from one photon up, at least one.  These leaf probabilities
    # add up to 1.0000000000000002 in order, so 1 - sum p_l eff_l would
    # miss with a negative weight, where loss + sum p_l (1 - eff_l) is 0
    tree = SplitterTree(0, (("A", 0.05), ("B", 0.55), ("C", 0.3), ("D", 0.1)))
    assert tree.loss == 0.0
    stack = _tree_stack(tree, DetectorModel(), 6)
    for n, table in enumerate(stack):
        assert all(p == 0.0 for b, p in enumerate(table) if b.bit_count() > n)
        assert (table[0] == 0.0) == (n >= 1)
        assert table.sum() == pytest.approx(1.0, rel=1e-15)


def test_click_array_builds_one_stack_per_tree(monkeypatch):
    built = []

    def counting(tree, detectors, n_top):
        built.append((tree.mode, n_top))
        return _tree_stack(tree, detectors, n_top)

    monkeypatch.setattr(detect, "_tree_stack", counting)
    state = evolve.apply(ChipParams().matrix(), FockState.basis_state((0, 2, 2, 0)))
    trees, _ = paper_6fold_topology()
    click_array([state], trees, DetectorModel(0.7, 1e-3))
    counts = marginal_distribution(state, [0, 1, 2, 3])
    assert built == [(m, max(occ[m] for occ in counts)) for m in range(4)]


def test_click_array_of_many_states_matches_each_state_alone():
    # the shared stacks are taller than one state needs; their first rows,
    # and so every float of each state's array, stay the same
    u = ChipParams(phi=0.3).matrix()
    states = [evolve.apply(u, FockState.basis_state((0, n, n, 0))) for n in (2, 0, 3, 1)]
    trees, _ = paper_6fold_topology()
    detectors = DetectorModel(0.7, 1e-3)
    _, stacked = click_array(states, trees, detectors)
    assert stacked.shape == (4, 2, 16, 16, 2)
    for state, array in zip(states, stacked):
        assert np.array_equal(array, click_array([state], trees, detectors)[1][0])
    assert click_array([], trees, detectors)[1].shape == (0, 2, 16, 16, 2)


def test_detector_model_validated_once():
    assert DetectorModel(efficiency={"A": 0.5}).eff("B") == 1.0
    for bad in (-0.1, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="efficiency must lie"):
            DetectorModel(efficiency=bad)
        with pytest.raises(ValueError, match="efficiency for 'A' must lie"):
            DetectorModel(efficiency={"A": bad})
        with pytest.raises(ValueError, match="dark_count_prob must lie"):
            DetectorModel(dark_count_prob=bad)


def test_click_distribution_rejects_oversized_topology():
    # the dense pattern array would hold 2^21 entries
    trees = [SplitterTree(m, tuple((f"M{m}D{i}", 0.1) for i in range(7))) for m in range(3)]
    with pytest.raises(ValueError, match="at most 20 detectors"):
        click_distribution(FockState.basis_state((1, 0, 0)), trees)


def test_paper_topology_shape():
    trees, model = paper_6fold_topology()
    assert [t.mode for t in trees] == [0, 1, 2, 3]
    assert trees[0].detector_ids() == ("Di",)
    assert len(trees[1].detector_ids()) == 4
    assert len(trees[2].detector_ids()) == 4
    assert trees[3].detector_ids() == ("Dl",)
    for t in trees[1:3]:
        assert all(p == 0.25 for _, p in t.leaves)
    assert model == DetectorModel()


def test_fidelity_values():
    assert fidelity({"a": 1.0}, {"a": 0.5, "b": 0.5}) == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )
    p = {"a": 0.25, "b": 0.75}
    assert fidelity(p, p) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(p, {"b": 0.75, "a": 0.25}) == fidelity({"b": 0.75, "a": 0.25}, p)


def test_fidelity_validation():
    with pytest.raises(ValueError):
        fidelity({"a": 0.7}, {"a": 1.0})  # first argument not normalized
    with pytest.raises(ValueError):
        fidelity({"a": 1.5, "b": -0.5}, {"a": 1.0})


def test_fidelity_rejects_nan():
    # a NaN passed both the sum and the sign check and came back as the fidelity
    for p, q in (({"x": math.nan}, {"x": 1.0}), ({"x": 1.0}, {"x": math.nan})):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got nan"):
            fidelity(p, q)


def heralded_counts(chip):
    """Photon-count distribution of |0,2,2,0> heralded by one photon on modes 0 and 3."""
    result = heralded_output(chip, FockState.basis_state((0, 2, 2, 0)), HeraldPattern({0: 1, 3: 1}))
    return {occ: abs(a) ** 2 for occ, a in result.conditional_state.amplitudes.items()}


def test_reference_distribution_perturbed_couplers():
    ideal = heralded_counts(ChipParams(eta1=0.5, eta2=0.5, phi=math.pi / 2))
    measured = heralded_counts(ChipParams(eta1=0.542, eta2=0.530, phi=math.pi / 2))
    f = fidelity(measured, ideal)
    assert f > 0.99
    assert f == pytest.approx(0.998310, abs=1e-5)


def test_reference_distribution_common_herald_coupler_drops_out():
    a = heralded_counts(ChipParams(eta1=0.5, eta2=0.5, phi=0.4))
    b = heralded_counts(ChipParams(eta1=0.5, eta2=0.5, eta3=0.4, eta4=0.4, phi=0.4))
    assert set(a) == set(b)
    for occ in a:
        assert a[occ] == pytest.approx(b[occ], abs=1e-12)


def test_topology_json_form_refuses_dark_counts():
    # the form has no dark count key: 1e-3 was written and read back as 0
    trees, _ = paper_6fold_topology()
    with pytest.raises(ValueError, match="topology JSON holds no dark counts, got 0.001"):
        topology_to_json_dict(trees, DetectorModel(0.7, 1e-3))
    _, back = topology_from_json_dict(topology_to_json_dict(trees, DetectorModel(0.7, 0.0)))
    assert back == DetectorModel({d: 0.7 for t in trees for d in t.detector_ids()})


def test_topology_json_round_trip():
    trees, model = paper_6fold_topology()
    data = topology_to_json_dict(trees, model)
    back_trees, back_model = topology_from_json_dict(json.loads(json.dumps(data)))
    assert [t.mode for t in back_trees] == [t.mode for t in trees]
    for a, b in zip(back_trees, trees):
        assert a.leaves == b.leaves
    for t in trees:
        for d in t.detector_ids():
            assert back_model.eff(d) == model.eff(d)
