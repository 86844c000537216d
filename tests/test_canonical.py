"""The one canonical form: MERGE_TOL lattice cells, order independence,
and the stacked parsers and constructors that the checks run their tasks through."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickbench import ChaosExpansion, DiscreteMeasure, ExpCombo
from wickbench import chaos, expspan, measures
from wickbench.chaos import MERGE_TOL, canonical_rows, chaos_from_json
from wickbench.expspan import exp_combos, exps_from_json
from wickbench.measures import discrete_measures, measures_from_json, vector_stacks

ROADMAP_TERMS = [(1.0, (0.0, 1.0)), (1.0, (5e-14, 0.0)), (1.0, (1e-13, 1.0))]


def _arrays(f):
    # stored bytes, so -0.0 and 0.0 differ
    return f.weights.tobytes(), f.directions.tobytes()


def test_near_ties_merge_the_same_way_in_every_order():
    # (0, 1) and (1e-13, 1) share a MERGE_TOL cell, (5e-14, 0) does not;
    # comparing only sorted neighbours kept 3 terms here, but 2 when the
    # same terms were added pairwise
    f = ExpCombo(2, ROADMAP_TERMS)
    assert f.n_terms == 2
    assert f.terms == [(1.0, (5e-14, 0.0)), (2.0, (0.0, 1.0))]
    for order in itertools.permutations(ROADMAP_TERMS):
        assert _arrays(ExpCombo(2, order)) == _arrays(f)
        a, b, c = (ExpCombo(2, [t]) for t in order)
        assert _arrays((a + b) + c) == _arrays(f)
        assert _arrays(a + (b + c)) == _arrays(f)


def test_sums_of_one_cell_do_not_depend_on_input_order():
    # equal rows are added in weight order: (-1e16 + 1) + 1e16 is 0, while
    # (1e16 + 1) - 1e16 is 2 and (1e16 - 1e16) + 1 is 1
    terms = [(1e16, (0.5,)), (1.0, (0.5,)), (-1e16, (0.5,)), (1.0, (2.0,))]
    for order in itertools.permutations(terms):
        assert ExpCombo(1, order).terms == [(1.0, (2.0,))]
        chaos = ChaosExpansion(1, [((int(4 * h[0]),), w) for w, h in order])
        assert chaos.coeffs == {(8,): 1.0}


def test_large_coordinates_keep_their_own_cells():
    # no overflow near float range, and no merge of distinct coordinates
    # whose spacing exceeds MERGE_TOL
    big = [1e300, np.nextafter(1e300, np.inf), -1.7e308, 8192.0, np.nextafter(8192.0, 0.0),
           np.nextafter(8192.0, np.inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = ExpCombo(1, [(1.0, (x,)) for x in big])
    assert f.n_terms == len(big)
    assert f.directions[:, 0].tolist() == sorted(big)
    # below the limit, a cell is MERGE_TOL wide
    g = ExpCombo(1, [(1.0, (np.nextafter(1000.0, np.inf),)), (1.0, (1000.0,))])
    assert g.terms == [(2.0, (1000.0,))]
    assert np.nextafter(1000.0, np.inf) - 1000.0 < MERGE_TOL / 2


def test_canonical_rows_stacked_is_each_task_alone():
    rng = np.random.default_rng(3)
    # coordinates on a coarse grid plus sub-MERGE_TOL offsets: many ties
    rows = rng.integers(-2, 3, size=(40, 6, 2)) + rng.choice([0.0, 3e-13, -4e-13], size=(40, 6, 2))
    weights = rng.uniform(-1.0, 1.0, size=(40, 6))
    stacked = canonical_rows(rows, weights)
    for t in range(40):
        alone = canonical_rows(rows[t:t + 1], weights[t:t + 1])
        for a, b in zip(stacked, alone):
            assert a[t].tobytes() == b[0].tobytes()
    combos = exp_combos(2, weights, rows)
    for t, f in enumerate(combos):
        assert _arrays(f) == _arrays(ExpCombo(2, zip(weights[t], rows[t])))
    nus = discrete_measures(2, rows, np.full((40, 6), 1 / 6))
    for t, nu in enumerate(nus):
        one = DiscreteMeasure(2, rows[t], np.full(6, 1 / 6))
        assert (nu.atoms.tobytes(), nu.weights.tobytes()) == (one.atoms.tobytes(), one.weights.tobytes())


def test_json_stacks_of_mixed_shapes_parse_like_each_alone():
    datas = [
        {"kind": "exp", "dim": 1, "terms": [{"coef": 1.0, "h": [0.5]}, {"coef": 1e-16, "h": [1.0]}]},
        {"kind": "exp", "dim": 2, "terms": [{"coef": 2.0, "h": [0.0, -0.0]}]},
        {"kind": "exp", "dim": 1, "terms": [{"coef": -1.0, "h": [0.25]}, {"coef": 3.0, "h": [0.25]}]},
    ]
    for f, data in zip(exps_from_json(datas), datas):
        assert _arrays(f) == _arrays(exps_from_json([data])[0])
    nus = [{"dim": 1, "atoms": [[1.0], [1.0]], "weights": [0.5, 0.5]},
           {"dim": 1, "atoms": [[0.0]], "weights": [1.0]}]
    assert [nu.to_json_dict() for nu in measures_from_json(nus)] == \
        [measures_from_json([nu])[0].to_json_dict() for nu in nus]
    # a bad item raises its own error from inside a stack
    bad = [datas[0], {"kind": "exp", "dim": 1, "terms": [{"coef": math.nan, "h": [0.0]}]}, datas[0]]
    with pytest.raises(ValueError, match="coefficients must be finite numbers"):
        exps_from_json(bad)


# JSON shapes (dim, term, atom or vector count), interleaved and repeated
MIXED_SHAPES = [(1, 2), (2, 1), (1, 2), (1, 3), (2, 1), (1, 2), (2, 3)]


def _exp_json(dim, k):
    return {"kind": "exp", "dim": dim, "terms": [{"coef": 1.0 + j, "h": [0.25 * j - 0.5] * dim} for j in range(k)]}


def _measure_json(dim, k):
    return {"dim": dim, "atoms": [[0.5 * j - 0.25] * dim for j in range(k)], "weights": [1.0 / k] * k}


def _chaos_json(dim, k):
    return {"kind": "chaos", "dim": dim, "terms": [{"m": [j] * dim, "c": 0.5 - j} for j in range(k)]}


def _vectors(dim, k):
    return [[0.5 * j - 1.0] * dim for j in range(k)], dim


def _nan_at(value, *path):
    # a copy of the JSON value with NaN at path
    value = json.loads(json.dumps(value))
    *head, last = path
    target = value
    for key in head:
        target = target[key]
    target[last] = math.nan
    return value


def _stored(value):
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, ChaosExpansion):
        return list(value.coeffs.items())
    if isinstance(value, DiscreteMeasure):
        return value.atoms.tobytes(), value.weights.tobytes()
    return _arrays(value)


def _parse_vectors(items):
    return vector_stacks([hs for hs, _ in items], [dim for _, dim in items])


@pytest.mark.parametrize("parse, module, builder, make, nan_path, message", [
    (exps_from_json, expspan, "_build_exps", _exp_json, ("terms", 1, "coef"), "coefficients must be finite"),
    (measures_from_json, measures, "_build_measures", _measure_json, ("atoms", 1, 0), "atoms must be finite"),
    (chaos_from_json, chaos, "_build_chaos", _chaos_json, ("terms", 0, "c"), "chaos coefficients must be finite"),
    (_parse_vectors, measures, "_build_vectors", _vectors, (0, 1, 0), "hs must be finite"),
], ids=["exp", "measure", "chaos", "vectors"])
def test_parsers_build_each_json_shape_once(monkeypatch, parse, module, builder, make, nan_path, message):
    # a list of mixed shapes is one stack per shape: no stack is tried
    # whole and then rebuilt item by item
    items = [make(dim, k) for dim, k in MIXED_SHAPES]
    alone = [_stored(parse([item])[0]) for item in items]
    groups = []
    build = getattr(module, builder)
    monkeypatch.setattr(module, builder, lambda *args: groups.append(args) or build(*args))
    assert [_stored(value) for value in parse(items)] == alone
    assert len(groups) == len(set(MIXED_SHAPES))
    assert sorted(len(args[-1]) for args in groups) == sorted(MIXED_SHAPES.count(s) for s in set(MIXED_SHAPES))
    shape_of = {id(item[0] if isinstance(item, tuple) else item): s for item, s in zip(items, MIXED_SHAPES)}
    assert all(len({shape_of[id(value)] for value in args[-1]}) == 1 for args in groups)
    # a NaN item in a stack of its shape raises its own error
    bad = _nan_at(items[0], *nan_path)
    with pytest.raises(ValueError, match=message):
        parse([items[0], items[2], bad, items[5], items[1]])


# coordinates on a coarse grid, each moved by less than a MERGE_TOL cell
# or not at all, so that ties, near ties and distinct rows all occur
COORD = st.builds(lambda base, nudge: base + nudge,
                  st.sampled_from([0.0, -0.0, 1.0, -0.5, 2.0]),
                  st.sampled_from([0.0, 1e-13, -2e-13, 3e-13, 7e-12]))
WEIGHT = st.floats(0.125, 2.0)


def _terms(dim):
    return st.lists(st.tuples(WEIGHT, st.tuples(*[COORD] * dim)), max_size=6)


def _close(f, g):
    # same rows, weights within rounding of sums taken in another order
    return (f.directions.tobytes() == g.directions.tobytes()
            and np.allclose(f.weights, g.weights, rtol=1e-14, atol=0.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(st.just(dim), _terms(dim))), st.randoms())
def test_canonical_form_is_idempotent_and_order_free(case, rnd):
    dim, terms = case
    f = ExpCombo(dim, terms)
    assert _arrays(ExpCombo(dim, f.terms)) == _arrays(f)
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    assert _arrays(ExpCombo(dim, shuffled)) == _arrays(f)
    if terms:
        total = sum(w for w, _ in terms)
        nu = DiscreteMeasure(dim, [h for _, h in terms], [w / total for w, _ in terms])
        again = DiscreteMeasure(dim, nu.atoms, nu.weights)
        assert (again.atoms.tobytes(), again.weights.tobytes()) == (nu.atoms.tobytes(), nu.weights.tobytes())
        assert nu.atoms.tobytes() == f.directions.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(st.just(dim), _terms(dim), _terms(dim), _terms(dim))))
def test_addition_is_associative(case):
    dim, *parts = case
    f, g, h = (ExpCombo(dim, p) for p in parts)
    assert _close((f + g) + h, f + (g + h))
    assert _close(f + g, g + f)
    assert _close((f + g) + h, ExpCombo(dim, [t for p in parts for t in p]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.tuples(st.tuples(*[st.integers(0, 3)] * dim), st.floats(-2.0, 2.0)), max_size=8)), st.randoms())
def test_chaos_form_is_order_free(terms, rnd):
    dim = len(terms[0][0]) if terms else 1
    f = ChaosExpansion(dim, terms)
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    assert list(ChaosExpansion(dim, shuffled).coeffs.items()) == list(f.coeffs.items())
    assert list(ChaosExpansion(dim, f.coeffs).coeffs.items()) == list(f.coeffs.items())


@pytest.mark.parametrize("build, message", [
    (lambda: ExpCombo(1, [(math.nan, [0.0])]), "coefficients must be finite"),
    (lambda: ExpCombo(1, [(1.0, [math.inf])]), "directions must be finite"),
    (lambda: math.nan * ExpCombo.one(1), "coefficients must be finite"),
    (lambda: ExpCombo.one(1) * math.inf, "coefficients must be finite"),
    (lambda: ExpCombo(1, [(1e10, [0.0])]) * 1e300, "coefficients must be finite"),
    (lambda: ChaosExpansion(1, {(1,): math.nan}), "chaos coefficients must be finite"),
    (lambda: math.nan * ChaosExpansion.constant(1, 1.0), "chaos coefficients must be finite"),
    (lambda: math.nan * ChaosExpansion(1), "chaos coefficients must be finite"),
    (lambda: ChaosExpansion(1, {(1,): 1e10}) * 1e300, "chaos coefficients must be finite"),
], ids=["exp-coef-nan", "exp-h-inf", "exp-times-nan", "exp-times-inf", "exp-times-overflows", "chaos-coef-nan",
        "chaos-times-nan", "zero-chaos-times-nan", "chaos-times-overflows"])
def test_constructors_and_scalars_refuse_what_the_parsers_refuse(build, message):
    # each of these built the zero function (a NaN weight is below no
    # threshold and was dropped), kept an infinite direction or overflowed
    # a weight to inf, where the JSON parsers raise
    with pytest.raises(ValueError, match=message):
        build()
