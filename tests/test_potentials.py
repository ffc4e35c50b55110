import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slspec.potentials import (PotentialError, builtin, eval_potential,
                               make_potential, validate_class)


def test_q1_closed_form_values(q1):
    assert eval_potential(q1, 0.0, 0) == 1.0
    assert eval_potential(q1, 1.0, 0) == 0.25
    assert eval_potential(q1, 0.0, 1) == 0.0


@given(st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_q1_rational_identity(x):
    q1 = builtin("q1")
    assert abs(eval_potential(q1, x, 0) * (1 + x * x) ** 2 - 1.0) < 1e-12


@given(st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=1e-6, max_value=10.0))
@settings(max_examples=300, deadline=None)
def test_strict_decrease_random_pairs(x1, gap):
    q1 = builtin("q1")
    x2 = x1 + gap
    assert eval_potential(q1, x1, 0) > eval_potential(q1, x2, 0)


def test_square_well_values(sw):
    assert eval_potential(sw, 0.5, 0) == 1.0
    assert eval_potential(sw, 2.0, 0) == 0.0
    assert sw.support_end == 1.0
    assert sw.q0 == 1.0


def test_quartic_is_class_member(q4):
    assert eval_potential(q4, 0.0, 1) == 0.0
    assert eval_potential(q4, 0.0, 2) == 0.0
    rep = validate_class(q4, 2)
    assert rep.all_pass


def test_decay_sandwich_q1(q1):
    d = q1.decay
    xs = np.geomspace(d.x_cut, 1e3, 200)
    q = eval_potential(q1, xs, 0)
    assert np.all(q <= d.a * xs ** (-float(d.k2)) * (1 + 1e-12))
    assert np.all(q >= xs ** (-float(d.k1)) / d.a * (1 - 1e-12))


def test_tabulated_interpolation_matches_closed_form(q1):
    xs = np.arange(0.0, 10.0 + 1e-9, 0.01)
    tab = make_potential({
        "kind": "tabulated",
        "table_x": xs,
        "table_q": (1 + xs * xs) ** -2,
        "decay": {"a": 2.0, "k1": 4, "k2": 4},
    })
    assert abs(eval_potential(tab, 5.0, 0) - 1.0 / 26**2) < 1e-8
    # off-node points too
    for x in (0.505, 3.3301, 7.77):
        assert abs(eval_potential(tab, x, 0) - (1 + x * x) ** -2) < 1e-8


def test_tabulated_extrapolation_control():
    xs = np.linspace(0.0, 5.0, 200)
    q = (1 + xs * xs) ** -2
    tab = make_potential({"kind": "tabulated", "table_x": xs, "table_q": q,
                          "decay": {"a": 2.0, "k1": 4, "k2": 4},
                          "extrapolate": False})
    with pytest.raises(PotentialError):
        eval_potential(tab, 9.0, 0)


def test_make_potential_rejects_bad_tables():
    with pytest.raises(PotentialError):
        make_potential({"kind": "tabulated",
                        "table_x": [0, 1, 1, 2],
                        "table_q": [4, 3, 2, 1],
                        "decay": {"a": 2, "k1": 4, "k2": 4}})
    with pytest.raises(PotentialError):
        make_potential({"kind": "tabulated",
                        "table_x": [0, 1, 2, 3],
                        "table_q": [4, 3, 3.5, 1],
                        "decay": {"a": 2, "k1": 4, "k2": 4}})
    with pytest.raises(PotentialError):
        make_potential({"kind": "tabulated",
                        "table_x": [0, 1, 2, 3],
                        "table_q": [4, 3, 2, -1],
                        "decay": {"a": 2, "k1": 4, "k2": 4}})
    with pytest.raises(PotentialError):
        make_potential({"kind": "tabulated",
                        "table_x": [0, 1, 2, 3],
                        "table_q": [4, 3, 2, 1]})
    with pytest.raises(PotentialError):
        make_potential({"kind": "no_such_kind"})


def test_eval_errors(q1):
    with pytest.raises(PotentialError):
        eval_potential(q1, -1.0, 0)
    with pytest.raises(PotentialError):
        eval_potential(q1, 1.0, 9)


def test_validate_class_q1(q1):
    rep = validate_class(q1, 1)
    assert rep.all_pass
    assert math.isfinite(rep.integrability_truncated)
    # k2 = 4 makes the analytic tail bound divergent; the report keeps that
    # visible rather than pretending the full integral is finite
    assert rep.integrability_tail_bound == math.inf


def test_validate_class_square_well_flags_plateau(sw):
    rep = validate_class(sw, 1)
    assert not rep["strict_decrease"].passed   # constant on [0, 1]
    assert not rep["positivity"].passed        # Q = 0 beyond the support
    assert rep["decay_bounds"].passed          # compact support: sandwich n/a


def test_validate_class_shifted_q1_fails_decay():
    shifted = make_potential({
        "kind": "user_closed_form",
        "fn": lambda x: (1 + np.asarray(x) ** 2) ** -2 + 0.1,
        "decay": {"a": 2.0, "k1": 4, "k2": 4},
        "m_smoothness": 0,
    })
    rep = validate_class(shifted, 0)
    assert not rep["decay_bounds"].passed


@pytest.mark.parametrize("kind", ["q1_rational", "quartic_rational", "square_well"])
def test_scalar_path_matches_array_bit_for_bit(kind):
    # a float x takes the float-only closed form; it must round exactly as
    # the array path does, breakpoint and origin included
    p = builtin(kind)
    xs = np.concatenate([
        [0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1e6],
        np.linspace(0.0, 4.0, 4001),
        np.geomspace(1e-9, 1e6, 6000),
    ])
    arr = eval_potential(p, xs)
    for cast in (float, np.float64):
        sc = np.array([eval_potential(p, cast(x)) for x in xs])
        assert np.array_equal(sc, arr)
    assert type(eval_potential(p, np.float64(0.5))) is float
    assert eval_potential(p, np.array([0.5]))[0] == eval_potential(p, 0.5)


@pytest.mark.parametrize("kind", ["q1_rational", "quartic_rational", "square_well"])
def test_negative_scalar_still_raises(kind):
    p = builtin(kind)
    for x in (-1.0, -1e-300, np.float64(-0.5)):
        with pytest.raises(PotentialError):
            eval_potential(p, x)


def test_user_callable_still_receives_an_array():
    seen = []

    def fn(x):
        seen.append(type(x))
        return 1.0 / (1.0 + np.asarray(x) ** 4)

    p = make_potential({"kind": "user_closed_form", "fn": fn,
                        "decay": {"a": 2.0, "k1": 4, "k2": 4}})
    seen.clear()
    assert eval_potential(p, 1.0) == 0.5
    assert seen == [np.ndarray]
