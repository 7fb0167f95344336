"""``means._exact_sum`` against ``math.fsum``, bit for bit.

The helper sums a float64 array exactly without building a Python list;
every test here compares it with ``math.fsum(v.tolist())`` by ``float.hex``,
or by the class and message of the error fsum raises, save where fsum's
partials overflow: there the oracle is the exactly rounded ``Fraction`` sum
of finite terms, and a sum past the float range is a DomainError.  The last tests run
the discrete outputs of the ``bhat`` benchmark workload on 10^4-bin pairs,
where the helper takes over from fsum, against dense fsum coefficients.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdt import bhattacharyya
from cdt.bhattacharyya import DiscreteDist, alpha_divergence, bhat_coefficient, cmbd, power_cmbd
from cdt.errors import DomainError, WeightError
from cdt.means import ARITHMETIC, GEOMETRIC, HARMONIC, WEIGHT_SUM_TOL, _EXACT_SUM_MIN, _exact_sum, gini, lehmer, power, weighted_means


def _outcome(fn):
    """fn()'s value as hex, or the class and message of its error."""
    try:
        return float(fn()).hex()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def same_as_fsum(v):
    v = np.asarray(v, dtype=float)
    want = _outcome(lambda: math.fsum(v.tolist()))
    if want[0] is OverflowError:
        exact = lambda: float(sum(map(Fraction, v.tolist())))
        want = _outcome(exact) if np.isfinite(v).all() else (OverflowError,)
        if want[0] is OverflowError:
            want = DomainError, f"overflow past the float range: the exact sum of {len(v)} terms is too large for a float"
    assert _outcome(lambda: _exact_sum(v)) == want


@st.composite
def term_arrays(draw):
    """Terms of magnitudes between 10^lo and 10^hi (down to subnormals),
    of one or both signs, with hypothesis-chosen floats spliced in, and
    optionally followed by their negatives, so that the sum cancels."""
    n = draw(st.one_of(st.integers(0, 3 * _EXACT_SUM_MIN), st.sampled_from([_EXACT_SUM_MIN + d for d in (-1, 0, 1)])))
    lo = draw(st.floats(-320.0, 300.0))
    hi = draw(st.floats(lo, 300.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = 10.0 ** rng.uniform(lo, hi, n)
    signs = draw(st.sampled_from(["+", "-", "+-"]))
    if signs == "-":
        v = -v
    elif signs == "+-":
        v[rng.random(n) < 0.5] *= -1.0
    if n:
        extra = draw(st.lists(st.floats(-1e300, 1e300), max_size=8))
        v[rng.integers(0, n, len(extra))] = extra
    if draw(st.booleans()):
        v = rng.permutation(np.concatenate((v, -v)))
    return v


@settings(deadline=None, max_examples=400)
@given(v=term_arrays())
def test_equals_fsum_bit_for_bit(v):
    same_as_fsum(v)


N = _EXACT_SUM_MIN


def padded(*terms, fill=0.0):
    return np.concatenate((terms, np.full(N, fill)))


@pytest.mark.parametrize(
    "v",
    [
        np.full(N, -0.0),
        np.zeros(N),
        np.full(N, 5e-324),  # the smallest subnormal, N times
        padded(2.0**-1022, -(2.0**-1074), fill=-(2.0**-1070)),  # subnormal total
        padded(1.0, 2.0**-53),  # a tie: to even, down
        padded(1.0 + 2.0**-52, 2.0**-53),  # a tie: to even, up
        padded(1.0, 2.0**-53, 2.0**-1074),  # just above a tie
        padded(1.0, -(2.0**-54), -(2.0**-1074)),  # just below a tie
        padded(1e300, -1e300, 1e-300),
        np.full(N, 2.0**1013),  # N 2^1013 < 2^1023: the exact path
        np.full(1024, 2.0**1013),  # 2^1023: fsum's
        np.full(2 * N, 1.5e-310) * np.tile([1.0, -1.0], N),
    ],
)
def test_fixed_cases(v):
    same_as_fsum(v)


@pytest.mark.parametrize(
    "terms",
    [(1e308, 1e308, -1e308), (1e308, 1e308), (math.inf, -math.inf), (math.nan,), (math.inf, 1.0), (-math.inf,)],
)
@pytest.mark.parametrize("length", ["short", "long"])
def test_non_finite_and_overflowing_sums_are_fsums(terms, length):
    # Long enough for the exact path, these must still give fsum's value or
    # error, or the exact sum where fsum overflows: (1e308, 1e308, -1e308) is 1e308.
    same_as_fsum(padded(*terms, fill=0.5) if length == "long" else terms)


def test_a_non_finite_term_after_overflowing_partials_is_refused():
    # fsum's partials overflow before it reaches the inf, so it raises
    # OverflowError; with a non-finite term there is no exact sum to give.
    with pytest.raises(DomainError) as info:
        _exact_sum(np.array([1e308, 1e308, math.inf]))
    assert str(info.value) == "overflow past the float range: the exact sum of 3 terms is too large for a float"


@pytest.mark.parametrize("n, fsum_calls", [(699, 1), (700, 0)])
def test_break_even(monkeypatch, n, fsum_calls):
    # Arrays of 700 terms and more leave fsum; 699 still go to it.
    v = np.random.default_rng(7).gamma(2.0, 1.0, n) / n
    want = math.fsum(v.tolist())
    fsum, calls = math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda x: calls.append(len(x)) or fsum(x))
    assert _exact_sum(v).hex() == want.hex()
    assert len(calls) == fsum_calls


def test_discrete_dist_reports_the_fsum_of_its_masses():
    m = np.random.default_rng(3).gamma(2.0, 1.0, 2 * N)
    with pytest.raises(WeightError) as err:
        DiscreteDist(tuple(m.tolist()))
    assert str(err.value) == f"masses sum to {math.fsum(m.tolist())!r}, expected 1 within {WEIGHT_SUM_TOL:g}"
    DiscreteDist(tuple((m / m.sum()).tolist()))


# ------------------------------------------- the discrete bhat workload


def masses(rng, kind, n=10_000):
    """n masses, about 30% of them zero, as the bhat workload draws them
    (gamma) or spread over 1e-300..1."""
    m = rng.gamma(2.0, 1.0, n) if kind == "gamma" else 10.0 ** rng.uniform(-300.0, 0.0, n)
    m[rng.random(n) < 0.3] = 0.0
    return m / m.sum()


def workload_outputs(alpha, P, Q):
    return {
        "cmbd G/A": lambda: cmbd(GEOMETRIC, ARITHMETIC, alpha, P, Q),
        "cmbd H/G": lambda: cmbd(HARMONIC, GEOMETRIC, alpha, P, Q),
        "cmbd power:-1/power:2": lambda: cmbd(power(-1), power(2), alpha, P, Q),
        "cmbd lehmer:-0.3/qa:identity": lambda: cmbd(lehmer(-0.3), ARITHMETIC, alpha, P, Q),
        "coefficient gini:1:1": lambda: bhat_coefficient(gini(1, 1), alpha, P, Q),
        "power_cmbd 2,-1": lambda: power_cmbd(2.0, -1.0, alpha, P, Q),
        "alpha_divergence": lambda: alpha_divergence(alpha, P, Q),
    }


def dense_coefficient(M, alpha, a, b):
    """The coefficient as the fsum over every bin of the mean kernel's value."""
    return math.fsum(weighted_means(M, np.array((a, b)), (1.0 - alpha, alpha)).tolist())


@pytest.mark.parametrize("kind", ["gamma", "spread"])
def test_bhat_workload_outputs_equal_the_dense_fsum(monkeypatch, kind):
    rng = np.random.default_rng(12)
    alpha = float(rng.uniform(0.3, 0.7))
    P, Q = (DiscreteDist(tuple(masses(rng, kind).tolist())) for _ in range(2))
    got = {k: _outcome(f) for k, f in workload_outputs(alpha, P, Q).items()}
    monkeypatch.setattr(bhattacharyya, "_mass_coefficient", dense_coefficient)
    assert got == {k: _outcome(f) for k, f in workload_outputs(alpha, P, Q).items()}


@pytest.mark.parametrize("length", ["short", "long"])
def test_a_representable_sum_whose_fsum_overflows_is_exact(length):
    terms = (1e308, 1e308, -1e308)
    v = padded(*terms) if length == "long" else np.array(terms)
    assert _exact_sum(v) == 1e308
    assert _exact_sum(np.array([1e308, 1e308, -1e308, -1e308])) == 0.0
