"""The memo behind reductions, certificates and power generators.

``generators._memoize`` keeps up to MEMO_SIZE results per function, keyed
on the argument tuple, and computes unhashable arguments without the cache.
These tests pin that a repeat spec evaluates F no more, that the checks
around a cached report still run on every construction, that the memoized
result is the unmemoized one field for field, and that a model holding an
unhashable callable gives its hashable twin's results bit for bit.
"""

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from cdt.convexity import (
    ConvexityReport,
    FunctionModel,
    Verdict,
    _is_mn_convex_cached,
    function_model,
    is_mn_convex,
    to_ordinary,
)
from cdt.divergences import (
    QabdSpec,
    WeightedSet,
    _midpoint_verdict_cached,
    bccd_numeric,
    bregman,
    jccd,
    jensen_diversity,
    lehmer_bregman,
    midpoint_verdict,
    skew_jccd,
)
from cdt.errors import AffineGeneratorWarning, ConvexityError
from cdt.generators import (
    IDENTITY,
    LOG,
    MEMO_SIZE,
    Generator,
    _memoize,
    _power_generator_cached,
    power_generator,
)
from cdt.means import ARITHMETIC, GEOMETRIC

DOMAIN = (0.5, 3.0)


class Counted:
    """x -> x**d over arrays, counting the points it is evaluated at; it
    hashes by identity, so each instance is a model of its own."""

    def __init__(self, d: float) -> None:
        self.d, self.points = d, 0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        self.points += x.size
        return x**self.d


@dataclass
class MutablePower:
    """x -> x**d over arrays: a mutable dataclass, so it does not hash."""

    d: float

    def __call__(self, x):
        return np.asarray(x, dtype=float) ** self.d


def hashable_power(d: float):
    return lambda x: np.asarray(x, dtype=float) ** d


def counted_model(d: float = 2.0) -> tuple[FunctionModel, Counted]:
    f = Counted(d)
    F = function_model(f"x^{d}", DOMAIN, f, lambda x: d * np.asarray(x, dtype=float) ** (d - 1.0))
    f.points = 0
    return F, f


def bits(v):
    """v as a structure whose equality is bit-for-bit equality of its floats
    (-0.0 and 0.0 differ); models and generators by their values on a grid
    of their domain."""
    if isinstance(v, float):
        return float.hex(v)
    if isinstance(v, np.ndarray):
        return [float.hex(x) for x in v.ravel().tolist()]
    if isinstance(v, (tuple, list)):
        return [bits(x) for x in v]
    if isinstance(v, FunctionModel):
        xs = v.domain.sample_grid(17)
        return [v.id, bits(v.domain), bits(v.value(xs)), bits(v.deriv(xs))]
    if isinstance(v, Generator):
        xs = v.domain.sample_grid(17)
        return [v.id, bits(v.domain), v.power_order, bits(v.value(xs)), bits(v.inv(v.value(xs))), bits(v.deriv(xs))]
    if dataclasses.is_dataclass(v):
        return [type(v).__name__] + [bits(getattr(v, f.name)) for f in dataclasses.fields(v)]
    return v


class TestRepeatSpecs:
    def test_a_second_spec_evaluates_F_zero_times(self):
        F, f = counted_model()
        first = QabdSpec(F, LOG, IDENTITY)
        assert f.points > 0
        f.points = 0
        second = QabdSpec(F, LOG, IDENTITY)
        assert f.points == 0
        assert second.verdict is first.verdict
        # the reduction qabd_conformal reads is memoized as well
        G = to_ordinary(first.F, first.rho, first.tau)
        f.points = 0
        assert to_ordinary(second.F, second.rho, second.tau) is G and f.points == 0

    def test_to_ordinary_returns_the_same_object_on_a_repeat_call(self):
        F, _ = counted_model()
        assert to_ordinary(F, IDENTITY, LOG) is to_ordinary(F, IDENTITY, LOG)
        assert to_ordinary(F, IDENTITY, LOG) is not to_ordinary(F, LOG, LOG)

    @pytest.mark.parametrize("grid, seed", [(129, 0), (257, 1)])
    def test_another_grid_or_seed_is_another_entry(self, grid, seed):
        F, f = counted_model()
        base = is_mn_convex(F, IDENTITY, IDENTITY)
        f.points = 0
        other = is_mn_convex(F, IDENTITY, IDENTITY, grid=grid, seed=seed)
        assert f.points > 0 and other is not base
        f.points = 0
        assert is_mn_convex(F, IDENTITY, IDENTITY, grid=grid, seed=seed) is other
        assert is_mn_convex(F, IDENTITY, IDENTITY) is base
        assert f.points == 0

    def test_a_midpoint_verdict_is_keyed_on_its_samples_and_seed(self):
        F, f = counted_model()
        base = midpoint_verdict(F, ARITHMETIC, ARITHMETIC)
        f.points = 0
        assert midpoint_verdict(F, ARITHMETIC, ARITHMETIC) is base and f.points == 0
        midpoint_verdict(F, ARITHMETIC, ARITHMETIC, samples=64)
        assert f.points > 0


class TestChecksRunOnAHit:
    def test_a_not_convex_F_raises_on_every_construction(self):
        F, f = counted_model(0.5)  # sqrt is concave under (A, A)
        for i in range(3):
            f.points = 0
            with pytest.raises(ConvexityError, match="witness"):
                QabdSpec(F, IDENTITY, IDENTITY)
            assert (f.points > 0) == (i == 0)

    def test_an_affine_F_warns_on_every_construction(self):
        F, f = counted_model(1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                QabdSpec(F, IDENTITY, IDENTITY)
        assert [w.category for w in caught] == [AffineGeneratorWarning] * 3
        f.points = 0
        with pytest.warns(AffineGeneratorWarning):
            QabdSpec(F, IDENTITY, IDENTITY)
        assert f.points == 0


def _cases():
    F, _ = counted_model()
    G, _ = counted_model(0.5)  # sqrt is concave under (A, A)
    return [
        ("to_ordinary", to_ordinary, (F, IDENTITY, LOG)),
        ("is_mn_convex", _is_mn_convex_cached, (F, IDENTITY, LOG, 257, 0)),
        ("is_mn_convex-witness", _is_mn_convex_cached, (G, IDENTITY, IDENTITY, 257, 3)),
        ("midpoint_verdict", _midpoint_verdict_cached, (F, GEOMETRIC, ARITHMETIC, 512, 0)),
        ("midpoint_verdict-witness", _midpoint_verdict_cached, (G, ARITHMETIC, ARITHMETIC, 100, 5)),
        ("power_generator", _power_generator_cached, (2.5,)),
        ("power_generator-negative", _power_generator_cached, (-1.5,)),
    ]


CASES = _cases()


@pytest.mark.parametrize("name, fn, args", CASES, ids=[c[0] for c in CASES])
def test_the_memoized_result_is_the_unmemoized_one_field_for_field(name, fn, args):
    memoized = fn(*args)
    assert fn(*args) is memoized
    assert bits(fn.__wrapped__(*args)) == bits(memoized)
    if isinstance(memoized, ConvexityReport) and name.endswith("witness"):
        assert memoized.verdict is Verdict.NOT_CONVEX and memoized.witness is not None


def test_the_memo_keeps_at_most_MEMO_SIZE_entries():
    assert MEMO_SIZE == 512
    models = [
        function_model(f"x^2+{i}", DOMAIN, lambda x, c=float(i): np.asarray(x, dtype=float) ** 2 + c)
        for i in range(MEMO_SIZE + 8)
    ]
    first = to_ordinary(models[0], IDENTITY, IDENTITY)
    for F in models[1:]:
        to_ordinary(F, IDENTITY, IDENTITY)
    assert to_ordinary.cache_info().currsize == MEMO_SIZE
    assert to_ordinary(models[-1], IDENTITY, IDENTITY) is to_ordinary(models[-1], IDENTITY, IDENTITY)
    again = to_ordinary(models[0], IDENTITY, IDENTITY)  # evicted: reduced anew
    assert again is not first and bits(again) == bits(first)


def test_arguments_that_do_not_hash_are_computed_without_the_cache():
    calls = []
    total = _memoize(lambda xs, k=0: calls.append(xs) or sum(xs) + k)
    assert total([1, 2]) == total([1, 2]) == 3
    assert total((1, 2), k=1) == total((1, 2), k=1) == 4
    assert calls == [[1, 2], [1, 2], (1, 2)]
    assert total.cache_info().currsize == 1


# ------------------------------------------- models whose callable does not hash

def _twins(d: float) -> tuple[FunctionModel, FunctionModel]:
    deriv = lambda x: d * np.asarray(x, dtype=float) ** (d - 1.0)  # noqa: E731
    mutable = function_model(f"x^{d}", DOMAIN, MutablePower(d), deriv)
    hashable = function_model(f"x^{d}", DOMAIN, hashable_power(d), deriv)
    with pytest.raises(TypeError):
        hash(mutable)
    hash(hashable)
    return mutable, hashable


PTS = WeightedSet((0.7, 1.5, 2.6), (0.2, 0.5, 0.3))

UNHASHABLE_CALLS = {
    "jccd": lambda F: jccd(F, ARITHMETIC, ARITHMETIC, 1.0, 2.5),
    "skew_jccd": lambda F: skew_jccd(F, GEOMETRIC, ARITHMETIC, 0.3, 0.8, 2.0),
    "jensen_diversity": lambda F: jensen_diversity(F, ARITHMETIC, ARITHMETIC, PTS),
    "bccd_numeric": lambda F: bccd_numeric(F, ARITHMETIC, ARITHMETIC, 1.0, 2.5, (0.1, 0.01, 0.001)),
    "bregman": lambda F: bregman(F, GEOMETRIC, ARITHMETIC, 1.0, 2.5),
    "lehmer_bregman": lambda F: lehmer_bregman(F, 0.0, 0.0, 1.0, 2.5),
    "midpoint_verdict": lambda F: midpoint_verdict(F, GEOMETRIC, ARITHMETIC),
    "is_mn_convex": lambda F: is_mn_convex(F, IDENTITY, LOG),
    "QabdSpec": lambda F: QabdSpec(F, LOG, IDENTITY),
}


@pytest.mark.parametrize("call", list(UNHASHABLE_CALLS.values()), ids=list(UNHASHABLE_CALLS))
def test_a_model_that_does_not_hash_gives_its_hashable_twins_results(call):
    mutable, hashable = _twins(2.0)
    assert bits(call(mutable)) == bits(call(hashable))
    assert bits(call(mutable)) == bits(call(hashable))  # the second from the cache on the hashable side


@pytest.mark.parametrize("certify", [
    lambda F: is_mn_convex(F, IDENTITY, IDENTITY), lambda F: midpoint_verdict(F, ARITHMETIC, ARITHMETIC),
], ids=["is_mn_convex", "midpoint_verdict"])
def test_a_not_convex_model_that_does_not_hash_gives_the_same_witness(certify):
    mutable, hashable = _twins(0.5)  # sqrt is concave under (A, A)
    report = certify(mutable)
    assert report.verdict is Verdict.NOT_CONVEX and bits(report) == bits(certify(hashable))


@pytest.mark.parametrize("build", [
    lambda F: QabdSpec(F, IDENTITY, IDENTITY), lambda F: jccd(F, ARITHMETIC, ARITHMETIC, 1.0, 2.0),
], ids=["QabdSpec", "jccd"])
def test_a_not_convex_model_that_does_not_hash_raises_the_same_error(build):
    messages = []
    for F in _twins(0.5):
        with pytest.raises(ConvexityError) as info:
            build(F)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_a_model_that_does_not_hash_is_certified_on_each_call():
    f = MutablePower(2.0)
    F = function_model("x^2", DOMAIN, f)
    first = is_mn_convex(F, IDENTITY, IDENTITY)
    f.d = 0.5  # a mutable model is never cached, so its new state is seen
    assert first.verdict is Verdict.CONVEX
    assert is_mn_convex(F, IDENTITY, IDENTITY).verdict is Verdict.NOT_CONVEX


def test_power_generators_are_memoized_per_exponent():
    assert power_generator(2.5) is power_generator(2.5) is _power_generator_cached(2.5)
