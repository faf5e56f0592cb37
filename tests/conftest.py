import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from capacity_lab import Ellipsoid, EllipsoidPair, IndexVector, PiRational, Polydisk, ProductWithBall
from capacity_lab.domains import _TwoRadii

MAX_HEIGHT = 20

radii_st = st.fractions(
    min_value=Fraction(1, MAX_HEIGHT), max_value=Fraction(MAX_HEIGHT), max_denominator=MAX_HEIGHT
)
ellipsoids_st = st.builds(Ellipsoid, radii_st, radii_st)
pairs_st = st.builds(EllipsoidPair.normalized, ellipsoids_st, ellipsoids_st)
nonprop_pairs_st = pairs_st.filter(lambda p: not p.proportional)


def random_radius(rng: random.Random, max_height: int = MAX_HEIGHT) -> Fraction:
    return Fraction(rng.randint(1, max_height), rng.randint(1, max_height))


def random_ellipsoid(rng: random.Random, max_height: int = MAX_HEIGHT) -> Ellipsoid:
    return Ellipsoid(random_radius(rng, max_height), random_radius(rng, max_height))


def random_pair(rng: random.Random, max_height: int = MAX_HEIGHT) -> EllipsoidPair:
    return EllipsoidPair.normalized(random_ellipsoid(rng, max_height), random_ellipsoid(rng, max_height))


def random_nonprop_pair(rng: random.Random, max_height: int = MAX_HEIGHT) -> EllipsoidPair:
    while True:
        pair = random_pair(rng, max_height)
        if not pair.proportional:
            return pair


def power_pair(e: int) -> EllipsoidPair:
    """E(r,r) + E(2r,3r) with r = 10^e."""
    r = Fraction(10) ** e
    return EllipsoidPair.normalized(Ellipsoid(r, r), Ellipsoid(2 * r, 3 * r))


def float_radii(pair: EllipsoidPair) -> tuple[float, float, float, float]:
    """The radii a, b, c, d as plain floats, unscaled."""
    return tuple(map(float, pair.radii))


def s_prime_float(v: IndexVector, pair: EllipsoidPair, f: float) -> float:
    """Closed-form S'(f) in floats, straight from ``_s_prime_over_pi``."""
    from capacity_lab._kernels import _s_prime_over_pi

    return math.pi * _s_prime_over_pi(*float_radii(pair))(v.v1, v.v2, f)


def scale_domain(lam: Fraction, domain):
    """Reference scaling: every linear dimension of a domain (radii and R) times lam > 0."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError(f"scale factor must be positive, got {lam}")
    if isinstance(domain, (Ellipsoid, Polydisk, EllipsoidPair)):
        return domain.scaled(lam)
    if isinstance(domain, ProductWithBall):
        return ProductWithBall(scale_domain(lam, domain.inner), domain.m, domain.R * lam)
    raise TypeError(f"unsupported domain: {domain!r}")


def record_contract(cls, args, changed, text):
    """Check what a frozen dataclass gives: fields from positional, keyword and mixed arguments, equality
    and hash over the fields within one class, the dataclass repr, no assignment or deletion, and copies
    and pickles equal to the record.  args and changed differ in one field; text is the repr of cls(*args)."""
    record = cls(*args)
    by_name = cls(**dict(zip(cls._fields, args)))
    assert cls(*args[:1], **dict(zip(cls._fields[1:], args[1:]))) == record
    assert [getattr(record, name) for name in cls._fields] == list(args)
    assert by_name == record and hash(by_name) == hash(record) and {by_name: 1}[record] == 1
    assert record != cls(*changed) and not record == cls(*changed)
    assert repr(record) == repr(by_name) == text
    # equal only to a record of the same class
    for other in (tuple(args), args[0], object()):
        assert record != other and other != record
    if cls in (_TwoRadii, Ellipsoid, Polydisk):
        assert all(record != other(*args) for other in {_TwoRadii, Ellipsoid, Polydisk} - {cls})
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, args[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    if cls is EllipsoidPair:
        # proportional is set by the constructor, and equality, hash and repr leave it out
        assert record.proportional and not cls(*changed).proportional
        with pytest.raises(AttributeError):
            record.proportional = False
        flipped = object.__new__(cls)
        for name, value in (("first", args[0]), ("second", args[1]), ("proportional", False)):
            object.__setattr__(flipped, name, value)
        assert flipped == record and hash(flipped) == hash(record) and repr(flipped) == text
    if cls is PiRational:
        low, high = record, cls(*changed)
        assert low < high and low <= high and low <= by_name and high > low and high >= low and low >= by_name
        assert not (high < low or high <= low or low > high or low >= high)
        assert PiRational(1) != Fraction(1)
        for compare in (lambda x, y: x < y, lambda x, y: x <= y, lambda x, y: x > y, lambda x, y: x >= y):
            for x, y in ((record, Fraction(2)), (Fraction(2), record)):
                with pytest.raises(TypeError):
                    compare(x, y)
    pickled = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in (copy.copy(record), copy.deepcopy(record), *pickled):
        assert type(again) is cls and again == record and hash(again) == hash(record) and repr(again) == text
        if cls is EllipsoidPair:
            assert again.proportional


def replace(record, **changes):
    """A new record of record's class, built through its constructor, with the fields in changes replaced."""
    if unknown := changes.keys() - set(record._fields):
        raise TypeError(f"{type(record).__name__} has no field {sorted(unknown)[0]!r}")
    return type(record)(**{name: changes.get(name, getattr(record, name)) for name in record._fields})


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max_all_steps(fn, lo, hi, iters):
    """``_kernels.golden_max`` without its early stop, the reference for it: always all iters steps."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    best = max(fn(lo), fn(hi))
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = fn(x1)
    return max(best, f1, f2)


@pytest.fixture
def golden_early_stop_checked(monkeypatch):
    """Every ``golden_max`` call of the test, the numeric norm's included, must return
    exactly what all of its steps return."""
    from capacity_lab import _kernels

    early = _kernels.golden_max

    def checked(fn, lo, hi, iters):
        got = early(fn, lo, hi, iters)
        assert got == golden_max_all_steps(fn, lo, hi, iters), (lo, hi, iters)
        return got

    monkeypatch.setattr(_kernels, "golden_max", checked)
