import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from capacity_lab import Ellipsoid, EllipsoidPair, Polydisk, ProductWithBall

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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
