"""The seeded generators draw the same instances from the same seed.

Each digest is the SHA-256 of the ``repr`` of the first 200 draws of one
generator, called as the implication suites call it.  The digests were
recorded before the generators moved onto integer arithmetic, so a change
in any draw -- or in the order of the calls the ``random.Random`` sees --
shows up here.
"""

import hashlib
import random

import pytest

from crspec.randgen import (
    random_box_relation,
    random_finite_relation,
    random_finite_space,
    random_isometric_space,
    random_point,
    random_spaced_triples,
)

DRAWS = 200


def _spaced_triples(rng):
    if rng.random() < 0.5:
        relation = random_box_relation(rng)
    else:
        relation = random_finite_relation(rng, random_finite_space(rng, rng.randint(2, 6)))
    return random_spaced_triples(rng, relation, rng.randint(1, 3), rng.randint(1, 3)), random_point(
        rng, relation
    )


GENERATORS = {
    "random_box_relation": lambda rng: random_box_relation(rng),
    "random_finite_space": lambda rng: random_finite_space(rng, rng.randint(2, 6)),
    "random_isometric_space": lambda rng: random_isometric_space(rng, rng.randint(2, 6)),
    "random_finite_relation": lambda rng: random_finite_relation(
        rng, random_finite_space(rng, rng.randint(2, 6)), p1_full=True, p2_full=True
    ),
    "random_spaced_triples": _spaced_triples,
}

PINNED = {
    "random_box_relation": "8a9316344e4e2fb55fd8d113360af704c91db0d57b75900682626039f88cab5d",
    "random_finite_space": "2037dcf3175e0eb157ebdb6eac51d0c656d60a8a8cd9fa689805e0372135c583",
    "random_isometric_space": "0d9b243adc257bdb671c3dd49f07bf283ee0431d2aa46d4e8f569c29ac318c68",
    "random_finite_relation": "8786b830e94302e5be804833cd685b0201d664b49eb00f5cd8e56aa0707d5fac",
    "random_spaced_triples": "4f825b9fc97cb480d17d6328f490662c0e7ca5e0ab18e59dba44c56d59a59a0e",
}


def digest(name: str) -> str:
    rng = random.Random(f"pin {name}")
    draws = [GENERATORS[name](rng) for _ in range(DRAWS)]
    return hashlib.sha256(repr(draws).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_draws_are_pinned(name):
    assert digest(name) == PINNED[name]
