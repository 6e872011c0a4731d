"""The seeded generators draw the same instances from the same seed.

Each digest is the SHA-256 of the ``repr`` of the first 200 draws of one
generator, called as the implication suites call it.  The digests were
recorded before the generators moved onto integer arithmetic, so a change
in any draw -- or in the order of the calls the ``random.Random`` sees --
shows up here.  The generators draw through ``randrange``; the digests of
``random_fraction`` and the suites' verdicts were recorded while they still
drew through ``randint``.
"""

import hashlib
import random

import pytest

import crspec.randgen
from crspec import implication_suite
from crspec.randgen import (
    random_box_relation,
    random_fraction,
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
    "random_fraction": lambda rng: random_fraction(rng),
    "random_box_relation": lambda rng: random_box_relation(rng),
    "random_finite_space": lambda rng: random_finite_space(rng, rng.randint(2, 6)),
    "random_isometric_space": lambda rng: random_isometric_space(rng, rng.randint(2, 6)),
    "random_finite_relation": lambda rng: random_finite_relation(
        rng, random_finite_space(rng, rng.randint(2, 6)), p1_full=True, p2_full=True
    ),
    "random_spaced_triples": _spaced_triples,
}

PINNED = {
    "random_fraction": "3570bb0c3ff571c56321e7fef2adfa784741b39ea571c75a866e0d0a505b753c",
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



# implication_suite(seed, 40): the digest of every randgen call it makes (arguments
# after the RNG, and result), which the suites' own draws choose, and each
# verdict's (name, instances, failures, seed)
SUITES = {
    0: "cb0257dbd6e84229e8cf555b38b69c0f6200e7cc97b5b472d0da9e8d563b9809",
    7: "bc54f9c2ffc0a36c8e10946d9a2b5de4da378bcb50eb419c2f3f020f8a7f49b0",
    2024: "83effec7eff4d848fbfde76051caccdaf3e5c0af5e68b0f7b8dede0df0f8f5ba",
}
SUITE_NAMES = (
    "hausdorff-pass-implies-plain-pass",
    "initial-to-spaced-round-trip",
    "isometric-conjugacy-invariance",
    "function-relation-agreement",
)


@pytest.mark.parametrize("seed", sorted(SUITES))
def test_suite_instances_and_verdicts_are_pinned(seed, monkeypatch):
    calls = []
    for name in dir(crspec.randgen):
        if name.startswith("random_"):
            draw = getattr(crspec.randgen, name)

            def recorded(*args, name=name, draw=draw, **kwargs):
                out = draw(*args, **kwargs)
                calls.append((name, args[1:], kwargs, out))
                return out

            monkeypatch.setattr(crspec.randgen, name, recorded)
    verdicts = implication_suite(seed, 40)
    assert hashlib.sha256(repr(calls).encode("utf-8")).hexdigest() == SUITES[seed]
    expected = [(name, 40, (), seed + k) for k, name in enumerate(SUITE_NAMES)]
    assert [(v.name, v.instances, v.failures, v.seed) for v in verdicts] == expected
