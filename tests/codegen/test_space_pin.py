"""Pins the exact space each consumer of the Section-III value table yields.

The enumerator, the strategies' :class:`ParamSpace` and the refiner all
read the parameter pools and restriction filter of
:mod:`repro.codegen.space`.  Each digest below is the blake2b of the
``repr`` of what one consumer produces, in order, so a change to a pool,
a pool's order or a filter moves it.
"""

import hashlib
import random

import pytest

from repro.codegen.space import SpaceRestrictions, enumerate_space, seed_candidates
from repro.devices import get_device_spec
from repro.spec.corpus import DEFAULT_FUZZ_SEED
from repro.tuner.refine import admissible_neighbors, neighbors
from repro.tuner.strategies.encoding import ParamSpace

#: The fuzz corpus's restrictions: the whole generator surface.
FUZZ = SpaceRestrictions(allow_images=True, allow_guarded=True)


def _digest(items) -> str:
    return hashlib.blake2b(repr(list(items)).encode(), digest_size=8).hexdigest()


@pytest.fixture(scope="module")
def tahiti():
    return get_device_spec("tahiti")


@pytest.mark.parametrize("device, precision, restrictions, kwargs, digest", [
    ("tahiti", "s", SpaceRestrictions(), {}, "1c2ed0ab5d7b6b2a"),
    ("bulldozer", "d", SpaceRestrictions(), {}, "0720dce53f7164b7"),
    ("tahiti", "d", SpaceRestrictions.previous_generator(), {}, "2b6f90ff786a02eb"),
    ("tahiti", "d", FUZZ, {"per_blocking": 4, "seed": DEFAULT_FUZZ_SEED},
     "dd1ef108093fd313"),
    ("sandybridge", "s", FUZZ, {"per_blocking": 4, "seed": DEFAULT_FUZZ_SEED},
     "f49aa8c39b6ea7a7"),
], ids=["tahiti-s", "bulldozer-d", "tahiti-d-previous", "tahiti-d-fuzz",
        "sandybridge-s-fuzz"])
def test_enumerate_space_is_pinned(device, precision, restrictions, kwargs, digest):
    keys = [p.cache_key() for p in enumerate_space(
        get_device_spec(device), precision, restrictions, limit=2000, **kwargs
    )]
    assert len(keys) == 2000
    assert _digest(keys) == digest


@pytest.mark.parametrize("restrictions, axes, decoded, decode_digest", [
    (SpaceRestrictions(), "a5986dd599722fca", 30, "a87caa47e12248c6"),
    (SpaceRestrictions.previous_generator(), "ad234db7ac8bcfd6", 125,
     "b18ec867dabb6270"),
], ids=["default", "previous"])
def test_param_space_is_pinned(tahiti, restrictions, axes, decoded, decode_digest):
    space = ParamSpace(tahiti, "d", restrictions)
    assert _digest(space.axes) == axes
    rng = random.Random(5)
    points = [space.decode(space.random_point(rng)) for _ in range(300)]
    assert sum(p is not None for p in points) == decoded
    assert _digest(p and p.cache_key() for p in points) == decode_digest


def test_neighbors_of_every_seed_are_pinned(tahiti):
    seeds = seed_candidates(tahiti, "d")
    hoods = [[c.cache_key() for c in neighbors(s, tahiti)] for s in seeds]
    assert (len(seeds), sum(map(len, hoods))) == (9, 166)
    assert _digest(hoods) == "518c6b79c4bc3736"
    previous = [
        [c.cache_key() for c in admissible_neighbors(
            s, tahiti, SpaceRestrictions.previous_generator())]
        for s in seeds
    ]
    assert sum(map(len, previous)) == 4
    assert _digest(previous) == "fc1db28c55240983"
    assert [[c.cache_key() for c in admissible_neighbors(s, tahiti, FUZZ)]
            for s in seeds] == hoods
