"""The seeded generators: build_groupoid against its encode-every-entry
oracle, and golden sha256 sums of the generators' first draws. The
benchmark's random-bundles sample and hypothesis's reproducible examples both
rest on these draws, so a change that moves one rng call shows here."""
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from bibucalc.io import bibundle_to_json
from bibucalc.generators import (
    build_groupoid,
    random_bibundle,
    random_right_principal_bibundle,
    random_spec,
)

from oracles import build_groupoid_scan

TABLES = ("l", "r", "comp", "inv", "unit")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4))
def test_build_groupoid_matches_scan(seed, max_objects, max_isotropy):
    spec = random_spec(random.Random(seed), max_objects, max_isotropy)
    got, want = build_groupoid(spec), build_groupoid_scan(spec)
    assert got.objects == want.objects
    assert got.arrows == want.arrows
    for name in TABLES:
        assert list(getattr(got, name).items()) == list(getattr(want, name).items())


def test_build_groupoid_fills_its_index():
    G = build_groupoid(random_spec(random.Random(5), 3, 3))
    assert list(G.index.parts_of) == list(G.arrows)
    for g, (i, j, _) in G.index.parts_of.items():
        assert (G.l[g], G.r[g]) == (i, j)


# sha256 over json.dumps(bibundle_to_json(M)) + "\n" for the first 40 draws
# of one rng per seed, recorded before the generators encoded labels once
DRAWS = 40
GENERATORS = {
    "random_bibundle/2,2": (random_bibundle, {"max_objects": 2, "max_isotropy": 2}),
    "random_right_principal_bibundle/2,2": (random_right_principal_bibundle,
                                            {"max_objects": 2, "max_isotropy": 2}),
    "random_bibundle/default": (random_bibundle, {}),
    "random_right_principal_bibundle/default": (random_right_principal_bibundle, {}),
}
GOLDEN = {
    ("random_bibundle/2,2", 1): "67e0ea44be7c3424608f8db0b7f2a93511f26349b7bb3a38a7c8346bfa21f4c4",
    ("random_bibundle/2,2", 2): "ee4994ec8573a65d9e9eb9412e347cee3970350c92e8ad7f18212ea6c5ba507d",
    ("random_bibundle/2,2", 3): "bff6b4b65d5f941a3f882f1448ebbc0295b22209d02c53fe6b5112457bcea695",
    ("random_right_principal_bibundle/2,2", 1):
        "adc93c733ddb05d553454e11ec34c9f6ff50cd1d1edb37e84482b8c96f35b604",
    ("random_right_principal_bibundle/2,2", 2):
        "ac6395aa2798b58aafa2b56e8833a36f3c1e71ca66f0afb1fee768493f793145",
    ("random_right_principal_bibundle/2,2", 3):
        "8995a4d8d2296d347c520429ebb47c517c9cf0d2ee5eef9bc7524c50681c6e6c",
    ("random_bibundle/default", 1): "7f9df2691cbc8c6ebdde8b3a617edac4281591ebd3efbaca8a1e1acf47f180d5",
    ("random_bibundle/default", 2): "823a5fc0d17372889b69f1f57b5895337c54e0a38b093414eba9a546d9483a2e",
    ("random_bibundle/default", 3): "b82e44fcb86346fe31b5c27c48a0172d5ecb2185c91de08bfaa4ba897651bd5c",
    ("random_right_principal_bibundle/default", 1):
        "11c5cd7ec6b4018921f80555b57d640b7b1fd32b55e75d2c990dbaff525fd623",
    ("random_right_principal_bibundle/default", 2):
        "487864944af86b9ac48e22ed0c7acf8368f503a5d46c73700b82c85c18e0dc72",
    ("random_right_principal_bibundle/default", 3):
        "2a23e20b1b42ddbc5b054a3fb2445f8e7a647e7a35c10347b1a7ba47b0cf0076",
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN), ids=[f"{n}/seed{s}" for n, s in sorted(GOLDEN)])
def test_generator_draws_golden(name, seed):
    generate, kwargs = GENERATORS[name]
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(DRAWS):
        digest.update(json.dumps(bibundle_to_json(generate(rng, **kwargs))).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN[(name, seed)]
