"""Golden outputs: sha256 of the --json manifests and written files of the
principality, pairing, Morita, linking, group, coherence and identity-check
verbs on the Kronecker (4,2) fixture, of check-group and preinverse on
(3,1), (6,6) and (8,8), whose fourth powers G^4 are the largest product
groupoids the group checks build, and of eval-diagram on the antipode
composite over (4,2) and (4,4). The check runs pin the bijection the
isomorphism search finds (or its failure), the coherence run the associator
and unitor candidates it tries. Every command runs inside a temporary directory with relative paths,
so manifests hold only relative paths and the inputs' sha256, and the bytes
do not depend on where the test runs. The validate runs pin the violations
reported, in order, for a groupoid and a bundle whose tables were damaged
after a valid one was written. Every manifest and file a run writes is also
checked, as it is written, against json's own indenting writer."""
import contextlib
import hashlib
import os

import pytest

from bibucalc import cyclic_groupoid, identity_bibundle, io, pair_groupoid, product_groupoid
from bibucalc.cli import main
from bibucalc.core import FinGroupoid
from oracles import dumps_stdlib

STEM = "kronecker_4_2"

# (name, argv, exit code); each run writes into an --out directory of its name,
# so the runs named after their verb also pin a manifest command that keeps
# an argument equal to the verb
RUNS = [
    ("principal_mu_right", ["principal", "--bibundle", f"{STEM}_mu.json", "--side", "right"], 0),
    ("principal_mu_left", ["principal", "--bibundle", f"{STEM}_mu.json", "--side", "left"], 1),
    ("principal_i_right", ["principal", "--bibundle", f"{STEM}_i.json", "--side", "right"], 0),
    ("principal_i_left", ["principal", "--bibundle", f"{STEM}_i.json", "--side", "left"], 0),
    ("pairing_mu", ["pairing", "--bibundle", f"{STEM}_mu.json"], 0),
    ("pairing_i", ["pairing", "--bibundle", f"{STEM}_i.json"], 0),
    ("morita_i", ["morita", "--bibundle", f"{STEM}_i.json"], 0),
    ("morita_mu", ["morita", "--bibundle", f"{STEM}_mu.json"], 1),
    ("linking_i", ["linking", "--groupoid", "--bibundle", f"{STEM}_i.json"], 0),
    ("linking_mu", ["linking", "--groupoid", "--bibundle", f"{STEM}_mu.json"], 1),
    ("preinverse", ["preinverse", "--spec", f"{STEM}.json"], 0),
    ("check_group", ["check-group", "--spec", f"{STEM}.json"], 0),
    ("coherence", ["coherence", "--spec", f"{STEM}.json"], 0),
    ("check_assoc", ["check", "--groupoid", f"{STEM}_groupoid.json", "--bind", f"mu={STEM}_mu.json",
                     "--lhs", "(mu * id) ; mu", "--rhs", "(id * mu) ; mu"], 0),
    # the Z/2-action on Z/4 is free, so the counit square holds on this fixture
    ("check_counit", ["check", "--groupoid", f"{STEM}_groupoid.json",
                      "--lhs", "delta ; ev", "--rhs", "eps"], 0),
    ("check_swap_fails", ["check", "--groupoid", f"{STEM}_groupoid.json",
                          "--lhs", "tau", "--rhs", "id * id"], 1),
]

GOLDEN = {
    "check_assoc": {
        "check_witness.json":
            "87876d710bc68cd9f5eefc49fcea633c377370faa0809445d5057ada7acdc127",
        "stdout":
            "13e32481d824d45efef47a8e3f72db204455cbb24d82531bd14508a0d787a426",
    },
    "check_counit": {
        "check_witness.json":
            "8298ef25bbba5d1fcf31029d111ed92009d2a03c1b619043f8f5da0f9395f43c",
        "stdout":
            "10033508b94b6d19b88e9a596f81a48c43b320e3ee9cf96381445534fffcf654",
    },
    "check_group": {
        "stdout":
            "9ac1f0ee7524a35da829a6a5bd7242eb658fcf94b72fb3517553507064cb3b16",
    },
    "check_swap_fails": {
        "check_witness.json":
            "cbc50db750d17ca8dbedef2c2a02565e0b057290d4cf3acc2967df22b96f574f",
        "stdout":
            "e541545efe831d552f61c1fc416abfb8bb7b1b7fe6053b62dfb7cd01aa9e4a32",
    },
    "coherence": {
        "stdout":
            "a376947c4eb964aee5f491604a3b560979fa85b9b92e76edc284cb19fe9d42fb",
    },
    "gen_fixture": {
        "kronecker_4_2.json":
            "ba3c0cdf03f6e787ffdf2c8da51ef5a714006db5f859edf13336eb20e5618a83",
        "kronecker_4_2_e.json":
            "72ee173d37dc15bbbcd8adcebbc963c89b936e6435c16aec3cb336dc18def2e5",
        "kronecker_4_2_groupoid.json":
            "32826bef941b541dde5830ce117208fe8caf44f94becfab4eb34235d52407d1a",
        "kronecker_4_2_i.json":
            "95c1e37632302dee6f348c093f7832e9a83cd24422105fb44ed43e77f2ea0d0f",
        "kronecker_4_2_mu.json":
            "a3d39eaa6c078c4532dfadb359f7d9de354576523d9e2f398c4bb82ce3a36d06",
        "stdout":
            "554d8ec9c6ed432e9cb251c646f059334b95a37a18932741921bd6775d7ef6b8",
    },
    "linking_i": {
        "linking_groupoid.json":
            "f8dd8349b7209d9761797be11dad2640d343ae824e6b96563f8468110f6201a9",
        "stdout":
            "438d48c3bf3c465afdfbea20910175e22a0d71d23319bf0d11fe6e6d7ca3893c",
    },
    "linking_mu": {
        "linking_witness.json":
            "501289f2bd415e6b3f80317937f48ed6f644b83820e1afb458dc716f7b4458da",
        "stdout":
            "2203c08a8d96c08d4e9a9fac91919b113f86744c02b0aa60935989c326de9b1c",
    },
    "morita_i": {
        "stdout":
            "1db58a4e02aa6eaa0ab17123adfd72b58445484c94e35812ef1ef437d3525531",
    },
    "morita_mu": {
        "morita_witness.json":
            "f4b4fc9eba15f929f83089ac638649d8e58beb41684bffe7916304d2789c4df7",
        "stdout":
            "1113f58d51b9aeafceed1177160f8f9cceb76f456d825906d88e148fad1df76c",
    },
    "pairing_i": {
        "pairing.json":
            "a82b2949c737d3ed415b6e65f2a944dfea039a9467134dc3a064244b6ca9b45d",
        "stdout":
            "b2647278578068ca3e9deee886d079a32610a4b7bc8bbdd2bc931a5337c65155",
    },
    "pairing_mu": {
        "pairing.json":
            "1a38b8ba743af555cf8ea833ce147ff7b3188f00a7f5c565012cbd6f89329c89",
        "stdout":
            "90e7bacf274f2f6fab025b7e946b8a3cc018ce03683894fbe634966df06f3b70",
    },
    "preinverse": {
        "preinverse.json":
            "d9c866c0e7f3c753ea0ba338960f959db704b4e26f5ab08380ba8eb768adca30",
        "stdout":
            "a712098b3c093325c446764c4cfe5e3b451e9fb0bc98a1e3a0f9d658ede86d5c",
    },
    "principal_i_left": {
        "stdout":
            "11e7c5354f5ed4e877c83d81b4f1a633e14d0e59c33bfb7c98ced0c8f4267b76",
    },
    "principal_i_right": {
        "stdout":
            "cb702802ebc8c5146726313b071a82ba6d8bc1a4cff33a8bcc059080a9285dff",
    },
    "principal_mu_left": {
        "principal_witness.json":
            "501289f2bd415e6b3f80317937f48ed6f644b83820e1afb458dc716f7b4458da",
        "stdout":
            "eb1bb9bcb0b4d7d9c33aab64b305dba90b97de9002571f15a1c905949c49fe82",
    },
    "principal_mu_right": {
        "stdout":
            "16336d7b8443bd52f35993b87954bcfe8922f99f7549bd741edeff0a65092b63",
    },
}


# check-group and preinverse on the fixtures with the largest G^4 (6,561
# arrows at (3,1), 4,096 at (8,8), 1,296 at (6,6)), by (n, q) and run name
POWER_RUNS = [("check_group", "check-group"), ("preinverse", "preinverse")]

GOLDEN_POWERS = {
    (3, 1): {
        "check_group": {
            "stdout":
                "0a3b360c31f063069d8a118dff4028cba08cc5b06fa2244cc3311f260c8689c7",
        },
        "preinverse": {
            "preinverse.json":
                "2896f5468d557e49788f706bb791fe172964e7439fae8581ddc839082e66c04f",
            "stdout":
                "ef5447f06c6904f1690f597bca29906db0efd2c7723a1b92bf10f817bb5b3a7c",
        },
    },
    (6, 6): {
        "check_group": {
            "stdout":
                "b4a8653fe02668d37701ee8a542d117982af8c9c11ce11e3c88ce60583206a53",
        },
        "preinverse": {
            "preinverse.json":
                "b9ae5b58d41158107e90f1acf210b29c9568d3a861da2ff33880815337536661",
            "stdout":
                "0fd6cd59f0518469ce0ba60cff15fd54846daaed3f99b4a7df541c1a9750203f",
        },
    },
    (8, 8): {
        "check_group": {
            "stdout":
                "fe78c08d336afe0a8519b0dd0bff2cde88f2bedeaacf528bee8bd873bf9964a7",
        },
        "preinverse": {
            "preinverse.json":
                "c8d9f62a0043df18c7d56c77dc97da54245f0483e8fc8d266a4f16f020076301",
            "stdout":
                "8b89eca2f01fa76c8ec18ee59dcb07a85b902707f20e0fa38c2d91ddd19d873a",
        },
    },
}


# the antipode composite, whose tensor (i * id) is read by compose in part
ANTIPODE = "delta ; (i * id) ; mu"

GOLDEN_ANTIPODE = {
    (4, 2): {
        "diagram.json":
            "98ace792b432cdc4b1c721301b68641ecfef4d2c6baec0942dd0d9aca022045c",
        "stdout":
            "c41e6053d030ba768f6d845eb8d3eda4e8ff8f27bd1656ffc5f302bbcebc9d54",
    },
    (4, 4): {
        "diagram.json":
            "d7117562c102236f4449474b646371d7ddec00105935c30a6e38de340230bf9d",
        "stdout":
            "c58b0a90aae517a738fd73593c539b3129c31b6dfa077db95098b28687efc4f8",
    },
}


@pytest.fixture(autouse=True)
def writes_match_stdlib(monkeypatch):
    """io.dumps, which writes every manifest and file, checked against
    dumps_stdlib on each object it is given."""
    dumps, written = io.dumps, []

    def checked(obj):
        text = dumps(obj)
        assert text == dumps_stdlib(obj)
        written.append(text)
        return text

    monkeypatch.setattr(io, "dumps", checked)
    yield
    assert written


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(directory) -> dict[str, str]:
    """sha256 of every file under the directory, by relative path."""
    out = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = _sha(fh.read())
    return out


def _run(capsys, argv) -> tuple[int, str]:
    capsys.readouterr()
    code = main(argv + ["--json"])
    return code, _sha(capsys.readouterr().out.encode())


@pytest.fixture
def fixture_dir(tmp_path, capsys):
    with contextlib.chdir(tmp_path):
        code, stdout = _run(capsys, ["gen-fixture", "--family", "kronecker_finite",
                                     "--n", "4", "--q", "2"])
    assert code == 0
    return tmp_path, {"stdout": stdout, **_digests(tmp_path)}


def test_gen_fixture_golden(fixture_dir):
    _, got = fixture_dir
    assert got == GOLDEN["gen_fixture"]


@pytest.mark.parametrize("name, argv, code", RUNS, ids=[r[0] for r in RUNS])
def test_verb_golden(fixture_dir, capsys, name, argv, code):
    root, _ = fixture_dir
    with contextlib.chdir(root):
        got_code, stdout = _run(capsys, argv + ["--out", name])
    assert got_code == code
    assert {"stdout": stdout, **_digests(root / name)} == GOLDEN[name]


@pytest.mark.parametrize("n, q", sorted(GOLDEN_POWERS), ids=lambda v: str(v))
@pytest.mark.parametrize("name, verb", POWER_RUNS, ids=[r[0] for r in POWER_RUNS])
def test_power_verb_golden(tmp_path, capsys, n, q, name, verb):
    with contextlib.chdir(tmp_path):
        assert _run(capsys, ["gen-fixture", "--family", "kronecker_finite",
                             "--n", str(n), "--q", str(q)])[0] == 0
        code, stdout = _run(capsys, [verb, "--spec", f"kronecker_{n}_{q}.json", "--out", name])
    assert code == 0
    assert {"stdout": stdout, **_digests(tmp_path / name)} == GOLDEN_POWERS[(n, q)][name]


@pytest.mark.parametrize("n, q", sorted(GOLDEN_ANTIPODE), ids=lambda v: str(v))
def test_eval_diagram_golden(tmp_path, capsys, n, q):
    stem = f"kronecker_{n}_{q}"
    with contextlib.chdir(tmp_path):
        assert _run(capsys, ["gen-fixture", "--family", "kronecker_finite",
                             "--n", str(n), "--q", str(q)])[0] == 0
        code, stdout = _run(capsys, ["eval-diagram", "--groupoid", f"{stem}_groupoid.json",
                                     "--bind", f"i={stem}_i.json", "--bind", f"mu={stem}_mu.json",
                                     ANTIPODE, "--out", "antipode"])
    assert code == 0
    assert {"stdout": stdout, **_digests(tmp_path / "antipode")} == GOLDEN_ANTIPODE[(n, q)]


# validate on damaged files over pair(2) x Z/2, whose arrows come two to a
# pair of endpoints, so a damaged value can keep its row's moments, and whose
# reports stay under the manifest's 20 violations: the composite of the first
# unit with itself breaks associativity, the unit laws and the inverse laws;
# a damaged action row breaks that action's law and commutation
def _base() -> FinGroupoid:
    return product_groupoid([pair_groupoid(2), cyclic_groupoid(2)])


def _damaged_groupoid() -> dict:
    d = io.groupoid_to_json(_base())
    unit = d["arrows"][0]
    row = next(row for row in d["comp"] if row[:2] == [unit, unit])
    row[2] = d["arrows"][1]
    return d


def _damaged_bundle(table: str) -> dict:
    """The identity bundle of the base with row 3 of one action table sent
    to the other point over the same moments."""
    d = io.bibundle_to_json(identity_bibundle(_base()))
    row = d[table][3]
    row[2] = next(m for m in d["carrier"] if m != row[2] and d["lM"][m] == d["lM"][row[2]]
                  and d["rM"][m] == d["rM"][row[2]])
    return d


VALIDATE_RUNS = {
    "groupoid": _damaged_groupoid,
    "bibundle_left": lambda: _damaged_bundle("leftAct"),
    "bibundle_right": lambda: _damaged_bundle("rightAct"),
}

GOLDEN_VALIDATE = {
    "bibundle_left": {
        "stdout":
            "23e18104c8b3793d22c6860cab9ac5dbe304ba6a53fa0c3c10b29dc2f82763f9",
        "validate_witness.json":
            "43aacfdf5935d562714e0726eeaaad116223f44d36bc886dfc88f033b39e1656",
    },
    "bibundle_right": {
        "stdout":
            "bfe108cd2d02e9bc55f4821c0e9ad6e0767a2cca8d52213266cec844981f2e88",
        "validate_witness.json":
            "3a2cdad1784b6f99a4eb1a645dc0ea33dd2d8c03f598827d9c99cb5de848d4c8",
    },
    "groupoid": {
        "stdout":
            "5439de047c54d022f6c6b4b008f5cbb83230aa4d9ba610c5fd50d67f0ef3db54",
        "validate_witness.json":
            "603cdc2e01008818f0d1138f025ab2881e191edc79c85014239d96b0590f78fa",
    },
}


@pytest.mark.parametrize("name", sorted(VALIDATE_RUNS))
def test_validate_golden(tmp_path, capsys, name):
    with contextlib.chdir(tmp_path):
        io.save_json(f"{name}.json", VALIDATE_RUNS[name]())
        code, stdout = _run(capsys, ["validate", f"{name}.json", "--out", name])
    assert code == 1
    assert {"stdout": stdout, **_digests(tmp_path / name)} == GOLDEN_VALIDATE[name]
