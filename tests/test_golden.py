"""Golden outputs: `--json` stdout and exit code of the published tables,
the classification runs and the README examples, pinned by sha256.

A change meant to keep every answer keeps these digests; one that changes
an answer on purpose records the new digest and says why.
"""

import hashlib

import pytest

from rdpdescent.cli import main

GOLDEN = [
    (("tables", "--char", "2"),
     "f04a29dc97a67d69f0f41903a3a03ca7b3eec7a17b744986335e189ce9ebf0f3", 0),
    (("tables", "--char", "3"),
     "c95d905af9b2e8735bb7f9268a712271d0ecd6836f60ab2d5800bd46a78323be", 0),
    (("tables", "--char", "5"),
     "bac75919821d6c80e57b808eeb80a08876bd8a09f29bb72153285e55c2604fc5", 0),
    (("classify", "--char", "2", "--max-n", "30"),
     "1dc3d3f38e724fc783e587a63390899fc587c4f5a2f37d0b716e9ecc427b82df", 0),
    (("classify", "--char", "3", "--max-n", "30"),
     "7d2370e50df805f6c8c6a980e6d0072fb3a2935db9c972a2d2dccb6185299c83", 0),
    (("classify", "--char", "5", "--max-n", "30"),
     "e46bea411971bd82c670acba5423ce45d5713b58e7f835ccb3190829d08484b2", 0),
    (("analyze", "--char", "2", "--vars", "x,y,z", "--poly", "z^2+x^3+y^5+y^3*z"),
     "77be074e0de31236dad68570504f43bb4b80d72d08c4f0945a92b433b3fd3c30", 1),
    (("oracle", "--char", "2", "--gens", "x^2,y^4+y^2*z,y^3,z^2+x^3+y^5+y^3*z"),
     "c93b4c50756a1c64e69933eff7bf0b610a40f5266504ba65d6db6b4ff3b990a5", 0),
]


@pytest.mark.parametrize("argv, digest, code", GOLDEN,
                         ids=["-".join(argv[:3]) for argv, _, _ in GOLDEN])
def test_json_output_matches_golden_digest(capsys, argv, digest, code):
    assert main([*argv, "--json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
