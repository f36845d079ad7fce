"""Golden outputs: `--json` stdout and exit code of the published tables,
the classification runs, the README examples and the dense germs of the
`coords` benchmark workload, pinned by sha256.

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


# Each published E row at p = 2 and 3 after a linear change of coordinates
# x_i -> sum_j a_ij x_j, expanded over F_p and written as a user pastes it,
# run as the `coords` benchmark workload runs it: at a step cap of 2*10^4.
# E_8^2 at p = 3 runs out of steps there and pins its stderr note too.
COORDS = [
    (2, "E_6^0",  # coordinates [[0, 0, 1], [0, 1, 1], [1, 1, 0]]
     "x*x+x*y*y+x*z*z+y*y*y+y*y+y*z*z+z*z*z",
     "1ad39b40989924110bfde9856b8bd8f0405671eaf047e8b813432c13b870485f", 0),
    (2, "E_6^1",  # coordinates [[1, 0, 1], [0, 0, 1], [0, 1, 1]]
     "x*x*x+x*x*z+x*y*z+y*y+z*z*z+z*z",
     "e6d7197e647a0637ebd813c129ab5e2d8d9dd397003c4f04941093325b5652c1", 1),
    (2, "E_7^0",  # coordinates [[1, 1, 0], [1, 0, 1], [1, 0, 0]]
     "x*x*x*x+x*x*x*y+x*x*x*z+x*x*x+x*x*y*z+x*x*y+x*x*z*z+x*x+x*y*y+x*y*z*z"
     "+x*z*z*z+y*y*y+y*z*z*z",
     "80ef4365f6d089dd041fcbe29028deb5ae3e7b6cbedf9146135c3082f439af24", 0),
    (2, "E_7^1",  # coordinates [[1, 0, 1], [0, 1, 0], [0, 1, 1]]
     "x*x*x+x*x*y*y+x*x*y*z+x*x*z+x*y*y*y+x*z*z+y*y*y*z+y*y*z*z+y*y+y*z*z*z"
     "+z*z*z+z*z",
     "536f5aa63b826f57b4d79944b66a0750a9c443511b8f50d280d0b17bb75f6af8", 1),
    (2, "E_7^2",  # coordinates [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
     "x*x*x+x*x*z+x*y*y*y+x*z*z+z*z*z+z*z",
     "ca9579d25c0f092fa6e28fedc22537c1997290e6801a0063fcaa074fd1dc583d", 1),
    (2, "E_7^3",  # coordinates [[1, 1, 1], [0, 1, 0], [0, 0, 1]]
     "x*x*x+x*x*y+x*x*z+x*y*y*y+x*y*y+x*y*z+x*z*z+y*y*y*y+y*y*y*z+y*y*y+z*z*z"
     "+z*z",
     "472486f0d2b2aea8bee7616597a0d845db93b22902b81511a9c89d268ad1d429", 1),
    (2, "E_8^0",  # coordinates [[0, 1, 0], [1, 0, 1], [1, 1, 0]]
     "x*x*x*x*x+x*x*x*x*z+x*x+x*z*z*z*z+y*y*y+y*y+z*z*z*z*z",
     "49e204c1737cfa5f00e5169cf2735754942a4b888cbafbb562b337fe54d955f8", 0),
    (2, "E_8^1",  # coordinates [[1, 0, 1], [0, 1, 1], [1, 0, 0]]
     "x*x*x+x*x*y*y*y+x*x*y*y*z+x*x*y*z*z+x*x*z*z*z+x*x*z+x*x+x*y*y*y*z"
     "+x*y*y*z*z+x*y*z*z*z+x*z*z*z*z+x*z*z+y*y*y*y*y+y*y*y*y*z+y*z*z*z*z"
     "+z*z*z*z*z+z*z*z",
     "e21ebd0e2f75259acf460d14a8d0f1ecbb80993b5f88197cafc2addb2a689618", 1),
    (2, "E_8^2",  # coordinates [[1, 1, 1], [0, 1, 0], [1, 0, 0]]
     "x*x*x+x*x*y*y+x*x*y+x*x*z+x*x+x*y*y*y+x*y*y*z+x*y*y+x*z*z+y*y*y*y*y"
     "+y*y*y+y*y*z+y*z*z+z*z*z",
     "f1c398677d0e50b91553f1845891edf805f51c909d16f8d2e0dea071f724fc51", 1),
    (2, "E_8^3",  # coordinates [[1, 0, 0], [0, 1, 1], [1, 0, 1]]
     "x*x*x+x*x+x*y*y*y+x*y*y*z+x*y*z*z+x*z*z*z+y*y*y*y*y+y*y*y*y*z+y*y*y*z"
     "+y*y*z*z+y*z*z*z*z+y*z*z*z+z*z*z*z*z+z*z*z*z+z*z",
     "aa9fef2d1ff0e1c47b42ce93ccb120bfbdda6f2817a93e8480c170db2286ce2c", 1),
    (2, "E_8^4",  # coordinates [[0, 1, 0], [0, 0, 1], [1, 1, 1]]
     "x*x+x*y*z+y*y*y+y*y*z+y*y+y*z*z+z*z*z*z*z+z*z",
     "c8a81b6302e0dbeeea7ac02823c5542ad54fafbda784db67c1c428fa74b5a183", 1),
    (3, "E_6^0",  # coordinates [[2, 0, 1], [0, 0, 1], [0, 1, 0]]
     "2*x*x*x+y*y+z*z*z*z+z*z*z",
     "75b772bda87c299cf16e7983fc8c4a9b3039222600c147d91a7bbe02c70967d1", 0),
    (3, "E_6^1",  # coordinates [[1, 0, 2], [2, 2, 1], [0, 1, 1]]
     "2*x*x*x*x+x*x*x*z+x*x*x+x*x*y*y+x*y*y*y+x*y*y*z+x*z*z*z+y*y*y*y"
     "+2*y*y*y*z+y*y*z*z+y*y+2*y*z+2*z*z*z*z+2*z*z*z+z*z",
     "0a8da838451fecf9342c21201f51048e33c255399696671340a554f31cd824c6", 1),
    (3, "E_7^0",  # coordinates [[0, 1, 1], [1, 1, 0], [0, 2, 1]]
     "x*x*x*y+x*x*x*z+y*y*y*y+y*y*y*z+y*y*y+y*y+y*z+z*z*z+z*z",
     "e86d65afa1cb382cacf103a10a46fd673dd0ddb70c338fe71f0640363b29ddf4", 0),
    (3, "E_7^1",  # coordinates [[0, 2, 2], [2, 1, 0], [0, 0, 2]]
     "x*x*x*y+x*x*x*z+x*x*y*y+2*x*x*y*z+x*x*z*z+x*y*y*y+2*x*y*y*z+x*y*z*z"
     "+y*y*y*z+2*y*y*y+y*y*z*z+2*z*z*z+z*z",
     "0b531213bb29d4c9eacc7bc341ebe24fb35823b30c4ecaddb45089e7e893daa5", 1),
    (3, "E_8^0",  # coordinates [[2, 0, 1], [2, 2, 2], [2, 2, 0]]
     "2*x*x*x*x*x+x*x*x*x*y+x*x*x*x*z+2*x*x*x*y*y+x*x*x*y*z+2*x*x*x*z*z"
     "+2*x*x*x+2*x*x*y*y*y+2*x*x*z*z*z+x*x+x*y*y*y*y+x*y*y*y*z+x*y*z*z*z+2*x*y"
     "+x*z*z*z*z+2*y*y*y*y*y+y*y*y*y*z+2*y*y*y*z*z+2*y*y*z*z*z+y*y+y*z*z*z*z"
     "+2*z*z*z*z*z+z*z*z",
     "57592cd7903971a59f39592a9ca2cff8990565f664ef5fdf2d3162a50fb17a4a", 0),
    (3, "E_8^1",  # coordinates [[0, 1, 1], [2, 0, 0], [2, 2, 0]]
     "2*x*x*x*x*x+2*x*x*x*y*y+x*x*x*y*z+2*x*x*x*z*z+x*x+2*x*y+y*y*y+y*y+z*z*z",
     "5b38bdac8bfb4c3280927f84c084128f78f5b52bdd5599b71702d460dd2c292d", 1),
    (3, "E_8^2",  # coordinates [[1, 0, 2], [1, 1, 2], [1, 2, 1]]
     "x*x*x*x*x+2*x*x*x*x*y+x*x*x*x*z+x*x*x*x+x*x*x*y*y+x*x*x*y*z+2*x*x*x*y"
     "+x*x*x*z*z+2*x*x*x*z+x*x*x+x*x*y*y*y+x*x*y*y+2*x*x*z*z*z+x*x+2*x*y*y*y*y"
     "+x*y*y*y*z+x*y*y*z+x*y*z*z*z+x*y+2*x*z*z*z*z+2*x*z*z*z+2*x*z+y*y*y*y*y"
     "+y*y*y*y*z+y*y*y*z*z+2*y*y*z*z*z+y*y*z*z+y*y+2*y*z*z*z*z+y*z*z*z+y*z"
     "+2*z*z*z*z*z+z*z*z*z+2*z*z*z+z*z",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
]
COORDS_LIMIT_NOTE = ('{"error": "engine limit", "message": "engine step cap of 20000 exceeded; '
                     'raise --step-cap if the input is legitimate"}\n')


@pytest.mark.parametrize("p, label, poly, digest, code", COORDS,
                         ids=[f"coords-p{p}-{label}" for p, label, *_ in COORDS])
def test_coords_output_matches_golden_digest(capsys, p, label, poly, digest, code):
    argv = ["analyze", "--char", str(p), "--vars", "x,y,z", "--poly", poly, "--json",
            "--step-cap", "20000"]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if code == 3:
        assert err == COORDS_LIMIT_NOTE
