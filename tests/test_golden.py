"""Golden `--json` outputs: the CLI's bytes must not change under refactoring.

Each case runs ``cli.main`` in process and compares the exit code and the
sha256 of stdout with a digest recorded from an earlier build.  A change to
any digest is a change of output; it needs a reason, not a new digest.
"""

import hashlib

import pytest

from chatelet import cli

GOLDEN = [
    ("classify_p2_ramified", ["classify", "-p", "2", "--d", "-1", "--e", "3", "--with-witness"],
     0, "d67d80fd6ac09a52fa0d3d7f7c8d98a0c181f1cd1ade7ea6ee86a0e85a75ccc2"),
    ("classify_p2_unramified", ["classify", "-p", "2", "--d", "5", "--e", "2", "--with-witness"],
     0, "08c6a9c5b5e48161e6bc7e546e925067852442ba87a28d302a18c524fb37179d"),
    ("classify_odd_unramified", ["classify", "-p", "5", "--d", "2", "--e", "5", "--with-witness"],
     0, "a1a3fdd141ec94889cda1bbacb26f7b5bbfa8c1b4bfcc2402aad05cad72c853a"),
    ("classify_odd_ramified", ["classify", "-p", "7", "--d", "7", "--e", "3", "--with-witness"],
     0, "3d9e9ed882edf8911e216a0db0c43e22e309abdef77caa1f4dff3687a04cbf89"),
    ("classify_zero", ["classify", "-p", "2", "--d", "5", "--e", "3", "--with-witness"],
     0, "7a6718df709d2939d0b8c2b43559ef2e9596100879acf239d6bf028d841eb2f1"),
    ("cubic_irreducible", ["classify", "-p", "7", "--d", "3", "--cubic", "0,0,-2"],
     0, "2d9ca97f13d0cbb376b795c7c087bbe16dfeee572f8b029903d8bc34272c913e"),
    ("cubic_one_root", ["classify", "-p", "5", "--d", "2", "--cubic", "0,-5,0"],
     0, "8effba21d9ef6cfd916996cd80552166e4212a5b2be14f63466be33092dff34a"),
    ("hilbert_formula", ["hilbert", "-p", "2", "--", "7/3", "-2"],
     0, "6fc4223f1ca43b422f13a2ed7c10cebb2b8019ef9e1f0f0979b7f5dfd142021f"),
    ("hilbert_oracle", ["hilbert", "-p", "7", "--oracle", "--", "3", "7"],
     0, "ac69aa8bb065f846198ca1b710a37fdf7de41c1cf6ab7f5f07798dc6af83a59c"),
    ("witness_found", ["witness", "-p", "7", "--d", "7", "--e", "3"],
     0, "47e30ceab2d078899e5e07bb095c3ecd999500bb51a491654220c6c00798abb4"),
    ("witness_none", ["witness", "-p", "2", "--d", "5", "--e", "3"],
     0, "00935a821e35f727ac7c9e4ee72953915dc4ba51d703982b966e00666a7c1282"),
    ("global", ["global", "--d", "-1", "--e", "6", "--with-witness"],
     0, "e3d47cb9b4405d2baeaf8a1c78e22ab7de3415f4d9d528ef7f0a2f084a797dd6"),
    ("verify", ["verify"],
     0, "57f40fcded5c1e1ab9a496de49f92dea58c1091d0ffc865e920401bebf2b6e2c"),
]


@pytest.mark.parametrize("name,argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_json_output_unchanged(capsys, name, argv, code, digest):
    # --json goes before any "--" that ends the options
    assert cli.main(argv[:1] + ["--json"] + argv[1:]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
