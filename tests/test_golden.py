"""Golden outputs: SHA-256 digests of `enumerate --format json` stdout.

Any change to a verdict, a trace step or the JSON layout changes a digest.
A change meant to keep behaviour must leave these strings untouched.
"""

import hashlib

import pytest

from flagnest import cli

GOLDEN = [
    (
        ("enumerate", "--max-rank", "12", "--mode", "singletons"),
        "13342be79d52802b59cc2e268ee5fb540710f3be0d2339bfce7f58a11baa2372",
    ),
    (
        ("enumerate", "--max-rank", "8", "--mode", "all-subsets"),
        "6bb5a909bb523936a47ca43f18431c07300e8c6de4258f80389c5bf0f7683372",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=["singletons-rank12", "all-subsets-rank8"])
def test_enumerate_json_digest(capsys, argv, digest):
    code = cli.main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
