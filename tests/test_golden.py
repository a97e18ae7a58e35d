"""Golden outputs: SHA-256 digests of CLI stdout.

`enumerate` JSON pins the verdicts; it carries no trace.  The `classify`
digests pin the full trace of every single-mark query on the classical
diagrams up to rank 8, one digest per diagram over the concatenated stdout of
its queries in (kept, forgotten) order; between them these queries exercise
every trace rule.  The multi-mark `classify` digests do the same for every
query whose mark sets together span two to four nodes, up to rank 7, in the
order `enumerate --mode all-subsets` poses them; they pin the fiber
restrictions, the rational-curve tags, the symmetry relabelings and the
triality exclusions.  The `explain` digests pin one presentation of each
shape per family, in both output formats.

Any change to a verdict, a trace step, a recorded number or the output
layout changes a digest.  A change meant to keep behaviour must leave these
strings untouched.
"""

import hashlib
from itertools import combinations

import pytest

from flagnest import cli

GOLDEN = [
    (
        ("enumerate", "--max-rank", "12", "--mode", "singletons"),
        "13342be79d52802b59cc2e268ee5fb540710f3be0d2339bfce7f58a11baa2372",
    ),
    (
        ("enumerate", "--max-rank", "20", "--mode", "singletons"),
        "0d5d36a49c1a860c35897e327d6acd66f10849aacabd66c6a144e4f95c7a94db",
    ),
    (
        ("enumerate", "--max-rank", "8", "--mode", "all-subsets"),
        "6bb5a909bb523936a47ca43f18431c07300e8c6de4258f80389c5bf0f7683372",
    ),
    (
        ("enumerate", "--max-rank", "10", "--mode", "all-subsets"),
        "9857059d611e0de39f0227a74ebe09da2be2efbe5b08bc3f65d4e8a72114aa90",
    ),
]


@pytest.mark.parametrize(
    "argv,digest",
    GOLDEN,
    ids=["singletons-rank12", "singletons-rank20", "all-subsets-rank8", "all-subsets-rank10"],
)
def test_enumerate_json_digest(capsys, argv, digest):
    code = cli.main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


CLASSIFY_GOLDEN = {
    "A2": "cb6671446f2608330f0afe84158506656e562dac34579fe8fbe4c3025328a8f6",
    "A3": "5ab438c3253bbf9e5ebdb872e3acffe80a6699bf6d81eb24041b6da95a8093f2",
    "A4": "bb80aea039d2b177172f70d7de236a0369ed8056dc29cc1420b7594f5b3e6950",
    "A5": "be2902eefb9875e9eef3e83f4b1c179873a0f67201077245316494bb23e14118",
    "A6": "151806d75b6906f33ee549cc7d3f6c660858b2b2363174939ab4671ee3eeddf7",
    "A7": "fec8c59d6262a6c9e7128415e2f18906a64b59b5f83a3e06119bdd3eb5a7fe74",
    "A8": "9d2c644364f6a85dcd6706623c6b36f854b73440e995fca39b70bbbf7bdb757c",
    "B2": "c46793236bf6a4952012e0572e74d87d7e42c3e6030f5b8cd73e94d9b6249931",
    "B3": "7ca9bc9adbc0d1319b5691c61e0111235c525499c461b68ba9283fc9bc8b8af2",
    "B4": "21dc05362453353a137ab934ebd63780ccdcbf06830669aba4ad9d0cde34ae92",
    "B5": "2160613e3e385e858ed8e49dba92ab72b8644de897a1374d08731131bf1f5937",
    "B6": "52b1b8528e38d6bfe9c83d575f97f03a49438bf908b3d9325cc1517a1e5da059",
    "B7": "9fac40759b67b0a969520847e85d0648f42fcc873442739a0e5417ab1e2949e6",
    "B8": "8a5811904f3662a74c51334c4daf648f43e45431baffdd1c785dabc72d1c5209",
    "C3": "3685b94e2a3c21605d70763ca4337c738e9ff3bde569196786c7a08c8e953bd3",
    "C4": "e7d67e589d2c02e7fcd66efa8e51ab6125a638192ec079d501e3809e85f19c98",
    "C5": "f4fae6410dd9b518b59476a9f11a40a9f8431615545f7bfdabf20ab6bcd008dc",
    "C6": "193b3fd29ea8a5d5a47170bfe61256404731f86a51932067c6a2b03a5d179591",
    "C7": "2aae8b2725046bff34e162fed4406d2de917e90088bd84fb7329738dd0cc4352",
    "C8": "7c480ba8ef8c106a0a9e86c2f440580f0804b26f0f3b1c225fd393d7360ea8ae",
    "D4": "afc363c522cb6a5f72ad8752d0c2e632e6606793974af1a146c339a930bea528",
    "D5": "651cbfd53007b253f548d60d675a8379d315f3ad8739396626d8c6a703a0345d",
    "D6": "383beee93d5d820547c551eca894a9ab972ff408affdbf4203bd97e9b4f0aaa0",
    "D7": "129f4cc871c6abf40fe11c456c921d350e943d34254d86a4698c5ee7cfc5005c",
    "D8": "2451255505908c754c775aba2d540e423133d76148fc8235ee86864125ebbd7c",
}


def _classify_digest(capsys, name: str) -> str:
    rank = int(name[1:])
    h = hashlib.sha256()
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            if i == j:
                continue
            argv = ["classify", "--diagram", name, "--marked", str(i), "--unmark", str(j)]
            code = cli.main(argv + ["--format", "json"])
            out = capsys.readouterr().out
            assert code == 0, argv
            h.update(out.encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CLASSIFY_GOLDEN))
def test_classify_trace_digest(capsys, name):
    assert _classify_digest(capsys, name) == CLASSIFY_GOLDEN[name]


MULTI_MARK_GOLDEN = {
    "A2": "cb6671446f2608330f0afe84158506656e562dac34579fe8fbe4c3025328a8f6",
    "A3": "efd780e816962fec58373d1ebe263d367188fc7a3f6caedf9e9a4f96b796a53f",
    "A4": "b07b4918bced27eb51c3099e337f5fe872332cb166bb1ff8de70ead8ada66aa8",
    "A5": "022fa11312f4814488457732d8d8de184d9bdadd0995b05aefdf65fc42b5f517",
    "A6": "0ffa80bec95400f01aa4c6f08b5ffa45afe2914aacb91231000d06004b28abb1",
    "A7": "dbd9752c879c4290ef4b9b81786812ee532f78b294c0f5680e36e4f0340f47f4",
    "B2": "c46793236bf6a4952012e0572e74d87d7e42c3e6030f5b8cd73e94d9b6249931",
    "B3": "f102ac38ec2ce0241ab2bc6000b10d2f0b64361a47da582cf5f68b9604e9575c",
    "B4": "f86f56199ed27ff967c6db8cd41315b14d6aa1b9bc459de2ca4222e3771a30d2",
    "B5": "db2add00599ff55a4007d31e1fd01161e8c83f07cb9d88a0dfc00c456a7fdc40",
    "B6": "bc340bb25672f556896727587656917899055c403a24ebe5999a0be3386ba5a6",
    "B7": "c4a4c38268f67b226edcd2adea198ff1c9b450c7a122cc8d6206f043a37672ad",
    "C3": "14d7e5cafad2fb05131e352aa0ff43bc948d1348bbb38ffee191b3f9857d9f02",
    "C4": "b33c9a61b29274b12122dfb68fc323286b1b45ec7d715e65bac8b9d3aa36e96e",
    "C5": "4c4e4c57adf04e5b42218f52ea3a44ae4ffb8cb842df386b771335dbdde9d27f",
    "C6": "8e98a85210f251e56b90fcd738d019ffe835a3dd589e5b40925e24573c7b0034",
    "C7": "bdfb65b6f473d6f63552b34c5fa6c8372d408b501c25ad2c2be5476311905f66",
    "D4": "632103c13be41b2d88fba62a8bf365c3f5ead38cc47a57414244b93a7c3cd56f",
    "D5": "ae65cad86d4cac79025c03999b433b0fe20673b9d83c2ab81607699341dced68",
    "D6": "46f9bdf4ee84240b1a8eac6703f0edbb06a2c55d870e0d68e1807e70917f43df",
    "D7": "eb420439b31e37a3a5a2cc6b065d8c01c9c52c2f07584cd90dbde430450190b2",
}


def _multi_mark_queries(rank: int):
    """(kept, forgotten) for every split of every 2..4-node union, unions in
    lexicographic order and splits by bit pattern over the union."""
    nodes = range(1, rank + 1)
    for size in range(2, min(4, rank) + 1):
        for union in combinations(nodes, size):
            for bits in range(1, 2 ** size - 1):
                kept = [x for t, x in enumerate(union) if bits >> t & 1]
                forgotten = [x for t, x in enumerate(union) if not bits >> t & 1]
                yield kept, forgotten


def _multi_mark_digest(capsys, name: str) -> str:
    h = hashlib.sha256()
    for kept, forgotten in _multi_mark_queries(int(name[1:])):
        argv = [
            "classify", "--diagram", name,
            "--marked", ",".join(map(str, kept)),
            "--unmark", ",".join(map(str, forgotten)),
        ]
        code = cli.main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        assert code == 0, argv
        h.update(out.encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(MULTI_MARK_GOLDEN))
def test_multi_mark_classify_digest(capsys, name):
    assert _multi_mark_digest(capsys, name) == MULTI_MARK_GOLDEN[name]


EXPLAIN_GOLDEN = {
    ("A5(1)", "json"): "7ccf46b49d70446e150999269b5e033c329b87d1785968fed1500cad0d2573c0",
    ("A5(1)", "text"): "81bd6db90fca3137c02122a6777bdf19f489f885f34a61d9b31568717be8e731",
    ("B4(1)", "json"): "f7b203d7cf59c4fa5a67b90f5aec5dbd66651966cafd16d01dbbb25644ac2818",
    ("B4(1)", "text"): "c510bc2d630f42d26e5eed7b7894df1b0952b41fcfec1204279f900f41a2aeee",
    ("C4(1)", "json"): "8bb35a30296c238a46404d3051fb4f749295221fab043518640b9b83070b2b2a",
    ("C4(1)", "text"): "bd728a19478f4b3cde2f567e37cf95b7c8d337449335ba86aab4eaefbd41919c",
    ("D5(1)", "json"): "a5944a0053d4a5d501639a42a9211d6c2c001cd5b6bc59c59bd1fdd74d2534ef",
    ("D5(1)", "text"): "f1e88f7baeb5edbd2a601d2e0d7f2f61f542473b0822a1a7cab52ed2d7bea375",
    ("B4(4)", "json"): "1a633922be78b04d0534b21fb60fa76d5d84e7c102757dcc89eced1abeb58884",
    ("B4(4)", "text"): "b657a9769e16b9fb170e411586cb42a42e6593ec1b6b47fe800a3b78a8f356d9",
    ("C5(5)", "json"): "db46865c14536120e74c521b340aa8cc3fbd0899c6ae1211c24fea74a425a0c1",
    ("C5(5)", "text"): "07f988eff23bb92c569f87f06f6bb802f44399e478aac1b8bb8d408a8c576284",
    ("D5(5)", "json"): "3e5762d73257519db231e49337a14630921c97324fd5459ed940aaea334fc4a3",
    ("D5(5)", "text"): "8eb30a58406157419885c36c8b055ae439bd76ab0fcd736f58435ed9b8520733",
    ("D6(6)", "json"): "7bc62478d1e2982b7e43044f555ef780f9204007ed73333e9c106bca72a37c61",
    ("D6(6)", "text"): "60998faf3b34f35a53b32de8aa7287cedb6d3bca4b4d3a4a244d630402c160c1",
    ("A5(1,3)", "json"): "6115de8593fe723bc79ba1eccdbbcdd8a172f10ff95491ee355bd72d1beb5918",
    ("A5(1,3)", "text"): "e1ff25a888574b18c20f666d324fbb8ebf927bd7da2146df7c27620ea6fc9c09",
    ("B5(1,3)", "json"): "689bfe3364b78df7cc2ffea4fc498bba886dec1f3998f23c7e71a49348b7380e",
    ("B5(1,3)", "text"): "db353ee4686dd2858b699833396fd6557b72c7958ccf69feb0159a3521d567c9",
    ("C4(1,2)", "json"): "7a7bb73cbc7f6ae409255fa38c265c584e8c62f8dd6ee79421f44fd109a168af",
    ("C4(1,2)", "text"): "1245b78bf1ea9cde0292856143dec3c4d3d3484348b2ada20e96f02dd175d1a5",
    ("D6(1,3)", "json"): "6908bc5340b7777e7c1b1651bfca8bbb64e5fb154d2c54df18a02eff1aee26cd",
    ("D6(1,3)", "text"): "2b088f7c69f177a6513bc6f37d4a67566f63ee14e3570790c23c02ba8461505e",
    ("B4(2,4)", "json"): "fbebfc2f072ee0290957600461e0115853969122ebb25a2e6284d584bbbe4c5b",
    ("B4(2,4)", "text"): "a12715a82730139b476a484bec156ad5e73daafafcf3dd4ac42ea1a1740026c3",
    ("C5(3,5)", "json"): "b183505a4e0240b2fe46551395dc5ec1d0a90753d11e080c259c3146c182b0d8",
    ("C5(3,5)", "text"): "a20bbd4cfae00be1b94c481c5eb5d6faab81563776055e7eea091b76f0086e40",
    ("D5(3,5)", "json"): "97e83983b12a9f453caf9d03c96fcea981431147831bd052f841bb2f2424df56",
    ("D5(3,5)", "text"): "f79fb56c64df625589f67f4a161805d4aac51f696353230c270a10d181f115b4",
    ("D5(4,5)", "json"): "5c3d51a94b051ff133acbc80b62b7997436623912eb632cd19c475db9e3c9a47",
    ("D5(4,5)", "text"): "c9f80192e081827268b45a94e75debbdbbc7cd8e2fefaac572d661a78ab0f9a5",
    ("B4(1,4)", "json"): "7499231ee7ad96d15af0e3c0a3619655baf0cc2343efb7f4fc17c7a4e8281fb8",
    ("B4(1,4)", "text"): "9e7e3b6170520d63ae965c1975851f1ab1a91b890fd2f4c906a49881d72d7fb0",
    ("D4(1,4)", "json"): "8e09f47d78c0813565634afe7dc67229a06d3cde6a0cbfb867df796d9b3a1fe7",
    ("D4(1,4)", "text"): "b6eb762f322d2e0801f595f816bc667fdd36e6565af839b54cf606ad6a739274",
}


@pytest.mark.parametrize("variety,fmt", sorted(EXPLAIN_GOLDEN))
def test_explain_digest(capsys, variety, fmt):
    code = cli.main(["explain", variety, "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXPLAIN_GOLDEN[variety, fmt]
