"""Report bytes pinned by sha256: refactors of the scan core must not move them.

Each case is one CLI run on literal or seeded inputs.  The digests are of the
canonical report written with -o, so any change to a count, a tie-break,
a key or the formatting shows up here.
"""

import hashlib
import json
import random

import pytest

from sumfreelab.cli import main


def _seeded_group(seed: int, n: int, s: int, m: int) -> tuple[int, int, list[list[int]]]:
    """m seeded nonzero elements of Z_n^s."""
    rng = random.Random(seed)
    elements: list[list[int]] = []
    while len(elements) < m:
        el = [rng.randrange(n) for _ in range(s)]
        if any(el):
            elements.append(el)
    return n, s, elements


GROUPS = {
    "z10x2": (10, 2, [[1, 2], [3, 4], [5, 0], [2, 6], [7, 7], [0, 5], [4, 8]]),
    "z12": (12, 1, [[1], [2], [3], [4], [6], [8], [9], [10], [11]]),
    "z30x2": (30, 2, [[1, 2], [3, 4], [5, 10], [6, 15], [7, 29], [12, 18]]),
    # negation-folded (3 does not divide 11), m = 300 needs counts wider than uint8
    "z11x4": _seeded_group(114, 11, 4, 300),
    # 3 | 9: the middle third is not negation-closed, so no fold; rank 3
    "z9x3": _seeded_group(93, 9, 3, 40),
    # s * (n - 1) = 298 > 255: dot products need an index wider than uint8
    "z150x2": _seeded_group(1502, 150, 2, 12),
    # residues mod 128 sum in uint8 (2 * 127 = 254), negation-folded
    "z128x2": _seeded_group(1282, 128, 2, 40),
    # residues mod 129 need uint16; 3 | 129, so unfolded
    "z129x2": _seeded_group(1292, 129, 2, 40),
    # rank 6, folded: leading and trailing digits split for the window-row gather
    "z5x6": _seeded_group(566, 5, 6, 60),
    # rank 4, 3 | 6 so unfolded; m = 300 needs uint16 counts
    "z6x4": _seeded_group(640, 6, 4, 300),
    # n = 2, rank 7: every first digit is its own negation
    "z2x7": _seeded_group(27, 2, 7, 9),
    # sampled, base 4000: base * m = 400000 cells of digit terms, more than one
    # chunk of the sampled kernel holds, so the entries split into spans
    "z4000x2": _seeded_group(40002, 4000, 2, 100),
    # sampled, three base-200 digits per multiplier
    "z200x3": _seeded_group(2003, 200, 3, 40),
    # sampled, base 1000003: above the digit-term table cap
    "z1000003": _seeded_group(1000003, 1000003, 1, 20),
}

_wide = random.Random(2000)
_large = random.Random(3000)

INTEGERS = {
    # criterion-01 shape: m <= 24, |b| <= 1e6, mixed signs, a duplicate and a +-b pair
    "ints_c01": [734521, -88, 4, 97013, -734521, 15, 15, -999983, 6021, -7, 310244, 52,
                 -48815, 2, 907, -64, 180001, 33, -5, 1000000],
    # wide: m = 600, |b| <= 1e5
    "ints_wide": [_wide.choice([-1, 1]) * _wide.randint(1, 10**5) for _ in range(600)],
    # large m = 3000, |b| <= 1e5: the FFT kernel's side of the dispatch
    "ints_large": [_large.choice([-1, 1]) * _large.randint(1, 10**5) for _ in range(3000)],
    # many interval rows with multiplicities (+-v pairs, a triple) and one column
    # row at p = 2000003, on the interval kernel's side of the dispatch
    "ints_rows": list(range(1, 1501)) + [-v for v in range(1, 301)] + [7, 7, 7] + [10**6],
    # seven multipliers in 1..(p-1)/2 share the best count; the smallest must win
    "ints_ties": list(range(1, 11)),
    # sampled: p = 2469135803 < 3.04e9, digest recorded before the kernels merged
    "ints_sampled": [1_234_567_891, -987_654_321, 3, 77, -1_000_000_007, 555_555_555, 42,
                     -31_415_926, 271_828_182, 9_999],
}

CASES = {
    "scan-w1": (["scan", "{z10x2}", "--workers", "1"],
                "f0a0741f521ae49693aaaa39819e38eb6ef6fd92a86ef20a3ecd613c605226d3"),
    "scan-w3": (["scan", "{z10x2}", "--workers", "3"],
                "f0a0741f521ae49693aaaa39819e38eb6ef6fd92a86ef20a3ecd613c605226d3"),
    # digests of the next four recorded before the negation-folded block kernel
    "scan-folded-wide-w1": (["scan", "{z11x4}", "--workers", "1"],
                            "73b6c75bcc784a2df7126f8591bbe3d171f6c7300ae978e66b8ddf7e591a03e5"),
    "scan-folded-wide-w2": (["scan", "{z11x4}", "--workers", "2"],
                            "73b6c75bcc784a2df7126f8591bbe3d171f6c7300ae978e66b8ddf7e591a03e5"),
    "scan-unfolded-rank3": (["scan", "{z9x3}"],
                            "6c551cb9d1a0a11aaa8dd67fdc5540b57e145d88eb96dd40293d616670027bcf"),
    "scan-wide-index": (["scan", "{z150x2}"],
                        "0edc431958ce0709e8c4fd4636c7e8f83fd1e02e37b6c04e2297832803907823"),
    # the next two recorded before scans tested bands on reduced residues
    "scan-uint8-edge": (["scan", "{z128x2}"],
                        "14b1613394cecd6fb9023c1d66eb1c9b3533324db73ff4d762f70e69b092dba1"),
    "scan-uint16-edge": (["scan", "{z129x2}", "--workers", "2"],
                         "595893987e8f2b9827cc9f3c86d4ae04b053086165c66a7229e19497084f206b"),
    # the next five recorded before rank >= 3 scans gathered precomputed window rows
    "scan-rank6-w1": (["scan", "{z5x6}", "--workers", "1"],
                      "bf04bccce34e05f5c2cb61ab808068cea730c55aaa93198045cc54cfef33ef0b"),
    "scan-rank6-w2": (["scan", "{z5x6}", "--workers", "2"],
                      "bf04bccce34e05f5c2cb61ab808068cea730c55aaa93198045cc54cfef33ef0b"),
    "scan-unfolded-rank4-w1": (["scan", "{z6x4}", "--workers", "1"],
                               "9db2a318021ea8d8b94cb2ff729cded3f7d334fef1ea4c973bbe209c8308bc4a"),
    "scan-unfolded-rank4-w2": (["scan", "{z6x4}", "--workers", "2"],
                               "9db2a318021ea8d8b94cb2ff729cded3f7d334fef1ea4c973bbe209c8308bc4a"),
    "scan-z2-rank7": (["scan", "{z2x7}", "--workers", "2"],
                      "6ef0222a6c2ceb4273d728d4ad511b62f620b48381b3791282ec80a6830a4656"),
    "scan-sampled": (["scan", "{z30x2}", "--sample", "40", "--seed", "3"],
                     "adfeea079c846fc0243884c10fc58a6e3b51d73a8611288304c755cb2db95853"),
    # the next three recorded before sampled scans built dot products from
    # per-digit term tables
    "scan-sampled-spans": (["scan", "{z4000x2}", "--sample", "20000", "--seed", "21"],
                           "872a8b99ffc4d206b0b1227a585cab494ffc60edeb2838ae2f1cc098ee86d504"),
    "scan-sampled-rank3": (["scan", "{z200x3}", "--sample", "5000", "--seed", "22"],
                           "230b4703538a6275c438cc5b851f25f7509556f3ca1a59c6a4c3b429fb7bfe02"),
    "scan-sampled-wide-base": (["scan", "{z1000003}", "--sample", "3000", "--seed", "23"],
                               "043559cc21a6cc39ba4404ad358fffd423c5bd7f9c441397e22c79355bb828a1"),
    "adjudicate": (["adjudicate", "{z12}"],
                   "4ba35a7830d6cfc95a577c86459e74ca8b4d30dfbf9116492c558c78e250d310"),
    "prime-case": (["prime-case", "--p", "11", "--s", "2", "--trials", "4", "--seed", "5"],
                   "c4f0c6ea685b6d3f469afbec31307e19c625c9d86ddaf29117daaa0076524dbf"),
    "search-exhaustive": (["search", "--n", "5", "--s", "1", "--m", "3",
                           "--mode", "exhaustive"],
                          "878b7de94b38a72220ba66969da14e3cb6b0903e3c1eeebd9d54be1df41d5a21"),
    "search-random": (["search", "--n", "6", "--s", "2", "--m", "5", "--mode", "random",
                       "--budget", "20", "--seed", "4"],
                      "0907e1f86fd251458f996d94f903107ea7c1885ea6e675328bcc01ebfde9d3f4"),
    # the next five recorded before searches moved onto the batched hit-table kernel
    "search-z7-m6": (["search", "--n", "7", "--s", "1", "--m", "6", "--mode", "exhaustive"],
                     "ec7efd9b86ac05005a3138c8592fd741fe18914a1ed8e5d6582514f82747b521"),
    "search-z8-m5": (["search", "--n", "8", "--s", "1", "--m", "5", "--mode", "exhaustive"],
                     "a07d338adcc54f4c24d6f09095eaeb6b94a6701d8cb47ba21fbd9c073275bdf5"),
    "search-z13-m4": (["search", "--n", "13", "--s", "1", "--m", "4", "--mode", "exhaustive"],
                      "193354654d920e84125fd5faa6a624a2be089543868c8c893781f36d944e821a"),
    "search-z10x2-m30": (["search", "--n", "10", "--s", "2", "--m", "30", "--mode", "random",
                          "--budget", "100", "--seed", "3"],
                         "a4978e1819791a802d8585590bf324ccc8e5c047481f638a6ca216e00d5438b5"),
    "search-z12x2-m20": (["search", "--n", "12", "--s", "2", "--m", "20", "--mode", "random",
                          "--budget", "5", "--seed", "20260818"],
                         "4425dc1372120d8fb97e2665fb6e24ff87b9be30a6de454d13df06fbd100aedf"),
    "extract-integers-c01": (["extract-integers", "{ints_c01}"],
                             "a676385dabeccc3785f551df6f28ceeb7120373c157b3b83f5136bcdfa049c0a"),
    "extract-integers-wide": (["extract-integers", "{ints_wide}"],
                              "06a74558b209a6614520f736ab150ffa0db35723ef2a12a821e1763c3f17b127"),
    "extract-integers-large": (["extract-integers", "{ints_large}"],
                               "f91a742da1d2830c02da2dc179e3b811de5a23885477b9caa29994230ba6a684"),
    # recorded before each distinct row was scattered on its own
    "extract-integers-rows": (["extract-integers", "{ints_rows}"],
                              "402948a8257b63000dac0953b51637ca1d5c5432201db4e532cac2a54a9aa006"),
    "extract-integers-ties": (["extract-integers", "{ints_ties}"],
                              "193247e7850e74f281b6939f6f74ee640d6bfc71c554e52f5814d0cc89fcce02"),
    "extract-integers-sampled": (["extract-integers", "{ints_sampled}", "--sample", "3000",
                                  "--seed", "11"],
                                 "822f1972e4b7754876703683c4a2bcadd1bb55b2cc768b1923d78c21435891a1"),
    # the next three recorded before the reports moved onto one field-driven encoder
    "inequality-csv": (["inequality", "--max-n", "30"],
                       "a7f5a5d403f4f2768d28a835c091cb9138c351cc23842e57ce58ba4ab6ba4d56"),
    "extremal-z7": (["extremal", "7", "1"],
                    "4edc62a17da50527b8a2cc7df9c5078e16a740abaea5ddf47bfe4dbb3e765988"),
    "extremal-z13x2": (["extremal", "13", "2"],
                       "00e2df37693658ab4c6bec4de96712378bf25cfc6bed2b56b9eaa5940eb4e279"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report_bytes(case, tmp_path) -> None:
    paths = {}
    for name, (n, s, elements) in GROUPS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"schema": 1, "n": n, "s": s, "elements": elements}))
    for name, values in INTEGERS.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text("".join(f"{v}\n" for v in values))
    argv, digest = CASES[case]
    out = tmp_path / "report.json"
    assert main([a.format(**paths) for a in argv] + ["-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
