from itertools import combinations

import pytest

from fcssk import ConfigError, FramingError, build_6b8b_codebook, encode, get_code_spec


def max_run(bits) -> int:
    longest = run = 1
    for a, b in zip(bits, bits[1:]):
        run = run + 1 if a == b else 1
        longest = max(longest, run)
    return longest


class TestManchester:
    @pytest.mark.parametrize("info,coded", [([1], [1, 0]), ([0], [0, 1]),
                                            ([1, 1, 0], [1, 0, 1, 0, 0, 1])])
    def test_encode(self, info, coded):
        assert encode(info, "manchester").bits.tolist() == coded

    def test_empty(self):
        assert len(encode([], "manchester").bits) == 0

    def test_run_length_never_exceeds_two(self, rng):
        coded = encode(rng.integers(0, 2, 500), "manchester").bits
        assert max_run(coded.tolist()) <= 2


class Test6b8bCodebook:
    def test_sixty_four_distinct_weight_four_octets(self):
        spec = build_6b8b_codebook()
        assert spec.p == 6 and spec.q == 8
        assert len(spec.codebook) == 64
        assert len(set(spec.codebook)) == 64
        assert all(sum(word) == 4 for word in spec.codebook)

    def test_value_zero_is_smallest_retained_octet(self):
        # independent oracle: enumerate all C(8,4)=70 weight-4 octets, drop
        # the 6 with the largest leading+trailing run sum (ascending-octet
        # tie break), sort ascending, take index 0
        def runs(word):
            lead = next(i for i, b in enumerate(word + (1 - word[0],)) if b != word[0])
            rev = word[::-1]
            trail = next(i for i, b in enumerate(rev + (1 - rev[0],)) if b != rev[0])
            return lead + trail

        octets = sorted(tuple(1 if i in ones else 0 for i in range(8))
                        for ones in combinations(range(8), 4))
        drop = set(sorted(octets, key=lambda w: (-runs(w), w))[:6])
        kept = [w for w in octets if w not in drop]
        spec = build_6b8b_codebook()
        assert spec.codebook[0] == kept[0] == (0, 0, 0, 1, 1, 1, 0, 1)
        assert tuple(kept) == spec.codebook

    def test_excluded_extremes(self):
        spec = build_6b8b_codebook()
        assert (0, 0, 0, 0, 1, 1, 1, 1) not in spec.codebook
        assert (1, 1, 1, 1, 0, 0, 0, 0) not in spec.codebook

    def test_run_length_within_codeword(self):
        assert all(max_run(word) <= 4 for word in build_6b8b_codebook().codebook)

    def test_deterministic(self):
        assert build_6b8b_codebook().codebook == build_6b8b_codebook().codebook


class Test6b8bCodec:
    def test_value_zero_encodes_to_first_codeword(self):
        spec = build_6b8b_codebook()
        assert encode([0] * 6, "6b8b").bits.tolist() == list(spec.codebook[0])

    def test_bad_length(self):
        with pytest.raises(FramingError, match=r"^6b8b: input length 3 not a multiple of 6$"):
            encode([1, 0, 1], "6b8b")


def test_unknown_code_named():
    with pytest.raises(ConfigError, match=r"^unknown code '8b10b'; expected one of "
                                          r"\('manchester', '6b8b'\)$"):
        get_code_spec("8b10b")
