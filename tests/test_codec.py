from itertools import combinations

import numpy as np
import pytest

from fcssk import (CodeViolationError, ConfigError, FramingError, build_6b8b_codebook,
                   decode, encode, get_code_spec)


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

    def test_decode(self):
        assert decode([1, 0, 0, 1], "manchester").tolist() == [1, 0]

    def test_invalid_pair_flagged(self):
        with pytest.raises(CodeViolationError) as err:
            decode([0, 0], "manchester")
        assert err.value.block_index == 0
        with pytest.raises(CodeViolationError) as err:
            decode([1, 0, 1, 1], "manchester")
        assert err.value.block_index == 1

    def test_odd_length_framing_error(self):
        with pytest.raises(FramingError):
            decode([1], "manchester")

    def test_empty(self):
        assert len(encode([], "manchester").bits) == 0

    def test_round_trip_random(self, rng):
        for _ in range(50):
            u = rng.integers(0, 2, int(rng.integers(1, 200)))
            assert np.array_equal(decode(encode(u, "manchester").bits, "manchester"), u)

    def test_run_length_never_exceeds_two(self, rng):
        coded = encode(rng.integers(0, 2, 500), "manchester").bits
        assert max_run(coded.tolist()) <= 2


class Test6b8bCodebook:
    def test_sixty_four_distinct_weight_four_octets(self):
        spec = build_6b8b_codebook()
        assert spec.p == 6 and spec.q == 8 and spec.w == 4
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

    def test_round_trip_all_values(self):
        for value in range(64):
            bits = [(value >> k) & 1 for k in range(5, -1, -1)]
            assert decode(encode(bits, "6b8b").bits, "6b8b").tolist() == bits

    def test_bad_length(self):
        with pytest.raises(FramingError):
            encode([1, 0, 1], "6b8b")
        with pytest.raises(FramingError):
            decode([0] * 7, "6b8b")

    def test_weight_three_octet_rejected(self):
        with pytest.raises(CodeViolationError) as err:
            decode([0, 0, 0, 0, 0, 1, 1, 1], "6b8b")
        assert err.value.block_index == 0

    def test_violation_reports_offending_block(self):
        good = encode([1, 0, 1, 1, 0, 0], "6b8b").bits.tolist()
        with pytest.raises(CodeViolationError) as err:
            decode(good + [1] * 8, "6b8b")
        assert err.value.block_index == 1

    def test_round_trip_random(self, rng):
        for _ in range(20):
            u = rng.integers(0, 2, 6 * int(rng.integers(1, 50)))
            assert np.array_equal(decode(encode(u, "6b8b").bits, "6b8b"), u)


def test_unknown_code_named():
    with pytest.raises(ConfigError, match=r"^unknown code '8b10b'; expected one of "
                                          r"\('manchester', '6b8b'\)$"):
        get_code_spec("8b10b")
