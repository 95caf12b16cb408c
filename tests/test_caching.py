import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachecast import caching, cli
from cachecast.caching import (
    Bits,
    DecodabilityError,
    FileLibrary,
    LeaderSet,
    MissingPayloadError,
    decode_file,
    encode_multicast,
    end_to_end_verify,
    place_caches,
    random_library,
    reconstruct_missing,
    select_leaders,
)


def sent(d, library, leaders):
    """The {group: int} map of the payloads `encode_multicast` sends."""
    return {p.group: p.value for p in encode_multicast(d, library, leaders)}


def complete(d, library, leaders):
    """The sent map plus every reconstructed all-non-leader payload."""
    by_group = sent(d, library, leaders)
    for group in itertools.combinations(leaders.non_leaders, library.split_order + 1):
        by_group[group] = reconstruct_missing(by_group, group, leaders, d, library.subfile_bits).value
    return by_group


def mt19937(key):
    """Oracle: the `genrand_int32` stream of MT19937 (Matsumoto and Nishimura,
    ACM TOMACS 1998, as their `mt19937ar.c`) after `init_by_array(key)`."""
    n, m, mask = 624, 397, 0xFFFFFFFF
    mt = [19650218]  # init_genrand(19650218)
    for i in range(1, n):
        mt.append((1812433253 * (mt[-1] ^ mt[-1] >> 30) + i) & mask)
    i = 1
    for k in range(max(n, len(key))):
        j = k % len(key)
        mt[i] = ((mt[i] ^ (mt[i - 1] ^ mt[i - 1] >> 30) * 1664525) + key[j] + j) & mask
        i += 1
        if i == n:
            mt[0], i = mt[-1], 1
    for _ in range(n - 1):
        mt[i] = ((mt[i] ^ (mt[i - 1] ^ mt[i - 1] >> 30) * 1566083941) - i) & mask
        i += 1
        if i == n:
            mt[0], i = mt[-1], 1
    mt[0] = 0x80000000
    while True:
        for k in range(n):
            y = mt[k] & 0x80000000 | mt[(k + 1) % n] & 0x7FFFFFFF
            mt[k] = mt[(k + m) % n] ^ y >> 1 ^ (0x9908B0DF if y & 1 else 0)
        for y in mt:
            y ^= y >> 11
            y ^= y << 7 & 0x9D2C5680
            y ^= y << 15 & 0xEFC60000
            yield y ^ y >> 18


def seed_key(seed):
    """The seed's 32-bit words, least significant first, at least one."""
    return [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]


def k_bit_draw(words, k):
    """Oracle: a `k`-bit draw from a stream of 32-bit words: ceil(k / 32) of
    them, least significant first, the top one shifted right by 32 - k % 32."""
    value = 0
    for i in range(-(-k // 32)):
        word = next(words)
        value |= (word >> 32 - k % 32 if i == k // 32 else word) << 32 * i
    return value


def mt_draw(seed, num_files, pieces, size, words=None):
    """Oracle: per file, its `pieces` subfile ints of `size` bits, each one
    k-bit draw from the MT19937 stream of the seed's words, or from `words`,
    another stream of the same 32-bit words, in its place."""
    words = mt19937(seed_key(seed)) if words is None else words
    return tuple(tuple(k_bit_draw(words, size) for _ in range(pieces)) for _ in range(num_files))


def as_int(draw):
    """A drawn bit array as one int, its bit 0 the most significant."""
    return int("".join(map(str, draw.tolist())) or "0", 2)


def direct_payload(library, d, group):
    """Oracle: the XOR definition of a coded payload's int, computed from scratch."""
    value = 0
    for member in group:
        rest = tuple(u for u in group if u != member)
        value ^= library.subfile(d[member - 1], rest)
    return value


class TestLibrary:
    def test_rejects_fractional_split(self):
        with pytest.raises(ValueError, match="split order must be an integer, got 1.5"):
            FileLibrary(3, 1.5, 8, [(1, 2, 3)])

    @pytest.mark.parametrize("split", [0, 1])
    def test_rejects_empty_files(self, split):
        # 0-bit subfiles make 0-bit files, and every user would "decode" the
        # empty file: a sweep over such files passes vacuously
        message = "subfile size in bits must be a whole number of at least 1, got 0"
        with pytest.raises(ValueError, match=re.escape(message)):
            FileLibrary(3, split, 0, [(0,) * math.comb(3, split)] * 2)
        message = "file size in bits must be a whole number of at least 1, got 0"
        with pytest.raises(ValueError, match=re.escape(message)):
            random_library(2, 3, split, file_bits=0)

    @pytest.mark.parametrize(
        "shape,message",
        [((3, 1, 0, [(0, 0, 0)]), "subfile size in bits must be a whole number of at least 1, got 0"),
         ((3, 7, 8, [()]), "split order must lie in [0, 3], got 7"),
         ((2, 2, 1, [(5,)]), "file 1 holds 5, not an int in [0, 2**1)"),
         ((3, 1, 8, [(1, 2)]), "file 1 holds 2 subfiles, not the 3 of its split"),
         ((3, 1, 8, [(1, 2, 3, 4)]), "file 1 holds 4 subfiles, not the 3 of its split"),
         ((3, 1, 8, [(1, 2, 3), (1, 2, 256)]), "file 2 holds 256, not an int in [0, 2**8)"),
         ((3, 1, 8, [(1, -2, 3)]), "file 1 holds -2, not an int in [0, 2**8)"),
         ((3, 1, 2.0, [(1, 2, 3)]), "subfile size in bits must be an integer, got 2.0"),
         ((3, 1, True, [(1, 0, 1)]), "subfile size in bits must be an integer, got True")],
        ids=["zero-bit-subfiles", "split-above-K", "value-too-wide", "one-subfile-short",
             "one-subfile-over", "wide-in-file-2", "negative-value", "size-float", "size-bool"],
    )
    def test_refuses_a_library_that_does_not_fit_its_shape(self, shape, message):
        """Each count, width and file shape is checked where the library is
        built, so no verification runs on a library it cannot describe."""
        with pytest.raises(ValueError, match=re.escape(message)):
            FileLibrary(*shape)

    @pytest.mark.parametrize("value", [1.0, True, np.uint8(1), F(1)], ids=["float", "bool", "numpy", "fraction"])
    def test_rejects_subfiles_that_are_not_ints(self, value):
        with pytest.raises(ValueError, match=re.escape(f"file 1 holds {value!r}, not an int in [0, 2**8)")):
            FileLibrary(3, 1, 8, [(value, 0, 0)])

    def test_keeps_the_values_as_tuples(self):
        lib = FileLibrary(2, 1, 8, [[7, 255]])
        assert lib.subfile_values == ((7, 255),) and lib.subfile(1, (2,)) == 255
        assert end_to_end_verify(2, 1, 1, library=lib)

    @pytest.mark.parametrize(
        "args,kwargs,message",
        [((2, 3, -1), {}, "split order must lie in [0, 3], got -1"),
         ((2, 3, 1), {"file_bits": -8}, "file size in bits must be a whole number of at least 1, got -8"),
         ((2, 3, 1), {"file_bits": 24.0}, "file size in bits must be an integer, got 24.0"),
         ((2, 3, 1), {"file_bits": True}, "file size in bits must be an integer, got True"),
         ((2, 3, 1), {"file_bits": 25}, "file size 25 bits is not divisible into 3 equal subfiles"),
         ((0, 3, 1), {}, "file count must be a whole number of at least 1, got 0"),
         ((-1, 3, 1), {}, "file count must be a whole number of at least 1, got -1"),
         ((1.5, 3, 1), {}, "file count must be an integer, got 1.5"),
         ((True, 3, 1), {}, "file count must be an integer, got True"),
         ((2, 3.0, 1), {}, "user count must be an integer, got 3.0"),
         ((2, True, 1), {}, "user count must be an integer, got True"),
         ((2, 0, 0), {}, "user count must be a whole number of at least 1, got 0"),
         ((2, 3, True), {}, "split order must be an integer, got True"),
         ((2, 3, 1), {"seed": True}, "seed must be an integer, got True"),
         ((2, 3, 1), {"seed": 1.5}, "seed must be an integer, got 1.5"),
         ((2, 3, 1), {"seed": -1}, "seed must be a whole number of at least 0, got -1")],
        ids=["split-negative", "bits-negative", "bits-float", "bits-bool", "bits-indivisible",
             "no-files", "files-negative", "files-float", "files-bool", "users-float", "users-bool",
             "no-users", "split-bool", "seed-bool", "seed-float", "seed-negative"],
    )
    def test_random_library_checks_the_shape_before_the_draw(self, monkeypatch, args, kwargs, message):
        """A bad shape is refused with the library's own message, before any bit is drawn."""
        monkeypatch.setattr(random, "Random", lambda *a: pytest.fail("drew before the check"))
        with pytest.raises(ValueError, match=re.escape(message)):
            random_library(*args, **kwargs)

    def test_no_files_is_refused_by_name(self):
        message = "file count must be a whole number of at least 1, got 0"
        with pytest.raises(ValueError, match=message):
            FileLibrary(3, 1, 8, ())
        with pytest.raises(ValueError, match=message):
            end_to_end_verify(3, 0, 1)

    @pytest.mark.parametrize("split", [0, 3], ids=["split-0", "split-K"])
    def test_split_order_takes_both_ends(self, split):
        lib = random_library(2, 3, split)
        assert lib.split_order == split and end_to_end_verify(3, 2, split, library=lib)

    def test_seed_zero_is_accepted(self):
        lib = random_library(2, 3, 1, file_bits=3 * 8, seed=0)
        assert lib.subfile_values == mt_draw(0, 2, 3, 8)

    def test_no_users_is_refused_not_a_vacuous_pass(self):
        with pytest.raises(ValueError, match="user count must be a whole number of at least 1, got 0"):
            end_to_end_verify(0, 2, 0)

    def test_subfiles_partition_the_file(self):
        lib = random_library(2, 4, 2, seed=3)
        cut = mt_draw(3, 2, 6, lib.subfile_bits)
        for n in range(1, 3):
            assert tuple(lib.subfile(n, s) for s in lib.subfile_subsets()) == cut[n - 1]

    def test_subfile_lookup_takes_only_sorted_subsets(self):
        lib = random_library(2, 4, 2, seed=3)
        assert lib.subfile(2, (1, 4)) == mt_draw(3, 2, 6, 8)[1][2]  # third of six
        for bad in ((4, 1), [2, 3], (1,), (1, 2, 3), (1, 5), (True, 4), (1.0, 4), (1, np.int64(4))):
            message = f"{bad!r} is not a sorted 2-subset of users 1..4"
            with pytest.raises(ValueError, match=re.escape(message)):
                lib.subfile(1, bad)
        # True and 1.0 hash as 1, so a lookup alone would read user 1's subfile
        for bad in ((True,), (1.0,)):
            with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not a sorted 1-subset of users 1..3")):
                random_library(2, 3, 1).subfile(1, bad)

    @pytest.mark.parametrize("index", [0, -1, 3])
    def test_subfile_rejects_file_index_outside_library(self, index):
        # 0 and -1 would otherwise index from the end and return the last file
        lib = random_library(2, 3, 1)
        with pytest.raises(ValueError, match=re.escape(f"file index must lie in [1, 2], got {index}")):
            lib.subfile(index, (1,))

    def test_subfile_refuses_a_bool_file_index(self):
        with pytest.raises(ValueError, match=re.escape("file index must be an integer, got True")):
            random_library(2, 3, 1).subfile(True, (1,))

    @pytest.mark.parametrize(
        "num_files,num_users,split,file_bits,seed",
        [(2, 3, 3, 2, 1), (3, 3, 1, 3 * 3, 2), (2, 4, 2, 6 * 7, 3), (3, 2, 1, 2 * 9, 4),
         (2, 4, 1, 4 * (2**12 + 3), 5), (3, 5, 2, 10 * 3, 6)],
        ids=["1-bit", "3-bit", "7-bit", "9-bit", "4099-bit", "3-bit-ten-subfiles"],
    )
    def test_subfile_values_are_the_cut_of_each_file(self, num_files, num_users, split, file_bits, seed):
        """In subset order, a file's subfile ints are the oracle's draws, one
        per subfile, and each is `subfile(n, s)`, the very int object."""
        lib = random_library(num_files, num_users, split, file_bits, seed)
        subsets = lib.subfile_subsets()
        draws = mt_draw(seed, num_files, len(subsets), lib.subfile_bits)
        assert len(lib.subfile_values) == num_files
        for n, values in enumerate(lib.subfile_values, start=1):
            assert len(values) == len(subsets)
            assert all(0 <= v < 1 << lib.subfile_bits for v in values)
            assert values == draws[n - 1]
            for value, subset in zip(values, subsets):
                assert value is lib.subfile(n, subset)

    @settings(max_examples=60, deadline=None)
    @given(
        num_users=st.integers(1, 5),
        split=st.integers(0, 5),
        size=st.integers(0, 40).map(lambda q: 8 * q + q % 7 + 1),  # never a whole byte
        num_files=st.integers(2, 4),
        seed=st.integers(0, 2**32),
    )
    # 1-bit subfiles, each the top bit of a fresh word; 3 subfiles of 13 bits: one word
    # each, its top 13 bits; 3 of 4099 bits: 129 words each, the top one shifted by 29
    @example(num_users=1, split=0, size=1, num_files=4, seed=0)
    @example(num_users=3, split=1, size=13, num_files=3, seed=5)
    @example(num_users=3, split=1, size=2**12 + 3, num_files=3, seed=6)
    def test_cut_from_drawn_bytes_matches_the_shift_cut(self, num_users, split, size, num_files, seed):
        """The subfile ints `random_library` draws are the MT19937 oracle's
        draws, and the constructor rebuilds the same library from them."""
        split = min(split, num_users)
        file_bits = size * math.comb(num_users, split)
        lib = random_library(num_files, num_users, split, file_bits, seed)
        d = tuple(1 + k % num_files for k in range(num_users))
        assert end_to_end_verify(num_users, num_files, split, d=d, library=lib)
        cut = mt_draw(seed, num_files, math.comb(num_users, split), size)
        assert lib.subfile_values == cut
        rebuilt = FileLibrary(num_users, split, size, cut)
        assert rebuilt == lib and rebuilt.subfile_values == lib.subfile_values

    def test_random_library_is_read_only(self):
        lib = random_library(2, 3, 1, seed=3)
        assert type(lib.subfile_values) is tuple and all(type(f) is tuple for f in lib.subfile_values)
        with pytest.raises(TypeError):
            lib.subfile_values[0][0] ^= 1
        with pytest.raises(TypeError):
            lib.subfile_values[0] = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            lib.subfile_values = ()
        assert type(lib.subfile(1, (2,))) is int  # an int cannot be changed in place

    @pytest.mark.parametrize(
        "num_files,num_users,split,file_bits,seed",
        [(2, 3, 1, None, 4), (3, 4, 2, 6 * 13, 5), (1, 2, 1, 2 * (2**16 + 3), 6)]
        # every length 1..70 with 1-4 one-subfile files: each draw ends below, at
        # or above a multiple of 32 bits, and 2**40 + 3 is a two-word seed
        + [(1 + b % 4, 1, 0, b, (0, 7, 2**40 + 3)[b % 3]) for b in range(1, 71)]
        + [(2, 1, 0, 2**16 + 1, 11), (3, 1, 0, 2**16 + 2, 12), (4, 1, 0, 2**16 + 5, 13),
           (3, 1, 0, 2**16 + 7, 14)]
        + [(3, 1, 0, 2**18 + 1, 15)],
    )
    def test_random_library_is_the_numpy_draw(self, num_files, num_users, split, file_bits, seed):
        """Each file's subfile ints, in subset order, are k-bit draws from the
        words of numpy's legacy MT19937, a compiled `mt19937ar.c` whose stream
        NEP 19 freezes: a second MT19937 beside the pure-Python oracle."""
        lib = random_library(num_files, num_users, split, file_bits, seed)
        size, pieces = lib.subfile_bits, len(lib.subfile_subsets())
        # a list seed runs init_by_array over its words; an int seed would run init_genrand
        count = num_files * pieces * -(-size // 32)
        words = np.random.RandomState(seed_key(seed)).randint(0, 2**32, size=count, dtype=np.uint32)
        assert lib.subfile_values == mt_draw(seed, num_files, pieces, size, iter(words.tolist()))

    def test_mt19937_oracle_is_the_reference_output(self):
        """The oracle reproduces `mt19937ar.c`'s published first outputs after
        init_by_array({0x123, 0x234, 0x345, 0x456})."""
        reference = [1067595299, 955945823, 477289528, 4107218783, 4228976476]
        assert list(itertools.islice(mt19937([0x123, 0x234, 0x345, 0x456]), 5)) == reference


class TestBits:
    @pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 13, 64, 65])
    def test_bit_order_and_packing_follow_numpy(self, length):
        """A `length`-bit int is read MSB first: `Bits` views it at its
        length, and the cache digest hashes it as `np.packbits` packs its
        bits, the last byte padded with zeros on the right."""
        rng = np.random.default_rng(length)
        for _ in range(20):
            draw = rng.integers(0, 2, size=length, dtype=np.uint8)
            value = as_int(draw)
            assert len(Bits(value, length)) == length
            cache = caching.CacheContents(1, 1, 1, length, {(1,): (value,)})
            head = b"user=1" + repr((1, (1,))).encode()
            assert cache.digest() == hashlib.sha256(head + np.packbits(draw).tobytes()).hexdigest()

    @pytest.mark.parametrize("value,length", [(16, 4), (-1, 4), (1, 0)])
    def test_rejects_values_that_do_not_fit(self, value, length):
        with pytest.raises(ValueError):
            Bits(value, length)


class TestPlacement:
    def test_empty_caches_without_budget(self):
        lib = random_library(3, 3, 0, seed=1)
        caches = place_caches(lib)
        assert all(c.stored_bits == 0 for c in caches)

    def test_full_caches_hold_everything(self):
        lib = random_library(2, 3, 3, seed=1)
        caches = place_caches(lib)
        for cache in caches:
            assert cache.stored_bits == 2 * lib.file_bits

    def test_cache_size_matches_budget(self):
        # K=3, t=1, N=3, B=24: each user holds 3 files x 1 subfile x 8 bits
        lib = random_library(3, 3, 1, file_bits=24, seed=0)
        caches = place_caches(lib)
        for cache in caches:
            assert cache.stored_bits == 24  # M*B with M = N*t/K = 1
        # general identity: N * B * C(K-1, t-1) / C(K, t)
        expected = 3 * 24 * math.comb(2, 0) // math.comb(3, 1)
        assert caches[0].stored_bits == expected

    def test_only_own_subsets_cached(self):
        lib = random_library(2, 4, 2, seed=5)
        for cache in place_caches(lib):
            assert all(cache.user in subset for subset in cache.by_subset)

    @pytest.mark.parametrize(
        "num_files,num_users,split,seed",
        # t = 0, 1, K - 1 and K, each with N < K and with N >= K
        [(2, 4, 0, 51), (5, 3, 0, 52), (2, 5, 1, 53), (4, 4, 1, 54),
         (3, 4, 3, 55), (6, 5, 4, 56), (1, 3, 3, 57), (4, 2, 2, 58)],
    )
    def test_caches_hold_the_library_ints(self, monkeypatch, num_files, num_users, split, seed):
        """Each cache is the library's cut on the subsets that hold its user:
        the library's own int objects, the very ones `subfile` returns, placed
        without one `subfile` call."""
        lib = random_library(num_files, num_users, split, seed=seed)
        calls = []
        subfile = FileLibrary.subfile
        monkeypatch.setattr(FileLibrary, "subfile", lambda self, *args: calls.append(args) or subfile(self, *args))
        caches = lib.caches
        assert place_caches(lib) is not caches and calls == []
        monkeypatch.undo()
        subsets = lib.subfile_subsets()
        for cache in caches:
            own = [s for s in subsets if cache.user in s]
            assert list(cache.by_subset) == own
            for s, values in cache.by_subset.items():
                assert len(values) == num_files
                for n, value in enumerate(values, 1):
                    assert value is lib.subfile_values[n - 1][subsets.index(s)]
                    assert lib.subfile(n, s) is value

    def test_library_places_once(self):
        lib = random_library(3, 3, 1, seed=9)
        assert lib.caches is lib.caches
        assert [c.digest() for c in lib.caches] == [c.digest() for c in place_caches(lib)]

    def test_placement_is_demand_independent(self):
        lib = random_library(3, 3, 1, seed=9)
        before = [c.digest() for c in place_caches(lib)]
        _ = select_leaders((2, 2, 1))  # demands revealed; placement unchanged
        after = [c.digest() for c in place_caches(lib)]
        assert before == after


class TestLeaders:
    def test_one_leader_per_distinct_file(self):
        ls = select_leaders((1, 2, 1, 2))
        assert ls.leaders == (1, 2)
        assert ls.non_leaders == (3, 4)

    def test_single_demand(self):
        ls = select_leaders((1, 1, 1))
        assert ls.leaders == (1,)

    def test_first_requester_leads(self):
        ls = select_leaders((1, 2, 2))
        assert ls.leaders == (1, 2)
        assert ls.non_leaders == (3,)

    def test_weakest_user_always_leads(self):
        for d in itertools.product((1, 2, 3), repeat=4):
            assert select_leaders(d).leaders[0] == 1

    def test_leader_set_is_a_tuple(self):
        assert select_leaders((1, 2, 1, 2)) == ((1, 2), (3, 4))


class TestEncoding:
    def test_three_user_distinct_demands(self):
        lib = random_library(3, 3, 1, seed=2)
        d = (1, 2, 3)
        payloads = encode_multicast(d, lib, select_leaders(d))
        assert [p.group for p in payloads] == [(1, 2), (1, 3), (2, 3)]
        assert all(p.size == lib.file_bits // 3 for p in payloads)

    def test_no_caching_degenerates_to_file_unicast(self):
        lib = random_library(3, 3, 0, seed=2)
        d = (3, 1, 2)
        payloads = encode_multicast(d, lib, select_leaders(d))
        assert [p.group for p in payloads] == [(1,), (2,), (3,)]
        for p in payloads:  # at t = 0 a file is its one subfile
            assert (p.value,) == lib.subfile_values[d[p.group[0] - 1] - 1] and p.size == lib.file_bits

    def test_full_cache_needs_no_payloads(self):
        lib = random_library(2, 3, 3, seed=2)
        d = (1, 2, 1)
        assert encode_multicast(d, lib, select_leaders(d)) == []

    def test_count_for_leading_prefix(self):
        # leaders = [1..s]: count must be C(K, sigma) - C(K-s, sigma)
        lib = random_library(2, 4, 1, seed=4)
        d = (1, 2, 1, 2)
        payloads = encode_multicast(d, lib, select_leaders(d))
        assert len(payloads) == math.comb(4, 2) - math.comb(2, 2) == 5

    def test_count_for_general_leaders(self):
        lib = random_library(2, 4, 1, seed=4)
        d = (1, 1, 2, 1)  # leaders {1, 3}
        leaders = select_leaders(d)
        assert leaders.leaders == (1, 3)
        payloads = encode_multicast(d, lib, leaders)
        groups = [g for g in itertools.combinations(range(1, 5), 2) if set(g) & {1, 3}]
        assert [p.group for p in payloads] == groups

    def test_payloads_match_direct_definition(self):
        lib = random_library(3, 4, 2, seed=11)
        d = (2, 3, 1, 2)
        for p in encode_multicast(d, lib, select_leaders(d)):
            assert p.value == direct_payload(lib, d, p.group)


class TestReconstruction:
    def test_worked_example_two_files_four_users(self):
        lib = random_library(2, 4, 1, seed=8)
        d = (1, 2, 1, 2)
        leaders = select_leaders(d)
        rebuilt = reconstruct_missing(sent(d, lib, leaders), (3, 4), leaders, d, lib.subfile_bits)
        assert rebuilt.value == direct_payload(lib, d, (3, 4))

    def test_reconstruction_xor_direct_is_zero(self):
        lib = random_library(2, 5, 1, seed=13)
        d = (1, 2, 2, 1, 2)
        leaders = select_leaders(d)
        by_group = sent(d, lib, leaders)
        for group in itertools.combinations(leaders.non_leaders, 2):
            rebuilt = reconstruct_missing(by_group, group, leaders, d, lib.subfile_bits)
            assert rebuilt.value ^ direct_payload(lib, d, group) == 0 and rebuilt.size == lib.subfile_bits

    def test_rejects_group_with_leader(self):
        lib = random_library(2, 4, 1, seed=8)
        d = (1, 2, 1, 2)
        leaders = select_leaders(d)
        with pytest.raises(ValueError):
            reconstruct_missing(sent(d, lib, leaders), (1, 3), leaders, d, lib.subfile_bits)

    def test_missing_inputs_detected(self):
        lib = random_library(2, 4, 1, seed=8)
        d = (1, 2, 1, 2)
        leaders = select_leaders(d)
        by_group = sent(d, lib, leaders)
        # W_34 recomposes from W_23, W_14 and W_12; withhold W_14
        del by_group[(1, 4)]
        with pytest.raises(MissingPayloadError, match=re.escape("group (1, 4)")):
            reconstruct_missing(by_group, (3, 4), leaders, d, lib.subfile_bits)

    def test_undecodable_source_is_a_typed_error(self):
        lib = random_library(2, 4, 1, seed=8)
        d = (1, 2, 1, 2)
        # not the weakest users per file: recomposing W_12 would consume W_34,
        # which user 1 (the weakest of the group) cannot decode
        crafted = LeaderSet(leaders=(3, 4), non_leaders=(1, 2))
        with pytest.raises(DecodabilityError) as info:
            reconstruct_missing(sent(d, lib, crafted), (1, 2), crafted, d, lib.subfile_bits)
        assert (info.value.group, info.value.source, info.value.weakest) == ((1, 2), (3, 4), 1)
        assert not isinstance(info.value, (ValueError, AssertionError))
        assert "user 1" in str(info.value)
        # the sources are remembered per demand pattern; the error is not
        with pytest.raises(DecodabilityError):
            reconstruct_missing(sent(d, lib, crafted), (1, 2), crafted, d, lib.subfile_bits)

    def test_remembered_sources_still_read_this_map(self):
        """After a good call has remembered W_34's sources, a tuple with the
        same pattern XORs its own payloads, and a withheld one still fails."""
        lib = random_library(2, 4, 1, seed=8)
        d = (1, 2, 1, 2)
        leaders = select_leaders(d)
        by_group = sent(d, lib, leaders)
        assert reconstruct_missing(by_group, (3, 4), leaders, d, lib.subfile_bits).value == direct_payload(lib, d, (3, 4))
        swapped = (2, 1, 2, 1)
        assert select_leaders(swapped) == leaders
        rebuilt = reconstruct_missing(sent(swapped, lib, leaders), (3, 4), leaders, swapped, lib.subfile_bits)
        assert rebuilt.value == direct_payload(lib, swapped, (3, 4))
        del by_group[(1, 4)]
        for _ in range(2):
            with pytest.raises(MissingPayloadError, match=re.escape("group (1, 4)")):
                reconstruct_missing(by_group, (3, 4), leaders, d, lib.subfile_bits)


class TestPayloadInts:
    """Payloads travel as `{group: int}`; a payload's `bits` is a view of its
    int at the library's subfile width, which perfbench's layer tracer reads
    with len()."""

    @pytest.mark.parametrize("num_files,num_users,split,file_bits",
                             [(2, 4, 1, None), (3, 4, 2, 6 * 13), (2, 3, 0, 3 * 70)])
    def test_encoded_and_rebuilt_payloads_are_ints_with_a_bits_view(self, num_files, num_users, split, file_bits):
        lib = random_library(num_files, num_users, split, file_bits, seed=3)
        for d in itertools.product(range(1, num_files + 1), repeat=num_users):
            leaders = select_leaders(d)
            payloads = encode_multicast(d, lib, leaders)
            by_group = {p.group: p.value for p in payloads}
            missing = itertools.combinations(leaders.non_leaders, split + 1)
            rebuilt = [reconstruct_missing(by_group, g, leaders, d, lib.subfile_bits) for g in missing]
            for p in payloads + rebuilt:
                assert type(p.value) is int and p == (p.group, p.value, lib.subfile_bits)
                assert len(p.bits) == p.size == lib.subfile_bits and p.bits.value == p.value

    def test_reconstruction_and_decoding_read_int_maps(self):
        lib = random_library(2, 4, 1, seed=8)
        d = (1, 2, 1, 2)
        leaders = select_leaders(d)
        by_group = {p.group: p.value for p in encode_multicast(d, lib, leaders)}
        assert all(type(value) is int for value in by_group.values())
        rebuilt = reconstruct_missing(by_group, (3, 4), leaders, d, lib.subfile_bits)
        assert rebuilt == ((3, 4), direct_payload(lib, d, (3, 4)), lib.subfile_bits)
        by_group[rebuilt.group] = rebuilt.value
        for user in range(1, 5):
            assert decode_file(user, by_group, lib.caches[user - 1], d) == lib.subfile_values[d[user - 1] - 1]


class TestDecoding:
    def test_fully_cached_file_needs_no_payloads(self):
        lib = random_library(2, 3, 3, seed=6)
        d = (2, 1, 2)
        caches = place_caches(lib)
        assert select_leaders(d).leaders == (1, 2)
        out = decode_file(1, {}, caches[0], d)
        assert out == lib.subfile_values[1]

    def test_three_user_example_decodes(self):
        lib = random_library(3, 3, 1, seed=6)
        d = (1, 2, 3)
        leaders = select_leaders(d)
        caches = place_caches(lib)
        # user 1 needs only its own two payloads plus the cache
        own = {group: value for group, value in sent(d, lib, leaders).items() if 1 in group}
        assert list(own) == [(1, 2), (1, 3)]
        out = decode_file(1, own, caches[0], d)
        assert out == lib.subfile_values[0]

    def test_non_leader_matches_its_leader(self):
        lib = random_library(2, 4, 1, seed=6)
        d = (1, 2, 2, 1)
        leaders = select_leaders(d)
        caches = place_caches(lib)
        by_group = complete(d, lib, leaders)
        strong = decode_file(4, by_group, caches[3], d)
        weak = decode_file(1, by_group, caches[0], d)
        assert strong == weak and weak == lib.subfile_values[0]

    def test_missing_payload_raises(self):
        lib = random_library(3, 3, 1, seed=6)
        d = (1, 2, 3)
        caches = place_caches(lib)
        with pytest.raises(MissingPayloadError, match=re.escape("group (1, 2) is required by user 1")):
            decode_file(1, {}, caches[0], d)

    def test_decoding_reads_the_map_and_reconstructs_nothing(self):
        """An all-non-leader payload absent from the map is missing: only
        `reconstruct_missing` rebuilds it, before decoding."""
        lib = random_library(2, 4, 1, seed=8)
        d = (1, 2, 1, 2)
        leaders = select_leaders(d)
        caches = place_caches(lib)
        by_group = sent(d, lib, leaders)
        assert (3, 4) not in by_group
        for user in (3, 4):
            with pytest.raises(MissingPayloadError, match=re.escape(f"group (3, 4) is required by user {user}")):
                decode_file(user, by_group, caches[user - 1], d)
        by_group = complete(d, lib, leaders)
        for user in (3, 4):
            assert decode_file(user, by_group, caches[user - 1], d) == lib.subfile_values[d[user - 1] - 1]


class TestMissingMessagesExhaustive:
    @pytest.mark.parametrize(
        "num_users,num_files", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    )
    def test_every_missing_payload_recomposes(self, num_users, num_files):
        """All-non-leader payloads rebuild bit-exactly from transmitted ones.

        Covers every demand tuple and every cache budget that leaves room for
        a full non-leader group (the reconstruction also asserts internally
        that each consumed payload is decodable by the weakest group member).
        """
        for split in range(0, num_users):
            sigma = split + 1
            lib = random_library(num_files, num_users, split, seed=17)
            for d in itertools.product(range(1, num_files + 1), repeat=num_users):
                leaders = select_leaders(d)
                if len(leaders.non_leaders) < sigma:
                    continue
                by_group = sent(d, lib, leaders)
                for group in itertools.combinations(leaders.non_leaders, sigma):
                    rebuilt = reconstruct_missing(by_group, group, leaders, d, lib.subfile_bits)
                    assert rebuilt.value == direct_payload(lib, d, group)


def sweep_records(tmp_path, capsys, *flags) -> list[dict]:
    """The caching records of one `cachecast verify` run that passes."""
    out = tmp_path / "records.ndjson"
    assert cli.main(["verify", *flags, "--region-trials", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    return [json.loads(line) for line in out.read_text().splitlines()]


class TestEndToEnd:
    @pytest.mark.parametrize("num_users,num_files", [(2, 3), (3, 2), (4, 2), (3, 3)])
    def test_exhaustive_small(self, num_users, num_files):
        for split in range(0, num_users + 1):
            for d in itertools.product(range(1, num_files + 1), repeat=num_users):
                assert end_to_end_verify(num_users, num_files, split, d=d)

    def test_five_users_spot(self):
        assert end_to_end_verify(5, 2, 1, d=(1, 2, 2, 1, 1))
        assert end_to_end_verify(5, 3, 2, d=(1, 2, 3, 1, 2))
        assert end_to_end_verify(5, 5, 1, d=(1, 2, 3, 4, 5))

    def test_six_users_random_spot(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            num_files = int(rng.integers(1, 5))
            split = int(rng.integers(0, 7))
            d = tuple(int(v) for v in rng.integers(1, num_files + 1, size=6))
            assert end_to_end_verify(6, num_files, split, d=d)

    def test_invalid_demand_rejected(self):
        with pytest.raises(ValueError):
            end_to_end_verify(3, 2, 1, d=(1, 2, 3))

    @pytest.mark.parametrize("d", [(1.0, 2), (True, 2), (F(1), 2), (2, np.int64(1))],
                             ids=["float", "bool", "fraction", "numpy"])
    def test_demand_entries_must_be_ints(self, d):
        # a bool would verify as file 1, a float would fail on indexing
        with pytest.raises(ValueError, match=re.escape(f"demand tuple {d} is not in [1..2]^2")):
            end_to_end_verify(2, 2, 1, d=d)

    @pytest.mark.slow
    @pytest.mark.parametrize("num_users,num_files", [(5, n) for n in range(1, 6)])
    def test_exhaustive_five_users(self, num_users, num_files):
        for split in range(0, num_users + 1):
            for d in itertools.product(range(1, num_files + 1), repeat=num_users):
                assert end_to_end_verify(num_users, num_files, split, d=d)

    def test_corrupted_payload_fails(self):
        assert not end_to_end_verify(3, 3, 1, d=(1, 2, 3), corrupt_payload=0)

    def test_the_fault_flips_bit_0_of_one_payload(self, monkeypatch):
        """Payload i of the map decoding reads differs from the clean one in
        bit 0, the most significant of its width, and nowhere else."""
        lib = random_library(3, 4, 2, 6 * 13, seed=5)
        d = (1, 2, 3, 1)
        clean, maps, decode = sent(d, lib, select_leaders(d)), [], caching.decode_file
        monkeypatch.setattr(caching, "decode_file",
                            lambda user, by_group, *rest: maps.append(dict(by_group)) or decode(user, by_group, *rest))
        for index, group in enumerate(clean):
            maps.clear()
            assert not end_to_end_verify(4, 3, 2, d=d, corrupt_payload=index, library=lib)
            assert maps[0] == {**clean, group: clean[group] ^ 1 << (lib.subfile_bits - 1)}

    @pytest.mark.parametrize("index", [1.5, True, F(1), np.int64(1)], ids=["float", "bool", "fraction", "numpy"])
    def test_payload_to_corrupt_must_be_an_int(self, index):
        # True would corrupt payload 1, and 1.5 would fail indexing the payloads without a name
        message = f"payload index to corrupt must be an integer, got {index!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            end_to_end_verify(3, 3, 1, d=(1, 2, 3), corrupt_payload=index)

    def test_any_int_picks_a_payload_modulo_the_count(self):
        d = (1, 2, 3)
        lib = random_library(3, 3, 1)
        count = len(encode_multicast(d, lib, select_leaders(d)))
        for index in (-1, count, count + 1, 10**30):
            assert not end_to_end_verify(3, 3, 1, d=d, corrupt_payload=index, library=lib)

    @pytest.mark.parametrize("num_users,num_files", [(1, 1), (3, 3), (4, 2)])
    def test_corrupting_when_nothing_is_sent_is_an_error(self, num_users, num_files):
        # at t = K every user caches every file: a fault that cannot be
        # injected must not pass as a detected one, nor as a clean run
        d = tuple(1 + k % num_files for k in range(num_users))
        message = (f"(K, N, t) = ({num_users}, {num_files}, {num_users}) sends no payload, "
                   "so there is no payload to corrupt")
        with pytest.raises(ValueError, match=re.escape(message)):
            end_to_end_verify(num_users, num_files, num_users, d=d, corrupt_payload=0)
        assert end_to_end_verify(num_users, num_files, num_users, d=d)

    @pytest.mark.parametrize("num_files", [2, 3])
    @pytest.mark.parametrize("split", [1, 2, 3])
    def test_every_tuple_on_wide_subfiles(self, split, num_files):
        """Subfiles of 2^12 + 3 bits (not a whole number of bytes or words):
        every clean demand tuple passes and every corrupted payload fails."""
        num_users, file_bits = 4, math.comb(4, split) * (2**12 + 3)
        lib = random_library(num_files, num_users, split, file_bits, seed=17 + split)
        shape = (num_users, num_files, split)
        for d in itertools.product(range(1, num_files + 1), repeat=num_users):
            assert end_to_end_verify(*shape, file_bits, d=d, library=lib)
            count = len(encode_multicast(d, lib, select_leaders(d)))
            for index in range(count):
                assert not end_to_end_verify(*shape, file_bits, d=d, corrupt_payload=index, library=lib)

    def test_full_cache_any_demand(self):
        for d in itertools.product((1, 2), repeat=3):
            assert end_to_end_verify(3, 2, 3, d=d)

    def test_sweep_records(self, tmp_path, capsys):
        """verify's caching stage writes one record per demand tuple."""
        records = sweep_records(tmp_path, capsys, "--K", "2", "--N", "2", "--mu", "1/2")
        assert [r["d"] for r in records] == [[1, 1], [1, 2], [2, 1], [2, 2]]
        assert all(r == {"K": 2, "N": 2, "Kmu": 1, "d": r["d"], "seed": 0, "pass": True} for r in records)

    def test_sweep_builds_and_places_one_library(self, monkeypatch, tmp_path, capsys):
        calls = {"random_library": 0, "place_caches": 0, "end_to_end_verify": 0}
        for name in calls:
            original = getattr(caching, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(caching, name, counted)
        records = sweep_records(tmp_path, capsys, "--K", "3", "--N", "2", "--mu", "1/3", "--seed", "4")
        assert len(records) == 8 and all(r["pass"] for r in records)
        assert calls == {"random_library": 1, "place_caches": 1, "end_to_end_verify": 8}

    def test_shared_library_survives_a_corrupted_call(self):
        lib = random_library(3, 4, 1, seed=2)
        d = (1, 2, 3, 1)
        assert not end_to_end_verify(4, 3, 1, d=d, corrupt_payload=2, library=lib)
        assert end_to_end_verify(4, 3, 1, d=d, library=lib)

    def test_shared_library_must_match_shape(self):
        lib = random_library(3, 4, 1, seed=2)
        for shape in ((4, 2, 1), (4, 3, 2), (3, 3, 1)):
            with pytest.raises(ValueError):
                end_to_end_verify(*shape, d=(1,) * shape[0], library=lib)
        with pytest.raises(ValueError):
            end_to_end_verify(4, 3, 1, file_bits=lib.file_bits * 2, library=lib)

    @pytest.mark.parametrize("num_users,num_files", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_every_corrupted_payload_fails(self, num_users, num_files):
        """A flipped bit in any payload is caught, on the leader path and on
        the reconstruction path (repeated demands, N < K)."""
        cyclic = tuple(1 + k % num_files for k in range(num_users))
        demands = [cyclic, (1,) * num_users, (1,) * (num_users - 1) + (num_files,)]
        for split in range(num_users):
            shape = (num_users, num_files, split)
            lib = random_library(num_files, num_users, split, seed=31)
            for d in demands:
                count = len(encode_multicast(d, lib, select_leaders(d)))
                assert count > 0
                for index in range(count):
                    assert not end_to_end_verify(*shape, d=d, seed=31, corrupt_payload=index)
                    assert not end_to_end_verify(*shape, d=d, corrupt_payload=index, library=lib)


# (num_files, num_users, split, file_bits, seed) -> CacheContents.digest() of users 1..K
PINNED_DIGESTS = {
    (3, 3, 1, None, 7): [  # default 8-bit subfiles
        "b0c1c10c1ee220fbe5c0bc1407d1fb9a06aa8b7d75ec93b6d304325c307c10c7",
        "3baeb5ac8d026814d30db428d758c909d58e550e6c884ed34f49c43fa642f3d3",
        "1b85cdf38ffa44b02fa69f3bad45c38c7d351b8bbab5c5796b16e578e206312f",
    ],
    (2, 3, 1, 15, 11): [  # 5-bit subfiles
        "8e403cc7ac75daf7602a293b312b319cc70a89deff415792807ed371239a7274",
        "1e853e365c0d7542eaaa2d3a4d50ab6846be8598c38d5c2e4e2f926f8dae7ce0",
        "f8249b5e8b4fe517fb7d19ac8347cbcc4e4ae07c0cff6df06d08b105b59f8250",
    ],
    (3, 4, 2, 6 * 13, 5): [  # 13-bit subfiles
        "16b233416ebd56ea575d14a3cb2818657a0a2f101f2b4c3147dffe5a4c1a6b98",
        "a8f368d534e9ac842874dd40883d696685ac80cefbbf57d6bb93a13a5703b5a1",
        "734f3a4d9601c09a275e2705c8e19478bc84bcd750a635f53d5fde248376a2d2",
        "bd925f3b4588c6b4faf450b0b1457ce09f129b435063608dfa4453c95602bb81",
    ],
    (2, 3, 1, 3 * 2**16, 19): [  # 2^16-bit subfiles
        "2ceef0d5e51f5e1043f7ed90b2a99a487a06f72da5da05d97d37813e10f958d6",
        "92d6aff260ef128d6beb14d1858c90ee31cdcb69f17227f761986bea80fe7070",
        "23a54d9ee584b1af7d8238b1d7e9144069e413a39834434c488f33182f8d1731",
    ],
    (2, 3, 3, 3, 23): [  # full caches of one 3-bit subfile per file
        "b13fa0be68a3651102df39c50e46f5ebabdc2a15b99dcef631e1224697b599a5",
        "3d1c7960a90f6a60306e7576b09a37634e8191facbff127c94c69d3b35756365",
        "784dc617e66644f9b8d4c278ef23438f5555c2852ded6ca6ca8a1fa40da3943a",
    ],
}


@pytest.mark.parametrize("shape", sorted(PINNED_DIGESTS, key=repr))
def test_cache_digests_are_pinned(shape):
    """A seed's library, its split and the bytes each digest hashes (packbits
    order, zero padding on the right) never change."""
    lib = random_library(*shape)
    assert [c.digest() for c in lib.caches] == PINNED_DIGESTS[shape]


def _consumers(d, leaders, sigma, group):
    """Oracle: users whose decode uses the payload of `group`.

    Its members peel it directly; the members of an all-non-leader group A
    use it when it is W_{B \\ V} for B = A u leaders and V an alternative
    leader set inside B (as many users as leaders, distinct demands, not the
    leaders themselves).
    """
    users = set(group)
    lead = leaders.leaders
    for missing in itertools.combinations(leaders.non_leaders, sigma):
        pool = set(missing) | set(lead)
        for alt in itertools.combinations(sorted(pool), len(lead)):
            distinct = len({d[u - 1] for u in alt}) == len(lead)
            if alt != lead and distinct and pool - set(alt) == set(group):
                users |= set(missing)
    return users


class TestFaultLocation:
    @pytest.mark.parametrize("num_users,num_files", [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
    def test_a_flipped_payload_breaks_exactly_its_consumers(
        self, monkeypatch, num_users, num_files
    ):
        """One flipped bit in payload P makes exactly P's consumers decode a
        wrong file, directly or through a reconstruction; every other user
        decodes correctly from the same per-tuple payload map."""
        decoded = {}
        original = caching.decode_file

        def spy(user, by_group, cache, d):
            decoded[user] = original(user, by_group, cache, d)
            # hand back the wanted subfiles, so every user is decoded and recorded
            return lib.subfile_values[d[user - 1] - 1]

        monkeypatch.setattr(caching, "decode_file", spy)
        for split in range(num_users):
            lib = random_library(num_files, num_users, split, seed=41)
            for d in itertools.product(range(1, num_files + 1), repeat=num_users):
                leaders = select_leaders(d)
                groups = [p.group for p in encode_multicast(d, lib, leaders)]
                for index, group in enumerate(groups):
                    decoded.clear()
                    end_to_end_verify(
                        num_users, num_files, split, d=d, corrupt_payload=index, library=lib
                    )
                    assert sorted(decoded) == list(range(1, num_users + 1))
                    wrong = {u for u, out in decoded.items() if out != lib.subfile_values[d[u - 1] - 1]}
                    assert wrong == _consumers(d, leaders, split + 1, group), (split, d, group)


def test_each_missing_payload_is_reconstructed_once_per_tuple(monkeypatch, tmp_path, capsys):
    """Over the K <= 4, N <= 4 sweep of `cachecast verify`, every
    untransmitted (d, group) payload is reconstructed exactly once, and
    nothing else is."""
    calls = []
    shape = []
    verify, reconstruct = caching.end_to_end_verify, caching.reconstruct_missing

    def verified(num_users, num_files, split_order, *args, **kwargs):
        shape[:] = [num_users, num_files, split_order]
        return verify(num_users, num_files, split_order, *args, **kwargs)

    def counted(by_group, group, leaders, d, width):
        calls.append((*shape, tuple(d), tuple(group)))
        return reconstruct(by_group, group, leaders, d, width)

    monkeypatch.setattr(caching, "end_to_end_verify", verified)
    monkeypatch.setattr(caching, "reconstruct_missing", counted)
    records = sweep_records(tmp_path, capsys, "--max-K", "4", "--max-N", "4")
    expected = set()
    for K in range(1, 5):
        for N in range(1, 5):
            for split in range(K + 1):
                for d in itertools.product(range(1, N + 1), repeat=K):
                    non_leaders = select_leaders(d).non_leaders
                    for group in itertools.combinations(non_leaders, split + 1):
                        expected.add((K, N, split, d, group))
    assert len(records) == sum(N**K * (K + 1) for K in range(1, 5) for N in range(1, 5))
    assert all(r["pass"] for r in records)
    assert len(calls) == len(set(calls))
    assert set(calls) == expected
    assert len(expected) == 770
