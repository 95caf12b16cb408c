"""Bit-exact coded caching: placement, XOR multicast delivery, decoding.

The shared-link pipeline implemented here is the classic subfile scheme.
With K users and an aggregate cache budget of t = K*mu files (t integer),
every file is split into C(K, t) equal subfiles, one per t-subset of users,
and user k caches exactly the subfiles whose index set contains k.  Once
demands are known, one XOR payload

    W_S = XOR_{i in S} F_{d_i}^{S \\ {i}},        |S| = t + 1,

is generated for every group S that contains at least one *leader* (the
weakest user requesting each distinct file).  Leaders peel their payloads with
cached subfiles; when there are fewer files than users, the payloads for
all-non-leader groups are never sent and are instead recomposed by the
receivers as an XOR of transmitted payloads over alternative leader sets
(the Yu-Maddah-Ali-Avestimehr reconstruction).

Everything operates on explicit bit arrays (numpy uint8 of 0/1 values), so
every claim about the delivery scheme can be checked for bit equality, for
every demand tuple, at small scale.

Users are 1-based; demand entries are 1-based file indices.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Sequence

import numpy as np

from .combinatorics import Group, binom

Bits = np.ndarray


class MissingPayloadError(LookupError):
    """A payload needed for decoding or reconstruction is not available."""


class DecodabilityError(RuntimeError):
    """A reconstruction would consume a payload the group's weakest user cannot decode."""

    def __init__(self, group: Group, source: Group, weakest: int):
        super().__init__(f"payload {source} used for {group} is not decodable by user {weakest}")
        self.group, self.source, self.weakest = group, source, weakest


@dataclass(frozen=True)
class FileLibrary:
    """N files of B bits each, split for a K-user cache of order t = K*mu.

    The split is positional: subfiles follow the lexicographic order of the
    t-subsets of [K], each of length B / C(K, t) bits.  Subfile views and the
    placement are built on first use and live as long as the library, so
    everything that shares one library shares them.
    """

    num_users: int
    split_order: int
    files: tuple[Bits, ...]

    def __post_init__(self):
        if not isinstance(self.split_order, int):
            raise ValueError(f"split order must be an integer, got {self.split_order!r}")
        if not 0 <= self.split_order <= self.num_users:
            raise ValueError(
                f"split order must lie in [0, {self.num_users}], got {self.split_order}"
            )
        sizes = {len(f) for f in self.files}
        if len(sizes) != 1:
            raise ValueError("all files must have the same bit length")
        (bits,) = sizes
        pieces = binom(self.num_users, self.split_order)
        if bits % pieces != 0:
            raise ValueError(
                f"file size {bits} bits is not divisible into {pieces} equal subfiles"
            )

    @property
    def num_files(self) -> int:
        return len(self.files)

    @property
    def file_bits(self) -> int:
        return len(self.files[0])

    @property
    def subfile_bits(self) -> int:
        return self.file_bits // binom(self.num_users, self.split_order)

    def subfile_subsets(self) -> list[Group]:
        return [tuple(s) for s in combinations(range(1, self.num_users + 1), self.split_order)]

    @cached_property
    def _subfile_views(self) -> dict[Group, tuple[Bits, ...]]:
        """{t-subset: its subfile of every file}, as views into the files."""
        size = self.subfile_bits
        return {
            subset: tuple(f[pos * size : (pos + 1) * size] for f in self.files)
            for pos, subset in enumerate(self.subfile_subsets())
        }

    @cached_property
    def caches(self) -> tuple[CacheContents, ...]:
        """The demand-agnostic placement of this library, computed once."""
        return place_caches(self)

    def subfile(self, file_index: int, subset: Group) -> Bits:
        """Subfile of file `file_index` (1-based) indexed by user subset."""
        try:
            views = self._subfile_views[subset]
        except (KeyError, TypeError):  # unsorted, or not a tuple
            views = self._subfile_views.get(tuple(sorted(subset)))
            if views is None:
                raise ValueError(
                    f"{subset!r} is not a {self.split_order}-subset of users 1..{self.num_users}"
                ) from None
        if not 0 < file_index <= len(views):
            raise ValueError(f"file index {file_index!r} is not in 1..{len(views)}")
        return views[file_index - 1]


def random_library(
    num_files: int,
    num_users: int,
    split_order: int,
    file_bits: int | None = None,
    seed: int = 0,
) -> FileLibrary:
    """Seeded pseudo-random library; default size is 8 bits per subfile.

    The files are read-only, so a library shared by many verifications cannot
    be changed by any of them.
    """
    if file_bits is None:
        file_bits = 8 * binom(num_users, split_order)
    rng = np.random.default_rng(seed)
    files = []
    for _ in range(num_files):
        bits = rng.integers(0, 2, size=file_bits, dtype=np.uint8)
        bits.setflags(write=False)
        files.append(bits)
    return FileLibrary(num_users=num_users, split_order=split_order, files=tuple(files))


@dataclass(frozen=True)
class CacheContents:
    """Subfiles stored by one user: {(file index, subset) : bits}, k in subset."""

    user: int
    num_users: int
    split_order: int
    subfiles: dict[tuple[int, Group], Bits]

    @property
    def stored_bits(self) -> int:
        return sum(len(v) for v in self.subfiles.values())

    def digest(self) -> str:
        """Order-independent fingerprint of the cached bits."""
        h = hashlib.sha256()
        h.update(f"user={self.user}".encode())
        for key in sorted(self.subfiles):
            h.update(repr(key).encode())
            h.update(np.packbits(self.subfiles[key]).tobytes())
        return h.hexdigest()


def place_caches(library: FileLibrary) -> tuple[CacheContents, ...]:
    """Demand-agnostic placement: user k stores every subfile indexed by k."""
    caches = []
    subsets = library.subfile_subsets()
    for user in range(1, library.num_users + 1):
        stored = {
            (n, subset): library.subfile(n, subset)
            for n in range(1, library.num_files + 1)
            for subset in subsets
            if user in subset
        }
        caches.append(
            CacheContents(
                user=user,
                num_users=library.num_users,
                split_order=library.split_order,
                subfiles=stored,
            )
        )
    return tuple(caches)


@dataclass(frozen=True)
class LeaderSet:
    """Weakest (smallest-index) user per distinct demanded file."""

    leaders: tuple[int, ...]
    non_leaders: tuple[int, ...]


def select_leaders(d: Sequence[int]) -> LeaderSet:
    seen_files = set()
    leaders = []
    for user, demand in enumerate(d, start=1):
        if demand not in seen_files:
            seen_files.add(demand)
            leaders.append(user)
    non_leaders = tuple(u for u in range(1, len(d) + 1) if u not in leaders)
    return LeaderSet(leaders=tuple(leaders), non_leaders=non_leaders)


@dataclass(frozen=True)
class MulticastPayload:
    group: Group
    bits: Bits


def _xor_payload(d: Sequence[int], library: FileLibrary, group: Group) -> Bits:
    acc = library.subfile(d[group[0] - 1], group[1:]).copy()
    for i in range(1, len(group)):
        acc ^= library.subfile(d[group[i] - 1], group[:i] + group[i + 1 :])
    return acc


def encode_multicast(
    d: Sequence[int], library: FileLibrary, leaders: LeaderSet
) -> list[MulticastPayload]:
    """One XOR payload per (t+1)-group intersecting the leader set, in
    lexicographic group order."""
    sigma = library.split_order + 1
    if sigma > library.num_users:
        return []  # full caches: nothing to deliver
    leader_set = set(leaders.leaders)
    payloads = []
    for group in combinations(range(1, library.num_users + 1), sigma):
        if leader_set.isdisjoint(group):
            continue
        payloads.append(MulticastPayload(group=group, bits=_xor_payload(d, library, group)))
    return payloads


def _alternative_leader_sets(
    pool: Group, leaders: tuple[int, ...], d: Sequence[int]
) -> list[Group]:
    """Subsets of `pool` that could have served as the leader set.

    Each candidate has as many users as there are leaders, demands pairwise
    distinct, and differs from the actual leader set.
    """
    out = []
    for cand in combinations(pool, len(leaders)):
        if cand == leaders:
            continue
        demands = [d[u - 1] for u in cand]
        if len(set(demands)) == len(demands):
            out.append(cand)
    return out


def reconstruct_missing(
    payloads: Iterable[MulticastPayload],
    group: Group,
    leaders: LeaderSet,
    d: Sequence[int],
) -> MulticastPayload:
    """Recompose an untransmitted all-non-leader payload W_A.

    W_A equals the XOR of the transmitted payloads W_{B \\ V} where
    B = A u {leaders} and V ranges over the alternative leader sets inside B.
    Every payload consumed this way is checked to be decodable by the weakest
    member of A: its group must meet the leaders weaker than min(A), or
    contain min(A) itself.
    """
    group = tuple(sorted(group))
    if not set(group) <= set(leaders.non_leaders):
        raise ValueError(f"group {group} is not a set of non-leading users")
    by_group = {p.group: p.bits for p in payloads}
    pool = tuple(sorted(set(group) | set(leaders.leaders)))
    weakest = group[0]
    decodable_by = {u for u in leaders.leaders if u < weakest} | {weakest}

    acc = None
    for alt in _alternative_leader_sets(pool, leaders.leaders, d):
        source = tuple(u for u in pool if u not in alt)
        if not decodable_by & set(source):
            raise DecodabilityError(group, source, weakest)
        if source not in by_group:
            raise MissingPayloadError(f"payload for group {source} was not transmitted")
        acc = by_group[source].copy() if acc is None else acc ^ by_group[source]
    if acc is None:
        raise MissingPayloadError(f"no alternative leader sets cover group {group}")
    return MulticastPayload(group=group, bits=acc)


def decode_file(
    user: int,
    payloads: Iterable[MulticastPayload],
    cache: CacheContents,
    d: Sequence[int],
    leaders: LeaderSet,
) -> Bits:
    """Recover F_{d_user} exactly from payloads plus the local cache."""
    num_users = cache.num_users
    order = cache.split_order
    demand = d[user - 1]
    by_group = {p.group: p.bits for p in payloads}
    leader_set = set(leaders.leaders)

    parts = []
    for subset in combinations(range(1, num_users + 1), order):
        if user in subset:
            parts.append(cache.subfiles[(demand, subset)])
            continue
        group = tuple(sorted((user,) + subset))
        if group in by_group:
            coded = by_group[group]
        elif leader_set.isdisjoint(group):
            coded = reconstruct_missing(payloads, group, leaders, d).bits
        else:
            raise MissingPayloadError(
                f"payload for group {group} is required by user {user} but missing"
            )
        piece = coded.copy()
        for i, other in enumerate(group):
            if other != user:
                piece ^= cache.subfiles[(d[other - 1], group[:i] + group[i + 1 :])]
        parts.append(piece)
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)


def end_to_end_verify(
    num_users: int,
    num_files: int,
    split_order: int,
    file_bits: int | None = None,
    d: Sequence[int] | None = None,
    seed: int = 0,
    corrupt_payload: int | None = None,
    *,
    library: FileLibrary | None = None,
) -> bool:
    """Place, encode, decode every user; True iff all decodes are bit-exact.

    `corrupt_payload` flips one bit of the given payload index before
    decoding, for exercising failure detection.  `library` replaces the
    seeded `random_library` draw; it must have the given shape.  Only its
    demand-independent work (bits, subfile views, placement) is reused:
    encoding and every decode run afresh for `d`.
    """
    if library is None:
        library = random_library(num_files, num_users, split_order, file_bits, seed)
    elif (library.num_users, library.num_files, library.split_order) != (
        num_users, num_files, split_order
    ) or file_bits not in (None, library.file_bits):
        raise ValueError(
            f"library (K, N, t, B) = ({library.num_users}, {library.num_files}, "
            f"{library.split_order}, {library.file_bits}) does not match "
            f"({num_users}, {num_files}, {split_order}, {file_bits})"
        )
    caches = library.caches
    if d is None:
        d = tuple(1 + (k % num_files) for k in range(num_users))
    if len(d) != num_users or not all(1 <= v <= num_files for v in d):
        raise ValueError(f"demand tuple {d} is not in [1..{num_files}]^{num_users}")
    leaders = select_leaders(d)
    payloads = encode_multicast(d, library, leaders)
    if corrupt_payload is not None and payloads:
        target = payloads[corrupt_payload % len(payloads)]
        flipped = target.bits.copy()
        flipped[0] ^= 1
        payloads[corrupt_payload % len(payloads)] = MulticastPayload(
            group=target.group, bits=flipped
        )
    for user in range(1, num_users + 1):
        decoded = decode_file(user, payloads, caches[user - 1], d, leaders)
        if not np.array_equal(decoded, library.files[d[user - 1] - 1]):
            return False
    return True


def sweep_demands(
    num_users: int,
    num_files: int,
    split_order: int,
    file_bits: int | None = None,
    seed: int = 0,
    demands: Iterable[Sequence[int]] | None = None,
):
    """Yield a pass/fail record per demand tuple (all N^K tuples by default).

    The library and its placement are built once for the sweep; every tuple
    is still verified end to end by `end_to_end_verify`.
    """
    if demands is None:
        demands = product(range(1, num_files + 1), repeat=num_users)
    library = random_library(num_files, num_users, split_order, file_bits, seed)
    for d in demands:
        ok = end_to_end_verify(
            num_users, num_files, split_order, file_bits, tuple(d), seed, library=library
        )
        yield {
            "K": num_users,
            "N": num_files,
            "Kmu": split_order,
            "d": list(d),
            "seed": seed,
            "pass": ok,
        }
