"""Bit-exact coded caching: placement, XOR multicast delivery, decoding.

The shared-link pipeline implemented here is the classic subfile scheme.
With K users and an aggregate cache budget of t = K*mu files (t integer),
every file is split into C(K, t) equal subfiles, one per t-subset of users,
and user k caches exactly the subfiles whose index set contains k.  Once
demands are known, one XOR payload

    W_S = XOR_{i in S} F_{d_i}^{S \\ {i}},        |S| = t + 1,

is generated for every group S that contains at least one *leader* (the
weakest user requesting each distinct file).  When there are fewer files than
users, the payloads for all-non-leader groups are never sent; the receivers
recompose them as an XOR of transmitted payloads over alternative leader sets
(the Yu-Maddah-Ali-Avestimehr reconstruction).  The pipeline is three steps
on one {group: int} map: `encode_multicast` fills it with what is sent,
`reconstruct_missing` adds each never-sent payload once, and `decode_file`
peels a user's subfiles from that complete map and the user's cache.  State
is kept once, under the key it depends on: per library, while it lives, its
placement, its decode plans and, per leader set, the sides of the groups
that meet the leaders; in one module memo, per (missing group, leader set,
pattern of which of their users share a file), the sorted group and the
groups its reconstruction XORs.  Every tuple still XORs and compares its own
payloads.  Each XOR chain starts from its first term, never from 0, and a
cached subfile decodes as the cache's own int, so no subfile is copied
whole.  A decoded file stays a tuple of subfile ints, compared one by one
with `FileLibrary.subfile_values`.

Everything operates on explicit bit strings, so every claim about the
delivery scheme can be checked for bit equality, for every demand tuple.  A
string is one Python int of a known width, the library's `subfile_bits`:
bit 0 is its most significant bit, so a file's subfiles are consecutive bit
ranges from the top.  Subfiles, cached subfiles and payloads are all such
ints; `Bits` is only the view of a payload's int and width that
`MulticastPayload.bits` builds.  A library is built only from subfile ints,
each checked to fit its width, and no whole file is ever joined: the seeded
one draws each subfile as one `getrandbits` call of the standard library's
MT19937 (Matsumoto and Nishimura, ACM TOMACS 1998), seeded once per library.

Users are 1-based; demand entries are 1-based file indices.
"""

from __future__ import annotations

import math
import random
from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple, Sequence

from .combinatorics import Group, _Frozen, _checked_int


class Bits:
    """A view of `length` bits held in the int `value`, bit 0 the most
    significant; `len` is the bit count."""

    __slots__ = ("value", "length")

    def __init__(self, value: int, length: int):
        if value < 0 or value.bit_length() > length:
            raise ValueError(f"{value!r} does not fit in {length} bits")
        self.value, self.length = value, length

    def __len__(self) -> int:
        return self.length


class MissingPayloadError(LookupError):
    """A payload needed for decoding or reconstruction is not available."""


class DecodabilityError(RuntimeError):
    """A reconstruction would consume a payload the group's weakest user cannot decode."""

    def __init__(self, group: Group, source: Group, weakest: int):
        super().__init__(f"payload {source} used for {group} is not decodable by user {weakest}")
        self.group, self.source, self.weakest = group, source, weakest


def _subfile_shape(num_files: int, num_users: int, split_order: int,
                   file_bits: int | None = None) -> tuple[int, int]:
    """(C(K, t), bits per subfile) of N files of `file_bits` bits (default 8
    bits per subfile) split for K users at order t: a ValueError names the
    shape's first flaw, or files that do not cut into equal nonempty
    subfiles, before anything is drawn."""
    _checked_int("user count", num_users, 1)
    _checked_int("file count", num_files, 1)
    pieces = math.comb(num_users, _checked_int("split order", split_order, 0, num_users))
    if file_bits is None:
        return pieces, 8
    if _checked_int("file size in bits", file_bits, 1) % pieces:  # an empty file would "decode" vacuously
        raise ValueError(f"file size {file_bits} bits is not divisible into {pieces} equal subfiles")
    return pieces, file_bits // pieces


class FileLibrary(_Frozen):
    """N files of B bits each, split for a K-user cache of order t = K*mu.

    The split is positional: subfiles follow the lexicographic order of the
    t-subsets of [K], each of length B / C(K, t) bits.  A library is its
    shape and `subfile_values`, per file its C(K, t) subfile ints in that
    order, each `subfile_bits` wide: the one constructor checks them all and
    keeps them as tuples, and no whole file is joined.  `_by_subset`
    indexes the same int objects per subset, as every cache does; it, the
    placement and the sent plans are built on first use and live as long
    as the library, so everything that shares one library shares them.
    """

    _fields = ("num_users", "split_order", "subfile_bits", "subfile_values")
    num_users: int
    split_order: int
    subfile_bits: int
    subfile_values: tuple[tuple[int, ...], ...]

    def __init__(self, num_users: int, split_order: int, subfile_bits: int, subfile_values):
        values, size = tuple(map(tuple, subfile_values)), subfile_bits
        pieces = _subfile_shape(len(values), num_users, split_order)[0]
        _checked_int("subfile size in bits", size, 1)
        for n, file in enumerate(values, 1):
            if len(file) != pieces:
                raise ValueError(f"file {n} holds {len(file)} subfiles, not the {pieces} of its split")
            # inline: the bound is a bit width, read by bit_length, so no 2^size-bit int is built
            for v in file:
                if type(v) is not int or v < 0 or v.bit_length() > size:
                    raise ValueError(f"file {n} holds {v!r}, not an int in [0, 2**{size})")
        self.__dict__.update(num_users=num_users, split_order=split_order, subfile_bits=size,
                             subfile_values=values)

    @property
    def num_files(self) -> int:
        return len(self.subfile_values)

    @cached_property
    def file_bits(self) -> int:
        return self.subfile_bits * math.comb(self.num_users, self.split_order)

    def subfile_subsets(self) -> list[Group]:
        return list(combinations(range(1, self.num_users + 1), self.split_order))

    @cached_property
    def _by_subset(self) -> dict[Group, tuple[int, ...]]:
        """{t-subset: its subfile int of every file}, the objects of `subfile_values`."""
        return dict(zip(self.subfile_subsets(), zip(*self.subfile_values)))

    @cached_property
    def caches(self) -> tuple[CacheContents, ...]:
        """The demand-agnostic placement of this library, computed once."""
        return place_caches(self)

    @cached_property
    def _sent_plans(self) -> dict[Group, tuple[tuple[Group, tuple[tuple[int, tuple[int, ...]], ...]], ...]]:
        """{leader tuple: (group, sides) per (t+1)-group that meets it, in
        lexicographic order}, where sides pairs each member - 1 with its side
        subfile, group minus member, as one int per file from `_by_subset`;
        `encode_multicast` adds a leader tuple on its first use."""
        return {}

    def subfile(self, file_index: int, subset: Group) -> int:
        """The `subfile_bits`-wide int of file `file_index` (1-based) indexed
        by a sorted user subset, as `subfile_subsets()` yields it: a tuple of
        ints, since True and 1.0 would hash as 1."""
        values = None
        if isinstance(subset, tuple) and all(type(u) is int for u in subset):
            values = self._by_subset.get(subset)
        if values is None:
            raise ValueError(
                f"{subset!r} is not a sorted {self.split_order}-subset of users 1..{self.num_users}"
            )
        _checked_int("file index", file_index, 1, len(values))
        return values[file_index - 1]


def random_library(
    num_files: int,
    num_users: int,
    split_order: int,
    file_bits: int | None = None,
    *,
    seed: int,
) -> FileLibrary:
    """Seeded pseudo-random library; default size is 8 bits per subfile.

    With `bits = random.Random(seed).getrandbits`, MT19937 seeded by
    `init_by_array` over the seed's 32-bit words, file n's subfiles in
    `subfile_subsets()` order are `bits(subfile_bits)` each, files 1..N in
    turn.  The shape and the seed, a nonnegative int, are checked before the
    draw.  Ints are immutable: a library shared by many verifications cannot
    be changed by any of them.
    """
    pieces, size = _subfile_shape(num_files, num_users, split_order, file_bits)
    _checked_int("seed", seed, 0)
    bits = random.Random(seed).getrandbits
    return FileLibrary(num_users, split_order, size,
                       [[bits(size) for _ in range(pieces)] for _ in range(num_files)])


class CacheContents(_Frozen):
    """One user's cache: {t-subset holding the user: the library's subfile int
    per file}, each `subfile_bits` wide; user k holds W_{n,S} for every S holding k.
    It holds a dict, so it cannot be hashed."""

    _fields = ("user", "num_users", "split_order", "subfile_bits", "by_subset")
    user: int
    num_users: int
    split_order: int
    subfile_bits: int
    by_subset: dict[Group, tuple[int, ...]]

    def __init__(self, user: int, num_users: int, split_order: int, subfile_bits: int,
                 by_subset: dict[Group, tuple[int, ...]]):
        self.__dict__.update(user=user, num_users=num_users, split_order=split_order,
                             subfile_bits=subfile_bits, by_subset=by_subset)

    @property
    def stored_bits(self) -> int:
        return self.subfile_bits * sum(map(len, self.by_subset.values()))

    @cached_property
    def _decode_plan(self) -> tuple[tuple[Group | None, tuple[tuple[int, tuple[int, ...]], ...]], ...]:
        """How this user rebuilds each subfile of its file, in subset order:
        (group, sides) XORs the payload of `group` (None: a cached subfile)
        with values[d_other - 1] for each (other - 1, values) in sides, one
        cached subfile int per file.  Built once per placement."""
        cached, plan = self.by_subset, []
        for subset in combinations(range(1, self.num_users + 1), self.split_order):
            if self.user in subset:
                plan.append((None, ((self.user - 1, cached[subset]),)))
                continue
            group = tuple(sorted((self.user,) + subset))
            sides = tuple((other - 1, cached[group[:i] + group[i + 1 :]])
                          for i, other in enumerate(group) if other != self.user)
            plan.append((group, sides))
        return tuple(plan)


def place_caches(library: FileLibrary) -> tuple[CacheContents, ...]:
    """Demand-agnostic placement: user k stores every subfile indexed by k."""
    return tuple(
        CacheContents(user=user, num_users=library.num_users, split_order=library.split_order,
                      subfile_bits=library.subfile_bits,
                      by_subset={s: values for s, values in library._by_subset.items() if user in s})
        for user in range(1, library.num_users + 1)
    )


class LeaderSet(NamedTuple):
    """Weakest (smallest-index) user per distinct demanded file."""

    leaders: tuple[int, ...]
    non_leaders: tuple[int, ...]


def select_leaders(d: Sequence[int]) -> LeaderSet:
    seen, leaders, non_leaders = set(), [], []
    for u, file in enumerate(d, 1):
        (non_leaders if file in seen else leaders).append(u)
        seen.add(file)
    return LeaderSet(tuple(leaders), tuple(non_leaders))


class MulticastPayload(NamedTuple):
    """W_group as its int `value` of `size` bits, the library's `subfile_bits`;
    `bits` builds a `Bits` view on each read, for perfbench's layer tracer."""

    group: Group
    value: int
    size: int

    @property
    def bits(self) -> Bits:
        return Bits(self.value, self.size)


def encode_multicast(
    d: Sequence[int], library: FileLibrary, leaders: LeaderSet
) -> list[MulticastPayload]:
    """One XOR payload per (t+1)-group intersecting the leader set, in
    lexicographic group order, each `subfile_bits` wide, its XOR chain
    started from its first side term (at t = 0, the library's own int).
    Those groups' sides are built once per leader tuple, a group's t-subsets
    dropping its members last to first, and kept in `library._sent_plans`;
    every call XORs its own payloads."""
    plans = library._sent_plans
    plan = plans.get(leaders.leaders)
    if plan is None:
        t, sides, leader_set = library.split_order, library._by_subset, set(leaders.leaders)
        plan = plans[leaders.leaders] = tuple(
            (group, tuple([(m - 1, sides[rest])
                           for m, rest in zip(reversed(group), combinations(group, t))]))
            for group in combinations(range(1, library.num_users + 1), t + 1)
            if not leader_set.isdisjoint(group))
    size, payloads = library.subfile_bits, []
    for group, sides in plan:
        member, values = sides[0]
        acc = values[d[member] - 1]
        for member, values in sides[1:]:
            acc ^= values[d[member] - 1]
        payloads.append(MulticastPayload(group, acc, size))
    return payloads


@lru_cache(maxsize=4096)
def _reconstruction_sources(group: Group, leaders: Group,
                            pattern: tuple[int, ...]) -> tuple[Group, tuple[Group, ...]]:
    """(sorted group, the groups whose payloads XOR to W_group) when `pattern`
    labels the demands on (*group, *leaders) by first occurrence; each source
    is decodable by min(group).  A DecodabilityError is raised, never
    remembered, on every such call.  `verify --max-K 5 --max-N 4` fills 135
    keys, `--max-K 6 --max-N 5` 642."""
    demand = dict(zip((*group, *leaders), pattern))
    group, pool = tuple(sorted(group)), tuple(sorted(demand))
    weakest = group[0]
    decodable_by = {u for u in leaders if u < weakest} | {weakest}
    sources = []
    for alt in combinations(pool, len(leaders)):
        if alt == leaders or len({demand[u] for u in alt}) < len(alt):
            continue
        source = tuple(u for u in pool if u not in alt)
        if not decodable_by & set(source):
            raise DecodabilityError(group, source, weakest)
        sources.append(source)
    return group, tuple(sources)


def reconstruct_missing(
    by_group: dict[Group, int], group: Group, leaders: LeaderSet, d: Sequence[int], width: int
) -> MulticastPayload:
    """Recompose an untransmitted all-non-leader payload W_A, `width` bits
    wide, from the {group: int} map of transmitted payloads.

    W_A equals the XOR of the transmitted payloads W_{B \\ V} where
    B = A u {leaders} and V ranges over the alternative leader sets inside B:
    as many users as leaders, demands pairwise distinct, not the leaders
    themselves.  Every payload consumed this way is checked to be decodable
    by the weakest member of A: its group must meet the leaders weaker than
    min(A), or contain min(A) itself.  A is checked to be all non-leaders on
    every call, before `d` is read; the sorted A and the groups to XOR are
    remembered per (A, leader set, pattern of which users of B share a file),
    and the map is read and XORed on every call, from the first source on.
    """
    non_leaders = leaders.non_leaders
    for u in group:
        if u not in non_leaders:
            raise ValueError(f"group {tuple(sorted(group))} is not a set of non-leading users")
    labels: dict[int, int] = {}
    pattern = tuple(labels.setdefault(d[u - 1], len(labels)) for u in group + leaders.leaders)
    group, sources = _reconstruction_sources(group, leaders.leaders, pattern)
    # never empty: for u = group[0], l the leader of u's file, leaders - {l} + {u} is an alternative
    acc = None
    for source in sources:
        value = by_group.get(source)
        if value is None:
            raise MissingPayloadError(f"payload for group {source} was not transmitted")
        acc = value if acc is None else acc ^ value
    return MulticastPayload(group, acc, width)


def decode_file(by_group: dict[Group, int], cache: CacheContents, d: Sequence[int]) -> tuple[int, ...]:
    """Recover F_{d_user} exactly, for the user whose cache it is, from that
    cache and the {group: int} map of payloads, reconstructed ones included:
    this reads the map only.

    The file comes back as its subfile ints in `subfile_subsets()` order,
    each `subfile_bits` wide, as `FileLibrary.subfile_values` holds it; a
    cached one is the cache's own int, with no XOR.
    """
    pieces = []
    for group, sides in cache._decode_plan:
        if group is None:  # a cached subfile: the cache's own int, no XOR
            ((other, values),) = sides
            pieces.append(values[d[other] - 1])
            continue
        piece = by_group.get(group)
        if piece is None:
            raise MissingPayloadError(
                f"payload for group {group} is required by user {cache.user} but missing")
        for other, values in sides:
            piece ^= values[d[other] - 1]
        pieces.append(piece)
    return tuple(pieces)


def check_demand(d: Sequence[int], num_users: int, num_files: int) -> None:
    """Refuse a demand tuple outside [1..N]^K: K ints (not bools), each in 1..N."""
    # inline: it runs once per tuple of a sweep, and the refusal names the whole tuple
    if len(d) != num_users or not all(type(v) is int and 1 <= v <= num_files for v in d):
        raise ValueError(f"demand tuple {d} is not in [1..{num_files}]^{num_users}")


def end_to_end_verify(num_users: int, num_files: int, split_order: int, file_bits: int | None = None,
                      d: Sequence[int] | None = None, seed: int | None = None, corrupt_payload: int | None = None,
                      *, library: FileLibrary | None = None) -> bool:
    """Place, encode, decode every user; True iff all decodes are bit-exact.

    Each user's decoded subfiles are compared, subfile by subfile, with the
    `subfile_values` of the file that user asked for; no whole file is built.
    `corrupt_payload` flips bit 0, the most significant, of the given
    payload index before decoding, for exercising failure detection; at t = K
    no payload is sent, so asking for one is a ValueError rather than a
    vacuous pass.  Without `library` the call draws `random_library` at
    `seed` (0 if None); a `library` must have the given shape and comes
    with no seed.  Only the work that `d` does not fix is reused: the
    library's subfiles, placement and decode plans, its sent plan per
    leader set, and each reconstruction's sources per (group, leader set,
    demand pattern).  Encoding, each missing payload's one reconstruction
    and every decode run afresh for `d`, on one {group: int} map; the first
    user that decodes wrong ends the call.
    """
    if library is None:
        library = random_library(num_files, num_users, split_order, file_bits, seed=0 if seed is None else seed)
    elif seed is not None:
        raise ValueError(f"seed {seed!r} given with library=: a library is passed or drawn, not both")
    elif (library.num_users, library.num_files, library.split_order) != (
        num_users, num_files, split_order
    ) or file_bits not in (None, library.file_bits):
        raise ValueError(
            f"library (K, N, t, B) = ({library.num_users}, {library.num_files}, "
            f"{library.split_order}, {library.file_bits}) does not match "
            f"({num_users}, {num_files}, {split_order}, {file_bits})"
        )
    caches, width = library.caches, library.subfile_bits
    if d is None:
        d = tuple(1 + (k % num_files) for k in range(num_users))
    check_demand(d, num_users, num_files)
    leaders = select_leaders(d)
    payloads = encode_multicast(d, library, leaders)
    by_group = {group: value for group, value, _ in payloads}
    if corrupt_payload is not None:
        _checked_int("payload index to corrupt", corrupt_payload)
        if not payloads:
            raise ValueError(
                f"(K, N, t) = ({num_users}, {num_files}, {split_order}) sends no payload, "
                "so there is no payload to corrupt"
            )
        by_group[payloads[corrupt_payload % len(payloads)].group] ^= 1 << (width - 1)  # bit 0
    missing = combinations(leaders.non_leaders, split_order + 1)
    by_group.update({g: reconstruct_missing(by_group, g, leaders, d, width).value for g in missing})
    wanted = library.subfile_values
    for user in range(1, num_users + 1):
        if decode_file(by_group, caches[user - 1], d) != wanted[d[user - 1] - 1]:
            return False
    return True
