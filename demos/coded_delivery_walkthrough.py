"""Walk through one coded caching round at the bit level.

Three users, three files, aggregate cache budget t = K*mu = 1: every file is
split into 3 subfiles, each user caches one subfile of every file, and three
XOR payloads serve all pairwise groups at once.  A second round with fewer
files than users (N = 2 < K = 4) shows the missing-payload reconstruction:
the all-non-leader payload W_34 is never transmitted, yet its intended users
recompose it from what was sent.
"""

from cachecast import (
    decode_file,
    encode_multicast,
    place_caches,
    random_library,
    reconstruct_missing,
    select_leaders,
)

print("=== round 1: K = 3 users, N = 3 files, budget t = 1 ===")
library = random_library(num_files=3, num_users=3, split_order=1, seed=7)
print(f"file size: {library.file_bits} bits, split into "
      f"{library.file_bits // library.subfile_bits} subfiles of {library.subfile_bits} bits")

caches = place_caches(library)
for cache in caches:
    print(f"  user {cache.user} caches {cache.stored_bits} bits "
          f"({sorted(cache.by_subset)})")

demands = (1, 2, 3)
leaders = select_leaders(demands)
payloads = encode_multicast(demands, library, leaders)
print(f"demands {demands}: {len(payloads)} XOR payloads "
      f"{[p.group for p in payloads]}, each {payloads[0].size} bits")

by_group = {p.group: p.value for p in payloads}  # each payload an int of subfile_bits
for user in (1, 2, 3):
    decoded = decode_file(user, by_group, caches[user - 1], demands)
    wanted = library.subfile_values[demands[user - 1] - 1]
    print(f"  user {user} recovers file {demands[user - 1]} bit-exactly: "
          f"{decoded == wanted}")

print()
print("=== round 2: K = 4 users but only N = 2 files ===")
library = random_library(num_files=2, num_users=4, split_order=1, seed=8)
caches = place_caches(library)
demands = (1, 2, 1, 2)
leaders = select_leaders(demands)
payloads = encode_multicast(demands, library, leaders)
print(f"demands {demands}: leaders {leaders.leaders}, "
      f"transmitted groups {[p.group for p in payloads]}")
print("  group (3, 4) is all non-leaders, so W_34 was never sent")

by_group = {p.group: p.value for p in payloads}
rebuilt = reconstruct_missing(by_group, (3, 4), leaders, demands, library.subfile_bits)
direct = library.subfile(demands[2], (4,)) ^ library.subfile(demands[3], (3,))  # subfile ints
print(f"  reconstructed W_34 equals its XOR definition: "
      f"{rebuilt.value == direct}")

by_group[rebuilt.group] = rebuilt.value  # the map is complete: decoding only reads it
for user in (3, 4):
    decoded = decode_file(user, by_group, caches[user - 1], demands)
    wanted = library.subfile_values[demands[user - 1] - 1]
    print(f"  non-leader user {user} recovers file {demands[user - 1]}: "
          f"{decoded == wanted}")
