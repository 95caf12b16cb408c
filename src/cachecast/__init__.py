"""Coded caching and delivery-time analysis for layered broadcast channels.

The package splits into:

* `combinatorics` -- group counts (`tradeoff`'s integer coded loads), Fraction
  load sequences, the lower convex envelope (memory sharing's hull); groups
  come in `itertools.combinations` order;
* `caching`       -- bit-exact placement, XOR delivery and decoding;
* `polytope`/`lp` -- exact rational regions, Fourier-Motzkin, LP oracle;
* `regions`       -- the GDoF regions of the unicast + multicast channel;
* `tradeoff`      -- delivery-time formulas, converse bounds, hole analysis;
* `finite_snr`    -- finite-power rate regions and constant-gap certificates;
* `cli`           -- the `cachecast` command.
"""

from .combinatorics import cumulative_group_count, lower_convex_envelope, multicast_load_sequence
from .caching import (
    Bits,
    CacheContents,
    FileLibrary,
    LeaderSet,
    MulticastPayload,
    decode_file,
    encode_multicast,
    end_to_end_verify,
    place_caches,
    random_library,
    reconstruct_missing,
    select_leaders,
)
from .polytope import Polytope, eliminate, prune, region_contains, regions_equal, vertices
from .regions import (
    beta_parameterized_polytope,
    build_missing_message_region,
    build_region,
    build_two_multicast_symmetric,
    symmetric_projection,
)
from .tradeoff import (
    SystemConfig,
    bottleneck_user,
    gdof_region_inner,
    gndt_joint_two_set,
    gndt_lower_bound,
    gndt_memory_sharing,
    gndt_ub,
    topological_hole_region,
)
from .finite_snr import (
    constant_gap_certificate,
    delay_rate_gap_certificate,
    delay_rate_inner_region,
    inner_rate_region,
    outer_rate_region,
)

__version__ = "0.1.0"
