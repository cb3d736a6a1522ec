#pragma once

#include "batched/device.hpp"
#include "h2/h2_matrix.hpp"
#include "kernels/entry_gen.hpp"

/// \file h2_assembly.hpp
/// The arena-filling steps shared by the builders that evaluate blocks
/// through an entry generator: the sketching construction
/// (core/construction.hpp) and the proxy surrogate
/// (kernels/proxy_sampler.hpp). Slot shapes come from the matrix tree's CSR
/// lists; each arena is allocated once and written in place by one
/// asynchronous batched_generate on the entry-gen stream, so the index sets
/// the requests reference (the tree's positions, the matrix's skeletons)
/// must stay unchanged until that stream is synced.

namespace h2sketch::h2 {

/// The near field: D = K(positions(leaf, r), positions(leaf, c)) for every
/// entry (r, c) of mtree.near_leaf, in one launch.
void generate_near_field(batched::ExecutionContext& ctx, H2Matrix& a,
                         const kern::EntryGenerator& gen);

/// The coupling blocks of levels [first, last): B_{r,c} = K(skel(r), skel(c))
/// for each mirrored far pair with r < c (the (c, r) slot stays 0 x 0), one
/// allocation per level with far pairs and one launch for the whole range.
/// A range without far pairs launches nothing (batched_generate fires the
/// device's launch hook even for an empty batch).
void generate_coupling(batched::ExecutionContext& ctx, H2Matrix& a,
                       const kern::EntryGenerator& gen, index_t first, index_t last);

/// Record the row-ID selection of node i at `level`: its rank and skeleton
/// positions. `local` indexes the node's positions at the leaf level and
/// its stacked child skeletons [skel(level + 1, 2i); skel(level + 1, 2i + 1)]
/// above.
void set_skeleton(H2Matrix& a, index_t level, index_t i, const_index_span local);

} // namespace h2sketch::h2
