#include "kernels/entry_gen.hpp"

#include <memory>
#include <utility>

#include "obs/trace.hpp"

namespace h2sketch::kern {

void batched_generate(batched::ExecutionContext& ctx, batched::StreamId stream,
                      const EntryGenerator& gen, std::vector<BlockRequest> requests) {
  obs::ScopedLaunchLabel label("batched_generate");
  obs::TraceSpan span("backend", "batched_generate", "batch", requests.size());
  ctx.device().on_launch("batched_generate");
  auto st = std::make_shared<std::vector<BlockRequest>>(std::move(requests));
  const auto batch = static_cast<index_t>(st->size());
  // Cost = entries evaluated; kernel evaluations dominate this launch.
  ctx.run_batch(
      stream, batch,
      [&reqs = *st](index_t i) {
        const auto& r = reqs[static_cast<size_t>(i)];
        return r.out.rows * r.out.cols;
      },
      [st, &gen](index_t i) {
        const auto& r = (*st)[static_cast<size_t>(i)];
        if (r.out.empty()) return;
        gen.generate_block(r.rows, r.cols, r.out);
      });
}

void batched_generate(batched::ExecutionContext& ctx, const EntryGenerator& gen,
                      std::span<const BlockRequest> requests) {
  batched_generate(ctx, batched::kSampleStream, gen, {requests.begin(), requests.end()});
  ctx.sync(batched::kSampleStream);
}

KernelEntryGenerator::KernelEntryGenerator(const tree::ClusterTree& tree,
                                           const KernelFunction& kernel,
                                           std::span<const real_t> appended)
    : kernel_(&kernel), dim_(tree.dim()) {
  H2S_CHECK(appended.size() % static_cast<size_t>(dim_) == 0,
            "KernelEntryGenerator: appended coordinates are not whole points");
  const index_t n = tree.num_points();
  coords_.resize(static_cast<size_t>(n * dim_));
  for (index_t p = 0; p < n; ++p)
    for (index_t d = 0; d < dim_; ++d)
      coords_[static_cast<size_t>(p * dim_ + d)] = tree.coord_permuted(p, d);
  coords_.insert(coords_.end(), appended.begin(), appended.end());
}

void KernelEntryGenerator::generate_block(const_index_span rows, const_index_span cols,
                                          MatrixView out) const {
  H2S_CHECK(out.rows == static_cast<index_t>(rows.size()) &&
                out.cols == static_cast<index_t>(cols.size()),
            "generate_block: shape mismatch");
  for (index_t j = 0; j < out.cols; ++j) {
    const real_t* yc = &coords_[static_cast<size_t>(cols[static_cast<size_t>(j)] * dim_)];
    for (index_t i = 0; i < out.rows; ++i) {
      const real_t* xc = &coords_[static_cast<size_t>(rows[static_cast<size_t>(i)] * dim_)];
      out(i, j) = kernel_->evaluate(xc, yc, dim_);
    }
  }
  record_entries(out.rows * out.cols);
}

void DenseEntryGenerator::generate_block(const_index_span rows, const_index_span cols,
                                         MatrixView out) const {
  H2S_CHECK(out.rows == static_cast<index_t>(rows.size()) &&
                out.cols == static_cast<index_t>(cols.size()),
            "generate_block: shape mismatch");
  gather_block(a_, rows, cols, out);
  record_entries(out.rows * out.cols);
}

} // namespace h2sketch::kern
