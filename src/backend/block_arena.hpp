#pragma once

#include <mutex>
#include <vector>

#include "backend/device_backend.hpp"

/// \file block_arena.hpp
/// Packed per-level arena of device-resident matrix blocks — the storage
/// unit behind the device-resident `H2Matrix` (H2 and HSS alike) and the
/// ULV factor.
///
/// One arena holds every block of one kind at one level (all leaf bases,
/// all transfers, all coupling blocks, ...) in a single `DeviceBuffer`,
/// with 64-byte aligned slots carved out per block. A 0 x 0 slot takes no
/// bytes, which is how an H2Matrix stores each mirrored coupling pair once
/// while keeping one slot per CSR entry. Builders either
///
///  * **write through**: `reset` + `set_shape` each slot, `allocate` once,
///    then target `dev(i)` views from kernel launches / explicit uploads —
///    the steady-state path, where operands are born on the device and
///    never cross the boundary again; or
///  * **stage**: `stage(i, Matrix)` host blocks as they are produced and
///    `commit` once at the end — the compatibility path for single-pass
///    host-side writers (Chebyshev construction, io load), costing one
///    upload per block and leaving the host mirror warm.
///
/// Consumers that genuinely need host-side elements (densify, io save,
/// entry evaluation) read the lazy mirror via `host(i)`: the block is
/// downloaded on first access and cached, so diagnostic paths stay cheap
/// without ever putting host copies on the apply path. The mirror is
/// guarded by a mutex; `dev(i)` views and slot dims are lock-free and safe
/// for concurrent readers once the arena is built.
///
/// On `CpuBackend` the "device" buffer is host memory and the packing is
/// still a win: one allocation per level and contiguous operands in the
/// batched gemm sweeps. On a poisoning backend `dev(i)` data may only be
/// touched inside kernel scopes or through the backend's explicit copies.

namespace h2sketch::backend {

class BlockArena {
 public:
  BlockArena() = default;
  BlockArena(const BlockArena&) = delete;
  BlockArena& operator=(const BlockArena&) = delete;
  BlockArena(BlockArena&& o) noexcept { move_from(std::move(o)); }
  BlockArena& operator=(BlockArena&& o) noexcept {
    if (this != &o) move_from(std::move(o));
    return *this;
  }

  /// Drop all storage and start over with `count` empty (0 x 0) slots.
  void reset(index_t count);

  index_t count() const { return static_cast<index_t>(slots_.size()); }
  bool allocated() const { return !buf_.empty(); }
  index_t rows(index_t i) const { return slots_[static_cast<size_t>(i)].rows; }
  index_t cols(index_t i) const { return slots_[static_cast<size_t>(i)].cols; }

  /// Declare slot `i`'s dims ahead of `allocate`. Only valid before the
  /// arena is allocated.
  void set_shape(index_t i, index_t r, index_t c);

  /// Lay out all declared slots (64-byte aligned) and grab one DeviceBuffer
  /// for the level. Contents are uninitialized: the builder's launches or
  /// uploads are expected to cover every slot. Invalidates the host mirror.
  void allocate(DeviceBackend& dev);

  /// Device-address view of slot `i` (contiguous, ld == rows). Empty slots
  /// yield empty views.
  MatrixView dev(index_t i) {
    const Slot& s = slots_[static_cast<size_t>(i)];
    return MatrixView(slot_ptr(s), s.rows, s.cols, std::max<index_t>(s.rows, 1));
  }
  ConstMatrixView dev(index_t i) const {
    const Slot& s = slots_[static_cast<size_t>(i)];
    return ConstMatrixView(slot_ptr(s), s.rows, s.cols, std::max<index_t>(s.rows, 1));
  }

  /// Explicit host -> device copy into slot `i` (dims must match the
  /// declared shape). Invalidates that slot's mirror entry.
  void upload(index_t i, ConstMatrixView host);

  /// Host-staging path: park a host block in slot `i`. `commit` derives
  /// every slot's shape from its staged block (unstaged slots stay empty),
  /// allocates the arena, uploads all staged blocks and keeps the mirror
  /// warm — one upload per block, zero downloads later.
  void stage(index_t i, Matrix m);
  void commit(DeviceBackend& dev);

  /// Lazy host mirror of slot `i`: downloaded on first access, cached until
  /// the device copy is rewritten (allocate/upload). Thread-safe.
  const Matrix& host(index_t i) const;

  /// Device memset-to-zero over the contiguous slot range [first, first+n)
  /// including alignment padding — one fill instead of n.
  void fill_zero(index_t first, index_t n);

  /// Real bytes held in the device buffer (alignment padding included) —
  /// what eviction frees.
  std::size_t device_bytes() const { return buf_.bytes(); }
  /// Sum of rows*cols*sizeof(real_t) over all slots (the logical payload).
  std::size_t payload_bytes() const;

  DeviceBackend* backend() const { return buf_.backend(); }
  const std::shared_ptr<DeviceBackend>& backend_ptr() const { return buf_.backend_ptr(); }

 private:
  struct Slot {
    index_t rows = 0;
    index_t cols = 0;
    std::size_t offset = 0; ///< byte offset into buf_
  };

  real_t* slot_ptr(const Slot& s) const {
    if (s.rows == 0 || s.cols == 0 || buf_.empty()) return nullptr;
    return reinterpret_cast<real_t*>(static_cast<char*>(buf_.data()) + s.offset);
  }
  void move_from(BlockArena&& o);

  DeviceBuffer buf_;
  std::vector<Slot> slots_;
  mutable std::mutex mirror_mu_;
  mutable std::vector<Matrix> mirror_;
  mutable std::vector<char> mirror_valid_;
};

} // namespace h2sketch::backend
