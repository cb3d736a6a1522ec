#pragma once

#include <iosfwd>

#include "h2/h2_matrix.hpp"

/// \file h2_io.hpp
/// Binary (de)serialization of H2 matrices, including the cluster geometry
/// and block partitioning, so a compressed operator can be built once and
/// reloaded for repeated matvec/solve workloads. The format is a simple
/// versioned little-endian stream (version 2: each mirrored coupling pair
/// stored once); it is not exchange-stable across architectures with
/// different endianness.

namespace h2sketch::h2 {

/// Write the full matrix (points, clustering, partitioning, all blocks).
void save_h2(std::ostream& os, const H2Matrix& a);

/// Read a matrix previously written by save_h2; validates on load.
H2Matrix load_h2(std::istream& is);

/// File-path conveniences.
void save_h2_file(const std::string& path, const H2Matrix& a);
H2Matrix load_h2_file(const std::string& path);

} // namespace h2sketch::h2
