#include "h2/h2_io.hpp"

#include <fstream>
#include <istream>
#include <ostream>

#include "backend/registry.hpp"

namespace h2sketch::h2 {

namespace {

constexpr std::uint64_t kMagic = 0x4832534b45544348ull; // "H2SKETCH"
/// Version 2 stores each mirrored coupling pair once: the (t, s) slot of a
/// pair with s < t is written as a 0 x 0 block. Version-1 streams, which
/// carry both blocks, are rejected.
constexpr std::uint32_t kVersion = 2;

template <typename T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  H2S_CHECK(static_cast<bool>(is), "h2_io: truncated stream");
  return v;
}

void put_indices(std::ostream& os, const std::vector<index_t>& v) {
  put<std::uint64_t>(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(index_t)));
}

std::vector<index_t> get_indices(std::istream& is) {
  const auto n = get<std::uint64_t>(is);
  std::vector<index_t> v(n);
  is.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(index_t)));
  H2S_CHECK(static_cast<bool>(is), "h2_io: truncated index block");
  return v;
}

void put_matrix(std::ostream& os, const Matrix& m) {
  put<index_t>(os, m.rows());
  put<index_t>(os, m.cols());
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(real_t)));
}

Matrix get_matrix(std::istream& is) {
  const auto rows = get<index_t>(is);
  const auto cols = get<index_t>(is);
  Matrix m(rows, cols);
  is.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(real_t)));
  H2S_CHECK(static_cast<bool>(is), "h2_io: truncated matrix block");
  return m;
}

void put_block_list(std::ostream& os, const tree::LevelBlockList& l) {
  put_indices(os, l.row_ptr);
  put_indices(os, l.col);
}

tree::LevelBlockList get_block_list(std::istream& is) {
  tree::LevelBlockList l;
  l.row_ptr = get_indices(is);
  l.col = get_indices(is);
  return l;
}

} // namespace

void save_h2(std::ostream& os, const H2Matrix& a) {
  H2S_CHECK(a.tree != nullptr, "save_h2: empty matrix");
  put(os, kMagic);
  put(os, kVersion);

  // Geometry.
  const geo::PointCloud& pc = a.tree->points();
  put<index_t>(os, pc.size());
  put<index_t>(os, pc.dim());
  os.write(reinterpret_cast<const char*>(pc.raw().data()),
           static_cast<std::streamsize>(pc.raw().size() * sizeof(real_t)));

  // Clustering.
  const geo::KdClustering& cl = a.tree->clustering();
  put<index_t>(os, cl.num_levels);
  put_indices(os, cl.perm);
  put<std::uint64_t>(os, cl.nodes.size());
  for (const auto& node : cl.nodes) {
    put<index_t>(os, node.begin);
    put<index_t>(os, node.end);
    put(os, node.box);
  }

  // Partitioning.
  put<index_t>(os, a.mtree.num_levels);
  for (const auto& f : a.mtree.far) put_block_list(os, f);
  for (const auto& nl : a.mtree.near) put_block_list(os, nl);

  // Blocks.
  for (const auto& lvl : a.ranks) put_indices(os, lvl);
  // Device-resident blocks stream out through the arenas' host mirrors.
  for (const auto& lvl : a.basis)
    for (index_t i = 0; i < lvl.count(); ++i) put_matrix(os, lvl.host(i));
  for (const auto& lvl : a.coupling)
    for (index_t e = 0; e < lvl.count(); ++e) put_matrix(os, lvl.host(e));
  for (index_t e = 0; e < a.dense.count(); ++e) put_matrix(os, a.dense.host(e));
  for (const auto& lvl : a.skeleton)
    for (const auto& s : lvl) put_indices(os, s);
}

H2Matrix load_h2(std::istream& is) {
  H2S_CHECK(get<std::uint64_t>(is) == kMagic, "load_h2: bad magic");
  H2S_CHECK(get<std::uint32_t>(is) == kVersion, "load_h2: unsupported version");

  const auto npts = get<index_t>(is);
  const auto dim = get<index_t>(is);
  geo::PointCloud pc(npts, dim);
  {
    std::vector<real_t> raw(static_cast<size_t>(npts * dim));
    is.read(reinterpret_cast<char*>(raw.data()),
            static_cast<std::streamsize>(raw.size() * sizeof(real_t)));
    for (index_t i = 0; i < npts; ++i)
      for (index_t d = 0; d < dim; ++d) pc.coord(i, d) = raw[static_cast<size_t>(i * dim + d)];
  }

  geo::KdClustering cl;
  cl.num_levels = get<index_t>(is);
  cl.perm = get_indices(is);
  cl.nodes.resize(get<std::uint64_t>(is));
  for (auto& node : cl.nodes) {
    node.begin = get<index_t>(is);
    node.end = get<index_t>(is);
    node.box = get<geo::BoundingBox>(is);
  }

  H2Matrix a;
  a.tree = std::make_shared<tree::ClusterTree>(
      tree::ClusterTree::from_parts(std::move(pc), std::move(cl)));

  a.mtree.num_levels = get<index_t>(is);
  a.mtree.far.resize(static_cast<size_t>(a.mtree.num_levels));
  a.mtree.near.resize(static_cast<size_t>(a.mtree.num_levels));
  for (auto& f : a.mtree.far) f = get_block_list(is);
  for (auto& nl : a.mtree.near) nl = get_block_list(is);
  a.mtree.near_leaf = a.mtree.near.back();

  a.init_structure();
  for (auto& lvl : a.ranks) lvl = get_indices(is);
  // Stage each block host-side as it streams in, then commit per arena: one
  // device allocation + upload per level, and the mirrors stay warm.
  backend::DeviceBackend& dev = *backend::default_backend().device;
  for (auto& lvl : a.basis) {
    for (index_t i = 0; i < lvl.count(); ++i) lvl.stage(i, get_matrix(is));
    lvl.commit(dev);
  }
  for (auto& lvl : a.coupling) {
    for (index_t e = 0; e < lvl.count(); ++e) lvl.stage(e, get_matrix(is));
    lvl.commit(dev);
  }
  for (index_t e = 0; e < a.dense.count(); ++e) a.dense.stage(e, get_matrix(is));
  a.dense.commit(dev);
  for (auto& lvl : a.skeleton)
    for (auto& s : lvl) s = get_indices(is);

  a.validate();
  return a;
}

void save_h2_file(const std::string& path, const H2Matrix& a) {
  std::ofstream os(path, std::ios::binary);
  H2S_CHECK(os.is_open(), "save_h2_file: cannot open " << path);
  save_h2(os, a);
}

H2Matrix load_h2_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  H2S_CHECK(is.is_open(), "load_h2_file: cannot open " << path);
  return load_h2(is);
}

} // namespace h2sketch::h2
