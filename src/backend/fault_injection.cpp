#include "backend/fault_injection.hpp"

#include <charconv>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace h2sketch::backend {

namespace {

/// splitmix64: a fast, well-mixed hash making probability-mode decisions a
/// pure function of (seed, point index) — reruns fail at the same points.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_double(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t parse_u64(std::string_view s, std::string_view spec) {
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  H2S_CHECK(ec == std::errc() && p == s.data() + s.size(),
            "fault schedule '" << std::string(spec) << "': bad integer field '" << std::string(s)
                               << "'");
  return v;
}

std::optional<FaultSite> parse_site(std::string_view s, std::string_view spec) {
  if (s == "any") return std::nullopt;
  if (s == "alloc") return FaultSite::Alloc;
  if (s == "copy") return FaultSite::Copy;
  if (s == "launch") return FaultSite::Launch;
  H2S_CHECK(false, "fault schedule '" << std::string(spec) << "': unknown site '" << std::string(s)
                                      << "' (alloc, copy, launch, any)");
  return std::nullopt;
}

std::vector<std::string_view> split_colons(std::string_view s) {
  std::vector<std::string_view> out;
  while (true) {
    const auto pos = s.find(':');
    out.push_back(s.substr(0, pos));
    if (pos == std::string_view::npos) break;
    s.remove_prefix(pos + 1);
  }
  return out;
}

} // namespace

std::string_view fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::Alloc: return "alloc";
    case FaultSite::Copy: return "copy";
    case FaultSite::Launch: return "launch";
  }
  return "unknown";
}

FaultSchedule FaultSchedule::one_shot_at(std::uint64_t k, std::optional<FaultSite> s) {
  FaultSchedule f;
  f.kind = Kind::OneShot;
  f.index = k;
  f.site = s;
  return f;
}

FaultSchedule FaultSchedule::every_nth(std::uint64_t n, std::optional<FaultSite> s) {
  H2S_CHECK(n > 0, "fault schedule: every-nth period must be positive");
  FaultSchedule f;
  f.kind = Kind::EveryNth;
  f.period = n;
  f.site = s;
  return f;
}

FaultSchedule FaultSchedule::with_probability(double p, std::uint64_t seed,
                                              std::optional<FaultSite> s) {
  H2S_CHECK(p >= 0.0 && p <= 1.0, "fault schedule: probability must be in [0, 1]");
  FaultSchedule f;
  f.kind = Kind::Probability;
  f.probability = p;
  f.seed = seed;
  f.site = s;
  return f;
}

FaultSchedule FaultSchedule::parse(std::string_view spec) {
  const auto fields = split_colons(spec);
  const std::string_view head = fields[0];
  if (head.empty() || head == "off") {
    H2S_CHECK(fields.size() == 1, "fault schedule '" << std::string(spec)
                                                     << "': 'off' takes no fields");
    return off();
  }
  if (head == "oneshot") {
    H2S_CHECK(fields.size() >= 2 && fields.size() <= 3,
              "fault schedule '" << std::string(spec) << "': want oneshot:K[:SITE]");
    return one_shot_at(parse_u64(fields[1], spec),
                       fields.size() == 3 ? parse_site(fields[2], spec) : std::nullopt);
  }
  if (head == "every") {
    H2S_CHECK(fields.size() >= 2 && fields.size() <= 3,
              "fault schedule '" << std::string(spec) << "': want every:N[:SITE]");
    return every_nth(parse_u64(fields[1], spec),
                     fields.size() == 3 ? parse_site(fields[2], spec) : std::nullopt);
  }
  if (head == "prob") {
    H2S_CHECK(fields.size() >= 2 && fields.size() <= 4,
              "fault schedule '" << std::string(spec) << "': want prob:P[:SEED[:SITE]]");
    char* end = nullptr;
    const std::string pstr(fields[1]);
    const double p = std::strtod(pstr.c_str(), &end);
    H2S_CHECK(end == pstr.c_str() + pstr.size() && p >= 0.0 && p <= 1.0,
              "fault schedule '" << std::string(spec) << "': bad probability '" << pstr << "'");
    return with_probability(p, fields.size() >= 3 ? parse_u64(fields[2], spec) : 0,
                            fields.size() == 4 ? parse_site(fields[3], spec) : std::nullopt);
  }
  H2S_CHECK(false, "fault schedule '" << std::string(spec)
                                      << "': unknown kind (off, oneshot, every, prob)");
  return off();
}

FaultInjectingDevice::FaultInjectingDevice(std::string name, std::shared_ptr<DeviceBackend> inner,
                                           FaultSchedule schedule)
    : name_(std::move(name)), inner_(std::move(inner)), schedule_(schedule) {}

void FaultInjectingDevice::set_schedule(FaultSchedule schedule) {
  std::lock_guard<std::mutex> lk(mu_);
  schedule_ = schedule;
  stats_ = FaultStats{};
  one_shot_fired_ = false;
}

FaultSchedule FaultInjectingDevice::schedule() const {
  std::lock_guard<std::mutex> lk(mu_);
  return schedule_;
}

void FaultInjectingDevice::reset_fault_state() {
  std::lock_guard<std::mutex> lk(mu_);
  stats_ = FaultStats{};
  one_shot_fired_ = false;
}

FaultStats FaultInjectingDevice::fault_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void FaultInjectingDevice::visit_point(FaultSite site, std::string_view what,
                                       std::size_t bytes) const {
  std::uint64_t idx = 0;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    switch (site) {
      case FaultSite::Alloc: ++stats_.alloc_points; break;
      case FaultSite::Copy: ++stats_.copy_points; break;
      case FaultSite::Launch: ++stats_.launch_points; break;
    }
    if (schedule_.kind == FaultSchedule::Kind::Off) return;
    if (schedule_.site && *schedule_.site != site) return;
    idx = stats_.considered++;
    switch (schedule_.kind) {
      case FaultSchedule::Kind::Off: break;
      case FaultSchedule::Kind::OneShot:
        fire = !one_shot_fired_ && idx == schedule_.index;
        if (fire) one_shot_fired_ = true;
        break;
      case FaultSchedule::Kind::EveryNth:
        fire = (idx + 1) % schedule_.period == 0;
        break;
      case FaultSchedule::Kind::Probability:
        fire = unit_double(splitmix64(schedule_.seed ^ (idx + 1))) < schedule_.probability;
        break;
    }
    if (fire) ++stats_.injected;
  }
  if (!fire) return;

  std::ostringstream os;
  os << "injected fault [" << name_ << "] at " << fault_site_name(site) << " point #" << idx
     << " (" << what << ", " << bytes << " bytes)";
  if (site == FaultSite::Alloc) throw DeviceOomError(os.str(), bytes);
  throw LaunchError(os.str());
}

void* FaultInjectingDevice::do_allocate(std::size_t bytes) {
  visit_point(FaultSite::Alloc, "allocate", bytes);
  return forward_allocate(*inner_, bytes);
}

void FaultInjectingDevice::do_deallocate(void* ptr, std::size_t bytes) {
  forward_deallocate(*inner_, ptr, bytes);
}

void FaultInjectingDevice::on_transfer(std::size_t bytes) const {
  visit_point(FaultSite::Copy, "transfer", bytes);
}

void FaultInjectingDevice::on_launch(std::string_view op) const {
  visit_point(FaultSite::Launch, op, 0);
}

std::shared_ptr<FaultInjectingDevice> make_fault_injecting_device(
    std::shared_ptr<DeviceBackend> inner, std::string name,
    std::optional<FaultSchedule> schedule) {
  H2S_CHECK(inner != nullptr, "fault injector: inner backend required");
  if (name.empty()) name = "faulty-" + std::string(inner->name());
  FaultSchedule sched = FaultSchedule::off();
  if (schedule) {
    sched = *schedule;
  } else if (const char* env = std::getenv("H2SKETCH_FAULT_SCHEDULE")) {
    sched = FaultSchedule::parse(env);
  }
  return std::shared_ptr<FaultInjectingDevice>(
      new FaultInjectingDevice(std::move(name), std::move(inner), sched));
}

} // namespace h2sketch::backend
