// perfbench driver: the repository benchmark's closed-loop memcached load
// generator (the paper's memslap method, §VI), run over the public
// mc::Client API on core::TestBed / core::FleetBed.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans <file.csv>]
//
// The driver owns its inputs: key picks (uniform or Zipf, by inverse-CDF
// table), op mix and values are generated here from --seed and the key
// index, never by src/core/workload.cpp, so a change to the library's
// workload engine cannot change what the benchmark feeds the system.
//
// One run repeats a fixed-size repetition until --seconds of host time
// have passed (at least kMinReps times). Each repetition builds a fresh
// bed, connects, populates the key space, then runs the timed phase: every
// simulated client is a coroutine on the discrete-event scheduler issuing
// its next op only when the previous one completed (closed loop). The
// simulation is deterministic per seed, so every repetition must produce
// bit-identical sim-time results; run.py checks that, and derives the
// reported metrics from the per-repetition JSON lines this program prints:
//
//   {"rep":i,"traced":b,"host":{...},"sim":{...},"registry":{...},
//    "profiler":{...}|null}
//   {"summary":{"workload":...,"loop":"closed","clients":n,...}}
//
// With --trace 1 repetitions alternate untraced and traced (profiler on),
// so the trace overhead is measured on identical simulated work.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fleetbed.hpp"
#include "core/testbed.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "simnet/event.hpp"

namespace {

using namespace rmc;
using Mode = mc::ClientBehavior::Mode;
constexpr std::array<const char*, 3> kModeNames = {"rpc", "onesided_get", "rfp"};

constexpr int kMinReps = 3;

// ===================================================================
// Seeded input generation
// ===================================================================

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// splitmix64 stream: one per simulated client.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    return mix64(state_);
  }
  /// Uniform in [0, n) (Lemire's multiply-shift; bias < n / 2^64).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>((static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Key index picker over [0, n): uniform, or Zipf with exponent s (rank 0
/// hottest) by binary search in a precomputed CDF — exact, and the same
/// picks on every platform with IEEE doubles.
class KeyPicker {
 public:
  KeyPicker(std::uint64_t n, double zipf_s) : n_(n) {
    if (zipf_s <= 0.0) return;
    cdf_.resize(n);
    double sum = 0.0;
    for (std::uint64_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), zipf_s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  std::uint64_t pick(Rng& rng) const {
    if (cdf_.empty()) return rng.below(n_);
    const double u = rng.unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::uint64_t>(static_cast<std::uint64_t>(it - cdf_.begin()), n_ - 1);
  }

 private:
  std::uint64_t n_;
  std::vector<double> cdf_;
};

/// Values derived from the key index alone: an 8-byte little-endian header
/// holding the index, then a slice of a fixed pseudo-random tape at a
/// per-key offset. Length is per key, uniform in [min_len, max_len]. A hit
/// is correct only if length, header and every tape byte match, so a torn,
/// truncated or wrong-key value is caught.
class ValueCodec {
 public:
  static constexpr std::size_t kHeader = 8;
  static constexpr std::size_t kTapeSpan = 4096;

  ValueCodec(std::uint32_t min_len, std::uint32_t max_len)
      : min_len_(std::max<std::uint32_t>(min_len, kHeader)),
        max_len_(std::max(max_len, min_len_)),
        tape_(kTapeSpan + max_len_) {
    for (std::size_t i = 0; i < tape_.size(); ++i) {
      tape_[i] = static_cast<std::byte>(mix64(0x7a9e5eedull + i) & 0xff);
    }
  }

  std::uint32_t max_len() const { return max_len_; }
  std::uint32_t length(std::uint64_t idx) const {
    return min_len_ +
           static_cast<std::uint32_t>(mix64(idx ^ 0x5a17e5u) % (max_len_ - min_len_ + 1));
  }

  /// Write key `idx`'s value into `out` (capacity >= max_len()).
  std::span<const std::byte> encode(std::uint64_t idx, std::span<std::byte> out) const {
    const std::uint32_t len = length(idx);
    write_header(idx, out.data());
    std::memcpy(out.data() + kHeader, tape_.data() + offset(idx), len - kHeader);
    return out.first(len);
  }

  bool verify(std::uint64_t idx, std::span<const std::byte> got) const {
    if (got.size() != length(idx)) return false;
    std::byte header[kHeader];
    write_header(idx, header);
    return std::memcmp(got.data(), header, kHeader) == 0 &&
           std::memcmp(got.data() + kHeader, tape_.data() + offset(idx),
                       got.size() - kHeader) == 0;
  }

 private:
  static void write_header(std::uint64_t idx, std::byte* out) {
    for (std::size_t b = 0; b < kHeader; ++b) {
      out[b] = static_cast<std::byte>((idx >> (8 * b)) & 0xff);
    }
  }
  static std::size_t offset(std::uint64_t idx) { return mix64(idx ^ 0x0ff5e7u) % kTapeSpan; }

  std::uint32_t min_len_;
  std::uint32_t max_len_;
  std::vector<std::byte> tape_;
};

std::string hex_key(char prefix, std::uint64_t index) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string key(9, prefix);
  for (int i = 0; i < 8; ++i) key[8 - static_cast<std::size_t>(i)] = kHex[(index >> (4 * i)) & 0xf];
  return key;
}
std::string data_key(std::uint64_t index) { return hex_key('k', index); }
/// Client-private INCR counter (one per simulated client).
std::string counter_key(std::size_t client) { return hex_key('c', client); }

// ===================================================================
// Workloads
// ===================================================================

struct Mix {
  std::uint32_t get = 0, set = 0, mget = 0, del = 0, incr = 0;
  std::uint32_t total() const { return get + set + mget + del + incr; }
};

struct WorkloadSpec {
  std::string_view name;
  bool fleet = false;  ///< FleetBed (sharded pool) instead of TestBed
  core::TransportKind transport = core::TransportKind::ucr_verbs;
  Mode mode = Mode::rpc;
  unsigned clients = 1;     ///< simulated clients
  unsigned shards = 1;      ///< fleet only
  unsigned generators = 1;  ///< fleet only
  std::uint64_t keys = 1;
  double zipf_s = 0.0;  ///< 0 = uniform key picks
  std::uint32_t min_value = 64, max_value = 64;
  Mix mix{};
  std::uint32_t mget_width = 8;
  std::size_t slab_bytes = 0;  ///< per-server memory limit; 0 = server default
  /// DEL or eviction can remove keys; otherwise every lookup must hit.
  bool misses_expected = false;
  std::uint64_t ops_per_client = 0;  ///< timed ops per client per repetition
};

const std::array<WorkloadSpec, 4> kWorkloads = {{
    {.name = "fleet_rpc_zipf",
     .fleet = true,
     .mode = Mode::rpc,
     .clients = 128,
     .shards = 8,
     .generators = 8,
     .keys = 8192,
     .zipf_s = 0.99,
     .min_value = 128,
     .max_value = 128,
     .mix = {.get = 84, .set = 10, .mget = 4, .del = 1, .incr = 1},
     .mget_width = 8,
     .misses_expected = true,
     .ops_per_client = 1000},
    {.name = "sockets_ipoib_mixed",
     .transport = core::TransportKind::ipoib,
     .clients = 8,
     .keys = 4096,
     .min_value = 64,
     .max_value = 4096,
     .mix = {.get = 50, .set = 50},
     .ops_per_client = 10000},
    {.name = "bypass_rfp_mixed",
     .mode = Mode::rfp,
     .clients = 4,
     .keys = 4096,
     .zipf_s = 0.99,
     .min_value = 32,
     .max_value = 3072,
     .mix = {.get = 70, .set = 20, .incr = 10},
     .ops_per_client = 12000},
    {.name = "onesided_evict",
     .mode = Mode::onesided_get,
     .clients = 4,
     .keys = 32768,
     .min_value = 1024,
     .max_value = 1024,
     .mix = {.get = 70, .set = 30},
     .slab_bytes = 8u << 20,
     .misses_expected = true,
     .ops_per_client = 15000},
}};

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// ===================================================================
// Bed: TestBed or FleetBed behind one face
// ===================================================================

class Bed {
 public:
  explicit Bed(const WorkloadSpec& spec) {
    mc::ServerConfig server;
    if (spec.slab_bytes != 0) server.store.slabs.memory_limit = spec.slab_bytes;
    mc::ClientBehavior client;
    client.mode = spec.mode;
    if (spec.fleet) {
      core::FleetBedConfig cfg;
      cfg.shards = spec.shards;
      cfg.clients = spec.clients;
      cfg.generators = spec.generators;
      cfg.cluster = core::ClusterKind::cluster_b;
      cfg.server = server;
      cfg.client = client;
      fleet_ = std::make_unique<core::FleetBed>(cfg);
    } else {
      core::TestBedConfig cfg;
      cfg.cluster = core::ClusterKind::cluster_b;
      cfg.transport = spec.transport;
      cfg.num_clients = spec.clients;
      cfg.server = server;
      cfg.client = client;
      test_ = std::make_unique<core::TestBed>(cfg);
    }
  }

  sim::Scheduler& scheduler() { return fleet_ ? fleet_->scheduler() : test_->scheduler(); }
  std::size_t client_count() const {
    return fleet_ ? fleet_->client_count() : test_->client_count();
  }
  mc::Client& client(std::size_t i) { return fleet_ ? fleet_->client(i) : test_->client(i); }
  sim::Task<Status> connect_all() {
    return fleet_ ? fleet_->connect_all() : test_->connect_all();
  }

 private:
  std::unique_ptr<core::TestBed> test_;
  std::unique_ptr<core::FleetBed> fleet_;
};

// ===================================================================
// One repetition
// ===================================================================

enum class OpKind : std::uint8_t { get, set, mget, del, incr };
constexpr std::array<const char*, 5> kKindNames = {"get", "set", "mget", "del", "incr"};

enum class Outcome : std::uint8_t { ok, miss, failed, wrong };
constexpr std::array<const char*, 4> kOutcomeNames = {"ok", "miss", "failed", "wrong"};

/// Harness span around one mc::Client op, in sim time.
struct OpSpan {
  std::uint64_t op_id = 0;  ///< client << 32 | per-client sequence
  sim::Time start = 0;
  sim::Time end = 0;
  OpKind kind = OpKind::get;
  Outcome outcome = Outcome::ok;
};

struct ClientRun {
  std::vector<OpSpan> spans;
  std::uint64_t hits = 0, lookups = 0;
  std::uint64_t wrong = 0;  ///< wrong values: bytes, counter, or a miss that cannot happen
  std::uint64_t server_requests = 0;  ///< requests an all-RPC path would send
  sim::Time finished_at = 0;
};

struct Inputs {
  const WorkloadSpec& spec;
  const KeyPicker& picker;
  const ValueCodec& codec;
  std::uint64_t seed;
};

std::uint64_t counter_start(std::uint64_t seed, std::size_t client) {
  return mix64(seed * 0x100000001b3ull + client) % 1'000'000;
}

sim::Task<> connect_task(Bed& bed, Status& out) {
  // bed and out live in run_rep's frame, which blocks in sched.run()
  // until this task finishes.
  out = co_await bed.connect_all();
}

/// Untimed populate: this client's stripe of the key space, plus its
/// INCR counter at a seed-derived start value.
sim::Task<> populate_task(Bed& bed, const Inputs& in, std::size_t c, std::uint64_t& errors) {
  // Every referenced object lives in run_rep's frame (or main's), which
  // blocks in sched.run() until all populate tasks finish.
  mc::Client& client = bed.client(c);
  const std::size_t n = bed.client_count();
  std::vector<std::byte> buf(in.codec.max_len());
  for (std::uint64_t idx = c; idx < in.spec.keys; idx += n) {
    auto st = co_await client.set(data_key(idx), in.codec.encode(idx, buf));
    if (!st.ok()) ++errors;
  }
  if (in.spec.mix.incr != 0) {
    const std::string start = std::to_string(counter_start(in.seed, c));
    auto st = co_await client.set(counter_key(c),
                                  std::as_bytes(std::span(start.data(), start.size())));
    if (!st.ok()) ++errors;
  }
}

sim::Task<> starter_task(sim::Scheduler& sched, sim::Event& start, sim::Time& t0) {
  t0 = sched.now();
  start.set();
  co_return;
}

/// The timed closed loop of one simulated client.
sim::Task<> client_task(Bed& bed, const Inputs& in, std::size_t c, sim::Event& start,
                        ClientRun& out) {
  // Every referenced object lives in run_rep's frame (or main's), which
  // blocks in sched.run() until all client tasks finish.
  mc::Client& client = bed.client(c);
  sim::Scheduler& sched = bed.scheduler();
  const WorkloadSpec& spec = in.spec;
  Rng rng(mix64(in.seed * 0x2545f4914f6cdd1dull + c + 1));
  std::vector<std::byte> buf(in.codec.max_len());
  std::vector<std::string> mget_keys;
  std::vector<std::uint64_t> mget_idx;
  std::vector<bool> mget_servers;
  std::uint64_t counter = counter_start(in.seed, c);
  const std::string ctr_key = counter_key(c);
  out.spans.reserve(spec.ops_per_client);
  co_await start.wait();

  auto check_value = [&](std::uint64_t idx, std::span<const std::byte> got) {
    ++out.hits;
    if (!in.codec.verify(idx, got)) {
      ++out.wrong;
      return Outcome::wrong;
    }
    return Outcome::ok;
  };
  auto note_miss = [&] {
    if (spec.misses_expected) return Outcome::miss;
    ++out.wrong;
    return Outcome::wrong;
  };

  for (std::uint64_t i = 0; i < spec.ops_per_client; ++i) {
    std::uint32_t pick = static_cast<std::uint32_t>(rng.below(spec.mix.total()));
    OpKind kind = OpKind::incr;
    for (const auto& [weight, k] : {std::pair{spec.mix.get, OpKind::get},
                                    std::pair{spec.mix.set, OpKind::set},
                                    std::pair{spec.mix.mget, OpKind::mget},
                                    std::pair{spec.mix.del, OpKind::del}}) {
      if (pick < weight) {
        kind = k;
        break;
      }
      pick -= weight;
    }
    Outcome outcome = Outcome::ok;
    const sim::Time begin = sched.now();
    switch (kind) {
      case OpKind::get: {
        const std::uint64_t idx = in.picker.pick(rng);
        ++out.lookups;
        ++out.server_requests;
        auto got = co_await client.get(data_key(idx));
        if (got.ok()) {
          outcome = check_value(idx, got->data);
        } else if (got.error() == Errc::not_found) {
          outcome = note_miss();
        } else {
          outcome = Outcome::failed;
        }
        break;
      }
      case OpKind::set: {
        const std::uint64_t idx = in.picker.pick(rng);
        ++out.server_requests;
        auto st = co_await client.set(data_key(idx), in.codec.encode(idx, buf));
        if (!st.ok()) outcome = Outcome::failed;
        break;
      }
      case OpKind::mget: {
        mget_keys.clear();
        mget_idx.clear();
        mget_servers.assign(client.server_count(), false);
        for (std::uint32_t k = 0; k < spec.mget_width; ++k) {
          mget_idx.push_back(in.picker.pick(rng));
          mget_keys.push_back(data_key(mget_idx.back()));
          const std::size_t server = client.server_index(mget_keys.back());
          if (!mget_servers[server]) ++out.server_requests;
          mget_servers[server] = true;
        }
        out.lookups += mget_keys.size();
        auto got = co_await client.mget(mget_keys);
        if (!got.ok()) {
          outcome = Outcome::failed;
          break;
        }
        for (std::size_t k = 0; k < mget_keys.size(); ++k) {
          const auto& slot = (*got)[k];
          const Outcome o = slot ? check_value(mget_idx[k], slot->data) : note_miss();
          if (o == Outcome::wrong) outcome = o;
        }
        break;
      }
      case OpKind::del: {
        const std::uint64_t idx = in.picker.pick(rng);
        ++out.server_requests;
        auto st = co_await client.del(data_key(idx));
        if (!st.ok() && st.error() != Errc::not_found) outcome = Outcome::failed;
        break;
      }
      case OpKind::incr: {
        const std::uint64_t delta = 1 + rng.below(16);
        ++out.server_requests;
        auto got = co_await client.incr(ctr_key, delta);
        if (got.ok()) {
          counter += delta;
          if (*got != counter) {
            ++out.wrong;
            outcome = Outcome::wrong;
          }
        } else if (got.error() == Errc::not_found) {
          ++out.wrong;  // a client-private counter never disappears
          outcome = Outcome::wrong;
        } else {
          outcome = Outcome::failed;
        }
        break;
      }
    }
    out.spans.push_back(OpSpan{(static_cast<std::uint64_t>(c) << 32) | i, begin, sched.now(),
                               kind, outcome});
  }
  out.finished_at = sched.now();
}

// ------------------------------------------------------------ reporting

using Clock = std::chrono::steady_clock;

/// Peak resident set of the process so far.
std::uint64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Json {
 public:
  Json& key(std::string_view k) {
    sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& open() {
    sep();
    out_ += '{';
    fresh_ = true;
    return *this;
  }
  Json& close() {
    out_ += '}';
    fresh_ = false;
    return *this;
  }
  Json& num(std::uint64_t v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  /// All the digits: a double round-trips exactly.
  Json& num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& str(std::string_view v) {
    sep();
    out_ += '"';
    out_ += v;
    out_ += '"';
    return *this;
  }
  Json& raw(std::string_view v) {
    sep();
    out_ += v;
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_ && !out_.empty() && out_.back() != '{') out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

/// Mid-quantile (Parzen) of sorted samples, 0 when empty. Simulated
/// latencies are discrete: fixed-cost paths and poll grids put much of the
/// mass on a few exact values, where a plain order statistic cannot move
/// until a path changes. The mid-quantile interpolates between adjacent
/// distinct values at their mid-CDF points (F(v) - P(v)/2), so it also
/// follows shifts of mass between paths; on continuous data it is the
/// usual interpolated quantile.
double mid_quantile(const std::vector<sim::Time>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  double prev_value = 0.0, prev_mid = 0.0;
  bool have_prev = false;
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    const double value = static_cast<double>(sorted[i]);
    const double mid = (static_cast<double>(i) + static_cast<double>(j - i) / 2.0) / n;
    if (q <= mid) {
      if (!have_prev) return value;
      return prev_value + (q - prev_mid) / (mid - prev_mid) * (value - prev_value);
    }
    prev_value = value;
    prev_mid = mid;
    have_prev = true;
    i = j;
  }
  return prev_value;
}

void write_spans(const std::string& path, const std::vector<ClientRun>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fputs("op_id,client,kind,start_ns,end_ns,outcome\n", f);
  for (const auto& run : runs) {
    for (const auto& s : run.spans) {
      std::fprintf(f, "%" PRIu64 ",%" PRIu64 ",%s,%" PRIu64 ",%" PRIu64 ",%s\n", s.op_id,
                   s.op_id >> 32, kKindNames[static_cast<std::size_t>(s.kind)],
                   static_cast<std::uint64_t>(s.start), static_cast<std::uint64_t>(s.end),
                   kOutcomeNames[static_cast<std::size_t>(s.outcome)]);
    }
  }
  std::fclose(f);
}

/// Build, connect, populate and run one repetition; print its JSON line.
void run_rep(const Inputs& in, int rep, bool traced, const std::string& spans_path) {
  const WorkloadSpec& spec = in.spec;

  // ---- set-up: bed construction, connect_all, populate (host-timed) ----
  auto t = Clock::now();
  Bed bed(spec);
  const double bed_build_s = seconds_since(t);
  sim::Scheduler& sched = bed.scheduler();

  t = Clock::now();
  Status connected = Errc::disconnected;
  sched.spawn(connect_task(bed, connected));
  sched.run();
  const double connect_s = seconds_since(t);

  t = Clock::now();
  std::uint64_t populate_errors = 0;
  if (connected.ok()) {
    for (std::size_t c = 0; c < bed.client_count(); ++c) {
      sched.spawn(populate_task(bed, in, c, populate_errors));
    }
    sched.run();
  }
  const double populate_s = seconds_since(t);

  // ---- timed phase: registry deltas and profiler window cover it only ----
  std::vector<ClientRun> runs(bed.client_count());
  sim::Event start(sched);
  sim::Time start_at = 0;
  obs::registry().reset();
  if (traced) {
    obs::profiler().reset();
    obs::profiler().enable();
  }
  t = Clock::now();
  if (connected.ok()) {
    for (std::size_t c = 0; c < bed.client_count(); ++c) {
      sched.spawn(client_task(bed, in, c, start, runs[c]));
    }
    sched.spawn(starter_task(sched, start, start_at));
    sched.run();
  }
  const double timed_s = seconds_since(t);
  if (traced) obs::profiler().disable();

  // ---- aggregate. The window ends at the last client's finish, stamped
  // inside the simulation: after run() returns, now() has advanced past
  // trailing op-timeout timers and is not the end of the workload. ----
  std::array<std::vector<sim::Time>, 5> lat;
  std::uint64_t hits = 0, lookups = 0, wrong = 0, failed = 0, attempted = 0,
                server_requests = 0;
  std::array<std::uint64_t, 5> calls{};
  sim::Time last_finish = start_at;
  for (const auto& run : runs) {
    for (const auto& s : run.spans) {
      const auto k = static_cast<std::size_t>(s.kind);
      ++attempted;
      ++calls[k];
      if (s.outcome == Outcome::failed) {
        ++failed;  // errors and timeouts: no latency sample
      } else {
        lat[k].push_back(s.end - s.start);
      }
    }
    hits += run.hits;
    lookups += run.lookups;
    wrong += run.wrong;
    server_requests += run.server_requests;
    last_finish = std::max(last_finish, run.finished_at);
  }
  for (auto& v : lat) std::sort(v.begin(), v.end());
  if (!spans_path.empty()) write_spans(spans_path, runs);

  Json j;
  j.open().key("rep").num(static_cast<std::uint64_t>(rep)).key("traced").boolean(traced);
  j.key("host").open();
  j.key("bed_build_s").num(bed_build_s).key("connect_s").num(connect_s);
  j.key("populate_s").num(populate_s);
  j.key("timed_s").num(timed_s);
  j.key("peak_rss_kb").num(peak_rss_kb());
  j.close();
  // Everything under "sim" is a function of (workload, seed) alone.
  j.key("sim").open();
  j.key("connect_ok").boolean(connected.ok()).key("populate_errors").num(populate_errors);
  j.key("attempted").num(attempted).key("failed").num(failed);
  j.key("wrong_values").num(wrong);
  j.key("hits").num(hits).key("lookups").num(lookups);
  j.key("server_requests").num(server_requests);
  j.key("elapsed_ns").num(static_cast<std::uint64_t>(last_finish - start_at));
  for (std::size_t k = 0; k < 5; ++k) {
    const std::string name = kKindNames[k];
    j.key(name + "_calls").num(calls[k]);
    j.key(name + "_n").num(static_cast<std::uint64_t>(lat[k].size()));
    j.key(name + "_p50_ns").num(mid_quantile(lat[k], 0.50));
    j.key(name + "_p99_ns").num(mid_quantile(lat[k], 0.99));
  }
  j.close();
  j.key("registry").raw(obs::registry().to_json());
  j.key("profiler").raw(traced ? obs::profiler().to_json() : "null");
  j.close();
  std::printf("%s\n", j.text().c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file.csv>]\nworkloads:",
               msg);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadSpec* spec = nullptr;
  std::optional<std::uint64_t> seed;
  double seconds = -1.0;
  int trace = -1;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* val = argv[++i];
    if (arg == "--workload") {
      spec = find_workload(val);
      if (!spec) usage("unknown workload");
    } else if (arg == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(val);
    } else if (arg == "--spans") {
      spans_path = val;
    } else {
      usage("unknown argument");
    }
  }
  if (!spec || !seed || seconds <= 0.0 || (trace != 0 && trace != 1)) usage("bad arguments");

  const KeyPicker picker(spec->keys, spec->zipf_s);
  const ValueCodec codec(spec->min_value, spec->max_value);
  const Inputs in{*spec, picker, codec, *seed};

  // Repeat until the budget is spent. Traced runs alternate untraced and
  // traced repetitions and always end on a complete pair.
  const auto t0 = Clock::now();
  int reps = 0;
  const int min_reps = trace ? 4 : kMinReps;
  while (reps < min_reps || seconds_since(t0) < seconds || (trace == 1 && reps % 2 == 1)) {
    const bool traced = trace == 1 && reps % 2 == 1;
    // Spans are written once, from the first repetition: all repetitions
    // are identical in sim time.
    run_rep(in, reps, traced, reps == 0 ? spans_path : std::string());
    ++reps;
  }

  Json j;
  j.open().key("summary").open();
  j.key("workload").str(spec->name).key("seed").num(*seed);
  j.key("mode").str(kModeNames[static_cast<std::size_t>(spec->mode)]);
  j.key("transport").str(core::transport_name(spec->transport));
  j.key("loop").str("closed").key("clients").num(static_cast<std::uint64_t>(spec->clients));
  j.key("shards").num(static_cast<std::uint64_t>(spec->fleet ? spec->shards : 1));
  j.key("connections")
      .num(static_cast<std::uint64_t>(spec->clients) * (spec->fleet ? spec->shards : 1));
  j.key("ops_per_client").num(spec->ops_per_client);
  j.key("reps").num(static_cast<std::uint64_t>(reps));
  j.close().close();
  std::printf("%s\n", j.text().c_str());
  return 0;
}
