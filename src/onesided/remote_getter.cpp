#include "onesided/remote_getter.hpp"

#include <cstring>
#include <unordered_map>

#include "common/hash.hpp"
#include "memcached/command.hpp"
#include "ucr/endpoint.hpp"

namespace rmc::onesided {

namespace {

/// Bootstrap responses arrive on a per-runtime AM handler, but the
/// endpoint's user_data belongs to the connection layer above us, so the
/// response is routed back by the cookie echoed in the descriptor.
/// Cookies are process-unique, which lets every runtime share one map.
std::uint64_t next_cookie() {
  static std::uint64_t next = 1;
  return next++;
}

std::unordered_map<std::uint64_t, RemoteGetter*>& cookie_registry() {
  static std::unordered_map<std::uint64_t, RemoteGetter*> map;
  return map;
}

void decode_entry(const std::byte* src, BucketEntry& out) {
  std::memcpy(&out, src, sizeof(BucketEntry));
}

}  // namespace

RemoteGetter::RemoteGetter(ucr::Runtime& runtime, GetterConfig config)
    : runtime_(&runtime), config_(config), cookie_(next_cookie()),
      reads_metric_(&obs::registry().counter("mc.oneside.reads")),
      fallbacks_metric_(&obs::registry().counter("mc.oneside.fallbacks")),
      torn_metric_(&obs::registry().counter("mc.oneside.torn_retries")) {
  read_counter_ = runtime_->make_counter();
  cookie_registry()[cookie_] = this;
  // Re-registering is idempotent: the handler closes over nothing and
  // resolves the owning getter through the cookie registry, so the last
  // registration on a runtime serves every getter.
  runtime_->register_handler(
      kMsgBootstrapResp,
      {.on_header = {},
       .on_complete = [](ucr::Endpoint&, std::span<const std::byte> header,
                         std::span<std::byte>) {
        if (header.size() < IndexDescriptor::kSize) return;
        const IndexDescriptor d = IndexDescriptor::decode(header.data());
        auto it = cookie_registry().find(d.cookie);
        if (it != cookie_registry().end()) it->second->descriptor_ = d;
      }});
}

RemoteGetter::~RemoteGetter() { cookie_registry().erase(cookie_); }

std::uint32_t RemoteGetter::now_seconds() const {
  // The server's cache clock, so both ends agree on expiry.
  return mc::cache_clock(runtime_->scheduler().now());
}

sim::Task<Status> RemoteGetter::bootstrap(ucr::Endpoint& ep, sim::Time timeout) {
  if (ready()) co_return Status{};
  if (ep.state() != ucr::EpState::ready) co_return Errc::disconnected;

  bootstrap_counter_ = runtime_->make_counter();
  bootstrap_ref_ = runtime_->export_counter(*bootstrap_counter_);

  BootstrapRequest req{.cookie = cookie_, .reply_counter = bootstrap_ref_.id};
  std::byte header[BootstrapRequest::kSize];
  req.encode(header);
  auto sent = runtime_->send_message(ep, kMsgBootstrap, header, {}, nullptr,
                                     ucr::CounterRef{}, nullptr);
  if (!sent.ok()) co_return sent;

  const bool woke = co_await bootstrap_counter_->wait_geq(1, timeout);
  if (!woke) co_return Errc::timed_out;
  if (!ready()) co_return Errc::protocol_error;

  // One landing zone for both reads: the bucket line up front, the record
  // behind it. Sized once from the descriptor and pre-registered so the
  // steady-state GET path never registers memory.
  const std::size_t bucket_bytes =
      static_cast<std::size_t>(descriptor_.ways) * sizeof(BucketEntry);
  scratch_.assign(bucket_bytes + descriptor_.slot_size, std::byte{0});
  runtime_->register_region(scratch_);
  co_return Status{};
}

sim::Task<bool> RemoteGetter::read(ucr::Endpoint& ep, std::span<std::byte> dst,
                                   const ucr::Runtime::RemoteMemory& window,
                                   std::uint32_t offset) {
  const std::uint64_t target = read_counter_->value() + 1;
  auto posted = runtime_->get(ep, dst, window, offset, read_counter_.get());
  if (!posted.ok()) co_return false;
  co_return co_await read_counter_->wait_geq(target, config_.read_timeout);
}

RemoteGetter::Verify RemoteGetter::verify_record(std::span<const std::byte> record,
                                                 std::string_view key,
                                                 std::uint32_t expected_version,
                                                 OneSidedHit& out) const {
  if (record.size() < sizeof(RecordHeader) + RecordHeader::kTailSize)
    return Verify::mismatch;
  RecordHeader hdr;
  std::memcpy(&hdr, record.data(), sizeof(hdr));
  // An odd front version is a retraction in progress; a zero one is a
  // never-published slot. `expected_version` (from a bucket entry) pins
  // the pair exactly; a hinted read accepts any stable even version.
  if (hdr.version_front == 0 || (hdr.version_front & 1u) != 0) return Verify::mismatch;
  if (expected_version != 0 && hdr.version_front != expected_version)
    return Verify::mismatch;
  if (hdr.key_len != key.size() ||
      RecordHeader::framed_size(hdr.key_len, hdr.value_len) != record.size()) {
    return Verify::mismatch;
  }
  std::uint32_t version_back = 0;
  std::memcpy(&version_back, record.data() + record.size() - RecordHeader::kTailSize,
              sizeof(version_back));
  if (version_back != hdr.version_front) return Verify::mismatch;
  const auto* key_bytes = reinterpret_cast<const char*>(record.data() + sizeof(hdr));
  if (std::string_view(key_bytes, hdr.key_len) != key) return Verify::mismatch;
  const auto value = record.subspan(sizeof(hdr) + hdr.key_len, hdr.value_len);
  if (hdr.checksum != hdr.expected_checksum(key, value)) return Verify::mismatch;
  // Fully verified. Expiry is the one post-verification miss: the record
  // is genuine but dead, and only the RPC path may reap it.
  if (hdr.exptime != 0 && hdr.exptime <= now_seconds()) return Verify::expired;
  out = OneSidedHit{.value = value, .flags = hdr.flags, .cas = hdr.cas};
  return Verify::hit;
}

void RemoteGetter::remember_hint(const std::string& key, Hint hint) {
  if (hints_.size() >= config_.max_hints && !hints_.contains(key)) hints_.clear();
  hints_[key] = hint;
}

sim::Task<Result<OneSidedHit>> RemoteGetter::try_get(ucr::Endpoint& ep,
                                                     std::string_view key) {
  reads_metric_->inc();
  if (!ready() || ep.state() != ucr::EpState::ready) {
    fallbacks_metric_->inc();
    co_return Errc::disconnected;
  }

  const std::uint32_t hash = hash_one_at_a_time(key);
  const std::uint32_t bucket = hash & (descriptor_.bucket_count - 1);
  const std::uint64_t want_tag = BucketEntry::make_tag(hash, key.size());
  const std::size_t bucket_bytes =
      static_cast<std::size_t>(descriptor_.ways) * sizeof(BucketEntry);
  const ucr::Runtime::RemoteMemory index_win{descriptor_.index.addr,
                                             descriptor_.index.rkey,
                                             descriptor_.index.length};
  const ucr::Runtime::RemoteMemory arena_win{descriptor_.arena.addr,
                                             descriptor_.arena.rkey,
                                             descriptor_.arena.length};
  const std::string key_owned(key);

  // Fast path: a key we have verified before is re-read at its hinted
  // slot in a single round trip. The record frame alone proves identity
  // and integrity, so the bucket line is only needed to (re)locate it; a
  // hint that fails verification is dropped and repaired below.
  if (auto it = hints_.find(key_owned); it != hints_.end()) {
    const Hint hint = it->second;
    if (hint.record_len <= descriptor_.slot_size &&
        hint.record_len >= RecordHeader::framed_size(key.size(), 0) &&
        static_cast<std::uint64_t>(hint.arena_offset) + hint.record_len <=
            descriptor_.arena.length) {
      auto record = std::span<std::byte>(scratch_).subspan(bucket_bytes, hint.record_len);
      if (!co_await read(ep, record, arena_win, hint.arena_offset)) {
        fallbacks_metric_->inc();
        co_return Errc::disconnected;
      }
      OneSidedHit hit;
      switch (verify_record(record, key, 0, hit)) {
        case Verify::hit:
          co_return hit;
        case Verify::expired:
          hints_.erase(key_owned);
          fallbacks_metric_->inc();
          co_return Errc::not_found;
        case Verify::mismatch:
          hints_.erase(key_owned);  // stale or racing a rewrite; relocate
          break;
      }
    } else {
      hints_.erase(it);
    }
  }

  for (std::uint32_t attempt = 0; attempt <= config_.max_torn_retries; ++attempt) {
    if (attempt != 0) torn_metric_->inc();

    // Read 1: the bucket line.
    auto line = std::span<std::byte>(scratch_).first(bucket_bytes);
    if (!co_await read(ep, line, index_win,
                       static_cast<std::uint32_t>(bucket * bucket_bytes))) {
      fallbacks_metric_->inc();
      co_return Errc::disconnected;
    }

    BucketEntry entry;
    bool found = false;
    bool torn = false;
    for (std::uint32_t way = 0; way < descriptor_.ways; ++way) {
      BucketEntry e;
      decode_entry(line.data() + way * sizeof(BucketEntry), e);
      if (!e.occupied()) continue;
      if (!e.self_consistent()) {
        // A half-written entry: can't even trust its tag, so we can't rule
        // out that it is our key. Re-read the line.
        torn = true;
        continue;
      }
      if (e.tag != want_tag) continue;
      entry = e;
      found = true;
      break;
    }
    if (!found) {
      if (torn) continue;
      break;  // verifiable miss: not published (absent/displaced/oversized)
    }

    // Entry sanity before trusting it as a read target. An odd version is
    // a retraction in progress; bad geometry means we raced a republish.
    if ((entry.version & 1u) != 0 || entry.record_len > descriptor_.slot_size ||
        entry.record_len < RecordHeader::framed_size(key.size(), 0) ||
        static_cast<std::uint64_t>(entry.arena_offset) + entry.record_len >
            descriptor_.arena.length) {
      continue;
    }

    // Read 2: the record.
    auto record = std::span<std::byte>(scratch_).subspan(bucket_bytes, entry.record_len);
    if (!co_await read(ep, record, arena_win, entry.arena_offset)) {
      fallbacks_metric_->inc();
      co_return Errc::disconnected;
    }

    OneSidedHit hit;
    switch (verify_record(record, key, entry.version, hit)) {
      case Verify::hit:
        remember_hint(key_owned, {entry.arena_offset, entry.record_len});
        co_return hit;
      case Verify::expired:
        remember_hint(key_owned, {entry.arena_offset, entry.record_len});
        goto fallback;  // genuine but dead; only the RPC path may reap it
      case Verify::mismatch:
        continue;  // raced a rewrite between the two reads
    }
  }

fallback:
  fallbacks_metric_->inc();
  co_return Errc::not_found;
}

}  // namespace rmc::onesided
