#include "onesided/remote_getter.hpp"

#include <cstring>

#include "memcached/command.hpp"
#include "ucr/endpoint.hpp"

namespace rmc::onesided {

namespace {

void decode_entry(const std::byte* src, BucketEntry& out) {
  std::memcpy(&out, src, sizeof(BucketEntry));
}

}  // namespace

RemoteGetter::RemoteGetter(ucr::Runtime& runtime, GetterConfig config)
    : runtime_(&runtime), config_(config),
      reads_metric_(&obs::registry().counter("mc.oneside.reads")),
      fallbacks_metric_(&obs::registry().counter("mc.oneside.fallbacks")),
      torn_metric_(&obs::registry().counter("mc.oneside.torn_retries")) {
  read_counter_ = runtime_->make_counter();
}

std::uint32_t RemoteGetter::now_seconds() const {
  // The server's cache clock, so both ends agree on expiry.
  return mc::cache_clock(runtime_->scheduler().now());
}

sim::Task<Status> RemoteGetter::bootstrap(ucr::Endpoint& ep, sim::Time timeout) {
  if (ready()) co_return Status{};
  if (ep.state() != ucr::EpState::ready) co_return Errc::disconnected;

  std::byte reply[IndexDescriptor::kSize];
  auto answered = co_await runtime_->call(ep, kMsgBootstrap, {}, reply, timeout);
  if (!answered.ok()) co_return answered.error();
  const auto d = codec::decode<IndexDescriptor>(reply);
  if (*answered < IndexDescriptor::kSize || !d.valid()) co_return Errc::protocol_error;
  descriptor_ = d;

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
                                                 std::optional<std::uint32_t> version,
                                                 OneSidedHit& out) const {
  RecordView rec;
  if (!open_record(record, version, key, rec)) return Verify::mismatch;
  // Fully verified. Expiry is the one post-verification miss: the record
  // is genuine but dead, and only the RPC path may reap it.
  if (rec.meta.exptime != 0 && rec.meta.exptime <= now_seconds()) return Verify::expired;
  out = OneSidedHit{.value = rec.value, .flags = rec.meta.flags, .cas = rec.meta.cas};
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
        hint.record_len >= record_framed_size(key.size(), 0) &&
        static_cast<std::uint64_t>(hint.arena_offset) + hint.record_len <=
            descriptor_.arena.length) {
      auto record = std::span<std::byte>(scratch_).subspan(bucket_bytes, hint.record_len);
      if (!co_await read(ep, record, arena_win, hint.arena_offset)) {
        fallbacks_metric_->inc();
        co_return Errc::disconnected;
      }
      OneSidedHit hit;
      switch (verify_record(record, key, std::nullopt, hit)) {
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
        entry.record_len < record_framed_size(key.size(), 0) ||
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
