#include "rfp/channel.hpp"

#include <algorithm>
#include <cstring>

#include "simnet/cpu.hpp"
#include "ucr/endpoint.hpp"

namespace rmc::rfp {

namespace ucrp = mc::ucrp;

namespace {

/// The grid point (origin + k·poll) at which a plain re-read first sees a
/// frame that landed at `landed_at`. A landing exactly on a grid point is
/// seen there only if that read was armed (one poll earlier) after the
/// adapter engine started on the write: same-instant events run in
/// arming order.
sim::Time first_sighting(sim::Time origin, sim::Time poll, sim::Time landed_at,
                         sim::Time engine_started) {
  const sim::Time since = landed_at - origin;
  if (since % poll == 0 && engine_started + poll < landed_at) return landed_at;
  return origin + (since / poll + 1) * poll;
}

}  // namespace

Channel::Channel(ucr::Runtime& runtime, sim::Host& host, ChannelConfig config)
    : runtime_(&runtime), host_(&host), config_(config), landing_(runtime.scheduler()),
      ops_(&obs::registry().counter("mc.rfp.ops")),
      fallbacks_(&obs::registry().counter("mc.rfp.fallbacks")),
      ring_full_(&obs::registry().counter("mc.rfp.ring_full")),
      oversize_(&obs::registry().counter("mc.rfp.oversize")),
      torn_retries_(&obs::registry().counter("mc.rfp.torn_retries")) {
  config_.slot_count = std::max(1u, config_.slot_count);
  config_.poll_ns = std::max<sim::Time>(1, config_.poll_ns);
  config_.slot_size = std::max<std::uint32_t>(
      config_.slot_size,
      static_cast<std::uint32_t>(framed_size(ucrp::ResponseHeader::kSize)));
  down_handler_id_ = runtime_->on_endpoint_down([this](ucr::Endpoint& ep, Errc) {
    if (ep_ == &ep) invalidate();
  });
}

Channel::~Channel() {
  runtime_->remove_endpoint_handler(down_handler_id_);
  // Dropping the registrations detaches the landing watch with its region:
  // a response still in flight is refused (remote access error) instead
  // of landing in freed memory and bumping a dead counter.
  runtime_->deregister_region(response_arena_);
  runtime_->deregister_region(request_staging_);
}

void Channel::invalidate() {
  ep_ = nullptr;
  descriptor_ = {};
  // Ops sleeping on the watch must notice, as their next re-read would.
  landing_.landed.fail_waiters();
}

std::span<std::byte> Channel::request_slot(std::uint32_t slot) {
  return {request_staging_.data() +
              static_cast<std::size_t>(slot) * descriptor_.slot_size,
          descriptor_.slot_size};
}

std::span<std::byte> Channel::response_slot(std::uint32_t slot) {
  return {response_arena_.data() +
              static_cast<std::size_t>(slot) * descriptor_.slot_size,
          descriptor_.slot_size};
}

sim::Task<Status> Channel::bootstrap(ucr::Endpoint& ep, sim::Time timeout) {
  if (ready() && ep_ == &ep) co_return Status{};
  if (ep.state() != ucr::EpState::ready || ep.type() != ucr::EpType::reliable) {
    co_return Errc::disconnected;
  }
  invalidate();

  // Size both arenas for the proposal; the server may clamp the geometry
  // down, in which case the tail of each arena simply goes unused.
  const std::size_t arena_bytes =
      static_cast<std::size_t>(config_.slot_count) * config_.slot_size;
  response_arena_.assign(arena_bytes, std::byte{0});
  request_staging_.assign(arena_bytes, std::byte{0});
  runtime_->register_region(request_staging_);
  const auto response_window = runtime_->expose_memory(response_arena_, &landing_);

  BootstrapRequest req;
  req.response_ring = {response_window.addr, response_window.rkey, response_window.length};
  req.slot_count = config_.slot_count;
  req.slot_size = config_.slot_size;
  std::byte request[BootstrapRequest::kSize];
  codec::encode(req, request);
  std::byte reply[RingDescriptor::kSize];
  auto answered = co_await runtime_->call(ep, kMsgRfpBootstrap, request, reply, timeout);
  if (!answered.ok()) co_return answered.error();
  const auto d = codec::decode<RingDescriptor>(reply);
  // Adopted geometry must fit the arenas we shipped a window for.
  if (*answered < RingDescriptor::kSize || !d.valid() ||
      static_cast<std::size_t>(d.slot_count) * d.slot_size > arena_bytes) {
    co_return Errc::protocol_error;
  }

  descriptor_ = d;
  slots_.assign(descriptor_.slot_count, Slot{});
  ++slots_epoch_;
  busy_slots_ = 0;
  request_window_ = {descriptor_.request_ring.addr, descriptor_.request_ring.rkey,
                     descriptor_.request_ring.length};
  ep_ = &ep;
  last_traffic_ = runtime_->scheduler().now();
  co_return Status{};
}

void Channel::reclaim_lost() {
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (s.state != SlotState::lost) continue;
    std::span<const std::byte> body;
    if (read_frame(response_slot(i), s.seq, body) == FrameState::ready) {
      // The abandoned op's response finally landed: its epoch is closed
      // and the slot can carry a new op.
      s.seq += 1;
      s.state = SlotState::free;
    }
  }
}

std::uint32_t Channel::claim_slot() {
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].state == SlotState::free) {
      slots_[i].state = SlotState::busy;
      ++busy_slots_;
      return i;
    }
  }
  return descriptor_.slot_count;
}

void Channel::release(std::uint32_t slot) {
  if (slot >= slots_.size() || slots_[slot].state != SlotState::busy) return;
  slots_[slot].seq += 1;
  slots_[slot].state = SlotState::free;
  --busy_slots_;
}

sim::Task<Result<OpResult>> Channel::execute(ucr::Endpoint& ep,
                                             const ucrp::RequestHeader& hdr,
                                             std::span<const std::byte> head,
                                             std::span<const std::byte> tail,
                                             sim::Time timeout) {
  ops_->inc();
  if (!ready() || ep_ != &ep || ep.state() != ucr::EpState::ready) {
    fallbacks_->inc();
    co_return Errc::disconnected;
  }
  const std::size_t body_len = ucrp::RequestHeader::kSize + head.size() + tail.size();
  if (body_len > body_capacity(descriptor_.slot_size)) {
    oversize_->inc();
    fallbacks_->inc();
    co_return Errc::too_large;
  }
  reclaim_lost();
  const std::uint32_t slot = claim_slot();
  if (slot == descriptor_.slot_count) {
    ring_full_->inc();
    fallbacks_->inc();
    co_return Errc::no_resources;
  }
  // Claim-time generation of slots_. A re-bootstrap while this op is
  // suspended rebuilds the map and bumps slots_epoch_; our slot id may
  // then be free — or busy under a new owner — so every abandonment path
  // below re-checks the epoch before mutating slot state.
  const std::uint64_t epoch = slots_epoch_;
  auto abandon = [&](SlotState next) {
    if (slots_epoch_ == epoch && slots_[slot].state == SlotState::busy) {
      slots_[slot].state = next;
      --busy_slots_;
    }
    fallbacks_->inc();
  };
  auto invalidated = [&] { return slots_epoch_ != epoch || !ready() || ep_ != &ep; };

  sim::Scheduler& sched = runtime_->scheduler();
  // The server's poll loop parks after park_after_ns of idleness; if our
  // own send gap is anywhere near that, nudge it awake first. A lost
  // nudge degrades to this op's timeout + RPC fallback, never a hang.
  if (descriptor_.park_after_ns != 0 &&
      sched.now() - last_traffic_ >=
          static_cast<sim::Time>(descriptor_.park_after_ns / 2)) {
    // The nudge carries an 8 B header the server ignores.
    const std::byte wake[sizeof(std::uint64_t)] = {};
    (void)runtime_->send_message(ep, kMsgRfpWake, wake, {}, nullptr,
                                 ucr::CounterRef{}, nullptr);
  }
  last_traffic_ = sched.now();

  co_await host_->cpu().consume(config_.request_build_ns);
  if (invalidated()) {
    abandon(SlotState::free);
    co_return Errc::disconnected;
  }

  const std::uint32_t seq = slots_[slot].seq;
  const std::span<std::byte> staging = request_slot(slot);
  const std::span<std::byte> body = frame_body(staging);
  codec::encode(hdr, body.data());
  if (!head.empty()) {
    std::memcpy(body.data() + ucrp::RequestHeader::kSize, head.data(), head.size());
  }
  if (!tail.empty()) {
    std::memcpy(body.data() + ucrp::RequestHeader::kSize + head.size(), tail.data(),
                tail.size());
  }
  seal_frame(staging, seq, static_cast<std::uint32_t>(body_len));

  auto posted = runtime_->put(
      ep, staging.first(framed_size(static_cast<std::uint32_t>(body_len))),
      request_window_, slot * descriptor_.slot_size, nullptr);
  if (!posted.ok()) {
    // Never went out: the slot's seq is untouched and reusable.
    abandon(SlotState::free);
    co_return Errc::disconnected;
  }

  // The poll grid: reads at origin + k·poll_ns. The last one is the first
  // grid point at or after the deadline.
  const sim::Time poll = config_.poll_ns;
  const sim::Time origin = sched.now();
  const bool bounded = timeout != sim::kNoTimeout;
  const sim::Time deadline = bounded ? origin + timeout : 0;
  const sim::Time last_read = bounded ? origin + (timeout + poll - 1) / poll * poll : 0;
  auto slot_empty = [&] {
    std::span<const std::byte> ignored;
    return read_frame(response_slot(slot), seq, ignored) == FrameState::empty;
  };
  std::uint32_t torn_seen = 0;
  for (;;) {
    if (invalidated()) {
      abandon(SlotState::lost);
      co_return Errc::disconnected;
    }
    std::span<const std::byte> resp_body;
    const FrameState state = read_frame(response_slot(slot), seq, resp_body);
    switch (state) {
      case FrameState::ready: {
        if (resp_body.size() < ucrp::ResponseHeader::kSize) {
          // Verified but malformed — server bug, not a race. Epoch is
          // closed, so free the slot and fall back.
          release(slot);
          fallbacks_->inc();
          co_return Errc::protocol_error;
        }
        OpResult out;
        out.header = codec::decode<ucrp::ResponseHeader>(resp_body.data());
        out.body = resp_body.subspan(ucrp::ResponseHeader::kSize);
        out.slot = slot;
        co_return out;
      }
      case FrameState::torn:
        torn_retries_->inc();
        if (++torn_seen > config_.max_torn_retries) {
          abandon(SlotState::lost);
          co_return Errc::protocol_error;
        }
        break;
      case FrameState::empty:
        break;
    }
    if (bounded && sched.now() >= deadline) {
      // The response may still land later; quarantine the slot until
      // reclaim_lost sees its seq close.
      abandon(SlotState::lost);
      co_return Errc::timed_out;
    }
    if (state == FrameState::torn) {
      co_await sched.delay(poll);  // a torn frame is re-read every grid point
      continue;
    }

    // Empty: rather than re-read every poll_ns, sleep until a write lands
    // in the arena (or the last grid point comes), then resume on the grid
    // point where a re-read would first have seen the change.
    sim::Time resume = 0;
    for (;;) {
      const bool landed = co_await landing_.landed.wait_geq(
          landing_.landed.value() + 1, bounded ? last_read - sched.now() : sim::kNoTimeout);
      const sim::Time now = sched.now();
      if (invalidated()) {
        resume = origin + ((now - origin) / poll + 1) * poll;  // the next read notices
        break;
      }
      if (!slot_empty()) {
        // Our frame landed just now. (A wait that times out resumes through
        // a fresh event, so a landing queued for the same instant has run.)
        resume = first_sighting(origin, poll, now, landing_.engine_started);
        break;
      }
      if (landed) continue;  // another slot's response
      resume = now;          // the last grid point; its read finds the slot empty
      break;
    }
    if (bounded && resume > last_read) {
      // The last read found the slot empty, exactly as above.
      abandon(SlotState::lost);
      co_return Errc::timed_out;
    }
    if (resume > sched.now()) co_await sched.delay(resume - sched.now());
  }
}

}  // namespace rmc::rfp
