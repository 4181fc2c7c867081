// RFP server-bypass RPC: request/response rings for the full command set.
//
// Covers the frame layer (seal/read, epoch staleness, torn detection),
// the bootstrap handshake, the whole command set served through the
// rings, slot-epoch reuse (wrap-around without clearing writes), the
// ring-full / oversize / reply-overflow backpressure ladders into classic
// RPC, torn-frame handling on both sides of the fabric, lost-slot
// reclamation, at-most-once for non-idempotent ops whose ring response
// times out, and — the governing invariant, inherited from the
// one-sided suite — that under scripted link loss an RFP client never
// surfaces a torn value.
#include <gtest/gtest.h>

#include <charconv>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/testbed.hpp"
#include "memcached/client.hpp"
#include "memcached/server.hpp"
#include "obs/metrics.hpp"
#include "rfp/channel.hpp"
#include "rfp/ring_server.hpp"
#include "simnet/faults.hpp"
#include "simnet/netparams.hpp"
#include "ucr/runtime.hpp"

namespace rmc {
namespace {

using namespace rmc::literals;
namespace ucrp = mc::ucrp;
using sim::Scheduler;
using sim::Task;

std::uint64_t metric(const char* name) { return obs::registry().counter(name).value(); }

std::span<const std::byte> bytes_view(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// --------------------------------------------------- frame layer (pure) ----

TEST(RfpFrame, SealReadRoundTripEpochsAndTearing) {
  std::vector<std::byte> slot(256);
  std::span<const std::byte> body;

  // A zeroed slot is empty for a consumer at epoch 1 (seq 0 != 1).
  EXPECT_EQ(read_frame(slot, 1, body), FrameState::empty);

  std::span<std::byte> payload = frame_body(slot);
  for (int i = 0; i < 32; ++i) payload[i] = static_cast<std::byte>(i);
  seal_frame(slot, 1, 32);

  ASSERT_EQ(read_frame(slot, 1, body), FrameState::ready);
  EXPECT_EQ(body.size(), 32u);
  EXPECT_EQ(body.data(), payload.data());  // aliases the slot, no copy

  // Epoch advance makes the same bytes invisible — reuse needs no clear.
  EXPECT_EQ(read_frame(slot, 2, body), FrameState::empty);

  // A body byte flipped while carrying the expected seq = torn, not ready.
  payload[5] ^= std::byte{0xff};
  EXPECT_EQ(read_frame(slot, 1, body), FrameState::torn);
  payload[5] ^= std::byte{0xff};
  EXPECT_EQ(read_frame(slot, 1, body), FrameState::ready);

  // A missing tail (header landed, tail not yet) = torn as well.
  const std::uint32_t zero = 0;
  std::memcpy(slot.data() + FrameHeader::kSize + 32, &zero, sizeof(zero));
  EXPECT_EQ(read_frame(slot, 1, body), FrameState::torn);
}

// Slot epochs are u32 counters advanced by one per op, so they wrap: the
// epoch after 0xffffffff is 0, and it must verify like any other.
TEST(RfpFrame, EpochWrapToZeroIsAnOrdinaryEpoch) {
  std::vector<std::byte> slot(128);
  std::span<const std::byte> body;
  seal_frame(slot, 0xffffffffu, 8);
  ASSERT_EQ(read_frame(slot, 0xffffffffu, body), FrameState::ready);
  EXPECT_EQ(read_frame(slot, 0, body), FrameState::empty);

  frame_body(slot)[0] = std::byte{0x5a};
  seal_frame(slot, 0, 8);
  ASSERT_EQ(read_frame(slot, 0, body), FrameState::ready);
  EXPECT_EQ(body.size(), 8u);
  EXPECT_EQ(body[0], std::byte{0x5a});
  EXPECT_EQ(read_frame(slot, 0xffffffffu, body), FrameState::empty);
}

TEST(RfpFrame, BootstrapStructsRoundTripAndValidity) {
  rfp::BootstrapRequest req;
  req.response_ring = {0x1000, 7, 4096};
  req.slot_count = 16;
  req.slot_size = 2048;
  std::byte buf[rfp::BootstrapRequest::kSize];
  codec::encode(req, buf);
  const auto back = codec::decode<rfp::BootstrapRequest>(buf);
  EXPECT_EQ(back.response_ring.addr, req.response_ring.addr);
  EXPECT_EQ(back.response_ring.length, 4096u);
  EXPECT_EQ(back.slot_count, 16u);

  rfp::RingDescriptor d;
  EXPECT_FALSE(d.valid());  // the zeroed descriptor = "stay on RPC"
  d.slot_count = 4;
  d.slot_size = 512;
  EXPECT_TRUE(d.valid());
  d.slot_size = 8;  // can't even frame an empty body
  EXPECT_FALSE(d.valid());
}

// ------------------------------------------------- wire byte pinning ----

std::string hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::byte b : bytes) {
    out += kDigits[std::to_integer<unsigned>(b) >> 4];
    out += kDigits[std::to_integer<unsigned>(b) & 0xf];
  }
  return out;
}

template <class T>
std::string encoded_hex(const T& v) {
  std::byte buf[T::kSize];
  codec::encode(v, buf);
  return hex(buf);
}

// A bootstrap call's headers as ucr::Runtime::call frames them: the
// request is CallHeader | body, the reply is body | u64 call id.
std::string call_request_hex(std::uint64_t call_id, std::uint64_t reply_counter,
                             const std::string& body_hex) {
  return encoded_hex(ucr::wire::CallHeader{call_id, reply_counter}) + body_hex;
}

template <class T>
std::string call_reply_hex(const T& body, std::uint64_t call_id) {
  return encoded_hex(body) + hex(std::as_bytes(std::span{&call_id, 1}));
}

// Every wire struct encoded from fixed, pairwise-distinct field values and
// compared against its captured bytes: a reordered, resized or re-typed
// field changes the hex even when a round trip would still pass.
TEST(WireBytes, EveryWireStructEncodesToItsPinnedBytes) {
  const ucr::wire::AmWire am{.kind = ucr::wire::Kind::rendezvous,
                             .want_flags = 0x03,
                             .msg_id = 0x6d01,
                             .header_len = 0x0102,
                             .credits = 0x0304,
                             .data_len = 0x05060708,
                             .target_counter = 0x1112131415161718,
                             .token = 0x2122232425262728,
                             .rndz_addr = 0x3132333435363738,
                             .rndz_rkey = 0x41424344,
                             .ack_flags = 0x02,
                             .dst_ep = 0x51525354};
  const ucrp::RequestHeader req{.op = ucrp::Op::cas,
                                .key_len = 0x0a0b,
                                .flags = 0x0c0d0e0f,
                                .exptime = 0x10111213,
                                .cas = 0x2021222324252627,
                                .delta = 0x3031323334353637,
                                .req_id = 0x4041424344454647,
                                .reply_counter = 0x5051525354555657};
  const ucrp::ResponseHeader resp{.status = ucrp::RStatus::number,
                                  .flags = 0x0a0b0c0d,
                                  .cas = 0x1011121314151617,
                                  .number = 0x2021222324252627,
                                  .req_id = 0x3031323334353637};
  const ucrp::MgetChunkHeader chunk{.start_index = 0x01020304,
                                    .record_count = 0x11121314,
                                    .total_chunks = 0x21222324,
                                    .total_keys = 0x31323334};
  const ucrp::MgetRecord rec{.status = ucrp::RStatus::value,
                             .flags = 0x0a0b0c0d,
                             .cas = 0x1011121314151617,
                             .value_len = 0x21222324};
  onesided::IndexDescriptor index;
  index.index = {0x0102030405060708, 0x11121314, 0x21222324};
  index.arena = {0x3132333435363738, 0x41424344, 0x51525354};
  index.bucket_count = 0x61626364;
  index.ways = 0x71727374;
  index.slot_size = 0x81828384;
  rfp::RingDescriptor ring;
  ring.request_ring = {0x0102030405060708, 0x11121314, 0x21222324};
  ring.slot_count = 0x31323334;
  ring.slot_size = 0x41424344;
  ring.park_after_ns = 0x5152535455565758;
  rfp::BootstrapRequest ring_req;
  ring_req.response_ring = {0x2122232425262728, 0x31323334, 0x41424344};
  ring_req.slot_count = 0x51525354;
  ring_req.slot_size = 0x61626364;

  const struct {
    const char* name;
    std::string actual;
    const char* expected;
  } cases[] = {
      {"AmWire", encoded_hex(am),
       "0103016d0201040308070605181716151413121128272625"
       "242322213837363534333231444342410254535251000000"},
      {"RequestHeader", encoded_hex(req),
       "070b0a0f0e0d0c131211102726252423222120373635343332313047464544434241405756555453525150"},
      {"ResponseHeader", encoded_hex(resp),
       "070d0c0b0a171615141312111027262524232221203736353433323130"},
      {"MgetChunkHeader", encoded_hex(chunk),
       "04030201141312112423222134333231"},
      {"MgetRecord", encoded_hex(rec),
       "080d0c0b0a171615141312111024232221"},
      {"IndexDescriptor", call_reply_hex(index, 0x9192939495969798),
       "0807060504030201141312112423222138373635343332314443"
       "4241545352516463626174737271848382819897969594939291"},
      {"onesided bootstrap request",
       call_request_hex(0x0102030405060708, 0x1112131415161718, ""),
       "08070605040302011817161514131211"},
      {"RingDescriptor", call_reply_hex(ring, 0x6162636465666768),
       "08070605040302011413121124232221343332314443424158575655545352516867666564636261"},
      {"rfp bootstrap request",
       call_request_hex(0x0102030405060708, 0x1112131415161718, encoded_hex(ring_req)),
       "08070605040302011817161514131211282726252423222134333231444342415453525164636261"},
  };
  for (const auto& c : cases) EXPECT_EQ(c.actual, c.expected) << c.name;
}

// -------------------------------------------------------------- worlds ----

/// One server (UCR frontend + RingServer) and one rfp-mode client.
struct RfpWorld {
  Scheduler sched;
  sim::Fabric fabric{sched, sim::ib_qdr_link()};

  sim::Host server_host{sched, 0, "server", 8};
  verbs::Hca server_hca{sched, fabric, server_host};
  ucr::Runtime server_ucr{server_hca};
  mc::Server server;
  std::unique_ptr<rfp::RingServer> ring;

  sim::Host client_host{sched, 1, "client", 8};
  verbs::Hca client_hca{sched, fabric, client_host};
  ucr::Runtime client_ucr{client_hca};
  std::unique_ptr<mc::Client> client;

  explicit RfpWorld(mc::ClientBehavior behavior = {}, rfp::RingServerConfig ring_cfg = {},
                    mc::ServerConfig server_cfg = {})
      : server(sched, server_host, server_cfg) {
    server.attach_ucr_frontend(server_ucr);
    ring = std::make_unique<rfp::RingServer>(server_ucr, server_host, server.store(),
                                             ring_cfg);
    behavior.mode = mc::ClientBehavior::Mode::rfp;
    client = std::make_unique<mc::Client>(sched, client_host, behavior);
    client->add_server_ucr(client_ucr, server_ucr.addr(), 11211);
  }

  void drive(Task<> task, sim::Time horizon = 5_s) {
    bool done = false;
    sched.spawn([](Task<> inner, bool& fin) -> Task<> {
      co_await std::move(inner);
      fin = true;
    }(std::move(task), done));
    const sim::Time deadline = sched.now() + horizon;
    while (!done && sched.now() < deadline) {
      const sim::Time before = sched.now();
      sched.run_until(std::min(deadline, before + 1_ms));
      if (sched.now() == before) break;  // queue drained: no progress possible
    }
    ASSERT_TRUE(done) << "scenario hung past its horizon";
  }
};

/// Server side plus a *raw* Channel — for tests that need the channel's
/// staging/arena hooks (forged torn frames, slot epoch assertions).
struct ChannelWorld {
  Scheduler sched;
  sim::Fabric fabric{sched, sim::ib_qdr_link()};

  sim::Host server_host{sched, 0, "server", 8};
  verbs::Hca server_hca{sched, fabric, server_host};
  ucr::Runtime server_ucr{server_hca};
  mc::Server server{sched, server_host, mc::ServerConfig{}};
  std::unique_ptr<rfp::RingServer> ring;

  sim::Host client_host{sched, 1, "client", 8};
  verbs::Hca client_hca{sched, fabric, client_host};
  ucr::Runtime client_ucr{client_hca};
  std::unique_ptr<rfp::Channel> channel;
  ucr::Endpoint* ep = nullptr;

  explicit ChannelWorld(rfp::ChannelConfig cfg = {}, rfp::RingServerConfig srv_cfg = {}) {
    server.attach_ucr_frontend(server_ucr);
    ring = std::make_unique<rfp::RingServer>(server_ucr, server_host, server.store(),
                                             srv_cfg);
    channel = std::make_unique<rfp::Channel>(client_ucr, client_host, cfg);
  }

  Task<Status> connect_and_bootstrap() {
    auto r = co_await client_ucr.connect(server_ucr.addr(), 11211);
    if (!r.ok()) co_return r.error();
    ep = *r;
    co_return co_await channel->bootstrap(*ep);
  }

  /// One GET through the raw channel; returns the op result status (the
  /// response status is checked by the caller via out).
  Task<Result<rfp::OpResult>> raw_get(std::string_view key, sim::Time timeout = 1 * kNsPerSec) {
    ucrp::RequestHeader hdr;
    hdr.op = ucrp::Op::get;
    hdr.key_len = static_cast<std::uint16_t>(key.size());
    co_return co_await channel->execute(
        *ep, hdr, std::as_bytes(std::span<const char>(key.data(), key.size())), {},
        timeout);
  }

  Task<Result<rfp::OpResult>> raw_set(std::string_view key, const std::string& value) {
    ucrp::RequestHeader hdr;
    hdr.op = ucrp::Op::set;
    hdr.key_len = static_cast<std::uint16_t>(key.size());
    co_return co_await channel->execute(
        *ep, hdr, std::as_bytes(std::span<const char>(key.data(), key.size())),
        bytes_view(value), 1 * kNsPerSec);
  }

  void drive(Task<> task, sim::Time horizon = 5_s) {
    bool done = false;
    sched.spawn([](Task<> inner, bool& fin) -> Task<> {
      co_await std::move(inner);
      fin = true;
    }(std::move(task), done));
    const sim::Time deadline = sched.now() + horizon;
    while (!done && sched.now() < deadline) {
      const sim::Time before = sched.now();
      sched.run_until(std::min(deadline, before + 1_ms));
      if (sched.now() == before) break;
    }
    ASSERT_TRUE(done) << "scenario hung past its horizon";
  }
};

/// Seal a deliberately-corrupt frame at `seq` into `slot`: header and tail
/// are consistent but one body byte is flipped after checksumming, so any
/// consumer expecting `seq` reads torn until a genuine frame lands.
void forge_torn_frame(std::span<std::byte> slot, std::uint32_t seq) {
  std::span<std::byte> body = frame_body(slot);
  const std::uint32_t body_len = 24;
  for (std::uint32_t i = 0; i < body_len; ++i) body[i] = static_cast<std::byte>(0x5a);
  seal_frame(slot, seq, body_len);
  body[3] ^= std::byte{0xff};
}

// -------------------------------------------- the full command set ----

TEST(Rfp, FullCommandSetRidesTheRingsWithoutFallback) {
  RfpWorld w;
  const std::uint64_t ops0 = metric("mc.rfp.ops");
  const std::uint64_t falls0 = metric("mc.rfp.fallbacks");
  const std::uint64_t boots0 = metric("mc.rfp.bootstraps");
  const std::uint64_t sweeps0 = metric("mc.rfp.poll.sweeps");
  const std::uint64_t frames0 = metric("mc.rfp.poll.frames");

  w.drive([](RfpWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.client->connect_all()).ok());

    // Storage family.
    EXPECT_TRUE((co_await wk.client->set("alpha", bytes_view("value-one"), 7)).ok());
    EXPECT_FALSE((co_await wk.client->add("alpha", bytes_view("x"))).ok());
    EXPECT_TRUE((co_await wk.client->replace("alpha", bytes_view("value-two"), 9)).ok());
    EXPECT_TRUE((co_await wk.client->append("alpha", bytes_view("!"))).ok());

    // GET / gets / get_into.
    auto hit = co_await wk.client->get("alpha");
    EXPECT_TRUE(hit.ok());
    if (hit.ok()) {
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(hit->data.data()),
                            hit->data.size()),
                "value-two!");
    }
    auto with_cas = co_await wk.client->gets("alpha");
    EXPECT_TRUE(with_cas.ok());
    if (with_cas.ok()) {
      EXPECT_GT(with_cas->cas, 0u);
    }
    std::vector<std::byte> dest(64);
    auto direct = co_await wk.client->get_into("alpha", dest);
    EXPECT_TRUE(direct.ok());
    if (direct.ok()) {
      EXPECT_EQ(direct->value_len, 10u);
    }
    auto miss = co_await wk.client->get("never-stored");
    EXPECT_EQ(miss.error(), Errc::not_found);

    // INCR / DECR.
    EXPECT_TRUE((co_await wk.client->set("ctr", bytes_view("41"))).ok());
    auto up = co_await wk.client->incr("ctr", 1);
    EXPECT_TRUE(up.ok());
    if (up.ok()) {
      EXPECT_EQ(*up, 42u);
    }
    auto down = co_await wk.client->decr("ctr", 2);
    EXPECT_TRUE(down.ok());
    if (down.ok()) {
      EXPECT_EQ(*down, 40u);
    }

    // TOUCH / DELETE.
    EXPECT_TRUE((co_await wk.client->touch("ctr", 3600)).ok());
    EXPECT_TRUE((co_await wk.client->del("alpha")).ok());
    EXPECT_EQ((co_await wk.client->get("alpha")).error(), Errc::not_found);

    // Multiget: one request frame, one chunked reply frame.
    const std::vector<std::string> keys = {"m0", "m1", "m2", "m3"};
    for (const auto& k : keys) {
      EXPECT_TRUE((co_await wk.client->set(k, bytes_view("v-" + k), 5)).ok());
    }
    auto many = co_await wk.client->mget(keys);
    EXPECT_TRUE(many.ok());
    if (many.ok() && many->size() == 4) {
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_TRUE((*many)[i].has_value()) << "mget miss at " << i;
        if (!(*many)[i].has_value()) continue;
        EXPECT_EQ(std::string(reinterpret_cast<const char*>((*many)[i]->data.data()),
                              (*many)[i]->data.size()),
                  "v-" + keys[i]);
      }
    } else if (many.ok()) {
      ADD_FAILURE() << "mget returned " << many->size() << " results";
    }

    // flush_all stays on the RPC path (fallback matrix) but still works.
    EXPECT_TRUE((co_await wk.client->flush_all()).ok());
    EXPECT_EQ((co_await wk.client->get("m0")).error(), Errc::not_found);
  }(w));

  EXPECT_GE(metric("mc.rfp.bootstraps") - boots0, 1u);
  EXPECT_GE(metric("mc.rfp.ops") - ops0, 15u);
  // Every command above that the rings can serve was served there.
  EXPECT_EQ(metric("mc.rfp.fallbacks") - falls0, 0u);
  EXPECT_GT(metric("mc.rfp.poll.sweeps") - sweeps0, 0u);
  EXPECT_GT(metric("mc.rfp.poll.frames") - frames0, 0u);
  EXPECT_EQ(w.ring->ring_count(), 1u);
}

// ------------------------------------- wrap-around / epoch lockstep ----

TEST(Rfp, SlotEpochsAdvanceAcrossWrapAroundWithoutClearing) {
  rfp::ChannelConfig cfg;
  cfg.slot_count = 2;
  ChannelWorld w(cfg);

  w.drive([](ChannelWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    EXPECT_EQ(wk.channel->descriptor().slot_count, 2u);

    auto stored = co_await wk.raw_set("wrap", std::string(48, 'w'));
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    EXPECT_EQ(stored->header.status, ucrp::RStatus::stored);
    wk.channel->release(stored->slot);

    // 10 sequential GETs over a 2-slot ring: every op claims slot 0, so
    // its epoch must climb once per op — stale response frames from prior
    // epochs are invisible by seq alone (nothing is ever cleared).
    for (int i = 0; i < 10; ++i) {
      auto r = co_await wk.raw_get("wrap");
      EXPECT_TRUE(r.ok()) << "op " << i;
      if (!r.ok()) co_return;
      EXPECT_EQ(r->header.status, ucrp::RStatus::value);
      EXPECT_EQ(r->slot, 0u);
      EXPECT_EQ(r->body.size(), 48u);
      wk.channel->release(r->slot);
    }
    // set (epoch 1) + 10 gets: slot 0 sits at epoch 12 for the next op.
    EXPECT_EQ(wk.channel->slot_seq_for_test(0), 12u);
    EXPECT_EQ(wk.channel->slots_in_flight(), 0u);
  }(w));
}

// ------------------------------------------------- backpressure ladders ----

TEST(Rfp, RingFullBackpressureFallsBackToRpcAndRecovers) {
  mc::ClientBehavior behavior;
  behavior.rfp.slot_count = 2;  // tiny ring: concurrency must overflow it
  RfpWorld w(behavior);
  const std::uint64_t full0 = metric("mc.rfp.ring_full");
  const std::uint64_t falls0 = metric("mc.rfp.fallbacks");

  w.drive([](RfpWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.client->connect_all()).ok());
    constexpr int kKeys = 8;
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_TRUE((co_await wk.client->set("k" + std::to_string(i),
                                           bytes_view("v" + std::to_string(i))))
                      .ok());
    }
    // 8 concurrent GETs against 2 slots: the overflow must transparently
    // run over RPC — all 8 succeed either way.
    int done = 0, ok = 0;
    for (int i = 0; i < kKeys; ++i) {
      wk.sched.spawn([](RfpWorld& w2, int i2, int& done2, int& ok2) -> Task<> {
        auto r = co_await w2.client->get("k" + std::to_string(i2));
        if (r.ok()) ++ok2;
        ++done2;
      }(wk, i, done, ok));
    }
    while (done < kKeys) co_await wk.sched.delay(10_us);
    EXPECT_EQ(ok, kKeys);

    // The ring is usable again once the burst drains.
    EXPECT_TRUE((co_await wk.client->get("k0")).ok());
  }(w));

  EXPECT_GT(metric("mc.rfp.ring_full") - full0, 0u);
  EXPECT_GT(metric("mc.rfp.fallbacks") - falls0, 0u);
}

TEST(Rfp, OversizeRequestsAndOverflowingRepliesFallBackToRpc) {
  mc::ClientBehavior behavior;
  behavior.rfp.slot_size = 512;  // bodies near/over 512 B cannot be framed
  RfpWorld w(behavior);
  const std::uint64_t over0 = metric("mc.rfp.oversize");
  const std::uint64_t falls0 = metric("mc.rfp.fallbacks");

  w.drive([](RfpWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.client->connect_all()).ok());

    // Request too big for a slot: client-side oversize gate, RPC serves it.
    const std::string big(2000, 'b');
    EXPECT_TRUE((co_await wk.client->set("big", bytes_view(big))).ok());

    // Request fits (a bare key) but the reply cannot: the server seals a
    // server_error frame and the client re-runs the GET over RPC.
    auto r = co_await wk.client->get("big");
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r->data.size(), big.size());
    }

    // Small values still ride the rings end to end.
    EXPECT_TRUE((co_await wk.client->set("small", bytes_view("tiny"))).ok());
    auto s = co_await wk.client->get("small");
    EXPECT_TRUE(s.ok());
  }(w));

  EXPECT_GT(metric("mc.rfp.oversize") - over0, 0u);
  EXPECT_GE(metric("mc.rfp.fallbacks") - falls0, 2u);
}

// ------------------------------------------- at-most-once on the ring ----

// An incr whose ring response outlives op_timeout has already been
// delivered: the server applies the quarantined request when it lands.
// Re-running it over RPC would apply it twice, so the client must return
// the ring's error instead, and the counter must move exactly once.
TEST(Rfp, TimedOutRingIncrIsNotReRunOverRpc) {
  mc::ClientBehavior behavior;
  behavior.op_timeout = 300_us;
  RfpWorld w(behavior);

  w.drive([](RfpWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.client->connect_all()).ok());
    EXPECT_TRUE((co_await wk.client->set("ctr", bytes_view("0"))).ok());

    // 250 us each way outlasts the 300 us op timeout; the delay clears
    // before the timeout fires, so a re-issue would go through at once.
    const sim::Time t0 = wk.sched.now();
    wk.fabric.faults().schedule({
        {t0, {.kind = sim::Fault::Kind::delay, .a = 1, .b = 0, .extra_delay = 250_us}},
        {t0 + 290_us, {.kind = sim::Fault::Kind::delay, .a = 1, .b = 0, .extra_delay = 0}},
    });
    auto bumped = co_await wk.client->incr("ctr", 1);
    EXPECT_FALSE(bumped.ok()) << "incr reported " << (bumped.ok() ? *bumped : 0);

    co_await wk.sched.delay(500_us);  // let the quarantined request land
    auto got = co_await wk.client->get("ctr");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(got->data.data()), got->data.size()),
                "1");
    }
  }(w));
}

// A store error the ring served is the answer: only the slot-overflow
// status may send an op back over RPC. A value that fits one request
// slot but exceeds the largest slab class fails in the store on the
// ring, and must come back as too_large without a fallback or a second
// execution over RPC.
TEST(Rfp, RingStoreErrorIsNotReRunOverRpc) {
  mc::ServerConfig server_cfg;
  server_cfg.store.slabs.chunk_max = 1024;
  RfpWorld w({}, {}, server_cfg);

  w.drive([](RfpWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.client->connect_all()).ok());
    const std::uint64_t ops0 = metric("mc.rfp.ops");
    const std::uint64_t falls0 = metric("mc.rfp.fallbacks");
    const std::uint64_t rpc0 = metric("mc.requests.ucr");
    const std::string big(1500, 'b');  // < one 2 KB request slot, > chunk_max
    auto st = co_await wk.client->set("big", bytes_view(big));
    EXPECT_FALSE(st.ok());
    if (!st.ok()) {
      EXPECT_EQ(st.error(), Errc::too_large);
    }
    EXPECT_EQ(metric("mc.rfp.ops") - ops0, 1u);
    EXPECT_EQ(metric("mc.rfp.fallbacks") - falls0, 0u);
    EXPECT_EQ(metric("mc.requests.ucr") - rpc0, 0u);
  }(w));
}

// ----------------------------------------------------- torn frames ----

TEST(Rfp, ServerSkipsTornRequestFrameUntilItHeals) {
  ChannelWorld w;
  const std::uint64_t torn0 = metric("mc.rfp.torn_frames");

  w.drive([](ChannelWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    auto stored = co_await wk.raw_set("whole", "intact-value");
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    wk.channel->release(stored->slot);

    // Forge a torn frame directly into the server's request ring at slot
    // 1's expected epoch (slot 1 is idle: sequential ops reuse slot 0).
    // The sweep must flag it torn — and never execute it.
    const std::uint32_t slot_size = wk.channel->descriptor().slot_size;
    std::vector<std::byte> garbage(slot_size);
    wk.client_ucr.register_region(garbage);
    forge_torn_frame(garbage, /*seq=*/1);
    const auto& win = wk.channel->descriptor().request_ring;
    const ucr::Runtime::RemoteMemory target{win.addr, win.rkey, win.length};
    EXPECT_TRUE(wk.client_ucr
                    .put(*wk.ep, std::span<const std::byte>(garbage),
                         target, /*offset=*/1 * slot_size, nullptr)
                    .ok());
    co_await wk.sched.delay(30_us);  // several sweeps observe the tear

    // The healthy slots keep serving ops the whole time.
    auto r = co_await wk.raw_get("whole");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->header.status, ucrp::RStatus::value);
    wk.channel->release(r->slot);
  }(w));

  EXPECT_GT(metric("mc.rfp.torn_frames") - torn0, 0u);
}

TEST(Rfp, ClientRetriesTornResponseFrameUntilTheRealOneLands) {
  rfp::ChannelConfig cfg;
  cfg.max_torn_retries = 64;  // ride out the tear until the response lands
  ChannelWorld w(cfg);
  const std::uint64_t torn0 = metric("mc.rfp.torn_retries");

  w.drive([](ChannelWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    auto stored = co_await wk.raw_set("heal", "healed-value");
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    wk.channel->release(stored->slot);

    // Pre-corrupt slot 0's response frame at the epoch the next op will
    // use: the poll loop must observe torn (a concurrent write, as far as
    // it can tell) and keep polling until the genuine response overwrites.
    const std::uint32_t slot_size = wk.channel->descriptor().slot_size;
    const std::uint32_t next_seq = wk.channel->slot_seq_for_test(0);
    forge_torn_frame(wk.channel->response_arena_for_test().subspan(0, slot_size),
                     next_seq);

    auto r = co_await wk.raw_get("heal");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->header.status, ucrp::RStatus::value);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(r->body.data()), r->body.size()),
              "healed-value");
    wk.channel->release(r->slot);
  }(w));

  EXPECT_GT(metric("mc.rfp.torn_retries") - torn0, 0u);
}

TEST(Rfp, TornBudgetExhaustionQuarantinesAndReclaimsTheSlot) {
  rfp::ChannelConfig cfg;
  cfg.max_torn_retries = 1;  // give up long before the real response lands
  ChannelWorld w(cfg);

  w.drive([](ChannelWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    auto stored = co_await wk.raw_set("quarantine", "qv");
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    wk.channel->release(stored->slot);

    const std::uint32_t slot_size = wk.channel->descriptor().slot_size;
    const std::uint32_t seq = wk.channel->slot_seq_for_test(0);
    forge_torn_frame(wk.channel->response_arena_for_test().subspan(0, slot_size), seq);

    // The op exhausts its torn budget and falls back; the slot is lost,
    // not free — its epoch is still open.
    auto r = co_await wk.raw_get("quarantine");
    EXPECT_EQ(r.error(), Errc::protocol_error);
    EXPECT_EQ(wk.channel->slots_in_flight(), 0u);

    // The real response lands later and closes the epoch; the next op
    // reclaims the slot and runs on the advanced epoch.
    co_await wk.sched.delay(30_us);
    auto again = co_await wk.raw_get("quarantine");
    EXPECT_TRUE(again.ok());
    if (!again.ok()) co_return;
    EXPECT_EQ(again->header.status, ucrp::RStatus::value);
    EXPECT_EQ(again->slot, 0u);
    wk.channel->release(again->slot);
    EXPECT_EQ(wk.channel->slot_seq_for_test(0), seq + 2);
  }(w));
}

// ------------------------------------------------- the client poll grid ----
//
// The client reads its response slot on a fixed grid: at the post, then
// every poll_ns. Whatever mechanism decides when the client next looks
// (a sleep per grid step, or a wait on the arena's landing watch), the op
// must complete on the same grid point, so every time below is pinned
// exactly. The values were recorded with the plain one-sleep-per-step
// loop.

/// Absolute completion times of three back-to-back ring GETs of a
/// `size`-byte value on a one-client TestBed.
std::vector<sim::Time> ring_get_times(core::ClusterKind cluster, sim::Time poll_ns,
                                      std::uint32_t size) {
  core::TestBedConfig config;
  config.cluster = cluster;
  config.client.mode = mc::ClientBehavior::Mode::rfp;
  config.client.rfp.poll_ns = poll_ns;
  core::TestBed bed(config);
  std::vector<sim::Time> times;
  bed.scheduler().spawn([](core::TestBed& b, std::uint32_t len,
                           std::vector<sim::Time>& out) -> Task<> {
    if (!(co_await b.connect_all()).ok()) co_return;
    mc::Client& client = b.client(0);
    if (!(co_await client.set("grid", bytes_view(std::string(len, 'g')))).ok()) co_return;
    for (int i = 0; i < 3; ++i) {
      auto r = co_await client.get("grid");
      out.push_back(r.ok() && r->data.size() == len ? b.scheduler().now() : 0);
    }
  }(bed, size, times));
  bed.scheduler().run();
  return times;
}

TEST(Rfp, ElidedPollKeepsThePlainPollGrid) {
  using core::ClusterKind;
  const std::uint64_t ring_ops0 = metric("mc.rfp.ops");
  const std::uint64_t ring_falls0 = metric("mc.rfp.fallbacks");
  struct Cell {
    ClusterKind cluster;
    sim::Time poll_ns;
    std::uint32_t size;
    std::vector<sim::Time> expected;
  };
  // Cluster A's inbound-write engine takes 240 ns. At poll_ns 150 (1 KB),
  // 170 (64 B) and 200 (64 B) a response lands exactly on a grid point
  // more than poll_ns after its engine started, so it is seen there; at
  // 240 (1 KB) one lands exactly poll_ns after, so it is not.
  const std::vector<Cell> cells = {
      {ClusterKind::cluster_a, 150, 64, {47153, 60058, 73113}},
      {ClusterKind::cluster_a, 150, 1024, {49029, 62610, 76191}},
      {ClusterKind::cluster_a, 170, 64, {47553, 60528, 73503}},
      {ClusterKind::cluster_a, 170, 1024, {49159, 63060, 76621}},
      {ClusterKind::cluster_a, 200, 64, {47553, 60658, 73563}},
      {ClusterKind::cluster_a, 200, 1024, {49629, 63610, 77591}},
      {ClusterKind::cluster_a, 240, 64, {47753, 60658, 73563}},
      {ClusterKind::cluster_a, 240, 1024, {49749, 63690, 77631}},
      {ClusterKind::cluster_a, 300, 64, {47153, 60058, 73263}},
      {ClusterKind::cluster_a, 300, 1024, {49629, 63510, 77091}},
      {ClusterKind::cluster_b, 150, 64, {30423, 38978, 47683}},
      {ClusterKind::cluster_b, 150, 1024, {31399, 40630, 49711}},
      {ClusterKind::cluster_b, 170, 64, {30423, 38978, 47703}},
      {ClusterKind::cluster_b, 170, 1024, {31349, 40150, 49291}},
      {ClusterKind::cluster_b, 200, 64, {30323, 39028, 47733}},
      {ClusterKind::cluster_b, 200, 1024, {31399, 40580, 49761}},
      {ClusterKind::cluster_b, 240, 64, {30483, 39068, 47653}},
      {ClusterKind::cluster_b, 240, 1024, {31519, 40660, 49801}},
      {ClusterKind::cluster_b, 300, 64, {30423, 39128, 47833}},
      {ClusterKind::cluster_b, 300, 1024, {31399, 40780, 49861}},
  };
  for (const Cell& c : cells) {
    EXPECT_EQ(ring_get_times(c.cluster, c.poll_ns, c.size), c.expected)
        << core::cluster_name(c.cluster) << " poll_ns " << c.poll_ns << " size " << c.size;
  }
  // Every SET and GET above rode the ring.
  EXPECT_EQ(metric("mc.rfp.ops") - ring_ops0, cells.size() * 4);
  EXPECT_EQ(metric("mc.rfp.fallbacks") - ring_falls0, 0u);

  // A forged torn response frame (ClientRetriesTornResponseFrameUntilTheRealOneLands):
  // a torn read is re-read on the next grid point, so the end time and
  // the torn-retry count are those of the plain loop.
  {
    rfp::ChannelConfig cfg;
    cfg.max_torn_retries = 64;
    ChannelWorld w(cfg);
    const std::uint64_t torn0 = metric("mc.rfp.torn_retries");
    sim::Time end = 0;
    w.drive([](ChannelWorld& wk, sim::Time& end2) -> Task<> {
      EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
      auto stored = co_await wk.raw_set("heal", "healed-value");
      EXPECT_TRUE(stored.ok());
      if (!stored.ok()) co_return;
      wk.channel->release(stored->slot);
      const std::uint32_t slot_size = wk.channel->descriptor().slot_size;
      forge_torn_frame(wk.channel->response_arena_for_test().subspan(0, slot_size),
                       wk.channel->slot_seq_for_test(0));
      auto r = co_await wk.raw_get("heal");
      EXPECT_TRUE(r.ok());
      end2 = wk.sched.now();
      if (r.ok()) wk.channel->release(r->slot);
    }(w, end));
    EXPECT_EQ(end, 28528);
    EXPECT_EQ(metric("mc.rfp.torn_retries") - torn0, 36u);
  }

  // Timeouts around the response's landing: an op gives up on the first
  // grid point at or after its deadline, having seen the frame only if a
  // plain read there would have.
  {
    ChannelWorld w;
    std::vector<std::pair<sim::Time, bool>> got;
    w.drive([](ChannelWorld& wk, std::vector<std::pair<sim::Time, bool>>& out) -> Task<> {
      EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
      auto stored = co_await wk.raw_set("late", "late-value");
      EXPECT_TRUE(stored.ok());
      if (!stored.ok()) co_return;
      wk.channel->release(stored->slot);
      for (sim::Time timeout = 6'900; timeout <= 9'300; timeout += 150) {
        const sim::Time t0 = wk.sched.now();
        auto r = co_await wk.raw_get("late", timeout);
        out.emplace_back(wk.sched.now() - t0, r.ok());
        if (r.ok()) {
          wk.channel->release(r->slot);
        } else {
          EXPECT_EQ(r.error(), Errc::timed_out);
        }
        co_await wk.sched.delay(30_us);  // let a late response land
      }
    }(w, got));
    const std::vector<std::pair<sim::Time, bool>> expected = {
        {7300, false},
        {7500, false},
        {7500, false},
        {7500, true},
        {7900, true},
        {8100, true},
        {7900, true},
        {7900, true},
        {7900, true},
        {7900, true},
        {7900, true},
        {7900, true},
        {7900, true},
        {7900, true},
        {7900, true},
        {7900, true},
        {7900, true},
    };
    EXPECT_EQ(got, expected);
  }

  // A landing exactly on the last grid point: at poll_ns 233 the second
  // GET's response lands on a grid point, 250 ns after the adapter engine
  // started on it, so a plain read there sees it. Deadlines whose last
  // read is that grid point must still return the value there.
  {
    std::vector<std::pair<sim::Time, bool>> got;
    for (const sim::Time timeout : {7'223, 7'224, 7'300, 7'456, 7'457}) {
      rfp::ChannelConfig cfg;
      cfg.poll_ns = 233;
      ChannelWorld w(cfg);
      w.drive([](ChannelWorld& wk, sim::Time limit,
                 std::vector<std::pair<sim::Time, bool>>& out) -> Task<> {
        EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
        auto stored = co_await wk.raw_set("late", "late-value");
        EXPECT_TRUE(stored.ok());
        if (!stored.ok()) co_return;
        wk.channel->release(stored->slot);
        auto first = co_await wk.raw_get("late");
        EXPECT_TRUE(first.ok());
        if (!first.ok()) co_return;
        wk.channel->release(first->slot);
        co_await wk.sched.delay(30_us);
        auto r = co_await wk.raw_get("late", limit);
        out.emplace_back(wk.sched.now(), r.ok());
        if (r.ok()) wk.channel->release(r->slot);
      }(w, timeout, got));
    }
    const std::vector<std::pair<sim::Time, bool>> expected = {
        {66196, false},
        {66429, true},
        {66429, true},
        {66429, true},
        {66429, true},
    };
    EXPECT_EQ(got, expected);
  }

  // An endpoint that fails mid-op: the op notices on the first grid
  // point after the channel is invalidated, as a plain re-read would.
  {
    std::vector<std::pair<sim::Time, Errc>> got;
    for (const sim::Time fail_after : {1'500, 1'800, 2'100, 2'300, 5'000}) {
      ChannelWorld w;
      w.drive([](ChannelWorld& wk, sim::Time after,
                 std::vector<std::pair<sim::Time, Errc>>& out) -> Task<> {
        EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
        wk.sched.spawn([](ChannelWorld& wk2, sim::Time d) -> Task<> {
          co_await wk2.sched.delay(d);
          wk2.client_ucr.fail_endpoint(*wk2.ep);
        }(wk, after));
        auto r = co_await wk.raw_get("late");
        out.emplace_back(wk.sched.now(), r.ok() ? Errc::ok : r.error());
      }(w, fail_after, got));
    }
    const std::vector<std::pair<sim::Time, Errc>> expected = {
        {14628, Errc::disconnected},
        {14828, Errc::disconnected},
        {15228, Errc::disconnected},
        {15428, Errc::disconnected},
        {18028, Errc::disconnected},
    };
    EXPECT_EQ(got, expected);
  }
}

// ------------------------------------------------------------- chaos ----

/// Generation-stamped value (the one-sided suite's scheme): any stitch of
/// two generations fails the consistency check.
std::string gen_value(int gen, int key, std::size_t len) {
  std::string v = std::to_string(gen) + ":";
  v.append(len, static_cast<char>('a' + (gen * 7 + key * 3) % 26));
  return v;
}

bool value_consistent(const std::string& v, int key, std::size_t len) {
  const auto colon = v.find(':');
  if (colon == std::string::npos) return false;
  int gen = -1;
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + colon, gen);
  if (ec != std::errc{} || ptr != v.data() + colon) return false;
  return v == gen_value(gen, key, len);
}

TEST(Rfp, NeverServesTornValuesUnderLinkLoss) {
  mc::ClientBehavior behavior;
  behavior.op_timeout = 300_us;
  behavior.max_retries = 2;
  behavior.eject_after_failures = 0;  // pool of one: keep retrying it
  RfpWorld w(behavior);

  constexpr int kKeys = 6;
  constexpr int kGens = 30;
  constexpr std::size_t kLen = 256;

  const sim::Time t0 = w.sched.now();
  w.fabric.faults().schedule({
      {t0 + 200_us, {.kind = sim::Fault::Kind::loss,
                     .a = 1 /* client */, .b = 0 /* server */,
                     .drop_per_million = 30'000}},
      {t0 + 2_ms, {.kind = sim::Fault::Kind::loss, .a = 1, .b = 0,
                   .drop_per_million = 0}},
  });

  int hits = 0, misses = 0, transport_errors = 0, torn = 0;

  w.drive([](RfpWorld& wk, int& hits2, int& misses2, int& errors2, int& torn2) -> Task<> {
    EXPECT_TRUE((co_await wk.client->connect_all()).ok());
    for (int k = 0; k < kKeys; ++k) {
      EXPECT_TRUE((co_await wk.client->set("key" + std::to_string(k),
                                           bytes_view(gen_value(0, k, kLen))))
                      .ok());
    }

    // Interleave republishes and reads across the lossy window: every GET
    // must surface a whole generation or an error — never a stitch.
    Rng rng(7);
    for (int gen = 1; gen <= kGens; ++gen) {
      const int wk_key = static_cast<int>(rng.below(kKeys));
      (void)co_await wk.client->set("key" + std::to_string(wk_key),
                                    bytes_view(gen_value(gen, wk_key, kLen)));
      for (int i = 0; i < 8; ++i) {
        const int k = static_cast<int>(rng.below(kKeys));
        auto r = co_await wk.client->get("key" + std::to_string(k));
        if (r.ok()) {
          const std::string v(reinterpret_cast<const char*>(r->data.data()),
                              r->data.size());
          if (value_consistent(v, k, kLen)) {
            ++hits2;
          } else {
            ++torn2;
            ADD_FAILURE() << "torn value for key" << k << ": " << v.substr(0, 32);
          }
        } else if (r.error() == Errc::not_found) {
          ++misses2;
        } else {
          ++errors2;  // lossy window: bounded failures are fine
        }
      }
    }
  }(w, hits, misses, transport_errors, torn));

  EXPECT_EQ(torn, 0);
  EXPECT_GT(hits, 0);
}

// --------------------------------------------------- park / wake cycle ----

TEST(Rfp, PollLoopParksWhenIdleAndWakesForTheNextOp) {
  rfp::RingServerConfig srv;
  srv.park_after_ns = 20'000;  // park fast so the test sees a full cycle
  ChannelWorld w({}, srv);
  const std::uint64_t parks0 = metric("mc.rfp.poll.parks");
  const std::uint64_t wakes0 = metric("mc.rfp.wakes");

  w.drive([](ChannelWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    auto stored = co_await wk.raw_set("nap", "zzz");
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    wk.channel->release(stored->slot);

    // Go quiet long past the park threshold, then issue another op: the
    // channel must nudge the parked loop awake and the op must complete.
    co_await wk.sched.delay(200_us);
    EXPECT_FALSE(wk.ring->polling());
    auto r = co_await wk.raw_get("nap");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->header.status, ucrp::RStatus::value);
    wk.channel->release(r->slot);
  }(w));

  EXPECT_GT(metric("mc.rfp.poll.parks") - parks0, 0u);
  EXPECT_GT(metric("mc.rfp.wakes") - wakes0, 0u);
}

// ----------------------------------------------------- arena lifetime ----

// The response arena is exposed with a landing watch that lives in the
// Channel. Destroying the Channel must take the registration with it: a
// response still in flight is then refused at the client's adapter with a
// remote access error (which fails the server's endpoint and retires its
// ring) instead of landing in freed memory and bumping a dead counter.
TEST(Rfp, ResponseLandingAfterChannelDestroyedIsRefused) {
  ChannelWorld w;
  w.drive([](ChannelWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    auto stored = co_await wk.raw_set("gone", "gone-value");
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    wk.channel->release(stored->slot);

    // Give up long before the response can land, then drop the channel
    // with that response in flight.
    auto r = co_await wk.raw_get("gone", 1_us);
    EXPECT_EQ(r.error(), Errc::timed_out);
    EXPECT_EQ(wk.ring->ring_count(), 1u);
    wk.channel.reset();
  }(w));
  w.sched.run();
  EXPECT_EQ(w.ring->ring_count(), 0u) << "the late response write was not refused";
}

// ------------------------------------------------- bootstrap lifetime ----
//
// The ring exchange is one request/reply call. A reply that lands after
// its call ended (timeout, or superseded by a retry) must be dropped,
// never adopted, and must not touch any state the ended call owned.

TEST(Rfp, LateBootstrapReplyDoesNotArmChannel) {
  ChannelWorld w;
  w.drive([](ChannelWorld& wk) -> Task<> {
    auto r = co_await wk.client_ucr.connect(wk.server_ucr.addr(), 11211);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    wk.ep = *r;
    EXPECT_EQ((co_await wk.channel->bootstrap(*wk.ep, 100)).error(), Errc::timed_out);
    co_await wk.sched.delay(1_ms);  // the late reply lands in here
    EXPECT_FALSE(wk.channel->ready());
    EXPECT_FALSE(wk.channel->descriptor().valid());
    auto op = co_await wk.raw_get("alpha");
    EXPECT_FALSE(op.ok());  // fallback to RPC
  }(w));
}

TEST(Rfp, RetriedBootstrapDoesNotFireAFreedCounter) {
  ChannelWorld w;
  w.drive([](ChannelWorld& wk) -> Task<> {
    auto r = co_await wk.client_ucr.connect(wk.server_ucr.addr(), 11211);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    wk.ep = *r;
    EXPECT_EQ((co_await wk.channel->bootstrap(*wk.ep, 100)).error(), Errc::timed_out);
    // Retry while the first reply is still in flight: it lands during this
    // call and must neither complete it nor fire the first call's counter.
    EXPECT_TRUE((co_await wk.channel->bootstrap(*wk.ep, 1 * kNsPerSec)).ok());
    EXPECT_TRUE(wk.channel->ready());
    co_await wk.sched.delay(1_ms);
    auto set = co_await wk.raw_set("alpha", "value-one");
    EXPECT_TRUE(set.ok());
    if (set.ok()) {
      EXPECT_EQ(set->header.status, ucrp::RStatus::stored);
      wk.channel->release(set->slot);
    }
  }(w));
}

}  // namespace
}  // namespace rmc
