#include "memcached/client.hpp"

#include "memcached/binary.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <memory>

#include "common/log.hpp"
#include "ucr/wire.hpp"
#include "common/slotmap.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "onesided/remote_getter.hpp"

namespace rmc::mc {

namespace {

/// Request assembly on the client is payload work (header encode, key
/// pack, send_message staging) as opposed to simulator engine overhead.
const std::uint16_t kProfClientBuild =
    obs::profiler().register_scope("prof.mc.client.build", obs::ScopeKind::payload);

/// Sim-time spans decomposing one client operation into the paper's
/// stages: build (request format + issue), wait (fabric + server turn-
/// around), complete (reply decode + result copy). Stamps are adjacent,
/// so build + wait + complete == total exactly. Recorded on completed
/// RPC round trips; the one-sided GET path keeps its own metrics.
/// Always on: recording is two array writes, sim behavior is untouched.
struct LatencySpans {
  obs::Timer* build;
  obs::Timer* wait;
  obs::Timer* complete;
  obs::Timer* total;
};

const LatencySpans& get_spans() {
  static const LatencySpans s{&obs::registry().timer("mc.latency.get.build"),
                              &obs::registry().timer("mc.latency.get.wait"),
                              &obs::registry().timer("mc.latency.get.complete"),
                              &obs::registry().timer("mc.latency.get.total")};
  return s;
}

const LatencySpans& set_spans() {
  static const LatencySpans s{&obs::registry().timer("mc.latency.set.build"),
                              &obs::registry().timer("mc.latency.set.wait"),
                              &obs::registry().timer("mc.latency.set.complete"),
                              &obs::registry().timer("mc.latency.set.total")};
  return s;
}

const LatencySpans& mget_spans() {
  static const LatencySpans s{&obs::registry().timer("mc.latency.mget.build"),
                              &obs::registry().timer("mc.latency.mget.wait"),
                              &obs::registry().timer("mc.latency.mget.complete"),
                              &obs::registry().timer("mc.latency.mget.total")};
  return s;
}

/// A served reply as the caller's Status.
Status status(const Result<Reply>& reply) {
  return reply.ok() ? Status{} : Status{reply.error()};
}

bool get_family(Op op) { return op == Op::get || op == Op::gets; }

/// Keys past memcached's limit fail before any wire sees them.
bool long_key(std::string_view key) { return key.size() > proto::Request::kMaxKeyLen; }

}  // namespace

sim::Task<Status> ServerConn::mget_into(std::span<const std::string_view> keys,
                                        std::span<MgetSlot> slots, bool with_cas) {
  // Generic fallback: one GET per key. Values land only when the caller
  // provided a `dest` large enough — this transport has no stable internal
  // storage to point `value` at once the per-key Value dies.
  if (keys.size() > slots.size()) co_return Errc::invalid_argument;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    MgetSlot& slot = slots[i];
    slot.hit = false;
    slot.value = {};
    proto::Value value;
    Sink sink{.value = &value};
    const Command cmd{.op = with_cas ? Op::gets : Op::get, .key = keys[i]};
    auto reply = co_await execute(cmd, sink);
    if (!reply.ok()) co_return reply.error();
    if (reply->code == Code::not_found) continue;
    if (const Errc e = caller_errc(cmd.op, reply->code); e != Errc::ok) co_return e;
    slot.value_len = sink.len;
    slot.flags = reply->flags;
    slot.cas = reply->cas;
    slot.hit = true;
    if (value.data.size() <= slot.dest.size()) {
      std::memcpy(slot.dest.data(), value.data.data(), value.data.size());
      slot.value = std::span<const std::byte>(slot.dest.data(), value.data.size());
    }
  }
  co_return Status{};
}

// ------------------------------------------------------------- streams --

/// What the socket wires share: connect, liveness, and request/reply
/// exchanges over the byte stream. `Parser` frames the replies.
template <class Parser, class Response>
class StreamConn : public ServerConn {
 public:
  StreamConn(sim::Scheduler& sched, sim::Host& host, const ClientBehavior& behavior,
             sock::NetStack& stack, sim::NicAddr addr, std::uint16_t port)
      : sched_(&sched), host_(&host), behavior_(behavior), stack_(&stack), addr_(addr),
        port_(port) {}

  sim::Task<Status> connect() override {
    auto r = co_await stack_->connect(addr_, port_);
    if (!r.ok()) co_return r.error();
    socket_ = *r;
    co_return Status{};
  }

  bool alive() const override {
    return socket_ && socket_->state() == sock::SockState::established;
  }

 protected:
  /// Charge the request marshalling (format_ns), send `request`, and read
  /// the next reply off the stream. An empty request only reads: the
  /// pipelined replies after the first. `expect`: the text parser's reply
  /// shape; the binary parser takes none.
  template <class... Expect>
  sim::Task<Result<Response>> round_trip(std::span<const std::byte> request, Expect... expect) {
    if (!request.empty()) {
      co_await host_->cpu().consume(behavior_.format_ns);
      auto sent = co_await socket_->send(request);
      if (!sent.ok()) co_return sent.error();
    }
    while (true) {
      auto parsed = parser_.next(expect...);
      if (!parsed.ok()) co_return parsed.error();
      if (parsed->has_value()) co_return std::move(**parsed);
      auto n = co_await socket_->recv(rx_buf_);
      if (!n.ok()) co_return n.error();
      if (*n == 0) co_return Errc::disconnected;
      parser_.feed(std::span<const std::byte>(rx_buf_.data(), *n));
    }
  }

  /// Charge copying `bytes` of reply values into the caller's result.
  auto charge_copy(std::size_t bytes) {
    return host_->cpu().consume(static_cast<sim::Time>(static_cast<double>(bytes) *
                                                       behavior_.result_copy_ns_per_byte));
  }

  /// Land a GET hit's bytes in `sink`: moved into its Value, or copied
  /// into its buffer.
  static Status land(Sink& sink, std::vector<std::byte>& data) {
    sink.len = static_cast<std::uint32_t>(data.size());
    if (sink.value != nullptr) {
      sink.value->data = std::move(data);
      return {};
    }
    if (data.size() > sink.dest.size()) return Errc::too_large;
    std::memcpy(sink.dest.data(), data.data(), data.size());
    return {};
  }

  sim::Scheduler* sched_;
  sim::Host* host_;
  ClientBehavior behavior_;
  sock::NetStack* stack_;
  sim::NicAddr addr_;
  std::uint16_t port_;
  sock::Socket* socket_ = nullptr;
  Parser parser_;
  std::array<std::byte, 16 * 1024> rx_buf_;  ///< recv landing area, reused by every op
};

// ---------------------------------------------------------------- text --

class TextConn final : public StreamConn<proto::ResponseParser, proto::Response> {
 public:
  using StreamConn::StreamConn;

  sim::Task<Result<Reply>> execute(const Command& cmd, Sink& sink) override {
    if (!alive()) co_return Errc::disconnected;
    // Stream conns have no build/wait boundary (one buffered round trip),
    // so only the end-to-end spans are recorded.
    const sim::Time t0 = sched_->now();
    auto resp = co_await round_trip(proto::encode_request(request(cmd)), expect(cmd.op));
    if (!resp.ok()) co_return resp.error();
    Reply reply{.code = text_code(*resp), .number = resp->number};
    if (get_family(cmd.op)) {
      std::size_t copied = 0;
      for (const auto& value : resp->values) copied += value.data.size();
      co_await charge_copy(copied);
      if (reply.code != Code::value) co_return reply;
      get_spans().total->record(sched_->now() - t0);
      proto::Value& hit = resp->values.front();
      reply.flags = hit.flags;
      reply.cas = hit.cas;
      const Status landed = land(sink, hit.data);
      if (!landed.ok()) co_return landed.error();
    } else if (ucrp::is_storage(cmd.op)) {
      set_spans().total->record(sched_->now() - t0);
    }
    co_return reply;
  }

  sim::Task<Result<std::vector<std::optional<proto::Value>>>> mget(
      std::span<const std::string> keys, bool with_cas) override {
    if (!alive()) co_return Errc::disconnected;
    proto::Request req;
    req.command = with_cas ? proto::Command::gets : proto::Command::get;
    for (const auto& k : keys) {
      if (!req.add_key(k)) co_return Errc::invalid_argument;
    }
    auto resp = co_await round_trip(proto::encode_request(req),
                                    proto::ResponseParser::Expect::values);
    if (!resp.ok()) co_return resp.error();

    std::vector<std::optional<proto::Value>> out(keys.size());
    std::size_t copied_bytes = 0;
    for (auto& value : resp->values) {
      copied_bytes += value.data.size();
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] == value.key && !out[i]) {
          out[i] = std::move(value);
          break;
        }
      }
    }
    co_await charge_copy(copied_bytes);
    co_return out;
  }

 private:
  /// The text encode: `cmd` as a request line (and data block).
  static proto::Request request(const Command& cmd) {
    proto::Request req;
    req.command = command(cmd.op);
    // No key for flush_all (or an empty key): add_key would copy from
    // the view's null data.
    if (!cmd.key.empty()) req.set_key(cmd.key);
    req.flags = cmd.flags;
    req.exptime = cmd.exptime;
    req.cas_unique = cmd.cas;
    req.delta = cmd.delta;
    req.data.assign(cmd.value.begin(), cmd.value.end());
    return req;
  }

  static proto::Command command(Op op) {
    switch (op) {
      case Op::get: return proto::Command::get;
      case Op::gets: return proto::Command::gets;
      case Op::set: return proto::Command::set;
      case Op::add: return proto::Command::add;
      case Op::replace: return proto::Command::replace;
      case Op::append: return proto::Command::append;
      case Op::prepend: return proto::Command::prepend;
      case Op::cas: return proto::Command::cas;
      case Op::del: return proto::Command::del;
      case Op::incr: return proto::Command::incr;
      case Op::decr: return proto::Command::decr;
      case Op::touch: return proto::Command::touch;
      case Op::flush_all: return proto::Command::flush_all;
      case Op::version:
      case Op::mget: break;
    }
    return proto::Command::version;
  }

  /// The text protocol is not self-describing: the reply shape follows
  /// from the op.
  static proto::ResponseParser::Expect expect(Op op) {
    using Expect = proto::ResponseParser::Expect;
    if (get_family(op)) return Expect::values;
    return op == Op::incr || op == Op::decr ? Expect::number : Expect::simple;
  }
};

// -------------------------------------------------------------- binary --

/// ServerConn speaking the memcached binary protocol over a byte stream
/// (ClientBehavior::binary_protocol). Multi-get uses the pipelined
/// getkq...noop pattern real binary clients use.
class BinaryConn final : public StreamConn<bproto::ResponseParser, bproto::Response> {
 public:
  using StreamConn::StreamConn;

  sim::Task<Result<Reply>> execute(const Command& cmd, Sink& sink) override {
    if (!alive()) co_return Errc::disconnected;
    const sim::Time t0 = sched_->now();
    auto resp = co_await round_trip(bproto::encode_request(request(cmd)));
    if (!resp.ok()) co_return resp.error();
    Reply reply{.code = binary_code(cmd.op, resp->status), .number = resp->number};
    if (reply.code == Code::value) {
      reply.flags = resp->flags;
      reply.cas = resp->cas;
      co_await charge_copy(resp->value.size());
      get_spans().total->record(sched_->now() - t0);
      const Status landed = land(sink, resp->value);
      if (!landed.ok()) co_return landed.error();
    } else if (reply.code == Code::stored) {
      set_spans().total->record(sched_->now() - t0);
    }
    co_return reply;
  }

  sim::Task<Result<std::vector<std::optional<proto::Value>>>> mget(
      std::span<const std::string> keys, bool /*with_cas*/) override {
    if (!alive()) co_return Errc::disconnected;
    // Pipeline: one quiet getkq per key, then a noop fence. Misses stay
    // silent; hits come back tagged with opaque and key.
    std::vector<std::byte> wire;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      bproto::Request req;
      req.opcode = bproto::Opcode::getkq;
      req.key = keys[i];
      req.opaque = static_cast<std::uint32_t>(i);
      const auto bytes = bproto::encode_request(req);
      wire.insert(wire.end(), bytes.begin(), bytes.end());
    }
    bproto::Request fence;
    fence.opcode = bproto::Opcode::noop;
    fence.opaque = 0xffffffff;
    const auto fence_bytes = bproto::encode_request(fence);
    wire.insert(wire.end(), fence_bytes.begin(), fence_bytes.end());

    std::vector<std::optional<proto::Value>> out(keys.size());
    std::span<const std::byte> pending = wire;
    while (true) {
      auto resp = co_await round_trip(pending);
      pending = {};
      if (!resp.ok()) co_return resp.error();
      if (resp->opcode == bproto::Opcode::noop) co_return out;
      if (resp->opcode == bproto::Opcode::getkq && resp->opaque < out.size()) {
        proto::Value value;
        value.key = resp->key;
        value.flags = resp->flags;
        value.cas = resp->cas;
        value.data = std::move(resp->value);
        out[resp->opaque] = std::move(value);
      }
    }
  }

 private:
  /// The binary encode: `cmd` as one request frame. A cas is a set
  /// carrying the cas id; incr/decr fail on a miss, like the text protocol.
  static bproto::Request request(const Command& cmd) {
    bproto::Request req;
    req.opcode = opcode(cmd.op);
    req.key = std::string(cmd.key);
    req.value.assign(cmd.value.begin(), cmd.value.end());
    req.flags = cmd.flags;
    req.exptime = cmd.exptime;
    req.delta = cmd.delta;
    req.cas = cmd.cas;
    return req;
  }

  static bproto::Opcode opcode(Op op) {
    using bproto::Opcode;
    switch (op) {
      case Op::get:
      case Op::gets:
      case Op::mget: return Opcode::get;
      case Op::set:
      case Op::cas: return Opcode::set;
      case Op::add: return Opcode::add;
      case Op::replace: return Opcode::replace;
      case Op::append: return Opcode::append;
      case Op::prepend: return Opcode::prepend;
      case Op::del: return Opcode::del;
      case Op::incr: return Opcode::increment;
      case Op::decr: return Opcode::decrement;
      case Op::touch: return Opcode::touch;
      case Op::flush_all: return Opcode::flush;
      case Op::version: return Opcode::version;
    }
    return Opcode::version;
  }
};

// ----------------------------------------------------------------- ucr --

class UcrConn final : public ServerConn {
 public:
  UcrConn(sim::Scheduler& sched, sim::Host& host, const ClientBehavior& behavior,
          ucr::Runtime& runtime, sim::NicAddr addr, std::uint16_t port)
      : sched_(&sched), host_(&host), behavior_(behavior), runtime_(&runtime), addr_(addr),
        port_(port) {
    ensure_handler(runtime);
    // Uninitialized, like the ucr::Runtime arenas: a bump-allocated landing
    // area is written (by RDMA or a memcpy) before any byte of it is read,
    // and zeroing 8 MiB per connection would fault in every page at setup.
    arena_size_ = std::max<std::size_t>(behavior.arena_bytes, 1024);
    arena_ = std::make_unique_for_overwrite<std::byte[]>(arena_size_);
    // Endpoint death must not leave in-flight operations to ride out their
    // timeouts: fail every pending request the moment the runtime reports
    // the endpoint down, so callers see Errc::disconnected immediately.
    down_handler_ = runtime.on_endpoint_down([this](ucr::Endpoint& ep, Errc) {
      if (&ep != ep_) return;
      ep_ = nullptr;
      obs::registry().counter("mc.client.disconnects").inc();
      pending_.for_each([](std::uint64_t, Pending& p) {
        p.failed = true;
        if (p.counter) p.counter->fail_waiters();
      });
    });
  }

  ~UcrConn() override {
    runtime_->remove_endpoint_handler(down_handler_);
    runtime_->deregister_region({arena_.get(), arena_size_});
  }

  sim::Task<Status> connect() override {
    const auto type =
        behavior_.unreliable_ucr ? ucr::EpType::unreliable : ucr::EpType::reliable;
    auto r = co_await runtime_->connect(addr_, port_, type, behavior_.op_timeout);
    if (!r.ok()) co_return r.error();
    ep_ = *r;
    ep_->set_user_data(this);
    runtime_->register_region({arena_.get(), arena_size_});
    const auto mode = behavior_.mode;
    if (mode == ClientBehavior::Mode::onesided_get && !behavior_.unreliable_ucr) {
      // Bootstrap the one-sided index descriptor (one RPC). Failure only
      // degrades this connection to RPC GETs; the connect itself succeeded.
      if (!getter_) {
        getter_ = std::make_unique<onesided::RemoteGetter>(
            *runtime_, onesided::GetterConfig{.max_torn_retries = behavior_.onesided_torn_retries,
                                              .read_timeout = behavior_.op_timeout});
      }
      (void)co_await getter_->bootstrap(*ep_, behavior_.op_timeout);
    } else if (mode == ClientBehavior::Mode::rfp && !behavior_.unreliable_ucr) {
      // Bootstrap the RFP ring pair (one RPC, DESIGN.md §16). Failure only
      // degrades this connection to classic RPC; the connect succeeded.
      if (!rfp_) {
        rfp_ = std::make_unique<rfp::Channel>(*runtime_, *host_, behavior_.rfp);
      }
      (void)co_await rfp_->bootstrap(*ep_, behavior_.op_timeout);
    }
    co_return Status{};
  }

  bool alive() const override { return ep_ && ep_->state() == ucr::EpState::ready; }

  sim::Task<Result<Reply>> execute(const Command& cmd, Sink& sink) override {
    // The UCR encode: the command's fields in the request header; flush_all
    // carries its delay in `delta` and a placeholder key.
    const bool get = get_family(cmd.op);
    auto header = co_await run(
        {.op = cmd.op,
         .key = cmd.op == Op::flush_all ? std::string_view{"-"} : cmd.key,
         .value = cmd.value,
         .extra = {.flags = cmd.flags,
                   .exptime = cmd.exptime,
                   .cas = cmd.cas,
                   .delta = cmd.op == Op::flush_all ? cmd.exptime : cmd.delta},
         .spans = get ? &get_spans() : ucrp::is_storage(cmd.op) ? &set_spans() : nullptr,
         .sink = get ? &sink : nullptr});
    if (!header.ok()) co_return header.error();
    co_return Reply{.code = ucr_code(header->status),
                    .number = header->number,
                    .flags = header->flags,
                    .cas = header->cas};
  }

  sim::Task<Result<std::vector<std::optional<proto::Value>>>> mget(
      std::span<const std::string> keys, bool with_cas) override {
    // Thin wrapper over the batched path: the server answers the whole key
    // list in one pass (§V: mget built from the same principles as get).
    std::vector<std::string_view> views(keys.begin(), keys.end());
    std::vector<MgetSlot> slots(keys.size());
    auto st = co_await mget_into(views, slots, with_cas);
    if (!st.ok()) co_return st.error();
    std::vector<std::optional<proto::Value>> out(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (!slots[i].hit) continue;
      proto::Value value;
      value.key = keys[i];
      value.flags = slots[i].flags;
      value.cas = slots[i].cas;
      value.data.assign(slots[i].value.begin(), slots[i].value.end());
      out[i] = std::move(value);
    }
    co_return out;
  }

  sim::Task<Status> mget_into(std::span<const std::string_view> keys,
                              std::span<MgetSlot> slots, bool with_cas) override {
    // True server-side multiget (the tentpole of the batching design). On
    // the rings the whole key block rides one request slot and the whole
    // reply one response slot; over RPC the key list packs into as few
    // request AMs as fit the eager frame (see rpc_mget). Steady state
    // allocates nothing: key blocks live on this frame, values land in the
    // caller's buffers or the arena.
    (void)with_cas;  // records always carry the CAS id
    if (keys.size() > slots.size()) co_return Errc::invalid_argument;
    if (keys.empty()) co_return Status{};
    // Reset the arena up front (values of the *previous* op die at the next
    // op, per the MgetSlot contract) so back-to-back mgets reuse it instead
    // of marching the bump pointer to the overflow path.
    maybe_reset_arena();
    std::byte block[ucrp::kMaxMgetKeyBlock];
    ucrp::RequestHeader extra;
    extra.delta = keys.size();
    auto reply = co_await run({.op = ucrp::Op::mget,
                               .extra = extra,
                               .spans = &mget_spans(),
                               .keys = keys,
                               .slots = slots.first(keys.size()),
                               .block = block});
    if (!reply.ok()) co_return reply.error();
    co_return Status{};
  }

 private:
  /// Shared state of one multiget sub-request, owned by the rpc_mget
  /// coroutine frame; response chunks scatter into it as they land. A
  /// sub-request abandoned early (sibling failure) must be drop_mget()ed
  /// so late chunks cannot chase this pointer into a dead frame.
  struct MgetPending {
    std::span<MgetSlot> slots{};     ///< answers keys[start..start+n) of the request
    std::uint32_t total_chunks = 0;  ///< learned from the first chunk to land
    std::uint32_t chunks_seen = 0;
    bool error = false;      ///< server answered with a bare error header
    bool malformed = false;  ///< a chunk did not decode (protocol_error)
  };

  struct Pending {
    ucrp::ResponseHeader response{};
    std::span<std::byte> dest{};
    std::span<std::byte> user_dest{};  ///< get_into: land the value here
    MgetPending* mget = nullptr;       ///< multiget: scatter target
    std::uint32_t value_len = 0;
    bool done = false;
    bool failed = false;  ///< endpoint died while this op was in flight
    sim::Counter* counter = nullptr;
    std::uint64_t wait_target = 0;
    std::size_t counter_slot = 0;
  };

  /// One response handler per runtime, shared by all UcrConns on it; it
  /// dispatches through the endpoint's user_data.
  static void ensure_handler(ucr::Runtime& runtime);

  /// One op as the op path runs it.
  struct Call {
    ucrp::Op op;
    std::string_view key{};
    std::span<const std::byte> value{};  ///< storage payload
    ucrp::RequestHeader extra{};         ///< op-specific header fields
    const LatencySpans* spans = nullptr;  ///< recorded when RPC serves the op
    Sink* sink = nullptr;                 ///< GET family only
    // mget only: the keys, their answer slots, and scratch for packing the
    // whole key block into one ring request.
    std::span<const std::string_view> keys{};
    std::span<MgetSlot> slots{};
    std::span<std::byte> block{};
  };

  /// The op path: every op of every mode runs through here. It tries the
  /// mode's bypass (a one-sided Read for GET, the RFP rings for the rest),
  /// decides whether a failed bypass may re-run over RPC, and otherwise
  /// issues the op as one active message (§V). The reply comes back
  /// undecoded — execute() decodes its status — except that a
  /// GET-family value has landed in the call's sink and an mget's answers
  /// in its slots. Copying bytes out of transport storage into the
  /// caller's result is charged result_copy_ns_per_byte; the mc.latency
  /// spans are recorded only when RPC served the op (a GET miss records
  /// none).
  sim::Task<Result<ucrp::ResponseHeader>> run(Call call) {
    if (!alive()) co_return Errc::disconnected;
    const sim::Time t0 = sched_->now();
    co_await host_->cpu().consume(behavior_.format_ns);
    const bool get = get_family(call.op);

    if (get && getter_ && getter_->ready()) {
      // The getter is non-authoritative and its Reads never reach the
      // server: anything short of a verified hit goes to RPC.
      auto hit = co_await getter_->try_get(*ep_, call.key);
      if (hit.ok()) {
        ucrp::ResponseHeader header;
        header.status = ucrp::RStatus::value;
        header.flags = hit->flags;
        header.cas = hit->cas;
        auto copied = receive(call, header, hit->value);
        if (!copied.ok()) co_return copied.error();
        co_await host_->cpu().consume(copy_cost(*copied));
        co_return header;
      }
    }

    // flush_all (and version) stay RPC-only; so does an mget whose key
    // block does not fit one request slot.
    const bool mget = call.op == ucrp::Op::mget;
    const std::span<const std::byte> head = mget ? ring_mget_block(call) : key_bytes(call.key);
    if (rfp_ && rfp_->ready() && call.op != ucrp::Op::flush_all && (!mget || !head.empty())) {
      ucrp::RequestHeader hdr = call.extra;
      hdr.op = call.op;
      hdr.key_len = static_cast<std::uint16_t>(head.size());
      auto out = co_await rfp_->execute(*ep_, hdr, head, call.value, behavior_.op_timeout);
      // A full ring or an oversize body never left the client. Any other
      // failure came after the request frame was posted, so the server
      // may still execute it (DESIGN.md §16 fallback matrix).
      const bool posted =
          out.ok() || (out.error() != Errc::too_large && out.error() != Errc::no_resources);
      Errc failure = out.ok() ? Errc::ok : out.error();
      if (out.ok()) {
        const ucrp::ResponseHeader header = out->header;
        // reply_overflow: the reply did not fit one response slot.
        Result<std::uint64_t> copied = Errc::no_resources;
        if (header.status != ucrp::RStatus::reply_overflow) {
          copied = receive(call, header, out->body);
        } else {
          rfp_fallbacks_->inc();
        }
        rfp_->release(out->slot);  // the body dies here
        if (copied.ok()) {
          co_await host_->cpu().consume(copy_cost(*copied));
          co_return header;
        }
        if (copied.error() == Errc::too_large) co_return Errc::too_large;  // get_into's answer
        failure = copied.error();
      }
      if (posted && !idempotent(call.op)) co_return failure;
    }

    if (!alive()) co_return Errc::disconnected;
    sim::Time t1 = 0;
    ucrp::ResponseHeader header;
    Result<std::uint64_t> copied = std::uint64_t{0};
    if (mget) {
      auto st = co_await rpc_mget(call.keys, call.slots, call.block, &t1);
      if (!st.ok()) co_return st.error();
      header.status = ucrp::RStatus::value;
      copied = hit_bytes(call.slots);
    } else {
      ucrp::RequestHeader hdr = call.extra;
      hdr.op = call.op;
      Pending pending;
      if (call.sink != nullptr) pending.user_dest = call.sink->dest;
      auto issued = issue(hdr, key_bytes(call.key), call.value, pending);
      if (!issued.ok()) co_return issued.error();
      t1 = sched_->now();
      auto reply = co_await await_reply(*issued);
      if (!reply.ok()) co_return reply.error();
      header = reply->response;
      copied = receive(call, header, reply->dest.first(reply->value_len));
    }
    const sim::Time t2 = sched_->now();
    if (copied.ok()) co_await host_->cpu().consume(copy_cost(*copied));
    // mget values stay in the arena until the next op; a plain op's reply
    // is consumed by now.
    if (!mget) maybe_reset_arena();
    if (!copied.ok()) co_return copied.error();
    if (call.spans != nullptr && (!get || header.status == ucrp::RStatus::value)) {
      const sim::Time t3 = sched_->now();
      call.spans->build->record(t1 - t0);
      call.spans->wait->record(t2 - t1);
      call.spans->complete->record(t3 - t2);
      call.spans->total->record(t3 - t0);
    }
    co_return header;
  }

  /// Take a served reply's payload into the op's result: a GET value
  /// lands in the sink, a single-frame mget reply scatters into the
  /// slots. Returns the bytes copied out of transport storage (a value
  /// RPC already landed in get_into's buffer copies nothing). too_large:
  /// the value does not fit get_into's buffer. protocol_error: an mget
  /// reply that is not one well-formed chunk for the whole key list.
  Result<std::uint64_t> receive(const Call& call, const ucrp::ResponseHeader& header,
                                std::span<const std::byte> body) {
    if (call.op == ucrp::Op::mget) {
      if (header.status != ucrp::RStatus::value || body.size() < ucrp::MgetChunkHeader::kSize) {
        return Errc::protocol_error;
      }
      const auto chunk = codec::decode<ucrp::MgetChunkHeader>(body.data());
      const std::size_t values_at =
          ucrp::MgetChunkHeader::kSize +
          static_cast<std::size_t>(chunk.record_count) * ucrp::MgetRecord::kSize;
      if (chunk.total_chunks != 1 || chunk.start_index != 0 ||
          chunk.record_count != call.slots.size() || values_at > body.size()) {
        return Errc::protocol_error;
      }
      // The body dies at release: copy every value out (stable = false).
      const std::span<const std::byte> records =
          body.first(values_at).subspan(ucrp::MgetChunkHeader::kSize);
      const Status st =
          decode_mget_chunk(chunk, records, body.subspan(values_at), call.slots, false);
      if (!st.ok()) return st.error();
      return hit_bytes(call.slots);
    }
    if (call.sink == nullptr || header.status != ucrp::RStatus::value) return std::uint64_t{0};
    Sink& sink = *call.sink;
    sink.len = static_cast<std::uint32_t>(body.size());
    if (sink.value != nullptr) {
      sink.value->data.assign(body.begin(), body.end());
      return body.size();
    }
    if (body.size() > sink.dest.size()) return Errc::too_large;
    if (body.data() == sink.dest.data()) return std::uint64_t{0};  // landed in place
    std::copy(body.begin(), body.end(), sink.dest.begin());
    return body.size();
  }

  /// Decode one mget reply chunk — `records` then the values they describe,
  /// back to back in `values` — into `slots`, starting at the chunk's
  /// start_index. A value lands in its slot's `dest` when it fits;
  /// otherwise the slot points into `values` when that storage outlives
  /// the op (`stable`: the RPC arena) or at an arena copy. A malformed
  /// chunk (records past the slots or past `records`, values short of
  /// their lengths) is a protocol_error; the slot it stopped at is left
  /// untouched.
  Status decode_mget_chunk(const ucrp::MgetChunkHeader& chunk,
                           std::span<const std::byte> records,
                           std::span<const std::byte> values, std::span<MgetSlot> slots,
                           bool stable) {
    if (chunk.start_index > slots.size() ||
        chunk.record_count > slots.size() - chunk.start_index ||
        records.size() < static_cast<std::size_t>(chunk.record_count) * ucrp::MgetRecord::kSize) {
      return Errc::protocol_error;
    }
    std::size_t off = 0;
    for (std::uint32_t i = 0; i < chunk.record_count; ++i) {
      const auto rec =
          codec::decode<ucrp::MgetRecord>(records.data() + i * ucrp::MgetRecord::kSize);
      MgetSlot& slot = slots[chunk.start_index + i];
      if (rec.status != ucrp::RStatus::value) {
        slot.hit = false;
        slot.value = {};
        continue;
      }
      if (rec.value_len > values.size() - off) return Errc::protocol_error;
      const std::span<const std::byte> bytes = values.subspan(off, rec.value_len);
      off += rec.value_len;
      slot.hit = true;
      slot.flags = rec.flags;
      slot.cas = rec.cas;
      slot.value_len = rec.value_len;
      if (stable && rec.value_len > slot.dest.size()) {
        slot.value = bytes;
        continue;
      }
      const std::span<std::byte> land = rec.value_len <= slot.dest.size()
                                            ? slot.dest.first(rec.value_len)
                                            : arena_alloc(rec.value_len);
      std::copy(bytes.begin(), bytes.end(), land.begin());
      slot.value = land;
    }
    return Status{};
  }

  static std::uint64_t hit_bytes(std::span<const MgetSlot> slots) {
    std::uint64_t bytes = 0;
    for (const MgetSlot& slot : slots) {
      if (slot.hit) bytes += slot.value.size();
    }
    return bytes;
  }

  sim::Time copy_cost(std::uint64_t bytes) const {
    return static_cast<sim::Time>(static_cast<double>(bytes) *
                                  behavior_.result_copy_ns_per_byte);
  }

  /// Pack an mget's whole key block into call.block for one ring request;
  /// empty when the ring is down or the block would not fit one slot.
  std::span<const std::byte> ring_mget_block(const Call& call) const {
    if (!rfp_ || !rfp_->ready()) return {};
    std::size_t block = 0;
    for (const auto& key : call.keys) {
      block += ucrp::mget_entry_size(key);
      if (block > call.block.size()) return {};
    }
    if (ucrp::RequestHeader::kSize + block > rfp_->max_body()) return {};
    return call.block.first(pack_mget(call.keys, call.block));
  }

  /// Pack `keys` back to back into `out` (which must fit them); returns
  /// the bytes written.
  static std::size_t pack_mget(std::span<const std::string_view> keys, std::span<std::byte> out) {
    std::size_t off = 0;
    for (const auto& key : keys) off += ucrp::pack_mget_key(out.data() + off, key);
    return off;
  }

  /// The RPC leg of mget: issue the key list as waves of sub-requests, each
  /// wave under a single doorbell, and wait out every chunked reply.
  /// `issued_at` is stamped once the first wave is out.
  sim::Task<Status> rpc_mget(std::span<const std::string_view> keys, std::span<MgetSlot> slots,
                             std::span<std::byte> block, sim::Time* issued_at) {
    // Key-block budget per sub-request: one eager frame (UD: one MTU)
    // minus AM wire + request header overhead.
    std::size_t frame = runtime_->config().eager_limit;
    if (behavior_.unreliable_ucr) {
      frame = std::min<std::size_t>(frame, runtime_->hca().costs().ud_mtu);
    }
    const std::size_t budget =
        std::min(ucrp::kMaxMgetKeyBlock,
                 frame - ucr::wire::AmWire::kSize - ucrp::RequestHeader::kSize);

    struct Sub {
      MgetPending ctx;
      std::uint64_t req_id = 0;
    };
    static constexpr std::size_t kWave = 16;  // < credits_per_ep: no backlog
    std::array<Sub, kWave> subs;
    std::size_t next = 0;
    bool first_wave = true;
    while (next < keys.size()) {
      // Issue a wave of sub-requests under a single doorbell.
      std::size_t nsubs = 0;
      runtime_->begin_send_batch();
      while (next < keys.size() && nsubs < kWave) {
        const std::size_t start = next;
        std::size_t bytes = 0;
        while (next < keys.size()) {
          const std::size_t need = ucrp::mget_entry_size(keys[next]);
          if (bytes != 0 && bytes + need > budget) break;
          bytes += need;
          ++next;
        }
        Sub& sub = subs[nsubs];
        sub.ctx = MgetPending{};
        sub.ctx.slots = slots.subspan(start, next - start);
        ucrp::RequestHeader header;
        header.op = ucrp::Op::mget;
        header.delta = next - start;
        Pending pending;
        pending.mget = &sub.ctx;
        const std::size_t packed = pack_mget(keys.subspan(start, next - start), block);
        auto issued = issue(header, block.first(packed), {}, pending);
        if (!issued.ok()) {
          runtime_->end_send_batch();
          for (std::size_t i = 0; i < nsubs; ++i) drop_mget(subs[i].req_id);
          co_return issued.error();
        }
        sub.req_id = *issued;
        ++nsubs;
      }
      runtime_->end_send_batch();
      if (first_wave) {
        *issued_at = sched_->now();
        first_wave = false;
      }
      for (std::size_t i = 0; i < nsubs; ++i) {
        auto st = co_await await_mget(subs[i].req_id, subs[i].ctx);
        if (!st.ok()) {
          // Sibling sub-requests still reference this frame's MgetPending
          // contexts through their Pendings: drop them before unwinding so
          // a late chunk cannot dereference a dead frame.
          for (std::size_t j = i + 1; j < nsubs; ++j) drop_mget(subs[j].req_id);
          co_return st;
        }
      }
    }
    co_return Status{};
  }
  static std::span<const std::byte> key_bytes(std::string_view key) {
    return std::as_bytes(std::span<const char>(key.data(), key.size()));
  }

  /// Send one request AM — `header`, then `head` (the key, or an mget
  /// key block) — carrying `tail` as its data, under a fresh reply
  /// counter. Returns the req_id that `pending` is filed under.
  Result<std::uint64_t> issue(ucrp::RequestHeader header, std::span<const std::byte> head,
                              std::span<const std::byte> tail, Pending pending) {
    obs::ProfScope prof{kProfClientBuild};
    auto [counter, ref, slot] = acquire_counter();
    pending.counter = counter;
    pending.wait_target = counter->value() + 1;
    pending.counter_slot = slot;
    // The slot-map key doubles as the wire req_id (opaque, echoed back).
    const std::uint64_t req_id = pending_.emplace(pending);

    header.key_len = static_cast<std::uint16_t>(head.size());
    header.req_id = req_id;
    header.reply_counter = ref.id;
    // Heads are bounded, so the AM packs on the stack; send_message copies
    // it out (slot or backlog) before returning.
    std::byte packed[ucrp::RequestHeader::kSize + ucrp::kMaxMgetKeyBlock];
    codec::encode(header, packed);
    std::copy(head.begin(), head.end(), packed + ucrp::RequestHeader::kSize);

    const Status sent = runtime_->send_message(
        *ep_, ucrp::kMsgRequest,
        std::span<const std::byte>(packed, ucrp::RequestHeader::kSize + head.size()), tail,
        nullptr, {}, nullptr);
    if (!sent.ok()) {
      release_counter(slot);
      pending_.erase(req_id);
      return sent.error();
    }
    return req_id;
  }

  /// Wait out all response chunks of one multiget sub-request. At most two
  /// suspensions regardless of chunk count: one until the first chunk
  /// reveals total_chunks, one until the counter reaches the full target
  /// (a batch-drained reply coalesces both into a single wake-up).
  sim::Task<Status> await_mget(std::uint64_t req_id, MgetPending& ctx) {
    Pending* p = pending_.get(req_id);
    assert(p != nullptr);
    bool ok = true;
    sim::Counter* counter = p->counter;
    const std::uint64_t base = p->wait_target;
    if (!p->failed) {
      ok = co_await counter->wait_geq(base, behavior_.op_timeout);
      p = pending_.get(req_id);  // slots may have moved while suspended
      if (p == nullptr) co_return Errc::protocol_error;
    }
    if (ok && !p->failed && !p->done && !ctx.error && ctx.total_chunks > 1) {
      ok = co_await counter->wait_geq(base - 1 + ctx.total_chunks, behavior_.op_timeout);
      p = pending_.get(req_id);
      if (p == nullptr) co_return Errc::protocol_error;
    }
    const bool failed = p->failed;
    const bool done = p->done;
    const ucrp::RStatus status = p->response.status;
    const std::size_t counter_slot = p->counter_slot;
    pending_.erase(req_id);
    release_counter(counter_slot);
    if (failed) co_return Errc::disconnected;
    if (!ok) {
      obs::registry().counter("mc.client.timeouts").inc();
      co_return Errc::timed_out;
    }
    if (ctx.error) {
      const Errc e = outcome_row(ucr_code(status)).errc;
      co_return e == Errc::ok ? Errc::protocol_error : e;
    }
    if (ctx.malformed || !done) co_return Errc::protocol_error;
    co_return Status{};
  }

  /// Abandon an issued multiget sub-request: unlink its Pending (late
  /// chunks then drop on the floor in on_response_header) and recycle the
  /// counter. Monotonic counters make the recycle safe.
  void drop_mget(std::uint64_t req_id) {
    Pending* p = pending_.get(req_id);
    if (p == nullptr) return;
    release_counter(p->counter_slot);
    pending_.erase(req_id);
  }

  /// Wait out the reply for `req_id` and pop its Pending. Error means the
  /// operation failed wholesale (timeout / stale id).
  sim::Task<Result<Pending>> await_reply(std::uint64_t req_id) {
    Pending* p = pending_.get(req_id);
    assert(p != nullptr);
    bool ok = true;
    if (!p->failed) {  // a dead endpoint never delivers; don't wait for it
      sim::Counter* counter = p->counter;
      const std::uint64_t target = p->wait_target;
      ok = co_await counter->wait_geq(target, behavior_.op_timeout);
      p = pending_.get(req_id);  // slots may have moved while suspended
      if (p == nullptr) co_return Errc::protocol_error;
    }
    const Pending pending = *p;
    pending_.erase(req_id);
    release_counter(pending.counter_slot);
    if (pending.failed) co_return Errc::disconnected;
    if (!ok) {
      obs::registry().counter("mc.client.timeouts").inc();
      co_return Errc::timed_out;
    }
    co_return pending;
  }

  // ---- response arrival (called from the shared runtime handler) ----
  std::span<std::byte> on_response_header(std::span<const std::byte> header,
                                          std::uint32_t data_len) {
    const auto resp = codec::decode<ucrp::ResponseHeader>(header.data());
    Pending* p = pending_.get(resp.req_id);
    if (p == nullptr) return {};
    if (p->mget != nullptr) {
      // Multiget chunk: the gathered hit values land in the arena and the
      // slots keep pointing there (valid until the next op, per contract).
      return arena_alloc(data_len);
    }
    // The item length is known only now (§V-C): land directly in the
    // caller's get_into buffer when it fits, else allocate from the pool.
    if (!p->user_dest.empty() && data_len <= p->user_dest.size()) {
      p->dest = p->user_dest.first(data_len);
    } else {
      p->dest = arena_alloc(data_len);
    }
    p->value_len = data_len;
    return p->dest;
  }

  void on_response_complete(std::span<const std::byte> header, std::span<std::byte> data) {
    const auto resp = codec::decode<ucrp::ResponseHeader>(header.data());
    Pending* p = pending_.get(resp.req_id);
    if (p == nullptr) return;
    if (p->mget != nullptr) {
      on_mget_chunk(*p, resp, header, data);
      return;
    }
    p->response = resp;
    p->done = true;
    // The UCR target counter (counter C) fires right after this handler.
  }

  /// Scatter one multiget response chunk into the sub-request's slots.
  /// A malformed chunk fails the sub-request once all its chunks are in.
  void on_mget_chunk(Pending& p, const ucrp::ResponseHeader& resp,
                     std::span<const std::byte> header, std::span<std::byte> data) {
    MgetPending& ctx = *p.mget;
    constexpr std::size_t kRecordsAt = ucrp::ResponseHeader::kSize + ucrp::MgetChunkHeader::kSize;
    if (header.size() < kRecordsAt) {
      // Bare ResponseHeader: the server failed the whole sub-request.
      p.response = resp;
      ctx.error = true;
      p.done = true;
      return;
    }
    const auto chunk =
        codec::decode<ucrp::MgetChunkHeader>(header.data() + ucrp::ResponseHeader::kSize);
    ctx.total_chunks = chunk.total_chunks;
    // The values landed in the arena, which outlives this op (stable).
    if (!decode_mget_chunk(chunk, header.subspan(kRecordsAt), data, ctx.slots, true).ok()) {
      ctx.malformed = true;
    }
    ++ctx.chunks_seen;
    if (ctx.chunks_seen >= ctx.total_chunks) p.done = true;
  }

  // ---- local buffer pool (bump arena, reset when quiescent) ----
  std::span<std::byte> arena_alloc(std::size_t len) {
    if (arena_offset_ + len > arena_size_) {
      // Overflow: fall back to a side buffer (registered on demand).
      obs::registry().counter("mc.alloc.arena_overflows").inc();
      overflow_.push_back(std::vector<std::byte>(len));
      return overflow_.back();
    }
    auto out = std::span<std::byte>(arena_.get() + arena_offset_, len);
    arena_offset_ += len;
    return out;
  }

  void maybe_reset_arena() {
    if (pending_.empty()) {
      arena_offset_ = 0;
      overflow_.clear();
    }
  }

  // ---- reusable reply counters (monotonic, so reuse is safe) ----
  std::tuple<sim::Counter*, ucr::CounterRef, std::size_t> acquire_counter() {
    if (free_counters_.empty()) {
      counters_.push_back(runtime_->make_counter());
      counter_refs_.push_back(runtime_->export_counter(*counters_.back()));
      free_counters_.push_back(counters_.size() - 1);
    }
    const std::size_t slot = free_counters_.back();
    free_counters_.pop_back();
    return {counters_[slot].get(), counter_refs_[slot], slot};
  }
  void release_counter(std::size_t slot) { free_counters_.push_back(slot); }

  sim::Scheduler* sched_;
  sim::Host* host_;
  ClientBehavior behavior_;
  ucr::Runtime* runtime_;
  sim::NicAddr addr_;
  std::uint16_t port_;
  ucr::Endpoint* ep_ = nullptr;
  std::uint64_t down_handler_ = 0;
  std::unique_ptr<onesided::RemoteGetter> getter_;  ///< non-null iff Mode::onesided_get
  std::unique_ptr<rfp::Channel> rfp_;               ///< non-null iff Mode::rfp
  obs::Counter* rfp_fallbacks_ = &obs::registry().counter("mc.rfp.fallbacks");

  SlotMap<Pending> pending_;

  std::unique_ptr<std::byte[]> arena_;
  std::size_t arena_size_ = 0;
  std::size_t arena_offset_ = 0;
  std::vector<std::vector<std::byte>> overflow_;

  std::vector<std::unique_ptr<sim::Counter>> counters_;
  std::vector<ucr::CounterRef> counter_refs_;
  std::vector<std::size_t> free_counters_;
};

void UcrConn::ensure_handler(ucr::Runtime& runtime) {
  // Registering is idempotent per runtime (same handler object semantics).
  runtime.register_handler(
      ucrp::kMsgResponse,
      {.on_header =
           [](ucr::Endpoint& ep, std::span<const std::byte> header, std::uint32_t data_len) {
             auto* conn = static_cast<UcrConn*>(ep.user_data());
             if (!conn) return std::span<std::byte>{};
             return conn->on_response_header(header, data_len);
           },
       .on_complete =
           [](ucr::Endpoint& ep, std::span<const std::byte> header, std::span<std::byte> data) {
             auto* conn = static_cast<UcrConn*>(ep.user_data());
             if (conn) conn->on_response_complete(header, data);
           }});
}

// -------------------------------------------------------------- Client --

Client::Client(sim::Scheduler& sched, sim::Host& host, ClientBehavior behavior)
    : sched_(&sched), host_(&host), behavior_(behavior) {}

Client::~Client() = default;

void Client::register_server(std::string name) {
  server_names_.push_back(std::move(name));
  health_.emplace_back();
  if (behavior_.distribution == Distribution::ketama) continuum_.rebuild(server_names_);
}

void Client::add_server_socket(sock::NetStack& stack, sim::NicAddr addr, std::uint16_t port) {
  if (behavior_.binary_protocol) {
    conns_.push_back(
        std::make_unique<BinaryConn>(*sched_, *host_, behavior_, stack, addr, port));
  } else {
    conns_.push_back(
        std::make_unique<TextConn>(*sched_, *host_, behavior_, stack, addr, port));
  }
  register_server("host" + std::to_string(addr) + ":" + std::to_string(port));
}

void Client::add_server_ucr(ucr::Runtime& runtime, sim::NicAddr addr, std::uint16_t port) {
  conns_.push_back(std::make_unique<UcrConn>(*sched_, *host_, behavior_, runtime, addr, port));
  register_server("host" + std::to_string(addr) + ":" + std::to_string(port));
}

sim::Task<Status> Client::connect_all() {
  for (auto& conn : conns_) {
    auto st = co_await conn->connect();
    if (!st.ok()) co_return st;
  }
  co_return Status{};
}

std::size_t Client::server_index(std::string_view key) const {
  assert(!conns_.empty());
  if (behavior_.distribution == Distribution::ketama) {
    const std::size_t index = continuum_.lookup(key);
    return alive_to_conn_.empty() ? index : alive_to_conn_[index];
  }
  const std::size_t start = hash_key(behavior_.key_hash, key) % conns_.size();
  for (std::size_t probe = 0; probe < conns_.size(); ++probe) {
    const std::size_t index = (start + probe) % conns_.size();
    if (index >= health_.size() || !health_[index].ejected) return index;
  }
  return start;  // whole pool ejected: fall back to the natural owner
}

// ------------------------------------------------ failure recovery --

sim::Task<Status> Client::ensure_conn(std::size_t index) {
  ServerConn& conn = *conns_[index];
  if (conn.alive()) co_return Status{};
  obs::registry().counter("mc.client.reconnects").inc();
  co_return co_await conn.connect();
}

void Client::note_failure(std::size_t index) {
  if (index >= health_.size()) return;
  ServerHealth& h = health_[index];
  ++h.consecutive_failures;
  if (h.ejected || behavior_.eject_after_failures == 0 || conns_.size() < 2) return;
  if (h.consecutive_failures < behavior_.eject_after_failures) return;
  h.ejected = true;
  obs::registry().counter("mc.pool.ejected").inc();
  rebuild_routing();
  if (behavior_.rejoin_interval != 0 && !h.probing) {
    h.probing = true;
    sched_->spawn(rejoin_probe(index));
  }
}

void Client::note_success(std::size_t index) {
  if (index >= health_.size()) return;
  ServerHealth& h = health_[index];
  h.consecutive_failures = 0;
  if (!h.ejected) return;
  h.ejected = false;
  obs::registry().counter("mc.pool.rejoined").inc();
  rebuild_routing();
}

void Client::rebuild_routing() {
  if (behavior_.distribution != Distribution::ketama) return;
  // Re-hash the continuum over the surviving pool: ketama's whole point
  // is that this remaps only the dead server's share of the keyspace.
  std::vector<std::string> alive;
  alive_to_conn_.clear();
  for (std::size_t i = 0; i < server_names_.size(); ++i) {
    if (i < health_.size() && health_[i].ejected) continue;
    alive.push_back(server_names_[i]);
    alive_to_conn_.push_back(i);
  }
  if (alive.empty()) {  // nobody left: keep routing to natural owners
    alive_to_conn_.clear();
    continuum_.rebuild(server_names_);
    return;
  }
  continuum_.rebuild(alive);
}

sim::Task<> Client::rejoin_probe(std::size_t index) {
  for (std::uint32_t i = 0; i < behavior_.rejoin_attempts && health_[index].ejected; ++i) {
    co_await sched_->delay(behavior_.rejoin_interval);
    if (!health_[index].ejected) break;
    ServerConn& conn = *conns_[index];
    if (!conn.alive()) {
      auto st = co_await conn.connect();
      if (!st.ok()) continue;
    }
    // Any reply — even a miss — proves the server is back.
    proto::Value value;
    Sink sink{.value = &value};
    auto probe = co_await conn.execute({.op = Op::get, .key = "rejoin-probe"}, sink);
    if (probe.ok() || !transport_error(probe.error())) note_success(index);
  }
  health_[index].probing = false;
}

sim::Task<Result<Reply>> Client::run(Command cmd, Sink* sink) {
  if (long_key(cmd.key)) co_return Errc::invalid_argument;
  Sink none;
  for (std::uint32_t attempt = 0;; ++attempt) {
    // Route per attempt: an ejection between attempts re-routes the key.
    const std::size_t index = server_index(cmd.key);
    Errc failure = Errc::ok;
    bool issued = false;
    if (!conns_[index]->alive()) {
      auto reconnected = co_await ensure_conn(index);
      if (!reconnected.ok()) {
        if (!transport_error(reconnected.error())) co_return reconnected.error();
        failure = reconnected.error();
      }
    }
    if (failure == Errc::ok) {
      auto reply = co_await conns_[index]->execute(cmd, sink != nullptr ? *sink : none);
      if (reply.ok() || !transport_error(reply.error())) {
        note_success(index);
        if (!reply.ok()) co_return reply.error();
        const Errc errc = caller_errc(cmd.op, reply->code);
        if (errc != Errc::ok) co_return errc;
        co_return std::move(reply);
      }
      failure = reply.error();
      issued = true;
    }
    note_failure(index);
    if (attempt >= behavior_.max_retries || (issued && !idempotent(cmd.op))) co_return failure;
    obs::registry().counter("mc.client.retries").inc();
    co_await sched_->delay(behavior_.retry_backoff << std::min(attempt, 6u));
  }
}

sim::Task<Status> Client::set(std::string_view key, std::span<const std::byte> value,
                              std::uint32_t flags, std::uint32_t exptime) {
  obs::registry().counter("mc.client.sets").inc();
  co_return status(co_await run(
      {.op = Op::set, .key = key, .value = value, .flags = flags, .exptime = exptime}));
}
sim::Task<Status> Client::add(std::string_view key, std::span<const std::byte> value,
                              std::uint32_t flags, std::uint32_t exptime) {
  co_return status(co_await run(
      {.op = Op::add, .key = key, .value = value, .flags = flags, .exptime = exptime}));
}
sim::Task<Status> Client::replace(std::string_view key, std::span<const std::byte> value,
                                  std::uint32_t flags, std::uint32_t exptime) {
  co_return status(co_await run(
      {.op = Op::replace, .key = key, .value = value, .flags = flags, .exptime = exptime}));
}
sim::Task<Status> Client::append(std::string_view key, std::span<const std::byte> value) {
  co_return status(co_await run({.op = Op::append, .key = key, .value = value}));
}
sim::Task<Status> Client::prepend(std::string_view key, std::span<const std::byte> value) {
  co_return status(co_await run({.op = Op::prepend, .key = key, .value = value}));
}
sim::Task<Status> Client::cas(std::string_view key, std::span<const std::byte> value,
                              std::uint64_t cas_unique, std::uint32_t flags,
                              std::uint32_t exptime) {
  co_return status(co_await run({.op = Op::cas,
                                 .key = key,
                                 .value = value,
                                 .flags = flags,
                                 .exptime = exptime,
                                 .cas = cas_unique}));
}

sim::Task<Result<proto::Value>> Client::fetch(std::string_view key, bool with_cas) {
  proto::Value value;
  Sink sink{.value = &value};
  auto reply = co_await run({.op = with_cas ? Op::gets : Op::get, .key = key}, &sink);
  if (!reply.ok()) co_return reply.error();
  value.key.assign(key.data(), key.size());
  value.flags = reply->flags;
  value.cas = reply->cas;
  co_return std::move(value);
}

sim::Task<Result<proto::Value>> Client::get(std::string_view key) {
  obs::registry().counter("mc.client.gets").inc();
  co_return co_await fetch(key, false);
}
sim::Task<Result<proto::Value>> Client::gets(std::string_view key) {
  co_return co_await fetch(key, true);
}
sim::Task<Result<GetIntoResult>> Client::get_into(std::string_view key,
                                                  std::span<std::byte> dest) {
  obs::registry().counter("mc.client.gets").inc();
  Sink sink{.dest = dest};
  auto reply = co_await run({.op = Op::get, .key = key}, &sink);
  if (!reply.ok()) co_return reply.error();
  co_return GetIntoResult{.value_len = sink.len, .flags = reply->flags, .cas = reply->cas};
}

sim::Task<Result<std::vector<std::optional<proto::Value>>>> Client::mget(
    std::span<const std::string> keys) {
  if (std::ranges::any_of(keys, long_key)) co_return Errc::invalid_argument;
  // Group keys per server and issue all per-server mgets concurrently
  // (libmemcached pipelines across the pool), then reassemble
  // positionally.
  std::vector<std::vector<std::string>> grouped(conns_.size());
  std::vector<std::vector<std::size_t>> positions(conns_.size());
  std::size_t groups = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t server = server_index(keys[i]);
    if (grouped[server].empty()) ++groups;
    grouped[server].push_back(keys[i]);
    positions[server].push_back(i);
  }

  std::vector<std::optional<proto::Value>> out(keys.size());
  Errc first_error = Errc::ok;
  sim::Counter finished(*sched_);
  for (std::size_t server = 0; server < conns_.size(); ++server) {
    if (grouped[server].empty()) continue;
    // The spawned tasks only reference this frame's locals, and this
    // coroutine stays suspended on `finished` until all of them are done.
    sched_->spawn([](ServerConn& conn, const std::vector<std::string>& group,
                     const std::vector<std::size_t>& pos,
                     std::vector<std::optional<proto::Value>>& results, Errc& err,
                     sim::Counter& done) -> sim::Task<> {
      // rmclint:allow(coro-lifetime): all arguments live in mget's frame, which
      // stays suspended on `finished` until every per-server task calls done.add().
      auto r = co_await conn.mget(group, false);
      if (r.ok()) {
        for (std::size_t j = 0; j < pos.size(); ++j) results[pos[j]] = std::move((*r)[j]);
      } else if (err == Errc::ok) {
        err = r.error();
      }
      done.add();
    }(*conns_[server], grouped[server], positions[server], out, first_error, finished));
  }
  co_await finished.wait_geq(groups);
  if (first_error != Errc::ok) co_return first_error;
  co_return out;
}

sim::Task<Status> Client::mget_into(std::span<const std::string_view> keys,
                                    std::span<MgetSlot> slots) {
  if (keys.size() > slots.size()) co_return Errc::invalid_argument;
  if (std::ranges::any_of(keys, long_key)) co_return Errc::invalid_argument;
  if (keys.empty()) co_return Status{};
  // Single-server pool: zero-alloc pass-through to the batched transport
  // path (the common benchmark/zero-alloc configuration).
  if (conns_.size() == 1) co_return co_await conns_[0]->mget_into(keys, slots, false);

  // Multi-server pool: group per server first (allocates), run the
  // per-server batches sequentially, and copy the answers back into the
  // caller's positional slots.
  std::vector<std::vector<std::string_view>> grouped(conns_.size());
  std::vector<std::vector<std::size_t>> positions(conns_.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t server = server_index(keys[i]);
    grouped[server].push_back(keys[i]);
    positions[server].push_back(i);
  }
  std::vector<MgetSlot> scratch;
  for (std::size_t server = 0; server < conns_.size(); ++server) {
    if (grouped[server].empty()) continue;
    scratch.assign(grouped[server].size(), MgetSlot{});
    for (std::size_t j = 0; j < positions[server].size(); ++j) {
      scratch[j].dest = slots[positions[server][j]].dest;
    }
    auto st = co_await conns_[server]->mget_into(grouped[server], scratch, false);
    if (!st.ok()) co_return st;
    for (std::size_t j = 0; j < positions[server].size(); ++j) {
      slots[positions[server][j]] = scratch[j];
    }
  }
  co_return Status{};
}

sim::Task<Status> Client::del(std::string_view key) {
  co_return status(co_await run({.op = Op::del, .key = key}));
}
sim::Task<Result<std::uint64_t>> Client::incr(std::string_view key, std::uint64_t delta) {
  auto reply = co_await run({.op = Op::incr, .key = key, .delta = delta});
  if (!reply.ok()) co_return reply.error();
  co_return reply->number;
}
sim::Task<Result<std::uint64_t>> Client::decr(std::string_view key, std::uint64_t delta) {
  auto reply = co_await run({.op = Op::decr, .key = key, .delta = delta});
  if (!reply.ok()) co_return reply.error();
  co_return reply->number;
}
sim::Task<Status> Client::touch(std::string_view key, std::uint32_t exptime) {
  co_return status(co_await run({.op = Op::touch, .key = key, .exptime = exptime}));
}

sim::Task<Status> Client::flush_all() {
  const Command cmd{.op = Op::flush_all};
  for (auto& conn : conns_) {
    Sink none;
    auto reply = co_await conn->execute(cmd, none);
    if (!reply.ok()) co_return reply.error();
    if (const Errc errc = caller_errc(cmd.op, reply->code); errc != Errc::ok) co_return errc;
  }
  co_return Status{};
}

}  // namespace rmc::mc
