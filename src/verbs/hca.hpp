// The Host Channel Adapter: the device that executes work requests.
//
// One Hca per (host, fabric) pair. It owns a NIC on the fabric, a
// protection domain, the QP table, and the RC protocol engine (a dispatch
// coroutine draining the NIC inbox). It also implements the connection
// manager (rdma_cm-style listen/connect), which the paper's endpoint model
// (§IV-A) builds on.
//
// The crucial modeling property: one-sided RDMA operations are executed
// entirely by this dispatch engine at adapter cost — they never charge the
// remote *host's* CPU. That is the OS-bypass the paper measures.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/slotmap.hpp"
#include "simnet/event.hpp"
#include "simnet/fabric.hpp"
#include "simnet/scheduler.hpp"
#include "simnet/task.hpp"
#include "verbs/memory.hpp"
#include "verbs/packets.hpp"
#include "verbs/qp.hpp"

namespace rmc::verbs {

class Hca {
 public:
  Hca(sim::Scheduler& sched, sim::Fabric& fabric, sim::Host& host, VerbsCosts costs = {});
  Hca(const Hca&) = delete;
  Hca& operator=(const Hca&) = delete;

  sim::NicAddr addr() const { return nic_->addr(); }
  sim::Host& host() { return *host_; }
  sim::Scheduler& scheduler() { return *sched_; }
  ProtectionDomain& pd() { return pd_; }
  const VerbsCosts& costs() const { return costs_; }

  /// Register memory (pins pages; charges the registration CPU cost).
  MemoryRegion& reg_mr(std::span<std::byte> memory);
  void dereg_mr(MemoryRegion& mr) { pd_.deregister_mr(mr); }

  std::unique_ptr<CompletionQueue> create_cq(CqMode mode = CqMode::polling);

  /// Create an RC QP; it must be connect()ed (manually or via CM) before
  /// posting sends.
  QueuePair& create_qp(CompletionQueue& send_cq, CompletionQueue& recv_cq,
                       SharedReceiveQueue* srq = nullptr);

  /// Create a UD QP (§VII future work): connectionless datagrams addressed
  /// per-WR, no acknowledgements, silent drop when no receive is posted.
  QueuePair& create_ud_qp(CompletionQueue& send_cq, CompletionQueue& recv_cq,
                          SharedReceiveQueue* srq = nullptr);
  void destroy_qp(QueuePair& qp);

  // ----------------------------------------------------- connection mgmt
  struct ListenerConfig {
    /// Called per incoming connection to create the passive-side QP (with
    /// whatever CQs/SRQ the application chooses — e.g. a round-robin
    /// worker's CQ, as the memcached server does).
    std::function<QueuePair*()> make_qp;
    /// Called once the QP is wired to the peer.
    std::function<void(QueuePair&)> on_established;
    /// UD sideband (§VII future work): called when a datagram endpoint
    /// asks to attach. Receives the peer's (nic, UD qpn, endpoint id);
    /// returns the local (UD qpn, endpoint id) to answer with, or nullopt
    /// to refuse.
    std::function<std::optional<std::pair<std::uint32_t, std::uint64_t>>(
        sim::NicAddr, std::uint32_t, std::uint64_t)>
        on_ud_connect;
  };

  void listen(std::uint16_t port, ListenerConfig config) {
    listeners_[port] = std::move(config);
  }
  void stop_listen(std::uint16_t port) { listeners_.erase(port); }

  /// Active-side connect: creates a QP, performs the CM handshake, and
  /// resolves to the ready QP (or refused / timed_out).
  sim::Task<Result<QueuePair*>> connect(sim::NicAddr dst, std::uint16_t port,
                                        CompletionQueue& send_cq, CompletionQueue& recv_cq,
                                        SharedReceiveQueue* srq = nullptr,
                                        sim::Time timeout = 1 * kNsPerSec);

  /// UD sideband handshake: announce our (UD qpn, endpoint id) to the
  /// listener on `port`; resolves to the peer's (UD qpn, endpoint id).
  sim::Task<Result<std::pair<std::uint32_t, std::uint64_t>>> connect_ud(
      sim::NicAddr dst, std::uint16_t port, std::uint32_t local_ud_qpn,
      std::uint64_t local_ep_id, sim::Time timeout = 1 * kNsPerSec);

  /// Tear a connection down: notifies the peer, errors the QP, flushes
  /// outstanding WRs with WcStatus::flushed.
  void disconnect(QueuePair& qp);

  // ------------------------------------------------------------- stats
  std::uint64_t messages_handled() const { return messages_handled_; }
  std::size_t qp_count() const { return qps_.size(); }
  sim::Nic& nic() { return *nic_; }

 private:
  friend class QueuePair;

  struct PendingSend {
    std::uint32_t qpn;
    std::uint64_t wr_id;
    Opcode opcode;
    std::uint32_t byte_len;
    sim::Time posted_at = 0;  ///< requester-side span start (tracing)
    // Retransmission state (RC only; deadline == 0 means "never resend").
    // `local` stays valid per the verbs contract: the application owns the
    // buffer until the completion is delivered.
    std::span<std::byte> local{};
    std::uint64_t remote_addr = 0;
    std::uint32_t rkey = 0;
    std::uint32_t imm_data = 0;
    std::uint32_t psn = 0;
    sim::Time deadline = 0;
    std::uint32_t retries_left = 0;
  };
  struct PendingRead {
    std::uint32_t qpn;
    std::uint64_t wr_id;
    std::span<std::byte> dest;
    sim::Time posted_at = 0;  ///< requester-side span start (tracing)
    std::uint64_t remote_addr = 0;
    std::uint32_t rkey = 0;
    sim::Time deadline = 0;
    std::uint32_t retries_left = 0;
  };
  struct PendingConnect {
    bool done = false;
    Errc err = Errc::ok;
    QueuePair* qp = nullptr;       ///< RC connect: QP being wired
    sim::NicAddr dst = 0;
    std::uint32_t ud_qpn = 0;      ///< UD connect: peer's answers
    std::uint64_t ud_ep_id = 0;
    std::unique_ptr<sim::Counter> resolved;
  };

  /// Charge the full post cost (WQE build + doorbell) and inject a packet
  /// into the fabric.
  void post_packet(std::unique_ptr<wire::IbPacket> packet);
  /// Same, but with an explicit host-CPU charge — the doorbell-batching
  /// path charges the WQE-build share per WR and the doorbell share once.
  void post_packet_charged(std::unique_ptr<wire::IbPacket> packet, sim::Time post_charge);

  /// Emit an ack for `token` back to `dst` with the given status.
  void send_ack(sim::NicAddr dst, std::uint32_t dst_qpn, std::uint64_t token, WcStatus status);

  sim::Task<> dispatch();
  void handle(std::unique_ptr<wire::IbPacket> packet);
  void handle_send_data(wire::IbPacket& p);
  void handle_ud_data(wire::IbPacket& p);
  void handle_rdma_write(wire::IbPacket& p);
  void handle_rdma_read_req(wire::IbPacket& p);
  void handle_rdma_read_resp(wire::IbPacket& p);
  void handle_ack(wire::IbPacket& p);
  void handle_cm(std::unique_ptr<wire::IbPacket> p);

  void flush_qp(QueuePair& qp);

  // RC retransmission: one periodic sweeper per HCA, armed only while
  // unacked WRs exist (so an idle or retransmit-disabled HCA schedules
  // nothing and run() still terminates).
  void arm_retransmit_timer();
  void sweep_retransmits();
  void retransmit_send(std::uint64_t token, PendingSend& ps);
  void retransmit_read(std::uint64_t token, PendingRead& pr);
  void retry_exhausted(QueuePair& qp);

  sim::Scheduler* sched_;
  sim::Fabric* fabric_;
  sim::Host* host_;
  sim::Nic* nic_;
  VerbsCosts costs_;
  ProtectionDomain pd_;

  std::unordered_map<std::uint32_t, QueuePair*> qps_;
  std::vector<std::unique_ptr<QueuePair>> qp_storage_;
  std::uint32_t next_qpn_ = 1;
  std::uint64_t next_token_ = 1;

  // In-flight operations keyed by the token that crosses the wire: the
  // SlotMap key (slot | generation) *is* the token, so per-message
  // bookkeeping recycles slots instead of churning unordered_map nodes.
  // Sends and reads are separate key spaces; the packet kind (ack vs
  // read_resp) selects the map, so overlapping keys cannot collide.
  SlotMap<PendingSend> pending_sends_;
  SlotMap<PendingRead> pending_reads_;
  std::unordered_map<std::uint64_t, std::shared_ptr<PendingConnect>> pending_connects_;
  std::unordered_map<std::uint16_t, ListenerConfig> listeners_;

  /// When the adapter engine started on the packet handle() is serving.
  sim::Time engine_started_ = 0;

  bool rto_armed_ = false;
  std::vector<std::uint64_t> rto_scratch_;  ///< expired tokens, reused per sweep

  std::uint64_t messages_handled_ = 0;
};

}  // namespace rmc::verbs
