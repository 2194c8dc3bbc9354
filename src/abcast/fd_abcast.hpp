// Chandra-Toueg atomic broadcast — the "FD algorithm" of the paper (§4.1).
//
// A-broadcast(m) reliably broadcasts m to everyone.  Delivery order is
// decided by a sequence of consensus instances #1, #2, ...; the initial
// value and the decision of each instance is a set of message ids.  The
// messages of decision #k are A-delivered before those of #k+1; within a
// decision, messages are A-delivered in the deterministic order of their
// ids.  Aggregation is inherent: one consensus decides the order of every
// message pending at the proposer.
//
// Instances run in a shallow pipeline (depth W = kPipelineDepth = 2):
// instance #k may start once decision #(k-W) has been processed.
// Messages arriving while the in-flight instances are busy batch into the
// next one — the algorithm's aggregation mechanism (§4.1) — and per batch the
// failure-free message pattern is identical to the sequencer's (one
// proposal multicast, n-1 acks, one decision multicast), which is what
// lets the paper plot a single curve for both algorithms in the
// normal-steady scenario.  The shallow pipeline also lets a new message
// open its own instance while a previous one is stalled on a crashed
// coordinator, so the transient recovery after a crash costs one round,
// not one round per queued instance (Fig. 8).
//
// Re-numbering optimization (paper §7, crash-steady): each proposal is
// tagged with the proposer's id; the coordinator order of instance #k
// starts at the winning proposer of decision #(k-W), so crashed processes
// eventually stop being round-1 coordinators.  Anchoring the rotation W
// decisions back keeps it identical at every process despite the
// pipelining (anchoring on "the latest local decision" would diverge).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "abcast/abcast.hpp"
#include "consensus/chandra_toueg.hpp"
#include "fd/failure_detector.hpp"
#include "net/system.hpp"
#include "obs/causal.hpp"
#include "rbcast/reliable_broadcast.hpp"

namespace fdgm::abcast {

struct FdAbcastConfig {
  /// Enables the coordinator re-numbering optimization.
  bool renumbering = true;
  /// Submission batching + flow control (see abcast::BatchConfig).
  BatchConfig batching;
};

/// The FD algorithm assumes crash-stop processes; crash-*recovery* is an
/// extension for the fault-injection scenarios: a restarted process keeps
/// its stable state (A-delivery log, own message counter), discards its
/// proposal marks and asks a peer for the log suffix and consensus
/// position it missed (SYNC-REQ / SYNC-RESP over the kAtomicBroadcast
/// protocol, which the FD stack does not otherwise use).  A periodic
/// watchdog repeats the request while the process is stalled, which also
/// covers decisions that were in flight during the first sync.  None of
/// this adds traffic to failure-free runs.
class FdAbcastProcess final : public AtomicBroadcastProcess, public net::Layer {
 public:
  /// Builds the full protocol stack of one process: reliable broadcast,
  /// consensus service and the atomic broadcast layer on top.
  FdAbcastProcess(net::System& sys, net::ProcessId self, fd::FailureDetector& fd,
                  FdAbcastConfig cfg = {});
  ~FdAbcastProcess() override;

  // AtomicBroadcastProcess
  void on_restart() override;

  // net::Layer — SYNC-REQ / SYNC-RESP (crash-recovery catch-up only).
  void on_message(const net::Message& m) override;

  /// Consensus instances decided so far (tests: aggregation checks).
  [[nodiscard]] std::uint64_t decided_instances() const { return next_to_process_ - 1; }

  [[nodiscard]] rbcast::ReliableBroadcast& rb() { return rb_; }

 protected:
  // AtomicBroadcastProcess submission hooks: one rbcast broadcast per
  // message (unbatched) or per accumulated batch (one data dissemination
  // and one consensus proposal slot amortized over k messages).
  void submit_now(AppMessagePtr msg) override;
  void flush_batch(const AppMessagePtr* msgs, std::size_t count) override;

 private:
  /// The causal classifier decodes the private Proposal payload (its ids
  /// are the messages a consensus instance covers).
  friend void obs::classify_fd_payload(net::PayloadPtr p, obs::MsgRefList& out);

  /// The consensus value: a set of message ids tagged with the proposer.
  class Proposal final : public net::Payload {
   public:
    static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
    static constexpr std::uint8_t kKind = 2;
    Proposal(net::ProcessId proposer, std::vector<MsgId> ids)
        : Payload(kProto, kKind), proposer(proposer), ids(std::move(ids)) {}
    net::ProcessId proposer;
    std::vector<MsgId> ids;
  };

  class SyncReq;
  class SyncResp;

  /// The whole per-message state of an R-delivered, undelivered message.
  struct Pending {
    explicit Pending(AppMessagePtr msg) : msg(msg) {}
    AppMessagePtr msg;
    /// Highest instance whose proposal of ours included it, 0 = none.
    /// Unmarked ids trigger (and join) the next instance; marks at or below
    /// a processed decision are cleared so lost proposals are re-proposed.
    std::uint64_t proposed_in = 0;
  };
  using PendingMap = std::map<MsgId, Pending>;

  void on_data(net::PayloadPtr inner);
  /// Admits one message of an rbcast data delivery into pending_; returns
  /// false when it was already A-delivered.
  bool admit_data(const AppMessage& msg);
  /// Drops the entry of a message being A-delivered.
  void erase_pending(PendingMap::iterator it);
  void on_decide(const consensus::InstanceKey& key, const net::PayloadPtr& value);
  void maybe_start_next();
  void process_ready_decisions();
  void send_sync_req();
  void handle_sync_req(net::ProcessId from, const SyncReq& req);
  void apply_sync_resp(const SyncResp& resp);
  void catchup_tick(std::uint64_t epoch);
  [[nodiscard]] consensus::StartInfo make_start_info(std::uint64_t number);
  /// Proposes every pending id, marking each as proposed in `number`.
  [[nodiscard]] net::PayloadPtr propose_pending(std::uint64_t number);
  /// May instance `number` start yet (pipeline window)?
  [[nodiscard]] bool can_start(std::uint64_t number) const {
    return number < next_to_process_ + kPipelineDepth;
  }
  /// Coordinator rotation offset of instance `number` (identical at every
  /// process): the winner of decision #(number - kPipelineDepth), 0 early on.
  [[nodiscard]] int offset_for(std::uint64_t number) const;

  fd::FailureDetector* fd_;
  FdAbcastConfig cfg_;
  rbcast::ReliableBroadcast rb_;
  consensus::ConsensusService consensus_;

  /// R-delivered, not yet A-delivered (id-ordered for proposals); the
  /// entry is erased when its message is A-delivered.
  PendingMap pending_;
  std::size_t proposed_count_ = 0;  // entries with proposed_in != 0

  std::uint64_t next_to_process_ = 1;  // next decision to apply
  std::map<std::uint64_t, const Proposal*> ready_decisions_;
  /// Winning proposer per processed decision (pruned below the window):
  /// anchors the coordinator rotation of instance #(k + kPipelineDepth).
  std::map<std::uint64_t, net::ProcessId> winners_;

  // Crash-recovery catch-up state.
  bool syncing_ = false;           // restarted, no sync response applied yet
  std::uint64_t sync_epoch_ = 0;   // bumped per restart; stale watchdogs die
  std::uint64_t watch_log_ = 0;    // progress snapshot of the last tick
  std::uint64_t watch_next_ = 0;
};

}  // namespace fdgm::abcast
