// Chandra-Toueg ◇S consensus (JACM'96) with the optimizations the paper
// applies (§4.1, footnote 4):
//
//  * Round 1 skips the estimate-collection phase: the first coordinator
//    proposes its own initial value immediately (all timestamps are 0, so
//    any estimate is admissible).
//  * Processes advance rounds lazily: after acknowledging a proposal they
//    wait for the decision and move to the next round only when they
//    suspect the current coordinator (instead of free-running through
//    rounds), so a failure-free instance costs exactly one proposal
//    multicast, n-1 acks and one decision broadcast — the Fig. 1 pattern.
//  * Phase 4 follows the published rule: the first majority of replies
//    decides the round's fate — all ACKs: decide; any NACK: the round
//    fails.  On failure the coordinator multicasts a ROUND-FAILED
//    notification so that processes blocked waiting for the decision
//    resynchronize into the next round immediately (without it, lazy
//    round advancement can deadlock under asymmetric wrong suspicions).
//    The notification costs nothing on the failure-free path.
//  * A process that receives a proposal of a later round jumps to that
//    round and acknowledges (safe: the estimate-locking argument of the
//    algorithm does not depend on which rounds a process skips).
//
// The coordinator of round r is members[(offset + r - 1) mod |members|];
// `offset` implements the coordinator re-numbering optimization discussed
// for the crash-steady scenario (§7).
//
// Instances are value-agnostic: estimates/decisions are opaque payloads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/types.hpp"
#include "fd/failure_detector.hpp"
#include "net/message.hpp"
#include "net/system.hpp"
#include "rbcast/reliable_broadcast.hpp"

namespace fdgm::consensus {

/// Everything needed to start (or join) one instance.
struct StartInfo {
  /// Participating processes.  Majority quorums are relative to this set.
  /// Points at the caller's member list: Instance::reset copies it
  /// synchronously (into a capacity-retaining pooled vector), so the
  /// pointee only has to outlive the start/join call — no per-instance
  /// vector allocation on the hot path.
  const std::vector<net::ProcessId>* members = nullptr;
  /// Rotation offset: coordinator of round 1 is members[offset % size].
  int coordinator_offset = 0;
  /// This process's initial value (proposed if it coordinates round 1).
  net::PayloadPtr initial = nullptr;
  /// Optional: called when this process coordinates a round in which no
  /// estimate carries a positive timestamp (no value was ever locked — any
  /// proposal is safe).  Lets the client refresh the proposal with work
  /// that arrived after the instance started, so messages queued behind a
  /// stalled round are batched into its recovery instead of waiting.
  std::function<net::PayloadPtr()> refresh{};
};

class ConsensusService;

/// One running Chandra-Toueg instance at one process.
///
/// Instance bodies are pooled by the ConsensusService: one consensus
/// instance runs per message batch, so the per-instance containers
/// (membership, per-round reply arrays) are recycled through
/// reset()/retire() instead of being reallocated per message — the
/// steady-state cost of an instance is O(members) writes into
/// already-sized arrays.
class Instance final : public fd::SuspicionListener {
 public:
  Instance(ConsensusService& service, InstanceKey key, net::ProcessId self, StartInfo info);
  ~Instance() override;

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Re-arms a pooled instance body for a new key (capacity of the
  /// per-round arrays is retained).  The instance must be retired.
  void reset(InstanceKey key, StartInfo info);

  /// Detaches from the failure detector and clears payload references;
  /// the body is ready for reset().  Idempotent.
  void retire();

  /// Kick off participation (round-1 coordinator proposes here).
  void start();

  /// Handle an ESTIMATE / PROPOSE / ACK / NACK addressed to this instance.
  void on_msg(net::ProcessId from, const ConsensusMsg& m);

  /// The service marks the instance decided (decision arrived via rbcast).
  void halt() { done_ = true; }

  // fd::SuspicionListener
  void on_suspect(net::ProcessId p) override;

  [[nodiscard]] net::ProcessId coordinator(std::uint32_t r) const;

 private:
  /// Per-round reply bookkeeping, flattened: instead of ProcessId-keyed
  /// maps/sets (one node allocation per reply), replies live in one
  /// rank-indexed array sized |members| — O(1) lookup, zero allocation
  /// once the pooled body warmed up.  Replies from non-members (stale
  /// traffic from processes outside the instance's membership) are
  /// ignored — they must not count toward a majority of `members`.
  struct RoundState {
    static constexpr std::uint8_t kEstimate = 1;
    static constexpr std::uint8_t kAck = 2;
    static constexpr std::uint8_t kNack = 4;
    struct PerMember {
      net::PayloadPtr est_value = nullptr;
      std::uint32_t est_ts = 0;
      std::uint8_t bits = 0;
    };
    std::vector<PerMember> from;  // rank-indexed (position in members_)
    std::size_t estimates = 0;
    std::size_t acks = 0;
    std::size_t nacks = 0;
    bool proposed = false;
    bool resolved = false;  // coordinator saw its first majority of replies
    net::PayloadPtr proposal = nullptr;  // set on participants when PROPOSE arrives
    bool have_proposal = false;
    bool failed = false;  // ROUND-FAILED received (or issued)
    // Participant side.
    bool acked = false;
    bool nacked = false;
    bool estimate_sent = false;

    void clear() {
      from.clear();  // capacity retained; re-sized by rs() on first use
      estimates = acks = nacks = 0;
      proposed = resolved = have_proposal = failed = false;
      acked = nacked = estimate_sent = false;
      proposal = nullptr;
    }
  };

  void try_progress();
  void advance_to(std::uint32_t r);
  /// Round r's state (rounds are dense from 1; bodies are pooled across
  /// reset() and stay address-stable while rounds_ grows).
  RoundState& rs(std::uint32_t r);
  /// Position of p in members_, or -1 when p is not a member.
  [[nodiscard]] int rank_of(net::ProcessId p) const;
  [[nodiscard]] std::size_t majority() const { return members_.size() / 2 + 1; }
  void send_to_coordinator(std::uint32_t r, ConsensusMsg::Kind kind, net::PayloadPtr value,
                           std::uint32_t ts);

  ConsensusService* service_;
  InstanceKey key_;
  net::ProcessId self_;
  std::vector<net::ProcessId> members_;
  int offset_ = 0;
  std::function<net::PayloadPtr()> refresh_;
  net::PayloadPtr estimate_ = nullptr;
  std::uint32_t ts_ = 0;
  std::uint32_t round_ = 1;
  bool done_ = false;
  bool in_progress_ = false;  // re-entrancy guard for try_progress
  bool listening_ = false;    // registered as a suspicion listener
  std::vector<std::unique_ptr<RoundState>> rounds_;  // index r-1
};

/// Per-process consensus endpoint: routes messages to instances, creates
/// instances on demand (join-on-first-message), and disseminates/receives
/// decisions through reliable broadcast.
class ConsensusService final : public net::Layer {
 public:
  struct ContextConfig {
    /// Invoked when a message arrives for an unknown instance.  Return the
    /// StartInfo to join immediately, or nullopt to buffer the message
    /// until a local start() (e.g. the membership layer joins a view
    /// change only once it learned about it).
    std::function<std::optional<StartInfo>(const InstanceKey&)> join;
    /// Invoked exactly once per instance with the decision value.
    std::function<void(const InstanceKey&, const net::PayloadPtr&)> on_decide;
  };

  ConsensusService(net::System& sys, net::ProcessId self, fd::FailureDetector& fd,
                   rbcast::ReliableBroadcast& rb);
  ~ConsensusService() override;

  ConsensusService(const ConsensusService&) = delete;
  ConsensusService& operator=(const ConsensusService&) = delete;

  void register_context(std::uint32_t context, ContextConfig cfg);

  /// Start instance `key` locally (no-op if already started or decided).
  void start(const InstanceKey& key, StartInfo info);

  /// Re-offer buffered messages of `context` to its join callback — used
  /// when the client's readiness condition changed (e.g. the abcast
  /// pipeline window advanced, or a view was installed).
  void retry_buffered(std::uint32_t context);

  /// Crash-recovery catch-up: declare every instance of `context` with a
  /// number below `number` settled (the client learned their outcomes out
  /// of band, e.g. through a log sync).  Stale local instances and
  /// buffered traffic below the floor are dropped, as are their retained
  /// decisions.  Must not be called from inside an Instance callback.
  void close_below(std::uint32_t context, std::uint64_t number);

  [[nodiscard]] bool decided(const InstanceKey& key) const {
    return decided_.contains(key) || below_floor(key);
  }
  [[nodiscard]] bool running(const InstanceKey& key) const { return instances_.contains(key); }

  // net::Layer — ESTIMATE/PROPOSE/ACK/NACK arrive here.
  void on_message(const net::Message& m) override;

  [[nodiscard]] net::System& system() { return *sys_; }
  [[nodiscard]] net::ProcessId self() const { return self_; }
  [[nodiscard]] fd::FailureDetector& fd() { return *fd_; }

  // --- used by Instance ---
  void unicast(net::ProcessId dst, const ConsensusMsg* m);
  /// Multicast to every member except this process (no loopback copy).
  void multicast_others(const std::vector<net::ProcessId>& members, const ConsensusMsg* m);
  /// Coordinator path: reliably broadcast the decision to the members.
  void decide(const InstanceKey& key, const std::vector<net::ProcessId>& members,
              net::PayloadPtr value);

 private:
  /// Applies an R-delivered decision; repeats and settled instances are ignored.
  void on_decide_rb(net::PayloadPtr inner);
  void dispatch(net::ProcessId from, const ConsensusMsg* m);
  [[nodiscard]] bool below_floor(const InstanceKey& key) const {
    auto it = closed_floor_.find(key.context);
    return it != closed_floor_.end() && key.number < it->second;
  }

  net::System* sys_;
  net::ProcessId self_;
  fd::FailureDetector* fd_;
  rbcast::ReliableBroadcast* rb_;
  /// Takes an instance body from the pool (or allocates the first time)
  /// and arms it for `key`.
  [[nodiscard]] std::unique_ptr<Instance> acquire_instance(const InstanceKey& key,
                                                           StartInfo info);
  /// Retires an instance body into the pool for reuse.
  void retire(std::unique_ptr<Instance> inst);

  std::unordered_map<std::uint32_t, ContextConfig> contexts_;
  std::unordered_map<InstanceKey, std::unique_ptr<Instance>, InstanceKeyHash> instances_;
  /// Retired instance bodies, reused by acquire_instance — one consensus
  /// instance runs per message batch, so this avoids re-growing the
  /// per-instance containers on every message.
  std::vector<std::unique_ptr<Instance>> pool_;
  std::unordered_map<InstanceKey, std::vector<std::pair<net::ProcessId, const ConsensusMsg*>>,
                     InstanceKeyHash>
      buffered_;
  std::unordered_set<InstanceKey, InstanceKeyHash> decided_;
  /// Per-context floor set by close_below(); instances below it count as
  /// decided.
  std::unordered_map<std::uint32_t, std::uint64_t> closed_floor_;
};

}  // namespace fdgm::consensus
