// Group membership service (paper §4.3, after Malloth & Schiper).
//
// Guarantees provided to the client (the fixed-sequencer atomic broadcast):
// all member processes see the same sequence of views (primary-partition),
// View Synchrony and Same View Delivery: at a view change, members agree —
// via consensus — on the pair (next membership P', unstable messages U'),
// flush U' before installing the next view, and only then resume.
//
// Protocol outline:
//  * a member that suspects another member (or receives a join request)
//    starts a view change: it multicasts its unstable messages to the view;
//  * a member learning of a view change (by receiving such an UNSTABLE
//    message) does the same;
//  * once a process has the unstable messages of every member it does not
//    suspect — at least a majority — it proposes (P, U, J) to consensus
//    instance #view-id, run among the members of the current view;
//  * the decision (P', U', J') is processed by every member: flush U',
//    install view (id+1, P' ∪ J');
//  * a member not in P' is wrongly excluded (or crashed).  A correct
//    excluded process learns its exclusion from the decision and rejoins:
//    it sends JOIN to the new members (with periodic retry), a member
//    triggers a view change carrying the joiner, and after the view
//    installs, one member transfers the state the joiner missed (§4.3,
//    "State transfer").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "abcast/abcast.hpp"
#include "consensus/chandra_toueg.hpp"
#include "fd/failure_detector.hpp"
#include "gm/view.hpp"
#include "net/system.hpp"

namespace fdgm::gm {

/// One message the data plane considers unstable at a view change: content
/// plus its sequence number if it has one (-1 when unsequenced).
struct UnstableEntry {
  abcast::AppMessagePtr msg = nullptr;
  std::int64_t seqnum = -1;
};

/// A process's contribution to a view change: its unstable messages (not
/// yet known stable — including recently delivered sequenced messages that
/// may be undelivered elsewhere) plus its delivery watermark.  The decided
/// watermark (max over contributors) settles the sequence-number space so
/// every member of the next view resumes from the same point.
struct UnstableReport {
  std::vector<UnstableEntry> entries;
  std::int64_t watermark = 0;  // highest sequenced sn delivered locally
};

/// Interface the data plane (gm atomic broadcast) implements for the
/// membership service.
class MembershipClient {
 public:
  MembershipClient() = default;
  MembershipClient(const MembershipClient&) = delete;
  MembershipClient& operator=(const MembershipClient&) = delete;
  virtual ~MembershipClient() = default;

  /// Messages not yet known stable plus the local delivery watermark.
  [[nodiscard]] virtual UnstableReport unstable_messages() const = 0;

  /// A view change began: freeze sequencing and delivery announcements.
  virtual void on_view_change_started() = 0;

  /// Flush phase: A-deliver every not-yet-delivered message of `u`, in
  /// canonical order (sequenced by seqnum, then unsequenced by id), and
  /// settle the sequence-number space up to `settled`.
  virtual void flush(const std::vector<UnstableEntry>& u, std::int64_t settled) = 0;

  /// A new view was installed; `member` says whether this process is in it.
  virtual void on_view_installed(const View& v, bool member) = 0;

  /// Length of the local A-delivery log (state transfer baseline).
  [[nodiscard]] virtual std::uint64_t log_length() const = 0;

  /// Build the state a joiner with log length `from` is missing.
  [[nodiscard]] virtual net::PayloadPtr make_state(std::uint64_t from) const = 0;

  /// Joiner side: apply a state snapshot, then behave as a member of `v`.
  virtual void apply_state(const net::PayloadPtr& state, const View& v) = 0;
};

class GroupMembership final : public net::Layer, public fd::SuspicionListener {
 public:
  GroupMembership(net::System& sys, net::ProcessId self, fd::FailureDetector& fd,
                  consensus::ConsensusService& consensus, MembershipClient& client);
  ~GroupMembership() override;

  /// Current view at this process.
  [[nodiscard]] const View& view() const { return view_; }

  [[nodiscard]] bool is_member() const { return status_ == Status::kMember; }
  [[nodiscard]] bool is_excluded() const {
    return status_ == Status::kExcluded || status_ == Status::kJoining;
  }

  /// Number of view changes this process has gone through (tests).
  [[nodiscard]] std::uint64_t views_installed() const { return views_installed_; }

  /// Crash-recovery entry point: forget any in-progress view change and
  /// rejoin the group through the JOIN/state-transfer path, exactly like a
  /// wrongly excluded process.  The caller (the data plane's on_restart)
  /// must have discarded its volatile protocol state first.  Members that
  /// receive a JOIN from a process still in their view treat it as
  /// evidence of a restart: the next view change excludes and immediately
  /// readmits it with a state transfer.
  void rejoin();

  // net::Layer — UNSTABLE / JOIN / STATE messages.
  void on_message(const net::Message& m) override;

  // fd::SuspicionListener
  void on_suspect(net::ProcessId p) override;
  void on_trust(net::ProcessId p) override;

 private:
  enum class Status { kMember, kViewChange, kExcluded, kJoining };

  struct Joiner {
    net::ProcessId p;
    std::uint64_t log_len;
    friend bool operator<(const Joiner& a, const Joiner& b) { return a.p < b.p; }
    friend bool operator==(const Joiner& a, const Joiner& b) { return a.p == b.p; }
  };

  class VcSignalPayload;
  class UnstableMsgPayload;
  class JoinPayload;
  class StatePayload;
  class MembershipProposal;

  /// Enter the view-change protocol.  The process that *initiates* (on a
  /// suspicion or a join request) first multicasts the VIEW-CHANGE signal
  /// (paper §4.3 step 1); processes that learn of the change skip it and
  /// only multicast their unstable messages (step 2).
  void start_view_change(bool initiator);
  void maybe_start_consensus();
  /// Blocked attempt (|P| below majority and nothing left to wait for):
  /// refresh the suspicion snapshot and retry shortly.
  void schedule_attempt_refresh();
  void on_decide(const consensus::InstanceKey& key, const net::PayloadPtr& value);
  void process_decision(const MembershipProposal& d);
  void install_view(View v);
  void become_excluded(const View& new_view);
  void send_join();
  void check_pending_suspicions();
  void replay_future(std::uint64_t view_id);

  net::System* sys_;
  net::ProcessId self_;
  fd::FailureDetector* fd_;
  consensus::ConsensusService* consensus_;
  MembershipClient* client_;

  View view_;
  Status status_ = Status::kMember;
  std::uint64_t views_installed_ = 0;

  // View-change state (valid while status_ == kViewChange).
  std::map<net::ProcessId, UnstableReport> unstable_received_;
  std::set<Joiner> joiners_;
  bool consensus_started_ = false;
  /// Suspicion snapshot of this view-change attempt: a member suspected at
  /// the start of the attempt, or while it runs, stays out of our proposal
  /// even if the failure detector trusts it again (the paper's point
  /// mistakes, TM = 0, must still cause exclusions — Fig. 6).
  std::set<net::ProcessId> vc_suspected_;
  /// Members that announced a restart (JOIN received while still in the
  /// view): excluded from our proposals like suspects — their pre-crash
  /// incarnation is gone and must not be waited for — and readmitted as
  /// joiners with a state transfer.
  std::set<net::ProcessId> restart_pending_;
  bool refresh_scheduled_ = false;

  // Joiner state.
  std::uint64_t join_view_hint_ = 0;  // most recent view id we were told of
  std::vector<net::ProcessId> join_targets_;

  // Messages for views we have not reached yet.
  std::map<std::uint64_t, std::vector<net::Message>> future_;
};

}  // namespace fdgm::gm
