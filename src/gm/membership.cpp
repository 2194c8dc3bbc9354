#include "gm/membership.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "obs/observer.hpp"

namespace fdgm::gm {

namespace {
constexpr std::uint32_t kMembershipContext = 1;
/// Joiner retry period for JOIN requests (ms).
constexpr double kJoinRetryMs = 50.0;

/// Coordinator rotation for view-change consensus: the plain rotation of
/// the underlying consensus (round 1 is coordinated by the lowest-id
/// member).  When the crashed process is the sequencer this costs an
/// extra round — part of why the paper finds the view change more
/// expensive than the FD algorithm's recovery (§4.4, Fig. 8).
int vc_offset(const View& v) {
  (void)v;
  return 0;
}
}  // namespace

// ------------------------------------------------------------ wire payloads

/// The view-change signal the initiating process multicasts (paper §4.3,
/// step 1 of the five-step view change).
class GroupMembership::VcSignalPayload final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kMembership;
  static constexpr std::uint8_t kKind = 0;
  explicit VcSignalPayload(std::uint64_t view_id) : Payload(kProto, kKind), view_id(view_id) {}
  std::uint64_t view_id;
};

/// Unstable-message announcement (step 2).
class GroupMembership::UnstableMsgPayload final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kMembership;
  static constexpr std::uint8_t kKind = 1;
  UnstableMsgPayload(std::uint64_t view_id, UnstableReport report, std::vector<Joiner> joiners)
      : Payload(kProto, kKind),
        view_id(view_id),
        report(std::move(report)),
        joiners(std::move(joiners)) {}
  std::uint64_t view_id;
  UnstableReport report;
  std::vector<Joiner> joiners;
};

class GroupMembership::JoinPayload final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kMembership;
  static constexpr std::uint8_t kKind = 2;
  JoinPayload(std::uint64_t log_len, std::uint64_t view_hint)
      : Payload(kProto, kKind), log_len(log_len), view_hint(view_hint) {}
  std::uint64_t log_len;
  /// Most recent view id the joiner knows of; lets a member distinguish a
  /// stale retry (hint older than its installed view — the joiner has
  /// been readmitted since) from fresh restart evidence.
  std::uint64_t view_hint;
};

class GroupMembership::StatePayload final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kMembership;
  static constexpr std::uint8_t kKind = 3;
  StatePayload(View view, net::PayloadPtr state)
      : Payload(kProto, kKind), view(std::move(view)), state(state) {}
  View view;
  net::PayloadPtr state;
};

/// Consensus value of a view change: (P, U, J) plus the settled watermark.
class GroupMembership::MembershipProposal final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kMembership;
  static constexpr std::uint8_t kKind = 4;
  MembershipProposal(std::vector<net::ProcessId> members, std::vector<UnstableEntry> unstable,
                     std::vector<Joiner> joiners, std::int64_t settled)
      : Payload(kProto, kKind),
        members(std::move(members)),
        unstable(std::move(unstable)),
        joiners(std::move(joiners)),
        settled(settled) {}
  std::vector<net::ProcessId> members;  // P
  std::vector<UnstableEntry> unstable;  // U
  std::vector<Joiner> joiners;          // J
  std::int64_t settled;                 // max delivery watermark / sn in U
};

// ------------------------------------------------------------ construction

GroupMembership::GroupMembership(net::System& sys, net::ProcessId self, fd::FailureDetector& fd,
                                 consensus::ConsensusService& consensus,
                                 MembershipClient& client)
    : sys_(&sys), self_(self), fd_(&fd), consensus_(&consensus), client_(&client) {
  view_ = View{0, sys.all()};
  sys.node(self).register_handler(net::ProtocolId::kMembership, this);
  fd.add_listener(this);
  consensus.register_context(
      kMembershipContext,
      consensus::ConsensusService::ContextConfig{
          // Never join eagerly: the paper's protocol enters consensus only
          // once the unstable messages of every unsuspected member are in.
          // Early consensus traffic is buffered by the service; if we are
          // a member that has not yet noticed the view change, enter it.
          .join =
              [this](const consensus::InstanceKey& key) -> std::optional<consensus::StartInfo> {
                if (key.number == view_.id && status_ == Status::kMember) {
                  sys_->scheduler().schedule_after(0, [this, vid = key.number] {
                    if (status_ == Status::kMember && view_.id == vid)
                      start_view_change(/*initiator=*/false);
                  });
                }
                return std::nullopt;
              },
          .on_decide = [this](const consensus::InstanceKey& key,
                              const net::PayloadPtr& value) { on_decide(key, value); },
      });
}

GroupMembership::~GroupMembership() {
  fd_->remove_listener(this);
  sys_->node(self_).register_handler(net::ProtocolId::kMembership, nullptr);
}

// -------------------------------------------------------------- suspicions

void GroupMembership::on_suspect(net::ProcessId p) {
  if (p == self_) return;
  switch (status_) {
    case Status::kMember:
      if (view_.contains(p)) start_view_change(/*initiator=*/true);
      break;
    case Status::kViewChange:
      // The snapshot of this attempt grows: we stop waiting for p and our
      // proposal will not include it.
      if (view_.contains(p)) vc_suspected_.insert(p);
      maybe_start_consensus();
      break;
    case Status::kExcluded:
    case Status::kJoining:
      break;  // not our view change
  }
}

void GroupMembership::on_trust(net::ProcessId p) {
  (void)p;
  // The snapshot is sticky (a point mistake still excludes), but the end
  // of a suspicion can unblock a *refreshed* attempt: re-evaluate.
  if (status_ == Status::kViewChange) maybe_start_consensus();
}

// -------------------------------------------------------------- view change

void GroupMembership::start_view_change(bool initiator) {
  if (status_ != Status::kMember) return;
  status_ = Status::kViewChange;
  consensus_started_ = false;
  unstable_received_.clear();
  client_->on_view_change_started();

  // Snapshot the suspect set of this attempt (paper: the proposal is made
  // of "all processes it does not suspect").
  vc_suspected_.clear();
  for (net::ProcessId p : view_.members)
    if (p != self_ && fd_->suspects(p)) vc_suspected_.insert(p);

  // Step 1 (initiator only): the view-change signal.
  if (initiator)
    sys_->node(self_).multicast_others(view_.members, net::ProtocolId::kMembership,
                                       sys_->arena().make<VcSignalPayload>(view_.id));

  // Step 2: announce our unstable messages.
  unstable_received_[self_] = client_->unstable_messages();
  std::vector<Joiner> js(joiners_.begin(), joiners_.end());
  sys_->node(self_).multicast_others(
      view_.members, net::ProtocolId::kMembership,
      sys_->arena().make<UnstableMsgPayload>(view_.id, unstable_received_[self_],
                                             std::move(js)));
  maybe_start_consensus();
}

void GroupMembership::maybe_start_consensus() {
  if (status_ != Status::kViewChange || consensus_started_) return;
  // Proceed once we hold the unstable messages of every member not in the
  // attempt's suspicion snapshot — and they form at least a majority
  // (otherwise the next view could not make progress).  The waiting check
  // runs first, allocation-free with an early exit: it is re-evaluated on
  // every report/suspicion/restart event of the view change, which makes
  // it O(n^2) per view change at large n if it builds state eagerly.
  const auto excluded = [&](net::ProcessId q) {
    return (vc_suspected_.contains(q) || restart_pending_.contains(q)) && q != self_;
  };
  for (net::ProcessId q : view_.members)
    if (!unstable_received_.contains(q) && !excluded(q)) return;  // waiting
  std::vector<net::ProcessId> p_set;
  p_set.reserve(view_.members.size());
  for (net::ProcessId q : view_.members)
    if (unstable_received_.contains(q) && !excluded(q)) p_set.push_back(q);
  if (p_set.size() < view_.majority()) {
    // Too many members in the snapshot: this attempt cannot form a valid
    // view.  Refresh the snapshot shortly — with short mistakes (small
    // TM) the next attempt proceeds; with long ones the view change
    // stalls for ~TM, which is the GM algorithm's TM sensitivity (Fig 7).
    schedule_attempt_refresh();
    return;
  }

  // U = union of all received unstable sets; a message sequenced anywhere
  // keeps its sequence number.  The settled watermark is the max of the
  // contributors' delivery watermarks and of the sequence numbers in U.
  std::map<abcast::MsgId, UnstableEntry> u;
  std::int64_t settled = 0;
  for (const auto& [q, report] : unstable_received_) {
    settled = std::max(settled, report.watermark);
    for (const UnstableEntry& e : report.entries) {
      auto [it, inserted] = u.try_emplace(e.msg->id, e);
      if (!inserted && e.seqnum >= 0) it->second.seqnum = e.seqnum;
      settled = std::max(settled, e.seqnum);
    }
  }
  std::vector<UnstableEntry> u_vec;
  u_vec.reserve(u.size());
  for (auto& [id, e] : u) u_vec.push_back(e);

  // J = known joiners that are not already members.
  std::vector<Joiner> j_vec;
  for (const Joiner& j : joiners_)
    if (!view_.contains(j.p)) j_vec.push_back(j);

  consensus_started_ = true;
  consensus_->start(
      consensus::InstanceKey{kMembershipContext, view_.id},
      consensus::StartInfo{
          .members = &view_.members,
          .coordinator_offset = vc_offset(view_),
          .initial = sys_->arena().make<MembershipProposal>(std::move(p_set), std::move(u_vec),
                                                            std::move(j_vec), settled),
      });
}

void GroupMembership::schedule_attempt_refresh() {
  if (refresh_scheduled_) return;
  refresh_scheduled_ = true;
  sys_->scheduler().schedule_after(1.0, [this] {
    refresh_scheduled_ = false;
    if (status_ != Status::kViewChange || consensus_started_) return;
    vc_suspected_.clear();
    for (net::ProcessId p : view_.members)
      if (p != self_ && fd_->suspects(p)) vc_suspected_.insert(p);
    maybe_start_consensus();
  });
}

// ----------------------------------------------------------------- decision

void GroupMembership::on_decide(const consensus::InstanceKey& key, const net::PayloadPtr& value) {
  if (key.number != view_.id) return;  // stale or future decision
  if (status_ == Status::kExcluded || status_ == Status::kJoining) return;
  const MembershipProposal* d = net::payload_cast<MembershipProposal>(value);
  if (d == nullptr) throw std::logic_error("GroupMembership: bad decision payload");
  process_decision(*d);
}

void GroupMembership::process_decision(const MembershipProposal& d) {
  if (getenv("FDGM_TRACE_VC")) {
    std::fprintf(stderr, "[%.2f] p%d decision view%llu: P'={", sys_->now(), self_,
                 (unsigned long long)view_.id);
    for (auto p : d.members) std::fprintf(stderr, "%d,", p);
    std::fprintf(stderr, "} J'=%zu U'=%zu\n", d.joiners.size(), d.unstable.size());
  }
  if (status_ == Status::kMember) {
    // The decision overtook the unstable announcements: freeze now.
    status_ = Status::kViewChange;
    client_->on_view_change_started();
  }
  client_->flush(d.unstable, d.settled);

  // Survivors keep view order; joiners are appended (View doc).
  View nv;
  nv.id = view_.id + 1;
  nv.members = d.members;
  for (const Joiner& j : d.joiners)
    if (!nv.contains(j.p)) nv.members.push_back(j.p);

  // Reset view-change state; drop joiners that are members of the new
  // view (whether via this decision's J or an earlier readmission).
  unstable_received_.clear();
  consensus_started_ = false;
  for (auto it = joiners_.begin(); it != joiners_.end();)
    it = nv.contains(it->p) ? joiners_.erase(it) : std::next(it);
  // A restart announcement is settled once the decision no longer carries
  // the stale incarnation as a survivor (excluded, and usually readmitted
  // fresh through J); one that overtook a running consensus stays pending
  // and triggers the next view change after installation.
  for (auto it = restart_pending_.begin(); it != restart_pending_.end();) {
    const bool survivor =
        std::find(d.members.begin(), d.members.end(), *it) != d.members.end();
    it = survivor ? std::next(it) : restart_pending_.erase(it);
  }

  if (nv.contains(self_)) {
    install_view(nv);
    // State transfer: the lowest-id member that is not itself a joiner
    // sends each joiner the log suffix it missed.
    std::vector<net::ProcessId> joiner_ids;
    for (const Joiner& j : d.joiners) joiner_ids.push_back(j.p);
    net::ProcessId responsible = -1;
    for (net::ProcessId p : nv.members) {
      if (std::find(joiner_ids.begin(), joiner_ids.end(), p) == joiner_ids.end()) {
        responsible = p;
        break;
      }
    }
    if (responsible == self_) {
      for (const Joiner& j : d.joiners) {
        const StatePayload* state =
            sys_->arena().make<StatePayload>(nv, client_->make_state(j.log_len));
        sys_->node(self_).send(j.p, net::ProtocolId::kMembership, state);
      }
    }
  } else {
    become_excluded(nv);
  }
}

void GroupMembership::install_view(View v) {
  view_ = std::move(v);
  status_ = Status::kMember;
  if (auto* o = sys_->obs()) o->count(self_, obs::Counter::kViewChanges, sys_->now());
  ++views_installed_;
  client_->on_view_installed(view_, true);
  replay_future(view_.id);
  check_pending_suspicions();
}

void GroupMembership::check_pending_suspicions() {
  if (status_ != Status::kMember) return;
  // Level-triggered re-check: a suspicion that outlived the view change
  // (long TM), or a join request not yet admitted, starts the next one.
  bool trigger = false;
  for (const Joiner& j : joiners_)
    if (!view_.contains(j.p)) trigger = true;
  for (net::ProcessId p : view_.members)
    if (p != self_ && (fd_->suspects(p) || restart_pending_.contains(p))) trigger = true;
  if (trigger) start_view_change(/*initiator=*/true);
}

void GroupMembership::replay_future(std::uint64_t view_id) {
  auto it = future_.find(view_id);
  if (it == future_.end()) return;
  auto msgs = std::move(it->second);
  future_.erase(it);
  for (const net::Message& m : msgs) on_message(m);
  // Drop anything older than the current view.
  while (!future_.empty() && future_.begin()->first < view_.id) future_.erase(future_.begin());
}

// ----------------------------------------------------------------- exclusion

void GroupMembership::become_excluded(const View& new_view) {
  view_ = new_view;  // remember whom to ask for readmission
  status_ = Status::kJoining;
  join_view_hint_ = new_view.id;
  join_targets_ = new_view.members;
  client_->on_view_installed(new_view, false);
  send_join();
}

void GroupMembership::rejoin() {
  // Crash-recovery: every view-change negotiation this incarnation may
  // have been part of is void; fall back to the joiner protocol.  JOINs go
  // to every process — we cannot know the current membership — and only
  // actual members act on them.
  const bool chain_armed = status_ == Status::kJoining;
  status_ = Status::kJoining;
  consensus_started_ = false;
  unstable_received_.clear();
  joiners_.clear();
  restart_pending_.clear();
  vc_suspected_.clear();
  future_.clear();
  join_view_hint_ = view_.id;
  join_targets_.clear();
  for (net::ProcessId p : sys_->all())
    if (p != self_) join_targets_.push_back(p);
  if (!chain_armed) send_join();  // else the periodic JOIN retry is already running
}

void GroupMembership::send_join() {
  if (status_ != Status::kJoining) return;
  sys_->node(self_).multicast(join_targets_, net::ProtocolId::kMembership,
                              sys_->arena().make<JoinPayload>(client_->log_length(),
                                                              join_view_hint_));
  sys_->scheduler().schedule_after(kJoinRetryMs, [this] { send_join(); });
}

// ----------------------------------------------------------------- messages

void GroupMembership::on_message(const net::Message& m) {
  if (const auto* sig = net::payload_cast<VcSignalPayload>(m)) {
    if (sig->view_id < view_.id) return;  // stale
    if (sig->view_id > view_.id) {
      future_[sig->view_id].push_back(m);
      return;
    }
    if (status_ == Status::kMember) start_view_change(/*initiator=*/false);
    return;
  }
  if (const auto* u = net::payload_cast<UnstableMsgPayload>(m)) {
    if (u->view_id < view_.id) return;  // stale
    if (u->view_id > view_.id) {
      future_[u->view_id].push_back(m);
      return;
    }
    if (status_ == Status::kExcluded || status_ == Status::kJoining) return;
    for (const Joiner& j : u->joiners) joiners_.insert(j);
    if (status_ == Status::kMember) start_view_change(/*initiator=*/false);  // just learned
    unstable_received_[m.src] = u->report;
    maybe_start_consensus();
    return;
  }
  if (const auto* j = net::payload_cast<JoinPayload>(m)) {
    if (status_ == Status::kExcluded || status_ == Status::kJoining) return;
    // Never admit a process the local failure detector still suspects: a
    // recovered process is readmitted only once its recovery is detected
    // (it keeps retrying JOIN until then).  Without this guard, admission
    // and the lingering suspicion race into an exclusion/readmission loop.
    if (fd_->suspects(m.src)) return;
    if (view_.contains(m.src)) {
      // A retry the joiner sent just before we installed the view that
      // readmitted it: its hint predates our view, so this is no restart.
      if (j->view_hint < view_.id) return;
      // A JOIN from a current member means it crashed and restarted: the
      // incarnation that held our state is gone.  Exclude the stale
      // incarnation and readmit the new one (with a state transfer) at
      // the next view change.  (A restart whose hint lags our view can
      // only be dropped here while the crash itself goes undetected; the
      // heartbeat-gap suspicion at crash + TD excludes it regardless.)
      joiners_.insert(Joiner{m.src, j->log_len});
      if (restart_pending_.insert(m.src).second) {
        if (status_ == Status::kMember)
          start_view_change(/*initiator=*/true);
        else if (status_ == Status::kViewChange)
          maybe_start_consensus();  // stop waiting for the dead incarnation
        // Liveness of the view change does not depend on this JOIN: the
        // monitors observed the crash's heartbeat gap and will suspect
        // the restarted process from crash + TD until recovery + TD (see
        // QosFailureDetectorModel::on_crash), letting the view-change
        // consensus rotate past it while it is joining and silent.
      }
      return;
    }
    joiners_.insert(Joiner{m.src, j->log_len});
    if (status_ == Status::kMember)
      start_view_change(/*initiator=*/true);
    // If a view change is already running, the joiner is picked up either
    // by this round's proposal (if not yet proposed) or by the re-check
    // after installation.
    return;
  }
  if (const auto* s = net::payload_cast<StatePayload>(m)) {
    if (status_ != Status::kJoining) return;
    if (s->view.id < join_view_hint_) return;  // stale state
    client_->apply_state(s->state, s->view);
    view_ = s->view;
    status_ = Status::kMember;
    if (auto* o = sys_->obs()) o->count(self_, obs::Counter::kViewChanges, sys_->now());
    ++views_installed_;
    client_->on_view_installed(view_, true);
    replay_future(view_.id);
    check_pending_suspicions();
    return;
  }
  throw std::logic_error("GroupMembership: foreign payload");
}

}  // namespace fdgm::gm
