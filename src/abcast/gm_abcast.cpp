#include "abcast/gm_abcast.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/observer.hpp"

namespace fdgm::abcast {

// -------------------------------------------------------------- wire types
// Payload kinds on kAtomicBroadcast: the GM stack uses 8..15 (the FD
// stack owns 0..7 — see fd_abcast.cpp).

class GmAbcastProcess::DataMsg final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 8;
  explicit DataMsg(AppMessagePtr msg) : Payload(kProto, kKind), msg(msg) {}
  AppMessagePtr msg;
};

class GmAbcastProcess::SeqnumMsg final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 9;
  SeqnumMsg(std::uint64_t view_id, std::vector<std::pair<MsgId, std::int64_t>> pairs)
      : Payload(kProto, kKind), view_id(view_id), pairs(std::move(pairs)) {}
  std::uint64_t view_id;
  std::vector<std::pair<MsgId, std::int64_t>> pairs;
};

class GmAbcastProcess::AckMsg final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 10;
  AckMsg(std::uint64_t view_id, std::int64_t cum)
      : Payload(kProto, kKind), view_id(view_id), cum(cum) {}
  std::uint64_t view_id;
  std::int64_t cum;
};

class GmAbcastProcess::DeliverMsg final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 11;
  DeliverMsg(std::uint64_t view_id, std::int64_t cum, std::int64_t stable)
      : Payload(kProto, kKind), view_id(view_id), cum(cum), stable(stable) {}
  std::uint64_t view_id;
  std::int64_t cum;
  /// Every view member holds content+order up to here (min cumulative
  /// ack): recently-delivered retention can be pruned up to this point.
  std::int64_t stable;
};

/// Repair request: "send me sequence numbers and contents in (from, to]".
/// Needed after a rejoin, when SEQNUM multicasts may have been sent to a
/// view that did not include the joiner yet.
class GmAbcastProcess::NeedMsg final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 12;
  NeedMsg(std::uint64_t view_id, std::int64_t from, std::int64_t to)
      : Payload(kProto, kKind), view_id(view_id), from(from), to(to) {}
  std::uint64_t view_id;
  std::int64_t from;
  std::int64_t to;
};

/// State transferred to a wrongly excluded process when it rejoins.
class GmAbcastProcess::GmState final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 13;
  GmState() : Payload(kProto, kKind) {}
  std::vector<AppMessagePtr> log_suffix;                       // missed deliveries
  std::vector<std::pair<AppMessagePtr, std::int64_t>> known;  // undelivered (+sn or -1)
  std::int64_t sn_floor = 0;
  std::int64_t settled = 0;  // sender's deliver point (joiner's new baseline)
};

// ------------------------------------------------------------ construction

GmAbcastProcess::GmAbcastProcess(net::System& sys, net::ProcessId self, fd::FailureDetector& fd,
                                 GmAbcastConfig cfg)
    : AtomicBroadcastProcess(sys, self, cfg.batching),
      cfg_(cfg),
      rb_(sys, self),
      consensus_(sys, self, fd, rb_),
      membership_(sys, self, fd, consensus_, *this) {
  view_ = membership_.view();
  acks_.assign(static_cast<std::size_t>(sys.n()), kNoAck);
  sys.node(self).register_handler(net::ProtocolId::kAtomicBroadcast, this);
}

GmAbcastProcess::~GmAbcastProcess() {
  sys_->node(self_).register_handler(net::ProtocolId::kAtomicBroadcast, nullptr);
}

// ------------------------------------------------------------- data plane

void GmAbcastProcess::submit_now(AppMessagePtr msg) {
  if (!member_) {
    // Wrongly excluded: hold the message until we rejoin.
    own_buffer_.push_back(msg);
    return;
  }
  sys_->node(self_).multicast_others(view_.members, net::ProtocolId::kAtomicBroadcast,
                                     sys_->arena().make<DataMsg>(msg));
  handle_data(msg);
}

void GmAbcastProcess::flush_batch(const AppMessagePtr* msgs, std::size_t count) {
  if (!member_) {
    own_buffer_.insert(own_buffer_.end(), msgs, msgs + count);
    return;
  }
  // One multicast carries the whole batch; the receivers (and we) admit k
  // messages and run the ordering step once, so the sequencer covers the
  // batch with a single SEQNUM assignment round.
  sys_->node(self_).multicast_others(
      view_.members, net::ProtocolId::kAtomicBroadcast,
      sys_->arena().make<AppBatch>(std::vector<AppMessagePtr>(msgs, msgs + count)));
  bool admitted = false;
  for (std::size_t i = 0; i < count; ++i) admitted |= admit_data(msgs[i]);
  if (admitted) trigger_ordering();
}

void GmAbcastProcess::on_restart() {
  // Crash-recovery: stable storage is what the base keeps (see its
  // on_restart) plus the buffer of accepted-but-unsent own messages;
  // every piece of in-flight coordination state belonged to the dead
  // incarnation.  In particular, stale sequence assignments of a dead
  // view must not survive — they could collide with the live view's
  // assignments after the state transfer (emplace keeps the first
  // mapping).  The floors stay: they are monotone and apply_state raises
  // them to the state sender's baseline anyway.  own_buffer_ must survive
  // the restart: the harness records an A-broadcast the moment the
  // application submits it, so dropping the buffer would leave recorded
  // messages undeliverable forever (and fail every drain check).
  msgs_.clear();
  arrival_order_.clear();
  sn_of_.clear();
  msg_at_.clear();
  recent_delivered_.clear();
  batch_ends_.clear();
  acks_.assign(static_cast<std::size_t>(sys_->n()), kNoAck);
  member_ = false;
  frozen_ = true;
  // Base class: re-route accepted-but-unflushed submissions; member_ is
  // already false, so they land in own_buffer_ and go out after the rejoin.
  AtomicBroadcastProcess::on_restart();
  membership_.rejoin();
}

void GmAbcastProcess::handle_data(const AppMessagePtr& msg) {
  if (admit_data(msg)) trigger_ordering();
}

bool GmAbcastProcess::admit_data(const AppMessagePtr& msg) {
  if (delivered(msg->id) || msgs_.contains(msg->id)) return false;
  msgs_.emplace(msg->id, arrival_order_.insert(arrival_order_.end(), msg));
  // Causal anchor (sequencer only): the message entered the pending queue
  // here; the walker closes the interval at the sn assignment.
  if (active_sequencer()) {
    if (auto* o = sys_->obs(); o != nullptr && o->causal()) {
      obs::MsgRefList refs;
      refs.add(msg->id.origin, msg->id.seq);
      o->trace_marker(obs::EdgeKind::kSeqEnter, self_, refs, sys_->now());
    }
  }
  return true;
}

std::int64_t GmAbcastProcess::seqnum_of(const MsgId& id) const {
  auto it = sn_of_.find(id);
  return it == sn_of_.end() ? -1 : it->second;
}

void GmAbcastProcess::trigger_ordering() {
  if (active_sequencer())
    sequence_pending();
  else
    try_advance_ack();
}

void GmAbcastProcess::sequence_pending() {
  // Shallow batch pipeline (uniform mode): at most two batches awaiting
  // their DELIVER announcement.
  if (cfg_.uniform) {
    std::erase_if(batch_ends_, [this](std::int64_t e) { return e <= announced_; });
    if (batch_ends_.size() >= kPipelineDepth) return;
  }
  // Assign the next sequence numbers to every known unsequenced message.
  std::vector<std::pair<MsgId, std::int64_t>> assigned;
  for (AppMessagePtr msg : arrival_order_) {
    const MsgId id = msg->id;
    if (sn_of_.contains(id)) continue;
    const std::int64_t sn = next_sn_++;
    sn_of_.emplace(id, sn);
    msg_at_.emplace(sn, id);
    assigned.emplace_back(id, sn);
  }
  if (assigned.empty()) return;
  // The sequencer's sn assignment is the instant a GM message's global
  // order becomes fixed — the "ordered" point of its lifecycle span.
  if (auto* o = sys_->obs()) {
    for (const auto& [id, sn] : assigned) o->on_ordered(id.origin, id.seq, sys_->now(), self_);
  }
  batch_ends_.push_back(next_sn_ - 1);
  sys_->node(self_).multicast_others(
      view_.members, net::ProtocolId::kAtomicBroadcast,
      sys_->arena().make<SeqnumMsg>(view_.id, std::move(assigned)));
  if (cfg_.uniform) {
    try_deliver_sequencer();
  } else {
    // Non-uniform: the sequencer delivers as soon as the order is fixed.
    deliver_up_to(next_sn_ - 1);
  }
}

void GmAbcastProcess::try_advance_ack() {
  const std::int64_t before = ack_sn_;
  while (true) {
    auto it = msg_at_.find(ack_sn_ + 1);
    if (it == msg_at_.end() || !msgs_.contains(it->second)) break;
    ++ack_sn_;
  }
  if (ack_sn_ == before) return;
  if (!member_ || frozen_) return;
  if (cfg_.uniform) {
    if (!is_sequencer())
      sys_->node(self_).send(view_.members.front(), net::ProtocolId::kAtomicBroadcast,
                             sys_->arena().make<AckMsg>(view_.id, ack_sn_));
    deliver_up_to(std::min(announced_, ack_sn_));
  } else {
    // Non-uniform: deliver as soon as content + order are known.
    deliver_up_to(ack_sn_);
  }
}

void GmAbcastProcess::try_deliver_sequencer() {
  if (!cfg_.uniform || !active_sequencer()) return;
  // Cumulative ack coverage: sn is deliverable once a majority of the view
  // (the sequencer included — it holds everything it assigned) covers it.
  // cover_buf_ is reused and selected with nth_element: O(|view|) per ack
  // instead of an allocation plus a full sort.
  std::vector<std::int64_t>& cover = cover_buf_;
  cover.clear();
  cover.push_back(next_sn_ - 1);
  for (net::ProcessId p : view_.members) {
    if (p == self_) continue;
    const std::int64_t a = acks_[static_cast<std::size_t>(p)];
    cover.push_back(a == kNoAck ? sn_floor_ : a);
  }
  const auto kth = cover.begin() + static_cast<std::ptrdiff_t>(view_.majority() - 1);
  std::nth_element(cover.begin(), kth, cover.end(), std::greater<>());
  const std::int64_t deliverable = *kth;
  if (deliverable <= announced_) return;
  const std::int64_t stable = *std::min_element(cover.begin(), cover.end());
  announced_ = deliverable;
  deliver_up_to(deliverable);
  forget_stable(stable);
  sys_->node(self_).multicast_others(
      view_.members, net::ProtocolId::kAtomicBroadcast,
      sys_->arena().make<DeliverMsg>(view_.id, deliverable, stable));
  // Batches may have completed: assign the next one if messages queued up.
  sequence_pending();
}

void GmAbcastProcess::deliver_up_to(std::int64_t sn) {
  while (deliver_sn_ < sn) {
    auto it = msg_at_.find(deliver_sn_ + 1);
    if (it == msg_at_.end()) break;
    auto mit = msgs_.find(it->second);
    if (mit == msgs_.end()) break;
    const AppMessagePtr msg = *mit->second;
    ++deliver_sn_;
    if (cfg_.uniform)
      recent_delivered_.emplace(deliver_sn_, msg);
    else
      msg_at_.erase(it);  // no stability point, and nothing reads it again
    deliver_msg(msg);
  }
}

void GmAbcastProcess::deliver_msg(AppMessagePtr msg) {
  if (delivered(msg->id)) return;
  // Content lives on in the run's arena.  Erased before record_delivery(),
  // which may re-enter the ordering step through a submission.
  if (auto it = msgs_.find(msg->id); it != msgs_.end()) {
    arrival_order_.erase(it->second);
    msgs_.erase(it);
  }
  sn_of_.erase(msg->id);
  record_delivery(msg);
}

// ---------------------------------------------------------------- messages

void GmAbcastProcess::on_message(const net::Message& m) {
  if (const auto* d = net::payload_cast<DataMsg>(m)) {
    handle_data(d->msg);
    return;
  }
  if (const auto* b = net::payload_cast<AppBatch>(m)) {
    bool admitted = false;
    for (AppMessagePtr msg : b->msgs) admitted |= admit_data(msg);
    if (admitted) trigger_ordering();
    return;
  }
  if (const auto* s = net::payload_cast<SeqnumMsg>(m)) {
    if (s->view_id != view_.id) return;  // stale view: ignored, re-sequenced later
    for (const auto& [id, sn] : s->pairs) {
      if (sn <= sn_floor_) continue;
      if (!delivered(id)) sn_of_.emplace(id, sn);  // repair may resend delivered sns
      msg_at_.emplace(sn, id);
    }
    try_advance_ack();
    return;
  }
  if (const auto* a = net::payload_cast<AckMsg>(m)) {
    if (a->view_id != view_.id || !active_sequencer()) return;
    std::int64_t& cum = acks_[static_cast<std::size_t>(m.src)];
    cum = std::max(cum, a->cum);
    try_deliver_sequencer();
    return;
  }
  if (const auto* del = net::payload_cast<DeliverMsg>(m)) {
    if (del->view_id != view_.id || frozen_ || !member_) return;
    announced_ = std::max(announced_, del->cum);
    deliver_up_to(std::min(announced_, ack_sn_));
    forget_stable(del->stable);
    if (announced_ > ack_sn_ && announced_ > requested_) {
      // Gap repair (post-rejoin): ask the sequencer for what we miss.
      requested_ = announced_;
      sys_->node(self_).send(view_.members.front(), net::ProtocolId::kAtomicBroadcast,
                             sys_->arena().make<NeedMsg>(view_.id, ack_sn_, announced_));
    }
    return;
  }
  if (const auto* need = net::payload_cast<NeedMsg>(m)) {
    if (need->view_id != view_.id || !is_sequencer()) return;
    // `from` (the requester's ack point) is at or above the stable point we
    // pruned to, so a delivered sn in range is still in recent_delivered_.
    std::vector<std::pair<MsgId, std::int64_t>> pairs;
    const std::int64_t lo = std::max(need->from, sn_floor_);
    for (std::int64_t sn = lo + 1; sn <= std::min(need->to, next_sn_ - 1); ++sn) {
      auto it = msg_at_.find(sn);
      if (it == msg_at_.end()) continue;
      pairs.emplace_back(it->second, sn);
      AppMessagePtr content = nullptr;
      if (auto mit = msgs_.find(it->second); mit != msgs_.end())
        content = *mit->second;
      else if (auto rit = recent_delivered_.find(sn); rit != recent_delivered_.end())
        content = rit->second;
      if (content != nullptr)
        sys_->node(self_).send(m.src, net::ProtocolId::kAtomicBroadcast,
                               sys_->arena().make<DataMsg>(content));
    }
    if (!pairs.empty()) {
      const SeqnumMsg* reply =
          sys_->arena().make<SeqnumMsg>(view_.id, std::move(pairs));
      if (batching().enabled) {
        // Hotspot mitigation: under batched load the repair traffic
        // concentrates on the sequencer (one lost SEQNUM gaps everyone).
        // Re-multicasting the assignments answers every gapped member with
        // one reply instead of one unicast per NACK.
        sys_->node(self_).multicast_others(view_.members, net::ProtocolId::kAtomicBroadcast,
                                           reply);
      } else {
        sys_->node(self_).send(m.src, net::ProtocolId::kAtomicBroadcast, reply);
      }
    }
    return;
  }
  throw std::logic_error("GmAbcastProcess: foreign payload");
}

// --------------------------------------------------- membership client side

gm::UnstableReport GmAbcastProcess::unstable_messages() const {
  gm::UnstableReport report;
  report.watermark = deliver_sn_;
  report.entries.reserve(arrival_order_.size() + recent_delivered_.size());
  // Undelivered messages, sequenced or not.
  for (AppMessagePtr msg : arrival_order_)
    report.entries.push_back(gm::UnstableEntry{msg, seqnum_of(msg->id)});
  // Recently delivered sequenced messages: possibly undelivered elsewhere,
  // so they must keep their sequence number through the view change.
  for (const auto& [sn, msg] : recent_delivered_)
    report.entries.push_back(gm::UnstableEntry{msg, sn});
  return report;
}

void GmAbcastProcess::on_view_change_started() { frozen_ = true; }

void GmAbcastProcess::flush(const std::vector<gm::UnstableEntry>& u, std::int64_t settled) {
  // Canonical flush order: sequenced messages by sequence number, then
  // unsequenced ones by id.  Every member applies the same decided vector,
  // so the logs stay identical.
  std::vector<gm::UnstableEntry> sequenced;
  std::vector<gm::UnstableEntry> plain;
  for (const gm::UnstableEntry& e : u)
    (e.seqnum >= 0 ? sequenced : plain).push_back(e);
  std::sort(sequenced.begin(), sequenced.end(),
            [](const auto& a, const auto& b) { return a.seqnum < b.seqnum; });
  std::sort(plain.begin(), plain.end(),
            [](const auto& a, const auto& b) { return a.msg->id < b.msg->id; });

  std::int64_t max_sn = sn_floor_;
  for (const gm::UnstableEntry& e : sequenced) {
    max_sn = std::max(max_sn, e.seqnum);
    deliver_msg(e.msg);  // we may never have seen it; no-op if delivered
  }
  for (const gm::UnstableEntry& e : plain) deliver_msg(e.msg);

  // Everything up to the decided settled point is done; mappings above the
  // floor belong to the dead view and will be re-assigned.
  sn_floor_ = std::max({sn_floor_, max_sn, settled});
  ack_sn_ = std::max(ack_sn_, sn_floor_);
  deliver_sn_ = std::max(deliver_sn_, sn_floor_);
  announced_ = std::max(announced_, sn_floor_);
  requested_ = std::max(requested_, sn_floor_);
  forget_stable(sn_floor_);
  drop_mappings_above_floor();
}

void GmAbcastProcess::forget_stable(std::int64_t sn) {
  recent_delivered_.erase(recent_delivered_.begin(), recent_delivered_.upper_bound(sn));
  msg_at_.erase(msg_at_.begin(), msg_at_.upper_bound(sn));
}

void GmAbcastProcess::drop_mappings_above_floor() {
  for (auto it = msg_at_.upper_bound(sn_floor_); it != msg_at_.end(); it = msg_at_.erase(it))
    sn_of_.erase(it->second);
}

void GmAbcastProcess::on_view_installed(const gm::View& v, bool member) {
  view_ = v;
  member_ = member;
  frozen_ = !member;
  acks_.assign(static_cast<std::size_t>(sys_->n()), kNoAck);
  if (!member) return;

  next_sn_ = sn_floor_ + 1;
  batch_ends_.clear();  // no batch in flight in the fresh view
  ack_sn_ = std::max(ack_sn_, sn_floor_);
  deliver_sn_ = std::max(deliver_sn_, sn_floor_);
  announced_ = std::max(announced_, sn_floor_);
  if (active_sequencer()) sequence_pending();
  try_advance_ack();
  send_buffered();
}

void GmAbcastProcess::send_buffered() {
  if (own_buffer_.empty()) return;
  std::vector<AppMessagePtr> buf;
  buf.swap(own_buffer_);
  for (AppMessagePtr msg : buf) {
    sys_->node(self_).multicast_others(view_.members, net::ProtocolId::kAtomicBroadcast,
                                       sys_->arena().make<DataMsg>(msg));
    handle_data(msg);
  }
}

net::PayloadPtr GmAbcastProcess::make_state(std::uint64_t from) const {
  GmState* st = sys_->arena().make<GmState>();
  for (std::size_t i = from; i < log().size(); ++i) st->log_suffix.push_back(log()[i]);
  for (AppMessagePtr msg : arrival_order_) st->known.emplace_back(msg, seqnum_of(msg->id));
  st->sn_floor = sn_floor_;
  st->settled = deliver_sn_;
  return st;
}

void GmAbcastProcess::apply_state(const net::PayloadPtr& state, const gm::View& v) {
  const GmState* st = net::payload_cast<GmState>(state);
  if (st == nullptr) throw std::logic_error("GmAbcastProcess: bad state payload");
  for (AppMessagePtr msg : st->log_suffix) deliver_msg(msg);
  // Raise the floor first: mappings in `known` above the sender's floor are
  // live assignments of the current view and must be kept.
  sn_floor_ = std::max(sn_floor_, st->sn_floor);
  drop_mappings_above_floor();  // our own leftovers from the dead view
  forget_stable(sn_floor_);
  for (const auto& [msg, sn] : st->known) {
    if (delivered(msg->id)) continue;
    if (!msgs_.contains(msg->id))
      msgs_.emplace(msg->id, arrival_order_.insert(arrival_order_.end(), msg));
    if (sn > sn_floor_) {
      sn_of_.emplace(msg->id, sn);
      msg_at_.emplace(sn, msg->id);
    }
  }
  // The state sender's deliver point becomes our baseline: everything it
  // delivered is in the suffix we just applied.
  ack_sn_ = std::max(sn_floor_, st->settled);
  deliver_sn_ = ack_sn_;
  announced_ = ack_sn_;
  requested_ = ack_sn_;
  // Note: on_view_installed(v, true) follows immediately (membership layer).
  (void)v;
}

}  // namespace fdgm::abcast

namespace fdgm::obs {

// Defined here because DATA / SEQNUM are private to the GM stack.
void classify_gm_payload(net::PayloadPtr p, MsgRefList& out) {
  using DataMsg = abcast::GmAbcastProcess::DataMsg;
  using SeqnumMsg = abcast::GmAbcastProcess::SeqnumMsg;
  if (const auto* d = net::payload_cast<DataMsg>(p)) {
    out.add(d->msg->id.origin, d->msg->id.seq);
    return;
  }
  if (const auto* s = net::payload_cast<SeqnumMsg>(p)) {
    for (const auto& [id, sn] : s->pairs) out.add(id.origin, id.seq);
  }
  // ACK / DELIVER / NEED / state transfer are control traffic.
}

}  // namespace fdgm::obs
