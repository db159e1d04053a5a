// A PBFT replica (Castro & Liskov OSDI'99) with the two Blockplane
// modifications from §IV-B of the paper:
//
//   1. Every committed value carries a record-type annotation (opaque to
//      this module; Blockplane encodes it inside the value).
//   2. When a replica becomes *prepared* it calls a registered verification
//      routine and withholds its commit-phase vote if verification fails.
//
// The replica implements the normal three-phase case, view changes with
// verifiable prepared-certificates, stable checkpoints with log truncation,
// and one-outstanding-batch proposal (the paper's group-commit rule:
// "a leader only attempts to commit a single batch and does not start the
// next one until the current one is committed").
//
// The replica deliberately does not register itself with the Network: a
// Blockplane node multiplexes several protocol stacks behind one NodeId and
// forwards PBFT traffic here via HandleMessage.
#ifndef BLOCKPLANE_PBFT_REPLICA_H_
#define BLOCKPLANE_PBFT_REPLICA_H_

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>

#include "common/congestion.h"
#include "crypto/signer.h"
#include "net/network.h"
#include "pbft/config.h"
#include "pbft/message.h"
#include "sim/timer.h"

namespace blockplane::pbft {

/// Byzantine behaviours injectable for testing (§VII lemmas).
enum class ByzantineMode {
  kNone = 0,
  /// Drops all input and produces no output (a crashed or mute node).
  kSilent,
  /// As leader, sends conflicting pre-prepares to different replicas.
  kEquivocate,
  /// Sends prepare/commit votes with corrupted digests.
  kBogusVotes,
  /// Never passes the verification routine (withholds commit votes).
  kRejectVerification,
  /// As a Blockplane unit leader: censors the first client request it sees
  /// (never proposing it) while continuing to propose later ones, and
  /// bypasses the honest admission projection. Downstream this yields
  /// non-contiguous geo positions in the unit log — the byzantine-leader
  /// geo-reorder attack the quarantine-and-gap-fill defense exists for
  /// (DESIGN.md §10).
  kReorderGeo,
};

class PbftReplica : public net::Host {
 public:
  /// Called for every committed value, in sequence order, with the
  /// value's SHA-256 digest, checked against the value on every path that
  /// fills an instance, so callers need not hash the value again.
  using ExecuteCallback = std::function<void(uint64_t seq, const Bytes& value,
                                             const Digest& digest)>;
  /// The Blockplane verification-routine hook. Returning false withholds
  /// this replica's commit vote for the value.
  using Verifier = std::function<bool(const Bytes& value)>;

  PbftReplica(net::Network* network, crypto::KeyStore* keys,
              PbftConfig config, net::NodeId self, ExecuteCallback execute);

  BP_DISALLOW_COPY_AND_ASSIGN(PbftReplica);

  /// Registers this replica as the network host for its NodeId (standalone
  /// deployments only; embedded deployments forward messages instead).
  void RegisterWithNetwork();

  /// Feeds one PBFT message (types kRequest..kSnapshot).
  void HandleMessage(const net::Message& msg) override;

  void SetVerifier(Verifier verifier) { verifier_ = std::move(verifier); }

  /// Leader-side admission check for the sliding proposal window. The
  /// final-mode verifier (SetVerifier) judges values against *applied*
  /// state, which only matches propose time under stop-and-wait; with
  /// `config.window > 1` the leader must instead judge new values against a
  /// *projected* state that assumes every earlier admitted value commits.
  /// `admit` is called once per admitted value in proposal order (and must
  /// advance its projection on success); `reset` re-bases the projection on
  /// applied state. The replica calls `reset` on view entry, then replays
  /// all decided-or-carried-but-unexecuted values through `admit` in
  /// sequence order to rebuild the projection. When no admission hook is
  /// set the plain verifier is used (seed behaviour, sufficient at window
  /// 1).
  using AdmissionCheck = std::function<bool(const Bytes& value)>;
  void SetAdmission(AdmissionCheck admit, std::function<void()> reset) {
    admission_ = std::move(admit);
    admission_reset_ = std::move(reset);
  }
  void SetByzantineMode(ByzantineMode mode) { byzantine_ = mode; }

  net::NodeId self() const { return self_; }
  uint64_t view() const { return view_; }
  net::NodeId leader() const { return config_.LeaderOf(view_); }
  bool IsLeader() const { return leader() == self_; }
  uint64_t last_executed() const { return last_executed_; }
  uint64_t last_stable_checkpoint() const { return last_stable_; }
  /// The digest chain over every value executed so far (ChainDigest).
  const Digest& state_digest() const { return state_digest_; }
  const PbftConfig& config() const { return config_; }

  /// Executed values by sequence number above the last stable checkpoint,
  /// kept only without a read hook (test/diagnostic access).
  const std::map<uint64_t, Bytes>& executed_log() const {
    return executed_log_;
  }

  /// §VI-B: asks every peer for the entries this replica has not executed
  /// (after recovery, and whenever it finds itself behind). Each answer is
  /// one verified page; a page that advances execution asks for the next.
  void CatchUp();

  /// Reads the value this replica executed at `seq` into `*value`; false
  /// when it executed nothing there (a no-op or a duplicate). Catch-up
  /// pages below the stable checkpoint are served through it; without one
  /// a replica serves only the committed entries above it.
  using ReadExecuted = std::function<bool(uint64_t seq, Bytes* value)>;
  void SetReadExecuted(ReadExecuted read) { read_executed_ = std::move(read); }

  /// The executor's derived state, for an executor that keeps a bounded
  /// window of values (DESIGN.md §10, retention). `save` encodes it right
  /// after an execution; every checkpoint certifies it with the value
  /// chain and the dedup window. When the replica adopts stable checkpoint
  /// c it moves its horizon to its newest checkpoint at or below c - 4·I
  /// and calls `drop` with it: pages no longer read values at or below it.
  /// A fetch at or below the horizon gets a base page, which an asker
  /// installs through `load` (false: malformed) instead of executing the
  /// values. Without hooks, pages always carry the values.
  struct StateHooks {
    std::function<Bytes()> save;
    std::function<bool(uint64_t seq, const Bytes& state)> load;
    std::function<void(uint64_t horizon)> drop;
  };
  void SetStateHooks(StateHooks hooks) { state_hooks_ = std::move(hooks); }

  /// The oldest stable checkpoint whose certificate and state this replica
  /// keeps (0 before the first move); pages start at or above it.
  uint64_t horizon() const { return horizon_; }
  /// Copies the newest kept checkpoint that has both a certificate and a
  /// state, with that state: the base a lagging peer group installs
  /// (DESIGN.md §10); false while there is none.
  bool NewestBase(StableCheckpoint* checkpoint, CheckpointState* state) const;
  /// The oldest stable checkpoint certificate kept (test access).
  uint64_t oldest_checkpoint() const {
    return checkpoints_.empty() ? 0 : checkpoints_.begin()->first;
  }
  /// Sizes of the dedup window and of the leader's proposed-request set
  /// (test access).
  size_t executed_request_count() const { return executed_window_.size(); }
  size_t assigned_request_count() const { return assigned_requests_.size(); }

 private:
  struct Instance {
    explicit Instance(sim::Simulator* simulator) : progress_timer(simulator) {}

    uint64_t view = 0;
    /// The RequestDigest the votes endorse, and the value's own digest,
    /// which the value chain links.
    Digest digest{};
    Digest value_digest{};
    bool has_preprepare = false;
    Signature preprepare_sig;
    Bytes value;
    uint64_t client_token = 0;
    uint64_t req_id = 0;
    /// A vote carries the view and digest it endorsed; only votes matching
    /// the instance's view and digest count (votes can arrive before the
    /// pre-prepare, and a later view can re-propose a committed seq).
    struct Vote {
      uint64_t view = 0;
      Digest digest{};
      Signature sig;
    };
    /// Prepare votes by replica index (backups only), kept as signatures so
    /// prepared-certificates can be carried into view changes.
    std::map<int32_t, Vote> prepares;
    std::map<int32_t, Vote> commits;
    /// The commit certificate served to catching-up peers: 2f+1 matching
    /// commit votes of `cert_view`, frozen when the instance committed, or
    /// the verified certificate of the page entry that filled it.
    uint64_t cert_view = 0;
    std::vector<Signature> cert;
    bool sent_prepare = false;
    bool sent_commit = false;
    bool prepared = false;
    bool committed = false;
    /// Filled from a page entry: committed, but with no pre-prepare
    /// signature to prove it prepared, so view changes leave it out.
    bool caught_up = false;
    /// Prepared but the verification routine rejected; re-tried as local
    /// state advances (the routine may depend on earlier executions).
    bool verify_pending = false;
    sim::Timer progress_timer;
    /// Causal trace of the request driving this instance (0 = untraced).
    /// Set from the pre-prepare (or the leader's pending request) and
    /// backfilled from the first traced vote that arrives before it.
    uint64_t trace_id = 0;
    /// Phase timestamps for the latency breakdown: when this replica first
    /// saw the instance, when it prepared, and when it committed. Spans are
    /// emitted at execution time (ExecuteReady).
    sim::SimTime ts_started = 0;
    sim::SimTime ts_prepared = 0;
    sim::SimTime ts_committed = 0;
  };

  /// A client request queued at the leader, with its causal trace and the
  /// time it entered the proposal queue (for queue-wait trace spans).
  struct PendingRequest {
    RequestMsg request;
    uint64_t trace_id = 0;
    sim::SimTime enqueued = 0;
  };

  // -- message handlers --
  void OnRequest(const net::Message& msg);
  /// kFetchSnapshot: answers with one page (see SnapshotMsg).
  void OnFetchSnapshot(const net::Message& msg);
  /// kSnapshot: verifies and executes a page, adopts a proven higher view,
  /// and asks for the next page when this one advanced execution.
  void OnSnapshot(const net::Message& msg);
  void OnCheckpoint(const net::Message& msg);
  void OnViewChange(const net::Message& msg);
  void OnNewView(const net::Message& msg);
  /// kPrePrepare: decode, leader/signature/digest checks, then the state
  /// transition and this replica's prepare vote.
  void OnPrePrepare(const net::Message& msg);
  /// kPrepare/kCommit: decode, membership and signature checks, then the
  /// vote is recorded.
  void OnVote(const net::Message& msg);

  // -- leader logic --
  void MaybeProposeNext();
  void Propose(uint64_t client_token, uint64_t req_id, Bytes value,
               uint64_t trace_id, sim::SimTime enqueued);
  /// Highest sequence number a leader may assign: the low watermark
  /// (last stable checkpoint) plus a span that keeps the un-truncated log
  /// bounded even when checkpoints lag the window.
  uint64_t HighWatermark() const;
  /// Propose-time admission: kRejectVerification parity, empty-value
  /// passthrough, then the projected-state admission hook (falling back to
  /// the final-mode verifier when no hook is installed).
  bool AdmitValue(const Bytes& value);
  /// Re-bases the admission projection on applied state, then replays every
  /// decided-or-carried-but-unexecuted value (`extra`, keyed by seq, wins
  /// over committed instances) through the admission hook in seq order.
  void RebuildAdmissionProjection(
      const std::map<uint64_t, const Bytes*>& extra);

  // -- phase transitions --
  void MaybePrepared(uint64_t seq);
  void MaybeCommitted(uint64_t seq);
  void SendCommitVote(uint64_t seq);
  void RetryPendingVerifications();
  /// Number of votes in `votes` for `view` and `digest`.
  static int CountMatching(const std::map<int32_t, Instance::Vote>& votes,
                           uint64_t view, const Digest& digest);
  void ExecuteReady();
  void SendReply(const Instance& instance, uint64_t seq);
  void TakeCheckpoint(uint64_t seq);

  // -- checkpoints and catch-up --
  /// The members among `sigs` whose signature over `body` verifies.
  std::map<int32_t, Signature> ValidSigners(
      const Bytes& body, const std::vector<Signature>& sigs) const;
  /// 2f+1 distinct valid checkpoint signatures (seq 0 needs none).
  bool ValidCheckpoint(const StableCheckpoint& checkpoint) const;
  /// Keeps `checkpoint`'s certificate and, if it is above the last stable
  /// checkpoint, makes it the new one, truncates the log below it and
  /// moves the horizon.
  void AdoptStableCheckpoint(StableCheckpoint checkpoint);
  /// Drops the certificates and states below `horizon` and tells the
  /// executor (StateHooks::drop).
  void SetHorizon(uint64_t horizon);
  /// Executes the certified part of `page`, or installs its base state,
  /// and fills committed instances from its certified entries above the
  /// checkpoint (moving their values).
  void InstallPage(SnapshotMsg* page);

  // -- the dedup window --
  /// Sequence numbers a request counts as executed for after the one that
  /// executed it, and the span of values kept below the last stable
  /// checkpoint: 4·I.
  uint64_t RetainedSpan() const { return 4 * config_.checkpoint_interval; }
  bool Executed(uint64_t client_token, uint64_t req_id) const {
    return executed_reqs_.count({client_token, req_id}) > 0;
  }
  /// What a checkpoint taken now certifies.
  CheckpointState CurrentState() const;
  /// Replaces the dedup window with a certified one.
  void InstallExecuted(const std::vector<ExecutedRequest>& executed);

  // -- view changes --
  /// The instance for `seq`, created empty if there is none yet.
  Instance& InstanceAt(uint64_t seq);
  void ArmProgressTimer(uint64_t seq);
  /// (Re-)arms the censorship watchdog for a watched client request; when
  /// it fires without the request executing, the leader is suspect.
  void ArmRequestWatchdog(const std::pair<uint64_t, uint64_t>& key);
  void StartViewChange(uint64_t new_view);
  void MaybeAbandonViewChange();
  /// Installs view `v` from a validated set of view-change messages:
  /// adopts the highest stable checkpoint the set proves, then recomputes
  /// the carried-over proposals deterministically.
  void EnterView(uint64_t v, const std::vector<ViewChangeMsg>& vcs);
  /// The number of distinct valid backup prepares in `proof` (2f make it
  /// a prepared certificate), or -1 without a valid pre-prepare.
  int ValidPrepares(const PreparedProof& proof) const;
  /// Enters `nv.view` if it is above ours and `nv` proves it: the new
  /// leader's signature over 2f+1 distinct signed view changes for it. The
  /// NEW-VIEW may come from its leader or inside a catch-up page.
  bool AdoptNewView(const NewViewMsg& nv);
  void MaybeSendNewView(uint64_t v);

  // -- plumbing --
  /// Encodes the payload once and fans it out by refcount bump: every
  /// recipient's Message shares one allocation (encode-once broadcast).
  /// `trace_id` (if non-zero) tags every outgoing Message for causal
  /// tracing; it rides the simulator Message out-of-band, not the wire.
  void Broadcast(net::MessageType type, Bytes payload, uint64_t trace_id = 0);
  void SendTo(net::NodeId dst, net::MessageType type, Bytes payload,
              uint64_t trace_id = 0);
  /// Sends an already-shared payload without copying (broadcast fan-out,
  /// verbatim request forwarding).
  void SendShared(net::NodeId dst, net::MessageType type,
                  net::PayloadPtr payload, uint64_t trace_id = 0);
  /// Canonical body for `vote`, memoized per (type, view, seq): the 2f+1
  /// votes of one instance share a single encode instead of re-encoding
  /// identical bytes per vote. Entries whose digest differs (byzantine
  /// bogus-digest votes) bypass the memo.
  const Bytes& CanonicalBodyFor(const VoteMsg& vote);
  bool RunVerifier(const Bytes& value) const;
  /// Whether a client token names a node of the topology. A request
  /// carries no integrity check, so a corrupted one may name none.
  bool KnownClient(uint64_t client_token) const;

  net::Network* network_;
  sim::Simulator* sim_;
  crypto::KeyStore* keys_;
  std::unique_ptr<crypto::Signer> signer_;
  PbftConfig config_;
  net::NodeId self_;
  int index_;
  /// The proposal window (DESIGN.md §13): starts at and never exceeds
  /// `config_.window`; completed view changes halve it.
  common::WindowController window_ctl_;
  ExecuteCallback execute_;
  Verifier verifier_;
  AdmissionCheck admission_;
  std::function<void()> admission_reset_;
  ByzantineMode byzantine_ = ByzantineMode::kNone;

  uint64_t view_ = 0;
  bool in_view_change_ = false;
  uint64_t target_view_ = 0;
  sim::Timer view_change_timer_;
  /// Consecutive view-change escalations without entering a view. Drives
  /// the capped exponential backoff of the escalation timer; reset on view
  /// entry and when a lone view change is abandoned.
  uint64_t viewchange_attempts_ = 0;
  /// Per-replica jitter stream for the view-change backoff. Seeded
  /// deterministically from this replica's identity (NOT forked from the
  /// simulator's root RNG — forking there would perturb every downstream
  /// fork and break golden traces).
  sim::Rng backoff_rng_;
  /// kReorderGeo: set once the byzantine leader has censored its first
  /// request.
  bool reorder_stashed_ = false;

  uint64_t next_seq_ = 1;  // leader: next sequence number to assign
  /// True while the current window-stall episode is open: the leader had
  /// queued requests it could not propose. pbft_window_stalls counts
  /// episode openings, not pump invocations; any successful proposal
  /// (partial drain included) closes the episode.
  bool window_stalled_ = false;
  std::deque<PendingRequest> pending_requests_;
  /// Requests queued or proposed and not yet executed (leader-side dedup;
  /// OnRequest checks the dedup window first).
  std::set<std::pair<uint64_t, uint64_t>> assigned_requests_;

  std::map<uint64_t, Instance> instances_;  // by seq
  /// Seqs whose commit vote the verification routine withheld
  /// (Instance::verify_pending), for RetryPendingVerifications. An entry
  /// whose instance is gone or no longer pending is dropped when visited.
  std::set<uint64_t> withheld_votes_;
  uint64_t last_executed_ = 0;
  uint64_t last_stable_ = 0;
  std::map<uint64_t, Bytes> executed_log_;
  Digest state_digest_{};  // rolling digest chained over executed values

  /// The dedup window (DESIGN.md §10, retention): the requests executed at
  /// the last RetainedSpan() sequence numbers, by seq, and their (client,
  /// id) pairs. A request counts as executed for that many sequence
  /// numbers after the one that executed it, at every replica alike:
  /// checkpoints certify the window and pages install it.
  std::deque<ExecutedRequest> executed_window_;
  std::set<std::pair<uint64_t, uint64_t>> executed_reqs_;
  /// Cached replies per client, for re-sent requests in the window.
  std::unordered_map<uint64_t, std::map<uint64_t, Bytes>> cached_replies_;

  ReadExecuted read_executed_;
  StateHooks state_hooks_;

  /// Checkpoint votes: seq -> digest -> signatures by replica index.
  std::map<uint64_t, std::map<Digest, std::map<int32_t, Signature>>>
      checkpoint_votes_;
  /// Stable checkpoints' certificates from the horizon up, by seq (about
  /// 200 B per interval); the last is at `last_stable_`.
  std::map<uint64_t, StableCheckpoint> checkpoints_;
  /// What each checkpoint from the horizon up certifies, saved when this
  /// replica executed it or installed a page ending at it. A page ends at
  /// a checkpoint that has both a certificate and a state.
  std::map<uint64_t, CheckpointState> states_;
  uint64_t horizon_ = 0;
  /// The NEW-VIEW that installed `view_` (unset in view 0), relayed in
  /// pages to peers in a lower view.
  NewViewMsg new_view_;

  /// View-change messages per target view, by replica index.
  std::map<uint64_t, std::map<int32_t, ViewChangeMsg>> view_changes_;

  /// Requests observed via forwarding, awaiting leader progress. The
  /// request payload is kept so that, on view entry, every backup can
  /// re-forward it to the new leader immediately and restart the watchdog
  /// with a full timeout — otherwise watchdogs armed before the view
  /// change depose each new leader before a client retransmission can
  /// reach it, and the request starves through a view-change storm.
  struct WatchedRequest {
    explicit WatchedRequest(sim::Simulator* simulator) : timer(simulator) {}

    sim::Timer timer;
    net::PayloadPtr payload;  // the encoded kRequest body, shared
    uint64_t trace_id = 0;
  };
  std::map<std::pair<uint64_t, uint64_t>, WatchedRequest> watched_requests_;

  /// After a view change: the digest each carried-over seq must have in the
  /// current view. Pre-prepares for these seqs are accepted only on match.
  std::map<uint64_t, Digest> expected_digests_;

  /// Memo for CanonicalBodyFor: (vote type, view, seq) -> (digest, encoded
  /// canonical body). Entries at or below a new stable checkpoint go with
  /// its instances; past kCanonicalMemoMax entries the memo is cleared
  /// wholesale (deterministic, and a full reset is cheap).
  struct CanonicalMemoEntry {
    Digest digest{};
    Bytes body;
  };
  static constexpr size_t kCanonicalMemoMax = 4096;
  std::map<std::tuple<uint8_t, uint64_t, uint64_t>, CanonicalMemoEntry>
      canonical_memo_;
};

}  // namespace blockplane::pbft

#endif  // BLOCKPLANE_PBFT_REPLICA_H_
