/**
 * @file
 * Per-node coherence controller: the CMMU of the simulated machine.
 *
 * One controller per node plays three roles:
 *  - processor side: services demand reads/writes/rmws and software
 *    prefetches issued by the node's program (MSHR bookkeeping, cache
 *    fills, prefetch-buffer management);
 *  - home side: runs the directory protocol for lines homed here,
 *    serialized per line, with a hardware occupancy per transaction and
 *    LimitLESS software traps (stealing home-processor cycles) when a
 *    line has more sharers than the hardware pointers can track;
 *  - remote-cache side: answers invalidations and recalls.
 *
 * Protocol processing never consumes program-processor time except for
 * LimitLESS traps — this endpoint-occupancy asymmetry versus message
 * passing is central to the paper's Section 5.1 findings.
 */

#ifndef ALEWIFE_COH_COHERENCE_HH
#define ALEWIFE_COH_COHERENCE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "coh/directory.hh"
#include "coh/proto.hh"
#include "machine/config.hh"
#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "net/mesh.hh"
#include "proc/op.hh"
#include "proc/prefetch_buffer.hh"
#include "proc/processor.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace alewife::check {
class Hooks;
}

namespace alewife::ckpt {
class Access;
}

namespace alewife::coh {

/**
 * The coherence engine of one node.
 */
class CoherenceController
{
  public:
    CoherenceController(NodeId self, EventQueue &eq,
                        const MachineConfig &cfg, mem::AddressSpace &mem,
                        mem::Cache &cache, proc::PrefetchBuffer &pfb,
                        proc::Proc &proc, net::Mesh &mesh,
                        MachineCounters &counters);

    // ------------------------------------------------------------------
    // Processor side (called with the node's program Running)
    // ------------------------------------------------------------------

    /**
     * Try to satisfy a read without suspending (cache hit or completed
     * prefetch). On success the access cost has been charged via
     * Proc::advance and @p out holds the word.
     */
    bool tryFastRead(Addr a, std::uint64_t &out);

    /** Same for a write (requires Modified in cache or buffer). */
    bool tryFastWrite(Addr a, std::uint64_t v);

    /**
     * Same for an atomic read-modify-write; on success @p out_old holds
     * the pre-update word.
     */
    bool tryFastRmw(Addr a,
                    const std::function<std::uint64_t(std::uint64_t)> &fn,
                    std::uint64_t &out_old);

    /**
     * Start a demand read miss; the returned op completes with the word.
     * @p wait_cat is the Figure 4 category the stall is charged to.
     */
    std::shared_ptr<proc::OpState> startRead(Addr a, TimeCat wait_cat);

    /** Start a demand write miss; completes after the store retires. */
    std::shared_ptr<proc::OpState> startWrite(Addr a, std::uint64_t v,
                                              TimeCat wait_cat);

    /**
     * Start an atomic read-modify-write (Alewife-style full/empty or
     * lock operations): obtains Modified, applies @p fn to the word,
     * completes with the *old* value.
     */
    std::shared_ptr<proc::OpState>
    startRmw(Addr a, std::function<std::uint64_t(std::uint64_t)> fn,
             TimeCat wait_cat);

    /**
     * Issue a non-binding prefetch. Never suspends; silently dropped if
     * the line is already local or resources are exhausted.
     * @param exclusive read-exclusive (write) prefetch when true
     */
    void prefetch(Addr a, bool exclusive);

    // ------------------------------------------------------------------
    // Network side
    // ------------------------------------------------------------------

    /** Deliver a coherence packet addressed to this node. */
    void receive(ProtoMsg msg);

    // ------------------------------------------------------------------
    // Spin-wait support
    // ------------------------------------------------------------------

    /**
     * Bumped every time the line containing @p a is invalidated,
     * recalled or displaced here; spin loops wait for a change.
     */
    std::uint64_t lineEpoch(Addr a) const;

    /**
     * Current owner of a line homed here, or -1 if not Modified.
     * Debug/verification only (used to read architectural state after a
     * run without perturbing the protocol).
     */
    NodeId dirOwner(Addr line);

    /** Debug read of a word from this node's cache or prefetch buffer. */
    bool debugLocalWord(Addr a, std::uint64_t &out) const;

    /** Dump outstanding MSHRs and busy directory lines (deadlocks). */
    void debugDump(std::ostream &os) const;

    /** Observer notified of protocol transitions; may be null. */
    void setAuditHooks(check::Hooks *hooks) { hooks_ = hooks; }

    /** Read-only directory view for the invariant auditor. */
    const Directory &debugDir() const { return dir_; }

    /**
     * Protocol faults injectable for auditor self-tests: each fires at
     * most once, on the next matching action at this node.
     */
    struct DebugFaults
    {
        /** Swallow one InvAck (the home waits forever). */
        bool dropInvAck = false;
        /** Ack one Inv without actually invalidating the local copy. */
        bool skipInvalidate = false;
    };

    void debugInjectFaults(const DebugFaults &f) { faults_ = f; }

  private:
    /** Checkpoint capture/verify reads private state. */
    friend class alewife::ckpt::Access;

    // --- requester-side machinery ---

    struct DemandWaiter
    {
        enum class Kind : std::uint8_t { Read, Write, Rmw };
        Kind kind;
        std::shared_ptr<proc::OpState> op;
        Addr addr = 0;
        std::uint64_t storeVal = 0;
        std::function<std::uint64_t(std::uint64_t)> rmwFn;
    };

    struct Mshr
    {
        Addr line = 0;
        bool wantExclusive = false;
        bool prefetchOnly = true; ///< no demand attached yet
        /** Created by a prefetch; counted in prefetchesInFlight_. */
        bool startedAsPrefetch = false;
        /**
         * An Inv overtook the data reply (possible with 3-hop
         * forwarding, where data and invalidations ride different
         * source-destination pairs): install, satisfy the ordered-
         * earlier demands, then drop the line.
         */
        bool killedByInv = false;
        /** A Recall/RecallX that overtook the data reply; honoured
         *  right after the fill. */
        std::optional<ProtoMsg> stashedRecall;
        std::vector<DemandWaiter> demands;
        /** Demands needing a stronger state; re-issued on completion. */
        std::vector<std::function<void()>> deferred;
    };

    /** Note a demand joining @p m (prefetch partial-hiding credit). */
    void noteDemandJoin(Mshr &m);

    /** Begin (or join) a miss transaction for @p line. */
    Mshr &missTo(Addr line, bool exclusive);

    /** Send a request to the line's home (local homes short-circuit). */
    void sendRequest(MsgType t, Addr line);

    /** Run the handler of a received non-data message (its CMMU slot
     *  has passed); a request may be moved out of @p msg. */
    void process(ProtoMsg &msg);

    /** A Data/DataX reply (or local grant) for an MSHR line arrived. */
    void fillArrived(Addr line, bool exclusive,
                     std::vector<std::uint64_t> words);

    /** Install into the cache, handling dirty victims. */
    void installLine(Addr line, mem::LineState st,
                     const std::vector<std::uint64_t> &words);

    /** Consume a buffered prefetch into the cache for a demand access. */
    void promoteFromBuffer(Addr line);

    /** Complete one demand waiter against the now-present line. */
    void satisfyDemand(const DemandWaiter &w);

    // --- home-side machinery ---

    /** Queue-or-process a request arriving at this (home) node. */
    void homeRequest(ProtoMsg msg);

    /** Actually serve a request; the line must not be busy. */
    void homeServe(const ProtoMsg &msg);

    /** Finish the current transaction on @p line and drain its queue. */
    void homeComplete(Addr line);

    /** If the line is idle and has queued requests, schedule the next. */
    void homeMaybeDrain(Addr line);

    /** Home received a recall response / writeback. */
    void homeWriteback(const ProtoMsg &msg);

    /** Home received an invalidation ack. */
    void homeInvAck(const ProtoMsg &msg);

    /**
     * Cycles of extra latency (and home-processor theft) if touching
     * this entry needs a LimitLESS software trap.
     */
    double limitlessCost(const DirEntry &e);

    // --- remote-cache side ---

    void cacheInv(const ProtoMsg &msg);
    void cacheRecall(const ProtoMsg &msg, bool exclusive);

    /** Owner side of a 3-hop forward: ship the line to the requester. */
    void cacheForward(const ProtoMsg &msg, bool exclusive);

    /** Home received the FwdGetX completion from the old owner. */
    void homeFwdAck(const ProtoMsg &msg);

    /** Respond to a recall using the just-filled cache line. */
    void answerRecall(const ProtoMsg &msg, bool exclusive);

    // --- helpers ---

    Addr lineOf(Addr a) const;

    /** Time protocol work at this node's CMMU may next start. */
    Tick cmmuSlot(double occupancy_cycles);

    /** Send a protocol packet from this node at >= localNow. */
    void sendProto(NodeId dst, ProtoMsg msg, Tick when);

    /** Build the packet for @p msg with volume accounting. */
    std::unique_ptr<net::Packet> makePacket(NodeId dst,
                                            ProtoMsg msg) const;

    void bumpEpoch(Addr line);

    NodeId self_;
    EventQueue &eq_;
    const MachineConfig &cfg_;
    mem::AddressSpace &mem_;
    mem::Cache &cache_;
    proc::PrefetchBuffer &pfb_;
    proc::Proc &proc_;
    net::Mesh &mesh_;
    MachineCounters &counters_;

    Directory dir_;
    std::unordered_map<Addr, Mshr> mshrs_;
    std::unordered_map<Addr, std::uint64_t> epochs_;
    Tick cmmuFreeAt_ = 0;
    std::uint64_t nextTxnId_ = 1;
    int prefetchesInFlight_ = 0;
    check::Hooks *hooks_ = nullptr;
    DebugFaults faults_{};
    bool faultFired_ = false;
};

} // namespace alewife::coh

#endif // ALEWIFE_COH_COHERENCE_HH
