/**
 * @file
 * MachineConfig: every cost knob of the simulated multiprocessor.
 *
 * Defaults model the 32-node MIT Alewife machine of the paper: 20 MHz
 * Sparcle processors, a 4x8 EMRC 2D mesh with 40+ MB/s links (360 MB/s
 * bisection = 18 bytes/processor-cycle), 64 KB direct-mapped caches with
 * 16-byte lines, the LimitLESS limited directory (5 hardware pointers),
 * and the message costs quoted in Section 3 and the Figure 3 table.
 *
 * Processor-side costs are expressed in processor cycles (they scale with
 * the clock, as on the real machine); network costs are expressed in
 * wall-clock terms (ns per hop, MB/s per link) because the Alewife network
 * is asynchronous — this is exactly what makes the paper's clock-scaling
 * latency emulation (Figure 9) work.
 */

#ifndef ALEWIFE_MACHINE_CONFIG_HH
#define ALEWIFE_MACHINE_CONFIG_HH

#include <cstdint>
#include <string>
#include <type_traits>

#include "sim/types.hh"

namespace alewife {

/** Full parameter set for a simulated machine. */
struct MachineConfig
{
    std::string name = "alewife-32";

    // ------------------------------------------------------------------
    // Topology and clocks
    // ------------------------------------------------------------------
    /** Mesh width (X dimension). Alewife 32-node: 8. */
    int meshX = 8;
    /** Mesh height (Y dimension). Alewife 32-node: 4. */
    int meshY = 4;
    /** Processor clock in MHz. Alewife: 20; Fig. 9 sweeps 14..20+. */
    double procMhz = 20.0;

    // ------------------------------------------------------------------
    // Network (wall-clock units; converted to cycles via procMhz)
    // ------------------------------------------------------------------
    /** Per-link bandwidth in MB/s. 45 MB/s * 8 bisection links = 360. */
    double linkMBps = 45.0;
    /** Per-hop head routing latency in ns (0.8 cycles @ 20 MHz). */
    double hopNs = 40.0;
    /** Fixed network injection/ejection latency in ns per traversal. */
    double netFixedNs = 100.0;

    /** If true, replace the mesh with an ideal uniform-latency network. */
    bool idealNet = false;
    /** One-way latency of the ideal network, in processor cycles. */
    double idealNetLatencyCycles = 15.0;
    /**
     * Per-remote-miss context-switch overhead (cycles) charged in ideal-
     * network mode, modelling the Sparcle switch to a delay-loop thread
     * used by the paper's Figure 10 emulation.
     */
    double contextSwitchCycles = 14.0;

    // ------------------------------------------------------------------
    // Memory system
    // ------------------------------------------------------------------
    /** Per-node cache capacity in bytes (Alewife: 64 KB). */
    std::uint32_t cacheBytes = 64 * 1024;
    /** Cache line size in bytes (Alewife: 16). */
    std::uint32_t lineBytes = 16;
    /** Cache hit time in cycles. */
    double cacheHitCycles = 1.0;
    /** Full penalty of a local miss (Fig. 3: 11 cycles). */
    double localMissCycles = 11.0;

    // ------------------------------------------------------------------
    // Coherence protocol (LimitLESS-style limited directory)
    // ------------------------------------------------------------------
    /** Hardware directory pointers before software traps (Alewife: 5). */
    int dirHwPointers = 5;
    /** Requester-side cycles to detect a miss and launch a request. */
    double reqIssueCycles = 6.0;
    /** CMMU occupancy per protocol transaction at the home node. */
    double homeOccupancyCycles = 6.0;
    /** Requester-side cycles to consume a data reply and refill. */
    double replyConsumeCycles = 6.0;
    /** Cache-side cycles to process an invalidate or recall. */
    double invProcessCycles = 4.0;
    /**
     * Home-processor cycles stolen by one LimitLESS software trap
     * (Fig. 3: software-handled read ~425 cycles end to end).
     */
    double limitlessTrapCycles = 320.0;
    /** Extra software cycles per directory pointer beyond the trap base. */
    double limitlessPerSharerCycles = 12.0;

    /**
     * Protocol-variant extension: when true, dirty misses are served
     * DASH-style — the home forwards the request to the owner, which
     * sends the line directly to the requester (3 serial hops) instead
     * of Alewife's recall-through-home (4 serial hops). Default off to
     * match the paper's machine.
     */
    bool threeHopForwarding = false;

    // ------------------------------------------------------------------
    // Protocol packet sizes (bytes)
    // ------------------------------------------------------------------
    std::uint32_t protoCtrlBytes = 16;  ///< GETS/GETX/RECALL/INV/ACK
    std::uint32_t protoDataHdrBytes = 8; ///< header of a data packet

    // ------------------------------------------------------------------
    // Active messages
    // ------------------------------------------------------------------
    /** Sender cycles to construct + launch an active message. */
    double amSendCycles = 28.0;
    /** Cycles per 64-bit argument word stuffed into the send queue. */
    double amSendPerWordCycles = 6.0;
    /** Receiver interrupt entry/exit overhead (cycles). */
    double amInterruptCycles = 42.0;
    /** Receiver handler dispatch cost, both interrupt and polled. */
    double amDispatchCycles = 12.0;
    /** Cycles per 64-bit word the handler reads from the NI window. */
    double amRecvPerWordCycles = 5.0;
    /** Cost of one poll that finds the queue empty. */
    double pollEmptyCycles = 4.0;
    /**
     * How many inner-loop work items the applications execute between
     * user-inserted poll points (polling mode only). Small values add
     * poll overhead; large ones let the NI queue back up into the
     * network (the conservatism trade-off of Section 4.4.3).
     */
    int pollInsertionGap = 4;
    /** AM header size in bytes. */
    std::uint32_t amHeaderBytes = 8;
    /** Max argument words the NI can hold (Alewife: 14 32-bit = 7 x64). */
    int amMaxWords = 14;
    /** NI input queue capacity, in messages. */
    int niInputQueueSlots = 8;
    /**
     * Cycles between mesh redelivery attempts when the NI is full; at
     * most kMaxNiRetryCycles.
     */
    double niRetryCycles = 16.0;
    static constexpr double kMaxNiRetryCycles = 1024.0;

    // ------------------------------------------------------------------
    // DMA / bulk transfer
    // ------------------------------------------------------------------
    /** Sender cycles to set up a DMA descriptor. */
    double dmaSetupCycles = 20.0;
    /** Software gather/scatter cost per cache line copied (Sec. 4: 60). */
    double gatherScatterPerLineCycles = 60.0;
    /** DMA alignment granularity in bytes (Alewife: double-word). */
    std::uint32_t dmaAlignBytes = 8;

    // ------------------------------------------------------------------
    // Prefetch
    // ------------------------------------------------------------------
    /** Prefetch buffer entries (lines). */
    int prefetchBufferEntries = 16;
    /** Max in-flight prefetch transactions. */
    int prefetchMaxOutstanding = 4;
    /** Cycles to issue one prefetch instruction. */
    double prefetchIssueCycles = 2.0;
    /** Cycles to move a line from the prefetch buffer into the cache. */
    double prefetchBufferHitCycles = 3.0;

    /**
     * Maximum in-flight non-blocking stores (relaxed-consistency
     * extension; Ctx::writeNB / Ctx::fence). Sequentially consistent
     * demand accesses are unaffected by this knob.
     */
    int maxOutstandingWrites = 4;

    // ------------------------------------------------------------------
    // Application cost model
    // ------------------------------------------------------------------
    /** Cycles per double-precision FLOP (Sparcle+FPU, non-pipelined). */
    double cyclesPerFlop = 5.0;
    /** Cycles per single-precision FLOP. */
    double cyclesPerFlopSP = 3.0;

    // ------------------------------------------------------------------
    // Derived quantities
    // ------------------------------------------------------------------
    /** Number of compute nodes. */
    int nodes() const { return meshX * meshY; }

    /** Link bandwidth in bytes per processor cycle. */
    double linkBytesPerCycle() const { return linkMBps / procMhz; }

    /**
     * Native bisection bandwidth in bytes per processor cycle: cutting the
     * X dimension in half crosses meshY channels, each with a link in both
     * directions.
     */
    double
    bisectionBytesPerCycle() const
    {
        return 2.0 * meshY * linkBytesPerCycle();
    }

    /** Bisection bandwidth in MB/s. */
    double bisectionMBps() const { return 2.0 * meshY * linkMBps; }

    /** Per-hop latency in processor cycles. */
    double hopCycles() const { return hopNs * procMhz / 1000.0; }

    /** Fixed per-traversal network latency in processor cycles. */
    double netFixedCycles() const { return netFixedNs * procMhz / 1000.0; }

    /** Words per cache line (64-bit words). */
    std::uint32_t wordsPerLine() const { return lineBytes / 8; }

    /**
     * One-way latency in cycles for a packet of @p bytes over @p hops
     * (uncontended), as used for the Table 1 "Network Latency" column.
     */
    double onewayLatencyCycles(std::uint32_t bytes, int hops) const;

    /** Average hop count between two random nodes of the mesh. */
    double averageHops() const;

    /** Abort with a message if the configuration is inconsistent. */
    void validate() const;

    /**
     * Canonical textual form of every cost knob, for stable hashing
     * (the experiment result cache keys on it). Field order is fixed;
     * doubles are printed with full round-trip precision, so two
     * configs share a key iff every parameter is bit-identical. The
     * display name is deliberately excluded — it does not affect the
     * simulation.
     */
    std::string canonicalKey() const;
};

/**
 * Call visit(name, field) for every cost knob of @p c in the fixed
 * canonical order: the one field list behind canonicalKey() and the
 * farm's job-file JSON (exp/queue.cc). Fields are int, double, bool or
 * std::uint32_t; @p c may be const. The display name is not a cost
 * knob and is not visited. A new knob goes here, or the result cache
 * and farm workers cannot see it.
 */
template <typename Config, typename Visitor>
void
forEachConfigField(Config &c, Visitor &&visit)
{
    static_assert(
        std::is_same_v<std::remove_const_t<Config>, MachineConfig>);
    visit("meshX", c.meshX);
    visit("meshY", c.meshY);
    visit("procMhz", c.procMhz);
    visit("linkMBps", c.linkMBps);
    visit("hopNs", c.hopNs);
    visit("netFixedNs", c.netFixedNs);
    visit("idealNet", c.idealNet);
    visit("idealNetLatencyCycles", c.idealNetLatencyCycles);
    visit("contextSwitchCycles", c.contextSwitchCycles);
    visit("cacheBytes", c.cacheBytes);
    visit("lineBytes", c.lineBytes);
    visit("cacheHitCycles", c.cacheHitCycles);
    visit("localMissCycles", c.localMissCycles);
    visit("dirHwPointers", c.dirHwPointers);
    visit("reqIssueCycles", c.reqIssueCycles);
    visit("homeOccupancyCycles", c.homeOccupancyCycles);
    visit("replyConsumeCycles", c.replyConsumeCycles);
    visit("invProcessCycles", c.invProcessCycles);
    visit("limitlessTrapCycles", c.limitlessTrapCycles);
    visit("limitlessPerSharerCycles", c.limitlessPerSharerCycles);
    visit("threeHopForwarding", c.threeHopForwarding);
    visit("protoCtrlBytes", c.protoCtrlBytes);
    visit("protoDataHdrBytes", c.protoDataHdrBytes);
    visit("amSendCycles", c.amSendCycles);
    visit("amSendPerWordCycles", c.amSendPerWordCycles);
    visit("amInterruptCycles", c.amInterruptCycles);
    visit("amDispatchCycles", c.amDispatchCycles);
    visit("amRecvPerWordCycles", c.amRecvPerWordCycles);
    visit("pollEmptyCycles", c.pollEmptyCycles);
    visit("pollInsertionGap", c.pollInsertionGap);
    visit("amHeaderBytes", c.amHeaderBytes);
    visit("amMaxWords", c.amMaxWords);
    visit("niInputQueueSlots", c.niInputQueueSlots);
    visit("niRetryCycles", c.niRetryCycles);
    visit("dmaSetupCycles", c.dmaSetupCycles);
    visit("gatherScatterPerLineCycles", c.gatherScatterPerLineCycles);
    visit("dmaAlignBytes", c.dmaAlignBytes);
    visit("prefetchBufferEntries", c.prefetchBufferEntries);
    visit("prefetchMaxOutstanding", c.prefetchMaxOutstanding);
    visit("prefetchIssueCycles", c.prefetchIssueCycles);
    visit("prefetchBufferHitCycles", c.prefetchBufferHitCycles);
    visit("maxOutstandingWrites", c.maxOutstandingWrites);
    visit("cyclesPerFlop", c.cyclesPerFlop);
    visit("cyclesPerFlopSP", c.cyclesPerFlopSP);
}

} // namespace alewife

#endif // ALEWIFE_MACHINE_CONFIG_HH
