/**
 * @file
 * Machine: the assembled simulated multiprocessor.
 *
 * Owns the event queue, the mesh, the global address space, and one
 * node-set (processor, cache, prefetch buffer, coherence controller,
 * network interface, programming context) per mesh position. A run
 * launches one program coroutine per node and drives the event queue
 * until every program completes.
 */

#ifndef ALEWIFE_MACHINE_MACHINE_HH
#define ALEWIFE_MACHINE_MACHINE_HH

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "check/perturb.hh"
#include "coh/coherence.hh"
#include "machine/config.hh"
#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "msg/active_messages.hh"
#include "net/cross_traffic.hh"
#include "net/mesh.hh"
#include "proc/context.hh"
#include "proc/prefetch_buffer.hh"
#include "proc/processor.hh"
#include "proc/sync.hh"
#include "sim/coro.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace alewife::check {
class Hooks;
class HookFanout;
}

namespace alewife::ckpt {
class Access;
}

namespace alewife {

/**
 * A fully wired simulated multiprocessor.
 */
class Machine
{
  public:
    /** Builds a program coroutine for one node. */
    using ProgramFactory = std::function<sim::Thread(proc::Ctx &)>;

    Machine(MachineConfig cfg, proc::SyncStyle style, msg::RecvMode mode);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    int nodes() const { return cfg_.nodes(); }
    const MachineConfig &config() const { return cfg_; }

    EventQueue &eq() { return eq_; }
    net::Mesh &mesh() { return *mesh_; }
    mem::AddressSpace &mem() { return *mem_; }
    msg::HandlerRegistry &handlers() { return handlers_; }

    /** Machine-wide counters; every node's components increment these
     *  directly. */
    MachineCounters &counters() { return counters_; }

    proc::SyncSystem &sync() { return *sync_; }

    proc::Ctx &ctx(int i) { return *nodes_[i]->ctx; }
    proc::Proc &procAt(int i) { return nodes_[i]->proc; }
    coh::CoherenceController &cohAt(int i) { return *nodes_[i]->coh; }
    msg::NetIface &niAt(int i) { return *nodes_[i]->ni; }
    mem::Cache &cacheAt(int i) { return nodes_[i]->cache; }
    proc::PrefetchBuffer &pfbAt(int i) { return nodes_[i]->pfb; }

    /** Attach cross-traffic injectors (call before run()). */
    void addCrossTraffic(net::CrossTrafficConfig cfg);

    /**
     * Apply schedule-perturbation knobs (fuzzing). Call before run();
     * a disabled config is a no-op, leaving the run bit-identical.
     */
    void setPerturbation(const check::PerturbConfig &p);

    /** Default tick limit for run(): panic past 4G cycles. */
    static constexpr Tick kDefaultRunLimit =
        cyclesToTicks(std::uint64_t(4'000'000'000));

    /**
     * Launch one program per node and drive the simulation until all
     * programs complete. Equivalent to start(f); while (stepOne(limit))
     * {}; finishRun() — the stepping primitives exist so checkpoint
     * drivers can pause the machine at a precise event count.
     * @param f per-node program factory
     * @param limit panic if simulated time would exceed this
     * @return the finish tick (max completion time over nodes)
     */
    Tick run(const ProgramFactory &f, Tick limit = kDefaultRunLimit);

    /** Launch one program coroutine per node plus cross-traffic. */
    void start(const ProgramFactory &f);

    /**
     * Execute one event. Panics on deadlock (no event while programs
     * are unfinished) or when simulated time exceeds @p limit.
     * @return false iff every program has completed (no event popped)
     */
    bool stepOne(Tick limit = kDefaultRunLimit);

    /**
     * Drive the machine until @p events total events have executed
     * (eq().eventsExecuted() == events) or all programs complete,
     * whichever is first. Used by checkpoint capture/restore: the
     * executed-event count is the canonical replay position.
     * @return true if the machine paused exactly at @p events
     */
    bool stepUntilEvents(std::uint64_t events,
                         Tick limit = kDefaultRunLimit);

    /** True once every node's program has completed. */
    bool programsDone() const { return allDone(); }

    /**
     * Stop cross-traffic, quiesce in-flight protocol traffic, and
     * compute the finish tick. The tail of run().
     */
    Tick finishRun();

    /** Finish tick of the last run. */
    Tick finishTick() const { return finishTick_; }

    /**
     * Read the architectural value of a shared word after a run,
     * honouring dirty copies still sitting in caches or prefetch
     * buffers. Verification only.
     */
    std::uint64_t debugWord(Addr a);

    /** debugWord, bit-cast to double. */
    double debugDouble(Addr a);

    /** Sum of per-node time breakdowns of the last run. */
    TimeBreakdown breakdownSum() const;

    /** Application communication volume so far. */
    const VolumeBreakdown &volume() const { return mesh_->volume(); }

    /**
     * Attach an observer (invariant auditor, obs recorder) to every
     * component. One observer is wired by direct pointer; several are
     * multiplexed through one check::HookFanout, so the detached cost
     * stays a null check and the single-observer cost one virtual
     * call. Observers see events in attachment order and must outlive
     * the machine's last run.
     */
    void attachHooks(check::Hooks *hooks);

  private:
    /** Checkpoint capture/verify reads private machine state. */
    friend class alewife::ckpt::Access;

    /** Point every component's hook pointer at @p h. */
    void wireHooks(check::Hooks *h);

    [[noreturn]] void panicDeadlock() const;
    struct Node
    {
        Node(NodeId id, Machine &m);

        proc::Proc proc;
        mem::Cache cache;
        proc::PrefetchBuffer pfb;
        std::unique_ptr<coh::CoherenceController> coh;
        std::unique_ptr<msg::NetIface> ni;
        std::unique_ptr<proc::Ctx> ctx;
    };

    bool allDone() const;

    MachineConfig cfg_;
    EventQueue eq_;
    MachineCounters counters_;
    msg::HandlerRegistry handlers_;
    std::unique_ptr<net::Mesh> mesh_;
    std::unique_ptr<mem::AddressSpace> mem_;
    std::unique_ptr<proc::SyncSystem> sync_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::unique_ptr<net::CrossTraffic> cross_;
    Tick finishTick_ = 0;

    // Attached observers and the fanout used once there are >= 2.
    std::vector<check::Hooks *> hookObs_;
    std::unique_ptr<check::HookFanout> hookFanout_;
};

} // namespace alewife

#endif // ALEWIFE_MACHINE_MACHINE_HH
