#include "apps/em3d.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace alewife::apps {

using core::Mechanism;

Em3d::Em3d(Params p) : p_(std::move(p))
{
    g_ = workload::makeBipartite(p_.graph);
    reference_ = g_.sequential(p_.iters);
}

core::AppFactory
Em3d::factory(Params p)
{
    return [p]() { return std::make_unique<Em3d>(p); };
}

void
Em3d::buildMpPlans()
{
    const int np = p_.graph.nprocs;
    auto build = [&](Side &side) {
        const auto &row = *side.row;
        const auto &edges = *side.edges;
        side.ghost.assign(np, {});
        side.refs.assign(np, {});
        side.plan.assign(np,
                         std::vector<std::vector<Side::SendItem>>(np));
        side.expected.assign(np, 0);
        side.received.assign(np, 0);

        // For each consumer proc q, walk its local nodes' in-edges and
        // assign ghost slots for remote sources (one slot per distinct
        // source node).
        for (int q = 0; q < np; ++q) {
            std::vector<std::int32_t> slot_of(p_.graph.nodesPerSide, -1);
            const std::int32_t first = g_.firstNode(q);
            const std::int32_t count = g_.numNodesOn(q);
            for (std::int32_t n = first; n < first + count; ++n) {
                for (std::int32_t k = row[n]; k < row[n + 1]; ++k) {
                    const std::int32_t src = edges[k].src;
                    const int p = g_.owner(src);
                    Side::Ref ref;
                    if (p == q) {
                        ref.remote = false;
                        ref.idx = src - g_.firstNode(p);
                    } else {
                        if (slot_of[src] < 0) {
                            slot_of[src] = static_cast<std::int32_t>(
                                side.ghost[q].size());
                            side.ghost[q].push_back(0.0);
                            side.plan[p][q].push_back(
                                {src - g_.firstNode(p), slot_of[src]});
                        }
                        ref.remote = true;
                        ref.idx = slot_of[src];
                    }
                    side.refs[q].push_back(ref);
                }
            }
            side.expected[q] =
                static_cast<std::int64_t>(side.ghost[q].size());
        }
    };
    build(eSide_);
    build(hSide_);
}

void
Em3d::setupSharedMemory(Machine &m)
{
    const int np = p_.graph.nprocs;
    std::vector<std::int32_t> counts(np);
    for (int p = 0; p < np; ++p)
        counts[p] = g_.numNodesOn(p);
    eSide_.shared =
        mem::PartitionedArray::create(m.mem(), counts, "em3d-e");
    hSide_.shared =
        mem::PartitionedArray::create(m.mem(), counts, "em3d-h");
    for (std::int32_t n = 0; n < p_.graph.nodesPerSide; ++n) {
        const int p = g_.owner(n);
        const std::int32_t local = n - g_.firstNode(p);
        m.mem().storeDouble(eSide_.shared.addr(p, local), g_.eInit[n]);
        m.mem().storeDouble(hSide_.shared.addr(p, local), g_.hInit[n]);
    }
}

void
Em3d::setup(Machine &m, Mechanism mech)
{
    mech_ = mech;
    machine_ = &m;
    eSide_.row = &g_.eRow;
    eSide_.edges = &g_.eEdges;
    hSide_.row = &g_.hRow;
    hSide_.edges = &g_.hEdges;

    if (core::isSharedMemory(mech)) {
        setupSharedMemory(m);
        return;
    }

    // Message-passing variants: local value arrays + ghost machinery.
    const int np = p_.graph.nprocs;
    buildMpPlans();
    eSide_.local.assign(np, {});
    hSide_.local.assign(np, {});
    for (int p = 0; p < np; ++p) {
        const std::int32_t first = g_.firstNode(p);
        const std::int32_t count = g_.numNodesOn(p);
        eSide_.local[p].assign(g_.eInit.begin() + first,
                               g_.eInit.begin() + first + count);
        hSide_.local[p].assign(g_.hInit.begin() + first,
                               g_.hInit.begin() + first + count);
    }

    // Fine-grained ghost handler: meta word packs (side, count); the
    // remaining args alternate ghost slot and value? No — slots ride in
    // the meta-planned order: args = [meta, slot0, v0, slot1, v1, ...]
    // would double volume. Instead the sender sends (slotBase-ordered)
    // batches following the plan order, so the handler only needs
    // (side, dstProc is implicit, planIndex, count) plus the values.
    hGhost_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const auto &args = env.msg().args;
        const std::uint64_t meta = args[0];
        const int side_id = static_cast<int>(meta & 0x1);
        const int src_proc = static_cast<int>((meta >> 1) & 0xffff);
        const std::int64_t offset =
            static_cast<std::int64_t>(meta >> 17);
        Side &side = side_id == 0 ? eSide_ : hSide_;
        const int q = env.self();
        const auto &items = side.plan[src_proc][q];
        for (std::size_t k = 1; k < args.size(); ++k) {
            const auto &item = items[offset + (k - 1)];
            side.ghost[q][item.dstGhostSlot] =
                std::bit_cast<double>(args[k]);
        }
        side.received[q] +=
            static_cast<std::int64_t>(args.size() - 1);
    });

    hGhostBulk_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const auto &args = env.msg().args;
        const int side_id = static_cast<int>(args[0] & 0x1);
        const int src_proc = static_cast<int>(args[0] >> 1);
        Side &side = side_id == 0 ? eSide_ : hSide_;
        const int q = env.self();
        const auto &items = side.plan[src_proc][q];
        const auto &body = env.msg().body;
        for (std::size_t k = 0; k < body.size(); ++k) {
            side.ghost[q][items[k].dstGhostSlot] =
                std::bit_cast<double>(body[k]);
        }
        side.received[q] += static_cast<std::int64_t>(body.size());
    });
}

sim::Thread
Em3d::program(proc::Ctx &ctx)
{
    switch (mech_) {
      case Mechanism::SharedMemory:
        return programSm(ctx, false);
      case Mechanism::SharedMemoryPrefetch:
        return programSm(ctx, true);
      case Mechanism::MpInterrupt:
      case Mechanism::MpPolling:
        return programMp(ctx);
      case Mechanism::BulkTransfer:
        return programBulk(ctx);
      default:
        ALEWIFE_PANIC("bad mechanism");
    }
}

sim::Thread
Em3d::programSm(proc::Ctx &ctx, bool prefetch)
{
    const int self = ctx.self();
    const std::int32_t first = g_.firstNode(self);
    const std::int32_t count = g_.numNodesOn(self);

    // Resolve shared addresses of every in-edge source once (models the
    // pointer-based graph structure built at program load).
    auto edge_addrs = [&](const Side &side) {
        std::vector<Addr> out;
        const auto &row = *side.row;
        const auto &edges = *side.edges;
        const Side &other = (&side == &eSide_) ? hSide_ : eSide_;
        for (std::int32_t n = first; n < first + count; ++n) {
            for (std::int32_t k = row[n]; k < row[n + 1]; ++k) {
                const std::int32_t src = edges[k].src;
                const int p = g_.owner(src);
                out.push_back(
                    other.shared.addr(p, src - g_.firstNode(p)));
            }
        }
        return out;
    };
    const std::vector<Addr> e_srcs = edge_addrs(eSide_);
    const std::vector<Addr> h_srcs = edge_addrs(hSide_);

    for (int it = 0; it < p_.iters; ++it) {
        for (int phase = 0; phase < 2; ++phase) {
            Side &side = phase == 0 ? eSide_ : hSide_;
            const std::vector<Addr> &srcs = phase == 0 ? e_srcs : h_srcs;
            const auto &row = *side.row;
            const auto &edges = *side.edges;
            std::size_t flat = 0;
            for (std::int32_t n = first; n < first + count; ++n) {
                const std::int32_t local = n - first;
                const Addr naddr = side.shared.addr(self, local);
                if (prefetch) {
                    // Write-ownership of the node we are about to
                    // update (Sec. 4.1.2).
                    ctx.prefetchWrite(naddr);
                }
                double v = ctx.asDouble(co_await ctx.read(naddr));
                const std::int32_t deg = row[n + 1] - row[n];
                for (std::int32_t k = 0; k < deg; ++k) {
                    if (prefetch && k + 2 < deg)
                        ctx.prefetchRead(srcs[flat + k + 2]);
                    const double nb = ctx.asDouble(
                        co_await ctx.read(srcs[flat + k]));
                    v -= edges[row[n] + k].weight * nb;
                    // Two FLOPs plus index/pointer chasing per edge.
                    co_await ctx.compute(3);
                    co_await ctx.computeFlops(2);
                }
                flat += deg;
                co_await ctx.writeD(naddr, v);
            }
            co_await ctx.barrier();
        }
    }
    co_return;
}

sim::SubTask<void>
Em3d::exchangeMp(proc::Ctx &ctx, Side &side, int iter)
{
    const int self = ctx.self();
    const Side &producer_view = side; // plan[self][q] lists what we send
    const auto &my_local =
        (&side == &eSide_) ? hSide_.local[self] : eSide_.local[self];
    const std::uint64_t side_bit = (&side == &eSide_) ? 0 : 1;

    // Ship ghost values five doubles at a time (Sec. 4.1.1).
    for (int q = 0; q < ctx.nprocs(); ++q) {
        const auto &items = producer_view.plan[self][q];
        std::size_t off = 0;
        while (off < items.size()) {
            const std::size_t batch = std::min<std::size_t>(
                5, items.size() - off);
            std::vector<std::uint64_t> args;
            args.reserve(batch + 1);
            args.push_back(side_bit
                           | (static_cast<std::uint64_t>(self) << 1)
                           | (static_cast<std::uint64_t>(off) << 17));
            for (std::size_t k = 0; k < batch; ++k) {
                args.push_back(std::bit_cast<std::uint64_t>(
                    my_local[items[off + k].srcLocal]));
            }
            co_await ctx.send(q, hGhost_, std::move(args));
            off += batch;
        }
    }

    // Wait for our own ghosts for this phase of this iteration.
    const std::int64_t want =
        side.expected[self] * static_cast<std::int64_t>(iter + 1);
    co_await ctx.waitUntil(
        [&side, self, want]() { return side.received[self] >= want; },
        TimeCat::Sync);
}

sim::SubTask<void>
Em3d::exchangeBulk(proc::Ctx &ctx, Side &side, int iter)
{
    const int self = ctx.self();
    const auto &my_local =
        (&side == &eSide_) ? hSide_.local[self] : eSide_.local[self];
    const std::uint64_t side_bit = (&side == &eSide_) ? 0 : 1;

    for (int q = 0; q < ctx.nprocs(); ++q) {
        const auto &items = side.plan[self][q];
        if (items.empty())
            continue;
        // Gather into a contiguous DMA buffer (explicit copy cost).
        std::vector<std::uint64_t> body;
        body.reserve(items.size());
        for (const auto &item : items) {
            body.push_back(
                std::bit_cast<std::uint64_t>(my_local[item.srcLocal]));
        }
        co_await ctx.chargeCopy(items.size());
        std::vector<std::uint64_t> args;
        args.push_back(side_bit | (static_cast<std::uint64_t>(self) << 1));
        co_await ctx.sendBulk(q, hGhostBulk_, std::move(args),
                              std::move(body));
    }

    const std::int64_t want =
        side.expected[self] * static_cast<std::int64_t>(iter + 1);
    co_await ctx.waitUntil(
        [&side, self, want]() { return side.received[self] >= want; },
        TimeCat::Sync);
}

sim::SubTask<void>
Em3d::computePhase(proc::Ctx &ctx, Side &side)
{
    const int self = ctx.self();
    const std::int32_t first = g_.firstNode(self);
    const std::int32_t count = g_.numNodesOn(self);
    const auto &row = *side.row;
    const auto &edges = *side.edges;
    auto &mine = side.local[self];
    const auto &other_local =
        (&side == &eSide_) ? hSide_.local[self] : eSide_.local[self];
    const auto &ghost = side.ghost[self];
    const auto &refs = side.refs[self];

    std::size_t flat = 0;
    for (std::int32_t n = first; n < first + count; ++n) {
        co_await ctx.pollPoint();
        double v = mine[n - first];
        for (std::int32_t k = row[n]; k < row[n + 1]; ++k, ++flat) {
            const Side::Ref &r = refs[flat];
            const double nb =
                r.remote ? ghost[r.idx] : other_local[r.idx];
            v -= edges[k].weight * nb;
            // Index/pointer chasing plus the ghost/local value access.
            co_await ctx.compute(4.0);
            co_await ctx.computeFlops(2);
        }
        mine[n - first] = v;
    }
    co_return;
}

sim::Thread
Em3d::programMp(proc::Ctx &ctx)
{
    for (int it = 0; it < p_.iters; ++it) {
        co_await exchangeMp(ctx, eSide_, it); // H values -> E consumers
        co_await computePhase(ctx, eSide_);
        co_await exchangeMp(ctx, hSide_, it); // E values -> H consumers
        co_await computePhase(ctx, hSide_);
    }
    co_return;
}

sim::Thread
Em3d::programBulk(proc::Ctx &ctx)
{
    for (int it = 0; it < p_.iters; ++it) {
        co_await exchangeBulk(ctx, eSide_, it);
        co_await computePhase(ctx, eSide_);
        co_await exchangeBulk(ctx, hSide_, it);
        co_await computePhase(ctx, hSide_);
    }
    co_return;
}

double
Em3d::checksum() const
{
    double sum = 0.0;
    if (core::isSharedMemory(mech_)) {
        for (std::int32_t n = 0; n < p_.graph.nodesPerSide; ++n) {
            const int p = g_.owner(n);
            const std::int32_t local = n - g_.firstNode(p);
            sum += machine_->debugDouble(eSide_.shared.addr(p, local));
            sum += machine_->debugDouble(hSide_.shared.addr(p, local));
        }
        return sum;
    }
    for (int p = 0; p < p_.graph.nprocs; ++p) {
        for (double v : eSide_.local[p])
            sum += v;
        for (double v : hSide_.local[p])
            sum += v;
    }
    return sum;
}

} // namespace alewife::apps
