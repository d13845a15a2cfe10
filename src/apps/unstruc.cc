#include "apps/unstruc.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace alewife::apps {

using core::Mechanism;

namespace {

/** FLOPs per edge / per node, from Section 4.2 of the paper. */
constexpr int kFlopsPerEdge = 75;
constexpr int kFlopsPerNode = 3;

/** Index/addressing overhead per edge beyond the FLOPs. */
constexpr double kEdgeOverheadCycles = 6.0;

} // namespace

Unstruc::Unstruc(Params p) : p_(std::move(p))
{
    mesh_ = workload::makeMesh(p_.mesh);
    reference_ = mesh_.sequential(p_.iters);
}

core::AppFactory
Unstruc::factory(Params p)
{
    return [p]() { return std::make_unique<Unstruc>(p); };
}

void
Unstruc::buildPartition()
{
    const int np = p_.mesh.nprocs;
    edgesOf_.assign(np, {});
    contested_.assign(p_.mesh.nodes, false);

    for (const workload::MeshEdge &e : mesh_.edges) {
        const int p = mesh_.owner(e.u);
        LocalEdge le;
        le.u = e.u;
        le.v = e.v;
        le.w = e.w;
        le.vRemote = mesh_.owner(e.v) != p;
        le.vGhost = -1;
        if (le.vRemote) {
            contested_[e.v] = true;
        }
        edgesOf_[p].push_back(le);
    }
}

void
Unstruc::setupSharedMemory(Machine &m)
{
    const int np = p_.mesh.nprocs;
    std::vector<std::int32_t> counts(np);
    for (int p = 0; p < np; ++p)
        counts[p] = mesh_.numNodesOn(p);
    xArr_ = mem::PartitionedArray::create(m.mem(), counts, "unstruc-x");
    fArr_ = mem::PartitionedArray::create(m.mem(), counts, "unstruc-f");
    lockArr_ =
        mem::PartitionedArray::create(m.mem(), counts, "unstruc-lock");
    for (std::int32_t n = 0; n < p_.mesh.nodes; ++n) {
        const int p = mesh_.owner(n);
        const std::int32_t local = n - mesh_.firstNode(p);
        m.mem().storeDouble(xArr_.addr(p, local), mesh_.xInit[n]);
        m.mem().storeDouble(fArr_.addr(p, local), 0.0);
    }
}

void
Unstruc::setupMessagePassing(Machine &m)
{
    const int np = p_.mesh.nprocs;
    xLocal_.assign(np, {});
    fLocal_.assign(np, {});
    for (int p = 0; p < np; ++p) {
        const std::int32_t first = mesh_.firstNode(p);
        const std::int32_t count = mesh_.numNodesOn(p);
        xLocal_[p].assign(mesh_.xInit.begin() + first,
                          mesh_.xInit.begin() + first + count);
        fLocal_[p].assign(count, 0.0);
    }

    // Ghost slots for remote x[v] reads, one per distinct (q, v).
    xGhost_[0].assign(np, {});
    xGhost_[1].assign(np, {});
    xPlan_.assign(np, std::vector<std::vector<SendItem>>(np));
    xExpected_.assign(np, 0);
    xReceived_[0].assign(np, 0);
    xReceived_[1].assign(np, 0);
    fExpected_.assign(np, 0);
    fReceived_.assign(np, 0);

    std::vector<std::int32_t> slot_of(p_.mesh.nodes);
    for (int q = 0; q < np; ++q) {
        std::fill(slot_of.begin(), slot_of.end(), -1);
        for (LocalEdge &le : edgesOf_[q]) {
            if (!le.vRemote)
                continue;
            if (slot_of[le.v] < 0) {
                slot_of[le.v] =
                    static_cast<std::int32_t>(xGhost_[0][q].size());
                xGhost_[0][q].push_back(0.0);
                xGhost_[1][q].push_back(0.0);
                const int p = mesh_.owner(le.v);
                xPlan_[p][q].push_back(
                    {le.v - mesh_.firstNode(p), slot_of[le.v]});
            }
            le.vGhost = slot_of[le.v];
            // Every remote edge produces one f contribution to v's
            // owner per iteration.
            ++fExpected_[mesh_.owner(le.v)];
        }
    }
    for (int q = 0; q < np; ++q)
        xExpected_[q] = static_cast<std::int64_t>(xGhost_[0][q].size());

    // Handlers. Fine-grained ghost-x: meta packs (parity, srcProc,
    // offset); values follow.
    hGhostX_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const auto &args = env.msg().args;
        const int parity = static_cast<int>(args[0] & 0x1);
        const int src = static_cast<int>((args[0] >> 1) & 0xffff);
        const auto offset = static_cast<std::int64_t>(args[0] >> 17);
        const int q = env.self();
        const auto &items = xPlan_[src][q];
        for (std::size_t k = 1; k < args.size(); ++k) {
            xGhost_[parity][q][items[offset + (k - 1)].dstSlot] =
                std::bit_cast<double>(args[k]);
        }
        xReceived_[parity][q] +=
            static_cast<std::int64_t>(args.size() - 1);
    });

    hGhostXBulk_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const auto &args = env.msg().args;
        const int parity = static_cast<int>(args[0] & 0x1);
        const int src = static_cast<int>(args[0] >> 1);
        const int q = env.self();
        const auto &items = xPlan_[src][q];
        const auto &body = env.msg().body;
        for (std::size_t k = 0; k < body.size(); ++k) {
            xGhost_[parity][q][items[k].dstSlot] =
                std::bit_cast<double>(body[k]);
        }
        xReceived_[parity][q] += static_cast<std::int64_t>(body.size());
    });

    // Fine-grained remote f contribution: args = [local index, value].
    hContrib_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const auto &args = env.msg().args;
        const int q = env.self();
        fLocal_[q][args[0]] -= std::bit_cast<double>(args[1]);
        env.charge(3.0); // the accumulate itself
        ++fReceived_[q];
    });

    // Bulk contributions: body = (index, value) pairs; the receiver
    // scatters and accumulates out of the DMA buffer.
    hContribBulk_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const int q = env.self();
        const auto &body = env.msg().body;
        for (std::size_t k = 0; k + 1 < body.size(); k += 2) {
            fLocal_[q][body[k]] -= std::bit_cast<double>(body[k + 1]);
        }
        const double pairs = static_cast<double>(body.size() / 2);
        env.charge(pairs * 6.0); // scatter + accumulate per pair
        fReceived_[q] += static_cast<std::int64_t>(body.size() / 2);
    });
}

void
Unstruc::setup(Machine &m, Mechanism mech)
{
    mech_ = mech;
    machine_ = &m;
    buildPartition();
    if (core::isSharedMemory(mech))
        setupSharedMemory(m);
    else
        setupMessagePassing(m);
}

sim::Thread
Unstruc::program(proc::Ctx &ctx)
{
    switch (mech_) {
      case Mechanism::SharedMemory:
        return programSm(ctx, false);
      case Mechanism::SharedMemoryPrefetch:
        return programSm(ctx, true);
      case Mechanism::MpInterrupt:
      case Mechanism::MpPolling:
        return programMp(ctx, false);
      case Mechanism::BulkTransfer:
        return programMp(ctx, true);
      default:
        ALEWIFE_PANIC("bad mechanism");
    }
}

// ---------------------------------------------------------------------
// Shared memory
// ---------------------------------------------------------------------

sim::Thread
Unstruc::programSm(proc::Ctx &ctx, bool prefetch)
{
    const int self = ctx.self();
    const std::int32_t first = mesh_.firstNode(self);
    const auto &edges = edgesOf_[self];

    // Pre-resolve addresses (the pointer-based mesh structure).
    struct Resolved
    {
        Addr xu, xv, fu, fv, lu, lv;
        bool uContested, vContested;
        double w;
    };
    std::vector<Resolved> rs;
    rs.reserve(edges.size());
    for (const LocalEdge &e : edges) {
        const int pu = mesh_.owner(e.u);
        const int pv = mesh_.owner(e.v);
        Resolved r;
        r.xu = xArr_.addr(pu, e.u - mesh_.firstNode(pu));
        r.xv = xArr_.addr(pv, e.v - mesh_.firstNode(pv));
        r.fu = fArr_.addr(pu, e.u - mesh_.firstNode(pu));
        r.fv = fArr_.addr(pv, e.v - mesh_.firstNode(pv));
        r.lu = lockArr_.addr(pu, e.u - mesh_.firstNode(pu));
        r.lv = lockArr_.addr(pv, e.v - mesh_.firstNode(pv));
        r.uContested = contested_[e.u];
        r.vContested = contested_[e.v];
        r.w = e.w;
        rs.push_back(r);
    }

    for (int it = 0; it < p_.iters; ++it) {
        for (std::size_t k = 0; k < rs.size(); ++k) {
            const Resolved &r = rs[k];
            if (prefetch && k + 2 < rs.size()) {
                // Write-ownership of the upcoming node values
                // (Sec. 4.2.2: two write prefetches, two edge-
                // computations ahead).
                ctx.prefetchWrite(rs[k + 2].fu);
                ctx.prefetchWrite(rs[k + 2].fv);
            }
            const double xu = proc::Ctx::asDouble(co_await ctx.read(r.xu));
            const double xv = proc::Ctx::asDouble(co_await ctx.read(r.xv));
            const double c = r.w * (xu - xv);
            co_await ctx.compute(kEdgeOverheadCycles);
            co_await ctx.computeFlopsSP(kFlopsPerEdge);
            co_await smAccumulate(ctx, r.fu, r.lu, r.uContested, c);
            co_await smAccumulate(ctx, r.fv, r.lv, r.vContested, -c);
        }
        co_await ctx.barrier();

        // Node update phase: x += 0.1 f; f = 0.
        const std::int32_t count = mesh_.numNodesOn(self);
        for (std::int32_t n = 0; n < count; ++n) {
            const Addr fa = fArr_.addr(self, n);
            const Addr xa = xArr_.addr(self, n);
            const double f = proc::Ctx::asDouble(co_await ctx.read(fa));
            const double x = proc::Ctx::asDouble(co_await ctx.read(xa));
            co_await ctx.computeFlopsSP(kFlopsPerNode);
            co_await ctx.writeD(xa, x + 0.10 * f);
            co_await ctx.writeD(fa, 0.0);
        }
        co_await ctx.barrier();
    }
    (void)first;
    co_return;
}

sim::SubTask<void>
Unstruc::smAccumulate(proc::Ctx &ctx, Addr f, Addr lock, bool locked,
                      double delta)
{
    if (locked)
        co_await ctx.lock(lock);
    const double old = proc::Ctx::asDouble(co_await ctx.read(f));
    co_await ctx.writeD(f, old + delta);
    co_await ctx.computeFlopsSP(1);
    if (locked)
        co_await ctx.unlock(lock);
}

// ---------------------------------------------------------------------
// Message passing (fine-grained and bulk)
// ---------------------------------------------------------------------

sim::SubTask<void>
Unstruc::exchangeX(proc::Ctx &ctx, int iter, bool bulk)
{
    const int self = ctx.self();
    const int parity = iter & 1;
    const auto &mine = xLocal_[self];

    std::vector<std::uint64_t> words; // args, or a bulk body
    for (int q = 0; q < ctx.nprocs(); ++q) {
        const auto &items = xPlan_[self][q];
        if (items.empty())
            continue;
        if (bulk) {
            words.clear();
            for (const SendItem &it : items) {
                words.push_back(
                    std::bit_cast<std::uint64_t>(mine[it.srcLocal]));
            }
            co_await ctx.chargeCopy(items.size());
            co_await ctx.sendBulk(
                q, hGhostXBulk_,
                msg::amArgs(static_cast<std::uint64_t>(parity)
                            | (static_cast<std::uint64_t>(self) << 1)),
                words);
        } else {
            std::size_t off = 0;
            while (off < items.size()) {
                const std::size_t batch =
                    std::min<std::size_t>(5, items.size() - off);
                std::vector<std::uint64_t> &args = words;
                args.clear();
                args.push_back(
                    static_cast<std::uint64_t>(parity)
                    | (static_cast<std::uint64_t>(self) << 1)
                    | (static_cast<std::uint64_t>(off) << 17));
                for (std::size_t k = 0; k < batch; ++k) {
                    args.push_back(std::bit_cast<std::uint64_t>(
                        mine[items[off + k].srcLocal]));
                }
                co_await ctx.send(q, hGhostX_, args);
                off += batch;
            }
        }
    }

    const std::int64_t want =
        xExpected_[self]
        * (static_cast<std::int64_t>(iter / 2) + 1);
    co_await ctx.waitUntil(
        [this, parity, self, want]() {
            return xReceived_[parity][self] >= want;
        },
        TimeCat::Sync);
}

sim::Thread
Unstruc::programMp(proc::Ctx &ctx, bool bulk)
{
    const int self = ctx.self();
    const std::int32_t first = mesh_.firstNode(self);
    const auto &edges = edgesOf_[self];
    auto &f = fLocal_[self];
    auto &x = xLocal_[self];

    // Per-destination contribution buffers (bulk variant).
    std::vector<std::vector<std::uint64_t>> outbuf(ctx.nprocs());

    std::int64_t f_done = 0;
    for (int it = 0; it < p_.iters; ++it) {
        const int parity = it & 1;
        co_await exchangeX(ctx, it, bulk);
        const auto &ghost = xGhost_[parity][self];

        int poll_gap = 0;
        for (const LocalEdge &e : edges) {
            if (++poll_gap >= ctx.config().pollInsertionGap) {
                poll_gap = 0;
                co_await ctx.pollPoint();
            }
            const double xu = x[e.u - first];
            const double xv =
                e.vRemote
                    ? ghost[e.vGhost]
                    : x[e.v - first];
            const double c = e.w * (xu - xv);
            co_await ctx.compute(kEdgeOverheadCycles);
            co_await ctx.computeFlopsSP(kFlopsPerEdge);
            f[e.u - first] += c;
            co_await ctx.computeFlopsSP(1);
            if (!e.vRemote) {
                f[e.v - first] -= c;
                co_await ctx.computeFlopsSP(1);
            } else {
                const int q = mesh_.owner(e.v);
                const std::uint64_t idx =
                    static_cast<std::uint64_t>(e.v
                                               - mesh_.firstNode(q));
                if (bulk) {
                    outbuf[q].push_back(idx);
                    outbuf[q].push_back(
                        std::bit_cast<std::uint64_t>(c));
                    co_await ctx.compute(4.0); // buffering cost
                } else {
                    co_await ctx.send(
                        q, hContrib_,
                        msg::amArgs(idx, std::bit_cast<std::uint64_t>(c)));
                }
            }
        }

        if (bulk) {
            for (int q = 0; q < ctx.nprocs(); ++q) {
                if (outbuf[q].empty())
                    continue;
                co_await ctx.chargeCopy(outbuf[q].size());
                co_await ctx.sendBulk(q, hContribBulk_, {}, outbuf[q]);
                outbuf[q].clear();
            }
        }

        // Wait for every contribution destined to us this iteration.
        f_done += fExpected_[self];
        const std::int64_t want = f_done;
        co_await ctx.waitUntil(
            [this, self, want]() { return fReceived_[self] >= want; },
            TimeCat::Sync);

        // Node update phase.
        for (std::size_t n = 0; n < x.size(); ++n) {
            co_await ctx.computeFlopsSP(kFlopsPerNode);
            x[n] += 0.10 * f[n];
            f[n] = 0.0;
        }
    }
    co_return;
}

double
Unstruc::checksum() const
{
    double sum = 0.0;
    if (core::isSharedMemory(mech_)) {
        for (std::int32_t n = 0; n < p_.mesh.nodes; ++n) {
            const int p = mesh_.owner(n);
            sum += machine_->debugDouble(
                xArr_.addr(p, n - mesh_.firstNode(p)));
        }
        return sum;
    }
    for (const auto &xs : xLocal_)
        for (double v : xs)
            sum += v;
    return sum;
}

} // namespace alewife::apps
