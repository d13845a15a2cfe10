#include "apps/graph/pagerank.hh"

#include <algorithm>
#include <bit>

#include "machine/machine.hh"
#include "sim/logging.hh"

namespace alewife::apps::graph {

using core::Mechanism;

namespace {
/** Rank values per active message: meta word + 5 doubles. */
constexpr std::size_t kValBatch = 5;
} // namespace

Pagerank::Input::Input(const GraphAppParams &p) : GraphInput(p)
{
    refRanks = workload::pagerankReference(g, p.iters, p.damping);
    std::uint64_t h = kFnvBasis;
    for (std::int32_t v = 0; v < g.n; ++v)
        h = fnv(h, std::bit_cast<std::uint64_t>(refRanks[v]));
    reference = digestChecksum(h);
}

Pagerank::Pagerank(GraphAppParams p, Variant variant,
                   std::shared_ptr<const Input> in)
    : GraphAppBase(std::move(p), in), variant_(variant),
      refRanks_(in->refRanks)
{
}

Pagerank::Pagerank(GraphAppParams p, Variant variant)
    : Pagerank(p, variant, std::make_shared<const Input>(p))
{
}

core::AppFactory
Pagerank::factory(GraphAppParams p, Variant variant)
{
    auto in = std::make_shared<const Input>(p);
    return [p, variant, in]() {
        return std::make_unique<Pagerank>(p, variant, in);
    };
}

void
Pagerank::buildPullPlans()
{
    const int np = p_.graph.nprocs;
    ghost_.assign(np, {});
    refs_.assign(np, {});
    plan_.assign(np, std::vector<std::vector<SendItem>>(np));
    expected_.assign(np, 0);

    std::vector<std::int32_t> slotOf(g_.n);
    for (int q = 0; q < np; ++q) {
        std::fill(slotOf.begin(), slotOf.end(), -1);
        const std::int32_t first = g_.firstVertex(q);
        std::int32_t nslots = 0;
        for (std::int32_t v = first;
             v < first + g_.numVerticesOn(q); ++v) {
            for (std::int32_t k = g_.inRow[v]; k < g_.inRow[v + 1];
                 ++k) {
                const std::int32_t u = g_.inSrc[k];
                const int pu = g_.owner(u);
                if (pu == q) {
                    refs_[q].push_back({false, u - first});
                    continue;
                }
                if (slotOf[u] < 0) {
                    slotOf[u] = nslots++;
                    plan_[pu][q].push_back(
                        {u - g_.firstVertex(pu), slotOf[u]});
                }
                refs_[q].push_back({true, slotOf[u]});
            }
        }
        expected_[q] = nslots;
        ghost_[q].assign(static_cast<std::size_t>(nslots), 0.0);
    }
}

void
Pagerank::buildPushPlans()
{
    const int np = p_.graph.nprocs;
    slots_.assign(np, {});
    refs_.assign(np, {});
    plan_.assign(np, std::vector<std::vector<SendItem>>(np));
    expected_.assign(np, 0);
    producersOf_.assign(np, {});
    consumersOf_.assign(np, {});

    // Size every list first, so each is allocated once per setup.
    std::vector<std::size_t> planSize(static_cast<std::size_t>(np) * np);
    for (int q = 0; q < np; ++q) {
        const std::int32_t first = g_.firstVertex(q);
        const std::int32_t last = first + g_.numVerticesOn(q);
        refs_[q].reserve(
            static_cast<std::size_t>(g_.inRow[last] - g_.inRow[first]));
        for (std::int32_t k = g_.inRow[first]; k < g_.inRow[last]; ++k) {
            if (const int pu = g_.owner(g_.inSrc[k]); pu != q)
                ++planSize[static_cast<std::size_t>(pu) * np + q];
        }
    }
    for (int p = 0; p < np; ++p)
        for (int q = 0; q < np; ++q)
            plan_[p][q].reserve(
                planSize[static_cast<std::size_t>(p) * np + q]);

    for (int q = 0; q < np; ++q) {
        const std::int32_t first = g_.firstVertex(q);
        std::int32_t nslots = 0;
        std::vector<char> prod(np, 0);
        for (std::int32_t v = first;
             v < first + g_.numVerticesOn(q); ++v) {
            for (std::int32_t k = g_.inRow[v]; k < g_.inRow[v + 1];
                 ++k) {
                const std::int32_t u = g_.inSrc[k];
                const int pu = g_.owner(u);
                if (pu == q) {
                    refs_[q].push_back({false, u - first});
                    continue;
                }
                // One slot per cross edge, no dedup: the
                // high-message-rate traffic model.
                plan_[pu][q].push_back(
                    {u - g_.firstVertex(pu), nslots});
                refs_[q].push_back({true, nslots});
                ++nslots;
                prod[pu] = 1;
            }
        }
        expected_[q] = nslots;
        slots_[q][0].assign(static_cast<std::size_t>(nslots), 0.0);
        slots_[q][1].assign(static_cast<std::size_t>(nslots), 0.0);
        for (int p = 0; p < np; ++p) {
            if (prod[p]) {
                producersOf_[q].push_back(p);
                consumersOf_[p].push_back(q);
            }
        }
    }
}

void
Pagerank::setup(Machine &m, Mechanism mech)
{
    mech_ = mech;
    machine_ = &m;
    checkMachine(m);
    const int np = p_.graph.nprocs;

    const bool push = variant_ == Variant::AsyncPush;
    if (push)
        buildPushPlans();

    if (core::isSharedMemory(mech)) {
        std::vector<std::int32_t> counts(np);
        for (int p = 0; p < np; ++p)
            counts[p] = g_.numVerticesOn(p);
        for (int par = 0; par < 2; ++par) {
            rankArr_[par] = mem::PartitionedArray::create(
                m.mem(), counts,
                par == 0 ? "graph-pr-rank0" : "graph-pr-rank1");
        }
        const double init = 1.0 / g_.n;
        for (std::int32_t v = 0; v < g_.n; ++v) {
            const int p = g_.owner(v);
            const std::int32_t local = v - g_.firstVertex(p);
            m.mem().storeDouble(rankArr_[0].addr(p, local), init);
            m.mem().storeDouble(rankArr_[1].addr(p, local), 0.0);
        }
        if (push) {
            std::vector<std::int32_t> slotCounts(np);
            for (int p = 0; p < np; ++p) {
                slotCounts[p] =
                    static_cast<std::int32_t>(expected_[p]);
            }
            for (int par = 0; par < 2; ++par) {
                slotArr_[par] = mem::PartitionedArray::create(
                    m.mem(), slotCounts,
                    par == 0 ? "graph-pr-slot0" : "graph-pr-slot1");
            }
        }
        return;
    }

    if (!push)
        buildPullPlans();
    rank_.assign(np, {});
    for (int p = 0; p < np; ++p) {
        rank_[p][0].assign(g_.numVerticesOn(p), 1.0 / g_.n);
        rank_[p][1].assign(g_.numVerticesOn(p), 0.0);
    }
    received_.assign(np, 0);
    recvPar_.assign(np, {0, 0});
    ackFrom_.assign(np, std::vector<std::int64_t>(np, 0));

    // Value handler: meta packs (parity, producer, plan offset); the
    // values land in plan order, into the single ghost buffer (pull —
    // the round barrier makes one buffer safe) or the parity slot
    // buffer (push).
    hVal_ = m.handlers().add([this, push](msg::HandlerEnv &env) {
        const auto &args = env.msg().args;
        const std::uint64_t meta = args[0];
        const int par = static_cast<int>(meta & 0x1);
        const int src = static_cast<int>((meta >> 1) & 0xffff);
        const auto off = static_cast<std::int64_t>(meta >> 17);
        const int q = env.self();
        const auto &items = plan_[src][q];
        auto &dst = push ? slots_[q][par] : ghost_[q];
        for (std::size_t k = 1; k < args.size(); ++k) {
            dst[items[off + (k - 1)].dstSlot] =
                std::bit_cast<double>(args[k]);
        }
        const auto n = static_cast<std::int64_t>(args.size() - 1);
        if (push)
            recvPar_[q][par] += n;
        else
            received_[q] += n;
    });

    hValBulk_ = m.handlers().add([this, push](msg::HandlerEnv &env) {
        const std::uint64_t meta = env.msg().args[0];
        const int par = static_cast<int>(meta & 0x1);
        const int src = static_cast<int>((meta >> 1) & 0xffff);
        const int q = env.self();
        const auto &items = plan_[src][q];
        const auto &body = env.msg().body;
        auto &dst = push ? slots_[q][par] : ghost_[q];
        for (std::size_t k = 0; k < body.size(); ++k)
            dst[items[k].dstSlot] = std::bit_cast<double>(body[k]);
        const auto n = static_cast<std::int64_t>(body.size());
        if (push)
            recvPar_[q][par] += n;
        else
            received_[q] += n;
    });

    hAck_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const auto from =
            static_cast<int>(env.msg().args[0]);
        ackFrom_[env.self()][from] += 1;
    });
}

sim::Thread
Pagerank::program(proc::Ctx &ctx)
{
    const bool push = variant_ == Variant::AsyncPush;
    switch (mech_) {
      case Mechanism::SharedMemory:
        return push ? programSmPush(ctx, false)
                    : programSmPull(ctx, false);
      case Mechanism::SharedMemoryPrefetch:
        return push ? programSmPush(ctx, true)
                    : programSmPull(ctx, true);
      case Mechanism::MpInterrupt:
      case Mechanism::MpPolling:
        return push ? programMpPush(ctx, false)
                    : programMpPull(ctx, false);
      case Mechanism::BulkTransfer:
        return push ? programMpPush(ctx, true)
                    : programMpPull(ctx, true);
      default:
        ALEWIFE_PANIC("bad mechanism");
    }
}

sim::Thread
Pagerank::programSmPull(proc::Ctx &ctx, bool prefetch)
{
    const int self = ctx.self();
    const std::int32_t first = g_.firstVertex(self);
    const std::int32_t count = g_.numVerticesOn(self);
    const double base = (1.0 - p_.damping) / g_.n;

    auto srcAddr = [this](std::int32_t k, int par) {
        const std::int32_t u = g_.inSrc[k];
        const int pu = g_.owner(u);
        return rankArr_[par].addr(pu, u - g_.firstVertex(pu));
    };

    for (int r = 0; r < p_.iters; ++r) {
        const int par = r & 1;
        for (std::int32_t li = 0; li < count; ++li) {
            const std::int32_t v = first + li;
            const Addr naddr = rankArr_[par ^ 1].addr(self, li);
            if (prefetch)
                ctx.prefetchWrite(naddr);
            double sum = 0.0;
            const std::int32_t beg = g_.inRow[v];
            const std::int32_t end = g_.inRow[v + 1];
            for (std::int32_t k = beg; k < end; ++k) {
                if (prefetch && k + 2 < end)
                    ctx.prefetchRead(srcAddr(k + 2, par));
                const std::int32_t u = g_.inSrc[k];
                const double val =
                    ctx.asDouble(co_await ctx.read(srcAddr(k, par)));
                sum += val / g_.outDegree(u);
                co_await ctx.compute(3);
                co_await ctx.computeFlops(2);
            }
            co_await ctx.computeFlops(2);
            co_await ctx.writeD(naddr, base + p_.damping * sum);
        }
        co_await ctx.barrier();
    }
    co_return;
}

sim::Thread
Pagerank::programSmPush(proc::Ctx &ctx, bool prefetch)
{
    const int self = ctx.self();
    const int np = ctx.nprocs();
    const std::int32_t first = g_.firstVertex(self);
    const std::int32_t count = g_.numVerticesOn(self);
    const double base = (1.0 - p_.damping) / g_.n;

    for (int r = 0; r < p_.iters; ++r) {
        const int par = r & 1;
        // Produce: push one divided contribution per cross out-edge
        // into the consumer-homed parity slots.
        for (int q = 0; q < np; ++q) {
            const auto &items = plan_[self][q];
            for (std::size_t i = 0; i < items.size(); ++i) {
                if (prefetch && i + 2 < items.size()) {
                    ctx.prefetchWrite(slotArr_[par].addr(
                        q, items[i + 2].dstSlot));
                }
                const std::int32_t u = first + items[i].srcLocal;
                const double val = ctx.asDouble(co_await ctx.read(
                    rankArr_[par].addr(self, items[i].srcLocal)));
                co_await ctx.compute(3);
                co_await ctx.computeFlops(1);
                co_await ctx.writeD(
                    slotArr_[par].addr(q, items[i].dstSlot),
                    val / g_.outDegree(u));
            }
        }
        // One barrier per round: parity keeps round r+1 producer
        // writes (other slot array) off round-r consumer reads, and
        // round r+2 producers only run after every node passed this
        // barrier and finished consuming round r.
        co_await ctx.barrier();

        // Consume: all reads are consumer-local (slots are homed
        // here), in reference in-edge order.
        std::size_t fi = 0;
        for (std::int32_t li = 0; li < count; ++li) {
            const std::int32_t v = first + li;
            double sum = 0.0;
            for (std::int32_t k = g_.inRow[v]; k < g_.inRow[v + 1];
                 ++k) {
                const Ref rf = refs_[self][fi++];
                double contrib;
                if (rf.remote) {
                    contrib = ctx.asDouble(co_await ctx.read(
                        slotArr_[par].addr(self, rf.idx)));
                } else {
                    const double val =
                        ctx.asDouble(co_await ctx.read(
                            rankArr_[par].addr(self, rf.idx)));
                    contrib = val / g_.outDegree(g_.inSrc[k]);
                    co_await ctx.computeFlops(1);
                }
                sum += contrib;
                co_await ctx.compute(3);
                co_await ctx.computeFlops(1);
            }
            co_await ctx.computeFlops(2);
            co_await ctx.writeD(rankArr_[par ^ 1].addr(self, li),
                                base + p_.damping * sum);
        }
    }
    co_return;
}

sim::Thread
Pagerank::programMpPull(proc::Ctx &ctx, bool bulk)
{
    const int self = ctx.self();
    const int np = ctx.nprocs();
    const std::int32_t first = g_.firstVertex(self);
    const std::int32_t count = g_.numVerticesOn(self);
    const double base = (1.0 - p_.damping) / g_.n;
    std::vector<std::uint64_t> words; // args, or a bulk body

    for (int r = 0; r < p_.iters; ++r) {
        const int par = r & 1;
        const auto &cur = rank_[self][par];
        auto &nxt = rank_[self][par ^ 1];

        for (int q = 0; q < np; ++q) {
            const auto &items = plan_[self][q];
            if (items.empty())
                continue;
            if (bulk) {
                words.clear();
                for (const auto &item : items) {
                    words.push_back(std::bit_cast<std::uint64_t>(
                        cur[item.srcLocal]));
                }
                co_await ctx.chargeCopy(words.size());
                co_await ctx.sendBulk(
                    q, hValBulk_,
                    msg::amArgs(static_cast<std::uint64_t>(self) << 1),
                    words);
                continue;
            }
            std::size_t off = 0;
            while (off < items.size()) {
                const std::size_t batch = std::min<std::size_t>(
                    kValBatch, items.size() - off);
                words.clear();
                words.push_back(
                    (static_cast<std::uint64_t>(self) << 1)
                    | (static_cast<std::uint64_t>(off) << 17));
                for (std::size_t k = 0; k < batch; ++k) {
                    words.push_back(std::bit_cast<std::uint64_t>(
                        cur[items[off + k].srcLocal]));
                }
                co_await ctx.send(q, hVal_, words);
                off += batch;
            }
        }

        const std::int64_t want =
            expected_[self] * static_cast<std::int64_t>(r + 1);
        co_await ctx.waitUntil(
            [this, self, want]() { return received_[self] >= want; },
            TimeCat::Sync);

        std::size_t fi = 0;
        for (std::int32_t li = 0; li < count; ++li) {
            co_await ctx.pollPoint();
            const std::int32_t v = first + li;
            double sum = 0.0;
            for (std::int32_t k = g_.inRow[v]; k < g_.inRow[v + 1];
                 ++k) {
                const Ref rf = refs_[self][fi++];
                const double val = rf.remote ? ghost_[self][rf.idx]
                                             : cur[rf.idx];
                sum += val / g_.outDegree(g_.inSrc[k]);
                co_await ctx.compute(3);
                co_await ctx.computeFlops(2);
            }
            co_await ctx.computeFlops(2);
            nxt[li] = base + p_.damping * sum;
        }
        // Bulk-synchronous: the barrier is what makes the single
        // ghost buffer safe for the next round's sends.
        co_await ctx.barrier();
    }
    co_return;
}

sim::Thread
Pagerank::programMpPush(proc::Ctx &ctx, bool bulk)
{
    const int self = ctx.self();
    const int np = ctx.nprocs();
    const std::int32_t first = g_.firstVertex(self);
    const std::int32_t count = g_.numVerticesOn(self);
    const double base = (1.0 - p_.damping) / g_.n;
    std::vector<std::uint64_t> words; // args, or a bulk body

    for (int r = 0; r < p_.iters; ++r) {
        const int par = r & 1;
        const auto &cur = rank_[self][par];
        auto &nxt = rank_[self][par ^ 1];

        // Window-2 flow control: the parity-par slots were last read
        // when consumers finished round r-2, which each consumer
        // acknowledged with one credit. Checked per consumer — a fast
        // consumer's extra credits must not cover for a slow one.
        if (r >= 2) {
            const std::int64_t rounds = r - 1;
            co_await ctx.waitUntil(
                [this, self, rounds]() {
                    for (const int q : consumersOf_[self]) {
                        if (ackFrom_[self][q] < rounds)
                            return false;
                    }
                    return true;
                },
                TimeCat::Sync);
        }

        for (int q = 0; q < np; ++q) {
            const auto &items = plan_[self][q];
            if (items.empty())
                continue;
            if (bulk) {
                words.clear();
                for (const auto &item : items) {
                    const std::int32_t u = first + item.srcLocal;
                    words.push_back(std::bit_cast<std::uint64_t>(
                        cur[item.srcLocal] / g_.outDegree(u)));
                }
                co_await ctx.chargeCopy(words.size());
                co_await ctx.computeFlops(items.size());
                co_await ctx.sendBulk(
                    q, hValBulk_,
                    msg::amArgs(static_cast<std::uint64_t>(par)
                                | (static_cast<std::uint64_t>(self) << 1)),
                    words);
                continue;
            }
            std::size_t off = 0;
            while (off < items.size()) {
                const std::size_t batch = std::min<std::size_t>(
                    kValBatch, items.size() - off);
                std::vector<std::uint64_t> &args = words;
                args.clear();
                args.push_back(
                    static_cast<std::uint64_t>(par)
                    | (static_cast<std::uint64_t>(self) << 1)
                    | (static_cast<std::uint64_t>(off) << 17));
                for (std::size_t k = 0; k < batch; ++k) {
                    const auto &item = items[off + k];
                    const std::int32_t u = first + item.srcLocal;
                    args.push_back(std::bit_cast<std::uint64_t>(
                        cur[item.srcLocal] / g_.outDegree(u)));
                }
                co_await ctx.computeFlops(batch);
                co_await ctx.send(q, hVal_, args);
                off += batch;
            }
        }

        // Same-parity rounds are at most two apart (the ack window),
        // so the parity counter is a cumulative count of rounds
        // r, r-2, r-4, ... — and a run-ahead producer's round-(r+1)
        // values land in the other parity's counter.
        const std::int64_t want =
            expected_[self]
            * (static_cast<std::int64_t>(r / 2) + 1);
        co_await ctx.waitUntil(
            [this, self, par, want]() {
                return recvPar_[self][par] >= want;
            },
            TimeCat::Sync);

        std::size_t fi = 0;
        for (std::int32_t li = 0; li < count; ++li) {
            co_await ctx.pollPoint();
            const std::int32_t v = first + li;
            double sum = 0.0;
            for (std::int32_t k = g_.inRow[v]; k < g_.inRow[v + 1];
                 ++k) {
                const Ref rf = refs_[self][fi++];
                double contrib;
                if (rf.remote) {
                    contrib = slots_[self][par][rf.idx];
                } else {
                    contrib = cur[rf.idx]
                              / g_.outDegree(g_.inSrc[k]);
                    co_await ctx.computeFlops(1);
                }
                sum += contrib;
                co_await ctx.compute(3);
                co_await ctx.computeFlops(1);
            }
            co_await ctx.computeFlops(2);
            nxt[li] = base + p_.damping * sum;
        }

        // Credit every producer: round r is consumed, its parity
        // slots may be overwritten two rounds from now. No barrier —
        // rounds pipeline point-to-point.
        for (const int p : producersOf_[self]) {
            co_await ctx.send(p, hAck_,
                              msg::amArgs(static_cast<std::uint64_t>(self)));
        }
    }

    // Drain: wait for every consumer's final-round acks before
    // finishing. Without this, the last acks sit undelivered in
    // polling mode (no program left to poll) and spin NI retries
    // through the whole post-run quiesce window.
    co_await ctx.waitUntil(
        [this, self] {
            for (const int q : consumersOf_[self])
                if (ackFrom_[self][q] < p_.iters)
                    return false;
            return true;
        },
        TimeCat::Sync);
    co_return;
}

double
Pagerank::finalRank(std::int32_t v) const
{
    if (!result_.empty())
        return std::bit_cast<double>(result_[v]);
    const int par = p_.iters & 1;
    const int p = g_.owner(v);
    const std::int32_t local = v - g_.firstVertex(p);
    if (core::isSharedMemory(mech_))
        return machine_->debugDouble(rankArr_[par].addr(p, local));
    return rank_[p][par][local];
}

double
Pagerank::checksum() const
{
    result_.clear();
    std::vector<std::uint64_t> words(g_.n);
    for (std::int32_t v = 0; v < g_.n; ++v)
        words[v] = std::bit_cast<std::uint64_t>(finalRank(v));
    result_ = std::move(words);
    std::uint64_t h = kFnvBasis;
    for (std::int32_t v = 0; v < g_.n; ++v)
        h = fnv(h, result_[v]);
    return digestChecksum(h);
}

std::vector<double>
Pagerank::resultRanks() const
{
    std::vector<double> out(g_.n);
    for (std::int32_t v = 0; v < g_.n; ++v)
        out[v] = finalRank(v);
    return out;
}

} // namespace alewife::apps::graph
