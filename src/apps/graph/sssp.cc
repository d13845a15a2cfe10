#include "apps/graph/sssp.hh"

#include <algorithm>

#include "machine/machine.hh"
#include "sim/logging.hh"

namespace alewife::apps::graph {

using core::Mechanism;

namespace {
/** Relaxations per active message: meta word + 6 packed relaxes. */
constexpr std::size_t kRelaxBatch = 6;
} // namespace

Sssp::Input::Input(const GraphAppParams &p) : GraphInput(p)
{
    if (p.delta < 1)
        ALEWIFE_FATAL("sssp delta must be >= 1, got ", p.delta);
    // Candidates ride in the low 32 bits of a relax word.
    if (static_cast<std::int64_t>(g.n) * p.graph.maxWeight
        >= (std::int64_t{1} << 31)) {
        ALEWIFE_FATAL("sssp distances would not fit 32 bits");
    }

    dist = workload::dijkstraReference(g, root);
    buildPlan(p);

    std::uint64_t h = kFnvBasis;
    for (std::int32_t v = 0; v < g.n; ++v) {
        h = fnv(h, dist[v] < 0 ? static_cast<std::uint64_t>(kInf)
                               : static_cast<std::uint64_t>(dist[v]));
    }
    reference = digestChecksum(h);
}

Sssp::Sssp(GraphAppParams p, std::shared_ptr<const Input> in)
    : GraphAppBase(std::move(p), in), dist_(in->dist),
      phases_(in->phases), exp_(in->exp)
{
}

Sssp::Sssp(GraphAppParams p) : Sssp(p, std::make_shared<const Input>(p))
{
}

core::AppFactory
Sssp::factory(GraphAppParams p)
{
    auto in = std::make_shared<const Input>(p);
    return [p, in]() { return std::make_unique<Sssp>(p, in); };
}

void
Sssp::Input::buildPlan(const GraphAppParams &p)
{
    const int np = p.graph.nprocs;
    const std::int64_t delta = p.delta;
    std::vector<std::int64_t> tent(g.n, kInf), last(g.n, -1);
    std::vector<char> flag(g.n, 0);
    tent[root] = 0;

    struct Relax
    {
        std::int32_t target;
        std::int64_t cand;
        int srcProc;
    };

    auto applyPhase = [&](const std::vector<Relax> &rs) {
        std::vector<std::int64_t> row(np, 0);
        for (const Relax &r : rs) {
            const int q = g.owner(r.target);
            if (q != r.srcProc)
                ++row[q];
            tent[r.target] = std::min(tent[r.target], r.cand);
        }
        exp.push_back(std::move(row));
    };

    while (true) {
        std::int64_t b = -1;
        for (std::int32_t v = 0; v < g.n; ++v) {
            if (tent[v] == kInf || last[v] == tent[v])
                continue;
            const std::int64_t bv = tent[v] / delta;
            b = b < 0 ? bv : std::min(b, bv);
        }
        if (b < 0)
            break;

        // Light phases: repeat until the bucket stops producing new
        // or improved members.
        while (true) {
            std::vector<Relax> rs;
            bool any = false;
            for (std::int32_t v = 0; v < g.n; ++v) {
                if (tent[v] == kInf || tent[v] / delta != b
                    || last[v] == tent[v])
                    continue;
                any = true;
                const std::int64_t snap = tent[v];
                last[v] = snap;
                flag[v] = 1;
                const int pu = g.owner(v);
                for (std::int32_t k = g.outRow[v];
                     k < g.outRow[v + 1]; ++k) {
                    if (g.outW[k] > delta)
                        continue;
                    rs.push_back(
                        {g.outDst[k], snap + g.outW[k], pu});
                }
            }
            if (!any)
                break;
            phases.push_back({b, false});
            applyPhase(rs);
        }

        // One heavy phase per bucket: every vertex settled in this
        // bucket relaxes its heavy edges from its final distance.
        {
            std::vector<Relax> rs;
            for (std::int32_t v = 0; v < g.n; ++v) {
                if (!flag[v])
                    continue;
                flag[v] = 0;
                const int pu = g.owner(v);
                for (std::int32_t k = g.outRow[v];
                     k < g.outRow[v + 1]; ++k) {
                    if (g.outW[k] <= delta)
                        continue;
                    rs.push_back(
                        {g.outDst[k], tent[v] + g.outW[k], pu});
                }
            }
            phases.push_back({b, true});
            applyPhase(rs);
        }
    }
}

void
Sssp::setup(Machine &m, Mechanism mech)
{
    mech_ = mech;
    machine_ = &m;
    checkMachine(m);
    const int np = p_.graph.nprocs;

    tent_.assign(np, {});
    lastProc_.assign(np, {});
    flag_.assign(np, {});
    for (int p = 0; p < np; ++p) {
        tent_[p].assign(g_.numVerticesOn(p), kInf);
        lastProc_[p].assign(g_.numVerticesOn(p), -1);
        flag_[p].assign(g_.numVerticesOn(p), 0);
    }
    const int rp = g_.owner(root_);
    tent_[rp][root_ - g_.firstVertex(rp)] = 0;

    if (core::isSharedMemory(mech)) {
        std::vector<std::int32_t> counts(np);
        for (int p = 0; p < np; ++p)
            counts[p] = g_.numVerticesOn(p);
        tentArr_ =
            mem::PartitionedArray::create(m.mem(), counts,
                                          "graph-sssp");
        for (std::int32_t v = 0; v < g_.n; ++v) {
            const int p = g_.owner(v);
            m.mem().storeWord(
                tentArr_.addr(p, v - g_.firstVertex(p)),
                v == root_ ? 0 : static_cast<std::uint64_t>(kInf));
        }
        return;
    }

    inbox_.assign(np, {});
    recv_.assign(np,
                 std::vector<std::int64_t>(phases_.size(), 0));

    // Relax handler: args = [phase, (v << 32 | cand), ...].
    // Application is deferred to the phase's sync point so the
    // distributed state stays in lockstep with the plan.
    hRelax_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const auto &args = env.msg().args;
        const auto ph = static_cast<std::int32_t>(args[0]);
        const int q = env.self();
        const std::int32_t first = g_.firstVertex(q);
        for (std::size_t k = 1; k < args.size(); ++k) {
            const auto v = static_cast<std::int32_t>(args[k] >> 32);
            const auto cand = static_cast<std::int64_t>(
                args[k] & 0xffffffff);
            inbox_[q].push_back({ph, v - first, cand});
        }
        recv_[q][ph] += static_cast<std::int64_t>(args.size() - 1);
    });

    hRelaxBulk_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const auto ph =
            static_cast<std::int32_t>(env.msg().args[0]);
        const int q = env.self();
        const std::int32_t first = g_.firstVertex(q);
        const auto &body = env.msg().body;
        for (const std::uint64_t word : body) {
            const auto v = static_cast<std::int32_t>(word >> 32);
            const auto cand =
                static_cast<std::int64_t>(word & 0xffffffff);
            inbox_[q].push_back({ph, v - first, cand});
        }
        recv_[q][ph] += static_cast<std::int64_t>(body.size());
    });
}

sim::Thread
Sssp::program(proc::Ctx &ctx)
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

sim::Thread
Sssp::programSm(proc::Ctx &ctx, bool prefetch)
{
    const int self = ctx.self();
    const std::int32_t first = g_.firstVertex(self);
    const std::int32_t count = g_.numVerticesOn(self);
    const std::int64_t delta = p_.delta;
    auto &tent = tent_[self];
    auto &last = lastProc_[self];
    auto &flag = flag_[self];

    auto edgeAddr = [this](std::int32_t k) {
        const std::int32_t t = g_.outDst[k];
        const int q = g_.owner(t);
        return tentArr_.addr(q, t - g_.firstVertex(q));
    };

    std::vector<std::int32_t> act;
    for (std::size_t ph = 0; ph < phases_.size(); ++ph) {
        const Phase P = phases_[ph];
        act.clear();
        if (!P.heavy) {
            for (std::int32_t li = 0; li < count; ++li) {
                const std::int64_t t = tent[li];
                if (t != kInf && t / delta == P.bucket
                    && last[li] != t)
                    act.push_back(li);
            }
        } else {
            for (std::int32_t li = 0; li < count; ++li) {
                if (flag[li])
                    act.push_back(li);
            }
        }

        for (const std::int32_t li : act) {
            const std::int64_t base = tent[li];
            if (!P.heavy) {
                last[li] = base;
                flag[li] = 1;
            }
            const std::int32_t v = first + li;
            const std::int32_t beg = g_.outRow[v];
            const std::int32_t end = g_.outRow[v + 1];
            for (std::int32_t k = beg; k < end; ++k) {
                const bool heavyEdge = g_.outW[k] > delta;
                if (heavyEdge != P.heavy)
                    continue;
                if (prefetch && k + 2 < end
                    && (g_.outW[k + 2] > delta) == P.heavy)
                    ctx.prefetchWrite(edgeAddr(k + 2));
                const auto cand = static_cast<std::uint64_t>(
                    base + g_.outW[k]);
                co_await ctx.rmw(edgeAddr(k),
                                 [cand](std::uint64_t w) {
                                     return std::min(w, cand);
                                 });
                co_await ctx.compute(2.0);
            }
        }
        if (P.heavy) {
            for (const std::int32_t li : act)
                flag[li] = 0;
        }
        co_await ctx.barrier();

        // Re-sync the shadow from our own partition: active sets are
        // always computed from barrier-boundary state, which is
        // exactly the plan's state.
        for (std::int32_t li = 0; li < count; ++li) {
            if (prefetch && li + 2 < count)
                ctx.prefetchRead(tentArr_.addr(self, li + 2));
            const std::uint64_t w =
                co_await ctx.read(tentArr_.addr(self, li));
            tent[li] = static_cast<std::int64_t>(w);
            co_await ctx.compute(1.0);
        }
    }
    co_return;
}

sim::Thread
Sssp::programMp(proc::Ctx &ctx, bool bulk)
{
    const int self = ctx.self();
    const int np = ctx.nprocs();
    const std::int32_t first = g_.firstVertex(self);
    const std::int32_t count = g_.numVerticesOn(self);
    const std::int64_t delta = p_.delta;
    auto &tent = tent_[self];
    auto &last = lastProc_[self];
    auto &flag = flag_[self];

    std::vector<std::vector<std::uint64_t>> out(np);
    if (!bulk) {
        for (auto &o : out) // a batch at most; sized once
            o.reserve(kRelaxBatch);
    }
    std::vector<std::uint64_t> args; // refilled per send
    std::vector<std::pair<std::int32_t, std::int64_t>> pending;
    std::vector<std::int32_t> act;

    for (std::size_t ph = 0; ph < phases_.size(); ++ph) {
        const Phase P = phases_[ph];
        act.clear();
        if (!P.heavy) {
            for (std::int32_t li = 0; li < count; ++li) {
                const std::int64_t t = tent[li];
                if (t != kInf && t / delta == P.bucket
                    && last[li] != t)
                    act.push_back(li);
            }
        } else {
            for (std::int32_t li = 0; li < count; ++li) {
                if (flag[li])
                    act.push_back(li);
            }
        }

        for (const std::int32_t li : act) {
            co_await ctx.pollPoint();
            const std::int64_t base = tent[li];
            if (!P.heavy) {
                last[li] = base;
                flag[li] = 1;
            }
            const std::int32_t v = first + li;
            for (std::int32_t k = g_.outRow[v];
                 k < g_.outRow[v + 1]; ++k) {
                if ((g_.outW[k] > delta) != P.heavy)
                    continue;
                const std::int64_t cand = base + g_.outW[k];
                const std::int32_t t = g_.outDst[k];
                const int q = g_.owner(t);
                co_await ctx.compute(2.0);
                if (q == self) {
                    // Local relaxations are deferred too: applying
                    // them now would perturb later active sets away
                    // from the plan.
                    pending.emplace_back(t - first, cand);
                    continue;
                }
                out[q].push_back(
                    (static_cast<std::uint64_t>(t) << 32)
                    | static_cast<std::uint32_t>(cand));
                if (!bulk && out[q].size() == kRelaxBatch) {
                    args.clear();
                    args.push_back(static_cast<std::uint64_t>(ph));
                    args.insert(args.end(), out[q].begin(),
                                out[q].end());
                    out[q].clear();
                    co_await ctx.send(q, hRelax_, args);
                }
            }
        }
        for (int q = 0; q < np; ++q) {
            if (out[q].empty())
                continue;
            const std::size_t n = out[q].size();
            if (bulk) {
                co_await ctx.chargeCopy(n);
                co_await ctx.sendBulk(
                    q, hRelaxBulk_,
                    msg::amArgs(static_cast<std::uint64_t>(ph)), out[q]);
            } else {
                args.clear();
                args.push_back(static_cast<std::uint64_t>(ph));
                args.insert(args.end(), out[q].begin(),
                            out[q].end());
                co_await ctx.send(q, hRelax_, args);
            }
            out[q].clear();
        }
        if (P.heavy) {
            for (const std::int32_t li : act)
                flag[li] = 0;
        }

        const std::int64_t want = exp_[ph][self];
        co_await ctx.waitUntil(
            [this, self, ph, want]() {
                return recv_[self][ph] >= want;
            },
            TimeCat::Sync);

        // Sync point: apply this phase's relaxations — our own
        // deferred locals plus every inbox entry tagged with this
        // phase or earlier. Later-tagged entries (from run-ahead
        // senders) stay queued.
        std::int64_t applied = 0;
        for (const auto &[tl, cand] : pending) {
            tent[tl] = std::min(tent[tl], cand);
            ++applied;
        }
        pending.clear();
        auto &ib = inbox_[self];
        std::size_t keep = 0;
        for (std::size_t i = 0; i < ib.size(); ++i) {
            if (ib[i].phase <= static_cast<std::int32_t>(ph)) {
                auto &t = tent[ib[i].target];
                t = std::min(t, ib[i].cand);
                ++applied;
            } else {
                ib[keep++] = ib[i];
            }
        }
        ib.resize(keep);
        co_await ctx.compute(1.0 + 2.0 * applied);
    }
    co_return;
}

std::uint64_t
Sssp::tentWord(std::int32_t v) const
{
    if (!result_.empty())
        return result_[v];
    const int p = g_.owner(v);
    const std::int32_t local = v - g_.firstVertex(p);
    if (core::isSharedMemory(mech_))
        return machine_->debugWord(tentArr_.addr(p, local));
    return static_cast<std::uint64_t>(tent_[p][local]);
}

double
Sssp::checksum() const
{
    result_.clear();
    std::vector<std::uint64_t> words(g_.n);
    for (std::int32_t v = 0; v < g_.n; ++v)
        words[v] = tentWord(v);
    result_ = std::move(words);
    std::uint64_t h = kFnvBasis;
    for (std::int32_t v = 0; v < g_.n; ++v)
        h = fnv(h, result_[v]);
    return digestChecksum(h);
}

std::vector<std::int64_t>
Sssp::resultDist() const
{
    std::vector<std::int64_t> out(g_.n);
    for (std::int32_t v = 0; v < g_.n; ++v) {
        const auto w = static_cast<std::int64_t>(tentWord(v));
        out[v] = w == kInf ? -1 : w;
    }
    return out;
}

} // namespace alewife::apps::graph
