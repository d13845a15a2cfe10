#include "apps/graph/bfs.hh"

#include <algorithm>

#include "machine/machine.hh"
#include "sim/logging.hh"

namespace alewife::apps::graph {

using core::Mechanism;

namespace {
/** Claims per active message: meta word + 6 packed claims. */
constexpr std::size_t kClaimBatch = 6;
} // namespace

Bfs::Input::Input(const GraphAppParams &p) : GraphInput(p)
{
    ref = workload::bfsReference(g, root);
    maxDepth = ref.maxDepth;

    // Expected cross-claim counts: processing level l sends one claim
    // per out-edge of a depth-l vertex whose target lives elsewhere.
    const int np = p.graph.nprocs;
    exp.assign(static_cast<std::size_t>(std::max(maxDepth, 0)),
               std::vector<std::int64_t>(np, 0));
    for (std::int32_t u = 0; u < g.n; ++u) {
        const std::int32_t d = ref.depth[u];
        if (d < 0 || d >= maxDepth)
            continue;
        const int pu = g.owner(u);
        for (std::int32_t k = g.outRow[u]; k < g.outRow[u + 1]; ++k) {
            const int pv = g.owner(g.outDst[k]);
            if (pv != pu)
                ++exp[d][pv];
        }
    }

    std::uint64_t h = kFnvBasis;
    for (std::int32_t v = 0; v < g.n; ++v) {
        h = fnv(h, ref.depth[v] < 0 ? kUnset
                                    : pack(ref.depth[v], ref.parent[v]));
    }
    reference = digestChecksum(h);
}

Bfs::Bfs(GraphAppParams p, std::shared_ptr<const Input> in)
    : GraphAppBase(std::move(p), in), ref_(in->ref),
      maxDepth_(in->maxDepth), exp_(in->exp)
{
}

Bfs::Bfs(GraphAppParams p)
    : Bfs(p, std::make_shared<const Input>(p))
{
}

core::AppFactory
Bfs::factory(GraphAppParams p)
{
    auto in = std::make_shared<const Input>(p);
    return [p, in]() { return std::make_unique<Bfs>(p, in); };
}

void
Bfs::setup(Machine &m, Mechanism mech)
{
    mech_ = mech;
    machine_ = &m;
    checkMachine(m);
    const int np = p_.graph.nprocs;

    if (core::isSharedMemory(mech)) {
        std::vector<std::int32_t> counts(np);
        for (int p = 0; p < np; ++p)
            counts[p] = g_.numVerticesOn(p);
        stateArr_ =
            mem::PartitionedArray::create(m.mem(), counts, "graph-bfs");
        for (std::int32_t v = 0; v < g_.n; ++v) {
            const int p = g_.owner(v);
            m.mem().storeWord(stateArr_.addr(p, v - g_.firstVertex(p)),
                              v == root_ ? pack(0, root_) : kUnset);
        }
        return;
    }

    state_.assign(np, {});
    for (int p = 0; p < np; ++p)
        state_[p].assign(g_.numVerticesOn(p), kUnset);
    state_[g_.owner(root_)][root_ - g_.firstVertex(g_.owner(root_))] =
        pack(0, root_);
    recv_.assign(np, std::vector<std::int64_t>(
                         static_cast<std::size_t>(
                             std::max(maxDepth_, 0)),
                         0));

    // Claim handler: args = [level, (v << 32 | parent), ...]; the
    // claimed depth is level + 1. min-combining makes application
    // order irrelevant.
    hClaim_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const auto &args = env.msg().args;
        const auto level = static_cast<std::int32_t>(args[0]);
        const int q = env.self();
        const std::int32_t first = g_.firstVertex(q);
        for (std::size_t k = 1; k < args.size(); ++k) {
            const auto v = static_cast<std::int32_t>(args[k] >> 32);
            const auto parent =
                static_cast<std::int32_t>(args[k] & 0xffffffff);
            auto &w = state_[q][v - first];
            w = std::min(w, pack(level + 1, parent));
        }
        recv_[q][level] += static_cast<std::int64_t>(args.size() - 1);
    });

    hClaimBulk_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const auto level =
            static_cast<std::int32_t>(env.msg().args[0]);
        const int q = env.self();
        const std::int32_t first = g_.firstVertex(q);
        const auto &body = env.msg().body;
        for (const std::uint64_t word : body) {
            const auto v = static_cast<std::int32_t>(word >> 32);
            const auto parent =
                static_cast<std::int32_t>(word & 0xffffffff);
            auto &w = state_[q][v - first];
            w = std::min(w, pack(level + 1, parent));
        }
        recv_[q][level] += static_cast<std::int64_t>(body.size());
    });
}

sim::Thread
Bfs::program(proc::Ctx &ctx)
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
Bfs::programSm(proc::Ctx &ctx, bool prefetch)
{
    const int self = ctx.self();
    const std::int32_t first = g_.firstVertex(self);
    const std::int32_t count = g_.numVerticesOn(self);

    std::vector<std::int32_t> frontier;
    if (g_.owner(root_) == self)
        frontier.push_back(root_ - first);

    for (std::int32_t level = 0; level < maxDepth_; ++level) {
        for (const std::int32_t li : frontier) {
            const std::int32_t u = first + li;
            const std::int32_t beg = g_.outRow[u];
            const std::int32_t end = g_.outRow[u + 1];
            for (std::int32_t k = beg; k < end; ++k) {
                const std::int32_t v = g_.outDst[k];
                const int q = g_.owner(v);
                const Addr a =
                    stateArr_.addr(q, v - g_.firstVertex(q));
                if (prefetch && k + 2 < end) {
                    const std::int32_t v2 = g_.outDst[k + 2];
                    const int q2 = g_.owner(v2);
                    ctx.prefetchWrite(
                        stateArr_.addr(q2, v2 - g_.firstVertex(q2)));
                }
                const std::uint64_t cand = pack(level + 1, u);
                co_await ctx.rmw(a, [cand](std::uint64_t w) {
                    return std::min(w, cand);
                });
                co_await ctx.compute(2.0);
            }
        }
        co_await ctx.barrier();

        // Every level-(l+1) claim is globally applied (rmw completes
        // before its issuer reaches the barrier); later-level claims
        // can only write larger packed values, so the scan is exact.
        frontier.clear();
        for (std::int32_t li = 0; li < count; ++li) {
            const Addr a = stateArr_.addr(self, li);
            if (prefetch && li + 2 < count)
                ctx.prefetchRead(stateArr_.addr(self, li + 2));
            const std::uint64_t w = co_await ctx.read(a);
            if (static_cast<std::int32_t>(w >> 32) == level + 1)
                frontier.push_back(li);
            co_await ctx.compute(1.0);
        }
    }
    co_return;
}

sim::Thread
Bfs::programMp(proc::Ctx &ctx, bool bulk)
{
    const int self = ctx.self();
    const int np = ctx.nprocs();
    const std::int32_t first = g_.firstVertex(self);
    const std::int32_t count = g_.numVerticesOn(self);
    auto &st = state_[self];

    std::vector<std::int32_t> frontier;
    if (g_.owner(root_) == self)
        frontier.push_back(root_ - first);

    std::vector<std::vector<std::uint64_t>> out(np);
    if (!bulk) {
        for (auto &o : out) // a batch at most; sized once
            o.reserve(kClaimBatch);
    }
    std::vector<std::uint64_t> args; // refilled per send

    for (std::int32_t level = 0; level < maxDepth_; ++level) {
        for (const std::int32_t li : frontier) {
            co_await ctx.pollPoint();
            const std::int32_t u = first + li;
            for (std::int32_t k = g_.outRow[u]; k < g_.outRow[u + 1];
                 ++k) {
                const std::int32_t v = g_.outDst[k];
                const int q = g_.owner(v);
                co_await ctx.compute(2.0);
                const std::uint64_t word =
                    (static_cast<std::uint64_t>(v) << 32)
                    | static_cast<std::uint32_t>(u);
                if (q == self) {
                    auto &w = st[v - first];
                    w = std::min(w, pack(level + 1, u));
                    continue;
                }
                out[q].push_back(word);
                if (!bulk && out[q].size() == kClaimBatch) {
                    args.clear();
                    args.push_back(
                        static_cast<std::uint64_t>(level));
                    args.insert(args.end(), out[q].begin(),
                                out[q].end());
                    out[q].clear();
                    co_await ctx.send(q, hClaim_, args);
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
                    q, hClaimBulk_,
                    msg::amArgs(static_cast<std::uint64_t>(level)),
                    out[q]);
            } else {
                args.clear();
                args.push_back(static_cast<std::uint64_t>(level));
                args.insert(args.end(), out[q].begin(),
                            out[q].end());
                co_await ctx.send(q, hClaim_, args);
            }
            out[q].clear();
        }

        // Per-level count: early claims from run-ahead senders land in
        // their own level's counter and never satisfy this wait.
        const std::int64_t want = exp_[level][self];
        co_await ctx.waitUntil(
            [this, self, level, want]() {
                return recv_[self][level] >= want;
            },
            TimeCat::Sync);

        frontier.clear();
        for (std::int32_t li = 0; li < count; ++li) {
            if ((li & 63) == 0) {
                co_await ctx.pollPoint();
                co_await ctx.compute(16.0);
            }
            if (static_cast<std::int32_t>(st[li] >> 32) == level + 1)
                frontier.push_back(li);
        }
    }
    co_return;
}

std::uint64_t
Bfs::stateWord(std::int32_t v) const
{
    if (!result_.empty())
        return result_[v];
    const int p = g_.owner(v);
    const std::int32_t local = v - g_.firstVertex(p);
    if (core::isSharedMemory(mech_))
        return machine_->debugWord(stateArr_.addr(p, local));
    return state_[p][local];
}

double
Bfs::checksum() const
{
    result_.clear();
    std::vector<std::uint64_t> words(g_.n);
    for (std::int32_t v = 0; v < g_.n; ++v)
        words[v] = stateWord(v);
    result_ = std::move(words);
    std::uint64_t h = kFnvBasis;
    for (std::int32_t v = 0; v < g_.n; ++v)
        h = fnv(h, result_[v]);
    return digestChecksum(h);
}

std::vector<std::int32_t>
Bfs::resultDepth() const
{
    std::vector<std::int32_t> out(g_.n);
    for (std::int32_t v = 0; v < g_.n; ++v) {
        const std::uint64_t w = stateWord(v);
        out[v] = w == kUnset
                     ? -1
                     : static_cast<std::int32_t>(w >> 32);
    }
    return out;
}

std::vector<std::int32_t>
Bfs::resultParent() const
{
    std::vector<std::int32_t> out(g_.n);
    for (std::int32_t v = 0; v < g_.n; ++v) {
        const std::uint64_t w = stateWord(v);
        out[v] = w == kUnset
                     ? -1
                     : static_cast<std::int32_t>(w & 0xffffffff);
    }
    return out;
}

} // namespace alewife::apps::graph
