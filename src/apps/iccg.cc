#include "apps/iccg.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace alewife::apps {

using core::Mechanism;

namespace {

/** Per-edge overhead beyond the 2 FLOPs (indexing, counter upkeep). */
constexpr double kEdgeOverheadCycles = 4.0;

} // namespace

Iccg::Iccg(Params p) : p_(std::move(p))
{
    sys_ = workload::makeTriangular(p_.matrix);
    xRef_ = sys_.solve();
    reference_ = 0.0;
    for (double v : xRef_)
        reference_ += v;
}

core::AppFactory
Iccg::factory(Params p)
{
    return [p]() { return std::make_unique<Iccg>(p); };
}

void
Iccg::buildGraph()
{
    outOf_.assign(sys_.params.rows, {});
    for (std::int32_t r = 0; r < sys_.params.rows; ++r) {
        for (std::int32_t k = sys_.row[r]; k < sys_.row[r + 1]; ++k)
            outOf_[sys_.entries[k].col].push_back({r,
                                                   sys_.entries[k].val});
    }
}

// ---------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------

Addr
Iccg::ctrAddr(std::int32_t r) const
{
    const int p = sys_.owner(r);
    return lineArr_.addr(p, 2 * (r / p_.matrix.nprocs));
}

Addr
Iccg::accAddr(std::int32_t r) const
{
    return ctrAddr(r) + 8;
}

void
Iccg::setupSharedMemory(Machine &m)
{
    const int np = p_.matrix.nprocs;
    std::vector<std::int32_t> counts(np);
    for (int p = 0; p < np; ++p) {
        counts[p] = static_cast<std::int32_t>(
            2 * sys_.rowsOf(p).size());
    }
    lineArr_ = mem::PartitionedArray::create(m.mem(), counts, "iccg");
    for (std::int32_t r = 0; r < sys_.params.rows; ++r) {
        m.mem().storeWord(
            ctrAddr(r),
            static_cast<std::uint64_t>(sys_.inDegree(r)) << 1);
        m.mem().storeDouble(accAddr(r), sys_.b[r]);
    }
}

void
Iccg::applyLocal(int proc, std::int32_t row_global, double val)
{
    const std::int32_t l = row_global / p_.matrix.nprocs;
    acc_[proc][l] -= val;
    if (--remaining_[proc][l] == 0)
        ready_[proc].push_back(l);
}

void
Iccg::setupMessagePassing(Machine &m)
{
    const int np = p_.matrix.nprocs;
    acc_.assign(np, {});
    remaining_.assign(np, {});
    x_.assign(np, {});
    ready_.assign(np, {});
    processed_.assign(np, 0);
    for (int p = 0; p < np; ++p) {
        const auto rows = sys_.rowsOf(p);
        acc_[p].resize(rows.size());
        remaining_[p].resize(rows.size());
        x_[p].assign(rows.size(), 0.0);
        for (std::size_t l = 0; l < rows.size(); ++l) {
            acc_[p][l] = sys_.b[rows[l]];
            remaining_[p][l] = sys_.inDegree(rows[l]);
            if (remaining_[p][l] == 0)
                ready_[p].push_back(static_cast<std::int32_t>(l));
        }
    }

    // Fine-grained: one edge value per message, args = [row, w*x].
    hEdge_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const auto &args = env.msg().args;
        applyLocal(env.self(), static_cast<std::int32_t>(args[0]),
                   std::bit_cast<double>(args[1]));
        env.charge(4.0); // counter + accumulate upkeep
    });

    // Bulk: body = (row, w*x) pairs.
    hEdgeBulk_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const auto &body = env.msg().body;
        for (std::size_t k = 0; k + 1 < body.size(); k += 2) {
            applyLocal(env.self(),
                       static_cast<std::int32_t>(body[k]),
                       std::bit_cast<double>(body[k + 1]));
        }
        env.charge(6.0 * static_cast<double>(body.size() / 2));
    });
}

void
Iccg::setup(Machine &m, Mechanism mech)
{
    mech_ = mech;
    machine_ = &m;
    buildGraph();
    if (core::isSharedMemory(mech))
        setupSharedMemory(m);
    else
        setupMessagePassing(m);
}

sim::Thread
Iccg::program(proc::Ctx &ctx)
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
// Message passing (dataflow)
// ---------------------------------------------------------------------

sim::Thread
Iccg::programMp(proc::Ctx &ctx, bool bulk)
{
    const int self = ctx.self();
    const int np = ctx.nprocs();
    const std::int64_t my_rows =
        static_cast<std::int64_t>(sys_.rowsOf(self).size());

    std::vector<std::vector<std::uint64_t>> outbuf(np);

    while (processed_[self] < my_rows) {
        if (ready_[self].empty()) {
            // Before idling, push out everything we buffered so peers
            // are not starved (the bulk variant's idle-time cost).
            if (bulk) {
                for (int q = 0; q < np; ++q) {
                    if (outbuf[q].empty())
                        continue;
                    co_await ctx.chargeCopy(outbuf[q].size());
                    co_await ctx.sendBulk(q, hEdgeBulk_, {}, outbuf[q]);
                    outbuf[q].clear();
                }
            }
            co_await ctx.waitUntil(
                [this, self]() { return !ready_[self].empty(); },
                TimeCat::Sync);
        }
        co_await ctx.pollPoint();
        const std::int32_t l = ready_[self].front();
        ready_[self].pop_front();
        const std::int32_t r = l * np + self; // wrap mapping inverse
        const double x = acc_[self][l] / sys_.diag[r];
        x_[self][l] = x;
        co_await ctx.computeFlops(2); // subtract epilogue + divide
        ++processed_[self];

        for (const OutEdge &e : outOf_[r]) {
            const double val = e.w * x;
            co_await ctx.computeFlops(1);
            co_await ctx.compute(kEdgeOverheadCycles);
            const int q = sys_.owner(e.dst);
            if (q == self) {
                applyLocal(self, e.dst, val);
                continue;
            }
            if (bulk) {
                outbuf[q].push_back(
                    static_cast<std::uint64_t>(e.dst));
                outbuf[q].push_back(std::bit_cast<std::uint64_t>(val));
                co_await ctx.compute(4.0); // buffering memory ops
                if (static_cast<int>(outbuf[q].size())
                    >= 2 * p_.bulkBatch) {
                    co_await ctx.chargeCopy(outbuf[q].size());
                    co_await ctx.sendBulk(q, hEdgeBulk_, {}, outbuf[q]);
                    outbuf[q].clear();
                }
            } else {
                co_await ctx.send(
                    q, hEdge_,
                    msg::amArgs(static_cast<std::uint64_t>(e.dst),
                                std::bit_cast<std::uint64_t>(val)));
            }
        }
    }

    // Final drain of any leftover bulk buffers.
    if (bulk) {
        for (int q = 0; q < np; ++q) {
            if (outbuf[q].empty())
                continue;
            co_await ctx.chargeCopy(outbuf[q].size());
            co_await ctx.sendBulk(q, hEdgeBulk_, {}, outbuf[q]);
            outbuf[q].clear();
        }
    }
    co_return;
}

// ---------------------------------------------------------------------
// Shared memory (producer-computes)
// ---------------------------------------------------------------------

sim::SubTask<void>
Iccg::smProcessRow(proc::Ctx &ctx, std::int32_t r, bool prefetch)
{
    // The accumulator word now holds the completed sum for row r.
    const double sum =
        proc::Ctx::asDouble(co_await ctx.read(accAddr(r)));
    const double x = sum / sys_.diag[r];
    co_await ctx.computeFlops(2);
    co_await ctx.writeD(accAddr(r), x); // publish x in place

    const auto &outs = outOf_[r];
    for (std::size_t k = 0; k < outs.size(); ++k) {
        if (prefetch && k + 2 < outs.size()) {
            // Write-ownership two nodes ahead (Sec. 4.3.2).
            ctx.prefetchWrite(ctrAddr(outs[k + 2].dst));
        }
        const OutEdge &e = outs[k];
        const double val = e.w * x;
        co_await ctx.computeFlops(1);
        co_await ctx.compute(kEdgeOverheadCycles);

        // Acquire the consumer line: the lock bit rides in the counter
        // word, so the rmw that sets it also brings write ownership of
        // the accumulator in the same line (piggybacking).
        const Addr ca = ctrAddr(e.dst);
        for (;;) {
            const std::uint64_t old = co_await ctx.rmw(
                ca, [](std::uint64_t v) { return v | 1; },
                TimeCat::Sync);
            if ((old & 1) == 0)
                break;
            ++ctx.counters().lockRetries;
            co_await ctx.spinUntil(
                ca, [](std::uint64_t v) { return (v & 1) == 0; },
                TimeCat::Sync);
        }
        ++ctx.counters().lockAcquires;

        // Line is Modified locally: the accumulate and the counter
        // update are cache hits.
        const double acc =
            proc::Ctx::asDouble(co_await ctx.read(accAddr(e.dst)));
        co_await ctx.writeD(accAddr(e.dst), acc - val);
        co_await ctx.computeFlops(1);
        const std::uint64_t ctr_lock =
            co_await ctx.read(ca, TimeCat::Sync);
        const std::uint64_t remaining = (ctr_lock >> 1) - 1;
        // Release: clear the lock, store the decremented counter. A
        // zero counter is the consumer-owner's wake-up signal (its
        // spin loop sees the invalidation).
        co_await ctx.write(ca, remaining << 1, TimeCat::Sync);
    }
    co_return;
}

sim::Thread
Iccg::programSm(proc::Ctx &ctx, bool prefetch)
{
    // Owner sweep: each processor walks its own rows in ascending
    // order, spin-waiting on the presence counter packed into the
    // row's line; producers drive the counters down via remote rmw
    // (producer-computes). Because a row depends only on lower-
    // numbered rows, ascending sweeps never deadlock.
    const int self = ctx.self();
    const auto rows = sys_.rowsOf(self);
    for (std::int32_t r : rows) {
        if (sys_.inDegree(r) > 0) {
            co_await ctx.spinUntil(
                ctrAddr(r),
                [](std::uint64_t v) { return v == 0; },
                TimeCat::Sync);
        }
        co_await smProcessRow(ctx, r, prefetch);
    }
    co_return;
}

double
Iccg::checksum() const
{
    double sum = 0.0;
    if (core::isSharedMemory(mech_)) {
        for (std::int32_t r = 0; r < sys_.params.rows; ++r)
            sum += machine_->debugDouble(accAddr(r));
        return sum;
    }
    for (const auto &xs : x_)
        for (double v : xs)
            sum += v;
    return sum;
}

} // namespace alewife::apps
