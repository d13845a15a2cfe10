#include "apps/stream.hh"

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace alewife::apps {

using core::Mechanism;

Stream::Stream(Params p) : p_(std::move(p))
{
    Rng rng(p_.seed);
    init_.resize(static_cast<std::size_t>(p_.nprocs)
                 * p_.valuesPerIter);
    for (auto &v : init_)
        v = rng.nextRange(0.0, 1.0);

    // Sequential reference: produce, then each consumer sums its
    // neighbour's fresh values.
    std::vector<double> vals = init_;
    std::vector<double> sums(p_.nprocs, 0.0);
    for (int it = 0; it < p_.iters; ++it) {
        for (std::size_t i = 0; i < vals.size(); ++i)
            vals[i] = vals[i] * 0.99 + 1e-3;
        for (int n = 0; n < p_.nprocs; ++n) {
            const int producer = (n + p_.nprocs - 1) % p_.nprocs;
            for (int k = 0; k < p_.valuesPerIter; ++k)
                sums[n] += vals[producer * p_.valuesPerIter + k];
        }
    }
    reference_ = 0.0;
    for (double v : vals)
        reference_ += v;
    for (double s : sums)
        reference_ += s;
}

core::AppFactory
Stream::factory(Params p)
{
    return [p]() { return std::make_unique<Stream>(p); };
}

void
Stream::setup(Machine &m, Mechanism mech)
{
    mech_ = mech;
    machine_ = &m;
    sums_.assign(p_.nprocs, 0.0);

    if (core::isSharedMemory(mech)) {
        std::vector<std::int32_t> counts(p_.nprocs, p_.valuesPerIter);
        valArr_ =
            mem::PartitionedArray::create(m.mem(), counts, "stream");
        for (int p = 0; p < p_.nprocs; ++p) {
            for (int k = 0; k < p_.valuesPerIter; ++k) {
                m.mem().storeDouble(
                    valArr_.addr(p, k),
                    init_[static_cast<std::size_t>(p)
                              * p_.valuesPerIter
                          + k]);
            }
        }
        return;
    }

    valLoc_.assign(p_.nprocs, {});
    ghost_.assign(p_.nprocs,
                  std::vector<double>(p_.valuesPerIter, 0.0));
    received_.assign(p_.nprocs, 0);
    acked_.assign(p_.nprocs, 0);
    for (int p = 0; p < p_.nprocs; ++p) {
        valLoc_[p].assign(init_.begin()
                              + static_cast<std::size_t>(p)
                                    * p_.valuesPerIter,
                          init_.begin()
                              + static_cast<std::size_t>(p + 1)
                                    * p_.valuesPerIter);
    }

    hVals_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const auto &args = env.msg().args;
        const auto off = static_cast<std::size_t>(args[0]);
        const int q = env.self();
        for (std::size_t k = 1; k < args.size(); ++k)
            ghost_[q][off + k - 1] = std::bit_cast<double>(args[k]);
        received_[q] += static_cast<std::int64_t>(args.size() - 1);
    });
    hValsBulk_ = m.handlers().add([this](msg::HandlerEnv &env) {
        const int q = env.self();
        const auto &body = env.msg().body;
        for (std::size_t k = 0; k < body.size(); ++k)
            ghost_[q][k] = std::bit_cast<double>(body[k]);
        received_[q] += static_cast<std::int64_t>(body.size());
    });
    hAck_ = m.handlers().add(
        [this](msg::HandlerEnv &env) { ++acked_[env.self()]; });
}

sim::Thread
Stream::program(proc::Ctx &ctx)
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
Stream::programSm(proc::Ctx &ctx, bool prefetch)
{
    const int self = ctx.self();
    const int producer = (self + ctx.nprocs() - 1) % ctx.nprocs();
    double local_sum = 0.0;

    for (int it = 0; it < p_.iters; ++it) {
        // Produce in place.
        for (int k = 0; k < p_.valuesPerIter; ++k) {
            const Addr a = valArr_.addr(self, k);
            if (prefetch && k + 2 < p_.valuesPerIter)
                ctx.prefetchWrite(valArr_.addr(self, k + 2));
            const double v =
                proc::Ctx::asDouble(co_await ctx.read(a));
            co_await ctx.compute(p_.computePerValue);
            co_await ctx.writeD(a, v * 0.99 + 1e-3);
        }
        co_await ctx.barrier();
        // Consume the neighbour's fresh values.
        for (int k = 0; k < p_.valuesPerIter; ++k) {
            if (prefetch && k + 2 < p_.valuesPerIter)
                ctx.prefetchRead(valArr_.addr(producer, k + 2));
            local_sum += proc::Ctx::asDouble(
                co_await ctx.read(valArr_.addr(producer, k)));
            co_await ctx.computeFlops(1);
        }
        co_await ctx.barrier();
    }
    sums_[self] = local_sum;
    co_return;
}

sim::Thread
Stream::programMp(proc::Ctx &ctx, bool bulk)
{
    const int self = ctx.self();
    const int consumer = (self + 1) % ctx.nprocs();
    auto &mine = valLoc_[self];
    double local_sum = 0.0;
    std::vector<std::uint64_t> words; // args, or a bulk body

    for (int it = 0; it < p_.iters; ++it) {
        for (int k = 0; k < p_.valuesPerIter; ++k) {
            co_await ctx.compute(p_.computePerValue);
            mine[k] = mine[k] * 0.99 + 1e-3;
            if ((k & 7) == 7)
                co_await ctx.pollPoint();
        }
        // Flow control: never run more than one iteration ahead of
        // the consumer's single ghost buffer.
        if (it > 0) {
            const std::int64_t want_ack = it;
            co_await ctx.waitUntil(
                [this, self, want_ack]() {
                    return acked_[self] >= want_ack;
                },
                TimeCat::Sync);
        }
        if (bulk) {
            words.clear();
            for (double v : mine)
                words.push_back(std::bit_cast<std::uint64_t>(v));
            co_await ctx.chargeCopy(words.size());
            co_await ctx.sendBulk(consumer, hValsBulk_, {}, words);
        } else {
            std::size_t off = 0;
            while (off < mine.size()) {
                const std::size_t batch =
                    std::min<std::size_t>(5, mine.size() - off);
                words.clear();
                words.push_back(static_cast<std::uint64_t>(off));
                for (std::size_t k = 0; k < batch; ++k) {
                    words.push_back(std::bit_cast<std::uint64_t>(
                        mine[off + k]));
                }
                co_await ctx.send(consumer, hVals_, words);
                off += batch;
            }
        }
        // Wait for our producer's values, then consume them.
        const std::int64_t want =
            static_cast<std::int64_t>(p_.valuesPerIter) * (it + 1);
        co_await ctx.waitUntil(
            [this, self, want]() { return received_[self] >= want; },
            TimeCat::Sync);
        for (int k = 0; k < p_.valuesPerIter; ++k) {
            local_sum += ghost_[self][k];
            co_await ctx.computeFlops(1);
        }
        // Tell our producer its buffer slot is free again.
        co_await ctx.send((self + ctx.nprocs() - 1) % ctx.nprocs(), hAck_,
                          {});
    }
    sums_[self] = local_sum;
    co_return;
}

double
Stream::checksum() const
{
    double sum = 0.0;
    if (core::isSharedMemory(mech_)) {
        for (int p = 0; p < p_.nprocs; ++p)
            for (int k = 0; k < p_.valuesPerIter; ++k)
                sum += machine_->debugDouble(valArr_.addr(p, k));
    } else {
        for (const auto &vs : valLoc_)
            for (double v : vs)
                sum += v;
    }
    for (double s : sums_)
        sum += s;
    return sum;
}

} // namespace alewife::apps
