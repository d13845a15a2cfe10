#include "apps/moldyn.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace alewife::apps {

using core::Mechanism;

namespace {

/** Force-law constants shared with the sequential reference. */
constexpr double kSpring = 0.001;
constexpr double kDt = 0.01;

/** Single-precision FLOPs per pair interaction / per-molecule update. */
constexpr int kFlopsPerPair = 50;
constexpr int kFlopsPerUpdate = 10;

/** Addressing overhead per pair. */
constexpr double kPairOverheadCycles = 6.0;

} // namespace

Moldyn::Moldyn(Params p) : p_(std::move(p))
{
    sys_ = workload::makeMoldyn(p_.box);
    reference_ = sys_.sequential(p_.iters);
}

core::AppFactory
Moldyn::factory(Params p)
{
    return [p]() { return std::make_unique<Moldyn>(p); };
}

void
Moldyn::buildPartition()
{
    const int np = p_.box.nprocs;
    localPairs_.assign(np, {});
    smPairs_.assign(np, {});
    cross_.assign(np, std::vector<std::vector<CrossPair>>(np));
    sendList_.assign(np, std::vector<std::vector<std::int32_t>>(np));

    // Ghost slot assignment: one slot per distinct (p -> q) molecule.
    std::vector<std::vector<std::int32_t>> slot(
        np, std::vector<std::int32_t>(p_.box.molecules, -1));

    for (const workload::Pair &pr : sys_.pairs) {
        const int pi = sys_.owner(pr.i);
        const int pj = sys_.owner(pr.j);
        if (pi == pj) {
            localPairs_[pi].push_back(pr);
            smPairs_[pi].push_back({pr.i, pr.j});
            continue;
        }
        // SM: alternate cross-pair assignment between the two owners
        // so boundary-heavy partitions don't serialize the barriers.
        if (((pr.i + pr.j) & 1) == 0)
            smPairs_[pi].push_back({pr.i, pr.j});
        else
            smPairs_[pj].push_back({pr.j, pr.i});
        // MP: the higher-id proc computes; the lower ships coords.
        const int q = std::max(pi, pj);
        const int p = std::min(pi, pj);
        const std::int32_t qmol = (q == pi) ? pr.i : pr.j;
        const std::int32_t pmol = (q == pi) ? pr.j : pr.i;
        if (slot[q][pmol] < 0) {
            slot[q][pmol] = static_cast<std::int32_t>(
                sendList_[p][q].size());
            sendList_[p][q].push_back(pmol - sys_.firstOf[p]);
        }
        CrossPair cp;
        cp.mine = qmol - sys_.firstOf[q];
        cp.ghost = slot[q][pmol];
        cp.remoteSlot = slot[q][pmol];
        cross_[q][p].push_back(cp);
    }
}

void
Moldyn::setupSharedMemory(Machine &m)
{
    const int np = p_.box.nprocs;
    std::vector<std::int32_t> counts(np);
    for (int p = 0; p < np; ++p)
        counts[p] = 4 * sys_.numMoleculesOn(p); // x,y,z,pad per molecule
    xArr_ = mem::PartitionedArray::create(m.mem(), counts, "moldyn-x");
    fArr_ = mem::PartitionedArray::create(m.mem(), counts, "moldyn-f");
    std::vector<std::int32_t> lockCounts(np);
    for (int p = 0; p < np; ++p)
        lockCounts[p] = 2 * sys_.numMoleculesOn(p); // one line each
    lockArr_ =
        mem::PartitionedArray::create(m.mem(), lockCounts, "moldyn-lk");

    for (std::int32_t i = 0; i < p_.box.molecules; ++i) {
        const int p = sys_.owner(i);
        const std::int32_t l = i - sys_.firstOf[p];
        for (int d = 0; d < 3; ++d) {
            m.mem().storeDouble(xArr_.addr(p, 4 * l + d),
                                sys_.init[i].x[d]);
            m.mem().storeDouble(fArr_.addr(p, 4 * l + d), 0.0);
        }
    }
}

void
Moldyn::setupMessagePassing(Machine &m)
{
    const int np = p_.box.nprocs;
    xLoc_.assign(np, {});
    vLoc_.assign(np, {});
    fLoc_.assign(np, {});
    ghostX_.assign(np, {});
    deltaOut_.assign(np, {});
    coordsExpected_.assign(np, 0);
    coordsRecv_.assign(np, 0);
    deltasExpected_.assign(np, 0);
    deltasRecv_.assign(np, 0);

    for (int p = 0; p < np; ++p) {
        const std::int32_t n = sys_.numMoleculesOn(p);
        xLoc_[p].resize(3 * n);
        vLoc_[p].resize(3 * n);
        fLoc_[p].assign(3 * n, 0.0);
        for (std::int32_t l = 0; l < n; ++l) {
            const workload::Molecule &mol =
                sys_.init[sys_.firstOf[p] + l];
            for (int d = 0; d < 3; ++d) {
                xLoc_[p][3 * l + d] = mol.x[d];
                vLoc_[p][3 * l + d] = mol.v[d];
            }
        }
    }

    // Ghost buffers and expectations. Ghost base of group (p -> q) is
    // the running prefix over p.
    std::vector<std::vector<std::int32_t>> base(
        np, std::vector<std::int32_t>(np, 0));
    for (int q = 0; q < np; ++q) {
        std::int32_t total = 0;
        for (int p = 0; p < np; ++p) {
            base[q][p] = total;
            total += static_cast<std::int32_t>(sendList_[p][q].size());
        }
        ghostX_[q].assign(3 * total, 0.0);
        coordsExpected_[q] = total;
    }
    for (int p = 0; p < np; ++p) {
        std::int64_t ships = 0;
        for (int q = 0; q < np; ++q)
            ships += static_cast<std::int64_t>(sendList_[p][q].size());
        deltasExpected_[p] = ships;
    }
    // Re-base cross pairs' ghost slots to the flat buffer.
    for (int q = 0; q < np; ++q) {
        for (int p = 0; p < np; ++p) {
            for (CrossPair &cp : cross_[q][p])
                cp.ghost += base[q][p];
        }
    }

    // Coordinate delivery: meta = (srcProc, molOffset); body/args carry
    // 3 doubles per molecule in sendList order.
    auto store_coords = [this, base](int q, int src,
                                     std::int64_t mol_off,
                                     const std::uint64_t *vals,
                                     std::size_t nmols) {
        const std::int32_t b = base[q][src];
        for (std::size_t k = 0; k < nmols; ++k) {
            for (int d = 0; d < 3; ++d) {
                ghostX_[q][3 * (b + mol_off + k) + d] =
                    std::bit_cast<double>(vals[3 * k + d]);
            }
        }
        coordsRecv_[q] += static_cast<std::int64_t>(nmols);
    };

    hCoords_ = m.handlers().add([this, store_coords](
                                    msg::HandlerEnv &env) {
        const auto &args = env.msg().args;
        const int src = static_cast<int>(args[0] & 0xffff);
        const auto off = static_cast<std::int64_t>(args[0] >> 16);
        store_coords(env.self(), src, off, args.data() + 1,
                     (args.size() - 1) / 3);
    });
    hCoordsBulk_ = m.handlers().add([this, store_coords](
                                        msg::HandlerEnv &env) {
        const auto &args = env.msg().args;
        const int src = static_cast<int>(args[0] & 0xffff);
        store_coords(env.self(), src, 0, env.msg().body.data(),
                     env.msg().body.size() / 3);
    });

    // Delta return: meta = (srcProc q, molOffset); 3 doubles per
    // molecule in the *receiver's* sendList_[p][q] order.
    auto apply_deltas = [this](int p, int src, std::int64_t mol_off,
                               const std::uint64_t *vals,
                               std::size_t nmols) {
        const auto &items = sendList_[p][src];
        for (std::size_t k = 0; k < nmols; ++k) {
            const std::int32_t l = items[mol_off + k];
            for (int d = 0; d < 3; ++d) {
                fLoc_[p][3 * l + d] +=
                    std::bit_cast<double>(vals[3 * k + d]);
            }
        }
        deltasRecv_[p] += static_cast<std::int64_t>(nmols);
    };

    hDeltas_ = m.handlers().add([this, apply_deltas](
                                    msg::HandlerEnv &env) {
        const auto &args = env.msg().args;
        const int src = static_cast<int>(args[0] & 0xffff);
        const auto off = static_cast<std::int64_t>(args[0] >> 16);
        apply_deltas(env.self(), src, off, args.data() + 1,
                     (args.size() - 1) / 3);
        env.charge(3.0 * static_cast<double>((args.size() - 1) / 3));
    });
    hDeltasBulk_ = m.handlers().add([this, apply_deltas](
                                        msg::HandlerEnv &env) {
        const auto &args = env.msg().args;
        const int src = static_cast<int>(args[0] & 0xffff);
        apply_deltas(env.self(), src, 0, env.msg().body.data(),
                     env.msg().body.size() / 3);
        env.charge(3.0 * static_cast<double>(env.msg().body.size() / 3));
    });
}

void
Moldyn::setup(Machine &m, Mechanism mech)
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
Moldyn::program(proc::Ctx &ctx)
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

sim::SubTask<void>
Moldyn::smAccumulate(proc::Ctx &ctx, std::int32_t mol, const double d[3])
{
    const int p = sys_.owner(mol);
    const std::int32_t l = mol - sys_.firstOf[p];
    co_await ctx.lock(lockArr_.addr(p, 2 * l));
    for (int k = 0; k < 3; ++k) {
        const Addr fa = fArr_.addr(p, 4 * l + k);
        const double old = proc::Ctx::asDouble(co_await ctx.read(fa));
        co_await ctx.writeD(fa, old + d[k]);
    }
    co_await ctx.computeFlopsSP(3);
    co_await ctx.unlock(lockArr_.addr(p, 2 * l));
}

sim::Thread
Moldyn::programSm(proc::Ctx &ctx, bool prefetch)
{
    const int self = ctx.self();
    const std::int32_t first = sys_.firstOf[self];
    const std::int32_t count = sys_.numMoleculesOn(self);
    const auto &pairs = smPairs_[self];

    // Velocities stay processor-local even under shared memory.
    std::vector<double> v(3 * count);
    for (std::int32_t l = 0; l < count; ++l)
        for (int d = 0; d < 3; ++d)
            v[3 * l + d] = sys_.init[first + l].v[d];

    auto coordAddr = [this](std::int32_t mol, int d) {
        const int p = sys_.owner(mol);
        return xArr_.addr(p, 4 * (mol - sys_.firstOf[p]) + d);
    };

    // Molecules whose f is updated by more than one processor.
    std::vector<bool> contested(p_.box.molecules, false);
    for (int q = 0; q < ctx.nprocs(); ++q) {
        for (const SmPair &pr : smPairs_[q]) {
            if (sys_.owner(pr.other) != q)
                contested[pr.other] = true;
        }
    }

    for (int it = 0; it < p_.iters; ++it) {
        for (std::size_t k = 0; k < pairs.size(); ++k) {
            const SmPair &pr = pairs[k];
            if (prefetch && k + 2 < pairs.size()) {
                // One-ahead read prefetch of the partner coordinates
                // and write prefetch of its force-delta line.
                const SmPair &nx = pairs[k + 2];
                ctx.prefetchRead(coordAddr(nx.other, 0));
                ctx.prefetchRead(coordAddr(nx.other, 2));
                if (sys_.owner(nx.other) != self) {
                    const int pj = sys_.owner(nx.other);
                    ctx.prefetchWrite(fArr_.addr(
                        pj, 4 * (nx.other - sys_.firstOf[pj])));
                }
            }
            double xm[3], xo[3], d3[3];
            for (int d = 0; d < 3; ++d) {
                xm[d] = proc::Ctx::asDouble(
                    co_await ctx.read(coordAddr(pr.mine, d)));
                xo[d] = proc::Ctx::asDouble(
                    co_await ctx.read(coordAddr(pr.other, d)));
                // Antisymmetric law: orientation doesn't matter.
                d3[d] = kSpring * (xo[d] - xm[d]);
            }
            co_await ctx.compute(kPairOverheadCycles);
            co_await ctx.computeFlopsSP(kFlopsPerPair);

            // f_mine += d, f_other -= d.
            const std::int32_t lm = pr.mine - first;
            if (contested[pr.mine]) {
                co_await smAccumulate(ctx, pr.mine, d3);
            } else {
                for (int d = 0; d < 3; ++d) {
                    const Addr fa = fArr_.addr(self, 4 * lm + d);
                    const double old = proc::Ctx::asDouble(
                        co_await ctx.read(fa));
                    co_await ctx.writeD(fa, old + d3[d]);
                }
                co_await ctx.computeFlopsSP(3);
            }
            double neg[3] = {-d3[0], -d3[1], -d3[2]};
            if (sys_.owner(pr.other) == self && !contested[pr.other]) {
                const std::int32_t lo = pr.other - first;
                for (int d = 0; d < 3; ++d) {
                    const Addr fa = fArr_.addr(self, 4 * lo + d);
                    const double old = proc::Ctx::asDouble(
                        co_await ctx.read(fa));
                    co_await ctx.writeD(fa, old + neg[d]);
                }
                co_await ctx.computeFlopsSP(3);
            } else {
                co_await smAccumulate(ctx, pr.other, neg);
            }
        }
        co_await ctx.barrier();

        // Update phase: v += f dt; x += v dt; f = 0.
        for (std::int32_t l = 0; l < count; ++l) {
            co_await ctx.computeFlopsSP(kFlopsPerUpdate);
            for (int d = 0; d < 3; ++d) {
                const Addr fa = fArr_.addr(self, 4 * l + d);
                const Addr xa = xArr_.addr(self, 4 * l + d);
                const double f = proc::Ctx::asDouble(
                    co_await ctx.read(fa));
                const double x = proc::Ctx::asDouble(
                    co_await ctx.read(xa));
                v[3 * l + d] += f * kDt;
                co_await ctx.writeD(xa, x + v[3 * l + d] * kDt);
                co_await ctx.writeD(fa, 0.0);
            }
        }
        co_await ctx.barrier();
    }
    co_return;
}

// ---------------------------------------------------------------------
// Message passing
// ---------------------------------------------------------------------

sim::Thread
Moldyn::programMp(proc::Ctx &ctx, bool bulk)
{
    const int self = ctx.self();
    const int np = ctx.nprocs();
    const std::int32_t count = sys_.numMoleculesOn(self);
    auto &x = xLoc_[self];
    auto &v = vLoc_[self];
    auto &f = fLoc_[self];
    std::vector<std::uint64_t> body; // reused by every bulk send

    for (int it = 0; it < p_.iters; ++it) {
        // 1. Ship boundary coordinates to every computing neighbour.
        for (int q = 0; q < np; ++q) {
            const auto &items = sendList_[self][q];
            if (items.empty())
                continue;
            if (bulk) {
                body.clear();
                for (std::int32_t l : items) {
                    for (int d = 0; d < 3; ++d) {
                        body.push_back(std::bit_cast<std::uint64_t>(
                            x[3 * l + d]));
                    }
                }
                co_await ctx.chargeCopy(body.size());
                co_await ctx.sendBulk(
                    q, hCoordsBulk_,
                    msg::amArgs(static_cast<std::uint64_t>(self)), body);
            } else {
                // One molecule (3 doubles) per fine-grained message.
                for (std::size_t k = 0; k < items.size(); ++k) {
                    const double *xk = &x[3 * items[k]];
                    co_await ctx.send(
                        q, hCoords_,
                        msg::amArgs(static_cast<std::uint64_t>(self)
                                        | (static_cast<std::uint64_t>(k)
                                           << 16),
                                    std::bit_cast<std::uint64_t>(xk[0]),
                                    std::bit_cast<std::uint64_t>(xk[1]),
                                    std::bit_cast<std::uint64_t>(xk[2])));
                }
            }
        }

        // 2. Wait for every coordinate group we compute with.
        const std::int64_t want_coords =
            coordsExpected_[self] * static_cast<std::int64_t>(it + 1);
        co_await ctx.waitUntil(
            [this, self, want_coords]() {
                return coordsRecv_[self] >= want_coords;
            },
            TimeCat::Sync);

        // 3. Compute local pairs (with user-inserted poll points).
        int poll_gap = 0;
        for (const workload::Pair &pr : localPairs_[self]) {
            if (++poll_gap >= ctx.config().pollInsertionGap) {
                poll_gap = 0;
                co_await ctx.pollPoint();
            }
            const std::int32_t li = pr.i - sys_.firstOf[self];
            const std::int32_t lj = pr.j - sys_.firstOf[self];
            co_await ctx.compute(kPairOverheadCycles);
            co_await ctx.computeFlopsSP(kFlopsPerPair + 6);
            for (int d = 0; d < 3; ++d) {
                const double c =
                    kSpring * (x[3 * lj + d] - x[3 * li + d]);
                f[3 * li + d] += c;
                f[3 * lj + d] -= c;
            }
        }

        // 4. Compute cross groups and return deltas.
        for (int p = 0; p < np; ++p) {
            const auto &group = cross_[self][p];
            if (group.empty())
                continue;
            std::vector<double> delta(
                3 * sendList_[p][self].size(), 0.0);
            for (const CrossPair &cp : group) {
                if (++poll_gap >= 4) {
                    poll_gap = 0;
                    co_await ctx.pollPoint();
                }
                co_await ctx.compute(kPairOverheadCycles);
                co_await ctx.computeFlopsSP(kFlopsPerPair + 6);
                for (int d = 0; d < 3; ++d) {
                    // Sign convention: the ghost molecule belongs to p.
                    // Pair is (i, j) with i < j; our molecule may be
                    // either; force law is antisymmetric, so compute
                    // toward our molecule and negate for the ghost.
                    const double c =
                        kSpring * (ghostX_[self][3 * cp.ghost + d]
                                   - x[3 * cp.mine + d]);
                    f[3 * cp.mine + d] += c;
                    delta[3 * cp.remoteSlot + d] -= c;
                }
            }
            // Ship the accumulated deltas back.
            if (bulk) {
                body.clear();
                for (double dv : delta)
                    body.push_back(std::bit_cast<std::uint64_t>(dv));
                co_await ctx.chargeCopy(body.size());
                co_await ctx.sendBulk(
                    p, hDeltasBulk_,
                    msg::amArgs(static_cast<std::uint64_t>(self)), body);
            } else {
                for (std::size_t k = 0; k * 3 < delta.size(); ++k) {
                    const double *dk = &delta[3 * k];
                    co_await ctx.send(
                        p, hDeltas_,
                        msg::amArgs(static_cast<std::uint64_t>(self)
                                        | (static_cast<std::uint64_t>(k)
                                           << 16),
                                    std::bit_cast<std::uint64_t>(dk[0]),
                                    std::bit_cast<std::uint64_t>(dk[1]),
                                    std::bit_cast<std::uint64_t>(dk[2])));
                }
            }
        }

        // 5. Wait for our own returned deltas.
        const std::int64_t want_d =
            deltasExpected_[self] * static_cast<std::int64_t>(it + 1);
        co_await ctx.waitUntil(
            [this, self, want_d]() {
                return deltasRecv_[self] >= want_d;
            },
            TimeCat::Sync);

        // 6. Update phase.
        for (std::int32_t l = 0; l < count; ++l) {
            co_await ctx.computeFlopsSP(kFlopsPerUpdate);
            for (int d = 0; d < 3; ++d) {
                v[3 * l + d] += f[3 * l + d] * kDt;
                x[3 * l + d] += v[3 * l + d] * kDt;
                f[3 * l + d] = 0.0;
            }
        }
    }
    co_return;
}

double
Moldyn::checksum() const
{
    double sum = 0.0;
    if (core::isSharedMemory(mech_)) {
        for (std::int32_t i = 0; i < p_.box.molecules; ++i) {
            const int p = sys_.owner(i);
            const std::int32_t l = i - sys_.firstOf[p];
            for (int d = 0; d < 3; ++d) {
                sum += machine_->debugDouble(
                    xArr_.addr(p, 4 * l + d));
            }
        }
        return sum;
    }
    for (const auto &xs : xLoc_)
        for (double vv : xs)
            sum += vv;
    return sum;
}

} // namespace alewife::apps
