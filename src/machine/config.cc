#include "machine/config.hh"

#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace alewife {

double
MachineConfig::onewayLatencyCycles(std::uint32_t bytes, int hops) const
{
    if (idealNet)
        return idealNetLatencyCycles;
    return netFixedCycles() + hops * hopCycles()
           + static_cast<double>(bytes) / linkBytesPerCycle();
}

double
MachineConfig::averageHops() const
{
    // Mean Manhattan distance between two uniformly random distinct mesh
    // positions is (X^2-1)/(3X) + (Y^2-1)/(3Y) for an X-by-Y mesh; close
    // enough to the exact expectation for our purposes.
    auto dim = [](double n) { return (n * n - 1.0) / (3.0 * n); };
    return dim(meshX) + dim(meshY);
}

void
MachineConfig::validate() const
{
    if (meshX < 1 || meshY < 1)
        ALEWIFE_FATAL("mesh dimensions must be positive");
    if (procMhz <= 0.0)
        ALEWIFE_FATAL("procMhz must be positive");
    if (lineBytes % 8 != 0 || lineBytes == 0)
        ALEWIFE_FATAL("lineBytes must be a positive multiple of 8");
    if (cacheBytes % lineBytes != 0)
        ALEWIFE_FATAL("cacheBytes must be a multiple of lineBytes");
    // The cache is direct-mapped with cacheBytes / lineBytes sets. Check
    // the set count here, where the message can name the knob; the
    // cache allocates its storage only on its first fill.
    if (const std::uint32_t sets = cacheBytes / lineBytes;
        sets == 0 || (sets & (sets - 1)) != 0)
        ALEWIFE_FATAL("cacheBytes / lineBytes must be a power of two "
                      "(the set count); got ", cacheBytes, " / ",
                      lineBytes);
    if (!idealNet && linkMBps <= 0.0)
        ALEWIFE_FATAL("linkMBps must be positive");
    if (dirHwPointers < 1)
        ALEWIFE_FATAL("dirHwPointers must be at least 1");
    if (niInputQueueSlots < 1)
        ALEWIFE_FATAL("niInputQueueSlots must be at least 1");
    // The mesh polls a full NI every cyclesToTicks(niRetryCycles) ticks;
    // check the double before that conversion, which is undefined for
    // NaN and negative values. The event queue lays out its parked-poll
    // tables at 16 bytes per tick of that period, so the upper bound
    // keeps them to ~1.6 MB.
    if (!std::isfinite(niRetryCycles)
        || niRetryCycles * static_cast<double>(kTicksPerCycle) + 0.5 < 1.0)
        ALEWIFE_FATAL("niRetryCycles must be finite and round to at least "
                      "one tick (", kTicksPerCycle, " per cycle); got ",
                      niRetryCycles);
    if (niRetryCycles > kMaxNiRetryCycles)
        ALEWIFE_FATAL("niRetryCycles must be at most ", kMaxNiRetryCycles,
                      " cycles; got ", niRetryCycles);
}

std::string
MachineConfig::canonicalKey() const
{
    std::string out;
    out.reserve(1024);
    forEachConfigField(*this, [&](const char *name, const auto &v) {
        char buf[64];
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>)
            std::snprintf(buf, sizeof(buf), "%s=%.17g;", name, v);
        else // ints, sizes, and flags as 0/1
            std::snprintf(buf, sizeof(buf), "%s=%lld;", name,
                          static_cast<long long>(v));
        out += buf;
    });
    return out;
}

} // namespace alewife
