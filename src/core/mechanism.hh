/**
 * @file
 * The five communication mechanisms compared by the paper.
 */

#ifndef ALEWIFE_CORE_MECHANISM_HH
#define ALEWIFE_CORE_MECHANISM_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "msg/active_messages.hh"
#include "proc/sync.hh"

namespace alewife::core {

/** Communication mechanism / programming model of an application run. */
enum class Mechanism : std::uint8_t
{
    SharedMemory = 0,     ///< sequentially consistent shared memory
    SharedMemoryPrefetch, ///< + non-binding software prefetch
    MpInterrupt,          ///< active messages, interrupt delivery
    MpPolling,            ///< active messages, polled delivery
    BulkTransfer,         ///< DMA bulk transfer over active messages
    NumMechanisms
};

constexpr int kNumMechanisms =
    static_cast<int>(Mechanism::NumMechanisms);

/** All mechanisms, in the paper's presentation order. */
constexpr std::array<Mechanism, kNumMechanisms>
allMechanisms()
{
    return {Mechanism::SharedMemory, Mechanism::SharedMemoryPrefetch,
            Mechanism::MpInterrupt, Mechanism::MpPolling,
            Mechanism::BulkTransfer};
}

/** Short display name ("SM", "SM+PF", "MP-I", "MP-P", "BULK"). */
const char *mechanismShortName(Mechanism m);

/** Long display name. */
const char *mechanismName(Mechanism m);

/** True for the two shared-memory mechanisms. */
bool isSharedMemory(Mechanism m);

/** True when the variant issues software prefetches. */
bool usesPrefetch(Mechanism m);

/** Barrier/lock style the mechanism uses. */
proc::SyncStyle syncStyle(Mechanism m);

/** NI receive mode the mechanism uses. */
msg::RecvMode recvMode(Mechanism m);

/** Parse a short or long name; nullopt on unknown names (callers
 *  report their own errors). */
std::optional<Mechanism> mechanismFromName(const std::string &s);

} // namespace alewife::core

#endif // ALEWIFE_CORE_MECHANISM_HH
