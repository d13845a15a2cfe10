#include "core/mechanism.hh"

namespace alewife::core {

const char *
mechanismShortName(Mechanism m)
{
    switch (m) {
      case Mechanism::SharedMemory: return "SM";
      case Mechanism::SharedMemoryPrefetch: return "SM+PF";
      case Mechanism::MpInterrupt: return "MP-I";
      case Mechanism::MpPolling: return "MP-P";
      case Mechanism::BulkTransfer: return "BULK";
      default: return "?";
    }
}

const char *
mechanismName(Mechanism m)
{
    switch (m) {
      case Mechanism::SharedMemory: return "shared-memory";
      case Mechanism::SharedMemoryPrefetch: return "shared-memory+prefetch";
      case Mechanism::MpInterrupt: return "message-passing-interrupt";
      case Mechanism::MpPolling: return "message-passing-polling";
      case Mechanism::BulkTransfer: return "bulk-transfer-dma";
      default: return "?";
    }
}

bool
isSharedMemory(Mechanism m)
{
    return m == Mechanism::SharedMemory
           || m == Mechanism::SharedMemoryPrefetch;
}

bool
usesPrefetch(Mechanism m)
{
    return m == Mechanism::SharedMemoryPrefetch;
}

proc::SyncStyle
syncStyle(Mechanism m)
{
    return isSharedMemory(m) ? proc::SyncStyle::SharedMemory
                             : proc::SyncStyle::MessagePassing;
}

msg::RecvMode
recvMode(Mechanism m)
{
    // Polling only for the explicit polling variant; bulk transfer on
    // Alewife received via interrupts.
    return m == Mechanism::MpPolling ? msg::RecvMode::Polling
                                     : msg::RecvMode::Interrupt;
}

std::optional<Mechanism>
mechanismFromName(const std::string &s)
{
    for (Mechanism m : allMechanisms()) {
        if (s == mechanismShortName(m) || s == mechanismName(m))
            return m;
    }
    return std::nullopt;
}

} // namespace alewife::core
