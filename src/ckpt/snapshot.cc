#include "ckpt/snapshot.hh"

#include <cinttypes>
#include <cstdio>

#include "sim/logging.hh"

namespace alewife::ckpt {

std::string
hexU64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

std::uint64_t
parseHexU64(const std::string &s)
{
    if (s.size() != 18 || s[0] != '0' || s[1] != 'x')
        ALEWIFE_FATAL("ckpt: malformed hex word '", s, "'");
    std::uint64_t v = 0;
    for (std::size_t i = 2; i < s.size(); ++i) {
        const char c = s[i];
        std::uint64_t nib;
        if (c >= '0' && c <= '9')
            nib = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            nib = static_cast<std::uint64_t>(c - 'a' + 10);
        else
            ALEWIFE_FATAL("ckpt: malformed hex word '", s, "'");
        v = (v << 4) | nib;
    }
    return v;
}

std::uint64_t
Snapshot::eventsExecuted() const
{
    return parseHexU64(doc.at("kernel").at("executed").asString());
}

Tick
Snapshot::now() const
{
    return parseHexU64(doc.at("kernel").at("now").asString());
}

const std::string &
Snapshot::configKey() const
{
    return doc.at("config").at("key").asString();
}

std::uint64_t
Snapshot::sectionDigest(const std::string &section) const
{
    return parseHexU64(doc.at("digests").at(section).asString());
}

} // namespace alewife::ckpt
