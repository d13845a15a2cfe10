#include "mem/cache.hh"

#include <algorithm>

#include "check/hooks.hh"
#include "sim/logging.hh"

namespace alewife::mem {

Cache::Cache(std::uint32_t capacity_bytes, std::uint32_t line_bytes)
    : lineBytes_(line_bytes), numSets_(capacity_bytes / line_bytes),
      wordsPerLine_(line_bytes / 8)
{
    if (numSets_ == 0 || (numSets_ & (numSets_ - 1)) != 0)
        ALEWIFE_FATAL("cache must have a power-of-two number of sets");
}

void
Cache::build()
{
    lines_ = std::make_unique<Line[]>(numSets_);
    words_ = std::make_unique<std::uint64_t[]>(
        static_cast<std::size_t>(numSets_) * wordsPerLine_);
}

Addr
Cache::lineBase(Addr a) const
{
    return a & ~static_cast<Addr>(lineBytes_ - 1);
}

std::uint32_t
Cache::setOf(Addr a) const
{
    return static_cast<std::uint32_t>((a / lineBytes_) & (numSets_ - 1));
}

const Cache::Line *
Cache::find(Addr a) const
{
    if (!lines_)
        return nullptr;
    const Line &l = lines_[setOf(a)];
    if (l.valid && l.tag == lineBase(a))
        return &l;
    return nullptr;
}

Cache::Line *
Cache::find(Addr a)
{
    if (!lines_)
        return nullptr;
    Line &l = lines_[setOf(a)];
    if (l.valid && l.tag == lineBase(a))
        return &l;
    return nullptr;
}

bool
Cache::contains(Addr a) const
{
    return find(a) != nullptr;
}

std::optional<LineState>
Cache::state(Addr a) const
{
    const Line *l = find(a);
    if (!l)
        return std::nullopt;
    return l->st;
}

std::uint64_t
Cache::readWord(Addr a) const
{
    const Line *l = find(a);
    if (!l)
        ALEWIFE_PANIC("readWord on absent line ", a);
    const std::uint64_t v = wordsOf(*l)[(a - l->tag) / 8];
    if (hooks_)
        hooks_->onCacheRead(node_, a, v);
    return v;
}

void
Cache::writeWord(Addr a, std::uint64_t v)
{
    Line *l = find(a);
    if (!l)
        ALEWIFE_PANIC("writeWord on absent line ", a);
    if (l->st != LineState::Modified)
        ALEWIFE_PANIC("writeWord on non-Modified line ", a);
    wordsOf(*l)[(a - l->tag) / 8] = v;
    if (hooks_)
        hooks_->onCacheWrite(node_, a, v);
}

std::optional<Cache::Victim>
Cache::fill(Addr line_addr, LineState st,
            const std::vector<std::uint64_t> &words)
{
    if (line_addr != lineBase(line_addr))
        ALEWIFE_PANIC("fill with unaligned line address");
    if (words.size() != wordsPerLine_)
        ALEWIFE_PANIC("fill with ", words.size(), " words into a ",
                      wordsPerLine_, "-word line");
    if (!lines_) [[unlikely]]
        build();
    Line &l = lines_[setOf(line_addr)];
    std::optional<Victim> victim;
    if (l.valid && l.tag != line_addr) {
        if (hooks_)
            hooks_->onCacheEvict(node_, l.tag,
                                 l.st == LineState::Modified);
        if (l.st == LineState::Modified)
            victim = Victim{l.tag, true, copyWords(l)};
    }
    l.valid = true;
    l.tag = line_addr;
    l.st = st;
    std::copy(words.begin(), words.end(), wordsOf(l));
    if (hooks_)
        hooks_->onCacheFill(node_, line_addr, st, words);
    return victim;
}

std::optional<std::vector<std::uint64_t>>
Cache::invalidate(Addr a)
{
    Line *l = find(a);
    if (!l)
        return std::nullopt;
    l->valid = false;
    if (hooks_)
        hooks_->onCacheInvalidate(node_, l->tag,
                                  l->st == LineState::Modified);
    if (l->st == LineState::Modified)
        return copyWords(*l);
    return std::nullopt;
}

std::optional<std::vector<std::uint64_t>>
Cache::downgrade(Addr a)
{
    Line *l = find(a);
    if (!l || l->st != LineState::Modified)
        return std::nullopt;
    l->st = LineState::Shared;
    if (hooks_)
        hooks_->onCacheDowngrade(node_, l->tag);
    return copyWords(*l); // the line stays resident
}

void
Cache::upgrade(Addr a)
{
    Line *l = find(a);
    if (!l)
        ALEWIFE_PANIC("upgrade on absent line ", a);
    l->st = LineState::Modified;
    if (hooks_)
        hooks_->onCacheUpgrade(node_, l->tag);
}

std::vector<std::uint64_t>
Cache::lineWords(Addr a) const
{
    const Line *l = find(a);
    if (!l)
        ALEWIFE_PANIC("lineWords on absent line ", a);
    return copyWords(*l);
}

} // namespace alewife::mem
