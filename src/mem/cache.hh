/**
 * @file
 * Per-node direct-mapped data cache (Alewife: 64 KB, 16-byte lines).
 *
 * Only *shared* data goes through this cache in the simulation; private
 * data (loop indices, local buffers) is modelled as part of the compute
 * cost. Lines hold real data words; the coherence layer fills, recalls,
 * invalidates and downgrades them.
 *
 * Storage is flat: per-set metadata {tag, valid, state} plus one
 * numSets x wordsPerLine word array, so building or dropping a cache is
 * two allocations however many sets it has. Calls that hand words out
 * still return vectors.
 *
 * Storage is allocated on the first fill(). A machine builds one cache
 * per node per run, and a message-passing run never fills one, so such
 * a run pays neither the allocation nor the zeroing (64 KiB of metadata
 * and 64 KiB of words per node at the defaults). Until then every
 * lookup misses: contains()/state() answer absent, and invalidate() and
 * downgrade() return nothing. The constructor still checks the
 * geometry.
 */

#ifndef ALEWIFE_MEM_CACHE_HH
#define ALEWIFE_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/types.hh"

namespace alewife::check {
class Hooks;
}

namespace alewife::ckpt {
class Access;
}

namespace alewife::mem {

/** Cache-line coherence state (MSI; I is "not present"). */
enum class LineState : std::uint8_t
{
    Shared,
    Modified,
};

/**
 * A direct-mapped cache of 64-bit-word lines.
 */
class Cache
{
  public:
    /** What fell out of the cache when a new line was filled. */
    struct Victim
    {
        Addr lineAddr;
        bool dirty;
        std::vector<std::uint64_t> words;
    };

    Cache(std::uint32_t capacity_bytes, std::uint32_t line_bytes);

    /** True if the line containing @p a is present (any state). */
    bool contains(Addr a) const;

    /** State of the line containing @p a; nullopt if absent. */
    std::optional<LineState> state(Addr a) const;

    /** Read a word; line must be present. */
    std::uint64_t readWord(Addr a) const;

    /** Write a word; line must be present in Modified state. */
    void writeWord(Addr a, std::uint64_t v);

    /**
     * Install a line of exactly lineBytes()/8 @p words. Returns the
     * displaced dirty victim, if any (clean victims vanish silently).
     */
    std::optional<Victim> fill(Addr line_addr, LineState st,
                               const std::vector<std::uint64_t> &words);

    /**
     * Remove the line containing @p a.
     * @return its words if it was present and dirty (for writeback)
     */
    std::optional<std::vector<std::uint64_t>> invalidate(Addr a);

    /**
     * Downgrade Modified -> Shared; returns the line's words (the home
     * needs them for the writeback) or nullopt if not present/Modified.
     */
    std::optional<std::vector<std::uint64_t>> downgrade(Addr a);

    /** Upgrade Shared -> Modified in place (after a GETX completes). */
    void upgrade(Addr a);

    /** Copy of the line's words; line must be present. */
    std::vector<std::uint64_t> lineWords(Addr a) const;

    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint32_t numSets() const { return numSets_; }

    /**
     * Observer notified of fills/evicts/invalidates/state changes and
     * word accesses; may be null. @p node identifies this cache in the
     * observer's view.
     */
    void setAuditHooks(check::Hooks *hooks, NodeId node)
    {
        hooks_ = hooks;
        node_ = node;
    }

  private:
    /** Checkpoint capture/verify reads private state. */
    friend class alewife::ckpt::Access;

    /**
     * Per-set metadata; the set's words live in words_. Trivial, so
     * value-initializing the array zeroes it (every set invalid) in
     * one pass.
     */
    struct Line
    {
        Addr tag; ///< full line address, not just the tag bits
        bool valid;
        LineState st;
    };

    /** Allocate the (all invalid) sets; fill() calls it once. */
    void build();

    std::uint32_t setOf(Addr a) const;
    Addr lineBase(Addr a) const;
    const Line *find(Addr a) const;
    Line *find(Addr a);

    /** First of the words of the set whose metadata is @p l. */
    const std::uint64_t *
    wordsOf(const Line &l) const
    {
        return words_.get() + (&l - lines_.get()) * wordsPerLine_;
    }

    std::uint64_t *
    wordsOf(const Line &l)
    {
        return words_.get() + (&l - lines_.get()) * wordsPerLine_;
    }

    /** The words of the set whose metadata is @p l, as a vector. */
    std::vector<std::uint64_t>
    copyWords(const Line &l) const
    {
        return {wordsOf(l), wordsOf(l) + wordsPerLine_};
    }

    std::uint32_t lineBytes_;
    std::uint32_t numSets_;
    std::uint32_t wordsPerLine_;
    check::Hooks *hooks_ = nullptr;
    NodeId node_ = -1;
    /** numSets_ entries; null until the first fill(). */
    std::unique_ptr<Line[]> lines_;
    /** numSets_ x wordsPerLine_ words, set-major; built with lines_. */
    std::unique_ptr<std::uint64_t[]> words_;
};

} // namespace alewife::mem

#endif // ALEWIFE_MEM_CACHE_HH
