/**
 * @file
 * Open-addressing hash table keyed by 64-bit integers.
 *
 * The fabric's per-hop tables (open aggregation buckets, wire
 * flights, the link index) see an insert and an erase per fold window
 * or wire attempt. A node-based std::map allocates and frees a node
 * for each; FlatTable keeps its slots in one power-of-two array with
 * linear probing and backward-shift deletion (no tombstones), so once
 * it has grown to the working-set size it never allocates again.
 *
 * Iteration order is unspecified. Callers that need a deterministic
 * order collect the keys and sort them. Pointers and references into
 * the table are invalidated by any insert or erase.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace corm::coord {

template <typename V>
class FlatTable
{
  public:
    std::size_t size() const { return count_; }

    /** Value under @p key, or null. */
    V *
    find(std::uint64_t key)
    {
        const std::size_t i = slotOf(key);
        return i == npos ? nullptr : &slots_[i].value;
    }

    bool contains(std::uint64_t key) const { return slotOf(key) != npos; }

    /**
     * Value under @p key, default-constructed and inserted when
     * absent; the flag says whether it was inserted.
     */
    std::pair<V &, bool>
    tryEmplace(std::uint64_t key)
    {
        if (const std::size_t i = slotOf(key); i != npos)
            return {slots_[i].value, false};
        if ((count_ + 1) * 2 > slots_.size())
            rehash(slots_.empty() ? 16 : slots_.size() * 2);
        std::size_t i = home(key);
        while (slots_[i].used)
            i = (i + 1) & mask();
        slots_[i].used = true;
        slots_[i].key = key;
        ++count_;
        return {slots_[i].value, true};
    }

    /** Move the value under @p key into @p out and erase it; false
     *  (and @p out untouched) when absent. */
    bool
    take(std::uint64_t key, V &out)
    {
        const std::size_t i = slotOf(key);
        if (i == npos)
            return false;
        out = std::move(slots_[i].value);
        eraseSlot(i);
        return true;
    }

    /** Erase @p key; false when absent. */
    bool
    erase(std::uint64_t key)
    {
        const std::size_t i = slotOf(key);
        if (i == npos)
            return false;
        eraseSlot(i);
        return true;
    }

    /** Visit every (key, value) in unspecified order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (Slot &s : slots_)
            if (s.used)
                fn(s.key, s.value);
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        V value{};
        bool used = false;
    };

    static constexpr std::size_t npos = ~std::size_t{0};

    std::size_t mask() const { return slots_.size() - 1; }

    /** Fibonacci hashing: the product's top bits index the slots. */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL)
                                        >> shift_);
    }

    std::size_t
    slotOf(std::uint64_t key) const
    {
        if (count_ == 0)
            return npos;
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            if (!slots_[i].used)
                return npos;
            if (slots_[i].key == key)
                return i;
        }
    }

    /**
     * Backward-shift deletion: pull every later entry of the probe
     * run whose home lies at or before the hole into it, so lookups
     * never need tombstones.
     */
    void
    eraseSlot(std::size_t hole)
    {
        for (std::size_t j = (hole + 1) & mask(); slots_[j].used;
             j = (j + 1) & mask()) {
            const std::size_t h = home(slots_[j].key);
            if (((j - h) & mask()) >= ((j - hole) & mask())) {
                slots_[hole].key = slots_[j].key;
                slots_[hole].value = std::move(slots_[j].value);
                hole = j;
            }
        }
        slots_[hole].used = false;
        slots_[hole].value = V{};
        --count_;
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old(capacity);
        old.swap(slots_);
        shift_ = 64;
        for (std::size_t c = capacity; c > 1; c >>= 1)
            --shift_;
        for (Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].used)
                i = (i + 1) & mask();
            slots_[i].used = true;
            slots_[i].key = s.key;
            slots_[i].value = std::move(s.value);
        }
    }

    std::vector<Slot> slots_;
    std::size_t count_ = 0;
    unsigned shift_ = 64;
};

} // namespace corm::coord
