/**
 * @file
 * Small-buffer-optimized callback type for the event kernel.
 *
 * The simulator dispatches tens of millions of events per host
 * second, and almost every callback is a tiny lambda capturing a
 * `this` pointer or a couple of references. `std::function` is the
 * natural vocabulary type but its dispatch goes through two
 * indirections and its small-object buffer (16 bytes in libstdc++)
 * spills many of our real callbacks to the heap. SmallCallback keeps
 * a larger inline buffer, invokes through a single function pointer,
 * and only heap-allocates for captures that exceed the buffer.
 *
 * Callables that are trivially copyable and fit the buffer — which
 * is nearly every lambda in the simulation — carry no lifecycle
 * table at all: copy and move are a fixed-size memcpy and destroy is
 * a no-op, so shuffling such callbacks through the event queue costs
 * no indirect calls.
 *
 * Semantics match `std::function<void()>` where the simulator relies
 * on them: copyable, movable, empty-testable. Invoking an empty
 * SmallCallback is a no-op (a friendlier failure mode mid-simulation
 * than `std::bad_function_call`), and wrapping an empty
 * `std::function` or a null function pointer yields an empty
 * SmallCallback, so passing "no callback" through either vocabulary
 * type means the same thing.
 *
 * emplace() builds a callable directly in an existing SmallCallback,
 * with no temporary to move from. emplaceEmpty() does the same into
 * a callback known to be empty, without reading it first: the event
 * kernel builds each callback that way in a slot it keeps empty
 * while free, so a cold slot costs stores only.
 */

#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace corm::sim {

/**
 * A move/copy-able owning wrapper over any `void()` callable, with a
 * 48-byte inline buffer (six captured pointers) so common simulation
 * lambdas never touch the allocator.
 */
class SmallCallback
{
    /** Constraint for the converting constructor and emplace(). */
    template <typename F>
    using AcceptsCallable = std::enable_if_t<
        !std::is_same_v<std::decay_t<F>, SmallCallback> &&
        std::is_invocable_r_v<void, std::decay_t<F> &>>;

  public:
    /** Captures up to this many bytes are stored inline. */
    static constexpr std::size_t inlineSize = 48;

    SmallCallback() = default;

    template <typename F, typename = AcceptsCallable<F>>
    SmallCallback(F &&f)
    {
        construct(std::forward<F>(f));
    }

    SmallCallback(const SmallCallback &other)
        : call(other.call), ops(other.ops)
    {
        if (!call)
            return;
        if (ops)
            ops->copyTo(other.storage, storage);
        else
            std::memcpy(storage, other.storage, inlineSize);
    }

    SmallCallback(SmallCallback &&other) noexcept
        : call(other.call), ops(other.ops)
    {
        if (!call)
            return;
        if (ops)
            ops->relocate(other.storage, storage);
        else
            std::memcpy(storage, other.storage, inlineSize);
        other.call = nullptr;
        other.ops = nullptr;
    }

    SmallCallback &
    operator=(const SmallCallback &other)
    {
        if (this != &other) {
            SmallCallback tmp(other);
            *this = std::move(tmp);
        }
        return *this;
    }

    SmallCallback &
    operator=(SmallCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            call = other.call;
            ops = other.ops;
            if (call) {
                if (ops)
                    ops->relocate(other.storage, storage);
                else
                    std::memcpy(storage, other.storage, inlineSize);
                other.call = nullptr;
                other.ops = nullptr;
            }
        }
        return *this;
    }

    ~SmallCallback() { reset(); }

    /** Invoke the callable; empty callbacks are a no-op. */
    void
    operator()()
    {
        if (call)
            call(storage);
    }

    /** True if a callable is held. */
    explicit operator bool() const { return call != nullptr; }

    /** Drop the held callable (if any). */
    void
    reset()
    {
        if (ops) {
            ops->destroy(storage);
            ops = nullptr;
        }
        call = nullptr;
    }

    /**
     * Replace the held callable with one constructed in place from
     * @p f: the same result as assigning SmallCallback(f), without
     * the temporary.
     */
    template <typename F, typename = AcceptsCallable<F>>
    void
    emplace(F &&f)
    {
        reset();
        construct(std::forward<F>(f));
    }

    /**
     * emplace() for a callback that is empty: the old state is never
     * read, only written. Requires !*this (an empty callback holds
     * null call and ops, which construct() relies on for the fields
     * it leaves unwritten).
     */
    template <typename F, typename = AcceptsCallable<F>>
    void
    emplaceEmpty(F &&f)
    {
        construct(std::forward<F>(f));
    }

  private:
    template <typename T>
    struct IsStdFunction : std::false_type
    {};
    template <typename Sig>
    struct IsStdFunction<std::function<Sig>> : std::true_type
    {};

    /** Build @p f into this (empty) callback. */
    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (std::is_pointer_v<Fn>) {
            const Fn fn = f;
            if (fn == nullptr)
                return;
        } else if constexpr (IsStdFunction<Fn>::value) {
            if (!f)
                return;
        }
        if constexpr (isTrivial<Fn>()) {
            // Zero the tail once so the whole-buffer memcpy in
            // copy/move never reads indeterminate bytes.
            if constexpr (sizeof(Fn) < inlineSize)
                std::memset(storage + sizeof(Fn), 0,
                            inlineSize - sizeof(Fn));
            ::new (static_cast<void *>(storage)) Fn(std::forward<F>(f));
            // ops stays null: memcpy moves, no-op destroy.
        } else if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(storage)) Fn(std::forward<F>(f));
            ops = &Manager<Fn>::opsTable;
        } else {
            *reinterpret_cast<Fn **>(storage) =
                new Fn(std::forward<F>(f));
            ops = &Manager<Fn>::opsTable;
        }
        call = &Manager<Fn>::invoke;
    }

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= inlineSize &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    /** Inline + trivially copyable: no lifecycle table needed. */
    template <typename Fn>
    static constexpr bool
    isTrivial()
    {
        return fitsInline<Fn>() && std::is_trivially_copyable_v<Fn>;
    }

    /** Type-erased lifecycle operations (one static table per Fn). */
    struct Ops
    {
        /** Copy-construct a clone of @p src into @p dst storage. */
        void (*copyTo)(const void *src, void *dst);
        /** Move @p src into @p dst storage and destroy @p src. */
        void (*relocate)(void *src, void *dst) noexcept;
        /** Destroy the callable held in @p obj storage. */
        void (*destroy)(void *obj) noexcept;
    };

    template <typename Fn>
    struct Manager
    {
        static Fn *
        get(void *storage)
        {
            if constexpr (fitsInline<Fn>())
                return std::launder(reinterpret_cast<Fn *>(storage));
            else
                return *reinterpret_cast<Fn **>(storage);
        }

        static void
        invoke(void *storage)
        {
            (*get(storage))();
        }

        static void
        copyTo(const void *src, void *dst)
        {
            if constexpr (fitsInline<Fn>()) {
                ::new (dst) Fn(*std::launder(
                    reinterpret_cast<const Fn *>(src)));
            } else {
                *reinterpret_cast<Fn **>(dst) =
                    new Fn(**reinterpret_cast<Fn *const *>(src));
            }
        }

        static void
        relocate(void *src, void *dst) noexcept
        {
            if constexpr (fitsInline<Fn>()) {
                Fn *self = get(src);
                ::new (dst) Fn(std::move(*self));
                self->~Fn();
            } else {
                *reinterpret_cast<Fn **>(dst) =
                    *reinterpret_cast<Fn **>(src);
            }
        }

        static void
        destroy(void *obj) noexcept
        {
            if constexpr (fitsInline<Fn>())
                get(obj)->~Fn();
            else
                delete get(obj);
        }

        static constexpr Ops opsTable{&copyTo, &relocate, &destroy};
    };

    using Invoke = void (*)(void *);

    Invoke call = nullptr;
    const Ops *ops = nullptr;
    alignas(std::max_align_t) unsigned char storage[inlineSize];
};

} // namespace corm::sim
