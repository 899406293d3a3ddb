/**
 * @file
 * C++20 coroutine task type used to express simulated threads.
 *
 * Workload and runtime code is written as straight-line coroutines that
 * co_await memory operations and delays; the event queue resumes them
 * when the simulated latency has elapsed. Tasks are lazily started,
 * awaitable (with symmetric transfer to the awaiter on completion), and
 * propagate exceptions — which the runtime uses to unwind a thread out
 * of an aborted transaction (TxAborted).
 */

#ifndef HMTX_SIM_TASK_HH
#define HMTX_SIM_TASK_HH

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <utility>
#include <vector>

namespace hmtx::sim
{

/**
 * Thrown out of a memory operation when the surrounding multithreaded
 * transaction has aborted; the executor catches it at the stage root
 * and runs recovery (the initMTX handler analog, §3.1).
 */
struct TxAborted
{
    /** VID whose abort unwound this thread (0 if a global abort). */
    unsigned vid = 0;
};

template <typename T = void>
class Task;

namespace detail
{

/**
 * Size-bucketed recycler for coroutine frames. Short-lived Tasks (SMTX
 * barriered accesses, queue produce/consume, workload helpers) would
 * otherwise hit the global heap twice (allocate + free) — millions of
 * times per run.
 * Freed frames are kept in per-size free lists and handed back to the
 * next coroutine of the same size. The pool is per-thread and only
 * ever as large as the peak number of simultaneously live frames.
 *
 * Thread convention: a frame's storage comes from ::operator new, so
 * releasing it into a *different* thread's free list is safe — the
 * block is simply recycled (and eventually deleted) by that thread.
 * Host threads that run whole simulations side by side each keep
 * their own pool.
 */
class FramePool
{
  public:
    static void*
    allocate(std::size_t n)
    {
        const std::size_t b = bucket(n);
        if (b < kBuckets) {
            auto& fl = lists()[b];
            if (!fl.empty()) {
                void* p = fl.back();
                fl.pop_back();
                return p;
            }
            return ::operator new((b + 1) * kGrain);
        }
        return ::operator new(n);
    }

    static void
    release(void* p, std::size_t n) noexcept
    {
        const std::size_t b = bucket(n);
        if (b < kBuckets) {
            // vector growth can throw; a frame is dropped to the heap
            // rather than propagating from a noexcept delete.
            try {
                lists()[b].push_back(p);
                return;
            } catch (...) {
            }
        }
        ::operator delete(p);
    }

  private:
    static constexpr std::size_t kGrain = 64;
    static constexpr std::size_t kBuckets = 64; // frames up to 4 KiB

    static std::size_t bucket(std::size_t n) { return (n - 1) / kGrain; }

    static std::vector<void*>*
    lists()
    {
        // The destructor returns pooled blocks to the heap at thread
        // exit; a bare vector would free only its own buffer and leak
        // every recycled frame it still holds.
        struct Lists
        {
            std::vector<void*> fl[kBuckets];

            ~Lists()
            {
                for (auto& l : fl)
                    for (void* p : l)
                        ::operator delete(p);
            }
        };
        thread_local Lists l;
        return l.fl;
    }
};

struct FinalAwaiter
{
    bool await_ready() const noexcept { return false; }

    template <typename P>
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<P> h) noexcept
    {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
    }

    void await_resume() const noexcept {}
};

struct PromiseBase
{
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;

    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { exception = std::current_exception(); }

    // Route coroutine frames through the recycler.
    static void* operator new(std::size_t n)
    {
        return FramePool::allocate(n);
    }

    static void operator delete(void* p, std::size_t n) noexcept
    {
        FramePool::release(p, n);
    }
};

} // namespace detail

/**
 * A lazily started coroutine returning T.
 *
 * Ownership: the Task object owns the coroutine frame and destroys it;
 * a Task must stay alive until the coroutine completes (the runtime
 * keeps root tasks in the Machine until the event queue drains).
 */
template <typename T>
class Task
{
  public:
    struct promise_type : detail::PromiseBase
    {
        T value{};

        Task
        get_return_object()
        {
            return Task{Handle::from_promise(*this)};
        }

        void return_value(T v) { value = std::move(v); }
    };

    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}
    Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}

    Task&
    operator=(Task&& o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, {});
        }
        return *this;
    }

    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;
    ~Task() { destroy(); }

    /** True once the coroutine has run to completion. */
    bool done() const { return !handle_ || handle_.done(); }

    /** Starts a root task (runs until its first suspension). */
    void
    start()
    {
        assert(handle_ && !handle_.done());
        handle_.resume();
    }

    /** Rethrows a root task's stored exception, if any. */
    void
    rethrow()
    {
        if (handle_ && handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
    }

    // Awaitable interface: awaiting a Task starts it and resumes the
    // awaiter when it completes.
    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_;
    }

    T
    await_resume()
    {
        if (handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
        return std::move(handle_.promise().value);
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = {};
        }
    }

    Handle handle_;
};

/** Specialization for coroutines that return nothing. */
template <>
class Task<void>
{
  public:
    struct promise_type : detail::PromiseBase
    {
        Task
        get_return_object()
        {
            return Task{Handle::from_promise(*this)};
        }

        void return_void() {}
    };

    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}
    Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}

    Task&
    operator=(Task&& o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, {});
        }
        return *this;
    }

    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;
    ~Task() { destroy(); }

    bool done() const { return !handle_ || handle_.done(); }

    void
    start()
    {
        assert(handle_ && !handle_.done());
        handle_.resume();
    }

    void
    rethrow()
    {
        if (handle_ && handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
    }

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_;
    }

    void
    await_resume()
    {
        if (handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = {};
        }
    }

    Handle handle_;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_TASK_HH
