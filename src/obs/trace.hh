/**
 * @file
 * Flight-recorder span tracer for the sweep/rollout pipeline.
 *
 * The μSKU tool only earns trust at scale if every A/B comparison,
 * retry, validation chunk, and rollout wave leaves a machine-readable
 * record of what happened and where the wall clock went — the same
 * role EMON collection and the ODS store play for the paper's fleet.
 * A ScopedSpan records both:
 *
 *   - wall-clock start/duration (steady_clock), for profiling; and
 *   - deterministic annotations (sim-time, sample counts, comparison
 *     keys) plus a deterministic *path*, for audit.
 *
 * Determinism contract: the PR 1/2 guarantee — reports byte-identical
 * at any --jobs for a fixed seed+plan — extends to the trace's
 * *logical* content.  Spans are buffered per thread and merged at
 * flush by sorting on their paths, which derive only from deterministic
 * data (batch ordinals, slot indices, chunk numbers), never from
 * scheduling.  sortedSpans() / deterministicSummary() are therefore
 * identical for 1, 2, or 8 worker threads; only the wall-clock fields
 * (ts/dur in the Chrome export) differ between runs.
 *
 * Path discipline:
 *   - Spans created on worker threads pass an explicit root path
 *     ({phase, batch, slot}-style) so their order never depends on
 *     which worker ran them.
 *   - Spans created while another span is live on the same thread
 *     (the common single-threaded case) inherit the parent's path plus
 *     a per-parent child ordinal — deterministic because one task runs
 *     its children serially.
 *
 * The tracer is process-global and disabled by default; when disabled
 * every ScopedSpan is a no-op (one relaxed atomic load, no clock
 * read), so instrumentation stays in release builds.  Export is Chrome
 * trace_event JSON, loadable in chrome://tracing and Perfetto.
 */

#ifndef SOFTSKU_OBS_TRACE_HH
#define SOFTSKU_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace softsku {

class Json;

/** Root-path phase prefixes keeping subsystems apart (and ordered). */
constexpr std::uint64_t kTraceUsku = 0;      //!< the tool's main thread
constexpr std::uint64_t kTraceSweep = 1;     //!< A/B comparison tasks
constexpr std::uint64_t kTraceValidate = 2;  //!< prolonged-validation chunks
constexpr std::uint64_t kTraceRollout = 3;   //!< fleet rollout machinery
constexpr std::uint64_t kTraceOrphan = 9;    //!< no parent, no explicit path

/** One finished span, as stored in the per-thread buffers. */
struct SpanRecord
{
    /** Chrome trace_event phase this record maps to. */
    enum class Kind
    {
        Span,     //!< complete event (ph "X")
        Instant,  //!< instant event (ph "i"): faults, cache hits
        Counter,  //!< counter sample (ph "C"): rates over time
    };

    Kind kind = Kind::Span;
    std::string name;
    std::string category;
    /** Deterministic sort key: run tag + explicit/inherited ordinals. */
    std::vector<std::uint64_t> path;
    /** Deterministic annotations (key order = annotation order). */
    std::vector<std::pair<std::string, std::string>> args;
    /** Wall clock, microseconds since the tracer epoch. */
    double wallStartUs = 0.0;
    double wallDurUs = 0.0;
    /** Counter records: the sampled value (usually cumulative). */
    double counterValue = 0.0;
    /** Small per-thread id for the Chrome export's tid field. */
    int tid = 0;

    /** "0.1.3 cat name k=v k=v" — everything except wall clock. */
    std::string deterministicLine() const;
};

/** The process-global span collector. */
class Tracer
{
  public:
    static Tracer &global();

    /** Arm span recording (sets the wall-clock epoch on first call). */
    void enable();
    void disable();
    static bool enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Drop every recorded span (buffers stay registered). */
    void clear();

    /**
     * Tag prepended to every subsequently created root span's path.
     * Lets one process hold several runs (e.g. a bench tuning the same
     * target serially and in parallel) without path collisions.  Set
     * it from one thread, between runs.
     */
    void setRunTag(std::uint64_t tag)
    {
        runTag_.store(tag, std::memory_order_relaxed);
    }
    std::uint64_t runTag() const
    {
        return runTag_.load(std::memory_order_relaxed);
    }

    /**
     * The run tag new root spans on *this thread* will use: the
     * thread-local override installed by TraceTagScope when one is
     * active, the process-global tag otherwise.  Concurrent μSKU runs
     * (the fleet orchestrator) each scope their own tag so their span
     * paths never collide, without touching the global tag.
     */
    static std::uint64_t currentRunTag();

    /** All spans from all threads, merged and path-sorted. */
    std::vector<SpanRecord> sortedSpans() const;

    /**
     * The deterministic view: one deterministicLine() per span, in
     * path-sorted order.  Byte-identical across thread counts for a
     * fixed seed+plan — this is what the tests golden against.
     */
    std::string deterministicSummary() const;

    /** Chrome trace_event document ({"traceEvents": [...]}). */
    Json chromeTrace() const;

    /** Serialize chromeTrace() to @p path (atomically replaced) and
     *  log the outcome; false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

    /** Number of spans currently recorded. */
    std::size_t spanCount() const;

  private:
    friend class ScopedSpan;
    friend void traceInstant(const char *category, const char *name);
    friend void traceCounter(const char *category, const char *name,
                             double value);

    struct ThreadBuffer
    {
        std::mutex mutex;
        std::vector<SpanRecord> records;
        int tid = 0;
    };

    Tracer() = default;

    /** This thread's buffer, registering it on first use. */
    ThreadBuffer &threadBuffer();
    void append(SpanRecord &&record);
    double nowUs() const;

    static std::atomic<bool> enabled_;
    std::atomic<std::uint64_t> runTag_{0};
    mutable std::mutex mutex_;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
    /** Wall-clock epoch (steady_clock seconds), set at first enable. */
    double epochSec_ = 0.0;
    bool epochSet_ = false;
};

/**
 * RAII span: constructed where the work starts, annotated along the
 * way, committed to the tracer at scope exit.  Non-copyable; create on
 * the stack.  All methods are no-ops while tracing is disabled.
 */
class ScopedSpan
{
  public:
    /**
     * A child span: inherits the innermost live span's path on this
     * thread plus a per-parent ordinal.  Without a live parent the
     * span files under kTraceOrphan with a per-thread sequence — fine
     * for single-threaded use, but worker-thread instrumentation
     * should use the explicit-root constructor instead.
     */
    ScopedSpan(const char *category, std::string name);

    /**
     * A root span with an explicit deterministic path (the run tag is
     * prepended automatically).  Use this on worker threads, where the
     * thread-local parent chain says nothing about logical order.
     */
    ScopedSpan(const char *category, std::string name,
               std::initializer_list<std::uint64_t> rootPath);

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan();

    /** Deterministic annotations.  Doubles use "%.9g" so the summary
     *  is byte-stable; never annotate wall-clock values. */
    void arg(const char *key, const std::string &value);
    void arg(const char *key, const char *value);
    void arg(const char *key, std::uint64_t value);
    void arg(const char *key, long long value);
    void arg(const char *key, double value);
    void arg(const char *key, bool value);

    bool active() const { return active_; }

  private:
    friend void traceInstant(const char *category, const char *name);
    friend void traceCounter(const char *category, const char *name,
                             double value);

    void open(const char *category, std::string name);

    bool active_ = false;
    ScopedSpan *parent_ = nullptr;
    std::uint64_t children_ = 0;
    SpanRecord record_;
};

/**
 * RAII thread-local run-tag override.  While alive, every root span
 * created on this thread files under @p tag instead of the tracer's
 * global tag.  Worker tasks that may run on any pool thread (the sweep
 * engine, validation chunks) re-establish their driver's tag with one
 * of these, so several μSKU runs can share one thread pool without
 * their trace paths interleaving.  A tag of 0 installs no override.
 */
class TraceTagScope
{
  public:
    explicit TraceTagScope(std::uint64_t tag);
    TraceTagScope(const TraceTagScope &) = delete;
    TraceTagScope &operator=(const TraceTagScope &) = delete;
    ~TraceTagScope();

  private:
    bool installed_ = false;
    bool hadPrevious_ = false;
    std::uint64_t previous_ = 0;
};

/**
 * Record one instant event (Chrome ph "i"): a point in time with no
 * duration — a fault injection, a cache hit, a rollback.  Takes the
 * innermost live span's path on this thread (plus a child ordinal), so
 * emit it where a deterministic span is live.  No-op while disabled.
 */
void traceInstant(const char *category, const char *name);

/**
 * Record one counter sample (Chrome ph "C"): Perfetto graphs the
 * series of samples with the same @p name over wall time.  Pass the
 * *cumulative* value so the graph's slope is the rate.  Pathing as
 * traceInstant.  No-op while disabled.
 */
void traceCounter(const char *category, const char *name, double value);

} // namespace softsku

#endif // SOFTSKU_OBS_TRACE_HH
