#include "obs/trace.hh"

#include <algorithm>
#include <chrono>

#include "util/file.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace softsku {

namespace {

/** Innermost live span on this thread (nullptr outside any span). */
thread_local ScopedSpan *tlCurrent = nullptr;

/** Ordinal for parentless child-constructed spans on this thread. */
thread_local std::uint64_t tlOrphanSeq = 0;

/** Thread-local run-tag override (TraceTagScope). */
thread_local bool tlTagSet = false;
thread_local std::uint64_t tlTag = 0;

double
steadySec()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

} // namespace

std::atomic<bool> Tracer::enabled_{false};

std::string
SpanRecord::deterministicLine() const
{
    std::string line;
    for (size_t i = 0; i < path.size(); ++i) {
        if (i)
            line += '.';
        line += format("%llu", static_cast<unsigned long long>(path[i]));
    }
    line += ' ';
    line += category;
    line += ' ';
    line += name;
    for (const auto &[key, value] : args) {
        line += ' ';
        line += key;
        line += '=';
        line += value;
    }
    return line;
}

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

std::uint64_t
Tracer::currentRunTag()
{
    return tlTagSet ? tlTag : global().runTag();
}

TraceTagScope::TraceTagScope(std::uint64_t tag)
{
    if (tag == 0)
        return;
    installed_ = true;
    hadPrevious_ = tlTagSet;
    previous_ = tlTag;
    tlTagSet = true;
    tlTag = tag;
}

TraceTagScope::~TraceTagScope()
{
    if (!installed_)
        return;
    tlTagSet = hadPrevious_;
    tlTag = previous_;
}

void
Tracer::enable()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!epochSet_) {
        epochSec_ = steadySec();
        epochSet_ = true;
    }
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &buffer : buffers_) {
        std::lock_guard<std::mutex> bufferLock(buffer->mutex);
        buffer->records.clear();
    }
}

double
Tracer::nowUs() const
{
    return (steadySec() - epochSec_) * 1e6;
}

Tracer::ThreadBuffer &
Tracer::threadBuffer()
{
    // The thread_local shared_ptr keeps the buffer alive for this
    // thread; the registry keeps it alive for flush-after-exit.
    thread_local std::shared_ptr<ThreadBuffer> buffer;
    if (!buffer) {
        buffer = std::make_shared<ThreadBuffer>();
        std::lock_guard<std::mutex> lock(mutex_);
        buffer->tid = static_cast<int>(buffers_.size()) + 1;
        buffers_.push_back(buffer);
    }
    return *buffer;
}

void
Tracer::append(SpanRecord &&record)
{
    ThreadBuffer &buffer = threadBuffer();
    record.tid = buffer.tid;
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.records.push_back(std::move(record));
}

std::vector<SpanRecord>
Tracer::sortedSpans() const
{
    std::vector<SpanRecord> all;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_) {
            std::lock_guard<std::mutex> bufferLock(buffer->mutex);
            all.insert(all.end(), buffer->records.begin(),
                       buffer->records.end());
        }
    }
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  if (a.path != b.path)
                      return a.path < b.path;
                  if (a.name != b.name)
                      return a.name < b.name;
                  if (a.args != b.args)
                      return a.args < b.args;
                  // Identical logical spans: fall back to wall clock;
                  // instrumentation sites keep paths unique so this
                  // tie-break never decides the deterministic summary.
                  return a.wallStartUs < b.wallStartUs;
              });
    return all;
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto &buffer : buffers_) {
        std::lock_guard<std::mutex> bufferLock(buffer->mutex);
        n += buffer->records.size();
    }
    return n;
}

std::string
Tracer::deterministicSummary() const
{
    std::string out;
    for (const SpanRecord &record : sortedSpans()) {
        out += record.deterministicLine();
        out += '\n';
    }
    return out;
}

Json
Tracer::chromeTrace() const
{
    Json events = Json::array();
    for (const SpanRecord &record : sortedSpans()) {
        Json event = Json::object();
        event.set("name", Json(record.name));
        event.set("cat", Json(record.category));
        if (record.kind == SpanRecord::Kind::Counter) {
            // Counter sample: Perfetto graphs the "value" series of
            // same-named C events over time; args must stay numeric.
            event.set("ph", Json("C"));
            event.set("ts", Json(record.wallStartUs));
            event.set("pid", Json(1));
            event.set("tid", Json(record.tid));
            Json args = Json::object();
            args.set("value", Json(record.counterValue));
            event.set("args", std::move(args));
            events.push(std::move(event));
            continue;
        }
        if (record.kind == SpanRecord::Kind::Instant) {
            event.set("ph", Json("i"));
            event.set("ts", Json(record.wallStartUs));
            event.set("s", Json("t"));  // thread-scoped instant
            event.set("pid", Json(1));
            event.set("tid", Json(record.tid));
        } else {
            event.set("ph", Json("X"));
            event.set("ts", Json(record.wallStartUs));
            event.set("dur", Json(record.wallDurUs));
            event.set("pid", Json(1));
            event.set("tid", Json(record.tid));
        }
        Json args = Json::object();
        for (const auto &[key, value] : record.args)
            args.set(key, Json(value));
        std::string pathStr;
        for (size_t i = 0; i < record.path.size(); ++i) {
            if (i)
                pathStr += '.';
            pathStr += format("%llu",
                              static_cast<unsigned long long>(
                                  record.path[i]));
        }
        args.set("path", Json(pathStr));
        event.set("args", std::move(args));
        events.push(std::move(event));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Json("ms"));
    return doc;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    if (!writeFileAtomic(path, chromeTrace().dump(1) + "\n")) {
        warn("could not write trace to %s", path.c_str());
        return false;
    }
    inform("Chrome trace written to %s", path.c_str());
    return true;
}

void
ScopedSpan::open(const char *category, std::string name)
{
    active_ = true;
    record_.category = category;
    record_.name = std::move(name);
    record_.wallStartUs = Tracer::global().nowUs();
    parent_ = tlCurrent;
    tlCurrent = this;
}

ScopedSpan::ScopedSpan(const char *category, std::string name)
{
    if (!Tracer::enabled())
        return;
    open(category, std::move(name));
    if (parent_ && parent_->active_) {
        record_.path = parent_->record_.path;
        record_.path.push_back(++parent_->children_);
    } else {
        record_.path = {Tracer::currentRunTag(), kTraceOrphan,
                        ++tlOrphanSeq};
    }
}

ScopedSpan::ScopedSpan(const char *category, std::string name,
                       std::initializer_list<std::uint64_t> rootPath)
{
    if (!Tracer::enabled())
        return;
    open(category, std::move(name));
    record_.path.reserve(rootPath.size() + 1);
    record_.path.push_back(Tracer::currentRunTag());
    record_.path.insert(record_.path.end(), rootPath.begin(),
                        rootPath.end());
}

void
traceInstant(const char *category, const char *name)
{
    if (!Tracer::enabled())
        return;
    SpanRecord record;
    record.kind = SpanRecord::Kind::Instant;
    record.category = category;
    record.name = name;
    record.wallStartUs = Tracer::global().nowUs();
    // Point events path like child spans: under the innermost live
    // span (with a child ordinal), or in the orphan lane without one.
    if (tlCurrent && tlCurrent->active_) {
        record.path = tlCurrent->record_.path;
        record.path.push_back(++tlCurrent->children_);
    } else {
        record.path = {Tracer::currentRunTag(), kTraceOrphan,
                       ++tlOrphanSeq};
    }
    Tracer::global().append(std::move(record));
}

void
traceCounter(const char *category, const char *name, double value)
{
    if (!Tracer::enabled())
        return;
    SpanRecord record;
    record.kind = SpanRecord::Kind::Counter;
    record.category = category;
    record.name = name;
    record.counterValue = value;
    record.args.emplace_back("value", format("%.9g", value));
    record.wallStartUs = Tracer::global().nowUs();
    if (tlCurrent && tlCurrent->active_) {
        record.path = tlCurrent->record_.path;
        record.path.push_back(++tlCurrent->children_);
    } else {
        record.path = {Tracer::currentRunTag(), kTraceOrphan,
                       ++tlOrphanSeq};
    }
    Tracer::global().append(std::move(record));
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    tlCurrent = parent_;
    Tracer &tracer = Tracer::global();
    record_.wallDurUs = tracer.nowUs() - record_.wallStartUs;
    tracer.append(std::move(record_));
}

void
ScopedSpan::arg(const char *key, const std::string &value)
{
    if (active_)
        record_.args.emplace_back(key, value);
}

void
ScopedSpan::arg(const char *key, const char *value)
{
    if (active_)
        record_.args.emplace_back(key, value);
}

void
ScopedSpan::arg(const char *key, std::uint64_t value)
{
    if (active_)
        record_.args.emplace_back(
            key, format("%llu", static_cast<unsigned long long>(value)));
}

void
ScopedSpan::arg(const char *key, long long value)
{
    if (active_)
        record_.args.emplace_back(key, format("%lld", value));
}

void
ScopedSpan::arg(const char *key, double value)
{
    if (active_)
        record_.args.emplace_back(key, format("%.9g", value));
}

void
ScopedSpan::arg(const char *key, bool value)
{
    if (active_)
        record_.args.emplace_back(key, value ? "true" : "false");
}

} // namespace softsku
