#include "harness.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace perfbench {

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSec()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

bool
resetPeakRss()
{
    // "5" resets the kernel's resident high-water mark (VmHWM) to the
    // current resident size (proc(5), /proc/[pid]/clear_refs).
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB
    }
    return 0.0;
}

unsigned
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t salt)
{
    // SplitMix64 finalizer over (seed, salt).
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return (z & 0x7FFFFFFFULL) | 1;
}

std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001B3ULL;
    }
    char out[17];
    std::snprintf(out, sizeof(out), "%016llx",
                  static_cast<unsigned long long>(h));
    return out;
}

std::string
bitsHex(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    char out[17];
    std::snprintf(out, sizeof(out), "%016llx",
                  static_cast<unsigned long long>(bits));
    return out;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

namespace {

thread_local long currentSpan = -1;

unsigned
threadOrdinal()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned ordinal = next++;
    return ordinal;
}

} // namespace

long
SpanLog::open(const std::string &name)
{
    Span span;
    span.name = name;
    span.parent = currentSpan;
    span.thread = threadOrdinal();
    span.start = nowSec();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    currentSpan = static_cast<long>(spans_.size()) - 1;
    return currentSpan;
}

void
SpanLog::close(long id)
{
    double end = nowSec();
    std::lock_guard<std::mutex> lock(mutex_);
    Span &span = spans_[static_cast<std::size_t>(id)];
    span.end = end;
    currentSpan = span.parent;
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &span : spans_) {
        if (span.name == name && span.end > 0.0)
            out.push_back(span.end - span.start);
    }
    return out;
}

double
SpanLog::total(const std::string &name) const
{
    double sum = 0.0;
    for (double d : durations(name))
        sum += d;
    return sum;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        char line[512];
        std::snprintf(line, sizeof(line),
                      "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %zu, \"parent\": %ld}}%s\n",
                      span.name.c_str(), span.thread,
                      (span.start - origin_) * 1e6,
                      (span.end - span.start) * 1e6, i, span.parent,
                      i + 1 < spans_.size() ? "," : "");
        out << line;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

BenchSpan::BenchSpan(SpanLog *log, const std::string &name) : log_(log)
{
    if (log_)
        id_ = log_->open(name);
}

BenchSpan::~BenchSpan()
{
    if (log_)
        log_->close(id_);
}

void
CheckLedger::expect(bool ok, const std::string &name,
                    const std::string &detail)
{
    Tally &tally = byName_[name];
    ++tally.attempted;
    ++attempted_;
    if (!ok) {
        ++tally.failed;
        ++failed_;
        std::fprintf(stderr, "check failed: %s%s%s\n", name.c_str(),
                     detail.empty() ? "" : ": ", detail.c_str());
    }
}

std::string
CheckLedger::render() const
{
    std::string out;
    for (const auto &[name, tally] : byName_) {
        char line[256];
        std::snprintf(line, sizeof(line), "  %-34s %s (%llu/%llu passed)\n",
                      name.c_str(), tally.failed ? "FAIL" : "ok",
                      static_cast<unsigned long long>(tally.attempted -
                                                      tally.failed),
                      static_cast<unsigned long long>(tally.attempted));
        out += line;
    }
    return out;
}

double
hostProbeMs()
{
    // Sattolo's shuffle: one cycle through every slot, from a fixed
    // LCG so the chase is identical in every run.  The buffer is freed
    // on return, so it never counts toward the workload's memory.
    std::vector<std::uint32_t> next(std::size_t{1} << 24);
    for (std::uint32_t i = 0; i < next.size(); ++i)
        next[i] = i;
    std::uint64_t state = 0x5EED;
    for (std::size_t i = next.size() - 1; i > 0; --i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        std::size_t j = (state >> 33) % i;
        std::swap(next[i], next[j]);
    }

    constexpr std::size_t kSteps = std::size_t{1} << 20;
    double start = nowSec();
    std::uint32_t at = 0;
    for (std::size_t i = 0; i < kSteps; ++i)
        at = next[at];
    double ms = (nowSec() - start) * 1e3;
    // Keep the chase observable so it is not optimized away.
    static std::atomic<std::uint32_t> sink;
    sink.store(at, std::memory_order_relaxed);
    return ms;
}

} // namespace perfbench
